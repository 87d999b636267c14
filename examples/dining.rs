//! Dining philosophers as transactions: each philosopher atomically grabs
//! both forks (two `TVar`s) and eats. A perfect livelock trap for naive
//! contention management — and a showcase for why priority-carrying
//! managers (Greedy) and the window managers make progress guarantees.
//!
//! ```text
//! cargo run --example dining
//! ```

use std::sync::Arc;
use std::time::Instant;

use windowtm::harness::managers::{build_manager, classic_manager_names};
use windowtm::stm::{CmDispatch, Stm, TVar};
use windowtm::window::{WindowConfig, WindowManager, WindowVariant};

const PHILOSOPHERS: usize = 5;
const MEALS_EACH: usize = 200;

/// A fork is free (`None`) or held by philosopher `id` (`Some(id)`).
type Fork = TVar<Option<usize>>;

fn dine(cm: impl Into<CmDispatch>, window: Option<Arc<WindowManager>>) {
    let cm = cm.into();
    let name = cm.name().to_string();
    let stm = Stm::new(cm, PHILOSOPHERS);
    let forks: Vec<Fork> = (0..PHILOSOPHERS).map(|_| TVar::new(None)).collect();
    let t0 = Instant::now();

    std::thread::scope(|s| {
        for p in 0..PHILOSOPHERS {
            let ctx = stm.thread(p);
            let forks = &forks;
            s.spawn(move || {
                let left = p;
                let right = (p + 1) % PHILOSOPHERS;
                for _ in 0..MEALS_EACH {
                    // Pick up both forks atomically…
                    ctx.atomic(|tx| {
                        let l = *tx.read(&forks[left])?;
                        let r = *tx.read(&forks[right])?;
                        if l.is_none() && r.is_none() {
                            tx.write(&forks[left], Some(p))?;
                            tx.write(&forks[right], Some(p))?;
                        }
                        Ok(l.is_none() && r.is_none())
                    });
                    // …eat (nothing to do)… and put them down atomically.
                    ctx.atomic(|tx| {
                        if *tx.read(&forks[left])? == Some(p) {
                            tx.write(&forks[left], None)?;
                        }
                        if *tx.read(&forks[right])? == Some(p) {
                            tx.write(&forks[right], None)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    if let Some(w) = window {
        w.cancel();
    }

    // All forks must be back on the table.
    for (i, f) in forks.iter().enumerate() {
        assert_eq!(*f.sample(), None, "fork {i} still held!");
    }
    let stats = stm.aggregate();
    println!(
        "{name:<28} {:>6.0} ms  commits {:>6}  aborts/commit {:>6.3}",
        t0.elapsed().as_secs_f64() * 1e3,
        stats.commits,
        stats.aborts_per_commit(),
    );
}

fn main() {
    println!(
        "dining philosophers: {PHILOSOPHERS} philosophers × {MEALS_EACH} meals, atomic two-fork pickup\n"
    );
    for name in classic_manager_names() {
        dine(build_manager(name, PHILOSOPHERS, 50, 1).unwrap().cm, None);
    }
    let wm = Arc::new(WindowManager::new(
        WindowVariant::OnlineDynamic,
        WindowConfig::new(PHILOSOPHERS, 50),
    ));
    dine(wm.clone(), Some(wm));
    println!("\nno deadlocks, all forks returned ✓");
}
