//! Genome assembly (simplified STAMP `genome`, another §IV future-work
//! benchmark): dedup segments, index prefixes, and verify that walking
//! the successor links reconstructs the original string — under several
//! contention managers.
//!
//! ```text
//! cargo run --release --example genome_demo
//! ```

use std::time::Instant;

use windowtm::managers;
use windowtm::stm::Stm;
use windowtm::workloads::Genome;

const LENGTH: usize = 4_000;
const DUPLICATION: usize = 4;
const THREADS: usize = 4;

fn main() {
    println!(
        "genome: {LENGTH} bases, k = {}, every k-mer duplicated {DUPLICATION}×, {THREADS} threads\n",
        windowtm::workloads::genome::K
    );
    for name in ["Greedy", "Polka", "RandomizedRounds", "ATS"] {
        let g = Genome::new(LENGTH, DUPLICATION, 77);
        let cm = managers::make_dispatch(name, THREADS).unwrap();
        let stm = Stm::new(cm, THREADS);
        let t0 = Instant::now();
        let uniques = g.run(&stm);
        let elapsed = t0.elapsed();
        g.verify_chain(&stm);
        let stats = stm.aggregate();
        println!(
            "{name:<18} {:>7.1} ms  unique {uniques:>5}  aborts/commit {:>6.4}  (chain verified ✓)",
            elapsed.as_secs_f64() * 1e3,
            stats.aborts_per_commit(),
        );
    }
    println!("\nall managers reconstructed the genome exactly ✓");
}
