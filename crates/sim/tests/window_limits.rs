//! Transaction ids and conflict-row offsets are `u32`. A window past
//! either range is a typed [`SimError::WindowTooLarge`], returned before
//! the graph is built: the allocator sees only what parsing the spec and
//! formatting the error take.

use wtm_sim::{build_scenario, SimConfig, SimError};

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// The error of `build`, and the allocations it took to get there.
fn refused<T: std::fmt::Debug>(build: impl FnOnce() -> Result<T, SimError>) -> (SimError, u64) {
    counting_alloc::reset();
    let e = build().unwrap_err();
    (e, counting_alloc::allocs())
}

#[test]
fn windows_past_u32_are_refused_before_anything_is_built() {
    let cases: [(&str, usize, usize); 3] = [
        // 32 × 3 000 000 × 50 = 4.8·10⁹ transaction ids.
        ("replicated@nodes=3000000", 32, 50),
        // 70 000 ids fit, a complete column's 70 000·69 999 row entries
        // (two per edge) do not.
        ("fig2-shape", 70_000, 1),
        ("clustered", 40_000, 2),
    ];
    for (spec, m, n) in cases {
        let (e, allocs) = refused(|| build_scenario(spec, m, n, 1));
        assert!(matches!(e, SimError::WindowTooLarge { .. }), "{spec}: {e}");
        assert!(allocs <= 8, "{spec}: {allocs} allocations before the error");
    }
    let (e, allocs) = refused(|| SimConfig::try_new(1 << 20, 1 << 13, 1));
    assert!(matches!(e, SimError::WindowTooLarge { .. }), "{e}");
    assert!(allocs <= 2, "{allocs} allocations before the error");
    assert!(e.to_string().contains("8589934592 transactions"), "{e}");
}

#[test]
fn the_largest_ids_still_fit() {
    assert!(SimConfig::try_new(1 << 16, (1 << 16) - 1, 1).is_ok());
    assert!(build_scenario("replicated@nodes=2", 4, 4, 1).is_ok());
}
