//! Property tests for the window machinery: frame-clock contraction
//! invariants and configuration arithmetic under arbitrary inputs. (α's
//! property test lives with α, in `wtm-policy`.)

use proptest::prelude::*;

use wtm_window::{WindowConfig, WindowRun};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The dynamic frame clock never runs past a frame that still has
    /// pending work, never moves backwards, and drains completely.
    #[test]
    fn dynamic_clock_contraction_invariants(
        frames in proptest::collection::vec(0u64..12, 1..40)
    ) {
        let run = WindowRun::new(true, 1_000, 16);
        run.register_all(frames.iter().copied());
        run.seal_registration();
        // Shadow model of the pending multiset.
        let mut pending: std::collections::BTreeMap<u64, usize> =
            std::collections::BTreeMap::new();
        for &f in &frames {
            *pending.entry(f).or_insert(0) += 1;
        }
        let mut outstanding = frames.clone();
        let mut last_cur = run.current_frame();
        // Complete in a deterministic but arbitrary order (grouped by
        // value mod 3 — exercises early commits of future frames).
        outstanding.sort_unstable_by_key(|f| (*f % 3, *f));
        for f in outstanding {
            let min_pending = pending.keys().next().copied().unwrap_or(u64::MAX);
            prop_assert!(
                run.current_frame() <= min_pending,
                "clock ({}) ran past pending frame {min_pending}",
                run.current_frame()
            );
            run.complete(f);
            if let Some(c) = pending.get_mut(&f) {
                *c -= 1;
                if *c == 0 {
                    pending.remove(&f);
                }
            }
            let cur = run.current_frame();
            prop_assert!(cur >= last_cur, "clock went backwards");
            last_cur = cur;
        }
        prop_assert_eq!(run.outstanding(), 0);
    }

    /// Frame length is positive and monotone in τ and in window size.
    #[test]
    fn frame_len_monotone(
        m in 1usize..64,
        n in 1usize..128,
        tau1 in 1.0f64..1e8,
        tau2 in 1.0f64..1e8,
    ) {
        let cfg = WindowConfig::new(m, n);
        let (lo, hi) = if tau1 <= tau2 { (tau1, tau2) } else { (tau2, tau1) };
        prop_assert!(cfg.frame_len_ns(lo) >= 1);
        prop_assert!(cfg.frame_len_ns(lo) <= cfg.frame_len_ns(hi));
    }
}
