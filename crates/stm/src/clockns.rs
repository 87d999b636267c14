//! Cheap monotonic nanosecond timestamps for the hot loop.
//!
//! The retry loop stamps every attempt (wasted-work, committed-duration,
//! and response-time metrics, and the first attempt's stamp is the
//! transaction's age, which Greedy and Priority order by) and the window
//! manager samples τ from those stamps and counts its static frames by
//! this clock. Calling `Instant::now()` for each of them costs a vDSO
//! `clock_gettime` per call — several of which used to land on every
//! attempt. [`now`] replaces them with one coarse-but-monotonic source:
//!
//! * on `x86_64`, a calibrated `rdtsc` (invariant-TSC assumed, as on every
//!   CPU from the last decade): ~18 ns a call on a 2-vCPU KVM guest, of
//!   which the `rdtsc` itself is ~16 ns, because ticks become nanoseconds
//!   by one integer multiply and shift (a 32.32 fixed-point rate; with
//!   the u64 → f64 → u64 conversion it replaced, a call took ~26 ns);
//! * elsewhere, `Instant` deltas against a process-global epoch.
//!
//! The result is *coarse* in the sense that it trades clock-domain
//! guarantees for speed: cross-core TSC skew of a few tens of ns is
//! acceptable because the values drive progress decisions (window frames,
//! transaction age) and never safety: opacity and conflict detection read
//! no clock. Skew can only reorder events that lie within it of each
//! other; a stamp taken after a handoff from another thread is later than
//! every stamp taken before it (`a_stamp_after_a_handoff_is_later`). Code
//! that genuinely sleeps or enforces deadlines (the contention managers'
//! back-off waits) keeps using `Instant`.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds elapsed since the first use of this module.
///
/// Monotonic per thread; across threads it may disagree by the TSC skew of
/// the machine (typically well under a microsecond), so it orders
/// progress, never safety.
#[inline]
pub fn now() -> u64 {
    imp::now()
}

/// Force the one-time calibration against `Instant` to happen *now*.
///
/// The first [`now`] call on x86_64 pays a ~2 ms busy calibration window.
/// Code that derives time-based state from consecutive `now()` readings —
/// the window manager's static frame clock measures frame indices as
/// `(now() − start) / Φ` — calls this at construction so the stall lands
/// in setup, not inside the first measured frame. Idempotent and cheap
/// after the first call; returns the current timestamp.
pub fn warmup() -> u64 {
    imp::now()
}

/// Process-global epoch for the fallback path and for TSC calibration.
fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

#[cfg(target_arch = "x86_64")]
mod imp {
    use super::epoch;
    use std::sync::OnceLock;

    /// The tick value at calibration time and the nanoseconds per tick,
    /// as a 32.32 fixed-point `mult`.
    pub(super) struct Calib {
        pub(super) tsc0: u64,
        pub(super) ns0: u64,
        pub(super) mult: u64,
    }

    impl Calib {
        /// The rate `ns` nanoseconds per `ticks` ticks, rounded to the
        /// nearest 2⁻³² ns per tick: off by at most 2⁻³³ ns per tick,
        /// 0.5 ppb at a 4 GHz TSC, far inside the calibration's own error.
        pub(super) fn mult(ns: u64, ticks: u64) -> u64 {
            let ticks = u128::from(ticks.max(1));
            (((u128::from(ns) << 32) + ticks / 2) / ticks) as u64
        }

        /// Nanoseconds since the epoch at tick count `tsc`.
        #[inline]
        pub(super) fn ns_at(&self, tsc: u64) -> u64 {
            let ticks = tsc.wrapping_sub(self.tsc0);
            self.ns0 + ((u128::from(ticks) * u128::from(self.mult)) >> 32) as u64
        }
    }

    #[inline]
    fn rdtsc() -> u64 {
        // SAFETY: `_rdtsc` has no preconditions on x86_64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    pub(super) fn calib() -> &'static Calib {
        static CALIB: OnceLock<Calib> = OnceLock::new();
        CALIB.get_or_init(|| {
            // Measure the tick rate against Instant over a short busy window.
            // 2 ms keeps the relative calibration error well under 0.1%.
            let epoch = epoch();
            let t0 = std::time::Instant::now();
            let c0 = rdtsc();
            while t0.elapsed() < std::time::Duration::from_millis(2) {
                std::hint::spin_loop();
            }
            let c1 = rdtsc();
            let dt = t0.elapsed();
            Calib {
                tsc0: c0,
                ns0: (t0.duration_since(*epoch)).as_nanos() as u64,
                mult: Calib::mult(dt.as_nanos() as u64, c1.wrapping_sub(c0)),
            }
        })
    }

    #[inline]
    pub fn now() -> u64 {
        calib().ns_at(rdtsc())
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod imp {
    use super::epoch;

    #[inline]
    pub fn now() -> u64 {
        epoch().elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn now_is_monotonic_on_one_thread() {
        let mut prev = now();
        for _ in 0..10_000 {
            let t = now();
            assert!(t >= prev, "clock went backwards: {prev} -> {t}");
            prev = t;
        }
    }

    #[test]
    fn a_stamp_after_a_handoff_is_later() {
        // Two threads hand a baton back and forth. Each stamps on receipt,
        // checks the stamp against the one handed over, waits at least
        // 1 µs and hands its stamp on with a Release store: what the age
        // order and the window frame clock assume of stamps across threads.
        use std::sync::atomic::{AtomicU64, Ordering};
        const HANDOFFS: u64 = 1_000;
        let (turn, baton) = (AtomicU64::new(0), AtomicU64::new(0));
        std::thread::scope(|s| {
            for side in 0..2 {
                let (turn, baton) = (&turn, &baton);
                s.spawn(move || {
                    for t in (side..HANDOFFS).step_by(2) {
                        while turn.load(Ordering::Acquire) != t {
                            std::thread::yield_now();
                        }
                        let handed = baton.load(Ordering::Relaxed);
                        let stamp = now();
                        assert!(stamp > handed, "handoff {t}: {stamp} ns after {handed} ns");
                        while now() < stamp + 1_000 {
                            std::hint::spin_loop();
                        }
                        baton.store(stamp, Ordering::Relaxed);
                        turn.store(t + 1, Ordering::Release);
                    }
                });
            }
        });
        assert_eq!(turn.into_inner(), HANDOFFS);
    }

    #[test]
    fn now_tracks_wall_time() {
        let a = now();
        std::thread::sleep(Duration::from_millis(20));
        let b = now();
        let dt = b - a;
        // Within [10ms, 500ms]: generous bounds that survive loaded CI
        // machines while still catching a broken calibration (off by 10x).
        assert!(
            (10_000_000..500_000_000).contains(&dt),
            "20ms sleep measured as {dt} ns"
        );
    }

    /// The replaced conversion, kept as the oracle of the fixed-point one:
    /// ticks to f64, times the rate, truncated back to an integer.
    #[cfg(target_arch = "x86_64")]
    fn f64_ns_at(c: &imp::Calib, rate: f64, tsc: u64) -> u64 {
        let ticks = tsc.wrapping_sub(c.tsc0);
        c.ns0 + (ticks as f64 * rate) as u64
    }

    /// Tick deltas from 0 to 2⁵⁰ (~4 days at 3 GHz), ascending: every
    /// delta below 4096, then each power of two with its neighbours and
    /// points spread between it and the next.
    #[cfg(target_arch = "x86_64")]
    fn tick_deltas() -> Vec<u64> {
        let mut deltas: Vec<u64> = (0..4096).collect();
        for k in 12..50 {
            let p = 1u64 << k;
            deltas.extend([p - 1, p, p + 1]);
            deltas.extend((1..64).map(|i| p + (p / 64) * i + (i * 7919) % 61));
        }
        deltas.push(1 << 50);
        deltas.sort_unstable();
        deltas.dedup();
        deltas
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn fixed_point_ticks_match_the_f64_formula_and_stay_monotone() {
        // The calibrated rate, then rates for TSCs of 1, 2.5, 3 and 4.2 GHz
        // (whose ns per tick have no short binary expansion).
        let cal = imp::calib();
        let mut calibs = vec![imp::Calib {
            tsc0: cal.tsc0,
            ns0: cal.ns0,
            mult: cal.mult,
        }];
        for (ns, ticks) in [(1, 1), (2, 5), (1, 3), (10, 42)] {
            let mult = imp::Calib::mult(ns, ticks);
            // The rate is rounded to the nearest 2⁻³² ns per tick.
            let exact = ns as f64 / ticks as f64;
            let err = (mult as f64 / 2f64.powi(32) - exact).abs();
            assert!(err <= 2f64.powi(-33), "{ns}/{ticks}: off by {err}");
            calibs.push(imp::Calib {
                tsc0: 12_345,
                ns0: 678,
                mult,
            });
        }
        for c in &calibs {
            // The rate the fixed point holds, exactly, as an f64.
            let rate = c.mult as f64 / 2f64.powi(32);
            let mut prev = 0;
            for d in tick_deltas() {
                let tsc = c.tsc0.wrapping_add(d);
                let (got, want) = (c.ns_at(tsc), f64_ns_at(c, rate, tsc));
                assert!(
                    got.abs_diff(want) <= 1,
                    "mult {}: {d} ticks gave {got} ns, the f64 formula {want} ns",
                    c.mult
                );
                assert!(got >= prev, "mult {}: not monotone at {d} ticks", c.mult);
                prev = got;
            }
        }
    }
}
