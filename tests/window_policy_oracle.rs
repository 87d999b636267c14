//! The window policy core checked against the two copies it replaced. The
//! oracles below are the host manager's `next_assigned_frame`,
//! `re_randomize`, `c_from_ci` and `alpha_for`, and the simulator's
//! `assign_frames` and adaptive `reassign`, kept as they were written. Over
//! random windows, estimates, clock readings and seeds, the core must
//! assign the same frames and estimates, order the same keys, and leave
//! every RNG in the same state.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use windowtm::policy::{is_low, key, AdaptiveMode, Policy, Schedule};

/// `WindowConfig::ln_mn` and `SimConfig::ln_mn`, as both were written.
fn oracle_ln_mn(m: usize, n: usize) -> f64 {
    ((m * n) as f64).ln().max(1.0)
}

/// `WindowConfig::alpha_for`.
fn oracle_alpha(m: usize, n: usize, c: f64) -> u64 {
    let a = (c / oracle_ln_mn(m, n)).ceil();
    (a as u64).clamp(1, n as u64)
}

/// The host's per-thread window state and hooks, before the core.
struct HostOracle {
    m: usize,
    n: usize,
    mode: AdaptiveMode,
    c: f64,
    q: u64,
    j: usize,
    j_base: usize,
    base: u64,
    rng: SmallRng,
}

impl HostOracle {
    fn c_from_ci(&self, ci: f64) -> f64 {
        1.0 + ci.clamp(0.0, 1.0) * self.n as f64 * oracle_ln_mn(self.m, self.n)
    }

    /// `begin_window`'s estimate refresh and delay draw.
    fn begin_window(&mut self, c_init: f64, ci: f64) {
        self.c = match self.mode {
            AdaptiveMode::Known => c_init,
            AdaptiveMode::Doubling => 1.0,
            AdaptiveMode::ContentionIntensity => self.c_from_ci(ci),
        };
        let alpha = oracle_alpha(self.m, self.n, self.c);
        self.q = self.rng.random_range(0..alpha);
        (self.j, self.j_base, self.base) = (0, 0, 0);
    }

    fn next_assigned_frame(&self) -> u64 {
        self.base + self.q + (self.j - self.j_base) as u64
    }

    fn re_randomize(&mut self, cur_frame: u64) {
        self.base = cur_frame + 1;
        self.q = self
            .rng
            .random_range(0..oracle_alpha(self.m, self.n, self.c));
        self.j_base = self.j + 1;
    }

    /// `on_commit`'s bad-event block.
    fn on_commit(&mut self, assigned: u64, cur: u64, ci: f64) {
        let missed = cur > assigned;
        if missed && self.j + 1 < self.n {
            match self.mode {
                AdaptiveMode::Known => {}
                AdaptiveMode::Doubling => {
                    let cap = (self.m * self.n) as f64;
                    self.c = (self.c * 2.0).min(cap);
                    self.re_randomize(cur);
                }
                AdaptiveMode::ContentionIntensity => {
                    self.c = self.c_from_ci(ci);
                    self.re_randomize(cur);
                }
            }
        }
        self.j += 1;
    }
}

/// The simulator's `assign_frames`.
fn oracle_assign_frames(m: usize, n: usize, c: &[f64], rng: &mut SmallRng) -> Vec<u64> {
    let mut assigned = Vec::with_capacity(m * n);
    for &c in c {
        let alpha = ((c / oracle_ln_mn(m, n)).ceil() as u64).clamp(1, n as u64);
        let q = rng.random_range(0..alpha);
        assigned.extend((0..n as u64).map(|j| q + j));
    }
    assigned
}

/// The simulator's adaptive bad-event block with a static `reassign`,
/// skipping a window's last commit as the host's does.
fn oracle_sim_commit(
    (m, n): (usize, usize),
    c: &mut [f64],
    assigned: &mut [u64],
    t: usize,
    cur: u64,
    rng: &mut SmallRng,
) {
    let (i, j) = (t / n, t % n);
    if j + 1 < n && cur > assigned[t] {
        let cap = (m as f64) * (n as f64);
        c[i] = (c[i] * 2.0).min(cap);
        let alpha = ((c[i] / oracle_ln_mn(m, n)).ceil() as u64).clamp(1, n as u64);
        let new_q = rng.random_range(0..alpha);
        let new_base = cur + 1;
        for jj in (j + 1)..n {
            assigned[i * n + jj] = new_base + new_q + (jj - (j + 1)) as u64;
        }
    }
}

const MODES: [AdaptiveMode; 3] = [
    AdaptiveMode::Known,
    AdaptiveMode::Doubling,
    AdaptiveMode::ContentionIntensity,
];

/// A clock reading near `assigned`: often past it (a bad event), often not.
fn clock_near(rng: &mut SmallRng, assigned: u64) -> u64 {
    (assigned + rng.random_range(0..5u64)).saturating_sub(2)
}

fn rng_state(rng: &SmallRng) -> String {
    format!("{rng:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The host's windows: estimates, delays, frames, ranks and draws.
    #[test]
    fn host_windows_match_the_manager_oracle(
        m in 1usize..40,
        n in 1usize..60,
        mode in 0usize..3,
        c_init in 0.0f64..5e3,
        seed in 0u64..1_000_000,
    ) {
        let mode = MODES[mode];
        let policy = Policy::new(m, n, mode, false);
        let mut oracle = HostOracle {
            m, n, mode, c: 0.0, q: 0, j: n, j_base: 0, base: 0,
            rng: SmallRng::seed_from_u64(seed),
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut inputs = SmallRng::seed_from_u64(seed ^ 0x1A9);
        for _ in 0..3 {
            let ci: f64 = inputs.random_range(0.0..1.2);
            oracle.begin_window(c_init, ci);
            let mut sched = Schedule::start(&policy, policy.start_c(c_init, ci), &mut rng);
            prop_assert_eq!((sched.c(), sched.frame(0)), (oracle.c, oracle.q));
            for j in 0..n {
                let assigned = sched.frame(j);
                prop_assert_eq!(assigned, oracle.next_assigned_frame(), "j = {}", j);
                let rank = policy.rank(&mut rng);
                prop_assert_eq!(rank, oracle.rng.random_range(1..=m as u32));
                let (cur, ci) = (clock_near(&mut inputs, assigned), inputs.random_range(0.0..1.0));
                oracle.on_commit(assigned, cur, ci);
                sched.commit(&policy, j, assigned, cur, ci, &mut rng);
                prop_assert_eq!(sched.c(), oracle.c);
            }
            prop_assert_eq!(rng_state(&rng), rng_state(&oracle.rng));
        }
    }

    /// The simulator's one window: known-estimate frames (Online, Offline)
    /// and the adaptive re-randomizations, commit by commit.
    #[test]
    fn sim_frames_match_assign_frames_and_reassign(
        m in 1usize..40,
        n in 1usize..60,
        c_max in 1usize..3_000,
        seed in 0u64..1_000_000,
    ) {
        let mut inputs = SmallRng::seed_from_u64(seed ^ 0x5EE);
        let known: Vec<f64> = (0..m).map(|_| inputs.random_range(1..=c_max) as f64).collect();
        for (mode, c0) in [(AdaptiveMode::Known, known), (AdaptiveMode::Doubling, vec![1.0; m])] {
            let policy = Policy::new(m, n, mode, false);
            let (mut rng, mut oracle_rng) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            let mut c = c0.clone();
            let mut expected = oracle_assign_frames(m, n, &c, &mut oracle_rng);
            let mut threads: Vec<Schedule> = c0
                .iter()
                .map(|&k| Schedule::start(&policy, policy.start_c(k, 0.0), &mut rng))
                .collect();
            let frames: Vec<u64> = threads.iter().flat_map(|s| (0..n).map(|j| s.frame(j))).collect();
            prop_assert_eq!(&frames, &expected);
            // Commits in a random interleaving that keeps each thread's order.
            let mut next_j = vec![0usize; m];
            loop {
                let open: Vec<usize> = (0..m).filter(|&i| next_j[i] < n).collect();
                let Some(&i) = open.get(inputs.random_range(0..open.len().max(1))) else {
                    break;
                };
                let (j, t) = (next_j[i], i * n + next_j[i]);
                let assigned = threads[i].frame(j);
                prop_assert_eq!(assigned, expected[t]);
                let cur = clock_near(&mut inputs, assigned);
                if mode == AdaptiveMode::Doubling {
                    oracle_sim_commit((m, n), &mut c, &mut expected, t, cur, &mut oracle_rng);
                }
                threads[i].commit(&policy, j, assigned, cur, 0.0, &mut rng);
                prop_assert_eq!(threads[i].c(), c[i]);
                for jj in j + 1..n {
                    prop_assert_eq!(threads[i].frame(jj), expected[i * n + jj]);
                }
                next_j[i] += 1;
            }
            prop_assert_eq!(rng_state(&rng), rng_state(&oracle_rng));
        }
    }

    /// The key orders as the host's `(low, rank, attempt id)` tuple and as
    /// the simulator's packed `low << 64 | rank << 32 | id`, and π₁ is the
    /// host's and the simulator's "assigned frame still ahead".
    #[test]
    fn keys_order_as_both_old_keys(
        a in (0u8..2, 1u32..5, 0u32..=u32::MAX),
        b in (0u8..2, 1u32..5, 0u32..=u32::MAX),
        id_a in 0u64..=u64::MAX,
        id_b in 0u64..4,
        frame in 0u64..8,
        cur in 0u64..8,
    ) {
        let (a, b) = ((a.0 == 1, a.1, a.2), (b.0 == 1, b.1, b.2));
        let sim = |(low, rank, id): (bool, u32, u32)| (low as u128) << 64 | (rank as u128) << 32 | id as u128;
        let new = |(low, rank, id): (bool, u32, u32)| key(low, rank, id as u64);
        prop_assert_eq!(new(a) < new(b), sim(a) < sim(b));
        prop_assert_eq!(new(a) == new(b), a == b);
        let (host_a, host_b) = ((a.0, a.1, id_a), (b.0, b.1, id_b));
        prop_assert_eq!(key(a.0, a.1, id_a) < key(b.0, b.1, id_b), host_a < host_b);
        for f in [frame, u64::MAX] {
            prop_assert_eq!(is_low(f, cur), f == u64::MAX || f > cur);
        }
    }
}
