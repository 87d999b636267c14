//! Simulation schedulers: the baselines and the window family.
//!
//! | scheduler | models | select | priority key |
//! |---|---|---|---|
//! | [`FreeRandomizedScheduler`] | RandomizedRounds, no window | everything issued | (rank, id), rank re-rolled on abort |
//! | [`OneShotScheduler`] | N sequential one-shot problems | current column only | (rank, id) |
//! | [`GreedyTimestampScheduler`] | the Greedy contention manager | everything issued | (timestamp, id): older wins |
//! | [`PolkaProgressScheduler`] | the Polka contention manager | everything issued | (u32::MAX − progress, rank, id): richer wins |
//! | [`OnlineWindowScheduler`] | the paper's Online / Online-Dynamic / Adaptive; Adaptive-Dynamic never misses a frame, so never adapts: it is Online-Dynamic with no delay | everything issued | (π₁ = low, π₂ = rank, id) |
//! | [`OfflineWindowScheduler`] | the paper's Offline (§II-B1) | one independent set per slot, from a greedy coloring | never duels (sets are conflict-free) |
//!
//! A duel between two conflicting selected transactions goes to the
//! smaller key: the engine asks each scheduler for the keys, never for a
//! verdict. A key ends in the transaction's id, so no two transactions
//! share one and every duel has exactly one loser.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wtm_policy::{is_low, key, AdaptiveMode, Policy, Schedule};

use crate::coloring::Coloring;
use crate::engine::SimConfig;
use crate::graph::{ConflictGraph, TxnId};

/// Scheduling policy plugged into [`crate::engine::simulate`].
pub trait SimScheduler {
    /// Narrow `issued` in place to the transactions that execute at
    /// `step`, in the order they run. The default runs everything issued.
    fn select(&mut self, _step: u64, _issued: &mut Vec<TxnId>, _graph: &ConflictGraph) {}
    /// The total priority key of selected transaction `t` at local time
    /// `step`: of two conflicting selected transactions, the one with the
    /// larger key loses. Keys of distinct transactions differ. The engine
    /// asks after `select`, at most once per transaction and node clock
    /// in a tick, and reuses the answer for every duel of that tick.
    fn priority(&self, step: u64, t: TxnId) -> u128;
    /// A selected transaction lost a duel and restarted.
    fn on_abort(&mut self, _t: TxnId) {}
    /// A transaction committed at `step`.
    fn on_commit(&mut self, _t: TxnId, _step: u64) {}
}

// ---------------------------------------------------------------------------
// RandomizedRounds, free-running
// ---------------------------------------------------------------------------

/// Schneider & Wattenhofer's RandomizedRounds with no window structure:
/// every issued transaction runs; duels go to the lower random rank.
pub struct FreeRandomizedScheduler {
    ranks: Vec<u32>,
    rng: SmallRng,
    m: u32,
}

impl FreeRandomizedScheduler {
    /// New scheduler for a window of `cfg` shape.
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xF2EE);
        let m = cfg.m.max(1) as u32;
        FreeRandomizedScheduler {
            ranks: (0..cfg.m * cfg.n)
                .map(|_| rng.random_range(1..=m))
                .collect(),
            rng,
            m,
        }
    }
}

impl SimScheduler for FreeRandomizedScheduler {
    fn priority(&self, _step: u64, t: TxnId) -> u128 {
        (self.ranks[t as usize] as u128) << 32 | t as u128
    }

    fn on_abort(&mut self, t: TxnId) {
        self.ranks[t as usize] = self.rng.random_range(1..=self.m);
    }
}

// ---------------------------------------------------------------------------
// One-shot baseline
// ---------------------------------------------------------------------------

/// The trivial window decomposition the paper improves on: treat the
/// window as `N` independent one-shot problems — column `j + 1` starts
/// only when **all** of column `j` committed.
pub struct OneShotScheduler {
    inner: FreeRandomizedScheduler,
    committed_in_col: Vec<usize>,
    cur_col: usize,
    m: usize,
}

impl OneShotScheduler {
    /// New scheduler for a window of `cfg` shape.
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        OneShotScheduler {
            inner: FreeRandomizedScheduler::new(cfg, seed ^ 0x15507),
            committed_in_col: vec![0; cfg.n],
            cur_col: 0,
            m: cfg.m,
        }
    }
}

impl SimScheduler for OneShotScheduler {
    fn select(&mut self, _step: u64, issued: &mut Vec<TxnId>, graph: &ConflictGraph) {
        // Transaction `t` sits in column `t mod N`.
        let (n, col) = (graph.n() as TxnId, self.cur_col as TxnId);
        issued.retain(|&t| t % n == col);
    }

    fn priority(&self, step: u64, t: TxnId) -> u128 {
        self.inner.priority(step, t)
    }

    fn on_abort(&mut self, t: TxnId) {
        self.inner.on_abort(t);
    }

    fn on_commit(&mut self, t: TxnId, _step: u64) {
        let col = (t as usize) % self.committed_in_col.len();
        self.committed_in_col[col] += 1;
        while self.cur_col < self.committed_in_col.len()
            && self.committed_in_col[self.cur_col] == self.m
        {
            self.cur_col += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// Greedy (timestamps)
// ---------------------------------------------------------------------------

/// The Greedy contention manager in the abstract model: age decides, the
/// younger transaction always loses, timestamps assigned at first issue
/// and kept across restarts.
pub struct GreedyTimestampScheduler {
    ts: Vec<u64>,
    next_stamp: u64,
}

impl GreedyTimestampScheduler {
    /// New scheduler for a window of `cfg` shape.
    pub fn new(cfg: &SimConfig) -> Self {
        GreedyTimestampScheduler {
            ts: vec![u64::MAX; cfg.m * cfg.n],
            next_stamp: 0,
        }
    }
}

impl SimScheduler for GreedyTimestampScheduler {
    fn select(&mut self, _step: u64, issued: &mut Vec<TxnId>, _graph: &ConflictGraph) {
        for &t in issued.iter() {
            if self.ts[t as usize] == u64::MAX {
                self.ts[t as usize] = self.next_stamp;
                self.next_stamp += 1;
            }
        }
    }

    fn priority(&self, _step: u64, t: TxnId) -> u128 {
        (self.ts[t as usize] as u128) << 32 | t as u128
    }
}

// ---------------------------------------------------------------------------
// Polka (karma = progress)
// ---------------------------------------------------------------------------

/// The Polka contention manager in the abstract model. Karma — the work a
/// transaction has invested — is the number of steps its current attempt
/// has executed; the poorer side of a duel loses. (Polka's exponential
/// backoff has no direct analogue in a duel-per-step model: waiting *is*
/// losing a step. The priority rule is the part that shapes schedules.)
/// Ties break by a random rank, re-rolled on abort, to avoid the
/// deterministic livelock of equal-progress duels.
pub struct PolkaProgressScheduler {
    progress: Vec<u32>,
    /// The tie-breaking ranks, re-rolled on abort as RandomizedRounds'.
    rounds: FreeRandomizedScheduler,
}

impl PolkaProgressScheduler {
    /// New scheduler for a window of `cfg` shape.
    pub fn new(cfg: &SimConfig, seed: u64) -> Self {
        PolkaProgressScheduler {
            progress: vec![0; cfg.m * cfg.n],
            // RandomizedRounds mixes in its own constant: this seeds its
            // ranks from `seed ^ 0x90164`.
            rounds: FreeRandomizedScheduler::new(cfg, seed ^ 0x90164 ^ 0xF2EE),
        }
    }
}

impl SimScheduler for PolkaProgressScheduler {
    fn select(&mut self, _step: u64, issued: &mut Vec<TxnId>, _graph: &ConflictGraph) {
        // Everyone runs; progress is credited here (one step per select).
        for &t in issued.iter() {
            self.progress[t as usize] = self.progress[t as usize].saturating_add(1);
        }
    }

    fn priority(&self, step: u64, t: TxnId) -> u128 {
        // Richer karma survives; the poorer side restarts.
        let poverty = u32::MAX - self.progress[t as usize];
        (poverty as u128) << 64 | self.rounds.priority(step, t)
    }

    fn on_abort(&mut self, t: TxnId) {
        self.progress[t as usize] = 0;
        self.rounds.on_abort(t);
    }
}

// ---------------------------------------------------------------------------
// Window: Online / Online-Dynamic / Adaptive
// ---------------------------------------------------------------------------

/// Each transaction's frame, indexed by id, and every thread's schedule,
/// started in thread order (`Cᵢ` known from `graph`, or the adaptive start
/// without one).
fn start_schedules(
    p: &Policy,
    cfg: &SimConfig,
    graph: Option<&ConflictGraph>,
    rng: &mut SmallRng,
) -> (Vec<u64>, Vec<Schedule>) {
    let known = |i| graph.map_or(1, |g: &ConflictGraph| g.contention_of_thread(i).max(1)) as f64;
    let threads: Vec<Schedule> = (0..cfg.m)
        .map(|i| Schedule::start(p, p.start_c(known(i), 0.0), rng))
        .collect();
    let frames = threads.iter().flat_map(|s| (0..cfg.n).map(|j| s.frame(j)));
    (frames.collect(), threads)
}

/// Frame-clock driver for the window schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowMode {
    /// Frames advance with time: frame = step / Φ_steps.
    Static,
    /// Frames contract: the next frame starts when every transaction
    /// assigned to the current one has committed (§III-B).
    Dynamic,
}

/// The paper's Online algorithm (§II-B2) and its Dynamic and Adaptive
/// variants: a step-driven frame clock over each thread's [`wtm_policy`]
/// schedule; duels compare `(π₁, π₂, id)`.
pub struct OnlineWindowScheduler {
    policy: Policy,
    phi_steps: u64,
    n: usize,
    mode: WindowMode,
    /// Per-thread `Cᵢ`, `qᵢ` and segment.
    threads: Vec<Schedule>,
    /// Each transaction's frame, cached from `threads`.
    assigned: Vec<u64>,
    ranks: Vec<u32>,
    rng: SmallRng,
    /// Dynamic contraction: uncommitted transactions per frame.
    pending: Vec<u32>,
    cur_frame: u64,
}

impl OnlineWindowScheduler {
    /// Online with **known** contention: `Cᵢ` taken from the graph.
    pub fn new(cfg: &SimConfig, graph: &ConflictGraph, mode: WindowMode, seed: u64) -> Self {
        Self::build(cfg, Some(graph), mode, seed)
    }

    /// Adaptive variant: starts every `Cᵢ` at 1, doubles on bad events
    /// and re-randomizes the rest of the thread's window (§II-B3). Under
    /// [`WindowMode::Dynamic`] no frame is ever missed, so `Cᵢ` stays 1:
    /// Online-Dynamic with no delay.
    pub fn adaptive(cfg: &SimConfig, mode: WindowMode, seed: u64) -> Self {
        Self::build(cfg, None, mode, seed)
    }

    /// Known contention from `graph`, or adaptive without one.
    fn build(cfg: &SimConfig, graph: Option<&ConflictGraph>, mode: WindowMode, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x817D07);
        let adaptive = graph.map_or(AdaptiveMode::Doubling, |_| AdaptiveMode::Known);
        let policy = Policy::new(cfg.m, cfg.n, adaptive, mode == WindowMode::Dynamic);
        let (assigned, threads) = start_schedules(&policy, cfg, graph, &mut rng);
        let ranks = (0..cfg.m * cfg.n).map(|_| policy.rank(&mut rng)).collect();
        let mut pending = Vec::new();
        if mode == WindowMode::Dynamic {
            pending.resize(policy.frames_per_window(), 0);
            assigned.iter().for_each(|&f| pending[f as usize] += 1);
        }
        let mut sched = OnlineWindowScheduler {
            policy,
            phi_steps: cfg.phi_steps(),
            n: cfg.n,
            mode,
            threads,
            assigned,
            ranks,
            rng,
            pending,
            cur_frame: 0,
        };
        sched.contract();
        sched
    }

    fn contract(&mut self) {
        while (self.cur_frame as usize) < self.pending.len()
            && self.pending[self.cur_frame as usize] == 0
        {
            self.cur_frame += 1;
        }
    }

    fn frame_at(&self, step: u64) -> u64 {
        match self.mode {
            WindowMode::Static => step / self.phi_steps,
            WindowMode::Dynamic => self.cur_frame,
        }
    }

    /// Contention estimate of a thread (tests).
    pub fn contention_estimate(&self, i: usize) -> f64 {
        self.threads[i].c()
    }
}

impl SimScheduler for OnlineWindowScheduler {
    // `select` keeps the default: low-priority transactions run too,
    // just abortable.

    fn priority(&self, step: u64, t: TxnId) -> u128 {
        let low = is_low(self.assigned[t as usize], self.frame_at(step));
        key(low, self.ranks[t as usize], t as u64)
    }

    fn on_abort(&mut self, t: TxnId) {
        self.ranks[t as usize] = self.policy.rank(&mut self.rng);
    }

    fn on_commit(&mut self, t: TxnId, step: u64) {
        let cur = self.frame_at(step.saturating_sub(1));
        let assigned = self.assigned[t as usize];
        if self.mode == WindowMode::Dynamic {
            self.pending[assigned as usize] -= 1;
            self.contract();
        }
        let (i, j) = (t as usize / self.n, t as usize % self.n);
        let s = &mut self.threads[i];
        if s.commit(&self.policy, j, assigned, cur, 0.0, &mut self.rng) {
            for jj in j + 1..self.n {
                self.assigned[i * self.n + jj] = s.frame(jj);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Window: Offline (coloring)
// ---------------------------------------------------------------------------

/// The paper's Offline algorithm: inside each frame, greedy-color the
/// high-priority pending transactions and run one color class (extended to
/// a maximal independent set with opportunistic low-priority
/// transactions) per `τ`-slot. Requires the conflict graph — which is why
/// the paper evaluates it only in theory, and we only in simulation.
pub struct OfflineWindowScheduler {
    tau: u64,
    phi_steps: u64,
    assigned: Vec<u64>,
    slot_plan: Vec<TxnId>,
    plan_slot: u64,
    /// Scratch reused by every plan and tick, all indexed by transaction:
    /// the slot's high-priority set and its coloring, the plan's members
    /// and their neighbors (`taken`), and this tick's issued set (`live`).
    high: Vec<TxnId>,
    coloring: Coloring,
    taken: Marks,
    live: Marks,
}

/// A set of transaction ids, emptied in O(1) by moving to a new
/// generation.
struct Marks {
    at: Vec<u32>,
    generation: u32,
}

impl Marks {
    fn new(len: usize) -> Self {
        Marks {
            at: vec![0; len],
            generation: 0,
        }
    }

    fn clear(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.at.fill(0);
            self.generation = 1;
        }
    }

    fn insert(&mut self, t: TxnId) {
        self.at[t as usize] = self.generation;
    }

    fn contains(&self, t: TxnId) -> bool {
        self.at[t as usize] == self.generation
    }
}

impl OfflineWindowScheduler {
    /// Offline with known contention (`Cᵢ` from the graph).
    pub fn new(cfg: &SimConfig, graph: &ConflictGraph, seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0FF11E);
        let policy = Policy::new(cfg.m, cfg.n, AdaptiveMode::Known, false);
        let (assigned, _) = start_schedules(&policy, cfg, Some(graph), &mut rng);
        let total = cfg.m * cfg.n;
        OfflineWindowScheduler {
            tau: cfg.tau as u64,
            phi_steps: cfg.phi_steps(),
            assigned,
            slot_plan: Vec::new(),
            plan_slot: u64::MAX,
            high: Vec::new(),
            coloring: Coloring::new(total),
            taken: Marks::new(total),
            live: Marks::new(total),
        }
    }
}

impl SimScheduler for OfflineWindowScheduler {
    fn select(&mut self, step: u64, issued: &mut Vec<TxnId>, graph: &ConflictGraph) {
        let slot = step / self.tau;
        if slot != self.plan_slot {
            self.plan_slot = slot;
            let cur_frame = step / self.phi_steps;
            self.high.clear();
            self.high.extend(
                issued
                    .iter()
                    .copied()
                    .filter(|&t| !is_low(self.assigned[t as usize], cur_frame)),
            );
            // Largest color class of the high-priority subgraph.
            self.coloring.color(graph, &self.high);
            self.coloring.largest_class(&mut self.slot_plan);
            // Extend to a maximal independent set with the rest of the
            // issued transactions (low priority runs opportunistically):
            // one that is neither in the plan nor next to it joins.
            self.taken.clear();
            for &p in &self.slot_plan {
                self.taken.insert(p);
                for &nb in graph.neighbors(p) {
                    self.taken.insert(nb);
                }
            }
            for &t in issued.iter() {
                if !self.taken.contains(t) {
                    self.slot_plan.push(t);
                    self.taken.insert(t);
                    for &nb in graph.neighbors(t) {
                        self.taken.insert(nb);
                    }
                }
            }
        }
        // Only those still issued (uncommitted) remain scheduled, in plan
        // order.
        self.live.clear();
        for &t in issued.iter() {
            self.live.insert(t);
        }
        issued.clear();
        issued.extend(
            self.slot_plan
                .iter()
                .copied()
                .filter(|&t| self.live.contains(t)),
        );
    }

    fn priority(&self, _step: u64, t: TxnId) -> u128 {
        debug_assert!(false, "offline schedules are conflict-free by construction");
        t as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate;
    use crate::scenario::{build_sim_scheduler, SIM_SCHEDULER_NAMES};

    /// Each of `names` built by the registry, beside its name.
    fn registered(
        names: &[&'static str],
        cfg: &SimConfig,
        g: &ConflictGraph,
        seed: u64,
    ) -> Vec<(&'static str, Box<dyn SimScheduler>)> {
        let build = |name| build_sim_scheduler(name, cfg, g, seed).unwrap();
        names.iter().map(|&name| (name, build(name))).collect()
    }

    fn run_all(m: usize, n: usize, p: f64, seed: u64) -> Vec<(&'static str, u64, bool)> {
        let g = ConflictGraph::per_column_random(m, n, p, seed);
        let cfg = SimConfig::new(m, n, 2);
        let scheds = registered(SIM_SCHEDULER_NAMES, &cfg, &g, seed);
        let run = |(name, mut s): (_, Box<dyn SimScheduler>)| {
            let o = simulate(&g, &cfg, s.as_mut());
            (name, o.makespan, o.all_committed)
        };
        scheds.into_iter().map(run).collect()
    }

    #[test]
    fn every_scheduler_completes_random_windows() {
        for seed in [1, 7, 23] {
            for (name, makespan, done) in run_all(6, 8, 0.5, seed) {
                assert!(done, "{name} failed to complete (seed {seed})");
                assert!(makespan >= 16, "{name}: N·τ = 16 is a lower bound");
            }
        }
    }

    #[test]
    fn every_scheduler_completes_clique_columns() {
        let g = ConflictGraph::complete_columns(5, 4);
        let cfg = SimConfig::new(5, 4, 1);
        let seed = 5;
        let names = [
            "RandomizedRounds",
            "OneShot",
            "Greedy",
            "Online-Dynamic",
            "Offline",
        ];
        for (name, mut s) in registered(&names, &cfg, &g, seed) {
            let o = simulate(&g, &cfg, s.as_mut());
            assert!(o.all_committed, "{name} incomplete");
            // N·τ = 4 is the universal lower bound (per-thread sequences).
            // Note that 5·4·τ = 20 is NOT a lower bound here: schedulers
            // that skew threads into different columns avoid the cliques
            // entirely — the very effect the window algorithms exploit.
            assert!(o.makespan >= 4, "{name}: {}", o.makespan);
        }
        // The one-shot baseline, however, cannot skew: its column barrier
        // forces each 5-clique to serialize, so 5·4·τ = 20 binds it.
        let mut one = OneShotScheduler::new(&cfg, seed);
        let o = simulate(&g, &cfg, &mut one);
        assert!(
            o.makespan >= 20,
            "one-shot must serialize cliques: {}",
            o.makespan
        );
    }

    #[test]
    fn offline_never_duels() {
        // If Offline's independent sets were wrong, priority() would panic
        // in debug builds. Run a dense case to stress it.
        let g = ConflictGraph::per_column_random(8, 6, 0.9, 3);
        let cfg = SimConfig::new(8, 6, 3);
        let mut s = OfflineWindowScheduler::new(&cfg, &g, 3);
        let o = simulate(&g, &cfg, &mut s);
        assert!(o.all_committed);
        assert_eq!(o.aborts, 0, "offline schedules are conflict-free");
    }

    #[test]
    fn greedy_has_no_livelock_and_priority_inversion() {
        let g = ConflictGraph::complete_columns(6, 3);
        let cfg = SimConfig::new(6, 3, 4);
        let mut s = GreedyTimestampScheduler::new(&cfg);
        let o = simulate(&g, &cfg, &mut s);
        assert!(o.all_committed, "greedy must terminate (pending commit)");
        // The oldest transaction always runs unobstructed, so progress is
        // continuous; once winners move to later columns the cliques thin
        // out. Makespan must sit between the N·τ floor and full
        // serialization.
        assert!(o.makespan >= 12);
        assert!(o.makespan <= 3 * 6 * 4);
    }

    #[test]
    fn window_beats_oneshot_on_clustered_conflicts() {
        // The paper's motivating regime (§I-B): dense conflicts inside
        // columns. The window algorithms shift threads apart; the one-shot
        // baseline forces every column clique to serialize behind a
        // barrier.
        let mut window_wins = 0;
        let mut trials = 0;
        for seed in 0..5 {
            let g = ConflictGraph::complete_columns(8, 12);
            let cfg = SimConfig::new(8, 12, 2);
            let one = simulate(&g, &cfg, &mut OneShotScheduler::new(&cfg, seed));
            let win = simulate(
                &g,
                &cfg,
                &mut OnlineWindowScheduler::new(&cfg, &g, WindowMode::Dynamic, seed),
            );
            assert!(one.all_committed && win.all_committed);
            trials += 1;
            if win.makespan <= one.makespan {
                window_wins += 1;
            }
        }
        assert!(
            window_wins * 2 >= trials,
            "window should at least match one-shot in its favourable regime ({window_wins}/{trials})"
        );
    }

    #[test]
    fn adaptive_raises_estimate_under_contention() {
        let g = ConflictGraph::complete_columns(8, 8);
        let cfg = SimConfig::new(8, 8, 2);
        let mut s = OnlineWindowScheduler::adaptive(&cfg, WindowMode::Static, 2);
        let o = simulate(&g, &cfg, &mut s);
        assert!(o.all_committed);
        let grew = (0..8).any(|i| s.contention_estimate(i) > 1.0);
        assert!(grew, "bad events must raise some thread's estimate");
    }

    #[test]
    fn adaptive_dynamic_never_adapts() {
        // A dynamic frame ends only once its transactions have committed,
        // so no commit misses its frame and every `Cᵢ` stays at 1:
        // Adaptive-Dynamic is Online-Dynamic with no delay. The same graph
        // under static frames raises some estimate.
        let g = ConflictGraph::complete_columns(8, 8);
        let cfg = SimConfig::new(8, 8, 2);
        for seed in [2, 5, 11] {
            let mut dynamic = OnlineWindowScheduler::adaptive(&cfg, WindowMode::Dynamic, seed);
            let o = simulate(&g, &cfg, &mut dynamic);
            assert!(o.all_committed && o.aborts > 0, "seed {seed}: {o:?}");
            assert!((0..8).all(|i| dynamic.contention_estimate(i) == 1.0));
            let mut fixed = OnlineWindowScheduler::adaptive(&cfg, WindowMode::Static, seed);
            assert!(simulate(&g, &cfg, &mut fixed).all_committed);
            assert!(
                (0..8).any(|i| fixed.contention_estimate(i) > 1.0),
                "seed {seed}"
            );
        }
    }

    /// The losing side of a duel between `a` and `b`, as the engine
    /// decides it: the larger key loses.
    fn duel_loser(s: &dyn SimScheduler, step: u64, a: TxnId, b: TxnId) -> TxnId {
        if s.priority(step, a) < s.priority(step, b) {
            b
        } else {
            a
        }
    }

    #[test]
    fn polka_progress_prefers_invested_work() {
        let cfg = SimConfig::new(2, 1, 4);
        let mut s = PolkaProgressScheduler::new(&cfg, 3);
        // Txn 0 has run 3 steps, txn 1 is fresh: 1 loses, whatever the
        // ranks say.
        for (r0, r1) in [(1, 2), (2, 1)] {
            s.rounds.ranks = vec![r0, r1];
            s.progress[0] = 3;
            s.progress[1] = 0;
            assert_eq!(duel_loser(&s, 0, 0, 1), 1);
            assert_eq!(duel_loser(&s, 0, 1, 0), 1);
        }
        // Abort resets progress.
        s.on_abort(1);
        assert_eq!(s.progress[1], 0);
    }

    /// Every scheduler that duels (all but Offline), over a window whose
    /// transactions have all been issued once.
    fn dueling_schedulers(
        cfg: &SimConfig,
        g: &ConflictGraph,
    ) -> Vec<(&'static str, Box<dyn SimScheduler>)> {
        let names: Vec<_> = SIM_SCHEDULER_NAMES
            .iter()
            .copied()
            .filter(|&n| n != "Offline")
            .collect();
        let mut scheds = registered(&names, cfg, g, 11);
        for (_, s) in scheds.iter_mut() {
            let mut all: Vec<TxnId> = (0..g.len() as TxnId).collect();
            s.select(0, &mut all, g);
        }
        scheds
    }

    #[test]
    fn distinct_transactions_never_share_a_key() {
        let g = ConflictGraph::complete_columns(6, 5);
        let cfg = SimConfig::new(6, 5, 2);
        for (name, s) in dueling_schedulers(&cfg, &g) {
            // Ranks are drawn from 1..=M, so 30 transactions share them:
            // the id breaks every tie.
            for step in [0, 9, 1_000] {
                let mut keys: Vec<u128> =
                    (0..g.len() as TxnId).map(|t| s.priority(step, t)).collect();
                keys.sort_unstable();
                keys.dedup();
                assert_eq!(keys.len(), g.len(), "{name} shares a key");
                // So every duel has exactly one loser, whichever side
                // detects it.
                for (a, b) in [(0, 1), (4, 29), (17, 3)] {
                    let l = duel_loser(s.as_ref(), step, a, b);
                    assert!(l == a || l == b);
                    assert_eq!(l, duel_loser(s.as_ref(), step, b, a), "{name}");
                }
            }
        }
    }

    #[test]
    fn greedy_older_side_wins() {
        let cfg = SimConfig::new(4, 2, 2);
        let g = ConflictGraph::complete_columns(4, 2);
        let mut s = GreedyTimestampScheduler::new(&cfg);
        // 6 is issued first, 1 later: 6 is older and wins both ways,
        // although its id is larger.
        s.select(0, &mut vec![6], &g);
        s.select(1, &mut vec![1, 6], &g);
        assert_eq!(duel_loser(&s, 1, 1, 6), 1);
        assert_eq!(duel_loser(&s, 1, 6, 1), 1);
        assert!(s.priority(1, 6) < s.priority(1, 1));
    }

    #[test]
    fn window_transaction_in_its_frame_beats_a_low_priority_one() {
        let g = ConflictGraph::complete_columns(6, 8);
        let cfg = SimConfig::new(6, 8, 2);
        let phi = cfg.phi_steps();
        let mut s = OnlineWindowScheduler::new(&cfg, &g, WindowMode::Static, 5);
        // Thread 0's column-1 transaction turns high in frame q₀ + 1.
        let t = g.id(0, 1);
        let f = s.assigned[t as usize];
        assert!(f >= 1);
        let (before, inside) = (f * phi - 1, f * phi);
        // Against a transaction assigned to a later frame, `t` loses
        // before its frame and wins inside it, whatever the ranks say.
        let u = g.id(1, 7);
        assert!(s.assigned[u as usize] > f);
        for (rt, ru) in [(1, 6), (6, 1)] {
            s.ranks[t as usize] = rt;
            s.ranks[u as usize] = ru;
            assert_eq!(duel_loser(&s, inside, t, u), u);
            assert_eq!(duel_loser(&s, inside, u, t), u);
        }
        // Before the frame both are low: the ranks decide.
        s.ranks[t as usize] = 6;
        s.ranks[u as usize] = 1;
        assert_eq!(duel_loser(&s, before, t, u), t);
        // A clock ahead by one step already reads `t`'s frame.
        assert!(s.priority(before, t) > s.priority(before + 1, t));
    }

    #[test]
    fn polka_progress_completes_dense_windows() {
        for seed in [2u64, 9, 31] {
            let g = ConflictGraph::complete_columns(6, 6);
            let cfg = SimConfig::new(6, 6, 3);
            let mut s = PolkaProgressScheduler::new(&cfg, seed);
            let o = simulate(&g, &cfg, &mut s);
            assert!(o.all_committed, "Polka stuck (seed {seed})");
        }
    }

    #[test]
    fn oneshot_column_barrier_is_enforced() {
        // With 2 threads and no conflicts, one-shot still serializes
        // columns: thread A's txn 1 cannot start before thread B finishes
        // txn 0. Free-running finishes in N·τ; one-shot takes the same
        // here only because both threads advance in lockstep — so use
        // unequal progress via a conflict in column 0.
        let mut b = crate::graph::GraphBuilder::new(2, 2);
        b.add_edge(0, 2); // (0,0) vs (1,0)
        let g = b.build();
        let cfg = SimConfig::new(2, 2, 3);
        let one = simulate(&g, &cfg, &mut OneShotScheduler::new(&cfg, 1));
        assert!(one.all_committed);
        // Column 0 serializes (6 steps), then column 1 in parallel (3).
        assert!(one.makespan >= 9, "makespan {}", one.makespan);
    }
}
