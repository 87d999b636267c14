//! The execution engine, rebuilt on the deterministic event core.
//!
//! The original simulator was a discrete-*time* stepper: one `while` loop,
//! one implicit node, verdicts applied in the same step they were decided.
//! The engine is now driven by the [`event`](crate::event) core — a
//! virtual-clock priority queue — with the step loop living inside the
//! `Tick` event handler and everything *between* steps (verdict
//! deliveries, commit acks, node crashes/recoveries) scheduled as
//! delivery-class events that fire before the tick of the same instant.
//!
//! Per tick the engine:
//!
//! 1. determines the **issued** transactions — each up node's thread
//!    issues its next uncommitted transaction (§II-A's sequential-per-
//!    thread rule); replicated scenarios additionally gate issue on the
//!    previous column's sibling acks;
//! 2. asks the scheduler to **select** which issued transactions execute
//!    this step (it narrows the issued list in place);
//! 3. resolves every conflicting selected pair by the scheduler's
//!    priority keys, the larger key losing — detection is local to the
//!    lower-id party's node and keyed at that node's skewed clock; the
//!    verdict then travels to the loser's node through the
//!    [`NetworkModel`]. At zero latency the loser aborts this same step
//!    (the paper's semantics); at nonzero latency it keeps executing —
//!    and dueling — until the verdict arrives, and a verdict
//!    the network *drops* never arrives at all, so the loser can commit
//!    as a **zombie** ([`SimOutcome::zombie_commits`]);
//! 4. survivors advance one step and commit when their `τ` steps are done
//!    and no verdict is pending against them.
//!
//! With the default single-node topology and [`ZeroLatency`] the event
//! core replays the old loop *exactly* — same phase order, same RNG
//! consumption, same duel outcomes, same `on_abort`/`on_commit` call
//! order — which `tests/sim_determinism.rs` pins with golden outcome
//! vectors captured from the pre-refactor simulator.

use crate::error::SimError;
use crate::event::{
    AbortCause, DeliveryKey, EventKind, EventLog, EventQueue, Record, CLASS_DELIVERY, CLASS_TICK,
    NO_VERDICT,
};
use crate::graph::{ConflictGraph, TxnId};
use crate::net::{CrashEvent, NetworkModel, Topology, ZeroLatency};
use crate::sched::SimScheduler;

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Threads (window height `M`).
    pub m: usize,
    /// Transactions per thread (window width `N`).
    pub n: usize,
    /// Transaction duration `τ` in steps.
    pub tau: u32,
    /// The constant in `Φ = phi_factor · ln(MN)` slots per frame.
    pub phi_factor: f64,
    /// Safety valve: abort the simulation after this many steps.
    pub max_steps: u64,
}

impl SimConfig {
    /// Defaults: `phi_factor = 1.0`, a generous step budget. Returns a
    /// typed [`SimError::BadConfig`] on zero dimensions, and
    /// [`SimError::WindowTooLarge`] past `u32` transaction ids.
    pub fn try_new(m: usize, n: usize, tau: u32) -> Result<Self, SimError> {
        for (what, v) in [("m (threads)", m), ("n (transactions per thread)", n)] {
            if v == 0 {
                return Err(SimError::BadConfig {
                    reason: format!("{what} must be >= 1, got 0"),
                });
            }
        }
        if tau == 0 {
            return Err(SimError::BadConfig {
                reason: "tau (steps per transaction) must be >= 1, got 0".into(),
            });
        }
        crate::graph::check_fits(m as u128 * n as u128, 0)?;
        Ok(SimConfig {
            m,
            n,
            tau,
            phi_factor: 1.0,
            max_steps: (tau as u64)
                .saturating_mul((m as u64 + 16) * (n as u64 + 16))
                .saturating_mul(64)
                .max(1_000_000),
        })
    }

    /// [`try_new`](Self::try_new) that panics with the error's message
    /// (kept for the tests and callers that validate dimensions upfront).
    pub fn new(m: usize, n: usize, tau: u32) -> Self {
        Self::try_new(m, n, tau).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `ln(MN)` clamped below by 1.
    pub fn ln_mn(&self) -> f64 {
        ((self.m * self.n) as f64).ln().max(1.0)
    }

    /// Slots per frame: `max(1, ⌈phi_factor · ln(MN)⌉)`.
    pub fn phi_slots(&self) -> u64 {
        (self.phi_factor * self.ln_mn()).ceil().max(1.0) as u64
    }

    /// Steps per frame (`phi_slots · τ`).
    pub fn phi_steps(&self) -> u64 {
        self.phi_slots() * self.tau as u64
    }
}

/// What a simulation produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOutcome {
    /// Steps until the last commit (= the paper's makespan).
    pub makespan: u64,
    /// Committed transactions (always `M·N` when `all_committed`).
    pub commits: u64,
    /// Total aborts across the run.
    pub aborts: u64,
    /// Whether every transaction committed within the step budget.
    pub all_committed: bool,
    /// Sum over transactions of (commit step − issue step).
    pub sum_response: u64,
    /// Commits by transactions that had *lost* a duel whose verdict the
    /// network dropped: safety violations only a lossy [`NetworkModel`]
    /// can produce. Always 0 at zero/fixed latency.
    pub zombie_commits: u64,
}

impl SimOutcome {
    /// Aborts per commit (Fig. 4's metric, in the simulator).
    pub fn aborts_per_commit(&self) -> f64 {
        if self.commits == 0 {
            self.aborts as f64
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Mean response time in steps.
    pub fn avg_response(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.sum_response as f64 / self.commits as f64
        }
    }
}

/// Full description of one event-core run: the window, where its threads
/// live, which faults are scheduled, and how replicated it is.
#[derive(Debug, Clone, Copy)]
pub struct SimSetup<'a> {
    pub graph: &'a ConflictGraph,
    pub cfg: &'a SimConfig,
    pub topo: &'a Topology,
    /// Scheduled node failures (delivered before the tick of step `at`).
    pub crash_plan: &'a [CrashEvent],
    /// K-way replication: the `cfg.m` threads are K contiguous blocks of
    /// `m/K`, block `r` holding replica `r` of each base thread. A
    /// replica issues column `j+1` only after its own column-`j` commit
    /// *and* commit acks from all K−1 siblings. 1 = no replication.
    pub replicas: usize,
    /// Seed for the event queue's tie-breaking among simultaneous
    /// same-class deliveries.
    pub queue_seed: u64,
}

impl<'a> SimSetup<'a> {
    /// Single-node, fault-free, unreplicated — the paper's world.
    pub fn plain(graph: &'a ConflictGraph, cfg: &'a SimConfig, topo: &'a Topology) -> Self {
        SimSetup {
            graph,
            cfg,
            topo,
            crash_plan: &[],
            replicas: 1,
            queue_seed: 0,
        }
    }
}

/// Run `sched` over `graph` in the paper's configuration: one node, zero
/// latency, no faults, no logging. Bit-identical to the pre-event-core
/// simulator (see the golden vectors in `tests/sim_determinism.rs`).
pub fn simulate(
    graph: &ConflictGraph,
    cfg: &SimConfig,
    sched: &mut dyn SimScheduler,
) -> SimOutcome {
    let topo = Topology::single_node(cfg.m);
    let mut net = ZeroLatency;
    let mut log = EventLog::disabled();
    run_events(
        &SimSetup::plain(graph, cfg, &topo),
        sched,
        &mut net,
        &mut log,
    )
}

/// Per-transaction mutable state of [`run_events`].
struct TxnState {
    remaining: Vec<u32>,
    committed: Vec<bool>,
    ever_issued: Vec<bool>,
    issue_step: Vec<u64>,
    /// Restart counter; in-flight verdicts carry the attempt they doom,
    /// so verdicts against an already-restarted attempt are stale.
    attempt: Vec<u32>,
    /// Verdicts in flight against the current attempt.
    pending: Vec<u32>,
    /// Queue key of the earliest of them; later ones are not queued (see
    /// [`EventQueue::push_verdict`]).
    first_verdict: Vec<DeliveryKey>,
    /// The current attempt lost a duel whose verdict the network dropped.
    doomed_drop: Vec<bool>,
    /// Sibling commit acks received (replicated runs only).
    acks: Vec<u32>,
}

/// Run a full [`SimSetup`] through the event core. See the module docs
/// for the step semantics and the latency/crash extensions.
pub fn run_events(
    setup: &SimSetup,
    sched: &mut dyn SimScheduler,
    net: &mut dyn NetworkModel,
    log: &mut EventLog,
) -> SimOutcome {
    run(setup, sched, net, log).0
}

/// [`run_events`], plus how many verdicts the queue left out because they
/// could only arrive stale.
fn run(
    setup: &SimSetup,
    sched: &mut dyn SimScheduler,
    net: &mut dyn NetworkModel,
    log: &mut EventLog,
) -> (SimOutcome, u64) {
    let (graph, cfg, topo) = (setup.graph, setup.cfg, setup.topo);
    assert_eq!(graph.m(), cfg.m, "graph/config thread mismatch");
    assert_eq!(graph.n(), cfg.n, "graph/config width mismatch");
    assert_eq!(topo.threads(), cfg.m, "topology/config thread mismatch");
    assert!(
        setup.replicas >= 1 && cfg.m % setup.replicas == 0,
        "replicas must divide m"
    );
    let total = cfg.m * cfg.n;
    let base_m = cfg.m / setup.replicas;

    let mut st = TxnState {
        remaining: vec![cfg.tau; total],
        committed: vec![false; total],
        ever_issued: vec![false; total],
        issue_step: vec![0; total],
        attempt: vec![0; total],
        pending: vec![0; total],
        first_verdict: vec![NO_VERDICT; total],
        doomed_drop: vec![false; total],
        acks: vec![0; total],
    };
    let mut next_j: Vec<usize> = vec![0; cfg.m];
    // Node of every transaction's thread: the duel loop asks twice a duel.
    let node_of_txn: Vec<u32> = (0..cfg.m)
        .flat_map(|i| std::iter::repeat_n(topo.node_of(i) as u32, cfg.n))
        .collect();
    let mut node_up: Vec<bool> = vec![true; topo.nodes()];
    // A duel is keyed at its detector's clock. Nodes whose clocks agree
    // share one row of keys: `clock_of_node` names the row, `clock_skew`
    // holds each row's skew.
    let mut clock_skew: Vec<u64> = Vec::new();
    let clock_of_node: Vec<usize> = (0..topo.nodes())
        .map(|k| {
            let skew = topo.skew(k);
            clock_skew
                .iter()
                .position(|&s| s == skew)
                .unwrap_or_else(|| {
                    clock_skew.push(skew);
                    clock_skew.len() - 1
                })
        })
        .collect();
    // Priority keys of the selected transactions, one row of `cfg.m` per
    // clock, by selection position. A row is filled on its clock's first
    // duel of a tick, and `keyed_at` holds that tick's `step + 1`.
    let mut keys = vec![0u128; clock_skew.len() * cfg.m];
    let mut keyed_at = vec![0u64; clock_skew.len()];

    let mut commits = 0u64;
    let mut aborts = 0u64;
    let mut sum_response = 0u64;
    let mut makespan = 0u64;
    let mut zombie_commits = 0u64;

    // Position in this tick's selection, plus one; 0 = not selected.
    let mut selected_at = vec![0u32; total];
    // Per-step scratch: lost any duel this step / must abort this step.
    let mut lost_now = vec![false; total];
    let mut abort_now = vec![false; total];

    let mut queue = EventQueue::new(setup.queue_seed);
    for c in setup.crash_plan {
        assert!(c.node < topo.nodes(), "crash plan names a missing node");
        let node = c.node as u32;
        queue.push(c.at, CLASS_DELIVERY, EventKind::Crash { node });
        let back = c.at.saturating_add(c.down);
        queue.push(back, CLASS_DELIVERY, EventKind::Recover { node });
    }
    queue.push(0, CLASS_TICK, EventKind::Tick);

    // One abort, whatever delivered it.
    let abort_txn = |st: &mut TxnState,
                     sched: &mut dyn SimScheduler,
                     log: &mut EventLog,
                     aborts: &mut u64,
                     t: TxnId,
                     step: u64,
                     cause: AbortCause| {
        let ti = t as usize;
        *aborts += 1;
        st.remaining[ti] = cfg.tau;
        st.attempt[ti] += 1;
        st.pending[ti] = 0;
        st.first_verdict[ti] = NO_VERDICT;
        st.doomed_drop[ti] = false;
        sched.on_abort(t);
        log.push(Record::Abort {
            step,
            txn: t,
            cause,
        });
    };

    let mut issued: Vec<TxnId> = Vec::with_capacity(cfg.m);
    while let Some(ev) = queue.pop() {
        let step = ev.time;
        match ev.kind {
            EventKind::Verdict { txn, attempt } => {
                let ti = txn as usize;
                if !st.committed[ti] && attempt == st.attempt[ti] {
                    abort_txn(
                        &mut st,
                        sched,
                        log,
                        &mut aborts,
                        txn,
                        step,
                        AbortCause::RemoteVerdict,
                    );
                }
            }
            EventKind::Ack { txn } => {
                st.acks[txn as usize] += 1;
            }
            EventKind::Crash { node } => {
                node_up[node as usize] = false;
                log.push(Record::Crash { step, node });
                for (i, &j) in next_j.iter().enumerate() {
                    if topo.node_of(i) == node as usize && j < cfg.n {
                        let t = graph.id(i, j);
                        if st.ever_issued[t as usize] && !st.committed[t as usize] {
                            abort_txn(
                                &mut st,
                                sched,
                                log,
                                &mut aborts,
                                t,
                                step,
                                AbortCause::NodeCrash,
                            );
                        }
                    }
                }
            }
            EventKind::Recover { node } => {
                node_up[node as usize] = true;
                log.push(Record::Recover { step, node });
            }
            EventKind::Tick => {
                if commits >= total as u64 || step >= cfg.max_steps {
                    break;
                }

                // 1. Issued transactions (one per up-node thread at most).
                issued.clear();
                for (i, &j) in next_j.iter().enumerate() {
                    if j >= cfg.n || !node_up[topo.node_of(i)] {
                        continue;
                    }
                    let t = graph.id(i, j);
                    let ti = t as usize;
                    if !st.ever_issued[ti] {
                        if setup.replicas > 1 && j > 0 {
                            // Gate on the previous column's sibling acks.
                            let prev = graph.id(i, j - 1) as usize;
                            if st.acks[prev] + 1 < setup.replicas as u32 {
                                continue;
                            }
                        }
                        st.ever_issued[ti] = true;
                        st.issue_step[ti] = step;
                        st.remaining[ti] = cfg.tau;
                        log.push(Record::Issue { step, txn: t });
                    }
                    issued.push(t);
                }

                // 2. Scheduler picks who runs this step: `issued` becomes
                // the selection.
                sched.select(step, &mut issued, graph);
                let selected = &issued;
                for (p, &t) in selected.iter().enumerate() {
                    debug_assert!(
                        {
                            let (i, j) = graph.coords(t);
                            next_j[i] == j
                                && st.ever_issued[t as usize]
                                && node_up[topo.node_of(i)]
                                && selected_at[t as usize] == 0
                        },
                        "scheduler selected a non-issued transaction"
                    );
                    selected_at[t as usize] = p as u32 + 1;
                }

                // 3. Duels between conflicting selected pairs. Detection
                // is local to the lower-id party's node and keyed at its
                // skewed clock; the verdict rides the network to the
                // loser's node.
                for (pa, &a) in selected.iter().enumerate() {
                    let det = node_of_txn[a as usize] as usize;
                    let clock = clock_of_node[det];
                    let row = &mut keys[clock * cfg.m..(clock + 1) * cfg.m];
                    for &b in graph.later_neighbors(a) {
                        let pb = selected_at[b as usize] as usize;
                        if pb != 0 {
                            if keyed_at[clock] != step + 1 {
                                keyed_at[clock] = step + 1;
                                let local = step.wrapping_add(clock_skew[clock]);
                                for (k, &t) in row.iter_mut().zip(selected) {
                                    *k = sched.priority(local, t);
                                }
                            }
                            // The larger key loses.
                            let loser = if row[pa] < row[pb - 1] { b } else { a };
                            let li = loser as usize;
                            log.push(Record::Duel {
                                step,
                                winner: if loser == a { b } else { a },
                                loser,
                            });
                            lost_now[li] = true;
                            let dst = node_of_txn[li] as usize;
                            if det == dst {
                                abort_now[li] = true;
                            } else {
                                match net.delay(det, dst, step) {
                                    Some(0) => abort_now[li] = true,
                                    Some(d) => {
                                        let arrives = step.saturating_add(d);
                                        st.pending[li] += 1;
                                        queue.push_verdict(
                                            arrives,
                                            loser,
                                            st.attempt[li],
                                            &mut st.first_verdict[li],
                                        );
                                        log.push(Record::VerdictSent {
                                            step,
                                            loser,
                                            attempt: st.attempt[li],
                                            arrives,
                                        });
                                    }
                                    None => {
                                        st.doomed_drop[li] = true;
                                        log.push(Record::VerdictDropped {
                                            step,
                                            loser,
                                            attempt: st.attempt[li],
                                        });
                                    }
                                }
                            }
                        }
                    }
                }

                // 4. Progress survivors, restart same-step losers.
                for &t in selected {
                    let ti = t as usize;
                    selected_at[ti] = 0;
                    let was_lost = lost_now[ti];
                    lost_now[ti] = false;
                    if abort_now[ti] {
                        abort_now[ti] = false;
                        abort_txn(&mut st, sched, log, &mut aborts, t, step, AbortCause::Duel);
                        continue;
                    }
                    if st.remaining[ti] > 0 {
                        st.remaining[ti] -= 1;
                    }
                    if st.remaining[ti] == 0 && !was_lost && st.pending[ti] == 0 {
                        st.committed[ti] = true;
                        commits += 1;
                        if st.doomed_drop[ti] {
                            zombie_commits += 1;
                        }
                        let (i, j) = graph.coords(t);
                        next_j[i] += 1;
                        makespan = step + 1;
                        sum_response += (step + 1) - st.issue_step[ti];
                        sched.on_commit(t, step + 1);
                        log.push(Record::Commit { step, txn: t });
                        if setup.replicas > 1 {
                            send_acks(setup, net, log, &mut queue, &mut st, i, j, t, step, base_m);
                        }
                    }
                }
                queue.push(step + 1, CLASS_TICK, EventKind::Tick);
            }
        }
    }

    let out = SimOutcome {
        makespan,
        commits,
        aborts,
        all_committed: commits == total as u64,
        sum_response,
        zombie_commits,
    };
    log.push(Record::Outcome {
        makespan: out.makespan,
        commits: out.commits,
        aborts: out.aborts,
        zombie_commits: out.zombie_commits,
        sum_response: out.sum_response,
        all_committed: out.all_committed,
    });
    (out, queue.elided())
}

/// Broadcast a replica's commit ack to its K−1 siblings. Acks *are*
/// retransmitted on drop (a one-step resend gap per attempt, bounded), so
/// replication cannot deadlock under a lossy network.
#[allow(clippy::too_many_arguments)]
fn send_acks(
    setup: &SimSetup,
    net: &mut dyn NetworkModel,
    log: &mut EventLog,
    queue: &mut EventQueue,
    st: &mut TxnState,
    i: usize,
    j: usize,
    t: TxnId,
    step: u64,
    base_m: usize,
) {
    let r = i / base_m;
    let i_base = i % base_m;
    let src = setup.topo.node_of(i);
    for r2 in 0..setup.replicas {
        if r2 == r {
            continue;
        }
        let sib_thread = r2 * base_m + i_base;
        let sib = setup.graph.id(sib_thread, j);
        let dst = setup.topo.node_of(sib_thread);
        let d = if src == dst {
            0
        } else {
            let mut extra = 0u64;
            let mut delivered = None;
            for _ in 0..100 {
                if let Some(x) = net.delay(src, dst, step) {
                    delivered = Some(x.saturating_add(extra));
                    break;
                }
                extra += 1; // one-step retransmission gap
            }
            delivered.unwrap_or(100 + extra)
        };
        let arrives = step.saturating_add(d);
        if d == 0 {
            st.acks[sib as usize] += 1;
        } else {
            queue.push(arrives, CLASS_DELIVERY, EventKind::Ack { txn: sib });
        }
        log.push(Record::AckSent {
            step,
            from: t,
            to: sib,
            arrives,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{FixedLatency, SeededJitter};
    use crate::sched::{FreeRandomizedScheduler, GreedyTimestampScheduler, SimScheduler};

    #[test]
    fn empty_graph_runs_fully_parallel() {
        let g = ConflictGraph::empty(4, 3);
        let cfg = SimConfig::new(4, 3, 5);
        let mut s = FreeRandomizedScheduler::new(&cfg, 1);
        let out = simulate(&g, &cfg, &mut s);
        assert!(out.all_committed);
        assert_eq!(out.commits, 12);
        assert_eq!(out.aborts, 0);
        // No conflicts: N transactions back to back, τ steps each.
        assert_eq!(out.makespan, 3 * 5);
    }

    #[test]
    fn single_thread_is_sequential() {
        let g = ConflictGraph::empty(1, 10);
        let cfg = SimConfig::new(1, 10, 3);
        let mut s = FreeRandomizedScheduler::new(&cfg, 2);
        let out = simulate(&g, &cfg, &mut s);
        assert_eq!(out.makespan, 30);
        assert_eq!(out.avg_response(), 3.0);
    }

    #[test]
    fn clique_column_serializes() {
        let g = ConflictGraph::complete_columns(4, 1);
        let cfg = SimConfig::new(4, 1, 2);
        let mut s = FreeRandomizedScheduler::new(&cfg, 3);
        let out = simulate(&g, &cfg, &mut s);
        assert!(out.all_committed);
        // Four mutually conflicting txns of duration 2 cannot finish in
        // fewer than 8 steps.
        assert!(out.makespan >= 8, "makespan {} too small", out.makespan);
        assert!(out.aborts > 0);
    }

    #[test]
    fn phi_arithmetic() {
        let cfg = SimConfig::new(8, 50, 4);
        assert!(cfg.ln_mn() > 5.9 && cfg.ln_mn() < 6.0);
        assert_eq!(cfg.phi_slots(), 6);
        assert_eq!(cfg.phi_steps(), 24);
    }

    #[test]
    fn outcome_derived_metrics() {
        let o = SimOutcome {
            makespan: 100,
            commits: 10,
            aborts: 5,
            all_committed: true,
            sum_response: 200,
            zombie_commits: 0,
        };
        assert!((o.aborts_per_commit() - 0.5).abs() < 1e-12);
        assert!((o.avg_response() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn try_new_rejects_zero_dimensions_with_typed_errors() {
        for (m, n, tau, needle) in [
            (0usize, 5usize, 1u32, "m (threads)"),
            (5, 0, 1, "n (transactions per thread)"),
            (5, 5, 0, "tau"),
        ] {
            let e = SimConfig::try_new(m, n, tau).unwrap_err();
            assert!(matches!(e, SimError::BadConfig { .. }));
            assert!(e.to_string().contains(needle), "{e}");
        }
        assert!(SimConfig::try_new(1, 1, 1).is_ok());
    }

    #[test]
    #[should_panic(expected = "m (threads) must be >= 1")]
    fn new_panics_with_the_typed_message() {
        let _ = SimConfig::new(0, 5, 1);
    }

    #[test]
    fn zero_latency_two_nodes_matches_single_node() {
        // With zero latency the topology is unobservable (skew 0): the
        // cross-node verdict arrives in-step, same as the local path.
        let g = ConflictGraph::complete_columns(4, 3);
        let cfg = SimConfig::new(4, 3, 2);
        let single = simulate(&g, &cfg, &mut GreedyTimestampScheduler::new(&cfg));

        let topo = Topology::round_robin(4, 2, 0);
        let mut net = ZeroLatency;
        let mut log = EventLog::disabled();
        let two = run_events(
            &SimSetup::plain(&g, &cfg, &topo),
            &mut GreedyTimestampScheduler::new(&cfg),
            &mut net,
            &mut log,
        );
        assert_eq!(single, two);
    }

    #[test]
    fn fixed_latency_defers_aborts_and_inflates_work() {
        let g = ConflictGraph::complete_columns(6, 4);
        let cfg = SimConfig::new(6, 4, 2);
        let zero = simulate(&g, &cfg, &mut GreedyTimestampScheduler::new(&cfg));

        let topo = Topology::round_robin(6, 3, 0);
        let mut net = FixedLatency(4);
        let mut log = EventLog::disabled();
        let slow = run_events(
            &SimSetup::plain(&g, &cfg, &topo),
            &mut GreedyTimestampScheduler::new(&cfg),
            &mut net,
            &mut log,
        );
        assert!(slow.all_committed);
        assert_eq!(slow.zombie_commits, 0, "no drops, no zombies");
        assert!(
            slow.makespan >= zero.makespan,
            "stale losers must not speed up the schedule ({} < {})",
            slow.makespan,
            zero.makespan
        );
    }

    #[test]
    fn latency_cells_leave_stale_verdicts_out_of_the_queue() {
        // Cells of `tests/sim_latency_golden.rs`, seeded as `run_sim`
        // seeds them: the golden's hashes pin what the engine logs, this
        // pins that the engine reached them with verdicts left out (a
        // doomed attempt keeps dueling until its first verdict lands), so
        // the golden does not pass vacuously. (`replicated` keeps every
        // conflict inside one node: only its acks travel.)
        const SEED: u64 = 0x5EED_1A7E;
        for (scenario, sched_name, net_spec) in [
            ("distributed@nodes=4,skew=1", "OneShot", "fixed:4"),
            (
                "distributed@nodes=4,skew=1",
                "Greedy",
                "jitter:1,j=6,drop=0",
            ),
            (
                "crash-recovery@nodes=2,node=1,at=8,down=16",
                "Online-Dynamic",
                "jitter:2,j=2,drop=50",
            ),
        ] {
            let sc = crate::scenario::build_scenario(scenario, 8, 6, SEED).unwrap();
            let cfg = SimConfig::new(sc.graph.m(), 6, 2);
            let setup = SimSetup {
                crash_plan: &sc.crash_plan,
                replicas: sc.replicas,
                queue_seed: SEED,
                ..SimSetup::plain(&sc.graph, &cfg, &sc.topo)
            };
            let mut sched =
                crate::scenario::build_sim_scheduler(sched_name, &cfg, &sc.graph, SEED).unwrap();
            let mut net = crate::net::NetSpec::parse(net_spec)
                .unwrap()
                .build(SEED ^ 0x0005_EED5);
            let mut log = EventLog::disabled();
            let (out, elided) = run(&setup, sched.as_mut(), net.as_mut(), &mut log);
            assert!(out.all_committed, "{scenario}: {out:?}");
            assert!(elided > 0, "{scenario} / {sched_name} / {net_spec}");
        }
        // With no latency there is no verdict to queue, let alone elide.
        let g = ConflictGraph::complete_columns(4, 3);
        let cfg = SimConfig::new(4, 3, 2);
        let topo = Topology::round_robin(4, 2, 0);
        let (_, elided) = run(
            &SimSetup::plain(&g, &cfg, &topo),
            &mut GreedyTimestampScheduler::new(&cfg),
            &mut ZeroLatency,
            &mut EventLog::disabled(),
        );
        assert_eq!(elided, 0);
    }

    /// Keys a transaction by its id before step `flip` and by its id
    /// reversed from `flip` on, so a duel's loser shows the clock that
    /// keyed it.
    struct ClockKeyed {
        flip: u64,
        keyings: std::cell::Cell<u64>,
        aborted: Vec<TxnId>,
    }

    impl SimScheduler for ClockKeyed {
        fn name(&self) -> &'static str {
            "ClockKeyed"
        }

        fn priority(&self, step: u64, t: TxnId) -> u128 {
            self.keyings.set(self.keyings.get() + 1);
            if step < self.flip {
                t as u128
            } else {
                (u32::MAX - t) as u128
            }
        }

        fn on_abort(&mut self, t: TxnId) {
            self.aborted.push(t);
        }
    }

    #[test]
    fn duels_are_keyed_at_the_detectors_clock() {
        // Threads 0 and 2 live on node 0, thread 1 on node 1; only 1 and
        // 2 conflict, so every duel is detected at node 1 (the lower id).
        let mut b = crate::graph::GraphBuilder::new(3, 1);
        b.add_edge(1, 2);
        let g = b.build();
        let cfg = SimConfig::new(3, 1, 2);
        for (skew, first_loser) in [(0, 2), (10, 1)] {
            let topo = Topology::round_robin(3, 2, skew);
            let mut sched = ClockKeyed {
                flip: 5,
                keyings: std::cell::Cell::new(0),
                aborted: Vec::new(),
            };
            let out = run_events(
                &SimSetup::plain(&g, &cfg, &topo),
                &mut sched,
                &mut ZeroLatency,
                &mut EventLog::disabled(),
            );
            assert!(out.all_committed, "{out:?}");
            // Step 0: node 1's clock reads `skew`, so the reversed keys
            // decide the first duel exactly when the skew passes `flip`.
            assert_eq!(sched.aborted.first(), Some(&first_loser), "skew {skew}");
            // One key per selected transaction per dueling tick: at most
            // three a step, however many duels a step holds.
            assert!(sched.keyings.get() <= 3 * out.makespan, "{out:?}");
        }
    }

    #[test]
    fn a_delay_past_the_clock_saturates() {
        // Verdicts, acks and recoveries due past the end of the `u64`
        // clock land at its end instead of wrapping round to the past.
        let g = ConflictGraph::complete_columns(4, 3);
        let mut cfg = SimConfig::new(4, 3, 2);
        cfg.max_steps = 200;
        let topo = Topology::round_robin(4, 2, 0);
        let run_on = |setup: &SimSetup, net: &mut dyn NetworkModel| {
            let cfg = setup.cfg;
            let mut sched = GreedyTimestampScheduler::new(cfg);
            run_events(setup, &mut sched, net, &mut EventLog::recording())
        };
        // A cross-node loser waits for its verdict forever.
        let out = run_on(
            &SimSetup::plain(&g, &cfg, &topo),
            &mut FixedLatency(u64::MAX),
        );
        assert!(!out.all_committed, "{out:?}");
        // A crashed node never recovers.
        let plan = [CrashEvent {
            node: 1,
            at: 3,
            down: u64::MAX,
        }];
        let crashed = SimSetup {
            crash_plan: &plan,
            ..SimSetup::plain(&g, &cfg, &topo)
        };
        assert!(!run_on(&crashed, &mut ZeroLatency).all_committed);
        // A replica never hears its sibling's ack.
        let sc = crate::scenario::build_scenario("replicated@nodes=2", 2, 3, 1).unwrap();
        let replicated = SimSetup {
            replicas: sc.replicas,
            ..SimSetup::plain(&sc.graph, &cfg, &sc.topo)
        };
        assert!(!run_on(&replicated, &mut FixedLatency(u64::MAX)).all_committed);
    }

    #[test]
    fn dropped_verdicts_produce_zombie_commits() {
        // drop=1000: every cross-node verdict is lost, so losers of
        // cross-node duels eventually commit doomed.
        let g = ConflictGraph::complete_columns(4, 3);
        let cfg = SimConfig::new(4, 3, 2);
        let topo = Topology::round_robin(4, 2, 0);
        let mut net = SeededJitter::new(1, 0, 1000, 9);
        let mut log = EventLog::disabled();
        let out = run_events(
            &SimSetup::plain(&g, &cfg, &topo),
            &mut GreedyTimestampScheduler::new(&cfg),
            &mut net,
            &mut log,
        );
        assert!(out.all_committed);
        assert!(out.zombie_commits > 0, "{out:?}");
    }

    #[test]
    fn crash_aborts_in_flight_and_recovery_completes_the_window() {
        let g = ConflictGraph::complete_columns(4, 4);
        let cfg = SimConfig::new(4, 4, 2);
        let topo = Topology::round_robin(4, 2, 0);
        let plan = [CrashEvent {
            node: 1,
            at: 3,
            down: 10,
        }];
        let mut net = ZeroLatency;
        let mut log = EventLog::recording();
        let setup = SimSetup {
            crash_plan: &plan,
            ..SimSetup::plain(&g, &cfg, &topo)
        };
        let out = run_events(
            &setup,
            &mut GreedyTimestampScheduler::new(&cfg),
            &mut net,
            &mut log,
        );
        assert!(out.all_committed, "{out:?}");
        let healthy = simulate(&g, &cfg, &mut GreedyTimestampScheduler::new(&cfg));
        assert!(
            out.makespan > healthy.makespan,
            "losing a node for 10 steps must cost wall-clock ({} <= {})",
            out.makespan,
            healthy.makespan
        );
        assert!(log.records() > 0);
    }
}
