//! The [`Workload`] abstraction: construct populated + deterministic
//! per-thread operation stream + execute-one-op.
//!
//! The harness used to hard-code the paper's four benchmarks as a closed
//! enum; an additional workload (the hash map) was unreachable from the
//! figure drivers. This trait makes a workload a *value* the harness can
//! run by name (see [`crate::registry`]): the registry builds it from
//! [`WorkloadParams`] already in its prepopulated state — computed in
//! plain memory and wrapped one `TVar` per object, with no engine and no
//! transaction — and the runner hands each worker thread its own
//! deterministic [`OpStream`] and calls [`OpStream::step`] until the stop
//! rule fires.

use wtm_stm::ThreadCtx;

/// Construction knobs shared by every workload. Each workload interprets
/// them in its own units ([`key_range`](WorkloadParams::key_range) is an
/// IntSet key space, a Vacation row count); the registry supplies
/// per-workload defaults.
#[derive(Debug, Clone)]
pub struct WorkloadParams {
    /// Size knob: key range / row count.
    pub key_range: i64,
    /// Percentage of updating operations (the paper's Fig. 5 contention
    /// knob). Workloads without a read/update mix ignore it.
    pub update_pct: u32,
    /// Seed for the workload's deterministic content and op streams.
    pub seed: u64,
    /// Number of worker threads the run will use.
    pub threads: usize,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        WorkloadParams {
            key_range: 0, // 0 = use the registry's per-workload default
            update_pct: 100,
            seed: 0xBEEF,
            threads: 1,
        }
    }
}

/// One thread's deterministic operation stream over a [`Workload`].
///
/// A step draws the next operation *outside* any transaction and then
/// executes it as exactly one transaction on `ctx` (the engine retries
/// aborted attempts internally, so an op body must be re-runnable).
pub trait OpStream: Send {
    /// Draw the next operation and run it as one transaction.
    fn step(&mut self, ctx: &ThreadCtx);

    /// Like [`step`](Self::step), additionally returning the committed
    /// attempt's `(object id, is_write)` footprint — the capture side of
    /// the trace-driven simulation pipeline.
    fn step_traced(&mut self, ctx: &ThreadCtx) -> Vec<(u64, bool)>;
}

/// A benchmark workload the harness can drive by name.
///
/// Implementations are constructed per run via the registry
/// ([`crate::registry::build_workload`]), so a `Workload` value owns its
/// transactional state, populated from construction on, and its
/// parameters.
pub trait Workload: Send + Sync {
    /// Registry name (report label).
    fn name(&self) -> &'static str;

    /// Does nothing: every workload is built populated and none overrides
    /// this. Kept only for callers outside this workspace that still
    /// invoke it.
    fn prepopulate(&self, _ctx: &ThreadCtx) {}

    /// This thread's deterministic operation stream. Streams for
    /// different `(seed, thread)` pairs are distinct; the same pair
    /// always yields the same stream.
    fn stream(&self, thread: usize) -> Box<dyn OpStream + '_>;
}
