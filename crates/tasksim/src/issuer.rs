//! The unified task-issuing interface.
//!
//! [`TaskIssuer`] is the one contract between an application and whatever
//! runs beneath it: a bare [`Runtime`] (untraced, or manually annotated),
//! Apophenia's automatic tracer, or a control-replicated distributed
//! deployment. The substrate defines the trait so front-end layers
//! implement it; applications, workload generators, benches, and tests
//! program against `&mut dyn TaskIssuer` and select the configuration by
//! *data* (the `apophenia` crate's `Session` builder), not by code paths.
//!
//! The trait covers the full application-facing lifecycle:
//!
//! * region management — [`create_region`](TaskIssuer::create_region),
//!   [`partition`](TaskIssuer::partition),
//!   [`destroy_region`](TaskIssuer::destroy_region);
//! * task issuance — [`execute_task`](TaskIssuer::execute_task), plus
//!   [`issue_batch`](TaskIssuer::issue_batch), which hands a front-end a
//!   whole call's tasks at once. Nothing observable may depend on which
//!   of the two the application used — operation log, counters, residency
//!   peaks and checkpoint bytes are equal — so a front-end overrides the
//!   default loop only to reorder or fold its *own* per-call work (the
//!   automatic tracer records the call's tokens before recognising them
//!   and folds its metrics once); a bare [`Runtime`] takes the default;
//! * manual trace brackets — [`begin_trace`](TaskIssuer::begin_trace) /
//!   [`end_trace`](TaskIssuer::end_trace); automatic front-ends reject
//!   them with [`RuntimeError::AnnotationUnderAuto`] (annotating *and*
//!   auto-tracing the same stream is a program error);
//! * iteration marks, end-of-stream [`flush`](TaskIssuer::flush), and
//!   observation — [`stats`](TaskIssuer::stats),
//!   [`log_stats`](TaskIssuer::log_stats),
//!   [`warmup_iterations`](TaskIssuer::warmup_iterations),
//!   [`traced_samples`](TaskIssuer::traced_samples), and the consuming
//!   [`finish`](TaskIssuer::finish) that yields the run's
//!   [`RunArtifacts`] — the machine-simulation [`SimReport`] (computed
//!   incrementally under [`LogRetention::Drain`](crate::exec::LogRetention)
//!   or by a batch pass under
//!   [`LogRetention::Full`](crate::exec::LogRetention); bit-identical
//!   either way), the raw [`OpLog`] when retention kept it, and the final
//!   [`RuntimeStats`].

use crate::exec::{LogStats, OpLog, SimReport};
use crate::ids::{RegionId, TraceId};
use crate::runtime::{Runtime, RuntimeError};
use crate::snapshot::{self, CheckpointMeta, SnapshotWriter};
use crate::stats::{BufferStats, RuntimeStats};
use crate::task::TaskDesc;
use std::io::Write;

/// Everything a finished run produces. Returned by
/// [`TaskIssuer::finish`]; see the [module docs](self).
#[derive(Debug)]
pub struct RunArtifacts {
    /// The machine-simulation report — always available, whichever
    /// retention policy produced it.
    pub report: SimReport,
    /// The raw operation log, present only under
    /// [`LogRetention::Full`](crate::exec::LogRetention) (a drained run
    /// never materialized it — that is the point).
    pub log: Option<OpLog>,
    /// Final runtime counters.
    pub stats: RuntimeStats,
}

impl RunArtifacts {
    /// The stored operation log.
    ///
    /// # Panics
    ///
    /// Panics if the run used
    /// [`LogRetention::Drain`](crate::exec::LogRetention) — callers that
    /// inspect raw ops must run with full retention.
    pub fn log(&self) -> &OpLog {
        self.log.as_ref().expect("raw OpLog requires LogRetention::Full")
    }
}

/// The object-safe issuing interface every front-end implements.
///
/// See the [module docs](self) for the role each method plays. All
/// implementations preserve application order: tasks reach the underlying
/// analysis in exactly the order they were issued, whether one at a time
/// or through [`issue_batch`](TaskIssuer::issue_batch).
///
/// The trait is bounded `Send` so a boxed front-end can move onto a
/// server worker thread (one tenant per stream in a multi-tenant
/// service). Issuers are still driven from one thread at a time — the
/// bound is about *moving* ownership, not sharing it.
pub trait TaskIssuer: Send {
    /// Creates a new top-level region with `fields` fields.
    fn create_region(&mut self, fields: u32) -> RegionId;

    /// Partitions a region into `parts` disjoint subregions.
    ///
    /// # Errors
    ///
    /// Propagates region errors (unknown or destroyed region, zero parts).
    fn partition(&mut self, region: RegionId, parts: u32) -> Result<Vec<RegionId>, RuntimeError>;

    /// Destroys a region subtree.
    ///
    /// # Errors
    ///
    /// Propagates region errors.
    fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError>;

    /// Issues one task.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors — e.g. trace sequence violations under
    /// manual annotations. Automatic front-ends never produce trace
    /// validity errors by construction.
    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError>;

    /// Issues a batch of tasks in order — the hot path for issuance-bound
    /// applications.
    ///
    /// Observably identical to calling
    /// [`execute_task`](TaskIssuer::execute_task) once per task (operation
    /// log, counters, residency peaks and checkpoint bytes all agree);
    /// implementations override it to fold per-call bookkeeping.
    ///
    /// # Errors
    ///
    /// Propagates the first task's error; tasks before it were issued.
    fn issue_batch(&mut self, tasks: Vec<TaskDesc>) -> Result<(), RuntimeError> {
        for task in tasks {
            self.execute_task(task)?;
        }
        Ok(())
    }

    /// Opens a manual trace bracket.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::AnnotationUnderAuto`] on automatically traced
    /// front-ends; trace bracketing errors otherwise.
    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError>;

    /// Closes a manual trace bracket.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::AnnotationUnderAuto`] on automatically traced
    /// front-ends; trace bracketing/validation errors otherwise.
    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError>;

    /// Marks an application-level iteration boundary.
    fn mark_iteration(&mut self);

    /// Drains any buffered state (pending tasks, outstanding analyses).
    /// Call at end of stream; a pure pass-through front-end does nothing.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from forwarding buffered tasks.
    fn flush(&mut self) -> Result<(), RuntimeError>;

    /// Runtime counters so far. For distributed front-ends: node 0's view
    /// (identical on every node when in lock-step).
    fn stats(&self) -> RuntimeStats;

    /// Resident-operation counters (ops pushed / currently retained /
    /// peak retained) — how much of the stream is materialized under the
    /// configured [`LogRetention`](crate::exec::LogRetention). For
    /// distributed front-ends: node 0's view.
    fn log_stats(&self) -> LogStats;

    /// End-to-end buffering depths and peaks (replayer pending queue +
    /// pipeline deferral queue) — the backpressure signal operators watch
    /// on long runs, and the signal admission control keys off. For
    /// distributed front-ends: node 0's view.
    ///
    /// Required (no default): a defaulted all-zero answer once let a
    /// front-end silently report "nothing buffered" forever, blinding any
    /// backpressure consumer. Every front-end must state its real depths
    /// — a genuinely unbuffered front-end returns zeros *explicitly*.
    fn buffered_ops(&self) -> BufferStats;

    /// Whether the front-end's tracing machinery is healthy, as a
    /// human-readable degradation description (`Err`) or `Ok`. The
    /// default `Ok(())` is accurate for front-ends with nothing that can
    /// degrade; automatic front-ends surface mining-pipeline failures
    /// (lost jobs, worker panics) here. Takes `&mut self` because health
    /// evidence arrives on channels that must be drained to be observed.
    fn health(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Blocks until all asynchronous background work (mining jobs in
    /// flight) has completed, without releasing or ingesting anything —
    /// the barrier a host inserts to make asynchronous tracing
    /// deterministic: after a quiesce, every submitted analysis lands at
    /// the next issue, a pure function of the task stream. Default: no-op
    /// (synchronous front-ends have nothing to wait for; the distributed
    /// front-end determinizes ingestion with the §5.1 agreement protocol
    /// instead).
    fn quiesce(&mut self) {}

    /// The candidate trie's modeled footprint in bytes as
    /// `(current, peak)` — the figure a trie byte budget bounds. Defaults
    /// to `(0, 0)`, which is *accurate* (not a silent placeholder) for
    /// front-ends without a candidate store: only automatic tracing
    /// builds a trie. Template-store bytes are reported separately via
    /// [`RuntimeStats::template_bytes`] in [`Self::stats`].
    fn trie_footprint(&self) -> (usize, usize) {
        (0, 0)
    }

    /// The order-sensitive digest of every operation pushed so far (node
    /// 0's view for distributed front-ends). A checkpoint records this
    /// value; the restored run starts from it and must extend it exactly
    /// as the uninterrupted run would.
    fn op_digest(&self) -> u64;

    /// Serializes the front-end's complete state into `out` as a
    /// versioned snapshot (see [`crate::snapshot`]), returning a
    /// [`CheckpointMeta`] describing the cut. The front-end remains fully
    /// usable afterwards, and restoring the snapshot in a fresh process
    /// (the `apophenia` crate's `Session::resume_from`) continues
    /// bit-identically to the uninterrupted run. Under the deterministic
    /// synchronous-mining default the observed run is provably
    /// unperturbed too; an *asynchronous* mining pool is quiesced first
    /// (in-flight jobs are waited for), which can make results available
    /// earlier in the stream than an uncheckpointed run would have seen
    /// them — async ingest timing is inherently schedule-dependent either
    /// way. Checkpoints cut at task boundaries: call between
    /// `execute_task`/`issue_batch` calls. Distributed front-ends
    /// checkpoint every node at the same issued-task barrier.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Snapshot`] when writing to `out` fails.
    fn checkpoint(&mut self, out: &mut dyn Write) -> Result<CheckpointMeta, RuntimeError>;

    /// Iterations until the replay steady state, when the front-end
    /// measures warmup (automatic tracing only).
    fn warmup_iterations(&self) -> Option<u64> {
        None
    }

    /// Traced-fraction samples over the run (automatic tracing only).
    fn traced_samples(&self) -> Vec<(u64, f64)> {
        Vec::new()
    }

    /// Flushes, then consumes the front-end and returns the run's
    /// [`RunArtifacts`]: the simulation report (already computed — no
    /// separate `simulate` call needed), the raw log when retention kept
    /// it, and the final stats.
    ///
    /// # Errors
    ///
    /// Propagates flush errors; distributed front-ends also verify
    /// lock-step and return [`RuntimeError::Divergence`] on violation.
    fn finish(self: Box<Self>) -> Result<RunArtifacts, RuntimeError>;
}

impl TaskIssuer for Runtime {
    fn create_region(&mut self, fields: u32) -> RegionId {
        Runtime::create_region(self, fields)
    }

    fn partition(&mut self, region: RegionId, parts: u32) -> Result<Vec<RegionId>, RuntimeError> {
        Runtime::partition(self, region, parts)
    }

    fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError> {
        Runtime::destroy_region(self, region)
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        Runtime::execute_task(self, task).map(|_| ())
    }

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Runtime::begin_trace(self, id)
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Runtime::end_trace(self, id)
    }

    fn mark_iteration(&mut self) {
        Runtime::mark_iteration(self);
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        Ok(())
    }

    fn stats(&self) -> RuntimeStats {
        *Runtime::stats(self)
    }

    fn log_stats(&self) -> LogStats {
        Runtime::log_stats(self)
    }

    fn buffered_ops(&self) -> BufferStats {
        Runtime::buffer_stats(self)
    }

    fn op_digest(&self) -> u64 {
        Runtime::op_digest(self)
    }

    fn checkpoint(&mut self, out: &mut dyn Write) -> Result<CheckpointMeta, RuntimeError> {
        let mut w = SnapshotWriter::new();
        self.write_snapshot(&mut w);
        Ok(snapshot::write_checkpoint(
            snapshot::FRONT_END_RUNTIME,
            self.stats().tasks_total,
            Runtime::log_stats(self).pushed,
            Runtime::op_digest(self),
            &w.into_payload(),
            out,
        )?)
    }

    fn finish(self: Box<Self>) -> Result<RunArtifacts, RuntimeError> {
        Ok(self.into_artifacts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Micros;
    use crate::ids::TaskKindId;
    use crate::runtime::RuntimeConfig;

    fn step(kind: u32, r: RegionId, w: RegionId) -> TaskDesc {
        TaskDesc::new(TaskKindId(kind)).reads(r).writes(w).gpu_time(Micros(50.0))
    }

    /// Drives an issuer through a small manually-annotated loop.
    fn drive(issuer: &mut dyn TaskIssuer, batched: bool) {
        let a = issuer.create_region(1);
        let b = issuer.create_region(1);
        for _ in 0..4 {
            issuer.begin_trace(TraceId(0)).unwrap();
            if batched {
                issuer.issue_batch(vec![step(0, a, b), step(1, b, a)]).unwrap();
            } else {
                issuer.execute_task(step(0, a, b)).unwrap();
                issuer.execute_task(step(1, b, a)).unwrap();
            }
            issuer.end_trace(TraceId(0)).unwrap();
            issuer.mark_iteration();
        }
        issuer.flush().unwrap();
    }

    #[test]
    fn runtime_behind_the_trait_matches_direct_use() {
        let mut boxed: Box<dyn TaskIssuer> = Box::new(Runtime::new(RuntimeConfig::single_node(1)));
        drive(boxed.as_mut(), false);
        let stats = boxed.stats();
        assert_eq!(stats.tasks_total, 8);
        assert_eq!(stats.trace_replays, 3);
        assert_eq!(boxed.log_stats().pushed, 12, "8 tasks + 4 marks");
        let artifacts = boxed.finish().unwrap();
        assert_eq!(artifacts.stats.tasks_total, 8);
        let log = artifacts.log();
        assert_eq!(log.task_count(), 8);
        assert_eq!(log.iteration_count(), 4);
        assert_eq!(artifacts.report, crate::exec::simulate(log), "report precomputed");
    }

    #[test]
    fn default_issue_batch_is_bit_identical_to_single_issue() {
        let run = |batched: bool| {
            let mut boxed: Box<dyn TaskIssuer> =
                Box::new(Runtime::new(RuntimeConfig::single_node(1)));
            drive(boxed.as_mut(), batched);
            boxed.finish().unwrap()
        };
        let single = run(false);
        let batch = run(true);
        assert_eq!(single.log().ops(), batch.log().ops(), "batching must not change the log");
    }

    #[test]
    fn drained_runtime_reports_identically_without_a_log() {
        use crate::exec::LogRetention;
        let run = |retention: LogRetention| {
            let mut boxed: Box<dyn TaskIssuer> =
                Box::new(Runtime::new(RuntimeConfig::single_node(1).with_log_retention(retention)));
            drive(boxed.as_mut(), false);
            boxed.finish().unwrap()
        };
        let full = run(LogRetention::Full);
        let drained = run(LogRetention::Drain);
        assert_eq!(full.report, drained.report, "retention never changes the report");
        assert_eq!(full.stats, drained.stats);
        assert!(drained.log.is_none(), "drained run materializes no log");
        assert!(full.log.is_some());
    }

    #[test]
    fn issuers_are_send() {
        // Compile-time property: a boxed front-end must be movable onto a
        // server worker thread. If `TaskIssuer: Send` (or any
        // implementor's internals) regresses, this stops compiling.
        fn assert_send<T: Send>() {}
        assert_send::<Runtime>();
        assert_send::<Box<dyn TaskIssuer>>();
    }

    #[test]
    fn trait_partition_and_destroy_pass_through() {
        let mut issuer: Box<dyn TaskIssuer> = Box::new(Runtime::new(RuntimeConfig::single_node(1)));
        let top = issuer.create_region(2);
        let parts = issuer.partition(top, 4).unwrap();
        assert_eq!(parts.len(), 4);
        issuer.destroy_region(top).unwrap();
        assert!(issuer.partition(top, 2).is_err(), "destroyed regions stay destroyed");
    }
}
