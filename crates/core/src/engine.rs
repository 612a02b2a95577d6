//! The Apophenia engine: Algorithm 1 wired end to end.
//!
//! [`AutoTracer`] is the front-end component the paper describes: it sits
//! between the application and the runtime, intercepting every
//! `execute_task` call. Each task is hashed (§4.1) and fed to the trace
//! finder (history buffer + asynchronous mining, §4.2) and the trace
//! replayer (trie matching + scored replay, §4.3); the replayer forwards a
//! possibly re-bracketed stream of tasks and `begin_trace`/`end_trace`
//! calls to the underlying [`Runtime`]. Applications using [`AutoTracer`]
//! need no tracing annotations at all.
//!
//! Both issue entry points run that one procedure. `execute_task` runs it
//! start to finish per task; [`TaskIssuer::issue_batch`] runs the finder
//! half over the whole call first and the replayer half after, so the
//! call's tokens reach the miner before recognition starts (asynchronous
//! mining then overlaps the call) — mined results still ingest at the
//! stream position they completed at, so the two decide identically.

use crate::config::{Config, FinderPolicy};
use crate::finder::{FinderError, MinedBatch, MiningPool, TraceFinder};
use crate::metrics::{CapacitySample, CapacitySeries, TracedWindow, WarmupDetector};
use crate::replayer::{ReplayerStats, TraceReplayer};
use crate::snapshot::{get_config, put_config};
use tasksim::exec::LogStats;
use tasksim::ids::{RegionId, TraceId};
use tasksim::issuer::{RunArtifacts, TaskIssuer};
use tasksim::runtime::{Runtime, RuntimeConfig, RuntimeError};
use tasksim::snapshot::{
    self, CheckpointMeta, Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use tasksim::stats::{BufferStats, RuntimeStats};
use tasksim::task::{TaskDesc, TaskHash};

/// Automatic tracing layered over a [`Runtime`].
///
/// Applications normally reach this through
/// [`Session`](crate::session::Session), which returns it as a
/// `Box<dyn TaskIssuer>`; region management and manual-bracket rejection
/// live in the [`TaskIssuer`] impl below.
///
/// # Example
///
/// ```
/// use apophenia::{AutoTracer, Config};
/// use tasksim::issuer::TaskIssuer;
/// use tasksim::runtime::RuntimeConfig;
/// use tasksim::task::TaskDesc;
/// use tasksim::ids::TaskKindId;
///
/// # fn main() -> Result<(), tasksim::runtime::RuntimeError> {
/// let mut auto = AutoTracer::new(
///     RuntimeConfig::single_node(1),
///     Config::standard().with_min_trace_length(2).with_multi_scale_factor(8),
/// );
/// let a = auto.create_region(1);
/// let b = auto.create_region(1);
/// for _ in 0..200 {
///     auto.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b))?;
///     auto.execute_task(TaskDesc::new(TaskKindId(1)).reads(b).writes(a))?;
///     auto.mark_iteration();
/// }
/// auto.flush()?;
/// assert!(auto.runtime().stats().tasks_replayed > 0, "traces were found and replayed");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct AutoTracer {
    /// The tracing configuration the engine was built from — retained so
    /// checkpoints are self-contained (a restored process needs no
    /// side-channel config).
    config: Config,
    rt: Runtime,
    finder: TraceFinder,
    replayer: TraceReplayer,
    window: TracedWindow,
    warmup: WarmupDetector,
    capacity: CapacitySeries,
    prev: RuntimeStats,
    iter_traced: u64,
    iter_total: u64,
    /// Tasks the application has issued so far (including buffered ones).
    issued: u64,
    /// Reusable `(task, hash)` accumulator for [`TaskIssuer::issue_batch`]
    /// — always empty between calls, so it is not serialized.
    batch_scratch: Vec<(TaskDesc, TaskHash)>, // snapshot: derived
}

impl AutoTracer {
    /// Creates an engine over a fresh runtime. The runtime is forced into
    /// `auto_layer` cost accounting (12 µs launches, §5.2 replay gating).
    pub fn new(rt_config: RuntimeConfig, config: Config) -> Self {
        let rt = Runtime::new(Self::apply_caps(rt_config, &config));
        Self::assemble(TraceFinder::new(&config), rt, config)
    }

    /// Like [`Self::new`], but the finder submits mining jobs to `pool`
    /// instead of spawning a private worker pool — the constructor a
    /// multi-tenant host uses so every tenant shares one set of mining
    /// threads. Per-engine mining results and submission-order reassembly
    /// are unaffected; only the threads are shared.
    pub fn with_pool(rt_config: RuntimeConfig, config: Config, pool: &MiningPool) -> Self {
        let rt = Runtime::new(Self::apply_caps(rt_config, &config));
        Self::assemble(TraceFinder::with_pool(&config, pool), rt, config)
    }

    /// Layers the engine over an existing runtime (which should have been
    /// built with [`RuntimeConfig::with_auto_layer`] for faithful cost
    /// accounting).
    pub fn over(rt: Runtime, config: Config) -> Self {
        Self::assemble(TraceFinder::new(&config), rt, config)
    }

    /// Folds the tracing config's template byte budget
    /// ([`crate::config::CapacityConfig::max_template_bytes`]) into the
    /// runtime config (taking the tighter of the two when both are set)
    /// and forces auto-layer cost accounting. Shared with the distributed
    /// front-end, which applies it identically on every node.
    pub(crate) fn apply_caps(mut rt_config: RuntimeConfig, config: &Config) -> RuntimeConfig {
        if let Some(bytes) = config.capacity.max_template_bytes {
            rt_config.max_template_bytes =
                Some(rt_config.max_template_bytes.map_or(bytes, |own| own.min(bytes)));
        }
        rt_config.with_auto_layer()
    }

    fn assemble(finder: TraceFinder, rt: Runtime, config: Config) -> Self {
        Self {
            finder,
            replayer: TraceReplayer::new(&config),
            config,
            rt,
            window: TracedWindow::figure10(),
            warmup: WarmupDetector::default(),
            capacity: CapacitySeries::new(),
            prev: RuntimeStats::default(),
            iter_traced: 0,
            iter_total: 0,
            issued: 0,
            batch_scratch: Vec::new(),
        }
    }

    /// Algorithm 1's `ExecuteTask`: hash, feed the finder, ingest any
    /// completed analyses, and let the replayer forward what it can.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (which, by construction, automatic
    /// tracing never triggers for trace validity).
    pub fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        let (hash, mined) = self.observe(&task)?;
        self.ingest_all(mined);
        self.replayer.on_task(task, hash, &mut self.rt)?;
        self.absorb_stats();
        Ok(())
    }

    /// The finder half of Algorithm 1, shared by both issue entry points:
    /// hashes `task`, records the token (which may submit a mining job),
    /// applies the failure policy, and returns the hash with whatever
    /// analyses completed. The caller ingests them *before* recognising
    /// `task` — that stream position is what makes every front-end and
    /// both entry points decide identically.
    fn observe(&mut self, task: &TaskDesc) -> Result<(TaskHash, Vec<MinedBatch>), RuntimeError> {
        let hash = task.semantic_hash();
        self.issued += 1;
        self.finder.record(hash);
        self.enforce_finder_policy()?;
        Ok((hash, self.finder.poll_completed()))
    }

    /// Ingests completed analyses, sampling the candidate-store footprint
    /// once if anything landed.
    fn ingest_all(&mut self, mined: Vec<MinedBatch>) {
        for batch in &mined {
            self.replayer.ingest(batch);
        }
        if !mined.is_empty() {
            self.sample_capacity();
        }
    }

    /// [`TaskIssuer::issue_batch`]'s recording pass: observes every task
    /// into `run`, recognising the run so far whenever a mined batch must
    /// ingest at its stream position. Leaves the tail of the call in `run`.
    fn record_run(
        &mut self,
        tasks: Vec<TaskDesc>,
        run: &mut Vec<(TaskDesc, TaskHash)>,
    ) -> Result<(), RuntimeError> {
        for task in tasks {
            let (hash, mined) = self.observe(&task)?;
            if !mined.is_empty() {
                self.replayer.on_batch(run, &mut self.rt)?;
                self.ingest_all(mined);
            }
            run.push((task, hash));
        }
        Ok(())
    }

    /// Under [`FinderPolicy::FailStop`], turns a degraded mining pipeline
    /// into a typed error at the next issue; under the default degrade
    /// policy this is free (the failure stays visible via
    /// [`Self::finder_health`]).
    fn enforce_finder_policy(&mut self) -> Result<(), RuntimeError> {
        if self.config.finder_policy == FinderPolicy::FailStop {
            self.finder.health().map_err(|e| RuntimeError::FinderFailed(e.to_string()))?;
        }
        Ok(())
    }

    /// Records one candidate-store footprint sample (after an ingest).
    fn sample_capacity(&mut self) {
        let s = self.replayer.stats();
        self.capacity.push(CapacitySample {
            at_task: self.issued,
            candidates: s.candidates,
            trie_nodes: self.replayer.trie_node_count(),
            allocated_nodes: self.replayer.trie_allocated_nodes(),
            evicted: s.evicted_candidates,
        });
    }

    /// Marks an application iteration boundary. The mark binds to the
    /// tasks issued so far in *application* order — some may still sit in
    /// the replayer's pending buffer, but the simulator resolves marks by
    /// task count, so iteration timings stay attached to their tasks.
    pub fn mark_iteration(&mut self) {
        self.rt.mark_iteration_after(self.issued);
        self.warmup.record_iteration(self.iter_traced, self.iter_total);
        self.iter_traced = 0;
        self.iter_total = 0;
    }

    /// Drains buffered state: blocks on outstanding analyses, replays any
    /// eligible matches, and forwards everything else untraced. Call at
    /// program end.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors.
    pub fn flush(&mut self) -> Result<(), RuntimeError> {
        self.enforce_finder_policy()?;
        let mined = self.finder.drain_blocking();
        self.ingest_all(mined);
        self.replayer.flush(&mut self.rt)?;
        self.absorb_stats();
        Ok(())
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Replayer counters.
    pub fn replayer_stats(&self) -> ReplayerStats {
        self.replayer.stats()
    }

    /// The Figure 10 traced-fraction window.
    pub fn traced_window(&self) -> &TracedWindow {
        &self.window
    }

    /// The candidate-store footprint series (one sample per ingest).
    pub fn capacity_series(&self) -> &CapacitySeries {
        &self.capacity
    }

    /// Whether the mining pipeline is healthy; see
    /// [`TraceFinder::health`]. A degraded pipeline keeps the task stream
    /// flowing — it only costs tracing opportunities.
    ///
    /// # Errors
    ///
    /// The first [`FinderError`] the pipeline hit.
    pub fn finder_health(&mut self) -> Result<(), FinderError> {
        self.finder.health()
    }

    /// The Figure 9 warmup detector.
    pub fn warmup(&self) -> &WarmupDetector {
        &self.warmup
    }

    /// Analyses submitted by the finder so far.
    pub fn analyses_submitted(&self) -> u64 {
        self.finder.jobs_submitted
    }

    /// Flushes and consumes the engine, returning the run's artifacts:
    /// the simulation report (streamed incrementally when the runtime was
    /// built with [`tasksim::exec::LogRetention::Drain`], batch-computed
    /// otherwise — bit-identical either way), the raw log when retention
    /// kept it, and the final stats.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors from the final flush.
    pub fn finish(mut self) -> Result<RunArtifacts, RuntimeError> {
        self.flush()?;
        Ok(self.rt.into_artifacts())
    }

    /// Serializes the engine's complete state — configuration, runtime
    /// (log, templates, analyzer, pipeline), finder (history buffer,
    /// sampler, completed batches), replayer (trie, cursors, pending
    /// buffer), and metrics — as one self-contained payload. The finder's
    /// mining pipeline is quiesced first, which is why this takes
    /// `&mut self`; the engine continues normally afterwards.
    pub fn write_snapshot(&mut self, w: &mut SnapshotWriter) {
        put_config(w, &self.config);
        self.rt.write_snapshot(w);
        self.finder.write_snapshot(w);
        self.replayer.write_snapshot(w);
        self.window.snapshot(w);
        self.warmup.snapshot(w);
        self.capacity.snapshot(w);
        self.prev.snapshot(w);
        w.put_u64(self.iter_traced);
        w.put_u64(self.iter_total);
        w.put_u64(self.issued);
    }

    /// Rebuilds an engine from [`Self::write_snapshot`] output. The
    /// restored engine continues bit-identically to the uninterrupted
    /// run: same mining schedule, same replay decisions, same evictions,
    /// same report.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated or structurally impossible input.
    pub fn restore_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let config = get_config(r)?;
        let rt = Runtime::restore_snapshot(r)?;
        if !rt.config().auto_layer {
            return Err(SnapshotError::Corrupt(
                "auto-tracer snapshot carries a non-auto runtime".into(),
            ));
        }
        let finder = TraceFinder::restore_snapshot(&config, r)?;
        let replayer = TraceReplayer::restore_snapshot(&config, r)?;
        Ok(Self {
            config,
            rt,
            finder,
            replayer,
            window: TracedWindow::restore(r)?,
            warmup: WarmupDetector::restore(r)?,
            capacity: CapacitySeries::restore(r)?,
            prev: RuntimeStats::restore(r)?,
            iter_traced: r.get_u64()?,
            iter_total: r.get_u64()?,
            issued: r.get_u64()?,
            batch_scratch: Vec::new(),
        })
    }

    /// Folds newly forwarded tasks into the metrics.
    fn absorb_stats(&mut self) {
        let s = *self.rt.stats();
        let fresh = s.tasks_fresh - self.prev.tasks_fresh;
        let traced = (s.tasks_recorded + s.tasks_replayed)
            - (self.prev.tasks_recorded + self.prev.tasks_replayed);
        for _ in 0..fresh {
            self.window.push(false);
        }
        for _ in 0..traced {
            self.window.push(true);
        }
        self.iter_traced += traced;
        self.iter_total += traced + fresh;
        self.prev = s;
    }
}

impl TaskIssuer for AutoTracer {
    /// Regions are not operations; creation passes straight through.
    fn create_region(&mut self, fields: u32) -> RegionId {
        self.rt.create_region(fields)
    }

    fn partition(&mut self, region: RegionId, parts: u32) -> Result<Vec<RegionId>, RuntimeError> {
        self.rt.partition(region, parts)
    }

    fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError> {
        self.rt.destroy_region(region)
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        AutoTracer::execute_task(self, task)
    }

    /// Issues a whole call's tasks with the same decisions as
    /// [`AutoTracer::execute_task`] on each, in a different order of work:
    /// every task is hashed and recorded *first*, so the call's tokens
    /// reach the miner (and an asynchronous mining job starts) before
    /// recognition begins, and the recorded run is recognised when a mined
    /// batch is due — at its exact stream position — or at the end. The
    /// stats fold runs once per call.
    fn issue_batch(&mut self, tasks: Vec<TaskDesc>) -> Result<(), RuntimeError> {
        let mut run = std::mem::take(&mut self.batch_scratch);
        let recorded = self.record_run(tasks, &mut run);
        // The recorded run precedes a failed issue in stream order, so it
        // still reaches the replayer — and an error forwarding it happened
        // "first" and wins.
        let result = self.replayer.on_batch(&mut run, &mut self.rt).and(recorded);
        self.batch_scratch = run;
        self.absorb_stats();
        result
    }

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn mark_iteration(&mut self) {
        AutoTracer::mark_iteration(self);
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        AutoTracer::flush(self)
    }

    fn stats(&self) -> RuntimeStats {
        *self.rt.stats()
    }

    fn log_stats(&self) -> LogStats {
        self.rt.log_stats()
    }

    /// Replayer pending buffer + pipeline deferral queue, unified.
    fn buffered_ops(&self) -> BufferStats {
        let r = self.replayer.stats();
        BufferStats {
            replayer_pending: r.pending_tasks,
            peak_replayer_pending: r.peak_pending_tasks,
            ..self.rt.buffer_stats()
        }
    }

    /// Mining-pipeline health as a description (see
    /// [`AutoTracer::finder_health`] for the typed form).
    fn health(&mut self) -> Result<(), String> {
        self.finder.health().map_err(|e| e.to_string())
    }

    /// Blocks until every in-flight mining job lands (reassembled, queued
    /// for the next poll). Makes asynchronous ingestion a pure function
    /// of the task stream when invoked on a deterministic schedule.
    fn quiesce(&mut self) {
        self.finder.quiesce();
    }

    /// The candidate trie's modeled footprint (current, peak) in bytes.
    fn trie_footprint(&self) -> (usize, usize) {
        let r = self.replayer.stats();
        (r.trie_bytes, r.peak_trie_bytes)
    }

    fn op_digest(&self) -> u64 {
        self.rt.op_digest()
    }

    fn checkpoint(&mut self, out: &mut dyn std::io::Write) -> Result<CheckpointMeta, RuntimeError> {
        let mut w = SnapshotWriter::new();
        self.write_snapshot(&mut w);
        Ok(snapshot::write_checkpoint(
            snapshot::FRONT_END_AUTO,
            self.issued,
            self.rt.log_stats().pushed,
            self.rt.op_digest(),
            &w.into_payload(),
            out,
        )?)
    }

    fn warmup_iterations(&self) -> Option<u64> {
        self.warmup.warmup_iterations()
    }

    fn traced_samples(&self) -> Vec<(u64, f64)> {
        self.window.samples().to_vec()
    }

    fn finish(self: Box<Self>) -> Result<RunArtifacts, RuntimeError> {
        AutoTracer::finish(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasksim::cost::Micros;
    use tasksim::ids::TaskKindId;

    fn small_config() -> Config {
        Config::standard().with_min_trace_length(2).with_batch_size(256).with_multi_scale_factor(16)
    }

    fn engine() -> AutoTracer {
        AutoTracer::new(RuntimeConfig::single_node(1), small_config())
    }

    /// A two-task loop body on a pair of regions.
    fn run_loop(auto: &mut AutoTracer, iters: usize) {
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for _ in 0..iters {
            auto.execute_task(
                TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
            )
            .unwrap();
            auto.execute_task(
                TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
            )
            .unwrap();
            auto.mark_iteration();
        }
        auto.flush().unwrap();
    }

    #[test]
    fn loop_gets_traced_automatically() {
        let mut auto = engine();
        run_loop(&mut auto, 300);
        let s = auto.runtime().stats();
        assert!(s.trace_replays > 0, "replays: {s}");
        assert!(s.replayed_fraction() > 0.5, "most tasks replayed in steady state: {s}");
        assert_eq!(s.mismatches, 0, "automatic traces never mismatch");
    }

    #[test]
    fn warmup_reached_on_iterative_program() {
        let mut auto = engine();
        run_loop(&mut auto, 300);
        let w = auto.warmup().warmup_iterations();
        assert!(w.is_some(), "steady state reached");
        assert!(w.unwrap() < 200, "warmup {w:?} too long");
    }

    #[test]
    fn traced_window_ramps_up() {
        let mut auto = engine();
        run_loop(&mut auto, 400);
        let samples = auto.traced_window().samples();
        assert!(!samples.is_empty());
        let early = samples.first().unwrap().1;
        let late = samples.last().unwrap().1;
        assert!(late > early, "traced fraction ramps: {early} → {late}");
        assert!(late > 60.0, "steady state mostly traced: {late}");
    }

    #[test]
    fn capped_engine_still_traces_and_samples_capacity() {
        let mut auto = AutoTracer::new(
            RuntimeConfig::single_node(1).with_max_templates(4),
            small_config().with_max_candidates(8).with_max_trie_nodes(512),
        );
        run_loop(&mut auto, 300);
        let s = auto.runtime().stats();
        assert!(s.replayed_fraction() > 0.5, "caps don't hurt a stable loop: {s}");
        let series = auto.capacity_series();
        assert!(!series.samples().is_empty(), "one sample per ingest");
        assert!(series.peak_allocated_nodes() > 0);
        let last = series.samples().last().unwrap();
        assert!(last.candidates <= 8, "candidate cap held: {last:?}");
        assert!(auto.finder_health().is_ok());
    }

    #[test]
    fn fail_stop_policy_surfaces_finder_errors() {
        use crate::config::FinderPolicy;
        let mut auto = AutoTracer::new(
            RuntimeConfig::single_node(1),
            small_config()
                .with_async_mining()
                .with_multi_scale_factor(8)
                .with_finder_policy(FinderPolicy::FailStop),
        );
        auto.finder.kill_pool_for_test();
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        // The first issue after a job is lost must fail with the typed
        // error (the stream before that flows normally).
        let mut failure = None;
        for i in 0..64u32 {
            let t = TaskDesc::new(TaskKindId(i % 2)).reads(a).writes(b);
            if let Err(e) = TaskIssuer::issue_batch(&mut auto, vec![t]) {
                failure = Some(e);
                break;
            }
        }
        let err = failure.expect("fail-stop surfaced the dead pool");
        assert!(
            matches!(err, RuntimeError::FinderFailed(ref m) if m.contains("disconnected")),
            "typed error: {err}"
        );
    }

    #[test]
    fn degrade_policy_keeps_streaming_after_finder_death() {
        // The default: same failure, no error — the run continues
        // untraced and health() reports the degradation.
        let mut auto = AutoTracer::new(
            RuntimeConfig::single_node(1),
            small_config().with_async_mining().with_multi_scale_factor(8),
        );
        auto.finder.kill_pool_for_test();
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for i in 0..64u32 {
            auto.execute_task(TaskDesc::new(TaskKindId(i % 2)).reads(a).writes(b))
                .expect("degrade policy never errors");
        }
        auto.flush().unwrap();
        assert_eq!(auto.runtime().stats().tasks_total, 64, "stream kept flowing");
        assert!(auto.finder_health().is_err(), "degradation stays observable");
    }

    #[test]
    fn replayer_scores_reach_the_template_store() {
        use tasksim::ids::TraceId;
        let mut auto = engine();
        run_loop(&mut auto, 300);
        assert!(auto.runtime().stats().trace_replays > 0);
        assert!(
            auto.runtime().trace_score(TraceId(0)).is_some_and(|s| s > 0.0),
            "the replayed trace carries its §4.3 score as the shared eviction signal"
        );
    }

    #[test]
    fn buffered_ops_reports_replayer_and_pipeline_queues() {
        use tasksim::exec::LogRetention;
        let mut rt_cfg = RuntimeConfig::single_node(1).with_log_retention(LogRetention::Drain);
        rt_cfg.window = 64;
        let mut auto = AutoTracer::new(rt_cfg, small_config());
        run_loop(&mut auto, 400);
        let b = TaskIssuer::buffered_ops(&auto);
        assert!(b.peak_replayer_pending > 0, "a traced loop buffers in the replayer: {b:?}");
        assert!(b.peak_pipeline_deferred > 0, "gated replays defer in the pipeline: {b:?}");
        // After flush, the replayer's queue is empty again.
        assert_eq!(b.replayer_pending, 0, "{b:?}");
        assert!(b.peak_total() >= b.total());
    }

    #[test]
    fn checkpoint_restore_continues_bit_identically() {
        use tasksim::issuer::TaskIssuer as _;
        let straight = {
            let mut auto = engine();
            run_loop(&mut auto, 200);
            auto.finish().unwrap()
        };
        let resumed = {
            let mut auto = engine();
            let a = auto.create_region(1);
            let b = auto.create_region(1);
            for _ in 0..73 {
                auto.execute_task(
                    TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
                )
                .unwrap();
                auto.execute_task(
                    TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
                )
                .unwrap();
                auto.mark_iteration();
            }
            let mut bytes = Vec::new();
            let meta = auto.checkpoint(&mut bytes).unwrap();
            assert_eq!(meta.tasks_issued, 146);
            drop(auto);
            let (tag, payload) = tasksim::snapshot::read_envelope(&mut bytes.as_slice()).unwrap();
            assert_eq!(tag, tasksim::snapshot::FRONT_END_AUTO);
            let mut r = tasksim::snapshot::SnapshotReader::new(&payload);
            let mut auto = AutoTracer::restore_snapshot(&mut r).unwrap();
            r.expect_end().unwrap();
            assert_eq!(auto.runtime().op_digest(), meta.op_digest);
            for _ in 73..200 {
                auto.execute_task(
                    TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
                )
                .unwrap();
                auto.execute_task(
                    TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
                )
                .unwrap();
                auto.mark_iteration();
            }
            auto.flush().unwrap();
            auto.finish().unwrap()
        };
        assert_eq!(straight.stats, resumed.stats);
        assert_eq!(straight.log().digest(), resumed.log().digest(), "bit-identical op stream");
        assert_eq!(straight.report, resumed.report);
        assert_eq!(
            straight.report.total.0.to_bits(),
            resumed.report.total.0.to_bits(),
            "clocks identical to the bit"
        );
    }

    #[test]
    fn random_stream_never_traces() {
        let mut auto = engine();
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for i in 0..500u32 {
            // Every task kind distinct: no repeats exist.
            auto.execute_task(TaskDesc::new(TaskKindId(i)).reads(a).writes(b)).unwrap();
        }
        auto.flush().unwrap();
        let s = auto.runtime().stats();
        assert_eq!(s.tasks_replayed, 0);
        assert_eq!(s.tasks_recorded, 0);
        assert_eq!(s.tasks_total, 500, "all tasks still executed");
    }

    #[test]
    fn order_preserved_through_engine() {
        let mut auto = engine();
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        let mut expected = Vec::new();
        for i in 0..120u32 {
            let kind = TaskKindId(i % 3);
            let t = TaskDesc::new(kind).reads(a).writes(b);
            expected.push(t.semantic_hash());
            auto.execute_task(t).unwrap();
        }
        auto.flush().unwrap();
        let got: Vec<_> = auto.runtime().log().task_records().map(|r| r.hash).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn finish_yields_report_and_log() {
        let mut auto = engine();
        run_loop(&mut auto, 100);
        let artifacts = auto.finish().unwrap();
        assert!(artifacts.report.total > Micros::ZERO);
        assert_eq!(artifacts.log().iteration_count(), 100);
        assert_eq!(
            artifacts.report,
            tasksim::exec::simulate(artifacts.log()),
            "precomputed report equals a batch pass over the stored log"
        );
    }

    #[test]
    fn drained_engine_matches_full_and_bounds_residency() {
        use tasksim::exec::LogRetention;
        let body = |retention: LogRetention| {
            // Retention is O(window + trace length); shrink the window so
            // the bound is visible on a test-sized stream (the default
            // 30000 exceeds the whole run).
            let mut rt_cfg = RuntimeConfig::single_node(1).with_log_retention(retention);
            rt_cfg.window = 64;
            let mut auto = AutoTracer::new(rt_cfg, small_config());
            run_loop(&mut auto, 1000);
            let resident = auto.rt.log_stats();
            (auto.finish().unwrap(), resident)
        };
        let (full, full_resident) = body(LogRetention::Full);
        let (drained, drain_resident) = body(LogRetention::Drain);
        assert_eq!(full.report, drained.report, "drain is bit-identical to full");
        assert_eq!(full.stats, drained.stats);
        assert!(drained.log.is_none());
        assert_eq!(full_resident.retained, full_resident.pushed as usize);
        assert!(
            drain_resident.peak_retained * 4 < full_resident.peak_retained,
            "drained residency {} far below full {}",
            drain_resident.peak_retained,
            full_resident.peak_retained
        );
    }

    #[test]
    fn engine_beats_untraced_on_small_tasks() {
        // The headline claim, end to end: an iterative program with small
        // tasks runs faster (in simulated time) with Apophenia than
        // without tracing.
        let mut auto = AutoTracer::new(RuntimeConfig::single_node(1), small_config());
        run_loop(&mut auto, 400);
        let auto_report = auto.finish().unwrap().report;

        // Untraced baseline.
        let mut rt = Runtime::new(RuntimeConfig::single_node(1));
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        for _ in 0..400 {
            rt.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)))
                .unwrap();
            rt.execute_task(TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)))
                .unwrap();
            rt.mark_iteration();
        }
        let untraced_report = rt.into_artifacts().report;

        let auto_tp = auto_report.steady_throughput(100);
        let untraced_tp = untraced_report.steady_throughput(100);
        assert!(auto_tp > untraced_tp * 2.0, "auto {auto_tp} iters/s vs untraced {untraced_tp}");
    }

    #[test]
    fn async_mining_mode_also_converges() {
        let mut auto = AutoTracer::new(
            RuntimeConfig::single_node(1),
            small_config().with_async_mining().with_mining_threads(2),
        );
        // Async results land whenever the worker thread gets scheduled, so
        // run long enough (with occasional yields) for ingestion to happen
        // mid-stream rather than only at the final flush.
        let a = auto.create_region(1);
        let b = auto.create_region(1);
        for i in 0..3000 {
            auto.execute_task(
                TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(50.0)),
            )
            .unwrap();
            auto.execute_task(
                TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(50.0)),
            )
            .unwrap();
            auto.mark_iteration();
            if i % 16 == 0 {
                std::thread::yield_now();
            }
        }
        auto.flush().unwrap();
        let s = auto.runtime().stats();
        assert!(s.trace_replays > 0, "async mode replays too: {s}");
    }
}
