//! Distributed Apophenia under control replication (§5.1).
//!
//! With dynamic control replication the application runs on every node and
//! each node hosts its own Apophenia instance. Every component of the
//! analysis is deterministic except one: *when* an asynchronous buffer-
//! mining job completes relative to the task stream. If node A ingests a
//! mining result two tasks earlier than node B, A may begin replaying a
//! trace B has not yet adopted — divergent `begin_trace` streams, a
//! control-replication violation.
//!
//! The paper's resolution, implemented here: nodes agree, per mining job,
//! on a count of operations after which the job's results are ingested.
//! At that point a node whose job has not finished must *wait* (stall the
//! application); whenever any node had to wait, every node increases the
//! agreed count for subsequent jobs — reaching a steady state in which
//! results are ingested deterministically without stalling.
//!
//! Mining itself is deterministic (same buffer → same candidates), so this
//! simulation runs the miners synchronously and models per-node completion
//! *latency* (in units of issued operations) with a seeded [`DelayModel`];
//! the protocol sees exactly the nondeterminism a real deployment would.

use crate::config::Config;
use crate::engine::AutoTracer;
use crate::finder::{get_batch, put_batch, MinedBatch, TraceFinder};
use crate::replayer::TraceReplayer;
use crate::snapshot::{get_config, put_config};
use std::collections::VecDeque;
use tasksim::exec::LogStats;
use tasksim::ids::{RegionId, TraceId};
use tasksim::issuer::{RunArtifacts, TaskIssuer};
use tasksim::runtime::{Runtime, RuntimeConfig, RuntimeError};
use tasksim::snapshot::{self, CheckpointMeta, SnapshotError, SnapshotReader, SnapshotWriter};
use tasksim::stats::{BufferStats, RuntimeStats};
use tasksim::task::TaskDesc;

/// Simulated per-node asynchronous-mining latency, in operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayModel {
    seed: u64,
    /// Maximum latency the model produces.
    pub max_delay: u64,
}

impl DelayModel {
    /// A deterministic model seeded with `seed`, producing latencies in
    /// `[0, max_delay]`.
    pub fn new(seed: u64, max_delay: u64) -> Self {
        Self { seed, max_delay }
    }

    /// The latency node `node` experiences for mining job `job`.
    pub fn delay(&self, node: u32, job: u64) -> u64 {
        if self.max_delay == 0 {
            return 0;
        }
        // SplitMix64 over (seed, node, job).
        let mut x = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(u64::from(node) + 1))
            .wrapping_add(job.wrapping_mul(0xbf58_476d_1ce4_e5b9));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x % (self.max_delay + 1)
    }
}

/// One node's Apophenia instance.
#[derive(Debug)]
struct NodeState {
    finder: TraceFinder,
    replayer: TraceReplayer,
    rt: Runtime,
    /// Mined batches waiting for their agreed ingestion point:
    /// `(ingest_at_op, ready_at_op, batch)`.
    queue: VecDeque<(u64, u64, MinedBatch)>,
}

/// Aggregate protocol statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgreementStats {
    /// Jobs whose results were ingested.
    pub ingests: u64,
    /// Times any node had to stall waiting for its own mining job.
    pub waits: u64,
    /// Total simulated stall, in operations-worth of waiting.
    pub stall_ops: u64,
    /// The current agreed ingestion interval.
    pub interval: u64,
}

/// A control-replicated Apophenia deployment: one engine per node, kept in
/// lock-step by the ingestion-agreement protocol.
#[derive(Debug)]
pub struct DistributedAutoTracer {
    nodes: Vec<NodeState>,
    /// The per-node tracing configuration (identical on every node) —
    /// retained so checkpoints are self-contained.
    config: Config,
    delay: DelayModel,
    /// Agreed operation-count between job submission and ingestion.
    interval: u64,
    /// Tasks the application has issued so far (control replication: the
    /// same count on every node). Iteration marks bind to this — the
    /// *issued* count — not to how many tasks a node's replayer happens to
    /// have forwarded, so buffering never skews iteration accounting.
    op_count: u64,
    stats: AgreementStats,
    /// Jobs seen so far (to detect new submissions).
    jobs_seen: u64,
}

impl DistributedAutoTracer {
    /// Builds a deployment of `rt_config.nodes` nodes. `initial_interval`
    /// is the starting ingestion-agreement count.
    ///
    /// Degenerate inputs are clamped (zero nodes become one, a zero
    /// interval becomes one) and the [`Config`] is taken as-is, matching
    /// [`AutoTracer`](crate::engine::AutoTracer); use [`Self::try_new`]
    /// to reject bad inputs with a typed error instead.
    pub fn new(
        rt_config: RuntimeConfig,
        config: Config,
        delay: DelayModel,
        initial_interval: u64,
    ) -> Self {
        let mut rt_config = rt_config;
        rt_config.nodes = rt_config.nodes.max(1);
        Self::build(rt_config, config, delay, initial_interval.max(1))
    }

    /// Builds a deployment, rejecting unusable configurations: zero
    /// nodes, a zero agreement interval, or a [`Config`] that fails
    /// [`Config::validate`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] describing the problem.
    pub fn try_new(
        rt_config: RuntimeConfig,
        config: Config,
        delay: DelayModel,
        initial_interval: u64,
    ) -> Result<Self, RuntimeError> {
        if rt_config.nodes == 0 {
            return Err(RuntimeError::InvalidConfig(
                "distributed deployment needs at least one node".into(),
            ));
        }
        if initial_interval == 0 {
            return Err(RuntimeError::InvalidConfig(
                "ingestion-agreement interval must be at least one operation".into(),
            ));
        }
        config.validate().map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
        Ok(Self::build(rt_config, config, delay, initial_interval))
    }

    /// Builds a deployment whose nodes are configured *individually* —
    /// the deployment shape real launchers produce (one config file per
    /// rank) — rejecting configurations whose capacity bounds disagree.
    ///
    /// Every eviction decision (candidate caps, trie node caps, template
    /// caps) is a pure function of the deterministic task stream *and the
    /// bounds*: nodes with different bounds would silently diverge at the
    /// first eviction, which `check_lockstep` only catches after the
    /// damage. This constructor surfaces the mistake at construction time
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] when `nodes` is empty, when
    /// any per-node [`Config`] fails validation, when capacity bounds
    /// ([`Config::capacity`](crate::config::CapacityConfig) /
    /// [`RuntimeConfig::max_templates`]) differ between nodes, or when any
    /// other tracing-relevant configuration differs (differing anything —
    /// mining knobs, scoring, cost model — also diverges; capacity gets
    /// the specific message because it is the deployment knob most likely
    /// to be tuned per node).
    pub fn try_new_nodes(
        nodes: &[(RuntimeConfig, Config)],
        delay: DelayModel,
        initial_interval: u64,
    ) -> Result<Self, RuntimeError> {
        let Some(((rt0, cfg0), rest)) = nodes.split_first() else {
            return Err(RuntimeError::InvalidConfig(
                "distributed deployment needs at least one node".into(),
            ));
        };
        for (i, (rt, cfg)) in rest.iter().enumerate() {
            if cfg.capacity != cfg0.capacity || rt.max_templates != rt0.max_templates {
                return Err(RuntimeError::InvalidConfig(format!(
                    "node {} disagrees with node 0 on capacity bounds \
                     (candidates/trie nodes {:?} vs {:?}, max_templates {:?} vs {:?}): \
                     capped stores would evict divergently at the first eviction",
                    i + 1,
                    cfg.capacity,
                    cfg0.capacity,
                    rt.max_templates,
                    rt0.max_templates,
                )));
            }
            if cfg != cfg0 || rt != rt0 {
                return Err(RuntimeError::InvalidConfig(format!(
                    "node {} is configured differently from node 0: control replication \
                     requires identical tracing configuration on every node",
                    i + 1,
                )));
            }
        }
        // The slice length is the deployment size; the shared machine
        // shape comes from the (agreed) per-node runtime config.
        let mut rt = *rt0;
        rt.nodes = nodes.len() as u32;
        Self::try_new(rt, cfg0.clone(), delay, initial_interval)
    }

    /// Shared constructor; expects `nodes >= 1` and `initial_interval >= 1`.
    fn build(
        rt_config: RuntimeConfig,
        config: Config,
        delay: DelayModel,
        initial_interval: u64,
    ) -> Self {
        // The same fold on every node, so byte-driven evictions stay in
        // lock-step.
        let rt_config = AutoTracer::apply_caps(rt_config, &config);
        let nodes = (0..rt_config.nodes)
            .map(|_| NodeState {
                finder: TraceFinder::new(&config),
                replayer: TraceReplayer::new(&config),
                rt: Runtime::new(rt_config),
                queue: VecDeque::new(),
            })
            .collect();
        Self {
            nodes,
            config,
            delay,
            interval: initial_interval,
            op_count: 0,
            stats: AgreementStats { interval: initial_interval, ..Default::default() },
            jobs_seen: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Issues one task on every node (control replication: the application
    /// runs everywhere). Exposed through [`TaskIssuer::execute_task`].
    ///
    /// # Errors
    ///
    /// Propagates the first node's runtime error.
    fn replicate_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        self.op_count += 1;
        let hash = task.semantic_hash();
        // Phase 1: every node records the token and captures new mining
        // results, stamping them with simulated readiness and the agreed
        // ingestion point.
        let fail_stop = self.config.finder_policy == crate::config::FinderPolicy::FailStop;
        let mut max_job = self.jobs_seen;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.finder.record(hash);
            if fail_stop {
                node.finder
                    .health()
                    .map_err(|e| RuntimeError::FinderFailed(format!("node {i}: {e}")))?;
            }
            for batch in node.finder.poll_completed() {
                let ready_at = self.op_count + self.delay.delay(i as u32, batch.job);
                let ingest_at = self.op_count + self.interval;
                max_job = max_job.max(batch.job + 1);
                node.queue.push_back((ingest_at, ready_at, batch));
            }
        }
        self.jobs_seen = max_job;

        // Phase 2: ingest every batch whose agreed point has arrived — on
        // ALL nodes at the SAME operation, stalling nodes whose results
        // are late.
        let mut anyone_waited = false;
        for node in &mut self.nodes {
            while node.queue.front().is_some_and(|(at, _, _)| *at <= self.op_count) {
                let (_, ready_at, batch) = node.queue.pop_front().expect("front exists");
                if ready_at > self.op_count {
                    anyone_waited = true;
                    self.stats.waits += 1;
                    self.stats.stall_ops += ready_at - self.op_count;
                }
                node.replayer.ingest(&batch);
                self.stats.ingests += 1;
            }
        }
        if anyone_waited {
            // All nodes raise the agreed count for subsequent analyses.
            self.interval = (self.interval * 2).min(1 << 20);
            self.stats.interval = self.interval;
        }

        // Phase 3: every node advances its replayer identically.
        for node in &mut self.nodes {
            node.replayer.on_task(task.clone(), hash, &mut node.rt)?;
        }
        Ok(())
    }

    /// Verifies all nodes forwarded identical operation streams; returns
    /// the first divergence as an error string.
    ///
    /// Stored ops are compared element-wise under
    /// [`tasksim::exec::LogRetention::Full`]; the push count and the
    /// order-sensitive stream digest are compared always, so the check
    /// stays meaningful when [`tasksim::exec::LogRetention::Drain`]
    /// discards the ops themselves.
    ///
    /// # Errors
    ///
    /// Returns a description of the first diverging operation.
    pub fn check_lockstep(&self) -> Result<(), String> {
        let a = self.nodes[0].rt.log();
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            let b = node.rt.log();
            if a.stats().pushed != b.stats().pushed {
                return Err(format!(
                    "node {i} issued {} ops, node 0 issued {}",
                    b.stats().pushed,
                    a.stats().pushed
                ));
            }
            for (k, (x, y)) in a.ops().iter().zip(b.ops().iter()).enumerate() {
                if x != y {
                    return Err(format!("node {i} diverged from node 0 at op {k}"));
                }
            }
            if a.digest() != b.digest() {
                return Err(format!("node {i}'s op-stream digest diverged from node 0's"));
            }
        }
        Ok(())
    }

    /// A node's runtime (for inspecting stats/logs).
    pub fn node_runtime(&self, node: usize) -> &Runtime {
        &self.nodes[node].rt
    }

    /// A node's replayer counters (eviction/peak bookkeeping included) —
    /// identical on every node while in lock-step.
    pub fn node_replayer_stats(&self, node: usize) -> crate::replayer::ReplayerStats {
        self.nodes[node].replayer.stats()
    }

    /// Protocol statistics.
    pub fn agreement_stats(&self) -> AgreementStats {
        self.stats
    }

    /// Serializes the whole deployment: the shared configuration, the
    /// agreement protocol's state, and every node's runtime, finder,
    /// replayer, and pending ingestion queue. All nodes cut at the same
    /// issued-task barrier (`op_count` — checkpoints happen between
    /// replicated task issues, when every node has processed exactly the
    /// same stream), so a restored deployment stays in lock-step.
    pub fn write_snapshot(&mut self, w: &mut SnapshotWriter) {
        put_config(w, &self.config);
        w.put_u64(self.delay.seed);
        w.put_u64(self.delay.max_delay);
        w.put_u64(self.interval);
        w.put_u64(self.op_count);
        w.put_u64(self.stats.ingests);
        w.put_u64(self.stats.waits);
        w.put_u64(self.stats.stall_ops);
        w.put_u64(self.stats.interval);
        w.put_u64(self.jobs_seen);
        w.put_len(self.nodes.len());
        for node in &mut self.nodes {
            node.rt.write_snapshot(w);
            node.finder.write_snapshot(w);
            node.replayer.write_snapshot(w);
            let queue: Vec<&(u64, u64, MinedBatch)> = node.queue.iter().collect();
            w.put_seq(&queue, |w, (ingest_at, ready_at, batch)| {
                w.put_u64(*ingest_at);
                w.put_u64(*ready_at);
                put_batch(w, batch);
            });
        }
    }

    /// Rebuilds a deployment from [`Self::write_snapshot`] output,
    /// re-validating lock-step on the restored state: every node's op
    /// count and stream digest must agree (the same check
    /// [`Self::check_lockstep`] applies at finish), so a snapshot that
    /// was assembled from diverged nodes is rejected with a typed error
    /// instead of silently resuming a broken deployment.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated, corrupt, or diverged input.
    pub fn restore_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let config = get_config(r)?;
        let delay = DelayModel { seed: r.get_u64()?, max_delay: r.get_u64()? };
        let interval = r.get_u64()?;
        let op_count = r.get_u64()?;
        let stats = AgreementStats {
            ingests: r.get_u64()?,
            waits: r.get_u64()?,
            stall_ops: r.get_u64()?,
            interval: r.get_u64()?,
        };
        let jobs_seen = r.get_u64()?;
        let node_count = r.get_len()?;
        if node_count == 0 {
            return Err(SnapshotError::Corrupt("distributed snapshot has no nodes".into()));
        }
        let mut nodes = Vec::with_capacity(node_count.min(r.remaining()));
        for _ in 0..node_count {
            let rt = Runtime::restore_snapshot(r)?;
            let finder = TraceFinder::restore_snapshot(&config, r)?;
            let replayer = TraceReplayer::restore_snapshot(&config, r)?;
            let queue = r.get_deque(|r| Ok((r.get_u64()?, r.get_u64()?, get_batch(r)?)))?;
            nodes.push(NodeState { finder, replayer, rt, queue });
        }
        let d = Self { nodes, delay, interval, op_count, stats, jobs_seen, config };
        d.check_lockstep()
            .map_err(|msg| SnapshotError::Corrupt(format!("restored nodes diverged: {msg}")))?;
        Ok(d)
    }
}

impl TaskIssuer for DistributedAutoTracer {
    /// Creates a region on every node, returning the (identical) id.
    fn create_region(&mut self, fields: u32) -> RegionId {
        let ids: Vec<_> = self.nodes.iter_mut().map(|n| n.rt.create_region(fields)).collect();
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "nodes agree on region ids");
        ids[0]
    }

    /// Partitions a region on every node, returning the (identical)
    /// subregion ids.
    fn partition(&mut self, region: RegionId, parts: u32) -> Result<Vec<RegionId>, RuntimeError> {
        let mut agreed: Option<Vec<RegionId>> = None;
        for node in &mut self.nodes {
            let ids = node.rt.partition(region, parts)?;
            if let Some(prev) = &agreed {
                assert_eq!(prev, &ids, "nodes agree on partition ids");
            }
            agreed = Some(ids);
        }
        agreed.ok_or_else(|| {
            RuntimeError::InvalidConfig("distributed deployment has no nodes".into())
        })
    }

    /// Destroys a region subtree on every node.
    fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError> {
        for node in &mut self.nodes {
            node.rt.destroy_region(region)?;
        }
        Ok(())
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        self.replicate_task(task)
    }

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    /// Marks an iteration on every node. The mark binds to the tasks
    /// *issued* so far (`op_count`), exactly like the single-node
    /// [`crate::engine::AutoTracer`]: some of those tasks may still sit in
    /// the replayers' pending buffers and be forwarded (even flushed)
    /// after the mark, and the simulator resolves marks by task count, so
    /// iteration timings stay attached to their own tasks either way.
    fn mark_iteration(&mut self) {
        let issued = self.op_count;
        for node in &mut self.nodes {
            node.rt.mark_iteration_after(issued);
        }
    }

    /// Flushes every node: remaining queued batches ingest at flush (end
    /// of program), unfinished mining is discarded, and each node's
    /// replayer drains. Under [`crate::config::FinderPolicy::FailStop`] a
    /// mining failure that surfaced since the last issue (a drain can
    /// reveal lost jobs or late worker panics) is returned as a typed
    /// error, matching the single-node engine's flush.
    fn flush(&mut self) -> Result<(), RuntimeError> {
        let fail_stop = self.config.finder_policy == crate::config::FinderPolicy::FailStop;
        for (i, node) in self.nodes.iter_mut().enumerate() {
            while let Some((_, _, batch)) = node.queue.pop_front() {
                node.replayer.ingest(&batch);
            }
            let _ = node.finder.drain_blocking();
            if fail_stop {
                node.finder
                    .health()
                    .map_err(|e| RuntimeError::FinderFailed(format!("node {i}: {e}")))?;
            }
            node.replayer.flush(&mut node.rt)?;
        }
        Ok(())
    }

    /// Node 0's counters — identical on every node while in lock-step.
    fn stats(&self) -> RuntimeStats {
        *self.nodes[0].rt.stats()
    }

    /// Node 0's residency counters — identical on every node while in
    /// lock-step.
    fn log_stats(&self) -> LogStats {
        self.nodes[0].rt.log_stats()
    }

    /// Node 0's buffering depths — identical on every node while in
    /// lock-step.
    fn buffered_ops(&self) -> BufferStats {
        let r = self.nodes[0].replayer.stats();
        BufferStats {
            replayer_pending: r.pending_tasks,
            peak_replayer_pending: r.peak_pending_tasks,
            ..self.nodes[0].rt.buffer_stats()
        }
    }

    /// First degraded node's mining-pipeline failure, if any.
    fn health(&mut self) -> Result<(), String> {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            node.finder.health().map_err(|e| format!("node {i}: {e}"))?;
        }
        Ok(())
    }

    /// Node 0's candidate-trie footprint `(current, peak)` in bytes —
    /// identical on every node while in lock-step.
    fn trie_footprint(&self) -> (usize, usize) {
        let r = self.nodes[0].replayer.stats();
        (r.trie_bytes, r.peak_trie_bytes)
    }

    /// Node 0's op-stream digest — identical on every node while in
    /// lock-step.
    fn op_digest(&self) -> u64 {
        self.nodes[0].rt.op_digest()
    }

    /// Checkpoints every node at the current issued-task barrier
    /// (`op_count`): between replicated issues all nodes have processed
    /// exactly the same stream, so the snapshot is the distributed
    /// analogue of the §5.1 agreement — one agreed cut, no node ahead of
    /// another. `check_lockstep` re-validates the restored digests.
    fn checkpoint(&mut self, out: &mut dyn std::io::Write) -> Result<CheckpointMeta, RuntimeError> {
        let mut w = SnapshotWriter::new();
        self.write_snapshot(&mut w);
        Ok(snapshot::write_checkpoint(
            snapshot::FRONT_END_DISTRIBUTED,
            self.op_count,
            self.nodes[0].rt.log_stats().pushed,
            self.nodes[0].rt.op_digest(),
            &w.into_payload(),
            out,
        )?)
    }

    /// Flushes, verifies lock-step across all nodes, and returns node 0's
    /// artifacts.
    fn finish(self: Box<Self>) -> Result<RunArtifacts, RuntimeError> {
        let mut this = *self;
        this.flush()?;
        this.check_lockstep().map_err(RuntimeError::Divergence)?;
        let node0 = this.nodes.into_iter().next().ok_or_else(|| {
            RuntimeError::InvalidConfig("distributed deployment has no nodes".into())
        })?;
        Ok(node0.rt.into_artifacts())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasksim::cost::Micros;
    use tasksim::ids::TaskKindId;

    fn cfg() -> Config {
        Config::standard().with_min_trace_length(2).with_batch_size(256).with_multi_scale_factor(16)
    }

    fn drive(d: &mut DistributedAutoTracer, iters: usize) {
        let a = d.create_region(1);
        let b = d.create_region(1);
        for _ in 0..iters {
            d.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(20.0)))
                .unwrap();
            d.execute_task(TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(20.0)))
                .unwrap();
            d.mark_iteration();
        }
        d.flush().unwrap();
    }

    #[test]
    fn nodes_never_diverge_despite_skewed_delays() {
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(4, 2),
            cfg(),
            DelayModel::new(42, 40),
            8,
        );
        drive(&mut d, 250);
        d.check_lockstep().expect("nodes in lock-step");
        // And tracing still works.
        assert!(d.node_runtime(0).stats().trace_replays > 0);
        assert_eq!(
            d.node_runtime(0).stats().trace_replays,
            d.node_runtime(3).stats().trace_replays
        );
    }

    #[test]
    fn interval_grows_under_slow_mining() {
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(2, 2),
            cfg(),
            DelayModel::new(7, 200),
            2, // deliberately too small
        );
        drive(&mut d, 200);
        let s = d.agreement_stats();
        assert!(s.waits > 0, "small interval forces waits: {s:?}");
        assert!(s.interval > 2, "interval adapted upward: {s:?}");
        d.check_lockstep().expect("still in lock-step");
    }

    #[test]
    fn no_waits_when_mining_fast() {
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(2, 2),
            cfg(),
            DelayModel::new(3, 0),
            16,
        );
        drive(&mut d, 150);
        assert_eq!(d.agreement_stats().waits, 0);
        d.check_lockstep().expect("lock-step");
    }

    #[test]
    fn steady_state_stops_waiting() {
        // After adaptation, late-program jobs should not wait any more.
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(2, 2),
            cfg(),
            DelayModel::new(11, 60),
            4,
        );
        drive(&mut d, 150);
        let waits_early = d.agreement_stats().waits;
        drive_more(&mut d, 150);
        let waits_late = d.agreement_stats().waits;
        assert_eq!(waits_early, waits_late, "no additional waits once the interval adapted");
        d.check_lockstep().expect("lock-step");
    }

    fn drive_more(d: &mut DistributedAutoTracer, iters: usize) {
        // Reuse regions 0/1 created by the first drive() call.
        let a = tasksim::ids::RegionId(0);
        let b = tasksim::ids::RegionId(1);
        for _ in 0..iters {
            d.execute_task(TaskDesc::new(TaskKindId(0)).reads(a).writes(b).gpu_time(Micros(20.0)))
                .unwrap();
            d.execute_task(TaskDesc::new(TaskKindId(1)).reads(b).writes(a).gpu_time(Micros(20.0)))
                .unwrap();
            d.mark_iteration();
        }
        d.flush().unwrap();
    }

    #[test]
    fn zero_nodes_is_a_typed_error() {
        let mut rt = RuntimeConfig::multi_node(2, 2);
        rt.nodes = 0;
        let err = DistributedAutoTracer::try_new(rt, cfg(), DelayModel::new(1, 0), 8).unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidConfig(ref m) if m.contains("node")),
            "typed error, not a panic: {err}"
        );
        // `new` clamps instead of panicking.
        let d = DistributedAutoTracer::new(rt, cfg(), DelayModel::new(1, 0), 8);
        assert_eq!(d.node_count(), 1);
    }

    #[test]
    fn invalid_config_rejected_at_construction() {
        let mut bad = cfg();
        bad.scoring.staleness_half_life = 0.0;
        let err = DistributedAutoTracer::try_new(
            RuntimeConfig::multi_node(2, 2),
            bad,
            DelayModel::new(1, 0),
            8,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        let err = DistributedAutoTracer::try_new(
            RuntimeConfig::multi_node(2, 2),
            cfg(),
            DelayModel::new(1, 0),
            0,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        // `new` takes the same degenerate config as-is (no validation
        // panic), matching AutoTracer's constructor contract.
        let mut bad = cfg();
        bad.scoring.staleness_half_life = 0.0;
        let d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(1, 1),
            bad,
            DelayModel::new(1, 0),
            8,
        );
        assert_eq!(d.node_count(), 1);
    }

    #[test]
    fn capped_nodes_evict_in_lockstep() {
        // Phase-shifting stream + tight capacity bounds on every store:
        // evictions must happen and must happen identically on all nodes.
        let config = cfg().with_max_candidates(6).with_max_trie_nodes(256);
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(2, 2).with_max_templates(3),
            config,
            DelayModel::new(9, 50),
            4,
        );
        let a = d.create_region(1);
        let b = d.create_region(1);
        for phase in 0..4u32 {
            for _ in 0..300 {
                for k in 0..3 {
                    d.execute_task(
                        TaskDesc::new(TaskKindId(phase * 10 + k))
                            .reads(a)
                            .writes(b)
                            .gpu_time(Micros(20.0)),
                    )
                    .unwrap();
                }
                d.mark_iteration();
            }
        }
        d.flush().unwrap();
        d.check_lockstep().expect("capped nodes stay in lock-step");
        let r0 = d.node_replayer_stats(0);
        assert!(r0.evicted_candidates > 0, "caps actually engaged: {r0:?}");
        for n in 1..d.node_count() {
            assert_eq!(d.node_replayer_stats(n), r0, "node {n} evicted identically");
            assert_eq!(d.node_runtime(n).stats(), d.node_runtime(0).stats());
        }
        assert!(d.node_runtime(0).stats().trace_replays > 0, "tracing still works under caps");
    }

    #[test]
    fn per_node_capacity_disagreement_is_a_typed_error() {
        let rt = RuntimeConfig::multi_node(2, 2);
        let agreed = vec![(rt, cfg().with_max_candidates(8)), (rt, cfg().with_max_candidates(8))];
        let d = DistributedAutoTracer::try_new_nodes(&agreed, DelayModel::new(1, 0), 8)
            .expect("agreed capacities construct");
        assert_eq!(d.node_count(), 2);

        // Differing candidate caps: the specific capacity message.
        let skewed = vec![(rt, cfg().with_max_candidates(8)), (rt, cfg().with_max_candidates(4))];
        let err =
            DistributedAutoTracer::try_new_nodes(&skewed, DelayModel::new(1, 0), 8).unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidConfig(ref m) if m.contains("capacity")),
            "typed capacity error: {err}"
        );

        // Differing template caps (a RuntimeConfig knob) are caught too.
        let skewed_templates =
            vec![(rt.with_max_templates(4), cfg()), (rt.with_max_templates(2), cfg())];
        let err = DistributedAutoTracer::try_new_nodes(&skewed_templates, DelayModel::new(1, 0), 8)
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::InvalidConfig(ref m) if m.contains("max_templates")),
            "{err}"
        );

        // Any other tracing-relevant disagreement is rejected generically.
        let skewed_mining = vec![(rt, cfg()), (rt, cfg().with_min_trace_length(3))];
        let err = DistributedAutoTracer::try_new_nodes(&skewed_mining, DelayModel::new(1, 0), 8)
            .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");

        // Empty deployments and invalid per-node configs still error.
        let err = DistributedAutoTracer::try_new_nodes(&[], DelayModel::new(1, 0), 8).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
        let mut bad = cfg();
        bad.scoring.staleness_half_life = 0.0;
        let err = DistributedAutoTracer::try_new_nodes(
            &[(rt, bad.clone()), (rt, bad)],
            DelayModel::new(1, 0),
            8,
        )
        .unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn fail_stop_surfaces_finder_failures_at_flush() {
        use crate::config::FinderPolicy;
        // A worker panic that lands only at the final drain must still be
        // surfaced by flush under fail-stop (regression: flush used to
        // swallow it on the distributed front-end).
        let config = cfg()
            .with_async_mining()
            .with_multi_scale_factor(8)
            .with_finder_policy(FinderPolicy::FailStop);
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(2, 2),
            config,
            DelayModel::new(1, 0),
            1 << 19, // park results in the queue; ingestion never fires
        );
        let a = d.create_region(1);
        let b = d.create_region(1);
        d.nodes[0].finder.poison_next = true;
        let mut issue_err = None;
        for k in 0..32u32 {
            if let Err(e) = d.execute_task(TaskDesc::new(TaskKindId(k % 4)).reads(a).writes(b)) {
                issue_err = Some(e);
                break;
            }
        }
        let err = match issue_err {
            // The panic may already surface at a later issue's health
            // check — also correct under fail-stop.
            Some(e) => e,
            None => d.flush().expect_err("fail-stop flush surfaces the worker panic"),
        };
        assert!(
            matches!(err, RuntimeError::FinderFailed(ref m) if m.contains("panicked")),
            "typed error: {err}"
        );
        // The default degrade policy flushes the same scenario cleanly.
        let mut d = DistributedAutoTracer::new(
            RuntimeConfig::multi_node(2, 2),
            cfg().with_async_mining().with_multi_scale_factor(8),
            DelayModel::new(1, 0),
            1 << 19,
        );
        let a = d.create_region(1);
        let b = d.create_region(1);
        d.nodes[0].finder.poison_next = true;
        for k in 0..32u32 {
            d.execute_task(TaskDesc::new(TaskKindId(k % 4)).reads(a).writes(b)).unwrap();
        }
        d.flush().expect("degrade policy keeps flushing");
    }

    #[test]
    fn delay_model_is_deterministic() {
        let m = DelayModel::new(5, 100);
        assert_eq!(m.delay(0, 7), m.delay(0, 7));
        assert!(m.delay(0, 7) <= 100);
        // Different nodes generally see different delays.
        let distinct = (0..16).map(|n| m.delay(n, 3)).collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 4, "delays vary across nodes");
    }
}
