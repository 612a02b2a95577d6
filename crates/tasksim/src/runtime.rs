//! The runtime façade: region management, task execution, tracing.
//!
//! [`Runtime`] plays the role of Legion in this reproduction. Applications
//! (or the Apophenia layer acting on their behalf) call
//! [`Runtime::execute_task`] in program order, optionally bracketing
//! fragments with [`Runtime::begin_trace`] / [`Runtime::end_trace`]. The
//! runtime performs (or replays) the dependence analysis, validates trace
//! usage exactly as Legion does — same task sequence per trace id, or a
//! [`TraceError::SequenceMismatch`] — and appends every operation to an
//! [`crate::exec::OpLog`] that the discrete-event machine simulation
//! consumes.
//!
//! One deliberate deviation from a real memoizing runtime: during replay
//! we still *run* the dependence analyzer (while charging only the replay
//! cost `α_r`) so that the region-state frontier stays exact for the
//! untraced tasks that follow, and we `debug_assert` that the freshly
//! computed intra-trace edges equal the memoized ones — turning Legion's
//! trace-validity argument into a checked invariant of every test run.

use crate::cost::{AnalysisKind, CostModel, Micros};
use crate::deps::DependenceAnalyzer;
use crate::exec::{simulate, LogOp, LogRetention, LogStats, OpLog, SimPipeline, TaskRecord};
use crate::ids::{IdHash, OpId, RegionId, TraceId};
use crate::issuer::RunArtifacts;
use crate::region::{RegionError, RegionForest};
use crate::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::stats::{BufferStats, RuntimeStats};
use crate::task::{TaskDesc, TaskHash};
use crate::trace::{MismatchPolicy, TemplatePreds, TraceError, TraceTemplate};
use std::collections::HashMap;

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuntimeConfig {
    /// The cost model used to charge operations.
    pub cost: CostModel,
    /// Number of nodes (shards) of the simulated machine.
    pub nodes: u32,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// Whether the Apophenia layer sits in front: charges the higher
    /// per-task launch overhead (12 µs vs 7 µs, §6.3) and gates replayed
    /// traces on the application having issued the full trace (§5.2, no
    /// speculation).
    pub auto_layer: bool,
    /// Replay validation failure policy.
    pub mismatch_policy: MismatchPolicy,
    /// Apply transitive reduction to recorded templates
    /// (`-lg:inline_transitive_reduction`).
    pub transitive_reduction: bool,
    /// Maximum operations the application may run ahead of the analysis
    /// stage (`-lg:window`). The artifact uses 30000. Must exceed the
    /// longest trace for the §5.2 no-speculation gate to stay harmless.
    pub window: u32,
    /// Maximum templates the runtime retains (`None` = unbounded, the
    /// historical behaviour). When a newly recorded template pushes the
    /// store over this bound, the template with the fewest replays — ties
    /// broken by least-recent use, then smallest id — is evicted. The
    /// active (just-recorded or currently replaying) trace is never
    /// evicted; an evicted id simply re-records on its next `begin_trace`.
    pub max_templates: Option<usize>,
    /// Maximum template-store footprint in bytes under the deterministic
    /// byte model ([`TraceTemplate::footprint_bytes`]); `None` =
    /// unbounded. Enforced alongside `max_templates` with the same
    /// eviction order and the same never-evict-the-active-trace rule, so
    /// one oversized active template can exceed the budget transiently
    /// rather than deadlock the store.
    pub max_template_bytes: Option<usize>,
    /// What happens to operations after analysis: materialize the whole
    /// [`OpLog`] ([`LogRetention::Full`], the historical behaviour) or
    /// stream each op through an attached [`SimPipeline`] and drop it
    /// ([`LogRetention::Drain`]), bounding resident memory on
    /// production-length runs.
    pub retention: LogRetention,
}

impl RuntimeConfig {
    /// A single-node machine with `gpus` GPUs and paper-calibrated costs.
    pub fn single_node(gpus: u32) -> Self {
        Self {
            cost: CostModel::paper_calibrated(),
            nodes: 1,
            gpus_per_node: gpus,
            auto_layer: false,
            mismatch_policy: MismatchPolicy::Strict,
            transitive_reduction: true,
            window: 30_000,
            max_templates: None,
            max_template_bytes: None,
            retention: LogRetention::Full,
        }
    }

    /// A multi-node machine.
    pub fn multi_node(nodes: u32, gpus_per_node: u32) -> Self {
        Self { nodes, gpus_per_node, ..Self::single_node(gpus_per_node) }
    }

    /// Enables the Apophenia-layer cost accounting.
    pub fn with_auto_layer(mut self) -> Self {
        self.auto_layer = true;
        self
    }

    /// Bounds the template store (clamped to at least one template).
    pub fn with_max_templates(mut self, max: usize) -> Self {
        self.max_templates = Some(max.max(1));
        self
    }

    /// Bounds the template store's byte footprint (clamped to at least
    /// one byte).
    pub fn with_max_template_bytes(mut self, max: usize) -> Self {
        self.max_template_bytes = Some(max.max(1));
        self
    }

    /// Selects the operation-log retention policy.
    pub fn with_log_retention(mut self, retention: LogRetention) -> Self {
        self.retention = retention;
        self
    }

    /// Total GPU count.
    pub fn total_gpus(&self) -> u32 {
        self.nodes * self.gpus_per_node
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self::single_node(1)
    }
}

impl Snapshot for RuntimeConfig {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.cost.snapshot(w);
        w.put_u32(self.nodes);
        w.put_u32(self.gpus_per_node);
        w.put_bool(self.auto_layer);
        self.mismatch_policy.snapshot(w);
        w.put_bool(self.transitive_reduction);
        w.put_u32(self.window);
        w.put_opt_len(self.max_templates);
        w.put_opt_len(self.max_template_bytes);
        self.retention.snapshot(w);
    }
}

impl Restore for RuntimeConfig {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            cost: CostModel::restore(r)?,
            nodes: r.get_u32()?,
            gpus_per_node: r.get_u32()?,
            auto_layer: r.get_bool()?,
            mismatch_policy: MismatchPolicy::restore(r)?,
            transitive_reduction: r.get_bool()?,
            window: r.get_u32()?,
            max_templates: r.get_opt_len()?,
            max_template_bytes: r.get_opt_len()?,
            retention: LogRetention::restore(r)?,
        })
    }
}

/// Errors surfaced by [`Runtime`] operations.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A region operation failed.
    Region(RegionError),
    /// A tracing operation failed.
    Trace(TraceError),
    /// A manual trace bracket was issued through an automatic-tracing
    /// front-end. Automatically traced streams must carry no annotations
    /// (the two bracketings would fight over the runtime's trace state).
    AnnotationUnderAuto(TraceId),
    /// Control-replicated shards diverged (described by the message).
    Divergence(String),
    /// A front-end was constructed with an unusable configuration
    /// (described by the message) — e.g. a zero-node distributed
    /// deployment or a zero capacity bound.
    InvalidConfig(String),
    /// Writing or restoring a checkpoint failed.
    Snapshot(SnapshotError),
    /// The trace-mining pipeline failed and the engine runs under the
    /// fail-stop finder policy (the message describes the finder error).
    /// Under the degrade policy the same failure keeps the stream flowing
    /// untraced instead.
    FinderFailed(String),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Region(e) => write!(f, "region error: {e}"),
            Self::Trace(e) => write!(f, "trace error: {e}"),
            Self::AnnotationUnderAuto(id) => write!(
                f,
                "manual trace annotation (id {id:?}) issued through an automatic-tracing front-end"
            ),
            Self::Divergence(msg) => write!(f, "control-replication divergence: {msg}"),
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Self::Snapshot(e) => write!(f, "checkpoint error: {e}"),
            Self::FinderFailed(msg) => write!(f, "mining pipeline failed (fail-stop): {msg}"),
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Region(e) => Some(e),
            Self::Trace(e) => Some(e),
            Self::Snapshot(e) => Some(e),
            Self::AnnotationUnderAuto(_)
            | Self::Divergence(_)
            | Self::InvalidConfig(_)
            | Self::FinderFailed(_) => None,
        }
    }
}

impl From<SnapshotError> for RuntimeError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

impl From<RegionError> for RuntimeError {
    fn from(e: RegionError) -> Self {
        Self::Region(e)
    }
}

impl From<TraceError> for RuntimeError {
    fn from(e: TraceError) -> Self {
        Self::Trace(e)
    }
}

/// Tracing state machine.
#[derive(Debug)]
enum TraceState {
    /// No active trace.
    Idle,
    /// Recording a new template for `id`. `ops` holds the op id of every
    /// task recorded so far: relative indices are positions in this list,
    /// not op-id arithmetic, so iteration marks interleaved inside the
    /// trace cannot skew them.
    Recording {
        id: TraceId,
        ops: Vec<OpId>,
        hashes: Vec<TaskHash>,
        preds: Vec<TemplatePreds>,
        gpu_times: Vec<Micros>,
    },
    /// Replaying the template for `id`; `ops` holds the op ids of the
    /// tasks replayed so far (memoized internal edges index into it), and
    /// `head_task` the 1-based global task number of the first replayed
    /// task.
    Replaying { id: TraceId, pos: usize, ops: Vec<OpId>, head_task: u64 },
    /// A replay failed under [`MismatchPolicy::Fallback`]; remaining tasks
    /// run fresh until `end_trace(id)`.
    Poisoned { id: TraceId },
}

impl Snapshot for TraceState {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        match self {
            TraceState::Idle => w.put_u8(0),
            TraceState::Recording { id, ops, hashes, preds, gpu_times } => {
                w.put_u8(1);
                w.put_u32(id.0);
                w.put_seq(ops, |w, op| w.put_u64(op.0));
                w.put_seq(hashes, |w, h| w.put_u64(h.0));
                w.put_seq(preds, |w, p| {
                    w.put_seq(&p.internal, |w, i| w.put_len(*i));
                    w.put_bool(p.external);
                });
                w.put_seq(gpu_times, |w, t| w.put_f64(t.0));
            }
            TraceState::Replaying { id, pos, ops, head_task } => {
                w.put_u8(2);
                w.put_u32(id.0);
                w.put_len(*pos);
                w.put_seq(ops, |w, op| w.put_u64(op.0));
                w.put_u64(*head_task);
            }
            TraceState::Poisoned { id } => {
                w.put_u8(3);
                w.put_u32(id.0);
            }
        }
    }
}

impl Restore for TraceState {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(TraceState::Idle),
            1 => {
                let id = TraceId(r.get_u32()?);
                let ops = r.get_seq(|r| Ok(OpId(r.get_u64()?)))?;
                let hashes = r.get_seq(|r| Ok(TaskHash(r.get_u64()?)))?;
                let preds = r.get_seq(|r| {
                    Ok(TemplatePreds {
                        internal: r.get_seq(|r| r.get_len())?,
                        external: r.get_bool()?,
                    })
                })?;
                let gpu_times = r.get_seq(|r| Ok(Micros(r.get_f64()?)))?;
                if hashes.len() != ops.len()
                    || preds.len() != ops.len()
                    || gpu_times.len() != ops.len()
                {
                    return Err(SnapshotError::Corrupt(
                        "recording tables disagree on length".into(),
                    ));
                }
                Ok(TraceState::Recording { id, ops, hashes, preds, gpu_times })
            }
            2 => {
                let id = TraceId(r.get_u32()?);
                let pos = r.get_len()?;
                let ops = r.get_seq(|r| Ok(OpId(r.get_u64()?)))?;
                // Memoized internal edges index `ops` by position: one op
                // per task replayed so far, or the next replayed task
                // reads past the end.
                if ops.len() != pos {
                    return Err(SnapshotError::Corrupt(
                        "replayed ops disagree with the replay cursor".into(),
                    ));
                }
                Ok(TraceState::Replaying { id, pos, ops, head_task: r.get_u64()? })
            }
            3 => Ok(TraceState::Poisoned { id: TraceId(r.get_u32()?) }),
            t => Err(SnapshotError::Corrupt(format!("invalid trace-state tag {t}"))),
        }
    }
}

/// The Legion stand-in. See the module docs.
#[derive(Debug)]
pub struct Runtime {
    config: RuntimeConfig,
    forest: RegionForest,
    analyzer: DependenceAnalyzer,
    templates: HashMap<TraceId, TraceTemplate, IdHash>,
    /// Per-template utility hints pushed by the layer above (the trace
    /// replayer's §4.3 candidate scores): the shared signal that keeps
    /// template eviction and candidate eviction agreeing about what is
    /// hot. A template with no hint (manual tracing, no replayer) ranks
    /// above every hinted one and falls back to the replays/LRU key.
    score_hints: HashMap<TraceId, f64, IdHash>,
    state: TraceState,
    /// The current task's dependence edges: fresh analysis writes them
    /// here, a replay rebuilds the memoized ones in place. Under
    /// [`LogRetention::Drain`] the buffer rides along with the op and
    /// comes back from the log, so a warm task path allocates nothing.
    edges: Vec<OpId>, // snapshot: derived (scratch, rewritten every task)
    /// The op-id list of the last finished trace, kept for its capacity:
    /// the next `begin_trace` records or replays into it.
    spare_trace_ops: Vec<OpId>, // snapshot: derived (scratch, cleared on use)
    log: OpLog,
    /// The incremental simulator every operation streams into under
    /// [`LogRetention::Drain`] (`None` under [`LogRetention::Full`], where
    /// the stored log is simulated in one batch pass at the end).
    pipeline: Option<SimPipeline>,
    stats: RuntimeStats,
}

impl Runtime {
    /// Creates a runtime with the given configuration.
    pub fn new(config: RuntimeConfig) -> Self {
        let pipeline = (config.retention == LogRetention::Drain).then(|| SimPipeline::new(config));
        Self {
            config,
            forest: RegionForest::new(),
            analyzer: DependenceAnalyzer::new(),
            templates: HashMap::default(),
            score_hints: HashMap::default(),
            state: TraceState::Idle,
            edges: Vec::new(),
            spare_trace_ops: Vec::new(),
            log: OpLog::new(config),
            pipeline,
            stats: RuntimeStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Creates a new top-level region with `fields` fields.
    pub fn create_region(&mut self, fields: u32) -> RegionId {
        self.forest.create_region(fields)
    }

    /// Partitions a region into disjoint subregions.
    ///
    /// # Errors
    ///
    /// See [`RegionForest::partition`].
    pub fn partition(
        &mut self,
        region: RegionId,
        parts: u32,
    ) -> Result<Vec<RegionId>, RuntimeError> {
        Ok(self.forest.partition(region, parts)?)
    }

    /// Destroys a region subtree.
    ///
    /// # Errors
    ///
    /// See [`RegionForest::destroy_region`].
    pub fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError> {
        Ok(self.forest.destroy_region(region)?)
    }

    /// Read access to the region forest.
    pub fn forest(&self) -> &RegionForest {
        &self.forest
    }

    /// Issues a task. Returns the operation id it was assigned.
    ///
    /// # Errors
    ///
    /// Under [`MismatchPolicy::Strict`], replaying a trace with a
    /// different task sequence returns
    /// [`TraceError::SequenceMismatch`] / [`TraceError::ReplayOverrun`].
    pub fn execute_task(&mut self, task: TaskDesc) -> Result<OpId, RuntimeError> {
        let hash = task.semantic_hash();
        let op = self.log.next_op();
        self.stats.tasks_total += 1;

        // Always run the analyzer (see module docs): keeps frontier state
        // exact across traced and untraced stretches.
        self.analyzer.analyze_into(op, &task, &self.forest, &mut self.edges);

        match std::mem::replace(&mut self.state, TraceState::Idle) {
            TraceState::Idle => {
                self.state = TraceState::Idle;
                self.stats.tasks_fresh += 1;
                self.push_task(hash, AnalysisKind::Fresh, &task, false, None, None, 0);
            }
            TraceState::Recording { id, mut ops, mut hashes, mut preds, mut gpu_times } => {
                let mut internal = Vec::new();
                let mut external = false;
                for p in &self.edges {
                    match ops.binary_search(p) {
                        Ok(idx) => internal.push(idx),
                        Err(_) => external = true,
                    }
                }
                hashes.push(hash);
                preds.push(TemplatePreds { internal, external });
                gpu_times.push(task.gpu_time);
                ops.push(op);
                self.state = TraceState::Recording { id, ops, hashes, preds, gpu_times };
                self.stats.tasks_recorded += 1;
                self.push_task(hash, AnalysisKind::Recording, &task, false, None, None, 0);
            }
            TraceState::Replaying { id, pos, mut ops, head_task } => {
                let template = &self.templates[&id];
                if pos >= template.len() {
                    let err = TraceError::ReplayOverrun { id, len: template.len() };
                    self.spare_trace_ops = ops;
                    return self.replay_violation(err, id, hash, &task);
                }
                if template.hashes[pos] != hash {
                    let err = TraceError::SequenceMismatch {
                        id,
                        pos,
                        expected: template.hashes[pos],
                        got: hash,
                    };
                    self.spare_trace_ops = ops;
                    return self.replay_violation(err, id, hash, &task);
                }
                let head_task = if pos == 0 { self.stats.tasks_total } else { head_task };
                let tpl = &template.preds[pos];
                // Trace-validity invariant: every memoized internal edge is
                // an edge fresh analysis computes (§2's validity condition,
                // checked). Templates may store FEWER edges when transitive
                // reduction is enabled; they must never store edges the
                // fresh analysis would not produce. External edges may
                // differ — that is the point of the fence. (`ops` and the
                // fresh edges are sorted, so internal edge `e` is fresh iff
                // `ops[e]` is among them; the check allocates nothing.)
                debug_assert!(
                    tpl.internal
                        .iter()
                        .all(|&e| ops.get(e).is_some_and(|o| self.edges.binary_search(o).is_ok()))
                        && (self.config.transitive_reduction
                            || self
                                .edges
                                .iter()
                                .filter_map(|p| ops.binary_search(p).ok())
                                .all(|e| tpl.internal.contains(&e))),
                    "memoized intra-trace edges diverge from fresh analysis at pos {pos}"
                );
                // Reconstruct memoized edges over the fresh ones: internal
                // relative edges index the op ids of the tasks replayed so
                // far, plus the trace fence for external dependences.
                self.edges.clear();
                self.edges.extend(tpl.internal.iter().map(|&i| ops[i]));
                // The whole replay sits behind a trace fence (Legion's
                // begin-fence): the head op always depends on the previous
                // op — recording-time boundary conditions say nothing about
                // the boundary at replay time — and any task with recorded
                // external deps re-attaches to the fence as well.
                let fence = ops.first().map_or(op, |h| *h);
                if (pos == 0 || tpl.external) && fence.0 > 0 {
                    self.edges.push(OpId(fence.0 - 1));
                }
                self.edges.sort_unstable();
                self.edges.dedup();
                let replay_head = pos == 0;
                // The global task number of the trace's last task. Gates are
                // expressed in task numbers, which iteration marks cannot
                // skew.
                let tail_task = head_task + (template.len() - 1) as u64;
                // §5.2: Apophenia does not speculate — the whole trace must
                // arrive from the application before the replay is issued.
                let gate = (self.config.auto_layer && replay_head).then_some(tail_task);
                let tlen = template.len() as u32;
                ops.push(op);
                self.state = TraceState::Replaying { id, pos: pos + 1, ops, head_task };
                self.stats.tasks_replayed += 1;
                self.push_task(
                    hash,
                    AnalysisKind::Replayed,
                    &task,
                    replay_head,
                    gate,
                    // Legion instantiates the whole template before the
                    // trace's tasks execute (Figure 8, footnote 5).
                    Some(tail_task),
                    tlen,
                );
            }
            TraceState::Poisoned { id } => {
                self.state = TraceState::Poisoned { id };
                self.stats.tasks_fresh += 1;
                self.push_task(hash, AnalysisKind::Fresh, &task, false, None, None, 0);
            }
        }
        Ok(op)
    }

    /// Issues a run of tasks: [`Self::execute_task`] on each, in order.
    /// Drains `tasks`; the (now empty) vector keeps its capacity for the
    /// caller to refill. Nothing in this workspace calls it — it stays
    /// because `benchmark/src/ladder.rs` does.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first task error; the tasks behind it
    /// are dropped with the drained buffer.
    pub fn execute_batch(&mut self, tasks: &mut Vec<TaskDesc>) -> Result<(), RuntimeError> {
        tasks.drain(..).try_for_each(|task| self.execute_task(task).map(|_| ()))
    }

    /// Starts a trace: records a template on first use of `id`, replays it
    /// afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::NestedTrace`] if a trace is already active.
    pub fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        match &self.state {
            TraceState::Idle => {}
            TraceState::Recording { id: active, .. }
            | TraceState::Replaying { id: active, .. }
            | TraceState::Poisoned { id: active } => {
                return Err(TraceError::NestedTrace { active: *active, attempted: id }.into());
            }
        }
        let mut ops = std::mem::take(&mut self.spare_trace_ops);
        ops.clear();
        self.state = if self.templates.contains_key(&id) {
            TraceState::Replaying { id, pos: 0, ops, head_task: 0 }
        } else {
            TraceState::Recording {
                id,
                ops,
                hashes: Vec::new(),
                preds: Vec::new(),
                gpu_times: Vec::new(),
            }
        };
        Ok(())
    }

    /// Ends the active trace.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EndWithoutBegin`] /
    /// [`TraceError::WrongTraceId`] for bracketing mistakes, and
    /// [`TraceError::ReplayUnderrun`] if the replayed fragment was shorter
    /// than the template (under [`MismatchPolicy::Strict`]).
    pub fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        match std::mem::replace(&mut self.state, TraceState::Idle) {
            TraceState::Idle => Err(TraceError::EndWithoutBegin(id).into()),
            TraceState::Recording { id: active, ops, hashes, preds, gpu_times } => {
                self.spare_trace_ops = ops;
                if active != id {
                    return Err(TraceError::WrongTraceId { active, got: id }.into());
                }
                if !hashes.is_empty() {
                    let mut t = TraceTemplate {
                        hashes,
                        preds,
                        gpu_times,
                        replays: 0,
                        last_used: self.stats.tasks_total,
                    };
                    if self.config.transitive_reduction {
                        t.reduce_edges();
                    }
                    self.templates.insert(id, t);
                    self.stats.traces_recorded += 1;
                    self.stats.peak_templates =
                        self.stats.peak_templates.max(self.templates.len() as u64);
                    // Peak bytes sample *before* enforcement: the byte
                    // high-water includes the transient the new template
                    // causes, exactly like `peak_templates`.
                    self.note_template_bytes();
                    self.enforce_template_cap(id);
                }
                Ok(())
            }
            TraceState::Replaying { id: active, pos, ops, .. } => {
                self.spare_trace_ops = ops;
                if active != id {
                    return Err(TraceError::WrongTraceId { active, got: id }.into());
                }
                let len = self.templates[&id].len();
                if pos != len {
                    self.stats.mismatches += 1;
                    match self.config.mismatch_policy {
                        MismatchPolicy::Strict => {
                            Err(TraceError::ReplayUnderrun { id, pos, len }.into())
                        }
                        MismatchPolicy::Fallback => {
                            self.templates.remove(&id);
                            self.score_hints.remove(&id);
                            self.note_template_bytes();
                            Ok(())
                        }
                    }
                } else {
                    // Total: `len` was just read off this entry.
                    let t = self.templates.get_mut(&id);
                    debug_assert!(t.is_some(), "active template vanished mid-replay");
                    if let Some(t) = t {
                        t.replays += 1;
                        t.last_used = self.stats.tasks_total;
                    }
                    self.stats.trace_replays += 1;
                    Ok(())
                }
            }
            TraceState::Poisoned { id: active } => {
                if active != id {
                    return Err(TraceError::WrongTraceId { active, got: id }.into());
                }
                Ok(())
            }
        }
    }

    /// Marks an application-level iteration boundary (used for throughput
    /// reporting; has no cost). The mark binds to the tasks issued so far.
    pub fn mark_iteration(&mut self) {
        let after = self.stats.tasks_total;
        self.mark_iteration_after(after);
    }

    /// Marks an iteration boundary that belongs after the `after_tasks`-th
    /// task in *application* order. Layers that buffer tasks (Apophenia's
    /// pending queue) use this so the mark stays attached to its iteration
    /// even when logged later.
    ///
    /// Mark counts must be non-decreasing and no further than `window`
    /// behind the tasks already executed by the time the mark is
    /// simulated — automatically true when binding to an issued-task
    /// count, as every front-end does. A hand-built deeper lookback
    /// resolves against the oldest completion the simulator still retains
    /// (debug builds assert).
    pub fn mark_iteration_after(&mut self, after_tasks: u64) {
        self.stats.iterations += 1;
        self.append(LogOp::IterationMark(after_tasks));
    }

    /// Routes one operation per the retention policy: into the attached
    /// pipeline under [`LogRetention::Drain`] (the log still counts and
    /// digests it, then hands it back), stored in the log under
    /// [`LogRetention::Full`].
    fn append(&mut self, op: LogOp) -> Option<LogOp> {
        if let Some(pipeline) = &mut self.pipeline {
            pipeline.feed(&op);
        }
        self.log.push_or_return(op)
    }

    /// Records the tracing layer's utility score for the trace recorded
    /// (or about to be recorded) under `id` — the replayer's §4.3
    /// candidate score at the moment of the replay decision. Template
    /// eviction ranks by this shared signal, so the template store and
    /// the candidate store stop disagreeing about what is hot. The score
    /// is a pure function of the deterministic task stream, so
    /// control-replicated nodes record identical hints.
    pub fn note_trace_score(&mut self, id: TraceId, score: f64) {
        self.score_hints.insert(id, score);
    }

    /// The latest utility hint recorded for `id`, if any.
    pub fn trace_score(&self, id: TraceId) -> Option<f64> {
        self.score_hints.get(&id).copied()
    }

    /// Removes a template and its utility hint, counting the eviction.
    fn evict_template(&mut self, id: TraceId) {
        self.templates.remove(&id);
        self.score_hints.remove(&id);
        self.stats.templates_evicted += 1;
        self.note_template_bytes();
    }

    /// The template store's current footprint under the deterministic
    /// byte model ([`TraceTemplate::footprint_bytes`]) — the figure
    /// [`RuntimeConfig::max_template_bytes`] bounds.
    pub fn template_bytes(&self) -> u64 {
        self.templates.values().map(|t| t.footprint_bytes() as u64).sum()
    }

    /// Refreshes the byte-footprint counters after any template mutation.
    fn note_template_bytes(&mut self) {
        self.stats.template_bytes = self.template_bytes();
        self.stats.peak_template_bytes =
            self.stats.peak_template_bytes.max(self.stats.template_bytes);
    }

    /// Whether the template store exceeds a configured bound.
    fn over_template_cap(&self) -> bool {
        self.config.max_templates.is_some_and(|cap| self.templates.len() > cap)
            || self.config.max_template_bytes.is_some_and(|cap| self.template_bytes() > cap as u64)
    }

    /// Evicts templates until the store fits `max_templates` and
    /// `max_template_bytes`, never touching `active` (the just-recorded
    /// trace).
    ///
    /// Victims rank by the shared utility signal first: the template with
    /// the lowest replayer-reported score ([`Self::note_trace_score`])
    /// evicts first, exactly the §4.3 ordering candidate eviction uses.
    /// Templates without a hint (manual tracing puts none) outrank every
    /// hinted one and fall back to the historical key — fewest replays,
    /// then least-recent use, then smallest id. Every input is a pure
    /// function of the deterministic stream, so the choice is identical
    /// on control-replicated nodes despite the hash map.
    fn enforce_template_cap(&mut self, active: TraceId) {
        while self.over_template_cap() {
            let hints = &self.score_hints;
            // lint: allow(unordered-iter): the comparator is a total order
            // ending in the unique template id, so `min_by` picks the same
            // victim whatever order the hash map yields
            let victim = self
                .templates
                .iter()
                .filter(|(id, _)| **id != active)
                .min_by(|(ia, ta), (ib, tb)| {
                    let score = |id: &TraceId| hints.get(id).copied().unwrap_or(f64::INFINITY);
                    score(ia).total_cmp(&score(ib)).then_with(|| {
                        (ta.replays, ta.last_used, ia.0).cmp(&(tb.replays, tb.last_used, ib.0))
                    })
                })
                .map(|(id, _)| *id);
            let Some(victim) = victim else { break };
            self.evict_template(victim);
        }
    }

    /// Drops the template recorded for `id`, if any — the hook an
    /// automatic-tracing layer uses when it retires a candidate so its
    /// template does not linger unreachable. The active (recording or
    /// replaying) trace is never dropped. Returns whether a template was
    /// removed; removals count toward `templates_evicted`.
    pub fn forget_template(&mut self, id: TraceId) -> bool {
        let active = match &self.state {
            TraceState::Idle => None,
            TraceState::Recording { id, .. }
            | TraceState::Replaying { id, .. }
            | TraceState::Poisoned { id } => Some(*id),
        };
        if active == Some(id) {
            return false;
        }
        let removed = self.templates.remove(&id).is_some();
        self.score_hints.remove(&id);
        if removed {
            self.stats.templates_evicted += 1;
            self.note_template_bytes();
        }
        removed
    }

    /// Whether a template exists for `id`.
    pub fn has_template(&self, id: TraceId) -> bool {
        self.templates.contains_key(&id)
    }

    /// Number of templates currently stored.
    pub fn template_count(&self) -> usize {
        self.templates.len()
    }

    /// The template recorded for `id`, if any.
    pub fn template(&self, id: TraceId) -> Option<&TraceTemplate> {
        self.templates.get(&id)
    }

    /// Statistics so far.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The operation log so far (op-free but still counting/digesting
    /// under [`LogRetention::Drain`]).
    pub fn log(&self) -> &OpLog {
        &self.log
    }

    /// Resident-operation counters: the log's stored ops plus whatever the
    /// attached pipeline is buffering — the memory the retention policy
    /// governs.
    pub fn log_stats(&self) -> LogStats {
        let log = self.log.stats();
        match &self.pipeline {
            Some(p) => {
                let pipe = p.log_stats();
                LogStats {
                    pushed: log.pushed,
                    retained: log.retained + pipe.retained,
                    peak_retained: log.peak_retained + pipe.peak_retained,
                }
            }
            None => log,
        }
    }

    /// The order-sensitive digest of every operation pushed so far — the
    /// quantity a checkpoint records and a restored run must extend
    /// identically.
    pub fn op_digest(&self) -> u64 {
        self.log.digest()
    }

    /// The pipeline's share of the end-to-end buffering signal (the
    /// replayer's pending queue is folded in by the tracing layer above).
    pub fn buffer_stats(&self) -> BufferStats {
        match &self.pipeline {
            Some(p) => BufferStats {
                pipeline_deferred: p.deferred(),
                peak_pipeline_deferred: p.peak_deferred(),
                ..BufferStats::default()
            },
            None => BufferStats::default(),
        }
    }

    /// Consumes the runtime, returning the final operation log (empty of
    /// ops under [`LogRetention::Drain`]; prefer [`Self::into_artifacts`]).
    pub fn into_log(self) -> OpLog {
        self.log
    }

    /// Consumes the runtime into the run's artifacts: the simulation
    /// report (from the attached pipeline under [`LogRetention::Drain`],
    /// or a batch pass over the stored log under [`LogRetention::Full`]),
    /// the raw log when retention kept it, and the runtime counters. The
    /// two retention policies produce bit-identical reports — they drive
    /// the same [`SimPipeline`] state machine, differing only in when ops
    /// are fed.
    pub fn into_artifacts(self) -> RunArtifacts {
        let stats = self.stats;
        match self.pipeline {
            Some(pipeline) => RunArtifacts { report: pipeline.finalize(), log: None, stats },
            None => {
                let report = simulate(&self.log);
                RunArtifacts { report, log: Some(self.log), stats }
            }
        }
    }

    /// Handles a replay validation failure per the configured policy.
    fn replay_violation(
        &mut self,
        err: TraceError,
        id: TraceId,
        hash: TaskHash,
        task: &TaskDesc,
    ) -> Result<OpId, RuntimeError> {
        self.stats.mismatches += 1;
        match self.config.mismatch_policy {
            MismatchPolicy::Strict => Err(err.into()),
            MismatchPolicy::Fallback => {
                // Discard the template; run the rest of the fragment fresh.
                self.templates.remove(&id);
                self.score_hints.remove(&id);
                self.note_template_bytes();
                self.state = TraceState::Poisoned { id };
                let op = self.log.next_op();
                self.stats.tasks_fresh += 1;
                self.push_task(hash, AnalysisKind::Fresh, task, false, None, None, 0);
                // The op id was consumed before the violation; re-issue.
                Ok(OpId(op.0))
            }
        }
    }

    /// Serializes the runtime's complete state — configuration, region
    /// forest, analyzer frontiers, template store (with utility hints),
    /// tracing state machine, operation log, attached pipeline, and
    /// counters — so a restored runtime continues bit-identically.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        self.config.snapshot(w);
        self.forest.snapshot(w);
        self.analyzer.snapshot(w);
        let mut ids: Vec<TraceId> = self.templates.keys().copied().collect();
        ids.sort_unstable();
        w.put_seq(&ids, |w, id| {
            w.put_u32(id.0);
            self.templates[id].snapshot(w);
        });
        let mut hinted: Vec<TraceId> = self.score_hints.keys().copied().collect();
        hinted.sort_unstable();
        w.put_seq(&hinted, |w, id| {
            w.put_u32(id.0);
            w.put_f64(self.score_hints[id]);
        });
        self.state.snapshot(w);
        self.log.snapshot(w);
        match &self.pipeline {
            Some(p) => {
                w.put_bool(true);
                p.snapshot(w);
            }
            None => w.put_bool(false),
        }
        self.stats.snapshot(w);
    }

    /// Rebuilds a runtime from [`Self::write_snapshot`] output.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated or structurally impossible input
    /// (e.g. a drained config paired with a stored log, or a pipeline
    /// under full retention).
    pub fn restore_snapshot(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let config = RuntimeConfig::restore(r)?;
        let forest = RegionForest::restore(r)?;
        let analyzer = DependenceAnalyzer::restore(r)?;
        let template_list = r.get_seq(|r| {
            let id = TraceId(r.get_u32()?);
            Ok((id, TraceTemplate::restore(r)?))
        })?;
        let mut templates =
            HashMap::with_capacity_and_hasher(template_list.len(), IdHash::default());
        for (id, t) in template_list {
            if templates.insert(id, t).is_some() {
                return Err(SnapshotError::Corrupt(format!("duplicate template for {id}")));
            }
        }
        let hint_list = r.get_seq(|r| Ok((TraceId(r.get_u32()?), r.get_f64()?)))?;
        let score_hints = hint_list.into_iter().collect();
        let state = TraceState::restore(r)?;
        let log = OpLog::restore(r)?;
        if *log.config() != config {
            return Err(SnapshotError::Corrupt("log config disagrees with runtime config".into()));
        }
        let pipeline = if r.get_bool()? { Some(SimPipeline::restore(r)?) } else { None };
        if pipeline.is_some() != (config.retention == LogRetention::Drain) {
            return Err(SnapshotError::Corrupt(
                "pipeline presence disagrees with the retention policy".into(),
            ));
        }
        let stats = RuntimeStats::restore(r)?;
        if let TraceState::Replaying { id, pos, .. } = &state {
            let Some(template) = templates.get(id) else {
                return Err(SnapshotError::Corrupt(
                    "replaying a template that is not stored".into(),
                ));
            };
            if *pos > template.len() {
                return Err(SnapshotError::Corrupt("replay cursor past its template".into()));
            }
        }
        Ok(Self {
            config,
            forest,
            analyzer,
            templates,
            score_hints,
            state,
            edges: Vec::new(),
            spare_trace_ops: Vec::new(),
            log,
            pipeline,
            stats,
        })
    }

    /// Logs the current task with `edges` as its dependence edges.
    /// Under [`LogRetention::Full`] the stored record gets an exact-size
    /// copy, so the log holds no spare capacity; under
    /// [`LogRetention::Drain`] the buffer itself rides along and comes back.
    #[allow(clippy::too_many_arguments)]
    fn push_task(
        &mut self,
        hash: TaskHash,
        analysis: AnalysisKind,
        task: &TaskDesc,
        replay_head: bool,
        forward_gate: Option<u64>,
        exec_gate: Option<u64>,
        trace_len: u32,
    ) {
        let preds = match self.config.retention {
            LogRetention::Full => self.edges.to_vec(),
            LogRetention::Drain => std::mem::take(&mut self.edges),
        };
        let unstored = self.append(LogOp::Task(TaskRecord {
            hash,
            analysis,
            gpu_time: task.gpu_time,
            preds,
            replay_head,
            forward_gate,
            exec_gate,
            trace_len,
        }));
        if let Some(LogOp::Task(t)) = unstored {
            self.edges = t.preds;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskKindId;

    fn rt() -> Runtime {
        Runtime::new(RuntimeConfig::single_node(1))
    }

    fn step_task(r: RegionId, w: RegionId) -> TaskDesc {
        TaskDesc::new(TaskKindId(0)).reads(r).writes(w).gpu_time(Micros(100.0))
    }

    #[test]
    fn record_then_replay() {
        let mut rt = rt();
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        let id = TraceId(1);

        // Recording pass.
        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(id).unwrap();
        assert!(rt.has_template(id));
        assert_eq!(rt.stats().traces_recorded, 1);
        assert_eq!(rt.stats().tasks_recorded, 2);

        // Replay pass (twice).
        for _ in 0..2 {
            rt.begin_trace(id).unwrap();
            rt.execute_task(step_task(a, b)).unwrap();
            rt.execute_task(step_task(b, a)).unwrap();
            rt.end_trace(id).unwrap();
        }
        assert_eq!(rt.stats().tasks_replayed, 4);
        assert_eq!(rt.stats().trace_replays, 2);
        assert_eq!(rt.template(id).unwrap().replays, 2);
    }

    #[test]
    fn sequence_mismatch_is_an_error() {
        let mut rt = rt();
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        let c = rt.create_region(1);
        let id = TraceId(7);

        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(id).unwrap();

        rt.begin_trace(id).unwrap();
        let err = rt.execute_task(step_task(a, c)).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Trace(TraceError::SequenceMismatch { pos: 0, .. })),
            "{err}"
        );
        assert_eq!(rt.stats().mismatches, 1);
    }

    #[test]
    fn fallback_policy_discards_template() {
        let mut cfg = RuntimeConfig::single_node(1);
        cfg.mismatch_policy = MismatchPolicy::Fallback;
        let mut rt = Runtime::new(cfg);
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        let c = rt.create_region(1);
        let id = TraceId(7);

        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(id).unwrap();

        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, c)).expect("fallback tolerates mismatch");
        rt.execute_task(step_task(c, a)).expect("rest of fragment runs fresh");
        rt.end_trace(id).unwrap();
        assert!(!rt.has_template(id), "template discarded");
        assert_eq!(rt.stats().mismatches, 1);
        // Re-recording works afterwards.
        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, c)).unwrap();
        rt.end_trace(id).unwrap();
        assert!(rt.has_template(id));
    }

    #[test]
    fn replay_overrun_and_underrun() {
        let mut rt = rt();
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        let id = TraceId(2);

        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(id).unwrap();

        // Underrun: end immediately.
        rt.begin_trace(id).unwrap();
        let err = rt.end_trace(id).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Trace(TraceError::ReplayUnderrun { pos: 0, len: 1, .. })
        ));

        // Overrun: too many tasks.
        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        let err = rt.execute_task(step_task(a, b)).unwrap_err();
        assert!(matches!(err, RuntimeError::Trace(TraceError::ReplayOverrun { len: 1, .. })));
    }

    #[test]
    fn bracketing_errors() {
        let mut rt = rt();
        assert!(matches!(
            rt.end_trace(TraceId(0)).unwrap_err(),
            RuntimeError::Trace(TraceError::EndWithoutBegin(_))
        ));
        rt.begin_trace(TraceId(0)).unwrap();
        assert!(matches!(
            rt.begin_trace(TraceId(1)).unwrap_err(),
            RuntimeError::Trace(TraceError::NestedTrace { .. })
        ));
        assert!(matches!(
            rt.end_trace(TraceId(1)).unwrap_err(),
            RuntimeError::Trace(TraceError::WrongTraceId { .. })
        ));
    }

    #[test]
    fn empty_trace_records_nothing() {
        let mut rt = rt();
        rt.begin_trace(TraceId(5)).unwrap();
        rt.end_trace(TraceId(5)).unwrap();
        assert!(!rt.has_template(TraceId(5)));
        // The id records normally later.
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        rt.begin_trace(TraceId(5)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(5)).unwrap();
        assert!(rt.has_template(TraceId(5)));
    }

    #[test]
    fn replay_reconstructs_internal_edges() {
        let mut rt = rt();
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        let id = TraceId(3);
        // Trace: t0 writes b (reads a), t1 reads b writes a → edge t0→t1.
        for _ in 0..3 {
            rt.begin_trace(id).unwrap();
            rt.execute_task(step_task(a, b)).unwrap();
            rt.execute_task(step_task(b, a)).unwrap();
            rt.end_trace(id).unwrap();
        }
        let log = rt.log();
        // Ops 0..2 recorded, 2..4 and 4..6 replayed.
        let replayed = log.task_records().collect::<Vec<_>>();
        assert_eq!(replayed.len(), 6);
        assert_eq!(replayed[3].preds, vec![OpId(2)], "internal edge reconstructed");
        assert!(replayed[2].replay_head);
        assert!(!replayed[3].replay_head);
        // First replayed op carries a fence on the previous op (external
        // dep: t0 reads `a`, last written before the trace).
        assert!(replayed[2].preds.contains(&OpId(1)));
    }

    #[test]
    fn auto_layer_sets_forward_gate() {
        let mut rt = Runtime::new(RuntimeConfig::single_node(1).with_auto_layer());
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        let id = TraceId(4);
        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(id).unwrap();

        rt.begin_trace(id).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(id).unwrap();

        let recs: Vec<_> = rt.log().task_records().collect();
        assert_eq!(recs[2].forward_gate, Some(4), "head gated on the trace-tail task number");
        assert_eq!(recs[3].forward_gate, None);
    }

    #[test]
    fn template_store_bounded_by_replays_then_lru() {
        let mut rt = Runtime::new(RuntimeConfig::single_node(1).with_max_templates(2));
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        // Record trace 0 and replay it twice (hot), then record trace 1
        // (cold), then record trace 2 — the store must evict the
        // fewest-replayed template (1), never the active one (2).
        for _ in 0..3 {
            rt.begin_trace(TraceId(0)).unwrap();
            rt.execute_task(step_task(a, b)).unwrap();
            rt.end_trace(TraceId(0)).unwrap();
        }
        rt.begin_trace(TraceId(1)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(TraceId(1)).unwrap();
        assert_eq!(rt.template_count(), 2);
        assert_eq!(rt.stats().templates_evicted, 0);

        rt.begin_trace(TraceId(2)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(2)).unwrap();
        assert_eq!(rt.template_count(), 2, "cap enforced");
        assert_eq!(rt.stats().templates_evicted, 1);
        assert!(rt.has_template(TraceId(0)), "replayed template survives");
        assert!(!rt.has_template(TraceId(1)), "zero-replay template evicted");
        assert!(rt.has_template(TraceId(2)), "active template never evicted");
        assert_eq!(rt.stats().peak_templates, 3, "peak seen before eviction");
    }

    #[test]
    fn score_hints_rank_template_eviction() {
        // The shared utility signal: a tracing layer pushes its candidate
        // scores; eviction follows them instead of replays/LRU, so the
        // template store agrees with the candidate store about hotness.
        let mut rt = Runtime::new(RuntimeConfig::single_node(1).with_max_templates(2));
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        // Trace 0: replayed twice (hot by the old replays/LRU key) but
        // scored LOWEST by the layer above.
        for _ in 0..3 {
            rt.begin_trace(TraceId(0)).unwrap();
            rt.execute_task(step_task(a, b)).unwrap();
            rt.end_trace(TraceId(0)).unwrap();
        }
        rt.note_trace_score(TraceId(0), 1.0);
        rt.begin_trace(TraceId(1)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(TraceId(1)).unwrap();
        rt.note_trace_score(TraceId(1), 40.0);
        assert_eq!(rt.trace_score(TraceId(1)), Some(40.0));
        // Trace 2 records; the store must shed the lowest-*scoring*
        // template (0), not the fewest-replayed one (1).
        rt.note_trace_score(TraceId(2), 10.0);
        rt.begin_trace(TraceId(2)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(2)).unwrap();
        assert!(!rt.has_template(TraceId(0)), "lowest utility evicted despite most replays");
        assert!(rt.has_template(TraceId(1)));
        assert!(rt.has_template(TraceId(2)));
        assert_eq!(rt.trace_score(TraceId(0)), None, "hint dropped with its template");
    }

    #[test]
    fn unhinted_templates_outrank_hinted_ones() {
        // Templates the shared signal knows nothing about (manual
        // tracing) are never sacrificed before a scored one.
        let mut rt = Runtime::new(RuntimeConfig::single_node(1).with_max_templates(2));
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        rt.begin_trace(TraceId(0)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(0)).unwrap();
        rt.note_trace_score(TraceId(0), 1e9); // scored, however highly
        rt.begin_trace(TraceId(1)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(TraceId(1)).unwrap(); // unhinted
        rt.begin_trace(TraceId(2)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(2)).unwrap(); // unhinted, active
        assert!(!rt.has_template(TraceId(0)), "the scored template is the one ranked for eviction");
        assert!(rt.has_template(TraceId(1)));
        assert!(rt.has_template(TraceId(2)));
    }

    #[test]
    fn lru_breaks_replay_ties() {
        let mut rt = Runtime::new(RuntimeConfig::single_node(1).with_max_templates(2));
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        // Record 0, 1, 2 in order, all with zero replays. The victim must
        // be the least-recently *used* of the zero-replay templates: 0.
        rt.begin_trace(TraceId(0)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(0)).unwrap();
        rt.begin_trace(TraceId(1)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(TraceId(1)).unwrap();
        rt.begin_trace(TraceId(2)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(2)).unwrap();
        assert!(!rt.has_template(TraceId(0)), "oldest zero-replay template evicted");
        assert!(rt.has_template(TraceId(1)));
        assert!(rt.has_template(TraceId(2)));
    }

    #[test]
    fn forget_template_drops_inactive_only() {
        let mut rt = rt();
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        rt.begin_trace(TraceId(0)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(0)).unwrap();
        assert!(!rt.forget_template(TraceId(9)), "unknown id is a no-op");
        assert_eq!(rt.stats().templates_evicted, 0);
        // The active trace's template survives a forget.
        rt.begin_trace(TraceId(0)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        assert!(!rt.forget_template(TraceId(0)), "active trace never dropped");
        assert!(rt.has_template(TraceId(0)));
        rt.end_trace(TraceId(0)).unwrap();
        // Idle again: the forget lands and is counted.
        assert!(rt.forget_template(TraceId(0)));
        assert!(!rt.has_template(TraceId(0)));
        assert_eq!(rt.stats().templates_evicted, 1);
    }

    #[test]
    fn evicted_template_re_records_cleanly() {
        let mut rt = Runtime::new(RuntimeConfig::single_node(1).with_max_templates(1));
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        rt.begin_trace(TraceId(0)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(0)).unwrap();
        rt.begin_trace(TraceId(1)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(TraceId(1)).unwrap();
        assert!(!rt.has_template(TraceId(0)));
        // Trace 0 comes back: begin_trace records again instead of
        // replaying a ghost.
        rt.begin_trace(TraceId(0)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.end_trace(TraceId(0)).unwrap();
        assert!(rt.has_template(TraceId(0)));
        assert_eq!(rt.stats().traces_recorded, 3);
        assert_eq!(rt.stats().templates_evicted, 2);
        assert_eq!(rt.stats().mismatches, 0);
    }

    #[test]
    fn snapshot_round_trip_mid_trace() {
        use crate::snapshot::{SnapshotReader, SnapshotWriter};
        // Checkpoint with a replay in flight (manual bracketing may cut
        // mid-trace): the restored runtime finishes the replay and keeps
        // producing the identical log.
        let run = |cut: bool| {
            let mut rt = Runtime::new(RuntimeConfig::single_node(1));
            let a = rt.create_region(1);
            let b = rt.create_region(1);
            rt.begin_trace(TraceId(0)).unwrap();
            rt.execute_task(step_task(a, b)).unwrap();
            rt.execute_task(step_task(b, a)).unwrap();
            rt.end_trace(TraceId(0)).unwrap();
            rt.begin_trace(TraceId(0)).unwrap();
            rt.execute_task(step_task(a, b)).unwrap();
            let mut rt = if cut {
                let mut w = SnapshotWriter::new();
                rt.write_snapshot(&mut w);
                let payload = w.into_payload();
                let mut r = SnapshotReader::new(&payload);
                let restored = Runtime::restore_snapshot(&mut r).unwrap();
                r.expect_end().unwrap();
                restored
            } else {
                rt
            };
            rt.execute_task(step_task(b, a)).unwrap();
            rt.end_trace(TraceId(0)).unwrap();
            rt.mark_iteration();
            rt.into_artifacts()
        };
        let straight = run(false);
        let resumed = run(true);
        assert_eq!(straight.log().ops(), resumed.log().ops(), "bit-identical log");
        assert_eq!(straight.log().digest(), resumed.log().digest());
        assert_eq!(straight.report, resumed.report);
        assert_eq!(straight.stats, resumed.stats);
    }

    #[test]
    fn corrupt_runtime_snapshots_rejected() {
        use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
        let mut rt = rt();
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        rt.execute_task(step_task(a, b)).unwrap();
        let mut w = SnapshotWriter::new();
        rt.write_snapshot(&mut w);
        let payload = w.into_payload();
        // Any truncation is a typed error.
        for cut in [0, payload.len() / 3, payload.len() - 1] {
            let mut r = SnapshotReader::new(&payload[..cut]);
            let err = Runtime::restore_snapshot(&mut r).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::Corrupt(_)),
                "cut {cut}: {err}"
            );
        }
        // A replay in flight whose op list is shorter than its cursor:
        // the next task's memoized edge `0 → 1` would index `ops[0]`.
        rt.begin_trace(TraceId(0)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.end_trace(TraceId(0)).unwrap();
        rt.begin_trace(TraceId(0)).unwrap();
        rt.execute_task(step_task(a, b)).unwrap();
        let TraceState::Replaying { ops, .. } = &mut rt.state else { panic!("mid-replay") };
        ops.clear();
        let mut w = SnapshotWriter::new();
        rt.write_snapshot(&mut w);
        let err = Runtime::restore_snapshot(&mut SnapshotReader::new(&w.into_payload()));
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "{:?}", err.map(|_| ()));
    }

    #[test]
    fn full_log_stores_exact_size_edges() {
        // The runtime's edge buffer keeps the capacity of the widest task
        // so far; the records the log stores must not inherit it.
        let mut rt = rt();
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        let read = || TaskDesc::new(TaskKindId(1)).reads(a);
        for _ in 0..6 {
            rt.execute_task(read()).unwrap();
        }
        rt.execute_task(TaskDesc::new(TaskKindId(2)).writes(a)).unwrap();
        rt.execute_task(read()).unwrap();
        for _ in 0..3 {
            rt.begin_trace(TraceId(1)).unwrap();
            rt.execute_task(step_task(a, b)).unwrap();
            rt.execute_task(step_task(b, a)).unwrap();
            rt.end_trace(TraceId(1)).unwrap();
        }
        let records: Vec<&TaskRecord> = rt.log().task_records().collect();
        assert_eq!(records[6].preds.len(), 6, "the writer follows every reader");
        assert_eq!(rt.stats().tasks_replayed, 4);
        for (i, t) in records.iter().enumerate() {
            assert_eq!(t.preds.capacity(), t.preds.len(), "record {i}: {:?}", t.preds);
        }
    }

    #[test]
    fn iteration_marks_logged() {
        let mut rt = rt();
        let a = rt.create_region(1);
        let b = rt.create_region(1);
        rt.execute_task(step_task(a, b)).unwrap();
        rt.mark_iteration();
        rt.execute_task(step_task(b, a)).unwrap();
        rt.mark_iteration();
        assert_eq!(rt.stats().iterations, 2);
        assert_eq!(rt.log().iteration_count(), 2);
    }
}
