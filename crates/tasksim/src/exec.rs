//! Discrete-event simulation of Legion's pipelined execution — as an
//! *incremental dataflow operator*.
//!
//! Legion processes each task through three stages (§5.2): the
//! *application* phase (the program launches the task — 7 µs, or 12 µs
//! through Apophenia), the *analysis* phase (dependence analysis, trace
//! recording, or trace replay — a serial per-node thread), and the
//! *execution* phase (the task's kernel runs on the GPUs). The stages
//! pipeline: analysis runs ahead of execution, and the application runs
//! ahead of analysis. Runtime overhead is *exposed* — and throughput drops
//! — exactly when the serial analysis stage cannot keep the GPUs fed,
//! which is the phenomenon tracing exists to fix.
//!
//! # The recurrences
//!
//! Three clocks advance per task, each depending on the others only
//! through *bounded lookbacks*:
//!
//! ```text
//! app[k]      = max(app[k-1] + launch, analysis[k-window])      (-lg:window)
//! analysis[i] = max(analysis[i-1], app[gate(i)]) + cost(i)  (+ c at replay heads)
//! exec[i]     = max(exec[i-1], analysis[egate(i)]) + gpu_time(i)
//! ```
//!
//! `gate(i)` is normally the task's own launch (a task cannot be analyzed
//! before it is launched); for an automatically replayed trace, the head
//! task's gate is the *last* task of the trace — Apophenia does not
//! speculate (§5.2), so the whole trace must arrive from the application
//! before the replay is issued. `egate(i)` is likewise the trace's last
//! task: Legion instantiates the whole template before the trace's tasks
//! run (Figure 8, footnote 5). Both gates reach at most one trace length
//! ahead, and the window floor reaches exactly `window` tasks back — so
//! the simulation needs only **O(window + max trace length)** history, not
//! the whole run.
//!
//! [`SimPipeline`] exploits that: it consumes [`LogOp`]s one at a time via
//! [`SimPipeline::feed`], retaining only the bounded history the
//! recurrences can still reference (recent launch/analysis/execution
//! completions plus any ops deferred behind an unsatisfied gate), and
//! produces the final [`SimReport`] from [`SimPipeline::finalize`]. The
//! batch entry point [`simulate`] is a thin wrapper — feed every stored
//! op, then finalize — so the streaming and batch paths are one state
//! machine and produce bit-identical reports by construction.
//!
//! Under [`LogRetention::Drain`] the [`crate::runtime::Runtime`] feeds
//! each operation to an attached pipeline *as it is issued* and never
//! materializes the log, which is what bounds resident memory on
//! production-length streams ([`LogStats`] exposes the counters; the
//! `streaming_soak` bench proves the bound on a million-task run).
//!
//! Every workload task in this reproduction is an index launch spanning
//! all GPUs (the paper's applications are all data-parallel), so the
//! execution phase is a single serial resource whose `gpu_time` already
//! reflects the per-GPU share of work; dependence edges therefore do not
//! further constrain the schedule (`exec` is monotonic), but they are kept
//! in the log because trace templates memoize them and tests validate
//! them.

use crate::cost::{AnalysisKind, Micros};
use crate::ids::OpId;
use crate::runtime::RuntimeConfig;
use crate::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::task::{Fnv1a, TaskHash};
use std::collections::VecDeque;

/// One task in the operation log.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// Semantic hash (the §4.1 token).
    pub hash: TaskHash,
    /// Which analysis path the task took.
    pub analysis: AnalysisKind,
    /// Execution-phase duration.
    pub gpu_time: Micros,
    /// Dependence edges (memoized or fresh).
    pub preds: Vec<OpId>,
    /// Whether this task is the first of a trace replay (charges the
    /// per-replay constant `c`).
    pub replay_head: bool,
    /// If set, analysis may not start before the application has launched
    /// the given number of tasks (§5.2 no-speculation gate; 1-based task
    /// count in application order).
    pub forward_gate: Option<u64>,
    /// Template length when this task is part of a trace replay (0
    /// otherwise); longer templates replay slower per task.
    pub trace_len: u32,
    /// If set, execution may not start before the analysis stage has
    /// finished the given task (1-based task count). The runtime sets this
    /// to the last task of a replayed trace: Legion instantiates the whole
    /// template before the trace's tasks run, which is what exposes very
    /// long traces under strong scaling (Figure 8, footnote 5).
    pub exec_gate: Option<u64>,
}

/// One entry of the operation log.
#[derive(Debug, Clone, PartialEq)]
pub enum LogOp {
    /// A task execution.
    Task(TaskRecord),
    /// An application-level iteration boundary (costless marker). Carries
    /// the number of tasks issued before it in *application order*: the
    /// simulator reports the iteration as finished when that many tasks
    /// have executed, so marks stay meaningful even when a tracing layer
    /// buffered tasks past their marks.
    IterationMark(u64),
}

/// What a [`crate::runtime::Runtime`] does with operations after they are
/// analyzed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LogRetention {
    /// Materialize the whole run in the [`OpLog`] (the historical
    /// behaviour): the raw log stays inspectable and is simulated in one
    /// batch pass at [`finish`](crate::issuer::TaskIssuer::finish).
    #[default]
    Full,
    /// Stream each operation into an attached [`SimPipeline`] and drop it:
    /// resident operations stay O(window + max trace length) no matter how
    /// long the run is. The raw log is unavailable (`finish` returns
    /// `log: None`); the report, stats, and the [`OpLog`] digest (used by
    /// distributed lock-step checking) are unaffected.
    Drain,
}

/// Resident-memory counters for an operation stream — the RSS proxy the
/// retention policy is judged by.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Operations pushed over the lifetime of the stream.
    pub pushed: u64,
    /// Operations currently resident (stored in the log, or buffered in
    /// an attached pipeline's bounded history).
    pub retained: usize,
    /// Most operations ever resident at once.
    pub peak_retained: usize,
}

/// The record of a program run. Under [`LogRetention::Full`] it holds
/// every operation; under [`LogRetention::Drain`] it only counts and
/// digests them (the attached [`SimPipeline`] consumes the stream).
#[derive(Debug, Clone)]
pub struct OpLog {
    ops: Vec<LogOp>,
    config: RuntimeConfig,
    pushed: u64,
    peak_retained: usize,
    digest: u64,
}

impl OpLog {
    /// An empty log for a machine described by `config`.
    pub fn new(config: RuntimeConfig) -> Self {
        Self { ops: Vec::new(), config, pushed: 0, peak_retained: 0, digest: Fnv1a::new().finish() }
    }

    /// The id the next pushed operation will receive (ids keep advancing
    /// under [`LogRetention::Drain`] even though nothing is stored).
    pub fn next_op(&self) -> OpId {
        OpId(self.pushed)
    }

    /// Appends an operation: always counted and folded into the digest,
    /// stored only under [`LogRetention::Full`].
    pub fn push(&mut self, op: LogOp) {
        self.push_or_return(op);
    }

    /// [`Self::push`], handing back the operation when the retention
    /// policy does not store it ([`LogRetention::Drain`]) so the caller
    /// can reuse its buffers.
    pub(crate) fn push_or_return(&mut self, op: LogOp) -> Option<LogOp> {
        self.pushed += 1;
        self.digest = fold_op(self.digest, &op);
        if self.config.retention == LogRetention::Full {
            self.ops.push(op);
            self.peak_retained = self.peak_retained.max(self.ops.len());
            None
        } else {
            Some(op)
        }
    }

    /// All stored operations in program order (empty under
    /// [`LogRetention::Drain`]).
    pub fn ops(&self) -> &[LogOp] {
        &self.ops
    }

    /// The machine/cost configuration the log was produced under.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Iterates over stored task records only.
    pub fn task_records(&self) -> impl Iterator<Item = &TaskRecord> {
        self.ops.iter().filter_map(|op| match op {
            LogOp::Task(t) => Some(t),
            LogOp::IterationMark(_) => None,
        })
    }

    /// Number of stored tasks.
    pub fn task_count(&self) -> usize {
        self.task_records().count()
    }

    /// Number of stored iteration marks.
    pub fn iteration_count(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, LogOp::IterationMark(_))).count()
    }

    /// Push/residency counters for this log (stored ops only; a `Runtime`
    /// folds in its attached pipeline's buffering — see
    /// [`crate::runtime::Runtime::log_stats`]).
    pub fn stats(&self) -> LogStats {
        LogStats {
            pushed: self.pushed,
            retained: self.ops.len(),
            peak_retained: self.peak_retained,
        }
    }

    /// Order-sensitive digest of every operation ever pushed. Two logs
    /// carry the same digest iff they saw the same operation stream —
    /// which is how control-replicated nodes verify lock-step even when
    /// [`LogRetention::Drain`] discards the ops themselves.
    pub fn digest(&self) -> u64 {
        self.digest
    }
}

impl Snapshot for LogRetention {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u8(match self {
            LogRetention::Full => 0,
            LogRetention::Drain => 1,
        });
    }
}

impl Restore for LogRetention {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(LogRetention::Full),
            1 => Ok(LogRetention::Drain),
            t => Err(SnapshotError::Corrupt(format!("invalid retention tag {t}"))),
        }
    }
}

impl Snapshot for TaskRecord {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.hash.0);
        self.analysis.snapshot(w);
        w.put_f64(self.gpu_time.0);
        w.put_seq(&self.preds, |w, p| w.put_u64(p.0));
        w.put_bool(self.replay_head);
        w.put_opt_u64(self.forward_gate);
        w.put_opt_u64(self.exec_gate);
        w.put_u32(self.trace_len);
    }
}

impl Restore for TaskRecord {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            hash: TaskHash(r.get_u64()?),
            analysis: AnalysisKind::restore(r)?,
            gpu_time: Micros(r.get_f64()?),
            preds: r.get_seq(|r| Ok(OpId(r.get_u64()?)))?,
            replay_head: r.get_bool()?,
            forward_gate: r.get_opt_u64()?,
            exec_gate: r.get_opt_u64()?,
            trace_len: r.get_u32()?,
        })
    }
}

impl Snapshot for LogOp {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        match self {
            LogOp::Task(t) => {
                w.put_u8(0);
                t.snapshot(w);
            }
            LogOp::IterationMark(after) => {
                w.put_u8(1);
                w.put_u64(*after);
            }
        }
    }
}

impl Restore for LogOp {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(LogOp::Task(TaskRecord::restore(r)?)),
            1 => Ok(LogOp::IterationMark(r.get_u64()?)),
            t => Err(SnapshotError::Corrupt(format!("invalid log-op tag {t}"))),
        }
    }
}

impl Snapshot for OpLog {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.config.snapshot(w);
        w.put_seq(&self.ops, |w, op| op.snapshot(w));
        w.put_u64(self.pushed);
        w.put_len(self.peak_retained);
        w.put_u64(self.digest);
    }
}

impl Restore for OpLog {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let config = RuntimeConfig::restore(r)?;
        let ops = r.get_seq(LogOp::restore)?;
        let log = Self {
            ops,
            config,
            pushed: r.get_u64()?,
            peak_retained: r.get_len()?,
            digest: r.get_u64()?,
        };
        if config.retention == LogRetention::Full && log.ops.len() as u64 != log.pushed {
            return Err(SnapshotError::Corrupt(
                "full-retention log stores fewer ops than it pushed".into(),
            ));
        }
        if config.retention == LogRetention::Drain && !log.ops.is_empty() {
            return Err(SnapshotError::Corrupt("drained log stores ops".into()));
        }
        Ok(log)
    }
}

/// Folds one operation into the FNV-1a stream digest (the same primitive
/// behind [`crate::task::TaskDesc::semantic_hash`]). Every field that
/// distinguishes operations participates, so divergent streams collide
/// only with hash probability.
fn fold_op(state: u64, op: &LogOp) -> u64 {
    let mut h = Fnv1a::resume(state);
    match op {
        LogOp::Task(t) => {
            h.write(1);
            h.write(t.hash.0);
            h.write(match t.analysis {
                AnalysisKind::Fresh => 0,
                AnalysisKind::Recording => 1,
                AnalysisKind::Replayed => 2,
            });
            h.write(t.gpu_time.0.to_bits());
            h.write(t.preds.len() as u64);
            for p in &t.preds {
                h.write(p.0);
            }
            h.write(u64::from(t.replay_head));
            h.write(t.forward_gate.map_or(u64::MAX, |g| g));
            h.write(t.exec_gate.map_or(u64::MAX, |g| g));
            h.write(u64::from(t.trace_len));
        }
        LogOp::IterationMark(after) => {
            h.write(2);
            h.write(*after);
        }
    }
    h.finish()
}

/// Simulation output: when each iteration finished, plus stage totals.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Simulated completion time of each iteration mark.
    pub iteration_finish: Vec<Micros>,
    /// Completion time of the whole log.
    pub total: Micros,
    /// Total busy time of the analysis stage.
    pub analysis_busy: Micros,
    /// Total busy time of the execution stage.
    pub exec_busy: Micros,
    /// Time the execution stage spent stalled waiting on analysis — the
    /// "exposed runtime overhead" the paper talks about.
    pub exec_stall: Micros,
}

impl SimReport {
    /// Per-iteration durations (differences of iteration finish times).
    pub fn iteration_times(&self) -> Vec<Micros> {
        let mut out = Vec::with_capacity(self.iteration_finish.len());
        let mut prev = Micros::ZERO;
        for &t in &self.iteration_finish {
            out.push(t - prev);
            prev = t;
        }
        out
    }

    /// Steady-state throughput in iterations per second, ignoring the
    /// first `warmup` iterations.
    ///
    /// Returns 0.0 if fewer than `warmup + 1` iterations exist.
    pub fn steady_throughput(&self, warmup: usize) -> f64 {
        let times = self.iteration_times();
        if times.len() <= warmup {
            return 0.0;
        }
        let steady = &times[warmup..];
        let avg_us: f64 = steady.iter().map(|t| t.0).sum::<f64>() / steady.len() as f64;
        if avg_us <= 0.0 {
            0.0
        } else {
            1e6 / avg_us
        }
    }

    /// Fraction of execution-stage wall time spent stalled on analysis.
    pub fn stall_fraction(&self) -> f64 {
        let denom = self.exec_busy.0 + self.exec_stall.0;
        if denom <= 0.0 {
            0.0
        } else {
            self.exec_stall.0 / denom
        }
    }
}

/// A bounded clock history: a window of recent completion times indexed by
/// a global (monotone) counter. Entries older than the trim cutoff are
/// dropped; at least one entry is always kept so end-of-stream clamps
/// ("the last task's time") stay answerable.
#[derive(Debug, Clone, Default)]
struct History {
    base: u64,
    buf: VecDeque<Micros>,
}

impl History {
    fn push(&mut self, t: Micros) {
        self.buf.push_back(t);
    }

    /// Total entries ever pushed.
    fn len(&self) -> u64 {
        self.base + self.buf.len() as u64
    }

    /// Entries currently resident.
    fn retained(&self) -> usize {
        self.buf.len()
    }

    /// Index of the oldest retained entry.
    fn oldest(&self) -> u64 {
        self.base
    }

    /// Entry `idx`, `None` past the end. An index older than the retained
    /// window reads as the oldest retained entry — runtime-produced logs
    /// never look back that far (gates reference at most one trace length
    /// behind the relevant stage cursor), so this is a deterministic
    /// fallback for hand-built logs only.
    fn get(&self, idx: u64) -> Option<Micros> {
        if idx >= self.len() {
            return None;
        }
        let i = idx.saturating_sub(self.base) as usize;
        self.buf.get(i).copied()
    }

    /// Drops entries with index below `cutoff`, always keeping the newest.
    fn trim(&mut self, cutoff: u64) {
        while self.base < cutoff && self.buf.len() > 1 {
            self.buf.pop_front();
            self.base += 1;
        }
    }
}

/// The simulation-relevant projection of a [`LogOp`] (dependence edges are
/// template/bookkeeping data the clocks never read).
#[derive(Debug, Clone, Copy)]
enum SimOp {
    Task {
        analysis: AnalysisKind,
        gpu_time: Micros,
        replay_head: bool,
        forward_gate: Option<u64>,
        exec_gate: Option<u64>,
        trace_len: u32,
    },
    Mark(u64),
}

impl SimOp {
    fn of(op: &LogOp) -> Self {
        match op {
            LogOp::Task(t) => SimOp::Task {
                analysis: t.analysis,
                gpu_time: t.gpu_time,
                replay_head: t.replay_head,
                forward_gate: t.forward_gate,
                exec_gate: t.exec_gate,
                trace_len: t.trace_len,
            },
            LogOp::IterationMark(after) => SimOp::Mark(*after),
        }
    }
}

/// A task whose analysis finished but whose execution may still be gated.
#[derive(Debug, Clone, Copy)]
struct ExecTask {
    gpu_time: Micros,
    exec_gate: Option<u64>,
}

/// The incremental three-stage pipeline simulator. See the
/// [module docs](self) for the recurrences and the retention argument.
///
/// Feed operations in program order with [`SimPipeline::feed`]; obtain the
/// report with [`SimPipeline::finalize`]. The batch [`simulate`] is
/// exactly `feed`-per-op + `finalize`, so the two paths cannot diverge.
///
/// An op whose forward gate references launches that have not arrived yet
/// is *deferred* (buffered, along with everything behind it) until the
/// gate is satisfiable or the stream ends — for runtime-produced logs the
/// deferral distance is at most one trace length, which is what keeps the
/// buffering bounded.
///
/// Iteration marks may look back at most `window` completed tasks
/// (front-end-produced marks bind to issued-task counts and never look
/// back at all); a hand-built deeper lookback clamps to the oldest
/// retained completion, asserted in debug builds.
#[derive(Debug, Clone)]
pub struct SimPipeline {
    cfg: RuntimeConfig,
    launch: Micros, // snapshot: derived (from cfg, as in `new`)
    window: u64,    // snapshot: derived (from cfg, as in `new`)

    // Application stage.
    app_t: Micros,
    /// Launch-completion time per task, in application order.
    app_done: History,
    /// Ops (global index) whose app timeline has been advanced.
    app_next: u64,

    // Analysis stage.
    analysis_t: Micros,
    analysis_busy: Micros,
    /// Analysis-completion time per task.
    analysis_done: History,
    /// Ops fed but not yet analyzed (head may be gate-deferred). The front
    /// op's global index is `analyzed_ops`.
    pending: VecDeque<SimOp>,
    /// Ops analyzed (and popped from `pending`) so far.
    analyzed_ops: u64,

    // Execution stage.
    exec_t: Micros,
    exec_busy: Micros,
    exec_stall: Micros,
    /// Analyzed tasks not yet executed (head may be gate-deferred).
    exec_queue: VecDeque<ExecTask>,
    /// Execution-completion time per task.
    done: History,

    // Iteration accounting.
    /// Unresolved marks (task counts), in log order.
    marks: VecDeque<u64>,
    iteration_finish: Vec<Micros>,

    // Telemetry.
    fed: u64,
    peak_retained: usize,
    /// Most ops ever parked behind an unresolved gate at once (analysis
    /// deferrals + gated execution queue) — the pipeline's share of the
    /// end-to-end backpressure signal.
    peak_deferred: usize,
}

impl SimPipeline {
    /// A pipeline for the machine described by `config`.
    pub fn new(config: RuntimeConfig) -> Self {
        let launch = if config.auto_layer { config.cost.launch_auto } else { config.cost.launch };
        Self {
            cfg: config,
            launch,
            window: u64::from(config.window.max(1)),
            app_t: Micros::ZERO,
            app_done: History::default(),
            app_next: 0,
            analysis_t: Micros::ZERO,
            analysis_busy: Micros::ZERO,
            analysis_done: History::default(),
            pending: VecDeque::new(),
            analyzed_ops: 0,
            exec_t: Micros::ZERO,
            exec_busy: Micros::ZERO,
            exec_stall: Micros::ZERO,
            exec_queue: VecDeque::new(),
            done: History::default(),
            marks: VecDeque::new(),
            iteration_finish: Vec::new(),
            fed: 0,
            peak_retained: 0,
            peak_deferred: 0,
        }
    }

    /// Consumes one operation. Analyses, executions, and iteration marks
    /// that became unambiguous are committed immediately; the rest defer
    /// until their gates resolve or [`Self::finalize`].
    pub fn feed(&mut self, op: &LogOp) {
        self.fed += 1;
        self.pending.push_back(SimOp::of(op));
        self.advance(false);
        self.trim();
    }

    /// Ends the stream: resolves every deferred gate against the now-known
    /// final task counts (exactly the batch simulator's clamping) and
    /// returns the report.
    ///
    /// # Panics
    ///
    /// Panics if an iteration mark demands a task when the stream executed
    /// none at all (the batch pass indexed an empty completion table in
    /// that degenerate case too).
    pub fn finalize(mut self) -> SimReport {
        self.advance(true);
        while let Some(k) = self.marks.pop_front() {
            let finish = match k {
                0 => Micros::ZERO,
                k => {
                    let idx = (k - 1).min(self.done.len().saturating_sub(1));
                    debug_assert!(
                        idx >= self.done.oldest(),
                        "iteration mark looks back more than the retained completion window"
                    );
                    self.done.get(idx).expect("iteration mark requires at least one executed task")
                }
            };
            self.iteration_finish.push(finish);
        }
        SimReport {
            iteration_finish: self.iteration_finish,
            total: self.exec_t.max(self.analysis_t),
            analysis_busy: self.analysis_busy,
            exec_busy: self.exec_busy,
            exec_stall: self.exec_stall,
        }
    }

    /// Operations fed so far.
    pub fn fed(&self) -> u64 {
        self.fed
    }

    /// Operations and history entries currently resident — the streaming
    /// footprint (deferred ops, bounded clock histories, queued marks).
    pub fn retained(&self) -> usize {
        self.pending.len()
            + self.exec_queue.len()
            + self.marks.len()
            + self.app_done.retained()
            + self.analysis_done.retained()
            + self.done.retained()
    }

    /// Most resident entries ever held at once.
    pub fn peak_retained(&self) -> usize {
        self.peak_retained
    }

    /// Operations currently parked behind an unresolved gate: ops whose
    /// analysis waits on launches that have not arrived, plus analyzed
    /// tasks whose execution gate has not resolved. The pipeline's side
    /// of the end-to-end buffering operators watch (the replayer's
    /// pending queue is the other).
    pub fn deferred(&self) -> usize {
        self.pending.len() + self.exec_queue.len()
    }

    /// Most gate-deferred operations ever parked at once.
    pub fn peak_deferred(&self) -> usize {
        self.peak_deferred
    }

    /// Residency counters, shaped like [`OpLog::stats`].
    pub fn log_stats(&self) -> LogStats {
        LogStats { pushed: self.fed, retained: self.retained(), peak_retained: self.peak_retained }
    }

    /// Drives analysis as far as the gates allow, then execution, then
    /// mark resolution. `finalizing` treats the fed prefix as the whole
    /// stream (gates clamp instead of deferring).
    fn advance(&mut self, finalizing: bool) {
        self.drain_analysis(finalizing);
        self.drain_exec(finalizing);
        self.drain_marks();
    }

    /// The application/analysis recurrence: for each pending op in order,
    /// extend the app timeline through the op (and through its forward
    /// gate, which may launch tasks *ahead* of the analysis cursor), then
    /// charge its analysis. Mirrors the batch pass exactly: extension
    /// stops at the end of the fed stream, so a gate that reaches beyond
    /// it defers the op (batch never defers only because the whole stream
    /// is already "fed").
    fn drain_analysis(&mut self, finalizing: bool) {
        while let Some(head) = self.pending.front().copied() {
            let head_index = self.analyzed_ops;
            let need = match head {
                SimOp::Task { forward_gate, .. } => forward_gate.unwrap_or(0),
                SimOp::Mark(_) => 0,
            };
            // Extend the app timeline: through this op, and through enough
            // future launches to satisfy its gate. The window floor pins
            // the application at most `window` tasks ahead of analysis
            // (`-lg:window`); a not-yet-analyzed floor entry falls back to
            // the latest analysis time (the batch pass's conservative
            // bound for gates that outrun the window).
            while self.app_next <= head_index
                || (self.app_done.len() < need && self.app_next < self.fed)
            {
                let op = &self.pending[(self.app_next - self.analyzed_ops) as usize];
                if matches!(op, SimOp::Task { .. }) {
                    let k = self.app_done.len();
                    let floor = if k >= self.window {
                        self.analysis_done.get(k - self.window).unwrap_or(self.analysis_t)
                    } else {
                        Micros::ZERO
                    };
                    self.app_t = (self.app_t + self.launch).max(floor);
                    self.app_done.push(self.app_t);
                }
                self.app_next += 1;
            }
            if self.app_done.len() < need && !finalizing {
                // The gate references launches the stream has not produced
                // yet; wait for more ops (or for finalize, which clamps).
                break;
            }
            if let SimOp::Task {
                analysis,
                gpu_time,
                replay_head,
                forward_gate,
                exec_gate,
                trace_len,
            } = head
            {
                let ready = match forward_gate {
                    Some(gate) => {
                        let idx = gate.min(self.app_done.len()).saturating_sub(1);
                        self.app_done.get(idx).unwrap_or(Micros::ZERO)
                    }
                    // An ungated task is ready at its own launch.
                    None => self
                        .app_done
                        .get(self.analysis_done.len())
                        .expect("task launched before analysis"),
                };
                let mut cost = self.cfg.cost.analysis_cost(analysis, self.cfg.nodes, trace_len);
                if replay_head {
                    cost += self.cfg.cost.replay_const;
                }
                self.analysis_t = self.analysis_t.max(ready) + cost;
                self.analysis_busy += cost;
                self.analysis_done.push(self.analysis_t);
                self.exec_queue.push_back(ExecTask { gpu_time, exec_gate });
            } else if let SimOp::Mark(after) = head {
                self.marks.push_back(after);
            }
            self.pending.pop_front();
            self.analyzed_ops += 1;
        }
    }

    /// The execution recurrence: tasks execute in order; a task whose exec
    /// gate names an analysis that has not completed defers (the gate
    /// clamps to the final analysis count at finalize, as in the batch
    /// pass, which ran execution only after all analyses).
    fn drain_exec(&mut self, finalizing: bool) {
        while let Some(t) = self.exec_queue.front().copied() {
            let own = self.done.len();
            let analyzed = match t.exec_gate {
                Some(gate) => {
                    if gate > self.analysis_done.len() && !finalizing {
                        break;
                    }
                    let idx = gate.min(self.analysis_done.len()).saturating_sub(1);
                    self.analysis_done.get(idx).expect("gated analysis retained")
                }
                None => self.analysis_done.get(own).expect("analyzed before executed"),
            };
            let start = self.exec_t.max(analyzed);
            self.exec_stall += start - self.exec_t;
            self.exec_t = start + t.gpu_time;
            self.exec_busy += t.gpu_time;
            self.done.push(self.exec_t);
            self.exec_queue.pop_front();
        }
    }

    /// Resolves iteration marks whose task has executed. A mark after the
    /// k-th issued task finishes when that task's execution completes;
    /// marks resolve in log order (a tracing layer's buffering can delay a
    /// mark's *tasks*, never reorder the marks themselves). Completion
    /// history is kept `window` deep, which exceeds any lookback a
    /// front-end-produced mark can carry (they bind to at least the
    /// issued-task count); a hand-built mark reaching further clamps to
    /// the oldest retained completion — asserted in debug builds.
    fn drain_marks(&mut self) {
        while let Some(&k) = self.marks.front() {
            if k == 0 {
                self.iteration_finish.push(Micros::ZERO);
            } else if k <= self.done.len() {
                debug_assert!(
                    k > self.done.oldest(),
                    "iteration mark looks back more than the retained completion window \
                     (bound to task {k} with history starting at {})",
                    self.done.oldest()
                );
                let finish = self.done.get(k - 1).expect("mark task completion retained");
                self.iteration_finish.push(finish);
            } else {
                break;
            }
            self.marks.pop_front();
        }
    }

    /// Drops history entries no future lookback can reference and samples
    /// the residency peak. Cutoffs follow the recurrences: launch floors
    /// reach `window` tasks behind the app cursor, analysis gates reach no
    /// further back than the analysis cursor, exec gates no further back
    /// than the exec cursor. Completion times are kept `window` deep for
    /// iteration marks: front-ends bind marks to at least the issued-task
    /// count (never behind the exec cursor), so that already exceeds what
    /// real logs need — a hand-built mark may look back up to `window`
    /// completions before the clamp documented on [`History::get`] kicks
    /// in.
    fn trim(&mut self) {
        let analyzed_tasks = self.analysis_done.len();
        let executed = self.done.len();
        self.app_done.trim(analyzed_tasks.saturating_sub(1));
        self.analysis_done
            .trim(self.app_done.len().saturating_sub(self.window).min(executed.saturating_sub(1)));
        self.done.trim(executed.saturating_sub(self.window));
        self.peak_retained = self.peak_retained.max(self.retained());
        self.peak_deferred = self.peak_deferred.max(self.deferred());
    }

    /// The relations between cursors, queues and histories that `feed`
    /// indexes by: `analyzed_ops ≤ app_next ≤ fed` with `pending` holding
    /// exactly the ops in between analysis and the stream end, one launch
    /// per task up to `app_next`, one analysis per task up to
    /// `analyzed_ops`, and every analyzed task either executed or queued.
    /// A restored image that breaks one would index out of `pending` or
    /// read a clock entry that was never pushed.
    fn check_cursors(&self) -> Result<(), &'static str> {
        if self.analyzed_ops.checked_add(self.pending.len() as u64) != Some(self.fed) {
            return Err("pipeline cursors disagree with the fed-op count");
        }
        if !(self.analyzed_ops..=self.fed).contains(&self.app_next) {
            return Err("application cursor outside the analyzed..fed range");
        }
        let ahead = (self.app_next - self.analyzed_ops) as usize;
        let launched_ahead =
            self.pending.iter().take(ahead).filter(|op| matches!(op, SimOp::Task { .. })).count();
        if self.analysis_done.len().checked_add(launched_ahead as u64) != Some(self.app_done.len())
        {
            return Err("launch and analysis histories disagree with the application cursor");
        }
        if self.done.len().checked_add(self.exec_queue.len() as u64)
            != Some(self.analysis_done.len())
        {
            return Err("executed and queued tasks disagree with the analysis history");
        }
        Ok(())
    }
}

impl Snapshot for History {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.base);
        w.put_deque(&self.buf, |w, t| w.put_f64(t.0));
    }
}

impl Restore for History {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let h = Self { base: r.get_u64()?, buf: r.get_deque(|r| Ok(Micros(r.get_f64()?)))? };
        // `trim` always keeps the newest entry, which is what lets `get`
        // answer every index below `len`.
        if (h.base > 0 && h.buf.is_empty()) || h.base.checked_add(h.buf.len() as u64).is_none() {
            return Err(SnapshotError::Corrupt("clock history without its newest entry".into()));
        }
        Ok(h)
    }
}

impl Snapshot for SimOp {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        match *self {
            SimOp::Task { analysis, gpu_time, replay_head, forward_gate, exec_gate, trace_len } => {
                w.put_u8(0);
                analysis.snapshot(w);
                w.put_f64(gpu_time.0);
                w.put_bool(replay_head);
                w.put_opt_u64(forward_gate);
                w.put_opt_u64(exec_gate);
                w.put_u32(trace_len);
            }
            SimOp::Mark(after) => {
                w.put_u8(1);
                w.put_u64(after);
            }
        }
    }
}

impl Restore for SimOp {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        match r.get_u8()? {
            0 => Ok(SimOp::Task {
                analysis: AnalysisKind::restore(r)?,
                gpu_time: Micros(r.get_f64()?),
                replay_head: r.get_bool()?,
                forward_gate: r.get_opt_u64()?,
                exec_gate: r.get_opt_u64()?,
                trace_len: r.get_u32()?,
            }),
            1 => Ok(SimOp::Mark(r.get_u64()?)),
            t => Err(SnapshotError::Corrupt(format!("invalid sim-op tag {t}"))),
        }
    }
}

impl Snapshot for SimPipeline {
    fn snapshot(&self, w: &mut SnapshotWriter) {
        self.cfg.snapshot(w);
        w.put_f64(self.app_t.0);
        self.app_done.snapshot(w);
        w.put_u64(self.app_next);
        w.put_f64(self.analysis_t.0);
        w.put_f64(self.analysis_busy.0);
        self.analysis_done.snapshot(w);
        w.put_deque(&self.pending, |w, op| op.snapshot(w));
        w.put_u64(self.analyzed_ops);
        w.put_f64(self.exec_t.0);
        w.put_f64(self.exec_busy.0);
        w.put_f64(self.exec_stall.0);
        w.put_deque(&self.exec_queue, |w, t| {
            w.put_f64(t.gpu_time.0);
            w.put_opt_u64(t.exec_gate);
        });
        self.done.snapshot(w);
        w.put_deque(&self.marks, |w, m| w.put_u64(*m));
        w.put_seq(&self.iteration_finish, |w, t| w.put_f64(t.0));
        w.put_u64(self.fed);
        w.put_len(self.peak_retained);
        w.put_len(self.peak_deferred);
    }
}

impl Restore for SimPipeline {
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let cfg = RuntimeConfig::restore(r)?;
        // Derived fields come from the config, exactly as in `new`.
        let mut p = SimPipeline::new(cfg);
        p.app_t = Micros(r.get_f64()?);
        p.app_done = History::restore(r)?;
        p.app_next = r.get_u64()?;
        p.analysis_t = Micros(r.get_f64()?);
        p.analysis_busy = Micros(r.get_f64()?);
        p.analysis_done = History::restore(r)?;
        p.pending = r.get_deque(SimOp::restore)?;
        p.analyzed_ops = r.get_u64()?;
        p.exec_t = Micros(r.get_f64()?);
        p.exec_busy = Micros(r.get_f64()?);
        p.exec_stall = Micros(r.get_f64()?);
        p.exec_queue = r.get_deque(|r| {
            Ok(ExecTask { gpu_time: Micros(r.get_f64()?), exec_gate: r.get_opt_u64()? })
        })?;
        p.done = History::restore(r)?;
        p.marks = r.get_deque(|r| r.get_u64())?;
        p.iteration_finish = r.get_seq(|r| Ok(Micros(r.get_f64()?)))?;
        p.fed = r.get_u64()?;
        p.peak_retained = r.get_len()?;
        p.peak_deferred = r.get_len()?;
        p.check_cursors().map_err(|what| SnapshotError::Corrupt(what.into()))?;
        Ok(p)
    }
}

/// Runs the three-stage pipeline simulation over a stored log: feeds every
/// op through a fresh [`SimPipeline`] and finalizes. Streaming
/// ([`LogRetention::Drain`]) runs produce their report from the runtime's
/// attached pipeline instead — same state machine, same report.
pub fn simulate(log: &OpLog) -> SimReport {
    let mut pipeline = SimPipeline::new(*log.config());
    for op in log.ops() {
        pipeline.feed(op);
    }
    pipeline.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn task(analysis: AnalysisKind, gpu_us: f64) -> LogOp {
        LogOp::Task(TaskRecord {
            hash: TaskHash(0),
            analysis,
            gpu_time: Micros(gpu_us),
            preds: vec![],
            replay_head: false,
            forward_gate: None,
            exec_gate: None,
            trace_len: 0,
        })
    }

    fn log_with(ops: Vec<LogOp>, auto: bool) -> OpLog {
        let mut cfg = RuntimeConfig::single_node(1);
        cfg.auto_layer = auto;
        let mut log = OpLog::new(cfg);
        for op in ops {
            log.push(op);
        }
        log
    }

    /// The pre-streaming batch simulator, kept verbatim as the reference
    /// the pipeline must match bit-for-bit (see the proptest below).
    fn simulate_batch_reference(log: &OpLog) -> SimReport {
        let cfg = log.config();
        let launch = if cfg.auto_layer { cfg.cost.launch_auto } else { cfg.cost.launch };
        let nodes = cfg.nodes;

        let n = log.ops().len();
        let task_count = log.task_count();
        let window = cfg.window.max(1) as usize;

        let mut app = vec![Micros::ZERO; n];
        let mut app_task_done: Vec<Micros> = Vec::with_capacity(task_count);
        let mut analysis_done = vec![Micros::ZERO; n];
        let mut task_analysis_done: Vec<Micros> = Vec::with_capacity(task_count);
        let mut analysis_t = Micros::ZERO;
        let mut analysis_busy = Micros::ZERO;
        let mut app_t = Micros::ZERO;
        let mut app_next = 0usize;

        for (i, op) in log.ops().iter().enumerate() {
            let need_tasks = match op {
                LogOp::Task(rec) => rec.forward_gate.unwrap_or(0),
                LogOp::IterationMark(_) => 0,
            } as usize;
            while app_next <= i || (app_task_done.len() < need_tasks && app_next < n) {
                if matches!(log.ops()[app_next], LogOp::Task(_)) {
                    let k = app_task_done.len();
                    let floor = if k >= window {
                        task_analysis_done.get(k - window).copied().unwrap_or(analysis_t)
                    } else {
                        Micros::ZERO
                    };
                    app_t = (app_t + launch).max(floor);
                    app_task_done.push(app_t);
                }
                app[app_next] = app_t;
                app_next += 1;
            }
            if let LogOp::Task(rec) = op {
                let ready = match rec.forward_gate {
                    Some(gate) => {
                        let idx = (gate as usize).min(app_task_done.len()).saturating_sub(1);
                        app_task_done.get(idx).copied().unwrap_or(Micros::ZERO)
                    }
                    None => app[i],
                };
                let mut cost = cfg.cost.analysis_cost(rec.analysis, nodes, rec.trace_len);
                if rec.replay_head {
                    cost += cfg.cost.replay_const;
                }
                analysis_t = analysis_t.max(ready) + cost;
                analysis_busy += cost;
                task_analysis_done.push(analysis_t);
            }
            analysis_done[i] = analysis_t;
        }

        let mut exec_t = Micros::ZERO;
        let mut exec_busy = Micros::ZERO;
        let mut exec_stall = Micros::ZERO;
        let mut task_done = Vec::with_capacity(task_count);
        for (i, op) in log.ops().iter().enumerate() {
            if let LogOp::Task(rec) = op {
                let analyzed = match rec.exec_gate {
                    Some(gate) => {
                        let idx = (gate as usize).min(task_analysis_done.len()).saturating_sub(1);
                        task_analysis_done.get(idx).copied().unwrap_or(analysis_done[i])
                    }
                    None => analysis_done[i],
                };
                let start = exec_t.max(analyzed);
                exec_stall += start - exec_t;
                exec_t = start + rec.gpu_time;
                exec_busy += rec.gpu_time;
                task_done.push(exec_t);
            }
        }
        let mut iteration_finish = Vec::new();
        for op in log.ops() {
            if let LogOp::IterationMark(after_tasks) = op {
                let finish = match *after_tasks {
                    0 => Micros::ZERO,
                    k => task_done[(k as usize - 1).min(task_done.len().saturating_sub(1))],
                };
                iteration_finish.push(finish);
            }
        }

        SimReport {
            iteration_finish,
            total: exec_t.max(analysis_t),
            analysis_busy,
            exec_busy,
            exec_stall,
        }
    }

    #[test]
    fn empty_log() {
        let r = simulate(&log_with(vec![], false));
        assert_eq!(r.total, Micros::ZERO);
        assert!(r.iteration_finish.is_empty());
        assert_eq!(r.steady_throughput(0), 0.0);
    }

    #[test]
    fn analysis_bound_when_tasks_tiny() {
        // 100 tasks of 10µs GPU time, analysis 1ms each → analysis-bound.
        let ops: Vec<LogOp> = (0..100).map(|_| task(AnalysisKind::Fresh, 10.0)).collect();
        let r = simulate(&log_with(ops, false));
        let alpha = CostModel::paper_calibrated().alpha_analysis;
        assert!(r.total.0 >= 100.0 * alpha.0, "total {} under analysis floor", r.total);
        assert!(r.stall_fraction() > 0.9, "stall {}", r.stall_fraction());
    }

    #[test]
    fn execution_bound_when_tasks_large() {
        // 100 tasks of 10ms GPU time → execution-bound; analysis hides.
        let ops: Vec<LogOp> = (0..100).map(|_| task(AnalysisKind::Fresh, 10_000.0)).collect();
        let r = simulate(&log_with(ops, false));
        assert!(r.stall_fraction() < 0.02, "stall {}", r.stall_fraction());
        // Total ≈ exec_busy + one analysis pipeline fill.
        assert!(r.total.0 < r.exec_busy.0 * 1.01 + 2000.0);
    }

    #[test]
    fn replay_cheaper_than_fresh() {
        let fresh: Vec<LogOp> = (0..200).map(|_| task(AnalysisKind::Fresh, 50.0)).collect();
        let replayed: Vec<LogOp> = (0..200).map(|_| task(AnalysisKind::Replayed, 50.0)).collect();
        let tf = simulate(&log_with(fresh, false)).total;
        let tr = simulate(&log_with(replayed, false)).total;
        assert!(tr.0 * 3.0 < tf.0, "replay {tr} not much faster than fresh {tf}");
    }

    #[test]
    fn replay_head_charges_constant() {
        let mut head = TaskRecord {
            hash: TaskHash(0),
            analysis: AnalysisKind::Replayed,
            gpu_time: Micros::ZERO,
            preds: vec![],
            replay_head: true,
            forward_gate: None,
            exec_gate: None,
            trace_len: 0,
        };
        let with_head = log_with(vec![LogOp::Task(head.clone())], false);
        head.replay_head = false;
        let without = log_with(vec![LogOp::Task(head)], false);
        let c = CostModel::paper_calibrated().replay_const;
        let delta = simulate(&with_head).total - simulate(&without).total;
        assert!((delta.0 - c.0).abs() < 1e-9, "delta {delta} vs c {c}");
    }

    #[test]
    fn forward_gate_delays_analysis() {
        // Two tasks; the first is gated on the second's launch.
        let gated = LogOp::Task(TaskRecord {
            hash: TaskHash(0),
            analysis: AnalysisKind::Replayed,
            gpu_time: Micros(1.0),
            preds: vec![],
            replay_head: true,
            forward_gate: Some(2),
            exec_gate: None,
            trace_len: 0,
        });
        let tail = task(AnalysisKind::Replayed, 1.0);
        let auto_launch = CostModel::paper_calibrated().launch_auto;
        let log = log_with(vec![gated, tail], true);
        let r = simulate(&log);
        // Analysis of op 0 could not start before 2 launches completed.
        let floor = auto_launch * 2.0;
        assert!(r.total.0 > floor.0, "total {} vs floor {}", r.total, floor);
    }

    #[test]
    fn iteration_throughput_steady_state() {
        // 10 iterations of 10 tasks at 1ms GPU-time each, execution-bound:
        // ~100 iterations/sec.
        let mut ops = Vec::new();
        for i in 0..10u64 {
            for _ in 0..10 {
                ops.push(task(AnalysisKind::Replayed, 1000.0));
            }
            ops.push(LogOp::IterationMark((i + 1) * 10));
        }
        let r = simulate(&log_with(ops, false));
        let tp = r.steady_throughput(2);
        assert!((tp - 100.0).abs() / 100.0 < 0.15, "throughput {tp}");
        assert_eq!(r.iteration_finish.len(), 10);
        assert_eq!(r.iteration_times().len(), 10);
    }

    #[test]
    fn analysis_scales_with_node_count() {
        let mk = |nodes: u32| {
            let mut cfg = RuntimeConfig::multi_node(nodes, 4);
            cfg.auto_layer = false;
            let mut log = OpLog::new(cfg);
            for _ in 0..100 {
                log.push(task(AnalysisKind::Fresh, 10.0));
            }
            log.push(LogOp::IterationMark(100));
            log
        };
        let t1 = simulate(&mk(1)).total;
        let t16 = simulate(&mk(16)).total;
        assert!(t16.0 > t1.0 * 2.0, "16-node analysis {t16} vs 1-node {t1}");
    }

    /// Builds the §5.2-gated replay stream the window tests share.
    fn gated_replay_log(window: u32, reps: u64, trace_len: u32) -> OpLog {
        let mut cfg = RuntimeConfig::single_node(1);
        cfg.auto_layer = true;
        cfg.window = window;
        let mut log = OpLog::new(cfg);
        for rep in 0..reps {
            for k in 0..u64::from(trace_len) {
                let head = k == 0;
                let base = rep * u64::from(trace_len);
                log.push(LogOp::Task(TaskRecord {
                    hash: TaskHash(k),
                    analysis: AnalysisKind::Replayed,
                    gpu_time: Micros(20.0),
                    preds: vec![],
                    replay_head: head,
                    forward_gate: head.then(|| base + u64::from(trace_len)),
                    exec_gate: Some(base + u64::from(trace_len)),
                    trace_len,
                }));
            }
            log.push(LogOp::IterationMark((rep + 1) * u64::from(trace_len)));
        }
        log
    }

    #[test]
    fn small_window_throttles_application_runahead() {
        // With a tiny -lg:window, the app timeline is pinned near the
        // analysis timeline; a §5.2 trace gate (wait for the whole trace
        // to launch) then adds real stalls that a large window hides.
        let big = simulate(&gated_replay_log(30_000, 50, 64)).total;
        let tiny = simulate(&gated_replay_log(8, 50, 64)).total;
        assert!(
            tiny.0 > big.0 * 1.02,
            "window 8 exposes the no-speculation gate: tiny {tiny} vs big {big}"
        );
        assert!(tiny.0 < big.0 * 2.0, "throttling is bounded");
    }

    #[test]
    fn default_window_is_transparent() {
        // The artifact's window (30000) must not change steady-state
        // timings relative to an effectively unbounded window.
        let mk = |window: u32| {
            let mut cfg = RuntimeConfig::single_node(1);
            cfg.window = window;
            let mut log = OpLog::new(cfg);
            for _ in 0..500 {
                log.push(task(AnalysisKind::Fresh, 200.0));
            }
            log
        };
        let a = simulate(&mk(30_000)).total;
        let b = simulate(&mk(u32::MAX)).total;
        assert!((a.0 - b.0).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn throughput_requires_enough_iterations() {
        let r = simulate(&log_with(vec![LogOp::IterationMark(0)], false));
        assert_eq!(r.steady_throughput(1), 0.0, "warmup exceeds data");
    }

    #[test]
    fn pipeline_matches_batch_reference_on_gated_streams() {
        for window in [4u32, 8, 64, 30_000] {
            let log = gated_replay_log(window, 40, 16);
            assert_eq!(
                simulate(&log),
                simulate_batch_reference(&log),
                "window {window}: streaming diverged from the frozen batch pass"
            );
        }
    }

    #[test]
    fn pipeline_retention_stays_bounded() {
        // A long gated stream: the pipeline's resident footprint must be
        // O(window + trace length), far below the stream length.
        let window = 32u32;
        let trace_len = 16u32;
        let log = gated_replay_log(window, 2_000, trace_len);
        let mut p = SimPipeline::new(*log.config());
        for op in log.ops() {
            p.feed(op);
        }
        let peak = p.peak_retained();
        let bound = 4 * (window as usize + trace_len as usize) + 16;
        assert!(peak <= bound, "peak retained {peak} exceeds O(window+trace) bound {bound}");
        assert!(log.ops().len() > 10 * bound, "stream long enough to prove the point");
        let streaming = p.finalize();
        assert_eq!(streaming, simulate_batch_reference(&log));
    }

    /// Images whose cursors and clock histories disagree. The digest is not
    /// a MAC, so each could arrive behind a valid one; each keeps
    /// `analyzed_ops + pending == fed`, and the next `feed` would index
    /// past `pending` or read a clock entry that was never pushed.
    #[test]
    fn hostile_pipeline_images_rejected() {
        let log = gated_replay_log(8, 6, 4);
        let mut p = SimPipeline::new(*log.config());
        // Stop inside a trace: its gated head waits in `pending` behind
        // launches the application stage has already made.
        for op in &log.ops()[..log.ops().len() - 3] {
            p.feed(op);
        }
        assert_eq!((p.pending.len(), p.app_next - p.analyzed_ops), (2, 2));
        assert!(p.app_done.oldest() > 0 && p.done.len() > 0);
        let restore = |p: &SimPipeline| {
            let mut w = SnapshotWriter::new();
            p.snapshot(&mut w);
            let payload = w.into_payload();
            SimPipeline::restore(&mut SnapshotReader::new(&payload)).map(|_| ())
        };
        assert_eq!(restore(&p), Ok(()), "the untouched image restores");
        type Edit = fn(&mut SimPipeline);
        let cases: [(&str, Edit); 7] = [
            ("application cursor behind analysis", |p| p.app_next = p.analyzed_ops - 1),
            ("application cursor past the stream", |p| p.app_next = p.fed + 1),
            ("application cursor one op short", |p| p.app_next -= 1),
            ("a launch missing", |p| p.app_done.base -= 1),
            ("an analysis too many", |p| p.analysis_done.push(p.analysis_t)),
            ("an executed task queued again", |p| {
                p.exec_queue.push_back(ExecTask { gpu_time: Micros(1.0), exec_gate: None })
            }),
            ("a history emptied but for its count", |p| {
                p.done.base = p.done.len();
                p.done.buf.clear();
            }),
        ];
        for (what, edit) in cases {
            let mut hostile = p.clone();
            edit(&mut hostile);
            assert!(
                matches!(restore(&hostile), Err(SnapshotError::Corrupt(_))),
                "{what}: accepted"
            );
        }
    }

    #[test]
    fn late_mark_resolves_by_task_count() {
        // A tracing layer can log a mark *before* the buffered tasks it
        // covers; the mark still binds to the k-th executed task.
        let mut ops = vec![task(AnalysisKind::Fresh, 100.0)];
        ops.push(LogOp::IterationMark(3)); // tasks 2 and 3 arrive later
        ops.push(task(AnalysisKind::Fresh, 100.0));
        ops.push(task(AnalysisKind::Fresh, 100.0));
        ops.push(task(AnalysisKind::Fresh, 100.0));
        let log = log_with(ops, false);
        let r = simulate(&log);
        let reference = simulate_batch_reference(&log);
        assert_eq!(r, reference);
        // The mark's finish equals the third task's completion, which is
        // strictly after the first task's and strictly before the log end.
        assert_eq!(r.iteration_finish.len(), 1);
        assert!(r.iteration_finish[0] < r.total);
    }

    #[test]
    fn mark_referencing_older_task_resolves_exactly() {
        // Regression (review finding): a mark bound to a task that is
        // *not* the latest completion — constructible via public
        // `OpLog::push` / `Runtime::mark_iteration_after` — must resolve
        // to that task's completion, exactly as the batch pass does, not
        // to the newest retained one.
        let ops = vec![
            task(AnalysisKind::Fresh, 100.0),
            task(AnalysisKind::Fresh, 100.0),
            LogOp::IterationMark(1),
        ];
        let log = log_with(ops, false);
        let r = simulate(&log);
        let reference = simulate_batch_reference(&log);
        assert_eq!(r, reference);
        assert!(
            r.iteration_finish[0] < r.total,
            "mark bound to the FIRST task's completion, not the last: {r:?}"
        );
    }

    #[test]
    fn mark_past_end_clamps_to_last_task() {
        let ops = vec![
            task(AnalysisKind::Fresh, 50.0),
            task(AnalysisKind::Fresh, 50.0),
            LogOp::IterationMark(9),
        ];
        let log = log_with(ops, false);
        let r = simulate(&log);
        assert_eq!(r, simulate_batch_reference(&log));
        // Exec finishes after analysis here, so the clamped mark (to the
        // last task's completion) coincides with the stream total.
        assert_eq!(r.iteration_finish, vec![r.total]);
    }

    #[test]
    fn digest_distinguishes_streams_and_matches_under_drain() {
        let a = log_with(vec![task(AnalysisKind::Fresh, 10.0)], false);
        let b = log_with(vec![task(AnalysisKind::Fresh, 11.0)], false);
        assert_ne!(a.digest(), b.digest(), "gpu-time difference digested");
        let mut full_cfg = RuntimeConfig::single_node(1);
        full_cfg.retention = LogRetention::Full;
        let mut drain_cfg = full_cfg;
        drain_cfg.retention = LogRetention::Drain;
        let (mut full, mut drain) = (OpLog::new(full_cfg), OpLog::new(drain_cfg));
        for _ in 0..5 {
            full.push(task(AnalysisKind::Fresh, 10.0));
            drain.push(task(AnalysisKind::Fresh, 10.0));
        }
        assert_eq!(full.digest(), drain.digest(), "digest independent of retention");
        assert_eq!(drain.ops().len(), 0, "drain stores nothing");
        assert_eq!(drain.stats().pushed, 5);
        assert_eq!(drain.stats().peak_retained, 0);
        assert_eq!(full.stats().peak_retained, 5);
        assert_eq!(full.next_op(), drain.next_op(), "op ids advance identically");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// A runtime-shaped random op stream: interleaved untraced tasks,
        /// gated replayed traces, and (possibly early-logged) marks —
        /// every gate/mark respects the invariants real logs carry.
        fn build_stream(spec: &[(u8, u8)], auto: bool, window: u32) -> OpLog {
            let mut cfg = RuntimeConfig::single_node(1);
            cfg.auto_layer = auto;
            cfg.window = window;
            let mut log = OpLog::new(cfg);
            let mut tasks = 0u64;
            for &(kind, len) in spec {
                match kind % 3 {
                    0 => {
                        // A fresh task.
                        tasks += 1;
                        log.push(LogOp::Task(TaskRecord {
                            hash: TaskHash(u64::from(len)),
                            analysis: AnalysisKind::Fresh,
                            gpu_time: Micros(f64::from(len) * 7.0 + 1.0),
                            preds: vec![],
                            replay_head: false,
                            forward_gate: None,
                            exec_gate: None,
                            trace_len: 0,
                        }));
                    }
                    1 => {
                        // A replayed trace of `len.max(1)` tasks with the
                        // §5.2 forward gate and the template exec gate.
                        let tlen = u64::from(len % 7) + 1;
                        let tail = tasks + tlen;
                        for k in 0..tlen {
                            tasks += 1;
                            log.push(LogOp::Task(TaskRecord {
                                hash: TaskHash(k),
                                analysis: AnalysisKind::Replayed,
                                gpu_time: Micros(f64::from(len) + 3.0),
                                preds: vec![],
                                replay_head: k == 0,
                                forward_gate: (auto && k == 0).then_some(tail),
                                exec_gate: Some(tail),
                                trace_len: tlen as u32,
                            }));
                        }
                    }
                    _ => {
                        // A mark; occasionally "late" (bound one task
                        // behind the log — within the window-deep
                        // completion history), otherwise possibly "early"
                        // (bound to tasks that follow it in the log, like
                        // a buffering front-end logs them).
                        if len % 5 == 4 {
                            log.push(LogOp::IterationMark(tasks.saturating_sub(1)));
                            continue;
                        }
                        let ahead = u64::from(len % 4);
                        log.push(LogOp::IterationMark(tasks + ahead));
                        for k in 0..ahead {
                            tasks += 1;
                            log.push(LogOp::Task(TaskRecord {
                                hash: TaskHash(900 + k),
                                analysis: AnalysisKind::Fresh,
                                gpu_time: Micros(5.0),
                                preds: vec![],
                                replay_head: false,
                                forward_gate: None,
                                exec_gate: None,
                                trace_len: 0,
                            }));
                        }
                    }
                }
            }
            log
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The incremental pipeline is bit-identical to the frozen
            /// batch reference on arbitrary runtime-shaped streams, for
            /// both cost layers and across window sizes.
            #[test]
            fn pipeline_equals_batch_reference(
                spec in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..60),
                auto in any::<bool>(),
                window_sel in 0u8..4,
            ) {
                let window = [2u32, 8, 64, 30_000][window_sel as usize];
                let log = build_stream(&spec, auto, window);
                let streamed = simulate(&log);
                let reference = simulate_batch_reference(&log);
                prop_assert_eq!(streamed, reference);
            }
        }
    }
}
