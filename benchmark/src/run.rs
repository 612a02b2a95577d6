//! One repetition of a workload, end to end through its front-end.
//!
//! The clock starts at the first issue call and stops when `finish()`
//! returns; front-end construction is timed separately (it belongs to
//! `setup_s`). The same functions serve the timed, counted and traced
//! passes — only the optional [`Trace`] differs, and with it absent no
//! span is recorded and no snapshot is sized.

use crate::clock::now_ns;
use crate::program::{issuer_region_op, Cursor, PlayError, Program, Step, Target};
use crate::spans::{Spans, BLOCK_TASKS};
use crate::workloads::{fleet_config, Inputs, Tenant, Workload};
use apophenia::{MiningMode, Session};
use apophenia_serve::{ServeError, StreamId, TraceService};
use tasksim::exec::{LogStats, SimReport};
use tasksim::issuer::{RunArtifacts, TaskIssuer};
use tasksim::stats::{BufferStats, RuntimeStats};
use tasksim::task::TaskDesc;

/// Where a traced run records its spans.
pub struct Trace<'a> {
    pub spans: &'a mut Spans,
    /// The enclosing span (a pass or a ladder stack).
    pub parent: u32,
    /// Name of the per-1 024-task block spans, e.g. `session.block`.
    pub block: &'static str,
}

/// What one front-end reported at the end of its stream.
#[derive(Debug, Clone)]
pub struct TenantEnd {
    pub digest: u64,
    pub stats: RuntimeStats,
    pub report: SimReport,
    pub log: LogStats,
    pub buffered: BufferStats,
    pub peak_trie_bytes: usize,
    pub warmup_iterations: Option<u64>,
}

/// One repetition's measurements.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Front-end construction (`Session::builder()…build()`, or
    /// `TraceService::new` + `register`).
    pub construct_ns: u64,
    /// First issue call → `finish()` returned.
    pub wall_ns: u64,
    /// Per-iteration issue-call wall time (per turn in `serve_fleet`).
    pub iter_ns: Vec<u64>,
    pub tenants: Vec<TenantEnd>,
    /// `serve_fleet`: time inside `submit`/`mark_iteration`, inside
    /// `quiesce`, and `Busy` pushbacks (each retried).
    pub submit_ns: u64,
    pub quiesce_ns: u64,
    pub busy_rejections: u64,
    /// Each checkpoint → drop → resume cycle: `(write ns, restore ns)`.
    pub cycles: Vec<(u64, u64)>,
    pub snapshot_bytes: u64,
    /// Traced `serve_fleet` only: one `render_metrics` call.
    pub render_ns: u64,
    pub fleet_peak_trie_bytes: usize,
    pub fleet_peak_template_bytes: u64,
}

impl Rep {
    pub fn digests(&self) -> Vec<u64> {
        self.tenants.iter().map(|t| t.digest).collect()
    }
}

/// Emits a block span each time another [`BLOCK_TASKS`] tasks were issued.
struct Blocks {
    start_ns: u64,
    start_issued: u64,
}

impl Blocks {
    fn due(&self, trace: &Option<Trace<'_>>, issued: u64) -> bool {
        trace.is_some() && issued - self.start_issued >= BLOCK_TASKS
    }

    fn tick(&mut self, trace: &mut Option<Trace<'_>>, now: u64, issued: u64) {
        if let (true, Some(t)) = (self.due(trace, issued), trace) {
            t.spans.push(t.parent, t.block, self.start_ns, now, issued - self.start_issued);
            self.start_ns = now;
            self.start_issued = issued;
        }
    }
}

/// Plays `program` into `target` with no clock in the loop except the
/// block spans' — how the traced pass times a whole ladder stack.
pub fn drive<T: Target>(
    program: &Program,
    style: crate::program::IssueStyle,
    target: &mut T,
    trace: &mut Option<Trace<'_>>,
) -> Result<(), PlayError> {
    let mut cursor = Cursor::new(program, style);
    let mut blocks = Blocks { start_ns: now_ns(), start_issued: 0 };
    while cursor.play_iteration(target)? {
        if blocks.due(trace, cursor.issued) {
            blocks.tick(trace, now_ns(), cursor.issued);
        }
    }
    Ok(())
}

fn async_mining(tenant: &Tenant) -> bool {
    tenant.auto_config().is_some_and(|c| c.mining == MiningMode::Async)
}

/// What must be read from a front-end before `finish` consumes it.
struct LastLook {
    digest: u64,
    log: LogStats,
    buffered: BufferStats,
    peak_trie_bytes: usize,
    warmup_iterations: Option<u64>,
}

impl LastLook {
    fn at(issuer: &dyn TaskIssuer) -> Self {
        Self {
            digest: issuer.op_digest(),
            log: issuer.log_stats(),
            buffered: issuer.buffered_ops(),
            peak_trie_bytes: issuer.trie_footprint().1,
            warmup_iterations: issuer.warmup_iterations(),
        }
    }

    fn with(self, artifacts: RunArtifacts) -> TenantEnd {
        TenantEnd {
            digest: self.digest,
            stats: artifacts.stats,
            report: artifacts.report,
            log: self.log,
            buffered: self.buffered,
            peak_trie_bytes: self.peak_trie_bytes,
            warmup_iterations: self.warmup_iterations,
        }
    }
}

/// One checkpoint into `bytes` and one restore from them, each timed (and
/// spanned when tracing). With `adopt` the old front-end is dropped
/// before the restore, as in a process that died, and the restored one is
/// returned; without it the restored one is discarded and the run goes on
/// with the old (the traced pass only sizing a snapshot).
fn checkpoint_cycle(
    mut issuer: Box<dyn TaskIssuer>,
    adopt: bool,
    bytes: &mut Vec<u8>,
    rep: &mut Rep,
    trace: &mut Option<Trace<'_>>,
) -> Result<Box<dyn TaskIssuer>, PlayError> {
    bytes.clear();
    let t0 = now_ns();
    issuer.checkpoint(bytes)?;
    let t1 = now_ns();
    let kept = if adopt {
        drop(issuer);
        None
    } else {
        Some(issuer)
    };
    let t2 = now_ns();
    let restored = Session::resume_from(&mut bytes.as_slice())?;
    let t3 = now_ns();
    rep.cycles.push((t1 - t0, t3 - t2));
    rep.snapshot_bytes = rep.snapshot_bytes.max(bytes.len() as u64);
    if let Some(t) = trace {
        t.spans.push(t.parent, "snapshot.checkpoint", t0, t1, bytes.len() as u64);
        t.spans.push(t.parent, "snapshot.restore", t2, t3, bytes.len() as u64);
    }
    Ok(kept.unwrap_or(restored))
}

/// Runs one stream through `issuer` (built by the caller, so construction
/// stays out of the clock). After each iteration count in `cuts` the
/// front-end is checkpointed into memory, dropped, and resumed from the
/// bytes. A traced run also sizes (and times) one checkpoint + restore at
/// mid-stream without adopting it, outside the reported wall time.
pub fn run_stream(
    tenant: &Tenant,
    mut issuer: Box<dyn TaskIssuer>,
    cuts: &[u64],
    mut trace: Option<Trace<'_>>,
    before_issue: impl FnOnce(),
) -> Result<Rep, PlayError> {
    let program = &tenant.program;
    let quiesce = async_mining(tenant);
    let probe_at = (trace.is_some() && cuts.is_empty()).then_some(program.iterations / 2);
    let mut rep =
        Rep { iter_ns: Vec::with_capacity(program.iterations as usize), ..Rep::default() };
    let mut bytes: Vec<u8> = Vec::new();
    let mut cursor = Cursor::new(program, tenant.style);
    let mut iteration = 0u64;
    let mut excluded_ns = 0u64;
    let mut next_cut = cuts.iter().copied().peekable();

    before_issue();
    let start = now_ns();
    let mut last = start;
    let mut blocks = Blocks { start_ns: start, start_issued: 0 };
    while cursor.play_iteration(issuer.as_mut())? {
        iteration += 1;
        if quiesce {
            let t0 = now_ns();
            issuer.quiesce();
            rep.quiesce_ns += now_ns() - t0;
        }
        if next_cut.next_if_eq(&iteration).is_some() {
            issuer = checkpoint_cycle(issuer, true, &mut bytes, &mut rep, &mut trace)?;
        }
        if probe_at == Some(iteration) {
            let t0 = now_ns();
            issuer = checkpoint_cycle(issuer, false, &mut bytes, &mut rep, &mut trace)?;
            let skipped = now_ns() - t0;
            excluded_ns += skipped;
            last += skipped;
            blocks.start_ns += skipped;
        }
        let now = now_ns();
        rep.iter_ns.push(now - last);
        last = now;
        blocks.tick(&mut trace, now, cursor.issued);
    }
    issuer.flush()?;
    let finish_start = now_ns();
    let look = LastLook::at(issuer.as_ref());
    rep.tenants.push(look.with(issuer.finish()?));
    let end = now_ns();
    if let Some(t) = &mut trace {
        t.spans.slow_call(t.parent, "exec.finalize", finish_start, end, program.tasks);
    }
    rep.wall_ns = end - start - excluded_ns;
    Ok(rep)
}

/// A tenant of the service as a play target: submissions go through
/// admission control, and a `Busy` pushback is retried after a quiesce
/// (then, if the depth still has not drained, after a flush).
struct FleetTarget<'a> {
    svc: &'a mut TraceService,
    stream: StreamId,
    busy_rejections: &'a mut u64,
}

impl FleetTarget<'_> {
    fn submit(&mut self, tasks: &[TaskDesc]) -> Result<(), PlayError> {
        type Relief = fn(&mut TraceService, StreamId) -> Result<(), ServeError>;
        let relieve: [Relief; 2] = [TraceService::quiesce, TraceService::flush];
        for relief in relieve {
            match self.svc.submit(self.stream, tasks.to_vec()) {
                Err(ServeError::Busy { .. }) => {
                    *self.busy_rejections += 1;
                    relief(self.svc, self.stream).map_err(|e| PlayError::Issue(e.to_string()))?;
                }
                other => return other.map_err(|e| PlayError::Issue(e.to_string())),
            }
        }
        self.svc.submit(self.stream, tasks.to_vec()).map_err(|e| PlayError::Issue(e.to_string()))
    }
}

impl Target for FleetTarget<'_> {
    fn region_op(&mut self, step: &Step) -> Result<(), PlayError> {
        let issuer = self.svc.issuer_mut(self.stream).expect("tenant registered at start");
        issuer_region_op(issuer, step)
    }

    fn batch(&mut self, tasks: &[TaskDesc]) -> Result<(), PlayError> {
        self.submit(tasks)
    }

    fn task(&mut self, task: &TaskDesc) -> Result<(), PlayError> {
        self.submit(std::slice::from_ref(task))
    }

    fn mark(&mut self) {
        self.svc.mark_iteration(self.stream).expect("tenant registered at start");
    }
}

/// Runs `serve_fleet`: every tenant through one [`TraceService`], one
/// iteration per turn in the seeded order, a quiesce after each turn.
pub fn run_fleet(
    inputs: &Inputs,
    mut trace: Option<Trace<'_>>,
    before_issue: impl FnOnce(),
) -> Result<Rep, PlayError> {
    let serve = |e: ServeError| PlayError::Issue(e.to_string());
    let construct_start = now_ns();
    let mut svc = TraceService::new(fleet_config());
    for (i, tenant) in inputs.tenants.iter().enumerate() {
        svc.register_configured(StreamId(i as u64), tenant.tracing.clone(), tenant.runtime)
            .map_err(serve)?;
    }
    let mut rep = Rep {
        construct_ns: now_ns() - construct_start,
        iter_ns: Vec::with_capacity(inputs.turns.len()),
        ..Rep::default()
    };
    let mut cursors: Vec<Cursor<'_>> =
        inputs.tenants.iter().map(|t| Cursor::new(&t.program, t.style)).collect();
    let mut issued = 0u64;

    before_issue();
    let start = now_ns();
    let mut blocks = Blocks { start_ns: start, start_issued: 0 };
    for &turn in &inputs.turns {
        let stream = StreamId(u64::from(turn));
        let cursor = &mut cursors[turn as usize];
        let before = cursor.issued;
        let t0 = now_ns();
        let mut target =
            FleetTarget { svc: &mut svc, stream, busy_rejections: &mut rep.busy_rejections };
        cursor.play_iteration(&mut target)?;
        let t1 = now_ns();
        svc.quiesce(stream).map_err(serve)?;
        let t2 = now_ns();
        issued += cursor.issued - before;
        rep.submit_ns += t1 - t0;
        rep.quiesce_ns += t2 - t1;
        rep.iter_ns.push(t2 - t0);
        if let Some(t) = &mut trace {
            t.spans.slow_call(t.parent, "serve.quiesce", t1, t2, 1);
        }
        blocks.tick(&mut trace, t2, issued);
    }
    let mut excluded_ns = 0;
    for i in 0..inputs.tenants.len() as u64 {
        svc.flush(StreamId(i)).map_err(serve)?;
    }
    if trace.is_some() {
        let t0 = now_ns();
        std::hint::black_box(svc.render_metrics());
        rep.render_ns = now_ns() - t0;
        excluded_ns = rep.render_ns;
        let fleet = svc.fleet_metrics();
        rep.fleet_peak_trie_bytes = fleet.peak_trie_bytes;
        rep.fleet_peak_template_bytes = fleet.peak_template_bytes;
    }
    for i in 0..inputs.tenants.len() as u64 {
        let stream = StreamId(i);
        let look = LastLook::at(svc.issuer_mut(stream).expect("tenant registered at start"));
        rep.tenants.push(look.with(svc.finish(stream).map_err(serve)?));
    }
    rep.wall_ns = now_ns() - start - excluded_ns;
    Ok(rep)
}

/// One repetition of `inputs` through the workload's own front-end.
/// `before_issue` runs once the front-end exists, right before the clock
/// starts (the counted pass arms the allocator there).
pub fn run_workload(
    inputs: &Inputs,
    trace: Option<Trace<'_>>,
    before_issue: impl FnOnce(),
) -> Result<Rep, PlayError> {
    if inputs.workload == Workload::ServeFleet {
        return run_fleet(inputs, trace, before_issue);
    }
    let tenant = &inputs.tenants[0];
    let construct_start = now_ns();
    let issuer = tenant.build();
    let construct_ns = now_ns() - construct_start;
    let mut rep = run_stream(tenant, issuer, &inputs.cuts, trace, before_issue)?;
    rep.construct_ns = construct_ns;
    Ok(rep)
}
