//! The per-layer ladder: Algorithm 1 re-assembled from the layers' public
//! parts, cut off at a chosen height.
//!
//! Each [`Level`] adds one layer to the one below it and is timed whole
//! over the same materialised program; a layer's cost is the difference
//! between two neighbouring stacks. Clocks inside a stack sit only where
//! the issue allows them: at the sink boundary (the top stack), and around
//! calls known in advance to be individually slow — a `record` the
//! sampler schedule says will mine, an `ingest`, a `quiesce`.
//!
//! The top stack must make exactly the decisions `AutoTracer` makes: its
//! op digest is checked against the `Session`'s on every workload.

use crate::clock::now_ns;
use crate::program::{issuer_region_op, PlayError, Step, Target};
use crate::spans::SLOW_CALL_NS;
use apophenia::finder::MinedBatch;
use apophenia::replayer::ReplayerStats;
use apophenia::{Config, MiningMode, TraceFinder, TraceReplayer, TraceSink};
use std::hint::black_box;
use tasksim::ids::TraceId;
use tasksim::runtime::{Runtime, RuntimeConfig, RuntimeError};
use tasksim::task::{TaskDesc, TaskHash};

/// How much of the stack is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// S0: the driver alone — clone each batch and drop it.
    Driver,
    /// S1: + `TaskDesc::semantic_hash`.
    Hash,
    /// S2: + `TraceFinder::record` / `poll_completed`.
    Finder,
    /// S3: + `TraceReplayer::ingest` / `on_task` | `on_batch`, forwarding
    /// into a sink that only counts.
    Replayer,
    /// S4: + the sink is a `Runtime`, every call into it timed.
    Runtime,
}

impl Level {
    pub const ALL: [Level; 5] =
        [Level::Driver, Level::Hash, Level::Finder, Level::Replayer, Level::Runtime];

    /// Span name of the stack.
    pub fn stack(self) -> &'static str {
        match self {
            Level::Driver => "ladder.s0_driver",
            Level::Hash => "ladder.s1_hash",
            Level::Finder => "ladder.s2_finder",
            Level::Replayer => "ladder.s3_replayer",
            Level::Runtime => "ladder.s4_runtime",
        }
    }
}

/// The replayer's sink: counts every call, and — when it wraps a runtime —
/// forwards it with a clock read either side.
#[derive(Debug)]
pub struct LadderSink {
    rt: Option<Runtime>,
    pub calls: u64,
    pub busy_ns: u64,
}

impl LadderSink {
    fn forward<R>(
        &mut self,
        call: impl FnOnce(&mut Runtime) -> Result<R, RuntimeError>,
    ) -> Result<(), RuntimeError> {
        self.calls += 1;
        let Some(rt) = &mut self.rt else { return Ok(()) };
        let start = now_ns();
        let result = call(rt);
        self.busy_ns += now_ns() - start;
        result.map(|_| ())
    }
}

impl TraceSink for LadderSink {
    type Error = RuntimeError;

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        self.forward(|rt| rt.begin_trace(id))
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        self.forward(|rt| rt.end_trace(id))
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        self.forward(|rt| rt.execute_task(task))
    }

    fn execute_batch(&mut self, tasks: &mut Vec<TaskDesc>) -> Result<(), RuntimeError> {
        if self.rt.is_none() {
            tasks.clear();
        }
        self.forward(|rt| rt.execute_batch(tasks))
    }

    fn forget_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        self.forward(|rt| Ok(rt.forget_template(id)))
    }

    fn record_trace_score(&mut self, id: TraceId, score: f64) -> Result<(), RuntimeError> {
        self.forward(|rt| {
            rt.note_trace_score(id, score);
            Ok(())
        })
    }
}

/// Counts and clocked totals gathered inside a stack.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Mined batches seen, those with at least one candidate, and what
    /// they held.
    pub batches: u64,
    pub useful_batches: u64,
    pub candidates: u64,
    pub candidate_tokens: u64,
    /// `record` calls clocked because the schedule said they would mine,
    /// and that did submit a job; their total time.
    pub mining_records: u64,
    pub mining_ns: u64,
    /// Time blocked in `TraceFinder::quiesce` (asynchronous mining only).
    pub quiesce_ns: u64,
    pub ingests: u64,
    pub ingest_ns: u64,
    /// Every clock read taken inside the stack, so its cost can be
    /// subtracted from the stack's wall time.
    pub clock_reads: u64,
}

/// An individually slow call inside a stack: `(name, start, end, count)`.
pub type SlowCall = (&'static str, u64, u64, u64);

/// Slow calls a stack can remember; later ones are only tallied.
const SLOW_CALLS: usize = 8_192;

/// What a finished stack hands back.
#[derive(Debug)]
pub struct LadderEnd {
    pub tally: Tally,
    pub slow_calls: Vec<SlowCall>,
    pub jobs: u64,
    pub sink_calls: u64,
    pub sink_busy_ns: u64,
    pub replayer: Option<ReplayerStats>,
    /// Top stack only: the runtime's op digest.
    pub digest: Option<u64>,
}

/// One ladder stack. See the [module docs](self).
pub struct Ladder {
    level: Level,
    finder: Option<TraceFinder>,
    replayer: Option<TraceReplayer>,
    sink: LadderSink,
    run: Vec<(TaskDesc, TaskHash)>,
    issued: u64,
    /// The finder fires an analysis every this many arrivals.
    mine_every: u64,
    quiesce_at_marks: bool,
    tally: Tally,
    slow_calls: Vec<SlowCall>,
}

impl Ladder {
    /// Assembles the stack for `config` over a machine described by
    /// `runtime`, as `AutoTracer::new` would.
    pub fn new(level: Level, runtime: RuntimeConfig, config: &Config) -> Self {
        let rt = (level == Level::Runtime).then(|| {
            let mut rt_config = runtime;
            if let Some(bytes) = config.capacity.max_template_bytes {
                rt_config.max_template_bytes =
                    Some(rt_config.max_template_bytes.map_or(bytes, |own| own.min(bytes)));
            }
            Runtime::new(rt_config.with_auto_layer())
        });
        Self {
            level,
            finder: (level >= Level::Finder).then(|| TraceFinder::new(config)),
            replayer: (level >= Level::Replayer).then(|| TraceReplayer::new(config)),
            sink: LadderSink { rt, calls: 0, busy_ns: 0 },
            run: Vec::new(),
            issued: 0,
            mine_every: config.multi_scale_factor.min(config.batch_size).max(1) as u64,
            quiesce_at_marks: config.mining == MiningMode::Async,
            tally: Tally::default(),
            slow_calls: Vec::with_capacity(SLOW_CALLS),
        }
    }

    /// Tallies two clock reads and remembers the call if it was slow.
    fn clocked(&mut self, name: &'static str, start: u64, end: u64, count: u64) {
        self.tally.clock_reads += 2;
        if end - start >= SLOW_CALL_NS && self.slow_calls.len() < SLOW_CALLS {
            self.slow_calls.push((name, start, end, count));
        }
    }

    fn note_batch(tally: &mut Tally, batch: &MinedBatch) {
        tally.batches += 1;
        tally.useful_batches += u64::from(!batch.candidates.is_empty());
        tally.candidates += batch.candidates.len() as u64;
        tally.candidate_tokens +=
            batch.candidates.iter().map(|c| c.content.len() as u64).sum::<u64>();
    }

    fn ingest(&mut self, batch: &MinedBatch) {
        Self::note_batch(&mut self.tally, batch);
        if let Some(replayer) = &mut self.replayer {
            let start = now_ns();
            replayer.ingest(batch);
            let end = now_ns();
            self.tally.ingests += 1;
            self.tally.ingest_ns += end - start;
            self.clocked("replayer.ingest", start, end, batch.candidates.len() as u64);
        }
    }

    /// Algorithm 1's per-task core, as `AutoTracer::issue_one` /
    /// `issue_batch_inner` run it. `batched` tasks accumulate in `run` and
    /// reach the replayer through `on_batch` — flushed early whenever a
    /// mined batch must ingest at its exact stream position.
    fn feed(&mut self, task: TaskDesc, batched: bool) -> Result<(), RuntimeError> {
        if self.level == Level::Driver {
            black_box(task);
            return Ok(());
        }
        let hash = task.semantic_hash();
        let Some(finder) = &mut self.finder else {
            black_box((task, hash));
            return Ok(());
        };
        self.issued += 1;
        let mut clocked_record = None;
        if self.issued.is_multiple_of(self.mine_every) {
            let jobs = finder.jobs_submitted;
            let start = now_ns();
            finder.record(hash);
            let end = now_ns();
            clocked_record = Some((start, end, finder.jobs_submitted > jobs));
        } else {
            finder.record(hash);
        }
        let polled = finder.poll_completed();
        if let Some((start, end, mined)) = clocked_record {
            if mined {
                self.tally.mining_records += 1;
                self.tally.mining_ns += end - start;
            }
            self.clocked("finder.record", start, end, 1);
        }
        for batch in polled {
            if let (true, Some(replayer)) = (!self.run.is_empty(), &mut self.replayer) {
                replayer.on_batch(&mut self.run, &mut self.sink)?;
            }
            self.ingest(&batch);
        }
        match &mut self.replayer {
            None => {
                black_box((task, hash));
            }
            Some(_) if batched => self.run.push((task, hash)),
            Some(replayer) => replayer.on_task(task, hash, &mut self.sink)?,
        }
        Ok(())
    }

    /// Ends the stream as `AutoTracer::finish` does: land outstanding
    /// analyses, flush the replayer, finalize the runtime.
    pub fn finish(mut self) -> Result<LadderEnd, PlayError> {
        let mut jobs = 0;
        if let Some(mut finder) = self.finder.take() {
            for batch in finder.drain_blocking() {
                self.ingest(&batch);
            }
            jobs = finder.jobs_submitted;
        }
        let mut replayer_stats = None;
        if let Some(mut replayer) = self.replayer.take() {
            replayer.flush(&mut self.sink)?;
            replayer_stats = Some(replayer.stats());
        }
        let mut digest = None;
        if let Some(rt) = self.sink.rt.take() {
            digest = Some(rt.op_digest());
            let start = now_ns();
            black_box(rt.into_artifacts());
            let end = now_ns();
            self.sink.busy_ns += end - start;
            self.clocked("exec.finalize", start, end, 1);
        }
        Ok(LadderEnd {
            tally: self.tally,
            slow_calls: self.slow_calls,
            jobs,
            sink_calls: self.sink.calls,
            sink_busy_ns: self.sink.busy_ns,
            replayer: replayer_stats,
            digest,
        })
    }
}

impl Target for Ladder {
    fn region_op(&mut self, step: &Step) -> Result<(), PlayError> {
        match &mut self.sink.rt {
            Some(rt) => issuer_region_op(rt, step),
            None => Ok(()),
        }
    }

    fn batch(&mut self, tasks: &[TaskDesc]) -> Result<(), PlayError> {
        // A real `Vec`, as `issue_batch` would be handed.
        let batch: Vec<TaskDesc> = tasks.to_vec();
        for task in batch {
            self.feed(task, true)?;
        }
        if let (true, Some(replayer)) = (!self.run.is_empty(), &mut self.replayer) {
            replayer.on_batch(&mut self.run, &mut self.sink)?;
        }
        Ok(())
    }

    fn task(&mut self, task: &TaskDesc) -> Result<(), PlayError> {
        Ok(self.feed(task.clone(), false)?)
    }

    fn mark(&mut self) {
        if let Some(rt) = &mut self.sink.rt {
            rt.mark_iteration_after(self.issued);
        }
        if let (true, Some(finder)) = (self.quiesce_at_marks, &mut self.finder) {
            let start = now_ns();
            finder.quiesce();
            let end = now_ns();
            self.tally.quiesce_ns += end - start;
            self.clocked("finder.quiesce", start, end, 1);
        }
    }
}
