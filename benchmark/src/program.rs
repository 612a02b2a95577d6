//! Materialised task streams.
//!
//! A workload's stream is recorded once, up front, by [`Recorder`] — a
//! [`TaskIssuer`] that forwards to an untraced runtime (so region ids are
//! the real ones) and keeps every call as a [`Step`]. The program under
//! test then receives only these recorded inputs through [`Cursor`], and
//! the generator's cost is never inside a timed region.

use apophenia::{Session, Tracing};
use std::io::Write;
use tasksim::exec::{LogRetention, LogStats};
use tasksim::ids::{RegionId, TraceId};
use tasksim::issuer::{RunArtifacts, TaskIssuer};
use tasksim::runtime::RuntimeError;
use tasksim::snapshot::CheckpointMeta;
use tasksim::stats::{BufferStats, RuntimeStats};
use tasksim::task::TaskDesc;

/// One recorded application call.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// `create_region(fields)` and the id it returned.
    CreateRegion { fields: u32, id: RegionId },
    /// `partition(region, parts)` and the ids it returned.
    Partition { region: RegionId, parts: u32, ids: Vec<RegionId> },
    /// `destroy_region(region)`.
    Destroy(RegionId),
    /// A maximal run of task launches with no other call in between — one
    /// loop iteration's batch once the allocator is in steady state.
    Tasks(Vec<TaskDesc>),
    /// `mark_iteration()`.
    Mark,
}

/// A materialised stream with its totals and input digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub steps: Vec<Step>,
    pub tasks: u64,
    pub iterations: u64,
    /// FNV-1a over every step — what `golden.json` pins for the default
    /// seed. It covers the *inputs* only, never a tracing decision.
    pub digest: u64,
    /// Op digest of the untraced runtime the recorder forwarded to: what
    /// replaying the program into `Tracing::Untraced` must reproduce.
    pub direct_digest: u64,
}

impl Program {
    /// Every task's semantic hash, in stream order.
    pub fn hashes(&self) -> Vec<tasksim::task::TaskHash> {
        self.steps
            .iter()
            .filter_map(|s| match s {
                Step::Tasks(batch) => Some(batch),
                _ => None,
            })
            .flatten()
            .map(TaskDesc::semantic_hash)
            .collect()
    }
}

/// FNV-1a over 64-bit words, the bench's own copy (the repository's is
/// crate-private, and the golden must not move when it does).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn digest_step(h: &mut Fnv, step: &Step) {
    match step {
        Step::CreateRegion { fields, id } => {
            h.write(1);
            h.write(u64::from(*fields));
            h.write(u64::from(id.0));
        }
        Step::Partition { region, parts, ids } => {
            h.write(2);
            h.write(u64::from(region.0));
            h.write(u64::from(*parts));
            ids.iter().for_each(|id| h.write(u64::from(id.0)));
        }
        Step::Destroy(region) => {
            h.write(3);
            h.write(u64::from(region.0));
        }
        Step::Tasks(batch) => {
            h.write(4);
            h.write(batch.len() as u64);
            for task in batch {
                h.write(task.semantic_hash().0);
                h.write(task.gpu_time.0.to_bits());
            }
        }
        Step::Mark => h.write(5),
    }
}

/// The recording issuer. See the [module docs](self).
pub struct Recorder {
    inner: Box<dyn TaskIssuer>,
    steps: Vec<Step>,
    tasks: u64,
    iterations: u64,
}

impl Recorder {
    /// A recorder over an untraced, drained runtime of the given shape.
    pub fn new(nodes: u32, gpus_per_node: u32) -> Self {
        let inner = Session::builder()
            .nodes(nodes)
            .gpus_per_node(gpus_per_node)
            .tracing(Tracing::Untraced)
            .log_retention(LogRetention::Drain)
            .build();
        Self { inner, steps: Vec::new(), tasks: 0, iterations: 0 }
    }

    /// Ends the recording.
    pub fn into_program(self) -> Program {
        let mut h = Fnv::default();
        self.steps.iter().for_each(|s| digest_step(&mut h, s));
        Program {
            digest: h.finish(),
            direct_digest: self.inner.op_digest(),
            steps: self.steps,
            tasks: self.tasks,
            iterations: self.iterations,
        }
    }

    fn push_task(&mut self, task: TaskDesc) {
        self.tasks += 1;
        match self.steps.last_mut() {
            Some(Step::Tasks(batch)) => batch.push(task),
            _ => self.steps.push(Step::Tasks(vec![task])),
        }
    }
}

impl TaskIssuer for Recorder {
    fn create_region(&mut self, fields: u32) -> RegionId {
        let id = self.inner.create_region(fields);
        self.steps.push(Step::CreateRegion { fields, id });
        id
    }

    fn partition(&mut self, region: RegionId, parts: u32) -> Result<Vec<RegionId>, RuntimeError> {
        let ids = self.inner.partition(region, parts)?;
        self.steps.push(Step::Partition { region, parts, ids: ids.clone() });
        Ok(ids)
    }

    fn destroy_region(&mut self, region: RegionId) -> Result<(), RuntimeError> {
        self.inner.destroy_region(region)?;
        self.steps.push(Step::Destroy(region));
        Ok(())
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), RuntimeError> {
        self.inner.execute_task(task.clone())?;
        self.push_task(task);
        Ok(())
    }

    fn begin_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        // No benchmark stream carries manual annotations; recording one
        // would silently change what "the same program" means.
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), RuntimeError> {
        Err(RuntimeError::AnnotationUnderAuto(id))
    }

    fn mark_iteration(&mut self) {
        self.inner.mark_iteration();
        self.iterations += 1;
        self.steps.push(Step::Mark);
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        self.inner.flush()
    }

    fn stats(&self) -> RuntimeStats {
        self.inner.stats()
    }

    fn log_stats(&self) -> LogStats {
        self.inner.log_stats()
    }

    fn buffered_ops(&self) -> BufferStats {
        self.inner.buffered_ops()
    }

    fn op_digest(&self) -> u64 {
        self.inner.op_digest()
    }

    fn checkpoint(&mut self, out: &mut dyn Write) -> Result<CheckpointMeta, RuntimeError> {
        self.inner.checkpoint(out)
    }

    fn finish(self: Box<Self>) -> Result<RunArtifacts, RuntimeError> {
        self.inner.finish()
    }
}

/// How a workload hands its tasks to the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueStyle {
    /// One `issue_batch` per recorded task run.
    Batch,
    /// One `execute_task` per task.
    PerTask,
}

/// Why a run did not complete.
#[derive(Debug)]
pub enum PlayError {
    /// The front-end returned an error from an issue call.
    Issue(String),
    /// The front-end handed out different region ids than the recording.
    RegionDrift(String),
}

impl std::fmt::Display for PlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Issue(e) => write!(f, "issue failed: {e}"),
            Self::RegionDrift(e) => write!(f, "region ids drifted: {e}"),
        }
    }
}

impl From<RuntimeError> for PlayError {
    fn from(e: RuntimeError) -> Self {
        Self::Issue(e.to_string())
    }
}

/// What a recorded program is played into: a front-end, or one of the
/// traced pass's partial stacks.
pub trait Target {
    /// A region call (`CreateRegion`, `Partition` or `Destroy`). Stacks
    /// below the runtime have no region state and ignore it.
    fn region_op(&mut self, _step: &Step) -> Result<(), PlayError> {
        Ok(())
    }
    /// One batch of tasks ([`IssueStyle::Batch`]). The target clones what
    /// it issues: the clones are the "application" building its task
    /// descriptors, inside the timed region on purpose, and the traced
    /// pass's driver-only stack measures them.
    fn batch(&mut self, tasks: &[TaskDesc]) -> Result<(), PlayError>;
    /// One task ([`IssueStyle::PerTask`]).
    fn task(&mut self, task: &TaskDesc) -> Result<(), PlayError>;
    /// An iteration mark.
    fn mark(&mut self);
}

/// Replays a region step into `issuer`, checking the ids it hands out.
pub fn issuer_region_op(issuer: &mut dyn TaskIssuer, step: &Step) -> Result<(), PlayError> {
    match step {
        Step::CreateRegion { fields, id } => {
            let got = issuer.create_region(*fields);
            if got != *id {
                return Err(PlayError::RegionDrift(format!("created {got}, recorded {id}")));
            }
        }
        Step::Partition { region, parts, ids } => {
            let got = issuer.partition(*region, *parts)?;
            if got != *ids {
                return Err(PlayError::RegionDrift(format!("partition of {region} differs")));
            }
        }
        Step::Destroy(region) => issuer.destroy_region(*region)?,
        Step::Tasks(_) | Step::Mark => {}
    }
    Ok(())
}

impl Target for dyn TaskIssuer + '_ {
    fn region_op(&mut self, step: &Step) -> Result<(), PlayError> {
        issuer_region_op(self, step)
    }

    fn batch(&mut self, tasks: &[TaskDesc]) -> Result<(), PlayError> {
        Ok(self.issue_batch(tasks.to_vec())?)
    }

    fn task(&mut self, task: &TaskDesc) -> Result<(), PlayError> {
        Ok(self.execute_task(task.clone())?)
    }

    fn mark(&mut self) {
        self.mark_iteration();
    }
}

/// A position in a program, advanced one iteration at a time so several
/// programs can be interleaved (`serve_fleet`) and the driver can act
/// between iterations (per-iteration clocks, checkpoint cuts).
#[derive(Debug)]
pub struct Cursor<'p> {
    program: &'p Program,
    style: IssueStyle,
    next: usize,
    /// Tasks issued so far.
    pub issued: u64,
}

impl<'p> Cursor<'p> {
    pub fn new(program: &'p Program, style: IssueStyle) -> Self {
        Self { program, style, next: 0, issued: 0 }
    }

    /// Plays steps into `target` up to and including the next iteration
    /// mark (or the end of the program). Returns whether a mark was
    /// played; `false` means the program is exhausted.
    pub fn play_iteration<T: Target + ?Sized>(
        &mut self,
        target: &mut T,
    ) -> Result<bool, PlayError> {
        while let Some(step) = self.program.steps.get(self.next) {
            self.next += 1;
            match step {
                Step::Tasks(batch) => {
                    self.issued += batch.len() as u64;
                    match self.style {
                        IssueStyle::Batch => target.batch(batch)?,
                        IssueStyle::PerTask => {
                            for task in batch {
                                target.task(task)?;
                            }
                        }
                    }
                }
                Step::Mark => {
                    target.mark();
                    return Ok(true);
                }
                region => target.region_op(region)?,
            }
        }
        Ok(false)
    }
}
