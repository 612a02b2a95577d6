//! The trace finder (§4.2): history buffer + repeat mining.
//!
//! Tasks stream in as hashes; the finder keeps a rolling buffer of the
//! last `batch_size` tokens and, on the schedule given by the multi-scale
//! sampler (or whenever the buffer fills, in `FixedBatch` mode), mines a
//! slice of it for repeated substrings — Algorithm 2 by default, or one of
//! the baseline miners for ablations. Mining runs inline or on a worker
//! pool of [`Config::mining_threads`] threads; either way results come
//! back as [`MinedBatch`]es in strict submission order (completions that
//! finish out of order are reassembled before release), and the caller
//! decides *when* to ingest them (the §5.1 distributed-agreement hook).
//!
//! The per-job hot path allocates only what it returns: job token
//! buffers are recycled through a return channel once a worker finishes
//! with them, the history slice is copied out of the ring buffer
//! slice-wise (`VecDeque::as_slices`) rather than element by element,
//! and Algorithm 2 runs in a reusable
//! [`MiningScratch`](substrings::repeats::MiningScratch) — so a job over
//! a slice that holds no repeat (the kernel proves that from the count
//! of distinct tokens, or from the LCP array) allocates nothing at all.
//!
//! # Mining workspaces
//!
//! Whoever runs mining jobs owns one workspace: a synchronous finder
//! holds its own, and each [`MiningPool`] worker thread holds one — per
//! worker, not per tenant, so a fleet sharing a pool shares its
//! workspaces too. A workspace carries nothing from one job to the next,
//! which makes it derived state: it is never written to a snapshot, a
//! restored finder starts with an empty one that sizes itself on the
//! first job (so does the finder that wrote the snapshot: it releases
//! its workspace at the cut), and a worker that catches a panic mid-job
//! drops its workspace and starts a fresh one.
//!
//! The persistent workspace serves jobs of up to twice the sampling
//! granularity — three jobs in four under ruler sampling — and grows to
//! the largest of those, never shrinking. A longer slice is mined in a
//! workspace of its own that is freed with the job: a dozen allocations
//! are nothing beside mining thousands of tokens, whereas a workspace
//! kept at [`Config::batch_size`] would sit on ≈ 80 bytes per token in
//! every session for the sake of one job in eight (measured on the
//! application streams: a resident 5 000-token workspace raised a small
//! session's peak heap by a tenth; mining every job in a fresh one cost
//! 2 % of the issue path).
//!
//! # Shared worker pools
//!
//! Asynchronous mining runs on a [`MiningPool`] — a set of worker threads
//! behind a job channel. [`TraceFinder::new`] builds a private pool, but a
//! pool is a cheap cloneable handle: a multi-tenant host constructs one
//! pool and hands it to every tenant's finder via
//! [`TraceFinder::with_pool`], so N tenants share one set of threads
//! instead of spawning N × [`Config::mining_threads`]. Each job carries
//! its submitter's private reply channels, so results route back to the
//! finder that submitted them and per-finder strict submission-order
//! reassembly is untouched by sharing. The pool's threads shut down when
//! the last handle drops.

use crate::config::{Config, IdentifierAlgorithm, MiningMode, RepeatsAlgorithm};
use crate::sampler::MultiScaleSampler;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use substrings::lzw::lzw_parse;
use substrings::repeats::{find_repeats_into, MiningScratch};
use substrings::tandem::select_tandem_repeats;
use substrings::SuffixBackend;
use tasksim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use tasksim::task::TaskHash;

/// Why the mining pipeline degraded.
///
/// Mining failures never panic the submission path: a dead pool drops
/// jobs (counted), a panicking worker yields an empty batch for its job
/// and keeps serving. Either way the stream keeps flowing — the
/// application loses tracing opportunities, not correctness — and
/// [`TraceFinder::health`] reports the first failure as a typed error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FinderError {
    /// Every worker exited (or the pool's channels closed) while jobs
    /// were outstanding; `lost_jobs` counts submissions that will never
    /// produce a batch.
    PoolDisconnected {
        /// Jobs submitted (or in flight) that can no longer complete.
        lost_jobs: usize,
    },
    /// A worker panicked while mining `job`; the job was answered with an
    /// empty batch so ordering and accounting stay intact.
    WorkerPanicked {
        /// The first job whose mining panicked.
        job: u64,
    },
}

impl std::fmt::Display for FinderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PoolDisconnected { lost_jobs } => {
                write!(f, "mining worker pool disconnected; {lost_jobs} job(s) lost")
            }
            Self::WorkerPanicked { job } => {
                write!(f, "mining worker panicked on job {job}; empty batch substituted")
            }
        }
    }
}

impl std::error::Error for FinderError {}

/// A repeated substring mined from the history buffer, with the *global*
/// stream positions of its selected occurrences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedCandidate {
    /// The repeated token sequence.
    pub content: Vec<TaskHash>,
    /// Global stream positions (of the first token) of each selected
    /// occurrence.
    pub occurrences: Vec<u64>,
}

/// The result of one asynchronous mining job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinedBatch {
    /// Monotonic job id (submission order).
    pub job: u64,
    /// Candidates found, longest first.
    pub candidates: Vec<MinedCandidate>,
    /// Global position one past the end of the mined slice.
    pub slice_end: u64,
}

/// A mining request.
struct Job {
    id: u64,
    tokens: Vec<TaskHash>,
    global_start: u64,
    min_len: usize,
    algo: RepeatsAlgorithm,
    backend: SuffixBackend,
    /// Short enough for the miner's persistent workspace (see the module
    /// docs); otherwise mined in a workspace freed with the job.
    resident: bool,
    /// Test hook: makes the worker's `run_job` panic, exercising the
    /// panic-containment path.
    #[cfg(test)]
    poison: bool,
}

fn run_job(job: &Job, scratch: &mut MiningScratch) -> MinedBatch {
    #[cfg(test)]
    if job.poison {
        panic!("poisoned mining job {}", job.id);
    }
    let tokens = job.tokens.as_slice();
    let slice_end = job.global_start + tokens.len() as u64;
    // `usize` and `u64` share size and alignment on every supported
    // target, so the occurrence `collect`s below reuse the source
    // allocation in place instead of reallocating per candidate.
    let globalize = |occ: Vec<usize>| -> Vec<u64> {
        occ.into_iter().map(|p| job.global_start + p as u64).collect()
    };
    let candidates = match job.algo {
        RepeatsAlgorithm::QuickMatching => {
            let mut transient = MiningScratch::default();
            let scratch = if job.resident { scratch } else { &mut transient };
            find_repeats_into(scratch, tokens, job.min_len, job.backend)
                .into_iter()
                .map(|r| MinedCandidate {
                    content: r.content,
                    occurrences: globalize(r.occurrences),
                })
                .collect()
        }
        RepeatsAlgorithm::TandemRepeats => select_tandem_repeats(tokens, job.min_len)
            .into_iter()
            .map(|r| MinedCandidate { content: r.content, occurrences: globalize(r.occurrences) })
            .collect(),
        RepeatsAlgorithm::Lzw => {
            // Collect re-used phrases of sufficient length, grouped by
            // content. The index borrows slices of the job buffer, so a
            // phrase's tokens are cloned once (on first sight), not per
            // occurrence, and lookup is O(1) expected per match.
            let parse = lzw_parse(tokens);
            let mut grouped: Vec<MinedCandidate> = Vec::new();
            let mut index: HashMap<&[TaskHash], usize> = HashMap::new();
            for m in parse.matches.iter().filter(|m| m.len() >= job.min_len) {
                let content = &tokens[m.start..m.end];
                let pos = job.global_start + m.start as u64;
                match index.entry(content) {
                    Entry::Occupied(e) => grouped[*e.get()].occurrences.push(pos),
                    Entry::Vacant(e) => {
                        e.insert(grouped.len());
                        grouped.push(MinedCandidate {
                            content: content.to_vec(),
                            occurrences: vec![pos],
                        });
                    }
                }
            }
            grouped
        }
    };
    MinedBatch { job: job.id, candidates, slice_end }
}

/// A job on the wire to a [`MiningPool`] worker: the mining request plus
/// the submitting finder's private reply channels. Replies route back to
/// the submitter, so any number of finders can share one pool without
/// their results interleaving.
struct PoolJob {
    job: Job,
    res_tx: Sender<MinedBatch>,
    recycle_tx: Sender<Vec<TaskHash>>,
    panic_tx: Sender<u64>,
}

/// Worker threads + join bookkeeping, shared by every handle clone.
struct PoolShared {
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads: usize,
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        // The last handle's job sender was dropped just before this runs
        // (field order in `MiningPool`), so the channel is closed: workers
        // drain what's queued and exit; joining cannot hang.
        let mut workers = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        for w in workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A pool of mining worker threads, shareable between [`TraceFinder`]s.
///
/// Cloning is cheap (a channel sender + an `Arc`); every clone submits
/// into the same set of threads. Each submitted job carries its finder's
/// private reply channels, so sharing a pool never mixes two finders'
/// results or perturbs their submission-order reassembly. When the last
/// handle drops, the job channel closes, the workers finish what is
/// queued and exit, and the drop joins them.
pub struct MiningPool {
    /// Dropped before `shared`, closing the channel the workers block on.
    tx: Sender<PoolJob>,
    shared: Arc<PoolShared>,
}

impl Clone for MiningPool {
    fn clone(&self) -> Self {
        Self { tx: self.tx.clone(), shared: Arc::clone(&self.shared) }
    }
}

impl std::fmt::Debug for MiningPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningPool")
            .field("threads", &self.shared.threads)
            .field("handles", &Arc::strong_count(&self.shared))
            .finish()
    }
}

impl MiningPool {
    /// Spawns a pool of `threads.max(1)` mining workers.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, job_rx) = channel::<PoolJob>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let workers = (0..threads)
            .map(|_| {
                let job_rx = Arc::clone(&job_rx);
                let mut scratch = MiningScratch::default();
                std::thread::spawn(move || loop {
                    // Hold the lock only while waiting for a job; mining
                    // runs unlocked so workers overlap.
                    let pj = match job_rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => break,
                    };
                    let Ok(PoolJob { job, res_tx, recycle_tx, panic_tx }) = pj else { break };
                    // A panicking miner must not deadlock the submitter's
                    // reorder buffer: answer the job with an empty batch,
                    // report the panic, keep serving — on a fresh
                    // workspace, the old one having been abandoned mid-job.
                    let slice_end = job.global_start + job.tokens.len() as u64;
                    let mined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_job(&job, &mut scratch)
                    }));
                    let batch = mined.unwrap_or_else(|_| {
                        scratch = MiningScratch::default();
                        let _ = panic_tx.send(job.id);
                        MinedBatch { job: job.id, candidates: Vec::new(), slice_end }
                    });
                    let _ = recycle_tx.send(job.tokens);
                    // The submitting finder may already be gone; other
                    // finders' jobs keep flowing regardless.
                    let _ = res_tx.send(batch);
                })
            })
            .collect();
        Self { tx, shared: Arc::new(PoolShared { workers: Mutex::new(workers), threads }) }
    }

    /// Number of worker threads serving this pool.
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// Number of live handles (finders plus the host's own), for fleet
    /// metrics.
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.shared)
    }

    /// Enqueues a job; `false` if the pool is dead (channel closed).
    fn submit(&self, job: PoolJob) -> bool {
        self.tx.send(job).is_ok()
    }

    /// A pool whose workers are already gone and whose channel is closed
    /// — what a catastrophic worker die-off leaves behind.
    #[cfg(test)]
    fn dead() -> Self {
        let (tx, rx) = channel::<PoolJob>();
        drop(rx);
        Self { tx, shared: Arc::new(PoolShared { workers: Mutex::new(Vec::new()), threads: 0 }) }
    }
}

enum Miner {
    Sync {
        done: VecDeque<MinedBatch>,
        /// The inline miner's workspace.
        // snapshot: derived — holds nothing between jobs; a restored
        // finder's empty one sizes itself on its first job
        scratch: MiningScratch,
    },
    Pool {
        /// Handle to the (possibly shared) worker pool.
        pool: MiningPool,
        /// Our half of the reply channels, cloned into every job so the
        /// pool's workers answer *this* finder.
        res_tx: Sender<MinedBatch>,
        rx: Receiver<MinedBatch>,
        /// Job token buffers coming back from workers for reuse.
        recycle_tx: Sender<Vec<TaskHash>>,
        recycle_rx: Receiver<Vec<TaskHash>>,
        /// Job ids whose mining panicked (answered with empty batches).
        panic_tx: Sender<u64>,
        panic_rx: Receiver<u64>,
        /// Jobs sent to the pool and not yet received back.
        in_flight: usize,
        /// Completed batches received out of submission order, keyed by
        /// job id until their predecessors arrive.
        pending: BTreeMap<u64, MinedBatch>,
        /// Id of the next batch to release (strict submission order).
        next_emit: u64,
        /// Batches reassembled into order but not yet polled.
        ready: VecDeque<MinedBatch>,
        /// Jobs dropped because the pool's channels disconnected.
        lost_jobs: usize,
        /// First panicked job observed (drained from `panic_rx`).
        first_panic: Option<u64>,
        /// [`Config::gated_ingest`]: when set, completed batches are
        /// reassembled into `ready` only by [`TraceFinder::quiesce`],
        /// never by the opportunistic per-task poll, so release
        /// positions are a pure function of the quiesce schedule.
        gated: bool,
    },
}

impl Miner {
    fn sync() -> Self {
        Self::Sync { done: VecDeque::new(), scratch: MiningScratch::default() }
    }
}

/// The trace finder: rolling history buffer plus mining pipeline.
pub struct TraceFinder {
    buffer: VecDeque<TaskHash>,
    /// Global index of `buffer[0]`.
    buffer_start: u64,
    sampler: MultiScaleSampler,
    miner: Miner,
    next_job: u64,
    min_len: usize,                  // snapshot: derived (from Config)
    batch_size: usize,               // snapshot: derived (from Config)
    identifier: IdentifierAlgorithm, // snapshot: derived (from Config)
    algo: RepeatsAlgorithm,          // snapshot: derived (from Config)
    backend: SuffixBackend,          // snapshot: derived (from Config)
    /// Longest slice mined in a persistent workspace.
    resident_len: usize, // snapshot: derived (from Config)
    /// Recycled job token buffers awaiting reuse.
    // snapshot: derived — a recycling pool; fresh buffers are equivalent
    spare: Vec<Vec<TaskHash>>,
    /// Bound on `spare`: with at most `mining_threads` jobs in flight
    /// (plus the one being built), buffers past that can never be handed
    /// out before another returns, so hoarding them is pure bloat.
    spare_cap: usize, // snapshot: derived (from Config)
    /// Total analyses submitted (exposed for overhead accounting).
    pub jobs_submitted: u64,
    /// Test hook: poison the next submitted job so its worker panics.
    #[cfg(test)]
    pub(crate) poison_next: bool,
}

impl std::fmt::Debug for TraceFinder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceFinder")
            .field("buffer_len", &self.buffer.len())
            .field("buffer_start", &self.buffer_start)
            .field("next_job", &self.next_job)
            .finish_non_exhaustive()
    }
}

impl TraceFinder {
    /// Creates a finder from a configuration. Asynchronous mining gets a
    /// private [`MiningPool`] of [`Config::mining_threads`] workers; a
    /// multi-tenant host shares one pool via [`Self::with_pool`] instead.
    pub fn new(config: &Config) -> Self {
        match config.mining {
            MiningMode::Sync => Self::build(config, Miner::sync()),
            MiningMode::Async => {
                Self::with_pool(config, &MiningPool::new(config.mining_threads.max(1)))
            }
        }
    }

    /// Creates a finder whose asynchronous mining jobs run on `pool`
    /// instead of a private pool. Results still come back in strict
    /// per-finder submission order: each job carries this finder's reply
    /// channels, so sharing a pool is invisible to the mining semantics.
    /// With [`MiningMode::Sync`] the pool is unused (mining runs inline).
    pub fn with_pool(config: &Config, pool: &MiningPool) -> Self {
        let miner = match config.mining {
            MiningMode::Sync => Miner::sync(),
            MiningMode::Async => {
                let (res_tx, rx) = channel::<MinedBatch>();
                let (recycle_tx, recycle_rx) = channel::<Vec<TaskHash>>();
                let (panic_tx, panic_rx) = channel::<u64>();
                Miner::Pool {
                    pool: pool.clone(),
                    res_tx,
                    rx,
                    recycle_tx,
                    recycle_rx,
                    panic_tx,
                    panic_rx,
                    in_flight: 0,
                    pending: BTreeMap::new(),
                    next_emit: 0,
                    ready: VecDeque::new(),
                    lost_jobs: 0,
                    first_panic: None,
                    gated: config.gated_ingest,
                }
            }
        };
        Self::build(config, miner)
    }

    fn build(config: &Config, miner: Miner) -> Self {
        Self {
            buffer: VecDeque::with_capacity(config.batch_size),
            buffer_start: 0,
            sampler: MultiScaleSampler::new(
                config.multi_scale_factor.min(config.batch_size).max(1),
                config.batch_size,
            ),
            miner,
            next_job: 0,
            min_len: config.min_trace_length,
            batch_size: config.batch_size,
            identifier: config.identifier,
            algo: config.repeats,
            backend: config.suffix_backend,
            resident_len: 2 * config.multi_scale_factor,
            spare: Vec::new(),
            spare_cap: config.mining_threads.max(1) + 1,
            jobs_submitted: 0,
            #[cfg(test)]
            poison_next: false,
        }
    }

    /// Test hook: simulates every worker dying with jobs still queued —
    /// the finder's pool handle is swapped for a dead pool (dropping a
    /// private pool joins its workers) and any results the old workers
    /// managed to produce are discarded.
    #[cfg(test)]
    pub(crate) fn kill_pool_for_test(&mut self) {
        if let Miner::Pool { pool, rx, .. } = &mut self.miner {
            *pool = MiningPool::dead();
            let (dead_tx, dead_rx) = channel::<MinedBatch>();
            drop(dead_tx);
            *rx = dead_rx;
        }
    }

    /// Records one arriving token; may submit a mining job.
    pub fn record(&mut self, h: TaskHash) {
        // Make room first: pushing into the full ring would double its
        // allocation for the sake of one slot.
        if self.buffer.len() >= self.batch_size.max(1) {
            self.buffer.pop_front();
            self.buffer_start += 1;
        }
        self.buffer.push_back(h);
        match self.identifier {
            IdentifierAlgorithm::MultiScale => {
                if let Some(suffix_len) = self.sampler.on_arrival() {
                    let len = suffix_len.min(self.buffer.len());
                    self.submit(self.buffer.len() - len);
                }
            }
            IdentifierAlgorithm::FixedBatch => {
                // The sampler still counts arrivals for parity of state.
                let _ = self.sampler.on_arrival();
                if self.buffer.len() == self.batch_size {
                    self.submit(0);
                    self.buffer_start += self.buffer.len() as u64;
                    self.buffer.clear();
                }
            }
        }
    }

    /// Pops a recycled job buffer (draining any returns from the worker
    /// pool first), or allocates the pool's first.
    fn take_buffer(&mut self) -> Vec<TaskHash> {
        if let Miner::Pool { recycle_rx, .. } = &self.miner {
            while let Ok(returned) = recycle_rx.try_recv() {
                if self.spare.len() < self.spare_cap {
                    self.spare.push(returned);
                }
            }
        }
        let mut buf = self.spare.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a job buffer to the recycle pool, dropping it when the
    /// pool is already at [`Self::spare_cap`].
    fn stash_spare(&mut self, buf: Vec<TaskHash>) {
        if self.spare.len() < self.spare_cap {
            self.spare.push(buf);
        }
    }

    /// Recycled buffers currently pooled (test hook for the spare bound).
    #[cfg(test)]
    pub(crate) fn spare_len(&self) -> usize {
        self.spare.len()
    }

    /// Submits the buffer suffix starting at `from` (buffer-relative).
    fn submit(&mut self, from: usize) {
        if self.buffer.len() - from < 2 * self.min_len.max(1) {
            return; // Can't contain a repeat worth memoizing.
        }
        let mut tokens = self.take_buffer();
        let (head, tail) = self.buffer.as_slices();
        if from < head.len() {
            tokens.extend_from_slice(&head[from..]);
            tokens.extend_from_slice(tail);
        } else {
            tokens.extend_from_slice(&tail[from - head.len()..]);
        }
        let job = Job {
            id: self.next_job,
            tokens,
            global_start: self.buffer_start + from as u64,
            min_len: self.min_len,
            algo: self.algo,
            backend: self.backend,
            resident: self.buffer.len() - from <= self.resident_len,
            #[cfg(test)]
            poison: std::mem::take(&mut self.poison_next),
        };
        self.next_job += 1;
        self.jobs_submitted += 1;
        match &mut self.miner {
            Miner::Sync { done, scratch } => {
                done.push_back(run_job(&job, scratch));
                self.stash_spare(job.tokens);
            }
            Miner::Pool { pool, res_tx, recycle_tx, panic_tx, in_flight, lost_jobs, .. } => {
                // A dead pool (all workers gone, channel closed) must not
                // panic the submission path: count the lost job and keep
                // the stream flowing untraced.
                let sent = pool.submit(PoolJob {
                    job,
                    res_tx: res_tx.clone(),
                    recycle_tx: recycle_tx.clone(),
                    panic_tx: panic_tx.clone(),
                });
                if sent {
                    *in_flight += 1;
                } else {
                    *lost_jobs += 1;
                }
            }
        }
    }

    /// Moves every contiguously-numbered pending batch into `ready`.
    fn release_in_order(
        pending: &mut BTreeMap<u64, MinedBatch>,
        next_emit: &mut u64,
        ready: &mut VecDeque<MinedBatch>,
    ) {
        while let Some(b) = pending.remove(next_emit) {
            ready.push_back(b);
            *next_emit += 1;
        }
    }

    /// Returns all completed batches, in submission order. Batches that
    /// completed ahead of an unfinished predecessor are withheld until the
    /// predecessor lands; under [`Config::gated_ingest`] *every* batch is
    /// withheld until a [`Self::quiesce`] lands it, so release positions
    /// never depend on worker timing. A pool disconnect is detected here
    /// too: the outstanding jobs are counted as lost and batches stranded
    /// behind the resulting ordering hole (or a closed gate) are released
    /// rather than withheld forever.
    pub fn poll_completed(&mut self) -> Vec<MinedBatch> {
        match &mut self.miner {
            Miner::Sync { done, .. } => done.drain(..).collect(),
            Miner::Pool {
                rx,
                panic_rx,
                in_flight,
                pending,
                next_emit,
                ready,
                lost_jobs,
                first_panic,
                gated,
                ..
            } => {
                loop {
                    match rx.try_recv() {
                        Ok(b) => {
                            *in_flight -= 1;
                            pending.insert(b.job, b);
                        }
                        Err(std::sync::mpsc::TryRecvError::Empty) => break,
                        Err(std::sync::mpsc::TryRecvError::Disconnected) => {
                            if *in_flight > 0 {
                                *lost_jobs += *in_flight;
                                *in_flight = 0;
                            }
                            break;
                        }
                    }
                }
                while let Ok(job) = panic_rx.try_recv() {
                    first_panic.get_or_insert(job);
                }
                if !*gated {
                    Self::release_in_order(pending, next_emit, ready);
                }
                if *lost_jobs > 0 {
                    Self::release_in_order(pending, next_emit, ready);
                    ready.extend(std::mem::take(pending).into_values());
                }
                ready.drain(..).collect()
            }
        }
    }

    /// Blocks until every in-flight mining job has landed and been
    /// reassembled into the ready queue — the quiescent point a snapshot
    /// cuts at, and the barrier a host uses to make asynchronous
    /// ingestion deterministic (after a quiesce, every submitted analysis
    /// is ingested at the very next poll, a pure function of the stream).
    /// A no-op for synchronous mining (jobs complete at submission).
    /// Nothing is released to the caller; the batches stay queued for the
    /// next [`Self::poll_completed`], whether that happens on this finder
    /// or on one restored from a snapshot.
    pub fn quiesce(&mut self) {
        let Miner::Pool {
            rx,
            panic_rx,
            in_flight,
            pending,
            next_emit,
            ready,
            lost_jobs,
            first_panic,
            ..
        } = &mut self.miner
        else {
            return;
        };
        while *in_flight > 0 {
            match rx.recv() {
                Ok(b) => {
                    *in_flight -= 1;
                    pending.insert(b.job, b);
                }
                Err(_) => {
                    *lost_jobs += *in_flight;
                    *in_flight = 0;
                }
            }
        }
        while let Ok(job) = panic_rx.try_recv() {
            first_panic.get_or_insert(job);
        }
        Self::release_in_order(pending, next_emit, ready);
        if *lost_jobs == 0 {
            debug_assert!(pending.is_empty(), "all batches released once in-flight hits 0");
        } else {
            // Lost jobs leave holes in the submission order; release
            // what completed rather than withholding it forever.
            ready.extend(std::mem::take(pending).into_values());
        }
    }

    /// Blocks until every submitted job has completed, then returns them
    /// all (used at shutdown and by tests). If the pool disconnects while
    /// jobs are outstanding, the outstanding jobs are counted as lost and
    /// whatever completed is returned; [`Self::health`] reports the loss.
    pub fn drain_blocking(&mut self) -> Vec<MinedBatch> {
        self.quiesce();
        match &mut self.miner {
            Miner::Sync { done, .. } => done.drain(..).collect(),
            Miner::Pool { ready, .. } => ready.drain(..).collect(),
        }
    }

    /// Whether the mining pipeline is healthy; after a worker death or
    /// pool disconnect, the first failure as a typed [`FinderError`].
    ///
    /// A degraded finder keeps accepting tokens — failures cost tracing
    /// opportunities, never correctness or panics.
    ///
    /// # Errors
    ///
    /// [`FinderError::PoolDisconnected`] once any job was dropped,
    /// otherwise [`FinderError::WorkerPanicked`] if a miner panicked.
    pub fn health(&mut self) -> Result<(), FinderError> {
        match &mut self.miner {
            Miner::Sync { .. } => Ok(()),
            Miner::Pool { panic_rx, lost_jobs, first_panic, .. } => {
                while let Ok(job) = panic_rx.try_recv() {
                    first_panic.get_or_insert(job);
                }
                if *lost_jobs > 0 {
                    Err(FinderError::PoolDisconnected { lost_jobs: *lost_jobs })
                } else if let Some(job) = *first_panic {
                    Err(FinderError::WorkerPanicked { job })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Number of jobs submitted but not yet polled.
    pub fn in_flight(&self) -> usize {
        match &self.miner {
            Miner::Sync { done, .. } => done.len(),
            Miner::Pool { in_flight, pending, ready, .. } => {
                *in_flight + pending.len() + ready.len()
            }
        }
    }

    /// Global index of the next token to arrive.
    pub fn stream_position(&self) -> u64 {
        self.buffer_start + self.buffer.len() as u64
    }

    /// Serializes the finder's dynamic state: the rolling history buffer,
    /// sampler counters, job accounting, completed-but-unpolled batches,
    /// and pipeline health. Configuration-derived fields are not written
    /// — [`Self::restore_snapshot`] rebuilds them from the same
    /// [`Config`] the snapshot's owner serializes alongside.
    ///
    /// Asynchronous pools are quiesced first (in-flight jobs are waited
    /// for and queued as ready), so the snapshot needs no thread state;
    /// with synchronous mining — the deterministic configuration — this
    /// is a pure observation and the continuation is bit-identical.
    pub fn write_snapshot(&mut self, w: &mut SnapshotWriter) {
        self.quiesce();
        // A cut is the process's memory high-water mark (the image is
        // being assembled next to everything it describes), and the
        // restored side starts without a workspace anyway: release ours,
        // so both sides of the cut regrow one on their next job.
        if let Miner::Sync { scratch, .. } = &mut self.miner {
            *scratch = MiningScratch::default();
        }
        w.put_deque(&self.buffer, |w, h| w.put_u64(h.0));
        w.put_u64(self.buffer_start);
        w.put_u64(self.sampler.arrivals());
        w.put_u64(self.sampler.firings());
        w.put_u64(self.next_job);
        w.put_u64(self.jobs_submitted);
        let (completed, lost_jobs, first_panic): (Vec<&MinedBatch>, usize, Option<u64>) =
            match &self.miner {
                Miner::Sync { done, .. } => (done.iter().collect(), 0, None),
                Miner::Pool { ready, lost_jobs, first_panic, .. } => {
                    (ready.iter().collect(), *lost_jobs, *first_panic)
                }
            };
        w.put_seq(&completed, |w, b| put_batch(w, b));
        w.put_len(lost_jobs);
        w.put_opt_u64(first_panic);
    }

    /// Rebuilds a finder from `config` plus the dynamic state captured by
    /// [`Self::write_snapshot`]. The restored finder submits its next
    /// mining job at exactly the stream position the original would have.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated or structurally impossible input.
    pub fn restore_snapshot(
        config: &Config,
        r: &mut SnapshotReader<'_>,
    ) -> Result<Self, SnapshotError> {
        let mut f = TraceFinder::new(config);
        f.buffer = r.get_deque(|r| Ok(TaskHash(r.get_u64()?)))?;
        if f.buffer.len() > f.batch_size {
            return Err(SnapshotError::Corrupt("history buffer exceeds its capacity".into()));
        }
        f.buffer_start = r.get_u64()?;
        let arrivals = r.get_u64()?;
        let firings = r.get_u64()?;
        f.sampler.restore_counts(arrivals, firings);
        f.next_job = r.get_u64()?;
        f.jobs_submitted = r.get_u64()?;
        let completed = r.get_seq(get_batch)?;
        let lost = r.get_len()?;
        let panicked = r.get_opt_u64()?;
        match &mut f.miner {
            Miner::Sync { done, .. } => {
                if lost > 0 || panicked.is_some() {
                    return Err(SnapshotError::Corrupt(
                        "synchronous finder cannot carry pool failures".into(),
                    ));
                }
                done.extend(completed);
            }
            Miner::Pool { ready, next_emit, lost_jobs, first_panic, .. } => {
                ready.extend(completed);
                *next_emit = f.next_job;
                *lost_jobs = lost;
                *first_panic = panicked;
            }
        }
        Ok(f)
    }
}

/// Writes one [`MinedBatch`].
pub(crate) fn put_batch(w: &mut SnapshotWriter, b: &MinedBatch) {
    w.put_u64(b.job);
    w.put_seq(&b.candidates, |w, c| {
        w.put_seq(&c.content, |w, h| w.put_u64(h.0));
        w.put_seq(&c.occurrences, |w, o| w.put_u64(*o));
    });
    w.put_u64(b.slice_end);
}

/// Reads one [`MinedBatch`], rejecting what no miner produces: an empty
/// candidate, or an occurrence that does not end inside the mined slice.
/// The replayer adds occurrence and length, so an unchecked `u64::MAX`
/// from a hostile image would overflow at the next ingest.
pub(crate) fn get_batch(r: &mut SnapshotReader<'_>) -> Result<MinedBatch, SnapshotError> {
    let job = r.get_u64()?;
    let candidates: Vec<MinedCandidate> = r.get_seq(|r| {
        Ok(MinedCandidate {
            content: r.get_seq(|r| Ok(TaskHash(r.get_u64()?)))?,
            occurrences: r.get_seq(|r| r.get_u64())?,
        })
    })?;
    let slice_end = r.get_u64()?;
    for c in &candidates {
        let len = c.content.len() as u64;
        let inside = |&o: &u64| o.checked_add(len).is_some_and(|end| end <= slice_end);
        if len == 0 || !c.occurrences.iter().all(inside) {
            return Err(SnapshotError::Corrupt(format!(
                "mined batch {job}: candidate of {len} token(s) reaches past slice end {slice_end}"
            )));
        }
    }
    Ok(MinedBatch { job, candidates, slice_end })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::standard().with_batch_size(64).with_multi_scale_factor(8).with_min_trace_length(3)
    }

    fn feed_pattern(f: &mut TraceFinder, period: &[u64], reps: usize) {
        for _ in 0..reps {
            for &t in period {
                f.record(TaskHash(t));
            }
        }
    }

    #[test]
    fn finds_loop_in_stream() {
        let mut f = TraceFinder::new(&cfg());
        feed_pattern(&mut f, &[1, 2, 3, 4], 8);
        let batches = f.poll_completed();
        assert!(!batches.is_empty(), "analyses fired");
        let found = batches
            .iter()
            .flat_map(|b| &b.candidates)
            .any(|c| c.content.len() % 4 == 0 && c.content.len() >= 4);
        assert!(found, "a multiple of the period was mined: {batches:?}");
    }

    #[test]
    fn occurrences_are_global_positions() {
        let mut f = TraceFinder::new(&cfg());
        feed_pattern(&mut f, &[7, 8, 9], 12);
        let batches = f.poll_completed();
        for b in &batches {
            for c in &b.candidates {
                for &occ in &c.occurrences {
                    assert!(occ + (c.content.len() as u64) <= b.slice_end);
                    // The occurrence must reproduce the stream content:
                    // position p holds hash of the (p mod 3)'th element.
                    for (k, h) in c.content.iter().enumerate() {
                        let expect = 7 + ((occ + k as u64) % 3);
                        assert_eq!(h.0, expect, "occ {occ} + {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn no_jobs_below_min_size() {
        let mut f = TraceFinder::new(&cfg());
        for t in 0..4u64 {
            f.record(TaskHash(t));
        }
        // Sampler fires at 8-token boundaries; nothing yet.
        assert_eq!(f.in_flight(), 0);
    }

    #[test]
    fn fixed_batch_mode_clears_buffer() {
        let mut c = cfg();
        c.identifier = IdentifierAlgorithm::FixedBatch;
        let mut f = TraceFinder::new(&c);
        feed_pattern(&mut f, &[1, 2, 3, 4], 16); // exactly one batch of 64
        let batches = f.poll_completed();
        assert_eq!(batches.len(), 1);
        assert_eq!(f.stream_position(), 64);
        assert!(!batches[0].candidates.is_empty());
    }

    #[test]
    fn async_mode_eventually_delivers() {
        let mut c = cfg().with_async_mining();
        c.multi_scale_factor = 8;
        let mut f = TraceFinder::new(&c);
        feed_pattern(&mut f, &[1, 2, 3, 4], 8);
        let batches = f.drain_blocking();
        assert!(!batches.is_empty());
        // Batches arrive in submission order.
        for w in batches.windows(2) {
            assert!(w[0].job < w[1].job);
        }
    }

    #[test]
    fn sync_and_async_mine_identically() {
        let sync_cfg = cfg();
        let async_cfg = cfg().with_async_mining();
        let mut fs = TraceFinder::new(&sync_cfg);
        let mut fa = TraceFinder::new(&async_cfg);
        feed_pattern(&mut fs, &[1, 2, 3, 4, 5], 10);
        feed_pattern(&mut fa, &[1, 2, 3, 4, 5], 10);
        let bs = fs.drain_blocking();
        let ba = fa.drain_blocking();
        assert_eq!(bs, ba, "mining results are mode-independent");
    }

    #[test]
    fn gated_ingest_releases_only_at_quiesce() {
        let mut f = TraceFinder::new(&cfg().with_async_mining().with_gated_ingest());
        feed_pattern(&mut f, &[1, 2, 3, 4], 8);
        // However long we poll, the gate holds completed batches back.
        for _ in 0..50 {
            assert!(f.poll_completed().is_empty(), "no release before quiesce");
            std::thread::yield_now();
        }
        f.quiesce();
        let batches = f.poll_completed();
        assert!(!batches.is_empty(), "quiesce landed the analyses");
        for w in batches.windows(2) {
            assert!(w[0].job < w[1].job, "submission order preserved");
        }
        // And the gated results are the same analyses sync mining produces.
        let mut fs = TraceFinder::new(&cfg());
        feed_pattern(&mut fs, &[1, 2, 3, 4], 8);
        assert_eq!(batches, fs.poll_completed(), "gating changes timing, never results");
    }

    #[test]
    fn pool_reassembles_submission_order() {
        // Many jobs of very different sizes race across 4 workers: small
        // jobs finish first, so the pool must withhold them until their
        // larger predecessors land.
        let mut c = Config::standard()
            .with_batch_size(512)
            .with_multi_scale_factor(8)
            .with_min_trace_length(2)
            .with_async_mining()
            .with_mining_threads(4);
        c.multi_scale_factor = 8;
        let mut f = TraceFinder::new(&c);
        let mut seen: Vec<u64> = Vec::new();
        for rep in 0..40 {
            feed_pattern(&mut f, &[1, 2, 3, 4, 5, 6, 7, 8], 4);
            // Poll mid-stream: released prefixes must already be ordered.
            for b in f.poll_completed() {
                seen.push(b.job);
            }
            if rep % 8 == 0 {
                std::thread::yield_now();
            }
        }
        for b in f.drain_blocking() {
            seen.push(b.job);
        }
        let expect: Vec<u64> = (0..seen.len() as u64).collect();
        assert_eq!(seen, expect, "batches released in strict submission order");
        assert!(!seen.is_empty(), "jobs actually ran");
    }

    #[test]
    fn spare_pool_is_bounded_by_worker_count() {
        // Many jobs complete between submissions, so the recycle channel
        // piles up far more returned buffers than the pool can ever have
        // in flight at once. The drain in `take_buffer` must cap `spare`
        // at `mining_threads + 1` and drop the excess instead of hoarding
        // every buffer the run ever allocated.
        let mut f = TraceFinder::new(&cfg().with_async_mining().with_mining_threads(2));
        let mut recycled = false;
        for round in 0..8 {
            // Submit a burst of jobs, then wait for all of them: every
            // job buffer is now queued on the recycle channel at once.
            feed_pattern(&mut f, &[1, 2, 3, 4, 5, 6, 7, 8], 8);
            let _ = f.drain_blocking();
            // One more sampler firing: its submission bulk-drains the
            // recycle backlog into `spare` — bounded, excess dropped.
            feed_pattern(&mut f, &[1, 2, 3, 4, 5, 6, 7, 8], 1);
            assert!(
                f.spare_len() <= 2 + 1,
                "round {round}: spare pool grew to {} buffers",
                f.spare_len()
            );
            recycled |= f.spare_len() > 0;
        }
        assert!(recycled, "recycling actually happened");
    }

    #[test]
    fn pool_size_never_changes_results() {
        let reference = {
            let mut f = TraceFinder::new(&cfg());
            feed_pattern(&mut f, &[1, 2, 3, 4, 5], 20);
            f.drain_blocking()
        };
        for threads in [1, 2, 4] {
            let mut f = TraceFinder::new(&cfg().with_async_mining().with_mining_threads(threads));
            feed_pattern(&mut f, &[1, 2, 3, 4, 5], 20);
            assert_eq!(
                f.drain_blocking(),
                reference,
                "{threads}-thread pool mined different batches"
            );
        }
    }

    #[test]
    fn suffix_backend_never_changes_results() {
        let mine = |backend| {
            let mut f = TraceFinder::new(&cfg().with_suffix_backend(backend));
            feed_pattern(&mut f, &[3, 1, 4, 1, 5, 9, 2, 6], 12);
            f.drain_blocking()
        };
        assert_eq!(mine(SuffixBackend::Sais), mine(SuffixBackend::Doubling));
    }

    #[test]
    fn lzw_algorithm_produces_candidates() {
        let mut c = cfg();
        c.repeats = RepeatsAlgorithm::Lzw;
        c.min_trace_length = 2;
        let mut f = TraceFinder::new(&c);
        feed_pattern(&mut f, &[1, 2], 32);
        let batches = f.drain_blocking();
        let any = batches.iter().any(|b| !b.candidates.is_empty());
        assert!(any, "LZW found re-used phrases");
    }

    #[test]
    fn lzw_groups_by_content() {
        let mut c = cfg();
        c.repeats = RepeatsAlgorithm::Lzw;
        c.min_trace_length = 2;
        let mut f = TraceFinder::new(&c);
        feed_pattern(&mut f, &[1, 2, 3], 24);
        for b in f.drain_blocking() {
            let mut contents: Vec<&[TaskHash]> =
                b.candidates.iter().map(|c| c.content.as_slice()).collect();
            let total = contents.len();
            contents.sort();
            contents.dedup();
            assert_eq!(contents.len(), total, "no duplicate content groups in {b:?}");
        }
    }

    #[test]
    fn tandem_algorithm_produces_candidates() {
        let mut c = cfg();
        c.repeats = RepeatsAlgorithm::TandemRepeats;
        let mut f = TraceFinder::new(&c);
        feed_pattern(&mut f, &[1, 2, 3], 20);
        let batches = f.drain_blocking();
        let any = batches.iter().any(|b| !b.candidates.is_empty());
        assert!(any, "tandem miner found the contiguous loop");
    }

    #[test]
    fn repeat_free_stream_still_submits_its_jobs() {
        // No filter stands in front of the kernel: every scheduled
        // analysis of an all-distinct stream is submitted and numbered,
        // and comes back empty (the kernel leaves at its first exit).
        let mut c = cfg();
        c.min_trace_length = 6;
        let mut f = TraceFinder::new(&c);
        for t in 0..512u64 {
            f.record(TaskHash(1_000_000 + t));
        }
        assert!(f.jobs_submitted > 0, "analyses were submitted");
        let batches = f.poll_completed();
        assert_eq!(batches.len() as u64, f.jobs_submitted);
        assert!(batches.iter().all(|b| b.candidates.is_empty()), "{batches:?}");
    }

    #[test]
    fn corrupt_finder_snapshots_rejected() {
        let image = |batch: &MinedBatch| {
            let mut w = SnapshotWriter::new();
            put_batch(&mut w, batch);
            w.into_payload()
        };
        let candidate = |len: usize, occurrences: Vec<u64>| MinedCandidate {
            content: (0..len as u64).map(TaskHash).collect(),
            occurrences,
        };
        let batch = |c: MinedCandidate| MinedBatch { job: 3, candidates: vec![c], slice_end: 64 };
        let restore = |b: &MinedBatch| get_batch(&mut SnapshotReader::new(&image(b)));

        let valid = batch(candidate(4, vec![0, 60]));
        assert_eq!(restore(&valid).as_ref(), Ok(&valid), "an occurrence may end at the slice end");
        for hostile in [
            batch(candidate(4, vec![u64::MAX])),     // end overflows
            batch(candidate(4, vec![u64::MAX - 4])), // end past any slice
            batch(candidate(4, vec![0, 61])),        // one token past the slice
            batch(candidate(0, vec![0])),            // nothing to replay
        ] {
            let err = restore(&hostile).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{hostile:?}: {err}");
        }

        // The same bytes inside a whole finder image are refused too, and
        // what a real finder writes restores.
        let mut f = TraceFinder::new(&cfg());
        feed_pattern(&mut f, &[1, 2, 3, 4], 8);
        let mut w = SnapshotWriter::new();
        f.write_snapshot(&mut w);
        let payload = w.into_payload();
        assert!(TraceFinder::restore_snapshot(&cfg(), &mut SnapshotReader::new(&payload)).is_ok());
        let Miner::Sync { done, .. } = &mut f.miner else { unreachable!("cfg() mines inline") };
        done[0].candidates[0].occurrences[0] = u64::MAX;
        let mut w = SnapshotWriter::new();
        f.write_snapshot(&mut w);
        let payload = w.into_payload();
        let err = TraceFinder::restore_snapshot(&cfg(), &mut SnapshotReader::new(&payload));
        assert!(matches!(err, Err(SnapshotError::Corrupt(_))), "hostile image accepted");
    }

    #[test]
    fn dead_pool_degrades_without_panicking() {
        let mut f = TraceFinder::new(&cfg().with_async_mining());
        feed_pattern(&mut f, &[1, 2, 3, 4], 8);
        assert!(f.jobs_submitted > 0, "jobs were in flight");
        f.kill_pool_for_test();
        // Submissions after worker death must not panic; they count as
        // lost and the stream keeps flowing.
        feed_pattern(&mut f, &[1, 2, 3, 4], 8);
        // Draining a disconnected pool must not panic either.
        let _ = f.drain_blocking();
        let err = f.health().unwrap_err();
        assert!(
            matches!(err, FinderError::PoolDisconnected { lost_jobs } if lost_jobs > 0),
            "typed error: {err}"
        );
        assert_eq!(f.in_flight(), 0, "nothing left pending");
        // The finder still tracks the stream for position accounting.
        assert_eq!(f.stream_position(), 64);
        assert!(err.to_string().contains("disconnected"), "{err}");
    }

    #[test]
    fn worker_panic_contained_as_empty_batch() {
        let mut f = TraceFinder::new(&cfg().with_async_mining());
        f.poison_next = true;
        feed_pattern(&mut f, &[1, 2, 3, 4], 16);
        let batches = f.drain_blocking();
        let err = f.health().unwrap_err();
        let FinderError::WorkerPanicked { job } = err else {
            panic!("expected WorkerPanicked, got {err}");
        };
        // The panicked job answered with an empty batch, in order.
        let poisoned = batches.iter().find(|b| b.job == job).expect("batch substituted");
        assert!(poisoned.candidates.is_empty());
        for w in batches.windows(2) {
            assert!(w[0].job < w[1].job, "submission order preserved across the panic");
        }
        // The worker survived the panic, and its replacement workspace
        // mines exactly what an unpoisoned finder's does.
        let mut fresh = TraceFinder::new(&cfg().with_async_mining());
        feed_pattern(&mut fresh, &[1, 2, 3, 4], 16);
        let expect = fresh.drain_blocking();
        assert!(expect[job as usize + 1..].iter().any(|b| !b.candidates.is_empty()));
        assert_eq!(batches[job as usize + 1..], expect[job as usize + 1..], "jobs after the panic");
    }

    #[test]
    fn rolling_buffer_advances_start() {
        let mut f = TraceFinder::new(&cfg()); // batch 64
        feed_pattern(&mut f, &[1, 2, 3, 4], 32); // 128 tokens
        assert_eq!(f.stream_position(), 128);
        let batches = f.poll_completed();
        // Late batches must reference late global positions.
        let last = batches.last().unwrap();
        assert!(last.slice_end > 64);
    }
}
