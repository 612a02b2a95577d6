//! The trace replayer (§4.3): online candidate recognition and replay.
//!
//! Mined candidates live in a trie; as each task arrives, a set of cursors
//! ("pointers into the trie") advances. A cursor reaching a terminal node
//! has recognized a complete candidate occurrence. Because Apophenia never
//! speculates (§5.2), tasks buffer in a *pending queue* while any cursor
//! might still complete a match covering them; once a match is chosen, the
//! tasks before it flush untraced, the matched tasks are forwarded inside
//! `begin_trace`/`end_trace`, and the stream continues.
//!
//! When several matches are available the replayer picks by the paper's
//! scoring function: candidate length × occurrence count (capped, and
//! exponentially decayed by staleness), with a small bonus for candidates
//! that have replayed before — exploration vs. exploitation.
//!
//! Replay is deferred while an *older* cursor (one whose match would start
//! at or before the best completed match) is still alive: it may complete
//! a longer, better-scoring candidate. Deferral is bounded by the longest
//! candidate in the trie, so the pending queue cannot grow without bound.
//!
//! # Per-task cost
//!
//! A task costs one trie step per live cursor, plus a verdict whose cost
//! does not depend on how many completed matches are waiting:
//!
//! * **O(1) while deferred.** Cursors are strictly ascending by `start`
//!   (each task spawns at most one, appended last with the newest
//!   `start`; stepping, replay and eviction only drop cursors in place),
//!   so `cursors[0]` is the oldest. The replayer tracks the minimum
//!   `start` over the waiting matches; whichever match scores best starts
//!   at or after it, so an oldest cursor at or before it blocks the
//!   verdict *for every possible best* — one comparison, no scores — and
//!   the same two values bound the flushable prefix.
//! * **O(candidates with a waiting match) for an open verdict.** Waiting
//!   matches sit in one FIFO queue per candidate. All matches of a
//!   candidate have its length, so they complete — and are queued — in
//!   ascending `start`, and share its score; `rank()` breaks that tie by
//!   the earlier start, so the *front* of a queue is the only match of
//!   its candidate that can ever be best. Choosing the best match is a
//!   max over the fronts of the non-empty queues: one match examined and
//!   one `score()` (a `powf`) per candidate — at most 7 on the paper's
//!   Figure 1 stream, where a verdict used to walk 2 300 waiting matches.
//!   A replay pops, from each queue, the prefix it overlaps (each match
//!   is pushed once and popped once) and re-reads the minimum off the
//!   fronts.
//! * **O(live cursors) for the step itself**, which is what remains: the
//!   Figure 1 stream (`jacobi_rename` in apobench) keeps 359.5 cursors
//!   alive per slow-path step, in lock-step along one long candidate. An
//!   Aho–Corasick-style automaton (one state instead of a cursor vector,
//!   failure links built lazily) was prototyped exactly and takes that
//!   stream from ≈ 2 300 to 976 ns/task, but every ingest that adds a
//!   candidate invalidates the links, which costs streams that extend a
//!   large trie often and never revisit it within an epoch +40 %
//!   (`torchswe_steady`), +18 % (`cfd_dist_ckpt`) and +7 %
//!   (`phase_churn_capped`); it needs a stable-trie gate first.
//!
//! Snapshots list the waiting matches in the order the recognizer minted
//! them — ascending `end`, then ascending `start`, unique because two
//! matches over one window are one candidate — so an image does not
//! depend on the grouping, and restore rejects any other order. Debug
//! builds recompute every verdict by full scans over every waiting match
//! and assert the two agree.
//!
//! [`TraceReplayer::on_task`] is the only recognition path —
//! [`TraceReplayer::on_batch`] loops over it — and every forwarded task
//! reaches the sink through [`TraceSink::execute_task`]. The
//! pre-optimization step survives as a `#[cfg(test)]` reference
//! implementation the proptests compare against.
//!
//! # Bounded memory
//!
//! With [`CapacityConfig`] limits set, the candidate store itself is
//! bounded too: after every ingest, while the trie exceeds
//! `max_candidates` live candidates or `max_trie_nodes` live nodes, the
//! lowest-scoring candidate is evicted (ties evict the newer id). Two
//! classes are deferred — candidates with a completed match awaiting a
//! replay decision (their in-flight occurrence must resolve first) and
//! candidates with a live cursor on their path (the cursor may be about
//! to complete them). Eviction inputs — scores, cursor positions, pending
//! matches — are pure functions of the ingest/replay stream, so
//! control-replicated nodes (§5.1) evict identically. When the trie's
//! free list outgrows its live nodes the trie is compacted and surviving
//! cursors are remapped, so allocation tracks the live set.

use crate::config::{CapacityConfig, Config, ScoringConfig};
use crate::finder::MinedBatch;
use std::collections::{HashSet, VecDeque};
use substrings::trie::{CandidateId, NodeId, NodeSnapshot, Trie, TrieSnapshot};
use tasksim::ids::TraceId;
use tasksim::snapshot::{Restore, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use tasksim::task::{TaskDesc, TaskHash};

/// Where the replayer forwards operations — the runtime beneath Apophenia.
///
/// Implemented by [`tasksim::runtime::Runtime`] (and by test doubles).
pub trait TraceSink {
    /// The sink's error type.
    type Error;

    /// Forwards `begin_trace`.
    fn begin_trace(&mut self, id: TraceId) -> Result<(), Self::Error>;
    /// Forwards `end_trace`.
    fn end_trace(&mut self, id: TraceId) -> Result<(), Self::Error>;
    /// Forwards a task launch.
    fn execute_task(&mut self, task: TaskDesc) -> Result<(), Self::Error>;
    /// Forwards a run of task launches: [`Self::execute_task`] on each
    /// element in order, leaving the buffer empty on success. Nothing in
    /// this workspace calls it any more — the replayer forwards every task
    /// through [`Self::execute_task`] — and it is kept, defaulted, only
    /// for out-of-tree sinks (`benchmark/src/ladder.rs` implements it);
    /// the next change to that package can drop both.
    ///
    /// # Errors
    ///
    /// Propagates the first per-task error.
    fn execute_batch(&mut self, tasks: &mut Vec<TaskDesc>) -> Result<(), Self::Error> {
        for task in tasks.drain(..) {
            self.execute_task(task)?;
        }
        Ok(())
    }
    /// Notifies the sink that no future replay will reference `id` (the
    /// candidate recorded under it was evicted), so any template stored
    /// for it can be dropped. Without this, candidate eviction would
    /// orphan templates and the template store would keep growing even
    /// under a candidate cap. Default: ignore.
    ///
    /// # Errors
    ///
    /// Sink-defined.
    fn forget_trace(&mut self, _id: TraceId) -> Result<(), Self::Error> {
        Ok(())
    }

    /// Reports the replayer's current §4.3 utility score for the
    /// candidate behind trace `id`, pushed just before each replay — the
    /// shared signal a bounded template store ranks its own evictions by,
    /// so the two stores agree about what is hot. The score is a pure
    /// function of the deterministic stream. Default: ignore.
    ///
    /// # Errors
    ///
    /// Sink-defined.
    fn record_trace_score(&mut self, _id: TraceId, _score: f64) -> Result<(), Self::Error> {
        Ok(())
    }
}

impl TraceSink for tasksim::runtime::Runtime {
    type Error = tasksim::runtime::RuntimeError;

    fn begin_trace(&mut self, id: TraceId) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::begin_trace(self, id)
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::end_trace(self, id)
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::execute_task(self, task).map(|_| ())
    }

    fn forget_trace(&mut self, id: TraceId) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::forget_template(self, id);
        Ok(())
    }

    fn record_trace_score(&mut self, id: TraceId, score: f64) -> Result<(), Self::Error> {
        tasksim::runtime::Runtime::note_trace_score(self, id, score);
        Ok(())
    }
}

/// Per-candidate bookkeeping for scoring.
#[derive(Debug, Clone, Default)]
struct CandidateMeta {
    /// Assigned on first replay; templates are recorded under this id.
    trace_id: Option<TraceId>,
    /// Occurrences observed (mined + matched live).
    count: u32,
    /// Global position just past the most recent occurrence.
    last_seen: u64,
    /// Completed replays.
    replays: u64,
    len: usize,
}

/// An active trie cursor: a potential match in progress.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    node: NodeId,
    /// Global position of the first token of the potential match.
    start: u64,
}

/// A fully recognized candidate occurrence awaiting a replay decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompletedMatch {
    cand: CandidateId,
    start: u64,
    end: u64,
}

/// The completed matches awaiting a verdict: one FIFO queue of match
/// starts per candidate (a match's end is its start plus the candidate's
/// length), and the candidates whose queue is non-empty.
///
/// **Queue invariant.** A candidate's matches all have its length and at
/// most one of them completes per task, so they complete — and are pushed
/// — in strictly ascending `start`. [`TraceReplayer::rank`] breaks equal
/// scores and lengths by the earlier start, so the *front* of a queue is
/// the only match of its candidate that can ever be best, and the matches
/// a replay consumes (`start` below the replayed match's end) are a
/// prefix of every queue.
#[derive(Debug, Default)]
struct WaitingMatches {
    /// Indexed by candidate id, grown on first use. A drained queue keeps
    /// its capacity (and its slot's next candidate inherits it), so the
    /// defer → replay cycle stops allocating once warm.
    queues: Vec<VecDeque<u64>>,
    /// Candidates with a non-empty queue, in the order they became so —
    /// never more than the live candidates, a handful in practice.
    nonempty: Vec<CandidateId>,
}

impl WaitingMatches {
    fn is_empty(&self) -> bool {
        self.nonempty.is_empty()
    }

    /// Whether a match of `cand` awaits a verdict.
    fn has(&self, cand: CandidateId) -> bool {
        self.queues.get(cand.0 as usize).is_some_and(|q| !q.is_empty())
    }

    /// Queues a match of `cand`; `start` must exceed every start already
    /// queued for it.
    fn push(&mut self, cand: CandidateId, start: u64) {
        let idx = cand.0 as usize;
        if self.queues.len() <= idx {
            self.queues.resize_with(idx + 1, VecDeque::new);
        }
        let queue = &mut self.queues[idx];
        debug_assert!(queue.back().is_none_or(|&last| last < start), "queue must ascend");
        if queue.is_empty() {
            self.nonempty.push(cand);
        }
        queue.push_back(start);
    }

    /// The oldest waiting match of each candidate that has one.
    fn fronts(&self) -> impl Iterator<Item = (CandidateId, u64)> + '_ {
        self.nonempty.iter().filter_map(|&c| Some((c, *self.queues[c.0 as usize].front()?)))
    }

    /// Every waiting match, grouped by candidate.
    fn iter(&self) -> impl Iterator<Item = (CandidateId, u64)> + '_ {
        self.nonempty.iter().flat_map(|&c| self.queues[c.0 as usize].iter().map(move |&s| (c, s)))
    }

    /// Minimum `start` over the waiting matches; `u64::MAX` when none.
    fn min_start(&self) -> u64 {
        self.fronts().map(|(_, start)| start).min().unwrap_or(u64::MAX)
    }

    /// Drops every match starting before `end` — a prefix of each queue,
    /// so a match is popped once in its life.
    fn drop_before(&mut self, end: u64) {
        let queues = &mut self.queues;
        self.nonempty.retain(|c| {
            let queue = &mut queues[c.0 as usize];
            while queue.front().is_some_and(|&start| start < end) {
                queue.pop_front();
            }
            !queue.is_empty()
        });
    }

    /// Waiting matches in total (tests only: nothing on the recognition
    /// path may depend on it).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }
}

/// A buffered, not-yet-forwarded task.
#[derive(Debug, Clone)]
struct PendingTask {
    desc: TaskDesc,
    global: u64,
}

/// Bytes charged per live trie node by the deterministic byte model
/// behind [`CapacityConfig::max_trie_bytes`]: the node struct (child map
/// header, terminal, depth, subtree bookkeeping) plus its parent's child
/// entry. Deliberately a model constant rather than an allocator probe —
/// byte budgets must be a pure function of the deterministic stream so
/// replicated nodes enforce them in lock-step.
pub const TRIE_NODE_FOOTPRINT: usize = 96;

/// Counters the replayer exposes to the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayerStats {
    /// Tasks forwarded untraced.
    pub forwarded_untraced: u64,
    /// Tasks forwarded inside a trace (recording or replaying).
    pub forwarded_traced: u64,
    /// Trace fragments issued (begin/end pairs).
    pub traces_issued: u64,
    /// Candidate pieces currently live.
    pub candidates: usize,
    /// Candidates evicted to stay under the [`CapacityConfig`] bounds.
    pub evicted_candidates: u64,
    /// Times the candidate trie was compacted to release freed nodes.
    pub trie_compactions: u64,
    /// Most live candidates held at once, sampled after capacity
    /// enforcement. With `max_candidates` set this exceeds the cap only
    /// while every over-cap candidate is deferred (a pending completed
    /// match or a live cursor on its path) — eviction is best-effort at
    /// each ingest, re-attempted at the next.
    pub peak_candidates: usize,
    /// Most trie node slots ever allocated at once (live + free-listed) —
    /// the memory high-water mark the capacity bounds exist to contain.
    pub peak_trie_nodes: usize,
    /// Slots currently allocated in the per-candidate bookkeeping table
    /// (`meta`, parallel to the trie's candidate slots). Shrinks when
    /// capacity enforcement truncates trailing tombstoned slots.
    pub meta_capacity: usize,
    /// Most `meta` slots ever allocated at once.
    pub peak_meta_capacity: usize,
    /// Tasks currently buffered in the pending queue (the replayer's half
    /// of the end-to-end backpressure signal).
    pub pending_tasks: usize,
    /// Most tasks ever buffered in the pending queue at once.
    pub peak_pending_tasks: usize,
    /// Current candidate-store footprint under the deterministic byte
    /// model (see [`TraceReplayer::trie_bytes`]).
    pub trie_bytes: usize,
    /// Highest candidate-store footprint observed, sampled after capacity
    /// enforcement — the figure a `max_trie_bytes` budget bounds.
    pub peak_trie_bytes: usize,
}

/// The online recognizer/replayer. See module docs.
#[derive(Debug)]
pub struct TraceReplayer {
    trie: Trie<TaskHash>,
    meta: Vec<CandidateMeta>,
    cursors: Vec<Cursor>,
    pending: VecDeque<PendingTask>,
    completed: WaitingMatches,
    /// Trace ids whose candidates were evicted; the sink is told to drop
    /// their templates at the next forwarding opportunity (eviction runs
    /// inside `ingest`, which has no sink at hand).
    retired_traces: Vec<TraceId>,
    scoring: ScoringConfig,   // snapshot: derived (from Config)
    capacity: CapacityConfig, // snapshot: derived (from Config)
    min_len: usize,           // snapshot: derived (from Config)
    max_piece: usize,         // snapshot: derived (from Config)
    next_trace: u32,
    /// Global index of the next arriving task.
    now: u64,
    stats: ReplayerStats,
    /// Minimum `start` over `completed` (`u64::MAX` when empty): with
    /// the cursor ordering invariant, all `decide` needs to prove a
    /// verdict blocked and to bound the flushable prefix.
    min_completed_start: u64, // snapshot: derived
    /// Test oracle: take the frozen pre-optimization step and route
    /// `decide` through full scans.
    #[cfg(test)]
    naive_decide: bool, // snapshot: derived
    /// Double-buffer scratch swapped with `cursors` each step, so the
    /// steady states never allocate a survivor vector.
    scratch_cursors: Vec<Cursor>, // snapshot: derived
    /// Reusable scratch collections for `enforce_capacity` (the hot
    /// ingest path must not rebuild them per call).
    scratch_cursor_nodes: HashSet<NodeId>, // snapshot: derived
    scratch_ranked: Vec<(f64, u32)>, // snapshot: derived
    scratch_dead: HashSet<NodeId>,   // snapshot: derived
}

impl TraceReplayer {
    /// Creates a replayer from a configuration.
    pub fn new(config: &Config) -> Self {
        Self {
            trie: Trie::new(),
            meta: Vec::new(),
            cursors: Vec::new(),
            pending: VecDeque::new(),
            completed: WaitingMatches::default(),
            retired_traces: Vec::new(),
            scoring: config.scoring,
            capacity: config.capacity,
            min_len: config.min_trace_length,
            max_piece: config.effective_max_len(),
            next_trace: 0,
            now: 0,
            stats: ReplayerStats::default(),
            min_completed_start: u64::MAX,
            #[cfg(test)]
            naive_decide: false,
            scratch_cursors: Vec::new(),
            scratch_cursor_nodes: HashSet::new(),
            scratch_ranked: Vec::new(),
            scratch_dead: HashSet::new(),
        }
    }

    /// Ingests mined candidates: splits them into pieces of at most
    /// `max_trace_length` tokens (Figure 8) and registers each piece, then
    /// enforces the [`CapacityConfig`] bounds by score-based eviction.
    pub fn ingest(&mut self, batch: &MinedBatch) {
        for cand in &batch.candidates {
            let mut offset = 0usize;
            while offset < cand.content.len() {
                let end = (offset + self.max_piece).min(cand.content.len());
                let piece = &cand.content[offset..end];
                if let Some(id) =
                    (piece.len() >= self.min_len.max(1)).then(|| self.trie.insert(piece)).flatten()
                {
                    let idx = id.0 as usize;
                    if self.meta.len() <= idx {
                        self.meta.resize_with(idx + 1, CandidateMeta::default);
                    }
                    let m = &mut self.meta[idx];
                    m.len = piece.len();
                    m.count = m.count.saturating_add(cand.occurrences.len() as u32);
                    let occ_end = cand
                        .occurrences
                        .iter()
                        .map(|&o| o.saturating_add(end as u64))
                        .max()
                        .unwrap_or(0);
                    m.last_seen = m.last_seen.max(occ_end.min(batch.slice_end));
                } else {
                    // `insert` rejects only empty pieces, which the
                    // `min_len.max(1)` guard already filtered out.
                    debug_assert!(
                        piece.len() < self.min_len.max(1),
                        "non-empty piece rejected by the trie"
                    );
                }
                offset = end;
            }
        }
        self.stats.peak_meta_capacity = self.stats.peak_meta_capacity.max(self.meta.len());
        // Node peak samples *before* enforcement (the true allocation
        // high-water, including the transient a big batch causes);
        // candidate peak samples *after* (the live-set high-water the
        // `max_candidates` bound guarantees).
        self.stats.peak_trie_nodes =
            self.stats.peak_trie_nodes.max(self.trie.allocated_node_count());
        self.enforce_capacity();
        self.stats.peak_candidates = self.stats.peak_candidates.max(self.trie.candidate_count());
        self.stats.candidates = self.trie.candidate_count();
        self.stats.peak_trie_bytes = self.stats.peak_trie_bytes.max(self.trie_bytes());
    }

    /// The candidate store's current footprint under the deterministic
    /// byte model backing [`CapacityConfig::max_trie_bytes`]: a flat
    /// [`TRIE_NODE_FOOTPRINT`] per live node plus the stored candidate
    /// contents. A *model*, not an allocator measurement — it is a pure
    /// function of the live structure, so control-replicated nodes (§5.1)
    /// agree on it and evict identically, and a snapshot restores to the
    /// same figure.
    pub fn trie_bytes(&self) -> usize {
        self.trie.node_count() * TRIE_NODE_FOOTPRINT + self.content_bytes()
    }

    /// Bytes of stored candidate content. The trie keeps the token total
    /// running, so capacity enforcement can ask once per eviction without
    /// re-summing the candidate table.
    fn content_bytes(&self) -> usize {
        self.trie.content_tokens() * std::mem::size_of::<TaskHash>()
    }

    /// Like [`Self::trie_bytes`] but charging *allocated* node slots
    /// (live + free-listed) — the figure compaction exists to shrink.
    fn trie_allocated_bytes(&self) -> usize {
        self.trie.allocated_node_count() * TRIE_NODE_FOOTPRINT + self.content_bytes()
    }

    /// Whether the trie currently exceeds a configured bound.
    fn over_capacity(&self) -> bool {
        self.capacity.max_candidates.is_some_and(|m| self.trie.candidate_count() > m)
            || self.capacity.max_trie_nodes.is_some_and(|m| self.trie.node_count() > m)
            || self.capacity.max_trie_bytes.is_some_and(|m| self.trie_bytes() > m)
    }

    /// Evicts lowest-scoring candidates until the [`CapacityConfig`]
    /// bounds hold, then compacts the trie if the free list dominates.
    ///
    /// Deterministic by construction: ranking uses the §4.3 score at the
    /// current stream position with candidate-id tie-breaks, and the
    /// deferral sets (pending matches, live-cursor paths) are functions of
    /// the deterministic ingest/replay stream — so control-replicated
    /// nodes evict in lock-step.
    fn enforce_capacity(&mut self) {
        if !self.over_capacity() {
            return;
        }
        // All working collections are taken from reusable scratch fields
        // and returned below: capacity enforcement sits on the ingest hot
        // path and must not rebuild them per call.
        let mut cursor_nodes = std::mem::take(&mut self.scratch_cursor_nodes);
        cursor_nodes.clear();
        cursor_nodes.extend(self.cursors.iter().map(|c| c.node));
        let mut ranked = std::mem::take(&mut self.scratch_ranked);
        ranked.clear();
        ranked.extend(
            (0..self.trie.candidate_slots() as u32)
                .filter(|&i| self.trie.is_live(CandidateId(i)))
                .map(|i| (self.score(CandidateId(i), self.now), i)),
        );
        // Lowest score evicts first; ties evict the newer (higher) id.
        ranked.sort_by(|a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal).then_with(|| b.1.cmp(&a.1))
        });
        for &(_, idx) in &ranked {
            if !self.over_capacity() {
                break;
            }
            let id = CandidateId(idx);
            // Its in-flight occurrence awaits a replay decision.
            if self.completed.has(id) {
                continue;
            }
            if !cursor_nodes.is_empty()
                && self
                    .trie
                    .path_nodes(id)
                    .is_some_and(|p| p.iter().any(|n| cursor_nodes.contains(n)))
            {
                continue;
            }
            let Some(pruned) = self.trie.remove(id) else {
                // `ranked` was built from live slots and nothing in this
                // loop kills a candidate it has not popped yet.
                debug_assert!(false, "ranked candidate {idx} is dead");
                continue;
            };
            if !pruned.is_empty() && !self.cursors.is_empty() {
                // Deferral keeps cursor-occupied paths alive, so this is
                // defensive: no cursor should ever sit on a pruned node.
                let mut dead = std::mem::take(&mut self.scratch_dead);
                dead.clear();
                dead.extend(pruned);
                self.cursors.retain(|c| !dead.contains(&c.node));
                self.scratch_dead = dead;
            }
            // The template recorded under the candidate's trace id (if
            // any) is unreachable once the candidate is gone; queue it so
            // the sink can drop it too.
            if let Some(tid) = self.meta[idx as usize].trace_id {
                self.retired_traces.push(tid);
            }
            self.meta[idx as usize] = CandidateMeta::default();
            self.stats.evicted_candidates += 1;
        }
        self.scratch_cursor_nodes = cursor_nodes;
        self.scratch_ranked = ranked;
        // Compact when the freed slots matter: either the allocated table
        // exceeds the configured node bound (the bound is about memory,
        // not just live structure) or the free list outweighs the live
        // set. Surviving cursors are remapped to the rebuilt nodes.
        let over_alloc =
            self.capacity.max_trie_nodes.is_some_and(|m| self.trie.allocated_node_count() > m)
                || self.capacity.max_trie_bytes.is_some_and(|m| self.trie_allocated_bytes() > m);
        let mut compacted = false;
        if self.trie.free_node_count() > 0
            && (over_alloc || self.trie.free_node_count() > self.trie.node_count())
        {
            let remap = self.trie.compact();
            // Deferral keeps cursor paths live, so every cursor's node has
            // a slot in the rebuilt trie; a cursor that lost its node
            // anyway is dead weight, not a reason to abort the stream.
            self.cursors.retain_mut(|c| match remap.get(c.node.index()).copied().flatten() {
                Some(node) => {
                    c.node = node;
                    true
                }
                None => {
                    debug_assert!(false, "cursor sits on a compacted-away node");
                    false
                }
            });
            self.stats.trie_compactions += 1;
            compacted = true;
        }
        // Shrink the candidate id space (and the parallel `meta` side
        // table) past the last live candidate: slots are reused, but
        // without this the tables would stay at their historical high
        // water forever (ROADMAP follow-up). Trailing slots are exactly
        // the ones no live id indexes, so truncation never moves a live
        // candidate and stays deterministic across replicated nodes. The
        // backing allocation is released only when a compaction already
        // decided memory matters — never on the routine ingest path.
        let slots = self.trie.truncate_candidates();
        if slots < self.meta.len() {
            // Truncated slots are dead, and a dead candidate has no
            // waiting match (eviction defers while it does).
            self.meta.truncate(slots);
            self.completed.queues.truncate(slots);
            if compacted {
                self.meta.shrink_to_fit();
                self.completed.queues.shrink_to_fit();
            }
        }
    }

    /// Feeds one task through the recognizer, forwarding whatever is ready
    /// to `sink` — the one recognition path; [`Self::on_batch`] is a loop
    /// over it.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error.
    pub fn on_task<S: TraceSink>(
        &mut self,
        desc: TaskDesc,
        hash: TaskHash,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        #[cfg(test)]
        if self.naive_decide {
            return self.on_task_reference(desc, hash, sink);
        }
        self.drain_retired(sink)?;
        // Untraceable steady state: nothing buffered, nothing matching,
        // and no candidate starts with this token (the root map makes the
        // check exact, so the root cursor the slow path would spawn is
        // guaranteed to die without side effects). Forward immediately —
        // no queue traffic, no cursor churn, no allocation.
        if self.cursors.is_empty()
            && self.completed.is_empty()
            && self.pending.is_empty()
            && !self.trie.can_start_with(hash)
        {
            self.now += 1;
            // The slow path buffers the task and flushes it within the
            // same call; mirror the stats it would have recorded.
            self.stats.peak_pending_tasks = self.stats.peak_pending_tasks.max(1);
            self.stats.forwarded_untraced += 1;
            return sink.execute_task(desc);
        }
        self.step(desc, hash, sink)
    }

    /// Feeds a run of tasks through [`Self::on_task`], in order. Drains
    /// `tasks`; the (now empty) vector keeps its capacity for the caller
    /// to refill.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error; the tasks behind it are dropped
    /// with the drained buffer.
    pub fn on_batch<S: TraceSink>(
        &mut self,
        tasks: &mut Vec<(TaskDesc, TaskHash)>,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        tasks.drain(..).try_for_each(|(desc, hash)| self.on_task(desc, hash, sink))
    }

    /// The cursor step, built around reusable scratch buffers: no
    /// allocation once the cursor vectors reach their steady-state
    /// capacity.
    fn step<S: TraceSink>(
        &mut self,
        desc: TaskDesc,
        hash: TaskHash,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        let global = self.now;
        self.now += 1;
        self.pending.push_back(PendingTask { desc, global });
        self.stats.peak_pending_tasks = self.stats.peak_pending_tasks.max(self.pending.len());

        // Advance cursors (including a fresh one starting here) through
        // the reusable double buffer; completions land directly in
        // their candidate's queue.
        let pre_existing = self.cursors.len();
        let mut survivors = std::mem::take(&mut self.scratch_cursors);
        survivors.clear();
        let mut kept = 0usize;
        for idx in 0..=pre_existing {
            let cur = if idx < pre_existing {
                self.cursors[idx]
            } else {
                // Spawn the root cursor only when this token can actually
                // start a candidate — `can_start_with` is exact, so a
                // skipped spawn is one that would have died in `step`.
                if !self.trie.can_start_with(hash) {
                    break;
                }
                Cursor { node: Trie::<TaskHash>::ROOT, start: global }
            };
            if let Some(next) = self.trie.step(cur.node, hash) {
                if let Some(cand) = self.trie.terminal(next) {
                    self.completed.push(cand, cur.start);
                    self.min_completed_start = self.min_completed_start.min(cur.start);
                    let m = &mut self.meta[cand.0 as usize];
                    m.count = m.count.saturating_add(1);
                    m.last_seen = global + 1;
                }
                // Leaf cursors cannot extend further; drop them.
                if !self.trie.is_leaf(next) {
                    survivors.push(Cursor { node: next, start: cur.start });
                    if idx < pre_existing {
                        kept += 1;
                    }
                }
            }
        }
        std::mem::swap(&mut self.cursors, &mut survivors);
        self.scratch_cursors = survivors;

        // `decide` can only act when a match is awaiting a verdict or a
        // cursor death moved the flushable prefix. With no completions
        // pending and every pre-existing cursor surviving, the minimum
        // cursor start is unchanged (a fresh root survivor starts at
        // `global`, past everything buffered), so the replay loop and the
        // prefix flush are both no-ops — skip the whole pass.
        if !self.completed.is_empty() || kept != pre_existing {
            self.decide(sink)?;
        }
        Ok(())
    }

    /// Flushes everything at end of stream: replays any eligible completed
    /// matches, then forwards the rest untraced.
    ///
    /// # Errors
    ///
    /// Propagates the first sink error.
    pub fn flush<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        self.drain_retired(sink)?;
        // No more tokens will arrive: live cursors can never finish.
        self.cursors.clear();
        while let Some(best) = self.best_completed() {
            self.replay(best, sink)?;
        }
        // Each replay dropped what it overlapped; the loop ran the queues dry.
        debug_assert!(self.completed.is_empty() && self.min_completed_start == u64::MAX);
        self.forward_untraced_before(u64::MAX, sink)
    }

    /// Replayer counters.
    pub fn stats(&self) -> ReplayerStats {
        ReplayerStats {
            candidates: self.trie.candidate_count(),
            meta_capacity: self.meta.len(),
            pending_tasks: self.pending.len(),
            trie_bytes: self.trie_bytes(),
            ..self.stats
        }
    }

    /// Number of tasks currently buffered.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Live trie nodes (including the root).
    pub fn trie_node_count(&self) -> usize {
        self.trie.node_count()
    }

    /// Allocated trie node slots (live + free-listed) — the actual memory
    /// footprint between compactions.
    pub fn trie_allocated_nodes(&self) -> usize {
        self.trie.allocated_node_count()
    }

    /// Whether `id` names a live (not evicted) candidate.
    pub fn candidate_live(&self, id: CandidateId) -> bool {
        self.trie.is_live(id)
    }

    /// The score (§4.3) of candidate `cand` as of stream position `now`.
    ///
    /// Never NaN: a degenerate (non-positive) half-life — which
    /// [`Config::validate`](crate::config::Config::validate) rejects but a
    /// struct literal can still produce — degrades to "fresh scores full,
    /// anything stale scores zero" instead of poisoning every comparison.
    pub fn score(&self, cand: CandidateId, now: u64) -> f64 {
        let m = &self.meta[cand.0 as usize];
        let count = m.count.min(self.scoring.count_cap) as f64;
        let staleness = now.saturating_sub(m.last_seen) as f64;
        let half_life = self.scoring.staleness_half_life;
        let decay = if staleness <= 0.0 {
            1.0
        } else if half_life > 0.0 {
            0.5f64.powf(staleness / half_life)
        } else {
            0.0
        };
        let bonus = if m.replays > 0 { 1.0 + self.scoring.replay_bonus } else { 1.0 };
        m.len as f64 * count * decay * bonus
    }

    /// Serializes the replayer's complete dynamic state: the candidate
    /// trie (free lists and tombstones included, so slot recycling
    /// continues identically), the meta table, live cursors, the pending
    /// buffer, completed matches, retired trace ids, and counters.
    /// Configuration-derived fields are rebuilt from the [`Config`] the
    /// snapshot's owner serializes alongside.
    pub fn write_snapshot(&self, w: &mut SnapshotWriter) {
        let snap = self.trie.to_snapshot();
        w.put_seq(&snap.nodes, |w, n| {
            w.put_seq(&n.sorted_children, |w, (tok, child)| {
                w.put_u64(tok.0);
                w.put_u32(*child);
            });
            w.put_opt_u32(n.terminal);
            w.put_u32(n.depth);
            w.put_u32(n.subtree_max);
        });
        w.put_seq(&snap.lengths, |w, l| w.put_u32(*l));
        w.put_seq(&snap.contents, |w, c| w.put_seq(c, |w, h| w.put_u64(h.0)));
        w.put_seq(&snap.free_nodes, |w, n| w.put_u32(*n));
        w.put_seq(&snap.free_candidates, |w, c| w.put_u32(*c));
        w.put_seq(&self.meta, |w, m| {
            w.put_opt_u32(m.trace_id.map(|t| t.0));
            w.put_u32(m.count);
            w.put_u64(m.last_seen);
            w.put_u64(m.replays);
            w.put_len(m.len);
        });
        w.put_seq(&self.cursors, |w, c| {
            w.put_len(c.node.index());
            w.put_u64(c.start);
        });
        w.put_deque(&self.pending, |w, p| {
            p.desc.snapshot(w);
            w.put_u64(p.global);
        });
        // The order the recognizer minted them in — ascending `end`, then
        // ascending `start` (unique: equal windows are one candidate) — so
        // the image does not depend on how waiting matches are grouped.
        let mut completed: Vec<CompletedMatch> = self.waiting_matches().collect();
        completed.sort_unstable_by_key(|c| (c.end, c.start));
        w.put_seq(&completed, |w, c| {
            w.put_u32(c.cand.0);
            w.put_u64(c.start);
            w.put_u64(c.end);
        });
        w.put_seq(&self.retired_traces, |w, t| w.put_u32(t.0));
        w.put_u32(self.next_trace);
        w.put_u64(self.now);
        let s = &self.stats;
        w.put_u64(s.forwarded_untraced);
        w.put_u64(s.forwarded_traced);
        w.put_u64(s.traces_issued);
        w.put_u64(s.evicted_candidates);
        w.put_u64(s.trie_compactions);
        w.put_len(s.peak_candidates);
        w.put_len(s.peak_trie_nodes);
        w.put_len(s.peak_meta_capacity);
        w.put_len(s.peak_pending_tasks);
        w.put_len(s.peak_trie_bytes);
    }

    /// Rebuilds a replayer from `config` plus the state captured by
    /// [`Self::write_snapshot`]. The restored replayer makes every future
    /// match, replay, and eviction decision exactly as the original would
    /// have.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on truncated or structurally impossible input
    /// (broken trie invariants, a candidate table out of step with the
    /// trie, out-of-range, out-of-window or misordered cursors, completed
    /// matches that are dead, out of window, not as long as their
    /// candidate, out of order or listed twice).
    pub fn restore_snapshot(
        config: &Config,
        r: &mut SnapshotReader<'_>,
    ) -> Result<Self, SnapshotError> {
        let nodes = r.get_seq(|r| {
            Ok(NodeSnapshot {
                sorted_children: r.get_seq(|r| Ok((TaskHash(r.get_u64()?), r.get_u32()?)))?,
                terminal: r.get_opt_u32()?,
                depth: r.get_u32()?,
                subtree_max: r.get_u32()?,
            })
        })?;
        let snap = TrieSnapshot {
            nodes,
            lengths: r.get_seq(|r| r.get_u32())?,
            contents: r.get_seq(|r| r.get_seq(|r| Ok(TaskHash(r.get_u64()?))))?,
            free_nodes: r.get_seq(|r| r.get_u32())?,
            free_candidates: r.get_seq(|r| r.get_u32())?,
        };
        let trie = Trie::from_snapshot(snap).map_err(SnapshotError::Corrupt)?;
        let mut replayer = TraceReplayer::new(config);
        let node_bound = trie.allocated_node_count();
        replayer.trie = trie;
        replayer.meta = r.get_seq(|r| {
            Ok(CandidateMeta {
                trace_id: r.get_opt_u32()?.map(TraceId),
                count: r.get_u32()?,
                last_seen: r.get_u64()?,
                replays: r.get_u64()?,
                len: r.get_len()?,
            })
        })?;
        // `meta` mirrors the trie's candidate slots (scores and the byte
        // model read lengths from either side interchangeably).
        let mirrored = replayer.meta.len() == replayer.trie.candidate_slots()
            && (replayer.meta.iter().zip(0u32..))
                .all(|(m, i)| m.len == replayer.trie.candidate_len(CandidateId(i)));
        if !mirrored {
            return Err(SnapshotError::Corrupt("candidate table disagrees with the trie".into()));
        }
        replayer.cursors = r.get_seq(|r| {
            let node = r.get_len()?;
            if node >= node_bound {
                return Err(SnapshotError::Corrupt("cursor node out of range".into()));
            }
            Ok(Cursor { node: NodeId::from_index(node), start: r.get_u64()? })
        })?;
        replayer.pending =
            r.get_deque(|r| Ok(PendingTask { desc: TaskDesc::restore(r)?, global: r.get_u64()? }))?;
        let completed = r.get_seq(|r| {
            Ok(CompletedMatch {
                cand: CandidateId(r.get_u32()?),
                start: r.get_u64()?,
                end: r.get_u64()?,
            })
        })?;
        for c in &completed {
            if (c.cand.0 as usize) >= replayer.meta.len() || !replayer.trie.is_live(c.cand) {
                return Err(SnapshotError::Corrupt(
                    "completed match names a dead candidate".into(),
                ));
            }
        }
        replayer.retired_traces = r.get_seq(|r| Ok(TraceId(r.get_u32()?)))?;
        replayer.next_trace = r.get_u32()?;
        replayer.now = r.get_u64()?;
        // Replay's queue pops are total only because the pending buffer is
        // a contiguous run of global indices ending just before `now`,
        // with every completed-match window inside that run. A live
        // engine maintains this by construction; a snapshot merely claims
        // it, so verify the claim instead of panicking mid-replay later.
        let mut expect = replayer.pending.front().map(|p| p.global);
        for p in &replayer.pending {
            if Some(p.global) != expect {
                return Err(SnapshotError::Corrupt("pending globals are not contiguous".into()));
            }
            expect = p.global.checked_add(1);
        }
        if replayer.pending.back().is_some_and(|b| b.global.checked_add(1) != Some(replayer.now)) {
            return Err(SnapshotError::Corrupt("pending buffer does not end at `now`".into()));
        }
        let window_lo = replayer.pending.front().map_or(replayer.now, |p| p.global);
        // A window must also *be* an occurrence of its candidate — as long
        // as the candidate — or its replay would bracket the wrong tasks
        // under the candidate's trace id; and the per-candidate queues
        // rely on the order `write_snapshot` emits (strictly ascending
        // `(end, start)`, which also rules out a match listed twice).
        let mut prev = None;
        for c in &completed {
            if c.start < window_lo || c.end > replayer.now || c.start >= c.end {
                return Err(SnapshotError::Corrupt(
                    "completed match window outside the pending buffer".into(),
                ));
            }
            if c.end - c.start != replayer.trie.candidate_len(c.cand) as u64 {
                return Err(SnapshotError::Corrupt(
                    "completed match is not as long as its candidate".into(),
                ));
            }
            if prev >= Some((c.end, c.start)) {
                return Err(SnapshotError::Corrupt(
                    "completed matches out of order or listed twice".into(),
                ));
            }
            prev = Some((c.end, c.start));
            replayer.completed.push(c.cand, c.start);
        }
        // `decide` reads the oldest cursor off `cursors[0]` and flushes the
        // prefix before it: an image with cursors out of order (or starting
        // outside the buffered window) would replay or flush wrongly
        // without ever tripping a bounds check.
        let ascending = replayer.cursors.windows(2).all(|w| w[0].start < w[1].start);
        let inside =
            replayer.cursors.iter().all(|c| window_lo <= c.start && c.start < replayer.now);
        if !ascending || !inside {
            return Err(SnapshotError::Corrupt(
                "cursors not ascending inside the pending buffer".into(),
            ));
        }
        replayer.min_completed_start = replayer.completed.min_start();
        replayer.stats = ReplayerStats {
            forwarded_untraced: r.get_u64()?,
            forwarded_traced: r.get_u64()?,
            traces_issued: r.get_u64()?,
            candidates: replayer.trie.candidate_count(),
            evicted_candidates: r.get_u64()?,
            trie_compactions: r.get_u64()?,
            peak_candidates: r.get_len()?,
            peak_trie_nodes: r.get_len()?,
            meta_capacity: replayer.meta.len(),
            peak_meta_capacity: r.get_len()?,
            pending_tasks: replayer.pending.len(),
            peak_pending_tasks: r.get_len()?,
            trie_bytes: 0,
            peak_trie_bytes: r.get_len()?,
        };
        replayer.stats.trie_bytes = replayer.trie_bytes();
        Ok(replayer)
    }

    /// Tells the sink to drop templates whose candidates were evicted
    /// since the last forwarding opportunity.
    fn drain_retired<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        for tid in std::mem::take(&mut self.retired_traces) {
            sink.forget_trace(tid)?;
        }
        Ok(())
    }

    /// Drives flush/replay decisions after each arrival.
    fn decide<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        #[cfg(test)]
        if self.naive_decide {
            return self.decide_by_full_scan(sink);
        }
        debug_assert!(self.cursors.windows(2).all(|w| w[0].start < w[1].start));
        debug_assert_eq!(self.min_completed_start, self.min_start_by_scan());
        while !self.completed.is_empty() {
            let oracle = if cfg!(debug_assertions) { self.verdict_by_full_scan() } else { None };
            // The oldest cursor starts at or before every waiting match,
            // so it blocks whichever of them is best: no scoring needed.
            if self.cursors.first().is_some_and(|c| c.start <= self.min_completed_start) {
                debug_assert!(oracle.is_some_and(|(_, blocked)| blocked));
                break;
            }
            let Some(best) = self.best_completed() else { break };
            let blocked = self.blocks(best);
            debug_assert_eq!(oracle, Some((best, blocked)));
            if blocked {
                break;
            }
            self.replay(best, sink)?;
        }
        // Flush the prefix no potential match can cover any more.
        let keep_from =
            self.cursors.first().map_or(self.now, |c| c.start).min(self.min_completed_start);
        debug_assert_eq!(keep_from, self.keep_from_by_scan());
        self.forward_untraced_before(keep_from, sink)
    }

    /// Whether a live cursor justifies deferring `best` (the paper's
    /// `SelectReplayTrace(D, P, A)` consults the active pointers A):
    ///
    /// * a cursor whose match would start at or before the best match may
    ///   complete an overlapping, better candidate;
    /// * a cursor that started inside the best match and can still grow
    ///   into something *longer* would be killed by replaying now — e.g. a
    ///   short phase-shifted candidate must not permanently lock out the
    ///   long multi-iteration trace whose occurrences straddle it.
    ///
    /// Deferral is abandoned once the pending queue exceeds twice the
    /// longest candidate, bounding buffering even on streams that keep
    /// cursors alive indefinitely.
    fn blocks(&self, best: CompletedMatch) -> bool {
        let patient = self.pending.len() < 2 * self.trie.max_candidate_len();
        let best_len = (best.end - best.start) as usize;
        // Ascending starts: cursors from `best.end` on cannot block.
        self.cursors.iter().take_while(|c| c.start < best.end).any(|c| {
            c.start <= best.start || (patient && self.trie.potential_len(c.node) > best_len)
        })
    }

    /// §4.3 preference among waiting matches: higher score, then longer,
    /// then earlier start.
    fn rank(a: (f64, CompletedMatch), b: (f64, CompletedMatch)) -> std::cmp::Ordering {
        (a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal))
            .then_with(|| (a.1.end - a.1.start).cmp(&(b.1.end - b.1.start)))
            .then_with(|| b.1.start.cmp(&a.1.start))
    }

    /// The waiting match starting at `start`: `cand`'s length fixes its end.
    fn window(&self, cand: CandidateId, start: u64) -> CompletedMatch {
        CompletedMatch { cand, start, end: start + self.meta[cand.0 as usize].len as u64 }
    }

    /// Every waiting match — for the snapshot and the full-scan oracles;
    /// the recognition path only ever looks at the queue fronts.
    fn waiting_matches(&self) -> impl Iterator<Item = CompletedMatch> + '_ {
        self.completed.iter().map(|(cand, start)| self.window(cand, start))
    }

    /// Highest-ranking completed match: the best of the queue fronts (see
    /// [`WaitingMatches`]), so one match examined and one `score()` per
    /// candidate with a waiting match, however many wait behind it.
    fn best_completed(&self) -> Option<CompletedMatch> {
        let fronts = self.completed.fronts().map(|(cand, start)| {
            #[cfg(test)]
            tests::count_examined_match();
            (self.score(cand, self.now), self.window(cand, start))
        });
        fronts.max_by(|&a, &b| Self::rank(a, b)).map(|(_, m)| m)
    }

    /// The verdict as the pre-shortcut replayer reached it — every
    /// waiting match scored, every cursor consulted — kept as the oracle
    /// debug builds (and the test-only naive `decide`) check the O(1)
    /// verdict against. Returns the best match and whether it is blocked.
    fn verdict_by_full_scan(&self) -> Option<(CompletedMatch, bool)> {
        let scored = self.waiting_matches().map(|m| (self.score(m.cand, self.now), m));
        let (_, best) = scored.max_by(|&a, &b| Self::rank(a, b))?;
        let patience = 2 * self.trie.max_candidate_len();
        let best_len = (best.end - best.start) as usize;
        let blocked = self.cursors.iter().any(|c| {
            c.start <= best.start
                || (c.start < best.end
                    && self.trie.potential_len(c.node) > best_len
                    && self.pending.len() < patience)
        });
        Some((best, blocked))
    }

    fn min_start_by_scan(&self) -> u64 {
        self.completed.iter().map(|(_, start)| start).min().unwrap_or(u64::MAX)
    }

    fn keep_from_by_scan(&self) -> u64 {
        let starts = self.cursors.iter().map(|c| c.start);
        starts.chain(self.completed.iter().map(|(_, start)| start)).min().unwrap_or(self.now)
    }

    /// `decide` by full scans only: the oracle the shortcut proptests pin
    /// events, stats and digests against.
    #[cfg(test)]
    fn decide_by_full_scan<S: TraceSink>(&mut self, sink: &mut S) -> Result<(), S::Error> {
        while let Some((best, false)) = self.verdict_by_full_scan() {
            self.replay(best, sink)?;
        }
        self.forward_untraced_before(self.keep_from_by_scan(), sink)
    }

    /// The frozen pre-optimization recognizer step, kept verbatim as the
    /// reference implementation the proptests pin [`Self::on_task`]
    /// against.
    #[cfg(test)]
    fn on_task_reference<S: TraceSink>(
        &mut self,
        desc: TaskDesc,
        hash: TaskHash,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        self.drain_retired(sink)?;
        let global = self.now;
        self.now += 1;
        self.pending.push_back(PendingTask { desc, global });
        self.stats.peak_pending_tasks = self.stats.peak_pending_tasks.max(self.pending.len());

        // Advance cursors (including a fresh one starting here).
        let mut survivors = Vec::with_capacity(self.cursors.len() + 1);
        let candidates_exist = !self.trie.is_empty();
        let mut all = std::mem::take(&mut self.cursors);
        if candidates_exist {
            all.push(Cursor { node: Trie::<TaskHash>::ROOT, start: global });
        }
        for cur in all {
            if let Some(next) = self.trie.step(cur.node, hash) {
                if let Some(cand) = self.trie.terminal(next) {
                    self.completed.push(cand, cur.start);
                    self.min_completed_start = self.min_completed_start.min(cur.start);
                    let m = &mut self.meta[cand.0 as usize];
                    m.count = m.count.saturating_add(1);
                    m.last_seen = global + 1;
                }
                // Leaf cursors cannot extend further; drop them.
                if !self.trie.is_leaf(next) {
                    survivors.push(Cursor { node: next, start: cur.start });
                }
            }
        }
        self.cursors = survivors;

        self.decide(sink)
    }

    /// Forwards buffered tasks with a global index below `bound` untraced.
    fn forward_untraced_before<S: TraceSink>(
        &mut self,
        bound: u64,
        sink: &mut S,
    ) -> Result<(), S::Error> {
        while self.pending.front().is_some_and(|p| p.global < bound) {
            let Some(p) = self.pending.pop_front() else { break };
            self.stats.forwarded_untraced += 1;
            sink.execute_task(p.desc)?;
        }
        Ok(())
    }

    /// Flushes the prefix before `m`, forwards `m` inside a trace, and
    /// drops state overlapping it.
    fn replay<S: TraceSink>(&mut self, m: CompletedMatch, sink: &mut S) -> Result<(), S::Error> {
        self.forward_untraced_before(m.start, sink)?;
        debug_assert_eq!(
            self.pending.front().map(|p| p.global),
            Some(m.start),
            "match start must head the pending queue"
        );
        // Push the candidate's current utility to the sink before the
        // brackets: a bounded template store ranks its evictions by this
        // shared signal instead of its own replays/LRU heuristic.
        let score = self.score(m.cand, self.now);
        let meta = &mut self.meta[m.cand.0 as usize];
        let tid = *meta.trace_id.get_or_insert_with(|| {
            let t = TraceId(self.next_trace);
            self.next_trace += 1;
            t
        });
        sink.record_trace_score(tid, score)?;
        sink.begin_trace(tid)?;
        for _ in m.start..m.end {
            // Total by construction: matches are minted over buffered
            // tasks, and `restore_snapshot` rejects images whose match
            // windows fall outside the pending run.
            let Some(p) = self.pending.pop_front() else {
                debug_assert!(false, "matched task window outran the pending buffer");
                break;
            };
            self.stats.forwarded_traced += 1;
            sink.execute_task(p.desc)?;
        }
        sink.end_trace(tid)?;
        self.stats.traces_issued += 1;
        self.meta[m.cand.0 as usize].replays += 1;

        // Drop cursors and matches overlapping the consumed interval.
        self.cursors.retain(|c| c.start >= m.end);
        self.completed.drop_before(m.end);
        self.min_completed_start = self.completed.min_start();
        Ok(())
    }
}

#[cfg(test)]
mod tests;
