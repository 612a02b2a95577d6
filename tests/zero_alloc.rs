//! Counting-allocator proof of the allocation-free steady states.
//!
//! The recognize/replay hot paths promise O(1) work *and zero heap
//! traffic* per task once warm, in the two states long runs actually sit
//! in:
//!
//! * **untraceable stream** — nothing buffered, nothing matching, every
//!   token rejected by the trie's dense root map and forwarded straight
//!   to the sink;
//! * **mid-replay** — a single cursor walking a memoized candidate chain
//!   while the pending buffer cycles inside its warmed capacity;
//! * **deferred** — the paper's Figure 1 stream: hundreds of cursors in
//!   lock-step along one long candidate, short prefixes of it completing
//!   all the while and queueing behind a blocked verdict, until one replay
//!   drains them. The per-candidate queues keep their capacity across the
//!   drain, so a warm defer → replay cycle allocates nothing.
//!
//! The runtime underneath keeps the same promise. A drained
//! [`Runtime`] analyses each task into one reused edge buffer, gets that
//! buffer back from the log once the op is digested and simulated, and
//! records or replays each trace into a recycled op list — so fresh
//! tasks and tasks replayed from a warm template allocate nothing either.
//!
//! Mining has a contract of the same kind: a warm synchronous
//! [`TraceFinder`] mining slices within its resident bound allocates
//! inside `record()` exactly the batches it hands back — nothing at all
//! on a stream that holds no repeat.
//!
//! The snapshot envelope reader has a bound of its own: before the digest
//! verifies, it allocates for the bytes that actually arrive, never for
//! the length field's claim.
//!
//! A counting `#[global_allocator]` wrapper measures heap allocations
//! (alloc / alloc_zeroed / realloc, with the bytes each asks for) across
//! thousands of steady-state tasks and asserts the count is exactly zero.
//! Arming and counting are
//! *per-thread* (const-initialized TLS, no destructor, so the allocator
//! may probe it safely): harness threads allocating concurrently — the
//! other test of this file included — cannot pollute the measurement.

use apophenia::{Config, MinedBatch, MinedCandidate, TraceFinder, TraceReplayer, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::convert::Infallible;
use tasksim::ids::{RegionId, TaskKindId, TraceId};
use tasksim::snapshot;
use tasksim::task::{TaskDesc, TaskHash};
use tasksim::{LogRetention, Micros, Runtime, RuntimeConfig};

/// Forwards to the system allocator, counting allocations made by a
/// thread while that thread is armed.
struct CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `size` bytes if this thread is armed.
fn count(size: usize) {
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + size as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Counts heap allocations performed by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    allocated_in(f).0
}

/// Heap allocations performed by `f` on this thread, and the bytes they
/// asked for (a reallocation counts its new size).
fn allocated_in(f: impl FnOnce()) -> (u64, u64) {
    ALLOCS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    ARMED.with(|a| a.set(true));
    f();
    ARMED.with(|a| a.set(false));
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// A sink that discards everything (the replayer's own cost in
/// isolation).
struct NullSink;

impl TraceSink for NullSink {
    type Error = Infallible;

    fn begin_trace(&mut self, _id: TraceId) -> Result<(), Infallible> {
        Ok(())
    }

    fn end_trace(&mut self, _id: TraceId) -> Result<(), Infallible> {
        Ok(())
    }

    fn execute_task(&mut self, _task: TaskDesc) -> Result<(), Infallible> {
        Ok(())
    }
}

/// A bare task: empty region lists, so construction, moves, and drops
/// never touch the heap — every counted allocation is the replayer's.
fn task(kind: u32) -> (TaskDesc, TaskHash) {
    let desc = TaskDesc::new(TaskKindId(kind));
    let hash = desc.semantic_hash();
    (desc, hash)
}

fn motif_batch(kinds: &[u32]) -> MinedBatch {
    MinedBatch {
        job: 0,
        candidates: vec![MinedCandidate {
            content: kinds.iter().map(|&k| task(k).1).collect(),
            occurrences: vec![0],
        }],
        slice_end: 0,
    }
}

#[test]
fn steady_states_are_allocation_free() {
    const MOTIF: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    // `standard()` requires 25-token traces; admit the 8-token motif.
    let config = Config::standard().with_min_trace_length(4);
    let mut sink = NullSink;

    // --- Untraceable stream ---------------------------------------------
    let mut replayer = TraceReplayer::new(&config);
    replayer.ingest(&motif_batch(&MOTIF));
    // Warm up: a few untraceable tokens (distinct kinds, so nothing ever
    // matches the candidate) plus the stats call the loop makes.
    for i in 0..64u32 {
        let (desc, hash) = task(1000 + i);
        replayer.on_task(desc, hash, &mut sink).unwrap();
    }
    let allocs = allocations_in(|| {
        for i in 0..4096u32 {
            let (desc, hash) = task(2000 + i);
            replayer.on_task(desc, hash, &mut sink).unwrap();
        }
    });
    assert_eq!(allocs, 0, "untraceable steady state allocated {allocs} times over 4096 tasks");
    assert_eq!(replayer.stats().traces_issued, 0, "stream was really untraceable");

    // --- Mid-replay ------------------------------------------------------
    let mut replayer = TraceReplayer::new(&config);
    replayer.ingest(&motif_batch(&MOTIF));
    // Warm up: stream the motif until the replayer has issued traces a
    // few times (cursor scratch, pending buffer, and replay memo are all
    // at steady-state capacity afterwards).
    while replayer.stats().traces_issued < 3 {
        for &k in &MOTIF {
            let (desc, hash) = task(k);
            replayer.on_task(desc, hash, &mut sink).unwrap();
        }
    }
    let issued_before = replayer.stats().traces_issued;
    let allocs = allocations_in(|| {
        for _ in 0..512 {
            for &k in &MOTIF {
                let (desc, hash) = task(k);
                replayer.on_task(desc, hash, &mut sink).unwrap();
            }
        }
    });
    assert_eq!(allocs, 0, "mid-replay steady state allocated {allocs} times over 4096 tasks");
    assert_eq!(
        replayer.stats().traces_issued - issued_before,
        512,
        "every measured occurrence replayed"
    );

    // --- Deferred verdicts, then the replay that drains them ---------------
    // A period-3 stream against one long candidate and its short prefixes:
    // every third task spawns a cursor, each completes a short prefix every
    // few steps, and the oldest cursor blocks every verdict until the long
    // candidate completes — 1 200 tasks per cycle, > 1 000 matches waiting.
    const PERIOD: [u32; 3] = [1, 2, 3];
    const LONG: usize = 400;
    let motif = |reps: usize| MinedCandidate {
        content: PERIOD.repeat(reps).iter().map(|&k| task(k).1).collect(),
        occurrences: vec![0],
    };
    let mut replayer = TraceReplayer::new(&config);
    replayer.ingest(&MinedBatch {
        job: 0,
        candidates: [LONG, 2, 4, 8, 16, 32].map(motif).into(),
        slice_end: 0,
    });
    let stream = PERIOD.repeat(LONG);
    let mut cycle = |replayer: &mut TraceReplayer| {
        for &k in &stream {
            let (desc, hash) = task(k);
            replayer.on_task(desc, hash, &mut sink).unwrap();
        }
    };
    // Warm up: one full defer → replay cycle.
    cycle(&mut replayer);
    let warm = replayer.stats();
    assert_eq!((warm.traces_issued, warm.pending_tasks), (1, 0), "one cycle, drained: {warm:?}");
    assert!(warm.peak_pending_tasks > 1000, "verdicts were deferred: {warm:?}");
    let allocs = allocations_in(|| cycle(&mut replayer));
    assert_eq!(allocs, 0, "a warm defer → replay cycle allocated {allocs} times");
    let stats = replayer.stats();
    assert_eq!((stats.traces_issued, stats.pending_tasks), (2, 0), "the measured cycle replayed");
}

/// Task `i` of a stencil-like loop over `regions`: reads one region,
/// writes the next, so every task has edges and every writer retires
/// frontier entries.
fn stencil_task(regions: &[RegionId], i: usize) -> TaskDesc {
    let n = regions.len();
    TaskDesc::new(TaskKindId((i % n) as u32))
        .reads(regions[i % n])
        .writes(regions[(i + 1) % n])
        .gpu_time(Micros(10.0))
}

#[test]
fn drained_runtime_task_path_is_allocation_free() {
    const TRACE_LEN: usize = 16;
    const TASKS: usize = 4096;
    // A window well above the trace length keeps the no-speculation gate
    // harmless, and small enough that the pipeline's bounded clock
    // histories reach their steady size during warmup.
    let mut config = RuntimeConfig::single_node(1).with_log_retention(LogRetention::Drain);
    config.window = 64;
    let mut rt = Runtime::new(config);
    let regions: Vec<RegionId> = (0..4).map(|_| rt.create_region(1)).collect();
    // Tasks are built before each measurement: their requirement lists
    // are the caller's allocations, not the runtime's.
    let stream = |n: usize| (0..n).map(|i| stencil_task(&regions, i)).collect::<Vec<_>>();

    // --- Untraced --------------------------------------------------------
    for task in stream(1024) {
        rt.execute_task(task).unwrap();
    }
    let tasks = stream(TASKS);
    let allocs = allocations_in(|| {
        for task in tasks {
            rt.execute_task(task).unwrap();
        }
    });
    assert_eq!(allocs, 0, "untraced drained runtime allocated {allocs} times over {TASKS} tasks");
    assert_eq!(rt.stats().tasks_fresh, (1024 + TASKS) as u64);

    // --- Mid-replay of a warm template ------------------------------------
    let id = TraceId(1);
    let cycle = |rt: &mut Runtime, tasks: &mut std::vec::IntoIter<TaskDesc>| {
        rt.begin_trace(id).unwrap();
        for task in tasks.take(TRACE_LEN) {
            rt.execute_task(task).unwrap();
        }
        rt.end_trace(id).unwrap();
    };
    // Warm up: record once, then replay until every buffer has its size.
    let mut warm = stream(8 * TRACE_LEN).into_iter();
    for _ in 0..8 {
        cycle(&mut rt, &mut warm);
    }
    assert_eq!((rt.stats().traces_recorded, rt.stats().trace_replays), (1, 7));
    let mut tasks = stream(TASKS).into_iter();
    let allocs = allocations_in(|| {
        for _ in 0..TASKS / TRACE_LEN {
            cycle(&mut rt, &mut tasks);
        }
    });
    assert_eq!(allocs, 0, "mid-replay drained runtime allocated {allocs} times over {TASKS} tasks");
    let stats = rt.stats();
    assert_eq!(stats.trace_replays, 7 + (TASKS / TRACE_LEN) as u64, "every cycle replayed");
    assert_eq!(stats.tasks_replayed, (7 * TRACE_LEN + TASKS) as u64);
    assert_eq!(stats.mismatches, 0);
}

/// Feeds `tokens` to `finder`, polling after every token the way the
/// engine does; returns each mined batch with the allocations made
/// inside the `record()` call that mined it. With `warm` set, a
/// `record()` that mines nothing must allocate nothing.
fn record_all(
    finder: &mut TraceFinder,
    tokens: impl Iterator<Item = u64>,
    warm: bool,
) -> Vec<(u64, MinedBatch)> {
    let mut mined = Vec::new();
    for t in tokens {
        let allocs = allocations_in(|| finder.record(TaskHash(t)));
        let batches = finder.poll_completed();
        assert!(batches.len() <= 1, "inline mining: one job per token at most");
        assert!(!warm || allocs == 0 || batches.len() == 1, "only mining allocates");
        mined.extend(batches.into_iter().map(|b| (allocs, b)));
    }
    mined
}

/// Allocations a batch's own values account for: one vector for a
/// non-empty candidate list, and per candidate its content and its
/// occurrences.
fn returned(batch: &MinedBatch) -> u64 {
    let n = batch.candidates.len() as u64;
    if n == 0 {
        0
    } else {
        1 + 2 * n
    }
}

/// A token no other index maps to (and none of the small ones below).
fn unique(i: u64) -> u64 {
    i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1 << 63
}

/// Every other token drawn from seven: plenty of repeated tokens, so the
/// count of distinct ones cannot refute a repeat and the suffix and LCP
/// arrays are built — but no two suffixes share even two tokens.
fn interleaved(i: u64) -> u64 {
    if i.is_multiple_of(2) {
        unique(i)
    } else {
        i / 2 % 7
    }
}

fn periodic(i: u64) -> u64 {
    unique(i % 159)
}

#[test]
fn warm_mining_allocates_only_what_it_returns() {
    // (name, stream, whether it holds repeats). On the all-distinct
    // stream the kernel leaves after counting distinct tokens.
    type Stream = fn(u64) -> u64;
    let streams: [(&str, Stream, bool); 3] = [
        ("all-distinct", unique, false),
        ("interleaved", interleaved, false),
        ("period-159", periodic, true),
    ];

    // --- Every job within the resident bound ----------------------------
    // The artifact's schedule (an analysis every 500 tokens over a
    // ruler-sampled suffix, traces ≥ 25) over a 1 000-token buffer: no
    // slice exceeds twice the granularity, so every job runs in the
    // finder's persistent workspace and the kernel allocates nothing.
    let config = Config::standard().with_batch_size(1000);
    for (name, stream, repeats) in streams {
        let mut finder = TraceFinder::new(&config);
        record_all(&mut finder, (0..3_000).map(stream), false);
        let mined = record_all(&mut finder, (3_000..15_000).map(stream), true);
        assert!(mined.len() >= 20, "{name}: {} jobs", mined.len());
        assert_eq!(mined.iter().any(|(_, b)| !b.candidates.is_empty()), repeats, "{name}");
        for (allocs, batch) in &mined {
            assert_eq!(*allocs, returned(batch), "{name}: job {} allocated of its own", batch.job);
        }
    }

    // --- The standard 5 000-token buffer ---------------------------------
    // Slices longer than the resident bound are mined in a workspace of
    // their own: a bounded number of allocations, however long the
    // slice, and the persistent workspace stays warm in between.
    let config = Config::standard();
    for (name, stream, _) in streams {
        let mut finder = TraceFinder::new(&config);
        record_all(&mut finder, (0..12_000).map(stream), false);
        let mined = record_all(&mut finder, (12_000..24_000).map(stream), true);
        assert!(mined.len() >= 20, "{name}: {} jobs", mined.len());
        for (allocs, batch) in &mined {
            // The ruler: job k (from 1) mines the last 500 · 2^tz(k) tokens.
            let slice = 500usize << (batch.job + 1).trailing_zeros();
            let own = allocs - returned(batch);
            if slice <= 1000 {
                assert_eq!(own, 0, "{name}: resident job {} ({slice} tokens)", batch.job);
            } else {
                assert!(
                    (1..=16).contains(&own),
                    "{name}: job {} ({slice} tokens): {own}",
                    batch.job
                );
            }
        }
    }
}

#[test]
fn lying_envelope_length_is_not_trusted_with_an_allocation() {
    // A header claiming a 1 TiB payload, followed by 10 bytes: the reader
    // allocates for what arrives (1 MiB at first), not for the claim.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&snapshot::MAGIC);
    bytes.extend_from_slice(&snapshot::FORMAT_VERSION.to_le_bytes());
    bytes.push(snapshot::FRONT_END_AUTO);
    bytes.extend_from_slice(&(1u64 << 40).to_le_bytes());
    bytes.extend_from_slice(&[0xa5; 10]);
    let mut result = None;
    let (_, allocated) =
        allocated_in(|| result = Some(snapshot::read_envelope(&mut bytes.as_slice())));
    assert_eq!(result, Some(Err(snapshot::SnapshotError::Truncated)));
    assert!(allocated < 2 << 20, "allocated {allocated} bytes for a 10-byte payload");
}
