use super::*;
use crate::finder::MinedCandidate;
use std::cell::Cell;
use std::convert::Infallible;

thread_local! {
    /// `score()` evaluations made by `best_completed` on this thread.
    static SCORE_EVALS: Cell<u64> = const { Cell::new(0) };
    /// Waiting matches `best_completed` looked at on this thread.
    static MATCHES_EXAMINED: Cell<u64> = const { Cell::new(0) };
}

/// `best_completed` looked at one waiting match, and scored it.
pub(super) fn count_examined_match() {
    MATCHES_EXAMINED.with(|n| n.set(n.get() + 1));
    SCORE_EVALS.with(|n| n.set(n.get() + 1));
}

/// Records the forwarded event stream.
#[derive(Debug, Default)]
struct EventSink {
    events: Vec<Event>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Begin(TraceId),
    End(TraceId),
    Task(TaskHash),
    Forget(TraceId),
}

impl TraceSink for EventSink {
    type Error = Infallible;

    fn begin_trace(&mut self, id: TraceId) -> Result<(), Infallible> {
        self.events.push(Event::Begin(id));
        Ok(())
    }

    fn end_trace(&mut self, id: TraceId) -> Result<(), Infallible> {
        self.events.push(Event::End(id));
        Ok(())
    }

    fn execute_task(&mut self, task: TaskDesc) -> Result<(), Infallible> {
        self.events.push(Event::Task(task.semantic_hash()));
        Ok(())
    }

    fn forget_trace(&mut self, id: TraceId) -> Result<(), Infallible> {
        self.events.push(Event::Forget(id));
        Ok(())
    }
}

fn task(k: u32) -> TaskDesc {
    TaskDesc::new(tasksim::ids::TaskKindId(k))
}

fn hash(k: u32) -> TaskHash {
    task(k).semantic_hash()
}

fn cfg(min: usize) -> Config {
    Config::standard().with_min_trace_length(min)
}

fn batch_of(contents: &[&[u32]]) -> MinedBatch {
    MinedBatch {
        job: 0,
        candidates: contents
            .iter()
            .map(|c| MinedCandidate {
                content: c.iter().map(|&k| hash(k)).collect(),
                occurrences: vec![0],
            })
            .collect(),
        slice_end: 0,
    }
}

fn feed(r: &mut TraceReplayer, sink: &mut EventSink, kinds: &[u32]) {
    for &k in kinds {
        r.on_task(task(k), hash(k), sink).unwrap();
    }
}

#[test]
fn no_candidates_passthrough_immediately() {
    let mut r = TraceReplayer::new(&cfg(2));
    let mut s = EventSink::default();
    feed(&mut r, &mut s, &[1, 2, 3]);
    assert_eq!(r.pending_len(), 0, "nothing buffers without candidates");
    assert_eq!(s.events.len(), 3);
    assert!(s.events.iter().all(|e| matches!(e, Event::Task(_))));
}

#[test]
fn match_is_bracketed_in_trace() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&batch_of(&[&[1, 2, 3]]));
    let mut s = EventSink::default();
    feed(&mut r, &mut s, &[9, 1, 2, 3, 8]);
    r.flush(&mut s).unwrap();
    let expect = vec![
        Event::Task(hash(9)),
        Event::Begin(TraceId(0)),
        Event::Task(hash(1)),
        Event::Task(hash(2)),
        Event::Task(hash(3)),
        Event::End(TraceId(0)),
        Event::Task(hash(8)),
    ];
    assert_eq!(s.events, expect);
    assert_eq!(r.stats().traces_issued, 1);
    assert_eq!(r.stats().forwarded_untraced, 2);
    assert_eq!(r.stats().forwarded_traced, 3);
}

#[test]
fn repeated_matches_reuse_trace_id() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&batch_of(&[&[1, 2]]));
    let mut s = EventSink::default();
    feed(&mut r, &mut s, &[1, 2, 1, 2, 1, 2]);
    r.flush(&mut s).unwrap();
    let begins: Vec<&Event> = s.events.iter().filter(|e| matches!(e, Event::Begin(_))).collect();
    assert_eq!(begins.len(), 3);
    assert!(begins.iter().all(|e| **e == Event::Begin(TraceId(0))));
}

#[test]
fn order_is_always_preserved() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&batch_of(&[&[1, 2], &[3, 4, 5]]));
    let mut s = EventSink::default();
    let stream = [7, 1, 2, 3, 4, 5, 6, 1, 2, 9];
    feed(&mut r, &mut s, &stream);
    r.flush(&mut s).unwrap();
    let tasks: Vec<TaskHash> = s
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Task(h) => Some(*h),
            _ => None,
        })
        .collect();
    let expect: Vec<TaskHash> = stream.iter().map(|&k| hash(k)).collect();
    assert_eq!(tasks, expect, "forwarding preserves program order");
}

#[test]
fn longer_overlapping_candidate_wins() {
    // Trie has both [1,2] and [1,2,3,4]; stream contains the long one.
    // The replayer must defer the short match and replay the long one.
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&batch_of(&[&[1, 2], &[1, 2, 3, 4]]));
    let mut s = EventSink::default();
    feed(&mut r, &mut s, &[1, 2, 3, 4, 9]);
    r.flush(&mut s).unwrap();
    let traced: Vec<&Event> = s
        .events
        .iter()
        .skip_while(|e| !matches!(e, Event::Begin(_)))
        .take_while(|e| !matches!(e, Event::End(_)))
        .collect();
    assert_eq!(traced.len(), 5, "4 tasks + begin inside the trace: {:?}", s.events);
}

#[test]
fn short_candidate_replays_when_long_dies() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&batch_of(&[&[1, 2], &[1, 2, 3, 4]]));
    let mut s = EventSink::default();
    // 1 2 3 9: long candidate dies at 9; short [1,2] must then replay.
    feed(&mut r, &mut s, &[1, 2, 3, 9]);
    r.flush(&mut s).unwrap();
    assert!(
        s.events.contains(&Event::Begin(TraceId(0))),
        "short candidate replayed: {:?}",
        s.events
    );
    // 3 and 9 flushed untraced after the trace.
    assert_eq!(r.stats().forwarded_untraced, 2);
}

#[test]
fn max_trace_length_splits_candidates() {
    let mut r = TraceReplayer::new(&cfg(2).with_max_trace_length(3));
    let long: Vec<u32> = (1..=9).collect();
    let long_ref: Vec<&[u32]> = vec![&long];
    r.ingest(&batch_of(&long_ref));
    assert_eq!(r.stats().candidates, 3, "9-token candidate → three 3-token pieces");
    let mut s = EventSink::default();
    feed(&mut r, &mut s, &[1, 2, 3, 4, 5, 6, 7, 8, 9]);
    r.flush(&mut s).unwrap();
    let begins = s.events.iter().filter(|e| matches!(e, Event::Begin(_))).count();
    assert_eq!(begins, 3, "three piece replays: {:?}", s.events);
}

#[test]
fn min_len_drops_short_pieces() {
    // 7-token candidate, max piece 3, min 3 → pieces 3+3, tail 1 dropped.
    let mut r = TraceReplayer::new(&cfg(3).with_max_trace_length(3));
    let c: Vec<u32> = (1..=7).collect();
    let c_ref: Vec<&[u32]> = vec![&c];
    r.ingest(&batch_of(&c_ref));
    assert_eq!(r.stats().candidates, 2);
}

#[test]
fn score_decays_with_staleness() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&MinedBatch {
        job: 0,
        candidates: vec![MinedCandidate {
            content: vec![hash(1), hash(2)],
            occurrences: vec![0, 2, 4],
        }],
        slice_end: 6,
    });
    let id = CandidateId(0);
    let fresh = r.score(id, 6);
    let stale = r.score(id, 6 + 100_000);
    assert!(fresh > 0.0);
    assert!(stale < fresh * 0.01, "stale score {stale} vs fresh {fresh}");
}

#[test]
fn score_caps_count() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&MinedBatch {
        job: 0,
        candidates: vec![MinedCandidate {
            content: vec![hash(1), hash(2)],
            occurrences: (0..100).map(|i| i * 2).collect(),
        }],
        slice_end: 200,
    });
    let score = r.score(CandidateId(0), 200);
    // len 2 × cap 16 = 32 maximum (no decay at last_seen).
    assert!(score <= 32.0 + 1e-9, "score {score}");
}

#[test]
fn replay_bonus_prefers_replayed() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&batch_of(&[&[1, 2]]));
    let mut s = EventSink::default();
    let before = r.score(CandidateId(0), 0);
    feed(&mut r, &mut s, &[1, 2]);
    r.flush(&mut s).unwrap();
    // After one replay, with equal count/staleness the score carries
    // the bonus. Compare against a manually computed unbonused score.
    let after = r.score(CandidateId(0), r.now);
    assert!(after > before, "replayed candidate scores higher: {after} vs {before}");
}

#[test]
fn reingest_accumulates_count_without_duplicating() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&MinedBatch {
        job: 0,
        candidates: vec![MinedCandidate {
            content: vec![hash(1), hash(2)],
            occurrences: vec![0, 4],
        }],
        slice_end: 8,
    });
    let id = CandidateId(0);
    assert_eq!(r.stats().candidates, 1);
    let first = r.score(id, 8);
    // A later analysis re-mines the same candidate: same id, counts
    // and recency accumulate, nothing duplicates.
    r.ingest(&MinedBatch {
        job: 1,
        candidates: vec![MinedCandidate {
            content: vec![hash(1), hash(2)],
            occurrences: vec![8, 12, 16],
        }],
        slice_end: 20,
    });
    assert_eq!(r.stats().candidates, 1, "re-ingest never duplicates");
    let second = r.score(id, 20);
    // count 2 → 5 at zero staleness: score strictly grows.
    assert!(second > first, "count accumulated: {second} vs {first}");
    // len stays that of the piece (guards against len clobbering).
    let at_cap = r.score(id, 20);
    assert!(at_cap <= 2.0 * 16.0 + 1e-9, "len still 2: {at_cap}");
}

#[test]
fn eviction_drops_lowest_scoring_candidate() {
    let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(2));
    // Three candidates, utility ordered by occurrence count.
    r.ingest(&MinedBatch {
        job: 0,
        candidates: vec![
            MinedCandidate { content: vec![hash(1), hash(2)], occurrences: vec![0, 2, 4] },
            MinedCandidate { content: vec![hash(3), hash(4)], occurrences: vec![6, 8] },
            MinedCandidate { content: vec![hash(5), hash(6)], occurrences: vec![10] },
        ],
        slice_end: 12,
    });
    let s = r.stats();
    assert_eq!(s.candidates, 2, "cap enforced");
    assert_eq!(s.evicted_candidates, 1);
    assert_eq!(s.peak_candidates, 2, "live-set peak respects the cap");
    assert!(!r.candidate_live(CandidateId(2)), "lowest-count candidate evicted");
    assert!(r.candidate_live(CandidateId(0)));
    assert!(r.candidate_live(CandidateId(1)));
    // Survivors still replay; the evicted sequence passes through.
    let mut sink = EventSink::default();
    feed(&mut r, &mut sink, &[5, 6, 1, 2]);
    r.flush(&mut sink).unwrap();
    assert_eq!(r.stats().traces_issued, 1, "only the survivor traced");
}

#[test]
fn eviction_reuses_candidate_slots_cleanly() {
    let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(1));
    r.ingest(&batch_of(&[&[1, 2]]));
    r.ingest(&MinedBatch {
        job: 1,
        candidates: vec![MinedCandidate {
            content: vec![hash(3), hash(4)],
            occurrences: vec![4, 6, 8],
        }],
        slice_end: 10,
    });
    // [1,2] (count 1, stale) evicted; [3,4] reuses its slot with
    // fresh bookkeeping.
    assert_eq!(r.stats().candidates, 1);
    assert_eq!(r.stats().evicted_candidates, 1);
    let mut sink = EventSink::default();
    feed(&mut r, &mut sink, &[1, 2, 3, 4]);
    r.flush(&mut sink).unwrap();
    assert_eq!(r.stats().traces_issued, 1, "recycled slot replays as the new candidate");
    let tasks: Vec<TaskHash> = sink
        .events
        .iter()
        .filter_map(|e| match e {
            Event::Task(h) => Some(*h),
            _ => None,
        })
        .collect();
    assert_eq!(tasks, vec![hash(1), hash(2), hash(3), hash(4)], "order preserved");
}

#[test]
fn eviction_forgets_orphaned_templates() {
    let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(1));
    let mut s = EventSink::default();
    r.ingest(&batch_of(&[&[1, 2]]));
    // Replay once so the candidate carries TraceId(0) and the sink
    // holds a template for it.
    feed(&mut r, &mut s, &[1, 2]);
    assert_eq!(r.stats().traces_issued, 1);
    // A fresher candidate evicts it; the next forwarding opportunity
    // must tell the sink to drop the now-unreachable template.
    r.ingest(&MinedBatch {
        job: 1,
        candidates: vec![MinedCandidate {
            content: vec![hash(3), hash(4)],
            occurrences: vec![4, 6, 8],
        }],
        slice_end: 10,
    });
    feed(&mut r, &mut s, &[9]);
    assert!(
        s.events.contains(&Event::Forget(TraceId(0))),
        "orphaned template forgotten: {:?}",
        s.events
    );
    // Never-replayed evicted candidates (no trace id) emit nothing.
    let forgets = s.events.iter().filter(|e| matches!(e, Event::Forget(_))).count();
    assert_eq!(forgets, 1);
}

#[test]
fn eviction_truncates_meta_tail() {
    let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(1));
    // A hot candidate first, then a cold one: the cold (tail) slot is
    // evicted and the id space + meta table shrink back.
    r.ingest(&MinedBatch {
        job: 0,
        candidates: vec![MinedCandidate {
            content: vec![hash(1), hash(2)],
            occurrences: vec![0, 2, 4, 6],
        }],
        slice_end: 8,
    });
    r.ingest(&MinedBatch {
        job: 1,
        candidates: vec![MinedCandidate { content: vec![hash(3), hash(4)], occurrences: vec![0] }],
        slice_end: 8,
    });
    let s = r.stats();
    assert_eq!(s.candidates, 1);
    assert!(r.candidate_live(CandidateId(0)), "high-score candidate survives");
    assert_eq!(s.peak_meta_capacity, 2, "both slots were allocated");
    assert_eq!(s.meta_capacity, 1, "tombstoned tail slot truncated: {s:?}");
}

#[test]
fn eviction_defers_candidates_with_live_cursors() {
    let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(1));
    r.ingest(&batch_of(&[&[7, 8]]));
    let mut sink = EventSink::default();
    // Start a partial match of [7,8]: a live cursor sits on its path.
    feed(&mut r, &mut sink, &[7]);
    // A fresher, higher-scoring candidate arrives; the cap says evict,
    // but [7,8]'s cursor defers its eviction.
    r.ingest(&MinedBatch {
        job: 1,
        candidates: vec![MinedCandidate {
            content: vec![hash(5), hash(6)],
            occurrences: vec![10, 12, 14],
        }],
        slice_end: 16,
    });
    assert!(r.candidate_live(CandidateId(0)), "cursor-protected candidate survives");
    // The in-progress match completes and replays.
    feed(&mut r, &mut sink, &[8]);
    r.flush(&mut sink).unwrap();
    assert_eq!(r.stats().traces_issued, 1, "deferred candidate completed its match");
}

#[test]
fn trie_node_cap_bounds_memory_and_compacts() {
    let mut r = TraceReplayer::new(&cfg(2).with_max_trie_nodes(16));
    // Waves of disjoint candidates; each wave's staleness makes the
    // previous wave evictable.
    for wave in 0..20u32 {
        let base = wave * 100;
        let content: Vec<TaskHash> = (base..base + 8).map(hash).collect();
        r.ingest(&MinedBatch {
            job: u64::from(wave),
            candidates: vec![MinedCandidate {
                content,
                occurrences: vec![u64::from(wave) * 100, u64::from(wave) * 100 + 8],
            }],
            slice_end: u64::from(wave + 1) * 100,
        });
        assert!(r.trie_node_count() <= 17, "live nodes capped: {}", r.trie_node_count());
    }
    let s = r.stats();
    assert!(s.evicted_candidates > 0);
    assert!(s.trie_compactions > 0, "free list released: {s:?}");
    assert!(
        r.trie_allocated_nodes() <= 2 * 17,
        "allocation tracks the live set: {}",
        r.trie_allocated_nodes()
    );
    assert!(s.peak_trie_nodes < 20 * 8, "peaks stayed far below unbounded growth");
}

#[test]
fn trie_byte_budget_bounds_memory() {
    // Room for roughly two 8-token candidates under the byte model;
    // the third wave must evict the stalest.
    let budget = 2 * (8 * TRIE_NODE_FOOTPRINT + 64) + TRIE_NODE_FOOTPRINT;
    let mut r = TraceReplayer::new(&cfg(2).with_max_trie_bytes(budget));
    for wave in 0..12u32 {
        let base = wave * 100;
        let content: Vec<TaskHash> = (base..base + 8).map(hash).collect();
        r.ingest(&MinedBatch {
            job: u64::from(wave),
            candidates: vec![MinedCandidate {
                content,
                occurrences: vec![u64::from(wave) * 100, u64::from(wave) * 100 + 8],
            }],
            slice_end: u64::from(wave + 1) * 100,
        });
        assert!(r.trie_bytes() <= budget, "live bytes within budget: {}", r.trie_bytes());
    }
    let s = r.stats();
    assert!(s.evicted_candidates > 0, "budget forced evictions: {s:?}");
    assert!(s.peak_trie_bytes <= budget, "post-enforcement peak bounded: {s:?}");
    assert_eq!(s.trie_bytes, r.trie_bytes(), "stats mirror the live figure");
}

#[test]
fn zero_max_trace_length_terminates() {
    // Regression: `end = offset + 0` used to loop `ingest` forever.
    let mut bad = cfg(1);
    bad.max_trace_length = Some(0);
    let mut r = TraceReplayer::new(&bad);
    r.ingest(&batch_of(&[&[1, 2, 3]]));
    assert!(r.stats().candidates <= 3, "split degraded to 1-token pieces");
}

#[test]
fn zero_half_life_scores_stay_finite() {
    // Regression: staleness 0 / half-life 0 used to be NaN, poisoning
    // every `best_completed` comparison.
    let mut bad = cfg(2);
    bad.scoring.staleness_half_life = 0.0;
    let mut r = TraceReplayer::new(&bad);
    r.ingest(&MinedBatch {
        job: 0,
        candidates: vec![MinedCandidate { content: vec![hash(1), hash(2)], occurrences: vec![0] }],
        slice_end: 2,
    });
    let fresh = r.score(CandidateId(0), 2);
    let stale = r.score(CandidateId(0), 100);
    assert!(fresh.is_finite() && fresh > 0.0, "fresh score finite: {fresh}");
    assert_eq!(stale, 0.0, "stale score collapses instead of NaN");
    // And the replayer still replays.
    let mut sink = EventSink::default();
    feed(&mut r, &mut sink, &[1, 2]);
    r.flush(&mut sink).unwrap();
    assert_eq!(r.stats().traces_issued, 1);
}

#[test]
fn snapshot_round_trip_preserves_state_and_counters() {
    let config = cfg(2).with_max_candidates(4);
    let mut r = TraceReplayer::new(&config);
    r.ingest(&batch_of(&[&[1, 2, 3], &[7, 8]]));
    let mut s = EventSink::default();
    // Leave a live cursor and pending tasks at the cut.
    feed(&mut r, &mut s, &[9, 1, 2]);
    assert!(r.pending_len() > 0, "cut mid-match");

    let mut w = SnapshotWriter::new();
    r.write_snapshot(&mut w);
    let payload = w.into_payload();
    let mut reader = SnapshotReader::new(&payload);
    let mut restored = TraceReplayer::restore_snapshot(&config, &mut reader).unwrap();
    reader.expect_end().unwrap();
    assert_eq!(restored.stats(), r.stats());
    assert_eq!(restored.pending_len(), r.pending_len());
    assert_eq!(restored.trie_node_count(), r.trie_node_count());

    // Both finish the match identically.
    let (mut sa, mut sb) = (EventSink::default(), EventSink::default());
    feed(&mut r, &mut sa, &[3, 5]);
    feed(&mut restored, &mut sb, &[3, 5]);
    r.flush(&mut sa).unwrap();
    restored.flush(&mut sb).unwrap();
    assert_eq!(sa.events, sb.events, "continuation is event-for-event identical");
    assert_eq!(r.stats(), restored.stats());
}

#[test]
fn corrupt_replayer_snapshots_rejected() {
    let config = cfg(2);
    let mut r = TraceReplayer::new(&config);
    r.ingest(&batch_of(&[&[1, 2]]));
    let mut s = EventSink::default();
    feed(&mut r, &mut s, &[1]);
    let mut w = SnapshotWriter::new();
    r.write_snapshot(&mut w);
    let payload = w.into_payload();
    // Truncation at any prefix is a typed error, never a panic.
    for cut in [0, 1, payload.len() / 2, payload.len() - 1] {
        let mut reader = SnapshotReader::new(&payload[..cut]);
        assert!(
            TraceReplayer::restore_snapshot(&config, &mut reader).is_err(),
            "truncation at {cut} accepted"
        );
    }
}

#[test]
fn misordered_or_stray_cursors_rejected() {
    let config = cfg(2);
    let mut r = TraceReplayer::new(&config);
    r.ingest(&batch_of(&[&[1, 1, 1, 1]]));
    let mut s = EventSink::default();
    feed(&mut r, &mut s, &[1, 1, 1]);
    assert_eq!(r.cursors.len(), 3, "one cursor per buffered task");
    let restore = |r: &TraceReplayer| {
        let mut w = SnapshotWriter::new();
        r.write_snapshot(&mut w);
        let payload = w.into_payload();
        TraceReplayer::restore_snapshot(&config, &mut SnapshotReader::new(&payload)).map(|_| ())
    };
    assert_eq!(restore(&r), Ok(()), "the untouched image restores");
    // An otherwise valid image with two cursors swapped: `decide` would
    // take a younger cursor for the oldest and flush tasks the real
    // oldest can still match.
    r.cursors.swap(0, 1);
    assert!(matches!(restore(&r), Err(SnapshotError::Corrupt(_))), "swapped cursors accepted");
    r.cursors.swap(0, 1);
    // Ascending, but the youngest claims to start at `now`, past the
    // buffered window.
    let last = std::mem::replace(&mut r.cursors[2].start, r.now);
    assert!(matches!(restore(&r), Err(SnapshotError::Corrupt(_))), "cursor past the window");
    r.cursors[2].start = last;
    // Ascending, but the oldest starts before the window: its first task
    // is no longer buffered.
    let head = r.pending.pop_front().unwrap();
    assert!(matches!(restore(&r), Err(SnapshotError::Corrupt(_))), "cursor before the window");
    r.pending.push_front(head);
    assert_eq!(restore(&r), Ok(()));
    // A candidate table out of step with the trie.
    r.meta[0].len += 1;
    assert!(matches!(restore(&r), Err(SnapshotError::Corrupt(_))), "stale meta accepted");
}

/// Images whose waiting matches break what the per-candidate queues rely
/// on. Every case below restored `Ok(())` before the checks existed; the
/// short window would later bracket one task under a two-task candidate's
/// trace id.
#[test]
fn corrupt_completed_matches_rejected() {
    let config = cfg(2);
    let mut r = TraceReplayer::new(&config);
    r.ingest(&batch_of(&[&[1, 2], &[1, 2, 1, 2, 1, 2, 3]]));
    let mut s = EventSink::default();
    // The long candidate's cursor defers both [1,2] matches.
    feed(&mut r, &mut s, &[1, 2, 1, 2]);
    assert_eq!((r.completed.len(), r.pending.len()), (2, 4));
    let payload = |r: &TraceReplayer| {
        let mut w = SnapshotWriter::new();
        r.write_snapshot(&mut w);
        w.into_payload()
    };
    let restore = |payload: &[u8]| {
        TraceReplayer::restore_snapshot(&config, &mut SnapshotReader::new(payload)).map(|_| ())
    };
    let good = payload(&r);
    assert_eq!(restore(&good), Ok(()), "the untouched image restores");
    // The two matches are the 20-byte records `(cand u32, start, end)`
    // after the sequence length; find them by their content.
    let record = |cand: u32, start: u64, end: u64| {
        [&cand.to_le_bytes()[..], &start.to_le_bytes(), &end.to_le_bytes()].concat()
    };
    let (first, second) = (record(0, 0, 2), record(0, 2, 4));
    let pair = [first.clone(), second.clone()].concat();
    let at = good.windows(pair.len()).position(|w| w == pair).expect("both records, in order");
    let splice = |records: &[&[u8]]| {
        let mut image = good.clone();
        image.splice(at..at + pair.len(), records.concat());
        image
    };
    assert_eq!(restore(&splice(&[&first, &second])), Ok(()), "the splice itself is faithful");
    let cases: [(&str, Vec<u8>); 4] = [
        ("end shortened by one", splice(&[&first, &record(0, 2, 3)])),
        ("end lengthened by one", splice(&[&record(0, 0, 3), &second])),
        ("descending (end, start)", splice(&[&second, &first])),
        ("one match listed twice", splice(&[&first, &first])),
    ];
    for (what, image) in cases {
        assert!(matches!(restore(&image), Err(SnapshotError::Corrupt(_))), "{what}: accepted");
    }
}

/// The wire format did not move: this scenario's payload (trie with
/// 0/1/many-child nodes, a free-listed node and a tombstoned slot, three
/// cursors, one waiting match, five buffered tasks) was fingerprinted at
/// the commit before the trie dropped its per-node hash maps, and its
/// envelope's own digest when the envelope moved to format v6.
#[test]
fn snapshot_envelope_digest_is_pinned() {
    let mut r = TraceReplayer::new(&cfg(2).with_max_candidates(5));
    r.ingest(&batch_of(&[
        &[7, 7, 7],
        &[1, 2],
        &[1, 2, 3, 4],
        &[1, 2, 5],
        &[1, 6],
        &[3, 4, 1, 2, 3, 9],
    ]));
    let mut s = EventSink::default();
    feed(&mut r, &mut s, &[9, 1, 2, 5, 1, 6, 1, 2, 3, 4, 1, 2, 3]);
    assert_eq!((r.cursors.len(), r.completed.len(), r.pending.len()), (3, 1, 5));
    assert_eq!((r.stats.evicted_candidates, r.trie.free_node_count()), (1, 1));
    assert_eq!(envelope_of(&r), (1271, 0x336b_a5c4_3c0f_f403));
    let envelope = sealed(&r);
    let digest = u64::from_le_bytes(envelope[envelope.len() - 8..].try_into().unwrap());
    assert_eq!(digest, ENVELOPE_DIGEST_V6);
}

/// The v6 envelope digest of [`snapshot_envelope_digest_is_pinned`]'s
/// 1 271-byte image.
const ENVELOPE_DIGEST_V6: u64 = 0x5f35_0d70_a8fa_ded2;

/// The byte-serial FNV-1a the envelope carried up to format v5, kept to
/// fingerprint payload bytes: a pin taken with it at an older commit
/// still holds exactly when no payload byte moved.
fn fnv1a_reference(tag: u8, payload: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in std::iter::once(&tag).chain(payload) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `r`'s snapshot sealed in an auto envelope.
fn sealed(r: &TraceReplayer) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    r.write_snapshot(&mut w);
    let mut envelope = Vec::new();
    let tag = tasksim::snapshot::FRONT_END_AUTO;
    tasksim::snapshot::write_envelope(tag, &w.into_payload(), &mut envelope).unwrap();
    envelope
}

/// Length of `r`'s auto envelope, and the [`fnv1a_reference`]
/// fingerprint of its tag and payload.
fn envelope_of(r: &TraceReplayer) -> (usize, u64) {
    let envelope = sealed(r);
    let (tag, payload) = tasksim::snapshot::read_envelope(&mut envelope.as_slice()).unwrap();
    (envelope.len(), fnv1a_reference(tag, &payload))
}

/// The full-scan oracle: the frozen reference step plus `decide` by full
/// scans — the complete pre-shortcut pipeline.
fn oracle(config: &Config) -> TraceReplayer {
    let mut r = TraceReplayer::new(config);
    r.naive_decide = true;
    r
}

/// Jacobi's shape (Figure 1): a period-3 stream, one long candidate and
/// short prefixes of it. Every third task spawns a cursor that walks the
/// long candidate in lock-step with hundreds of others, completing a
/// short prefix every few steps, while the oldest cursor blocks every
/// verdict — so waiting matches pile up over a pending buffer > 1 000
/// deep. A verdict must not notice: it examines (and scores) at most one
/// waiting match per distinct candidate that has one — the front of that
/// candidate's queue — and none while deferred.
#[test]
fn deep_pending_buffer_verdicts_examine_one_match_per_candidate() {
    let motif = |reps: usize| -> Vec<u32> { [1, 2, 3].repeat(reps) };
    let contents: Vec<Vec<u32>> = [400, 1, 2, 4, 8, 16, 32].map(motif).to_vec();
    let refs: Vec<&[u32]> = contents.iter().map(Vec::as_slice).collect();
    let config = cfg(2);
    let (mut fast, mut slow) = (TraceReplayer::new(&config), oracle(&config));
    fast.ingest(&batch_of(&refs));
    slow.ingest(&batch_of(&refs));
    let (mut sf, mut ss) = (EventSink::default(), EventSink::default());
    let (mut deferred_tasks, mut verdicts, mut peak_waiting) = (0u64, 0u64, 0usize);
    for &k in &motif(1500) {
        let (evals, traces) = (SCORE_EVALS.get(), fast.stats.traces_issued);
        let examined = MATCHES_EXAMINED.get();
        // Candidates that can have a waiting match when a verdict of this
        // task is reached: those that have one already, and those this
        // task completes (every completion bumps the candidate's count).
        let mut may_wait: Vec<bool> =
            (0u32..).zip(&fast.meta).map(|(i, _)| fast.completed.has(CandidateId(i))).collect();
        let counts: Vec<u32> = fast.meta.iter().map(|m| m.count).collect();
        fast.on_task(task(k), hash(k), &mut sf).unwrap();
        slow.on_task(task(k), hash(k), &mut ss).unwrap();
        let evals = SCORE_EVALS.get() - evals;
        let examined = MATCHES_EXAMINED.get() - examined;
        let replays = fast.stats.traces_issued - traces;
        assert!(
            evals <= (replays + 1) * contents.len() as u64,
            "{evals} score() calls for {replays} replays over {} waiting matches",
            fast.completed.len()
        );
        for ((may, m), before) in may_wait.iter_mut().zip(&fast.meta).zip(counts) {
            *may |= m.count != before;
        }
        let waiting_cands = may_wait.iter().filter(|&&may| may).count() as u64;
        assert!(
            examined <= (replays + 1) * waiting_cands,
            "{examined} matches examined for {replays} replays: {waiting_cands} candidates \
             wait, {} matches",
            fast.completed.len()
        );
        let deferred = fast.cursors.first().is_some_and(|c| c.start <= fast.min_completed_start);
        assert!(!deferred || replays > 0 || examined == 0, "{examined} examined while deferred");
        peak_waiting = peak_waiting.max(fast.completed.len());
        deferred_tasks += u64::from(evals == 0 && !fast.completed.is_empty());
        verdicts += u64::from(evals > 0);
    }
    assert!(fast.stats.peak_pending_tasks > 1000, "{:?}", fast.stats);
    assert!(peak_waiting > 1000, "only {peak_waiting} matches ever waited at once");
    // The queues materialise in the order the flat list they replaced
    // held: this image, 1 743 matches waiting, was digested at the commit
    // before the queues.
    assert_eq!(fast.completed.len(), 1743);
    assert_eq!(envelope_of(&fast), (111_305, 0xb8a0_d2ad_9392_f6ba));
    assert!(deferred_tasks > 3000 && verdicts > 0, "{deferred_tasks} deferred, {verdicts} scored");
    fast.flush(&mut sf).unwrap();
    slow.flush(&mut ss).unwrap();
    assert!(fast.stats.traces_issued >= 3, "{:?}", fast.stats);
    assert_eq!(sf.events, ss.events);
    assert_eq!(fast.stats(), slow.stats());
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Snapshot/restore at a random point of a random stream:
        /// the restored replayer must forward exactly the events the
        /// uninterrupted replayer forwards for the rest of the
        /// stream, including after a fresh mining ingest (which
        /// exercises slot recycling and capacity eviction).
        #[test]
        fn snapshot_restore_continues_identically(
            cand_a in proptest::collection::vec(1u32..5, 2..5),
            cand_b in proptest::collection::vec(1u32..5, 2..5),
            stream in proptest::collection::vec(1u32..6, 4..50),
            cut_sel in any::<u16>(),
        ) {
            let config = cfg(2).with_max_candidates(2);
            let mut original = TraceReplayer::new(&config);
            let seed: Vec<&[u32]> = vec![&cand_a];
            original.ingest(&batch_of(&seed));
            let cut = 1 + (cut_sel as usize) % (stream.len() - 1);
            let mut pre = EventSink::default();
            feed(&mut original, &mut pre, &stream[..cut]);

            let mut w = SnapshotWriter::new();
            original.write_snapshot(&mut w);
            let payload = w.into_payload();
            let mut reader = SnapshotReader::new(&payload);
            let mut restored =
                TraceReplayer::restore_snapshot(&config, &mut reader).unwrap();
            reader.expect_end().unwrap();

            // A post-cut ingest lands identically on both (the
            // capacity cap may force an eviction decision).
            let late: Vec<&[u32]> = vec![&cand_b];
            original.ingest(&batch_of(&late));
            restored.ingest(&batch_of(&late));

            let (mut sa, mut sb) = (EventSink::default(), EventSink::default());
            feed(&mut original, &mut sa, &stream[cut..]);
            feed(&mut restored, &mut sb, &stream[cut..]);
            original.flush(&mut sa).unwrap();
            restored.flush(&mut sb).unwrap();
            prop_assert_eq!(sa.events, sb.events);
            prop_assert_eq!(original.stats(), restored.stats());

            // And their states stay byte-identical afterwards.
            let (mut wa, mut wb) = (SnapshotWriter::new(), SnapshotWriter::new());
            original.write_snapshot(&mut wa);
            restored.write_snapshot(&mut wb);
            prop_assert_eq!(wa.into_payload(), wb.into_payload());
        }

        /// The O(1) verdict against the full-scan oracle on machine-made
        /// inputs: random candidate sets ingested at random cuts under
        /// a random candidate cap (so evictions and compactions land
        /// mid-match), over a periodic stream with random noise. Events,
        /// stats, the runtime's op digest and the snapshot bytes at every
        /// ingest cut (where matches wait behind blocked verdicts) and at
        /// the end must all be equal.
        #[test]
        fn shortcut_verdicts_match_full_scans(
            motif in proptest::collection::vec(1u32..5, 2..6),
            noise in proptest::collection::vec(0u32..30, 20..200),
            ingests in proptest::collection::vec(
                (any::<u16>(), proptest::collection::vec(
                    proptest::collection::vec(1u32..5, 2..9), 1..4)),
                1..4),
            cap in 1usize..5,
            batched in any::<bool>(),
        ) {
            use tasksim::runtime::{Runtime, RuntimeConfig};
            let config = cfg(2).with_max_candidates(cap);
            // Token i follows the motif unless the noise draw replaces it.
            let stream: Vec<u32> = (noise.iter().enumerate())
                .map(|(i, &n)| if n < 4 { n + 1 } else { motif[i % motif.len()] })
                .collect();
            let mut cuts: Vec<(usize, MinedBatch)> = (ingests.iter().enumerate())
                .map(|(job, (at, set))| {
                    let at = if job == 0 { 0 } else { *at as usize % stream.len() };
                    // The first set also carries the motif itself, twice
                    // over, so the periodic stretches do get matched.
                    let doubled = [motif.clone(), motif.clone()].concat();
                    let set = set.iter().chain((job == 0).then_some(&doubled));
                    let candidates = set
                        .map(|c| MinedCandidate {
                            content: c.iter().map(|&k| hash(k)).collect(),
                            occurrences: (0..=c.len() as u64 % 3).collect(),
                        })
                        .collect();
                    (at, MinedBatch { job: job as u64, candidates, slice_end: at as u64 })
                })
                .collect();
            cuts.sort_by_key(|(at, batch)| (*at, batch.job));

            fn drive<S: TraceSink>(
                r: &mut TraceReplayer,
                sink: &mut S,
                stream: &[u32],
                cuts: &[(usize, MinedBatch)],
                batched: bool,
            ) -> Vec<Vec<u8>>
            where
                S::Error: std::fmt::Debug,
            {
                let image = |r: &TraceReplayer| {
                    let mut w = SnapshotWriter::new();
                    r.write_snapshot(&mut w);
                    w.into_payload()
                };
                let mut images = Vec::new();
                let mut from = 0;
                for (at, batch) in cuts {
                    let mut run: Vec<_> = stream[from..*at].iter().map(|&k| (task(k), hash(k))).collect();
                    if batched {
                        r.on_batch(&mut run, sink).unwrap();
                    }
                    for (desc, h) in run {
                        r.on_task(desc, h, sink).unwrap();
                    }
                    images.push(image(r));
                    r.ingest(batch);
                    from = *at;
                }
                for &k in &stream[from..] {
                    r.on_task(task(k), hash(k), sink).unwrap();
                }
                images.push(image(r));
                r.flush(sink).unwrap();
                images
            }

            let (mut fast, mut slow) = (TraceReplayer::new(&config), oracle(&config));
            let (mut sf, mut ss) = (EventSink::default(), EventSink::default());
            let pf = drive(&mut fast, &mut sf, &stream, &cuts, batched);
            let ps = drive(&mut slow, &mut ss, &stream, &cuts, false);
            prop_assert_eq!(sf.events, ss.events);
            prop_assert_eq!(fast.stats(), slow.stats());
            prop_assert_eq!(&pf, &ps);
            // Restore accepts waiting matches only in strictly ascending
            // `(end, start)` order: every image was written in it.
            for image in &pf {
                let restored =
                    TraceReplayer::restore_snapshot(&config, &mut SnapshotReader::new(image));
                prop_assert!(restored.is_ok(), "{:?}", restored.err());
            }

            let rt = || Runtime::new(RuntimeConfig::single_node(1).with_auto_layer());
            let (mut fast, mut slow) = (TraceReplayer::new(&config), oracle(&config));
            let (mut rf, mut rs) = (rt(), rt());
            drive(&mut fast, &mut rf, &stream, &cuts, batched);
            drive(&mut slow, &mut rs, &stream, &cuts, false);
            prop_assert_eq!(rf.op_digest(), rs.op_digest());
            prop_assert_eq!(fast.stats(), slow.stats());
        }
    }
}

#[test]
fn pending_queue_bounded_by_candidate_length() {
    let mut r = TraceReplayer::new(&cfg(2));
    r.ingest(&batch_of(&[&[1, 2, 3, 4, 5]]));
    let mut s = EventSink::default();
    // Stream never matches the candidate fully; pending must stay
    // small (bounded by candidate length, not stream length).
    for i in 0..1000u32 {
        let k = 1 + (i % 3); // 1,2,3,1,2,3 — always dies at depth ≤ 3
        r.on_task(task(k), hash(k), &mut s).unwrap();
        assert!(r.pending_len() <= 5, "pending {} at {i}", r.pending_len());
    }
}
