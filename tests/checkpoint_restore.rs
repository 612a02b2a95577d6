//! Restartable runs: checkpoint the full tracing engine mid-stream,
//! restore it in a fresh `Session`, and prove the continuation is
//! **bit-identical** to the uninterrupted run.
//!
//! The contract under test (the determinism that makes §5.1 control
//! replication possible also makes checkpoints exact):
//!
//! * For all four front-ends (untraced / manual / auto / distributed) and
//!   both retention policies (`Full` / `Drain`), a run cut at a task
//!   boundary by `TaskIssuer::checkpoint` and resumed via
//!   `Session::resume_from` produces the same `SimReport` (compared to
//!   the bit) and the same op-stream digest as the run that never
//!   stopped.
//! * Taking a checkpoint must not perturb the run that keeps going.
//! * On a long capped, drained stream, repeated kills and resumes change
//!   nothing, and the snapshot stays O(window + caps).
//! * Corrupt, truncated, retagged, or future-versioned snapshots are
//!   rejected with typed [`SnapshotError`]s, never a panic or a silently
//!   divergent restore — including hostile images re-sealed behind a
//!   valid digest.

use apophenia::{Config, DelayModel, Session, SnapshotError, Tracing};
use tasksim::cost::Micros;
use tasksim::exec::LogRetention;
use tasksim::ids::{RegionId, TaskKindId, TraceId};
use tasksim::issuer::TaskIssuer;
use tasksim::runtime::RuntimeError;
use tasksim::snapshot as snap;
use tasksim::task::TaskDesc;

const ITERS: usize = 120;

fn small_auto() -> Config {
    Config::standard().with_min_trace_length(4).with_batch_size(512).with_multi_scale_factor(32)
}

fn all_tracings() -> Vec<Tracing> {
    vec![
        Tracing::Untraced,
        Tracing::Manual,
        Tracing::Auto(small_auto()),
        Tracing::Distributed {
            config: small_auto(),
            delay: DelayModel::new(2024, 25),
            initial_interval: 8,
        },
    ]
}

fn build(tracing: Tracing, retention: LogRetention) -> Box<dyn TaskIssuer> {
    Session::builder().nodes(2).gpus_per_node(2).tracing(tracing).log_retention(retention).build()
}

/// Issues iterations `[from, to)` of the parity workload (fixed 8-task
/// body, rotating partition task, periodic unique task, iteration mark).
/// Regions are created only on the very first call — a resumed session
/// already holds them in its restored forest under the same ids.
fn drive_range(issuer: &mut dyn TaskIssuer, manual: bool, from: usize, to: usize) {
    let (a, b, parts) = if from == 0 {
        let a = issuer.create_region(1);
        let b = issuer.create_region(1);
        (a, b, issuer.partition(a, 4).unwrap())
    } else {
        (RegionId(0), RegionId(1), vec![RegionId(2), RegionId(3), RegionId(4), RegionId(5)])
    };
    for i in from..to {
        if manual {
            issuer.begin_trace(TraceId(0)).unwrap();
        }
        for k in 0..8u32 {
            let (src, dst) = if k % 2 == 0 { (a, b) } else { (b, a) };
            issuer
                .execute_task(
                    TaskDesc::new(TaskKindId(k))
                        .reads(src)
                        .read_writes(dst)
                        .gpu_time(Micros(100.0)),
                )
                .unwrap();
        }
        if manual {
            issuer.end_trace(TraceId(0)).unwrap();
        }
        issuer
            .execute_task(
                TaskDesc::new(TaskKindId(50)).reads(parts[i % 4]).writes(b).gpu_time(Micros(60.0)),
            )
            .unwrap();
        if i % 5 == 4 {
            issuer
                .execute_task(
                    TaskDesc::new(TaskKindId(1000 + i as u32)).reads(b).gpu_time(Micros(40.0)),
                )
                .unwrap();
        }
        issuer.mark_iteration();
    }
}

/// Writes a checkpoint mid-way through an auto run (used by the
/// corruption tests).
fn checkpoint_bytes() -> Vec<u8> {
    let mut issuer = build(Tracing::Auto(small_auto()), LogRetention::Full);
    drive_range(issuer.as_mut(), false, 0, 40);
    let mut bytes = Vec::new();
    issuer.checkpoint(&mut bytes).unwrap();
    bytes
}

#[test]
fn restored_run_is_bit_identical_for_every_front_end_and_retention() {
    for tracing in all_tracings() {
        for retention in [LogRetention::Full, LogRetention::Drain] {
            let label = format!("{}/{retention:?}", tracing.label());
            let manual = tracing.is_manual();

            // Reference: the run that never stops.
            let mut straight = build(tracing.clone(), retention);
            drive_range(straight.as_mut(), manual, 0, ITERS);
            straight.flush().unwrap();
            let straight_digest = straight.op_digest();
            let straight = straight.finish().unwrap();

            // Interrupted: checkpoint at iteration 47, "crash", resume in
            // a fresh Session, finish the program.
            let mut victim = build(tracing.clone(), retention);
            drive_range(victim.as_mut(), manual, 0, 47);
            let mut bytes = Vec::new();
            let meta = victim.checkpoint(&mut bytes).unwrap();
            assert_eq!(meta.op_digest, victim.op_digest(), "{label}: meta digest");
            assert_eq!(meta.ops_pushed, victim.log_stats().pushed, "{label}: meta ops");
            drop(victim);

            let mut resumed = Session::resume_from(&mut bytes.as_slice()).unwrap();
            assert_eq!(resumed.op_digest(), meta.op_digest, "{label}: restored digest");
            assert_eq!(resumed.log_stats().pushed, meta.ops_pushed, "{label}");
            drive_range(resumed.as_mut(), manual, 47, ITERS);
            resumed.flush().unwrap();
            assert_eq!(resumed.op_digest(), straight_digest, "{label}: op digest diverged");
            let resumed = resumed.finish().unwrap();

            assert_eq!(straight.stats, resumed.stats, "{label}: runtime counters diverged");
            assert_eq!(straight.report, resumed.report, "{label}: SimReport diverged");
            assert_eq!(
                straight.report.total.0.to_bits(),
                resumed.report.total.0.to_bits(),
                "{label}: clocks diverged at the bit level"
            );
            match retention {
                LogRetention::Full => {
                    let (a, b) = (straight.log(), resumed.log());
                    assert_eq!(a.ops(), b.ops(), "{label}: raw logs diverged");
                    assert_eq!(a.digest(), b.digest(), "{label}");
                }
                LogRetention::Drain => {
                    assert!(resumed.log.is_none(), "{label}: drained run kept a log")
                }
            }
        }
    }
}

#[test]
fn checkpointing_never_perturbs_the_running_session() {
    // The checkpointed issuer keeps going; its artifacts must equal a run
    // that never checkpointed (the snapshot is a pure observation at a
    // task boundary — the finder quiesce is invisible under the
    // deterministic sync-mining configuration).
    for tracing in all_tracings() {
        let label = tracing.label();
        let manual = tracing.is_manual();
        let mut plain = build(tracing.clone(), LogRetention::Full);
        drive_range(plain.as_mut(), manual, 0, ITERS);
        plain.flush().unwrap();
        let plain = plain.finish().unwrap();

        let mut observed = build(tracing.clone(), LogRetention::Full);
        drive_range(observed.as_mut(), manual, 0, 31);
        let mut sink = Vec::new();
        observed.checkpoint(&mut sink).unwrap();
        drive_range(observed.as_mut(), manual, 31, ITERS);
        observed.flush().unwrap();
        let observed = observed.finish().unwrap();

        assert_eq!(plain.report, observed.report, "{label}: checkpoint perturbed the run");
        assert_eq!(plain.stats, observed.stats, "{label}");
        assert_eq!(plain.log().digest(), observed.log().digest(), "{label}");
    }
}

#[test]
fn immediate_recheckpoint_is_byte_identical() {
    // Restoring and immediately checkpointing again reproduces the same
    // envelope byte for byte: the snapshot is a canonical encoding of the
    // state (hash-map contents are serialized in sorted order).
    let bytes = checkpoint_bytes();
    let mut resumed = Session::resume_from(&mut bytes.as_slice()).unwrap();
    let mut again = Vec::new();
    resumed.checkpoint(&mut again).unwrap();
    assert_eq!(bytes, again, "canonical encoding: restore ∘ checkpoint = identity");
}

/// The restartable-run contract on a long stream: a capped, drained
/// repeating-motif stream killed twice, each time checkpointed, dropped
/// and resumed from the bytes, finishes exactly as the run that never
/// stopped — and the snapshot does not grow with the tasks already
/// processed. Both cuts lie past the 30 000-task clock window, where the
/// engine state is O(window + caps). What still grows is a few per-
/// iteration records (the report's iteration finish times, the warmup
/// history) and the capacity series until it decimates: ≈ 2 bytes per
/// task, where one retained op or frontier entry would cost over 20.
/// The motif writes both regions: a region that is only ever read keeps
/// every reader in the analyzer's frontier.
#[test]
fn killed_and_resumed_soak_is_bit_identical() {
    const MOTIF: usize = 10;
    const TASKS: usize = 42_000;
    const KILLS: [usize; 2] = [32_000, 40_000];
    let issue = |issuer: &mut dyn TaskIssuer, range: std::ops::Range<usize>| {
        for i in range {
            let k = i % MOTIF;
            let (src, dst) = if k.is_multiple_of(2) { (0, 1) } else { (1, 0) };
            issuer
                .execute_task(
                    TaskDesc::new(TaskKindId(k as u32))
                        .reads(RegionId(src))
                        .writes(RegionId(dst))
                        .gpu_time(Micros(20.0)),
                )
                .unwrap();
            if i % MOTIF == MOTIF - 1 {
                issuer.mark_iteration();
            }
        }
    };
    // Runs the stream, killing it at each of `kills`; returns the final
    // digest, stats and report, and each snapshot's size.
    let run = |kills: &[usize]| {
        let mut issuer = Session::builder()
            .tracing(Tracing::Auto(bench::lifecycle_capped_config()))
            .log_retention(LogRetention::Drain)
            .build();
        issuer.create_region(1);
        issuer.create_region(1);
        let (mut from, mut sizes) = (0, Vec::new());
        for &kill in kills {
            issue(issuer.as_mut(), from..kill);
            let mut bytes = Vec::new();
            issuer.checkpoint(&mut bytes).unwrap();
            sizes.push(bytes.len());
            drop(issuer);
            issuer = Session::resume_from(&mut bytes.as_slice()).unwrap();
            from = kill;
        }
        issue(issuer.as_mut(), from..TASKS);
        issuer.flush().unwrap();
        let digest = issuer.op_digest();
        let artifacts = issuer.finish().unwrap();
        (digest, artifacts.stats, artifacts.report, sizes)
    };
    let (digest, stats, report, _) = run(&[]);
    let (resumed_digest, resumed_stats, resumed_report, sizes) = run(&KILLS);
    assert_eq!(resumed_digest, digest, "op-stream digest survives the kills");
    assert_eq!(resumed_stats.tasks_total, TASKS as u64);
    assert_eq!(resumed_report.iteration_finish.len(), TASKS / MOTIF);
    assert_eq!(resumed_report, report, "iterations and clocks survive the kills");
    assert_eq!(resumed_report.total.0.to_bits(), report.total.0.to_bits());
    assert_eq!(
        resumed_stats.replayed_fraction().to_bits(),
        stats.replayed_fraction().to_bits(),
        "tracing decisions survive the kills"
    );
    assert!(stats.replayed_fraction() > 0.5, "the stream was traced: {stats:?}");
    let grown = sizes[1].saturating_sub(sizes[0]);
    assert!(
        grown < 3 * (KILLS[1] - KILLS[0]),
        "snapshot grew {} → {} bytes over {} tasks: engine state is leaking into it",
        sizes[0],
        sizes[1],
        KILLS[1] - KILLS[0]
    );
}

#[test]
fn meta_describes_the_cut() {
    let mut issuer = build(
        Tracing::Distributed {
            config: small_auto(),
            delay: DelayModel::new(7, 12),
            initial_interval: 8,
        },
        LogRetention::Drain,
    );
    drive_range(issuer.as_mut(), false, 0, 20);
    let mut bytes = Vec::new();
    let meta = issuer.checkpoint(&mut bytes).unwrap();
    assert_eq!(meta.format_version, snap::FORMAT_VERSION);
    assert_eq!(meta.front_end, snap::FRONT_END_DISTRIBUTED);
    assert_eq!(meta.front_end_label(), "distributed");
    // 20 iterations × (8 body + 1 rotating) + 4 unique tasks.
    assert_eq!(meta.tasks_issued, 20 * 9 + 4, "the agreed issued-task barrier");
    assert!(meta.payload_bytes > 0);
    assert!(bytes.len() as u64 > meta.payload_bytes, "envelope adds its header");
}

#[test]
fn corrupt_and_truncated_snapshots_are_rejected_with_typed_errors() {
    let bytes = checkpoint_bytes();

    let expect_snapshot_err = |bytes: &[u8]| -> SnapshotError {
        match Session::resume_from(&mut &*bytes) {
            Err(RuntimeError::Snapshot(e)) => e,
            Err(other) => panic!("expected a typed snapshot error, got {other}"),
            Ok(_) => panic!("corrupt snapshot restored successfully"),
        }
    };

    // Truncation anywhere: header, payload, digest.
    for cut in [0, 3, 8, 10, bytes.len() / 2, bytes.len() - 1] {
        assert_eq!(expect_snapshot_err(&bytes[..cut]), SnapshotError::Truncated, "cut {cut}");
    }

    // A flipped payload byte trips the digest.
    let mut corrupt = bytes.clone();
    let mid = bytes.len() / 2;
    corrupt[mid] ^= 0x01;
    assert_eq!(expect_snapshot_err(&corrupt), SnapshotError::DigestMismatch);

    // Retagging the front-end cannot redirect the payload: the tag is
    // digested too.
    let mut retagged = bytes.clone();
    retagged[8] = snap::FRONT_END_RUNTIME;
    assert_eq!(expect_snapshot_err(&retagged), SnapshotError::DigestMismatch);

    // Bad magic, future versions and the previous version (v5 envelopes
    // carry the byte-serial digest) are typed.
    let mut bad_magic = bytes.clone();
    bad_magic[0] = b'Z';
    assert_eq!(expect_snapshot_err(&bad_magic), SnapshotError::BadMagic);
    let mut future = bytes.clone();
    future[4] = 0x7f;
    assert!(matches!(expect_snapshot_err(&future), SnapshotError::UnsupportedVersion(_)));
    let mut previous = bytes.clone();
    previous[4] = 5;
    assert_eq!(expect_snapshot_err(&previous), SnapshotError::UnsupportedVersion(5));

    // A well-formed envelope with an unknown front-end tag.
    let mut unknown = Vec::new();
    snap::write_envelope(9, b"whatever", &mut unknown).unwrap();
    assert_eq!(expect_snapshot_err(&unknown), SnapshotError::UnknownFrontEnd(9));

    // A well-formed envelope whose payload is garbage decodes to a
    // Corrupt/Truncated error, not a panic.
    let mut garbage = Vec::new();
    snap::write_envelope(snap::FRONT_END_AUTO, &[0xffu8; 64], &mut garbage).unwrap();
    assert!(matches!(
        expect_snapshot_err(&garbage),
        SnapshotError::Corrupt(_) | SnapshotError::Truncated
    ));

    // A mined batch no miner can produce — an occurrence whose end
    // overflows — behind a *valid* digest: spliced into the finder's
    // completed-batch list of the auto image, and into the last node's
    // pending-batch queue of a distributed image. Both are refused at
    // restore instead of overflowing at the next ingest.
    let (tag, mut payload) = snap::read_envelope(&mut bytes.as_slice()).unwrap();
    let at = finder_completed_offset(&payload);
    splice_hostile_batch(&mut payload, at, &[]);
    let mut hostile = Vec::new();
    snap::write_envelope(tag, &payload, &mut hostile).unwrap();
    assert!(matches!(expect_snapshot_err(&hostile), SnapshotError::Corrupt(_)));

    let (tag, mut payload) = snap::read_envelope(&mut distributed_bytes().as_slice()).unwrap();
    let at = payload.len() - 8;
    // A queue entry leads with its agreed ingest position and readiness.
    splice_hostile_batch(&mut payload, at, &[0, 0]);
    let mut hostile = Vec::new();
    snap::write_envelope(tag, &payload, &mut hostile).unwrap();
    assert!(matches!(expect_snapshot_err(&hostile), SnapshotError::Corrupt(_)));

    // A waiting match one task shorter than its candidate, again behind
    // a valid digest: its replay would bracket the wrong tasks under the
    // candidate's trace id, so restore refuses it.
    let (pristine, at) = waiting_match_bytes();
    let (tag, mut payload) = snap::read_envelope(&mut pristine.as_slice()).unwrap();
    let end = word_at(&payload, at + 8 + 12);
    payload[at + 8 + 12..at + 8 + 20].copy_from_slice(&(end - 1).to_le_bytes());
    let mut hostile = Vec::new();
    snap::write_envelope(tag, &payload, &mut hostile).unwrap();
    assert!(matches!(expect_snapshot_err(&hostile), SnapshotError::Corrupt(_)));
    assert!(Session::resume_from(&mut pristine.as_slice()).is_ok());

    // A drained pipeline whose application cursor sits one op behind its
    // analysis cursor, behind a valid digest: the fed-op count still adds
    // up, but the next task would index before the deferral queue.
    let (pristine, at) = pipeline_cursor_bytes();
    let (tag, mut payload) = snap::read_envelope(&mut pristine.as_slice()).unwrap();
    let behind = word_at(&payload, at) - 1;
    payload[at..at + 8].copy_from_slice(&behind.to_le_bytes());
    let mut hostile = Vec::new();
    snap::write_envelope(tag, &payload, &mut hostile).unwrap();
    assert!(matches!(expect_snapshot_err(&hostile), SnapshotError::Corrupt(_)));
    assert!(Session::resume_from(&mut pristine.as_slice()).is_ok());

    // And the pristine bytes still restore.
    assert!(Session::resume_from(&mut bytes.as_slice()).is_ok());
}

fn word_at(payload: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(payload[at..at + 8].try_into().unwrap())
}

/// Offset of the (empty) completed-batch list in the finder image inside
/// [`checkpoint_bytes`]' payload. The image opens with the history buffer
/// — every task issued so far, the stream being shorter than the buffer —
/// then `buffer_start` (0) and the sampler's arrival count (again every
/// task): a signature nothing else in the payload shares. Two more
/// counters and the firing count precede the list.
fn finder_completed_offset(payload: &[u8]) -> usize {
    // 40 iterations × (8 body + 1 rotating) + 8 unique tasks.
    let issued = 40 * 9 + 8;
    let buffer = 8 * (1 + issued as usize);
    let mut hits = (0..payload.len().saturating_sub(buffer + 16)).filter(|&at| {
        word_at(payload, at) == issued
            && word_at(payload, at + buffer) == 0
            && word_at(payload, at + buffer + 8) == issued
    });
    let at = hits.next().expect("finder image found");
    assert!(hits.next().is_none(), "finder signature is unique");
    let completed = at + buffer + 8 * 5;
    assert_eq!(word_at(payload, completed), 0, "inline mining leaves nothing unpolled");
    completed
}

/// Turns the empty sequence at `at` into a one-element sequence holding
/// `prefix` and then a batch whose single occurrence is `u64::MAX`.
fn splice_hostile_batch(payload: &mut Vec<u8>, at: usize, prefix: &[u64]) {
    assert_eq!(word_at(payload, at), 0, "splicing into an empty sequence");
    let batch = [0, 1, 4, 11, 12, 13, 14, 1, u64::MAX, 4]; // job, [content, occurrences], end
    let words = [1].iter().chain(prefix).chain(&batch);
    payload.splice(at..at + 8, words.flat_map(|w| w.to_le_bytes()));
}

/// An auto checkpoint cut at an iteration boundary where the replayer
/// holds at least one completed match awaiting a verdict, and the offset
/// of its waiting-match list in the payload. The list — a count, then
/// `(candidate u32, start u64, end u64)` records — sits between the
/// pending buffer, whose last task carries global index `now − 1`, and
/// the retired trace ids, the next trace id and `now` itself; the
/// replayer has seen every task issued, which fixes `now`.
fn waiting_match_bytes() -> (Vec<u8>, usize) {
    let mut issuer = build(Tracing::Auto(small_auto()), LogRetention::Full);
    for iter in 0..ITERS {
        drive_range(issuer.as_mut(), false, iter, iter + 1);
        let now = ((iter + 1) * 9 + (iter + 1) / 5) as u64;
        let mut bytes = Vec::new();
        issuer.checkpoint(&mut bytes).unwrap();
        let (_, payload) = snap::read_envelope(&mut bytes.as_slice()).unwrap();
        let is_list = |at: usize| {
            let count = word_at(&payload, at).min(65) as usize;
            let records = at + 8;
            let retired = records + 20 * count;
            if !(1..=64).contains(&count) || retired + 8 > payload.len() {
                return false;
            }
            let tail = retired + 8 + 4 * word_at(&payload, retired).min(64) as usize + 4;
            word_at(&payload, at - 8) == now - 1
                && tail + 8 <= payload.len()
                && word_at(&payload, tail) == now
                && (0..count).all(|i| {
                    let (start, end) = (records + 20 * i + 4, records + 20 * i + 12);
                    word_at(&payload, start) < word_at(&payload, end)
                        && word_at(&payload, end) <= now
                })
        };
        let mut hits = (8..payload.len() - 8).filter(|&at| is_list(at));
        if let Some(at) = hits.next() {
            assert!(hits.next().is_none(), "waiting-match signature is unique");
            return (bytes, at);
        }
    }
    panic!("no iteration boundary with a waiting match");
}

/// A drained auto checkpoint and the offset of its pipeline's application
/// cursor in the payload. At a cut where no op waits behind a gate the
/// cursor equals the fed-op count (the checkpoint's `ops_pushed`) and is
/// followed by the analysis clock and busy time, the analysis history
/// (base, count, entries), the empty deferral queue and the analysis
/// cursor — the fed-op count again.
fn pipeline_cursor_bytes() -> (Vec<u8>, usize) {
    let mut issuer = build(Tracing::Auto(small_auto()), LogRetention::Drain);
    for iter in 0..ITERS {
        drive_range(issuer.as_mut(), false, iter, iter + 1);
        let mut bytes = Vec::new();
        let fed = issuer.checkpoint(&mut bytes).unwrap().ops_pushed;
        let (_, payload) = snap::read_envelope(&mut bytes.as_slice()).unwrap();
        let is_cursor = |at: usize| {
            let entries = word_at(&payload, at + 32).min(payload.len() as u64) as usize;
            let queue = at + 40 + 8 * entries;
            queue + 16 <= payload.len()
                && word_at(&payload, at) == fed
                && word_at(&payload, queue) == 0
                && word_at(&payload, queue + 8) == fed
        };
        let mut hits = (0..payload.len() - 40).filter(|&at| is_cursor(at));
        if let Some(at) = hits.next() {
            assert!(hits.next().is_none(), "pipeline-cursor signature is unique");
            return (bytes, at);
        }
    }
    panic!("no iteration boundary with an empty deferral queue");
}

/// A distributed checkpoint cut where the last node's pending-batch
/// queue — the payload's tail — is empty.
fn distributed_bytes() -> Vec<u8> {
    for iters in 1..40 {
        let mut issuer = build(
            Tracing::Distributed {
                config: small_auto(),
                delay: DelayModel::new(7, 12),
                initial_interval: 8,
            },
            LogRetention::Drain,
        );
        drive_range(issuer.as_mut(), false, 0, iters);
        let mut bytes = Vec::new();
        issuer.checkpoint(&mut bytes).unwrap();
        let (_, payload) = snap::read_envelope(&mut bytes.as_slice()).unwrap();
        if word_at(&payload, payload.len() - 8) == 0 {
            return bytes;
        }
    }
    panic!("no cut with an empty pending-batch queue");
}

#[test]
fn buffered_ops_surface_through_every_front_end() {
    // The unified backpressure stat: pass-through front-ends report
    // zeros; the auto front-ends report replayer buffering, and drained
    // runs report pipeline deferrals.
    let mut plain = build(Tracing::Untraced, LogRetention::Full);
    drive_range(plain.as_mut(), false, 0, 10);
    assert_eq!(plain.buffered_ops().peak_total(), 0, "nothing buffers untraced");

    for tracing in [
        Tracing::Auto(small_auto()),
        Tracing::Distributed {
            config: small_auto(),
            delay: DelayModel::new(2024, 25),
            initial_interval: 8,
        },
    ] {
        let label = tracing.label();
        let mut issuer = build(tracing, LogRetention::Drain);
        drive_range(issuer.as_mut(), false, 0, ITERS);
        let b = issuer.buffered_ops();
        assert!(b.peak_replayer_pending > 0, "{label}: replayer buffered nothing: {b:?}");
        assert!(b.peak_pipeline_deferred > 0, "{label}: pipeline deferred nothing: {b:?}");
        issuer.flush().unwrap();
        assert_eq!(issuer.buffered_ops().replayer_pending, 0, "{label}: flush drains");
    }
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Issues steps `[from, to)` of a randomized program (same shape as
    /// the issuer-parity generator: repeated bodies, unique tasks,
    /// iteration marks).
    fn drive_spec(
        issuer: &mut dyn TaskIssuer,
        spec: &[(u8, u8)],
        manual: bool,
        from: usize,
        to: usize,
    ) {
        let (a, b) = if from == 0 {
            (issuer.create_region(1), issuer.create_region(1))
        } else {
            (RegionId(0), RegionId(1))
        };
        for (i, &(step, gpu)) in spec[from..to].iter().enumerate() {
            let i = from + i;
            match step % 4 {
                0 | 1 => {
                    let variant = u32::from(step % 2);
                    if manual {
                        issuer.begin_trace(TraceId(variant)).unwrap();
                    }
                    for k in 0..4u32 {
                        let (src, dst) = if k % 2 == 0 { (a, b) } else { (b, a) };
                        issuer
                            .execute_task(
                                TaskDesc::new(TaskKindId(10 * variant + k))
                                    .reads(src)
                                    .read_writes(dst)
                                    .gpu_time(Micros(f64::from(gpu) + 10.0)),
                            )
                            .unwrap();
                    }
                    if manual {
                        issuer.end_trace(TraceId(variant)).unwrap();
                    }
                }
                2 => {
                    issuer
                        .execute_task(
                            TaskDesc::new(TaskKindId(2000 + i as u32))
                                .reads(a)
                                .writes(b)
                                .gpu_time(Micros(35.0)),
                        )
                        .unwrap();
                }
                _ => issuer.mark_iteration(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The acceptance criterion, randomized: checkpoint at a random
        /// step of a random program and the restored run's report and op
        /// digest equal the uninterrupted run's, for all four front-ends
        /// under both retention policies.
        #[test]
        fn restore_equals_uninterrupted_on_random_programs(
            spec in proptest::collection::vec((any::<u8>(), any::<u8>()), 8..80),
            cut_sel in any::<u16>(),
        ) {
            let cut = 1 + (cut_sel as usize) % (spec.len() - 1);
            for tracing in all_tracings() {
                for retention in [LogRetention::Full, LogRetention::Drain] {
                    let label = format!("{}/{retention:?}", tracing.label());
                    let manual = tracing.is_manual();

                    let mut straight = build(tracing.clone(), retention);
                    drive_spec(straight.as_mut(), &spec, manual, 0, spec.len());
                    straight.flush().unwrap();
                    let straight_digest = straight.op_digest();
                    let straight = straight.finish().unwrap();

                    let mut victim = build(tracing.clone(), retention);
                    drive_spec(victim.as_mut(), &spec, manual, 0, cut);
                    let mut bytes = Vec::new();
                    victim.checkpoint(&mut bytes).unwrap();
                    drop(victim);
                    let mut resumed = Session::resume_from(&mut bytes.as_slice()).unwrap();
                    drive_spec(resumed.as_mut(), &spec, manual, cut, spec.len());
                    resumed.flush().unwrap();
                    prop_assert_eq!(
                        resumed.op_digest(), straight_digest,
                        "{}: digest diverged at cut {}", label, cut
                    );
                    let resumed = resumed.finish().unwrap();
                    prop_assert_eq!(&straight.stats, &resumed.stats, "{}", label);
                    prop_assert_eq!(&straight.report, &resumed.report, "{}", label);
                }
            }
        }
    }
}
