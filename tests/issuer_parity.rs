//! Front-end parity: one workload, every `Session` configuration, one
//! `dyn TaskIssuer` code path.
//!
//! The `TaskIssuer` unification promises three things this file proves:
//!
//! * **Order preservation across front-ends** — untraced, manual, auto,
//!   and distributed runs of the same program forward the application's
//!   tasks in exactly the same order (identical task-record hash
//!   streams), no matter how differently they bracket, buffer, or replay
//!   them — and bind every iteration mark to the same issued-task count.
//! * **Batch/single equivalence** — `issue_batch` is semantically
//!   identical to task-at-a-time `execute_task`: the operation logs are
//!   bit-for-bit equal (same records, same analysis kinds, same edges,
//!   same gates), not merely the same hash sequence — and so are the
//!   residency peaks and the checkpoint bytes of a drained run.
//! * **Streaming/batch equivalence** — `LogRetention::Drain` (ops fed
//!   incrementally through `SimPipeline` and dropped) produces a
//!   `SimReport` bit-identical to `LogRetention::Full` (ops accumulated,
//!   then `simulate(&OpLog)` in one batch pass), for every front-end and
//!   across randomized program shapes (proptest below).

use apophenia::{Config, DelayModel, Session, Tracing};
use tasksim::cost::Micros;
use tasksim::exec::{simulate, LogOp, LogRetention, OpLog, SimReport};
use tasksim::ids::{TaskKindId, TraceId};
use tasksim::issuer::TaskIssuer;
use tasksim::stats::RuntimeStats;
use tasksim::task::{TaskDesc, TaskHash};

const ITERS: usize = 200;

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

/// The two automatically traced front-ends.
fn auto_tracings() -> Vec<Tracing> {
    all_tracings().split_off(2)
}

/// An S3D-shaped loop (fixed 8-task body, a partition-projected task
/// rotating with period 4, a unique "statistics" task every 5 iterations)
/// issued through any front-end. Returns the hashes in application order.
///
/// The manual variant brackets exactly the fixed body — the rotating and
/// unique tasks stay outside the trace, as a hand annotator would do.
fn drive(issuer: &mut dyn TaskIssuer, manual: bool, batched: bool) -> Vec<TaskHash> {
    let mut expected = Vec::new();
    let a = issuer.create_region(1);
    let b = issuer.create_region(1);
    let parts = issuer.partition(a, 4).unwrap();
    for i in 0..ITERS {
        let mut body = Vec::with_capacity(8);
        for k in 0..8u32 {
            let (src, dst) = if k % 2 == 0 { (a, b) } else { (b, a) };
            body.push(
                TaskDesc::new(TaskKindId(k)).reads(src).read_writes(dst).gpu_time(Micros(100.0)),
            );
        }
        expected.extend(body.iter().map(TaskDesc::semantic_hash));
        if manual {
            issuer.begin_trace(TraceId(0)).unwrap();
        }
        if batched {
            issuer.issue_batch(body).unwrap();
        } else {
            for t in body {
                issuer.execute_task(t).unwrap();
            }
        }
        if manual {
            issuer.end_trace(TraceId(0)).unwrap();
        }
        let rotate =
            TaskDesc::new(TaskKindId(50)).reads(parts[i % 4]).writes(b).gpu_time(Micros(60.0));
        expected.push(rotate.semantic_hash());
        issuer.execute_task(rotate).unwrap();
        if i % 5 == 4 {
            let unique = TaskDesc::new(TaskKindId(1000 + i as u32)).reads(b).gpu_time(Micros(40.0));
            expected.push(unique.semantic_hash());
            issuer.execute_task(unique).unwrap();
        }
        issuer.mark_iteration();
    }
    issuer.flush().unwrap();
    expected
}

fn build(tracing: Tracing, retention: LogRetention) -> Box<dyn TaskIssuer> {
    Session::builder().nodes(2).gpus_per_node(2).tracing(tracing).log_retention(retention).build()
}

fn run(tracing: Tracing, batched: bool) -> (Vec<TaskHash>, OpLog) {
    let manual = tracing.is_manual();
    let mut issuer = build(tracing, LogRetention::Full);
    let expected = drive(issuer.as_mut(), manual, batched);
    let artifacts = issuer.finish().unwrap();
    (expected, artifacts.log.expect("full retention"))
}

/// The iteration-mark binding of a log: each mark's issued-task count.
fn mark_counts(log: &OpLog) -> Vec<u64> {
    log.ops()
        .iter()
        .filter_map(|op| match op {
            LogOp::IterationMark(k) => Some(*k),
            LogOp::Task(_) => None,
        })
        .collect()
}

#[test]
fn every_front_end_preserves_application_order() {
    let mut streams: Vec<(&'static str, Vec<TaskHash>, Vec<u64>)> = Vec::new();
    for tracing in all_tracings() {
        let label = tracing.label();
        let (expected, log) = run(tracing, false);
        let got: Vec<TaskHash> = log.task_records().map(|r| r.hash).collect();
        assert_eq!(got, expected, "{label}: stream differs from issue order");
        streams.push((label, got, mark_counts(&log)));
    }
    // All four front-ends saw the identical program, so all four logs hold
    // the identical hash stream — and bind every iteration mark to the
    // same issued-task count (buffering layers may *position* marks
    // differently in the log, but the binding is what the simulator
    // resolves, and it must agree).
    let (first_label, first, first_marks) = &streams[0];
    for (label, stream, marks) in &streams[1..] {
        assert_eq!(stream, first, "{label} diverges from {first_label}");
        assert_eq!(marks, first_marks, "{label} binds marks differently than {first_label}");
    }
}

#[test]
fn issue_batch_is_bit_identical_to_single_issue() {
    for tracing in all_tracings() {
        let label = tracing.label();
        let (_, single) = run(tracing.clone(), false);
        let (_, batched) = run(tracing, true);
        assert_eq!(
            single.ops(),
            batched.ops(),
            "{label}: batched issuance changed the operation log"
        );
    }
}

/// What the frozen per-task reference pipeline (the pre-optimization
/// recognizer step, `Config::with_reference_pipeline()` until it left
/// production) made of [`drive`] on the two automatic front-ends, recorded
/// at the last commit that shipped it: op digest, `SimReport::total` bits,
/// final counters. The step itself lives on as the replayer's test oracle.
const REFERENCE_VERDICT: [(u64, u64, RuntimeStats); 2] = [
    (
        0x0fe7_1be1_5dc0_8894,
        0x4129_802d_bd70_a3d2,
        RuntimeStats {
            tasks_total: 1840,
            tasks_fresh: 263,
            tasks_recorded: 143,
            tasks_replayed: 1434,
            traces_recorded: 5,
            trace_replays: 72,
            mismatches: 0,
            iterations: 200,
            templates_evicted: 0,
            peak_templates: 5,
            template_bytes: 8408,
            peak_template_bytes: 8408,
        },
    ),
    (
        0x3fe8_b676_acab_c25c,
        0x4129_fcee_3851_eb7c,
        RuntimeStats {
            tasks_total: 1840,
            tasks_fresh: 275,
            tasks_recorded: 143,
            tasks_replayed: 1422,
            traces_recorded: 5,
            trace_replays: 74,
            mismatches: 0,
            iterations: 200,
            templates_evicted: 0,
            peak_templates: 5,
            template_bytes: 8408,
            peak_template_bytes: 8408,
        },
    ),
];

#[test]
fn fast_paths_match_the_frozen_reference_pipeline() {
    // The recognize/replay hot paths (untraceable short-circuit, O(1)
    // deferral verdicts) must be invisible: per-task and batched, stored
    // (Full) and streaming (Drain), every run lands on the operation
    // stream, clock and counters the reference pipeline produced.
    for (tracing, verdict) in auto_tracings().into_iter().zip(REFERENCE_VERDICT) {
        let label = tracing.label();
        for batched in [false, true] {
            for retention in [LogRetention::Full, LogRetention::Drain] {
                let mut issuer = build(tracing.clone(), retention);
                drive(issuer.as_mut(), false, batched);
                let digest = issuer.op_digest();
                let got = issuer.finish().unwrap();
                assert_eq!(
                    (digest, got.report.total.0.to_bits(), got.stats),
                    verdict,
                    "{label} batched={batched} {retention:?}"
                );
            }
        }
    }
}

#[test]
fn issue_granularity_is_unobservable_when_drained() {
    // Equal streams are observably equal: issued a task or a batch at a
    // time, a drained run ends on the same residency counters — peaks
    // included — and writes the same checkpoint, byte for byte.
    for tracing in all_tracings() {
        let label = tracing.label();
        let observe = |batched: bool| {
            let mut issuer = build(tracing.clone(), LogRetention::Drain);
            drive(issuer.as_mut(), tracing.is_manual(), batched);
            let mut image = Vec::new();
            issuer.checkpoint(&mut image).unwrap();
            let seen =
                (issuer.log_stats(), issuer.buffered_ops(), issuer.stats(), issuer.op_digest());
            (seen, image)
        };
        let ((single, single_image), (batched, batched_image)) = (observe(false), observe(true));
        assert_eq!(single, batched, "{label}");
        assert!(single_image == batched_image, "{label}: checkpoint bytes differ");
    }
}

#[test]
fn auto_front_ends_actually_traced() {
    // Guard against the parity above passing vacuously (nothing traced).
    for tracing in auto_tracings() {
        let label = tracing.label();
        let mut issuer = build(tracing, LogRetention::Full);
        drive(issuer.as_mut(), false, true);
        let stats = issuer.stats();
        assert!(stats.tasks_replayed > 0, "{label}: {stats}");
        assert_eq!(stats.mismatches, 0, "{label}: {stats}");
    }
}

#[test]
fn manual_front_end_replays_the_bracketed_body() {
    let mut issuer = Session::builder().tracing(Tracing::Manual).build();
    drive(issuer.as_mut(), true, false);
    let stats = issuer.stats();
    assert_eq!(stats.trace_replays, (ITERS - 1) as u64, "{stats}");
    assert_eq!(stats.mismatches, 0);
}

#[test]
fn drain_is_bit_identical_to_full_for_every_front_end() {
    for tracing in all_tracings() {
        let label = tracing.label();
        let manual = tracing.is_manual();
        let mut full = build(tracing.clone(), LogRetention::Full);
        drive(full.as_mut(), manual, false);
        let full = full.finish().unwrap();
        let mut drained = build(tracing, LogRetention::Drain);
        drive(drained.as_mut(), manual, false);
        let resident = drained.log_stats();
        let drained = drained.finish().unwrap();
        // The streaming report equals both the full-retention report and
        // an explicit batch pass over the materialized log.
        assert_eq!(full.report, drained.report, "{label}: drain diverged from full");
        assert_eq!(
            drained.report,
            simulate(full.log()),
            "{label}: pipeline diverged from simulate(&OpLog)"
        );
        assert_eq!(full.stats, drained.stats, "{label}");
        assert!(drained.log.is_none(), "{label}");
        // Every op was counted even though none were stored. (Residency
        // stays O(window + trace length) — proven in the engine tests and
        // the `streaming_soak` bench, where streams dwarf the window; this
        // test's stream is shorter than the artifact's 30000-op window.)
        assert_eq!(resident.pushed, full.log().stats().pushed, "{label}");
    }
}

#[test]
fn late_flushed_tasks_keep_their_iteration_mark() {
    // Regression: an iteration mark logged while the auto tracer still
    // buffers tasks of its iteration lands in the log *before* those
    // tasks (flush forwards them afterwards). The mark must still bind to
    // the issued-task count — in both batch (Full) and streaming (Drain)
    // modes — so the iteration's timing includes its own tasks.
    let run = |retention: LogRetention| {
        let mut issuer = build(Tracing::Auto(small_auto()), retention);
        let a = issuer.create_region(1);
        let b = issuer.create_region(1);
        let body = |issuer: &mut dyn TaskIssuer, upto: u32| {
            for k in 0..upto {
                let (src, dst) = if k % 2 == 0 { (a, b) } else { (b, a) };
                issuer
                    .execute_task(
                        TaskDesc::new(TaskKindId(k))
                            .reads(src)
                            .read_writes(dst)
                            .gpu_time(Micros(80.0)),
                    )
                    .unwrap();
            }
        };
        for _ in 0..60 {
            body(issuer.as_mut(), 4);
            issuer.mark_iteration();
        }
        // A final *partial* body: the matcher holds these tasks in its
        // pending buffer (a longer match may still complete), so the mark
        // below is logged ahead of them and flush() pushes them after it.
        body(issuer.as_mut(), 2);
        issuer.mark_iteration();
        issuer.flush().unwrap();
        issuer.finish().unwrap()
    };
    let full = run(LogRetention::Full);
    let drained = run(LogRetention::Drain);
    assert_eq!(full.report, drained.report, "batch and streaming marker accounting agree");

    let log = full.log();
    let ops = log.ops();
    let last_mark_pos =
        ops.iter().rposition(|op| matches!(op, LogOp::IterationMark(_))).expect("marks logged");
    assert!(
        last_mark_pos < ops.len() - 1 && matches!(ops.last(), Some(LogOp::Task(_))),
        "scenario really buffered tasks past the final mark"
    );
    let LogOp::IterationMark(k) = ops[last_mark_pos] else { unreachable!() };
    assert_eq!(k, full.stats.tasks_total, "the mark binds to the issued-task count");

    // Marker semantics locked: moving the mark to the log's end (after
    // the tasks it was buffered past) changes nothing — marks resolve by
    // task count, not log position.
    let mut reordered = OpLog::new(*log.config());
    for (i, op) in ops.iter().enumerate() {
        if i != last_mark_pos {
            reordered.push(op.clone());
        }
    }
    reordered.push(ops[last_mark_pos].clone());
    assert_eq!(simulate(&reordered).iteration_finish, full.report.iteration_finish);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Issues a randomized program shape: `spec` selects, per step,
    /// between a repeated loop body (traceable), a rotating task, a
    /// unique task, and an iteration mark. Manual mode brackets the loop
    /// body only.
    fn drive_random(issuer: &mut dyn TaskIssuer, spec: &[(u8, u8)], manual: bool, batched: bool) {
        let a = issuer.create_region(1);
        let b = issuer.create_region(1);
        for (i, &(step, gpu)) in spec.iter().enumerate() {
            match step % 4 {
                0 | 1 => {
                    // The repeated body (two variants by parity keep a
                    // couple of motifs alive at once).
                    let variant = u32::from(step % 2);
                    if manual {
                        issuer.begin_trace(TraceId(variant)).unwrap();
                    }
                    let body = (0..4u32).map(|k| {
                        let (src, dst) = if k % 2 == 0 { (a, b) } else { (b, a) };
                        TaskDesc::new(TaskKindId(10 * variant + k))
                            .reads(src)
                            .read_writes(dst)
                            .gpu_time(Micros(f64::from(gpu) + 10.0))
                    });
                    if batched {
                        issuer.issue_batch(body.collect()).unwrap();
                    } else {
                        body.for_each(|t| issuer.execute_task(t).unwrap());
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
        issuer.flush().unwrap();
    }

    fn report_of(
        tracing: Tracing,
        retention: LogRetention,
        spec: &[(u8, u8)],
    ) -> (SimReport, Option<OpLog>) {
        let manual = tracing.is_manual();
        let mut issuer = build(tracing, retention);
        drive_random(issuer.as_mut(), spec, manual, false);
        let artifacts = issuer.finish().unwrap();
        (artifacts.report, artifacts.log)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The streaming (Drain) and batch (Full → `simulate(&OpLog)`)
        /// paths produce bit-identical `SimReport`s across random program
        /// shapes and all four issuer front-ends. Manual mode only
        /// brackets deterministic bodies, so every front-end accepts
        /// every generated stream.
        #[test]
        fn drain_equals_full_across_front_ends(
            spec in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        ) {
            for tracing in all_tracings() {
                let label = tracing.label();
                let (full_report, full_log) =
                    report_of(tracing.clone(), LogRetention::Full, &spec);
                let (drain_report, drain_log) =
                    report_of(tracing, LogRetention::Drain, &spec);
                let full_log = full_log.expect("full retention keeps the log");
                prop_assert!(drain_log.is_none(), "{}: drain kept a log", label);
                prop_assert_eq!(
                    &full_report,
                    &drain_report,
                    "{}: drain diverged from full", label
                );
                // The wrapper really is the same machine: a batch pass
                // over the stored ops reproduces both.
                prop_assert_eq!(
                    &simulate(&full_log),
                    &drain_report,
                    "{}: simulate(&OpLog) diverged from the pipeline", label
                );
            }
        }

        /// Batched issue reproduces per-task issue bit-for-bit across
        /// random program shapes: same operation log, same report, for
        /// all four front-ends.
        #[test]
        fn batched_issue_equals_per_task_on_random_streams(
            spec in proptest::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        ) {
            for tracing in all_tracings() {
                let label = tracing.label();
                let manual = tracing.is_manual();
                let run = |batched: bool| {
                    let mut issuer = build(tracing.clone(), LogRetention::Full);
                    drive_random(issuer.as_mut(), &spec, manual, batched);
                    issuer.finish().unwrap()
                };
                let (single, batched) = (run(false), run(true));
                prop_assert_eq!(
                    single.log().ops(),
                    batched.log().ops(),
                    "{}: batched issue changed the operation log", label
                );
                prop_assert_eq!(&single.report, &batched.report, "{}", label);
            }
        }
    }
}
