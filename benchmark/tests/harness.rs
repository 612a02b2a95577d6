//! The benchmark checking itself: recordings round-trip, generators are
//! pure functions of the seed, and both passes hold every check on every
//! workload at smoke size (which includes re-assembled stack S4 ==
//! `Session`, fleet tenants == solo, checkpointed == uncheckpointed ==
//! single-node Auto).

use apobench::gen::{checkpoint_cuts, interleave, Rng};
use apobench::passes::{end_to_end, per_layer, Options};
use apobench::program::{Cursor, IssueStyle, Recorder, Step};
use apobench::spans::Spans;
use apobench::workloads::Workload;
use apophenia::{Session, Tracing};
use tasksim::exec::LogRetention;
use tasksim::issuer::TaskIssuer;
use workloads::driver::{AppParams, ProblemSize, Workload as AppModel};

const SMOKE: Options = Options { seed: 1, seconds: 0.0, shrink: 20, min_reps: 1, setups: 2 };

fn untraced(nodes: u32, gpus: u32) -> Box<dyn TaskIssuer> {
    Session::builder()
        .nodes(nodes)
        .gpus_per_node(gpus)
        .tracing(Tracing::Untraced)
        .log_retention(LogRetention::Drain)
        .build()
}

#[test]
fn recorded_programs_replay_like_the_workload_itself() {
    let params = AppParams { nodes: 1, gpus_per_node: 4, size: ProblemSize::Small, iters: 40 };
    for app in [&workloads::Jacobi as &dyn AppModel, &workloads::Cfd, &workloads::Htr] {
        let mut direct = untraced(1, 4);
        app.run(direct.as_mut(), &params, false).unwrap();
        direct.flush().unwrap();

        let mut recorder = Recorder::new(1, 4);
        app.run(&mut recorder, &params, false).unwrap();
        let program = recorder.into_program();
        assert_eq!(program.direct_digest, direct.op_digest(), "{}: recording perturbs", app.name());
        assert_eq!(program.iterations, 40);

        // Replaying checks every region id against the recording.
        for style in [IssueStyle::Batch, IssueStyle::PerTask] {
            let mut replay = untraced(1, 4);
            let mut cursor = Cursor::new(&program, style);
            while cursor.play_iteration(replay.as_mut()).unwrap() {}
            replay.flush().unwrap();
            assert_eq!(cursor.issued, program.tasks);
            assert_eq!(replay.op_digest(), direct.op_digest(), "{} {style:?}", app.name());
            assert_eq!(replay.stats().tasks_total, program.tasks);
        }
    }
}

#[test]
fn region_drift_is_caught_on_replay() {
    let mut recorder = Recorder::new(1, 1);
    let a = recorder.create_region(1);
    recorder.partition(a, 2).unwrap();
    let mut program = recorder.into_program();
    let Step::CreateRegion { id, .. } = &mut program.steps[0] else { panic!("first step") };
    id.0 += 7;
    let mut replay = untraced(1, 1);
    let err = Cursor::new(&program, IssueStyle::Batch).play_iteration(replay.as_mut()).unwrap_err();
    assert!(err.to_string().contains("drifted"), "{err}");
}

#[test]
fn generators_are_pure_functions_of_the_seed() {
    for workload in Workload::ALL {
        let a = workload.materialise(5, 20);
        let b = workload.materialise(5, 20);
        assert_eq!(a.digest(), b.digest(), "{}", workload.name());
        assert_eq!(a.tenants[0].program, b.tenants[0].program, "{}", workload.name());
        let other = workload.materialise(6, 20);
        let seeded = !matches!(workload, Workload::JacobiRename | Workload::TorchsweSteady);
        assert_eq!(a.digest() != other.digest(), seeded, "{}", workload.name());
        // The seed moves content, never totals.
        assert_eq!(a.tasks(), other.tasks(), "{}", workload.name());
        assert_eq!(a.iterations(), other.iterations(), "{}", workload.name());
    }
    assert_eq!(Rng::new(1, 1).next_u64(), Rng::new(1, 1).next_u64());
    assert_ne!(Rng::new(1, 1).next_u64(), Rng::new(1, 2).next_u64());
}

#[test]
fn turn_orders_and_cuts_keep_their_shape() {
    let turns = interleave(9, &[3, 1, 2]);
    assert_eq!(turns.len(), 6);
    for (tenant, want) in [(0u8, 3), (1, 1), (2, 2)] {
        assert_eq!(turns.iter().filter(|&&t| t == tenant).count(), want);
    }
    assert_ne!(interleave(9, &[50, 50]), interleave(10, &[50, 50]));
    let cuts = checkpoint_cuts(3, 1500, 250);
    assert_eq!(cuts.len(), 5);
    assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    assert!(cuts.iter().enumerate().all(|(k, &c)| c.abs_diff(250 * (k as u64 + 1)) <= 5));
    assert_ne!(cuts, checkpoint_cuts(4, 1500, 250));
    assert!(checkpoint_cuts(3, 100, 250).is_empty());
}

#[test]
fn end_to_end_pass_holds_every_check_at_smoke_size() {
    for workload in Workload::ALL {
        let report = end_to_end(workload, &SMOKE);
        assert!(report.correct(), "{}: {:?}", workload.name(), report.failures);
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 3 * report.tasks, "warm-up, timed and counted repetitions");
        for (def, value) in report.metrics.entries() {
            assert!(value > 0.0, "{} {} must never be 0", workload.name(), def.name);
        }
        assert_eq!(
            report.decision_digests.len(),
            if workload == Workload::ServeFleet { 4 } else { 1 }
        );
    }
}

#[test]
fn traced_pass_holds_every_check_at_smoke_size() {
    for workload in Workload::ALL {
        let mut spans = Spans::new(workload.name(), 1 << 14);
        let report = per_layer(workload, &SMOKE, &mut spans);
        assert!(report.correct(), "{}: {:?}", workload.name(), report.failures);
        assert_eq!(report.metrics.entries().len(), apobench::metrics::PER_LAYER.len());
        assert_eq!(spans.dropped, 0);
        let names: Vec<&str> = spans.spans().iter().map(|s| s.name).collect();
        for stack in ["pass.traced", "session.run", "ladder.s0_driver", "ladder.s4_runtime"] {
            assert!(names.contains(&stack), "{}: no {stack} span", workload.name());
        }
        assert!(spans.spans().iter().all(|s| s.end_ns >= s.start_ns));
        if workload == Workload::CfdDistCkpt {
            assert!(names.contains(&"snapshot.checkpoint") && names.contains(&"snapshot.restore"));
            assert!(report.metrics.get("distributed.ingests").unwrap() > 0.0);
        }
    }
}
