//! Steady-state hot-path throughput: the allocation-free recognize/replay
//! overhaul, measured.
//!
//! Three stream shapes cover the states long runs actually sit in —
//! `untraceable` (aperiodic, every token rejected at the trie root),
//! `replaying` (one motif looping forever: a single cursor walking the
//! candidate's chain of single-child trie nodes), and `mixed`
//! (alternating blocks of both) — each driven in three issue modes:
//! `reference` (the frozen pre-overhaul per-task pipeline,
//! `Config::with_reference_pipeline`), `fast` (the per-task path), and
//! `batched` (`TraceReplayer::on_batch` / `TaskIssuer::issue_batch`).
//!
//! Two measurement layers: the bare `TraceReplayer` (where the root-miss
//! fast path lives — its speedup threshold is enforced here) and a full
//! `Session` stack (mining + runtime + simulation pipeline — end-to-end
//! op-digest confirmation). Every run checks that all modes of a
//! (stream, layer) pair produced **bit-identical** event digests: the
//! overhaul buys throughput only, never a different stream.
//!
//! The report target prints the throughput table and writes the rows to
//! `BENCH_hot_path.json` (override the path with `HOT_PATH_JSON`) so
//! future PRs can track the trajectory mechanically. In `--test` smoke
//! mode (CI) streams shrink and the timing thresholds are skipped —
//! shared runners make wall-clock ratios meaningless there — but the
//! digest cross-checks still run.

use bench::{
    render_hot_path, render_hot_path_json, run_hot_path_replayer, run_hot_path_session, HotPathRow,
};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

const STREAMS: [&str; 3] = ["untraceable", "replaying", "mixed"];
const MODES: [&str; 3] = ["reference", "fast", "batched"];

/// `--test` smoke mode: one small pass, no timing assertions.
fn smoke() -> bool {
    std::env::args().any(|a| a == "--test")
}

fn replayer_tasks() -> usize {
    if smoke() {
        60_000
    } else {
        2_000_000
    }
}

fn session_tasks() -> usize {
    if smoke() {
        20_000
    } else {
        400_000
    }
}

fn bench_hot_path(c: &mut Criterion) {
    let tasks = replayer_tasks();
    let mut g = c.benchmark_group("hot_path");
    g.sample_size(2);
    g.throughput(Throughput::Elements(tasks as u64));
    for stream in STREAMS {
        for mode in MODES {
            g.bench_function(format!("{stream}/{mode}"), |b| {
                b.iter(|| run_hot_path_replayer(stream, mode, tasks))
            });
        }
    }
    g.finish();
}

/// Prints the throughput table, enforces the digest and speedup
/// contracts, and emits the machine-readable JSON.
fn report_table(_c: &mut Criterion) {
    let mut rows: Vec<HotPathRow> = Vec::new();
    for stream in STREAMS {
        for mode in MODES {
            rows.push(run_hot_path_replayer(stream, mode, replayer_tasks()));
        }
        for mode in MODES {
            rows.push(run_hot_path_session(stream, mode, session_tasks()));
        }
    }
    for stream in STREAMS {
        for layer in ["replayer", "session"] {
            let digests: Vec<u64> = rows
                .iter()
                .filter(|r| r.stream == stream && r.layer == layer)
                .map(|r| r.digest)
                .collect();
            assert!(
                digests.windows(2).all(|w| w[0] == w[1]),
                "{stream}/{layer}: a fast path changed the event stream: {digests:x?}"
            );
        }
    }
    if !smoke() {
        let tput = |stream: &str, mode: &str| {
            rows.iter()
                .find(|r| r.layer == "replayer" && r.stream == stream && r.mode == mode)
                .expect("row exists")
                .mtask_per_sec
        };
        // The root-miss fast path's contract, measured against the frozen
        // reference pipeline on the layer it lives in. `fast` is the
        // floor; `batched` may only help.
        let untraceable = tput("untraceable", "fast") / tput("untraceable", "reference");
        assert!(
            untraceable >= 2.0,
            "untraceable steady state sped up only {untraceable:.2}x (need >= 2x)"
        );
    }
    print!("{}", render_hot_path(&rows));
    let path = std::env::var("HOT_PATH_JSON").unwrap_or_else(|_| "BENCH_hot_path.json".into());
    match std::fs::write(&path, render_hot_path_json(&rows)) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(2);
    targets = bench_hot_path, report_table
}
criterion_main!(benches);
