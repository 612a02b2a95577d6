//! What the benchmark prints and writes: the `workload metric value unit`
//! lines, the result line of the driver contract, `results.json` and
//! `trace.json`.

use crate::json::Json;
use crate::metrics::{bound_of, Better};
use crate::passes::{Options, PassReport};
use crate::spans::Span;
use crate::workloads::Workload;
use std::io::Write;
use std::path::Path;
use std::process::Command;

/// Prints every metric of `report` as `workload metric value unit`, then
/// any failed check.
pub fn print_lines(report: &PassReport) {
    let name = report.workload.name();
    println!("{name} tasks {} count", report.tasks);
    println!("{name} iterations {} count", report.iterations);
    println!("{name} pass_wall_s {} s", report.wall_s);
    for (def, value) in report.metrics.entries_or_empty() {
        println!("{name} {} {value} {}", def.name, def.unit);
    }
    println!(
        "{name} failed_ops_share {} ratio",
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for failure in &report.failures {
        println!("{name} CHECK FAILED: {failure}");
    }
}

/// The last line of standard output: the driver contract's result object.
pub fn result_line(reports: &[PassReport]) -> String {
    // One pass reports its metrics under their own names (the driver
    // contract); several are told apart by a `workload/` prefix.
    let metrics = match reports {
        [only] => only.metrics.to_json(),
        many => Json::Object(
            many.iter()
                .flat_map(|r| {
                    let Json::Object(fields) = r.metrics.to_json() else { unreachable!() };
                    let prefix = r.workload.name();
                    fields.into_iter().map(move |(name, m)| (format!("{prefix}/{name}"), m))
                })
                .collect(),
        ),
    };
    Json::object([
        ("correct", Json::Bool(reports.iter().all(PassReport::correct))),
        ("attempted", Json::Num(reports.iter().map(|r| r.attempted).sum::<u64>().max(1) as f64)),
        ("failed", Json::Num(reports.iter().map(|r| r.failed).sum::<u64>() as f64)),
        ("metrics", metrics),
    ])
    .compact()
}

/// First line of a command's standard output, or `unknown` — provenance
/// must never fail a run (the driver's checkout is not a git repository).
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn pass_json(report: &PassReport) -> Json {
    Json::object([
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("failed_ops_share", Json::Num(report.failed as f64 / report.attempted.max(1) as f64)),
        ("failures", Json::Array(report.failures.iter().map(|f| Json::str(f)).collect())),
        ("wall_s", Json::Num(report.wall_s)),
        ("metrics", report.metrics.to_json()),
        (
            "repetitions",
            Json::Object(report.raw.iter().map(|(k, v)| (k.to_string(), Json::nums(v))).collect()),
        ),
    ])
}

/// Writes `results.json`: environment and provenance, then per workload
/// the frozen sizes, both digests, and each pass with every repetition's
/// raw values.
pub fn write_results(dir: &Path, opts: &Options, reports: &[PassReport]) -> std::io::Result<()> {
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for workload in Workload::ALL {
        let mut passes = reports.iter().filter(|r| r.workload == workload).peekable();
        let Some(first) = passes.peek() else { continue };
        let mut fields = vec![
            ("why".to_string(), Json::str(workload.why())),
            ("tasks".to_string(), Json::Num(first.tasks as f64)),
            ("iterations".to_string(), Json::Num(first.iterations as f64)),
            ("input_digest".to_string(), Json::hex(first.input_digest)),
            (
                "decision_digests".to_string(),
                Json::Array(first.decision_digests.iter().map(|&d| Json::hex(d)).collect()),
            ),
        ];
        for report in passes {
            let pass = if report.metrics.is_end_to_end() { "end_to_end" } else { "per_layer" };
            fields.push((pass.to_string(), pass_json(report)));
        }
        workloads.push((workload.name().to_string(), Json::Object(fields)));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let doc = Json::object([
        ("benchmark", Json::str("apobench")),
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::Str(first_line_of("rustc", &["--version"]))),
        ("git_commit", Json::Str(first_line_of("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("shrink", Json::Num(opts.shrink as f64)),
        ("workloads", Json::Object(workloads)),
    ]);
    std::fs::create_dir_all(dir)?;
    let mut file = std::fs::File::create(dir.join("results.json"))?;
    file.write_all(doc.pretty().as_bytes())
}

/// Writes `trace.json`: every span, ids made unique across workloads.
pub fn write_trace(dir: &Path, per_workload: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = Vec::new();
    let mut offset = 0u32;
    for spans in per_workload {
        for s in spans {
            out.push(Json::object([
                ("id", Json::Num(f64::from(s.id + offset))),
                ("parent", Json::Num(f64::from(if s.parent == 0 { 0 } else { s.parent + offset }))),
                ("workload", Json::str(s.workload)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("count", Json::Num(s.count as f64)),
            ]));
        }
        offset += spans.len() as u32;
    }
    std::fs::create_dir_all(dir)?;
    let mut file = std::fs::File::create(dir.join("trace.json"))?;
    file.write_all(Json::Array(out).pretty().as_bytes())
}

/// End-to-end metrics of `second` that are worse than `first` by more
/// than their bound: `(metric, first, second)`.
pub fn repeat_offenders(first: &PassReport, second: &PassReport) -> Vec<(&'static str, f64, f64)> {
    first
        .metrics
        .entries_or_empty()
        .into_iter()
        .zip(second.metrics.entries_or_empty())
        .filter_map(|((def, a), (_, b))| {
            let worse = match def.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            (worse > bound_of(def.name)?).then_some((def.name, a, b))
        })
        .collect()
}
