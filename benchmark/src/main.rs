//! The `apobench` command line. See `README.md`.

use apobench::clock::now_ns;
use apobench::metrics::{contract_json, RUN_SECONDS};
use apobench::passes::{end_to_end, per_layer, Options, PassReport};
use apobench::report;
use apobench::spans::{Span, Spans};
use apobench::workloads::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: apobench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
                [--smoke] [--check-repeat] [--emit-contract] [--emit-golden]

  --workload NAME   run one workload (default: all six)
  --seed N          seed of the generated inputs (default 1)
  --seconds S       how long each pass measures (default: BENCHMARK.json's run_seconds)
  --trace 0|1       0: end-to-end pass only; 1: traced per-layer pass only (default: both)
  --out DIR         also write DIR/results.json and DIR/trace.json
  --smoke           1/20 size, one repetition, every check
  --check-repeat    run the end-to-end pass twice; fail if a metric worsens beyond its bound
  --emit-contract   print BENCHMARK.json as generated from the metric tables
  --emit-golden     print golden.json for the golden seed";

/// Spans one traced pass may record before it starts dropping them.
const SPAN_CAPACITY: usize = 1 << 17;

struct Args {
    workloads: Vec<Workload>,
    opts: Options,
    trace: Option<bool>,
    out: Option<PathBuf>,
    check_repeat: bool,
}

enum Mode {
    Run(Args),
    EmitContract,
    EmitGolden,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Mode, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        opts: Options { seed: 1, seconds: RUN_SECONDS as f64, shrink: 1, min_reps: 3, setups: 3 },
        trace: None,
        out: None,
        check_repeat: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload =
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
                args.workloads = vec![workload];
            }
            "--seed" => args.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.opts.seconds = seconds;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--smoke" => {
                args.opts =
                    Options { shrink: 20, min_reps: 1, setups: 2, seconds: 0.0, ..args.opts };
            }
            "--check-repeat" => args.check_repeat = true,
            "--emit-contract" => return Ok(Mode::EmitContract),
            "--emit-golden" => return Ok(Mode::EmitGolden),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Mode::Run(args))
}

fn run(args: &Args) -> ExitCode {
    let mut reports: Vec<PassReport> = Vec::new();
    let mut traces: Vec<Vec<Span>> = Vec::new();
    let mut offenders: Vec<String> = Vec::new();
    for &workload in &args.workloads {
        let mut spans = Spans::new(workload.name(), SPAN_CAPACITY);
        if args.trace != Some(true) {
            let start = now_ns();
            let report = end_to_end(workload, &args.opts);
            spans.push(0, "pass.end_to_end", start, now_ns(), report.attempted);
            report::print_lines(&report);
            if args.check_repeat {
                let again = end_to_end(workload, &args.opts);
                report::print_lines(&again);
                for (metric, first, second) in report::repeat_offenders(&report, &again) {
                    offenders.push(format!("{} {metric}: {first} then {second}", workload.name()));
                }
            }
            reports.push(report);
        }
        if args.trace != Some(false) && !args.check_repeat {
            let report = per_layer(workload, &args.opts, &mut spans);
            report::print_lines(&report);
            if spans.dropped > 0 {
                eprintln!("{}: {} spans dropped (buffer full)", workload.name(), spans.dropped);
            }
            reports.push(report);
        }
        traces.push(spans.spans().to_vec());
    }
    if let Some(dir) = &args.out {
        let written = report::write_results(dir, &args.opts, &reports)
            .and_then(|()| report::write_trace(dir, &traces));
        if let Err(e) = written {
            eprintln!("apobench: cannot write to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    for offender in &offenders {
        eprintln!("apobench: --check-repeat: {offender}");
    }
    println!("{}", report::result_line(&reports));
    if reports.iter().all(PassReport::correct) && offenders.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(Mode::Run(args)) => run(&args),
        Ok(Mode::EmitContract) => {
            print!("{}", contract_json());
            ExitCode::SUCCESS
        }
        Ok(Mode::EmitGolden) => {
            let digests: Vec<(Workload, u64)> = Workload::ALL
                .into_iter()
                .map(|w| (w, w.materialise(apobench::golden::GOLDEN_SEED, 1).digest()))
                .collect();
            print!("{}", apobench::golden::render(&digests));
            ExitCode::SUCCESS
        }
        Err(message) => {
            if !message.is_empty() {
                eprintln!("apobench: {message}");
            }
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
