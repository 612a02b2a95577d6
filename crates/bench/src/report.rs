//! Plain-text rendering of experiment results.

use crate::experiments::{
    LifecycleRow, MiningThroughputRow, OverheadReport, ScalingFigure, StreamingSoakRow, WarmupRow,
};
use std::fmt::Write as _;

/// Renders a scaling figure as an aligned table: one row per GPU count,
/// one column per series.
pub fn render_scaling(fig: &ScalingFigure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure {}: {} — {}", fig.id, fig.title, fig.ylabel);
    let gpus: Vec<u32> =
        fig.series.first().map_or(Vec::new(), |s| s.points.iter().map(|&(g, _)| g).collect());
    let _ = write!(out, "{:>8}", "GPUs");
    for s in &fig.series {
        let _ = write!(out, "{:>14}", s.label);
    }
    let _ = writeln!(out);
    for (row, &g) in gpus.iter().enumerate() {
        let _ = write!(out, "{g:>8}");
        for s in &fig.series {
            let _ = write!(out, "{:>14.3}", s.points[row].1);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders the Figure 9 warmup table.
pub fn render_warmup(rows: &[WarmupRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 9: iterations until replaying steady state");
    let _ = writeln!(out, "{:>12} {:>10} {:>12}", "Application", "measured", "paper");
    for r in rows {
        let measured = r.warmup_iterations.map_or("not reached".to_string(), |w| w.to_string());
        let _ = writeln!(out, "{:>12} {:>10} {:>12}", r.app, measured, r.paper);
    }
    out
}

/// Renders the Figure 10 series (task index vs percent traced).
pub fn render_fig10(samples: &[(u64, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 10: percent of last 5000 tasks traced (S3D)");
    let _ = writeln!(out, "{:>12} {:>10} bar", "task index", "% traced");
    // Thin the series for readability.
    let step = (samples.len() / 40).max(1);
    for (idx, pct) in samples.iter().step_by(step) {
        let bar = "#".repeat((pct / 2.5) as usize);
        let _ = writeln!(out, "{idx:>12} {pct:>10.1} {bar}");
    }
    out
}

/// Renders the §6.3 overhead table.
pub fn render_overhead(r: &OverheadReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Section 6.3: Apophenia overheads");
    let _ = writeln!(
        out,
        "  simulated task launch, plain:     {:>8.1} µs (paper: 7 µs)",
        r.launch_plain_us
    );
    let _ = writeln!(
        out,
        "  simulated task launch, Apophenia: {:>8.1} µs (paper: 12 µs)",
        r.launch_auto_us
    );
    let _ = writeln!(
        out,
        "  simulated replay per task:        {:>8.1} µs (paper: 100 µs)",
        r.replay_us
    );
    let _ = writeln!(
        out,
        "  measured layer cost, plain:       {:>8.2} µs/task (this implementation, wall clock)",
        r.measured_plain_us
    );
    let _ = writeln!(
        out,
        "  measured layer cost, Apophenia:   {:>8.2} µs/task (this implementation, wall clock)",
        r.measured_auto_us
    );
    out
}

/// Renders the `mining_throughput` table: the perf trajectory of the
/// mining hot path across suffix backends, mining modes, thread counts,
/// and stream shapes.
pub fn render_mining_throughput(rows: &[MiningThroughputRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Mining throughput (finder hot path)");
    let _ = writeln!(
        out,
        "{:>10} {:>22} {:>10} {:>8} {:>12}",
        "stream", "config", "tokens", "threads", "Mtok/s"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>10} {:>22} {:>10} {:>8} {:>12.2}",
            r.stream, r.config, r.tokens, r.threads, r.mtok_per_sec
        );
    }
    out
}

/// Renders the `trace_lifecycle` soak table: memory high-water marks and
/// per-phase replay coverage, capped vs uncapped.
pub fn render_trace_lifecycle(rows: &[LifecycleRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Trace lifecycle soak (phase-shifting stream)");
    let _ = writeln!(
        out,
        "{:>10} {:>9} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>10}  coverage/phase",
        "config",
        "tasks",
        "peakNodes",
        "peakCands",
        "evicted",
        "compacts",
        "meta",
        "peakTmpls",
        "tmplEvict"
    );
    for r in rows {
        let coverage: Vec<String> =
            r.phase_coverage.iter().map(|c| format!("{:.0}%", c * 100.0)).collect();
        let _ = writeln!(
            out,
            "{:>10} {:>9} {:>10} {:>10} {:>9} {:>9} {:>10} {:>10} {:>10}  [{}]",
            r.label,
            r.tasks,
            r.peak_trie_nodes,
            r.peak_candidates,
            r.evictions,
            r.compactions,
            format!("{}/{}", r.meta_capacity, r.peak_meta_capacity),
            r.peak_templates,
            r.templates_evicted,
            coverage.join(" ")
        );
    }
    out
}

/// Renders the `streaming_soak` table: resident-operation high-water
/// marks per retention policy on a production-length stream.
pub fn render_streaming_soak(rows: &[StreamingSoakRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Streaming simulation soak (log retention)");
    let _ = writeln!(
        out,
        "{:>8} {:>10} {:>12} {:>10} {:>10} {:>16}",
        "config", "ops", "peakResident", "replayed", "iters", "simTotal(s)"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:>8} {:>10} {:>12} {:>9.0}% {:>10} {:>16.3}",
            r.label,
            r.pushed,
            r.peak_retained,
            r.replayed_fraction * 100.0,
            r.iterations,
            r.total_us / 1e6
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::Series;

    #[test]
    fn scaling_render_contains_all_labels() {
        let fig = ScalingFigure {
            id: "6a",
            title: "demo".into(),
            ylabel: "throughput",
            series: vec![
                Series { label: "auto-s".into(), points: vec![(4, 1.5), (8, 1.4)] },
                Series { label: "untraced-s".into(), points: vec![(4, 1.0), (8, 0.7)] },
            ],
        };
        let s = render_scaling(&fig);
        assert!(s.contains("auto-s") && s.contains("untraced-s"));
        assert!(s.contains("1.500") && s.contains("0.700"));
    }

    #[test]
    fn warmup_render() {
        let rows = vec![
            WarmupRow { app: "S3D", warmup_iterations: Some(42), paper: 50 },
            WarmupRow { app: "CFD", warmup_iterations: None, paper: 300 },
        ];
        let s = render_warmup(&rows);
        assert!(s.contains("42") && s.contains("not reached"));
    }

    #[test]
    fn fig10_render() {
        let samples: Vec<(u64, f64)> = (0..100).map(|i| (i * 100, i as f64)).collect();
        let s = render_fig10(&samples);
        assert!(s.contains("% traced"));
    }

    #[test]
    fn mining_throughput_render() {
        let rows = vec![
            MiningThroughputRow {
                stream: "periodic",
                config: "sais".into(),
                tokens: 65536,
                threads: 1,
                mtok_per_sec: 12.345,
            },
            MiningThroughputRow {
                stream: "workload",
                config: "pool".into(),
                tokens: 65536,
                threads: 4,
                mtok_per_sec: 3.5,
            },
        ];
        let s = render_mining_throughput(&rows);
        assert!(s.contains("sais") && s.contains("pool"));
        assert!(s.contains("12.35") && s.contains("3.50"));
        assert!(s.contains("Mtok/s"));
    }

    #[test]
    fn streaming_soak_render() {
        let rows = vec![
            StreamingSoakRow {
                label: "full",
                pushed: 1_100_000,
                peak_retained: 1_100_000,
                replayed_fraction: 0.97,
                iterations: 100_000,
                total_us: 2.5e8,
            },
            StreamingSoakRow {
                label: "drain",
                pushed: 1_100_000,
                peak_retained: 30_500,
                replayed_fraction: 0.97,
                iterations: 100_000,
                total_us: 2.5e8,
            },
        ];
        let s = render_streaming_soak(&rows);
        assert!(s.contains("full") && s.contains("drain"));
        assert!(s.contains("1100000") && s.contains("30500"));
        assert!(s.contains("97%") && s.contains("peakResident"));
    }

    #[test]
    fn trace_lifecycle_render() {
        let rows = vec![
            LifecycleRow {
                label: "uncapped",
                tasks: 100_000,
                peak_trie_nodes: 4321,
                peak_candidates: 99,
                evictions: 0,
                compactions: 0,
                meta_capacity: 99,
                peak_meta_capacity: 99,
                peak_templates: 12,
                templates_evicted: 0,
                phase_coverage: vec![0.91, 0.94],
            },
            LifecycleRow {
                label: "capped",
                tasks: 100_000,
                peak_trie_nodes: 1024,
                peak_candidates: 24,
                evictions: 57,
                compactions: 3,
                meta_capacity: 21,
                peak_meta_capacity: 38,
                peak_templates: 8,
                templates_evicted: 4,
                phase_coverage: vec![0.90, 0.93],
            },
        ];
        let s = render_trace_lifecycle(&rows);
        assert!(s.contains("uncapped") && s.contains("capped"));
        assert!(s.contains("4321") && s.contains("57"));
        assert!(s.contains("21/38"), "meta current/peak rendered: {s}");
        assert!(s.contains("91%") && s.contains("93%"));
        assert!(s.contains("coverage/phase"));
    }
}
