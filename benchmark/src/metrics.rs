//! The metric tables: every name the benchmark reports, with its unit and
//! direction, and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` is
//! generated from these tables ([`contract_json`]); `README.md` says which
//! end-to-end metric each per-layer metric should move, and where.

use crate::json::Json;
use crate::workloads::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Lower }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit, better: Better::Higher }
}

/// End-to-end metrics with their regression bounds (a share of the
/// parent's median). Every workload reports all of them; none can be 0.
pub const END_TO_END: [(MetricDef, f64); 7] = [
    (lower("setup_s", "s"), 0.25),
    (lower("issue_ns_per_task", "ns"), 0.10),
    (lower("issue_p99_iter_us", "us"), 0.20),
    (higher("sim_iters_per_s", "it/s"), 0.001),
    (lower("unreplayed_fraction", "ratio"), 0.02),
    (lower("peak_heap_mb", "MB"), 0.05),
    (lower("allocs_per_task", "count"), 0.02),
];

/// Per-layer metrics (traced pass). No bounds: they explain, the
/// end-to-end metrics judge.
pub const PER_LAYER: [MetricDef; 54] = [
    lower("driver.clone_ns_per_task", "ns"),
    lower("task.hash_ns_per_task", "ns"),
    lower("finder.record_ns_per_task", "ns"),
    lower("finder.mine_us_per_job", "us"),
    lower("finder.jobs", "count"),
    higher("finder.useful_job_ratio", "ratio"),
    higher("finder.candidates_mined", "count"),
    higher("finder.candidate_tokens", "count"),
    lower("substrings.sa_build_ns_per_token", "ns"),
    lower("substrings.repeats_ns_per_token", "ns"),
    lower("replayer.recognize_ns_per_task", "ns"),
    lower("replayer.ingest_us_per_batch", "us"),
    lower("replayer.evicted_candidates", "count"),
    lower("replayer.trie_compactions", "count"),
    lower("replayer.candidates", "count"),
    lower("replayer.peak_trie_bytes", "B"),
    lower("replayer.peak_pending_tasks", "count"),
    lower("replayer.traces_issued", "count"),
    lower("runtime.sink_ns_per_task", "ns"),
    lower("runtime.untraced_ns_per_task", "ns"),
    lower("runtime.auto_overhead_ratio", "ratio"),
    lower("runtime.fresh_share", "ratio"),
    lower("runtime.recorded_share", "ratio"),
    higher("runtime.replayed_share", "ratio"),
    lower("runtime.traces_recorded", "count"),
    higher("runtime.trace_replays", "count"),
    lower("runtime.templates_evicted", "count"),
    lower("runtime.peak_template_bytes", "B"),
    lower("deps.analyze_ns_per_task", "ns"),
    lower("deps.preds_per_task", "count"),
    lower("deps.frontier_size", "count"),
    lower("exec.sim_ns_per_op", "ns"),
    lower("exec.log_push_ns_per_op", "ns"),
    lower("exec.peak_retained_ops", "count"),
    lower("engine.glue_ns_per_task", "ns"),
    lower("engine.warmup_iters", "count"),
    lower("snapshot.checkpoint_ms", "ms"),
    lower("snapshot.restore_ms", "ms"),
    lower("snapshot.bytes", "B"),
    lower("snapshot.cycle_share", "ratio"),
    lower("distributed.cost_ratio", "ratio"),
    lower("distributed.ingests", "count"),
    lower("distributed.waits", "count"),
    lower("distributed.stall_ops", "count"),
    lower("serve.submit_ns_per_task", "ns"),
    lower("serve.overhead_ns_per_task", "ns"),
    lower("serve.quiesce_wait_share", "ratio"),
    lower("serve.busy_rejections", "count"),
    lower("serve.metrics_render_us", "us"),
    lower("serve.peak_trie_bytes", "B"),
    lower("serve.peak_template_bytes", "B"),
    higher("trace.attributed_share", "ratio"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.clock_ns", "ns"),
];

/// The bound of an end-to-end metric.
pub fn bound_of(name: &str) -> Option<f64> {
    END_TO_END.iter().find(|(d, _)| d.name == name).map(|&(_, b)| b)
}

/// A pass's measured values, checked against a table: every metric of the
/// table exactly once, nothing else.
#[derive(Debug, Clone)]
pub struct MetricSet {
    defs: Vec<MetricDef>,
    values: Vec<Option<f64>>,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        Self::over(END_TO_END.iter().map(|&(d, _)| d).collect())
    }

    pub fn per_layer() -> Self {
        Self::over(PER_LAYER.to_vec())
    }

    fn over(defs: Vec<MetricDef>) -> Self {
        Self { values: vec![None; defs.len()], defs }
    }

    /// Records `name`'s value.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the table, a second value for one name,
    /// or a value that is not finite — each a harness bug.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.values[i].replace(value).is_none(), "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.defs.iter().position(|d| d.name == name).and_then(|i| self.values[i])
    }

    /// Every metric with its value, in table order.
    ///
    /// # Panics
    ///
    /// Panics if a metric of the table was never set.
    pub fn entries(&self) -> Vec<(MetricDef, f64)> {
        self.defs
            .iter()
            .zip(&self.values)
            .map(|(d, v)| (*d, v.unwrap_or_else(|| panic!("metric {} was never set", d.name))))
            .collect()
    }

    /// [`Self::entries`], or nothing when the pass died before measuring.
    pub fn entries_or_empty(&self) -> Vec<(MetricDef, f64)> {
        if self.values.iter().all(Option::is_some) {
            self.entries()
        } else {
            Vec::new()
        }
    }

    pub fn is_end_to_end(&self) -> bool {
        self.defs.first().is_some_and(|d| d.name == END_TO_END[0].0.name)
    }

    /// The contract's `metrics` object: `{name: {value, unit}}`.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.entries_or_empty()
                .into_iter()
                .map(|(d, v)| {
                    let metric =
                        Json::object([("value", Json::Num(v)), ("unit", Json::str(d.unit))]);
                    (d.name.to_string(), metric)
                })
                .collect(),
        )
    }
}

/// How long one driver run measures.
pub const RUN_SECONDS: u64 = 8;

/// `BENCHMARK.json`, generated so the file and the tables cannot drift.
pub fn contract_json() -> String {
    let metric = |d: &MetricDef| {
        vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.as_str())),
        ]
    };
    let command =
        ["cargo", "run", "--release", "--offline", "--manifest-path", "benchmark/Cargo.toml", "--"];
    Json::object([
        ("command", Json::Array(command.into_iter().map(Json::str).collect())),
        ("paths", Json::Array(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Array(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Json::object([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|(d, bound)| {
                        let mut fields = metric(d);
                        fields.push(("bound", Json::Num(*bound)));
                        Json::object(fields)
                    })
                    .collect(),
            ),
        ),
        ("per_layer", Json::Array(PER_LAYER.iter().map(|d| Json::object(metric(d))).collect())),
    ])
    .pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|(d, _)| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()), "{name}");
        }
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        for d in END_TO_END.iter().map(|(d, _)| d).chain(&PER_LAYER) {
            assert!(d.unit.len() <= 16 && d.unit.chars().all(unit_ok), "{}", d.unit);
        }
        for (d, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
        }
        assert!(END_TO_END.iter().any(|(d, _)| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn checked_in_contract_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, contract_json(), "regenerate with --emit-contract");
    }

    #[test]
    fn metric_sets_reject_strays_and_gaps() {
        let mut set = MetricSet::end_to_end();
        set.set("setup_s", 1.0);
        assert_eq!(set.get("setup_s"), Some(1.0));
        assert!(std::panic::catch_unwind(|| MetricSet::end_to_end().set("nope", 1.0)).is_err());
        assert!(std::panic::catch_unwind(move || set.entries()).is_err());
    }
}
