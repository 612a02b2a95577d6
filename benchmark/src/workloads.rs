//! The six workloads: what stream, through which front-end, issued how,
//! at which frozen size — and why each is here.

use crate::gen;
use crate::program::{IssueStyle, Program, Recorder};
use apophenia::{Config, DelayModel, Session, Tracing};
use apophenia_serve::ServeConfig;
use tasksim::exec::LogRetention;
use tasksim::issuer::TaskIssuer;
use tasksim::runtime::{RuntimeConfig, RuntimeError};
use workloads::driver::{AppParams, ProblemSize, Workload as AppModel};

/// The benchmark's workloads, in reporting order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    JacobiRename,
    TorchsweSteady,
    UntraceablePertask,
    PhaseChurnCapped,
    ServeFleet,
    CfdDistCkpt,
}

/// Frozen full-size run lengths. `--smoke` divides every one by 20.
mod size {
    pub const JACOBI_ITERS: u64 = 7_200;
    pub const TORCHSWE_ITERS: u64 = 1_600;
    pub const UNTRACEABLE_TASKS: u64 = 800_000;
    pub const CHURN_TASKS: u64 = 409_600;
    /// HTR, FlexFlow, CFD, TorchSWE.
    pub const FLEET_ITERS: [u64; 4] = [1_500, 400, 1_000, 300];
    pub const CFD_ITERS: u64 = 1_500;
    pub const CKPT_EVERY: u64 = 250;
}

/// Per-tenant trie and template byte budgets in `serve_fleet`.
pub const FLEET_BUDGET_BYTES: usize = 512 * 1024;
/// Admission limit in `serve_fleet`: generous enough never to trip on
/// these streams, present so the admission check is on the issue path.
pub const FLEET_MAX_BUFFERED_OPS: usize = 30_000;

/// One stream with the front-end it runs through.
#[derive(Debug, Clone)]
pub struct Tenant {
    pub label: &'static str,
    pub program: Program,
    pub runtime: RuntimeConfig,
    pub tracing: Tracing,
    pub style: IssueStyle,
}

impl Tenant {
    /// A fresh front-end for this stream.
    pub fn build(&self) -> Box<dyn TaskIssuer> {
        self.build_with(self.tracing.clone())
    }

    /// A fresh front-end over the same machine and retention, traced as
    /// `tracing` instead (the untraced baseline, the single-node twin).
    pub fn build_with(&self, tracing: Tracing) -> Box<dyn TaskIssuer> {
        Session::builder().runtime_config(self.runtime).tracing(tracing).build()
    }

    /// The Apophenia configuration, if the front-end traces automatically.
    pub fn auto_config(&self) -> Option<&Config> {
        match &self.tracing {
            Tracing::Auto(config) | Tracing::Distributed { config, .. } => Some(config),
            Tracing::Untraced | Tracing::Manual => None,
        }
    }
}

/// A workload's generated inputs for one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub workload: Workload,
    /// One stream, except `serve_fleet`'s four.
    pub tenants: Vec<Tenant>,
    /// `serve_fleet`: which tenant issues its next iteration, turn by turn.
    pub turns: Vec<u8>,
    /// `cfd_dist_ckpt`: iteration counts after which to checkpoint.
    pub cuts: Vec<u64>,
}

impl Inputs {
    pub fn tasks(&self) -> u64 {
        self.tenants.iter().map(|t| t.program.tasks).sum()
    }

    pub fn iterations(&self) -> u64 {
        self.tenants.iter().map(|t| t.program.iterations).sum()
    }

    /// One digest over every tenant's input digest, the turn order and
    /// the cut positions — the value `golden.json` pins.
    pub fn digest(&self) -> u64 {
        let mut h = crate::program::Fnv::default();
        self.tenants.iter().for_each(|t| h.write(t.program.digest));
        self.turns.iter().for_each(|&t| h.write(u64::from(t)));
        self.cuts.iter().for_each(|&c| h.write(c));
        h.finish()
    }
}

fn drained(nodes: u32, gpus_per_node: u32) -> RuntimeConfig {
    RuntimeConfig::multi_node(nodes, gpus_per_node).with_log_retention(LogRetention::Drain)
}

fn record(
    runtime: &RuntimeConfig,
    stream: impl FnOnce(&mut dyn TaskIssuer) -> Result<(), RuntimeError>,
) -> Program {
    let mut recorder = Recorder::new(runtime.nodes, runtime.gpus_per_node);
    stream(&mut recorder).expect("benchmark streams are valid programs");
    recorder.into_program()
}

fn record_app(app: &dyn AppModel, runtime: &RuntimeConfig, iters: u64) -> Program {
    let params = AppParams {
        nodes: runtime.nodes,
        gpus_per_node: runtime.gpus_per_node,
        size: ProblemSize::Small,
        iters: iters as usize,
    };
    record(runtime, |issuer| app.run(issuer, &params, false))
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::JacobiRename,
        Workload::TorchsweSteady,
        Workload::UntraceablePertask,
        Workload::PhaseChurnCapped,
        Workload::ServeFleet,
        Workload::CfdDistCkpt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::JacobiRename => "jacobi_rename",
            Workload::TorchsweSteady => "torchswe_steady",
            Workload::UntraceablePertask => "untraceable_pertask",
            Workload::PhaseChurnCapped => "phase_churn_capped",
            Workload::ServeFleet => "serve_fleet",
            Workload::CfdDistCkpt => "cfd_dist_ckpt",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line: the frozen size and why the workload is here.
    pub fn why(self) -> &'static str {
        match self {
            Workload::JacobiRename => {
                "Jacobi 1x4, 7200 iters, Auto standard, batched: the paper's Fig. 1 \
                 period-3 renaming stream; cost is TraceReplayer recognition over a deep \
                 pending buffer"
            }
            Workload::TorchsweSteady => {
                "TorchSWE 1x8, 1600 iters x 159 tasks, Auto standard, Full log: long loop \
                 body ~97% replayed; finder, replayer and template replay share the cost; \
                 finish() pays simulate"
            }
            Workload::UntraceablePertask => {
                "seeded aperiodic stream, 800k tasks one execute_task each: nothing to \
                 trace, so every task pays fresh analysis + log + sim and the finder mines \
                 in vain; replayer changes must not show"
            }
            Workload::PhaseChurnCapped => {
                "40-phase motif churn, 410k tasks, capped trie and 8 templates: \
                 ingest, eviction, compaction and re-record beside match and replay"
            }
            Workload::ServeFleet => {
                "HTR+FlexFlow+CFD+TorchSWE (3200 turns) through one TraceService, 1 shared \
                 async mining thread, gated ingest, 512 KiB budgets: mining off the issuing \
                 thread, serve wrappers on it"
            }
            Workload::CfdDistCkpt => {
                "CFD 2x4, 1500 iters, Distributed agreement, checkpoint -> drop -> resume \
                 every ~250 iters: the only user of core::distributed and both snapshot \
                 codecs"
            }
        }
    }

    /// Generates the workload's inputs for `seed` at `1/shrink` of the
    /// frozen size (`shrink` is 1, or 20 under `--smoke`).
    pub fn materialise(self, seed: u64, shrink: u64) -> Inputs {
        let standard = || Tracing::Auto(Config::standard());
        let single = |label, program, runtime, tracing, style| Tenant {
            label,
            program,
            runtime,
            tracing,
            style,
        };
        let mut inputs =
            Inputs { workload: self, tenants: Vec::new(), turns: Vec::new(), cuts: Vec::new() };
        match self {
            Workload::JacobiRename => {
                let rt = drained(1, 4);
                let program = record_app(&workloads::Jacobi, &rt, size::JACOBI_ITERS / shrink);
                inputs.tenants.push(single("jacobi", program, rt, standard(), IssueStyle::Batch));
            }
            Workload::TorchsweSteady => {
                let rt = RuntimeConfig::single_node(8);
                let program = record_app(&workloads::TorchSwe, &rt, size::TORCHSWE_ITERS / shrink);
                inputs.tenants.push(single("torchswe", program, rt, standard(), IssueStyle::Batch));
            }
            Workload::UntraceablePertask => {
                let rt = drained(1, 1);
                let tasks = size::UNTRACEABLE_TASKS / shrink;
                let program = record(&rt, |issuer| gen::untraceable(issuer, seed, tasks));
                inputs.tenants.push(single(
                    "untraceable",
                    program,
                    rt,
                    standard(),
                    IssueStyle::PerTask,
                ));
            }
            Workload::PhaseChurnCapped => {
                let rt = drained(1, 1).with_max_templates(8);
                let tasks = size::CHURN_TASKS / shrink;
                let program = record(&rt, |issuer| gen::phase_churn(issuer, seed, tasks));
                let config = Config::standard()
                    .with_min_trace_length(10)
                    .with_max_trace_length(200)
                    .with_batch_size(2048)
                    .with_multi_scale_factor(256)
                    .with_max_candidates(24)
                    .with_max_trie_nodes(2048);
                inputs.tenants.push(single(
                    "churn",
                    program,
                    rt,
                    Tracing::Auto(config),
                    IssueStyle::Batch,
                ));
            }
            Workload::ServeFleet => {
                // The budgets are spelled out on each tenant (they equal
                // the service's per-slot share), so a tenant's solo run
                // through a plain `Session` is configured identically.
                let tracing = || {
                    Tracing::Auto(
                        Config::standard()
                            .with_async_mining()
                            .with_gated_ingest()
                            .with_max_trie_bytes(FLEET_BUDGET_BYTES)
                            .with_max_template_bytes(FLEET_BUDGET_BYTES),
                    )
                };
                let apps: [(&'static str, &dyn AppModel, u32); 4] = [
                    ("htr", &workloads::Htr, 4),
                    ("flexflow", &workloads::FlexFlow, 8),
                    ("cfd", &workloads::Cfd, 4),
                    ("torchswe", &workloads::TorchSwe, 8),
                ];
                for ((label, app, gpus), iters) in apps.into_iter().zip(size::FLEET_ITERS) {
                    let rt = drained(1, gpus).with_max_template_bytes(FLEET_BUDGET_BYTES);
                    let program = record_app(app, &rt, iters / shrink);
                    inputs.tenants.push(single(label, program, rt, tracing(), IssueStyle::Batch));
                }
                let iterations: Vec<u64> =
                    inputs.tenants.iter().map(|t| t.program.iterations).collect();
                inputs.turns = gen::interleave(seed, &iterations);
            }
            Workload::CfdDistCkpt => {
                let rt = drained(2, 4);
                let iters = size::CFD_ITERS / shrink;
                let program = record_app(&workloads::Cfd, &rt, iters);
                let tracing = Tracing::Distributed {
                    config: Config::standard(),
                    delay: DelayModel::new(7, 12),
                    initial_interval: 64,
                };
                inputs.tenants.push(single("cfd", program, rt, tracing, IssueStyle::Batch));
                inputs.cuts =
                    gen::checkpoint_cuts(seed, iters, (size::CKPT_EVERY / shrink).max(10));
            }
        }
        inputs
    }
}

/// The host configuration `serve_fleet` runs under.
pub fn fleet_config() -> ServeConfig {
    ServeConfig::default()
        .with_tenant_slots(4)
        .with_mining_threads(1)
        .with_max_buffered_ops(FLEET_MAX_BUFFERED_OPS)
        .with_max_trie_bytes(4 * FLEET_BUDGET_BYTES)
        .with_max_template_bytes(4 * FLEET_BUDGET_BYTES)
}
