//! The passes over one workload: the end-to-end pass (timed repetitions,
//! then one counted repetition, tracing off) and the traced pass (the
//! per-layer ladder). Both materialise the inputs first, run every check,
//! and fail the whole workload — all its tasks — when one does not hold.

use crate::alloc;
use crate::clock::{calibrate, now_ns};
use crate::golden;
use crate::ladder::{Ladder, LadderEnd, Level};
use crate::metrics::MetricSet;
use crate::program::{Cursor, PlayError, Step};
use crate::run::{drive, run_stream, run_workload, Rep, Trace};
use crate::spans::Spans;
use crate::stats::{geo_mean, median, percentile};
use crate::workloads::{Inputs, Tenant, Workload};
use apophenia::{Config, DistributedAutoTracer, Tracing};
use substrings::repeats::find_repeats_min_len;
use substrings::suffix_array::SuffixArray;
use tasksim::deps::DependenceAnalyzer;
use tasksim::exec::{LogOp, LogRetention, OpLog, SimPipeline};
use tasksim::ids::OpId;
use tasksim::issuer::TaskIssuer;
use tasksim::region::RegionForest;

/// What a pass is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: f64,
    /// 1, or 20 under `--smoke`.
    pub shrink: u64,
    /// Timed repetitions at least (1 under `--smoke`).
    pub min_reps: usize,
    /// How many times to materialise the inputs for `setup_s`.
    pub setups: usize,
}

/// What a pass found.
#[derive(Debug, Clone)]
pub struct PassReport {
    pub workload: Workload,
    pub tasks: u64,
    pub iterations: u64,
    /// Tasks issued across every repetition of the pass, and those that
    /// count as failed: all of them once any check fails.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: MetricSet,
    /// Every repetition's raw value behind the medians.
    pub raw: Vec<(&'static str, Vec<f64>)>,
    /// Digest of the generated inputs (what `golden.json` pins).
    pub input_digest: u64,
    /// Op digest per tenant: what the tracing decisions produced.
    pub decision_digests: Vec<u64>,
    pub wall_s: f64,
}

impl PassReport {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

struct Setup {
    inputs: Inputs,
    materialise_s: Vec<f64>,
    failures: Vec<String>,
}

/// Materialises the inputs `times` times: every copy must carry the same
/// digest (generators are pure functions of the seed), and at the golden
/// seed and full size that digest must be the pinned one.
fn setup(workload: Workload, opts: &Options, times: usize) -> Setup {
    let mut failures = Vec::new();
    let mut materialise_s = Vec::with_capacity(times);
    let mut inputs: Option<Inputs> = None;
    for _ in 0..times.max(1) {
        let start = now_ns();
        let fresh = workload.materialise(opts.seed, opts.shrink);
        materialise_s.push((now_ns() - start) as f64 / 1e9);
        if let Some(first) = &inputs {
            if first.digest() != fresh.digest() {
                failures.push("inputs differ between two materialisations of one seed".into());
            }
        } else {
            inputs = Some(fresh);
        }
    }
    let inputs = inputs.expect("materialised at least once");
    if opts.seed == golden::GOLDEN_SEED && opts.shrink == 1 {
        match golden::expected(workload) {
            Some(pinned) if pinned == inputs.digest() => {}
            Some(pinned) => failures.push(format!(
                "input digest {:016x} is not the golden {pinned:016x}: the stream drifted",
                inputs.digest()
            )),
            None => failures.push("golden.json has no digest for this workload".into()),
        }
    }
    Setup { inputs, materialise_s, failures }
}

/// The checks every repetition must pass on its own.
fn check_rep(inputs: &Inputs, rep: &Rep, failures: &mut Vec<String>) {
    for (tenant, end) in inputs.tenants.iter().zip(&rep.tenants) {
        let (label, program) = (tenant.label, &tenant.program);
        if end.stats.tasks_total != program.tasks {
            failures.push(format!(
                "{label}: {} tasks reached the runtime, {} were issued",
                end.stats.tasks_total, program.tasks
            ));
        }
        if end.stats.iterations != program.iterations
            || end.report.iteration_finish.len() as u64 != program.iterations
        {
            failures.push(format!("{label}: iteration marks were lost"));
        }
        if end.stats.mismatches != 0 {
            failures.push(format!("{label}: {} replay mismatches", end.stats.mismatches));
        }
    }
    if rep.tenants.len() != inputs.tenants.len() {
        failures.push("a tenant did not finish".into());
    }
}

fn expect_digests(what: &str, got: &[u64], want: &[u64], failures: &mut Vec<String>) {
    if got != want {
        failures.push(format!("{what}: op digests {got:016x?} differ from {want:016x?}"));
    }
}

/// Runs that exist to be compared against: each fleet tenant solo, and
/// `cfd_dist_ckpt`'s program uncheckpointed and under single-node Auto.
#[derive(Default)]
struct References {
    /// One per tenant: the same stream through a plain `Session` of the
    /// tenant's own configuration (empty unless `serve_fleet`).
    solos: Vec<Rep>,
    uncheckpointed: Option<Rep>,
    single_node: Option<Rep>,
    agreement: Option<apophenia::distributed::AgreementStats>,
}

/// The single-node Auto twin of a tenant's front-end.
fn twin_tracing(tenant: &Tenant) -> Tracing {
    Tracing::Auto(tenant.auto_config().expect("every workload traces automatically").clone())
}

/// Runs the references and checks `own` (the workload's op digests)
/// against them. The traced pass hands in its span buffer, so each solo
/// run also sizes a snapshot, and asks for the agreement counters.
fn references(
    inputs: &Inputs,
    own: &[u64],
    failures: &mut Vec<String>,
    mut traced: Option<(&mut Spans, u32)>,
) -> Result<References, PlayError> {
    let mut refs = References::default();
    let plain = |tenant: &Tenant, tracing: Tracing| {
        run_stream(tenant, tenant.build_with(tracing), &[], None, || {})
    };
    match inputs.workload {
        Workload::ServeFleet => {
            for tenant in &inputs.tenants {
                let trace = traced.as_mut().map(|(spans, parent)| Trace {
                    spans,
                    parent: *parent,
                    block: "solo.block",
                });
                refs.solos.push(run_stream(tenant, tenant.build(), &[], trace, || {})?);
            }
            let solo: Vec<u64> = refs.solos.iter().flat_map(Rep::digests).collect();
            expect_digests("fleet tenants vs their solo runs", own, &solo, failures);
        }
        Workload::CfdDistCkpt => {
            let tenant = &inputs.tenants[0];
            let unckpt = plain(tenant, tenant.tracing.clone())?;
            expect_digests("checkpointed vs uncheckpointed", own, &unckpt.digests(), failures);
            let single = plain(tenant, twin_tracing(tenant))?;
            expect_digests("distributed vs single-node Auto", own, &single.digests(), failures);
            refs.uncheckpointed = Some(unckpt);
            refs.single_node = Some(single);
            if let (Some(_), Tracing::Distributed { config, delay, initial_interval }) =
                (&traced, tenant.tracing.clone())
            {
                // The concrete type `Session` would have boxed, so the
                // agreement counters can be read at the end of the stream.
                let mut dist =
                    DistributedAutoTracer::new(tenant.runtime, config, delay, initial_interval);
                let issuer: &mut dyn TaskIssuer = &mut dist;
                let mut cursor = Cursor::new(&tenant.program, tenant.style);
                while cursor.play_iteration(issuer)? {}
                issuer.flush()?;
                refs.agreement = Some(dist.agreement_stats());
            }
        }
        _ => {}
    }
    Ok(refs)
}

fn ns_per_task(rep: &Rep, tasks: u64) -> f64 {
    rep.wall_ns as f64 / tasks as f64
}

fn p99_us(rep: &Rep) -> f64 {
    percentile(&mut rep.iter_ns.clone(), 99.0) as f64 / 1e3
}

/// The paper's headline: steady-state simulated throughput, skipping the
/// first quarter of the iterations; geometric mean over tenants.
fn sim_iters_per_s(rep: &Rep) -> f64 {
    let per_tenant: Vec<f64> = rep
        .tenants
        .iter()
        .map(|t| t.report.steady_throughput(t.report.iteration_finish.len() / 4))
        .collect();
    geo_mean(&per_tenant)
}

fn replayed_share(rep: &Rep) -> f64 {
    let replayed: u64 = rep.tenants.iter().map(|t| t.stats.tasks_replayed).sum();
    let total: u64 = rep.tenants.iter().map(|t| t.stats.tasks_total).sum();
    replayed as f64 / total.max(1) as f64
}

/// Repetitions never exceed this, however fast the machine.
const MAX_REPS: usize = 64;

/// The end-to-end pass: warm-up, timed repetitions for `opts.seconds`
/// (each a fresh front-end), one counted repetition, the reference
/// checks. Tracing is off throughout.
pub fn end_to_end(workload: Workload, opts: &Options) -> PassReport {
    let pass_start = now_ns();
    let Setup { inputs, materialise_s, mut failures } = setup(workload, opts, opts.setups);
    let tasks = inputs.tasks();
    let mut attempted = 0u64;
    let mut reps: Vec<Rep> = Vec::new();
    let mut counted = alloc::Counted { allocs: 0, peak_bytes: 0 };

    let mut body = || -> Result<(), PlayError> {
        attempted += tasks;
        let warm = run_workload(&inputs, None, || {})?;
        check_rep(&inputs, &warm, &mut failures);
        let timed_start = now_ns();
        while reps.len() < MAX_REPS
            && (reps.len() < opts.min_reps
                || ((now_ns() - timed_start) as f64) < opts.seconds * 1e9)
        {
            attempted += tasks;
            let rep = run_workload(&inputs, None, || {})?;
            check_rep(&inputs, &rep, &mut failures);
            expect_digests("repetition vs warm-up", &rep.digests(), &warm.digests(), &mut failures);
            reps.push(rep);
        }
        attempted += tasks;
        let rep = run_workload(&inputs, None, alloc::arm);
        counted = alloc::disarm();
        expect_digests("counted repetition", &rep?.digests(), &warm.digests(), &mut failures);
        references(&inputs, &warm.digests(), &mut failures, None)?;
        Ok(())
    };
    if let Err(e) = body() {
        alloc::disarm();
        failures.push(e.to_string());
    }

    let mut metrics = MetricSet::end_to_end();
    let mut raw: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut decision_digests = Vec::new();
    if let Some(first) = reps.first() {
        let mut issue: Vec<f64> = reps.iter().map(|r| ns_per_task(r, tasks)).collect();
        let mut p99: Vec<f64> = reps.iter().map(p99_us).collect();
        let mut construct: Vec<f64> = reps.iter().map(|r| r.construct_ns as f64 / 1e9).collect();
        raw.push(("issue_ns_per_task", issue.clone()));
        raw.push(("issue_p99_iter_us", p99.clone()));
        raw.push(("materialise_s", materialise_s.clone()));
        raw.push(("construct_s", construct.clone()));
        metrics.set("setup_s", median(&mut materialise_s.clone()) + median(&mut construct));
        metrics.set("issue_ns_per_task", median(&mut issue));
        metrics.set("issue_p99_iter_us", median(&mut p99));
        metrics.set("sim_iters_per_s", sim_iters_per_s(first));
        metrics.set("unreplayed_fraction", 1.0 - replayed_share(first));
        metrics.set("peak_heap_mb", counted.peak_bytes as f64 / 1e6);
        metrics.set("allocs_per_task", counted.allocs as f64 / tasks as f64);
        decision_digests = first.digests();
    } else if failures.is_empty() {
        failures.push("no timed repetition completed".into());
    }
    PassReport {
        workload,
        tasks,
        iterations: inputs.iterations(),
        attempted,
        failed: if failures.is_empty() { 0 } else { attempted },
        failures,
        metrics,
        raw,
        input_digest: inputs.digest(),
        decision_digests,
        wall_s: (now_ns() - pass_start) as f64 / 1e9,
    }
}

/// One ladder stack over one tenant's program, timed whole. Returns the
/// wall time with the stack's own clock reads taken out, and what the
/// stack gathered.
fn run_stack(
    level: Level,
    tenant: &Tenant,
    config: &Config,
    clock_ns: f64,
    spans: &mut Spans,
    pass: u32,
) -> Result<(f64, LadderEnd), PlayError> {
    let stack = spans.open(pass, level.stack());
    let blocks_before = spans.spans().len();
    let mut ladder = Ladder::new(level, tenant.runtime, config);
    let start = now_ns();
    let mut trace = Some(Trace { spans, parent: stack, block: "ladder.block" });
    drive(&tenant.program, tenant.style, &mut ladder, &mut trace)?;
    let end = ladder.finish()?;
    let wall = (now_ns() - start) as f64;
    let block_reads = (spans.spans().len() - blocks_before) as u64;
    for &(name, start_ns, end_ns, count) in &end.slow_calls {
        spans.push(stack, name, start_ns, end_ns, count);
    }
    spans.close(stack, tenant.program.tasks);
    let reads = end.tally.clock_reads + 2 * end.sink_calls + block_reads;
    Ok((wall - reads as f64 * clock_ns, end))
}

/// `DependenceAnalyzer::analyze` called directly over the program, against
/// a forest kept in step with its region calls. Returns
/// `(ns, preds found, peak frontier size)`.
fn direct_deps(tenant: &Tenant) -> (u64, u64, u64) {
    let mut forest = RegionForest::new();
    let mut analyzer = DependenceAnalyzer::new();
    let (mut op, mut preds, mut peak) = (0u64, 0u64, 0u64);
    let start = now_ns();
    for step in &tenant.program.steps {
        match step {
            Step::CreateRegion { fields, .. } => {
                forest.create_region(*fields);
            }
            Step::Partition { region, parts, .. } => {
                forest.partition(*region, *parts).expect("recorded partitions are valid");
            }
            Step::Destroy(region) => {
                forest.destroy_region(*region).expect("recorded destroys are valid");
            }
            Step::Tasks(batch) => {
                for task in batch {
                    preds += analyzer.analyze(OpId(op), task, &forest).len() as u64;
                    op += 1;
                }
            }
            Step::Mark => peak = peak.max(analyzer.frontier_size() as u64),
        }
    }
    (now_ns() - start, preds, peak)
}

/// At most this many operations feed the direct `exec` calls.
const DIRECT_OPS: u64 = 262_144;

/// `SimPipeline::feed` + `finalize` and `OpLog::push` called directly over
/// the untraced baseline's stored log (its first [`DIRECT_OPS`] tasks).
/// Returns `(ops, sim ns, push ns)`.
fn direct_exec(tenant: &Tenant) -> Result<(u64, u64, u64), PlayError> {
    let mut full = tenant.runtime;
    full.retention = LogRetention::Full;
    let mut issuer: Box<dyn TaskIssuer> =
        apophenia::Session::builder().runtime_config(full).tracing(Tracing::Untraced).build();
    let mut cursor = Cursor::new(&tenant.program, tenant.style);
    while cursor.issued < DIRECT_OPS && cursor.play_iteration(issuer.as_mut())? {}
    let artifacts = issuer.finish()?;
    let log = artifacts.log.expect("full retention keeps the log");
    let ops: &[LogOp] = log.ops();

    let start = now_ns();
    let mut pipeline = SimPipeline::new(*log.config());
    for op in ops {
        pipeline.feed(op);
    }
    std::hint::black_box(pipeline.finalize());
    let sim_ns = now_ns() - start;

    let copies = ops.to_vec();
    let mut sink = OpLog::new(tenant.runtime);
    let start = now_ns();
    for op in copies {
        sink.push(op);
    }
    std::hint::black_box(sink.digest());
    let push_ns = now_ns() - start;
    Ok((ops.len() as u64, sim_ns, push_ns))
}

/// `SuffixArray::build_with` and `find_repeats_min_len` called directly
/// over the first ≤ 32 `batch_size` windows of the hash stream. Returns
/// `(tokens, build ns, repeats ns)`.
fn direct_substrings(tenant: &Tenant, config: &Config) -> (u64, u64, u64) {
    let hashes: Vec<u64> = tenant.program.hashes().into_iter().map(|h| h.0).collect();
    let (mut tokens, mut build_ns, mut repeats_ns) = (0u64, 0u64, 0u64);
    for window in hashes.chunks(config.batch_size.max(1)).take(32) {
        tokens += window.len() as u64;
        let t0 = now_ns();
        std::hint::black_box(SuffixArray::build_with(window, config.suffix_backend));
        let t1 = now_ns();
        std::hint::black_box(find_repeats_min_len(window, config.min_trace_length));
        build_ns += t1 - t0;
        repeats_ns += now_ns() - t1;
    }
    (tokens, build_ns, repeats_ns)
}

/// Per-stack wall times of one ladder round, summed over tenants.
#[derive(Default, Clone)]
struct Round {
    stack_ns: [f64; 5],
    untraced_ns: f64,
    twin_ns: f64,
}

/// The traced pass: the per-layer ladder. See `README.md` for what each
/// metric means and which end-to-end metric it should move.
pub fn per_layer(workload: Workload, opts: &Options, spans: &mut Spans) -> PassReport {
    let pass_start = now_ns();
    let Setup { inputs, mut failures, .. } = setup(workload, opts, 1);
    let tasks = inputs.tasks();
    let mut attempted = 0u64;
    let mut metrics = MetricSet::per_layer();
    let mut raw: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut decision_digests = Vec::new();
    let pass = spans.open(0, "pass.traced");

    let mut body = || -> Result<(), PlayError> {
        let clock_ns = calibrate();

        // The workload's own front-end, tracing off, then on.
        attempted += tasks;
        let warm = run_workload(&inputs, None, || {})?;
        check_rep(&inputs, &warm, &mut failures);
        let mut plain: Vec<f64> = Vec::new();
        for _ in 0..opts.min_reps.min(2) {
            attempted += tasks;
            plain.push(ns_per_task(&run_workload(&inputs, None, || {})?, tasks));
        }
        raw.push(("own_plain_ns_per_task", plain.clone()));
        let own_plain = median(&mut plain);
        attempted += tasks;
        let own_span = spans.open(pass, "session.run");
        let traced = run_workload(
            &inputs,
            Some(Trace { spans, parent: own_span, block: "session.block" }),
            || {},
        )?;
        spans.close(own_span, tasks);
        check_rep(&inputs, &traced, &mut failures);
        expect_digests(
            "traced run vs plain run",
            &traced.digests(),
            &warm.digests(),
            &mut failures,
        );
        decision_digests = traced.digests();
        let own_traced = ns_per_task(&traced, tasks);

        let refs = references(&inputs, &warm.digests(), &mut failures, Some((&mut *spans, pass)))?;

        // The ladder, the untraced baseline and the single-node Auto
        // twin, round after round while time remains.
        let mut rounds: Vec<Round> = Vec::new();
        let mut last_ends: Vec<Vec<LadderEnd>> = Vec::new();
        let ladder_start = now_ns();
        while rounds.is_empty()
            || (rounds.len() < MAX_REPS
                && ((now_ns() - ladder_start) as f64) < opts.seconds * 1e9 / 2.0)
        {
            let mut round = Round::default();
            last_ends.clear();
            for tenant in &inputs.tenants {
                let config = tenant.auto_config().expect("every workload traces automatically");
                let mut ends = Vec::new();
                for (i, level) in Level::ALL.into_iter().enumerate() {
                    let (ns, end) = run_stack(level, tenant, config, clock_ns, spans, pass)?;
                    round.stack_ns[i] += ns;
                    ends.push(end);
                }
                let untraced =
                    run_stream(tenant, tenant.build_with(Tracing::Untraced), &[], None, || {})?;
                if untraced.digests() != [tenant.program.direct_digest] {
                    failures.push(format!(
                        "{}: replaying the recording untraced does not reproduce the direct run",
                        tenant.label
                    ));
                }
                round.untraced_ns += untraced.wall_ns as f64;
                let twin =
                    run_stream(tenant, tenant.build_with(twin_tracing(tenant)), &[], None, || {})?;
                let top = ends.last().and_then(|e| e.digest).into_iter().collect::<Vec<_>>();
                expect_digests(
                    "re-assembled stack S4 vs Session",
                    &top,
                    &twin.digests(),
                    &mut failures,
                );
                round.twin_ns += twin.wall_ns as f64;
                last_ends.push(ends);
            }
            attempted += tasks * 7;
            rounds.push(round);
        }
        let per_task = |pick: &dyn Fn(&Round) -> f64| {
            median(&mut rounds.iter().map(|r| pick(r) / tasks as f64).collect::<Vec<_>>())
        };
        let stacks: Vec<f64> = (0..5).map(|i| per_task(&|r| r.stack_ns[i])).collect();
        for level in Level::ALL {
            let per_round = rounds.iter().map(|r| r.stack_ns[level as usize] / tasks as f64);
            raw.push((level.stack(), per_round.collect()));
        }
        let untraced = per_task(&|r| r.untraced_ns);
        let twin = per_task(&|r| r.twin_ns);
        raw.push(("twin_ns_per_task", rounds.iter().map(|r| r.twin_ns / tasks as f64).collect()));

        // Counts and clocked totals, from the last round (they repeat
        // exactly; the clocked ones are medians of nothing smaller).
        let sum = |pick: &dyn Fn(&LadderEnd) -> u64, level: Level| -> u64 {
            last_ends.iter().map(|ends| pick(&ends[level as usize])).sum()
        };
        let top = Level::Runtime;
        let jobs = sum(&|e| e.jobs, top);
        let batches = sum(&|e| e.tally.batches, top);
        let mining_records = sum(&|e| e.tally.mining_records, Level::Finder);
        let mining_ns = sum(&|e| e.tally.mining_ns, Level::Finder)
            + sum(&|e| e.tally.quiesce_ns, Level::Finder);
        let ingests = sum(&|e| e.tally.ingests, Level::Replayer);
        let ingest_ns = sum(&|e| e.tally.ingest_ns, Level::Replayer) as f64;
        let sink_ns = (sum(&|e| e.sink_busy_ns, top) as f64
            - sum(&|e| e.sink_calls, top) as f64 * clock_ns)
            / tasks as f64;
        let replayer = |pick: &dyn Fn(&apophenia::replayer::ReplayerStats) -> u64| -> f64 {
            sum(&|e| e.replayer.as_ref().map_or(0, pick), top) as f64
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        let clone = stacks[0];
        let hash = stacks[1] - stacks[0];
        let finder = stacks[2] - stacks[1];
        let recognize = stacks[3] - stacks[2] - ingest_ns / tasks as f64;
        let glue = twin - stacks[4];
        metrics.set("driver.clone_ns_per_task", clone);
        metrics.set("task.hash_ns_per_task", hash);
        metrics.set("finder.record_ns_per_task", finder);
        metrics.set("finder.mine_us_per_job", ratio(mining_ns as f64 / 1e3, mining_records as f64));
        metrics.set("finder.jobs", jobs as f64);
        metrics.set(
            "finder.useful_job_ratio",
            ratio(sum(&|e| e.tally.useful_batches, top) as f64, batches as f64),
        );
        metrics.set("finder.candidates_mined", sum(&|e| e.tally.candidates, top) as f64);
        metrics.set("finder.candidate_tokens", sum(&|e| e.tally.candidate_tokens, top) as f64);
        metrics.set("replayer.recognize_ns_per_task", recognize);
        metrics.set("replayer.ingest_us_per_batch", ratio(ingest_ns / 1e3, ingests as f64));
        metrics.set("replayer.evicted_candidates", replayer(&|s| s.evicted_candidates));
        metrics.set("replayer.trie_compactions", replayer(&|s| s.trie_compactions));
        metrics.set("replayer.candidates", replayer(&|s| s.candidates as u64));
        metrics.set("replayer.peak_trie_bytes", replayer(&|s| s.peak_trie_bytes as u64));
        metrics.set("replayer.peak_pending_tasks", replayer(&|s| s.peak_pending_tasks as u64));
        metrics.set("replayer.traces_issued", replayer(&|s| s.traces_issued));
        metrics.set("runtime.sink_ns_per_task", sink_ns);
        metrics.set("runtime.untraced_ns_per_task", untraced);
        metrics.set("runtime.auto_overhead_ratio", own_plain / untraced);
        metrics.set("engine.glue_ns_per_task", glue);

        // Shares and counts of the runtime layer, from the traced run.
        let stat = |pick: &dyn Fn(&tasksim::stats::RuntimeStats) -> u64| -> f64 {
            traced.tenants.iter().map(|t| pick(&t.stats)).sum::<u64>() as f64
        };
        let total = stat(&|s| s.tasks_total);
        metrics.set("runtime.fresh_share", stat(&|s| s.tasks_fresh) / total);
        metrics.set("runtime.recorded_share", stat(&|s| s.tasks_recorded) / total);
        metrics.set("runtime.replayed_share", stat(&|s| s.tasks_replayed) / total);
        metrics.set("runtime.traces_recorded", stat(&|s| s.traces_recorded));
        metrics.set("runtime.trace_replays", stat(&|s| s.trace_replays));
        metrics.set("runtime.templates_evicted", stat(&|s| s.templates_evicted));
        metrics.set("runtime.peak_template_bytes", stat(&|s| s.peak_template_bytes));
        metrics.set(
            "exec.peak_retained_ops",
            traced.tenants.iter().map(|t| t.log.peak_retained).sum::<usize>() as f64,
        );
        // Never reaching the replay steady state reads as "the whole run".
        let measured = refs.single_node.as_ref().unwrap_or(&traced);
        let warmup: u64 = measured
            .tenants
            .iter()
            .zip(&inputs.tenants)
            .map(|(end, t)| end.warmup_iterations.unwrap_or(u64::MAX).min(t.program.iterations))
            .sum();
        metrics.set("engine.warmup_iters", warmup as f64);

        // Direct calls into deps, exec and substrings.
        let add = |total: &mut (u64, u64, u64), part: (u64, u64, u64)| {
            *total = (total.0 + part.0, total.1 + part.1, total.2 + part.2);
        };
        let (mut deps, mut exec, mut strings) = ((0, 0, 0), (0, 0, 0), (0, 0, 0));
        for tenant in &inputs.tenants {
            let config = tenant.auto_config().expect("every workload traces automatically");
            let t0 = now_ns();
            add(&mut deps, direct_deps(tenant));
            let t1 = now_ns();
            let part = direct_exec(tenant)?;
            let t2 = now_ns();
            add(&mut exec, part);
            let tokens = direct_substrings(tenant, config);
            spans.push(pass, "deps.analyze", t0, t1, tenant.program.tasks);
            spans.push(pass, "exec.direct", t1, t2, part.0);
            spans.push(pass, "substrings.direct", t2, now_ns(), tokens.0);
            add(&mut strings, tokens);
        }
        let (deps_ns, preds, frontier) = deps;
        let (ops, sim_ns, push_ns) = exec;
        let (tokens, build_ns, repeats_ns) = strings;
        metrics.set("deps.analyze_ns_per_task", deps_ns as f64 / tasks as f64);
        metrics.set("deps.preds_per_task", preds as f64 / tasks as f64);
        metrics.set("deps.frontier_size", frontier as f64);
        metrics.set("exec.sim_ns_per_op", ratio(sim_ns as f64, ops as f64));
        metrics.set("exec.log_push_ns_per_op", ratio(push_ns as f64, ops as f64));
        metrics.set("substrings.sa_build_ns_per_token", ratio(build_ns as f64, tokens as f64));
        metrics.set("substrings.repeats_ns_per_token", ratio(repeats_ns as f64, tokens as f64));

        // Snapshots: the real cycles on cfd_dist_ckpt, one sized
        // mid-stream checkpoint per tenant elsewhere.
        let sized: Vec<&Rep> = if workload == Workload::ServeFleet {
            refs.solos.iter().collect()
        } else {
            vec![&traced]
        };
        let cycles: Vec<(u64, u64)> = sized.iter().flat_map(|r| r.cycles.iter().copied()).collect();
        let snapshot_bytes: u64 = sized.iter().map(|r| r.snapshot_bytes).sum();
        let ms = |pick: &dyn Fn(&(u64, u64)) -> u64| {
            let mut v: Vec<f64> = cycles.iter().map(|c| pick(c) as f64 / 1e6).collect();
            if v.is_empty() {
                0.0
            } else {
                median(&mut v)
            }
        };
        metrics.set("snapshot.checkpoint_ms", ms(&|c| c.0));
        metrics.set("snapshot.restore_ms", ms(&|c| c.1));
        metrics.set("snapshot.bytes", snapshot_bytes as f64);
        let unckpt = refs.uncheckpointed.as_ref().map(|r| ns_per_task(r, tasks));
        metrics.set("snapshot.cycle_share", unckpt.map_or(0.0, |u| 1.0 - u / own_plain));
        metrics.set("distributed.cost_ratio", unckpt.map_or(0.0, |u| u / twin));
        let agreement = refs.agreement.unwrap_or_default();
        metrics.set("distributed.ingests", agreement.ingests as f64);
        metrics.set("distributed.waits", agreement.waits as f64);
        metrics.set("distributed.stall_ops", agreement.stall_ops as f64);

        // Submit and quiesce time are only ever clocked on the fleet.
        let fleet = workload == Workload::ServeFleet;
        metrics.set("serve.submit_ns_per_task", traced.submit_ns as f64 / tasks as f64);
        metrics.set("serve.overhead_ns_per_task", if fleet { own_plain - twin } else { 0.0 });
        metrics.set("serve.quiesce_wait_share", traced.quiesce_ns as f64 / traced.wall_ns as f64);
        metrics.set("serve.busy_rejections", traced.busy_rejections as f64);
        metrics.set("serve.metrics_render_us", traced.render_ns as f64 / 1e3);
        metrics.set("serve.peak_trie_bytes", traced.fleet_peak_trie_bytes as f64);
        metrics.set("serve.peak_template_bytes", traced.fleet_peak_template_bytes as f64);

        let named = [clone, hash, finder, recognize + ingest_ns / tasks as f64, sink_ns, glue];
        metrics.set("trace.attributed_share", named.iter().map(|l| l.max(0.0)).sum::<f64>() / twin);
        metrics.set("trace.overhead_ratio", own_traced / own_plain);
        metrics.set("trace.clock_ns", clock_ns);
        Ok(())
    };
    if let Err(e) = body() {
        failures.push(e.to_string());
    }
    spans.close(pass, tasks);
    PassReport {
        workload,
        tasks,
        iterations: inputs.iterations(),
        attempted,
        failed: if failures.is_empty() { 0 } else { attempted },
        failures,
        metrics,
        raw,
        input_digest: inputs.digest(),
        decision_digests,
        wall_s: (now_ns() - pass_start) as f64 / 1e9,
    }
}
