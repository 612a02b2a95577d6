//! Apophenia configuration.
//!
//! Mirrors the runtime flags the paper's artifact exposes (Appendix A.7):
//!
//! | Flag | Field |
//! |------|-------|
//! | `-lg:enable_automatic_tracing`            | constructing an engine at all |
//! | `-lg:auto_trace:min_trace_length <N>`     | [`Config::min_trace_length`] |
//! | `-lg:auto_trace:max_trace_length <N>`     | [`Config::max_trace_length`] |
//! | `-lg:auto_trace:batchsize <N>`            | [`Config::batch_size`] |
//! | `-lg:auto_trace:multi_scale_factor <N>`   | [`Config::multi_scale_factor`] |
//! | `-lg:auto_trace:identifier_algorithm`     | [`Config::identifier`] |
//! | `-lg:auto_trace:repeats_algorithm`        | [`Config::repeats`] |
//!
//! Defaults follow the artifact's FlexFlow command line (batch 5000,
//! min 25, multi-scale 500) with no maximum trace length unless a
//! configuration asks for one (Figure 8's "auto-200").
//!
//! Beyond the artifact's flags, [`Config::suffix_backend`] selects the
//! suffix-array construction backend (linear-time SA-IS by default) and
//! [`Config::mining_threads`] sizes the asynchronous mining worker pool;
//! neither knob changes mining *results* — only how fast they arrive.
//! [`Config::capacity`] bounds the candidate trie for long-running
//! streams (see [`CapacityConfig`]); [`Config::validate`] rejects
//! degenerate values (zero capacities, non-positive half-life) that would
//! otherwise stall or corrupt the scoring math.

use substrings::SuffixBackend;

/// Which buffer-sampling strategy the trace finder uses (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IdentifierAlgorithm {
    /// Ruler-function multi-scale sampling of the rolling buffer — the
    /// paper's strategy (`multi-scale`).
    #[default]
    MultiScale,
    /// Analyze the whole buffer each time it fills, then clear it — the
    /// naive strategy the paper improves on (ablation baseline).
    FixedBatch,
}

/// Which repeat-mining algorithm the trace finder runs (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepeatsAlgorithm {
    /// Algorithm 2: suffix-array non-overlapping repeats
    /// (`quick_matching_of_substrings`).
    #[default]
    QuickMatching,
    /// Tandem-repeat mining (Sisco et al. baseline; ablation).
    TandemRepeats,
    /// LZW incremental dictionary (Lempel–Ziv baseline; ablation).
    Lzw,
}

/// Whether buffer mining runs on a worker pool or inline.
///
/// Results are ingested at deterministic stream positions either way (the
/// §5.1 requirement); `Sync` simply guarantees the result is ready at the
/// first opportunity, which tests rely on. `Async` mines on a pool of
/// [`Config::mining_threads`] workers, with completed batches reassembled
/// into strict submission order before they are released — so thread
/// count never changes mining results, only mining latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MiningMode {
    /// Mine inline at submission (deterministic, used by tests/benches).
    #[default]
    Sync,
    /// Mine on a background worker pool (the production configuration;
    /// §4.3's "asynchronous analysis of task histories").
    Async,
}

/// What the engine does when the mining pipeline degrades (a worker
/// panic or a dead worker pool — the failures surfaced as
/// [`FinderError`](crate::finder::FinderError) via `health()`).
///
/// Degrading is invisible to correctness — the task stream keeps flowing,
/// only tracing opportunities are lost — so it is the default. A
/// deployment that treats silent slowdown as worse than a crash (e.g. a
/// batch queue that should reschedule the job) selects fail-stop and gets
/// a typed [`RuntimeError::FinderFailed`](tasksim::runtime::RuntimeError)
/// from `execute_task`/`issue_batch` at the first issue after the
/// failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FinderPolicy {
    /// Keep running untraced after a mining failure (the historical
    /// behaviour; the failure stays visible through `health()`).
    #[default]
    DegradeUntraced,
    /// Return a typed error from the next task issue after a mining
    /// failure.
    FailStop,
}

/// Memory bounds on the trace-lifecycle stores.
///
/// Long-running (or phase-changing) applications mine candidates forever;
/// without bounds the candidate trie and per-candidate bookkeeping grow
/// monotonically. These knobs cap them: when a bound is exceeded after a
/// mining batch is ingested, the replayer evicts the lowest-scoring
/// candidates (§4.3's scoring function decides utility) until the stores
/// fit again. Eviction is a pure function of the deterministic ingest
/// stream, so control-replicated deployments (§5.1) evict in lock-step.
///
/// `None` (the default) leaves a store unbounded — the paper's original
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CapacityConfig {
    /// Maximum live candidates in the replayer's trie. Candidates with a
    /// pending completed match or a live cursor on their path are never
    /// evicted; the bound is enforced against the rest, lowest score
    /// first.
    pub max_candidates: Option<usize>,
    /// Maximum live trie nodes (including the root). Useful when
    /// candidates are long: a few long candidates can dominate memory
    /// while staying under `max_candidates`.
    pub max_trie_nodes: Option<usize>,
    /// Maximum candidate-trie footprint in *bytes*, computed from the
    /// per-node footprint (see
    /// [`TraceReplayer::trie_bytes`](crate::replayer::TraceReplayer::trie_bytes)).
    /// Enforced alongside the count bounds — whichever trips first evicts.
    /// Byte budgets are what a multi-tenant host apportions: tenants with
    /// different candidate shapes consume comparable memory under the same
    /// budget, which node *counts* cannot promise.
    pub max_trie_bytes: Option<usize>,
    /// Maximum template-store footprint in bytes, computed from each
    /// template's content-derived footprint. Plumbed into the runtime
    /// layer's bounded template store by the automatic front-ends.
    pub max_template_bytes: Option<usize>,
}

/// Why a [`Config`] failed [`Config::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `max_trace_length == Some(0)`: a zero-length piece can never
    /// advance candidate splitting.
    ZeroMaxTraceLength,
    /// `batch_size == 0`: an empty history buffer can never mine.
    ZeroBatchSize,
    /// `multi_scale_factor == 0`: the sampler needs a positive period.
    ZeroMultiScaleFactor,
    /// `mining_threads == 0` (the builder clamps; a literal can not).
    ZeroMiningThreads,
    /// `scoring.staleness_half_life` is zero, negative, or NaN: the decay
    /// `0.5^(staleness / half_life)` would be NaN at zero staleness.
    NonPositiveHalfLife,
    /// `scoring.count_cap == 0`: every candidate would score zero.
    ZeroCountCap,
    /// `capacity.max_candidates == Some(0)`: a zero-candidate trie cannot
    /// hold the candidate the replayer just ingested.
    ZeroMaxCandidates,
    /// `capacity.max_trie_nodes == Some(0)`: the root alone occupies one
    /// node.
    ZeroMaxTrieNodes,
    /// `capacity.max_trie_bytes == Some(0)`: the root node alone has a
    /// nonzero footprint.
    ZeroMaxTrieBytes,
    /// `capacity.max_template_bytes == Some(0)`: any recorded template has
    /// a nonzero footprint.
    ZeroMaxTemplateBytes,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            Self::ZeroMaxTraceLength => "max_trace_length must be at least 1 when set",
            Self::ZeroBatchSize => "batch_size must be at least 1",
            Self::ZeroMultiScaleFactor => "multi_scale_factor must be at least 1",
            Self::ZeroMiningThreads => "mining_threads must be at least 1",
            Self::NonPositiveHalfLife => "scoring.staleness_half_life must be positive and finite",
            Self::ZeroCountCap => "scoring.count_cap must be at least 1",
            Self::ZeroMaxCandidates => "capacity.max_candidates must be at least 1 when set",
            Self::ZeroMaxTrieNodes => "capacity.max_trie_nodes must be at least 1 when set",
            Self::ZeroMaxTrieBytes => "capacity.max_trie_bytes must be at least 1 when set",
            Self::ZeroMaxTemplateBytes => "capacity.max_template_bytes must be at least 1 when set",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Trace-scoring constants (§4.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoringConfig {
    /// Maximum occurrence count credited to a trace ("we impose a maximum
    /// value of the count").
    pub count_cap: u32,
    /// Half-life, in observed tasks, of the occurrence count's exponential
    /// decay ("decay the value of the count by how many tasks have been
    /// encountered since the trace last appeared").
    pub staleness_half_life: f64,
    /// Multiplicative bonus for traces that have already been replayed
    /// ("increase the score slightly if a trace has already been
    /// replayed").
    pub replay_bonus: f64,
}

impl Default for ScoringConfig {
    fn default() -> Self {
        Self { count_cap: 16, staleness_half_life: 4096.0, replay_bonus: 0.25 }
    }
}

/// Full Apophenia configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Shortest candidate trace worth memoizing (amortizes the per-replay
    /// constant `c`).
    pub min_trace_length: usize,
    /// Longest trace replayed as a unit; longer mined candidates are split
    /// into pieces of at most this length (Figure 8's `auto-200` vs
    /// `auto-5000`). `None` = unlimited.
    pub max_trace_length: Option<usize>,
    /// Size of the rolling token-history buffer.
    pub batch_size: usize,
    /// Multi-scale sampling granularity: an analysis is triggered every
    /// this many tokens.
    pub multi_scale_factor: usize,
    /// Buffer sampling strategy.
    pub identifier: IdentifierAlgorithm,
    /// Repeat mining algorithm.
    pub repeats: RepeatsAlgorithm,
    /// Inline or background mining.
    pub mining: MiningMode,
    /// Worker threads mining the history buffer under
    /// [`MiningMode::Async`] (ignored when mining inline). Batches are
    /// released in submission order regardless of thread count.
    pub mining_threads: usize,
    /// Gate asynchronous ingestion behind explicit quiesce barriers
    /// (ignored when mining inline). With the gate up, completed mining
    /// batches are *not* released at the opportunistic per-task poll —
    /// they wait until the host calls `quiesce()`, after which they all
    /// ingest at the very next issue. A host that quiesces on a schedule
    /// derived from the stream (say, every iteration) thereby makes
    /// asynchronous runs bit-reproducible: ingestion positions become a
    /// pure function of the task stream instead of pool timing. Costs
    /// ingestion latency (up to one quiesce period); off by default.
    pub gated_ingest: bool,
    /// Suffix-array construction backend used by Algorithm 2
    /// ([`SuffixBackend::Sais`] — linear time — by default; prefix
    /// doubling kept for ablations). Both backends mine identical
    /// candidates.
    pub suffix_backend: SuffixBackend,
    /// Scoring constants.
    pub scoring: ScoringConfig,
    /// Memory bounds on the candidate trie (unbounded by default).
    pub capacity: CapacityConfig,
    /// What a mining-pipeline failure does to the engine (degrade
    /// untraced by default; see [`FinderPolicy`]).
    pub finder_policy: FinderPolicy,
}

impl Config {
    /// The artifact's standard configuration (used by every experiment but
    /// Figure 8's `auto-200`).
    pub fn standard() -> Self {
        Self {
            min_trace_length: 25,
            max_trace_length: None,
            batch_size: 5000,
            multi_scale_factor: 500,
            identifier: IdentifierAlgorithm::MultiScale,
            repeats: RepeatsAlgorithm::QuickMatching,
            mining: MiningMode::Sync,
            mining_threads: 1,
            gated_ingest: false,
            suffix_backend: SuffixBackend::default(),
            scoring: ScoringConfig::default(),
            capacity: CapacityConfig::default(),
            finder_policy: FinderPolicy::default(),
        }
    }

    /// Caps replayed trace length (Figure 8's `auto-200` is
    /// `standard().with_max_trace_length(200)`).
    pub fn with_max_trace_length(mut self, max: usize) -> Self {
        self.max_trace_length = Some(max);
        self
    }

    /// Adjusts the minimum trace length.
    pub fn with_min_trace_length(mut self, min: usize) -> Self {
        self.min_trace_length = min;
        self
    }

    /// Adjusts the history-buffer size.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Adjusts the multi-scale granularity.
    pub fn with_multi_scale_factor(mut self, n: usize) -> Self {
        self.multi_scale_factor = n;
        self
    }

    /// Selects background mining.
    pub fn with_async_mining(mut self) -> Self {
        self.mining = MiningMode::Async;
        self
    }

    /// Sets the size of the background mining worker pool (clamped to at
    /// least one thread; only meaningful with [`Self::with_async_mining`]).
    pub fn with_mining_threads(mut self, threads: usize) -> Self {
        self.mining_threads = threads.max(1);
        self
    }

    /// Gates asynchronous ingestion behind explicit quiesce barriers,
    /// making async runs bit-reproducible (see [`Config::gated_ingest`]).
    pub fn with_gated_ingest(mut self) -> Self {
        self.gated_ingest = true;
        self
    }

    /// Selects the suffix-array construction backend.
    pub fn with_suffix_backend(mut self, backend: SuffixBackend) -> Self {
        self.suffix_backend = backend;
        self
    }

    /// Selects the mining-failure policy.
    pub fn with_finder_policy(mut self, policy: FinderPolicy) -> Self {
        self.finder_policy = policy;
        self
    }

    /// Bounds the number of live candidates in the replayer's trie
    /// (clamped to at least one).
    pub fn with_max_candidates(mut self, max: usize) -> Self {
        self.capacity.max_candidates = Some(max.max(1));
        self
    }

    /// Bounds the number of live trie nodes (clamped to at least one).
    pub fn with_max_trie_nodes(mut self, max: usize) -> Self {
        self.capacity.max_trie_nodes = Some(max.max(1));
        self
    }

    /// Bounds the candidate trie's byte footprint (clamped to at least
    /// one byte).
    pub fn with_max_trie_bytes(mut self, max: usize) -> Self {
        self.capacity.max_trie_bytes = Some(max.max(1));
        self
    }

    /// Bounds the template store's byte footprint (clamped to at least
    /// one byte).
    pub fn with_max_template_bytes(mut self, max: usize) -> Self {
        self.capacity.max_template_bytes = Some(max.max(1));
        self
    }

    /// Effective maximum piece length (batch size bounds every candidate;
    /// never below one token, so candidate splitting always advances).
    pub fn effective_max_len(&self) -> usize {
        self.max_trace_length.unwrap_or(usize::MAX).min(self.batch_size).max(1)
    }

    /// Checks the configuration for values the engine cannot run with:
    /// zero capacities (which would stall candidate splitting or make the
    /// stores unable to hold anything) and a non-positive staleness
    /// half-life (which would turn scores into NaN).
    ///
    /// The builders clamp these away; validate guards configurations
    /// assembled by struct literal or deserialization.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_trace_length == Some(0) {
            return Err(ConfigError::ZeroMaxTraceLength);
        }
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.multi_scale_factor == 0 {
            return Err(ConfigError::ZeroMultiScaleFactor);
        }
        if self.mining_threads == 0 {
            return Err(ConfigError::ZeroMiningThreads);
        }
        let half_life = self.scoring.staleness_half_life;
        // `> 0.0` is false for zero, negatives, and NaN; `is_finite`
        // additionally rejects +inf.
        let half_life_ok = half_life > 0.0 && half_life.is_finite();
        if !half_life_ok {
            return Err(ConfigError::NonPositiveHalfLife);
        }
        if self.scoring.count_cap == 0 {
            return Err(ConfigError::ZeroCountCap);
        }
        if self.capacity.max_candidates == Some(0) {
            return Err(ConfigError::ZeroMaxCandidates);
        }
        if self.capacity.max_trie_nodes == Some(0) {
            return Err(ConfigError::ZeroMaxTrieNodes);
        }
        if self.capacity.max_trie_bytes == Some(0) {
            return Err(ConfigError::ZeroMaxTrieBytes);
        }
        if self.capacity.max_template_bytes == Some(0) {
            return Err(ConfigError::ZeroMaxTemplateBytes);
        }
        Ok(())
    }
}

impl Default for Config {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_matches_artifact_flags() {
        let c = Config::standard();
        assert_eq!(c.min_trace_length, 25);
        assert_eq!(c.batch_size, 5000);
        assert_eq!(c.multi_scale_factor, 500);
        assert_eq!(c.identifier, IdentifierAlgorithm::MultiScale);
        assert_eq!(c.repeats, RepeatsAlgorithm::QuickMatching);
        assert_eq!(c.max_trace_length, None);
    }

    #[test]
    fn builders_compose() {
        let c = Config::standard()
            .with_max_trace_length(200)
            .with_min_trace_length(10)
            .with_batch_size(1000)
            .with_multi_scale_factor(100);
        assert_eq!(c.max_trace_length, Some(200));
        assert_eq!(c.min_trace_length, 10);
        assert_eq!(c.effective_max_len(), 200);
    }

    #[test]
    fn performance_knob_defaults_and_builders() {
        let c = Config::standard();
        assert_eq!(c.suffix_backend, SuffixBackend::Sais, "SA-IS is the default backend");
        assert_eq!(c.mining_threads, 1);
        let c = c.with_mining_threads(0).with_suffix_backend(SuffixBackend::Doubling);
        assert_eq!(c.mining_threads, 1, "thread count clamps to >= 1");
        assert_eq!(c.suffix_backend, SuffixBackend::Doubling);
        assert_eq!(c.with_mining_threads(4).mining_threads, 4);
    }

    #[test]
    fn effective_max_bounded_by_batch() {
        let c = Config::standard().with_batch_size(100);
        assert_eq!(c.effective_max_len(), 100);
        let c = c.with_max_trace_length(5000);
        assert_eq!(c.effective_max_len(), 100);
    }

    #[test]
    fn effective_max_len_never_zero() {
        // A zero max_trace_length used to make the replayer's candidate
        // splitting loop forever (`end = offset + 0`); the effective
        // length now clamps to one token.
        let mut c = Config::standard();
        c.max_trace_length = Some(0);
        assert_eq!(c.effective_max_len(), 1);
        c.max_trace_length = None;
        c.batch_size = 0;
        assert_eq!(c.effective_max_len(), 1);
    }

    #[test]
    fn capacity_builders_clamp_and_compose() {
        let c = Config::standard().with_max_candidates(0).with_max_trie_nodes(0);
        assert_eq!(c.capacity.max_candidates, Some(1), "clamps to >= 1");
        assert_eq!(c.capacity.max_trie_nodes, Some(1));
        let c = Config::standard()
            .with_max_candidates(64)
            .with_max_trie_nodes(4096)
            .with_max_trie_bytes(1 << 20)
            .with_max_template_bytes(1 << 20);
        assert_eq!(
            c.capacity,
            CapacityConfig {
                max_candidates: Some(64),
                max_trie_nodes: Some(4096),
                max_trie_bytes: Some(1 << 20),
                max_template_bytes: Some(1 << 20),
            }
        );
        let clamped = Config::standard().with_max_trie_bytes(0).with_max_template_bytes(0);
        assert_eq!(clamped.capacity.max_trie_bytes, Some(1), "byte budgets clamp to >= 1");
        assert_eq!(clamped.capacity.max_template_bytes, Some(1));
        assert!(c.validate().is_ok());
        assert_eq!(Config::standard().capacity, CapacityConfig::default(), "unbounded by default");
    }

    #[test]
    fn validate_rejects_zero_capacities_and_half_life() {
        assert!(Config::standard().validate().is_ok());

        let mut c = Config::standard();
        c.max_trace_length = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxTraceLength));

        let mut c = Config::standard();
        c.batch_size = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBatchSize));

        let mut c = Config::standard();
        c.multi_scale_factor = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMultiScaleFactor));

        let mut c = Config::standard();
        c.mining_threads = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroMiningThreads));

        let mut c = Config::standard();
        c.scoring.staleness_half_life = 0.0;
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveHalfLife));
        c.scoring.staleness_half_life = f64::NAN;
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveHalfLife));
        c.scoring.staleness_half_life = f64::INFINITY;
        assert_eq!(c.validate(), Err(ConfigError::NonPositiveHalfLife));

        let mut c = Config::standard();
        c.scoring.count_cap = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroCountCap));

        let mut c = Config::standard();
        c.capacity.max_candidates = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxCandidates));

        let mut c = Config::standard();
        c.capacity.max_trie_nodes = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxTrieNodes));

        let mut c = Config::standard();
        c.capacity.max_trie_bytes = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxTrieBytes));

        let mut c = Config::standard();
        c.capacity.max_template_bytes = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroMaxTemplateBytes));

        // Errors render as readable messages.
        assert!(ConfigError::NonPositiveHalfLife.to_string().contains("half_life"));
    }
}
