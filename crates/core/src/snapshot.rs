//! Checkpoint/restore of the tracing engine — the `core`-layer half of
//! the snapshot subsystem.
//!
//! The codec itself (writer/reader, envelope, version policy) lives in
//! [`tasksim::snapshot`] and is re-exported here; this module adds the
//! [`Config`] codec and documents how the front-ends compose the layers:
//!
//! * [`tasksim::Runtime`](tasksim::runtime::Runtime) serializes the
//!   region forest, analyzer frontiers, template store (with the shared
//!   utility hints), tracing state machine, operation log (with its
//!   digest), and the attached `SimPipeline`;
//! * [`crate::replayer::TraceReplayer`] serializes the candidate trie
//!   (via [`substrings::trie::TrieSnapshot`], free lists and tombstones
//!   included), the per-candidate meta table, live cursors, the pending
//!   buffer, completed matches, retired trace ids, and its counters;
//! * [`crate::finder::TraceFinder`] quiesces its mining pipeline (blocks
//!   until in-flight jobs land), then serializes the rolling history
//!   buffer, sampler counters, completed-but-unpolled batches, and
//!   pipeline health;
//! * [`crate::engine::AutoTracer`] and
//!   [`crate::distributed::DistributedAutoTracer`] stitch those together
//!   (per node, for the distributed front-end, all cut at the same
//!   issued-task barrier) behind
//!   [`TaskIssuer::checkpoint`](tasksim::issuer::TaskIssuer::checkpoint);
//! * [`Session::resume_from`](crate::session::Session::resume_from)
//!   dispatches on the envelope's front-end tag and rebuilds the right
//!   front-end.
//!
//! The contract throughout: a run checkpointed at a task boundary and
//! restored in a fresh process continues **bit-identically** to the
//! uninterrupted run — same `SimReport`, same op digest, same eviction
//! decisions — because every serialized quantity is either exact state
//! (f64s move via `to_bits`) or derived deterministically from it.

use crate::config::{
    CapacityConfig, Config, FinderPolicy, IdentifierAlgorithm, MiningMode, RepeatsAlgorithm,
    ScoringConfig,
};
use substrings::SuffixBackend;
pub use tasksim::snapshot::{
    read_envelope, write_envelope, CheckpointMeta, Restore, Snapshot, SnapshotError,
    SnapshotReader, SnapshotWriter, FORMAT_VERSION, FRONT_END_AUTO, FRONT_END_DISTRIBUTED,
    FRONT_END_RUNTIME,
};

/// Writes a [`Config`] into a payload. (A helper rather than a
/// [`Snapshot`] impl for the [`SuffixBackend`] piece, which is foreign to
/// both the trait's and the codec's crates.)
pub fn put_config(w: &mut SnapshotWriter, c: &Config) {
    w.put_len(c.min_trace_length);
    w.put_opt_len(c.max_trace_length);
    w.put_len(c.batch_size);
    w.put_len(c.multi_scale_factor);
    w.put_u8(match c.identifier {
        IdentifierAlgorithm::MultiScale => 0,
        IdentifierAlgorithm::FixedBatch => 1,
    });
    w.put_u8(match c.repeats {
        RepeatsAlgorithm::QuickMatching => 0,
        RepeatsAlgorithm::TandemRepeats => 1,
        RepeatsAlgorithm::Lzw => 2,
    });
    w.put_u8(match c.mining {
        MiningMode::Sync => 0,
        MiningMode::Async => 1,
    });
    w.put_len(c.mining_threads);
    w.put_u8(match c.suffix_backend {
        SuffixBackend::Doubling => 0,
        SuffixBackend::Sais => 1,
    });
    w.put_u32(c.scoring.count_cap);
    w.put_f64(c.scoring.staleness_half_life);
    w.put_f64(c.scoring.replay_bonus);
    w.put_opt_len(c.capacity.max_candidates);
    w.put_opt_len(c.capacity.max_trie_nodes);
    w.put_opt_len(c.capacity.max_trie_bytes);
    w.put_opt_len(c.capacity.max_template_bytes);
    w.put_u8(match c.finder_policy {
        FinderPolicy::DegradeUntraced => 0,
        FinderPolicy::FailStop => 1,
    });
    w.put_bool(c.gated_ingest);
}

/// Reads a [`Config`] written by [`put_config`].
///
/// # Errors
///
/// [`SnapshotError`] on truncated input or invalid enum tags.
pub fn get_config(r: &mut SnapshotReader<'_>) -> Result<Config, SnapshotError> {
    let bad = |what: &str, t: u8| SnapshotError::Corrupt(format!("invalid {what} tag {t}"));
    Ok(Config {
        min_trace_length: r.get_len()?,
        max_trace_length: r.get_opt_len()?,
        batch_size: r.get_len()?,
        multi_scale_factor: r.get_len()?,
        identifier: match r.get_u8()? {
            0 => IdentifierAlgorithm::MultiScale,
            1 => IdentifierAlgorithm::FixedBatch,
            t => return Err(bad("identifier", t)),
        },
        repeats: match r.get_u8()? {
            0 => RepeatsAlgorithm::QuickMatching,
            1 => RepeatsAlgorithm::TandemRepeats,
            2 => RepeatsAlgorithm::Lzw,
            t => return Err(bad("repeats", t)),
        },
        mining: match r.get_u8()? {
            0 => MiningMode::Sync,
            1 => MiningMode::Async,
            t => return Err(bad("mining", t)),
        },
        mining_threads: r.get_len()?,
        suffix_backend: match r.get_u8()? {
            0 => SuffixBackend::Doubling,
            1 => SuffixBackend::Sais,
            t => return Err(bad("suffix backend", t)),
        },
        scoring: ScoringConfig {
            count_cap: r.get_u32()?,
            staleness_half_life: r.get_f64()?,
            replay_bonus: r.get_f64()?,
        },
        capacity: CapacityConfig {
            max_candidates: r.get_opt_len()?,
            max_trie_nodes: r.get_opt_len()?,
            max_trie_bytes: r.get_opt_len()?,
            max_template_bytes: r.get_opt_len()?,
        },
        finder_policy: match r.get_u8()? {
            0 => FinderPolicy::DegradeUntraced,
            1 => FinderPolicy::FailStop,
            t => return Err(bad("finder policy", t)),
        },
        // Written (and therefore read) last: appended after the fields
        // above to keep their payload offsets stable.
        gated_ingest: r.get_bool()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_every_knob() {
        let mut c = Config::standard()
            .with_max_trace_length(200)
            .with_min_trace_length(7)
            .with_batch_size(512)
            .with_multi_scale_factor(64)
            .with_async_mining()
            .with_mining_threads(3)
            .with_gated_ingest()
            .with_suffix_backend(SuffixBackend::Doubling)
            .with_max_candidates(9)
            .with_max_trie_nodes(99)
            .with_max_trie_bytes(4096)
            .with_max_template_bytes(8192)
            .with_finder_policy(FinderPolicy::FailStop);
        c.identifier = IdentifierAlgorithm::FixedBatch;
        c.repeats = RepeatsAlgorithm::Lzw;
        c.scoring.replay_bonus = 0.5;
        let mut w = SnapshotWriter::new();
        put_config(&mut w, &c);
        let payload = w.into_payload();
        let mut r = SnapshotReader::new(&payload);
        assert_eq!(get_config(&mut r).unwrap(), c);
        r.expect_end().unwrap();
    }

    #[test]
    fn config_rejects_invalid_tags() {
        let mut w = SnapshotWriter::new();
        put_config(&mut w, &Config::standard());
        let mut payload = w.into_payload();
        // The identifier tag sits after three u64 lengths and the absent
        // max_trace_length's presence byte: 8 + 1 + 8 + 8 = 25.
        payload[25] = 9;
        let mut r = SnapshotReader::new(&payload);
        let err = get_config(&mut r).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(ref m) if m.contains("identifier")), "{err}");
    }
}
