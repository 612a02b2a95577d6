//! Scope configuration: which files each rule family patrols.
//!
//! Scopes are path-substring patterns over root-relative `/`-separated
//! paths. The defaults in [`LintConfig::workspace`] encode this engine's
//! determinism contract; the fixture corpus under
//! `crates/lint/tests/fixtures/` is named in every scope so the seeded
//! violations fire when the corpus is linted explicitly (the default
//! workspace walk skips that directory).

/// Path prefix every fixture lives under.
pub const FIXTURE_DIR: &str = "crates/lint/tests/fixtures";

/// Rule scoping for one lint run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Modules whose hash-map/set iteration order must not leak
    /// (D001): snapshot codecs, eviction paths, lock-step state, and the
    /// miner — the order of its output is replay-decision input.
    pub deterministic_modules: Vec<String>,
    /// The recognize/replay hot path and the one sink it forwards into,
    /// where `unwrap`/`expect`/`panic!` are forbidden (P001).
    pub hot_panic_modules: Vec<String>,
    /// Paths exempt from the ambient-state rule (D002): benchmarking
    /// code and the offline shims standing in for external crates.
    pub ambient_exempt: Vec<String>,
}

impl LintConfig {
    /// The workspace's determinism contract.
    pub fn workspace() -> Self {
        Self {
            deterministic_modules: vec![
                "crates/core/src/replayer.rs".into(),
                "crates/core/src/distributed.rs".into(),
                "crates/core/src/finder.rs".into(),
                "crates/core/src/snapshot.rs".into(),
                "crates/tasksim/src/snapshot.rs".into(),
                "crates/tasksim/src/runtime.rs".into(),
                "crates/substrings/src/trie.rs".into(),
                "crates/substrings/src/repeats.rs".into(),
                "crates/substrings/src/suffix_array.rs".into(),
                "crates/substrings/src/sais.rs".into(),
                FIXTURE_DIR.into(),
            ],
            hot_panic_modules: vec![
                "crates/core/src/replayer.rs".into(),
                "crates/core/src/engine.rs".into(),
                "crates/tasksim/src/runtime.rs".into(),
                "crates/substrings/src/trie.rs".into(),
                FIXTURE_DIR.into(),
            ],
            ambient_exempt: vec!["crates/bench/".into(), "crates/shims/".into()],
        }
    }

    /// Whether `rel` is a seeded-violation fixture (always fully linted).
    pub fn is_fixture(rel: &str) -> bool {
        rel.contains(FIXTURE_DIR)
    }

    /// Whether `rel` is test/bench/example context rather than shipped
    /// code: integration test trees, bench targets, examples. Rules skip
    /// these files (in-file `#[cfg(test)]` blocks are tracked separately).
    pub fn is_test_context(rel: &str) -> bool {
        if Self::is_fixture(rel) {
            return false;
        }
        rel.starts_with("tests/")
            || rel.contains("/tests/")
            || rel.contains("/examples/")
            || rel.contains("/benches/")
    }

    /// D001 scope.
    pub fn is_deterministic_module(&self, rel: &str) -> bool {
        self.deterministic_modules.iter().any(|m| rel.contains(m.as_str()))
    }

    /// P001 scope.
    pub fn is_hot_panic_module(&self, rel: &str) -> bool {
        self.hot_panic_modules.iter().any(|m| rel.contains(m.as_str()))
    }

    /// D002 scope: everywhere except the exempt trees (fixtures always).
    pub fn ambient_applies(&self, rel: &str) -> bool {
        Self::is_fixture(rel) || !self.ambient_exempt.iter().any(|m| rel.contains(m.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_scopes() {
        let c = LintConfig::workspace();
        assert!(c.is_deterministic_module("crates/substrings/src/trie.rs"));
        for kernel in ["repeats.rs", "suffix_array.rs", "sais.rs"] {
            assert!(c.is_deterministic_module(&format!("crates/substrings/src/{kernel}")));
        }
        assert!(c.is_deterministic_module("crates/core/src/finder.rs"));
        assert!(!c.is_deterministic_module("crates/substrings/src/lzw.rs"));
        assert!(c.is_hot_panic_module("crates/core/src/engine.rs"));
        assert!(c.is_hot_panic_module("crates/substrings/src/trie.rs"));
        assert!(c.is_hot_panic_module("crates/tasksim/src/runtime.rs"));
        assert!(!c.is_hot_panic_module("crates/tasksim/src/exec.rs"));
        assert!(c.ambient_applies("crates/serve/src/lib.rs"));
        assert!(!c.ambient_applies("crates/bench/src/experiments.rs"));
        assert!(!c.ambient_applies("crates/shims/criterion/src/lib.rs"));
    }

    #[test]
    fn fixtures_are_always_in_scope() {
        let c = LintConfig::workspace();
        let f = "crates/lint/tests/fixtures/d002_ambient_state.rs";
        assert!(c.ambient_applies(f));
        assert!(c.is_deterministic_module(f));
        assert!(c.is_hot_panic_module(f));
        assert!(!LintConfig::is_test_context(f));
        assert!(LintConfig::is_test_context("tests/determinism.rs"));
        assert!(LintConfig::is_test_context("crates/bench/benches/launch_overhead.rs"));
    }
}
