//! The pinned input digests of the default seed at full size.
//!
//! What is pinned is input drift — a generator or an app model changing
//! the stream — never a tracing decision: decision digests are reported,
//! not checked against a golden.

use crate::workloads::Workload;

const GOLDEN: &str = include_str!("../golden.json");

/// The seed `golden.json` was generated under.
pub const GOLDEN_SEED: u64 = 1;

/// The pinned digest of `workload`, if `golden.json` has one.
pub fn expected(workload: Workload) -> Option<u64> {
    let key = format!("\"{}\": \"", workload.name());
    let at = GOLDEN.find(&key)? + key.len();
    u64::from_str_radix(GOLDEN.get(at..at + 16)?, 16).ok()
}

/// `golden.json` for the given digests, one workload per line.
pub fn render(digests: &[(Workload, u64)]) -> String {
    let lines: Vec<String> =
        digests.iter().map(|(w, d)| format!("  \"{}\": \"{d:016x}\"", w.name())).collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}
