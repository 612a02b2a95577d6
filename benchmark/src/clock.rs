//! The benchmark's one clock.
//!
//! Every timestamp in the benchmark comes from [`now_ns`], so the
//! repository's ambient-state lint has exactly one annotated read to
//! audit, and the cost of a read is calibrated once ([`calibrate`]) and
//! subtracted wherever per-call clocks bracket a layer.

use std::sync::OnceLock;
use std::time::Instant;

#[inline]
fn read() -> Instant {
    // lint: allow(D002): the benchmark is the clock
    Instant::now()
}

/// Nanoseconds since the first clock read of the process.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(read);
    read().duration_since(epoch).as_nanos() as u64
}

/// The cost of one [`now_ns`] call in nanoseconds: the median over 15
/// rounds of the mean of 2 000 back-to-back reads.
pub fn calibrate() -> f64 {
    const READS: u64 = 2_000;
    let mut rounds: Vec<f64> = (0..15)
        .map(|_| {
            let start = now_ns();
            let mut last = start;
            for _ in 0..READS {
                last = std::hint::black_box(now_ns());
            }
            (last - start) as f64 / READS as f64
        })
        .collect();
    crate::stats::median(&mut rounds)
}
