//! Seeded inputs: the two synthetic streams, the fleet's turn order and
//! the checkpoint cut positions. Everything here is a pure function of
//! its arguments.
//!
//! The seed changes *which* tasks, regions and positions are drawn, never
//! how many: totals, motif-length multisets and turn counts are fixed, so
//! the deterministic metrics move as little as possible between seeds.

use tasksim::cost::Micros;
use tasksim::ids::{RegionId, TaskKindId};
use tasksim::issuer::TaskIssuer;
use tasksim::runtime::RuntimeError;
use tasksim::task::TaskDesc;

/// SplitMix64 — small, seedable, and the bench's own, so a change to the
/// repository's `rand` stand-in cannot move the inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the inputs of
    /// different workloads under one seed share nothing.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at
    /// these ranges.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

const TASK_GPU_TIME: Micros = Micros(100.0);

/// The aperiodic stream: `tasks` tasks in 100-task iterations, kinds drawn
/// from a 4 M alphabet, each reading one and writing another of 64 leaf
/// regions (16 roots partitioned four ways). Nothing repeats at any
/// length worth tracing.
///
/// # Errors
///
/// Propagates issuer errors.
pub fn untraceable(issuer: &mut dyn TaskIssuer, seed: u64, tasks: u64) -> Result<(), RuntimeError> {
    const ALPHABET: u64 = 4_000_000;
    const ITERATION: u64 = 100;
    let mut rng = Rng::new(seed, 1);
    let mut leaves: Vec<RegionId> = Vec::with_capacity(64);
    for _ in 0..16 {
        let root = issuer.create_region(1);
        leaves.extend(issuer.partition(root, 4)?);
    }
    for i in 0..tasks {
        let src = rng.below(64) as usize;
        let dst = (src + 1 + rng.below(63) as usize) % 64;
        issuer.execute_task(
            TaskDesc::new(TaskKindId(rng.below(ALPHABET) as u32))
                .reads(leaves[src])
                .writes(leaves[dst])
                .gpu_time(TASK_GPU_TIME),
        )?;
        if (i + 1).is_multiple_of(ITERATION) {
            issuer.mark_iteration();
        }
    }
    Ok(())
}

/// Phases of the churn stream.
pub const CHURN_PHASES: usize = 40;
/// Phase lengths are multiples of this (the workload's `batch_size`).
const CHURN_ALIGN: u64 = 2_048;

/// The phase-changing stream: [`CHURN_PHASES`] phases, each looping its own
/// motif (length 20–80, kinds disjoint from every other phase) of random
/// read/write pairs over 8 regions created for the phase and destroyed one
/// phase later. One iteration per loop trip. Every phase is the same whole
/// number of history buffers long, so each starts at the same point of
/// the finder's sampling schedule.
///
/// The stream's shape and hashes are drawn from a fixed internal seed;
/// `seed` draws only the tasks' execution times. Which rotation of a
/// motif Algorithm 2 picks depends on the *order* of the task hashes, so
/// a seed that moved one hash would move `unreplayed_fraction` by ±10 % —
/// more noise between seeds than any regression bound could absorb.
///
/// # Errors
///
/// Propagates issuer errors.
pub fn phase_churn(issuer: &mut dyn TaskIssuer, seed: u64, tasks: u64) -> Result<(), RuntimeError> {
    let mut shape = Rng::new(0, 2);
    let mut times = Rng::new(seed, 2);
    let mut lengths: Vec<u64> =
        (0..CHURN_PHASES as u64).map(|i| 20 + i * 60 / (CHURN_PHASES as u64 - 1)).collect();
    shape.shuffle(&mut lengths);
    let per_phase = (tasks / CHURN_PHASES as u64 / CHURN_ALIGN).max(1) * CHURN_ALIGN;
    let mut previous: Vec<RegionId> = Vec::new();
    for (phase, &len) in lengths.iter().enumerate() {
        let regions: Vec<RegionId> = (0..8).map(|_| issuer.create_region(1)).collect();
        let motif: Vec<TaskDesc> = (0..len)
            .map(|step| {
                let src = shape.below(8) as usize;
                let dst = (src + 1 + shape.below(7) as usize) % 8;
                TaskDesc::new(TaskKindId(10_000 + phase as u32 * 1_000 + step as u32))
                    .reads(regions[src])
                    .writes(regions[dst])
                    .gpu_time(Micros(50.0 + times.below(101) as f64))
            })
            .collect();
        let mut left = per_phase;
        while left > 0 {
            // The phase's last loop trip is cut short where the phase ends.
            let trip = left.min(len);
            for task in &motif[..trip as usize] {
                issuer.execute_task(task.clone())?;
            }
            issuer.mark_iteration();
            left -= trip;
        }
        for region in previous.drain(..) {
            issuer.destroy_region(region)?;
        }
        previous = regions;
    }
    Ok(())
}

/// The fleet's turn order: tenant `t` appears `iterations[t]` times, in a
/// seeded shuffle.
pub fn interleave(seed: u64, iterations: &[u64]) -> Vec<u8> {
    let mut turns: Vec<u8> = iterations
        .iter()
        .enumerate()
        .flat_map(|(t, &n)| std::iter::repeat_n(t as u8, n as usize))
        .collect();
    Rng::new(seed, 3).shuffle(&mut turns);
    turns
}

/// Iteration counts after which `cfd_dist_ckpt` checkpoints: one every
/// `every` iterations, each jittered by up to a fiftieth of `every` either
/// way (the live heap at a cut swings with the replayer's pending buffer,
/// so wider jitter makes `peak_heap_mb` a function of the seed), none in
/// the last `every / 2` iterations.
pub fn checkpoint_cuts(seed: u64, iterations: u64, every: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 4);
    let jitter = (every / 50).max(1);
    (1..)
        .map(|k| k * every + rng.below(2 * jitter + 1) - jitter)
        .take_while(|&cut| cut + every / 2 < iterations)
        .collect()
}
