//! `apobench`: an application-stream benchmark for the whole `Session`
//! stack, measured from outside.
//!
//! Every number is taken by timing calls into the layers' public
//! functions; nothing in the repository is instrumented. See `README.md`
//! for the metric tables, the workloads and how to read the output.

pub mod alloc;
pub mod clock;
pub mod gen;
pub mod golden;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod passes;
pub mod program;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;
