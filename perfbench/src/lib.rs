//! The k2hop benchmark: served mining and ingest over real TCP, and
//! batch mining of an LSM store, each split into its layers.
//!
//! See `WORKLOADS.md` beside this crate for the workloads, their sizes
//! and the prediction table, and `BENCHMARK.json` at the repository root
//! for the metric list.

pub mod check;
pub mod heap;
pub mod inputs;
pub mod run;
pub mod source;
pub mod stats;
pub mod trace;

#[cfg(test)]
mod tests;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;
