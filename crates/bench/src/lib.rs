//! # nebula-bench — the evaluation harness
//!
//! Regenerates every table and figure of the Nebula paper's §8
//! evaluation. Each `figNN` module computes one experiment and returns
//! structured rows; the `reproduce` binary prints them in the same shape
//! the paper reports. Criterion micro-benches (in `benches/`) cover the
//! hot paths with statistical rigor.
//!
//! Run `cargo run -p nebula-bench --release --bin reproduce -- help` for
//! the experiment list.

pub mod ablation;
pub mod degradation;
pub mod durability;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod overload;
pub mod paging;
pub mod pipeline;
pub mod profile;
pub mod recovery;
pub mod repair;
pub mod replication;
pub mod setup;
pub mod table;
pub mod tracing;

pub use setup::{Scale, Setup};
