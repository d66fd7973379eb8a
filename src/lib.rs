//! # Sibyl
//!
//! A reproduction of *"Sibyl: Adaptive and Extensible Data Placement in
//! Hybrid Storage Systems Using Online Reinforcement Learning"*
//! (Singh et al., ISCA 2022).
//!
//! This facade crate re-exports the workspace members so downstream users
//! and the bundled examples can depend on a single crate:
//!
//! - [`core`] — the Sibyl reinforcement-learning agent (the paper's
//!   primary contribution): state features, reward shaping, experience
//!   replay, and the C51 categorical deep Q-network.
//! - [`nn`] — the neural-network substrate (dense + recurrent layers,
//!   optimizers, half-precision utilities).
//! - [`hss`] — the hybrid-storage-system simulator (device models,
//!   unified logical address space, migration/eviction machinery).
//! - [`trace`] — block-I/O trace model and synthetic workload generators.
//! - [`policies`] — baseline placement policies (CDE, HPS, Archivist,
//!   RNN-HSS, Oracle, Slow-Only, Fast-Only, tri-hybrid heuristic).
//! - [`sim`] — the experiment runner, metrics, and report tables.
//! - [`serve`] — the sharded placement-serving engine: LBA-hash routing
//!   across worker shards, each deciding request batches with one
//!   batched C51 inference pass.
//! - [`coop`] — the multi-agent cooperation layer: shared replay and
//!   federated weight averaging across shard agents at deterministic
//!   sync rounds.
//! - [`migrate`] — the background migration subsystem: a Harmonia-style
//!   second RL agent (plus a heuristic policy) that proactively promotes
//!   and demotes pages between devices.
//! - [`telemetry`] — the deterministic observability substrate: metrics
//!   registry with log2 histograms, bounded event traces, JSONL export,
//!   and the `sibyl-top` summary renderer.
//! - [`xray`] — deterministic per-request x-ray tracing: sampled requests'
//!   latency split into critical-path components, folded-stack export.
//!
//! ## Quickstart
//!
//! ```rust
//! use sibyl::hss::{HssConfig, DeviceSpec};
//! use sibyl::sim::{Experiment, PolicyKind};
//! use sibyl::trace::msrc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Synthesize a small MSRC-like workload and run Sibyl on a
//! // performance-oriented (Optane + TLC SSD) hybrid configuration.
//! let trace = msrc::generate(msrc::Workload::Rsrch0, 20_000, 42);
//! let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
//!     .with_fast_capacity_fraction(0.10);
//! let outcome = Experiment::new(hss, trace).run(PolicyKind::sibyl())?;
//! println!("average latency: {:.1} us", outcome.metrics.avg_latency_us);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
pub use sibyl_coop as coop;
pub use sibyl_core as core;
pub use sibyl_hss as hss;
pub use sibyl_migrate as migrate;
pub use sibyl_nn as nn;
pub use sibyl_policies as policies;
pub use sibyl_serve as serve;
pub use sibyl_sim as sim;
pub use sibyl_telemetry as telemetry;
pub use sibyl_trace as trace;
pub use sibyl_xray as xray;
