//! # sibyl-serve
//!
//! A sharded placement-serving engine for the Sibyl reproduction: the
//! step from *one agent on one thread* toward the production-scale
//! serving layer the ROADMAP targets.
//!
//! The engine spawns `N` worker shards. Each shard owns a private
//! [`sibyl_hss::StorageManager`] and [`sibyl_core::SibylAgent`] —
//! modeling a scale-out deployment of independent hybrid-storage nodes —
//! and requests are routed to shards by a hash of their starting LBA's
//! 64-page region ([`shard_of`]; requests straddling a region boundary
//! follow their start region, see there for the modeling consequence),
//! crossing to the shard's thread in fixed blocks of 512 requests. Each
//! shard cuts its blocks into batches of up to [`ServeConfig::max_batch`]
//! requests and decides the whole batch with **one batched C51 inference
//! pass** (`Mlp::infer_batch`): one matrix-matrix product per layer
//! instead of a matrix-vector product per request, bit-identical to
//! per-request inference.
//!
//! Shard agents can **cooperate** through the `sibyl-coop` layer
//! ([`ServeConfig::coop`]): under [`CoopMode::SharedReplay`] each shard
//! publishes a fraction of its experiences into a pool redistributed at
//! sync rounds, under [`CoopMode::WeightAverage`] all shards
//! federated-average their training networks at a barrier every
//! `sync_period` batches, and [`CoopMode::Both`] combines the two.
//! Sync rounds sit at logical batch-count boundaries — never wall-clock
//! time — so cooperation preserves the engine's determinism guarantee.
//! The `sibyl-migrate` background-migration subsystem rides the same
//! discipline ([`ServeConfig::migrate`]): each shard ticks a private
//! migrator every `scan_period` of its own batches, and migration I/O
//! is charged against the shard's device clocks.
//! When [`ServeConfig::nn_ns_per_mac`] is set, the §10 overhead model —
//! the engine's one NN cost model — charges each batch one amortized
//! forward pass and each train step its weight streams, so the batching
//! win shows up in latency, not just IOPS.
//!
//! Each shard's loop runs five stages per batch — fill → decide → serve
//! → learn → maintain (migration tick, curve sample, coop sync) — and
//! reports what each did to one [`ShardObserver`], the only place that
//! knows how a run is observed: the telemetry event taxonomy and
//! registry names, the x-ray tracer, and the teardown fold. With
//! [`ServeConfig::telemetry`] and [`ServeConfig::xray`] off it holds
//! nothing and every call returns at once.
//!
//! Determinism survives sharding: batch boundaries are fixed chunks of
//! each shard's request subsequence (shards block until a batch fills or
//! the trace ends), training runs inline on the shard thread, and every
//! shard's RNG is seeded from the base seed and the shard index — so a
//! seeded run reproduces identical per-shard and aggregate metrics
//! regardless of thread scheduling, in every cooperation mode.
//!
//! ## Quickstart
//!
//! ```rust
//! use sibyl_hss::{DeviceSpec, HssConfig};
//! use sibyl_serve::{serve_trace, ServeConfig};
//! use sibyl_trace::msrc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Serve an MSRC-like workload across 2 shards with batches of 16.
//! let trace = msrc::generate(msrc::Workload::Rsrch0, 2_000, 42);
//! let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
//! let config = ServeConfig::new(hss).with_shards(2).with_max_batch(16);
//! let report = serve_trace(&config, &trace)?;
//! assert_eq!(report.total_requests(), 2_000);
//! let agg = report.aggregate();
//! println!(
//!     "{} requests, {:.0} aggregate IOPS, {:.1} µs mean latency",
//!     agg.total_requests, agg.iops, agg.avg_latency_us,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! [`ServeReport::aggregate`] reads the run in the paper's metric
//! vocabulary: the shards' statistics merged into one
//! [`sibyl_hss::Metrics`], the type a single-node `sibyl_sim::Experiment`
//! reports, so the two paths compare field by field.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod handoff;
mod observe;
mod report;
// The unit tests share the integration tests' fixture, which names this
// crate `sibyl_serve`.
#[cfg(test)]
extern crate self as sibyl_serve;
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

pub use config::ServeConfig;
pub use engine::{serve_stream, serve_trace, shard_of, ServeError, REGION_BITS};
pub use observe::ShardObserver;
pub use report::{CurvePoint, ServeReport, ShardReport};

// Re-exported so engine users can configure cooperation, background
// migration, telemetry, and x-ray tracing without direct
// `sibyl-coop`/`sibyl-migrate`/`sibyl-telemetry`/`sibyl-xray`
// dependencies.
pub use sibyl_coop::{CoopConfig, CoopConfigError, CoopMode};
pub use sibyl_migrate::{MigrateConfig, MigrateConfigError, MigratePolicyKind};
pub use sibyl_telemetry::{ShardTelemetry, TelemetryConfig, TelemetryReport, TraceEvent};
pub use sibyl_xray::{ShardXray, XrayConfig, XrayConfigError, XrayReport};
