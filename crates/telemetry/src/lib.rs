//! # sibyl-telemetry
//!
//! Deterministic observability substrate for the Sibyl serving stack:
//!
//! - [`Registry`] — named counters, gauges, log2 [`Log2Histogram`]s, and
//!   logical-time series, all stored in `BTreeMap`s so exports are
//!   byte-stable.
//! - [`TraceEvent`] / [`EventRing`] — a bounded per-shard event trace
//!   with gap-free sequence numbers.
//! - [`TelemetrySink`] / [`TelemetryReport`] — the per-shard collection
//!   point and the run-level report with a JSONL exporter and a
//!   `sibyl-top`-style plain-text renderer.
//! - [`measured`] — the one sanctioned wall-clock namespace; everything
//!   else is keyed on logical time (request index, batch count,
//!   simulated µs).
//!
//! ## Determinism contract
//!
//! Telemetry must never perturb serving: with [`TelemetryConfig`] off
//! (the default) no sink is allocated and placement output is pinned
//! bit-identical to a build without telemetry. With telemetry on, two
//! runs of the same configuration produce byte-identical
//! [`TelemetryReport::export_jsonl`] output, because every recorded
//! value is a function of the simulated run — wall-clock durations are
//! quarantined under `measured.*`, which is excluded from registry
//! equality and from the deterministic export.
//!
//! The crate is dependency-free by design: any crate in the workspace
//! can adopt it without widening its dependency surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod event;
mod histogram;
mod json;
pub mod measured;
mod registry;
mod report;
mod sink;

pub use config::TelemetryConfig;
pub use event::{EventRing, SeqEvent, TraceEvent};
pub use histogram::{Log2Histogram, BUCKETS};
pub use registry::Registry;
pub use report::TelemetryReport;
pub use sink::{ShardTelemetry, TelemetrySink};
