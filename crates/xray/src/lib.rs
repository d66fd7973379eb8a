//! # sibyl-xray
//!
//! Deterministic per-request tracing for the Sibyl serving stack: the
//! causal "where did this request's latency go" tool that aggregate
//! telemetry (sibyl-telemetry's counters and histograms) cannot answer.
//!
//! ## Design
//!
//! - **Deterministic sampling.** Each request is sampled — or not — by a
//!   stateless splitmix64 hash of `(seed, lba, seq)` at a configurable
//!   `1/2^k` rate ([`XrayConfig::Sampled`]). No RNG state, no
//!   reservoir: the sampled set is a pure function of the run's inputs,
//!   so it is identical across runs and thread schedules, and O(1) per
//!   request on a 10M-request stream.
//! - **Logical time.** Durations are the engine's *simulated* clock,
//!   quantized once to integer nanoseconds ([`span::us_to_ns`]). No
//!   wall-clock read exists anywhere in this crate — `sibyl-lint --deny`
//!   holds that line — so samples are part of the deterministic result,
//!   not a measurement of the host.
//! - **Exact decomposition.** A sampled request becomes one flat
//!   [`Sample`] whose latency is split with integer residuals: the last
//!   component of every split is the remainder, so the four
//!   critical-path components
//!   (`nn.decide → stall.train → device.queue → device.transfer`) sum to
//!   the recorded latency *exactly*, and breakdown shares always total
//!   100%.
//! - **Streaming aggregation.** Each [`Sample`] is folded into per-shard
//!   [`ComponentTotals`] immediately; only the [`TAIL_K`] slowest are
//!   retained (tail forensics), so memory stays O(1) in stream length.
//! - **Off is absent.** [`XrayTracer::new`] returns `None` for
//!   [`XrayConfig::Off`] — the engine then holds no tracer and no xray
//!   branch ever fires, which is what lets the serve crate pin the
//!   disabled engine bit-identical to one that never heard of xray.
//!
//! ## Outputs
//!
//! [`XrayReport`] offers the per-shard and
//! [`merged_totals`](XrayReport::merged_totals) component sums, a
//! folded-stacks export ([`xray_folded`](XrayReport::xray_folded))
//! consumable by standard flamegraph tooling, and the merged
//! [`tail`](XrayReport::tail) of slowest sampled requests, dumped as
//! indented trees by [`render_tail`](XrayReport::render_tail).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod report;
pub mod span;
mod tracer;

pub use config::{is_sampled, sample_hash, XrayConfig, XrayConfigError, MAX_SAMPLE_EXPONENT};
pub use report::XrayReport;
pub use span::{ComponentTotals, Sample};
pub use tracer::{RequestObservation, ShardXray, XrayTracer, TAIL_K};
