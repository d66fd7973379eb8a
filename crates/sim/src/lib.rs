//! # sibyl-sim
//!
//! The experiment harness for the Sibyl reproduction: it wires a workload
//! ([`sibyl_trace::Trace`]), a hybrid-storage configuration
//! ([`sibyl_hss::HssConfig`]), and a placement policy ([`PolicyKind`])
//! into one run and reports [`Metrics`] in the paper's vocabulary
//! (average request latency, IOPS, eviction fraction, fast-device
//! preference).
//!
//! - [`Experiment`] — run one policy on one workload.
//! - [`ServeExperiment`] — run the [`sibyl_serve`] sharded serving
//!   engine on one workload and collect per-shard + aggregate metrics.
//! - [`ServeExperiment::sweep`] — serve one workload under several
//!   labelled serving configurations (cooperation modes, migration
//!   policies, any other knob) and compare each to the first
//!   ([`ServeSweep`]).
//! - [`run_suite`] / [`Experiment::suite`] — run a set of policies plus
//!   the Fast-Only baseline (once) and normalize: every latency figure in
//!   the paper is normalized to Fast-Only.
//! - [`report`] — aligned table rendering for the bench targets (which
//!   own the figures' table shapes and parameter sweeps: `sibyl-bench`'s
//!   `Figure::grid` / `Figure::sweep`).
//!
//! ## Example
//!
//! ```rust
//! use sibyl_sim::{run_suite, PolicyKind};
//! use sibyl_hss::{DeviceSpec, HssConfig};
//! use sibyl_trace::msrc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let trace = msrc::generate(msrc::Workload::Hm1, 2_000, 42);
//! let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
//! let suite = run_suite(&hss, &trace, &[PolicyKind::SlowOnly, PolicyKind::sibyl()])?;
//! // Normalized latency > 1 means slower than Fast-Only.
//! assert!(suite.normalized_latency(0) >= 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod experiment;
mod metrics;
mod policy_kind;
pub mod report;
mod serve_experiment;

pub use experiment::{run_suite, Experiment, Outcome, SimError, SuiteResult};
pub use metrics::Metrics;
pub use policy_kind::PolicyKind;
pub use serve_experiment::{ServeExperiment, ServeOutcome, ServeSweep};
