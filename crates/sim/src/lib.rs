//! # sibyl-sim
//!
//! The experiment harness for the Sibyl reproduction: it wires a workload
//! ([`sibyl_trace::Trace`]), a hybrid-storage configuration
//! ([`sibyl_hss::HssConfig`]), and a placement policy ([`PolicyKind`])
//! into one run and reports [`Metrics`] in the paper's vocabulary
//! (average request latency, IOPS, eviction fraction, fast-device
//! preference) — the same type a sharded `sibyl_serve` run's
//! `ServeReport::aggregate` returns.
//!
//! - [`Experiment`] — run one policy on one workload.
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
mod policy_kind;
pub mod report;

pub use experiment::{run_suite, Experiment, Outcome, SimError, SuiteResult};
pub use policy_kind::PolicyKind;
// `Metrics` lives in `sibyl-hss`, beside the `HssStats` it is read from.
pub use sibyl_hss::Metrics;
