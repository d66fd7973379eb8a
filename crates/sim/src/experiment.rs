//! The experiment driver: trace × HSS configuration × policy → metrics.

use std::sync::OnceLock;

use sibyl_hss::{HssConfig, PlacementContext, PlacementPolicy, StorageManager};
use sibyl_trace::Trace;

use crate::metrics::Metrics;
use crate::policy_kind::PolicyKind;

/// Errors from experiment runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The trace contains no requests.
    EmptyTrace,
    /// The serving engine rejected its configuration
    /// (see [`sibyl_serve::ServeError`]).
    Serve(sibyl_serve::ServeError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EmptyTrace => write!(f, "trace contains no requests"),
            SimError::Serve(e) => write!(f, "serving engine: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<sibyl_serve::ServeError> for SimError {
    /// An empty trace keeps its sim-level meaning; every other engine
    /// error is carried verbatim.
    fn from(e: sibyl_serve::ServeError) -> Self {
        match e {
            sibyl_serve::ServeError::EmptyTrace => SimError::EmptyTrace,
            other => SimError::Serve(other),
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The policy's display name.
    pub policy: String,
    /// Collected metrics.
    pub metrics: Metrics,
}

/// A reusable experiment: one workload replayed against one HSS
/// configuration under different policies.
///
/// # Examples
///
/// ```
/// use sibyl_sim::{Experiment, PolicyKind};
/// use sibyl_hss::{DeviceSpec, HssConfig};
/// use sibyl_trace::msrc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = msrc::generate(msrc::Workload::Rsrch0, 2_000, 7);
/// let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
/// let exp = Experiment::new(hss, trace);
/// let slow = exp.run(PolicyKind::SlowOnly)?;
/// let fast = exp.run(PolicyKind::FastOnly)?;
/// assert!(slow.metrics.avg_latency_us > fast.metrics.avg_latency_us);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Experiment {
    hss: HssConfig,
    trace: Trace,
    time_scale: f64,
    /// `trace.footprint_pages()`, computed by the first run that needs
    /// it and shared by every later one.
    footprint: OnceLock<u64>,
    /// Policy runs made, for the test that `suite` runs its baseline once.
    #[cfg(test)]
    runs: std::cell::Cell<usize>,
}

impl Experiment {
    /// Creates an experiment from a (possibly fraction-mode) HSS config
    /// and a trace.
    pub fn new(hss: HssConfig, trace: Trace) -> Self {
        Experiment {
            hss,
            trace,
            time_scale: 1.0,
            footprint: OnceLock::new(),
            #[cfg(test)]
            runs: Default::default(),
        }
    }

    /// Accelerates trace replay by dividing every timestamp by `scale`
    /// (>1 compresses think time). Throughput comparisons (the paper's
    /// Fig. 10) replay under load so device capacity, not arrival rate,
    /// bounds IOPS.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive and finite.
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "time scale must be positive"
        );
        self.time_scale = scale;
        self
    }

    /// The workload.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The HSS configuration (before footprint resolution).
    pub fn hss_config(&self) -> &HssConfig {
        &self.hss
    }

    /// Runs one policy over the whole trace.
    ///
    /// Fast-Only automatically gets unlimited capacities (§7). Policies
    /// that provide a victim policy (Oracle) have it installed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for an empty trace.
    pub fn run(&self, kind: PolicyKind) -> Result<Outcome, SimError> {
        let mut policy = kind.build();
        let config = if kind.wants_unlimited_capacity() {
            self.hss.clone().with_unlimited_capacities()
        } else {
            self.hss.clone()
        };
        self.run_boxed(&mut *policy, &config)
    }

    /// Runs an externally constructed policy (for custom configurations
    /// and ablations).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for an empty trace.
    pub fn run_policy(&self, policy: &mut dyn PlacementPolicy) -> Result<Outcome, SimError> {
        let config = self.hss.clone();
        self.run_boxed(policy, &config)
    }

    /// Runs the Fast-Only baseline once, then each of `policies`; a
    /// Fast-Only entry among them is that baseline run, not a second one
    /// (runs are deterministic, so the outcome is the same either way).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for an empty trace.
    pub fn suite(&self, policies: &[PolicyKind]) -> Result<SuiteResult, SimError> {
        let fast_only = self.run(PolicyKind::FastOnly)?;
        let mut outcomes = Vec::with_capacity(policies.len());
        for policy in policies {
            outcomes.push(match policy {
                PolicyKind::FastOnly => fast_only.clone(),
                other => self.run(other.clone())?,
            });
        }
        Ok(SuiteResult {
            workload: self.trace.name().to_string(),
            fast_only,
            outcomes,
        })
    }

    fn run_boxed(
        &self,
        policy: &mut dyn PlacementPolicy,
        config: &HssConfig,
    ) -> Result<Outcome, SimError> {
        if self.trace.is_empty() {
            return Err(SimError::EmptyTrace);
        }
        #[cfg(test)]
        self.runs.set(self.runs.get() + 1);
        let footprint = *self.footprint.get_or_init(|| self.trace.footprint_pages());
        let resolved = config.resolved(footprint);
        let mut manager = StorageManager::new(&resolved);
        if let Some(victim) = policy.victim_policy(manager.num_devices(), &self.trace) {
            manager.set_victim_policy(victim);
        }
        for (seq, orig) in self.trace.iter().enumerate() {
            let mut req = *orig;
            if self.time_scale != 1.0 {
                req.timestamp_us = (orig.timestamp_us as f64 / self.time_scale) as u64;
            }
            let target = {
                let ctx = PlacementContext {
                    manager: &manager,
                    seq: seq as u64,
                };
                policy.place(&req, &ctx)
            };
            let outcome = manager.access(&req, target);
            let ctx = PlacementContext {
                manager: &manager,
                seq: seq as u64,
            };
            policy.feedback(&req, &outcome, &ctx);
        }
        Ok(Outcome {
            policy: policy.name().to_string(),
            metrics: Metrics::from_stats(manager.stats()),
        })
    }
}

/// A full comparison on one workload: every requested policy plus the
/// Fast-Only normalization baseline.
#[derive(Debug, Clone)]
pub struct SuiteResult {
    /// The workload name.
    pub workload: String,
    /// The Fast-Only baseline outcome.
    pub fast_only: Outcome,
    /// Outcomes in the order the policies were given.
    pub outcomes: Vec<Outcome>,
}

impl SuiteResult {
    /// Average latency of outcome `i` normalized to Fast-Only (the
    /// paper's y-axis in Figs. 2, 9, 11, 12, 15, 16).
    pub fn normalized_latency(&self, i: usize) -> f64 {
        self.outcomes[i]
            .metrics
            .normalized_latency(&self.fast_only.metrics)
    }

    /// IOPS of outcome `i` normalized to Fast-Only (Fig. 10).
    pub fn normalized_iops(&self, i: usize) -> f64 {
        self.outcomes[i]
            .metrics
            .normalized_iops(&self.fast_only.metrics)
    }

    /// Looks up an outcome by policy name.
    pub fn by_name(&self, name: &str) -> Option<&Outcome> {
        self.outcomes.iter().find(|o| o.policy == name)
    }
}

/// Runs `policies` and the Fast-Only baseline on one workload.
///
/// # Errors
///
/// Returns [`SimError::EmptyTrace`] for an empty trace.
pub fn run_suite(
    hss: &HssConfig,
    trace: &Trace,
    policies: &[PolicyKind],
) -> Result<SuiteResult, SimError> {
    Experiment::new(hss.clone(), trace.clone()).suite(policies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::DeviceSpec;
    use sibyl_trace::msrc;

    fn hm() -> HssConfig {
        HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
    }

    #[test]
    fn empty_trace_is_an_error() {
        let exp = Experiment::new(hm(), Trace::from_requests("e", vec![]));
        assert_eq!(exp.run(PolicyKind::SlowOnly), Err(SimError::EmptyTrace));
        assert_eq!(
            SimError::EmptyTrace.to_string(),
            "trace contains no requests"
        );
    }

    #[test]
    fn fast_only_beats_slow_only() {
        let trace = msrc::generate(msrc::Workload::Prxy1, 3_000, 1);
        let exp = Experiment::new(hm(), trace);
        let fast = exp.run(PolicyKind::FastOnly).unwrap();
        let slow = exp.run(PolicyKind::SlowOnly).unwrap();
        assert!(fast.metrics.avg_latency_us < slow.metrics.avg_latency_us);
        assert!(fast.metrics.iops > slow.metrics.iops);
    }

    #[test]
    fn suite_normalizes_against_fast_only() {
        let trace = msrc::generate(msrc::Workload::Rsrch0, 2_000, 2);
        let suite = run_suite(&hm(), &trace, &[PolicyKind::SlowOnly]).unwrap();
        let n = suite.normalized_latency(0);
        assert!(n > 1.0, "Slow-Only normalized latency {n} must exceed 1");
        assert!(suite.normalized_iops(0) <= 1.0);
        assert!(suite.by_name("Slow-Only").is_some());
        assert!(suite.by_name("nonexistent").is_none());
    }

    #[test]
    fn suite_outcomes_align_with_caller_policy_list() {
        // Regression: the Fast-Only baseline lives in `fast_only`, never
        // in `outcomes`, so `normalized_latency(i)` must line up with the
        // caller's policy list — including when the caller asks for
        // Fast-Only itself, which is the baseline run again (not a second
        // run) and so normalizes to exactly 1.
        let trace = msrc::generate(msrc::Workload::Rsrch0, 2_000, 5);
        let policies = [PolicyKind::SlowOnly, PolicyKind::FastOnly, PolicyKind::Cde];
        let exp = Experiment::new(hm(), trace);
        let suite = exp.suite(&policies).unwrap();
        assert_eq!(exp.runs.get(), 3, "Fast-Only runs once per suite");
        assert_eq!(suite.outcomes.len(), policies.len());
        assert_eq!(suite.fast_only.policy, "Fast-Only");
        for (i, p) in policies.iter().enumerate() {
            assert_eq!(suite.outcomes[i].policy, p.name());
        }
        let fast_norm = suite.normalized_latency(1);
        assert!(
            (fast_norm - 1.0).abs() < 1e-9,
            "Fast-Only vs the Fast-Only baseline must be 1.0, got {fast_norm}"
        );
        assert!(suite.normalized_latency(0) > 1.0);
    }

    #[test]
    fn oracle_victim_policy_is_installed_and_runs() {
        let trace = msrc::generate(msrc::Workload::Hm1, 2_000, 3);
        let exp = Experiment::new(hm(), trace);
        let oracle = exp.run(PolicyKind::Oracle).unwrap();
        assert_eq!(oracle.policy, "Oracle");
        assert!(oracle.metrics.total_requests == 2_000);
    }

    #[test]
    fn oracle_evicts_the_resident_used_farthest_in_the_future() {
        // Pages 1, 2, 3 are written to a two-page fast device; the third
        // write evicts one. Next uses: page 1 at request 3, page 3 at 4,
        // page 2 never — so Belady evicts 2 where LRU would evict 1. The
        // Oracle reads a page where it lives, so each read's target is
        // the page's residency at that request.
        use sibyl_trace::{IoOp, IoRequest};
        let (w, r) = (IoOp::Write, IoOp::Read);
        let requests = [(1, w), (2, w), (3, w), (1, r), (3, r)]
            .iter()
            .enumerate()
            .map(|(i, &(lpn, op))| IoRequest::new(i as u64 * 1_000, lpn, 1, op))
            .collect();
        let hss = hm().with_capacity_pages(vec![2, u64::MAX]);
        let exp = Experiment::new(hss, Trace::from_requests("belady", requests));
        let oracle = exp.run(PolicyKind::Oracle).unwrap().metrics;
        assert_eq!(oracle.evicted_pages, 1);
        assert_eq!(oracle.migrated_pages, 0);
        assert_eq!(
            oracle.placements,
            vec![5, 0],
            "pages 1 and 3 must still be fast-resident when read"
        );
    }

    #[test]
    fn outcome_totals_match_trace_length() {
        let trace = msrc::generate(msrc::Workload::Web1, 1_500, 4);
        let exp = Experiment::new(hm(), trace);
        for kind in [PolicyKind::Cde, PolicyKind::Hps, PolicyKind::sibyl()] {
            let out = exp.run(kind).unwrap();
            assert_eq!(out.metrics.total_requests, 1_500);
            assert_eq!(out.metrics.placements.iter().sum::<u64>(), 1_500);
        }
    }
}
