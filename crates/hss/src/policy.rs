//! The data-placement policy interface.
//!
//! Everything that decides "which device should this request's pages live
//! on" — the heuristics (CDE, HPS), the supervised baselines (Archivist,
//! RNN-HSS), the extremes (Slow-Only, Fast-Only, Oracle), and Sibyl itself
//! — implements [`PlacementPolicy`]. The driver loop is:
//!
//! ```text
//! for each request:
//!     target  = policy.place(request, &manager)     // decision
//!     outcome = manager.access(request, target)     // execution
//!     policy.feedback(&outcome)                     // system feedback
//! ```
//!
//! `place` may consult the manager's observable state (residency,
//! capacities, access metadata — the inputs behind the paper's Table 1
//! state features). The feedback hook carries the served latency and
//! eviction penalty — for Sibyl this is the reward channel (Eq. 1);
//! heuristics ignore it.

use crate::device::DeviceId;
use crate::manager::{AccessOutcome, StorageManager};
use sibyl_trace::IoRequest;

/// A data-placement policy.
pub trait PlacementPolicy: std::fmt::Debug {
    /// A short display name (used in result tables).
    fn name(&self) -> &str;

    /// Chooses the device for this request's pages, reading whatever of
    /// `manager`'s observable state it needs.
    fn place(&mut self, req: &IoRequest, manager: &StorageManager) -> DeviceId;

    /// Receives the outcome of the placement (served latency `L_t`,
    /// eviction time `L_e`, migration counts). Called exactly once per
    /// request, after [`PlacementPolicy::place`]. Default: ignore.
    fn feedback(&mut self, outcome: &AccessOutcome) {
        let _ = outcome;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HssConfig;
    use crate::device::DeviceSpec;
    use sibyl_trace::{IoOp, Trace};

    /// A minimal policy for exercising the trait's default methods.
    #[derive(Debug)]
    struct AlwaysFast;

    impl PlacementPolicy for AlwaysFast {
        fn name(&self) -> &str {
            "always-fast"
        }

        fn place(&mut self, _req: &IoRequest, _manager: &StorageManager) -> DeviceId {
            DeviceId(0)
        }
    }

    #[test]
    fn trait_defaults_are_callable() {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![4, u64::MAX]);
        let mut mgr = StorageManager::new(&cfg);
        let mut p = AlwaysFast;
        let trace = Trace::from_requests("t", vec![IoRequest::new(0, 0, 1, IoOp::Write)]);
        let req = trace.requests()[0];
        let target = p.place(&req, &mgr);
        assert_eq!(target, DeviceId(0));
        let out = mgr.access(&req, target);
        p.feedback(&out);
        assert_eq!(p.name(), "always-fast");
    }
}
