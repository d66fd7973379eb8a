//! The data-placement policy interface.
//!
//! Everything that decides "which device should this request's pages live
//! on" — the heuristics (CDE, HPS), the supervised baselines (Archivist,
//! RNN-HSS), the extremes (Slow-Only, Fast-Only, Oracle), and Sibyl itself
//! — implements [`PlacementPolicy`]. The driver loop is:
//!
//! ```text
//! for each request:
//!     target  = policy.place(request, context)      // decision
//!     outcome = manager.access(request, target)     // execution
//!     policy.feedback(request, outcome)             // system feedback
//! ```
//!
//! The feedback hook carries the served latency and eviction penalty —
//! for Sibyl this is the reward channel (Eq. 1); heuristics ignore it.

use crate::device::DeviceId;
use crate::manager::{AccessOutcome, StorageManager};
use sibyl_trace::{IoRequest, Trace};

/// Read-only view of the system a policy may consult when deciding a
/// placement (residency, capacities, access metadata — the inputs behind
/// the paper's Table 1 state features).
#[derive(Debug)]
pub struct PlacementContext<'a> {
    /// The storage manager's observable state.
    pub manager: &'a StorageManager,
    /// Zero-based request sequence number within the run.
    pub seq: u64,
}

/// A data-placement policy.
pub trait PlacementPolicy: std::fmt::Debug {
    /// A short display name (used in result tables).
    fn name(&self) -> &str;

    /// Chooses the device for this request's pages.
    fn place(&mut self, req: &IoRequest, ctx: &PlacementContext<'_>) -> DeviceId;

    /// Receives the outcome of the placement (served latency `L_t`,
    /// eviction time `L_e`, migration counts). Called exactly once per
    /// request, after [`PlacementPolicy::place`]. Default: ignore.
    fn feedback(&mut self, req: &IoRequest, outcome: &AccessOutcome, ctx: &PlacementContext<'_>) {
        let _ = (req, outcome, ctx);
    }

    /// The policy's one offline hook: called once before the run with the
    /// number of devices and the full trace, it returns an eviction-victim
    /// policy to install into the storage manager, or `None` to keep the
    /// default LRU. The Oracle baseline returns its Belady selector here.
    fn victim_policy(
        &self,
        num_devices: usize,
        trace: &Trace,
    ) -> Option<Box<dyn crate::VictimPolicy + Send>> {
        let _ = (num_devices, trace);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HssConfig;
    use crate::device::DeviceSpec;
    use sibyl_trace::IoOp;

    /// A minimal policy for exercising the trait's default methods.
    #[derive(Debug)]
    struct AlwaysFast;

    impl PlacementPolicy for AlwaysFast {
        fn name(&self) -> &str {
            "always-fast"
        }

        fn place(&mut self, _req: &IoRequest, _ctx: &PlacementContext<'_>) -> DeviceId {
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
        assert!(p.victim_policy(2, &trace).is_none());
        let req = trace.requests()[0];
        let target = {
            let ctx = PlacementContext {
                manager: &mgr,
                seq: 0,
            };
            p.place(&req, &ctx)
        };
        assert_eq!(target, DeviceId(0));
        let out = mgr.access(&req, target);
        let ctx = PlacementContext {
            manager: &mgr,
            seq: 0,
        };
        p.feedback(&req, &out, &ctx);
        assert_eq!(p.name(), "always-fast");
    }
}
