//! The data-placement policy interface and the loop that drives it.
//!
//! Everything that decides "which device should this request's pages live
//! on" — the heuristics (CDE, HPS), the supervised baselines (Archivist,
//! RNN-HSS), the extremes (Slow-Only, Fast-Only, Oracle), and Sibyl itself
//! — implements [`PlacementPolicy`], and [`replay`] runs a request stream
//! through it: per request a decision ([`PlacementPolicy::place`]), its
//! execution ([`StorageManager::access`]) and the system's feedback
//! ([`PlacementPolicy::feedback`]), in that order, once each. Every
//! sequential run — `Experiment::run`, the examples, the tests — goes
//! through it, so that is the only pairing of `place` and `feedback` a
//! policy has to honour.
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

/// Replays `requests` through `policy` against `manager`: for each
/// request, `policy.place` decides the target, `manager.access` serves
/// it there, `policy.feedback` receives the outcome, and `observe` sees
/// the request and its outcome — in that order, once each.
pub fn replay<P: PlacementPolicy + ?Sized>(
    policy: &mut P,
    manager: &mut StorageManager,
    requests: impl IntoIterator<Item = IoRequest>,
    mut observe: impl FnMut(&IoRequest, &AccessOutcome),
) {
    for req in requests {
        let target = policy.place(&req, manager);
        let outcome = manager.access(&req, target);
        policy.feedback(&outcome);
        observe(&req, &outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HssConfig;
    use crate::device::DeviceSpec;
    use sibyl_trace::IoOp;
    use std::cell::RefCell;

    fn manager() -> StorageManager {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![4, u64::MAX]);
        StorageManager::new(&cfg)
    }

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
        let mut targets = Vec::new();
        let req = IoRequest::new(0, 0, 1, IoOp::Write);
        replay(&mut AlwaysFast, &mut manager(), [req], |_, out| {
            targets.push(out.target)
        });
        assert_eq!(targets, [DeviceId(0)]);
        assert_eq!(AlwaysFast.name(), "always-fast");
    }

    /// Logs its calls into a log it shares with the observer, and places
    /// the request stamped `t` on device `t % 2`.
    #[derive(Debug)]
    struct Recorder<'a>(&'a RefCell<Vec<String>>);

    impl PlacementPolicy for Recorder<'_> {
        fn name(&self) -> &str {
            "recorder"
        }

        fn place(&mut self, req: &IoRequest, _manager: &StorageManager) -> DeviceId {
            self.0
                .borrow_mut()
                .push(format!("place {}", req.timestamp_us));
            DeviceId(req.timestamp_us as usize % 2)
        }

        fn feedback(&mut self, outcome: &AccessOutcome) {
            self.0.borrow_mut().push(format!("feedback {outcome:?}"));
        }
    }

    #[test]
    fn replay_places_serves_feeds_back_and_observes_in_order() {
        // Empty input makes no call at all.
        for n in [5, 0] {
            let log = RefCell::new(Vec::new());
            let reqs = (0..n).map(|t| IoRequest::new(t, t * 3, 2, IoOp::Write));
            let mut mgr = manager();
            replay(&mut Recorder(&log), &mut mgr, reqs.clone(), |req, out| {
                let t = req.timestamp_us;
                log.borrow_mut().push(format!("observe {t} {out:?}"));
            });
            // The outcomes `access` returns for the same placements.
            let mut direct = manager();
            let want: Vec<String> = reqs
                .flat_map(|req| {
                    let t = req.timestamp_us;
                    let out = direct.access(&req, DeviceId(t as usize % 2));
                    let (feedback, observe) =
                        (format!("feedback {out:?}"), format!("observe {t} {out:?}"));
                    [format!("place {t}"), feedback, observe]
                })
                .collect();
            assert_eq!(log.into_inner(), want, "{n} requests");
            assert_eq!(mgr.stats(), direct.stats());
        }
    }
}
