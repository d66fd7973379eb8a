//! The tri-hybrid heuristic baseline (§8.7), after Matsui et al. [76]:
//! "divides pages into hot, cold, and frozen data and allocates these
//! pages to H, M, and L devices, respectively. A system architect needs to
//! statically define the hotness values and explicitly handle the eviction
//! and promotion between the three devices during design-time."
//!
//! The static thresholds below are exactly the kind of design-time
//! commitment the paper criticizes: they cannot react to device or
//! workload changes, which is why Sibyl beats this policy by 23.9–48.2 %.

use sibyl_hss::{DeviceId, PlacementPolicy, StorageManager};
use sibyl_trace::IoRequest;

/// The hot/cold/frozen three-device heuristic.
///
/// # Examples
///
/// ```
/// use sibyl_policies::TriHybridHeuristic;
/// use sibyl_hss::PlacementPolicy;
/// assert_eq!(TriHybridHeuristic.name(), "Heuristic-Tri-Hybrid");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct TriHybridHeuristic;

impl TriHybridHeuristic {
    /// Access count at or above which a page is *hot* → H (device 0).
    pub const HOT_ACCESS_COUNT: u64 = 8;
    /// Access count at or above which a page is *cold* (but not frozen)
    /// → M (device 1). Below this the page is *frozen* → L.
    pub const COLD_ACCESS_COUNT: u64 = 2;
    /// Writes of at most this many pages count as random and are bumped
    /// one tier up (CDE lineage: the policy is "based on the CDE policy").
    pub const RANDOM_MAX_PAGES: u32 = 2;
}

impl PlacementPolicy for TriHybridHeuristic {
    fn name(&self) -> &str {
        "Heuristic-Tri-Hybrid"
    }

    fn place(&mut self, req: &IoRequest, mgr: &StorageManager) -> DeviceId {
        let n = mgr.num_devices();
        let count = mgr.tracker().access_count(req.lpn);
        // Tier by hotness: 0 = hot, 1 = cold, 2 = frozen.
        let mut tier = if count >= Self::HOT_ACCESS_COUNT {
            0usize
        } else if count >= Self::COLD_ACCESS_COUNT {
            1
        } else {
            2
        };
        // Random writes are bumped one tier up (CDE heritage).
        if req.op.is_write() && req.size_pages <= Self::RANDOM_MAX_PAGES && tier > 0 {
            tier -= 1;
        }
        DeviceId(tier.min(n - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::{DeviceSpec, HssConfig};
    use sibyl_trace::IoOp;

    fn tri_manager() -> StorageManager {
        let cfg = HssConfig::tri(
            DeviceSpec::optane_ssd(),
            DeviceSpec::tlc_ssd(),
            DeviceSpec::hdd(),
        )
        .with_capacity_pages(vec![64, 128, u64::MAX]);
        StorageManager::new(&cfg)
    }

    #[test]
    fn frozen_pages_go_to_l() {
        let mgr = tri_manager();
        let mut p = TriHybridHeuristic;
        let req = IoRequest::new(0, 500, 8, IoOp::Read);
        assert_eq!(p.place(&req, &mgr), DeviceId(2));
    }

    #[test]
    fn warm_pages_go_to_m_hot_pages_to_h() {
        let mut mgr = tri_manager();
        let mut p = TriHybridHeuristic;
        // 3 accesses -> cold tier (M).
        for i in 0..3u64 {
            let _ = mgr.access(&IoRequest::new(i, 9, 1, IoOp::Read), DeviceId(2));
        }
        let req = IoRequest::new(10, 9, 8, IoOp::Read);
        assert_eq!(p.place(&req, &mgr), DeviceId(1));
        // 8+ accesses -> hot tier (H).
        for i in 3..9u64 {
            let _ = mgr.access(&IoRequest::new(i, 9, 1, IoOp::Read), DeviceId(2));
        }
        let req = IoRequest::new(20, 9, 8, IoOp::Read);
        assert_eq!(p.place(&req, &mgr), DeviceId(0));
    }

    #[test]
    fn random_write_bumps_one_tier() {
        let mgr = tri_manager();
        let mut p = TriHybridHeuristic;
        // Frozen page, but a small random write -> M instead of L.
        let req = IoRequest::new(0, 77, 1, IoOp::Write);
        assert_eq!(p.place(&req, &mgr), DeviceId(1));
        // Large write stays frozen.
        let req = IoRequest::new(1, 88, 16, IoOp::Write);
        assert_eq!(p.place(&req, &mgr), DeviceId(2));
    }

    #[test]
    fn degrades_gracefully_on_dual_hss() {
        // On a 2-device system the frozen tier clamps to the slow device.
        let mgr = crate::tests::manager(64);
        let mut p = TriHybridHeuristic;
        let req = IoRequest::new(0, 500, 8, IoOp::Read);
        assert_eq!(p.place(&req, &mgr), DeviceId(1));
    }
}
