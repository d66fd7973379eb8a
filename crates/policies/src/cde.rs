//! Cold-Data Eviction (CDE), after Matsui et al. (Proc. IEEE 2017),
//! reimplemented as described in the Sibyl paper's §3: "CDE allocates hot
//! or random write requests in the faster storage, whereas cold and
//! sequential write requests are evicted to the slower device."
//!
//! CDE is write-allocation-centric: reads are served wherever the data
//! lives (no promotion). Its two thresholds — what counts as *hot* and
//! what counts as *random* — are exactly the statically-tuned parameters
//! whose rigidity the paper criticizes (§3 (1b)).

use sibyl_hss::{DeviceId, PlacementPolicy, StorageManager};
use sibyl_trace::IoRequest;

/// The CDE heuristic baseline.
///
/// # Examples
///
/// ```
/// use sibyl_policies::Cde;
/// use sibyl_hss::PlacementPolicy;
/// assert_eq!(Cde.name(), "CDE");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Cde;

impl Cde {
    /// A page with at least this many prior accesses is *hot*.
    pub const HOT_ACCESS_COUNT: u64 = 4;
    /// A write of at most this many pages (≤ 16 KiB) is *random*: the
    /// paper quantifies randomness by request size (§3).
    pub const RANDOM_MAX_PAGES: u32 = 4;
}

impl PlacementPolicy for Cde {
    fn name(&self) -> &str {
        "CDE"
    }

    fn place(&mut self, req: &IoRequest, mgr: &StorageManager) -> DeviceId {
        if req.op.is_write() {
            let hot = mgr.tracker().access_count(req.lpn) >= Self::HOT_ACCESS_COUNT;
            let random = req.size_pages <= Self::RANDOM_MAX_PAGES;
            if hot || random {
                mgr.fastest()
            } else {
                mgr.slowest()
            }
        } else {
            // Reads are served in place; never-seen pages default to slow.
            mgr.residency(req.lpn).unwrap_or_else(|| mgr.slowest())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::manager;
    use sibyl_trace::IoOp;

    #[test]
    fn small_random_write_goes_fast() {
        let mgr = manager(1024);
        let mut p = Cde;
        let req = IoRequest::new(0, 100, 1, IoOp::Write);
        assert_eq!(p.place(&req, &mgr), DeviceId(0));
    }

    #[test]
    fn large_cold_write_goes_slow() {
        let mgr = manager(1024);
        let mut p = Cde;
        let req = IoRequest::new(0, 100, 32, IoOp::Write);
        assert_eq!(p.place(&req, &mgr), DeviceId(1));
    }

    #[test]
    fn hot_large_write_goes_fast() {
        let mut mgr = manager(1024);
        let mut p = Cde;
        // Touch page 100 enough times to cross the hot threshold.
        for i in 0..Cde::HOT_ACCESS_COUNT {
            let _ = mgr.access(&IoRequest::new(i, 100, 1, IoOp::Read), DeviceId(1));
        }
        let req = IoRequest::new(10, 100, 32, IoOp::Write);
        assert_eq!(p.place(&req, &mgr), DeviceId(0));
    }

    #[test]
    fn reads_are_served_in_place() {
        let mut mgr = manager(1024);
        let mut p = Cde;
        let _ = mgr.access(&IoRequest::new(0, 7, 1, IoOp::Write), DeviceId(0));
        let read = IoRequest::new(1, 7, 1, IoOp::Read);
        assert_eq!(p.place(&read, &mgr), DeviceId(0));
        let unknown = IoRequest::new(2, 999, 1, IoOp::Read);
        assert_eq!(p.place(&unknown, &mgr), DeviceId(1));
    }

    #[test]
    fn thresholds_are_inclusive() {
        let mut mgr = manager(1024);
        let mut p = Cde;
        let size = Cde::RANDOM_MAX_PAGES;
        assert_eq!(
            p.place(&IoRequest::new(0, 5, size, IoOp::Write), &mgr),
            DeviceId(0)
        );
        assert_eq!(
            p.place(&IoRequest::new(0, 5, size + 1, IoOp::Write), &mgr),
            DeviceId(1)
        );
        // One access short of hot: a large write still goes slow.
        for i in 1..Cde::HOT_ACCESS_COUNT {
            let _ = mgr.access(&IoRequest::new(i, 100, 1, IoOp::Read), DeviceId(1));
        }
        let req = IoRequest::new(10, 100, 32, IoOp::Write);
        assert_eq!(p.place(&req, &mgr), DeviceId(1));
    }
}
