//! The Oracle baseline (§7, after Meswani et al. [113]): "exploits
//! complete knowledge of future I/O-access patterns to perform data
//! placement and to select victim data blocks for eviction from the fast
//! device."
//!
//! In this storage model future knowledge pays only in the second half of
//! that sentence. The fast device is write-back and an eviction costs one
//! bulk read plus one sequential append behind the request, so a write is
//! served fast even when it displaces a page; a read that moves data pays
//! a slow read, a background write and possibly an eviction for hits it
//! may never get. So placement needs no future: a write targets the
//! fastest device, and a read targets the device that already holds its
//! first page (the slowest for a page never seen), so it moves no data
//! unless its pages straddle devices. What the future decides is *what
//! stays* fast: eviction is the farthest-next-use rule
//! ([`sibyl_hss::Victim::belady`]), which the experiment runner installs
//! for this policy. The paper uses the Oracle as the ceiling every policy
//! is measured against (Sibyl reaches ~80 % of it, §8.1).

use sibyl_hss::{DeviceId, PlacementPolicy, StorageManager};
use sibyl_trace::IoRequest;

/// The future-knowledge Oracle baseline's placement rule: writes land
/// fast, reads stay where they are (Belady, which picks the victim, is
/// the manager's).
///
/// # Examples
///
/// ```
/// use sibyl_policies::Oracle;
/// use sibyl_hss::PlacementPolicy;
/// assert_eq!(Oracle.name(), "Oracle");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Oracle;

impl PlacementPolicy for Oracle {
    fn name(&self) -> &str {
        "Oracle"
    }

    fn place(&mut self, req: &IoRequest, manager: &StorageManager) -> DeviceId {
        if req.op.is_write() {
            return manager.fastest();
        }
        (manager.residency(req.lpn)).unwrap_or_else(|| manager.slowest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::manager;
    use sibyl_trace::IoOp;

    /// Places `req` with the Oracle and serves it.
    fn serve(mgr: &mut StorageManager, req: IoRequest) -> (DeviceId, u64) {
        let target = Oracle.place(&req, mgr);
        (target, mgr.access(&req, target).migrated_pages)
    }

    #[test]
    fn a_write_never_used_again_still_goes_fast() {
        // Page 9 is written once and never touched again.
        let mut mgr = manager(10);
        let (target, _) = serve(&mut mgr, IoRequest::new(0, 9, 1, IoOp::Write));
        assert_eq!(target, DeviceId(0));
        assert_eq!(mgr.residency(9), Some(DeviceId(0)));
    }

    #[test]
    fn a_read_stays_on_the_device_holding_its_first_page() {
        let mut mgr = manager(10);
        let _ = serve(&mut mgr, IoRequest::new(0, 5, 1, IoOp::Write));
        // Fast-resident: read in place on the fast device.
        assert_eq!(
            serve(&mut mgr, IoRequest::new(1, 5, 1, IoOp::Read)),
            (DeviceId(0), 0)
        );
        // Unknown: read in place on the slowest device, no promotion.
        assert_eq!(
            serve(&mut mgr, IoRequest::new(2, 7, 1, IoOp::Read)),
            (DeviceId(1), 0)
        );
        assert_eq!(mgr.residency(5), Some(DeviceId(0)));
        assert_eq!(mgr.residency(7), Some(DeviceId(1)));
    }
}
