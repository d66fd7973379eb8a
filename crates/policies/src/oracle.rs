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
//! stays* fast: eviction is the farthest-next-use selector
//! ([`sibyl_hss::OracleVictim`]). The paper uses the Oracle as the ceiling
//! every policy is measured against (Sibyl reaches ~80 % of it, §8.1).

use sibyl_hss::{
    DeviceId, NextUseIndex, OracleVictim, PlacementContext, PlacementPolicy, VictimPolicy,
};
use sibyl_trace::{IoRequest, Trace};

/// The future-knowledge Oracle baseline: writes land fast, reads stay
/// where they are, Belady picks the victim.
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

    fn victim_policy(
        &self,
        num_devices: usize,
        trace: &Trace,
    ) -> Option<Box<dyn VictimPolicy + Send>> {
        Some(Box::new(OracleVictim::new(
            num_devices,
            NextUseIndex::build(trace),
        )))
    }

    fn place(&mut self, req: &IoRequest, ctx: &PlacementContext<'_>) -> DeviceId {
        if req.op.is_write() {
            return ctx.manager.fastest();
        }
        (ctx.manager.residency(req.lpn)).unwrap_or_else(|| ctx.manager.slowest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::{DeviceSpec, HssConfig, StorageManager};
    use sibyl_trace::IoOp;

    fn manager(fast_pages: u64) -> StorageManager {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![fast_pages, u64::MAX]);
        StorageManager::new(&cfg)
    }

    /// Places `req` with the Oracle at sequence `seq` and serves it.
    fn serve(mgr: &mut StorageManager, req: IoRequest, seq: u64) -> (DeviceId, u64) {
        let target = Oracle.place(&req, &PlacementContext { manager: mgr, seq });
        (target, mgr.access(&req, target).migrated_pages)
    }

    #[test]
    fn a_write_never_used_again_still_goes_fast() {
        // Page 9 is written once and never touched again.
        let mut mgr = manager(10);
        let (target, _) = serve(&mut mgr, IoRequest::new(0, 9, 1, IoOp::Write), 0);
        assert_eq!(target, DeviceId(0));
        assert_eq!(mgr.residency(9), Some(DeviceId(0)));
    }

    #[test]
    fn a_read_stays_on_the_device_holding_its_first_page() {
        let mut mgr = manager(10);
        let _ = serve(&mut mgr, IoRequest::new(0, 5, 1, IoOp::Write), 0);
        // Fast-resident: read in place on the fast device.
        assert_eq!(
            serve(&mut mgr, IoRequest::new(1, 5, 1, IoOp::Read), 1),
            (DeviceId(0), 0)
        );
        // Unknown: read in place on the slowest device, no promotion.
        assert_eq!(
            serve(&mut mgr, IoRequest::new(2, 7, 1, IoOp::Read), 2),
            (DeviceId(1), 0)
        );
        assert_eq!(mgr.residency(5), Some(DeviceId(0)));
        assert_eq!(mgr.residency(7), Some(DeviceId(1)));
    }

    #[test]
    fn provides_a_belady_victim_policy() {
        let t = Trace::from_requests(
            "o",
            (0..3)
                .map(|i| IoRequest::new(i, [1, 2, 1][i as usize], 1, IoOp::Read))
                .collect(),
        );
        assert!(Oracle.victim_policy(2, &t).is_some());
    }
}
