//! The Slow-Only and Fast-Only extreme baselines (§3, §7).

use sibyl_hss::{DeviceId, PlacementPolicy, StorageManager};
use sibyl_trace::IoRequest;

/// Places every request on the slowest device — the "no fast storage"
/// lower bound.
///
/// # Examples
///
/// ```
/// use sibyl_policies::SlowOnly;
/// use sibyl_hss::PlacementPolicy;
/// let p = SlowOnly;
/// assert_eq!(p.name(), "Slow-Only");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SlowOnly;

impl PlacementPolicy for SlowOnly {
    fn name(&self) -> &str {
        "Slow-Only"
    }

    fn place(&mut self, _req: &IoRequest, manager: &StorageManager) -> DeviceId {
        manager.slowest()
    }
}

/// Places every request on the fastest device — the upper bound every
/// figure normalizes against. Run it with unlimited fast capacity
/// (`HssConfig::with_unlimited_capacities`), as the paper's Fast-Only has
/// the whole working set resident in fast storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastOnly;

impl PlacementPolicy for FastOnly {
    fn name(&self) -> &str {
        "Fast-Only"
    }

    fn place(&mut self, _req: &IoRequest, manager: &StorageManager) -> DeviceId {
        manager.fastest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::manager;
    use sibyl_trace::IoOp;

    #[test]
    fn slow_only_targets_last_device() {
        let mgr = manager(16);
        let mut p = SlowOnly;
        let req = IoRequest::new(0, 0, 1, IoOp::Write);
        assert_eq!(p.place(&req, &mgr), DeviceId(1));
    }

    #[test]
    fn fast_only_targets_first_device() {
        let mgr = manager(16);
        let mut p = FastOnly;
        let req = IoRequest::new(0, 0, 1, IoOp::Read);
        assert_eq!(p.place(&req, &mgr), DeviceId(0));
    }
}
