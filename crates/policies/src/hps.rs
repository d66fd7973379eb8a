//! History-based Page Selection (HPS), after Meswani et al. (HPCA 2015),
//! as described in the Sibyl paper's §3: "HPS uses the access count of
//! pages to periodically migrate cold pages to the slower storage
//! device."
//!
//! HPS divides time into fixed epochs. Pages whose access count in the
//! previous epoch reached a threshold form the *hot set*; requests to
//! hot-set pages are placed in fast storage and everything else is kept
//! in (or demoted to) slow storage. The epoch length and hot threshold
//! are design-time constants — the adaptivity gap the paper targets.

use std::collections::{HashMap, HashSet};

use sibyl_hss::{DeviceId, PlacementPolicy, StorageManager};
use sibyl_trace::IoRequest;

/// The HPS heuristic baseline.
///
/// # Examples
///
/// ```
/// use sibyl_policies::Hps;
/// use sibyl_hss::PlacementPolicy;
/// assert_eq!(Hps::default().name(), "HPS");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Hps {
    /// Access counts accumulated in the current epoch.
    epoch_counts: HashMap<u64, u64>,
    /// Hot set computed at the last epoch boundary.
    hot_set: HashSet<u64>,
    requests_in_epoch: u64,
}

impl Hps {
    /// Requests per epoch.
    pub const EPOCH_REQUESTS: u64 = 2_000;
    /// Accesses within one epoch for a page to join the next epoch's hot
    /// set.
    pub const HOT_THRESHOLD: u64 = 2;

    fn roll_epoch(&mut self) {
        self.hot_set = self
            // sibyl-lint: allow(unordered-map-iteration) -- drains into a HashSet: membership is order-insensitive, no ordered output is produced
            .epoch_counts
            .drain()
            .filter(|&(_, c)| c >= Self::HOT_THRESHOLD)
            .map(|(p, _)| p)
            .collect();
        self.requests_in_epoch = 0;
    }
}

impl PlacementPolicy for Hps {
    fn name(&self) -> &str {
        "HPS"
    }

    fn place(&mut self, req: &IoRequest, manager: &StorageManager) -> DeviceId {
        if self.requests_in_epoch >= Self::EPOCH_REQUESTS {
            self.roll_epoch();
        }
        self.requests_in_epoch += 1;
        for p in req.pages() {
            *self.epoch_counts.entry(p).or_insert(0) += 1;
        }
        if self.hot_set.contains(&req.lpn) {
            manager.fastest()
        } else {
            manager.slowest()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::manager;
    use sibyl_trace::IoOp;

    /// Places one single-page read of `lpn` at time `ts`.
    fn place(p: &mut Hps, mgr: &StorageManager, ts: u64, lpn: u64) -> DeviceId {
        p.place(&IoRequest::new(ts, lpn, 1, IoOp::Read), mgr)
    }

    #[test]
    fn first_epoch_places_everything_slow() {
        let mgr = manager(1024);
        let mut p = Hps::default();
        for i in 0..Hps::EPOCH_REQUESTS {
            assert_eq!(place(&mut p, &mgr, i, 5), DeviceId(1));
        }
    }

    #[test]
    fn hot_pages_promote_after_epoch_boundary() {
        let mgr = manager(1024);
        let mut p = Hps::default();
        // Epoch 1: page 7 reaches the threshold, every other page is
        // touched once.
        for i in 0..Hps::EPOCH_REQUESTS {
            let lpn = if i < Hps::HOT_THRESHOLD { 7 } else { 100 + i };
            let _ = place(&mut p, &mgr, i, lpn);
        }
        // Epoch 2: page 7 is hot, page 101 is not.
        let ts = Hps::EPOCH_REQUESTS;
        assert_eq!(place(&mut p, &mgr, ts, 7), DeviceId(0));
        assert_eq!(
            place(&mut p, &mgr, ts + 1, 100 + Hps::EPOCH_REQUESTS - 1),
            DeviceId(1)
        );
        assert_eq!(p.hot_set.len(), 1);
    }

    #[test]
    fn hot_set_expires_when_page_cools() {
        let mgr = manager(1024);
        let mut p = Hps::default();
        let epoch = Hps::EPOCH_REQUESTS;
        // Epoch 1: page 7 hot.
        for i in 0..epoch {
            let _ = place(&mut p, &mgr, i, 7);
        }
        // Epoch 2: page 7 untouched; other pages dominate.
        for i in epoch..2 * epoch {
            let _ = place(&mut p, &mgr, i, 100 + i);
        }
        // Epoch 3: page 7 no longer hot.
        assert_eq!(place(&mut p, &mgr, 2 * epoch, 7), DeviceId(1));
    }
}
