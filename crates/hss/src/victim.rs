//! Eviction-victim selection.
//!
//! When a placement overflows a device's capacity the manager must pick
//! pages to demote. The default is LRU (what the paper's storage
//! management layer does); the Oracle baseline plugs in a Belady
//! farthest-future-use selector through the [`VictimPolicy`] trait.

use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::device::DeviceId;
use crate::directory::PageDirectory;
use sibyl_trace::Trace;

/// Chooses eviction victims for the storage manager.
///
/// Implementations may keep their own bookkeeping, fed by
/// [`VictimPolicy::on_place`] notifications for every page placement.
pub trait VictimPolicy: std::fmt::Debug {
    /// Notifies the policy that `lpn` now resides on `device` as of
    /// request sequence number `seq`.
    fn on_place(&mut self, lpn: u64, device: DeviceId, seq: u64) {
        let _ = (lpn, device, seq);
    }

    /// Picks one page to evict from `device`, or `None` to fall back to
    /// LRU order.
    fn select_victim(&mut self, device: DeviceId, dir: &PageDirectory) -> Option<u64>;
}

/// Least-recently-used victim selection (the default).
#[derive(Debug, Clone, Default)]
pub struct LruVictim;

impl VictimPolicy for LruVictim {
    fn select_victim(&mut self, device: DeviceId, dir: &PageDirectory) -> Option<u64> {
        dir.lru_first(device)
    }
}

/// Precomputed future-knowledge index: for every page, the ordered list of
/// request sequence numbers that touch it — kept as one sorted
/// `(page, request)` array, so a lookup is a binary search and nothing
/// about it depends on a hasher.
///
/// Built once from the full trace; shared (immutably) between the Oracle
/// placement policy and [`OracleVictim`].
#[derive(Debug, Default)]
pub struct NextUseIndex {
    accesses: Vec<(u64, u64)>,
    pages: usize,
}

impl NextUseIndex {
    /// Builds the index from a trace. Request `i` (0-based) touching pages
    /// `p..p+size` records sequence `i` for each page.
    pub fn build(trace: &Trace) -> Self {
        let mut accesses: Vec<(u64, u64)> = trace
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.pages().map(move |p| (p, i as u64)))
            .collect();
        accesses.sort_unstable();
        let pages = accesses.chunk_by(|a, b| a.0 == b.0).count();
        NextUseIndex { accesses, pages }
    }

    /// The sequence number of the first access to `lpn` strictly after
    /// `seq`, or `u64::MAX` if the page is never touched again.
    pub fn next_use_after(&self, lpn: u64, seq: u64) -> u64 {
        let idx = self
            .accesses
            .partition_point(|&access| access <= (lpn, seq));
        match self.accesses.get(idx) {
            Some(&(page, next)) if page == lpn => next,
            _ => u64::MAX,
        }
    }

    /// Number of pages indexed.
    pub fn len(&self) -> usize {
        self.pages
    }

    /// `true` when the index is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }
}

/// Belady/farthest-next-use victim selection for the Oracle baseline
/// (§7: the Oracle "exploits complete knowledge of future I/O-access
/// patterns ... to select victim data blocks for eviction from the fast
/// device").
///
/// Maintains a lazy max-heap per device keyed by each resident page's next
/// future use; stale entries (pages that moved or were re-placed) are
/// skipped during selection by re-validating against the [`PageDirectory`]
/// and the index.
#[derive(Debug)]
pub struct OracleVictim {
    future: Arc<NextUseIndex>,
    /// Lazy max-heaps per device: (next_use_seq, lpn).
    heaps: Vec<BinaryHeap<(u64, u64)>>,
}

impl OracleVictim {
    /// Creates a selector for `n_devices` devices sharing the trace's
    /// future-knowledge index.
    pub fn new(n_devices: usize, future: Arc<NextUseIndex>) -> Self {
        OracleVictim {
            future,
            heaps: (0..n_devices).map(|_| BinaryHeap::new()).collect(),
        }
    }
}

impl VictimPolicy for OracleVictim {
    /// `seq` is the manager's 1-based request counter; the placement
    /// happens *during* trace request `seq - 1`, so the relevant future
    /// starts strictly after that index.
    fn on_place(&mut self, lpn: u64, device: DeviceId, seq: u64) {
        if let Some(heap) = self.heaps.get_mut(device.0) {
            heap.push((self.future.next_use_after(lpn, seq.saturating_sub(1)), lpn));
        }
    }

    fn select_victim(&mut self, device: DeviceId, dir: &PageDirectory) -> Option<u64> {
        let heap = self.heaps.get_mut(device.0)?;
        while let Some((_next, lpn)) = heap.pop() {
            if dir.residency(lpn) == Some(device) {
                return Some(lpn);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HssConfig;
    use crate::device::DeviceSpec;
    use crate::manager::StorageManager;
    use sibyl_trace::{IoOp, IoRequest};

    fn manager_with_fast_capacity(pages: u64) -> StorageManager {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![pages, u64::MAX]);
        StorageManager::new(&cfg)
    }

    fn trace_of(accesses: &[(u64, u64)]) -> Trace {
        // (timestamp=seq, lpn) single-page reads
        Trace::from_requests(
            "v",
            accesses
                .iter()
                .map(|&(ts, lpn)| IoRequest::new(ts, lpn, 1, IoOp::Read))
                .collect(),
        )
    }

    #[test]
    fn lru_selects_oldest_page() {
        let mut mgr = manager_with_fast_capacity(100);
        let fast = DeviceId(0);
        for (i, lpn) in [10u64, 20, 30].iter().enumerate() {
            let req = IoRequest::new(i as u64, *lpn, 1, IoOp::Write);
            let _ = mgr.access(&req, fast);
        }
        // Touch page 10 again so 20 becomes LRU.
        let _ = mgr.access(&IoRequest::new(10, 10, 1, IoOp::Read), fast);
        let mut lru = LruVictim;
        assert_eq!(lru.select_victim(fast, mgr.directory()), Some(20));
    }

    #[test]
    fn next_use_index_reports_future_accesses() {
        let idx = NextUseIndex::build(&trace_of(&[(0, 5), (1, 9), (2, 5), (3, 9), (4, 5)]));
        assert_eq!(idx.next_use_after(5, 0), 2);
        assert_eq!(idx.next_use_after(5, 2), 4);
        assert_eq!(idx.next_use_after(5, 4), u64::MAX);
        assert_eq!(idx.next_use_after(9, 1), 3);
        assert_eq!(idx.next_use_after(12345, 0), u64::MAX);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    fn oracle_selects_farthest_future_use() {
        // Pages 1, 2, 3 placed at seqs 0, 1, 2; next uses at 10, 500, 100.
        let trace = trace_of(&[(0, 1), (1, 2), (2, 3), (10, 1), (100, 3), (500, 2)]);
        let mut full = Vec::new();
        for (i, r) in trace.iter().enumerate() {
            full.push((i as u64, r.lpn));
        }
        let idx = Arc::new(NextUseIndex::build(&trace));
        let mut oracle = OracleVictim::new(2, Arc::clone(&idx));
        let mut mgr = manager_with_fast_capacity(100);
        let fast = DeviceId(0);
        for (seq, (_, lpn)) in full.iter().take(3).enumerate() {
            let req = IoRequest::new(seq as u64, *lpn, 1, IoOp::Write);
            let _ = mgr.access(&req, fast);
            // on_place takes the manager's 1-based sequence counter.
            oracle.on_place(*lpn, fast, seq as u64 + 1);
        }
        // Page 2's next use (seq 5) is farthest.
        assert_eq!(oracle.select_victim(fast, mgr.directory()), Some(2));
    }

    #[test]
    fn oracle_skips_stale_entries() {
        let trace = trace_of(&[(0, 7), (1, 7)]);
        let idx = Arc::new(NextUseIndex::build(&trace));
        let mut oracle = OracleVictim::new(2, idx);
        let mut mgr = manager_with_fast_capacity(100);
        let fast = DeviceId(0);
        let slow = DeviceId(1);
        let _ = mgr.access(&IoRequest::new(0, 7, 1, IoOp::Write), fast);
        oracle.on_place(7, fast, 1);
        // The page then moves to slow storage; the heap entry is stale.
        let _ = mgr.access(&IoRequest::new(1, 7, 1, IoOp::Write), slow);
        assert_eq!(oracle.select_victim(fast, mgr.directory()), None);
    }

    #[test]
    fn oracle_empty_returns_none() {
        let idx = Arc::new(NextUseIndex::default());
        let mut oracle = OracleVictim::new(2, idx);
        let mgr = manager_with_fast_capacity(10);
        assert_eq!(oracle.select_victim(DeviceId(0), mgr.directory()), None);
    }
}
