//! Eviction-victim selection.
//!
//! When a placement overflows a device's capacity the manager must pick
//! pages to demote. The default is LRU (what the paper's storage
//! management layer does); the Oracle baseline runs Belady's
//! farthest-future-use rule over the whole trace ([`Victim::belady`]).

use std::collections::BinaryHeap;

use crate::device::DeviceId;
use crate::directory::PageDirectory;
use sibyl_trace::Trace;

/// How the storage manager picks the pages a full device evicts.
#[derive(Debug, Default)]
pub enum Victim {
    /// The least recently used page first (the default).
    #[default]
    Lru,
    /// The page used farthest in the future first (§7: the Oracle
    /// "exploits complete knowledge of future I/O-access patterns ... to
    /// select victim data blocks for eviction from the fast device").
    /// Built by [`Victim::belady`].
    Belady(Belady),
}

impl Victim {
    /// Belady selection for `n_devices` devices over the future of
    /// `trace`, the trace the run replays.
    pub fn belady(n_devices: usize, trace: &Trace) -> Self {
        Victim::Belady(Belady {
            future: NextUseIndex::build(trace),
            heaps: (1..n_devices).map(|_| BinaryHeap::new()).collect(),
        })
    }

    /// Notes that `lpn` resides on `device` as of the manager's 1-based
    /// request clock `seq` — placed there, or hit where it already lives.
    /// Nothing to note for LRU, whose order the directory keeps.
    pub(crate) fn on_place(&mut self, lpn: u64, device: DeviceId, seq: u64) {
        if let Victim::Belady(belady) = self {
            belady.on_place(lpn, device, seq);
        }
    }
}

/// Precomputed future-knowledge index: for every page, the ordered list of
/// request sequence numbers that touch it — kept as one sorted
/// `(page, request)` array, so a lookup is a binary search and nothing
/// about it depends on a hasher.
#[derive(Debug, Default)]
pub(crate) struct NextUseIndex {
    accesses: Vec<(u64, u64)>,
}

impl NextUseIndex {
    /// Builds the index from a trace. Request `i` (0-based) touching pages
    /// `p..p+size` records sequence `i` for each page.
    fn build(trace: &Trace) -> Self {
        let mut accesses: Vec<(u64, u64)> = trace
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.pages().map(move |p| (p, i as u64)))
            .collect();
        accesses.sort_unstable();
        NextUseIndex { accesses }
    }

    /// The sequence number of the first access to `lpn` strictly after
    /// `seq`, or `u64::MAX` if the page is never touched again.
    fn next_use_after(&self, lpn: u64, seq: u64) -> u64 {
        let idx = self
            .accesses
            .partition_point(|&access| access <= (lpn, seq));
        match self.accesses.get(idx) {
            Some(&(page, next)) if page == lpn => next,
            _ => u64::MAX,
        }
    }
}

/// The state of [`Victim::Belady`]: the trace's future and a lazy
/// max-heap per capacity-limited device keyed by each resident page's
/// next use. A page is re-keyed whenever a request places or hits it, so
/// an entry keyed at or before the current request has been superseded
/// and is skipped during selection, as are entries of pages that have
/// left the device (re-validated against the [`PageDirectory`]). The
/// slowest device never evicts, so it has no heap and placements onto it
/// are not recorded.
#[derive(Debug)]
pub struct Belady {
    future: NextUseIndex,
    /// Lazy max-heaps of devices `0..n_devices - 1`: (next_use_seq, lpn).
    heaps: Vec<BinaryHeap<(u64, u64)>>,
}

impl Belady {
    /// `seq` is the manager's 1-based request counter; the placement or
    /// hit happens *during* trace request `seq - 1`, so the relevant
    /// future starts strictly after that index.
    fn on_place(&mut self, lpn: u64, device: DeviceId, seq: u64) {
        if let Some(heap) = self.heaps.get_mut(device.0) {
            heap.push((self.future.next_use_after(lpn, seq.saturating_sub(1)), lpn));
        }
    }

    /// The arena index of the resident page of device `d` used farthest
    /// in the future, as of request clock `seq`, or `None` when no entry
    /// is still valid.
    pub(crate) fn select(&mut self, d: usize, dir: &PageDirectory, seq: u64) -> Option<u32> {
        let heap = self.heaps.get_mut(d)?;
        while let Some((next, lpn)) = heap.pop() {
            if next < seq {
                // Keyed at or before trace request `seq - 1`: the page was
                // touched since and re-keyed.
                continue;
            }
            match dir.probe(lpn) {
                Ok(i) if dir.device_of(i) == d => return Some(i),
                _ => {}
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

    fn belady(n_devices: usize, trace: &Trace) -> Belady {
        match Victim::belady(n_devices, trace) {
            Victim::Belady(b) => b,
            Victim::Lru => unreachable!(),
        }
    }

    /// The LPN of the victim `b` picks on device `d`.
    fn select_lpn(b: &mut Belady, d: usize, mgr: &StorageManager) -> Option<u64> {
        let dir = mgr.directory();
        b.select(d, dir, mgr.seq).map(|i| dir.lpn_of(i))
    }

    #[test]
    fn lru_evicts_the_least_recent_page() {
        let mut mgr = manager_with_fast_capacity(3);
        let fast = DeviceId(0);
        for (i, lpn) in [10u64, 20, 30].iter().enumerate() {
            let _ = mgr.access(&IoRequest::new(i as u64, *lpn, 1, IoOp::Write), fast);
        }
        // Touch page 10 again so 20 becomes LRU; a fourth page evicts it.
        let _ = mgr.access(&IoRequest::new(10, 10, 1, IoOp::Read), fast);
        let _ = mgr.access(&IoRequest::new(11, 40, 1, IoOp::Write), fast);
        assert_eq!(mgr.residency(20), Some(DeviceId(1)));
        assert_eq!(mgr.residency(10), Some(fast));
    }

    #[test]
    fn next_use_index_reports_future_accesses() {
        let idx = NextUseIndex::build(&trace_of(&[(0, 5), (1, 9), (2, 5), (3, 9), (4, 5)]));
        assert_eq!(idx.next_use_after(5, 0), 2);
        assert_eq!(idx.next_use_after(5, 2), 4);
        assert_eq!(idx.next_use_after(5, 4), u64::MAX);
        assert_eq!(idx.next_use_after(9, 1), 3);
        assert_eq!(idx.next_use_after(12345, 0), u64::MAX);
    }

    #[test]
    fn oracle_selects_farthest_future_use() {
        // Pages 1, 2, 3 placed at seqs 0, 1, 2; next uses at 10, 500, 100.
        let trace = trace_of(&[(0, 1), (1, 2), (2, 3), (10, 1), (100, 3), (500, 2)]);
        let mut oracle = belady(2, &trace);
        let mut mgr = manager_with_fast_capacity(100);
        let fast = DeviceId(0);
        for (seq, r) in trace.iter().take(3).enumerate() {
            let req = IoRequest::new(seq as u64, r.lpn, 1, IoOp::Write);
            let _ = mgr.access(&req, fast);
            // on_place takes the manager's 1-based sequence counter.
            oracle.on_place(r.lpn, fast, seq as u64 + 1);
        }
        // Page 2's next use (seq 5) is farthest.
        assert_eq!(select_lpn(&mut oracle, 0, &mgr), Some(2));
    }

    #[test]
    fn belady_rekeys_pages_hit_in_place() {
        // W1 W2 R1 W3 R3 R2 on a two-page fast device, placed by the
        // Oracle's rule (writes fast, reads where the page lives). Page 1
        // is never used after R1, so W3 must evict it; keyed only at its
        // placement (next use R1, long passed) it would keep its slot and
        // page 2 would be evicted instead, sending R2 to the slow device.
        let (w, r) = (IoOp::Write, IoOp::Read);
        let requests: Vec<IoRequest> = [(1, w), (2, w), (1, r), (3, w), (3, r), (2, r)]
            .iter()
            .enumerate()
            .map(|(i, &(lpn, op))| IoRequest::new(i as u64 * 1_000, lpn, 1, op))
            .collect();
        let trace = Trace::from_requests("stale", requests.clone());
        let mut mgr = manager_with_fast_capacity(2);
        mgr.set_victim(Victim::belady(2, &trace));
        for req in &requests {
            let target = match req.op {
                IoOp::Write => DeviceId(0),
                IoOp::Read => mgr.residency(req.lpn).unwrap_or(DeviceId(1)),
            };
            let _ = mgr.access(req, target);
        }
        assert_eq!(mgr.residency(1), Some(DeviceId(1)), "page 1 is the victim");
        assert_eq!(mgr.stats().placements, vec![6, 0]);
    }

    #[test]
    fn oracle_skips_stale_entries() {
        let trace = trace_of(&[(0, 7), (1, 7)]);
        let mut oracle = belady(2, &trace);
        let mut mgr = manager_with_fast_capacity(100);
        let fast = DeviceId(0);
        let slow = DeviceId(1);
        let _ = mgr.access(&IoRequest::new(0, 7, 1, IoOp::Write), fast);
        oracle.on_place(7, fast, 1);
        // The page then moves to slow storage; the heap entry is stale.
        let _ = mgr.access(&IoRequest::new(1, 7, 1, IoOp::Write), slow);
        assert_eq!(select_lpn(&mut oracle, 0, &mgr), None);
    }

    #[test]
    fn oracle_keeps_no_heap_for_the_slowest_device() {
        let trace = trace_of(&[(0, 7), (1, 7)]);
        let mut oracle = belady(2, &trace);
        let mut mgr = manager_with_fast_capacity(100);
        let slow = DeviceId(1);
        let _ = mgr.access(&IoRequest::new(0, 7, 1, IoOp::Read), slow);
        oracle.on_place(7, slow, 1);
        assert_eq!(oracle.heaps.len(), 1, "one heap per evicting device");
        assert_eq!(select_lpn(&mut oracle, 1, &mgr), None);
    }

    #[test]
    fn oracle_empty_returns_none() {
        let mut oracle = belady(2, &Trace::from_requests("e", vec![]));
        let mgr = manager_with_fast_capacity(10);
        assert_eq!(select_lpn(&mut oracle, 0, &mgr), None);
    }
}
