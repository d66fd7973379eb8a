//! The directory against the layout it replaced: [`ModelDirectory`] is
//! the obviously-correct reference, and the lockstep property drives a
//! real manager and the model through the same steps.

use super::*;
use crate::config::HssConfig;
use crate::device::DeviceSpec;
use crate::manager::tests::{dual_manager, rd};
use crate::manager::StorageManager;
use crate::stats::HssStats;
use proptest::prelude::*;
use sibyl_trace::IoOp;
use std::collections::{BTreeMap, HashMap};

/// Inserts or moves `lpn` onto `device` by LPN, refreshing recency, and
/// returns the previous residency — the directory once had this as a
/// method; the transitions go by arena index, so only tests need it.
fn place(dir: &mut PageDirectory, lpn: u64, device: DeviceId) -> Option<DeviceId> {
    match dir.probe(lpn) {
        Ok(i) => Some(dir.relocate(i, device)),
        Err(slot) => {
            dir.insert(lpn, slot, device);
            None
        }
    }
}

/// The layout the compact arena replaced, kept as a test oracle:
/// `HashMap<lpn, meta>` plus one `BTreeMap<token, lpn>` per device,
/// and the tracker's two `HashMap<lpn, u64>` beside them.
#[derive(Default)]
pub(crate) struct ModelDirectory {
    table: HashMap<u64, (usize, u64, u64, u64)>, // device, token, heat, heat_at_place
    lru: Vec<BTreeMap<u64, u64>>,
    counter: u64,
    counts: HashMap<u64, u64>,
    last_access: HashMap<u64, u64>,
    requests_seen: u64,
    /// What the latest `access` evicted or the latest `migrate` accepted,
    /// as `(from, to, lpn)` in the order it happened — what the timing
    /// reference prices.
    pub(crate) moved: Vec<(usize, usize, u64)>,
}

impl ModelDirectory {
    pub(crate) fn new(n: usize) -> Self {
        ModelDirectory {
            lru: (0..n).map(|_| BTreeMap::new()).collect(),
            ..Default::default()
        }
    }

    pub(crate) fn device(&self, lpn: u64) -> Option<usize> {
        self.table.get(&lpn).map(|m| m.0)
    }

    fn place(&mut self, lpn: u64, dev: usize) {
        self.counter += 1;
        let heat = self.table.get(&lpn).map_or(0, |m| m.2);
        if let Some(old) = self.table.insert(lpn, (dev, self.counter, heat, heat)) {
            self.lru[old.0].remove(&old.1);
        }
        self.lru[dev].insert(self.counter, lpn);
    }

    fn touch(&mut self, lpn: u64) {
        self.counter += 1;
        let token = self.counter;
        let m = self.table.get_mut(&lpn).expect("touch of a tracked page");
        let (dev, old) = (m.0, m.1);
        m.1 = token;
        self.lru[dev].remove(&old);
        self.lru[dev].insert(token, lpn);
    }

    fn bump_heat(&mut self, lpn: u64) {
        self.table.get_mut(&lpn).expect("tracked page").2 += 1;
    }

    /// The storage manager's request path as it was written against
    /// this layout: by-LPN lookups, a `to_move` list, then the
    /// tracker's `record`. Returns `(evicted, migrated)` pages.
    pub(crate) fn access(&mut self, req: &IoRequest, target: usize, caps: &[u64]) -> (u64, u64) {
        let slowest = self.lru.len() - 1;
        let mut migrated = 0;
        match req.op {
            IoOp::Read => {
                for p in req.pages() {
                    if self.device(p).is_none() {
                        self.place(p, slowest);
                    }
                }
                let to_move: Vec<u64> =
                    req.pages().filter(|&p| self.table[&p].0 > target).collect();
                migrated = to_move.len() as u64;
                for &p in &to_move {
                    self.place(p, target);
                }
                for p in req.pages().filter(|p| !to_move.contains(p)) {
                    self.touch(p);
                }
            }
            IoOp::Write => {
                for p in req.pages() {
                    match self.device(p) {
                        Some(d) if d == target => self.touch(p),
                        known => {
                            migrated += u64::from(known.is_some());
                            self.place(p, target);
                        }
                    }
                }
            }
        }
        let mut evicted = 0;
        self.moved.clear();
        for (d, &cap) in caps.iter().enumerate().take(slowest) {
            while self.lru[d].len() as u64 > cap {
                let victim = *self.lru[d].values().next().expect("overflowing device");
                self.place(victim, d + 1);
                self.moved.push((d, d + 1, victim));
                evicted += 1;
            }
        }
        self.requests_seen += 1;
        for p in req.pages() {
            self.bump_heat(p);
            *self.counts.entry(p).or_insert(0) += 1;
            self.last_access.insert(p, self.requests_seen);
        }
        (evicted, migrated)
    }

    /// `migrate_batch`'s accept/skip rule; returns `(promoted,
    /// demoted, skipped)`.
    pub(crate) fn migrate(&mut self, moves: &[PageMove], caps: &[u64]) -> (u64, u64, u64) {
        let (mut promoted, mut demoted, mut skipped) = (0, 0, 0);
        self.moved.clear();
        for mv in moves {
            match self.device(mv.lpn) {
                Some(from)
                    if from != mv.to.0 && (self.lru[mv.to.0].len() as u64) < caps[mv.to.0] =>
                {
                    self.place(mv.lpn, mv.to.0);
                    self.moved.push((from, mv.to.0, mv.lpn));
                    if mv.to.0 < from {
                        promoted += 1;
                    } else {
                        demoted += 1;
                    }
                }
                _ => skipped += 1,
            }
        }
        (promoted, demoted, skipped)
    }
}

/// Every directory and tracker observable of `m` against `model`,
/// over pages `0..universe` (touched or not).
fn assert_matches_model(m: &StorageManager, model: &ModelDirectory, universe: u64, at: &str) {
    let dir = m.directory();
    assert_eq!(dir.current_token(), model.counter, "token clock {at}");
    assert_eq!(dir.len(), model.table.len(), "tracked pages {at}");
    for d in 0..model.lru.len() {
        let dev = DeviceId(d);
        let theirs: Vec<(u64, u64)> = model.lru[d].iter().map(|(&t, &l)| (t, l)).collect();
        assert_eq!(
            dir.iter_lru(dev).collect::<Vec<_>>(),
            theirs,
            "LRU of {d} {at}"
        );
        let hot: Vec<u64> = dir.iter_hot(dev).map(|(lpn, ..)| lpn).collect();
        let theirs_hot: Vec<u64> = theirs.iter().rev().map(|&(_, l)| l).collect();
        assert_eq!(hot, theirs_hot, "hot walk of {d} {at}");
        for (lpn, heat, since) in dir.iter_hot(dev) {
            assert_eq!((heat, since), (dir.heat(lpn), dir.heat_since_place(lpn)));
        }
        assert_eq!(
            dir.used_pages(dev),
            theirs.len() as u64,
            "used pages of {d} {at}"
        );
    }
    let tracker = m.tracker();
    assert_eq!(
        tracker.requests_seen(),
        model.requests_seen,
        "request clock {at}"
    );
    for lpn in 0..universe {
        let meta = model.table.get(&lpn);
        assert_eq!(
            dir.residency(lpn),
            meta.map(|m| DeviceId(m.0)),
            "residency of {lpn} {at}"
        );
        assert_eq!(
            dir.recency_token(lpn),
            meta.map(|m| m.1),
            "token of {lpn} {at}"
        );
        assert_eq!(dir.heat(lpn), meta.map_or(0, |m| m.2), "heat of {lpn} {at}");
        assert_eq!(
            dir.heat_since_place(lpn),
            meta.map_or(0, |m| m.2 - m.3),
            "heat since place of {lpn} {at}"
        );
        assert_eq!(
            tracker.access_count(lpn),
            model.counts.get(&lpn).copied().unwrap_or(0),
            "access count of {lpn} {at}"
        );
        assert_eq!(
            tracker.access_interval(lpn),
            model
                .last_access
                .get(&lpn)
                .map(|&t| model.requests_seen - t),
            "access interval of {lpn} {at}"
        );
    }
}

/// One step of the lockstep property: `(kind, lpn, pages, device,
/// salt)`.
type Step = (u8, u64, u32, usize, u64);

proptest! {
    /// The fused request path against the layout it replaced: a real
    /// manager and [`ModelDirectory`] run the same overlapping
    /// multi-page reads and writes and `migrate_batch` calls on a
    /// tri-device config small enough that evictions cascade, and agree
    /// after every step on every directory and tracker observable, the
    /// per-call outcomes and the counting fields of `HssStats` (its
    /// latency fields are the timing reference's,
    /// `manager/tests/timing.rs`). The request clock may start just below
    /// `u32::MAX`, so stamps wrap mid-run.
    #[test]
    fn fused_request_path_matches_the_reference_layout(
        steps in proptest::collection::vec((0u8..9, 0u64..40, 1u32..7, 0usize..3, 0u64..u64::MAX), 1..60),
        caps in (0u64..5, 0u64..7),
        wrap in proptest::bool::ANY,
    ) {
        let steps: Vec<Step> = steps;
        let caps = [caps.0, caps.1, u64::MAX];
        let cfg = HssConfig::tri(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(caps.to_vec());
        let mut m = StorageManager::new(&cfg);
        let mut model = ModelDirectory::new(3);
        if wrap {
            m.seq = u64::from(u32::MAX) - 20;
            model.requests_seen = m.seq;
        }
        let mut expect = HssStats::new(3);
        for (n, &(kind, lpn, pages, device, salt)) in steps.iter().enumerate() {
            let at = format!("after step {n} {:?}", steps[n]);
            match kind {
                0..=6 => {
                    let op = if kind < 4 { IoOp::Read } else { IoOp::Write };
                    let req = IoRequest::new(n as u64 * 10, lpn, pages, op);
                    let out = m.access(&req, DeviceId(device));
                    let (evicted, migrated) = model.access(&req, device, &caps);
                    prop_assert_eq!((out.evicted_pages, out.migrated_pages), (evicted, migrated));
                    expect.total_requests += 1;
                    expect.reads += u64::from(op == IoOp::Read);
                    expect.writes += u64::from(op == IoOp::Write);
                    expect.placements[device] += 1;
                    expect.eviction_events += u64::from(evicted > 0);
                    expect.evicted_pages += evicted;
                    expect.migrated_pages += migrated;
                }
                _ => {
                    // Up to six moves over nearby pages, destinations
                    // from the salt: unknown pages, no-op moves and
                    // capacity-blocked moves all occur.
                    let moves: Vec<PageMove> = (0..u64::from(pages))
                        .map(|k| PageMove {
                            lpn: (lpn + k * (1 + salt % 5)) % 44,
                            to: DeviceId(((salt >> (2 * k)) % 3) as usize),
                        })
                        .collect();
                    let out = m.migrate_batch(&moves, n as f64 * 10.0);
                    let (promoted, demoted, skipped) = model.migrate(&moves, &caps);
                    prop_assert_eq!(
                        (out.promoted_pages, out.demoted_pages, out.skipped),
                        (promoted, demoted, skipped)
                    );
                    expect.bg_migration_events += u64::from(promoted + demoted > 0);
                    expect.bg_promoted_pages += promoted;
                    expect.bg_demoted_pages += demoted;
                }
            }
            assert_matches_model(&m, &model, 48, &at);
            let st = m.stats();
            prop_assert_eq!(
                (st.total_requests, st.reads, st.writes, &st.placements),
                (expect.total_requests, expect.reads, expect.writes, &expect.placements)
            );
            prop_assert_eq!(
                (st.eviction_events, st.evicted_pages, st.migrated_pages),
                (expect.eviction_events, expect.evicted_pages, expect.migrated_pages)
            );
            prop_assert_eq!(
                (st.bg_migration_events, st.bg_promoted_pages, st.bg_demoted_pages),
                (expect.bg_migration_events, expect.bg_promoted_pages, expect.bg_demoted_pages)
            );
        }
    }
}

#[test]
fn access_interval_stays_exact_across_the_stamp_wrap() {
    // The request clock starts three requests short of 2³²: page 5 is
    // stamped below the wrap and read back above it.
    let mut m = dual_manager(100);
    m.seq = u64::from(u32::MAX) - 2;
    let _ = m.access(&rd(0, 5, 1), DeviceId(1)); // clock 2³² − 2
    assert_eq!(m.tracker().access_interval(5), Some(0));
    for t in 1..=6u64 {
        let _ = m.access(&rd(t, 6, 1), DeviceId(1)); // … up to 2³² + 4
        assert_eq!(m.tracker().access_interval(5), Some(t));
        assert_eq!(m.tracker().access_interval(6), Some(0));
    }
    assert!(m.tracker().requests_seen() > u64::from(u32::MAX));
    assert_eq!(m.tracker().access_count(5), 1);
    assert_eq!(m.tracker().page(7), None);
}

#[test]
fn compact_directory_matches_reference_model_exactly() {
    // Drive the arena directory and the old-layout model through an
    // identical deterministic op mix, comparing every observable
    // after every step — the bit-identity contract the golden serve
    // tests rely on.
    let n_dev = 3;
    let mut dir = PageDirectory::new(n_dev);
    let mut model = ModelDirectory::new(n_dev);
    let mut state = 0x0D1E_u64;
    for step in 0..20_000u64 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let lpn = (state >> 8) % 512; // heavy reuse: moves + touches
        match state % 4 {
            0 | 1 => {
                let dev = (state >> 32) as usize % n_dev;
                assert_eq!(
                    place(&mut dir, lpn, DeviceId(dev)),
                    model.table.get(&lpn).map(|m| DeviceId(m.0)),
                    "place return at step {step}"
                );
                model.place(lpn, dev);
            }
            // Touches and accesses go by arena index, as the request
            // path issues them: only ever for a tracked page.
            2 => {
                if let Ok(i) = dir.probe(lpn) {
                    dir.touch(i);
                    model.touch(lpn);
                }
            }
            _ => {
                if let Ok(i) = dir.probe(lpn) {
                    dir.record_access(i, step as u32);
                    model.bump_heat(lpn);
                }
            }
        }
        assert_eq!(dir.current_token(), model.counter);
        assert_eq!(
            dir.residency(lpn),
            model.table.get(&lpn).map(|m| DeviceId(m.0))
        );
        assert_eq!(dir.heat(lpn), model.table.get(&lpn).map_or(0, |m| m.2));
        assert_eq!(
            dir.heat_since_place(lpn),
            model.table.get(&lpn).map_or(0, |m| m.2 - m.3)
        );
        assert_eq!(dir.recency_token(lpn), model.table.get(&lpn).map(|m| m.1));
    }
    assert_eq!(dir.len(), model.table.len());
    for d in 0..n_dev {
        let dev = DeviceId(d);
        assert_eq!(dir.used_pages(dev), model.lru[d].len() as u64);
        let ours: Vec<(u64, u64)> = dir.iter_lru(dev).collect();
        let theirs: Vec<(u64, u64)> = model.lru[d].iter().map(|(&t, &l)| (t, l)).collect();
        assert_eq!(ours, theirs, "forward LRU walk, device {d}");
        let ours_rev: Vec<(u64, u64)> = dir.iter_lru(dev).rev().collect();
        let theirs_rev: Vec<(u64, u64)> =
            model.lru[d].iter().rev().map(|(&t, &l)| (t, l)).collect();
        assert_eq!(ours_rev, theirs_rev, "reverse LRU walk, device {d}");
    }
}

#[test]
fn lru_iter_is_double_ended_and_meets_in_the_middle() {
    let mut dir = PageDirectory::new(2);
    for lpn in 0..5u64 {
        let _ = place(&mut dir, lpn, DeviceId(0));
    }
    let mut it = dir.iter_lru(DeviceId(0));
    assert_eq!(it.next().map(|(_, l)| l), Some(0));
    assert_eq!(it.next_back().map(|(_, l)| l), Some(4));
    assert_eq!(it.next().map(|(_, l)| l), Some(1));
    assert_eq!(it.next_back().map(|(_, l)| l), Some(3));
    assert_eq!(it.next().map(|(_, l)| l), Some(2));
    assert_eq!(it.next(), None);
    assert_eq!(it.next_back(), None);
}

#[test]
fn directory_bytes_tracks_footprint_not_traffic() {
    let mut dir = PageDirectory::new(2);
    for lpn in 0..10_000u64 {
        let _ = place(&mut dir, lpn, DeviceId((lpn % 2) as usize));
    }
    let at_10k = dir.directory_bytes();
    // Re-touching the same pages (any amount of traffic over the same
    // footprint) allocates nothing.
    for round in 0..5 {
        for lpn in 0..10_000u64 {
            let i = dir.probe(lpn).expect("placed above");
            dir.touch(i);
            dir.record_access(i, round as u32);
            let _ = place(&mut dir, lpn, DeviceId(((lpn + round) % 2) as usize));
        }
    }
    assert_eq!(
        dir.directory_bytes(),
        at_10k,
        "traffic over a fixed footprint must not grow the directory"
    );
    // The compact layout stays under 80 bytes/page even with the
    // open-addressing index's load-factor headroom and Vec doubling
    // slack (40-byte entries × up-to-2× capacity) — the old
    // HashMap + BTreeMap-per-page layout was 130+ before allocator
    // overhead.
    assert!(
        at_10k < 10_000 * 80,
        "directory too fat: {} bytes for 10k pages",
        at_10k
    );
}

#[test]
fn lru_tokens_stay_monotone_under_interleaved_promote_demote() {
    let mut m = dual_manager(8);
    let mut last_token = 0u64;
    for i in 0..40u64 {
        let lpn = i % 10;
        let _ = m.access(&rd(i * 10, lpn, 1), DeviceId((i % 2) as usize));
        if i % 3 == 0 {
            // Interleave background promotions and demotions.
            let to = DeviceId(((i / 3) % 2) as usize);
            let _ = m.migrate_batch(&[PageMove { lpn, to }], i as f64 * 10.0);
        }
        let dir = m.directory();
        let now = dir.current_token();
        assert!(now > last_token, "global token must advance");
        last_token = now;
        let tok = dir.recency_token(lpn).expect("page tracked");
        assert!(tok <= now, "page token cannot outrun the clock");
        // Every device's LRU index is internally ordered and every
        // token maps back to a page resident on that device.
        for d in 0..2 {
            let dev = DeviceId(d);
            let tokens: Vec<u64> = dir.iter_lru(dev).map(|(t, _)| t).collect();
            assert!(tokens.windows(2).all(|w| w[0] < w[1]), "LRU order broken");
            for (_, p) in dir.iter_lru(dev) {
                assert_eq!(dir.residency(p), Some(dev), "stale LRU entry");
            }
        }
    }
    // Conservation: 10 distinct pages tracked, split across devices.
    let dir = m.directory();
    assert_eq!(
        dir.used_pages(DeviceId(0)) + dir.used_pages(DeviceId(1)),
        10
    );
}
