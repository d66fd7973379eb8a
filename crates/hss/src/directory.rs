//! The residency half of the storage model: where every logical page
//! lives ([`PageDirectory`]) and the four transitions that move pages
//! between devices ([`Residency`]: read, write, evict-overflow, migrate).
//! Nothing here knows what time it is: a transition takes the request
//! clock and leaves *what moved* as page counts and sorted page lists;
//! what the moves cost is the timing half's business (`manager.rs`).

use crate::device::DeviceId;
use crate::victim::Victim;
use sibyl_trace::{mix64, IoRequest};

/// Where every logical page lives, with per-device LRU orderings.
///
/// Kept separate from [`StorageManager`](crate::StorageManager) so
/// victim selection can inspect residency while the manager mutates
/// other state.
///
/// # Layout (the scale path)
///
/// Production-sized runs track millions of pages, so the directory is a
/// compact arena rather than the obvious `HashMap<u64, PageMeta>` plus
/// one `BTreeMap` LRU per device (~130+ bytes/page across three
/// allocations): per-page metadata lives in one dense, append-only
/// `PageEntry` arena (40 bytes/page, indices stable forever — pages
/// move between devices but are never forgotten), an open-addressing
/// index maps `lpn → entry` (4 bytes/slot, splitmix64 hashing, linear
/// probing, insert-only so no tombstones), and each device's LRU order
/// is an intrusive doubly-linked list threaded through the arena via
/// `prev`/`next` (no separate tree nodes). Entries always link in at
/// the tail with a freshly incremented token, so list order **is**
/// token order — iteration is bit-identical to the old per-device
/// `BTreeMap<token, lpn>` walk, which is what keeps placement decisions
/// on the golden traces unchanged. [`PageDirectory::directory_bytes`]
/// reports the exact heap footprint for the `sec14_scale` accounting.
///
/// The entry is also the page's *only* metadata record — the paper's
/// §10.2 table (access count, access interval, current device): the
/// access count is `heat`, and the last-access stamp sits in what used
/// to be the struct's padding, so the features of Table 1 cost no bytes
/// beyond the directory ([`AccessTracker`] is a view of it). A
/// transition resolves each page to its arena index once and does
/// everything else — device counting, moves, recency, heat — by index.
#[derive(Debug, Default)]
pub struct PageDirectory {
    /// Dense page metadata; an entry's index never changes.
    entries: Vec<PageEntry>,
    /// Open-addressing `lpn → entry index` map (`INDEX_EMPTY` = free),
    /// power-of-two capacity, grown at 7/8 load.
    index: Vec<u32>,
    /// Head (least recent) of each device's intrusive LRU list.
    heads: Vec<u32>,
    /// Tail (most recent) of each device's intrusive LRU list.
    tails: Vec<u32>,
    used: Vec<u64>,
    lru_counter: u64,
}

/// Sentinel for "no entry" in the index and the LRU links.
const NO_ENTRY: u32 = u32::MAX;

/// One tracked page: 40 bytes, device + recency + heat + last access,
/// threaded into its device's LRU list through `prev`/`next`.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    lpn: u64,
    lru_token: u64,
    /// Previous (older) entry in this device's LRU list.
    prev: u32,
    /// Next (newer) entry in this device's LRU list.
    next: u32,
    /// Accesses to the page while tracked (survives moves between
    /// devices) — the residency-scoped hotness signal background
    /// migration policies key on, and the `cnt_t` access count: a page
    /// enters the directory in the request that first touches it and
    /// every access bumps it once, so the two never differ. Saturating
    /// at `u32::MAX` (4.3 G accesses to one page — beyond any supported
    /// run length).
    heat: u32,
    /// The heat the page had when it last landed on its current device.
    /// `heat - heat_at_place` counts accesses *since arrival* — the
    /// signal that distinguishes a genuinely re-hot page from one that
    /// was just moved (a freshly demoted high-heat page must earn new
    /// accesses before it can qualify for promotion again, or demotion
    /// and promotion ping-pong forever).
    heat_at_place: u32,
    /// The manager's request clock at the page's latest access, truncated
    /// to 32 bits (meaningful only once `heat > 0`). Lives in what was
    /// padding after `device`, so the entry is still 40 bytes.
    last_access: u32,
    device: u8,
}

const _: () = assert!(std::mem::size_of::<PageEntry>() == 40);

/// One background page move requested by a migration policy: relocate
/// `lpn` onto `to`. Executed in bulk by
/// [`StorageManager::migrate_batch`](crate::StorageManager::migrate_batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageMove {
    /// The logical page to move.
    pub lpn: u64,
    /// The destination device.
    pub to: DeviceId,
}

/// One page a transition moved in the background, as `(from, to, lpn)`:
/// `lpn` left device `from` for device `to`. Sorts by route, then page.
pub(crate) type Transfer = (usize, usize, u64);

/// The residency state of one HSS: the directory, what its transitions
/// are configured by, and what the latest one touched and moved — in
/// buffers kept across requests (a request may span 2²⁴ pages, so
/// neither a stack array nor a per-request allocation).
#[derive(Debug)]
pub(crate) struct Residency {
    pub(crate) dir: PageDirectory,
    /// Each device's capacity in pages (`u64::MAX` = unlimited).
    pub(crate) capacities: Vec<u64>,
    pub(crate) victim: Victim,
    /// Arena indices of the current request's pages, in page order.
    pages: Vec<u32>,
    /// How many pages of the latest read each device held (before any
    /// moved) — what it serves in the foreground.
    pub(crate) foreground: Vec<u64>,
    /// Background moves of the latest [`Residency::evict_overflow`] or
    /// [`Residency::migrate`], sorted.
    pub(crate) transfers: Vec<Transfer>,
}

impl PageDirectory {
    fn new(n_devices: usize) -> Self {
        assert!(
            n_devices < usize::from(u8::MAX),
            "PageDirectory: at most 254 devices"
        );
        PageDirectory {
            entries: Vec::new(),
            index: Vec::new(),
            heads: vec![NO_ENTRY; n_devices],
            tails: vec![NO_ENTRY; n_devices],
            used: vec![0; n_devices],
            lru_counter: 0,
        }
    }

    /// Where `lpn` sits in the index: `Ok(entry)` when tracked, else
    /// `Err(slot)`, the free slot [`PageDirectory::insert`] would give
    /// it (unused while the index is still unallocated).
    pub(crate) fn probe(&self, lpn: u64) -> Result<u32, usize> {
        if self.index.is_empty() {
            return Err(0);
        }
        let mask = self.index.len() - 1;
        let mut slot = mix64(lpn) as usize & mask;
        loop {
            match self.index[slot] {
                NO_ENTRY => return Err(slot),
                i if self.entries[i as usize].lpn == lpn => return Ok(i),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Doubles the index (64 slots at first) and rehashes every entry
    /// into it — slot indices only, entries never move.
    fn grow_index(&mut self) {
        let cap = (self.index.len() * 2).max(64);
        let mut fresh = vec![NO_ENTRY; cap];
        let mask = cap - 1;
        for (i, e) in self.entries.iter().enumerate() {
            let mut slot = mix64(e.lpn) as usize & mask;
            while fresh[slot] != NO_ENTRY {
                slot = (slot + 1) & mask;
            }
            fresh[slot] = i as u32;
        }
        self.index = fresh;
    }

    /// The device holding entry `i`.
    pub(crate) fn device_of(&self, i: u32) -> usize {
        usize::from(self.entries[i as usize].device)
    }

    /// The page of entry `i`.
    #[cfg(test)]
    pub(crate) fn lpn_of(&self, i: u32) -> u64 {
        self.entries[i as usize].lpn
    }

    /// Unlinks entry `i` from device `dev`'s LRU list.
    fn list_unlink(&mut self, i: u32, dev: usize) {
        let (prev, next) = {
            let e = &self.entries[i as usize];
            (e.prev, e.next)
        };
        if prev == NO_ENTRY {
            self.heads[dev] = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next == NO_ENTRY {
            self.tails[dev] = prev;
        } else {
            self.entries[next as usize].prev = prev;
        }
    }

    /// Links entry `i` at the tail (most recent end) of device `dev`'s
    /// LRU list.
    fn list_push_tail(&mut self, i: u32, dev: usize) {
        let tail = self.tails[dev];
        {
            let e = &mut self.entries[i as usize];
            e.prev = tail;
            e.next = NO_ENTRY;
        }
        if tail == NO_ENTRY {
            self.heads[dev] = i;
        } else {
            self.entries[tail as usize].next = i;
        }
        self.tails[dev] = i;
    }

    /// The device currently holding `lpn`, if the page exists.
    pub fn residency(&self, lpn: u64) -> Option<DeviceId> {
        self.probe(lpn).ok().map(|i| DeviceId(self.device_of(i)))
    }

    /// Pages resident on `device`.
    pub fn used_pages(&self, device: DeviceId) -> u64 {
        self.used[device.0]
    }

    /// Number of tracked pages.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no pages are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Exact heap footprint of the directory in bytes: the entry arena,
    /// the open-addressing index, and the per-device list/usage vectors.
    /// Grows with the number of *distinct pages touched* (the workload
    /// footprint), never with trace length — the bound `sec14_scale` and
    /// the CI gate assert.
    pub fn directory_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<PageEntry>()
            + self.index.capacity() * std::mem::size_of::<u32>()
            + (self.heads.capacity() + self.tails.capacity()) * std::mem::size_of::<u32>()
            + self.used.capacity() * std::mem::size_of::<u64>()
            + std::mem::size_of::<Self>()
    }

    /// Accesses to `lpn` while tracked (0 for unknown pages). Heat
    /// survives moves between devices, so a page promoted by a migration
    /// policy keeps the history that made it a candidate.
    pub fn heat(&self, lpn: u64) -> u64 {
        self.probe(lpn)
            .map_or(0, |i| u64::from(self.entries[i as usize].heat))
    }

    /// Accesses to `lpn` since it last landed on its current device
    /// (0 for unknown pages). Migration policies gate promotion on this
    /// rather than total heat: a page that was just demoted or evicted
    /// carries its old heat but has not been touched since the move, and
    /// promoting it back would be pure churn.
    pub fn heat_since_place(&self, lpn: u64) -> u64 {
        self.probe(lpn).map_or(0, |i| {
            let e = &self.entries[i as usize];
            u64::from(e.heat - e.heat_at_place)
        })
    }

    /// The recency token of `lpn` — larger means more recently placed or
    /// touched. `None` for unknown pages.
    pub fn recency_token(&self, lpn: u64) -> Option<u64> {
        (self.probe(lpn).ok()).map(|i| self.entries[i as usize].lru_token)
    }

    /// The current value of the global recency counter; the age of a page
    /// is `current_token() - recency_token(lpn)`.
    pub fn current_token(&self) -> u64 {
        self.lru_counter
    }

    /// Iterates `device`'s resident pages in recency order (least
    /// recently used first) as `(recency_token, lpn)` pairs. Reversible —
    /// migration policies scan the hot end with `.rev()`.
    pub fn iter_lru(&self, device: DeviceId) -> impl DoubleEndedIterator<Item = (u64, u64)> + '_ {
        self.walk(device).map(|e| (e.lru_token, e.lpn))
    }

    /// Iterates `device`'s resident pages from the most recently used
    /// end as `(lpn, heat, heat_since_place)` — what a promotion scan
    /// reads, straight from the entry it is standing on (the values of
    /// [`PageDirectory::heat`] and [`PageDirectory::heat_since_place`]).
    pub fn iter_hot(&self, device: DeviceId) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.walk(device).rev().map(|e| {
            (
                e.lpn,
                u64::from(e.heat),
                u64::from(e.heat - e.heat_at_place),
            )
        })
    }

    fn walk(&self, device: DeviceId) -> LruIter<'_> {
        LruIter {
            entries: &self.entries,
            front: self.heads[device.0],
            back: self.tails[device.0],
        }
    }

    /// Starts tracking the untracked `lpn` on `device` with a fresh
    /// recency token and no heat; `slot` is what [`PageDirectory::probe`]
    /// just returned for it. The index grows once load passes 7/8.
    fn insert(&mut self, lpn: u64, slot: usize, device: DeviceId) -> u32 {
        self.lru_counter += 1;
        let i = self.entries.len() as u32;
        self.entries.push(PageEntry {
            lpn,
            lru_token: self.lru_counter,
            prev: NO_ENTRY,
            next: NO_ENTRY,
            heat: 0,
            heat_at_place: 0,
            last_access: 0,
            device: device.0 as u8,
        });
        if (self.entries.len() + 1) * 8 > self.index.len() * 7 {
            self.grow_index();
        } else {
            self.index[slot] = i;
        }
        self.list_push_tail(i, device.0);
        self.used[device.0] += 1;
        i
    }

    /// Moves entry `i` onto `device` (possibly the one it is on) with a
    /// fresh recency token, restarting its since-arrival heat. Returns
    /// the device it left.
    fn relocate(&mut self, i: u32, device: DeviceId) -> DeviceId {
        self.lru_counter += 1;
        let old_dev = self.device_of(i);
        self.list_unlink(i, old_dev);
        self.used[old_dev] -= 1;
        let e = &mut self.entries[i as usize];
        e.device = device.0 as u8;
        e.lru_token = self.lru_counter;
        e.heat_at_place = e.heat;
        self.list_push_tail(i, device.0);
        self.used[device.0] += 1;
        DeviceId(old_dev)
    }

    /// Refreshes recency of entry `i` without moving it.
    fn touch(&mut self, i: u32) {
        self.lru_counter += 1;
        let dev = self.device_of(i);
        if self.tails[dev] != i {
            self.list_unlink(i, dev);
            self.list_push_tail(i, dev);
        }
        self.entries[i as usize].lru_token = self.lru_counter;
    }

    /// Counts one access to entry `i` at request-clock `stamp` — a pure
    /// metadata update that never moves LRU state, so it is invisible to
    /// eviction and latency accounting.
    fn record_access(&mut self, i: u32, stamp: u32) {
        let e = &mut self.entries[i as usize];
        e.heat = e.heat.saturating_add(1);
        e.last_access = stamp;
    }
}

impl Residency {
    /// An empty directory over devices of `capacities` pages each, LRU
    /// eviction.
    pub(crate) fn new(capacities: Vec<u64>) -> Self {
        Residency {
            dir: PageDirectory::new(capacities.len()),
            foreground: vec![0; capacities.len()],
            capacities,
            victim: Victim::Lru,
            pages: Vec::new(),
            transfers: Vec::new(),
        }
    }

    /// The *read* transition. Resolves every page of `req` to its entry,
    /// once — unknown pages materialize on the slowest device
    /// (pre-existing cold data; the paper's working set starts in slow
    /// storage) — and counts into `foreground` how many each device
    /// holds. Pages on a *slower* device than `target` then move to it;
    /// pages on `target` or faster stay put (a read never demotes).
    /// Returns the number of pages moved.
    pub(crate) fn read(&mut self, req: &IoRequest, target: DeviceId, seq: u64) -> u64 {
        let slowest = DeviceId(self.capacities.len() - 1);
        let moves = |d: usize| d > target.0;
        self.pages.clear();
        self.foreground.fill(0);
        for p in req.pages() {
            let i = match self.dir.probe(p) {
                Ok(i) => i,
                Err(slot) => {
                    self.victim.on_place(p, slowest, seq);
                    self.dir.insert(p, slot, slowest)
                }
            };
            self.foreground[self.dir.device_of(i)] += 1;
            self.pages.push(i);
        }
        let migrated: u64 = (0..self.foreground.len())
            .filter(|&d| moves(d))
            .map(|d| self.foreground[d])
            .sum();
        // Recency order: the moved pages in page order, then the ones
        // that stayed put — which are those whose token the move pass
        // did not push past `moved_after`.
        let moved_after = self.dir.lru_counter;
        if migrated > 0 {
            for &i in &self.pages {
                if moves(self.dir.device_of(i)) {
                    self.dir.relocate(i, target);
                    self.victim
                        .on_place(self.dir.entries[i as usize].lpn, target, seq);
                }
            }
        }
        for &i in &self.pages {
            if self.dir.entries[i as usize].lru_token <= moved_after {
                self.dir.touch(i);
                let (lpn, device) = (self.dir.entries[i as usize].lpn, self.dir.device_of(i));
                self.victim.on_place(lpn, DeviceId(device), seq);
            }
        }
        migrated
    }

    /// The *write* transition: every page of `req` lands on `target`;
    /// stale copies on other devices are invalidated by the move. Returns
    /// how many pages left another device.
    pub(crate) fn write(&mut self, req: &IoRequest, target: DeviceId, seq: u64) -> u64 {
        self.pages.clear();
        let mut migrated = 0;
        for p in req.pages() {
            let i = match self.dir.probe(p) {
                Ok(i) if self.dir.device_of(i) == target.0 => {
                    self.dir.touch(i);
                    self.victim.on_place(p, target, seq);
                    i
                }
                Ok(i) => {
                    self.dir.relocate(i, target);
                    self.victim.on_place(p, target, seq);
                    migrated += 1;
                    i
                }
                Err(slot) => {
                    self.victim.on_place(p, target, seq);
                    self.dir.insert(p, slot, target)
                }
            };
            self.pages.push(i);
        }
        migrated
    }

    /// The *evict-overflow* transition: every device over its capacity
    /// sheds its overflow to the next slower one, fastest device first so
    /// evictions cascade. Victims are picked one at a time (the head of
    /// the device's LRU list, or Belady's pick when it has a valid one)
    /// and moved immediately, so repeated selection sees the update.
    /// Leaves the moves in `transfers`.
    pub(crate) fn evict_overflow(&mut self, seq: u64) {
        self.transfers.clear();
        for d in 0..self.capacities.len() - 1 {
            let dst = DeviceId(d + 1);
            while self.dir.used[d] > self.capacities[d] {
                let head = self.dir.heads[d];
                let i = match &mut self.victim {
                    Victim::Lru => head,
                    Victim::Belady(belady) => belady.select(d, &self.dir, seq).unwrap_or(head),
                };
                let lpn = self.dir.entries[i as usize].lpn;
                self.dir.relocate(i, dst);
                self.victim.on_place(lpn, dst, seq);
                self.transfers.push((d, d + 1, lpn));
            }
        }
        self.transfers.sort_unstable();
    }

    /// Counts one access, at request clock `seq`, to every page the
    /// latest [`Residency::read`] or [`Residency::write`] resolved. Runs
    /// *after* the decision and the eviction: policies and victim
    /// selection observe pre-request state.
    pub(crate) fn record_access(&mut self, seq: u64) {
        for &i in &self.pages {
            self.dir.record_access(i, seq as u32);
        }
    }

    /// The *migrate* transition: accepts or skips `moves` in caller
    /// order (by the rule in `StorageManager::migrate_batch`'s doc),
    /// relocating immediately so capacity checks see in-batch effects.
    /// Leaves the accepted moves in `transfers`; returns `(promoted,
    /// demoted, skipped)`.
    pub(crate) fn migrate(&mut self, moves: &[PageMove], seq: u64) -> (u64, u64, u64) {
        let (mut promoted, mut demoted, mut skipped) = (0, 0, 0);
        self.transfers.clear();
        for mv in moves {
            let to = mv.to.0;
            assert!(
                to < self.capacities.len(),
                "migrate_batch: destination {} out of range",
                mv.to
            );
            match self.dir.probe(mv.lpn) {
                Ok(i) if self.dir.device_of(i) != to && self.dir.used[to] < self.capacities[to] => {
                    let from = self.dir.relocate(i, mv.to).0;
                    self.victim.on_place(mv.lpn, mv.to, seq);
                    if to < from {
                        promoted += 1;
                    } else {
                        demoted += 1;
                    }
                    self.transfers.push((from, to, mv.lpn));
                }
                _ => skipped += 1,
            }
        }
        self.transfers.sort_unstable();
        (promoted, demoted, skipped)
    }

    /// The background moves grouped by `from → to` route, routes
    /// ascending and each route's pages ascending — one bulk transfer
    /// each.
    pub(crate) fn routes(&self) -> impl Iterator<Item = &[Transfer]> {
        self.transfers.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
    }
}

/// Double-ended walk of one device's intrusive LRU list, oldest first;
/// both cursors are `NO_ENTRY` once the ends have met (or the list is
/// empty). Tokens ascend front-to-back (entries only ever link in at the
/// tail with a fresh token), matching the old `BTreeMap<token, lpn>` order.
#[derive(Debug)]
struct LruIter<'a> {
    entries: &'a [PageEntry],
    front: u32,
    back: u32,
}

impl<'a> Iterator for LruIter<'a> {
    type Item = &'a PageEntry;

    fn next(&mut self) -> Option<&'a PageEntry> {
        let e = self.entries.get(self.front as usize)?;
        if self.front == self.back {
            (self.front, self.back) = (NO_ENTRY, NO_ENTRY);
        } else {
            self.front = e.next;
        }
        Some(e)
    }
}

impl DoubleEndedIterator for LruIter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        let e = self.entries.get(self.back as usize)?;
        if self.front == self.back {
            (self.front, self.back) = (NO_ENTRY, NO_ENTRY);
        } else {
            self.back = e.prev;
        }
        Some(e)
    }
}

/// Per-page access metadata — the paper's block-layer metadata table
/// (§10.2: 40 bits per page) backing the state features of Table 1.
///
/// A borrowed view
/// ([`StorageManager::tracker`](crate::StorageManager::tracker)) of the
/// page directory, whose entry *is* that record: nothing is stored per
/// page beyond the directory's 40 bytes. The access count is the entry's
/// heat, so it saturates at `u32::MAX` accesses to one page; the last
/// access is a 32-bit stamp of the manager's request clock and the
/// interval their wrapping difference, exact while fewer than 2³²
/// requests separate two accesses to a page (the `intr_t` bins saturate
/// at 2²¹).
#[derive(Debug, Clone, Copy)]
pub struct AccessTracker<'a> {
    pub(crate) dir: &'a PageDirectory,
    pub(crate) requests_seen: u64,
}

/// One page's metadata record, as [`AccessTracker::page`] reads it with
/// a single directory probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRecord {
    /// The device holding the page (the `curr_t` feature).
    pub device: DeviceId,
    /// Total accesses to the page so far (the `cnt_t` feature).
    pub access_count: u64,
    /// Requests elapsed since the page was last accessed (the `intr_t`
    /// feature); `None` before its first access has been recorded.
    pub access_interval: Option<u64>,
}

impl AccessTracker<'_> {
    /// The record of `lpn`, or `None` for a page the directory does not
    /// track (one no request has touched).
    pub fn page(&self, lpn: u64) -> Option<PageRecord> {
        let e = &self.dir.entries[self.dir.probe(lpn).ok()? as usize];
        let interval = (self.requests_seen as u32).wrapping_sub(e.last_access);
        Some(PageRecord {
            device: DeviceId(usize::from(e.device)),
            access_count: u64::from(e.heat),
            access_interval: (e.heat > 0).then_some(u64::from(interval)),
        })
    }

    /// Total accesses to `lpn` so far (the `cnt_t` feature).
    pub fn access_count(&self, lpn: u64) -> u64 {
        self.page(lpn).map_or(0, |r| r.access_count)
    }

    /// Requests elapsed since `lpn` was last accessed (the `intr_t`
    /// feature), or `None` if never accessed.
    pub fn access_interval(&self, lpn: u64) -> Option<u64> {
        self.page(lpn)?.access_interval
    }

    /// Requests observed so far.
    pub fn requests_seen(&self) -> u64 {
        self.requests_seen
    }
}

#[cfg(test)]
pub(crate) mod tests;
