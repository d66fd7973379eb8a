//! The storage management layer: unified logical address space, page
//! residency, migration, and capacity-driven eviction.
//!
//! This is the paper's Fig. 1 component. It exposes one contiguous logical
//! page space to the workload, translates each request into device
//! commands based on current residency and the policy's placement
//! decision, migrates data between devices (promotion/eviction), and
//! reports per-request latency `L_t` and eviction time `L_e` — the two
//! quantities Sibyl's reward is built from (Eq. 1).
//!
//! This file is the *timing* half — device clocks, the closed-loop replay
//! window, the latency statistics: it runs a residency transition
//! (`directory.rs`, which decides clock-free which pages move) and then
//! prices what the transition returned.

use std::collections::VecDeque;

use crate::config::HssConfig;
use crate::device::{Device, DeviceId, Service};
use crate::directory::{AccessTracker, PageDirectory, PageMove, Residency, Transfer};
use crate::stats::HssStats;
use crate::victim::Victim;
use sibyl_trace::{IoOp, IoRequest};

/// Closed-loop replay depth: at most this many requests are outstanding,
/// like a real block layer's queue depth. A request that would be the
/// 17th arrives no earlier than the oldest outstanding one completes.
const QUEUE_WINDOW: usize = 16;

/// Accounting for one [`StorageManager::migrate_batch`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigrationOutcome {
    /// Pages moved to a faster device (`to` index below the source's).
    pub promoted_pages: u64,
    /// Pages moved to a slower device.
    pub demoted_pages: u64,
    /// Requested moves that were skipped (unknown page, already at the
    /// destination, or the destination had no free capacity).
    pub skipped: u64,
    /// Total device service time the migration I/O consumed (µs). The
    /// same time is charged against the involved devices' clocks, so
    /// foreground requests queue behind it.
    pub busy_us: f64,
    /// Source-side bulk-read service time (µs); `read_us + write_us ==
    /// busy_us` up to float addition order (both accumulate in the same
    /// deterministic group order).
    pub read_us: f64,
    /// Destination-side append-write service time (µs).
    pub write_us: f64,
}

impl MigrationOutcome {
    /// Pages moved in either direction.
    pub fn moved_pages(&self) -> u64 {
        self.promoted_pages + self.demoted_pages
    }
}

/// Device-level timing detail of the most recent foreground access —
/// the sub-span hook the xray tracer reads after
/// [`StorageManager::access_after`]. The *critical device* is the one
/// whose completion determined the request's latency (reads fan out
/// across every device holding pages; the slowest arm wins). Splitting
/// its time into queue wait and service lets a trace attribute
/// storage-phase latency to contention vs transfer without changing the
/// access path: the detail is recorded from quantities the serve path
/// already computes.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AccessDetail {
    /// The critical device's index.
    pub device: usize,
    /// Time the request waited for the critical device to become free
    /// (µs): dispatch until its command started serving. This is where
    /// queued migration/eviction I/O shows up.
    pub queue_us: f64,
    /// The critical device's service (command + transfer) time (µs).
    pub transfer_us: f64,
}

/// Result of serving one request through the storage manager.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessOutcome {
    /// The device the policy targeted.
    pub target: DeviceId,
    /// Effective arrival time (trace timestamp, delayed by the closed-loop
    /// window when the system is saturated).
    pub arrival_us: f64,
    /// Completion time of the foreground request.
    pub completion_us: f64,
    /// Served request latency `L_t` in microseconds (queueing + service).
    pub latency_us: f64,
    /// Time spent on background eviction triggered by this request,
    /// the paper's `L_e` (0 when no eviction occurred).
    pub eviction_us: f64,
    /// Pages evicted to slower devices.
    pub evicted_pages: u64,
    /// Pages migrated toward the target (promotions and demotions the
    /// policy asked for).
    pub migrated_pages: u64,
}

impl AccessOutcome {
    /// `true` when this request forced an eviction (the reward-penalty
    /// branch of Eq. 1).
    pub fn caused_eviction(&self) -> bool {
        self.evicted_pages > 0
    }
}

/// The hybrid storage system: devices, page directory, access metadata,
/// and migration machinery.
///
/// # Examples
///
/// ```
/// use sibyl_hss::{DeviceId, DeviceSpec, HssConfig, StorageManager};
/// use sibyl_trace::{IoOp, IoRequest};
///
/// let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
///     .with_capacity_pages(vec![2, u64::MAX]);
/// let mut hss = StorageManager::new(&cfg);
/// // Write three pages to a two-page fast device: one page must be
/// // evicted in the background.
/// let out = hss.access(&IoRequest::new(0, 0, 3, IoOp::Write), DeviceId(0));
/// assert!(out.caused_eviction());
/// ```
#[derive(Debug)]
pub struct StorageManager {
    devices: Vec<Device>,
    res: Residency,
    stats: HssStats,
    completions: VecDeque<f64>,
    /// [`QUEUE_WINDOW`]; a field only so the unit tests can sweep it.
    queue_window: usize,
    /// The request clock: requests accepted so far (1-based inside
    /// `access_after`). Stamps page accesses and Belady's placements.
    pub(crate) seq: u64,
    last_detail: AccessDetail,
}

impl StorageManager {
    /// Builds a manager from a resolved configuration with LRU eviction.
    ///
    /// # Panics
    ///
    /// Panics if the config has fewer than two devices or its capacities
    /// are unresolved fractions (call [`HssConfig::resolved`] first), or
    /// if the slowest device's capacity is limited (the backing store must
    /// hold the full working set, as in the paper's setups).
    pub fn new(config: &HssConfig) -> Self {
        let capacities = config.capacity_pages().to_vec();
        assert!(
            config.devices.len() >= 2,
            "StorageManager: need at least two devices"
        );
        assert_eq!(
            capacities.last(),
            Some(&u64::MAX),
            "StorageManager: the slowest device must be unlimited"
        );
        StorageManager {
            devices: config.devices.iter().cloned().map(Device::new).collect(),
            stats: HssStats::new(capacities.len()),
            res: Residency::new(capacities),
            completions: VecDeque::new(),
            queue_window: QUEUE_WINDOW,
            seq: 0,
            last_detail: AccessDetail::default(),
        }
    }

    /// Replaces the eviction-victim rule (the Oracle baseline runs with
    /// [`Victim::belady`]).
    pub fn set_victim(&mut self, victim: Victim) {
        self.res.victim = victim;
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// The fastest device id.
    pub fn fastest(&self) -> DeviceId {
        DeviceId(0)
    }

    /// The slowest device id.
    pub fn slowest(&self) -> DeviceId {
        DeviceId(self.devices.len() - 1)
    }

    /// Device instance by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0]
    }

    /// The page directory (residency and LRU state).
    pub fn directory(&self) -> &PageDirectory {
        &self.res.dir
    }

    /// The per-page access metadata table (a view of the directory).
    pub fn tracker(&self) -> AccessTracker<'_> {
        AccessTracker {
            dir: &self.res.dir,
            requests_seen: self.seq,
        }
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &HssStats {
        &self.stats
    }

    /// Device-level timing of the most recent foreground access: which
    /// device was on the request's critical path and how its latency
    /// split into queueing vs. transfer. Valid after
    /// [`StorageManager::access_after`]; the xray sub-span hook.
    pub fn last_access_detail(&self) -> AccessDetail {
        self.last_detail
    }

    /// Configured capacity of `device` in pages.
    pub fn capacity(&self, device: DeviceId) -> u64 {
        self.res.capacities[device.0]
    }

    /// Remaining free pages on `device` (the `cap_t` feature tracks this
    /// for the fast device).
    pub fn remaining_capacity(&self, device: DeviceId) -> u64 {
        self.res.capacities[device.0].saturating_sub(self.res.dir.used_pages(device))
    }

    /// Remaining capacity as a fraction of the device's configured
    /// capacity (1.0 when unlimited).
    pub fn remaining_fraction(&self, device: DeviceId) -> f64 {
        match self.res.capacities[device.0] {
            0 => 0.0,
            u64::MAX => 1.0,
            cap => self.remaining_capacity(device) as f64 / cap as f64,
        }
    }

    /// Current residency of `lpn` (`curr_t` feature), if tracked.
    pub fn residency(&self, lpn: u64) -> Option<DeviceId> {
        self.res.dir.residency(lpn)
    }

    /// Serves `req`, placing its pages on `target` per the policy's
    /// decision, and returns latency/eviction accounting.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn access(&mut self, req: &IoRequest, target: DeviceId) -> AccessOutcome {
        self.access_after(req, target, 0.0)
    }

    /// Serves `req` like [`StorageManager::access`], but with device
    /// dispatch held back by `delay_us` after the request's (closed-loop
    /// bounded) arrival — modeling time spent *deciding* the placement,
    /// e.g. the serving engine's amortized NN-inference charge. Unlike a
    /// shifted timestamp, the delay counts toward the request's reported
    /// latency: latency is measured from the arrival, while device
    /// service cannot start before `arrival + delay_us`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range.
    pub fn access_after(
        &mut self,
        req: &IoRequest,
        target: DeviceId,
        delay_us: f64,
    ) -> AccessOutcome {
        assert!(
            target.0 < self.devices.len(),
            "access: target {target} out of range"
        );
        self.seq += 1;

        // Closed-loop replay: at most `queue_window` requests outstanding.
        let mut arrival = req.timestamp_us as f64;
        if self.completions.len() >= self.queue_window {
            if let Some(bound) = self.completions.pop_front() {
                arrival = arrival.max(bound);
            }
        }
        if self.stats.total_requests == 0 {
            self.stats.first_arrival_us = arrival;
        }
        self.stats.placements[target.0] += 1;

        // Residency first, then the foreground commands it calls for. A
        // write is one command on its target. A read is served from
        // wherever its pages live, one command per device, in parallel: it
        // completes with the slowest, the critical arm (latest completion;
        // lowest device index on ties, since the loop keeps the first
        // maximum), which defines the device-level queue/transfer split.
        let dispatch = arrival + delay_us.max(0.0);
        let mut critical: Option<(usize, Service)> = None;
        let migrated = match req.op {
            IoOp::Write => {
                let migrated = self.res.write(req, target, self.seq);
                let pages = u64::from(req.size_pages);
                let svc = self.devices[target.0].serve(dispatch, IoOp::Write, req.lpn, pages);
                critical = Some((target.0, svc));
                migrated
            }
            IoOp::Read => {
                let migrated = self.res.read(req, target, self.seq);
                for (d, &pages) in self.res.foreground.iter().enumerate() {
                    if pages > 0 {
                        let svc = self.devices[d].serve(dispatch, IoOp::Read, req.lpn, pages);
                        if critical.is_none_or(|(_, c)| svc.completion_us > c.completion_us) {
                            critical = Some((d, svc));
                        }
                    }
                }
                migrated
            }
        };
        let mut completion = dispatch;
        if let Some((device, svc)) = critical {
            completion = svc.completion_us;
            self.last_detail = AccessDetail {
                device,
                queue_us: (svc.start_us - dispatch).max(0.0),
                transfer_us: svc.service_us,
            };
        }
        // Pages a read moved are already in host memory, so the move
        // costs one background write (a write's moves are the write).
        if req.op == IoOp::Read && migrated > 0 {
            let _ = self.devices[target.0].serve(completion, IoOp::Write, req.lpn, migrated);
        }
        let latency = completion - arrival;

        // Background eviction wherever capacity overflowed (cascades from
        // fastest to slowest), as bulk transfers behind the request.
        self.res.evict_overflow(self.seq);
        let evicted_pages = self.res.transfers.len() as u64;
        let mut eviction_us = 0.0f64;
        for route in self.res.routes() {
            let (read_us, write_us) = background_transfer(&mut self.devices, route, completion);
            eviction_us += read_us + write_us;
        }

        self.refresh_utilizations();
        self.res.record_access(self.seq);

        self.stats.total_requests += 1;
        match req.op {
            IoOp::Read => self.stats.reads += 1,
            IoOp::Write => self.stats.writes += 1,
        }
        self.stats.sum_latency_us += latency;
        self.stats.max_latency_us = self.stats.max_latency_us.max(latency);
        self.stats.last_completion_us = self.stats.last_completion_us.max(completion);
        self.stats.histogram.record(latency as u64);
        self.stats.eviction_events += u64::from(evicted_pages > 0);
        self.stats.evicted_pages += evicted_pages;
        self.stats.eviction_time_us += eviction_us;
        self.stats.migrated_pages += migrated;
        self.completions.push_back(completion);

        AccessOutcome {
            target,
            arrival_us: arrival,
            completion_us: completion,
            latency_us: latency,
            eviction_us,
            evicted_pages,
            migrated_pages: migrated,
        }
    }

    /// Executes a batch of background page moves — the migration
    /// subsystem's promotions (slow → fast) and demotions (fast → slow) —
    /// with full bandwidth accounting: each source device serves one bulk
    /// read per contiguous run of moved pages and each destination one
    /// log-structured append write, all starting no earlier than
    /// `not_before_us`. The I/O advances the involved devices' clocks, so
    /// foreground requests arriving afterwards queue behind the migration
    /// traffic (the same §10 spirit as charging NN time: background work
    /// is not free).
    ///
    /// Moves are validated in order: a move is *skipped* (counted in
    /// [`MigrationOutcome::skipped`]) when the page is unknown, already
    /// resident on the destination, or the destination device has no free
    /// capacity left — migration must never trigger the capacity-eviction
    /// cascade it exists to avoid. Policies should therefore order
    /// demotions before promotions so freed fast capacity is usable
    /// within the same batch.
    ///
    /// # Panics
    ///
    /// Panics if any destination device id is out of range.
    pub fn migrate_batch(&mut self, moves: &[PageMove], not_before_us: f64) -> MigrationOutcome {
        let mut outcome = MigrationOutcome::default();
        (
            outcome.promoted_pages,
            outcome.demoted_pages,
            outcome.skipped,
        ) = self.res.migrate(moves, self.seq);
        for route in self.res.routes() {
            let (read_us, write_us) = background_transfer(&mut self.devices, route, not_before_us);
            outcome.busy_us += read_us + write_us;
            outcome.read_us += read_us;
            outcome.write_us += write_us;
        }
        if outcome.moved_pages() > 0 {
            self.stats.bg_migration_events += 1;
            self.stats.bg_promoted_pages += outcome.promoted_pages;
            self.stats.bg_demoted_pages += outcome.demoted_pages;
            self.stats.bg_migration_us += outcome.busy_us;
            self.refresh_utilizations();
        }
        outcome
    }

    /// Refreshes every device's utilization (resident/capacity) for the
    /// GC debt models.
    fn refresh_utilizations(&mut self) {
        for (d, device) in self.devices.iter_mut().enumerate() {
            let used = self.res.dir.used_pages(DeviceId(d)) as f64;
            device.set_utilization(match self.res.capacities[d] {
                0 | u64::MAX => 0.0,
                cap => used / cap as f64,
            });
        }
    }
}

/// Prices one background bulk move — an eviction's victims or one
/// `migrate_batch` group: `route` is the pages leaving one device for
/// another, ascending. The pages are usually scattered across the source
/// device, so it serves one read command per contiguous run, each
/// arriving at `not_before` (µs); the destination write is a single
/// log-structured append once the last read is done (the management layer
/// owns the mapping, so moved data lands wherever the device's write head
/// is — sequential even on an HDD). Returns the source's total read
/// service time and the destination's write service time (µs).
fn background_transfer(devices: &mut [Device], route: &[Transfer], not_before: f64) -> (f64, f64) {
    let (from, to, _) = route[0];
    let mut read_us = 0.0f64;
    let mut reads_done = not_before;
    for run in route.chunk_by(|a, b| b.2 == a.2 + 1) {
        let rd = devices[from].serve(not_before, IoOp::Read, run[0].2, run.len() as u64);
        reads_done = reads_done.max(rd.completion_us);
        read_us += rd.service_us;
    }
    let wr = devices[to].serve_append(reads_done, IoOp::Write, route.len() as u64);
    (read_us, wr.service_us)
}

#[cfg(test)]
pub(crate) mod tests;
