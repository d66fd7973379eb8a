//! The timing half against an independent queue model, and its
//! invariants on the real device presets.
//!
//! Residency has [`ModelDirectory`]; this is the same thing for time. On
//! *flat-latency* devices (no GC, write buffer or seek: a command costs
//! `base + pages × per_page`) the model directory says which pages each
//! device serves and which move, [`QueueModel`] — one `next_free` per
//! device and the replay window as a plain list of completions — says
//! when, and the real manager must agree on every time it reports.

use super::super::*;
use crate::device::DeviceSpec;
use crate::directory::tests::ModelDirectory;
use proptest::prelude::*;
use sibyl_trace::PAGE_SIZE_BYTES;
use std::collections::BTreeMap;

/// One step of the properties, as in the directory's lockstep test:
/// `(kind, lpn, pages, device, salt)` — kinds 0..=3 read, 4..=6 write,
/// 7..=8 run a `migrate_batch` built by [`step_moves`].
type Step = (u8, u64, u32, usize, u64);

/// The directory lockstep test's step generator.
fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (0u8..9, 0u64..40, 1u32..7, 0usize..3, 0u64..u64::MAX),
        1..60,
    )
}

/// Up to six moves over nearby pages, destinations from the salt: unknown
/// pages, no-op moves and capacity-blocked moves all occur.
fn step_moves(lpn: u64, pages: u32, salt: u64) -> Vec<PageMove> {
    (0..u64::from(pages))
        .map(|k| PageMove {
            lpn: (lpn + k * (1 + salt % 5)) % 44,
            to: DeviceId(((salt >> (2 * k)) % 3) as usize),
        })
        .collect()
}

/// `[read, write]` cost of a command on one flat device, each as
/// `(base_us, us_per_page)`.
type FlatCost = [(f64, f64); 2];

/// Three flat-latency devices with distinct constants, as `(read base,
/// write base, read MB/s, write MB/s)`.
const FLAT: [(f64, f64, f64, f64); 3] = [
    (7.0, 11.0, 2000.0, 1500.0),
    (31.0, 43.0, 500.0, 400.0),
    (90.0, 120.0, 150.0, 100.0),
];

fn flat_spec(
    &(read_base_us, write_base_us, read_bw_mbps, write_bw_mbps): &(f64, f64, f64, f64),
) -> DeviceSpec {
    DeviceSpec {
        read_base_us,
        write_base_us,
        read_bw_mbps,
        write_bw_mbps,
        ..DeviceSpec::optane_ssd()
    }
}

/// The independent timing model: FIFO devices and a closed-loop window.
struct QueueModel {
    costs: Vec<FlatCost>,
    next_free: Vec<f64>,
    /// Completions of the foreground requests still outstanding, oldest
    /// first.
    window: Vec<f64>,
    depth: usize,
}

impl QueueModel {
    fn new(depth: usize) -> Self {
        let per_page = |mbps: f64| PAGE_SIZE_BYTES as f64 / mbps; // MB/s = bytes/µs
        QueueModel {
            costs: (FLAT.iter())
                .map(|&(rb, wb, r, w)| [(rb, per_page(r)), (wb, per_page(w))])
                .collect(),
            next_free: vec![0.0; FLAT.len()],
            window: Vec::new(),
            depth,
        }
    }

    /// One command of `pages` pages on device `d` issued at `at`; returns
    /// `(start, service)`.
    fn command(&mut self, d: usize, op: IoOp, pages: u64, at: f64) -> (f64, f64) {
        let (base, per_page) = self.costs[d][usize::from(op == IoOp::Write)];
        let start = at.max(self.next_free[d]);
        let service = base + pages as f64 * per_page;
        self.next_free[d] = start + service;
        (start, service)
    }

    /// When a request stamped `timestamp` arrives: held back until the
    /// oldest outstanding one completes once `depth` are in flight.
    fn arrive(&mut self, timestamp: u64) -> f64 {
        let mut arrival = timestamp as f64;
        if self.window.len() >= self.depth {
            arrival = arrival.max(self.window.remove(0));
        }
        arrival
    }

    /// Every background move of `moved`, one bulk transfer per `from →
    /// to` route in ascending route order: one read per contiguous run
    /// of the route's sorted pages, all issued at `at`, then one write of
    /// them all once the last read is done. Returns `(read_us, write_us)`
    /// per route.
    fn transfers(&mut self, moved: &[(usize, usize, u64)], at: f64) -> Vec<(f64, f64)> {
        let mut routes: BTreeMap<(usize, usize), Vec<u64>> = BTreeMap::new();
        for &(from, to, lpn) in moved {
            routes.entry((from, to)).or_default().push(lpn);
        }
        let mut priced = Vec::new();
        for ((from, to), mut pages) in routes {
            pages.sort_unstable();
            let (mut read_us, mut reads_done, mut k) = (0.0, at, 0);
            while k < pages.len() {
                let mut len = 1;
                while k + len < pages.len() && pages[k + len] == pages[k] + len as u64 {
                    len += 1;
                }
                let (start, service) = self.command(from, IoOp::Read, len as u64, at);
                reads_done = f64::max(reads_done, start + service);
                read_us += service;
                k += len;
            }
            let (_, write_us) = self.command(to, IoOp::Write, pages.len() as u64, reads_done);
            priced.push((read_us, write_us));
        }
        priced
    }
}

/// Equal to 1e-9 relative (with an absolute floor of 1e-9 µs for the
/// values that are differences of nearly equal times).
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs()))
}

macro_rules! prop_assert_close {
    ($ours:expr, $model:expr, $what:expr, $at:expr) => {
        prop_assert!(
            close($ours, $model),
            "{}: {} vs model {} {}",
            $what,
            $ours,
            $model,
            $at
        )
    };
}

proptest! {
    /// The timing half in lockstep with [`QueueModel`] on flat-latency
    /// devices: after every step of the directory test's step generator
    /// (plus a replay window of 1..6 and a decision delay) the manager's
    /// arrival, completion, latency, eviction time, critical-arm detail,
    /// migration read/write times, device clocks and every latency field
    /// of `HssStats` equal the model's.
    #[test]
    fn request_timing_matches_the_queue_model(
        steps in steps(),
        caps in (0u64..5, 0u64..7),
        depth in 1usize..7,
    ) {
        let caps = [caps.0, caps.1, u64::MAX];
        let devices: Vec<DeviceSpec> = FLAT.iter().map(flat_spec).collect();
        let cfg = HssConfig::tri(devices[0].clone(), devices[1].clone(), devices[2].clone())
            .with_capacity_pages(caps.to_vec())
            .with_queue_window(depth);
        let mut m = StorageManager::new(&cfg);
        let mut model = ModelDirectory::new(3);
        let mut queue = QueueModel::new(depth);
        let mut expect = HssStats::new(3);
        for (n, &(kind, lpn, pages, device, salt)) in steps.iter().enumerate() {
            let at = format!("after step {n} {:?}", steps[n]);
            match kind {
                0..=6 => {
                    let op = if kind < 4 { IoOp::Read } else { IoOp::Write };
                    let req = IoRequest::new(n as u64 * 10, lpn, pages, op);
                    let delay = (salt % 3) as f64 * 4.5;
                    // Which device serves how many pages in the foreground.
                    let mut foreground = [0u64; 3];
                    for p in req.pages() {
                        let d = if op == IoOp::Write { device } else { model.device(p).unwrap_or(2) };
                        foreground[d] += 1;
                    }
                    let out = m.access_after(&req, DeviceId(device), delay);
                    let (evicted, migrated) = model.access(&req, device, &caps);

                    let arrival = queue.arrive(req.timestamp_us);
                    let dispatch = arrival + delay;
                    let mut completion = dispatch;
                    let mut critical = (0, 0.0, 0.0); // device, queue, transfer
                    for d in (0..3).filter(|&d| foreground[d] > 0) {
                        let (start, service) = queue.command(d, op, foreground[d], dispatch);
                        if start + service > completion {
                            completion = start + service;
                            critical = (d, start - dispatch, service);
                        }
                    }
                    if op == IoOp::Read && migrated > 0 {
                        queue.command(device, IoOp::Write, migrated, completion);
                    }
                    let eviction_us: f64 = (queue.transfers(&model.moved, completion).iter())
                        .map(|&(read_us, write_us)| read_us + write_us)
                        .sum();
                    queue.window.push(completion);
                    let latency = completion - arrival;

                    prop_assert_close!(out.arrival_us, arrival, "arrival", at);
                    prop_assert_close!(out.completion_us, completion, "completion", at);
                    prop_assert_close!(out.latency_us, latency, "latency", at);
                    prop_assert_close!(out.eviction_us, eviction_us, "eviction time", at);
                    prop_assert_eq!((out.evicted_pages, out.migrated_pages), (evicted, migrated));
                    let detail = m.last_access_detail();
                    prop_assert!(detail.device == critical.0, "critical device {at}");
                    prop_assert_close!(detail.queue_us, critical.1, "critical queue", at);
                    prop_assert_close!(detail.transfer_us, critical.2, "critical transfer", at);

                    if expect.total_requests == 0 {
                        expect.first_arrival_us = arrival;
                    }
                    expect.total_requests += 1;
                    expect.sum_latency_us += latency;
                    expect.max_latency_us = expect.max_latency_us.max(latency);
                    expect.last_completion_us = expect.last_completion_us.max(completion);
                    expect.eviction_time_us += eviction_us;
                    // Samples truncate to whole µs, where a last-bit
                    // difference could land in another bucket: bin the
                    // latency just checked against the model's.
                    expect.histogram.record(out.latency_us as u64);
                }
                _ => {
                    let moves = step_moves(lpn, pages, salt);
                    let not_before = n as f64 * 10.0;
                    let out = m.migrate_batch(&moves, not_before);
                    let _ = model.migrate(&moves, &caps);
                    let (mut read_us, mut write_us) = (0.0, 0.0);
                    for (r, w) in queue.transfers(&model.moved, not_before) {
                        read_us += r;
                        write_us += w;
                    }
                    prop_assert_close!(out.read_us, read_us, "migration read", at);
                    prop_assert_close!(out.write_us, write_us, "migration write", at);
                    prop_assert_close!(out.busy_us, read_us + write_us, "migration busy", at);
                    expect.bg_migration_us += read_us + write_us;
                }
            }
            for d in 0..3 {
                let clock = m.device(DeviceId(d)).next_free_us();
                prop_assert_close!(clock, queue.next_free[d], format!("clock of {d}"), at);
            }
            let st = m.stats();
            prop_assert_close!(st.sum_latency_us, expect.sum_latency_us, "sum latency", at);
            prop_assert_close!(st.max_latency_us, expect.max_latency_us, "max latency", at);
            prop_assert_close!(st.first_arrival_us, expect.first_arrival_us, "first arrival", at);
            prop_assert_close!(st.last_completion_us, expect.last_completion_us, "last completion", at);
            prop_assert_close!(st.eviction_time_us, expect.eviction_time_us, "eviction time total", at);
            prop_assert_close!(st.bg_migration_us, expect.bg_migration_us, "migration time total", at);
            prop_assert!(st.histogram == expect.histogram, "latency histogram {at}");
        }
    }

    /// What must hold of the timing half whatever the devices do, checked
    /// on the real presets (Optane / TLC / HDD: write buffer, GC, seeks)
    /// after every step: capacity respected, device clocks monotone, the
    /// window honoured, latency measured from the window-delayed arrival,
    /// the stats equal to the running sums of the outcomes, and pages
    /// conserved across the device counters.
    #[test]
    fn timing_invariants_hold_on_the_real_presets(
        steps in steps(),
        caps in (0u64..5, 0u64..7),
        depth in 1usize..7,
    ) {
        let caps = [caps.0, caps.1, u64::MAX];
        let cfg = HssConfig::tri(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(caps.to_vec())
            .with_queue_window(depth);
        let mut m = StorageManager::new(&cfg);
        let mut clocks = [0.0f64; 3];
        let mut completions: Vec<f64> = Vec::new();
        let (mut sum_latency, mut sum_eviction) = (0.0f64, 0.0f64);
        // Pages the device counters must account for.
        let (mut pages_read, mut pages_written) = (0u64, 0u64);
        for (n, &(kind, lpn, pages, device, salt)) in steps.iter().enumerate() {
            let at = format!("after step {n} {:?}", steps[n]);
            match kind {
                0..=6 => {
                    let op = if kind < 4 { IoOp::Read } else { IoOp::Write };
                    let req = IoRequest::new(n as u64 * 10, lpn, pages, op);
                    let out = m.access(&req, DeviceId(device));
                    prop_assert!(out.arrival_us >= req.timestamp_us as f64, "early arrival {at}");
                    prop_assert!(
                        out.latency_us.to_bits() == (out.completion_us - out.arrival_us).to_bits(),
                        "latency is not completion − arrival {at}"
                    );
                    if let Some(k) = completions.len().checked_sub(depth) {
                        prop_assert!(
                            out.arrival_us >= completions[k],
                            "request {} arrived at {} before request {k} completed at {} {at}",
                            completions.len(), out.arrival_us, completions[k]
                        );
                    }
                    completions.push(out.completion_us);
                    sum_latency += out.latency_us;
                    sum_eviction += out.eviction_us;
                    match op {
                        IoOp::Read => {
                            pages_read += u64::from(pages);
                            pages_written += out.migrated_pages;
                        }
                        IoOp::Write => pages_written += u64::from(pages),
                    }
                    pages_read += out.evicted_pages;
                    pages_written += out.evicted_pages;
                }
                _ => {
                    let out = m.migrate_batch(&step_moves(lpn, pages, salt), n as f64 * 10.0);
                    // Equal only up to float-addition order, as its doc says.
                    prop_assert_close!(out.busy_us, out.read_us + out.write_us, "busy", at);
                    pages_read += out.moved_pages();
                    pages_written += out.moved_pages();
                }
            }
            let mut counted = (0, 0);
            for d in 0..3 {
                let dev = m.device(DeviceId(d));
                prop_assert!(m.directory().used_pages(DeviceId(d)) <= caps[d], "device {d} over capacity {at}");
                prop_assert!(dev.next_free_us() >= clocks[d], "clock of {d} ran backwards {at}");
                clocks[d] = dev.next_free_us();
                counted.0 += dev.stats().pages_read;
                counted.1 += dev.stats().pages_written;
            }
            prop_assert_eq!(counted, (pages_read, pages_written));
            let st = m.stats();
            prop_assert!(st.sum_latency_us.to_bits() == sum_latency.to_bits(), "sum latency {at}");
            prop_assert!(st.eviction_time_us.to_bits() == sum_eviction.to_bits(), "eviction time {at}");
            prop_assert_eq!(st.histogram.count(), st.total_requests);
        }
    }
}
