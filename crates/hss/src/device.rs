//! Storage-device latency models.
//!
//! The paper evaluates on four real devices (Table 3): an Intel Optane
//! P4800X (H), an Intel D3-S4510 TLC SSD (M), a Seagate 7200-RPM HDD (L),
//! and an ADATA SU630 DRAM-less SSD (Lssd). Sibyl never reads a datasheet —
//! everything it learns arrives through request latency — so the models
//! here reproduce the latency *behaviours* the paper calls out (§1, §5):
//!
//! - asymmetric read/write base latencies within a device,
//! - bandwidth-proportional transfer time,
//! - a write buffer that absorbs bursts and then saturates,
//! - garbage-collection stalls that grow with write pressure
//!   (deterministic debt model, so simulations are reproducible),
//! - seek + rotational positioning cost on the HDD, waived for
//!   sequential continuation,
//! - FIFO queueing per device.

use sibyl_trace::{IoOp, PAGE_SIZE_BYTES};

/// Identifies one device within an HSS; `DeviceId(0)` is by convention the
/// fastest device and higher ids are progressively slower (the paper's
/// H, M, L ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub usize);

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Broad device technology class, which decides which latency mechanisms
/// apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceKind {
    /// Low-latency NVM (Optane-class): flat latency, no GC to speak of.
    NvmSsd,
    /// NAND flash SSD: write buffer + garbage collection.
    FlashSsd,
    /// Rotating disk: seek and rotational positioning dominate.
    Hdd,
}

/// Static description of a storage device's performance characteristics.
///
/// Use the preset constructors ([`DeviceSpec::optane_ssd`],
/// [`DeviceSpec::tlc_ssd`], [`DeviceSpec::hdd`], [`DeviceSpec::cheap_ssd`])
/// for the paper's Table 3 devices, or build custom specs for sensitivity
/// studies.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable device name.
    pub name: String,
    /// Technology class.
    pub kind: DeviceKind,
    /// Fixed per-read-command latency in microseconds.
    pub read_base_us: f64,
    /// Fixed per-write-command latency in microseconds.
    pub write_base_us: f64,
    /// Sequential read bandwidth in MB/s.
    pub read_bw_mbps: f64,
    /// Sequential write bandwidth in MB/s.
    pub write_bw_mbps: f64,
    /// Pages the internal write buffer absorbs at reduced latency
    /// (flash only; 0 disables).
    pub write_buffer_pages: u64,
    /// Latency of a buffered write in microseconds.
    pub buffered_write_us: f64,
    /// Rate at which the buffer drains to NAND in MB/s (sustained random
    /// program throughput, well below the interface bandwidth).
    pub buffer_drain_mbps: f64,
    /// Utilization (0..1) beyond which garbage collection starts charging.
    pub gc_threshold: f64,
    /// GC stall duration in microseconds, charged when enough debt accrues.
    pub gc_pause_us: f64,
    /// Pages written per GC stall once above the threshold (lower ⇒ more
    /// frequent stalls).
    pub gc_pages_per_pause: u64,
    /// Full-stroke seek time in microseconds (HDD only).
    pub seek_us: f64,
    /// Track-to-track (minimum) seek time in microseconds (HDD only).
    pub seek_min_us: f64,
    /// Rotational latency in microseconds, charged to every
    /// non-sequential command whatever is queued (HDD only).
    pub rotational_us: f64,
    /// Addressable span in pages used by the seek-distance curve (HDD
    /// only).
    pub span_pages: u64,
}

/// The presets: a constant marked *T3* restates what this tree attributes
/// to the paper's Table 3 (device, interface, bandwidths, the 21 K
/// random-write IOPS); every other one is *illustrative* — a plausible
/// value of the right order, not a measurement of that device.
impl DeviceSpec {
    /// Intel Optane SSD P4800X — the paper's high-end device **H**
    /// (T3: 375 GB, PCIe NVMe, R/W 2.4/2.0 GB/s, ~550K/500K IOPS).
    pub fn optane_ssd() -> Self {
        DeviceSpec {
            name: "optane-p4800x".to_string(),
            kind: DeviceKind::NvmSsd,
            read_base_us: 8.0,     // illustrative (per-command latency)
            write_base_us: 10.0,   // illustrative
            read_bw_mbps: 2400.0,  // T3
            write_bw_mbps: 2000.0, // T3
            write_buffer_pages: 0,
            buffered_write_us: 0.0,
            buffer_drain_mbps: 0.0,
            gc_threshold: 1.1, // never triggers
            gc_pause_us: 0.0,
            gc_pages_per_pause: u64::MAX,
            seek_us: 0.0,
            seek_min_us: 0.0,
            rotational_us: 0.0,
            span_pages: 0,
        }
    }

    /// Intel SSD D3-S4510 — the paper's middle-end device **M**
    /// (T3: 1.92 TB SATA TLC, R/W 550/510 MB/s, random write 21K IOPS).
    pub fn tlc_ssd() -> Self {
        DeviceSpec {
            name: "tlc-s4510".to_string(),
            kind: DeviceKind::FlashSsd,
            read_base_us: 36.0,       // illustrative
            write_base_us: 48.0,      // T3: 1/21K IOPS sustained random writes
            read_bw_mbps: 550.0,      // T3
            write_bw_mbps: 510.0,     // T3
            write_buffer_pages: 2048, // illustrative
            buffered_write_us: 20.0,  // illustrative
            buffer_drain_mbps: 90.0,  // T3: ~21K random-write IOPS × 4 KiB
            gc_threshold: 0.70,       // illustrative, as the pause and its period
            gc_pause_us: 2_000.0,
            gc_pages_per_pause: 512,
            seek_us: 0.0,
            seek_min_us: 0.0,
            rotational_us: 0.0,
            span_pages: 0,
        }
    }

    /// Seagate ST1000DM010 — the paper's low-end device **L**
    /// (T3: 1 TB 7200 RPM SATA, 210 MB/s sustained).
    pub fn hdd() -> Self {
        DeviceSpec {
            name: "hdd-st1000".to_string(),
            kind: DeviceKind::Hdd,
            read_base_us: 50.0,   // illustrative
            write_base_us: 50.0,  // illustrative
            read_bw_mbps: 210.0,  // T3
            write_bw_mbps: 210.0, // T3
            write_buffer_pages: 0,
            buffered_write_us: 0.0,
            buffer_drain_mbps: 0.0,
            gc_threshold: 1.1,
            gc_pause_us: 0.0,
            gc_pages_per_pause: u64::MAX,
            seek_us: 8_000.0,   // illustrative seek curve: full stroke …
            seek_min_us: 500.0, // … and track-to-track
            // Illustrative: a constant 2 ms whatever is queued (half a
            // revolution at T3's 7200 RPM would be 4.17 ms). Whether it
            // should depend on queue depth is ROADMAP item 2's call.
            rotational_us: 2_000.0,
            span_pages: 244_000_000, // T3: 1 TB / 4 KiB
        }
    }

    /// ADATA SU630 — the paper's low-end SSD **Lssd**
    /// (T3: 960 GB SATA TLC, DRAM-less, 520/450 MB/s peak; "heavy GC" is
    /// this model's reading of DRAM-less, not a Table 3 figure).
    pub fn cheap_ssd() -> Self {
        DeviceSpec {
            name: "cheap-su630".to_string(),
            kind: DeviceKind::FlashSsd,
            read_base_us: 80.0,      // illustrative
            write_base_us: 140.0,    // illustrative
            read_bw_mbps: 520.0,     // T3
            write_bw_mbps: 450.0,    // T3
            write_buffer_pages: 512, // illustrative
            buffered_write_us: 60.0, // illustrative
            buffer_drain_mbps: 45.0, // illustrative: DRAM-less controller, slow folding
            gc_threshold: 0.50,      // illustrative, as the pause and its period
            gc_pause_us: 6_000.0,
            gc_pages_per_pause: 256,
            seek_us: 0.0,
            seek_min_us: 0.0,
            rotational_us: 0.0,
            span_pages: 0,
        }
    }

    /// Transfer time in microseconds for `pages` pages at `bw_mbps`.
    fn transfer_us(pages: u64, bw_mbps: f64) -> f64 {
        let bytes = pages as f64 * PAGE_SIZE_BYTES as f64;
        bytes / (bw_mbps * 1e6) * 1e6 // bytes / (MB/s) in µs
    }

    /// The minimum service time of a 1-page read: used by `sibyl-core` to
    /// scale rewards into the C51 support range.
    pub fn min_read_service_us(&self) -> f64 {
        self.read_base_us + Self::transfer_us(1, self.read_bw_mbps)
    }
}

/// Statistics one device accumulates during simulation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Read commands served.
    pub reads: u64,
    /// Write commands served.
    pub writes: u64,
    /// Pages read.
    pub pages_read: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Total busy time in microseconds.
    pub busy_us: f64,
    /// Garbage-collection stalls charged.
    pub gc_stalls: u64,
    /// Sequential accesses detected (seek waived).
    pub sequential_hits: u64,
}

/// A device instance: spec plus dynamic simulation state.
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    /// Time at which the device becomes idle (FIFO service).
    next_free_us: f64,
    /// End LPN of the last served command (sequentiality detection).
    last_end_lpn: Option<u64>,
    /// Write-buffer fill level in pages.
    buffer_fill: f64,
    /// Time of the last buffer-drain accounting.
    last_drain_us: f64,
    /// Deterministic GC debt in pages.
    gc_debt_pages: u64,
    /// Pages currently resident (utilization for GC purposes is computed
    /// by the manager against the configured capacity).
    utilization: f64,
    stats: DeviceStats,
}

/// Outcome of one device command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Service {
    /// When the command started (≥ arrival; the difference is queueing).
    pub start_us: f64,
    /// When the command completed.
    pub completion_us: f64,
    /// Pure service time (completion − start).
    pub service_us: f64,
}

impl Device {
    /// Creates an idle device from a spec.
    pub fn new(spec: DeviceSpec) -> Self {
        Device {
            spec,
            next_free_us: 0.0,
            last_end_lpn: None,
            buffer_fill: 0.0,
            last_drain_us: 0.0,
            gc_debt_pages: 0,
            utilization: 0.0,
            stats: DeviceStats::default(),
        }
    }

    /// The device's static spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Time at which the device next becomes idle.
    pub fn next_free_us(&self) -> f64 {
        self.next_free_us
    }

    /// Updates the utilization the GC model sees (resident/capacity).
    pub fn set_utilization(&mut self, utilization: f64) {
        self.utilization = utilization.clamp(0.0, 1.0);
    }

    /// Serves one command arriving at `arrival_us` covering `pages` pages
    /// starting at `lpn`. Returns queue/service timing and advances the
    /// device clock.
    pub fn serve(&mut self, arrival_us: f64, op: IoOp, lpn: u64, pages: u64) -> Service {
        let start = arrival_us.max(self.next_free_us);
        let service_us = self.command_latency_at(start, op, lpn, pages);
        let completion = start + service_us;
        self.next_free_us = completion;
        self.last_end_lpn = Some(lpn + pages);
        match op {
            IoOp::Read => {
                self.stats.reads += 1;
                self.stats.pages_read += pages;
            }
            IoOp::Write => {
                self.stats.writes += 1;
                self.stats.pages_written += pages;
            }
        }
        self.stats.busy_us += service_us;
        Service {
            start_us: start,
            completion_us: completion,
            service_us,
        }
    }

    /// Pure service latency of a command starting at `now_us`, including
    /// buffer/GC/seek effects, without advancing the clock.
    fn command_latency_at(&mut self, now_us: f64, op: IoOp, lpn: u64, pages: u64) -> f64 {
        let sequential = self.last_end_lpn == Some(lpn);
        if sequential {
            self.stats.sequential_hits += 1;
        }
        let positioning = if sequential {
            0.0
        } else {
            self.positioning_us(lpn)
        };
        match op {
            IoOp::Read => {
                self.spec.read_base_us
                    + DeviceSpec::transfer_us(pages, self.spec.read_bw_mbps)
                    + positioning
            }
            IoOp::Write => {
                let mut lat;
                if self.spec.kind == DeviceKind::FlashSsd && self.spec.write_buffer_pages > 0 {
                    self.drain_buffer(now_us);
                    if self.buffer_fill + pages as f64 <= self.spec.write_buffer_pages as f64 {
                        // Absorbed by the buffer.
                        self.buffer_fill += pages as f64;
                        lat = self.spec.buffered_write_us
                            + DeviceSpec::transfer_us(pages, self.spec.write_bw_mbps);
                    } else {
                        // Buffer saturated: pay the full program cost.
                        lat = self.spec.write_base_us
                            + DeviceSpec::transfer_us(pages, self.spec.write_bw_mbps);
                    }
                } else {
                    lat = self.spec.write_base_us
                        + DeviceSpec::transfer_us(pages, self.spec.write_bw_mbps);
                }
                lat += positioning;
                // Deterministic GC debt model: above the utilization
                // threshold every written page accrues debt; each
                // `gc_pages_per_pause` pages of debt costs one stall.
                if self.spec.kind == DeviceKind::FlashSsd
                    && self.utilization > self.spec.gc_threshold
                {
                    self.gc_debt_pages += pages;
                    if self.gc_debt_pages >= self.spec.gc_pages_per_pause {
                        self.gc_debt_pages -= self.spec.gc_pages_per_pause;
                        lat += self.spec.gc_pause_us;
                        self.stats.gc_stalls += 1;
                    }
                }
                lat
            }
        }
    }

    /// Serves a command at the device's current head/append position, so
    /// it is always sequential (no positioning cost). Used for eviction
    /// destination writes: the storage management layer owns the
    /// logical→physical mapping, so migrated data is written
    /// log-structured wherever the device left off.
    pub fn serve_append(&mut self, arrival_us: f64, op: IoOp, pages: u64) -> Service {
        let lpn = self.last_end_lpn.unwrap_or(0);
        self.serve(arrival_us, op, lpn, pages)
    }

    /// Head-positioning cost for an HDD command at `lpn`: a square-root
    /// seek-distance curve between track-to-track and full-stroke seek
    /// times, plus the constant rotational delay. Zero for non-rotating
    /// devices.
    fn positioning_us(&self, lpn: u64) -> f64 {
        if self.spec.kind != DeviceKind::Hdd || self.spec.span_pages == 0 {
            return 0.0;
        }
        let from = self.last_end_lpn.unwrap_or(0);
        let distance = from.abs_diff(lpn);
        let frac = (distance as f64 / self.spec.span_pages as f64).min(1.0);
        let seek =
            self.spec.seek_min_us + (self.spec.seek_us - self.spec.seek_min_us) * frac.sqrt();
        seek + self.spec.rotational_us
    }

    /// Drains the write buffer at the device's sustained NAND program
    /// rate since the last accounting instant.
    fn drain_buffer(&mut self, now_us: f64) {
        let elapsed = (now_us - self.last_drain_us).max(0.0);
        // MB/s → pages/µs: (mbps · 1e6 bytes/s) / (4096 bytes · 1e6 µs/s).
        let drained_pages = elapsed * self.spec.buffer_drain_mbps / PAGE_SIZE_BYTES as f64;
        self.buffer_fill = (self.buffer_fill - drained_pages).max(0.0);
        self.last_drain_us = now_us;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optane_is_fastest_hdd_slowest() {
        let h = DeviceSpec::optane_ssd();
        let m = DeviceSpec::tlc_ssd();
        let l = DeviceSpec::hdd();
        let lssd = DeviceSpec::cheap_ssd();
        assert!(h.min_read_service_us() < m.min_read_service_us());
        assert!(m.min_read_service_us() < lssd.min_read_service_us());
        // Random HDD read includes seek+rotation, far above any SSD.
        let mut hdd = Device::new(l);
        let s = hdd.serve(0.0, IoOp::Read, 1_000, 1);
        assert!(
            s.service_us > 2_000.0,
            "HDD random read {} µs",
            s.service_us
        );
    }

    #[test]
    fn queueing_delays_back_to_back_requests() {
        let mut d = Device::new(DeviceSpec::optane_ssd());
        let s1 = d.serve(0.0, IoOp::Read, 0, 1);
        let s2 = d.serve(0.0, IoOp::Read, 100, 1);
        assert_eq!(s2.start_us, s1.completion_us);
        // Both arrived at 0: the queued request's latency is longer.
        let arrival = 0.0;
        assert!(s2.completion_us - arrival > s1.completion_us - arrival);
    }

    #[test]
    fn idle_device_serves_immediately() {
        let mut d = Device::new(DeviceSpec::optane_ssd());
        let _ = d.serve(0.0, IoOp::Read, 0, 1);
        let s = d.serve(1_000_000.0, IoOp::Read, 10, 1);
        assert_eq!(s.start_us, 1_000_000.0);
    }

    #[test]
    fn hdd_sequential_skips_seek() {
        let mut d = Device::new(DeviceSpec::hdd());
        let s1 = d.serve(0.0, IoOp::Read, 0, 8);
        // Continues exactly at page 8 -> sequential.
        let s2 = d.serve(s1.completion_us, IoOp::Read, 8, 8);
        assert!(
            s2.service_us < s1.service_us / 10.0,
            "seq {} vs random {}",
            s2.service_us,
            s1.service_us
        );
        assert_eq!(d.stats().sequential_hits, 1);
    }

    #[test]
    fn flash_write_buffer_absorbs_then_saturates() {
        let mut spec = DeviceSpec::tlc_ssd();
        spec.write_buffer_pages = 8;
        let mut d = Device::new(spec);
        // All writes at t=0 so the buffer cannot drain.
        let buffered = d.serve(0.0, IoOp::Write, 0, 4);
        let buffered2 = d.serve(0.0, IoOp::Write, 100, 4);
        let saturated = d.serve(0.0, IoOp::Write, 200, 4);
        assert!(buffered.service_us < saturated.service_us);
        assert!((buffered.service_us - buffered2.service_us).abs() < 1.0);
    }

    #[test]
    fn write_buffer_drains_over_time() {
        let mut spec = DeviceSpec::tlc_ssd();
        spec.write_buffer_pages = 8;
        let mut d = Device::new(spec);
        // Fill the buffer.
        let _ = d.serve(0.0, IoOp::Write, 0, 8);
        // After a long idle period the buffer has drained.
        let later = d.serve(10_000_000.0, IoOp::Write, 100, 8);
        let expected_buffered = d.spec().buffered_write_us;
        assert!(
            later.service_us < expected_buffered + 100.0,
            "drained write {} µs",
            later.service_us
        );
    }

    #[test]
    fn gc_stalls_only_above_threshold() {
        let mut spec = DeviceSpec::cheap_ssd();
        spec.write_buffer_pages = 0; // isolate the GC path
        spec.gc_pages_per_pause = 8;
        let mut d = Device::new(spec);
        d.set_utilization(0.3); // below 0.5 threshold
        for i in 0..10 {
            let _ = d.serve(i as f64 * 1e6, IoOp::Write, i * 100, 4);
        }
        assert_eq!(d.stats().gc_stalls, 0);
        d.set_utilization(0.9);
        for i in 0..10 {
            let _ = d.serve(1e8 + i as f64 * 1e6, IoOp::Write, i * 100, 4);
        }
        assert!(d.stats().gc_stalls >= 4, "stalls: {}", d.stats().gc_stalls);
    }

    #[test]
    fn read_write_asymmetry_present_on_flash() {
        let mut spec = DeviceSpec::tlc_ssd();
        spec.write_buffer_pages = 0;
        let mut d = Device::new(spec);
        let r = d.serve(0.0, IoOp::Read, 0, 1);
        let w = d.serve(1e6, IoOp::Write, 1000, 1);
        assert!(w.service_us > r.service_us);
    }

    #[test]
    fn transfer_scales_with_size() {
        let mut d = Device::new(DeviceSpec::optane_ssd());
        let small = d.serve(0.0, IoOp::Read, 0, 1);
        let large = d.serve(1e6, IoOp::Read, 1, 64); // sequential; no extra seek anyway
        assert!(large.service_us > small.service_us);
    }

    #[test]
    fn stats_account_pages_and_busy_time() {
        let mut d = Device::new(DeviceSpec::optane_ssd());
        let s1 = d.serve(0.0, IoOp::Read, 0, 4);
        let s2 = d.serve(0.0, IoOp::Write, 10, 2);
        let st = d.stats();
        assert_eq!(st.reads, 1);
        assert_eq!(st.writes, 1);
        assert_eq!(st.pages_read, 4);
        assert_eq!(st.pages_written, 2);
        assert!((st.busy_us - (s1.service_us + s2.service_us)).abs() < 1e-9);
    }
}
