//! System-level statistics collected by the storage manager.

use sibyl_telemetry::Log2Histogram;

/// Aggregate statistics for one simulation run. Deliberately not serde:
/// the dependency-free telemetry histogram could only be skipped, and a
/// round trip that silently lost the latency distribution would be worse.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HssStats {
    /// Requests served.
    pub total_requests: u64,
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Sum of per-request latencies (µs).
    pub sum_latency_us: f64,
    /// Largest single-request latency (µs).
    pub max_latency_us: f64,
    /// First request arrival time (µs).
    pub first_arrival_us: f64,
    /// Last request completion time (µs).
    pub last_completion_us: f64,
    /// Background eviction events (fast → slower migrations forced by
    /// capacity).
    pub eviction_events: u64,
    /// Pages evicted.
    pub evicted_pages: u64,
    /// Time spent evicting (µs), the paper's `L_e`.
    pub eviction_time_us: f64,
    /// Pages promoted/migrated toward the policy's chosen target.
    pub migrated_pages: u64,
    /// Background-migration batches that moved at least one page
    /// ([`StorageManager::migrate_batch`](crate::StorageManager) calls).
    pub bg_migration_events: u64,
    /// Pages moved to a faster device by background migration.
    pub bg_promoted_pages: u64,
    /// Pages moved to a slower device by background migration.
    pub bg_demoted_pages: u64,
    /// Device time consumed by background-migration I/O (µs) — charged
    /// against the devices' clocks, so it is contention foreground
    /// requests can observe.
    pub bg_migration_us: f64,
    /// Per-device count of requests the policy targeted at that device
    /// (numerators of the paper's Fig. 17 fast-placement preference).
    pub placements: Vec<u64>,
    /// Latency distribution, in whole microseconds (samples truncate).
    /// The serving engine merges this very histogram into its
    /// `serve.latency_us` telemetry, so the two can never disagree.
    pub histogram: Log2Histogram,
}

impl HssStats {
    /// Creates zeroed stats for `n_devices` devices.
    pub fn new(n_devices: usize) -> Self {
        HssStats {
            placements: vec![0; n_devices],
            ..Default::default()
        }
    }

    /// Folds the run's storage accounting into a telemetry registry
    /// under the `hss.` namespace: request/eviction/migration counters
    /// plus latency and throughput gauges. Every value is derived from
    /// simulated time and logical counts — no wall clock — so recording
    /// is deterministic.
    pub fn record_registry(&self, registry: &mut sibyl_telemetry::Registry) {
        registry.counter_add("hss.requests", self.total_requests);
        registry.counter_add("hss.reads", self.reads);
        registry.counter_add("hss.writes", self.writes);
        registry.counter_add("hss.eviction_events", self.eviction_events);
        registry.counter_add("hss.evicted_pages", self.evicted_pages);
        registry.counter_add("hss.migrated_pages", self.migrated_pages);
        registry.counter_add("hss.bg_migration_events", self.bg_migration_events);
        registry.counter_add("hss.bg_promoted_pages", self.bg_promoted_pages);
        registry.counter_add("hss.bg_demoted_pages", self.bg_demoted_pages);
        registry.gauge_set("hss.avg_latency_us", self.avg_latency_us());
        registry.gauge_set("hss.max_latency_us", self.max_latency_us);
        registry.gauge_set("hss.iops", self.iops());
        registry.gauge_set("hss.eviction_fraction", self.eviction_fraction());
        for (device, &count) in self.placements.iter().enumerate() {
            registry.counter_add(&format!("hss.placements.device{device}"), count);
        }
    }

    /// Average request latency in microseconds (the paper's primary
    /// metric).
    pub fn avg_latency_us(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.sum_latency_us / self.total_requests as f64
        }
    }

    /// Request throughput in I/O operations per second (the paper's
    /// second metric, Fig. 10).
    pub fn iops(&self) -> f64 {
        let span = self.last_completion_us - self.first_arrival_us;
        if span <= 0.0 {
            0.0
        } else {
            self.total_requests as f64 / span * 1e6
        }
    }

    /// Evictions as a fraction of all requests (Fig. 18's y-axis).
    pub fn eviction_fraction(&self) -> f64 {
        if self.total_requests == 0 {
            0.0
        } else {
            self.eviction_events as f64 / self.total_requests as f64
        }
    }

    /// Fraction of requests the policy placed on `device`
    /// (Fig. 17: preference for the fast device is `placement_fraction(0)`).
    pub fn placement_fraction(&self, device: usize) -> f64 {
        let total: u64 = self.placements.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.placements.get(device).copied().unwrap_or(0) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_latency_divides_by_requests() {
        let mut s = HssStats::new(2);
        s.total_requests = 4;
        s.sum_latency_us = 100.0;
        assert!((s.avg_latency_us() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = HssStats::new(2);
        assert_eq!(s.avg_latency_us(), 0.0);
        assert_eq!(s.iops(), 0.0);
        assert_eq!(s.eviction_fraction(), 0.0);
        assert_eq!(s.placement_fraction(0), 0.0);
    }

    #[test]
    fn iops_uses_wall_span() {
        let mut s = HssStats::new(1);
        s.total_requests = 1_000;
        s.first_arrival_us = 0.0;
        s.last_completion_us = 1e6; // one second
        assert!((s.iops() - 1_000.0).abs() < 1e-6);
    }

    #[test]
    fn placement_fraction_normalizes() {
        let mut s = HssStats::new(2);
        s.placements = vec![30, 10];
        assert!((s.placement_fraction(0) - 0.75).abs() < 1e-9);
        assert!((s.placement_fraction(1) - 0.25).abs() < 1e-9);
        assert_eq!(s.placement_fraction(7), 0.0);
    }
}
