//! System-level statistics collected by the storage manager.

use sibyl_telemetry::Log2Histogram;

/// Statistics for one simulation run, or — folded together by
/// [`HssStats::merge`] — for every shard of a sharded one.
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

    /// Folds another run's statistics into these — how a sharded run's
    /// shards become one [`Metrics`](crate::Metrics). Counters, latency
    /// and busy-time sums and per-device placements add, the largest
    /// latency is kept and the histograms merge. The busy span runs from
    /// the earliest first arrival to the latest last completion of the
    /// runs that served a request: an idle run never arrived, and its
    /// zeroed span must not pull the start back to 0.
    pub fn merge(&mut self, other: &HssStats) {
        if other.total_requests > 0 {
            if self.total_requests == 0 {
                self.first_arrival_us = other.first_arrival_us;
                self.last_completion_us = other.last_completion_us;
            } else {
                self.first_arrival_us = self.first_arrival_us.min(other.first_arrival_us);
                self.last_completion_us = self.last_completion_us.max(other.last_completion_us);
            }
        }
        self.total_requests += other.total_requests;
        self.reads += other.reads;
        self.writes += other.writes;
        self.sum_latency_us += other.sum_latency_us;
        self.max_latency_us = self.max_latency_us.max(other.max_latency_us);
        self.eviction_events += other.eviction_events;
        self.evicted_pages += other.evicted_pages;
        self.eviction_time_us += other.eviction_time_us;
        self.migrated_pages += other.migrated_pages;
        self.bg_migration_events += other.bg_migration_events;
        self.bg_promoted_pages += other.bg_promoted_pages;
        self.bg_demoted_pages += other.bg_demoted_pages;
        self.bg_migration_us += other.bg_migration_us;
        if self.placements.len() < other.placements.len() {
            self.placements.resize(other.placements.len(), 0);
        }
        for (mine, theirs) in self.placements.iter_mut().zip(&other.placements) {
            *mine += theirs;
        }
        self.histogram.merge(&other.histogram);
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

    /// A shard that served `requests` between `span.0` and `span.1`, with
    /// every field set.
    fn serving(requests: u64, span: (f64, f64)) -> HssStats {
        let mut s = HssStats::new(2);
        s.total_requests = requests;
        s.reads = requests / 4;
        s.writes = requests - requests / 4;
        s.sum_latency_us = 12.5 * requests as f64;
        s.max_latency_us = 30.0 + requests as f64;
        s.first_arrival_us = span.0;
        s.last_completion_us = span.1;
        s.eviction_events = requests / 10;
        s.evicted_pages = requests / 5;
        s.eviction_time_us = 0.75 * requests as f64;
        s.migrated_pages = 3;
        s.bg_migration_events = 1;
        s.bg_promoted_pages = 2;
        s.bg_demoted_pages = 1;
        s.bg_migration_us = 40.0;
        s.placements = vec![requests - requests / 3, requests / 3];
        for v in 0..requests {
            s.histogram.record(v % 50);
        }
        s
    }

    fn merged<'a>(shards: impl IntoIterator<Item = &'a HssStats>) -> HssStats {
        let mut all = HssStats::new(2);
        for shard in shards {
            all.merge(shard);
        }
        all
    }

    #[test]
    fn merging_one_shard_into_new_stats_is_that_shard() {
        let shard = serving(120, (7.0, 9e5));
        assert_eq!(merged([&shard]), shard);
    }

    #[test]
    fn merge_sums_counters_and_spans_only_the_serving_shards() {
        let (a, b) = (serving(100, (5.0, 1e6)), serving(300, (2.0, 2e6)));
        let both = merged([&a, &b]);
        assert_eq!(both.total_requests, 400);
        assert_eq!((both.reads, both.writes), (100, 300));
        assert_eq!(both.sum_latency_us, 5_000.0);
        assert_eq!(both.max_latency_us, 330.0);
        assert_eq!((both.first_arrival_us, both.last_completion_us), (2.0, 2e6));
        assert_eq!(both.placements, vec![267, 133]);
        assert_eq!(both.histogram.count(), 400);
        // An idle shard before, between or after them changes no field —
        // its zeroed arrival time is not the span's start.
        let idle = HssStats::new(2);
        for order in [[&idle, &a, &b], [&a, &idle, &b], [&a, &b, &idle]] {
            assert_eq!(merged(order), both);
        }
    }
}
