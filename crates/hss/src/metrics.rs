//! Run metrics in the paper's vocabulary.

use crate::HssStats;

/// The measurements a run produces — the paper's two primary metrics
/// (average request latency §8.1, request throughput Fig. 10) plus the
/// explainability counters of §9 (fast-device preference, eviction
/// fraction). One type for every run: a single simulation reads its
/// manager's [`HssStats`], a sharded serving run its shards' stats
/// folded together by [`HssStats::merge`].
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Requests served.
    pub total_requests: u64,
    /// Average request latency in microseconds.
    pub avg_latency_us: f64,
    /// Maximum request latency in microseconds.
    pub max_latency_us: f64,
    /// Approximate median latency (µs).
    pub p50_latency_us: f64,
    /// Approximate 99th-percentile latency (µs).
    pub p99_latency_us: f64,
    /// Request throughput in I/O operations per second.
    pub iops: f64,
    /// Eviction events as a fraction of all requests (Fig. 18).
    pub eviction_fraction: f64,
    /// Pages evicted in total.
    pub evicted_pages: u64,
    /// Pages migrated toward policy targets (promotions/demotions).
    pub migrated_pages: u64,
    /// Fraction of requests placed on the fastest device (Fig. 17's
    /// "preference for fast storage").
    pub fast_placement_fraction: f64,
    /// Per-device placement counts.
    pub placements: Vec<u64>,
}

impl Metrics {
    /// Extracts metrics from a finished manager's statistics.
    pub fn from_stats(stats: &HssStats) -> Self {
        Metrics {
            total_requests: stats.total_requests,
            avg_latency_us: stats.avg_latency_us(),
            max_latency_us: stats.max_latency_us,
            p50_latency_us: stats.histogram.percentile(0.50),
            p99_latency_us: stats.histogram.percentile(0.99),
            iops: stats.iops(),
            eviction_fraction: stats.eviction_fraction(),
            evicted_pages: stats.evicted_pages,
            migrated_pages: stats.migrated_pages,
            fast_placement_fraction: stats.placement_fraction(0),
            placements: stats.placements.clone(),
        }
    }

    /// This run's average latency normalized to a baseline's (the paper
    /// normalizes every latency figure to Fast-Only).
    pub fn normalized_latency(&self, baseline: &Metrics) -> f64 {
        if baseline.avg_latency_us <= 0.0 {
            0.0
        } else {
            self.avg_latency_us / baseline.avg_latency_us
        }
    }

    /// This run's IOPS normalized to a baseline's.
    pub fn normalized_iops(&self, baseline: &Metrics) -> f64 {
        if baseline.iops <= 0.0 {
            0.0
        } else {
            self.iops / baseline.iops
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> HssStats {
        let mut s = HssStats::new(2);
        s.total_requests = 10;
        s.sum_latency_us = 1_000.0;
        s.max_latency_us = 400.0;
        s.first_arrival_us = 0.0;
        s.last_completion_us = 1e6;
        s.eviction_events = 2;
        s.evicted_pages = 8;
        s.placements = vec![7, 3];
        s
    }

    #[test]
    fn from_stats_extracts_fields() {
        let m = Metrics::from_stats(&stats());
        assert_eq!(m.total_requests, 10);
        assert!((m.avg_latency_us - 100.0).abs() < 1e-9);
        assert!((m.iops - 10.0).abs() < 1e-9);
        assert!((m.eviction_fraction - 0.2).abs() < 1e-9);
        assert!((m.fast_placement_fraction - 0.7).abs() < 1e-9);
    }

    #[test]
    fn normalization_is_ratio() {
        let a = Metrics::from_stats(&stats());
        let mut s2 = stats();
        s2.sum_latency_us = 500.0;
        let b = Metrics::from_stats(&s2);
        assert!((a.normalized_latency(&b) - 2.0).abs() < 1e-9);
        assert!((b.normalized_latency(&a) - 0.5).abs() < 1e-9);
        assert!((a.normalized_iops(&b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_baseline_is_safe() {
        let a = Metrics::from_stats(&stats());
        let zero = Metrics::from_stats(&HssStats::new(2));
        assert_eq!(a.normalized_latency(&zero), 0.0);
        assert_eq!(a.normalized_iops(&zero), 0.0);
    }
}
