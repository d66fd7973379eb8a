//! Per-shard and aggregate results of a serving run.

use sibyl_core::AgentStats;
use sibyl_hss::{HssStats, Metrics};
use sibyl_telemetry::TelemetryReport;
use sibyl_xray::XrayReport;

/// One cumulative learning-curve sample, taken every
/// [`ServeConfig::curve_every`](crate::ServeConfig::curve_every) batches
/// of a shard's run. Values are running totals up to the sample point,
/// so a curve of falling `avg_latency_us` (or rising
/// `fast_placement_fraction`) shows the agent learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Requests served by the shard up to this sample.
    pub requests: u64,
    /// Cumulative average request latency (µs) up to this sample.
    pub avg_latency_us: f64,
    /// Cumulative fraction of requests placed on the fastest device.
    pub fast_placement_fraction: f64,
}

impl CurvePoint {
    /// Snapshots a manager's running statistics into a sample.
    pub fn from_stats(stats: &HssStats) -> Self {
        CurvePoint {
            requests: stats.total_requests,
            avg_latency_us: stats.avg_latency_us(),
            fast_placement_fraction: stats.placement_fraction(0),
        }
    }
}

/// What one worker shard did during a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// The shard's index (its position in the LBA-hash partition).
    pub shard: usize,
    /// Requests routed to — and served by — this shard.
    pub requests: u64,
    /// Batched-inference rounds the shard executed.
    pub batches: u64,
    /// Resident bytes of the shard's compact page directory at the end of
    /// the run. The directory is append-only (pages move between devices
    /// but are never forgotten), so this is also the run's peak — and it
    /// scales with the shard's unique-page *footprint*, not the number of
    /// requests served, which is the invariant the `sec14_scale` bench
    /// pins for 10M-request streamed runs.
    pub directory_bytes: u64,
    /// Distinct logical pages the shard's directory tracks (ever placed
    /// on any device).
    pub directory_pages: u64,
    /// Cooperative sync rounds this shard participated in (0 in
    /// [`CoopMode::Independent`](sibyl_coop::CoopMode)).
    pub coop_syncs: u64,
    /// Simulated NN-inference time charged to this shard's requests (µs;
    /// 0 when [`ServeConfig::nn_ns_per_mac`](crate::ServeConfig) is 0).
    pub nn_busy_us: f64,
    /// Simulated NN-*training* time charged through the same §10 cost
    /// model (µs): each train step is billed `batches_per_step` batched
    /// forward+backward weight streams at
    /// [`ServeConfig::nn_ns_per_mac`](crate::ServeConfig), and the charge
    /// delays the shard's next batch. Training always runs inline on the
    /// shard thread and is always charged; this is 0 only when the cost
    /// model is off or no train step ran.
    pub train_busy_us: f64,
    /// Pages moved by the shard's background-migration ticks (promotions
    /// plus demotions; 0 when
    /// [`ServeConfig::migrate`](crate::ServeConfig) runs no policy).
    pub migrations: u64,
    /// Device time the shard's background-migration I/O consumed (µs).
    /// Charged against the shard's device clocks, so foreground requests
    /// queue behind it — this is contention, not free background work.
    pub migration_busy_us: f64,
    /// Learning-curve samples (empty unless
    /// [`ServeConfig::curve_every`](crate::ServeConfig) is set).
    pub curve: Vec<CurvePoint>,
    /// The shard's storage-manager statistics (latency, IOPS, evictions).
    pub stats: HssStats,
    /// The shard's agent counters (decisions, explorations, train steps).
    pub agent: AgentStats,
}

impl ShardReport {
    /// Mean requests per batched-inference round.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// The result of one [`crate::serve_trace`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// One report per shard, ordered by shard index.
    pub shards: Vec<ShardReport>,
    /// Per-shard telemetry (registries and event traces), present only
    /// when [`ServeConfig::telemetry`](crate::ServeConfig) is enabled.
    /// `measured.*` wall-clock entries inside are excluded from this
    /// report's `PartialEq`, so two identically-seeded enabled runs still
    /// compare equal.
    pub telemetry: Option<TelemetryReport>,
    /// Per-request x-ray tracing results (critical-path breakdown, folded
    /// stacks, tail forensics), present only when
    /// [`ServeConfig::xray`](crate::ServeConfig) samples. Samples live in
    /// logical (simulated) time, so this section is part of the
    /// deterministic result: two identically-seeded runs produce equal
    /// reports — tracing included.
    pub xray: Option<XrayReport>,
}

impl ServeReport {
    /// Requests served across all shards.
    pub fn total_requests(&self) -> u64 {
        self.shards.iter().map(|s| s.requests).sum()
    }

    /// The largest single shard's resident directory bytes — the run's
    /// peak per-shard metadata footprint (each shard's directory already
    /// reports its own peak; see [`ShardReport::directory_bytes`]).
    pub fn peak_directory_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.directory_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Total resident directory bytes across all shards.
    pub fn total_directory_bytes(&self) -> u64 {
        self.shards.iter().map(|s| s.directory_bytes).sum()
    }

    /// Total distinct pages tracked across all shards' directories.
    pub fn total_directory_pages(&self) -> u64 {
        self.shards.iter().map(|s| s.directory_pages).sum()
    }

    /// The whole run in the paper's metric vocabulary: every shard's
    /// statistics folded together ([`HssStats::merge`]), then read as
    /// [`Metrics`] — the type a single-node run reports. Shards run in
    /// parallel over the same simulated clock, so throughput is over the
    /// union of their busy spans and latency is request-weighted.
    pub fn aggregate(&self) -> Metrics {
        let mut merged = HssStats::default();
        for shard in &self.shards {
            merged.merge(&shard.stats);
        }
        Metrics::from_stats(&merged)
    }

    /// Combines the per-shard cumulative learning curves into one:
    /// sample `k` is the request-weighted mean of every shard's `k`-th
    /// sample. Truncated to the *shortest* shard curve so every sample
    /// combines the same shard set — otherwise shards dropping out of
    /// the tail would make the aggregate non-monotonic in requests.
    /// Empty unless [`ServeConfig::curve_every`](crate::ServeConfig) is
    /// set.
    pub fn aggregate_curve(&self) -> Vec<CurvePoint> {
        let samples = self.shards.iter().map(|s| s.curve.len()).min().unwrap_or(0);
        (0..samples)
            .map(|k| {
                let mut requests = 0u64;
                let mut latency_sum = 0.0;
                let mut fast_sum = 0.0;
                for shard in &self.shards {
                    let p = &shard.curve[k];
                    requests += p.requests;
                    latency_sum += p.avg_latency_us * p.requests as f64;
                    fast_sum += p.fast_placement_fraction * p.requests as f64;
                }
                let denom = requests.max(1) as f64;
                CurvePoint {
                    requests,
                    avg_latency_us: latency_sum / denom,
                    fast_placement_fraction: fast_sum / denom,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(shard: usize, requests: u64, sum_lat: f64, span: (f64, f64)) -> ShardReport {
        let mut stats = HssStats::new(2);
        stats.total_requests = requests;
        stats.sum_latency_us = sum_lat;
        stats.max_latency_us = sum_lat / requests.max(1) as f64 * 2.0;
        stats.first_arrival_us = span.0;
        stats.last_completion_us = span.1;
        stats.placements = vec![requests / 2, requests - requests / 2];
        ShardReport {
            shard,
            requests,
            batches: requests.div_ceil(8),
            directory_bytes: 0,
            directory_pages: 0,
            coop_syncs: 0,
            nn_busy_us: 0.0,
            train_busy_us: 0.0,
            migrations: 0,
            migration_busy_us: 0.0,
            curve: Vec::new(),
            stats,
            agent: AgentStats::default(),
        }
    }

    #[test]
    fn aggregate_weights_by_requests() {
        let report = ServeReport {
            shards: vec![
                shard(0, 100, 1_000.0, (0.0, 1e6)),
                shard(1, 300, 9_000.0, (0.0, 2e6)),
            ],
            telemetry: None,
            xray: None,
        };
        let agg = report.aggregate();
        assert_eq!(agg.total_requests, 400);
        assert!((agg.avg_latency_us - 25.0).abs() < 1e-9);
        // Span = overlap of parallel shards: 2 seconds → 200 IOPS.
        assert!((agg.iops - 200.0).abs() < 1e-9);
        assert!((agg.fast_placement_fraction - 0.5).abs() < 1e-9);
    }

    #[test]
    fn aggregate_curve_weights_by_requests_and_truncates_to_the_shortest() {
        let point = |requests, avg_latency_us, fast_placement_fraction| CurvePoint {
            requests,
            avg_latency_us,
            fast_placement_fraction,
        };
        let mut a = shard(0, 100, 1_000.0, (0.0, 1e6));
        a.curve = vec![point(10, 10.0, 0.0), point(20, 10.0, 0.5)];
        let mut b = shard(1, 300, 9_000.0, (0.0, 2e6));
        b.curve = vec![point(30, 50.0, 1.0)];
        let report = ServeReport {
            shards: vec![a, b],
            telemetry: None,
            xray: None,
        };
        assert_eq!(report.aggregate_curve(), vec![point(40, 40.0, 0.75)]);
    }

    #[test]
    fn empty_report_is_safe() {
        let report = ServeReport {
            shards: vec![],
            telemetry: None,
            xray: None,
        };
        let agg = report.aggregate();
        assert_eq!(agg.total_requests, 0);
        assert_eq!(agg.iops, 0.0);
        assert_eq!(agg.avg_latency_us, 0.0);
        assert!(report.aggregate_curve().is_empty());
    }

    #[test]
    fn avg_batch_divides() {
        let s = shard(0, 100, 1_000.0, (0.0, 1e6));
        assert!((s.avg_batch() - 100.0 / 13.0).abs() < 1e-9);
    }
}
