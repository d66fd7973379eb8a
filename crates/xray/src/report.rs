//! Run-level xray results: per-shard and merged breakdown, folded-stacks
//! export, and the tail-forensics dump.

use std::fmt::Write;

use crate::span::{ComponentTotals, RequestTrace, Span};
use crate::tracer::ShardXray;

/// Tracing results for a whole serving run: one section per shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XrayReport {
    /// Per-shard results, sorted by shard index.
    pub shards: Vec<ShardXray>,
}

impl XrayReport {
    /// Builds a report from per-shard sections, sorting by shard index
    /// so the output never depends on thread join order.
    pub fn new(mut shards: Vec<ShardXray>) -> Self {
        shards.sort_by_key(|s| s.shard);
        XrayReport { shards }
    }

    /// Requests served across shards (sampled or not).
    pub fn requests_seen(&self) -> u64 {
        self.shards.iter().map(|s| s.requests_seen).sum()
    }

    /// Requests sampled and traced across shards.
    pub fn sampled(&self) -> u64 {
        self.shards.iter().map(|s| s.totals.sampled).sum()
    }

    /// Containment clamps across shards (see [`ShardXray::clamps`]); 0
    /// when the tracer and the engine agree on every sampled request.
    pub fn clamps(&self) -> u64 {
        self.shards.iter().map(|s| s.clamps).sum()
    }

    /// Cross-shard merged component totals (exact integer sums).
    pub fn merged_totals(&self) -> ComponentTotals {
        let mut merged = ComponentTotals::default();
        for s in &self.shards {
            merged.merge(&s.totals);
        }
        merged
    }

    /// The critical-path breakdown table: one row per shard plus a
    /// merged row, with each component's share of sampled latency.
    /// Shares in every row sum to 100% of that row's sampled latency —
    /// the decomposition is exact, so nothing is left unattributed.
    pub fn breakdown_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>9} {:>12} {:>9} {:>9} {:>9} {:>9} {:>10}",
            "shard", "sampled", "avg lat µs", "decide", "train", "queue", "transfer", "queue_wait"
        );
        out.push_str(&"-".repeat(82));
        out.push('\n');
        for s in &self.shards {
            write_breakdown_row(&mut out, &s.shard.to_string(), &s.totals);
        }
        write_breakdown_row(&mut out, "merged", &self.merged_totals());
        out
    }

    /// Folded-stacks text export (`stack;frames weight`, one line per
    /// stack, weight in logical nanoseconds of sampled time) consumable
    /// by standard flamegraph tooling. Deterministic: stacks are emitted
    /// in fixed order per shard, weights are exact integer sums, and the
    /// sampled set is a pure function of `(seed, lba, seq)` — so two
    /// same-seed runs export byte-identical text (pinned by proptest and
    /// the CI determinism gate). Zero-weight stacks are omitted.
    pub fn xray_folded(&self) -> String {
        let mut out = String::new();
        for s in &self.shards {
            let prefix = format!("shard{}", s.shard);
            let t = &s.totals;
            let stacks: [(&str, u64); 7] = [
                ("request;shard.queue_wait", t.queue_wait_ns),
                ("request;nn.decide", t.decide_ns),
                ("request;stall.train", t.train_ns),
                ("request;hss.access;device.queue", t.queue_ns),
                ("request;hss.access;device.transfer", t.transfer_ns),
                ("stall.migrate;migrate.read", s.migrate_read_ns),
                ("stall.migrate;migrate.write", s.migrate_write_ns),
            ];
            for (stack, weight) in stacks {
                if weight > 0 {
                    let _ = writeln!(out, "{prefix};{stack} {weight}");
                }
            }
        }
        out
    }

    /// The run's `k` slowest sampled requests across all shards, slowest
    /// first (deterministic tie-break on shard then sequence number).
    pub fn tail(&self, k: usize) -> Vec<&RequestTrace> {
        let mut all: Vec<&RequestTrace> = self.shards.iter().flat_map(|s| s.tail.iter()).collect();
        all.sort_by(|a, b| {
            b.latency_ns
                .cmp(&a.latency_ns)
                .then(a.shard.cmp(&b.shard))
                .then(a.seq.cmp(&b.seq))
        });
        all.truncate(k);
        all
    }

    /// Renders the `k` slowest sampled requests' full span trees as an
    /// indented text dump — the postmortem view of where each tail
    /// exemplar's latency went.
    pub fn render_tail(&self, k: usize) -> String {
        let mut out = String::new();
        for (i, trace) in self.tail(k).iter().enumerate() {
            let _ = writeln!(
                out,
                "#{} shard {} lba {} seq {} — {:.1} µs",
                i + 1,
                trace.shard,
                trace.lba,
                trace.seq,
                trace.latency_ns as f64 / 1_000.0
            );
            render_span(&mut out, &trace.root, 1);
        }
        out
    }
}

fn write_breakdown_row(out: &mut String, label: &str, t: &ComponentTotals) {
    let pct = |ns: u64| format!("{:.1}%", t.share(ns) * 100.0);
    let _ = writeln!(
        out,
        "{:<8} {:>9} {:>12.1} {:>9} {:>9} {:>9} {:>9} {:>10}",
        label,
        t.sampled,
        t.mean_latency_us(),
        pct(t.decide_ns),
        pct(t.train_ns),
        pct(t.queue_ns),
        pct(t.transfer_ns),
        format!(
            "{:.1}µs",
            t.queue_wait_ns as f64 / t.sampled.max(1) as f64 / 1_000.0
        ),
    );
}

fn render_span(out: &mut String, span: &Span, depth: usize) {
    let _ = write!(
        out,
        "{}{:<namew$} {:>10.1} µs",
        "  ".repeat(depth),
        span.kind.name(),
        span.dur_ns as f64 / 1_000.0,
        namew = 24usize.saturating_sub(2 * depth.min(8)),
    );
    for (k, v) in &span.tags {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
    for child in &span.children {
        render_span(out, child, depth + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::XrayConfig;
    use crate::tracer::{RequestObservation, XrayTracer};

    fn shard_xray(shard: usize, n: u64, base_latency: f64) -> ShardXray {
        let mut t = XrayTracer::new(&XrayConfig::Sampled(0), shard, 42).unwrap();
        for i in 0..n {
            t.observe_request(&RequestObservation {
                lba: i * 64,
                timestamp_us: i as f64 * 10.0,
                arrival_us: i as f64 * 10.0 + 1.0,
                latency_us: base_latency + i as f64,
                decide_us: 2.0,
                train_us: 0.5,
                queue_us: 3.0,
                batch: 8,
                device: (i % 2) as usize,
                target: 0,
                promoted: 0,
                evicted: 0,
            });
        }
        t.observe_migration_tick(100.0, 60.0, 12);
        t.finish()
    }

    #[test]
    fn report_sorts_and_merges() {
        let report = XrayReport::new(vec![shard_xray(1, 30, 50.0), shard_xray(0, 20, 40.0)]);
        assert_eq!(report.shards[0].shard, 0);
        assert_eq!(report.shards[1].shard, 1);
        assert_eq!(report.requests_seen(), 50);
        assert_eq!(report.sampled(), 50);
        let merged = report.merged_totals();
        assert_eq!(merged.sampled, 50);
        let comp_sum: u64 = merged.components().iter().map(|(_, ns)| ns).sum();
        assert_eq!(
            comp_sum, merged.latency_ns,
            "merged shares must sum to 100%"
        );
    }

    #[test]
    fn breakdown_table_has_per_shard_and_merged_rows() {
        let report = XrayReport::new(vec![shard_xray(0, 20, 40.0), shard_xray(1, 30, 50.0)]);
        let table = report.breakdown_table();
        assert!(table.contains("decide"));
        assert!(table.contains("merged"));
        assert_eq!(
            table.lines().count(),
            2 + 2 + 1,
            "header + rule + 2 shards + merged"
        );
    }

    #[test]
    fn folded_stacks_are_deterministic_and_weighted() {
        let a = XrayReport::new(vec![shard_xray(0, 25, 40.0)]);
        let b = XrayReport::new(vec![shard_xray(0, 25, 40.0)]);
        let folded = a.xray_folded();
        assert_eq!(
            folded,
            b.xray_folded(),
            "same inputs → byte-identical folded output"
        );
        assert!(folded.contains("shard0;request;nn.decide "));
        assert!(folded.contains("shard0;request;hss.access;device.transfer "));
        assert!(folded.contains("shard0;stall.migrate;migrate.read 100000"));
        for line in folded.lines() {
            let (stack, weight) = line.rsplit_once(' ').unwrap();
            assert!(!stack.is_empty());
            assert!(
                weight.parse::<u64>().unwrap() > 0,
                "zero-weight stack leaked: {line}"
            );
        }
    }

    #[test]
    fn tail_merges_across_shards_slowest_first() {
        let report = XrayReport::new(vec![shard_xray(0, 20, 40.0), shard_xray(1, 20, 400.0)]);
        let tail = report.tail(5);
        assert_eq!(tail.len(), 5);
        for t in &tail {
            assert_eq!(t.shard, 1, "slow shard must dominate the merged tail");
        }
        for w in tail.windows(2) {
            assert!(w[0].latency_ns >= w[1].latency_ns);
        }
        let dump = report.render_tail(3);
        assert!(dump.contains("#1 shard 1"));
        assert!(dump.contains("hss.access"));
        assert!(dump.contains("device="));
    }
}
