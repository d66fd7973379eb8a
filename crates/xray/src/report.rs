//! Run-level xray results: per-shard and merged totals, folded-stacks
//! export, and the tail-forensics dump.

use std::fmt::Write;

use crate::span::{ComponentTotals, Sample};
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
    pub fn tail(&self, k: usize) -> Vec<&Sample> {
        let mut all: Vec<&Sample> = self.shards.iter().flat_map(|s| s.tail.iter()).collect();
        all.sort_by(|a, b| {
            b.latency_ns
                .cmp(&a.latency_ns)
                .then(a.shard.cmp(&b.shard))
                .then(a.seq.cmp(&b.seq))
        });
        all.truncate(k);
        all
    }

    /// Renders the `k` slowest sampled requests as an indented text dump
    /// — the postmortem view of where each tail exemplar's latency went.
    /// Each request prints as the tree its components form: the request
    /// (queue wait + latency), the router and batch markers, decide and
    /// train, and the storage access split into device queue and
    /// transfer. Zero-length decide, train, queue-wait and device-queue
    /// lines are left out, and so are zero `promoted=` / `evicted=` tags.
    pub fn render_tail(&self, k: usize) -> String {
        let mut out = String::new();
        for (i, s) in self.tail(k).iter().enumerate() {
            let _ = writeln!(
                out,
                "#{} shard {} lba {} seq {} — {:.1} µs",
                i + 1,
                s.shard,
                s.lba,
                s.seq,
                s.latency_ns as f64 / 1_000.0
            );
            write_line(&mut out, 1, "request", s.queue_wait_ns + s.latency_ns, &[]);
            write_line(&mut out, 2, "router.route", 0, &[("shard", s.shard as u64)]);
            if s.queue_wait_ns > 0 {
                write_line(&mut out, 2, "shard.queue_wait", s.queue_wait_ns, &[]);
            }
            write_line(&mut out, 2, "batch.form", 0, &[("batch", s.batch as u64)]);
            if s.decide_ns > 0 {
                write_line(&mut out, 2, "nn.decide", s.decide_ns, &[]);
            }
            if s.train_ns > 0 {
                write_line(&mut out, 2, "stall.train", s.train_ns, &[]);
            }
            let mut tags = vec![("device", s.device as u64), ("target", s.target as u64)];
            if s.promoted > 0 {
                tags.push(("promoted", s.promoted));
            }
            if s.evicted > 0 {
                tags.push(("evicted", s.evicted));
            }
            write_line(&mut out, 2, "hss.access", s.queue_ns + s.transfer_ns, &tags);
            if s.queue_ns > 0 {
                write_line(&mut out, 3, "device.queue", s.queue_ns, &[]);
            }
            write_line(&mut out, 3, "device.transfer", s.transfer_ns, &[]);
        }
        out
    }
}

/// One line of the tail dump: `name` indented by `depth` and padded so
/// the durations align, then its `key=value` tags.
fn write_line(out: &mut String, depth: usize, name: &str, ns: u64, tags: &[(&str, u64)]) {
    let _ = write!(
        out,
        "{}{name:<w$} {:>10.1} µs",
        "  ".repeat(depth),
        ns as f64 / 1_000.0,
        w = 24 - 2 * depth,
    );
    for (k, v) in tags {
        let _ = write!(out, " {k}={v}");
    }
    out.push('\n');
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
        assert_eq!(
            merged.components().iter().sum::<u64>(),
            merged.latency_ns,
            "merged shares must sum to 100%"
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

    #[test]
    fn tail_dump_layout_is_pinned() {
        // One sample with every optional line and tag, one with none.
        let full = Sample {
            shard: 2,
            lba: 4096,
            seq: 17,
            latency_ns: 25_000,
            decide_ns: 2_300,
            train_ns: 1_000,
            queue_ns: 4_000,
            transfer_ns: 17_700,
            queue_wait_ns: 3_500,
            batch: 16,
            device: 1,
            target: 0,
            promoted: 2,
            evicted: 3,
        };
        let bare = Sample {
            lba: 7,
            seq: 1,
            latency_ns: 9_000,
            transfer_ns: 9_000,
            batch: 1,
            target: 1,
            ..Sample::default()
        };
        let shard = |shard, tail| ShardXray {
            shard,
            tail: vec![tail],
            ..ShardXray::default()
        };
        let report = XrayReport::new(vec![shard(0, bare), shard(2, full)]);
        let expected = concat!(
            "#1 shard 2 lba 4096 seq 17 — 25.0 µs\n",
            "  request                      28.5 µs\n",
            "    router.route                0.0 µs shard=2\n",
            "    shard.queue_wait            3.5 µs\n",
            "    batch.form                  0.0 µs batch=16\n",
            "    nn.decide                   2.3 µs\n",
            "    stall.train                 1.0 µs\n",
            "    hss.access                 21.7 µs device=1 target=0 promoted=2 evicted=3\n",
            "      device.queue              4.0 µs\n",
            "      device.transfer          17.7 µs\n",
            "#2 shard 0 lba 7 seq 1 — 9.0 µs\n",
            "  request                       9.0 µs\n",
            "    router.route                0.0 µs shard=0\n",
            "    batch.form                  0.0 µs batch=1\n",
            "    hss.access                  9.0 µs device=0 target=1\n",
            "      device.transfer           9.0 µs\n",
        );
        assert_eq!(report.render_tail(2), expected);
    }
}
