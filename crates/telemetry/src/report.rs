//! Run-level telemetry: merged view, JSONL export, `sibyl-top` renderer.

use std::fmt::Write;

use crate::event::{SeqEvent, TraceEvent};
use crate::json::{push_f64, push_str_lit};
use crate::measured::is_measured;
use crate::registry::Registry;
use crate::sink::ShardTelemetry;

/// Shard pseudo-index used for merged-registry lines in the export.
const MERGED_SHARD: i64 = -1;

/// Telemetry for a whole serving run: one section per shard.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryReport {
    /// Per-shard telemetry, sorted by shard index.
    pub shards: Vec<ShardTelemetry>,
}

impl TelemetryReport {
    /// Builds a report from per-shard sections, sorting by shard index so
    /// the export order never depends on thread join order.
    pub fn new(mut shards: Vec<ShardTelemetry>) -> Self {
        shards.sort_by_key(|s| s.shard);
        TelemetryReport { shards }
    }

    /// Cross-shard merged registry: counters summed, gauges maxed,
    /// histograms merged bucket-wise (series stay per-shard).
    pub fn merged_registry(&self) -> Registry {
        let mut merged = Registry::new();
        for shard in &self.shards {
            merged.merge(&shard.registry);
        }
        merged
    }

    /// Deterministic JSONL export: per-shard trace header, events, and
    /// registry lines, then the merged registry as shard `-1`. Metrics in
    /// the `measured.` namespace are excluded, so two runs of the same
    /// deterministic configuration export byte-identical text.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for shard in &self.shards {
            let id = shard.shard as i64;
            let _ = writeln!(
                out,
                "{{\"shard\":{id},\"kind\":\"trace\",\"recorded\":{},\"retained\":{},\"dropped\":{}}}",
                shard.recorded_events,
                shard.events.len(),
                shard.dropped_events,
            );
            for event in &shard.events {
                write_event_line(&mut out, id, event);
            }
            write_registry_lines(&mut out, id, &shard.registry);
        }
        write_registry_lines(&mut out, MERGED_SHARD, &self.merged_registry());
        out
    }

    /// Plain-text `sibyl-top`-style summary: merged counters and gauges,
    /// a percentile table for every merged histogram, and one row per
    /// shard. Deterministic for deterministic runs (`measured.*` metrics
    /// are omitted).
    pub fn render_top(&self) -> String {
        let merged = self.merged_registry();
        let mut out = String::new();
        let _ = writeln!(out, "sibyl-top — {} shard(s)", self.shards.len());

        let counters: Vec<_> = merged
            .counters()
            .filter(|(name, _)| !is_measured(name))
            .collect();
        if !counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in counters {
                let _ = writeln!(out, "  {name:<32} {v:>14}");
            }
        }

        let gauges: Vec<_> = merged
            .gauges()
            .filter(|(name, _)| !is_measured(name))
            .collect();
        if !gauges.is_empty() {
            let _ = writeln!(out, "gauges (max across shards):");
            for (name, v) in gauges {
                let _ = writeln!(out, "  {name:<32} {v:>14.4}");
            }
        }

        let histograms: Vec<_> = merged
            .histograms()
            .filter(|(name, _)| !is_measured(name))
            .collect();
        if !histograms.is_empty() {
            let _ = writeln!(
                out,
                "histograms: {:<22} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "", "count", "p50", "p90", "p99", "p999", "max"
            );
            for (name, h) in histograms {
                let _ = writeln!(
                    out,
                    "  {name:<32} {:>10} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10}",
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.p999(),
                    h.max().unwrap_or(0),
                );
            }
        }

        let _ = writeln!(
            out,
            "shards: {:<6} {:>10} {:>10} {:>10} {:>10}",
            "", "events", "dropped", "counters", "series"
        );
        for shard in &self.shards {
            let n_counters = shard
                .registry
                .counters()
                .filter(|(name, _)| !is_measured(name))
                .count();
            let n_series = shard
                .registry
                .all_series()
                .filter(|(name, _)| !is_measured(name))
                .count();
            let _ = writeln!(
                out,
                "  {:<12} {:>10} {:>10} {:>10} {:>10}",
                shard.shard, shard.recorded_events, shard.dropped_events, n_counters, n_series,
            );
        }
        out
    }
}

fn write_event_line(out: &mut String, shard: i64, event: &SeqEvent) {
    let _ = write!(
        out,
        "{{\"shard\":{shard},\"seq\":{},\"type\":\"{}\"",
        event.seq,
        event.event.kind()
    );
    match &event.event {
        TraceEvent::RequestServed {
            lpn,
            device,
            latency_us,
        } => {
            let _ = write!(out, ",\"lpn\":{lpn},\"device\":{device},\"latency_us\":");
            push_f64(out, *latency_us);
        }
        TraceEvent::BatchDecided {
            batch,
            requests,
            decide_us,
        } => {
            let _ = write!(
                out,
                ",\"batch\":{batch},\"requests\":{requests},\"decide_us\":"
            );
            push_f64(out, *decide_us);
        }
        TraceEvent::TrainStep { step, loss } => {
            let _ = write!(out, ",\"step\":{step},\"loss\":");
            push_f64(out, *loss);
        }
        TraceEvent::MigrationTick {
            tick,
            moved_pages,
            busy_us,
        } => {
            let _ = write!(
                out,
                ",\"tick\":{tick},\"moved_pages\":{moved_pages},\"busy_us\":"
            );
            push_f64(out, *busy_us);
        }
        TraceEvent::CoopSync { round, batches } => {
            let _ = write!(out, ",\"round\":{round},\"batches\":{batches}");
        }
        TraceEvent::Eviction { lpn, pages } => {
            let _ = write!(out, ",\"lpn\":{lpn},\"pages\":{pages}");
        }
    }
    out.push_str("}\n");
}

fn write_registry_lines(out: &mut String, shard: i64, registry: &Registry) {
    for (name, v) in registry.counters() {
        if is_measured(name) {
            continue;
        }
        let _ = write!(out, "{{\"shard\":{shard},\"kind\":\"counter\",\"name\":");
        push_str_lit(out, name);
        let _ = writeln!(out, ",\"value\":{v}}}");
    }
    for (name, v) in registry.gauges() {
        if is_measured(name) {
            continue;
        }
        let _ = write!(out, "{{\"shard\":{shard},\"kind\":\"gauge\",\"name\":");
        push_str_lit(out, name);
        out.push_str(",\"value\":");
        push_f64(out, v);
        out.push_str("}\n");
    }
    for (name, h) in registry.histograms() {
        if is_measured(name) {
            continue;
        }
        let _ = write!(out, "{{\"shard\":{shard},\"kind\":\"histogram\",\"name\":");
        push_str_lit(out, name);
        let _ = write!(
            out,
            ",\"count\":{},\"min\":{},\"max\":{}",
            h.count(),
            h.min().unwrap_or(0),
            h.max().unwrap_or(0)
        );
        for (label, v) in [
            ("p50", h.p50()),
            ("p90", h.p90()),
            ("p99", h.p99()),
            ("p999", h.p999()),
        ] {
            let _ = write!(out, ",\"{label}\":");
            push_f64(out, v);
        }
        // Each bucket entry carries its boundary values —
        // `[index, lo, hi, count]` — so consumers read ranges directly
        // instead of re-deriving the log2 layout (`lo` inclusive, `hi`
        // exclusive except the saturated top bucket).
        out.push_str(",\"buckets\":[");
        let mut first = true;
        for (k, c) in h.nonzero_buckets() {
            if !first {
                out.push(',');
            }
            first = false;
            let (lo, hi) = crate::histogram::Log2Histogram::bucket_bounds(k);
            let _ = write!(out, "[{k},{lo},{hi},{c}]");
        }
        out.push_str("]}\n");
    }
    for (name, points) in registry.all_series() {
        if is_measured(name) {
            continue;
        }
        let _ = write!(out, "{{\"shard\":{shard},\"kind\":\"series\",\"name\":");
        push_str_lit(out, name);
        out.push_str(",\"points\":[");
        let mut first = true;
        for &(t, v) in points {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "[{t},");
            push_f64(out, v);
            out.push(']');
        }
        out.push_str("]}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;
    use crate::sink::TelemetrySink;

    fn sample_report() -> TelemetryReport {
        let mut shards = Vec::new();
        for shard in (0..2).rev() {
            let mut sink = TelemetrySink::new(&TelemetryConfig::full()).unwrap();
            sink.event(TraceEvent::BatchDecided {
                batch: 1,
                requests: 16,
                decide_us: 27.5,
            });
            sink.event(TraceEvent::Eviction { lpn: 42, pages: 3 });
            let r = sink.registry_mut();
            r.counter_add("serve.requests", 16);
            r.gauge_set("rl.epsilon", 0.25);
            r.histogram_record("serve.latency_us", 100 + shard as u64);
            r.series_push("rl.loss", 1, 0.5);
            r.counter_add("measured.shard_run_ns", 12345 + shard as u64);
            shards.push(sink.finish(shard));
        }
        TelemetryReport::new(shards)
    }

    #[test]
    fn new_sorts_shards() {
        let report = sample_report();
        assert_eq!(report.shards[0].shard, 0);
        assert_eq!(report.shards[1].shard, 1);
    }

    #[test]
    fn export_is_line_oriented_json() {
        let report = sample_report();
        let jsonl = report.export_jsonl();
        for line in jsonl.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
        }
        assert!(jsonl.contains("\"type\":\"batch_decided\""));
        assert!(jsonl.contains("\"kind\":\"histogram\""));
        assert!(jsonl.contains("\"shard\":-1"));
        assert!(
            !jsonl.contains("measured."),
            "deterministic export must exclude measured.*"
        );
    }

    #[test]
    fn export_ignores_wallclock_differences() {
        // Two reports identical except for measured.* export identically.
        let a = sample_report().export_jsonl();
        let b = sample_report().export_jsonl();
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_export_carries_bucket_boundaries_byte_stable() {
        // Golden pin of the bucket schema: `[index, lo, hi, count]`.
        // 0 → bucket 0 [0,1), 1 → bucket 1 [1,2), 5 → bucket 3 [4,8),
        // 1000 → bucket 10 [512,1024), u64::MAX → bucket 64 saturated.
        let mut sink = TelemetrySink::new(&TelemetryConfig::full()).unwrap();
        let r = sink.registry_mut();
        for v in [0u64, 1, 5, 1000, u64::MAX] {
            r.histogram_record("pin.values", v);
        }
        let report = TelemetryReport::new(vec![sink.finish(0)]);
        let jsonl = report.export_jsonl();
        let expected = format!(
            "\"buckets\":[[0,0,1,1],[1,1,2,1],[3,4,8,1],[10,512,1024,1],[64,{},{},1]]",
            1u64 << 63,
            u64::MAX
        );
        assert!(
            jsonl.contains(&expected),
            "bucket boundary schema drifted:\n{jsonl}"
        );
        // Byte stability: identical recordings export identical text.
        let again = {
            let mut sink = TelemetrySink::new(&TelemetryConfig::full()).unwrap();
            let r = sink.registry_mut();
            for v in [0u64, 1, 5, 1000, u64::MAX] {
                r.histogram_record("pin.values", v);
            }
            TelemetryReport::new(vec![sink.finish(0)]).export_jsonl()
        };
        assert_eq!(jsonl, again);
    }

    #[test]
    fn merged_registry_sums_counters() {
        let report = sample_report();
        let merged = report.merged_registry();
        assert_eq!(merged.counter("serve.requests"), 32);
        assert_eq!(merged.histogram("serve.latency_us").unwrap().count(), 2);
    }

    #[test]
    fn top_renders_all_sections() {
        let top = sample_report().render_top();
        assert!(top.starts_with("sibyl-top — 2 shard(s)"));
        assert!(top.contains("serve.requests"));
        assert!(top.contains("rl.epsilon"));
        assert!(top.contains("serve.latency_us"));
        assert!(top.contains("shards:"));
        assert!(!top.contains("measured."));
    }
}
