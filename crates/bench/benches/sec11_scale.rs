//! §11 scale-out: aggregate throughput of the sharded serving engine as
//! shard count and inference batch size grow.
//!
//! The paper serves placement decisions online for a single HSS node;
//! this target measures the reproduction's serving layer beyond that —
//! `sibyl-serve` routes a mixed workload (Table 5's mix2) across N
//! worker shards, each an independent HSS + agent deciding batches of
//! requests with one batched C51 inference pass. Replay runs with
//! compressed think time so device capacity, not arrival rate, bounds
//! IOPS (the Fig. 10 regime). Aggregate IOPS should rise monotonically
//! with the shard count: each shard brings its own devices, so the
//! engine models scale-out across storage nodes.
//!
//! NN inference time is charged through the §10 overhead model
//! (`nn_ns_per_mac`), amortized per batch — so growing the batch size
//! shows up as *lower average latency*, not just higher IOPS: at batch 1
//! every request pays a full forward pass, at batch 32 a thirty-second
//! of one.

use sibyl_bench::{seed, serving_config, trace_len, Figure};
use sibyl_serve::{serve_trace, TelemetryConfig};
use sibyl_sim::report::Table;
use sibyl_trace::mix::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(6_000);
    let trace = Mix::Mix2.generate(n, seed());
    let mut fig = Figure::new(
        "sec11_scale",
        "§11 scale-out",
        "Sharded serving engine: aggregate IOPS and latency vs shard count and batch size",
        n,
    );
    println!(
        "workload {} ({} requests), accelerated replay\n",
        trace.name(),
        trace.len()
    );

    for batch in [1usize, 8, 32] {
        let mut table = Table::new([
            "shards",
            "agg IOPS",
            "speedup",
            "avg lat (us)",
            "nn us/req",
            "fast frac",
        ]);
        let mut base_iops = 0.0f64;
        for shards in [1usize, 2, 4, 8] {
            let report = serve_trace(&serving_config(shards, batch), &trace)?;
            let agg = report.aggregate();
            let nn_us: f64 = report.shards.iter().map(|s| s.nn_busy_us).sum();
            if shards == 1 {
                base_iops = agg.iops;
            }
            table.add_row(vec![
                shards.to_string(),
                format!("{:.0}", agg.iops),
                format!("{:.2}x", agg.iops / base_iops.max(1e-9)),
                format!("{:.1}", agg.avg_latency_us),
                format!("{:.2}", nn_us / agg.total_requests.max(1) as f64),
                format!("{:.2}", agg.fast_placement_fraction),
            ]);
        }
        println!("inference batch size {batch}");
        fig.table(&format!("batch{batch}"), &table);
    }

    // CI determinism gate: when SIBYL_TELEMETRY_OUT names a file, rerun
    // the 4-shard × batch-16 point with full telemetry and dump the
    // deterministic JSONL export there. The export is keyed on logical
    // time only (wall-clock lives in the excluded `measured.*`
    // namespace), so two invocations must produce byte-identical files —
    // CI runs this twice and diffs the dumps with `cmp`.
    if let Ok(path) = std::env::var("SIBYL_TELEMETRY_OUT") {
        let config = serving_config(4, 16)
            .with_curve_every(8)
            .with_telemetry(TelemetryConfig::full());
        let report = serve_trace(&config, &trace)?;
        let jsonl = report.telemetry.expect("telemetry enabled").export_jsonl();
        std::fs::write(&path, &jsonl)?;
        println!(
            "telemetry JSONL ({} lines) written to {path}",
            jsonl.lines().count()
        );
    }
    Ok(fig.finish()?)
}
