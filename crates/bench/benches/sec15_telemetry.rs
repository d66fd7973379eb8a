//! §15 telemetry overhead: what observability costs, measured end to end
//! through the serving engine.
//!
//! The same mix2 replay (4 shards × inference batch 16, the sec11
//! reference point) runs at each [`TelemetryConfig`] level — `Off` (no
//! sink allocated) and `Full` (counters, gauges, series, histograms, the
//! bounded event ring and the per-`curve_every` RL introspection probe).
//! The timing arms are interleaved round-robin and compared by median, so
//! load drift on a busy machine hits both levels equally instead of
//! biasing one.
//!
//! Two invariants hold by construction and are asserted here (and pinned
//! by the bench-crate regression test and the serve-crate goldens):
//! both levels produce bit-identical per-shard reports — telemetry
//! observes, it never decides — and the deterministic JSONL export is
//! byte-identical across runs. The companion wall-clock pin bounds the
//! enabled-telemetry overhead at 3% of measured throughput in release
//! builds.

use std::time::Instant;

use sibyl_bench::{seed, serving_config, trace_len, Figure};
use sibyl_serve::{serve_trace, ServeConfig, ServeReport, TelemetryConfig};
use sibyl_sim::report::Table;
use sibyl_trace::mix::Mix;

/// Timing rounds per level (median reported).
const RUNS: usize = 9;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(4_000);
    let trace = Mix::Mix2.generate(n, seed());
    let mut fig = Figure::new(
        "sec15_telemetry",
        "§15 telemetry",
        "Observability overhead by level: Off vs Full through the serving engine",
        n,
    );
    println!(
        "workload {} ({} requests), 4 shards x batch 16, median of {RUNS} interleaved rounds\n",
        trace.name(),
        trace.len()
    );

    let base = serving_config(4, 16).with_curve_every(8);
    let levels: [(&str, TelemetryConfig); 2] = [
        ("off", TelemetryConfig::off()),
        ("full", TelemetryConfig::full()),
    ];
    let configs: Vec<(&str, ServeConfig)> = levels
        .iter()
        .map(|&(name, telemetry)| (name, base.clone().with_telemetry(telemetry)))
        .collect();

    // Warm-up round; kept as the reference reports for the assertions
    // and the event/export accounting below.
    let reports: Vec<ServeReport> = configs
        .iter()
        .map(|(_, config)| serve_trace(config, &trace))
        .collect::<Result<_, _>>()?;
    for ((name, _), report) in configs.iter().zip(&reports) {
        assert_eq!(
            report.shards, reports[0].shards,
            "telemetry level {name} must not perturb placement"
        );
    }

    let mut times_ms: Vec<Vec<f64>> = vec![Vec::with_capacity(RUNS); configs.len()];
    for _ in 0..RUNS {
        for ((_, config), times) in configs.iter().zip(times_ms.iter_mut()) {
            let t = Instant::now();
            std::hint::black_box(serve_trace(config, &trace)?);
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    for times in &mut times_ms {
        times.sort_by(|a, b| a.total_cmp(b));
    }
    let off_median = times_ms[0][RUNS / 2];

    let mut table = Table::new([
        "level",
        "median ms",
        "overhead",
        "events",
        "dropped",
        "jsonl lines",
    ]);
    for ((name, _), (times, report)) in configs.iter().zip(times_ms.iter().zip(&reports)) {
        let median = times[RUNS / 2];
        let (events, dropped, lines) = report.telemetry.as_ref().map_or((0, 0, 0), |t| {
            (
                t.shards.iter().map(|s| s.recorded_events).sum::<u64>(),
                t.shards.iter().map(|s| s.dropped_events).sum::<u64>(),
                t.export_jsonl().lines().count() as u64,
            )
        });
        table.add_row(vec![
            (*name).to_string(),
            format!("{median:.1}"),
            format!("{:+.1}%", (median / off_median - 1.0) * 100.0),
            events.to_string(),
            dropped.to_string(),
            lines.to_string(),
        ]);
    }
    fig.table("levels", &table);

    let full = reports
        .last()
        .and_then(|r| r.telemetry.as_ref())
        .expect("full level has telemetry");
    println!("--- sibyl-top (full level) ---");
    fig.text("top", &full.render_top());
    Ok(fig.finish()?)
}
