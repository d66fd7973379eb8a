//! §16 x-ray tracing: where each request's latency goes, measured with
//! the deterministic request tracer threaded through the serving engine.
//!
//! Every target before this one reports *aggregate* latency; this one
//! decomposes it. The same reference configuration as `sec15_telemetry`
//! (4 shards × inference batch 16, §10 NN cost charged) serves two
//! workloads — Table 5's mix2 and the phase-shifting diurnal trace with
//! background migration enabled — with [`XrayConfig::Sampled`] tracing a
//! deterministic 1-in-4 subset of requests. For each run it prints the
//! exact critical-path breakdown (per shard and merged; the component
//! shares in every row sum to 100% of sampled latency — the
//! decomposition leaves nothing unattributed) and the top-5 tail
//! requests, each dumped as the tree its latency components form (the
//! postmortem view of the slowest requests), and records the
//! folded-stacks export consumed by flamegraph tooling.
//!
//! Sampling is a pure function of `(seed, lba, seq)`, so identically
//! seeded runs trace identical request subsets and export byte-identical
//! folded stacks — when **`SIBYL_XRAY_OUT`** names a file the mix2 run's
//! folded export is written there, and CI runs this target twice and
//! `cmp`s the two files as a determinism gate. Tracing never decides:
//! the engine's per-shard reports are bit-identical to an untraced run
//! (pinned by the serve-crate goldens and the bench-crate ≤5% overhead
//! regression test).

use sibyl_bench::{seed, serving_config, trace_len, Figure};
use sibyl_serve::{serve_trace, MigrateConfig, ServeConfig, XrayConfig};
use sibyl_sim::report::Table;
use sibyl_trace::mix::Mix;
use sibyl_trace::{synth, Trace};
use sibyl_xray::XrayReport;

/// Sampling exponent: trace 1 request in 2^2 = 4 — dense enough for a
/// meaningful tail at smoke-run sizes, sparse enough to model the
/// production rate regime.
const SAMPLE_EXPONENT: u32 = 2;

/// The critical-path breakdown: one row per shard plus a merged row, each
/// component's share of that row's sampled latency (the shares in a row
/// sum to 100%).
fn breakdown_rows(report: &XrayReport) -> Table {
    let mut table = Table::new([
        "shard",
        "sampled",
        "avg lat (us)",
        "decide",
        "train",
        "queue",
        "transfer",
        "queue_wait (us)",
    ]);
    let mut row = |label: &str, t: &sibyl_xray::ComponentTotals| {
        let pct = |ns: u64| format!("{:.1}%", t.share(ns) * 100.0);
        table.add_row(vec![
            label.to_string(),
            t.sampled.to_string(),
            format!("{:.1}", t.mean_latency_us()),
            pct(t.decide_ns),
            pct(t.train_ns),
            pct(t.queue_ns),
            pct(t.transfer_ns),
            format!(
                "{:.1}",
                t.queue_wait_ns as f64 / t.sampled.max(1) as f64 / 1_000.0
            ),
        ]);
    };
    for s in &report.shards {
        row(&s.shard.to_string(), &s.totals);
    }
    row("merged", &report.merged_totals());
    table
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(4_000);
    let mut fig = Figure::new(
        "sec16_xray",
        "§16 x-ray",
        "Per-request tracing: critical-path breakdown, tail forensics, folded stacks",
        n,
    );
    println!(
        "4 shards x batch 16, 1/2^{SAMPLE_EXPONENT} deterministic sampling, \
         {n} requests per workload\n"
    );

    let base = serving_config(4, 16).with_xray(XrayConfig::Sampled(SAMPLE_EXPONENT));

    let runs: [(&str, Trace, ServeConfig); 2] = [
        ("mix2", Mix::Mix2.generate(n, seed()), base.clone()),
        (
            // The diurnal arm adds background migration, so the folded
            // stacks carry stall.migrate stacks too.
            "diurnal",
            synth::diurnal(n, 5, seed()),
            base.clone()
                .with_migrate(MigrateConfig::default().with_scan_period(4)),
        ),
    ];

    let mut mix2_folded: Option<String> = None;
    for (name, trace, config) in runs {
        let report = serve_trace(&config, &trace)?.xray.expect("xray enabled");
        println!(
            "--- {name}: critical-path breakdown ({} of {} requests sampled) ---",
            report.sampled(),
            report.requests_seen()
        );
        fig.table(&format!("{name}_breakdown"), &breakdown_rows(&report));
        println!("--- {name}: top-5 tail requests ---");
        fig.text(&format!("{name}_tail"), &report.render_tail(5));
        let folded = report.xray_folded();
        fig.record_text(&format!("{name}_folded"), &folded);
        if name == "mix2" {
            mix2_folded = Some(folded);
        }
    }

    // CI determinism gate: two invocations must write byte-identical
    // folded exports (`cmp`-ed by the workflow).
    if let Ok(path) = std::env::var("SIBYL_XRAY_OUT") {
        let folded = mix2_folded.expect("mix2 arm ran");
        std::fs::write(&path, &folded)?;
        println!(
            "folded stacks ({} lines) written to {path}",
            folded.lines().count()
        );
    }
    Ok(fig.finish()?)
}
