//! `ServeExperiment` through its public API: single runs, streamed runs,
//! the optional telemetry/x-ray surfaces, and labelled sweeps — on the
//! serving engine's own test fixture.

#[path = "../../serve/tests/common/mod.rs"]
mod common;

use common::{config, mixed_trace};
use sibyl_serve::{CoopConfig, CoopMode, ServeConfig, TelemetryConfig, XrayConfig};
use sibyl_sim::{ServeExperiment, ServeSweep, SimError};
use sibyl_trace::{msrc, Trace};

fn coop_modes(base: &ServeConfig) -> [(CoopMode, ServeConfig); 4] {
    CoopMode::ALL.map(|mode| {
        let mut config = base.clone();
        config.coop = config.coop.with_mode(mode);
        (mode, config)
    })
}

#[test]
fn outcome_covers_every_shard_and_request() {
    let trace = msrc::generate(msrc::Workload::Prxy1, 2_000, 5);
    let exp = ServeExperiment::new(config(4, 32), trace);
    let out = exp.run().unwrap();
    assert_eq!(out.shard_metrics.len(), 4);
    assert_eq!(out.aggregate.total_requests, 2_000);
    let per_shard: u64 = out.shard_metrics.iter().map(|m| m.total_requests).sum();
    assert_eq!(per_shard, 2_000);
    assert_eq!(exp.config().shards, 4);
    assert_eq!(exp.trace().len(), 2_000);
}

#[test]
fn observer_surfaces_are_deterministic_and_optional() {
    let trace = msrc::generate(msrc::Workload::Prxy1, 1_200, 5);
    let off = ServeExperiment::new(config(2, 32), trace.clone())
        .run()
        .unwrap();
    assert!(off.telemetry_jsonl().is_none() && off.telemetry_top().is_none());
    assert!(off.xray_report().is_none() && off.xray_folded().is_none());
    let cfg = config(2, 32)
        .with_curve_every(4)
        .with_telemetry(TelemetryConfig::full())
        .with_xray(XrayConfig::Sampled(0));
    let exp = ServeExperiment::new(cfg, trace);
    let (a, b) = (exp.run().unwrap(), exp.run().unwrap());

    let jsonl = a.telemetry_jsonl().unwrap();
    assert_eq!(jsonl, b.telemetry_jsonl().unwrap(), "byte-identical export");
    assert!(jsonl.lines().count() > 10);
    assert!(!jsonl.contains("measured."));
    let top = a.telemetry_top().unwrap();
    assert!(top.contains("sibyl-top") && top.contains("serve.requests"));

    let folded = a.xray_folded().unwrap();
    assert_eq!(folded, b.xray_folded().unwrap(), "byte-identical export");
    assert!(folded.contains("request;hss.access;device.transfer"));
    let report = a.xray_report().unwrap();
    assert_eq!(report.requests_seen(), 1_200);
    assert_eq!(report.sampled(), 1_200, "1/2^0 sampling traces everything");
    assert_eq!(report.clamps(), 0);
    assert!(report.breakdown_table().contains("merged"));
}

#[test]
fn empty_trace_maps_to_sim_error() {
    let empty = Trace::from_requests("e", vec![]);
    let exp = ServeExperiment::new(config(2, 32), empty.clone());
    assert!(matches!(exp.run(), Err(SimError::EmptyTrace)));
    assert!(matches!(
        ServeExperiment::run_stream(&config(2, 32), std::iter::empty()),
        Err(SimError::EmptyTrace)
    ));
    assert!(matches!(
        ServeExperiment::sweep(&empty, [("only", config(2, 32))]),
        Err(SimError::EmptyTrace)
    ));
}

#[test]
fn streamed_experiment_matches_materialized_run() {
    let cfg = config(2, 32);
    let n = 900;
    let seed = 11;
    let trace = msrc::generate(msrc::Workload::Prxy1, n, seed);
    let vec_fed = ServeExperiment::new(cfg.clone(), trace).run().unwrap();
    let streamed =
        ServeExperiment::run_stream(&cfg, msrc::stream(msrc::Workload::Prxy1, n, seed).take(n))
            .unwrap();
    assert_eq!(vec_fed, streamed);
}

#[test]
fn sweep_keeps_input_order_and_compares_to_the_first_run() {
    let trace = mixed_trace(400);
    let base = config(2, 16)
        .with_curve_every(4)
        .with_coop(CoopConfig::default().with_sync_period(4));
    let sweep = ServeExperiment::sweep(&trace, coop_modes(&base)).unwrap();
    let labels: Vec<CoopMode> = sweep.runs.iter().map(|(mode, _)| *mode).collect();
    assert_eq!(labels, CoopMode::ALL);
    for (mode, outcome) in &sweep.runs {
        assert_eq!(outcome.aggregate.total_requests, 800, "{mode}");
        let curve = outcome.report.aggregate_curve();
        assert!(!curve.is_empty(), "{mode}: no aggregate curve");
        for w in curve.windows(2) {
            assert!(w[0].requests <= w[1].requests);
        }
        let syncs: u64 = outcome.report.shards.iter().map(|s| s.coop_syncs).sum();
        assert_eq!(syncs > 0, mode.is_cooperative(), "{mode}");
    }
    // The baseline is the first run; it compares to itself as 1.0 / 0.0.
    assert_eq!(sweep.baseline(), sweep.get(&CoopMode::Independent));
    assert_eq!(sweep.normalized_latency(&CoopMode::Independent), Some(1.0));
    assert_eq!(sweep.hit_rate_gain(&CoopMode::Independent), Some(0.0));
    let best = *sweep.best_challenger().expect("three challengers");
    assert!(best.is_cooperative());
    for (mode, _) in &sweep.runs[1..] {
        assert!(sweep.normalized_latency(&best) <= sweep.normalized_latency(mode));
    }
}

#[test]
fn sweep_lookups_answer_none_not_zero() {
    // A label that was not swept is not a perfect 0.0 result.
    let trace = mixed_trace(100);
    let sweep = ServeExperiment::sweep(&trace, [("base", config(1, 16))]).unwrap();
    assert_eq!(sweep.normalized_latency(&"absent"), None);
    assert_eq!(sweep.hit_rate_gain(&"absent"), None);
    assert_eq!(sweep.best_challenger(), None, "only the baseline ran");
    // Neither is a ratio against a baseline without a latency.
    let served = sweep.runs[0].1.clone();
    let mut nothing = served.clone();
    nothing.aggregate.avg_latency_us = 0.0;
    let degenerate = ServeSweep {
        runs: vec![("nothing", nothing), ("served", served)],
    };
    assert_eq!(degenerate.normalized_latency(&"served"), None);
    assert!(degenerate.hit_rate_gain(&"served").is_some());
}

#[test]
fn sweep_propagates_the_first_failing_configuration() {
    let trace = mixed_trace(50);
    let mut broken = config(2, 16);
    broken.coop = CoopConfig::new(CoopMode::Both).with_sync_period(0);
    let result = ServeExperiment::sweep(&trace, [("fine", config(2, 16)), ("broken", broken)]);
    assert!(matches!(result, Err(SimError::Serve(_))));
}
