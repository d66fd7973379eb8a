//! End-to-end behaviour of the sharded engine through its public API:
//! routing and accounting, determinism, streaming, error surfaces,
//! cooperation, migration, the §10 cost model, and what the enabled
//! observers record.

mod common;

use common::{config, mixed_trace};
use sibyl_serve::{
    serve_stream, serve_trace, CoopConfig, CoopMode, MigrateConfig, MigratePolicyKind, ServeError,
    TelemetryConfig, XrayConfig,
};
use sibyl_trace::{mix, msrc};

const COOPERATIVE: [CoopMode; 3] = [
    CoopMode::SharedReplay,
    CoopMode::WeightAverage,
    CoopMode::Both,
];

#[test]
fn every_request_is_served_exactly_once() {
    let trace = mixed_trace(1_000);
    let report = serve_trace(&config(4, 16), &trace).unwrap();
    assert_eq!(report.shards.len(), 4);
    assert_eq!(report.total_requests(), trace.len() as u64);
    for s in &report.shards {
        assert_eq!(s.stats.total_requests, s.requests);
        assert_eq!(s.agent.decisions, s.requests);
        assert!(s.batches >= s.requests.div_ceil(16));
        assert_eq!(s.coop_syncs, 0, "no cooperation by default");
        assert_eq!(s.agent.shared_published, 0);
        assert_eq!(s.agent.shared_absorbed, 0);
    }
}

#[test]
fn seeded_run_reproduces_identical_metrics() {
    let trace = mixed_trace(1_000);
    let cfg = config(4, 32);
    let a = serve_trace(&cfg, &trace).unwrap();
    let b = serve_trace(&cfg, &trace).unwrap();
    assert_eq!(a, b, "sharded serving must be deterministic");
    assert_eq!(a.aggregate(), b.aggregate());
}

#[test]
fn more_shards_increase_aggregate_iops() {
    let trace = mixed_trace(1_500);
    let one = serve_trace(&config(1, 16).with_time_scale(40.0), &trace).unwrap();
    let four = serve_trace(&config(4, 16).with_time_scale(40.0), &trace).unwrap();
    let (i1, i4) = (one.aggregate().iops, four.aggregate().iops);
    assert!(
        i4 > i1,
        "4 shards ({i4:.0} IOPS) should out-serve 1 shard ({i1:.0} IOPS)"
    );
}

#[test]
fn single_shard_single_batch_matches_sequential_structure() {
    // max_batch = 1 degenerates to the sequential decision path: one
    // request per inference round.
    let trace = msrc::generate(msrc::Workload::Rsrch0, 300, 3);
    let report = serve_trace(&config(1, 1), &trace).unwrap();
    assert_eq!(report.shards[0].batches, 300);
    assert!((report.shards[0].avg_batch() - 1.0).abs() < 1e-12);
}

#[test]
fn empty_trace_is_an_error() {
    let trace = sibyl_trace::Trace::from_requests("empty", vec![]);
    assert_eq!(
        serve_trace(&config(2, 8), &trace),
        Err(ServeError::EmptyTrace)
    );
    assert_eq!(
        ServeError::EmptyTrace.to_string(),
        "trace contains no requests"
    );
}

#[test]
fn streamed_run_is_bit_identical_to_vec_fed_run() {
    // Satellite of the scale work: feeding the engine from the seeded
    // generator stream must reproduce the materialized golden Mix2
    // run exactly — same shard reports, same placement decisions —
    // because the stream's prefix is bit-identical to the Vec and the
    // router is the same loop either way.
    let n = 600;
    let trace = mixed_trace(n);
    let cfg = config(4, 8);
    let vec_fed = serve_trace(&cfg, &trace).unwrap();
    let streamed = serve_stream(&cfg, mix::Mix::Mix2.stream(n, 7).take(trace.len())).unwrap();
    assert_eq!(vec_fed, streamed);
    // And an owned materialized trace feeds the stream path unchanged.
    let adapted = serve_stream(&cfg, trace.requests().to_vec().into_iter()).unwrap();
    assert_eq!(vec_fed, adapted);
}

#[test]
fn streamed_runs_scale_directory_with_footprint_not_length() {
    // Serving the same infinite stream for 4x the requests must not
    // grow the directory 4x: pages repeat, the directory tracks the
    // footprint. (The wider sweep lives in the sec14_scale bench.)
    let cfg = config(2, 8);
    let short = serve_stream(&cfg, mix::Mix::Mix2.stream(400, 7).take(800)).unwrap();
    let long = serve_stream(&cfg, mix::Mix::Mix2.stream(400, 7).take(3_200)).unwrap();
    assert_eq!(long.total_requests(), 4 * short.total_requests());
    assert!(short.peak_directory_bytes() > 0);
    assert!(
        long.total_directory_bytes() < 3 * short.total_directory_bytes(),
        "directory must be footprint-bounded: short {} bytes, long {} bytes",
        short.total_directory_bytes(),
        long.total_directory_bytes()
    );
}

#[test]
fn empty_stream_is_an_error() {
    assert_eq!(
        serve_stream(&config(2, 8), std::iter::empty()),
        Err(ServeError::EmptyTrace)
    );
}

#[test]
fn degenerate_config_is_an_error_not_a_panic() {
    let trace = mixed_trace(10);
    assert_eq!(
        serve_trace(&config(0, 8), &trace),
        Err(ServeError::ZeroShards)
    );
    assert_eq!(
        serve_trace(&config(2, 0), &trace),
        Err(ServeError::ZeroMaxBatch)
    );
    let coop_zero = config(2, 8).with_coop(CoopConfig::new(CoopMode::Both).with_sync_period(0));
    assert!(matches!(
        serve_trace(&coop_zero, &trace),
        Err(ServeError::Coop(_))
    ));
}

#[test]
fn cooperative_modes_serve_every_request_and_sync() {
    let trace = mixed_trace(1_000);
    for mode in COOPERATIVE {
        let cfg = config(4, 16).with_coop(CoopConfig::new(mode).with_sync_period(4));
        let report = serve_trace(&cfg, &trace).unwrap();
        assert_eq!(report.total_requests(), trace.len() as u64, "{mode}");
        let total_syncs: u64 = report.shards.iter().map(|s| s.coop_syncs).sum();
        assert!(total_syncs > 0, "{mode}: no sync rounds happened");
        if mode.shares_experiences() {
            let absorbed: u64 = report.shards.iter().map(|s| s.agent.shared_absorbed).sum();
            assert!(absorbed > 0, "{mode}: nothing crossed shard boundaries");
        }
        if mode.averages_weights() {
            for s in &report.shards {
                assert!(
                    s.agent.weight_syncs >= s.coop_syncs,
                    "{mode}: shard {} adopted no averaged weights",
                    s.shard
                );
            }
        }
    }
}

#[test]
fn cooperative_runs_are_deterministic() {
    let trace = mixed_trace(800);
    for mode in COOPERATIVE {
        let cfg = config(4, 16).with_coop(CoopConfig::new(mode).with_sync_period(4));
        let a = serve_trace(&cfg, &trace).unwrap();
        let b = serve_trace(&cfg, &trace).unwrap();
        assert_eq!(a, b, "{mode}: cooperative serving must be deterministic");
    }
}

#[test]
fn active_migration_moves_pages_and_charges_device_time() {
    let trace = mixed_trace(1_500);
    for policy in [MigratePolicyKind::HotCold, MigratePolicyKind::Rl] {
        let cfg = config(2, 16).with_migrate(MigrateConfig::new(policy).with_scan_period(2));
        let report = serve_trace(&cfg, &trace).unwrap();
        assert_eq!(report.total_requests(), trace.len() as u64, "{policy}");
        let moved: u64 = report.shards.iter().map(|s| s.migrations).sum();
        let busy: f64 = report.shards.iter().map(|s| s.migration_busy_us).sum();
        assert!(moved > 0, "{policy}: no pages migrated");
        assert!(busy > 0.0, "{policy}: migration I/O must cost device time");
        for s in &report.shards {
            assert_eq!(
                s.stats.bg_promoted_pages + s.stats.bg_demoted_pages,
                s.migrations,
                "{policy}: shard {} counters disagree with manager stats",
                s.shard
            );
        }
    }
}

#[test]
fn migrating_runs_are_deterministic() {
    let trace = mixed_trace(1_000);
    for policy in [MigratePolicyKind::HotCold, MigratePolicyKind::Rl] {
        let cfg = config(4, 16).with_migrate(MigrateConfig::new(policy).with_scan_period(4));
        let a = serve_trace(&cfg, &trace).unwrap();
        let b = serve_trace(&cfg, &trace).unwrap();
        assert_eq!(a, b, "{policy}: migrating runs must be deterministic");
    }
}

#[test]
fn degenerate_migration_config_is_an_error_not_a_panic() {
    let trace = mixed_trace(10);
    let cfg = config(2, 8)
        .with_migrate(MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(0));
    assert!(matches!(
        serve_trace(&cfg, &trace),
        Err(ServeError::Migrate(_))
    ));
}

#[test]
fn nn_cost_charges_latency_and_amortizes_with_batch() {
    let trace = mixed_trace(800);
    let free = serve_trace(&config(2, 1), &trace).unwrap();
    let charged_b1 = serve_trace(&config(2, 1).with_nn_ns_per_mac(10.0), &trace).unwrap();
    let charged_b32 = serve_trace(&config(2, 32).with_nn_ns_per_mac(10.0), &trace).unwrap();
    assert!(
        charged_b1.aggregate().avg_latency_us > free.aggregate().avg_latency_us,
        "charging inference time must raise latency"
    );
    let busy_b1: f64 = charged_b1.shards.iter().map(|s| s.nn_busy_us).sum();
    let busy_b32: f64 = charged_b32.shards.iter().map(|s| s.nn_busy_us).sum();
    assert!(busy_b1 > 0.0 && busy_b32 > 0.0);
    assert!(
        busy_b32 < busy_b1 / 8.0,
        "batched inference must amortize the pass: {busy_b32:.0} vs {busy_b1:.0} µs"
    );
    assert_eq!(
        free.shards.iter().map(|s| s.nn_busy_us).sum::<f64>(),
        0.0,
        "disabled model must charge nothing"
    );
    assert_eq!(
        free.shards.iter().map(|s| s.train_busy_us).sum::<f64>(),
        0.0,
        "disabled model must charge no training either"
    );
}

#[test]
fn training_is_charged_through_the_nn_cost_model() {
    let trace = mixed_trace(1_200);
    let cfg = config(2, 8).with_nn_ns_per_mac(10.0);
    let report = serve_trace(&cfg, &trace).unwrap();
    for s in &report.shards {
        assert!(
            s.agent.train_steps > 0,
            "shard {} never trained — the charge has nothing to bill",
            s.shard
        );
        // Each train step bills batches_per_step forward+backward
        // weight streams of the 1380-MAC C51 net at 10 ns/MAC.
        let expected =
            s.agent.train_steps as f64 * 2.0 * cfg.sibyl.batches_per_step as f64 * 1380.0 * 10.0
                / 1_000.0;
        assert!(
            (s.train_busy_us - expected).abs() < 1e-6 * expected,
            "shard {}: train_busy_us {} vs expected {}",
            s.shard,
            s.train_busy_us,
            expected
        );
    }
    // The training bill delays subsequent batches, so it must show up
    // in served latency on top of the inference-only charge.
    let mut never_trains = cfg.clone();
    never_trains.sibyl.train_interval = u64::MAX;
    let inference_only = serve_trace(&never_trains, &trace).unwrap();
    assert_eq!(
        inference_only
            .shards
            .iter()
            .map(|s| s.train_busy_us)
            .sum::<f64>(),
        0.0,
        "an untrained run must bill no training time"
    );
}

#[test]
fn telemetry_observes_without_perturbing_placement() {
    // Enabling telemetry must change zero placement decisions: the
    // per-shard reports (latencies, placements, agent counters) stay
    // bit-identical; only the `telemetry` section appears.
    let trace = mixed_trace(1_000);
    let cfg = config(4, 16)
        .with_curve_every(4)
        .with_migrate(MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(4));
    let baseline = serve_trace(&cfg, &trace).unwrap();
    let full = serve_trace(&cfg.clone().with_telemetry(TelemetryConfig::full()), &trace).unwrap();
    assert_eq!(full.shards, baseline.shards);
    let telemetry = full.telemetry.as_ref().expect("telemetry section");
    assert_eq!(telemetry.shards.len(), 4);
    for (shard, report) in telemetry.shards.iter().zip(&full.shards) {
        assert_eq!(shard.shard, report.shard);
        assert!(shard.recorded_events > 0, "shard {} silent", shard.shard);
        assert_eq!(shard.registry.counter("serve.requests"), report.requests);
        assert_eq!(shard.registry.counter("serve.batches"), report.batches);
        assert_eq!(
            shard.registry.counter("hss.requests"),
            report.stats.total_requests
        );
        let latency = shard.registry.histogram("serve.latency_us").unwrap();
        assert_eq!(latency.count(), report.requests);
        assert_eq!(
            shard.registry.counter("migrate.promoted_pages")
                + shard.registry.counter("migrate.demoted_pages"),
            report.migrations
        );
        // Telemetry samples the RL probe at the curve cadence and
        // drains the agent's internal loss series.
        assert!(shard.registry.series("rl.epsilon").is_some());
        assert!(shard.registry.series("rl.train_loss").is_some());
        assert!(shard.registry.histogram("rl.replay_age").is_some());
        assert_eq!(
            shard.registry.series("curve.avg_latency_us").unwrap().len(),
            report.curve.len()
        );
        // The wall-clock total lives in the measured namespace only.
        assert!(shard.registry.counter("measured.shard_run_ns") > 0);
    }
}

#[test]
fn telemetry_event_trace_covers_the_taxonomy() {
    let trace = mixed_trace(1_000);
    let cfg = config(2, 8)
        .with_nn_ns_per_mac(10.0)
        .with_migrate(MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(4))
        .with_coop(CoopConfig::new(CoopMode::SharedReplay).with_sync_period(4))
        .with_telemetry(TelemetryConfig::full());
    let report = serve_trace(&cfg, &trace).unwrap();
    let telemetry = report.telemetry.unwrap();
    let kinds: std::collections::BTreeSet<&str> = telemetry
        .shards
        .iter()
        .flat_map(|s| s.events.iter().map(|e| e.event.kind()))
        .collect();
    for expected in [
        "batch_decided",
        "request_served",
        "train_step",
        "migration_tick",
        "coop_sync",
    ] {
        assert!(kinds.contains(expected), "no {expected} event recorded");
    }
    // Sequence numbers are per-shard and strictly increasing.
    for shard in &telemetry.shards {
        for w in shard.events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
        assert_eq!(shard.registry.counter("coop.syncs"), {
            report
                .shards
                .iter()
                .find(|s| s.shard == shard.shard)
                .unwrap()
                .coop_syncs
        });
    }
}

#[test]
fn xray_observes_without_perturbing_placement() {
    // Enabling x-ray tracing must change zero placement decisions:
    // the per-shard reports stay bit-identical; only the `xray`
    // section appears — with exact critical-path sums.
    let trace = mixed_trace(1_000);
    let cfg = config(4, 16)
        .with_nn_ns_per_mac(10.0)
        .with_migrate(MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(4));
    let baseline = serve_trace(&cfg, &trace).unwrap();
    let traced = serve_trace(&cfg.clone().with_xray(XrayConfig::Sampled(2)), &trace).unwrap();
    assert_eq!(traced.shards, baseline.shards);
    let xray = traced.xray.as_ref().expect("xray section");
    assert_eq!(xray.requests_seen(), trace.len() as u64);
    assert_eq!(xray.clamps(), 0, "tracer and engine disagree on a sample");
    assert!(
        xray.sampled() > 0 && xray.sampled() < xray.requests_seen(),
        "1/4 sampling must trace a strict subset: {}/{}",
        xray.sampled(),
        xray.requests_seen()
    );
    let merged = xray.merged_totals();
    assert_eq!(
        merged.components().iter().sum::<u64>(),
        merged.latency_ns,
        "shares must sum to 100%"
    );
    assert!(merged.decide_ns > 0, "charged NN time must be attributed");
    assert!(merged.transfer_ns > 0, "device time must be attributed");
    assert!(
        xray.shards.iter().map(|s| s.migrate_ticks).sum::<u64>() > 0,
        "migration ticks must be observed"
    );
    // Tail forensics: every retained sample decomposes exactly.
    let tail = xray.tail(5);
    assert!(!tail.is_empty());
    for t in &tail {
        let sum = t.decide_ns + t.train_ns + t.queue_ns + t.transfer_ns;
        assert_eq!(sum, t.latency_ns, "tail sample must decompose exactly");
    }
}

#[test]
fn xray_sampled_runs_reproduce_identical_folded_exports() {
    let trace = mixed_trace(800);
    let cfg = config(2, 8).with_xray(XrayConfig::Sampled(1));
    let a = serve_trace(&cfg, &trace).unwrap();
    let b = serve_trace(&cfg, &trace).unwrap();
    assert_eq!(a, b, "traced runs must be deterministic");
    let folded = a.xray.as_ref().unwrap().xray_folded();
    assert_eq!(
        folded,
        b.xray.as_ref().unwrap().xray_folded(),
        "folded-stacks exports must be byte-identical"
    );
    assert!(folded.contains("request;hss.access;device.transfer"));
    assert_eq!(a.xray.as_ref().unwrap().clamps(), 0);
}

#[test]
fn xray_spans_feed_telemetry_histograms() {
    let trace = mixed_trace(800);
    let cfg = config(2, 8)
        .with_nn_ns_per_mac(10.0)
        .with_telemetry(TelemetryConfig::full())
        .with_xray(XrayConfig::Sampled(0));
    let report = serve_trace(&cfg, &trace).unwrap();
    let xray = report.xray.as_ref().expect("xray section");
    let telemetry = report.telemetry.as_ref().expect("telemetry section");
    for (ts, xs) in telemetry.shards.iter().zip(&xray.shards) {
        let lat = ts.registry.histogram("xray.latency_ns").expect("histogram");
        assert_eq!(lat.count(), xs.totals.sampled);
        for name in ["xray.decide_ns", "xray.queue_wait_ns", "xray.transfer_ns"] {
            assert_eq!(
                ts.registry.histogram(name).expect(name).count(),
                xs.totals.sampled
            );
        }
    }
}

#[test]
fn degenerate_xray_config_is_an_error_not_a_panic() {
    let trace = mixed_trace(10);
    let cfg = config(2, 8).with_xray(XrayConfig::Sampled(64));
    assert!(matches!(
        serve_trace(&cfg, &trace),
        Err(ServeError::Xray(_))
    ));
}

#[test]
fn learning_curve_sampling_is_cumulative_and_optional() {
    let trace = mixed_trace(800);
    let off = serve_trace(&config(2, 16), &trace).unwrap();
    assert!(off.shards.iter().all(|s| s.curve.is_empty()));
    let on = serve_trace(&config(2, 16).with_curve_every(4), &trace).unwrap();
    for s in &on.shards {
        assert!(!s.curve.is_empty(), "shard {} sampled no points", s.shard);
        for w in s.curve.windows(2) {
            assert!(w[0].requests < w[1].requests, "curve must move forward");
        }
        assert_eq!(s.curve.len() as u64, s.batches / 4);
    }
}
