//! Neutral knob ≡ default config, one table for every subsystem.
//!
//! Each optional subsystem has a setting that must take the exact code
//! path of an engine that never heard of it — no coordinator, no
//! migrator, no sink, no tracer — so its [`ServeReport`] is
//! bit-identical to the default configuration's, even with the
//! subsystem's *other* knobs set to exotic values. Pinned per knob at
//! the three reference geometries, with the §10 cost model and curve
//! sampling on so the comparison covers the whole loop.
//!
//! [`ServeReport`]: sibyl_serve::ServeReport

mod common;

use common::watchdog::within_timeout;
use common::{config, mixed_trace, GEOMETRIES};
use sibyl_serve::{
    serve_stream, serve_trace, CoopConfig, CoopMode, MigrateConfig, MigratePolicyKind, ServeConfig,
    TelemetryConfig, XrayConfig,
};

fn neutral_variants(base: &ServeConfig) -> [(&'static str, ServeConfig); 4] {
    [
        (
            "CoopMode::Independent",
            base.clone().with_coop(
                CoopConfig::new(CoopMode::Independent)
                    .with_sync_period(3)
                    .with_share_fraction(0.9),
            ),
        ),
        (
            "MigratePolicyKind::None",
            base.clone().with_migrate(
                MigrateConfig::new(MigratePolicyKind::None)
                    .with_scan_period(1)
                    .with_max_moves(1_000)
                    .with_promote_min_heat(1)
                    .with_seed(99),
            ),
        ),
        (
            "TelemetryConfig::off",
            base.clone().with_telemetry(TelemetryConfig::off()),
        ),
        ("XrayConfig::Off", base.clone().with_xray(XrayConfig::Off)),
    ]
}

#[test]
fn neutral_knobs_are_bit_identical_to_the_default_config() {
    for (shards, max_batch, n) in GEOMETRIES {
        let trace = mixed_trace(n);
        let base = config(shards, max_batch)
            .with_nn_ns_per_mac(20.0)
            .with_curve_every(8);
        let baseline = serve_trace(&base, &trace).unwrap();
        assert!(baseline.telemetry.is_none() && baseline.xray.is_none());
        for s in &baseline.shards {
            assert_eq!((s.coop_syncs, s.agent.shared_absorbed), (0, 0));
            assert_eq!((s.migrations, s.stats.bg_migration_events), (0, 0));
            assert!(s.agent.train_steps > 0, "golden trace never trained");
        }
        for (knob, variant) in neutral_variants(&base) {
            let report = serve_trace(&variant, &trace).unwrap();
            assert_eq!(report, baseline, "{knob} at {shards}x{max_batch}");
        }
    }
}

#[test]
fn backpressure_is_decision_neutral() {
    // `queue_capacity` sizes the blocks requests cross to a shard in,
    // never the batches cut from them: whatever the capacity — below
    // `max_batch`, not a multiple of it, a single slot — every report
    // equals the default-capacity (1024) one and every shard's batches
    // are fixed `max_batch`-chunks of its subsequence. 773 is prime, so
    // the single-shard runs end on a partial batch too. The same under
    // every cooperative mode, where a full queue yields to a starved
    // peer: how far the router gets ahead moves with the capacity and
    // the thread schedule, the reports do not.
    let mut cases = Vec::new();
    for shards in [1, 2, 3] {
        for max_batch in [1, 7, 16] {
            cases.push((shards, max_batch, CoopConfig::default()));
        }
    }
    for mode in [
        CoopMode::SharedReplay,
        CoopMode::WeightAverage,
        CoopMode::Both,
    ] {
        for shards in [2, 3] {
            for period in [1, 4] {
                cases.push((shards, 7, CoopConfig::new(mode).with_sync_period(period)));
            }
        }
    }
    let trace = mixed_trace(400);
    within_timeout(move || {
        let stream = || trace.iter().copied().take(773);
        for (shards, max_batch, coop) in cases {
            let base = config(shards, max_batch)
                .with_nn_ns_per_mac(20.0)
                .with_coop(coop);
            let baseline = serve_stream(&base, stream()).unwrap();
            assert_eq!(baseline.total_requests(), 773);
            for s in &baseline.shards {
                assert_eq!(s.batches, s.requests.div_ceil(max_batch as u64));
            }
            for capacity in [1, 5, 16, 1024] {
                let report =
                    serve_stream(&base.clone().with_queue_capacity(capacity), stream()).unwrap();
                assert_eq!(
                    report, baseline,
                    "queue_capacity {capacity} at {shards}x{max_batch}, {coop:?}"
                );
            }
        }
    });
}
