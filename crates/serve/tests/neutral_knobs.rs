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

use common::{config, mixed_trace, GEOMETRIES};
use sibyl_serve::{
    serve_trace, CoopConfig, CoopMode, MigrateConfig, MigratePolicyKind, ServeConfig,
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
                    .with_promote_min_heat(1),
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
