//! End-to-end golden pins for the telemetry subsystem's determinism
//! contract.
//!
//! **Enabled ⇒ reproducible and non-perturbing**, pinned across the same
//! shard geometries the quantization goldens cover (4×16, 2×8, 1×32 on
//! the Mix2 reference trace): two enabled runs export *byte-identical*
//! JSONL (everything deterministic lives on logical time; wall-clock
//! totals are confined to the `measured.*` namespace, which the export
//! excludes), and enabling telemetry changes zero placement decisions —
//! the per-shard reports match the disabled run's exactly. (Disabled ⇒
//! invisible is the `TelemetryConfig::off` row of `neutral_knobs.rs`.)

mod common;

use common::{mixed_trace, GEOMETRIES};
use sibyl_serve::{serve_trace, ServeConfig, TelemetryConfig};

fn config(shards: usize, max_batch: usize) -> ServeConfig {
    common::config(shards, max_batch)
        .with_nn_ns_per_mac(20.0)
        .with_curve_every(8)
}

#[test]
fn enabled_exports_are_byte_identical_across_runs() {
    for (shards, max_batch, n) in GEOMETRIES {
        let trace = mixed_trace(n);
        let cfg = config(shards, max_batch).with_telemetry(TelemetryConfig::full());
        let a = serve_trace(&cfg, &trace).unwrap();
        let b = serve_trace(&cfg, &trace).unwrap();
        let jsonl_a = a.telemetry.as_ref().unwrap().export_jsonl();
        let jsonl_b = b.telemetry.as_ref().unwrap().export_jsonl();
        assert_eq!(
            jsonl_a, jsonl_b,
            "{shards}x{max_batch}: telemetry export must be byte-identical"
        );
        // The deterministic export never leaks a wall-clock value.
        assert!(!jsonl_a.contains("measured."), "{shards}x{max_batch}");
        // And the reports — with measured values excluded from equality —
        // compare equal too.
        assert_eq!(a, b, "{shards}x{max_batch}");
    }
}

#[test]
fn enabling_telemetry_changes_zero_placement_decisions() {
    for (shards, max_batch, n) in GEOMETRIES {
        let trace = mixed_trace(n);
        let off = serve_trace(&config(shards, max_batch), &trace).unwrap();
        let on = serve_trace(
            &config(shards, max_batch).with_telemetry(TelemetryConfig::full()),
            &trace,
        )
        .unwrap();
        assert_eq!(
            on.shards, off.shards,
            "{shards}x{max_batch}: placement or accounting drifted"
        );
        // The runs exercised learning, so the pin is not vacuous.
        let trained: u64 = off.shards.iter().map(|s| s.agent.train_steps).sum();
        assert!(
            trained > 0,
            "{shards}x{max_batch}: golden trace never trained"
        );
    }
}
