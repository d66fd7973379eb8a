//! End-to-end golden pins for the `QuantMode` decide-path knob.
//!
//! The f16 inference fast path quantizes the inference network's weight
//! *storage* to binary16; the claim the serving layer needs is stronger
//! than an error bound — on a real trace, quantization must change
//! **zero** placement decisions, or divergence compounds request by
//! request. Because the engine is deterministic and its modeled NN bill
//! is precision-independent (`nn_ns_per_mac` charges MACs, not bits), an
//! identical decision sequence implies an identical [`ServeReport`] —
//! hit rates, latencies, learning curves, everything — so these tests
//! assert full-report equality, the strongest available form of the pin.

mod common;

use common::{mixed_trace, GEOMETRIES};
use sibyl_serve::{serve_trace, QuantMode};

/// The golden pin: serving the fixed-seed reference trace with
/// `QuantMode::F16` produces the identical placement sequence — and
/// therefore the identical full report (per-shard hit rates, latency
/// aggregates, training counters) — as full-f32 serving. Binary16 weight
/// rounding perturbs Q-values by ~2⁻¹¹ relative; this pins that no greedy
/// decision on the trace sat close enough to a tie to flip — at every
/// reference geometry, single-shard deep batches included.
#[test]
fn f16_serving_changes_zero_placement_decisions() {
    for (shards, max_batch, n) in GEOMETRIES {
        let trace = mixed_trace(n);
        let config = common::config(shards, max_batch).with_nn_ns_per_mac(20.0);
        let f32_report = serve_trace(&config, &trace).unwrap();
        let f16_report = serve_trace(&config.with_quant(QuantMode::F16), &trace).unwrap();
        assert_eq!(f16_report, f32_report, "{shards}x{max_batch}");
        // The run must have exercised the learning path, not degenerated
        // into a no-op comparison.
        let trained: u64 = f32_report.shards.iter().map(|s| s.agent.train_steps).sum();
        assert!(
            trained > 0,
            "{shards}x{max_batch}: golden trace never trained"
        );
    }
}
