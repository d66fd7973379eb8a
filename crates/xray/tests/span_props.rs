//! Property pins for the tracer's invariants — the two guarantees
//! everything downstream (breakdown tables, folded stacks, telemetry
//! histograms) builds on:
//!
//! - **Exact attribution**: the four components of every sample sum to
//!   *exactly* its recorded latency, however adversarial the observed
//!   timings — integer arithmetic with the residual assigned to the last
//!   split and every other component clamped into the room left, no
//!   float drift — and the streaming totals preserve that exactness
//!   across any number of requests.
//! - **Reproducibility**: feeding the same observations to same-seed
//!   tracers yields byte-identical folded-stacks exports.

use proptest::prelude::*;

use sibyl_xray::{RequestObservation, XrayConfig, XrayReport, XrayTracer};

/// Raw generator tuple for one observation; [`build`] lifts it into a
/// [`RequestObservation`] (the vendored proptest shim has no `prop_map`,
/// so the mapping happens in the test body). Components are deliberately
/// allowed to exceed the latency they decompose (decide up to 500 µs
/// against latencies down to 0) so the tracer's clamping is exercised,
/// and timestamps may exceed arrivals (closed-loop replay never produces
/// that, but the tracer must not panic on it).
type RawObs = (
    (u64, f64, f64, f64),  // lba, timestamp_us, arrival_us, latency_us
    (f64, f64, f64),       // decide_us, train_us, queue_us
    (usize, usize, usize), // batch, device, target
    (u64, u64),            // promoted, evicted
);

/// The [`RawObs`] strategy.
#[allow(clippy::type_complexity)]
fn observation() -> (
    (
        core::ops::Range<u64>,
        core::ops::Range<f64>,
        core::ops::Range<f64>,
        core::ops::Range<f64>,
    ),
    (
        core::ops::Range<f64>,
        core::ops::Range<f64>,
        core::ops::Range<f64>,
    ),
    (
        core::ops::RangeInclusive<usize>,
        core::ops::Range<usize>,
        core::ops::Range<usize>,
    ),
    (core::ops::Range<u64>, core::ops::Range<u64>),
) {
    (
        (0u64..1 << 24, 0.0f64..1e6, 0.0f64..1e6, 0.0f64..10_000.0),
        (0.0f64..500.0, 0.0f64..500.0, 0.0f64..10_000.0),
        (1usize..=32, 0usize..4, 0usize..4),
        (0u64..16, 0u64..16),
    )
}

/// Lifts one generated tuple into the tracer's observation record.
fn build(raw: &RawObs) -> RequestObservation {
    let (
        (lba, timestamp_us, arrival_us, latency_us),
        (decide_us, train_us, queue_us),
        (batch, device, target),
        (promoted, evicted),
    ) = *raw;
    RequestObservation {
        lba,
        timestamp_us,
        arrival_us,
        latency_us,
        decide_us,
        train_us,
        queue_us,
        batch,
        device,
        target,
        promoted,
        evicted,
    }
}

proptest! {
    /// Exact attribution: every sample's components sum to its recorded
    /// latency, and the streamed totals keep the same exactness over the
    /// whole run — both as plain integer equalities (the residual split
    /// leaves no drift for any input).
    #[test]
    fn components_sum_exactly_to_latency(raw in proptest::collection::vec(observation(), 1..40)) {
        let mut tracer = XrayTracer::new(&XrayConfig::Sampled(0), 0, 7).expect("sampled tracer");
        for r in &raw {
            let s = tracer.observe_request(&build(r)).expect("Sampled(0) samples every request");
            prop_assert_eq!(s.decide_ns + s.train_ns + s.queue_ns + s.transfer_ns, s.latency_ns);
        }
        let shard = tracer.finish();
        prop_assert_eq!(shard.requests_seen, raw.len() as u64);
        let totals = &shard.totals;
        prop_assert_eq!(totals.sampled, raw.len() as u64);
        prop_assert_eq!(totals.components().iter().sum::<u64>(), totals.latency_ns);
    }

    /// Reproducibility: same observations + same seed → byte-identical
    /// folded-stacks exports, at every sampling rate.
    #[test]
    fn same_seed_runs_export_identical_folded_stacks(
        raw in proptest::collection::vec(observation(), 1..60),
        seed in 0u64..1000,
        exponent in 0u32..4,
    ) {
        let run = || {
            let mut tracer = XrayTracer::new(&XrayConfig::Sampled(exponent), 0, seed)
                .expect("sampled tracer");
            for r in &raw {
                tracer.observe_request(&build(r));
            }
            XrayReport::new(vec![tracer.finish()]).xray_folded()
        };
        // Byte-identical: the export is a pure function of (seed, inputs).
        prop_assert_eq!(run(), run());
    }
}
