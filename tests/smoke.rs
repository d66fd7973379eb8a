//! Facade smoke test: the crate-level Quickstart path, pinned.
//!
//! Runs `msrc::generate` → `HssConfig::dual` → `Experiment::run`
//! (`PolicyKind::sibyl()`) exactly as the `src/lib.rs` Quickstart shows;
//! the run is single-threaded and bit-for-bit reproducible. Sized to
//! finish in a few seconds.

use sibyl::hss::{DeviceSpec, HssConfig};
use sibyl::sim::{Experiment, PolicyKind};
use sibyl::trace::msrc;

#[test]
fn quickstart_path_runs_and_is_deterministic() {
    let trace = msrc::generate(msrc::Workload::Rsrch0, 6_000, 42);
    let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
        .with_fast_capacity_fraction(0.10);
    let exp = Experiment::new(hss, trace);

    let outcome = exp.run(PolicyKind::sibyl()).expect("quickstart run");
    assert_eq!(outcome.policy, "Sibyl");
    assert_eq!(outcome.metrics.total_requests, 6_000);
    assert!(outcome.metrics.avg_latency_us > 0.0);
    assert!(outcome.metrics.iops > 0.0);
    assert_eq!(outcome.metrics.placements.iter().sum::<u64>(), 6_000);

    // Same seed, same config → identical metrics. Foreground training
    // keeps every RNG stream (trace synthesis, exploration, replay
    // sampling, weight init) on one thread, so the tier-1 gate can rely
    // on back-to-back runs matching exactly.
    let again = exp.run(PolicyKind::sibyl()).expect("repeat run");
    assert_eq!(outcome, again, "repeated Quickstart run diverged");
}

#[test]
fn trace_generation_is_seed_deterministic() {
    let a = msrc::generate(msrc::Workload::Prxy1, 5_000, 7);
    let b = msrc::generate(msrc::Workload::Prxy1, 5_000, 7);
    assert_eq!(a, b, "same seed must reproduce the same trace");
    let c = msrc::generate(msrc::Workload::Prxy1, 5_000, 8);
    assert_ne!(a, c, "different seeds must produce different traces");
}
