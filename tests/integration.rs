//! Cross-crate integration tests: trace synthesis → HSS simulation →
//! placement policies → metrics, exercised through the public facade.

use sibyl::core::SibylConfig;
use sibyl::hss::{DeviceSpec, HssConfig};
use sibyl::sim::{run_suite, Experiment, PolicyKind};
use sibyl::trace::{filebench, mix::Mix, msrc};

fn hm() -> HssConfig {
    HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
}

fn hl() -> HssConfig {
    HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
}

#[test]
fn extremes_bound_every_policy() {
    // Fast-Only is the floor and (on a hot workload) Slow-Only is near
    // the ceiling for every reasonable policy.
    let trace = msrc::generate(msrc::Workload::Rsrch0, 8_000, 1);
    let suite = run_suite(
        &hm(),
        &trace,
        &[PolicyKind::SlowOnly, PolicyKind::Cde, PolicyKind::Oracle],
    )
    .unwrap();
    for i in 0..suite.outcomes.len() {
        let norm = suite.normalized_latency(i);
        assert!(
            norm >= 0.95,
            "{} beat Fast-Only: {norm}",
            suite.outcomes[i].policy
        );
    }
}

#[test]
fn oracle_beats_slow_only_and_most_baselines_on_hot_workloads() {
    let trace = msrc::generate(msrc::Workload::Prxy1, 20_000, 2);
    let suite = run_suite(
        &hm(),
        &trace,
        &[PolicyKind::SlowOnly, PolicyKind::Hps, PolicyKind::Oracle],
    )
    .unwrap();
    let slow = suite.normalized_latency(0);
    let hps = suite.normalized_latency(1);
    let oracle = suite.normalized_latency(2);
    assert!(oracle < slow, "Oracle {oracle} must beat Slow-Only {slow}");
    assert!(oracle < hps, "Oracle {oracle} must beat HPS {hps}");
}

#[test]
fn sibyl_beats_slow_only_on_hot_random_workload() {
    let trace = msrc::generate(msrc::Workload::Rsrch0, 20_000, 3);
    let suite = run_suite(&hm(), &trace, &[PolicyKind::SlowOnly, PolicyKind::sibyl()]).unwrap();
    let slow = suite.normalized_latency(0);
    let sibyl = suite.normalized_latency(1);
    assert!(
        sibyl < slow,
        "Sibyl ({sibyl:.2}) should beat Slow-Only ({slow:.2}) on rsrch_0"
    );
}

#[test]
fn sibyl_uses_the_fast_device() {
    let trace = msrc::generate(msrc::Workload::Prxy0, 15_000, 4);
    let out = Experiment::new(hm(), trace)
        .run(PolicyKind::sibyl())
        .unwrap();
    assert!(
        out.metrics.fast_placement_fraction > 0.2,
        "hot write workload should earn substantial fast placement: {}",
        out.metrics.fast_placement_fraction
    );
}

#[test]
fn deterministic_across_runs_with_same_seed() {
    let trace = msrc::generate(msrc::Workload::Usr0, 6_000, 5);
    let exp = Experiment::new(hm(), trace);
    let a = exp.run(PolicyKind::sibyl()).unwrap();
    let b = exp.run(PolicyKind::sibyl()).unwrap();
    assert_eq!(a.metrics.avg_latency_us, b.metrics.avg_latency_us);
    assert_eq!(a.metrics.placements, b.metrics.placements);
}

#[test]
fn tri_hybrid_runs_all_policies_and_sibyl_extends() {
    let trace = msrc::generate(msrc::Workload::Prxy1, 12_000, 7);
    let cfg = HssConfig::tri(
        DeviceSpec::optane_ssd(),
        DeviceSpec::tlc_ssd(),
        DeviceSpec::hdd(),
    );
    let suite = run_suite(
        &cfg,
        &trace,
        &[PolicyKind::TriHybridHeuristic, PolicyKind::sibyl()],
    )
    .unwrap();
    for o in &suite.outcomes {
        assert_eq!(o.metrics.placements.len(), 3, "{} placements", o.policy);
        assert_eq!(o.metrics.placements.iter().sum::<u64>(), 12_000);
    }
}

#[test]
fn unseen_workloads_run_end_to_end() {
    for wl in filebench::Unseen::FILEBENCH {
        let trace = filebench::generate(wl, 4_000, 8);
        let suite = run_suite(&hm(), &trace, &[PolicyKind::sibyl()]).unwrap();
        assert!(suite.normalized_latency(0) > 0.0, "{wl}");
    }
}

#[test]
fn mixed_workloads_run_end_to_end() {
    let trace = Mix::Mix2.generate(3_000, 9);
    let suite = run_suite(
        &hm(),
        &trace,
        &[PolicyKind::sibyl(), PolicyKind::sibyl_opt()],
    )
    .unwrap();
    assert_eq!(suite.outcomes.len(), 2);
    for i in 0..2 {
        assert!(suite.normalized_latency(i) >= 0.9);
    }
}

#[test]
fn hl_gap_dwarfs_hm_gap() {
    // The whole premise of the cost-oriented configuration: the H&L
    // latency gap is an order of magnitude larger than H&M's.
    let trace = msrc::generate(msrc::Workload::Rsrch0, 8_000, 10);
    let hm_suite = run_suite(&hm(), &trace, &[PolicyKind::SlowOnly]).unwrap();
    let hl_suite = run_suite(&hl(), &trace, &[PolicyKind::SlowOnly]).unwrap();
    let hm_gap = hm_suite.normalized_latency(0);
    let hl_gap = hl_suite.normalized_latency(0);
    assert!(
        hl_gap > 5.0 * hm_gap,
        "H&L gap ({hl_gap:.1}) should dwarf H&M gap ({hm_gap:.1})"
    );
}

#[test]
fn eviction_accounting_is_consistent() {
    // Placing everything fast on a tiny fast device must evict roughly
    // the overflow volume.
    let trace = msrc::generate(msrc::Workload::Mds0, 6_000, 11);
    let cfg = hm().with_fast_capacity_fraction(0.02);
    let out = Experiment::new(cfg, trace.clone())
        .run(PolicyKind::Cde)
        .unwrap();
    if out.metrics.eviction_fraction > 0.0 {
        assert!(out.metrics.evicted_pages > 0);
    }
    assert!(out.metrics.total_requests == trace.len() as u64);
}

#[test]
fn capacity_sweep_trends_toward_fast_only() {
    // With 90 % fast capacity the Oracle should be close to Fast-Only.
    let trace = msrc::generate(msrc::Workload::Prxy1, 10_000, 12);
    let big = hm().with_fast_capacity_fraction(0.9);
    let suite = run_suite(&big, &trace, &[PolicyKind::Oracle]).unwrap();
    let norm = suite.normalized_latency(0);
    assert!(norm < 2.0, "Oracle with 90% fast capacity: {norm:.2}");
}

#[test]
fn feature_ablation_changes_behaviour() {
    use sibyl::core::FeatureMask;
    let trace = msrc::generate(msrc::Workload::Rsrch0, 10_000, 13);
    let exp = Experiment::new(hm(), trace);
    let all = exp
        .run(PolicyKind::sibyl_with(SibylConfig::default()))
        .unwrap();
    let rt_only = exp
        .run(PolicyKind::sibyl_with(SibylConfig {
            feature_mask: FeatureMask::RT,
            ..Default::default()
        }))
        .unwrap();
    // Not asserting which wins (short traces are noisy) — but the agent
    // must behave differently when blinded.
    assert_ne!(
        all.metrics.placements, rt_only.metrics.placements,
        "masking features should change decisions"
    );
}
