//! Integration tests pinning the qualitative claims the reproduction
//! relies on — the "shape" assertions behind README's paper-mapping
//! table, encoded so regressions in the simulator or the agent surface as
//! test failures.

use sibyl::core::{FeatureMask, OverheadReport, SibylConfig};
use sibyl::hss::{replay, DeviceSpec, HssConfig, Metrics, StorageManager};
use sibyl::policies::Oracle;
use sibyl::sim::{run_suite, Experiment, PolicyKind};
use sibyl::trace::{msrc, stats::TraceStats};

fn hm() -> HssConfig {
    HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
}

fn hl() -> HssConfig {
    HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
}

#[test]
fn table4_statistics_track_published_targets() {
    for wl in [
        msrc::Workload::Hm1,
        msrc::Workload::Prxy0,
        msrc::Workload::Stg1,
    ] {
        let spec = wl.spec();
        let st = TraceStats::measure(&msrc::generate(wl, 20_000, 42));
        assert!(
            (st.write_fraction - spec.write_fraction).abs() < 0.03,
            "{wl}: write fraction {} vs target {}",
            st.write_fraction,
            spec.write_fraction
        );
        assert!(
            (st.avg_request_size_kib - spec.avg_request_size_kib).abs()
                < spec.avg_request_size_kib * 0.3,
            "{wl}: size {} vs target {}",
            st.avg_request_size_kib,
            spec.avg_request_size_kib
        );
    }
}

#[test]
fn overhead_report_matches_section_10() {
    let r = OverheadReport::paper_network(2);
    assert_eq!(r.weights, 780);
    let (_net, _buf, total) = r.paper_accounting_kib();
    assert!((total - 124.4).abs() < 0.1, "total {total}");
}

#[test]
fn oracle_is_the_ceiling_of_the_suite_averages() {
    // §8.1 measures every policy against the Oracle. On each device
    // configuration, the Oracle's Fast-Only-normalized latency, averaged
    // (geometric mean, as the figures' AVG rows) over a hot-read, a
    // hot-write, a cold-sequential and a mixed trace, is at or below
    // every other policy of the main comparison. It is a ceiling of the
    // averages, not of every cell.
    let traces = [
        msrc::Workload::Hm1,
        msrc::Workload::Prxy0,
        msrc::Workload::Stg1,
        msrc::Workload::Usr0,
    ]
    .map(|wl| msrc::generate(wl, 3_000, 42));
    let policies = PolicyKind::standard_suite();
    let oracle = policies
        .iter()
        .position(|p| matches!(p, PolicyKind::Oracle))
        .expect("the standard suite holds the Oracle");
    for (config, hss) in [("H&M", hm()), ("H&L", hl())] {
        let mut log_sum = vec![0.0f64; policies.len()];
        for trace in &traces {
            let suite = run_suite(&hss, trace, &policies).unwrap();
            for (i, sum) in log_sum.iter_mut().enumerate() {
                *sum += suite.normalized_latency(i).ln();
            }
        }
        let avg = |i: usize| (log_sum[i] / traces.len() as f64).exp();
        for (i, policy) in policies.iter().enumerate() {
            assert!(
                avg(oracle) <= avg(i),
                "{config}: Oracle {:.2} is above {policy} {:.2}",
                avg(oracle),
                avg(i)
            );
        }
    }
}

#[test]
fn oracle_beats_its_own_lru_ablation() {
    // The Oracle's future knowledge is its victim rule (§7): on the
    // traces of the ceiling claim above, the same placement rule under
    // the storage manager's default LRU eviction must not reach a lower
    // Fast-Only-normalized average on either device configuration.
    let traces = [
        msrc::Workload::Hm1,
        msrc::Workload::Prxy0,
        msrc::Workload::Stg1,
        msrc::Workload::Usr0,
    ]
    .map(|wl| msrc::generate(wl, 3_000, 42));
    for (config, hss) in [("H&M", hm()), ("H&L", hl())] {
        let (mut belady, mut lru) = (0.0f64, 0.0f64);
        for trace in &traces {
            let suite = run_suite(&hss, trace, &[PolicyKind::Oracle]).unwrap();
            belady += suite.normalized_latency(0).ln();
            let mut manager = StorageManager::new(&hss.resolved(trace.footprint_pages()));
            replay(&mut Oracle, &mut manager, trace.iter().copied(), |_, _| {});
            lru += Metrics::from_stats(manager.stats())
                .normalized_latency(&suite.fast_only.metrics)
                .ln();
        }
        let n = traces.len() as f64;
        let (belady, lru) = ((belady / n).exp(), (lru / n).exp());
        assert!(
            belady <= lru,
            "{config}: Oracle {belady:.2} is above its LRU ablation {lru:.2}"
        );
    }
}

#[test]
fn cde_is_best_baseline_in_hl_on_hot_workloads() {
    // §9: with a large inter-device gap, CDE's aggressive placement wins
    // despite its eviction volume.
    let trace = msrc::generate(msrc::Workload::Rsrch0, 15_000, 1);
    let suite = run_suite(
        &hl(),
        &trace,
        &[PolicyKind::Cde, PolicyKind::Hps, PolicyKind::SlowOnly],
    )
    .unwrap();
    let cde = suite.normalized_latency(0);
    let hps = suite.normalized_latency(1);
    let slow = suite.normalized_latency(2);
    assert!(cde < hps, "CDE {cde:.1} should beat HPS {hps:.1} in H&L");
    assert!(
        cde < slow,
        "CDE {cde:.1} should beat Slow-Only {slow:.1} in H&L"
    );
}

#[test]
fn sibyl_preference_differs_across_device_configurations() {
    // Fig. 17 contrasts preference across device gaps. The paper's agent
    // prefers fast storage *more* in H&L; ours prefers it *less* there
    // because the unclamped eviction penalty scales with millisecond HDD
    // eviction latencies (README's paper-mapping table, Fig. 17 row).
    // This test pins the documented reproduction behaviour: the agent
    // reacts to the device configuration at all, and uses the fast tier
    // in both.
    let trace = msrc::generate(msrc::Workload::Rsrch0, 20_000, 2);
    let hm_out = Experiment::new(hm(), trace.clone())
        .run(PolicyKind::sibyl())
        .unwrap();
    let hl_out = Experiment::new(hl(), trace)
        .run(PolicyKind::sibyl())
        .unwrap();
    let hm_pref = hm_out.metrics.fast_placement_fraction;
    let hl_pref = hl_out.metrics.fast_placement_fraction;
    assert!(
        hm_pref > 0.3,
        "H&M preference {hm_pref:.2} should be substantial"
    );
    assert!(
        hl_pref > 0.05,
        "H&L preference {hl_pref:.2} should be non-trivial"
    );
    assert!(
        (hm_pref - hl_pref).abs() > 0.05,
        "preference should depend on the device configuration: {hm_pref:.2} vs {hl_pref:.2}"
    );
}

#[test]
fn sibyl_restrains_on_cold_sequential_workloads() {
    // The eviction penalty must stop the agent from flooding the fast
    // device when there is no reuse to exploit.
    let trace = msrc::generate(msrc::Workload::Stg1, 20_000, 3);
    let out = Experiment::new(hm(), trace)
        .run(PolicyKind::sibyl())
        .unwrap();
    assert!(
        out.metrics.fast_placement_fraction < 0.5,
        "cold workload fast preference {:.2} should stay low",
        out.metrics.fast_placement_fraction
    );
}

#[test]
fn sibyl_exploits_hot_write_workloads() {
    let trace = msrc::generate(msrc::Workload::Wdev2, 20_000, 4);
    let suite = run_suite(&hm(), &trace, &[PolicyKind::SlowOnly, PolicyKind::sibyl()]).unwrap();
    let slow = suite.normalized_latency(0);
    let sibyl = suite.normalized_latency(1);
    assert!(
        sibyl < 0.75 * slow,
        "Sibyl ({sibyl:.2}) should clearly beat Slow-Only ({slow:.2}) on wdev_2"
    );
    assert!(
        suite.outcomes[1].metrics.fast_placement_fraction > 0.5,
        "hot write workload should earn high fast preference"
    );
}

#[test]
fn paper_exact_reward_clamp_is_available() {
    let trace = msrc::generate(msrc::Workload::Rsrch0, 8_000, 6);
    let cfg = SibylConfig {
        clamp_eviction_reward: true,
        ..Default::default()
    };
    let out = Experiment::new(hm(), trace)
        .run(PolicyKind::sibyl_with(cfg))
        .unwrap();
    assert_eq!(out.metrics.total_requests, 8_000);
}

#[test]
fn single_feature_agents_run_like_fig13() {
    let trace = msrc::generate(msrc::Workload::Usr0, 6_000, 7);
    for mask in [FeatureMask::RT, FeatureMask::FT, FeatureMask::RT_FT_MT] {
        let cfg = SibylConfig {
            feature_mask: mask,
            ..Default::default()
        };
        let out = Experiment::new(hl(), trace.clone())
            .run(PolicyKind::sibyl_with(cfg))
            .unwrap();
        assert!(out.metrics.avg_latency_us > 0.0);
    }
}
