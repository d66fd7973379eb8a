//! Pins the two neural-network baselines' runs as digests.
//!
//! Archivist and RNN-HSS each drive a default [`StorageManager`] through
//! [`replay`], the loop `Experiment::run` uses, on two MSRC workloads
//! under both of the paper's dual configurations, for long enough that
//! each network trains and then decides. Each digest is 64-bit FNV-1a over every request's target device and the
//! bits of its `latency_us`, so a change to the networks' arithmetic that
//! flips one decision, or moves one latency by an ulp, changes a digest.
//! The constants are data: a change that is meant to alter these
//! baselines updates them and says why.

use sibyl_hss::{replay, DeviceSpec, HssConfig, PlacementPolicy, StorageManager};
use sibyl_policies::{Archivist, RnnHss};
use sibyl_trace::msrc::{self, Workload};

/// Long enough for Archivist to train twice (every 2 000 requests) and
/// for RNN-HSS to finish its 4 000-request profile, train, and classify.
const REQUESTS: usize = 6_000;
const SEED: u64 = 42;

const _: () = assert!(REQUESTS as u64 > RnnHss::PROFILE_REQUESTS + 1_000);
const _: () = assert!(REQUESTS > 2 * Archivist::EPOCH_REQUESTS as usize);

/// The paper's performance-oriented (H&M) and cost-oriented (H&L)
/// configurations, named for the assertion message.
fn configs() -> [(&'static str, HssConfig); 2] {
    [
        (
            "H&M",
            HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd()),
        ),
        (
            "H&L",
            HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd()),
        ),
    ]
}

/// The digest of one run of `policy` over `workload` under `config`.
fn run(mut policy: impl PlacementPolicy, workload: Workload, config: &HssConfig) -> u64 {
    let trace = msrc::generate(workload, REQUESTS, SEED);
    let mut manager = StorageManager::new(&config.resolved(trace.footprint_pages()));
    // 64-bit FNV-1a over the little-endian bytes of each outcome's words.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    replay(&mut policy, &mut manager, trace.iter().copied(), |_, o| {
        let words = [o.target.0 as u64, o.latency_us.to_bits()];
        for b in words.into_iter().flat_map(u64::to_le_bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    });
    h
}

/// Runs `policy()` on every (workload, configuration) cell in the order
/// of `want` and compares each digest.
fn assert_pinned<P: PlacementPolicy>(name: &str, policy: impl Fn() -> P, want: [u64; 4]) {
    let cells = [Workload::Rsrch0, Workload::Hm1]
        .into_iter()
        .flat_map(|w| configs().map(|(panel, config)| (w, panel, config)));
    for ((w, panel, config), want) in cells.zip(want) {
        let got = run(policy(), w, &config);
        assert_eq!(
            got,
            want,
            "{name} on {} {panel}: digest {got:#018x} != {want:#018x}",
            w.name()
        );
    }
}

#[test]
fn archivist_runs_are_pinned() {
    assert_pinned("Archivist", Archivist::default, ARCHIVIST);
}

#[test]
fn rnn_hss_runs_are_pinned() {
    assert_pinned("RNN-HSS", RnnHss::default, RNN_HSS);
}

/// rsrch_0 H&M, rsrch_0 H&L, hm_1 H&M, hm_1 H&L.
const ARCHIVIST: [u64; 4] = [
    0x94f7_da46_8ea4_4d14,
    0xa851_5f6e_dfce_7d9e,
    0xa02e_ac76_5852_116d,
    0x6f65_e437_f832_52d9,
];

/// rsrch_0 H&M, rsrch_0 H&L, hm_1 H&M, hm_1 H&L.
const RNN_HSS: [u64; 4] = [
    0x22fe_4d1f_5a84_c285,
    0x0197_874c_0873_1f04,
    0xf24d_bb26_a69d_79a4,
    0x215f_cb55_eec4_3000,
];
