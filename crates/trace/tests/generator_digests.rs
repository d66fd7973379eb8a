//! Pins every workload generator's output as a digest.
//!
//! Each digest is 64-bit FNV-1a over every request a generator produces
//! at several lengths and seeds — (`timestamp_us`, `lpn`, `size_pages`,
//! op) — followed by each trace's `footprint_pages()` and its `TraceStats`
//! (`unique_pages`, `unique_requests` and the bits of `avg_access_count`
//! and `write_fraction`). The stream digest covers three horizons of
//! requests, so the chunks past a stream's horizon are pinned too. A
//! refactor that changes a single request, or how pages are counted,
//! changes a digest. The constants are data: a change that is meant to
//! alter the generators updates them and says why.

use sibyl_trace::filebench::{self, Unseen};
use sibyl_trace::mix::Mix;
use sibyl_trace::msrc::{self, Workload};
use sibyl_trace::stats::TraceStats;
use sibyl_trace::{synth, IoRequest, Trace};

const LENGTHS: [usize; 4] = [1, 7, 1_000, 5_000];
const SEEDS: [u64; 2] = [1, 42];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn request(&mut self, r: &IoRequest) {
        self.word(r.timestamp_us);
        self.word(r.lpn);
        self.word(u64::from(r.size_pages));
        self.word(u64::from(r.op.is_write()));
    }

    fn trace(&mut self, t: &Trace) {
        t.iter().for_each(|r| self.request(r));
        self.word(t.footprint_pages());
        let st = TraceStats::measure(t);
        self.word(st.unique_pages);
        self.word(st.unique_requests as u64);
        self.word(st.avg_access_count.to_bits());
        self.word(st.write_fraction.to_bits());
    }
}

/// The digest of `trace(n, seed)` over every length and seed.
fn digest(mut trace: impl FnMut(usize, u64) -> Trace) -> u64 {
    let mut h = Fnv::new();
    for n in LENGTHS {
        for seed in SEEDS {
            h.trace(&trace(n, seed));
        }
    }
    h.0
}

/// Hashes the first `3 × n` requests of `stream(n, seed)` — the
/// horizon-length prefix and two chunks past it — into `h`.
fn hash_stream<S: Iterator<Item = IoRequest>>(
    h: &mut Fnv,
    mut stream: impl FnMut(usize, u64) -> S,
) {
    for n in LENGTHS {
        for seed in SEEDS {
            stream(n, seed).take(3 * n).for_each(|r| h.request(&r));
        }
    }
}

fn assert_digest(family: &str, got: u64, want: u64) {
    assert_eq!(got, want, "{family}: digest {got:#018x} != {want:#018x}");
}

#[test]
fn msrc_generators_are_pinned() {
    for (w, want) in Workload::ALL.into_iter().zip(MSRC) {
        assert_digest(w.name(), digest(|n, seed| msrc::generate(w, n, seed)), want);
    }
}

#[test]
fn unseen_generators_are_pinned() {
    for (w, want) in Unseen::ALL.into_iter().zip(UNSEEN) {
        let got = digest(|n, seed| filebench::generate(w, n, seed));
        assert_digest(w.name(), got, want);
    }
}

#[test]
fn mix_generators_are_pinned() {
    for (m, want) in Mix::ALL.into_iter().zip(MIX) {
        assert_digest(m.name(), digest(|n, seed| m.generate(n, seed)), want);
    }
}

#[test]
fn diurnal_generator_is_pinned() {
    let got = digest(|n, seed| synth::diurnal(n, 5, seed));
    assert_digest("diurnal", got, DIURNAL);
}

#[test]
fn streams_are_pinned_past_the_horizon() {
    let mut h = Fnv::new();
    for w in Workload::ALL {
        hash_stream(&mut h, |n, seed| msrc::stream(w, n, seed));
    }
    hash_stream(&mut h, |n, seed| Mix::Mix2.stream(n, seed));
    assert_digest("msrc and mix2 streams", h.0, STREAMS);
}

const MSRC: [u64; 14] = [
    0x8626_920c_da49_b68c, // hm_1
    0x5414_8d88_d0ab_549f, // mds_0
    0x3fae_28ab_c2f3_031b, // prn_1
    0xea40_183b_3497_438e, // proj_0
    0x5e5b_da4a_e9ed_7434, // proj_2
    0x75f2_e4b6_6252_a2fa, // proj_3
    0xccaf_957f_f19a_2833, // prxy_0
    0x456a_ca83_4883_e8e6, // prxy_1
    0xab38_ba7d_29bd_2e24, // rsrch_0
    0x0c0e_595c_6862_afc4, // src1_0
    0x4590_9eb8_fcfc_859d, // stg_1
    0x9575_466e_d75f_88b6, // usr_0
    0x1531_cae2_3e18_4e02, // wdev_2
    0x9ae1_ef5e_9347_5c5a, // web_1
];

const UNSEEN: [u64; 5] = [
    0xad20_cd4b_dc56_d83c, // fileserver
    0xfe2c_2136_9600_2337, // ntrx_rw
    0xbede_0411_999f_13a4, // oltp_rw
    0x8503_2fbb_a64c_f131, // varmail
    0x4145_08d8_f31e_905f, // YCSB_C
];

const MIX: [u64; 6] = [
    0xff16_0805_a432_383f, // mix1
    0x186f_8c3d_b4a0_cad9, // mix2
    0x082a_f3a7_50c9_debc, // mix3
    0x3f85_5149_d280_4850, // mix4
    0x0131_d4e9_7761_a334, // mix5
    0x5d33_9c6d_65a1_0ec2, // mix6
];

const DIURNAL: u64 = 0xafb0_c11e_6766_aa9d;

/// Every MSRC workload's stream, then mix2's.
const STREAMS: u64 = 0xd45e_bd1b_96a5_a052;
