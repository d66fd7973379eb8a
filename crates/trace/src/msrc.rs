//! MSRC-like workload generators.
//!
//! The paper evaluates on fourteen MSR Cambridge block-I/O traces chosen
//! for their diverse randomness/hotness characteristics (Table 4, Fig. 3).
//! The raw traces are not redistributable; each [`Workload`] here carries
//! the paper's published statistics and synthesizes a trace matching them
//! through [`crate::synth::generate_spec`].

use crate::synth::{generate_spec, SyntheticSpec};
use crate::trace::Trace;

/// The fourteen MSRC workloads of the paper's Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are trace names, documented by `spec()`
pub enum Workload {
    Hm1,
    Mds0,
    Prn1,
    Proj0,
    Proj2,
    Proj3,
    Prxy0,
    Prxy1,
    Rsrch0,
    Src10,
    Stg1,
    Usr0,
    Wdev2,
    Web1,
}

impl Workload {
    /// All fourteen workloads in the paper's Table 4 order.
    pub const ALL: [Workload; 14] = [
        Workload::Hm1,
        Workload::Mds0,
        Workload::Prn1,
        Workload::Proj0,
        Workload::Proj2,
        Workload::Proj3,
        Workload::Prxy0,
        Workload::Prxy1,
        Workload::Rsrch0,
        Workload::Src10,
        Workload::Stg1,
        Workload::Usr0,
        Workload::Wdev2,
        Workload::Web1,
    ];

    /// The six workloads used in the paper's motivation study (Fig. 2).
    pub const MOTIVATION: [Workload; 6] = [
        Workload::Hm1,
        Workload::Prn1,
        Workload::Proj2,
        Workload::Prxy1,
        Workload::Usr0,
        Workload::Wdev2,
    ];

    /// The trace name as printed in the paper (e.g. `"hm_1"`).
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The published Table 4 statistics, expressed as a generator spec.
    ///
    /// Write %, average request size (KiB), and average access count are
    /// copied from Table 4 verbatim. The remaining knobs (Zipf skew,
    /// sequential probability, phase count, think time) are derived:
    /// hotter workloads get more skew, larger-request workloads more
    /// sequentiality — the exact relationships the paper uses to *define*
    /// hotness and randomness in §3.
    pub fn spec(self) -> SyntheticSpec {
        // (name, write%, avg KiB, avg count, uniq reqs from Table 4)
        let (name, w, kib, cnt) = match self {
            Workload::Hm1 => ("hm_1", 4.7, 15.2, 44.5),
            Workload::Mds0 => ("mds_0", 88.1, 9.6, 3.5),
            Workload::Prn1 => ("prn_1", 24.7, 20.0, 2.6),
            Workload::Proj0 => ("proj_0", 87.5, 38.0, 48.3),
            Workload::Proj2 => ("proj_2", 12.4, 42.4, 2.9),
            Workload::Proj3 => ("proj_3", 5.2, 9.6, 3.6),
            Workload::Prxy0 => ("prxy_0", 96.9, 7.2, 95.7),
            Workload::Prxy1 => ("prxy_1", 34.5, 12.8, 150.1),
            Workload::Rsrch0 => ("rsrch_0", 90.7, 9.2, 34.7),
            Workload::Src10 => ("src1_0", 43.6, 43.2, 12.7),
            Workload::Stg1 => ("stg_1", 36.3, 40.8, 1.1),
            Workload::Usr0 => ("usr_0", 59.6, 22.8, 19.7),
            Workload::Wdev2 => ("wdev_2", 99.9, 8.0, 17.7),
            Workload::Web1 => ("web_1", 45.9, 29.6, 1.2),
        };
        SyntheticSpec {
            name,
            write_fraction: w / 100.0,
            avg_request_size_kib: kib,
            avg_access_count: cnt,
            zipf_theta: derive_theta(cnt),
            seq_probability: derive_seq_probability(kib),
            phases: 4,
            mean_gap_us: 400.0,
        }
    }

    /// The published unique-request count (Table 4), for reference and
    /// reporting; the generator scales footprint with requested length
    /// rather than pinning this number.
    pub fn table4_unique_requests(self) -> usize {
        match self {
            Workload::Hm1 => 6265,
            Workload::Mds0 => 31933,
            Workload::Prn1 => 6891,
            Workload::Proj0 => 1381,
            Workload::Proj2 => 27967,
            Workload::Proj3 => 19397,
            Workload::Prxy0 => 525,
            Workload::Prxy1 => 6845,
            Workload::Rsrch0 => 5504,
            Workload::Src10 => 13640,
            Workload::Stg1 => 3787,
            Workload::Usr0 => 2138,
            Workload::Wdev2 => 4270,
            Workload::Web1 => 6095,
        }
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Hotter workloads (higher average access count) have more concentrated
/// popularity; map count ∈ [1.1, 150] onto θ ∈ [0.55, 1.15].
fn derive_theta(avg_access_count: f64) -> f64 {
    (0.55 + 0.12 * avg_access_count.ln()).clamp(0.55, 1.15)
}

/// The paper defines randomness by average request size (§3); map size
/// onto the probability of sequential continuation.
fn derive_seq_probability(avg_kib: f64) -> f64 {
    ((avg_kib - 6.0) / 60.0).clamp(0.02, 0.75)
}

/// Generates an MSRC-like trace with `n` requests.
///
/// # Examples
///
/// ```
/// use sibyl_trace::msrc;
/// let t = msrc::generate(msrc::Workload::Prxy0, 5_000, 1);
/// assert_eq!(t.name(), "prxy_0");
/// assert_eq!(t.len(), 5_000);
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn generate(workload: Workload, n: usize, seed: u64) -> Trace {
    generate_spec(&workload.spec(), n, seed.wrapping_add(workload as u64))
}

/// The workload as an infinite stream at horizon `n`:
/// `generate(workload, n, seed)` is its first `n` requests, and past them
/// it continues with freshly seeded `n`-request chunks.
///
/// # Examples
///
/// ```
/// use sibyl_trace::msrc;
/// let s = msrc::stream(msrc::Workload::Prxy0, 5_000, 1);
/// let reqs: Vec<_> = s.take(15_000).collect();
/// assert!(reqs.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us));
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn stream(workload: Workload, n: usize, seed: u64) -> crate::stream::SpecStream {
    crate::stream::SpecStream::new(workload.spec(), n, seed.wrapping_add(workload as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn all_fourteen_generate() {
        for w in Workload::ALL {
            let t = generate(w, 2_000, 42);
            assert_eq!(t.len(), 2_000);
            assert_eq!(t.name(), w.name());
        }
    }

    #[test]
    fn write_fractions_match_table4() {
        for w in [
            Workload::Hm1,
            Workload::Wdev2,
            Workload::Prxy0,
            Workload::Web1,
        ] {
            let t = generate(w, 10_000, 7);
            let st = TraceStats::measure(&t);
            let target = w.spec().write_fraction;
            assert!(
                (st.write_fraction - target).abs() < 0.03,
                "{}: measured {} vs target {}",
                w,
                st.write_fraction,
                target
            );
        }
    }

    #[test]
    fn hotness_ordering_prxy1_vs_stg1() {
        // prxy_1 (count 150.1) must be far hotter than stg_1 (count 1.1).
        let hot = TraceStats::measure(&generate(Workload::Prxy1, 20_000, 3));
        let cold = TraceStats::measure(&generate(Workload::Stg1, 20_000, 3));
        assert!(
            hot.avg_access_count > 10.0 * cold.avg_access_count,
            "prxy_1 {} vs stg_1 {}",
            hot.avg_access_count,
            cold.avg_access_count
        );
    }

    #[test]
    fn randomness_ordering_proj2_vs_prxy0() {
        // proj_2 (42.4 KiB) must be more sequential than prxy_0 (7.2 KiB).
        let seq = TraceStats::measure(&generate(Workload::Proj2, 10_000, 4));
        let rnd = TraceStats::measure(&generate(Workload::Prxy0, 10_000, 4));
        assert!(
            seq.avg_request_size_kib > 2.0 * rnd.avg_request_size_kib,
            "proj_2 {} vs prxy_0 {}",
            seq.avg_request_size_kib,
            rnd.avg_request_size_kib
        );
    }

    #[test]
    fn motivation_subset_is_subset_of_all() {
        for w in Workload::MOTIVATION {
            assert!(Workload::ALL.contains(&w));
        }
    }

    #[test]
    fn display_matches_paper_names() {
        assert_eq!(Workload::Src10.to_string(), "src1_0");
        assert_eq!(Workload::Rsrch0.to_string(), "rsrch_0");
    }

    #[test]
    fn distinct_workloads_get_distinct_streams_for_same_seed() {
        let a = generate(Workload::Hm1, 1_000, 9);
        let b = generate(Workload::Prn1, 1_000, 9);
        assert_ne!(a.requests()[..20], b.requests()[..20]);
    }
}
