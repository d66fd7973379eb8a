//! FileBench- and YCSB-like workload generators.
//!
//! §8.2 of the paper evaluates Sibyl on four FileBench workloads it was
//! never tuned on (fileserver, ntrx_rw, oltp_rw, varmail) and §8.3 adds
//! YCSB-C to the mixes. FileBench itself generates filesystem operations;
//! at the block layer those appear as the request mixes modeled here
//! (documented per workload). These generators intentionally share no
//! tuning with the MSRC set — they are the "unseen" workloads.

use crate::synth::{generate_spec, SyntheticSpec};
use crate::trace::Trace;

/// The unseen workloads of §8.2/§8.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Unseen {
    /// FileBench fileserver: balanced reads/writes over many medium files;
    /// moderately sequential, mildly skewed popularity.
    Fileserver,
    /// A write-heavy transactional profile (paper's `ntrx_rw`): small
    /// random requests, hot log/index pages.
    NtrxRw,
    /// OLTP read/write: read-mostly small random accesses with a very hot
    /// B-tree-like core.
    OltpRw,
    /// FileBench varmail: mail-server pattern of small synchronous writes
    /// and rereads.
    Varmail,
    /// YCSB workload C: 100 % reads with Zipf(0.99) popularity.
    YcsbC,
}

impl Unseen {
    /// The four FileBench workloads of Fig. 11, in the paper's order.
    pub const FILEBENCH: [Unseen; 4] = [
        Unseen::Fileserver,
        Unseen::NtrxRw,
        Unseen::OltpRw,
        Unseen::Varmail,
    ];

    /// Every unseen workload, including YCSB-C.
    pub const ALL: [Unseen; 5] = [
        Unseen::Fileserver,
        Unseen::NtrxRw,
        Unseen::OltpRw,
        Unseen::Varmail,
        Unseen::YcsbC,
    ];

    /// The workload's display name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// The generator spec modeling this workload's block-level behaviour.
    pub fn spec(self) -> SyntheticSpec {
        match self {
            Unseen::Fileserver => SyntheticSpec {
                name: "fileserver",
                write_fraction: 0.5,
                avg_request_size_kib: 32.0,
                avg_access_count: 8.0,
                zipf_theta: 0.8,
                seq_probability: 0.45,
                phases: 3,
                mean_gap_us: 900.0,
            },
            Unseen::NtrxRw => SyntheticSpec {
                name: "ntrx_rw",
                write_fraction: 0.72,
                avg_request_size_kib: 8.0,
                avg_access_count: 60.0,
                zipf_theta: 1.05,
                seq_probability: 0.05,
                phases: 4,
                mean_gap_us: 700.0,
            },
            Unseen::OltpRw => SyntheticSpec {
                name: "oltp_rw",
                write_fraction: 0.3,
                avg_request_size_kib: 8.0,
                avg_access_count: 40.0,
                zipf_theta: 1.0,
                seq_probability: 0.05,
                phases: 4,
                mean_gap_us: 800.0,
            },
            Unseen::Varmail => SyntheticSpec {
                name: "varmail",
                write_fraction: 0.6,
                avg_request_size_kib: 8.0,
                avg_access_count: 20.0,
                zipf_theta: 0.9,
                seq_probability: 0.1,
                phases: 3,
                mean_gap_us: 1000.0,
            },
            Unseen::YcsbC => SyntheticSpec {
                name: "YCSB_C",
                write_fraction: 0.0,
                avg_request_size_kib: 4.0,
                avg_access_count: 30.0,
                zipf_theta: 0.99,
                seq_probability: 0.02,
                phases: 2,
                mean_gap_us: 600.0,
            },
        }
    }
}

impl std::fmt::Display for Unseen {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates an unseen-workload trace with `n` requests.
///
/// # Examples
///
/// ```
/// use sibyl_trace::filebench::{generate, Unseen};
/// let t = generate(Unseen::YcsbC, 2_000, 5);
/// assert_eq!(t.name(), "YCSB_C");
/// ```
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn generate(workload: Unseen, n: usize, seed: u64) -> Trace {
    generate_spec(
        &workload.spec(),
        n,
        seed.wrapping_add(0x0F11E * (workload as u64 + 1)),
    )
}

/// The workload as an infinite stream at horizon `n`:
/// `generate(workload, n, seed)` is its first `n` requests, and past them
/// it continues with freshly seeded `n`-request chunks.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn stream(workload: Unseen, n: usize, seed: u64) -> crate::stream::SpecStream {
    crate::stream::SpecStream::new(
        workload.spec(),
        n,
        seed.wrapping_add(0x0F11E * (workload as u64 + 1)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn all_unseen_generate() {
        for w in [
            Unseen::Fileserver,
            Unseen::NtrxRw,
            Unseen::OltpRw,
            Unseen::Varmail,
            Unseen::YcsbC,
        ] {
            let t = generate(w, 1_500, 21);
            assert_eq!(t.len(), 1_500);
        }
    }

    #[test]
    fn ycsb_c_is_read_only() {
        let t = generate(Unseen::YcsbC, 5_000, 1);
        let st = TraceStats::measure(&t);
        assert_eq!(st.write_fraction, 0.0);
    }

    #[test]
    fn ntrx_is_write_heavy_oltp_is_read_heavy() {
        let ntrx = TraceStats::measure(&generate(Unseen::NtrxRw, 5_000, 2));
        let oltp = TraceStats::measure(&generate(Unseen::OltpRw, 5_000, 2));
        assert!(ntrx.write_fraction > 0.6);
        assert!(oltp.write_fraction < 0.4);
    }

    #[test]
    fn fileserver_is_most_sequential() {
        let fs = TraceStats::measure(&generate(Unseen::Fileserver, 5_000, 3));
        let vm = TraceStats::measure(&generate(Unseen::Varmail, 5_000, 3));
        assert!(fs.avg_request_size_kib > vm.avg_request_size_kib);
    }

    #[test]
    fn filebench_list_matches_fig11() {
        let names: Vec<&str> = Unseen::FILEBENCH.iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["fileserver", "ntrx_rw", "oltp_rw", "varmail"]);
    }
}
