//! Mixed-workload construction (§8.3, Table 5).
//!
//! The paper mixes two or three independent workloads "while randomly
//! varying their relative start times", remapping them into disjoint
//! address regions — they share devices but not data. The mixes stress
//! the agent with unpredictable interleavings and extra eviction pressure.

use crate::filebench::{self, Unseen};
use crate::msrc::{self, Workload};
use crate::stream::{MixStream, SpecStream};
use crate::trace::Trace;

/// The six mixes of the paper's Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variants are mix ids; composition documented by `components()`
pub enum Mix {
    Mix1,
    Mix2,
    Mix3,
    Mix4,
    Mix5,
    Mix6,
}

impl Mix {
    /// All six mixes in Table 5 order.
    pub const ALL: [Mix; 6] = [
        Mix::Mix1,
        Mix::Mix2,
        Mix::Mix3,
        Mix::Mix4,
        Mix::Mix5,
        Mix::Mix6,
    ];

    /// The mix's name (`"mix1"`…`"mix6"`).
    pub fn name(self) -> &'static str {
        match self {
            Mix::Mix1 => "mix1",
            Mix::Mix2 => "mix2",
            Mix::Mix3 => "mix3",
            Mix::Mix4 => "mix4",
            Mix::Mix5 => "mix5",
            Mix::Mix6 => "mix6",
        }
    }

    /// Table 5's composition, as component descriptors.
    pub fn components(self) -> Vec<Component> {
        match self {
            // Both prxy_0 and ntrx_rw are write-intensive.
            Mix::Mix1 => vec![
                Component::Msrc(Workload::Prxy0),
                Component::Unseen(Unseen::NtrxRw),
            ],
            // rsrch_0 write-intensive, oltp_rw read-intensive.
            Mix::Mix2 => vec![
                Component::Msrc(Workload::Rsrch0),
                Component::Unseen(Unseen::OltpRw),
            ],
            // Both read-intensive.
            Mix::Mix3 => vec![
                Component::Msrc(Workload::Proj3),
                Component::Unseen(Unseen::YcsbC),
            ],
            // Both nearly balanced.
            Mix::Mix4 => vec![
                Component::Msrc(Workload::Src10),
                Component::Unseen(Unseen::Fileserver),
            ],
            // Write-intensive + read-intensive + balanced.
            Mix::Mix5 => vec![
                Component::Msrc(Workload::Prxy0),
                Component::Unseen(Unseen::OltpRw),
                Component::Unseen(Unseen::Fileserver),
            ],
            // Balanced + read-intensive + balanced.
            Mix::Mix6 => vec![
                Component::Msrc(Workload::Src10),
                Component::Unseen(Unseen::YcsbC),
                Component::Unseen(Unseen::Fileserver),
            ],
        }
    }

    /// Generates the mix with `n_per_component` requests per component:
    /// the first `components × n_per_component` requests of
    /// [`Mix::stream`].
    ///
    /// # Panics
    ///
    /// Panics if `n_per_component == 0`.
    pub fn generate(self, n_per_component: usize, seed: u64) -> Trace {
        let n = self.components().len() * n_per_component;
        Trace::from_requests(
            self.name(),
            self.stream(n_per_component, seed).take(n).collect(),
        )
    }

    /// The mix as an infinite [`MixStream`] whose components each run at
    /// horizon `n_per_component`, continuing past it generation by
    /// generation.
    ///
    /// # Panics
    ///
    /// Panics if `n_per_component == 0`.
    pub fn stream(self, n_per_component: usize, seed: u64) -> MixStream {
        let components: Vec<SpecStream> = self
            .components()
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.stream(n_per_component, seed.wrapping_add(i as u64 * 101)))
            .collect();
        MixStream::new(components, seed)
    }
}

impl std::fmt::Display for Mix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One component of a mix: either an MSRC-like or an unseen workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// An MSRC Table 4 workload.
    Msrc(Workload),
    /// A FileBench/YCSB workload.
    Unseen(Unseen),
}

impl Component {
    /// This component's stream at horizon `n`.
    pub fn stream(self, n: usize, seed: u64) -> SpecStream {
        match self {
            Component::Msrc(w) => msrc::stream(w, n, seed),
            Component::Unseen(u) => filebench::stream(u, n, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn all_six_mixes_generate() {
        for m in Mix::ALL {
            let t = m.generate(500, 42);
            let expected = m.components().len() * 500;
            assert_eq!(t.len(), expected, "{m}");
        }
    }

    #[test]
    fn components_do_not_share_addresses() {
        // Mix2's first component is rsrch_0, seeded with the mix's seed.
        let a_max = msrc::generate(Workload::Rsrch0, 1_000, 3).address_space_pages();
        let mixed = Mix::Mix2.generate(1_000, 3);
        // The second component's pages must start beyond the first's space.
        let mut beyond = 0usize;
        for r in mixed.iter() {
            if r.lpn >= a_max {
                beyond += 1;
            }
        }
        assert_eq!(
            beyond, 1_000,
            "every b-request must be remapped past a's region"
        );
    }

    #[test]
    fn mixed_timestamps_sorted() {
        let t = Mix::Mix5.generate(400, 9);
        assert!(t
            .requests()
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn mix1_is_write_heavy_mix3_read_heavy() {
        let m1 = TraceStats::measure(&Mix::Mix1.generate(2_000, 4));
        let m3 = TraceStats::measure(&Mix::Mix3.generate(2_000, 4));
        assert!(m1.write_fraction > 0.6, "mix1 wf {}", m1.write_fraction);
        assert!(m3.write_fraction < 0.2, "mix3 wf {}", m3.write_fraction);
    }

    #[test]
    fn tri_mixes_have_three_components() {
        assert_eq!(Mix::Mix5.components().len(), 3);
        assert_eq!(Mix::Mix6.components().len(), 3);
        assert_eq!(Mix::Mix1.components().len(), 2);
    }
}
