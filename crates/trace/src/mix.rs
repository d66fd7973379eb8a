//! Mixed-workload construction (§8.3, Table 5).
//!
//! The paper mixes two or three independent workloads "while randomly
//! varying their relative start times", remapping them into disjoint
//! address regions — they share devices but not data. The mixes stress
//! the agent with unpredictable interleavings and extra eviction pressure.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::filebench::{self, Unseen};
use crate::msrc::{self, Workload};
use crate::request::IoRequest;
use crate::trace::Trace;

/// Combines traces into one interleaved trace.
///
/// Each component trace is shifted by a random start offset (up to half of
/// the longest component's duration) and its addresses are remapped into a
/// private region; the result is sorted by timestamp.
///
/// # Examples
///
/// ```
/// use sibyl_trace::{msrc, mix};
/// let a = msrc::generate(msrc::Workload::Prxy0, 1_000, 1);
/// let b = msrc::generate(msrc::Workload::Rsrch0, 1_000, 1);
/// let mixed = mix::combine("demo", &[a, b], 7);
/// assert_eq!(mixed.len(), 2_000);
/// ```
///
/// # Panics
///
/// Panics if `components` is empty.
pub fn combine(name: impl Into<String>, components: &[Trace], seed: u64) -> Trace {
    assert!(
        !components.is_empty(),
        "mix::combine: need at least one component"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4d49_5845_u64); // "MIXE"
    let max_duration = components.iter().map(Trace::duration_us).max().unwrap_or(0);
    let mut requests: Vec<IoRequest> = Vec::with_capacity(components.iter().map(Trace::len).sum());
    let mut region_base: u64 = 0;
    for c in components {
        let offset = if max_duration > 0 {
            rng.gen_range(0..=max_duration / 2)
        } else {
            0
        };
        for r in c.iter() {
            requests.push(IoRequest {
                timestamp_us: r.timestamp_us + offset,
                lpn: r.lpn + region_base,
                size_pages: r.size_pages,
                op: r.op,
            });
        }
        // Disjoint regions with headroom for each component's growth.
        region_base += c.address_space_pages() + 1024;
    }
    Trace::from_requests(name, requests)
}

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

    /// Generates the mix with `n_per_component` requests per component.
    ///
    /// # Panics
    ///
    /// Panics if `n_per_component == 0`.
    pub fn generate(self, n_per_component: usize, seed: u64) -> Trace {
        let components: Vec<Trace> = self
            .components()
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.generate(n_per_component, seed.wrapping_add(i as u64 * 101)))
            .collect();
        combine(self.name(), &components, seed)
    }

    /// The streaming counterpart of [`Mix::generate`]: an infinite
    /// [`MixStream`](crate::stream::MixStream) whose first
    /// `components × n_per_component` requests are bit-identical to the
    /// materialized mix (same per-component seed derivation, offset
    /// draws, and region layout).
    ///
    /// # Panics
    ///
    /// Panics if `n_per_component == 0`.
    pub fn stream(self, n_per_component: usize, seed: u64) -> crate::stream::MixStream {
        let components: Vec<crate::stream::SpecStream> = self
            .components()
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.stream(n_per_component, seed.wrapping_add(i as u64 * 101)))
            .collect();
        crate::stream::MixStream::new(components, seed)
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
    /// The component's display name.
    pub fn name(self) -> &'static str {
        match self {
            Component::Msrc(w) => w.name(),
            Component::Unseen(u) => u.name(),
        }
    }

    /// Generates this component's trace.
    pub fn generate(self, n: usize, seed: u64) -> Trace {
        match self {
            Component::Msrc(w) => msrc::generate(w, n, seed),
            Component::Unseen(u) => filebench::generate(u, n, seed),
        }
    }

    /// The streaming counterpart of [`Component::generate`]: horizon-`n`
    /// prefix bit-identical to the materialized component trace.
    pub fn stream(self, n: usize, seed: u64) -> crate::stream::SpecStream {
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
        let a = msrc::generate(Workload::Prxy0, 1_000, 1);
        let b = msrc::generate(Workload::Rsrch0, 1_000, 1);
        let a_max = a.address_space_pages();
        let mixed = combine("m", &[a, b], 3);
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

    #[test]
    #[should_panic(expected = "need at least one component")]
    fn combine_rejects_empty() {
        let _ = combine("x", &[], 1);
    }
}
