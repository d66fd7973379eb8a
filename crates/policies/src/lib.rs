//! # sibyl-policies
//!
//! The baseline data-placement policies the Sibyl paper compares against
//! (§3, §7), each implementing [`sibyl_hss::PlacementPolicy`]:
//!
//! - [`SlowOnly`] / [`FastOnly`] — the extreme bounds (all data on the
//!   slow / fast device).
//! - [`Cde`] — Cold-Data Eviction (Matsui et al.): hot or random write
//!   requests go to fast storage; cold and sequential ones to slow.
//! - [`Hps`] — History-based Page Selection (Meswani et al.): per-epoch
//!   access counts decide a hot set that lives in fast storage.
//! - [`Archivist`] — a supervised neural-network classifier (Ren et al.)
//!   that pins each page's target device for a whole epoch, with no
//!   promotion or eviction of its own.
//! - [`RnnHss`] — an RNN hotness predictor adapted from Kleio (Doudali et
//!   al.): offline profiling phase, then per-page hot/cold classification.
//! - [`Oracle`] — complete future knowledge, spent on eviction: writes go
//!   to the fastest device, reads are served where they live, and the
//!   victim is the resident whose next use is farthest (Belady).
//! - [`TriHybridHeuristic`] — the hot/cold/frozen three-device heuristic
//!   (Matsui et al. \[76\]) used as the tri-HSS baseline in §8.7.
//!
//! None of these baselines consume system feedback (latency/evictions);
//! that gap is exactly what the paper's RL formulation closes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod archivist;
mod cde;
mod extremes;
mod hps;
mod oracle;
mod rnn_hss;
mod tri_hybrid;

pub use archivist::Archivist;
pub use cde::Cde;
pub use extremes::{FastOnly, SlowOnly};
pub use hps::Hps;
pub use oracle::Oracle;
pub use rnn_hss::RnnHss;
pub use tri_hybrid::TriHybridHeuristic;

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::{DeviceSpec, HssConfig, StorageManager};

    /// The dual Optane/HDD system the baselines' unit tests run on:
    /// `fast_pages` of Optane over an unbounded HDD.
    pub(crate) fn manager(fast_pages: u64) -> StorageManager {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![fast_pages, u64::MAX]);
        StorageManager::new(&cfg)
    }

    /// Where a baseline's fixed value comes from, as the tree records it.
    const ILLUSTRATIVE: &str = "illustrative: the tree records no source";

    /// Every design-time constant of the baselines beside its source: a
    /// paper section, the cited work, or *illustrative* where the tree
    /// records none. Changing a constant fails here until its row is
    /// edited, so a retuned baseline is a visible line.
    #[test]
    fn every_default_is_audited_against_the_paper() {
        fn show(v: &dyn std::fmt::Debug) -> String {
            format!("{v:?}")
        }
        macro_rules! row {
            ($constant:expr, $pinned:expr, $source:expr) => {
                (stringify!($constant), show(&$constant), $pinned, $source)
            };
        }
        let rows = [
            row!(Cde::HOT_ACCESS_COUNT, "4", ILLUSTRATIVE),
            row!(Cde::RANDOM_MAX_PAGES, "4", ILLUSTRATIVE),
            row!(Hps::EPOCH_REQUESTS, "2000", ILLUSTRATIVE),
            row!(Hps::HOT_THRESHOLD, "2", ILLUSTRATIVE),
            row!(Archivist::EPOCH_REQUESTS, "2000", ILLUSTRATIVE),
            row!(Archivist::TRAIN_EPOCHS, "3", ILLUSTRATIVE),
            row!(Archivist::LEARNING_RATE, "0.05", ILLUSTRATIVE),
            row!(Archivist::SEED, "41665", ILLUSTRATIVE),
            row!(RnnHss::PROFILE_REQUESTS, "4000", ILLUSTRATIVE),
            row!(RnnHss::WINDOW_REQUESTS, "250", ILLUSTRATIVE),
            row!(RnnHss::HISTORY_WINDOWS, "6", ILLUSTRATIVE),
            row!(RnnHss::HOT_THRESHOLD, "2", ILLUSTRATIVE),
            row!(RnnHss::HIDDEN_DIM, "10", ILLUSTRATIVE),
            row!(RnnHss::TRAIN_EPOCHS, "4", ILLUSTRATIVE),
            row!(RnnHss::MAX_EXAMPLES, "2000", ILLUSTRATIVE),
            row!(RnnHss::LEARNING_RATE, "0.05", ILLUSTRATIVE),
            row!(RnnHss::SEED, "4846", ILLUSTRATIVE),
            row!(TriHybridHeuristic::HOT_ACCESS_COUNT, "8", ILLUSTRATIVE),
            row!(TriHybridHeuristic::COLD_ACCESS_COUNT, "2", ILLUSTRATIVE),
            row!(TriHybridHeuristic::RANDOM_MAX_PAGES, "2", ILLUSTRATIVE),
        ];
        for (constant, value, pinned, source) in &rows {
            assert_eq!(
                value, pinned,
                "{constant} ({source}): the constant moved — edit its row"
            );
        }
    }
}
