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

pub use archivist::{Archivist, ArchivistConfig};
pub use cde::{Cde, CdeConfig};
pub use extremes::{FastOnly, SlowOnly};
pub use hps::{Hps, HpsConfig};
pub use oracle::Oracle;
pub use rnn_hss::{RnnHss, RnnHssConfig};
pub use tri_hybrid::{TriHybridConfig, TriHybridHeuristic};
