//! # sibyl-trace
//!
//! Block-I/O trace model and synthetic workload generators for the Sibyl
//! reproduction.
//!
//! The paper evaluates on fourteen MSR Cambridge (MSRC) enterprise traces,
//! four FileBench workloads, YCSB-C, and six mixes of those (Tables 4 and 5).
//! The raw traces are not redistributable, so this crate synthesizes
//! workloads from the *published statistics*: write fraction, average
//! request size, average page access count, and unique-request counts, plus
//! the qualitative properties the paper leans on (Zipf-like hot sets,
//! sequential runs, phase changes over time as in Fig. 4).
//!
//! - [`IoRequest`]/[`Trace`] — the trace model (4 KiB logical pages).
//! - [`PageSet`] — the one way distinct pages are counted (footprints,
//!   [`stats`], the serving engine's pre-pass), hashing with [`mix64`].
//! - [`stats`] — measured per-trace statistics (regenerates Table 4).
//! - [`msrc`] — the fourteen MSRC-like generators.
//! - [`filebench`] — fileserver/varmail/oltp_rw/ntrx_rw/YCSB-C-like
//!   generators used as *unseen* workloads (§8.2).
//! - [`mix`] — Table 5's workload mixes (§8.3).
//! - [`stream`] — the generators themselves: seeded, infinite
//!   `Iterator<Item = IoRequest> + Clone` streams. Each workload is
//!   synthesized one way; a materialized [`Trace`] is a stream's first
//!   `n` requests, collected.
//! - [`zipf`] — an exact inverse-CDF Zipf sampler used by all generators.
//!
//! ## Example
//!
//! ```rust
//! use sibyl_trace::{msrc, stats::TraceStats};
//!
//! let trace = msrc::generate(msrc::Workload::Hm1, 10_000, 42);
//! let st = TraceStats::measure(&trace);
//! // hm_1 is read-dominant in the paper (4.7 % writes).
//! assert!(st.write_fraction < 0.10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod filebench;
pub mod mix;
pub mod msrc;
mod page_set;
mod request;
pub mod stats;
pub mod stream;
pub mod synth;
mod trace;
pub mod zipf;

pub use page_set::{mix64, PageSet};
pub use request::{IoOp, IoRequest, MAX_REQUEST_PAGES, PAGE_SIZE_BYTES};
pub use trace::Trace;
