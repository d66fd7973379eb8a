//! # sibyl-hss
//!
//! A discrete-event hybrid-storage-system (HSS) simulator — the substrate
//! the Sibyl reproduction runs on.
//!
//! The paper (ISCA 2022) evaluates on real hardware: an Optane SSD, a SATA
//! TLC SSD, a 7200-RPM HDD, and a cheap DRAM-less SSD behind a custom
//! Linux block driver exposing one flat logical address space (Fig. 1).
//! This crate reproduces that stack in simulation:
//!
//! - [`DeviceSpec`]/[`Device`] — device latency models
//!   (read/write asymmetry, bandwidth, write buffering, garbage
//!   collection, seek/rotation, FIFO queueing) with presets for the
//!   paper's Table 3 devices.
//! - [`HssConfig`] — dual- and tri-device configurations with the paper's
//!   capacity policy (fast device capped at a fraction of the working
//!   set).
//! - [`StorageManager`] — the storage management layer, in two halves:
//!   a clock-free [`PageDirectory`] whose transitions decide which pages
//!   a request moves (promotion/eviction/migration), and the timing layer
//!   that prices them into per-request latency `L_t` and eviction time
//!   `L_e` (the ingredients of Sibyl's reward, Eq. 1).
//! - [`HssStats`] / [`Metrics`] — a run's counters and the paper's
//!   metrics read from them (average latency, IOPS, eviction fraction,
//!   fast-device preference). A sharded run folds its shards' counters
//!   with [`HssStats::merge`] first, so every run reports one type.
//! - [`PlacementPolicy`] — the interface every placement mechanism
//!   implements (baselines in `sibyl-policies`, the RL agent in
//!   `sibyl-core`), and [`replay`], the `place → access → feedback`
//!   loop that drives one over a request stream.
//! - [`Victim`] — which page a full device evicts: LRU by default, or
//!   Belady over the whole trace's future ([`Victim::belady`]) for the
//!   Oracle.
//!
//! ## Example
//!
//! ```rust
//! use sibyl_hss::{DeviceId, DeviceSpec, HssConfig, StorageManager};
//! use sibyl_trace::{IoOp, IoRequest};
//!
//! // The paper's cost-oriented H&L configuration.
//! let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
//!     .with_capacity_pages(vec![1024, u64::MAX]);
//! let mut hss = StorageManager::new(&cfg);
//! let out = hss.access(&IoRequest::new(0, 0, 8, IoOp::Write), DeviceId(0));
//! assert!(out.latency_us > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod device;
mod directory;
mod manager;
mod metrics;
mod policy;
mod stats;
mod victim;

pub use config::{CapacityMode, HssConfig};
pub use device::{Device, DeviceId, DeviceKind, DeviceSpec, DeviceStats, Service};
pub use directory::{AccessTracker, PageDirectory, PageMove, PageRecord};
pub use manager::{AccessDetail, AccessOutcome, MigrationOutcome, StorageManager};
pub use metrics::Metrics;
pub use policy::{replay, PlacementPolicy};
pub use stats::HssStats;
pub use victim::Victim;
