//! # sibyl-migrate
//!
//! A background migration subsystem for the Sibyl reproduction — the
//! Harmonia-style *second* RL agent.
//!
//! Sibyl (ISCA 2022) decides where a page lands on first write; after
//! that, pages move only reactively (on-access promotion toward the
//! policy's target, capacity-driven eviction). Under phase-shifting
//! workloads residency goes stale: the old hot set squats in fast
//! storage while the new one serves from slow, and every reactive
//! promotion still pays one slow access. Harmonia (PAPERS.md) shows a
//! second RL agent dedicated to *proactive* migration, cooperating with
//! the placement agent, recovering that latency. This crate is that
//! subsystem:
//!
//! - [`MigrateConfig`] / [`MigratePolicyKind`] — which policy runs, how
//!   often it ticks, and its move budget. The policies plan from one
//!   shared deterministic scan of the page directory for candidates:
//!   - [`MigratePolicyKind::None`] — the baseline: [`Migrator::new`]
//!     builds no driver for it, so the serving engine skips the subsystem
//!     entirely and stays bit-identical to a migration-free engine.
//!   - [`MigratePolicyKind::HotCold`] — the heuristic: promote above a
//!     heat threshold, demote LRU-cold fast pages under capacity
//!     pressure.
//!   - [`MigratePolicyKind::Rl`] — a tick-level C51 agent reusing
//!     `sibyl-core`'s [`Learner`](sibyl_core::Learner)/replay machinery
//!     with its own feature vector (page heat, fast fill, hit-rate delta)
//!     and a reward built from the post-migration latency change.
//! - [`Migrator`] — the tick driver: window accounting, policy feedback,
//!   plan execution through the bandwidth-accounted
//!   [`StorageManager::migrate_batch`](sibyl_hss::StorageManager::migrate_batch).
//!
//! ## Example
//!
//! ```rust
//! use sibyl_hss::{DeviceId, DeviceSpec, HssConfig, StorageManager};
//! use sibyl_migrate::{MigrateConfig, MigratePolicyKind, Migrator};
//! use sibyl_trace::{IoOp, IoRequest};
//!
//! let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
//!     .with_capacity_pages(vec![64, u64::MAX]);
//! let mut mgr = StorageManager::new(&hss);
//! let mut migrator =
//!     Migrator::new(MigrateConfig::new(MigratePolicyKind::HotCold)).expect("active policy");
//! // A slow-resident page crosses the heat threshold...
//! for t in 0..3 {
//!     let _ = mgr.access(&IoRequest::new(t, 42, 1, IoOp::Read), DeviceId(1));
//! }
//! // ...and the next background tick proactively promotes it.
//! let tick = migrator.tick(&mut mgr);
//! assert_eq!(tick.moved_pages, 1);
//! assert_eq!(mgr.residency(42), Some(DeviceId(0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod migrator;
mod policy;
mod rl;

pub use config::{MigrateConfig, MigrateConfigError, MigratePolicyKind};
pub use migrator::{Migrator, MigratorStats, TickOutcome};
