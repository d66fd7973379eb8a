//! The tick driver: snapshots the window, consults the policy, executes
//! the plan through [`StorageManager::migrate_batch`], and feeds the
//! outcome back.

use sibyl_hss::{HssStats, StorageManager};

use crate::config::{MigrateConfig, MigratePolicyKind};
use crate::policy::{hot_cold_plan, scan_candidates, TickWindow};
use crate::rl::RlMigration;

/// Cumulative counters of one migrator's run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MigratorStats {
    /// Ticks executed.
    pub ticks: u64,
    /// Pages the policy asked to move.
    pub planned_moves: u64,
    /// Pages promoted (moved to a faster device).
    pub promoted_pages: u64,
    /// Pages demoted (moved to a slower device).
    pub demoted_pages: u64,
    /// Planned moves the executor skipped (stale or capacity-blocked).
    pub skipped_moves: u64,
    /// Device time consumed by migration I/O (µs).
    pub busy_us: f64,
}

impl MigratorStats {
    /// Pages moved in either direction.
    pub fn moved_pages(&self) -> u64 {
        self.promoted_pages + self.demoted_pages
    }

    /// Folds the migrator's cumulative counters into a telemetry
    /// registry under the `migrate.` namespace. All counts are logical
    /// (ticks, pages) and `busy_us` is simulated device time, so
    /// recording is deterministic.
    pub fn record_registry(&self, registry: &mut sibyl_telemetry::Registry) {
        registry.counter_add("migrate.ticks", self.ticks);
        registry.counter_add("migrate.planned_moves", self.planned_moves);
        registry.counter_add("migrate.promoted_pages", self.promoted_pages);
        registry.counter_add("migrate.demoted_pages", self.demoted_pages);
        registry.counter_add("migrate.skipped_moves", self.skipped_moves);
        registry.gauge_set("migrate.busy_us", self.busy_us);
    }
}

/// What one tick did — the host engine folds this into its per-shard
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TickOutcome {
    /// Pages moved this tick.
    pub moved_pages: u64,
    /// Device time this tick's I/O consumed (µs).
    pub busy_us: f64,
    /// Source-side bulk-read portion of `busy_us` (µs) — the xray
    /// `stall.migrate` sub-span split.
    pub read_us: f64,
    /// Destination-side append-write portion of `busy_us` (µs).
    pub write_us: f64,
}

/// The background-migration driver owned by one storage node (one shard
/// of the serving engine, or the single manager of a sequential run).
///
/// Call [`Migrator::tick`] at deterministic logical boundaries (the
/// serving engine uses batch counts). Each tick:
///
/// 1. closes the statistics *window* since the previous tick (requests,
///    mean latency, fast-placement fraction),
/// 2. scans the page directory for promotion/demotion candidates,
/// 3. plans from them: the hot-cold policy always promotes, and demotes
///    once the fast device fills past
///    [`MigrateConfig::demote_watermark`]; the RL policy first shapes
///    its previous plan's reward from the latency change, then picks one
///    of its three plan shapes,
/// 4. executes the plan through
///    [`StorageManager::migrate_batch`] — bandwidth-accounted, so
///    foreground requests observe the contention.
///
/// # Examples
///
/// ```
/// use sibyl_hss::{DeviceId, DeviceSpec, HssConfig, StorageManager};
/// use sibyl_migrate::{MigrateConfig, MigratePolicyKind, Migrator};
/// use sibyl_trace::{IoOp, IoRequest};
///
/// let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
///     .with_capacity_pages(vec![64, u64::MAX]);
/// let mut mgr = StorageManager::new(&hss);
/// let mut migrator =
///     Migrator::new(MigrateConfig::new(MigratePolicyKind::HotCold)).expect("active policy");
/// // Re-read a slow-resident page past the heat threshold...
/// for t in 0..3 {
///     let _ = mgr.access(&IoRequest::new(t, 9, 1, IoOp::Read), DeviceId(1));
/// }
/// // ...and the next tick promotes it.
/// let out = migrator.tick(&mut mgr);
/// assert_eq!(out.moved_pages, 1);
/// assert_eq!(mgr.residency(9), Some(DeviceId(0)));
/// ```
#[derive(Debug)]
pub struct Migrator {
    cfg: MigrateConfig,
    policy: Policy,
    stats: MigratorStats,
    prev_window: Option<TickWindow>,
    /// Snapshot of the manager stats at the previous tick:
    /// (requests, sum latency µs, fast placements).
    snapshot: (u64, f64, u64),
    last_moved: u64,
}

/// The active policy a [`Migrator`] runs; the RL agent's state lives in
/// its variant.
#[derive(Debug)]
enum Policy {
    HotCold,
    Rl(Box<RlMigration>),
}

impl Migrator {
    /// Builds the driver for the configured policy, or `None` for
    /// [`MigratePolicyKind::None`] — the host engine then skips the
    /// subsystem entirely, staying bit-identical to an engine without
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid for its policy (engines
    /// should surface [`MigrateConfig::validate`] as an error first).
    pub fn new(cfg: MigrateConfig) -> Option<Migrator> {
        // sibyl-lint: allow(unwrap-in-lib) -- documented panic: engines must surface validate() as an error before constructing
        cfg.validate().expect("invalid migration configuration");
        let policy = match cfg.policy {
            MigratePolicyKind::None => return None,
            MigratePolicyKind::HotCold => Policy::HotCold,
            MigratePolicyKind::Rl => Policy::Rl(Box::new(RlMigration::new(&cfg))),
        };
        Some(Migrator {
            cfg,
            policy,
            stats: MigratorStats::default(),
            prev_window: None,
            snapshot: (0, 0.0, 0),
            last_moved: 0,
        })
    }

    /// The configuration this driver runs.
    pub fn config(&self) -> &MigrateConfig {
        &self.cfg
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &MigratorStats {
        &self.stats
    }

    /// Closes the window since the last tick against `stats`.
    fn close_window(&mut self, stats: &HssStats) -> TickWindow {
        let (req0, lat0, fast0) = self.snapshot;
        let requests = stats.total_requests - req0;
        let fast = stats.placements.first().copied().unwrap_or(0);
        let window = TickWindow {
            requests,
            avg_latency_us: if requests == 0 {
                0.0
            } else {
                (stats.sum_latency_us - lat0) / requests as f64
            },
            fast_fraction: if requests == 0 {
                0.0
            } else {
                (fast - fast0) as f64 / requests as f64
            },
        };
        self.snapshot = (stats.total_requests, stats.sum_latency_us, fast);
        window
    }

    /// Runs one migration tick against `mgr` (see the type docs for the
    /// phase breakdown).
    pub fn tick(&mut self, mgr: &mut StorageManager) -> TickOutcome {
        let window = self.close_window(mgr.stats());
        let scan = scan_candidates(mgr, &self.cfg);
        let mut moves = match &mut self.policy {
            Policy::HotCold => {
                let demote = scan.fast_fill >= self.cfg.demote_watermark;
                hot_cold_plan(&scan, &self.cfg, true, demote)
            }
            Policy::Rl(agent) => {
                agent.feedback(&window, self.prev_window.as_ref(), self.last_moved);
                agent.plan(&scan, &window, &self.cfg)
            }
        };
        moves.truncate(self.cfg.max_moves_per_tick);
        let now = mgr.stats().last_completion_us;
        let out = mgr.migrate_batch(&moves, now);
        self.stats.ticks += 1;
        self.stats.planned_moves += moves.len() as u64;
        self.stats.promoted_pages += out.promoted_pages;
        self.stats.demoted_pages += out.demoted_pages;
        self.stats.skipped_moves += out.skipped;
        self.stats.busy_us += out.busy_us;
        self.prev_window = Some(window);
        self.last_moved = out.moved_pages();
        TickOutcome {
            moved_pages: out.moved_pages(),
            busy_us: out.busy_us,
            read_us: out.read_us,
            write_us: out.write_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::{DeviceId, DeviceSpec, HssConfig};
    use sibyl_trace::{IoOp, IoRequest};

    fn manager(fast_pages: u64) -> StorageManager {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
            .with_capacity_pages(vec![fast_pages, u64::MAX]);
        StorageManager::new(&cfg)
    }

    fn rd(ts: u64, lpn: u64) -> IoRequest {
        IoRequest::new(ts, lpn, 1, IoOp::Read)
    }

    #[test]
    fn none_policy_builds_no_migrator() {
        assert!(Migrator::new(MigrateConfig::default()).is_none());
        assert!(Migrator::new(MigrateConfig::new(MigratePolicyKind::HotCold)).is_some());
        assert!(Migrator::new(MigrateConfig::new(MigratePolicyKind::Rl)).is_some());
    }

    #[test]
    #[should_panic(expected = "invalid migration configuration")]
    fn invalid_active_config_panics() {
        let _ = Migrator::new(MigrateConfig::new(MigratePolicyKind::HotCold).with_max_moves(0));
    }

    #[test]
    fn hot_cold_migrator_promotes_hot_pages_over_ticks() {
        let mut mgr = manager(64);
        let mut migrator =
            Migrator::new(MigrateConfig::new(MigratePolicyKind::HotCold)).expect("active");
        // Hot slow pages re-read repeatedly; the policy targets slow, so
        // only background migration can move them.
        for t in 0..4u64 {
            for p in 0..8u64 {
                let _ = mgr.access(&rd(t * 100 + p, 500 + p), DeviceId(1));
            }
        }
        let out = migrator.tick(&mut mgr);
        assert_eq!(out.moved_pages, 8, "all hot pages promote");
        assert!(out.busy_us > 0.0);
        for p in 0..8u64 {
            assert_eq!(mgr.residency(500 + p), Some(DeviceId(0)));
        }
        assert_eq!(migrator.stats().promoted_pages, 8);
        assert_eq!(migrator.stats().ticks, 1);
        assert_eq!(mgr.stats().bg_promoted_pages, 8);
        // A quiet second tick finds nothing new to move.
        let quiet = migrator.tick(&mut mgr);
        assert_eq!(quiet.moved_pages, 0);
    }

    #[test]
    fn hot_cold_demotes_only_above_the_watermark() {
        let mut mgr = manager(4);
        let mut cfg = MigrateConfig::new(MigratePolicyKind::HotCold);
        cfg.demote_min_idle = 1; // every fast page is idle enough to demote
        let mut migrator = Migrator::new(cfg).expect("active");
        // Hot slow page `hot`, re-read past the heat threshold.
        let heat_up = |mgr: &mut StorageManager, hot: u64| {
            for t in 0..3 {
                let _ = mgr.access(&rd(t, hot), DeviceId(1));
            }
        };
        // Half full: the hot page is promoted, nothing demoted.
        for lpn in [1, 2] {
            let _ = mgr.access(&rd(0, lpn), DeviceId(0));
        }
        heat_up(&mut mgr, 50);
        let _ = migrator.tick(&mut mgr);
        assert_eq!(migrator.stats().promoted_pages, 1);
        assert_eq!(
            migrator.stats().demoted_pages,
            0,
            "no demotion at 50 % fill"
        );
        // Full: past the 0.85 watermark, cold fast pages make room.
        let _ = mgr.access(&rd(0, 3), DeviceId(0));
        heat_up(&mut mgr, 60);
        let _ = migrator.tick(&mut mgr);
        assert!(migrator.stats().demoted_pages > 0, "demotion at full fill");
        assert_eq!(mgr.residency(60), Some(DeviceId(0)));
    }

    #[test]
    fn windows_partition_the_request_stream() {
        let mut mgr = manager(64);
        let mut migrator =
            Migrator::new(MigrateConfig::new(MigratePolicyKind::HotCold)).expect("active");
        for t in 0..10u64 {
            let _ = mgr.access(&rd(t, t), DeviceId(1));
        }
        let _ = migrator.tick(&mut mgr);
        let first = migrator.prev_window.expect("window closed");
        assert_eq!(first.requests, 10);
        assert!(first.avg_latency_us > 0.0);
        for t in 10..14u64 {
            let _ = mgr.access(&rd(t, t), DeviceId(0));
        }
        let _ = migrator.tick(&mut mgr);
        let second = migrator.prev_window.expect("window closed");
        assert_eq!(second.requests, 4, "windows must not overlap");
        assert!((second.fast_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rl_migrator_runs_deterministically_against_a_real_manager() {
        let run = || {
            let mut mgr = manager(32);
            let mut migrator =
                Migrator::new(MigrateConfig::new(MigratePolicyKind::Rl)).expect("active");
            for round in 0..30u64 {
                for p in 0..16u64 {
                    let hot = 500 + (round / 10) * 100 + p; // shifting hot set
                    let _ = mgr.access(&rd(round * 1_000 + p, hot), DeviceId(1));
                }
                let _ = migrator.tick(&mut mgr);
            }
            (
                mgr.stats().clone(),
                *migrator.stats(),
                mgr.stats().avg_latency_us().to_bits(),
            )
        };
        let a = run();
        let b = run();
        assert_eq!(a.0, b.0, "manager stats must reproduce");
        assert_eq!(a.1, b.1, "migrator stats must reproduce");
        assert_eq!(a.2, b.2, "latency must be bit-identical");
        assert_eq!(a.1.ticks, 30);
    }
}
