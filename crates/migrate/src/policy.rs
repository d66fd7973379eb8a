//! The candidate scan both migration policies share, and the hot/cold
//! plan built from it.

use sibyl_hss::{DeviceId, PageMove, StorageManager};

use crate::config::MigrateConfig;

/// What one migration tick may choose from: promotion candidates pulled
/// from the slower devices' hot ends and demotion candidates from the
/// fast device's cold end, plus the summary features the RL agent
/// observes. Built once per tick by [`scan_candidates`].
#[derive(Debug, Clone)]
pub(crate) struct CandidateScan {
    /// Promotion candidates `(heat, lpn, current device)`, hottest first
    /// (ties broken by LPN so the order is deterministic), already capped
    /// at the per-tick move budget.
    pub(crate) promote: Vec<(u64, u64, DeviceId)>,
    /// Demotion candidates `(recency age, lpn)` on the fast device,
    /// oldest first — only pages idle for at least
    /// [`MigrateConfig::demote_min_idle`] recency ticks qualify.
    pub(crate) demote: Vec<(u64, u64)>,
    /// Fast-device fill fraction (`1 − remaining/capacity`).
    pub(crate) fast_fill: f64,
    /// Free pages on the fast device.
    pub(crate) free_fast: u64,
    /// The fast device (promotion target).
    pub(crate) fast: DeviceId,
    /// The device demotions land on (the next slower one).
    pub(crate) demote_to: DeviceId,
}

/// LRU entries examined per device per tick when scanning for candidates
/// (bounds tick cost on huge directories).
const SCAN_DEPTH: usize = 2048;

/// Scans the manager's page directory for migration candidates.
///
/// Promotion candidates come from each slower device's *recent* LRU end
/// (up to `SCAN_DEPTH` entries per device — hot pages
/// are by definition recently touched, so the cold tail can be skipped
/// on huge directories) with at least
/// [`MigrateConfig::promote_min_heat`] accesses *since the page landed
/// on its current device* — a just-demoted or just-evicted page carries
/// its old heat but must earn fresh accesses before it can qualify
/// again, which is what breaks the demote/re-promote ping-pong.
/// Candidates are still *ranked* by total heat (long-term hotness
/// decides who goes first). Demotion candidates come from
/// the fast device's cold end, oldest first, stopping at the first page
/// younger than [`MigrateConfig::demote_min_idle`] recency ticks.
pub(crate) fn scan_candidates(mgr: &StorageManager, cfg: &MigrateConfig) -> CandidateScan {
    let fast = mgr.fastest();
    let dir = mgr.directory();
    let now = dir.current_token();
    let mut promote = Vec::new();
    for d in 1..mgr.num_devices() {
        let dev = DeviceId(d);
        for (lpn, heat, since_place) in dir.iter_hot(dev).take(SCAN_DEPTH) {
            if since_place >= cfg.promote_min_heat {
                promote.push((heat, lpn, dev));
            }
        }
    }
    promote.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    promote.truncate(cfg.max_moves_per_tick);

    let mut demote = Vec::new();
    for (token, lpn) in dir.iter_lru(fast).take(SCAN_DEPTH) {
        let age = now - token;
        if age < cfg.demote_min_idle || demote.len() >= cfg.max_moves_per_tick {
            // Oldest-first iteration: every later entry is younger still.
            break;
        }
        demote.push((age, lpn));
    }

    let capacity_known = mgr.capacity(fast) != u64::MAX;
    CandidateScan {
        promote,
        demote,
        fast_fill: if capacity_known {
            1.0 - mgr.remaining_fraction(fast)
        } else {
            0.0
        },
        free_fast: mgr.remaining_capacity(fast),
        fast,
        demote_to: DeviceId((fast.0 + 1).min(mgr.num_devices() - 1)),
    }
}

/// Cumulative request statistics over the window between two migration
/// ticks — the signal migration rewards are built from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct TickWindow {
    /// Requests the manager served during the window.
    pub(crate) requests: u64,
    /// Mean request latency over the window (µs; 0 for an empty window).
    pub(crate) avg_latency_us: f64,
    /// Fraction of the window's requests placed on the fast device.
    pub(crate) fast_fraction: f64,
}

/// Pages per promotion cluster (the serving engine's 64-page routing
/// region). Promotions are picked cluster-wise so the executor's sorted
/// bulk reads become a few long contiguous runs instead of one
/// positioning cost per scattered page — migration moves extents, the
/// way real tiering engines do.
const CLUSTER_BITS: u32 = 6;

/// Builds a hot/cold move list from a candidate scan: demotions first
/// (freeing fast capacity the executor can hand to promotions in the
/// same batch), then promotions bounded by the free room and the move
/// budget. Promotion candidates are grouped into 64-page clusters ranked
/// by total heat, so each tick moves a few hot *extents* rather than the
/// globally hottest scattered pages — on positioning-dominated devices
/// (HDD) this amortizes the seek across the whole run. The hot-cold
/// policy demotes once the fast device fills past
/// [`MigrateConfig::demote_watermark`]; the RL policy's action arms pick
/// the two flags themselves.
pub(crate) fn hot_cold_plan(
    scan: &CandidateScan,
    cfg: &MigrateConfig,
    do_promote: bool,
    do_demote: bool,
) -> Vec<PageMove> {
    let budget = cfg.max_moves_per_tick;
    let mut moves = Vec::new();
    let mut demoted = 0usize;
    if do_demote {
        // Ceiling split so a budget of 1 can still demote — otherwise a
        // full fast device with no demotions would leave an active policy
        // permanently inert (no free room, no freed room).
        for &(_, lpn) in scan.demote.iter().take(budget.div_ceil(2)) {
            moves.push(PageMove {
                lpn,
                to: scan.demote_to,
            });
            demoted += 1;
        }
    }
    if do_promote {
        // `free_fast` can be astronomically large (unlimited-capacity
        // device); clamp into the budget before any arithmetic so the
        // sum cannot overflow.
        let free = scan.free_fast.min(budget as u64) as usize;
        let mut room = (free + demoted).min(budget - demoted);
        // Cluster candidates by region, rank regions by total heat
        // (ties by id for determinism), then promote whole clusters
        // while they fit the remaining room.
        let mut clusters: std::collections::BTreeMap<u64, (u64, Vec<u64>)> =
            std::collections::BTreeMap::new();
        for &(heat, lpn, _) in &scan.promote {
            let c = clusters.entry(lpn >> CLUSTER_BITS).or_default();
            c.0 += heat;
            c.1.push(lpn);
        }
        let mut ranked: Vec<(u64, u64, Vec<u64>)> = clusters
            .into_iter()
            .map(|(region, (heat, lpns))| (heat, region, lpns))
            .collect();
        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for (_, _, mut lpns) in ranked {
            if room == 0 {
                break;
            }
            lpns.sort_unstable();
            lpns.truncate(room);
            room -= lpns.len();
            moves.extend(lpns.into_iter().map(|lpn| PageMove { lpn, to: scan.fast }));
        }
    }
    moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::{DeviceSpec, HssConfig};
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
    fn scan_finds_hot_slow_pages_and_cold_fast_pages() {
        let mut m = manager(4);
        // Hot slow pages: 100 and 101, re-read three times each.
        for t in 0..3u64 {
            let _ = m.access(&rd(t, 100), DeviceId(1));
            let _ = m.access(&rd(t, 101), DeviceId(1));
        }
        // A cold slow page and two fast-resident pages.
        let _ = m.access(&rd(3, 200), DeviceId(1));
        let _ = m.access(&rd(4, 300), DeviceId(0));
        let _ = m.access(&rd(5, 301), DeviceId(0));
        let mut cfg = MigrateConfig::new(crate::MigratePolicyKind::HotCold);
        cfg.demote_min_idle = 1; // everything on fast is "idle" for the test
        let scan = scan_candidates(&m, &cfg);
        let promoted: Vec<u64> = scan.promote.iter().map(|&(_, lpn, _)| lpn).collect();
        assert_eq!(promoted, vec![100, 101], "hot slow pages, hottest first");
        assert!(scan.promote.iter().all(|&(h, _, _)| h >= 3));
        let demote: Vec<u64> = scan.demote.iter().map(|&(_, lpn)| lpn).collect();
        assert_eq!(demote, vec![300], "only pages older than min idle");
        assert_eq!(scan.fast, DeviceId(0));
        assert_eq!(scan.demote_to, DeviceId(1));
        assert_eq!(scan.free_fast, 2);
        assert!((scan.fast_fill - 0.5).abs() < 1e-9);
    }

    #[test]
    fn demoted_pages_need_fresh_accesses_to_requalify() {
        // A hot page is promoted, then demoted; it carries its heat but
        // must not reappear as a promotion candidate until re-accessed —
        // the anti-ping-pong contract.
        let mut m = manager(8);
        let mut cfg = MigrateConfig::new(crate::MigratePolicyKind::HotCold);
        cfg.demote_min_idle = 1;
        for t in 0..4u64 {
            let _ = m.access(&rd(t, 100), DeviceId(1));
        }
        assert_eq!(
            scan_candidates(&m, &cfg)
                .promote
                .iter()
                .map(|&(_, l, _)| l)
                .collect::<Vec<_>>(),
            vec![100]
        );
        let _ = m.migrate_batch(
            &[sibyl_hss::PageMove {
                lpn: 100,
                to: DeviceId(0),
            }],
            0.0,
        );
        let _ = m.migrate_batch(
            &[sibyl_hss::PageMove {
                lpn: 100,
                to: DeviceId(1),
            }],
            0.0,
        );
        assert!(
            scan_candidates(&m, &cfg).promote.is_empty(),
            "a just-demoted page must not requalify without new accesses"
        );
        // Fresh accesses past the threshold requalify it.
        let _ = m.access(&rd(10, 100), DeviceId(1));
        let _ = m.access(&rd(11, 100), DeviceId(1));
        assert_eq!(scan_candidates(&m, &cfg).promote.len(), 1);
    }

    #[test]
    fn unlimited_fast_capacity_does_not_overflow_the_plan() {
        let scan = CandidateScan {
            promote: vec![(5, 100, DeviceId(1))],
            demote: vec![(900, 7)],
            fast_fill: 0.0,
            free_fast: u64::MAX,
            fast: DeviceId(0),
            demote_to: DeviceId(1),
        };
        let cfg = MigrateConfig::new(crate::MigratePolicyKind::HotCold);
        let moves = hot_cold_plan(&scan, &cfg, true, true);
        assert!(moves.iter().any(|m| m.to == DeviceId(0)));
    }

    #[test]
    fn hot_cold_plan_respects_capacity_and_budget() {
        let scan = CandidateScan {
            promote: (0..10).map(|i| (5, 100 + i, DeviceId(1))).collect(),
            demote: vec![(900, 7), (800, 8)],
            fast_fill: 1.0,
            free_fast: 1,
            fast: DeviceId(0),
            demote_to: DeviceId(1),
        };
        let mut cfg = MigrateConfig::new(crate::MigratePolicyKind::HotCold);
        cfg.max_moves_per_tick = 6;
        let moves = hot_cold_plan(&scan, &cfg, true, true);
        // 2 demotions (≤ budget/2), then promotions bounded by
        // free (1) + demoted (2) = 3.
        assert_eq!(moves.len(), 5);
        assert_eq!(moves[0].to, DeviceId(1));
        assert_eq!(moves[1].to, DeviceId(1));
        assert!(moves[2..].iter().all(|m| m.to == DeviceId(0)));
        // Promote-only keeps within free capacity alone.
        let promote_only = hot_cold_plan(&scan, &cfg, true, false);
        assert_eq!(promote_only.len(), 1);
    }
}
