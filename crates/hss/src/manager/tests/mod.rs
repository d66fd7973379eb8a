//! Unit tests of the storage manager through its public surface.

use super::*;
use crate::device::DeviceSpec;

mod timing;

pub(crate) fn dual_manager(fast_pages: u64) -> StorageManager {
    let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
        .with_capacity_pages(vec![fast_pages, u64::MAX]);
    StorageManager::new(&cfg)
}

fn wr(ts: u64, lpn: u64, pages: u32) -> IoRequest {
    IoRequest::new(ts, lpn, pages, IoOp::Write)
}

pub(crate) fn rd(ts: u64, lpn: u64, pages: u32) -> IoRequest {
    IoRequest::new(ts, lpn, pages, IoOp::Read)
}

#[test]
fn write_places_pages_on_target() {
    let mut m = dual_manager(100);
    let out = m.access(&wr(0, 10, 4), DeviceId(0));
    assert_eq!(out.target, DeviceId(0));
    assert!(!out.caused_eviction());
    for p in 10..14 {
        assert_eq!(m.residency(p), Some(DeviceId(0)));
    }
    assert_eq!(m.directory().used_pages(DeviceId(0)), 4);
}

#[test]
fn read_of_unknown_page_lands_on_slowest() {
    let mut m = dual_manager(100);
    // Policy wants it kept on slow: no migration.
    let out = m.access(&rd(0, 77, 1), DeviceId(1));
    assert_eq!(out.migrated_pages, 0);
    assert_eq!(m.residency(77), Some(DeviceId(1)));
}

#[test]
fn read_with_fast_target_promotes() {
    let mut m = dual_manager(100);
    let _ = m.access(&rd(0, 50, 2), DeviceId(1)); // stays slow
    let out = m.access(&rd(1, 50, 2), DeviceId(0)); // promote
    assert_eq!(out.migrated_pages, 2);
    assert_eq!(m.residency(50), Some(DeviceId(0)));
    assert_eq!(m.residency(51), Some(DeviceId(0)));
}

#[test]
fn slow_reads_cost_more_than_fast_reads() {
    let mut m = dual_manager(100);
    let _ = m.access(&wr(0, 0, 1), DeviceId(0));
    let _ = m.access(&wr(0, 100, 1), DeviceId(1));
    let f = m.access(&rd(1_000_000, 0, 1), DeviceId(0));
    let s = m.access(&rd(2_000_000, 100, 1), DeviceId(1));
    assert!(
        s.latency_us > 10.0 * f.latency_us,
        "slow {} vs fast {}",
        s.latency_us,
        f.latency_us
    );
}

#[test]
fn overflow_evicts_lru_to_slow() {
    let mut m = dual_manager(2);
    let _ = m.access(&wr(0, 1, 1), DeviceId(0));
    let _ = m.access(&wr(1, 2, 1), DeviceId(0));
    let out = m.access(&wr(2, 3, 1), DeviceId(0));
    assert!(out.caused_eviction());
    assert_eq!(out.evicted_pages, 1);
    assert!(out.eviction_us > 0.0);
    // LRU victim is page 1.
    assert_eq!(m.residency(1), Some(DeviceId(1)));
    assert_eq!(m.residency(2), Some(DeviceId(0)));
    assert_eq!(m.residency(3), Some(DeviceId(0)));
    assert_eq!(m.directory().used_pages(DeviceId(0)), 2);
}

#[test]
fn eviction_cascades_in_tri_hss() {
    let cfg = HssConfig::tri(
        DeviceSpec::optane_ssd(),
        DeviceSpec::tlc_ssd(),
        DeviceSpec::hdd(),
    )
    .with_capacity_pages(vec![1, 1, u64::MAX]);
    let mut m = StorageManager::new(&cfg);
    let _ = m.access(&wr(0, 1, 1), DeviceId(0));
    let _ = m.access(&wr(1, 2, 1), DeviceId(0)); // evicts 1 -> M
    let _ = m.access(&wr(2, 3, 1), DeviceId(0)); // evicts 2 -> M, 1 -> L
    assert_eq!(m.residency(3), Some(DeviceId(0)));
    assert_eq!(m.residency(2), Some(DeviceId(1)));
    assert_eq!(m.residency(1), Some(DeviceId(2)));
}

#[test]
fn capacity_accounting_is_conserved() {
    let mut m = dual_manager(8);
    for i in 0..50u64 {
        let _ = m.access(&wr(i, i * 2, 2), DeviceId(0));
    }
    let fast_used = m.directory().used_pages(DeviceId(0));
    let slow_used = m.directory().used_pages(DeviceId(1));
    assert!(fast_used <= 8, "fast overflowed: {fast_used}");
    assert_eq!(fast_used + slow_used, 100, "pages lost or duplicated");
}

#[test]
fn tracker_reports_counts_and_intervals() {
    let mut m = dual_manager(100);
    let _ = m.access(&rd(0, 5, 1), DeviceId(1));
    let _ = m.access(&rd(1, 6, 1), DeviceId(1));
    let _ = m.access(&rd(2, 5, 1), DeviceId(1));
    assert_eq!(m.tracker().access_count(5), 2);
    assert_eq!(m.tracker().access_count(6), 1);
    assert_eq!(m.tracker().access_count(999), 0);
    // Page 6 was last touched at request 2 of 3.
    assert_eq!(m.tracker().access_interval(6), Some(1));
    assert_eq!(m.tracker().access_interval(999), None);
}

#[test]
fn closed_loop_window_bounds_queueing() {
    // All requests arrive at t=0 targeting the HDD: without the
    // window, latency would grow linearly without bound.
    let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
        .with_capacity_pages(vec![10, u64::MAX]);
    let mut m = StorageManager::new(&cfg);
    m.queue_window = 4;
    let mut latencies = Vec::new();
    for i in 0..200u64 {
        let out = m.access(&rd(0, i * 100, 1), DeviceId(1));
        latencies.push(out.latency_us);
    }
    let tail_avg: f64 = latencies[100..].iter().sum::<f64>() / 100.0;
    let hdd_random = 5_000.0; // seek curve + rotation + base, roughly
    assert!(
        tail_avg < 6.0 * hdd_random,
        "queueing unbounded: tail avg {tail_avg} µs"
    );
}

#[test]
fn the_seventeenth_outstanding_request_waits_for_the_first_completion() {
    // The production window: 16 requests issued at t=0 all arrive at
    // once; the 17th arrives when the oldest completes, the 18th when
    // the second does.
    let mut m = dual_manager(10);
    let outs: Vec<AccessOutcome> = (0..18u64)
        .map(|i| m.access(&rd(0, i * 100, 1), DeviceId(1)))
        .collect();
    assert!(outs[..16].iter().all(|o| o.arrival_us == 0.0));
    assert!(outs[0].completion_us > 0.0);
    assert_eq!(outs[16].arrival_us, outs[0].completion_us);
    assert_eq!(outs[17].arrival_us, outs[1].completion_us);
}

#[test]
fn access_after_charges_decision_delay_into_latency() {
    let mut a = dual_manager(100);
    let mut b = dual_manager(100);
    let req = rd(1_000, 5, 1);
    let plain = a.access(&req, DeviceId(1));
    let delayed = b.access_after(&req, DeviceId(1), 25.0);
    assert!(
        (delayed.latency_us - plain.latency_us - 25.0).abs() < 1e-9,
        "decision delay must appear in latency: {} vs {}",
        delayed.latency_us,
        plain.latency_us
    );
    assert_eq!(delayed.arrival_us, plain.arrival_us);
    assert!((delayed.completion_us - plain.completion_us - 25.0).abs() < 1e-9);
}

#[test]
fn access_after_zero_delay_matches_access() {
    let mut a = dual_manager(8);
    let mut b = dual_manager(8);
    for i in 0..50u64 {
        let req = wr(i * 10, i * 3, 2);
        assert_eq!(
            a.access(&req, DeviceId(0)),
            b.access_after(&req, DeviceId(0), 0.0)
        );
    }
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn stats_track_placements_per_device() {
    let mut m = dual_manager(100);
    let _ = m.access(&wr(0, 0, 1), DeviceId(0));
    let _ = m.access(&wr(1, 1, 1), DeviceId(1));
    let _ = m.access(&wr(2, 2, 1), DeviceId(1));
    assert_eq!(m.stats().placements, vec![1, 2]);
    assert!((m.stats().placement_fraction(0) - 1.0 / 3.0).abs() < 1e-9);
}

#[test]
fn write_to_slow_invalidates_fast_copy() {
    let mut m = dual_manager(100);
    let _ = m.access(&wr(0, 9, 1), DeviceId(0));
    assert_eq!(m.directory().used_pages(DeviceId(0)), 1);
    let _ = m.access(&wr(1, 9, 1), DeviceId(1));
    assert_eq!(m.directory().used_pages(DeviceId(0)), 0);
    assert_eq!(m.residency(9), Some(DeviceId(1)));
}

#[test]
#[should_panic(expected = "the slowest device must be unlimited")]
fn limited_slow_device_rejected() {
    let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
        .with_capacity_pages(vec![10, 10]);
    let _ = StorageManager::new(&cfg);
}

#[test]
fn zero_fast_capacity_degenerates_gracefully() {
    let mut m = dual_manager(0);
    // Placing on fast immediately evicts; system stays consistent.
    let out = m.access(&wr(0, 1, 2), DeviceId(0));
    assert_eq!(out.evicted_pages, 2);
    assert_eq!(m.directory().used_pages(DeviceId(0)), 0);
    assert_eq!(m.residency(1), Some(DeviceId(1)));
}

#[test]
fn reads_never_demote() {
    let mut m = dual_manager(100);
    let _ = m.access(&wr(0, 9, 1), DeviceId(0));
    // A slow-targeted read leaves the fast-resident page alone.
    let out = m.access(&rd(1, 9, 1), DeviceId(1));
    assert_eq!(out.migrated_pages, 0);
    assert_eq!(m.residency(9), Some(DeviceId(0)));
    // Promotion still works.
    let _ = m.access(&rd(2, 200, 1), DeviceId(1));
    let out = m.access(&rd(3, 200, 1), DeviceId(0));
    assert_eq!(out.migrated_pages, 1);
    assert_eq!(m.residency(200), Some(DeviceId(0)));
}

#[test]
fn heat_counts_accesses_and_survives_moves() {
    let mut m = dual_manager(100);
    assert_eq!(m.directory().heat(5), 0, "unknown page has no heat");
    let _ = m.access(&rd(0, 5, 1), DeviceId(1));
    let _ = m.access(&rd(1, 5, 1), DeviceId(1));
    assert_eq!(m.directory().heat(5), 2);
    // Promotion through migrate_batch preserves the heat history.
    let out = m.migrate_batch(
        &[PageMove {
            lpn: 5,
            to: DeviceId(0),
        }],
        1_000.0,
    );
    assert_eq!(out.promoted_pages, 1);
    assert_eq!(m.directory().heat(5), 2, "heat survives the move");
    let _ = m.access(&rd(2, 5, 1), DeviceId(0));
    assert_eq!(m.directory().heat(5), 3);
}

#[test]
fn heat_since_place_resets_on_moves_and_earns_on_access() {
    let mut m = dual_manager(100);
    for t in 0..3u64 {
        let _ = m.access(&rd(t, 5, 1), DeviceId(1));
    }
    assert_eq!(m.directory().heat(5), 3);
    assert_eq!(m.directory().heat_since_place(5), 3);
    // A move carries total heat but zeroes the since-arrival count.
    let _ = m.migrate_batch(
        &[PageMove {
            lpn: 5,
            to: DeviceId(0),
        }],
        1_000.0,
    );
    assert_eq!(m.directory().heat(5), 3);
    assert_eq!(m.directory().heat_since_place(5), 0);
    let _ = m.access(&rd(3, 5, 1), DeviceId(0));
    assert_eq!(m.directory().heat_since_place(5), 1);
    assert_eq!(m.directory().heat_since_place(999), 0);
}

#[test]
fn migrate_batch_moves_pages_and_accounts_time() {
    let mut m = dual_manager(100);
    // Two slow-resident pages, one fast-resident page.
    let _ = m.access(&rd(0, 10, 2), DeviceId(1));
    let _ = m.access(&wr(1, 50, 1), DeviceId(0));
    let out = m.migrate_batch(
        &[
            PageMove {
                lpn: 50,
                to: DeviceId(1), // demotion first frees fast room
            },
            PageMove {
                lpn: 10,
                to: DeviceId(0),
            },
            PageMove {
                lpn: 11,
                to: DeviceId(0),
            },
        ],
        10_000.0,
    );
    assert_eq!(out.promoted_pages, 2);
    assert_eq!(out.demoted_pages, 1);
    assert_eq!(out.skipped, 0);
    assert!(out.busy_us > 0.0, "migration I/O must cost device time");
    assert_eq!(m.residency(10), Some(DeviceId(0)));
    assert_eq!(m.residency(11), Some(DeviceId(0)));
    assert_eq!(m.residency(50), Some(DeviceId(1)));
    let st = m.stats();
    assert_eq!(st.bg_migration_events, 1);
    assert_eq!(st.bg_promoted_pages, 2);
    assert_eq!(st.bg_demoted_pages, 1);
    assert!((st.bg_migration_us - out.busy_us).abs() < 1e-9);
}

#[test]
fn access_detail_tracks_the_critical_device() {
    let mut m = dual_manager(100);
    // A write goes to exactly the targeted device.
    let out = m.access(&wr(0, 9, 1), DeviceId(0));
    let d = m.last_access_detail();
    assert_eq!(d.device, 0);
    assert!(d.transfer_us > 0.0);
    assert!(
        d.queue_us + d.transfer_us <= out.completion_us - out.arrival_us + 1e-9,
        "detail must fit inside the storage phase"
    );
    // A read of a slow-resident page is served by the slow device.
    let _ = m.access(&rd(1, 500, 1), DeviceId(1));
    assert_eq!(m.last_access_detail().device, 1);
    // A straddling read (one page fast, one slow) is dominated by the
    // slow arm.
    let _ = m.access(&wr(2, 500, 1), DeviceId(0));
    let _ = m.access(&rd(3, 600, 1), DeviceId(1));
    let _ = m.access(&rd(10_000, 500, 2), DeviceId(1));
    assert_eq!(m.last_access_detail().device, 1, "slow arm is critical");
}

#[test]
fn access_detail_queue_reflects_device_contention() {
    let mut m = dual_manager(100);
    // Back-to-back same-instant writes: the second queues behind the
    // first on the same device.
    let _ = m.access(&wr(0, 1, 8), DeviceId(1));
    let first = m.last_access_detail();
    assert_eq!(first.queue_us, 0.0, "idle device serves immediately");
    let _ = m.access(&wr(0, 100, 8), DeviceId(1));
    let second = m.last_access_detail();
    assert!(
        second.queue_us >= first.transfer_us - 1e-9,
        "second request must wait out the first: {} vs {}",
        second.queue_us,
        first.transfer_us
    );
}

#[test]
fn migration_outcome_splits_read_and_write_time() {
    let mut m = dual_manager(100);
    let _ = m.access(&rd(0, 10, 4), DeviceId(1));
    let out = m.migrate_batch(
        &[
            PageMove {
                lpn: 10,
                to: DeviceId(0),
            },
            PageMove {
                lpn: 11,
                to: DeviceId(0),
            },
        ],
        5_000.0,
    );
    assert!(out.read_us > 0.0, "bulk read must cost time");
    assert!(out.write_us > 0.0, "append write must cost time");
    assert!(
        (out.read_us + out.write_us - out.busy_us).abs() < 1e-9,
        "split must account for all busy time"
    );
}

#[test]
fn migrate_batch_skips_invalid_and_capacity_blocked_moves() {
    let mut m = dual_manager(1);
    let _ = m.access(&wr(0, 1, 1), DeviceId(0)); // fast is now full
    let _ = m.access(&rd(1, 7, 1), DeviceId(1));
    let _ = m.access(&rd(2, 8, 1), DeviceId(1));
    let out = m.migrate_batch(
        &[
            PageMove {
                lpn: 999, // unknown
                to: DeviceId(0),
            },
            PageMove {
                lpn: 1, // already on destination
                to: DeviceId(0),
            },
            PageMove {
                lpn: 7, // no fast capacity left
                to: DeviceId(0),
            },
        ],
        0.0,
    );
    assert_eq!(out.moved_pages(), 0);
    assert_eq!(out.skipped, 3);
    assert_eq!(out.busy_us, 0.0);
    assert_eq!(m.stats().bg_migration_events, 0, "no-op batch not counted");
    // Demoting the resident page frees the slot within the same batch.
    let out = m.migrate_batch(
        &[
            PageMove {
                lpn: 1,
                to: DeviceId(1),
            },
            PageMove {
                lpn: 7,
                to: DeviceId(0),
            },
        ],
        0.0,
    );
    assert_eq!(out.promoted_pages, 1);
    assert_eq!(out.demoted_pages, 1);
    assert_eq!(m.residency(7), Some(DeviceId(0)));
    assert_eq!(m.directory().used_pages(DeviceId(0)), 1);
}

#[test]
fn migration_io_delays_foreground_requests() {
    // Bandwidth accounting: a foreground request issued right after a
    // migration batch must queue behind the migration I/O on the same
    // device.
    let mut quiet = dual_manager(100);
    let mut busy = dual_manager(100);
    for m in [&mut quiet, &mut busy] {
        for p in 0..64u64 {
            let _ = m.access(&rd(0, 1_000 + p * 2, 1), DeviceId(1));
        }
    }
    let moves: Vec<PageMove> = (0..64u64)
        .map(|p| PageMove {
            lpn: 1_000 + p * 2,
            to: DeviceId(0),
        })
        .collect();
    let out = busy.migrate_batch(&moves, 1_000_000.0);
    assert_eq!(out.promoted_pages, 64);
    // Both managers serve the same foreground read at the instant the
    // migration started; the migrating manager's slow device is busy
    // with 64 scattered migration reads.
    let req = rd(1_000_000, 5_000, 1);
    let l_quiet = quiet.access(&req, DeviceId(1)).latency_us;
    let l_busy = busy.access(&req, DeviceId(1)).latency_us;
    assert!(
        l_busy > l_quiet + out.busy_us / 4.0,
        "foreground must observe contention: quiet {l_quiet:.0} vs busy {l_busy:.0} µs \
         (migration busy {:.0} µs)",
        out.busy_us
    );
}

#[test]
fn empty_device_edges_are_safe() {
    let mut m = dual_manager(10);
    let dir = m.directory();
    assert_eq!(dir.iter_lru(DeviceId(0)).count(), 0);
    assert_eq!(dir.used_pages(DeviceId(0)), 0);
    assert!(dir.is_empty());
    // Migrating nothing (and migrating unknown pages) is a no-op.
    assert_eq!(m.migrate_batch(&[], 0.0), MigrationOutcome::default());
    let out = m.migrate_batch(
        &[PageMove {
            lpn: 1,
            to: DeviceId(0),
        }],
        0.0,
    );
    assert_eq!(out.skipped, 1);
}

#[test]
fn single_page_device_evicts_and_stays_consistent() {
    let mut m = dual_manager(1);
    let _ = m.access(&wr(0, 1, 1), DeviceId(0));
    assert_eq!(m.directory().used_pages(DeviceId(0)), 1);
    let out = m.access(&wr(1, 2, 1), DeviceId(0));
    assert_eq!(out.evicted_pages, 1);
    assert_eq!(m.residency(1), Some(DeviceId(1)));
    assert_eq!(m.residency(2), Some(DeviceId(0)));
    assert_eq!(m.directory().used_pages(DeviceId(0)), 1);
    // The single resident page is both LRU-first and the only entry.
    let fast: Vec<u64> = m
        .directory()
        .iter_lru(DeviceId(0))
        .map(|(_, l)| l)
        .collect();
    assert_eq!(fast, vec![2]);
}

#[test]
fn eviction_when_every_fast_page_was_touched_this_tick() {
    // All resident fast pages were just touched; eviction must still
    // find a victim — the least recent of the *touched* pages.
    let mut m = dual_manager(3);
    for (i, lpn) in [10u64, 20, 30].iter().enumerate() {
        let _ = m.access(&wr(i as u64, *lpn, 1), DeviceId(0));
    }
    // Touch all three in order 20, 30, 10 — LRU is now 20.
    for (i, lpn) in [20u64, 30, 10].iter().enumerate() {
        let _ = m.access(&rd(10 + i as u64, *lpn, 1), DeviceId(0));
    }
    let out = m.access(&wr(20, 40, 1), DeviceId(0));
    assert!(out.caused_eviction());
    assert_eq!(m.residency(20), Some(DeviceId(1)), "oldest touch evicts");
    assert_eq!(m.residency(30), Some(DeviceId(0)));
    assert_eq!(m.residency(10), Some(DeviceId(0)));
    assert_eq!(m.residency(40), Some(DeviceId(0)));
}
