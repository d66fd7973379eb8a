//! The per-shard tracer: sampling, quantizing each sampled request into
//! one [`Sample`], streaming aggregation, and the tail-forensics ring.

use crate::config::{is_sampled, XrayConfig};
use crate::span::{us_to_ns, ComponentTotals, Sample};

/// Slowest sampled requests each shard retains for postmortem dump. Everything else is folded into streaming aggregates
/// and dropped, which is what keeps tracing O(1) memory on 10M-request
/// streams.
pub const TAIL_K: usize = 8;

/// Everything the engine knows about one served request, in the
/// simulation's own quantities. The tracer quantizes these to logical
/// nanoseconds once and splits the latency with integer residuals (see
/// [`crate::span`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestObservation {
    /// Starting logical page number (routing identity; sampling input).
    pub lba: u64,
    /// The request's (time-scaled) trace timestamp, simulated µs.
    pub timestamp_us: f64,
    /// Effective arrival after the closed-loop bound, simulated µs.
    pub arrival_us: f64,
    /// Recorded end-to-end latency, simulated µs.
    pub latency_us: f64,
    /// The request's amortized share of the batch decide bill, µs.
    pub decide_us: f64,
    /// The request's share of the carried-over training bill, µs.
    pub train_us: f64,
    /// Critical-device queue wait within the storage phase, µs.
    pub queue_us: f64,
    /// Inference batch size the request was decided in.
    pub batch: usize,
    /// The device whose completion determined the request's (the
    /// critical device).
    pub device: usize,
    /// The device the policy targeted.
    pub target: usize,
    /// Pages moved toward the target while serving (promotions).
    pub promoted: u64,
    /// Pages evicted by the capacity cascade this request triggered.
    pub evicted: u64,
}

/// One shard's finished tracing results: streaming component totals,
/// background-stall accounting, and the K slowest sampled requests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardXray {
    /// The shard index.
    pub shard: usize,
    /// The sampling exponent `k` the shard traced at (rate `1/2^k`).
    pub sample_exponent: u32,
    /// Requests the shard served (sampled or not).
    pub requests_seen: u64,
    /// The sampled requests' component sums (`totals.sampled` counts
    /// them).
    pub totals: ComponentTotals,
    /// Background-migration ticks observed.
    pub migrate_ticks: u64,
    /// Σ migration bulk-read device time, logical ns.
    pub migrate_read_ns: u64,
    /// Σ migration append-write device time, logical ns.
    pub migrate_write_ns: u64,
    /// Σ pages the observed ticks moved.
    pub migrate_moved_pages: u64,
    /// Cooperative sync rounds observed (logical barriers: no simulated
    /// duration, counted for attribution).
    pub coop_syncs: u64,
    /// Times a sampled request's decide, train or device-queue share had
    /// to be clamped into the latency the components before it left. The
    /// engine's own arithmetic should make every component fit, so
    /// anything but 0 is the tracer papering over a disagreement with the
    /// engine.
    pub clamps: u64,
    /// The shard's K slowest sampled requests, slowest first (ties
    /// broken by sequence number, so the ring is deterministic).
    pub tail: Vec<Sample>,
}

/// A deterministic per-shard request tracer.
///
/// Construction follows the engine's off-is-absent discipline:
/// [`XrayTracer::new`] returns `None` for [`XrayConfig::Off`], so a
/// disabled engine holds no tracer and contains no xray branch that ever
/// fires — the bit-identity golden the serve crate pins.
#[derive(Debug, Clone)]
pub struct XrayTracer {
    seed: u64,
    /// The results so far; [`XrayTracer::finish`] hands them over.
    out: ShardXray,
}

impl XrayTracer {
    /// Builds a tracer for one shard, or `None` when tracing is off.
    /// `seed` is the run's base seed (not the shard-perturbed one), so a
    /// request's sampling decision depends only on `(seed, lba, seq)`.
    pub fn new(config: &XrayConfig, shard: usize, seed: u64) -> Option<XrayTracer> {
        let sample_exponent = config.sample_exponent()?;
        Some(XrayTracer {
            seed,
            out: ShardXray {
                shard,
                sample_exponent,
                tail: Vec::with_capacity(TAIL_K + 1),
                ..Default::default()
            },
        })
    }

    /// Observes one served request. Advances the shard-local sequence
    /// number, decides sampling with the stateless `(seed, lba, seq)`
    /// hash, and — for the `1/2^k` sampled subset — quantizes it into a
    /// [`Sample`], folds that into the streaming totals, offers it to the
    /// tail ring, and returns it.
    pub fn observe_request(&mut self, obs: &RequestObservation) -> Option<Sample> {
        let out = &mut self.out;
        out.requests_seen += 1;
        let seq = out.requests_seen;
        if !is_sampled(self.seed, obs.lba, seq, out.sample_exponent) {
            return None;
        }

        // Quantize once; split by integer residuals so components sum to
        // the recorded latency exactly (last term of every split is the
        // remainder). A component is clamped into the room the ones
        // before it left, and every clamp that bites is counted.
        let mut contain = |part_us: f64, room_ns: u64| {
            let part_ns = us_to_ns(part_us);
            out.clamps += u64::from(part_ns > room_ns);
            part_ns.min(room_ns)
        };
        let latency_ns = us_to_ns(obs.latency_us);
        let decide_ns = contain(obs.decide_us, latency_ns);
        let train_ns = contain(obs.train_us, latency_ns - decide_ns);
        let hss_ns = latency_ns - decide_ns - train_ns;
        let queue_ns = contain(obs.queue_us, hss_ns);
        let sample = Sample {
            shard: out.shard,
            lba: obs.lba,
            seq,
            latency_ns,
            decide_ns,
            train_ns,
            queue_ns,
            transfer_ns: hss_ns - queue_ns,
            queue_wait_ns: us_to_ns(obs.arrival_us - obs.timestamp_us),
            batch: obs.batch,
            device: obs.device,
            target: obs.target,
            promoted: obs.promoted,
            evicted: obs.evicted,
        };
        out.totals.add(&sample);
        self.offer_tail(sample);
        Some(sample)
    }

    /// Observes one background-migration tick's device I/O, split into
    /// bulk reads and append writes by the storage manager (the
    /// `stall.migrate;migrate.{read,write}` folded stacks).
    pub fn observe_migration_tick(&mut self, read_us: f64, write_us: f64, moved_pages: u64) {
        self.out.migrate_ticks += 1;
        self.out.migrate_read_ns += us_to_ns(read_us);
        self.out.migrate_write_ns += us_to_ns(write_us);
        self.out.migrate_moved_pages += moved_pages;
    }

    /// Observes one cooperative sync round (a logical barrier — no
    /// simulated duration, counted for attribution).
    pub fn observe_coop_sync(&mut self) {
        self.out.coop_syncs += 1;
    }

    /// Keeps the K slowest sampled requests, slowest first;
    /// deterministic tie-break on (shard, seq).
    fn offer_tail(&mut self, sample: Sample) {
        let tail = &mut self.out.tail;
        if tail.len() == TAIL_K {
            if let Some(floor) = tail.last() {
                if sample.latency_ns <= floor.latency_ns {
                    return;
                }
            }
        }
        tail.push(sample);
        tail.sort_by(|a, b| {
            b.latency_ns
                .cmp(&a.latency_ns)
                .then(a.shard.cmp(&b.shard))
                .then(a.seq.cmp(&b.seq))
        });
        tail.truncate(TAIL_K);
    }

    /// Finishes the shard, yielding its tracing results.
    pub fn finish(self) -> ShardXray {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(lba: u64, latency_us: f64) -> RequestObservation {
        RequestObservation {
            lba,
            timestamp_us: 100.0,
            arrival_us: 103.5,
            latency_us,
            decide_us: 2.25,
            train_us: 1.0,
            queue_us: 4.0,
            batch: 16,
            device: 1,
            target: 0,
            promoted: 2,
            evicted: 0,
        }
    }

    #[test]
    fn off_constructs_nothing() {
        assert!(XrayTracer::new(&XrayConfig::Off, 0, 42).is_none());
        assert!(XrayTracer::new(&XrayConfig::Sampled(0), 0, 42).is_some());
    }

    #[test]
    fn sampled_zero_traces_every_request_and_sums_exactly() {
        let mut t = XrayTracer::new(&XrayConfig::Sampled(0), 3, 42).unwrap();
        for i in 0..50u64 {
            let s = t.observe_request(&obs(i * 64, 20.0 + i as f64)).unwrap();
            let sum = s.decide_ns + s.train_ns + s.queue_ns + s.transfer_ns;
            assert_eq!(sum, s.latency_ns, "components must sum to latency");
        }
        let shard = t.finish();
        assert_eq!(shard.clamps, 0, "every component fit");
        assert_eq!(shard.requests_seen, 50);
        assert_eq!(shard.totals.sampled, 50);
        assert_eq!(shard.shard, 3);
        assert_eq!(
            shard.totals.components().iter().sum::<u64>(),
            shard.totals.latency_ns
        );
        assert_eq!(shard.tail.len(), TAIL_K);
        // Tail holds the slowest, in descending latency order.
        for w in shard.tail.windows(2) {
            assert!(w[0].latency_ns >= w[1].latency_ns);
        }
        assert_eq!(shard.tail[0].latency_ns, us_to_ns(69.0));
    }

    #[test]
    fn oversized_children_are_contained_and_counted() {
        // 2.25 µs of decide and 1 µs of train cannot fit a 1 µs request:
        // decide takes the whole latency, train and queue get nothing,
        // and each of the three clamps that bit is counted.
        let mut t = XrayTracer::new(&XrayConfig::Sampled(0), 0, 42).unwrap();
        let s = t.observe_request(&obs(0, 1.0)).unwrap();
        assert_eq!(s.decide_ns, s.latency_ns);
        assert_eq!((s.train_ns, s.queue_ns, s.transfer_ns), (0, 0, 0));
        assert_eq!(t.finish().clamps, 3);
    }

    #[test]
    fn sampling_reduces_traced_set_deterministically() {
        let run = |seed: u64| {
            let mut t = XrayTracer::new(&XrayConfig::Sampled(3), 0, seed).unwrap();
            for i in 0..2_000u64 {
                t.observe_request(&obs(i * 7, 30.0));
            }
            t.finish()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed must trace the same subset");
        assert!(a.totals.sampled > 100 && a.totals.sampled < 500);
        let c = run(43);
        assert_ne!(
            a.totals.sampled, c.totals.sampled,
            "a different seed should re-roll the sampled set (overwhelmingly)"
        );
    }

    #[test]
    fn background_observations_accumulate() {
        let mut t = XrayTracer::new(&XrayConfig::Sampled(0), 0, 1).unwrap();
        t.observe_migration_tick(12.5, 7.5, 9);
        t.observe_migration_tick(1.0, 0.5, 1);
        t.observe_coop_sync();
        let s = t.finish();
        assert_eq!(s.migrate_ticks, 2);
        assert_eq!(s.migrate_read_ns, 13_500);
        assert_eq!(s.migrate_write_ns, 8_000);
        assert_eq!(s.migrate_moved_pages, 10);
        assert_eq!(s.coop_syncs, 1);
    }
}
