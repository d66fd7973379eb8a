//! The per-shard tracer: sampling, span-tree construction, streaming
//! aggregation, and the tail-forensics ring.

use crate::config::{is_sampled, XrayConfig};
use crate::span::{critical_path, us_to_ns, ComponentTotals, RequestTrace, Span, SpanKind};

/// Slowest sampled requests whose full span trees each shard retains for
/// postmortem dump. Everything else is folded into streaming aggregates
/// and dropped, which is what keeps tracing O(1) memory on 10M-request
/// streams.
pub const TAIL_K: usize = 8;

/// Everything the engine knows about one served request, in the
/// simulation's own quantities. The tracer quantizes these to logical
/// nanoseconds once and builds the span tree with integer-residual
/// splits (see [`crate::span`]).
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

/// The quantized decomposition of one sampled request, returned to the
/// engine so spans can feed `xray.*` telemetry histograms without
/// re-walking the tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SampleSummary {
    /// Recorded latency, logical ns.
    pub latency_ns: u64,
    /// NN decide share, logical ns.
    pub decide_ns: u64,
    /// Training-stall share, logical ns.
    pub train_ns: u64,
    /// Critical-device queue wait, logical ns.
    pub queue_ns: u64,
    /// Critical-device transfer time, logical ns.
    pub transfer_ns: u64,
    /// Closed-loop queue wait ahead of arrival, logical ns.
    pub queue_wait_ns: u64,
}

/// One shard's finished tracing results: streaming component totals,
/// background-stall accounting, and the K slowest sampled requests'
/// full span trees.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardXray {
    /// The shard index.
    pub shard: usize,
    /// The sampling exponent `k` the shard traced at (rate `1/2^k`).
    pub sample_exponent: u32,
    /// Requests the shard served (sampled or not).
    pub requests_seen: u64,
    /// Requests actually sampled and traced.
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
    /// to be clamped into its parent span. The engine's own arithmetic
    /// should make every child fit, so anything but 0 is the tracer
    /// papering over a disagreement with the engine.
    pub clamps: u64,
    /// The shard's K slowest sampled requests, slowest first (ties
    /// broken by sequence number, so the ring is deterministic).
    pub tail: Vec<RequestTrace>,
}

/// A deterministic per-shard span tracer.
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
    /// hash, and — for the `1/2^k` sampled subset — builds the span
    /// tree, folds its critical path into the streaming totals, offers
    /// it to the tail ring, and returns the quantized summary.
    pub fn observe_request(&mut self, obs: &RequestObservation) -> Option<SampleSummary> {
        let out = &mut self.out;
        out.requests_seen += 1;
        let seq = out.requests_seen;
        if !is_sampled(self.seed, obs.lba, seq, out.sample_exponent) {
            return None;
        }

        // Quantize once; split by integer residuals so components sum to
        // the recorded latency exactly (last term of every split is the
        // remainder). A child is clamped into the room its parent has
        // left, and every clamp that bites is counted.
        let mut contain = |child_us: f64, room_ns: u64| {
            let child_ns = us_to_ns(child_us);
            out.clamps += u64::from(child_ns > room_ns);
            child_ns.min(room_ns)
        };
        let ts_ns = us_to_ns(obs.timestamp_us);
        let queue_wait_ns = us_to_ns(obs.arrival_us - obs.timestamp_us);
        let latency_ns = us_to_ns(obs.latency_us);
        let decide_ns = contain(obs.decide_us, latency_ns);
        let train_ns = contain(obs.train_us, latency_ns - decide_ns);
        let hss_ns = latency_ns - decide_ns - train_ns;
        let queue_ns = contain(obs.queue_us, hss_ns);
        let transfer_ns = hss_ns - queue_ns;
        let arrival_ns = ts_ns + queue_wait_ns;

        let mut root = Span::leaf(SpanKind::Request, ts_ns, queue_wait_ns + latency_ns);
        let mut route = Span::leaf(SpanKind::RouterRoute, ts_ns, 0);
        route.tags.push(("shard", out.shard as u64));
        root.children.push(route);
        if queue_wait_ns > 0 {
            root.children
                .push(Span::leaf(SpanKind::ShardQueueWait, ts_ns, queue_wait_ns));
        }
        let mut form = Span::leaf(SpanKind::BatchForm, arrival_ns, 0);
        form.tags.push(("batch", obs.batch as u64));
        root.children.push(form);
        if decide_ns > 0 {
            root.children
                .push(Span::leaf(SpanKind::NnDecide, arrival_ns, decide_ns));
        }
        if train_ns > 0 {
            root.children.push(Span::leaf(
                SpanKind::StallTrain,
                arrival_ns + decide_ns,
                train_ns,
            ));
        }
        let hss_start = arrival_ns + decide_ns + train_ns;
        let mut hss = Span::leaf(SpanKind::HssAccess, hss_start, hss_ns);
        hss.tags.push(("device", obs.device as u64));
        hss.tags.push(("target", obs.target as u64));
        if obs.promoted > 0 {
            hss.tags.push(("promoted", obs.promoted));
        }
        if obs.evicted > 0 {
            hss.tags.push(("evicted", obs.evicted));
        }
        if queue_ns > 0 {
            hss.children
                .push(Span::leaf(SpanKind::DeviceQueue, hss_start, queue_ns));
        }
        hss.children.push(Span::leaf(
            SpanKind::DeviceTransfer,
            hss_start + queue_ns,
            transfer_ns,
        ));
        root.children.push(hss);

        let trace = RequestTrace {
            shard: out.shard,
            lba: obs.lba,
            seq,
            latency_ns,
            root,
        };
        out.totals.add(&critical_path(&trace), queue_wait_ns);
        self.offer_tail(trace);
        Some(SampleSummary {
            latency_ns,
            decide_ns,
            train_ns,
            queue_ns,
            transfer_ns,
            queue_wait_ns,
        })
    }

    /// Observes one background-migration tick's device I/O (the
    /// `stall.migrate` span, split into bulk reads and append writes by
    /// the storage manager's sub-span hook).
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
    fn offer_tail(&mut self, trace: RequestTrace) {
        let tail = &mut self.out.tail;
        if tail.len() == TAIL_K {
            if let Some(floor) = tail.last() {
                if trace.latency_ns <= floor.latency_ns {
                    return;
                }
            }
        }
        tail.push(trace);
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
    use crate::span::COMPONENTS;

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
        assert_eq!(shard.clamps, 0, "every child fit its parent");
        assert_eq!(shard.requests_seen, 50);
        assert_eq!(shard.totals.sampled, 50);
        assert_eq!(shard.shard, 3);
        let comp_sum: u64 = shard.totals.components().iter().map(|(_, ns)| ns).sum();
        assert_eq!(comp_sum, shard.totals.latency_ns);
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
    fn span_tree_shape_matches_taxonomy() {
        let mut t = XrayTracer::new(&XrayConfig::Sampled(0), 1, 7).unwrap();
        t.observe_request(&obs(0, 25.0)).unwrap();
        let shard = t.finish();
        let trace = &shard.tail[0];
        assert_eq!(trace.root.kind, SpanKind::Request);
        let kinds: Vec<SpanKind> = trace.root.children.iter().map(|c| c.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::RouterRoute,
                SpanKind::ShardQueueWait,
                SpanKind::BatchForm,
                SpanKind::NnDecide,
                SpanKind::StallTrain,
                SpanKind::HssAccess,
            ]
        );
        let hss = trace.root.children.last().unwrap();
        assert_eq!(hss.tag("device"), Some(1));
        assert_eq!(hss.tag("promoted"), Some(2));
        let hss_kinds: Vec<SpanKind> = hss.children.iter().map(|c| c.kind).collect();
        assert_eq!(
            hss_kinds,
            vec![SpanKind::DeviceQueue, SpanKind::DeviceTransfer]
        );
        // Children never exceed their parent.
        fn check(span: &Span) {
            let child_sum: u64 = span.children.iter().map(|c| c.dur_ns).sum();
            assert!(child_sum <= span.dur_ns + span.dur_ns.min(1), "{span:?}");
            for c in &span.children {
                assert!(c.dur_ns <= span.dur_ns);
                assert!(c.start_ns >= span.start_ns && c.end_ns() <= span.end_ns());
                check(c);
            }
        }
        check(&trace.root);
        // Every taxonomy component appears in the critical path.
        let path = critical_path(trace);
        assert_eq!(path.components.len(), COMPONENTS.len());
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
