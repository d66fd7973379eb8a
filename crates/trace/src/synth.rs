//! The shared synthetic-workload engine.
//!
//! Every generator in this crate ([`crate::msrc`], [`crate::filebench`])
//! describes a workload as a [`SyntheticSpec`] — the statistics the paper
//! publishes in Table 4 plus a few shape knobs — and synthesizes it with
//! one request-by-request state machine, driven by [`SpecStream`];
//! [`generate_spec`] is that stream's first `n` requests. The *measured*
//! statistics match the spec:
//!
//! - **Popularity skew**: request start pages are drawn Zipf(θ) over fixed
//!   address segments, giving the hot/cold structure every placement policy
//!   in the paper keys on.
//! - **Hotness calibration**: the footprint is sized so that measured
//!   average access count ≈ `avg_access_count`, with a correction pass
//!   (Zipf tails leave some pages untouched, which the closed form cannot
//!   see).
//! - **Sequentiality**: requests continue the previous request's address
//!   range with probability `seq_probability`; sequential workloads in the
//!   paper are exactly the large-request ones (§3 defines randomness by
//!   average request size).
//! - **Phases**: the Zipf rank→segment mapping rotates `phases` times over
//!   the trace, reproducing the drifting hot sets of Fig. 4 that motivate
//!   online adaptation.
//! - **Bursty arrivals**: exponential think time with occasional bursts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::page_set::PageSet;
use crate::request::{IoOp, IoRequest};
use crate::stream::SpecStream;
use crate::trace::Trace;
use crate::zipf::Zipf;

/// Pages per popularity segment. Requests within a segment are placed
/// uniformly, so a segment is the unit of spatial locality.
pub(crate) const SEGMENT_PAGES: u64 = 64;

/// Maximum request size in pages (256 KiB), matching the largest sizes in
/// the MSRC traces.
const MAX_REQ_PAGES: u32 = 64;

/// A statistical description of a workload, in the vocabulary of the
/// paper's Table 4.
///
/// # Examples
///
/// ```
/// use sibyl_trace::synth::SyntheticSpec;
/// let spec = SyntheticSpec {
///     name: "custom",
///     write_fraction: 0.5,
///     avg_request_size_kib: 16.0,
///     avg_access_count: 10.0,
///     zipf_theta: 0.9,
///     seq_probability: 0.3,
///     phases: 4,
///     mean_gap_us: 1000.0,
/// };
/// let trace = sibyl_trace::synth::generate_spec(&spec, 5_000, 7);
/// assert_eq!(trace.len(), 5_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticSpec {
    /// Workload name, used as the trace name.
    pub name: &'static str,
    /// Fraction of requests that are writes (Table 4 "Write %" / 100).
    pub write_fraction: f64,
    /// Target mean request size in KiB (Table 4 "Avg. request size").
    pub avg_request_size_kib: f64,
    /// Target mean per-page access count (Table 4 "Avg. access count").
    pub avg_access_count: f64,
    /// Zipf exponent of the segment-popularity distribution.
    pub zipf_theta: f64,
    /// Probability that a request sequentially continues the previous one.
    pub seq_probability: f64,
    /// Number of hot-set rotations across the trace (≥ 1).
    pub phases: usize,
    /// Mean inter-arrival (think) time in microseconds.
    pub mean_gap_us: f64,
}

impl SyntheticSpec {
    /// Target mean request size in 4 KiB pages (at least 1).
    pub fn avg_pages(&self) -> f64 {
        (self.avg_request_size_kib / 4.0).max(1.0)
    }

    /// Validates the spec's ranges.
    ///
    /// # Panics
    ///
    /// Panics if any field is outside its documented range.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.write_fraction),
            "write_fraction must be in [0, 1]"
        );
        assert!(
            self.avg_request_size_kib >= 4.0,
            "avg_request_size_kib must be >= 4"
        );
        assert!(
            self.avg_access_count >= 1.0,
            "avg_access_count must be >= 1"
        );
        assert!(self.zipf_theta >= 0.0, "zipf_theta must be >= 0");
        assert!(
            (0.0..=0.95).contains(&self.seq_probability),
            "seq_probability must be in [0, 0.95]"
        );
        assert!(self.phases >= 1, "phases must be >= 1");
        assert!(self.mean_gap_us > 0.0, "mean_gap_us must be positive");
    }
}

/// Synthesizes `n` requests from `spec`, deterministically for a given
/// `seed`: the first `n` requests of
/// [`SpecStream::new`]`(spec, n, seed)`, whose footprint calibration
/// makes the measured average access count track the target.
///
/// # Panics
///
/// Panics if the spec is invalid (see [`SyntheticSpec::validate`]) or
/// `n == 0`.
pub fn generate_spec(spec: &SyntheticSpec, n: usize, seed: u64) -> Trace {
    assert!(n > 0, "generate_spec: n must be positive");
    let stream = SpecStream::new(spec.clone(), n, seed);
    Trace::from_requests(spec.name, stream.take(n).collect())
}

/// The footprint (in pages) a [`SpecStream`] with horizon `n`
/// synthesizes over: closed-form estimate plus one probe-and-rescale
/// calibration pass.
pub(crate) fn calibrated_footprint(spec: &SyntheticSpec, n: usize, seed: u64) -> u64 {
    // Initial footprint estimate from the closed form
    //   avg_access_count = total page accesses / unique pages.
    let total_accesses = n as f64 * spec.avg_pages();
    let mut footprint = (total_accesses / spec.avg_access_count).max(4.0 * SEGMENT_PAGES as f64);

    // One calibration pass: the Zipf tail leaves pages untouched, so the
    // measured count comes out high; rescale the footprint accordingly.
    // The measure is page accesses over distinct pages, which the op
    // rebalance cannot change (it never moves a page), so the probe
    // skips it.
    let probe_n = n.min(20_000);
    let mut probe = RawGen::new(spec, probe_n, seed, footprint as u64);
    let mut pages = PageSet::default();
    let mut page_accesses = 0u64;
    for _ in 0..probe_n {
        let r = probe.next_request();
        pages.insert(r.lpn..=r.last_lpn());
        page_accesses += u64::from(r.size_pages);
    }
    let measured = page_accesses as f64 / pages.len() as f64;
    if measured > 0.0 {
        // Scale target for the probe length: a shorter probe revisits pages
        // proportionally fewer times.
        let probe_target = (spec.avg_access_count * probe_n as f64 / n as f64).max(1.0);
        let correction = (measured / probe_target).clamp(0.2, 8.0);
        footprint *= correction;
    }
    footprint.max(4.0 * SEGMENT_PAGES as f64) as u64
}

/// The request-by-request state machine behind [`SpecStream`] and the
/// footprint-calibration probe.
#[derive(Debug, Clone)]
pub(crate) struct RawGen {
    rng: StdRng,
    zipf: Zipf,
    n_segments: usize,
    phase_len: usize,
    phase_stride: usize,
    geo_p: f64,
    seq_probability: f64,
    write_fraction: f64,
    mean_gap_us: f64,
    now_us: u64,
    prev_end: u64,
    prev_op: IoOp,
    in_seq_run: bool,
    burst_left: usize,
    i: usize,
}

impl RawGen {
    /// Sets up generation of `n` requests over a fixed footprint.
    pub(crate) fn new(spec: &SyntheticSpec, n: usize, seed: u64, footprint_pages: u64) -> Self {
        let n_segments = (footprint_pages / SEGMENT_PAGES).max(4) as usize;
        RawGen {
            rng: StdRng::seed_from_u64(seed ^ 0x5357_4942_594c_u64), // "SIBYL" tag
            zipf: Zipf::new(n_segments, spec.zipf_theta),
            n_segments,
            phase_len: n.div_ceil(spec.phases).max(1),
            phase_stride: n_segments / spec.phases.max(1),
            // Geometric size distribution with mean `avg_pages` before
            // clamping.
            geo_p: (1.0 / spec.avg_pages()).clamp(1.0 / MAX_REQ_PAGES as f64, 1.0),
            seq_probability: spec.seq_probability,
            write_fraction: spec.write_fraction,
            mean_gap_us: spec.mean_gap_us,
            now_us: 0,
            prev_end: 0,
            prev_op: IoOp::Read,
            in_seq_run: false,
            burst_left: 0,
            i: 0,
        }
    }

    /// The generator's RNG, for post-passes that continue the stream
    /// (op rebalancing draws from the same sequence).
    pub(crate) fn rng_mut(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Draws the next request.
    pub(crate) fn next_request(&mut self) -> IoRequest {
        let i = self.i;
        let phase = i / self.phase_len;

        // --- address ---
        let lpn = if self.in_seq_run || (i > 0 && self.rng.gen::<f64>() < self.seq_probability) {
            self.in_seq_run = self.rng.gen::<f64>() < 0.7; // runs end geometrically
            self.prev_end
        } else {
            self.in_seq_run = false;
            let rank = self.zipf.sample(&mut self.rng);
            let seg = (rank + phase * self.phase_stride) % self.n_segments;
            let offset = self.rng.gen_range(0..SEGMENT_PAGES);
            seg as u64 * SEGMENT_PAGES + offset
        };

        // --- size: geometric, clamped ---
        let mut size = 1u32;
        while size < MAX_REQ_PAGES && self.rng.gen::<f64>() > self.geo_p {
            size += 1;
        }

        // --- op: sticky within sequential runs ---
        let op = if self.in_seq_run && i > 0 {
            self.prev_op
        } else if self.rng.gen::<f64>() < self.write_fraction {
            IoOp::Write
        } else {
            IoOp::Read
        };

        // --- arrival time: exponential think time with bursts ---
        // Enterprise traces are bursty (§3, Fig. 4): ~1.5 % of requests
        // open a burst of 15–50 requests arriving ~5× faster. Mild bursts
        // queue the slower devices without saturating the whole system.
        if self.burst_left == 0 && self.rng.gen::<f64>() < 0.015 {
            self.burst_left = self.rng.gen_range(15..50);
        }
        let mean_gap = if self.burst_left > 0 {
            self.burst_left -= 1;
            self.mean_gap_us / 5.0
        } else {
            self.mean_gap_us
        };
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        let gap = (-u.ln() * mean_gap) as u64;
        self.now_us += gap;

        self.prev_end = lpn + size as u64;
        self.prev_op = op;
        self.i += 1;
        IoRequest::new(self.now_us, lpn, size, op)
    }
}

/// Hot regions per phase of the [`diurnal`] generator (64-page regions,
/// matching the serving engine's routing granule).
pub(crate) const DIURNAL_HOT_REGIONS: u64 = 16;

/// Hot pages actually used within each hot region of [`diurnal`].
pub(crate) const DIURNAL_HOT_PAGES_PER_REGION: u64 = 16;

/// Base LPN of [`diurnal`]'s cold streaming area, far above any hot span.
pub(crate) const DIURNAL_COLD_BASE: u64 = 1 << 22;

/// Pages in the cold streaming area of [`diurnal`].
pub(crate) const DIURNAL_COLD_SPAN_PAGES: u64 = 1 << 17;

/// Synthesizes a **phase-shifting (diurnal) workload** — the workload
/// class that static first-write placement handles worst, and the one
/// background migration (`sibyl-migrate`) exists for.
///
/// The trace runs `phases` equal-length phases. Each phase owns a
/// *disjoint* hot set: 16 64-page regions holding 16 hot pages each,
/// with region popularity Zipf(0.6) — mild skew, so the *whole* hot set
/// is re-read rather than a tiny head. 70 % of requests hit the current phase's
/// hot set (single-page, 90 % reads — re-read-heavy, like a content
/// cache at different times of day); the rest stream cold 8-page reads
/// across a large, barely-reused area. When a phase boundary passes, the entire
/// hot set rotates at once: pages a placement policy promoted during the
/// previous phase go cold while the new hot set sits in slow storage —
/// exactly the stale-residency regime where latency is recovered by
/// proactively promoting the new hot set and demoting the old one,
/// rather than paying one slow access per page for reactive on-access
/// promotion.
///
/// Deterministic for a given `seed`.
///
/// # Panics
///
/// Panics if `n == 0` or `phases == 0`.
pub fn diurnal(n: usize, phases: usize, seed: u64) -> Trace {
    assert!(n > 0, "diurnal: n must be positive");
    let stream = crate::stream::DiurnalStream::new(n, phases, seed);
    Trace::from_requests("diurnal", stream.take(n).collect())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::stats::TraceStats;

    /// A mid-range spec the generator tests share.
    pub(crate) fn spec() -> SyntheticSpec {
        SyntheticSpec {
            name: "unit",
            write_fraction: 0.3,
            avg_request_size_kib: 16.0,
            avg_access_count: 20.0,
            zipf_theta: 0.9,
            seq_probability: 0.2,
            phases: 4,
            mean_gap_us: 500.0,
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_spec(&spec(), 5_000, 11);
        let b = generate_spec(&spec(), 5_000, 11);
        assert_eq!(a, b);
        let c = generate_spec(&spec(), 5_000, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn write_fraction_matches_target() {
        let t = generate_spec(&spec(), 20_000, 3);
        let st = TraceStats::measure(&t);
        assert!(
            (st.write_fraction - 0.3).abs() < 0.02,
            "write fraction {} != 0.3",
            st.write_fraction
        );
    }

    #[test]
    fn avg_size_matches_target() {
        let t = generate_spec(&spec(), 20_000, 4);
        let st = TraceStats::measure(&t);
        // 16 KiB target; geometric clamping pulls slightly low.
        assert!(
            (st.avg_request_size_kib - 16.0).abs() < 4.0,
            "avg size {} KiB",
            st.avg_request_size_kib
        );
    }

    #[test]
    fn access_count_calibration_lands_near_target() {
        let t = generate_spec(&spec(), 40_000, 5);
        let st = TraceStats::measure(&t);
        assert!(
            st.avg_access_count > 8.0 && st.avg_access_count < 50.0,
            "avg access count {} vs target 20",
            st.avg_access_count
        );
    }

    #[test]
    fn hot_workloads_have_higher_access_counts_than_cold() {
        let mut hot = spec();
        hot.avg_access_count = 100.0;
        let mut cold = spec();
        cold.avg_access_count = 2.0;
        let sh = TraceStats::measure(&generate_spec(&hot, 30_000, 6));
        let sc = TraceStats::measure(&generate_spec(&cold, 30_000, 6));
        assert!(
            sh.avg_access_count > 3.0 * sc.avg_access_count,
            "hot {} vs cold {}",
            sh.avg_access_count,
            sc.avg_access_count
        );
    }

    #[test]
    fn timestamps_are_monotone() {
        let t = generate_spec(&spec(), 5_000, 8);
        assert!(t
            .requests()
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us));
    }

    #[test]
    fn sequentiality_raises_contiguity() {
        let mut seq = spec();
        seq.seq_probability = 0.8;
        let mut rnd = spec();
        rnd.seq_probability = 0.0;
        let contiguity = |t: &Trace| {
            let mut c = 0usize;
            for w in t.requests().windows(2) {
                if w[1].lpn == w[0].last_lpn() + 1 {
                    c += 1;
                }
            }
            c as f64 / (t.len() - 1) as f64
        };
        let ts = generate_spec(&seq, 10_000, 9);
        let tr = generate_spec(&rnd, 10_000, 9);
        assert!(
            contiguity(&ts) > contiguity(&tr) + 0.3,
            "seq {} vs rnd {}",
            contiguity(&ts),
            contiguity(&tr)
        );
    }

    #[test]
    #[should_panic(expected = "n must be positive")]
    fn rejects_zero_requests() {
        let _ = generate_spec(&spec(), 0, 1);
    }

    #[test]
    fn diurnal_is_deterministic_and_rotates_hot_sets() {
        let a = diurnal(8_000, 4, 7);
        let b = diurnal(8_000, 4, 7);
        assert_eq!(a, b, "diurnal must be seeded");
        assert_ne!(a, diurnal(8_000, 4, 8));
        // Phases use disjoint hot spans: the hot pages touched in phase 0
        // never reappear as hot pages in phase 2.
        let hot_span = DIURNAL_HOT_REGIONS * SEGMENT_PAGES;
        let phase_of = |i: usize| i / 2_000;
        let mut phase_hot: Vec<std::collections::HashSet<u64>> = vec![Default::default(); 4];
        for (i, r) in a.iter().enumerate() {
            if r.lpn < DIURNAL_COLD_BASE {
                assert_eq!(
                    (r.lpn / hot_span) as usize,
                    phase_of(i),
                    "hot request outside its phase's span"
                );
                phase_hot[phase_of(i)].insert(r.lpn);
            }
        }
        for p in &phase_hot {
            assert!(!p.is_empty(), "every phase must have hot traffic");
        }
        assert!(
            phase_hot[0].is_disjoint(&phase_hot[2]),
            "hot sets must rotate disjointly"
        );
        // Re-read-heavy hot half: hot pages are touched many times.
        let hot_requests: usize = a.iter().filter(|r| r.lpn < DIURNAL_COLD_BASE).count();
        let hot_unique: usize = phase_hot.iter().map(|p| p.len()).sum();
        assert!(
            hot_requests as f64 / hot_unique as f64 > 2.0,
            "hot pages should be re-read: {hot_requests} reqs over {hot_unique} pages"
        );
    }

    #[test]
    #[should_panic(expected = "phases must be positive")]
    fn diurnal_rejects_zero_phases() {
        let _ = diurnal(10, 0, 1);
    }

    #[test]
    #[should_panic(expected = "write_fraction")]
    fn rejects_bad_write_fraction() {
        let mut s = spec();
        s.write_fraction = 1.5;
        let _ = generate_spec(&s, 10, 1);
    }
}
