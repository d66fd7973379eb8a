//! Seeded, infinite request streams: the one way each workload is
//! synthesized.
//!
//! A materialized [`Trace`](crate::Trace) holds 24 bytes per request —
//! 240 MB for a 10M-request run. Each stream here is a plain
//! `Iterator<Item = IoRequest> + Clone` that produces requests one at a
//! time with O(1) memory per request, so production-sized runs are
//! bounded by the workload's *footprint*, not its *length*. The
//! materializing generators collect a stream's first `n` requests, so a
//! trace and a stream of the same workload cannot differ:
//!
//! - [`SpecStream`] streams any [`SyntheticSpec`] (the engine behind
//!   [`crate::msrc`] and [`crate::filebench`]);
//!   [`generate_spec`](crate::synth::generate_spec)`(spec, n, seed)` is
//!   its first `n` requests. Beyond them it keeps going with freshly
//!   seeded horizon-length chunks whose timestamps continue
//!   monotonically.
//! - [`DiurnalStream`] streams [`crate::synth::diurnal`]; beyond the
//!   horizon the hot set simply keeps rotating every phase.
//! - [`MixStream`] streams Table 5's mixes; [`crate::mix::Mix::generate`]
//!   is its first `Σ horizonᵢ` requests.
//!
//! The clone-replays-the-original contract the serving layer's pre-pass
//! relies on is pinned by a proptest in this module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::request::{IoOp, IoRequest};
use crate::synth::{
    self, RawGen, SyntheticSpec, DIURNAL_COLD_BASE, DIURNAL_COLD_SPAN_PAGES,
    DIURNAL_HOT_PAGES_PER_REGION, DIURNAL_HOT_REGIONS, SEGMENT_PAGES,
};
use crate::zipf::Zipf;

/// Packed one-bit-per-request op store for the streaming rebalance pass:
/// a 10M-request chunk's ops fit in 1.25 MB instead of 240 MB of
/// materialized requests.
#[derive(Debug, Clone)]
struct OpBits {
    bits: Vec<u64>,
}

impl OpBits {
    fn new(n: usize) -> Self {
        OpBits {
            bits: vec![0; n.div_ceil(64)],
        }
    }

    /// `true` when request `i` is a write.
    fn is_write(&self, i: usize) -> bool {
        (self.bits[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets request `i`'s op.
    fn set_write(&mut self, i: usize, write: bool) {
        if write {
            self.bits[i / 64] |= 1 << (i % 64);
        } else {
            self.bits[i / 64] &= !(1 << (i % 64));
        }
    }
}

/// Flips the first `n` ops (never addresses or sizes) until the realized
/// write fraction is within half a percentage point of the target: the
/// op stickiness inside sequential runs skews the write fraction of
/// highly sequential workloads. One RNG draw per loop iteration.
fn rebalance_ops(ops: &mut OpBits, n: usize, target_wf: f64, rng: &mut StdRng) {
    if n == 0 {
        return;
    }
    let target_writes = (target_wf * n as f64).round() as i64;
    let mut writes: i64 = (0..n).filter(|&i| ops.is_write(i)).count() as i64;
    let mut guard = 4 * n;
    while (writes - target_writes).abs() > (n as i64 / 200).max(1) && guard > 0 {
        guard -= 1;
        let idx = rng.gen_range(0..n);
        if writes > target_writes && ops.is_write(idx) {
            ops.set_write(idx, false);
            writes -= 1;
        } else if writes < target_writes && !ops.is_write(idx) {
            ops.set_write(idx, true);
            writes += 1;
        }
    }
}

/// Per-chunk seed stride (the same golden-ratio constant the serving
/// layer uses for shard seeds).
const CHUNK_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// An infinite stream over a [`SyntheticSpec`], horizon-parameterized:
/// [`generate_spec`](crate::synth::generate_spec)`(spec, horizon, seed)`
/// is its first `horizon` requests.
///
/// Generation works in horizon-length chunks. Each chunk runs the shared
/// `RawGen` state machine twice: pass A records only the op bits and
/// applies the write-fraction rebalance to them (the rebalance is a
/// whole-chunk RNG post-pass, so it cannot be computed item-by-item);
/// pass B re-runs the identical RNG sequence and emits requests with the
/// rebalanced ops substituted. Memory per chunk is one bit per request.
/// Chunks after the first draw a derived seed and continue the timestamp
/// clock from the previous chunk's end, so the stream is monotone in time
/// and statistically stationary forever.
#[derive(Debug, Clone)]
pub struct SpecStream {
    spec: SyntheticSpec,
    horizon: usize,
    footprint_pages: u64,
    base_seed: u64,
    chunk_index: u64,
    ts_base: u64,
    last_ts: u64,
    gen: RawGen,
    ops: OpBits,
    pos: usize,
}

impl SpecStream {
    /// Sets up a stream whose footprint is calibrated, by one probe run,
    /// so that its first `horizon` requests' average page access count
    /// tracks the spec's.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`SyntheticSpec::validate`]) or
    /// `horizon == 0`.
    pub fn new(spec: SyntheticSpec, horizon: usize, seed: u64) -> Self {
        spec.validate();
        assert!(horizon > 0, "SpecStream: horizon must be positive");
        let footprint_pages = synth::calibrated_footprint(&spec, horizon, seed);
        let (gen, ops) = Self::build_chunk(&spec, horizon, footprint_pages, seed);
        SpecStream {
            spec,
            horizon,
            footprint_pages,
            base_seed: seed,
            chunk_index: 0,
            ts_base: 0,
            last_ts: 0,
            gen,
            ops,
            pos: 0,
        }
    }

    /// The stream's horizon: the length of each generation chunk.
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Pass A + rebalance for one chunk: returns a fresh pass-B generator
    /// and the chunk's final op bits.
    fn build_chunk(
        spec: &SyntheticSpec,
        horizon: usize,
        footprint_pages: u64,
        chunk_seed: u64,
    ) -> (RawGen, OpBits) {
        let mut gen = RawGen::new(spec, horizon, chunk_seed, footprint_pages);
        let mut ops = OpBits::new(horizon);
        for i in 0..horizon {
            let r = gen.next_request();
            ops.set_write(i, r.op.is_write());
        }
        rebalance_ops(&mut ops, horizon, spec.write_fraction, gen.rng_mut());
        (RawGen::new(spec, horizon, chunk_seed, footprint_pages), ops)
    }

    /// Draws the next request (infallible: the stream is infinite).
    pub(crate) fn next_request(&mut self) -> IoRequest {
        if self.pos == self.horizon {
            self.chunk_index += 1;
            let chunk_seed = self
                .base_seed
                .wrapping_add(self.chunk_index.wrapping_mul(CHUNK_SEED_STRIDE));
            let (gen, ops) =
                Self::build_chunk(&self.spec, self.horizon, self.footprint_pages, chunk_seed);
            self.gen = gen;
            self.ops = ops;
            self.pos = 0;
            // Continue the clock: chunk timestamps are relative gaps.
            self.ts_base = self.last_ts;
        }
        let raw = self.gen.next_request();
        let op = if self.ops.is_write(self.pos) {
            IoOp::Write
        } else {
            IoOp::Read
        };
        self.pos += 1;
        let ts = raw.timestamp_us + self.ts_base;
        self.last_ts = ts;
        IoRequest::new(ts, raw.lpn, raw.size_pages, op)
    }
}

impl Iterator for SpecStream {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        Some(self.next_request())
    }
}

/// An infinite stream over the phase-shifting workload of
/// [`crate::synth::diurnal`]: `diurnal(n, phases, seed)` is its first `n`
/// requests (for the `n` passed at construction), and beyond them the hot
/// set keeps rotating to a fresh disjoint span every
/// `n.div_ceil(phases)` requests while the cold area stays fixed — so the
/// touched-page footprint grows only with *phases passed*, not with
/// requests served, which is what makes this the `sec14_scale` workload.
#[derive(Debug, Clone)]
pub struct DiurnalStream {
    rng: StdRng,
    zipf: Zipf,
    phase_len: usize,
    i: usize,
    cold_cursor: u64,
}

impl DiurnalStream {
    /// Sets up the stream; `n` and `phases` fix the phase length
    /// `n.div_ceil(phases)` exactly as the materialized generator does.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `phases == 0`.
    pub fn new(n: usize, phases: usize, seed: u64) -> Self {
        assert!(n > 0, "diurnal: n must be positive");
        assert!(phases > 0, "diurnal: phases must be positive");
        DiurnalStream {
            rng: StdRng::seed_from_u64(seed ^ 0x00D1_0BA1_u64 ^ 0x5EC1_3000),
            zipf: Zipf::new(DIURNAL_HOT_REGIONS as usize, 0.6),
            phase_len: n.div_ceil(phases),
            i: 0,
            cold_cursor: 0,
        }
    }

    /// Draws the next request (infallible: the stream is infinite).
    pub(crate) fn next_request(&mut self) -> IoRequest {
        let i = self.i;
        self.i += 1;
        let phase = (i / self.phase_len) as u64;
        let ts = i as u64 * 300;
        if self.rng.gen::<f64>() < 0.70 {
            // Hot: this phase's private region block.
            let region = phase * DIURNAL_HOT_REGIONS + self.zipf.sample(&mut self.rng) as u64;
            let page = region * SEGMENT_PAGES + self.rng.gen_range(0..DIURNAL_HOT_PAGES_PER_REGION);
            let op = if self.rng.gen::<f64>() < 0.10 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            IoRequest::new(ts, page, 1, op)
        } else {
            // Cold: an 8-page streaming read over a large area.
            let lpn = DIURNAL_COLD_BASE + (self.cold_cursor * 8) % DIURNAL_COLD_SPAN_PAGES;
            self.cold_cursor += 1;
            IoRequest::new(ts, lpn, 8, IoOp::Read)
        }
    }
}

impl Iterator for DiurnalStream {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        Some(self.next_request())
    }
}

/// One component of a [`MixStream`]: a spec stream plus its time offset
/// and private address region.
#[derive(Debug, Clone)]
struct MixComponent {
    stream: SpecStream,
    offset_us: u64,
    region_base: u64,
    /// Requests this component may still contribute to the current
    /// horizon-generation window.
    quota_left: usize,
    /// The next remapped request, drawn but not yet merged.
    peeked: Option<IoRequest>,
}

/// An infinite stream over a workload mix (§8.3): each component is
/// shifted by a seeded start offset of up to half the longest component's
/// horizon duration and remapped into a private address region, then the
/// components are merged by timestamp (ties to the lower component
/// index). [`crate::mix::Mix::generate`] is its first `Σ horizonᵢ`
/// requests.
///
/// Beyond that prefix the merge continues generation by generation (each
/// component contributes its next horizon-length window); timestamps are
/// monotone within a generation but may step back by up to the
/// components' end-time spread at a generation boundary.
#[derive(Debug, Clone)]
pub struct MixStream {
    components: Vec<MixComponent>,
}

impl MixStream {
    /// Builds the stream from per-component spec streams. Each
    /// component's horizon duration and address-space size, which size
    /// the offsets and regions, come from running a clone of its stream
    /// over its horizon, so nothing is materialized.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub fn new(components: Vec<SpecStream>, seed: u64) -> Self {
        assert!(
            !components.is_empty(),
            "MixStream: need at least one component"
        );
        let metas: Vec<(u64, u64)> = components
            .iter()
            .map(|c| {
                let mut probe = c.clone();
                let mut first_ts = 0u64;
                let mut last_ts = 0u64;
                let mut max_last_lpn = 0u64;
                for i in 0..c.horizon() {
                    let r = probe.next_request();
                    if i == 0 {
                        first_ts = r.timestamp_us;
                    }
                    last_ts = r.timestamp_us;
                    max_last_lpn = max_last_lpn.max(r.last_lpn());
                }
                (last_ts - first_ts, max_last_lpn + 1)
            })
            .collect();
        let max_duration = metas.iter().map(|m| m.0).max().unwrap_or(0);

        let mut rng = StdRng::seed_from_u64(seed ^ 0x4d49_5845_u64); // "MIXE"
        let mut region_base = 0u64;
        let mut comps = Vec::with_capacity(components.len());
        for (stream, (_, address_space)) in components.into_iter().zip(metas) {
            let offset_us = if max_duration > 0 {
                rng.gen_range(0..=max_duration / 2)
            } else {
                0
            };
            let quota_left = stream.horizon();
            comps.push(MixComponent {
                stream,
                offset_us,
                region_base,
                quota_left,
                peeked: None,
            });
            // Disjoint regions with headroom for each component's growth.
            region_base += address_space + 1024;
        }
        MixStream { components: comps }
    }
}

impl Iterator for MixStream {
    type Item = IoRequest;

    fn next(&mut self) -> Option<IoRequest> {
        // A generation window closed: every component starts the next one.
        if self
            .components
            .iter()
            .all(|c| c.quota_left == 0 && c.peeked.is_none())
        {
            for c in &mut self.components {
                c.quota_left = c.stream.horizon();
            }
        }
        // Fill the merge heads, shifted and remapped.
        for c in &mut self.components {
            if c.peeked.is_none() && c.quota_left > 0 {
                let r = c.stream.next_request();
                c.quota_left -= 1;
                c.peeked = Some(IoRequest {
                    timestamp_us: r.timestamp_us + c.offset_us,
                    lpn: r.lpn + c.region_base,
                    size_pages: r.size_pages,
                    op: r.op,
                });
            }
        }
        // Earliest timestamp wins; ties go to the lowest component index.
        let mut best: Option<(u64, usize)> = None;
        for (i, c) in self.components.iter().enumerate() {
            if let Some(p) = &c.peeked {
                let earlier = match best {
                    Some((best_ts, _)) => p.timestamp_us < best_ts,
                    None => true,
                };
                if earlier {
                    best = Some((p.timestamp_us, i));
                }
            }
        }
        let (_, idx) = best?;
        self.components[idx].peeked.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::Mix;
    use crate::stats::TraceStats;
    use crate::synth::diurnal;
    use crate::synth::tests::spec;
    use crate::trace::Trace;
    use proptest::prelude::*;

    /// The next `n` requests of `stream`.
    fn take(stream: impl Iterator<Item = IoRequest>, n: usize) -> Vec<IoRequest> {
        stream.take(n).collect()
    }

    /// Advances `stream` by `k` requests, then checks that a clone taken
    /// there yields the same next `m` requests as the original.
    fn clone_replays(
        mut stream: impl Iterator<Item = IoRequest> + Clone,
        k: usize,
        m: usize,
    ) -> Result<(), TestCaseError> {
        stream.by_ref().take(k).for_each(drop);
        let replay = take(stream.clone(), m);
        prop_assert_eq!(replay, take(stream, m));
        Ok(())
    }

    #[test]
    fn spec_stream_continues_monotone_and_stationary() {
        let n = 4_000;
        let mut s = SpecStream::new(spec(), n, 5);
        let first: Vec<IoRequest> = (0..3 * n).map(|_| s.next_request()).collect();
        assert!(
            first
                .windows(2)
                .all(|w| w[0].timestamp_us <= w[1].timestamp_us),
            "timestamps must stay monotone across chunk boundaries"
        );
        // Chunks differ (fresh seed) but hold the write fraction.
        let chunk2 = Trace::from_requests("c2", first[2 * n..].to_vec());
        let chunk0 = Trace::from_requests("c0", first[..n].to_vec());
        assert_ne!(chunk0.requests(), chunk2.requests());
        let wf = TraceStats::measure(&chunk2).write_fraction;
        assert!((wf - 0.3).abs() < 0.05, "chunk 2 write fraction {wf}");
    }

    #[test]
    fn diurnal_stream_prefix_is_bit_identical_and_infinite() {
        let n = 6_000;
        let t = diurnal(n, 5, 42);
        let mut s = DiurnalStream::new(n, 5, 42);
        assert_eq!(t.requests(), take(s.by_ref(), n));
        // Beyond the horizon the stream keeps rotating hot sets.
        let beyond = s.next_request();
        assert_eq!(beyond.timestamp_us, n as u64 * 300);
    }

    #[test]
    fn mix_stream_is_infinite_and_generation_blocks_stay_sorted() {
        let n = 400;
        let mut s = Mix::Mix2.stream(n, 7);
        let total = 2 * n; // one full generation for two components
        let gen0: Vec<IoRequest> = (0..total).filter_map(|_| s.next()).collect();
        let gen1: Vec<IoRequest> = (0..total).filter_map(|_| s.next()).collect();
        assert_eq!(gen0.len(), total);
        assert_eq!(gen1.len(), total, "stream must continue past the horizon");
        for g in [&gen0, &gen1] {
            assert!(
                g.windows(2).all(|w| w[0].timestamp_us <= w[1].timestamp_us),
                "each generation block is internally sorted"
            );
        }
        assert!(
            gen1.last().map(|r| r.timestamp_us) > gen0.last().map(|r| r.timestamp_us),
            "time advances across generations"
        );
    }

    proptest! {
        /// `serve_stream` runs its pre-pass over `stream.clone()` and then
        /// serves the original, so a clone taken anywhere — across chunk,
        /// phase and mix-generation boundaries — must replay the original.
        #[test]
        fn clones_replay_the_original(
            horizon in 1usize..300,
            at in 0.0f64..3.0,
            m in 1usize..600,
            seed in 0u64..500,
            midx in 0usize..6,
        ) {
            // The clone point k spans [0, 3 × horizon).
            let k = (at * horizon as f64) as usize;
            clone_replays(SpecStream::new(spec(), horizon, seed), k, m)?;
            clone_replays(DiurnalStream::new(horizon, 3, seed), k, m)?;
            clone_replays(Mix::ALL[midx].stream(horizon, seed), k, m)?;
        }
    }
}
