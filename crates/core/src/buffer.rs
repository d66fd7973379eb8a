//! The experience replay buffer (§6.2.1).
//!
//! Sibyl stores `⟨state, action, reward, next-state⟩` transitions in a
//! 1000-entry buffer in host DRAM, deduplicates identical experiences to
//! cut its footprint, and trains on randomly sampled batches (experience
//! replay, Mnih et al. 2015). Fig. 8 shows performance saturating at 1000
//! entries — the capacity the paper (and our default config) picks.

use std::collections::HashMap;

use rand::Rng;

use sibyl_nn::half::f32_to_f16_bits;
use sibyl_telemetry::Log2Histogram;

/// One transition. Observations are the normalized feature vectors; the
/// paper stores them in the binned/half-precision formats accounted in
/// §10.2 (100 bits per experience).
#[derive(Debug, Clone, PartialEq)]
pub struct Experience {
    /// Observation at decision time.
    pub obs: Vec<f32>,
    /// Chosen action (device index).
    pub action: usize,
    /// Reward received for the action.
    pub reward: f32,
    /// Observation at the next decision.
    pub next_obs: Vec<f32>,
}

impl Experience {
    /// A dedup key quantized through half precision — experiences that
    /// differ only below f16 resolution are considered identical, which
    /// is how the paper's buffer deduplication keeps only meaningfully
    /// distinct transitions.
    fn dedup_key(&self) -> Vec<u16> {
        let mut key = Vec::with_capacity(self.obs.len() + self.next_obs.len() + 2);
        key.extend(self.obs.iter().map(|&v| f32_to_f16_bits(v)));
        key.push(self.action as u16);
        key.push(f32_to_f16_bits(self.reward));
        key.extend(self.next_obs.iter().map(|&v| f32_to_f16_bits(v)));
        key
    }
}

/// Fixed-capacity ring buffer with deduplication and uniform random
/// sampling.
///
/// # Examples
///
/// ```
/// use sibyl_core::{Experience, ExperienceBuffer};
/// let mut buf = ExperienceBuffer::new(4);
/// buf.push(Experience {
///     obs: vec![0.0; 6],
///     action: 0,
///     reward: 1.0,
///     next_obs: vec![0.1; 6],
/// });
/// assert_eq!(buf.len(), 1);
/// ```
#[derive(Debug)]
pub struct ExperienceBuffer {
    entries: Vec<Experience>,
    /// Per-slot insertion stamp, parallel to `entries`: the value of
    /// `pushes` when the slot was written (refreshed when a duplicate
    /// re-arrives). Pure accounting for the telemetry age distribution —
    /// never consulted by storage or sampling.
    stamps: Vec<u64>,
    capacity: usize,
    /// Ring cursor for overwrites once full.
    cursor: usize,
    /// Dedup index: key → slot.
    index: HashMap<Vec<u16>, usize>,
    /// Total pushes attempted (including rejected duplicates).
    pushes: u64,
    duplicates: u64,
}

impl ExperienceBuffer {
    /// Creates a buffer holding at most `capacity` experiences.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ExperienceBuffer: capacity must be positive");
        ExperienceBuffer {
            entries: Vec::with_capacity(capacity),
            stamps: Vec::with_capacity(capacity),
            capacity,
            cursor: 0,
            index: HashMap::new(),
            pushes: 0,
            duplicates: 0,
        }
    }

    /// Number of stored (unique) experiences.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total push attempts.
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Pushes rejected as duplicates.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Inserts an experience; duplicates (at f16 resolution) are dropped.
    /// Once full, new unique experiences overwrite the oldest slot.
    /// Returns `true` if the experience was stored.
    pub fn push(&mut self, exp: Experience) -> bool {
        self.pushes += 1;
        let key = exp.dedup_key();
        if let Some(&slot) = self.index.get(&key) {
            self.duplicates += 1;
            // A duplicate re-observation refreshes the slot's age: the
            // transition is still being collected, so for telemetry it is
            // as fresh as its latest arrival.
            self.stamps[slot] = self.pushes;
            return false;
        }
        if self.entries.len() < self.capacity {
            self.index.insert(key, self.entries.len());
            self.entries.push(exp);
            self.stamps.push(self.pushes);
        } else {
            let old_key = self.entries[self.cursor].dedup_key();
            self.index.remove(&old_key);
            self.index.insert(key, self.cursor);
            self.entries[self.cursor] = exp;
            self.stamps[self.cursor] = self.pushes;
            self.cursor = (self.cursor + 1) % self.capacity;
        }
        true
    }

    /// Age distribution of the stored experiences, in push counts: how
    /// many push attempts ago each slot was last written (or refreshed by
    /// a duplicate). Telemetry only — reading it never perturbs storage,
    /// sampling, or RNG state.
    pub fn age_histogram(&self) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for &stamp in &self.stamps {
            h.record(self.pushes - stamp);
        }
        h
    }

    /// Uniformly samples `batch_size` slot indices (with replacement when
    /// the buffer is smaller than the batch). Returns an empty vector for
    /// an empty buffer.
    ///
    /// The learner reads each sampled [`Experience`] through
    /// [`ExperienceBuffer::get`]. RNG consumption is exactly one
    /// `gen_range` draw per sampled slot.
    pub fn sample_indices<R: Rng + ?Sized>(&self, batch_size: usize, rng: &mut R) -> Vec<usize> {
        let mut out = Vec::new();
        self.sample_indices_into(batch_size, rng, &mut out);
        out
    }

    /// [`ExperienceBuffer::sample_indices`] refilling a caller-owned
    /// `out` (left empty for an empty buffer).
    pub(crate) fn sample_indices_into<R: Rng + ?Sized>(
        &self,
        batch_size: usize,
        rng: &mut R,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if !self.entries.is_empty() {
            out.extend((0..batch_size).map(|_| rng.gen_range(0..self.entries.len())));
        }
    }

    /// The experience stored in slot `idx` (as returned by
    /// [`ExperienceBuffer::sample_indices`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> &Experience {
        &self.entries[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn exp(tag: f32) -> Experience {
        Experience {
            obs: vec![tag; 6],
            action: 0,
            reward: tag,
            next_obs: vec![tag + 1.0; 6],
        }
    }

    #[test]
    fn push_and_len() {
        let mut b = ExperienceBuffer::new(10);
        assert!(b.is_empty());
        assert!(b.push(exp(0.1)));
        assert!(b.push(exp(0.2)));
        assert_eq!(b.len(), 2);
        assert!(b.len() < b.capacity());
    }

    #[test]
    fn duplicates_are_rejected() {
        let mut b = ExperienceBuffer::new(10);
        assert!(b.push(exp(0.5)));
        assert!(!b.push(exp(0.5)));
        assert_eq!(b.len(), 1);
        assert_eq!(b.duplicates(), 1);
        assert_eq!(b.pushes(), 2);
    }

    #[test]
    fn near_identical_experiences_dedup_at_f16_resolution() {
        let mut b = ExperienceBuffer::new(10);
        assert!(b.push(exp(0.5)));
        // 0.5 + 1e-8 is identical at f16 resolution.
        let mut e = exp(0.5);
        e.reward += 1e-8;
        assert!(!b.push(e));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut b = ExperienceBuffer::new(3);
        for i in 0..3 {
            assert!(b.push(exp(i as f32)));
        }
        assert_eq!(b.len(), b.capacity());
        assert!(b.push(exp(99.0)));
        assert_eq!(b.len(), 3);
        // exp(0.0) was overwritten; pushing it again must succeed.
        assert!(b.push(exp(0.0)));
    }

    #[test]
    fn sampling_covers_buffer() {
        let mut b = ExperienceBuffer::new(8);
        for i in 0..8 {
            b.push(exp(i as f32));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let batch = b.sample_indices(256, &mut rng);
        assert_eq!(batch.len(), 256);
        let distinct: std::collections::HashSet<u32> =
            batch.iter().map(|&i| b.get(i).reward.to_bits()).collect();
        assert!(distinct.len() >= 6, "sampling should cover most slots");
    }

    #[test]
    fn sample_indices_from_empty_is_empty_and_draws_nothing() {
        let b = ExperienceBuffer::new(4);
        let mut rng_a = rand::rngs::StdRng::seed_from_u64(3);
        let mut rng_b = rand::rngs::StdRng::seed_from_u64(3);
        assert!(b.sample_indices(16, &mut rng_a).is_empty());
        use rand::Rng;
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "no draws consumed");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ExperienceBuffer::new(0);
    }

    #[test]
    fn age_histogram_tracks_pushes_and_refreshes() {
        let mut b = ExperienceBuffer::new(4);
        b.push(exp(0.0));
        b.push(exp(1.0));
        b.push(exp(2.0));
        // Ages are measured in push attempts: slot 0 is 2 pushes old,
        // slot 1 is 1 push old, slot 2 is fresh.
        let h = b.age_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(2));
        // A duplicate refreshes its slot's age to zero.
        assert!(!b.push(exp(0.0)));
        assert_eq!(b.age_histogram().max(), Some(2));
        assert_eq!(b.age_histogram().min(), Some(0));
        // Reading the histogram is pure: storage is untouched.
        assert_eq!(b.len(), 3);
        assert_eq!(b.pushes(), 4);
    }
}
