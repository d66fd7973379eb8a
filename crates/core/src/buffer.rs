//! The experience replay buffer (§6.2.1).
//!
//! Sibyl stores `⟨state, action, reward, next-state⟩` transitions in a
//! 1000-entry buffer in host DRAM, deduplicates identical experiences to
//! cut its footprint, and trains on randomly sampled batches (experience
//! replay, Mnih et al. 2015). Fig. 8 shows performance saturating at 1000
//! entries — the capacity the paper (and our default config) picks.
//!
//! The buffer is a flat ring: each field of a transition lives in its own
//! fixed-stride array, slot `i` of every array holding transition `i`, and
//! the dedup index is an open-addressing table of slot numbers over the
//! stored keys. The arrays are allocated by the first push, which also
//! fixes the observation width; from then on a push allocates nothing.

use rand::Rng;

use sibyl_nn::half::f32_to_f16_bits;
use sibyl_telemetry::Log2Histogram;

/// One owned transition: the form experiences are exchanged in between
/// agents (a shared replay pool, [`SibylAgent::take_published`] and
/// [`SibylAgent::absorb_experiences`]). Observations are the normalized
/// feature vectors; the paper stores them in the binned/half-precision
/// formats accounted in §10.2 (100 bits per experience).
///
/// [`SibylAgent::take_published`]: crate::SibylAgent::take_published
/// [`SibylAgent::absorb_experiences`]: crate::SibylAgent::absorb_experiences
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
    /// This experience as a borrowed view, the form
    /// [`ExperienceBuffer::push`] takes.
    pub fn view(&self) -> ExperienceRef<'_> {
        ExperienceRef {
            obs: &self.obs,
            action: self.action,
            reward: self.reward,
            next_obs: &self.next_obs,
        }
    }
}

/// One borrowed transition: what [`ExperienceBuffer::push`] takes and
/// [`ExperienceBuffer::get`] lends out, so neither copies an observation
/// onto the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperienceRef<'a> {
    /// Observation at decision time.
    pub obs: &'a [f32],
    /// Chosen action (device index).
    pub action: usize,
    /// Reward received for the action.
    pub reward: f32,
    /// Observation at the next decision.
    pub next_obs: &'a [f32],
}

impl ExperienceRef<'_> {
    /// An owned copy.
    pub fn to_experience(&self) -> Experience {
        Experience {
            obs: self.obs.to_vec(),
            action: self.action,
            reward: self.reward,
            next_obs: self.next_obs.to_vec(),
        }
    }
}

/// [`ExperienceBuffer`]'s index entry for a free table position.
const FREE: u32 = u32::MAX;

/// The dedup key's hash: deterministic (no per-process seed), over the
/// key's half-precision words four at a time.
fn key_hash(key: &[u16]) -> u32 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let h = key.chunks(4).fold(0u64, |h, words| {
        let word = words.iter().fold(0u64, |w, &k| w << 16 | u64::from(k));
        (h ^ word).wrapping_mul(K)
    });
    ((h ^ h >> 32).wrapping_mul(K) >> 32) as u32
}

/// Fixed-capacity ring buffer with deduplication and uniform random
/// sampling.
///
/// # Examples
///
/// ```
/// use sibyl_core::{ExperienceBuffer, ExperienceRef};
/// let mut buf = ExperienceBuffer::new(4);
/// buf.push(ExperienceRef {
///     obs: &[0.0; 6],
///     action: 0,
///     reward: 1.0,
///     next_obs: &[0.1; 6],
/// });
/// assert_eq!(buf.len(), 1);
/// assert_eq!(buf.get(0).next_obs, &[0.1; 6]);
/// ```
#[derive(Debug)]
pub struct ExperienceBuffer {
    capacity: usize,
    /// Observation width: fixed by the first push, or up front by the
    /// learner that owns the buffer.
    width: Option<usize>,
    /// Slots `0..len` hold transitions.
    len: usize,
    /// Ring cursor: the slot the next unique push overwrites once full.
    cursor: usize,
    /// `capacity × width` each.
    obs: Vec<f32>,
    next_obs: Vec<f32>,
    actions: Vec<usize>,
    rewards: Vec<f32>,
    /// Per slot, its dedup key (`2 × width + 2` words, see
    /// [`ExperienceBuffer::push`]) and the key's hash.
    keys: Vec<u16>,
    hashes: Vec<u32>,
    /// Per-slot insertion stamp: the value of `pushes` when the slot was
    /// written (refreshed when a duplicate re-arrives). Pure accounting
    /// for the telemetry age distribution — never consulted by storage or
    /// sampling.
    stamps: Vec<u64>,
    /// Dedup index: linear probing over a power-of-two table of at least
    /// `4 × capacity` positions, each holding a slot number or [`FREE`].
    /// At most a quarter full, its probe chains stay about one position
    /// long.
    index: Vec<u32>,
    /// The key of the push in progress.
    key: Vec<u16>,
    /// Total pushes attempted (including rejected duplicates).
    pushes: u64,
    duplicates: u64,
}

impl ExperienceBuffer {
    /// Creates a buffer holding at most `capacity` experiences; the first
    /// push fixes their observation width.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or too large to number its slots in
    /// 32 bits.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ExperienceBuffer: capacity must be positive");
        assert!(
            capacity < FREE as usize / 4,
            "ExperienceBuffer: capacity {capacity} is too large"
        );
        ExperienceBuffer {
            capacity,
            width: None,
            len: 0,
            cursor: 0,
            obs: Vec::new(),
            next_obs: Vec::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            keys: Vec::new(),
            hashes: Vec::new(),
            stamps: Vec::new(),
            index: Vec::new(),
            key: Vec::new(),
            pushes: 0,
            duplicates: 0,
        }
    }

    /// [`ExperienceBuffer::new`] with the observation width fixed up
    /// front, so even the first push is checked against it.
    pub(crate) fn with_width(capacity: usize, width: usize) -> Self {
        ExperienceBuffer {
            width: Some(width),
            ..Self::new(capacity)
        }
    }

    /// Number of stored (unique) experiences.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// Inserts an experience; duplicates are dropped. Once full, new
    /// unique experiences overwrite the oldest slot. Returns `true` if the
    /// experience was stored.
    ///
    /// Two experiences are duplicates when their keys are equal: the
    /// observation, the action (as 16 bits), the reward and the next
    /// observation, each number quantized through half precision — so
    /// experiences that differ only below f16 resolution are considered
    /// identical, which is how the paper's buffer deduplication keeps only
    /// meaningfully distinct transitions. A duplicate refreshes the stored
    /// slot's age and changes nothing else.
    ///
    /// # Panics
    ///
    /// Panics if `exp.obs` or `exp.next_obs` is not as wide as the
    /// observations already stored (or, for a learner's buffer, as its
    /// network's input).
    pub fn push(&mut self, exp: ExperienceRef<'_>) -> bool {
        let width = *self.width.get_or_insert(exp.obs.len());
        for got in [exp.obs.len(), exp.next_obs.len()] {
            assert!(
                got == width,
                "ExperienceBuffer::push: observation width {got} differs from the buffer's {width}"
            );
        }
        if self.index.is_empty() {
            self.allocate(width);
        }
        self.pushes += 1;
        self.key.clear();
        self.key.extend(exp.obs.iter().map(|&v| f32_to_f16_bits(v)));
        self.key.push(exp.action as u16);
        self.key.push(f32_to_f16_bits(exp.reward));
        self.key
            .extend(exp.next_obs.iter().map(|&v| f32_to_f16_bits(v)));
        let hash = key_hash(&self.key);
        if let Some(slot) = self.find(hash) {
            self.duplicates += 1;
            // A duplicate re-observation refreshes the slot's age: the
            // transition is still being collected, so for telemetry it is
            // as fresh as its latest arrival.
            self.stamps[slot] = self.pushes;
            return false;
        }
        let slot = if self.len < self.capacity {
            self.len += 1;
            self.len - 1
        } else {
            let oldest = self.cursor;
            self.unindex(oldest);
            self.cursor = (oldest + 1) % self.capacity;
            oldest
        };
        let rows = slot * width..(slot + 1) * width;
        self.obs[rows.clone()].copy_from_slice(exp.obs);
        self.next_obs[rows].copy_from_slice(exp.next_obs);
        self.actions[slot] = exp.action;
        self.rewards[slot] = exp.reward;
        let kl = self.key.len();
        self.keys[slot * kl..(slot + 1) * kl].copy_from_slice(&self.key);
        self.hashes[slot] = hash;
        self.stamps[slot] = self.pushes;
        let mask = self.index.len() - 1;
        let mut pos = hash as usize & mask;
        while self.index[pos] != FREE {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = slot as u32;
        true
    }

    /// Sizes every array for `capacity` rows of `width`.
    fn allocate(&mut self, width: usize) {
        let n = self.capacity;
        self.obs = vec![0.0; n * width];
        self.next_obs = vec![0.0; n * width];
        self.actions = vec![0; n];
        self.rewards = vec![0.0; n];
        self.keys = vec![0; n * (2 * width + 2)];
        self.hashes = vec![0; n];
        self.stamps = vec![0; n];
        self.index = vec![FREE; (4 * n).next_power_of_two()];
        self.key = Vec::with_capacity(2 * width + 2);
    }

    /// The slot whose key equals the pending `key` (of hash `hash`).
    fn find(&self, hash: u32) -> Option<usize> {
        let mask = self.index.len() - 1;
        let kl = self.key.len();
        let mut pos = hash as usize & mask;
        loop {
            let slot = self.index[pos];
            if slot == FREE {
                return None;
            }
            let slot = slot as usize;
            if self.hashes[slot] == hash && self.keys[slot * kl..(slot + 1) * kl] == self.key[..] {
                return Some(slot);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Drops `slot`'s entry from the index, from the hash stored with it,
    /// and shifts the entries probed past it back so no probe chain
    /// breaks.
    fn unindex(&mut self, slot: usize) {
        let mask = self.index.len() - 1;
        let mut hole = self.hashes[slot] as usize & mask;
        while self.index[hole] as usize != slot {
            hole = (hole + 1) & mask;
        }
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let moved = self.index[pos];
            if moved == FREE {
                break;
            }
            // The entry at `pos` may fill the hole if the hole lies on its
            // probe path, from its home position to `pos`.
            let home = self.hashes[moved as usize] as usize & mask;
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.index[hole] = moved;
                hole = pos;
            }
        }
        self.index[hole] = FREE;
    }

    /// Age distribution of the stored experiences, in push counts: how
    /// many push attempts ago each slot was last written (or refreshed by
    /// a duplicate). Telemetry only — reading it never perturbs storage,
    /// sampling, or RNG state.
    pub fn age_histogram(&self) -> Log2Histogram {
        let mut h = Log2Histogram::new();
        for &stamp in &self.stamps[..self.len] {
            h.record(self.pushes - stamp);
        }
        h
    }

    /// Uniformly samples `batch_size` slot indices (with replacement when
    /// the buffer is smaller than the batch). Returns an empty vector for
    /// an empty buffer.
    ///
    /// The learner reads each sampled slot through
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
        if self.len > 0 {
            out.extend((0..batch_size).map(|_| rng.gen_range(0..self.len)));
        }
    }

    /// The experience stored in slot `idx` (as returned by
    /// [`ExperienceBuffer::sample_indices`]), borrowed from the ring.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn get(&self, idx: usize) -> ExperienceRef<'_> {
        assert!(
            idx < self.len,
            "ExperienceBuffer::get: slot {idx} of {}",
            self.len
        );
        let width = self.width.unwrap_or(0);
        let rows = idx * width..(idx + 1) * width;
        ExperienceRef {
            obs: &self.obs[rows.clone()],
            action: self.actions[idx],
            reward: self.rewards[idx],
            next_obs: &self.next_obs[rows],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    /// The buffer as it was before the ring, kept as the reference model
    /// the ring is pinned against: a `Vec` of owned experiences indexed by
    /// a `HashMap` from each one's heap-allocated f16 key.
    #[derive(Debug)]
    struct ReferenceBuffer {
        entries: Vec<Experience>,
        stamps: Vec<u64>,
        capacity: usize,
        cursor: usize,
        index: HashMap<Vec<u16>, usize>,
        pushes: u64,
        duplicates: u64,
    }

    fn reference_key(exp: &Experience) -> Vec<u16> {
        let mut key = Vec::with_capacity(exp.obs.len() + exp.next_obs.len() + 2);
        key.extend(exp.obs.iter().map(|&v| f32_to_f16_bits(v)));
        key.push(exp.action as u16);
        key.push(f32_to_f16_bits(exp.reward));
        key.extend(exp.next_obs.iter().map(|&v| f32_to_f16_bits(v)));
        key
    }

    impl ReferenceBuffer {
        fn new(capacity: usize) -> Self {
            ReferenceBuffer {
                entries: Vec::with_capacity(capacity),
                stamps: Vec::with_capacity(capacity),
                capacity,
                cursor: 0,
                index: HashMap::new(),
                pushes: 0,
                duplicates: 0,
            }
        }

        fn push(&mut self, exp: Experience) -> bool {
            self.pushes += 1;
            let key = reference_key(&exp);
            if let Some(&slot) = self.index.get(&key) {
                self.duplicates += 1;
                self.stamps[slot] = self.pushes;
                return false;
            }
            if self.entries.len() < self.capacity {
                self.index.insert(key, self.entries.len());
                self.entries.push(exp);
                self.stamps.push(self.pushes);
            } else {
                let old_key = reference_key(&self.entries[self.cursor]);
                self.index.remove(&old_key);
                self.index.insert(key, self.cursor);
                self.entries[self.cursor] = exp;
                self.stamps[self.cursor] = self.pushes;
                self.cursor = (self.cursor + 1) % self.capacity;
            }
            true
        }

        fn age_histogram(&self) -> Log2Histogram {
            let mut h = Log2Histogram::new();
            for &stamp in &self.stamps {
                h.record(self.pushes - stamp);
            }
            h
        }

        fn sample_indices<R: Rng + ?Sized>(&self, batch_size: usize, rng: &mut R) -> Vec<usize> {
            if self.entries.is_empty() {
                return Vec::new();
            }
            (0..batch_size)
                .map(|_| rng.gen_range(0..self.entries.len()))
                .collect()
        }
    }

    /// Every number of an experience as its bits, so NaNs and signed
    /// zeros compare exactly.
    fn bits(exp: ExperienceRef<'_>) -> (Vec<u32>, usize, u32, Vec<u32>) {
        let row = |r: &[f32]| r.iter().map(|v| v.to_bits()).collect();
        (
            row(exp.obs),
            exp.action,
            exp.reward.to_bits(),
            row(exp.next_obs),
        )
    }

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
        assert!(b.push(exp(0.1).view()));
        assert!(b.push(exp(0.2).view()));
        assert_eq!(b.len(), 2);
        assert!(b.len() < b.capacity());
        assert_eq!(b.get(1), exp(0.2).view());
    }

    #[test]
    fn duplicates_are_rejected() {
        let mut b = ExperienceBuffer::new(10);
        assert!(b.push(exp(0.5).view()));
        assert!(!b.push(exp(0.5).view()));
        assert_eq!(b.len(), 1);
        assert_eq!(b.duplicates(), 1);
        assert_eq!(b.pushes(), 2);
    }

    #[test]
    fn near_identical_experiences_dedup_at_f16_resolution() {
        let mut b = ExperienceBuffer::new(10);
        assert!(b.push(exp(0.5).view()));
        // 0.5 + 1e-8 is identical at f16 resolution.
        let mut e = exp(0.5);
        e.reward += 1e-8;
        assert!(!b.push(e.view()));
    }

    #[test]
    fn ring_overwrites_oldest_when_full() {
        let mut b = ExperienceBuffer::new(3);
        for i in 0..3 {
            assert!(b.push(exp(i as f32).view()));
        }
        assert_eq!(b.len(), b.capacity());
        assert!(b.push(exp(99.0).view()));
        assert_eq!(b.len(), 3);
        assert_eq!(b.get(0), exp(99.0).view());
        // exp(0.0) was overwritten; pushing it again must succeed.
        assert!(b.push(exp(0.0).view()));
    }

    #[test]
    fn sampling_covers_buffer() {
        let mut b = ExperienceBuffer::new(8);
        for i in 0..8 {
            b.push(exp(i as f32).view());
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
        assert_eq!(rng_a.gen::<u64>(), rng_b.gen::<u64>(), "no draws consumed");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ExperienceBuffer::new(0);
    }

    #[test]
    #[should_panic(expected = "slot 2 of 2")]
    fn get_past_the_stored_slots_panics() {
        let mut b = ExperienceBuffer::new(4);
        b.push(exp(0.0).view());
        b.push(exp(1.0).view());
        let _ = b.get(2);
    }

    /// A row of another width would be stored and then fail deep inside
    /// the next training step; the ring refuses it at the push.
    #[test]
    #[should_panic(expected = "observation width 5 differs from the buffer's 6")]
    fn a_ragged_observation_fails_at_the_push() {
        let mut b = ExperienceBuffer::new(4);
        b.push(exp(0.0).view());
        b.push(ExperienceRef {
            obs: &[0.0; 5],
            ..exp(1.0).view()
        });
    }

    #[test]
    #[should_panic(expected = "observation width 7 differs from the buffer's 6")]
    fn a_ragged_next_observation_fails_at_the_push() {
        let mut b = ExperienceBuffer::new(4);
        b.push(ExperienceRef {
            next_obs: &[0.0; 7],
            ..exp(1.0).view()
        });
    }

    #[test]
    fn age_histogram_tracks_pushes_and_refreshes() {
        let mut b = ExperienceBuffer::new(4);
        b.push(exp(0.0).view());
        b.push(exp(1.0).view());
        b.push(exp(2.0).view());
        // Ages are measured in push attempts: slot 0 is 2 pushes old,
        // slot 1 is 1 push old, slot 2 is fresh.
        let h = b.age_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(2));
        // A duplicate refreshes its slot's age to zero.
        assert!(!b.push(exp(0.0).view()));
        assert_eq!(b.age_histogram().max(), Some(2));
        assert_eq!(b.age_histogram().min(), Some(0));
        // Reading the histogram is pure: storage is untouched.
        assert_eq!(b.len(), 3);
        assert_eq!(b.pushes(), 4);
    }

    /// Once the ring is full, pushes — new transitions overwriting old
    /// ones and duplicates alike — write into the arrays the first push
    /// allocated: no heap block moves or grows.
    #[test]
    fn a_full_ring_pushes_without_allocating() {
        fn blocks(b: &ExperienceBuffer) -> [(usize, usize); 9] {
            fn block<T>(v: &Vec<T>) -> (usize, usize) {
                (v.as_ptr() as usize, v.capacity())
            }
            [
                block(&b.obs),
                block(&b.next_obs),
                block(&b.actions),
                block(&b.rewards),
                block(&b.keys),
                block(&b.hashes),
                block(&b.stamps),
                block(&b.index),
                block(&b.key),
            ]
        }
        let mut b = ExperienceBuffer::new(16);
        for i in 0..16 {
            assert!(b.push(exp(i as f32).view()));
        }
        let full = blocks(&b);
        assert!(full.iter().all(|&(_, capacity)| capacity > 0));
        for i in 0..200 {
            b.push(exp((i % 40) as f32 * 0.25).view());
        }
        assert!(b.duplicates() > 0 && b.pushes() == 216);
        assert_eq!(blocks(&b), full);
    }

    /// Values at the edges of the key: signed zeros, a number that is zero
    /// in f16 but not in f32, infinities, NaNs, and twins that are equal in
    /// f16 but not in f32.
    const EDGES: [f32; 10] = [
        0.0,
        -0.0,
        1e-8,
        0.5,
        0.75,
        3.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        -1.25,
    ];

    /// An experience of width 3 over [`EDGES`]: `picks` (eight of them)
    /// holds the obs values, the action, the reward and the next-obs
    /// values, and `twin` nudges every number by a relative 2⁻²⁰, which
    /// changes the f32 of a nonzero finite number and not its f16.
    fn edge_experience(picks: &[usize], twin: bool) -> Experience {
        let value = |i: usize| {
            let v = EDGES[i % EDGES.len()];
            if twin {
                v * (1.0 + 1.0 / (1 << 20) as f32)
            } else {
                v
            }
        };
        Experience {
            obs: picks[..3].iter().map(|&i| value(i)).collect(),
            action: picks[3] % 3,
            reward: value(picks[4]),
            next_obs: picks[5..].iter().map(|&i| value(i)).collect(),
        }
    }

    proptest! {
        /// The ring is the reference buffer: over arbitrary push sequences
        /// with wrap-arounds (capacities down to 1), edge values and f16
        /// twins, after every push both agree on the stored flag, the
        /// counters, the age histogram, every slot to the bit, and the
        /// sampled slots. The sequence draws from a pool of a few
        /// experiences (some pushes as f16 twins), so it repeats itself.
        #[test]
        fn the_ring_is_the_reference_buffer(
            capacity in 1usize..10,
            seed in 0u64..1_000,
            pool in proptest::collection::vec(
                proptest::collection::vec(0usize..EDGES.len(), 8),
                1..8,
            ),
            sequence in proptest::collection::vec((0usize..64, proptest::bool::ANY), 1..120),
        ) {
            let mut ring = ExperienceBuffer::new(capacity);
            let mut reference = ReferenceBuffer::new(capacity);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for (pick, twin) in sequence {
                let exp = edge_experience(&pool[pick % pool.len()], twin);
                prop_assert_eq!(ring.push(exp.view()), reference.push(exp));
                prop_assert_eq!(ring.len(), reference.entries.len());
                prop_assert_eq!(ring.pushes(), reference.pushes);
                prop_assert_eq!(ring.duplicates(), reference.duplicates);
                prop_assert_eq!(ring.age_histogram(), reference.age_histogram());
                for (slot, stored) in reference.entries.iter().enumerate() {
                    prop_assert_eq!(bits(ring.get(slot)), bits(stored.view()));
                }
                let mut twin = rng.clone();
                prop_assert_eq!(
                    ring.sample_indices(5, &mut rng),
                    reference.sample_indices(5, &mut twin)
                );
            }
        }
    }

    /// The proptest above draws the cases it is meant to: pushes that are
    /// duplicates only at f16 resolution, and ones that differ in f32 and
    /// are kept apart — an infinite reward from a finite one, `-0.0` from
    /// `0.0` — and a capacity-1 ring that wraps on every unique push.
    #[test]
    fn edge_values_dedup_by_their_f16_bits() {
        let mut b = ExperienceBuffer::new(1);
        let picks = [3, 4, 5, 0, 6, 9, 1, 2];
        assert!(b.push(edge_experience(&picks, false).view()));
        assert!(!b.push(edge_experience(&picks, true).view()), "an f16 twin");
        let mut minus_zero = picks;
        minus_zero[0] = 1;
        assert!(b.push(edge_experience(&minus_zero, false).view()));
        let mut nan = picks;
        nan[4] = 8;
        assert!(b.push(edge_experience(&nan, false).view()));
        assert!(
            !b.push(edge_experience(&nan, true).view()),
            "NaN keys match"
        );
        assert_eq!((b.len(), b.pushes(), b.duplicates()), (1, 5, 2));
        assert!(b.get(0).reward.is_nan());
    }

    /// The ring's push is no slower than the reference's at the default
    /// shape (a full 1 000-entry buffer of 6-wide rows), each timed as its
    /// caller pays for it: the ring from borrowed rows, the reference from
    /// the owned experience it consumes. Alternated like
    /// `batched_step_is_no_slower_than_reference`; release builds only.
    #[cfg(not(debug_assertions))]
    #[test]
    fn ring_push_is_no_slower_than_reference() {
        const CAPACITY: usize = 1_000;
        const PUSHES: usize = 4_000;
        let stream: Vec<Experience> = (0..2 * PUSHES)
            .map(|i| Experience {
                obs: vec![(i % 3_000) as f32 * 1e-3; 6],
                action: i % 2,
                reward: (i % 7) as f32 * 0.25,
                next_obs: vec![(i % 3_000) as f32 * 1e-3 + 0.5; 6],
            })
            .collect();
        let mut ring = ExperienceBuffer::new(CAPACITY);
        let mut reference = ReferenceBuffer::new(CAPACITY);
        for exp in &stream[..CAPACITY] {
            ring.push(exp.view());
            reference.push(exp.clone());
        }
        let mut ns = [vec![], vec![]];
        // A warm-up round, then nine timed ones; within a round the two
        // take turns, the first one alternating.
        for round in 0..10 {
            let window = &stream[(round % 2) * PUSHES..][..PUSHES];
            for k in 0..2 {
                let i = (round + k) % 2;
                // sibyl-lint: allow(wallclock-in-logic) -- a test's race: the duration is compared, never stored
                let t = std::time::Instant::now();
                for exp in window {
                    if i == 0 {
                        ring.push(exp.view());
                    } else {
                        reference.push(exp.clone());
                    }
                }
                let spent = t.elapsed().as_nanos();
                if round > 0 {
                    ns[i].push(spent);
                }
            }
        }
        let [ring_ns, reference_ns] = ns.map(|mut v| {
            v.sort_unstable();
            v[v.len() / 2] as f64
        });
        assert!(
            ring_ns <= reference_ns,
            "ring {ring_ns:.0} ns vs reference {reference_ns:.0} ns per {PUSHES} pushes"
        );
    }
}
