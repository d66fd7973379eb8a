//! State features (the paper's Table 1) and their binned encoding.
//!
//! For every storage request Sibyl observes a six-dimensional tuple
//! `O_t = (size_t, type_t, intr_t, cnt_t, cap_t, curr_t)` (Eq. 2). Each
//! feature is quantized into a small number of bins to shrink the state
//! space (and the metadata footprint, §10.2), then normalized to `[0, 1]`
//! for the network input. Tri-HSS configurations append one extra
//! remaining-capacity feature per additional capacity-limited device —
//! exactly the extension step §8.7 describes.

use sibyl_hss::{DeviceId, StorageManager};
use sibyl_trace::IoRequest;

/// Which of the six Table 1 features the agent observes. Masked features
/// are zeroed in the observation vector, carrying no information — the
/// mechanism behind the paper's feature ablation (Fig. 13, §8.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FeatureMask {
    /// `size_t` — request size (the randomness signal CDE keys on).
    pub size: bool,
    /// `type_t` — read/write.
    pub op_type: bool,
    /// `intr_t` — access interval (temporal reuse).
    pub interval: bool,
    /// `cnt_t` — access count (the frequency signal HPS keys on).
    pub count: bool,
    /// `cap_t` — remaining fast-device capacity.
    pub capacity: bool,
    /// `curr_t` — current placement of the requested page.
    pub current: bool,
}

impl FeatureMask {
    /// All six features (the paper's default).
    pub const ALL: FeatureMask = FeatureMask {
        size: true,
        op_type: true,
        interval: true,
        count: true,
        capacity: true,
        current: true,
    };

    /// `rt` in Fig. 13: request size only — the single feature CDE-style
    /// heuristics use (randomness).
    pub const RT: FeatureMask = FeatureMask {
        size: true,
        op_type: false,
        interval: false,
        count: false,
        capacity: false,
        current: false,
    };

    /// `ft` in Fig. 13: access count only — the single feature HPS-style
    /// heuristics use (frequency).
    pub const FT: FeatureMask = FeatureMask {
        size: false,
        op_type: false,
        interval: false,
        count: true,
        capacity: false,
        current: false,
    };

    /// `rt + ft`.
    pub const RT_FT: FeatureMask = FeatureMask {
        size: true,
        count: true,
        op_type: false,
        interval: false,
        capacity: false,
        current: false,
    };

    /// `rt + ft + mt` (adds the access-interval temporal feature).
    pub const RT_FT_MT: FeatureMask = FeatureMask {
        size: true,
        count: true,
        interval: true,
        op_type: false,
        capacity: false,
        current: false,
    };

    /// `rt + ft + pt` (adds the current-placement feature).
    pub const RT_FT_PT: FeatureMask = FeatureMask {
        size: true,
        count: true,
        current: true,
        op_type: false,
        interval: false,
        capacity: false,
    };

    /// Number of unmasked features (of the base six).
    pub fn active_count(&self) -> usize {
        [
            self.size,
            self.op_type,
            self.interval,
            self.count,
            self.capacity,
            self.current,
        ]
        .iter()
        .filter(|&&b| b)
        .count()
    }
}

impl Default for FeatureMask {
    fn default() -> Self {
        FeatureMask::ALL
    }
}

/// Bin counts from Table 1.
pub mod bins {
    /// `size_t`: 8 bins.
    pub const SIZE: u32 = 8;
    /// `type_t`: 2 bins.
    pub const TYPE: u32 = 2;
    /// `intr_t`: 64 bins.
    pub const INTERVAL: u32 = 64;
    /// `cnt_t`: 64 bins.
    pub const COUNT: u32 = 64;
    /// `cap_t`: 8 bins.
    pub const CAPACITY: u32 = 8;
    /// `curr_t`: 2 bins (one per device in a dual HSS).
    pub const CURRENT: u32 = 2;
}

/// One observation: the normalized network input plus the packed 40-bit
/// state encoding of Table 1 (8+4+8+8+8+4 bits).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Normalized feature vector fed to the network. Length is
    /// `6 + extra_capacity_features` (0 for dual HSS).
    pub vector: Vec<f32>,
    /// Table 1's packed bit encoding (40 bits used).
    pub packed: u64,
}

/// Encodes requests plus manager state into observations.
#[derive(Debug, Clone)]
pub struct StateEncoder {
    mask: FeatureMask,
    num_devices: usize,
}

impl StateEncoder {
    /// Creates an encoder for an HSS with `num_devices` devices.
    ///
    /// # Panics
    ///
    /// Panics if `num_devices < 2`.
    pub fn new(mask: FeatureMask, num_devices: usize) -> Self {
        assert!(num_devices >= 2, "StateEncoder: need at least two devices");
        StateEncoder { mask, num_devices }
    }

    /// The length of the observation vector this encoder produces:
    /// the six Table 1 features plus one remaining-capacity feature per
    /// additional middle device in a tri-or-more HSS (§8.7).
    pub fn observation_len(&self) -> usize {
        6 + (self.num_devices - 2)
    }

    /// Builds the observation for `req` against current system state.
    pub fn observe(&self, req: &IoRequest, manager: &StorageManager) -> Observation {
        let mut vector = Vec::with_capacity(self.observation_len());
        let packed = self.observe_into(req, manager, &mut vector);
        Observation { vector, packed }
    }

    /// [`StateEncoder::observe`] appending the normalized feature vector
    /// to `row` — one row of a caller-owned row-major batch — and
    /// returning the packed Table 1 encoding.
    pub fn observe_into(
        &self,
        req: &IoRequest,
        manager: &StorageManager,
        row: &mut Vec<f32>,
    ) -> u64 {
        // One directory probe serves count, interval and residency.
        let page = manager.tracker().page(req.lpn);
        let size_bin = Self::size_bin(req.size_pages);
        let type_bin = u32::from(req.op.is_write());
        let interval_bin = Self::interval_bin(page.and_then(|p| p.access_interval));
        let count_bin = Self::count_bin(page.map_or(0, |p| p.access_count));
        let cap_bin = Self::capacity_bin(manager.remaining_fraction(DeviceId(0)));
        let curr_dev = page.map_or_else(|| manager.slowest(), |p| p.device).0 as u32;

        let m = &self.mask;
        let feature = |on: bool, bin: u32, n_bins: u32| if on { norm(bin, n_bins) } else { 0.0 };
        row.extend([
            feature(m.size, size_bin, bins::SIZE),
            feature(m.op_type, type_bin, bins::TYPE),
            feature(m.interval, interval_bin, bins::INTERVAL),
            feature(m.count, count_bin, bins::COUNT),
            feature(m.capacity, cap_bin, bins::CAPACITY),
            feature(m.current, curr_dev, self.num_devices as u32),
        ]);
        // §8.7: extending to N devices adds the remaining capacity of each
        // intermediate device as a state feature.
        for d in 1..self.num_devices - 1 {
            let bin = Self::capacity_bin(manager.remaining_fraction(DeviceId(d)));
            row.push(feature(m.capacity, bin, bins::CAPACITY));
        }

        // Table 1 packed encoding: 8 + 4 + 8 + 8 + 8 + 4 = 40 bits.
        (size_bin as u64) << 32
            | (type_bin as u64) << 28
            | (interval_bin as u64) << 20
            | (count_bin as u64) << 12
            | (cap_bin as u64) << 4
            | (curr_dev as u64 & 0xF)
    }

    /// `size_t`: log₂ bins over 1..=64 pages → 0..=7.
    fn size_bin(size_pages: u32) -> u32 {
        (32 - (size_pages.max(1)).leading_zeros() - 1).min(bins::SIZE - 1)
    }

    /// `intr_t`: log-scaled interval (requests) → 0..=63; never-accessed
    /// maps to the top bin.
    fn interval_bin(interval: Option<u64>) -> u32 {
        match interval {
            None => bins::INTERVAL - 1,
            Some(i) => {
                let l = (1.0 + i as f64).log2() * 3.0;
                (l as u32).min(bins::INTERVAL - 1)
            }
        }
    }

    /// `cnt_t`: log-scaled access count → 0..=63.
    fn count_bin(count: u64) -> u32 {
        let l = (1.0 + count as f64).log2() * 6.0;
        (l as u32).min(bins::COUNT - 1)
    }

    /// `cap_t`: linear bins over the remaining fraction → 0..=7.
    fn capacity_bin(remaining_fraction: f64) -> u32 {
        ((remaining_fraction * bins::CAPACITY as f64) as u32).min(bins::CAPACITY - 1)
    }
}

#[inline]
fn norm(bin: u32, n_bins: u32) -> f32 {
    if n_bins <= 1 {
        0.0
    } else {
        bin as f32 / (n_bins - 1) as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::{DeviceSpec, HssConfig, StorageManager};
    use sibyl_trace::IoOp;

    fn manager() -> StorageManager {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![64, u64::MAX]);
        StorageManager::new(&cfg)
    }

    #[test]
    fn observation_has_six_features_for_dual() {
        let enc = StateEncoder::new(FeatureMask::ALL, 2);
        assert_eq!(enc.observation_len(), 6);
        let mgr = manager();
        let req = IoRequest::new(0, 5, 4, IoOp::Write);
        let obs = enc.observe(&req, &mgr);
        assert_eq!(obs.vector.len(), 6);
        assert!(obs.vector.iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn tri_hss_gets_seventh_capacity_feature() {
        let enc = StateEncoder::new(FeatureMask::ALL, 3);
        assert_eq!(enc.observation_len(), 7);
        let cfg = HssConfig::tri(
            DeviceSpec::optane_ssd(),
            DeviceSpec::tlc_ssd(),
            DeviceSpec::hdd(),
        )
        .with_capacity_pages(vec![32, 64, u64::MAX]);
        let mgr = StorageManager::new(&cfg);
        let req = IoRequest::new(0, 5, 1, IoOp::Read);
        let obs = enc.observe(&req, &mgr);
        assert_eq!(obs.vector.len(), 7);
    }

    #[test]
    fn packed_encoding_fits_40_bits() {
        let enc = StateEncoder::new(FeatureMask::ALL, 2);
        let mgr = manager();
        let req = IoRequest::new(0, 5, 64, IoOp::Write);
        let obs = enc.observe(&req, &mgr);
        assert!(obs.packed < (1u64 << 40), "packed state exceeds 40 bits");
    }

    #[test]
    fn size_bins_are_logarithmic() {
        assert_eq!(StateEncoder::size_bin(1), 0);
        assert_eq!(StateEncoder::size_bin(2), 1);
        assert_eq!(StateEncoder::size_bin(4), 2);
        assert_eq!(StateEncoder::size_bin(64), 6);
    }

    #[test]
    fn interval_bins_saturate() {
        assert_eq!(StateEncoder::interval_bin(None), 63);
        assert_eq!(StateEncoder::interval_bin(Some(0)), 0);
        assert!(StateEncoder::interval_bin(Some(10)) > 0);
        assert_eq!(StateEncoder::interval_bin(Some(u64::MAX / 2)), 63);
    }

    #[test]
    fn count_bins_monotone() {
        let mut prev = 0;
        for c in [0u64, 1, 3, 10, 100, 10_000, 1_000_000] {
            let b = StateEncoder::count_bin(c);
            assert!(b >= prev, "count bins must be monotone");
            prev = b;
        }
        assert_eq!(StateEncoder::count_bin(u64::MAX / 2), 63);
    }

    #[test]
    fn masked_features_are_zeroed() {
        let enc = StateEncoder::new(FeatureMask::RT, 2);
        let mut mgr = manager();
        // Touch the page so count/interval would be non-zero if unmasked.
        let _ = mgr.access(&IoRequest::new(0, 5, 4, IoOp::Write), DeviceId(0));
        let req = IoRequest::new(1, 5, 4, IoOp::Write);
        let obs = enc.observe(&req, &mgr);
        assert!(obs.vector[0] > 0.0, "size feature active");
        for (i, v) in obs.vector.iter().enumerate().skip(1) {
            assert_eq!(*v, 0.0, "feature {i} should be masked");
        }
    }

    /// ROADMAP 1(d): every feature of Table 1 beside what the tree
    /// records of it — its bin count, its bit width in the packed
    /// encoding and the binning function's edge values, each with where
    /// the paper's value is recorded, or `unverified` where the tree
    /// records none. A changed bin count, width, field order or bin edge
    /// fails here until its row is edited.
    #[test]
    fn every_feature_is_audited_against_table_1() {
        /// Where the tree records the paper's bin counts and bit widths.
        const BINS: &str = "Table 1 (`features::bins`)";
        const BITS: &str = "Table 1: 8+4+8+8+8+4 (`overhead::STATE_BITS`)";
        /// The tree records no binning function of the paper's.
        const EDGES: &str = "unverified";
        let size = StateEncoder::size_bin;
        let interval = |i: u64| StateEncoder::interval_bin(Some(i));
        let count = StateEncoder::count_bin;
        let capacity = StateEncoder::capacity_bin;
        let op = |op: IoOp| u32::from(op.is_write());
        /// One feature, in packed order (most significant first): name,
        /// `(bins, pinned)`, bits, then `(input, bin, pinned)` edges.
        type Row = (&'static str, (u32, u32), u32, Vec<(&'static str, u32, u32)>);
        #[rustfmt::skip]
        let rows: [Row; 6] = [
            ("size_t", (bins::SIZE, 8), 8, vec![
                ("1 page", size(1), 0), ("2", size(2), 1), ("3", size(3), 1), ("4", size(4), 2),
                ("64", size(64), 6), ("127", size(127), 6), ("128", size(128), 7),
                ("2^24", size(1 << 24), 7),
            ]),
            ("type_t", (bins::TYPE, 2), 4, vec![
                ("read", op(IoOp::Read), 0), ("write", op(IoOp::Write), 1),
            ]),
            ("intr_t", (bins::INTERVAL, 64), 8, vec![
                ("never", StateEncoder::interval_bin(None), 63),
                ("0", interval(0), 0), ("1", interval(1), 3), ("3", interval(3), 6),
                ("2^21-2", interval((1 << 21) - 2), 62), ("2^21-1", interval((1 << 21) - 1), 63),
                ("2^63", interval(1 << 63), 63),
            ]),
            ("cnt_t", (bins::COUNT, 64), 8, vec![
                ("0", count(0), 0), ("1", count(1), 6), ("3", count(3), 12),
                ("1447", count(1447), 62), ("1448", count(1448), 63), ("2^63", count(1 << 63), 63),
            ]),
            ("cap_t", (bins::CAPACITY, 8), 8, vec![
                ("0.0", capacity(0.0), 0), ("0.124", capacity(0.124), 0),
                ("0.125", capacity(0.125), 1), ("0.874", capacity(0.874), 6),
                ("0.875", capacity(0.875), 7), ("1.0", capacity(1.0), 7),
            ]),
            // The bin is the device index itself; an untracked page reads
            // as the slowest device (pinned through `packed` below).
            ("curr_t", (bins::CURRENT, 2), 4, vec![]),
        ];
        for (feature, (n_bins, pinned), bits, edges) in &rows {
            assert_eq!(n_bins, pinned, "{feature}: bin count moved ({BINS})");
            assert!(
                n_bins - 1 < 1 << bits,
                "{feature}: {n_bins} bins overflow its {bits} bits ({BITS})"
            );
            for (input, bin, pinned) in edges {
                assert_eq!(bin, pinned, "{feature}: bin of {input} moved ({EDGES})");
            }
        }
        let total_bits: u32 = rows.iter().map(|row| row.2).sum();
        assert_eq!(total_bits as usize, crate::overhead::STATE_BITS, "{BITS}");

        // The packed encoding lays the fields out in that order at those
        // widths: a 64-page write to an untouched page of an empty dual
        // HSS decodes field by field.
        let obs = StateEncoder::new(FeatureMask::ALL, 2)
            .observe(&IoRequest::new(0, 5, 64, IoOp::Write), &manager());
        let mut shift = total_bits;
        for ((feature, _, bits, _), bin) in rows.iter().zip([6, 1, 63, 0, 7, 1]) {
            shift -= bits;
            let field = (obs.packed >> shift) & ((1 << bits) - 1);
            assert_eq!(
                field, bin,
                "{feature} at bit {shift} of the packed state ({BITS})"
            );
        }
    }

    #[test]
    fn mask_presets_match_fig13() {
        assert_eq!(FeatureMask::ALL.active_count(), 6);
        assert_eq!(FeatureMask::RT.active_count(), 1);
        assert_eq!(FeatureMask::FT.active_count(), 1);
        assert_eq!(FeatureMask::RT_FT.active_count(), 2);
        assert_eq!(FeatureMask::RT_FT_MT.active_count(), 3);
        assert_eq!(FeatureMask::RT_FT_PT.active_count(), 3);
    }

    #[test]
    fn capacity_feature_tracks_fill() {
        let enc = StateEncoder::new(FeatureMask::ALL, 2);
        let mut mgr = manager();
        let req = IoRequest::new(0, 0, 1, IoOp::Read);
        let before = enc.observe(&req, &mgr).vector[4];
        // Fill half the fast device.
        let _ = mgr.access(&IoRequest::new(0, 100, 32, IoOp::Write), DeviceId(0));
        let after = enc.observe(&req, &mgr).vector[4];
        assert!(
            after < before,
            "capacity feature should drop: {before} -> {after}"
        );
    }
}
