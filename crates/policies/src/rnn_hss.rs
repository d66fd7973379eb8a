//! RNN-HSS, adapted from Kleio (Doudali et al., HPDC 2019) the way the
//! Sibyl paper does (§3, §7): "a supervised learning-based mechanism that
//! exploits recurrent neural networks to predict the hotness of a page and
//! place hot pages in fast storage."
//!
//! Kleio trains one RNN per page, which the paper calls impractical; like
//! the paper's adaptation we train a single small Elman RNN over per-page
//! access-history windows. The pipeline is deliberately *offline*: an
//! initial profiling phase collects windowed access counts, the RNN is
//! trained once on that profile, and the frozen model classifies pages
//! hot/cold for the rest of the run — no system feedback, no retraining,
//! which is exactly the adaptivity gap Sibyl exploits.
//!
//! ## What its column measures
//!
//! The profile is a fixed [`RnnHss::PROFILE_REQUESTS`] (4 000) requests,
//! whatever the trace length, and every one of them is placed on the
//! slow device. At the committed figures' `SIBYL_REQS=5000`, four fifths
//! of each RNN-HSS run is that profiling phase, so its column is mostly a
//! Slow-Only prefix with 1 000 requests of RNN placement after it. On a
//! trace of 4 000 requests or fewer the network decides nothing (at
//! exactly 4 000 it trains on the last request). Sizing the profile to
//! the trace re-pins `figures/` and the `paper-suite` benchmark's
//! `sim.fingerprint32`, so it is left for a later change.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use sibyl_hss::{DeviceId, PlacementPolicy, StorageManager};
use sibyl_nn::Rnn;
use sibyl_trace::IoRequest;

/// Sparse per-page window history: (window index, access count) pairs for
/// the most recent touched windows.
#[derive(Debug, Clone, Default)]
struct PageHistory {
    entries: Vec<(u64, u32)>,
}

impl PageHistory {
    fn touch(&mut self, window: u64, keep: usize) {
        match self.entries.last_mut() {
            Some((w, c)) if *w == window => *c += 1,
            _ => {
                self.entries.push((window, 1));
                if self.entries.len() > keep {
                    self.entries.remove(0);
                }
            }
        }
    }

    /// Densifies the last `k` windows ending at `window` (exclusive),
    /// filling untouched windows with zero.
    fn sequence(&self, window: u64, k: usize) -> Vec<Vec<f32>> {
        let mut seq = Vec::with_capacity(k);
        for i in 0..k {
            let w = window.saturating_sub((k - i) as u64);
            let count = self
                .entries
                .iter()
                .find(|&&(ew, _)| ew == w)
                .map(|&(_, c)| c)
                .unwrap_or(0);
            seq.push(vec![
                ((1 + count) as f32).ln() / 4.0,
                if count > 0 { 1.0 } else { 0.0 },
            ]);
        }
        seq
    }

    fn count_in(&self, window: u64) -> u32 {
        self.entries
            .iter()
            .find(|&&(w, _)| w == window)
            .map(|&(_, c)| c)
            .unwrap_or(0)
    }
}

/// The RNN-HSS supervised baseline.
///
/// # Examples
///
/// ```
/// use sibyl_policies::RnnHss;
/// use sibyl_hss::PlacementPolicy;
/// assert_eq!(RnnHss::default().name(), "RNN-HSS");
/// ```
#[derive(Debug)]
pub struct RnnHss {
    rnn: Rnn,
    rng: StdRng,
    histories: HashMap<u64, PageHistory>,
    requests_seen: u64,
    trained: bool,
}

impl Default for RnnHss {
    fn default() -> Self {
        let mut rng = StdRng::seed_from_u64(Self::SEED);
        let rnn = Rnn::new(2, Self::HIDDEN_DIM, 2, &mut rng);
        RnnHss {
            rnn,
            rng,
            histories: HashMap::new(),
            requests_seen: 0,
            trained: false,
        }
    }
}

impl RnnHss {
    /// Requests in the offline profiling phase.
    pub const PROFILE_REQUESTS: u64 = 4_000;
    /// Requests per history window.
    pub const WINDOW_REQUESTS: u64 = 250;
    /// History windows fed to the RNN per prediction.
    pub const HISTORY_WINDOWS: usize = 6;
    /// Per-window access count for a page to be labeled hot.
    pub const HOT_THRESHOLD: u32 = 2;
    /// Hidden-state width of the RNN.
    pub const HIDDEN_DIM: usize = 10;
    /// Training passes over the profile.
    pub const TRAIN_EPOCHS: usize = 4;
    /// Training examples sampled from the profile (caps training cost).
    pub const MAX_EXAMPLES: usize = 2_000;
    /// Learning rate for BPTT.
    pub const LEARNING_RATE: f32 = 0.05;
    /// RNG seed for network initialization and example shuffling.
    pub const SEED: u64 = 0x12EE;

    /// `true` once the offline profiling phase has finished and the RNN
    /// was trained.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    fn current_window(&self) -> u64 {
        self.requests_seen / Self::WINDOW_REQUESTS
    }

    /// One-shot offline training on the collected profile.
    fn train_offline(&mut self) {
        let k = Self::HISTORY_WINDOWS;
        let label_window = self.current_window().saturating_sub(1);
        let mut examples: Vec<(Vec<Vec<f32>>, bool)> = Vec::new();
        // Build examples in LPN order: `histories` is a HashMap, and its
        // iteration order differs across runs, which would feed the RNN a
        // run-dependent example sequence and break bit-reproducibility.
        let mut lpns: Vec<u64> = self.histories.keys().copied().collect();
        lpns.sort_unstable();
        for lpn in lpns {
            let Some(hist) = self.histories.get(&lpn) else {
                continue;
            };
            if hist.entries.is_empty() {
                continue;
            }
            let seq = hist.sequence(label_window, k);
            let hot = hist.count_in(label_window) >= Self::HOT_THRESHOLD;
            examples.push((seq, hot));
        }
        // Balance classes so the (typically dominant) cold class does not
        // swamp training: oversample the minority class to parity.
        let hot_count = examples.iter().filter(|(_, h)| *h).count();
        if hot_count == 0 || hot_count == examples.len() {
            self.trained = true; // degenerate profile; classify by prior
            return;
        }
        examples.shuffle(&mut self.rng);
        examples.truncate(Self::MAX_EXAMPLES);
        let (hot, cold): (Vec<_>, Vec<_>) = examples.iter().cloned().partition(|(_, h)| *h);
        let (minority, majority) = if hot.len() < cold.len() {
            (hot, cold)
        } else {
            (cold, hot)
        };
        if !minority.is_empty() {
            let deficit = majority.len().saturating_sub(minority.len());
            for i in 0..deficit {
                examples.push(minority[i % minority.len()].clone());
            }
        }
        for _ in 0..Self::TRAIN_EPOCHS {
            examples.shuffle(&mut self.rng);
            for (seq, hot) in &examples {
                let target = if *hot { [1.0f32, 0.0] } else { [0.0f32, 1.0] };
                let _ = self.rnn.train_step(seq, &target, Self::LEARNING_RATE);
            }
        }
        self.trained = true;
    }
}

impl PlacementPolicy for RnnHss {
    fn name(&self) -> &str {
        "RNN-HSS"
    }

    fn place(&mut self, req: &IoRequest, manager: &StorageManager) -> DeviceId {
        let window = self.current_window();
        self.requests_seen += 1;
        let keep = Self::HISTORY_WINDOWS + 2;
        self.histories
            .entry(req.lpn)
            .or_default()
            .touch(window, keep);

        if !self.trained {
            if self.requests_seen >= Self::PROFILE_REQUESTS {
                self.train_offline();
            }
            // During profiling everything stays in slow storage (Kleio
            // profiles the application offline before placement).
            return manager.slowest();
        }

        let seq = self
            .histories
            .get(&req.lpn)
            .map(|h| h.sequence(window + 1, Self::HISTORY_WINDOWS))
            .unwrap_or_else(|| vec![vec![0.0, 0.0]; Self::HISTORY_WINDOWS]);
        if self.rnn.classify(&seq) == 0 {
            manager.fastest()
        } else {
            manager.slowest()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::manager;
    use sibyl_trace::IoOp;

    fn run_one(p: &mut RnnHss, mgr: &mut StorageManager, req: IoRequest) -> DeviceId {
        let target = p.place(&req, mgr);
        let _ = mgr.access(&req, target);
        target
    }

    #[test]
    fn profiling_phase_places_slow() {
        let mut mgr = manager(1024);
        let mut p = RnnHss::default();
        for i in 0..RnnHss::PROFILE_REQUESTS - 1 {
            let d = run_one(&mut p, &mut mgr, IoRequest::new(i, i % 3, 1, IoOp::Read));
            assert_eq!(d, DeviceId(1));
        }
        assert!(!p.is_trained());
    }

    #[test]
    fn trains_after_profile_and_separates_hot_cold() {
        let mut mgr = manager(1024);
        let mut p = RnnHss::default();
        // Profile: pages 0..3 hot every window; pages 1000+ touched once.
        let mut ts = 0u64;
        for i in 0..RnnHss::PROFILE_REQUESTS {
            let req = if i % 2 == 0 {
                IoRequest::new(ts, i % 3, 1, IoOp::Write)
            } else {
                IoRequest::new(ts, 1_000 + i, 1, IoOp::Read)
            };
            let _ = run_one(&mut p, &mut mgr, req);
            ts += 1;
        }
        assert!(p.is_trained());
        // Keep the hot pages hot for a couple more windows, then check.
        for i in 0..2 * RnnHss::WINDOW_REQUESTS {
            let req = if i % 2 == 0 {
                IoRequest::new(ts, i % 3, 1, IoOp::Write)
            } else {
                IoRequest::new(ts, 5_000 + i, 1, IoOp::Read)
            };
            let _ = run_one(&mut p, &mut mgr, req);
            ts += 1;
        }
        let hot = run_one(&mut p, &mut mgr, IoRequest::new(ts, 0, 1, IoOp::Write));
        let cold = run_one(
            &mut p,
            &mut mgr,
            IoRequest::new(ts + 1, 99_999, 1, IoOp::Read),
        );
        assert_eq!(hot, DeviceId(0), "hot page should go fast");
        assert_eq!(cold, DeviceId(1), "cold page should go slow");
    }

    #[test]
    fn page_history_sequence_fills_gaps_with_zeros() {
        let mut h = PageHistory::default();
        h.touch(0, 8);
        h.touch(0, 8);
        h.touch(3, 8);
        let seq = h.sequence(4, 4);
        assert_eq!(seq.len(), 4);
        // Windows 0..4: [2 accesses, 0, 0, 1 access]
        assert!(seq[0][1] > 0.0);
        assert_eq!(seq[1][1], 0.0);
        assert_eq!(seq[2][1], 0.0);
        assert!(seq[3][1] > 0.0);
    }
}
