//! Sibyl's reward structure (Eq. 1).
//!
//! After each placement the agent receives
//!
//! ```text
//! R = 1 / L_t                      if no eviction occurred
//! R = max(0, 1/L_t − 0.001·L_e)    if the placement forced an eviction
//! ```
//!
//! where `L_t` is the served request latency and `L_e` the time spent
//! evicting. The reward is scaled by the fast device's minimum service
//! time so the best achievable per-step reward is ≈ 1 regardless of the
//! device configuration, which lets one C51 value support serve every
//! configuration: `[v_min, v_max]`, `[−1, 4]` by default
//! (`SibylConfig`), with [`REWARD_CAP`] keeping a single step inside it
//! and `v_min` flooring the unclamped eviction penalty.

use sibyl_hss::AccessOutcome;

/// Computes scaled rewards from access outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardShaper {
    /// Eq. 1's penalty coefficient (0.001 in the paper).
    penalty_coeff: f64,
    /// Scale factor: the fast device's minimum 1-page read service time
    /// in µs, making `scale / L_t ≤ ~1`.
    scale_us: f64,
    /// Clamp penalized rewards at zero (the paper's exact Eq. 1) instead
    /// of letting them go negative (our default; see
    /// `SibylConfig::clamp_eviction_reward`).
    clamp: bool,
    /// Floor for unclamped penalized rewards (the C51 support's v_min).
    floor: f64,
}

/// Upper bound on a single-step latency reward. The scaling aims for a
/// best-case reward of ≈ 1; this cap absorbs sub-minimum-service
/// latencies (well inside the default C51 support of `[-1, 4]`).
pub const REWARD_CAP: f64 = 1.5;

impl RewardShaper {
    /// Creates a shaper. `scale_us` should be the fastest device's
    /// minimum service time (`DeviceSpec::min_read_service_us`).
    /// `clamp` selects the paper-exact `max(0, ·)` eviction branch;
    /// `floor` bounds unclamped penalties.
    ///
    /// # Panics
    ///
    /// Panics if `scale_us` is not positive or `penalty_coeff` is
    /// negative.
    pub fn new(penalty_coeff: f64, scale_us: f64, clamp: bool, floor: f64) -> Self {
        assert!(scale_us > 0.0, "RewardShaper: scale must be positive");
        assert!(
            penalty_coeff >= 0.0,
            "RewardShaper: penalty must be non-negative"
        );
        RewardShaper {
            penalty_coeff,
            scale_us,
            clamp,
            floor: floor.min(0.0),
        }
    }

    /// The reward for one request outcome: Eq. 1, scaled by `scale_us`
    /// (positive scaling preserves the max(0, ·) semantics).
    pub fn reward(&self, outcome: &AccessOutcome) -> f32 {
        let base = self.scale_us / outcome.latency_us.max(1e-3);
        if outcome.caused_eviction() {
            let penalty = self.penalty_coeff * outcome.eviction_us * self.scale_us;
            let lower = if self.clamp { 0.0 } else { self.floor };
            // Capped like the no-eviction branch: a lightly
            // penalized ultra-fast access gets no special ceiling.
            (base - penalty).max(lower).min(REWARD_CAP) as f32
        } else {
            base.min(REWARD_CAP) as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::DeviceId;

    fn outcome(latency_us: f64, eviction_us: f64, evicted: u64, target: usize) -> AccessOutcome {
        AccessOutcome {
            target: DeviceId(target),
            arrival_us: 0.0,
            completion_us: latency_us,
            latency_us,
            eviction_us,
            evicted_pages: evicted,
            migrated_pages: 0,
        }
    }

    fn shaper() -> RewardShaper {
        RewardShaper::new(0.001, 10.0, true, -1.0)
    }

    #[test]
    fn fast_service_earns_high_reward() {
        let r_fast = shaper().reward(&outcome(10.0, 0.0, 0, 0));
        let r_slow = shaper().reward(&outcome(10_000.0, 0.0, 0, 1));
        assert!(r_fast > 0.9);
        assert!(r_slow < 0.01);
        assert!(r_fast > 100.0 * r_slow);
    }

    #[test]
    fn eviction_penalty_zeroes_large_evictions() {
        // Serving fast but evicting for 1 ms: penalty 0.001·1000·10 = 10 ≫ 1.
        let r = shaper().reward(&outcome(10.0, 1_000.0, 8, 0));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn tiny_evictions_keep_some_reward() {
        // Penalty 0.001·20·10 = 0.2 < base 1.0.
        let r = shaper().reward(&outcome(10.0, 20.0, 1, 0));
        assert!(r > 0.5 && r < 1.0, "r = {r}");
    }

    #[test]
    fn reward_never_negative_for_latency_kind() {
        for le in [0.0, 10.0, 1e5] {
            let evicted = u64::from(le > 0.0);
            let r = shaper().reward(&outcome(50.0, le, evicted, 0));
            assert!(r >= 0.0);
        }
    }

    #[test]
    fn eviction_branch_respects_support_cap() {
        // Latency far below the fast device's minimum service time with a
        // negligible penalty: both branches must cap at REWARD_CAP.
        let evicting = shaper().reward(&outcome(0.1, 0.001, 1, 0));
        let plain = shaper().reward(&outcome(0.1, 0.0, 0, 0));
        assert_eq!(evicting, REWARD_CAP as f32);
        assert_eq!(plain, REWARD_CAP as f32);
    }

    /// ROADMAP 1(d): each term of Eq. 1 against [`RewardShaper::reward`],
    /// beside where the tree records the paper's value for it — or
    /// `unverified` where it records none. `paper` is Eq. 1 as the module
    /// doc states it; `ours` is what `SibylConfig::default()` builds
    /// (`clamp_eviction_reward = false`, floor `v_min = −1`).
    #[test]
    fn every_term_of_eq1_is_audited_against_the_paper() {
        const SCALE: f64 = 10.0;
        let paper = RewardShaper::new(0.001, SCALE, true, -1.0);
        let ours = RewardShaper::new(0.001, SCALE, false, -1.0);
        // (term, shaper, L_t, L_e, evicted pages, reward, provenance)
        let rows = [
            (
                "1/L_t",
                paper,
                (40.0, 0.0, 0),
                SCALE / 40.0,
                "Eq. 1; the × scale_us is ours (the fast device's minimum service time)",
            ),
            (
                "R_p only if the placement forced an eviction",
                paper,
                (40.0, 500.0, 0),
                SCALE / 40.0,
                "Eq. 1",
            ),
            (
                "1/L_t − R_p, R_p = 0.001 · L_e",
                paper,
                (20.0, 20.0, 1),
                SCALE / 20.0 - 0.001 * 20.0 * SCALE,
                "§5 / Eq. 1 (`SibylConfig::eviction_penalty_coeff`)",
            ),
            ("max(0, ·)", paper, (20.0, 120.0, 1), 0.0, "Eq. 1"),
            (
                "no max(0, ·) under clamp_eviction_reward = false",
                ours,
                (20.0, 120.0, 1),
                SCALE / 20.0 - 0.001 * 120.0 * SCALE,
                "departs from Eq. 1 (`config.rs`: so an evicting fast placement can lose)",
            ),
            (
                "the unclamped penalty floors at v_min",
                ours,
                (20.0, 1_000.0, 1),
                -1.0,
                "unverified: the floor is the C51 support's, and the tree records no paper support",
            ),
            (
                "REWARD_CAP",
                paper,
                (1.0, 0.0, 0),
                REWARD_CAP,
                "unverified: the tree records no cap of the paper's",
            ),
            (
                "REWARD_CAP on the eviction branch",
                ours,
                (1.0, 1.0, 1),
                REWARD_CAP,
                "unverified, as above",
            ),
        ];
        for (term, shaper, (latency_us, eviction_us, evicted), reward, provenance) in rows {
            let got = shaper.reward(&outcome(latency_us, eviction_us, evicted, 0));
            assert_eq!(got, reward as f32, "{term} ({provenance})");
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn rejects_bad_scale() {
        let _ = RewardShaper::new(0.001, 0.0, true, -1.0);
    }

    #[test]
    fn unclamped_penalty_goes_negative_but_respects_floor() {
        let s = RewardShaper::new(0.001, 10.0, false, -1.0);
        // Penalty 0.001·500·10 = 5 ≫ base 1: unclamped lands at the floor.
        let r = s.reward(&outcome(10.0, 500.0, 8, 0));
        assert_eq!(r, -1.0);
        // Moderate eviction: slightly negative, not floored.
        let r2 = s.reward(&outcome(10.0, 150.0, 2, 0));
        assert!(r2 < 0.0 && r2 > -1.0, "r2 = {r2}");
        // Non-evicting rewards are unchanged.
        assert!(s.reward(&outcome(10.0, 0.0, 0, 0)) > 0.9);
    }
}
