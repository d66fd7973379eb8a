//! Sibyl's hyper-parameters (the paper's Table 2) and design knobs.

use sibyl_telemetry::TelemetryConfig;

use crate::features::FeatureMask;

/// Precision of the inference path: f32, the only one there is. The
/// enum and the two fields of this type ([`SibylConfig::quant_mode`],
/// `sibyl_serve::ServeConfig::quant`) exist only because the frozen
/// `benchmark/` harness assigns one to the other
/// (`benchmark/benches/replica.rs`); they go when that line does. The
/// paper's 16-bit weight footprint (§10.2) is arithmetic in
/// [`OverheadReport`](crate::OverheadReport), not a storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantMode {
    /// Full f32 inference.
    #[default]
    Off,
}

/// Complete configuration of a Sibyl agent. Defaults are the paper's
/// tuned hyper-parameters (Table 2).
///
/// # Examples
///
/// ```
/// use sibyl_core::SibylConfig;
/// let cfg = SibylConfig::default();
/// assert_eq!(cfg.discount, 0.9);
/// assert_eq!(cfg.batch_size, 128);
/// assert_eq!(cfg.buffer_capacity, 1000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SibylConfig {
    /// Discount factor γ (Table 2: 0.9).
    pub discount: f32,
    /// Learning rate α. The paper tunes α = 1e-4 on week-long traces
    /// (Table 2); our default is 1e-3 because synthetic runs are two to
    /// three orders of magnitude shorter, and Fig. 14(b) shows the two
    /// perform within a few percent of each other. `Sibyl_Opt` for mixed
    /// workloads uses 1e-5 (§8.3).
    pub learning_rate: f32,
    /// Final exploration rate ε for ε-greedy action selection
    /// (Table 2: 0.001).
    pub exploration: f64,
    /// Initial exploration rate, annealed linearly down to
    /// [`SibylConfig::exploration`] over
    /// [`SibylConfig::exploration_decay_requests`] requests. The paper
    /// reports only the tuned final ε; on short traces the anneal supplies
    /// the off-policy coverage that a week of enterprise I/O provides
    /// naturally.
    pub exploration_initial: f64,
    /// Requests over which the exploration anneal runs.
    pub exploration_decay_requests: u64,
    /// Batch size per training batch (Table 2: 128).
    pub batch_size: usize,
    /// Experience-buffer capacity e_EB (Table 2: 1000).
    pub buffer_capacity: usize,
    /// Batches per training step (§6.2.2: 8).
    pub batches_per_step: usize,
    /// Requests between training steps and training→inference weight
    /// copies (§6.2.2: 1000).
    pub train_interval: u64,
    /// Hidden-layer widths (§6.2.2: 20 and 30 neurons).
    pub hidden_dims: [usize; 2],
    /// Number of C51 support atoms. The value head is C51 (§6.2.1): the
    /// distribution of returns captures more of the environment than a
    /// single expected value.
    pub n_atoms: usize,
    /// Lower bound of the C51 value support. Negative so that unclamped
    /// eviction penalties are representable.
    pub v_min: f32,
    /// Upper bound of the C51 value support (scaled-return units; rewards
    /// are normalized so one unqueued fast access ≈ 1).
    pub v_max: f32,
    /// Eviction-penalty coefficient (§5: R_p = 0.001 × L_e).
    pub eviction_penalty_coeff: f64,
    /// Whether eviction-penalized rewards are clamped at zero, the
    /// paper's exact Eq. 1 form (`max(0, 1/L_t − R_p)`). Our simulator's
    /// device-latency ratios make the clamped form too forgiving — an
    /// evicting fast placement still nets more than a slow placement, so
    /// the agent never learns restraint on cold workloads. The default
    /// lets the penalty go negative (floored at `v_min`); set `true` for
    /// the paper-exact reward.
    pub clamp_eviction_reward: bool,
    /// Which features the agent observes (Fig. 13 ablation).
    pub feature_mask: FeatureMask,
    /// Read by nothing; kept for the frozen harness (see [`QuantMode`]).
    pub quant_mode: QuantMode,
    /// Telemetry recording level for the agent's RL introspection probes
    /// (loss curves, Q-value spread, replay-buffer age). `Off` by
    /// default — no registry is allocated and the decision path is
    /// bit-identical to a build without telemetry.
    pub telemetry: TelemetryConfig,
    /// RNG seed for initialization, exploration, and replay sampling.
    pub seed: u64,
}

impl Default for SibylConfig {
    fn default() -> Self {
        SibylConfig {
            discount: 0.9,
            learning_rate: 1e-3,
            exploration: 0.001,
            exploration_initial: 0.3,
            exploration_decay_requests: 4_000,
            batch_size: 128,
            buffer_capacity: 1000,
            batches_per_step: 8,
            train_interval: 1000,
            hidden_dims: [20, 30],
            n_atoms: 51,
            v_min: -1.0,
            v_max: 4.0,
            eviction_penalty_coeff: 0.001,
            clamp_eviction_reward: false,
            feature_mask: FeatureMask::ALL,
            quant_mode: QuantMode::Off,
            telemetry: TelemetryConfig::default(),
            seed: 0x51BB_1AA7,
        }
    }
}

impl SibylConfig {
    /// The `Sibyl_Opt` variant for mixed workloads (§8.3): lower learning
    /// rate for smaller, more frequent-feeling updates.
    pub fn mixed_workload_optimized() -> Self {
        SibylConfig {
            learning_rate: 1e-5,
            ..Default::default()
        }
    }

    /// ε after `decisions` decisions — the linear anneal the exploration
    /// fields describe, and the one schedule either agent decides against.
    pub fn epsilon(&self, decisions: u64) -> f64 {
        let progress = if self.exploration_decay_requests == 0 {
            1.0
        } else {
            (decisions as f64 / self.exploration_decay_requests as f64).min(1.0)
        };
        self.exploration_initial + (self.exploration - self.exploration_initial) * progress
    }

    /// Validates ranges.
    ///
    /// # Panics
    ///
    /// Panics if any hyper-parameter is outside its documented range.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.discount),
            "discount must be in [0, 1]"
        );
        assert!(
            self.learning_rate.is_finite() && self.learning_rate > 0.0,
            "learning rate must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.exploration),
            "exploration must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.exploration_initial),
            "exploration_initial must be in [0, 1]"
        );
        assert!(
            self.exploration_initial >= self.exploration,
            "exploration_initial must be >= the final exploration rate"
        );
        assert!(self.batch_size > 0, "batch_size must be positive");
        assert!(self.buffer_capacity > 0, "buffer_capacity must be positive");
        assert!(
            self.batches_per_step > 0,
            "batches_per_step must be positive"
        );
        assert!(self.train_interval > 0, "train_interval must be positive");
        assert!(self.n_atoms >= 2, "n_atoms must be at least 2");
        assert!(self.v_max > 0.0, "v_max must be positive");
        assert!(self.v_min < self.v_max, "v_min must be below v_max");
        assert!(
            self.eviction_penalty_coeff >= 0.0,
            "eviction_penalty_coeff must be non-negative"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the tree records of the paper's value for one default.
    enum Paper {
        /// The default is the paper's value; where the tree says so.
        Is(&'static str),
        /// The default knowingly departs from the paper's value.
        Departs {
            paper: &'static str,
            recorded: &'static str,
        },
        /// The tree records no paper value — not a guess either way.
        Unverified,
        /// Not a quantity of the paper's: a knob of this implementation.
        Ours,
    }

    /// ROADMAP 1(d): every `SibylConfig` default beside the paper value
    /// the tree records for it. Changing a default fails here until its
    /// row is edited, so a departure is a visible line, not a default.
    #[test]
    fn every_default_is_audited_against_the_paper() {
        use Paper::*;
        fn show(v: &dyn std::fmt::Debug) -> String {
            format!("{v:?}")
        }
        // No `..`: a new field does not compile until it has a row.
        let SibylConfig {
            discount,
            learning_rate,
            exploration,
            exploration_initial,
            exploration_decay_requests,
            batch_size,
            buffer_capacity,
            batches_per_step,
            train_interval,
            hidden_dims,
            n_atoms,
            v_min,
            v_max,
            eviction_penalty_coeff,
            clamp_eviction_reward,
            feature_mask,
            quant_mode,
            telemetry,
            seed,
        } = SibylConfig::default();
        let lr_departure = Departs {
            paper: "0.0001",
            recorded:
                "Table 2, tuned on week-long traces; Fig. 14(b) puts 1e-3 within a few percent",
        };
        let clamp_departure = Departs {
            paper: "true",
            recorded:
                "Eq. 1: max(0, 1/L_t - R_p); unclamped so an evicting fast placement can lose",
        };
        macro_rules! row {
            ($field:ident, $pinned:expr, $paper:expr) => {
                (stringify!($field), show(&$field), $pinned, $paper)
            };
        }
        let (all_features, telemetry_off) =
            (show(&FeatureMask::ALL), show(&TelemetryConfig::off()));
        let rows = [
            row!(discount, "0.9", Is("Table 2")),
            row!(learning_rate, "0.001", lr_departure),
            row!(exploration, "0.001", Is("Table 2")),
            row!(exploration_initial, "0.3", Unverified),
            row!(exploration_decay_requests, "4000", Unverified),
            row!(batch_size, "128", Is("Table 2")),
            row!(buffer_capacity, "1000", Is("Table 2")),
            row!(batches_per_step, "8", Is("§6.2.2")),
            row!(train_interval, "1000", Is("§6.2.2")),
            row!(hidden_dims, "[20, 30]", Is("§6.2.2")),
            row!(n_atoms, "51", Unverified),
            row!(v_min, "-1.0", Unverified),
            row!(v_max, "4.0", Unverified),
            row!(eviction_penalty_coeff, "0.001", Is("§5 / Eq. 1")),
            row!(clamp_eviction_reward, "false", clamp_departure),
            row!(feature_mask, all_features.as_str(), Is("Table 1")),
            row!(quant_mode, "Off", Ours),
            row!(telemetry, telemetry_off.as_str(), Ours),
            row!(seed, "1371216551", Ours),
        ];
        for (field, default, pinned, paper) in &rows {
            let provenance = match paper {
                Is(recorded) => format!("the paper's value ({recorded})"),
                Departs { paper, recorded } => {
                    assert_ne!(paper, pinned, "{field}: no longer a departure");
                    format!("departs from the paper's {paper} ({recorded})")
                }
                Unverified => "unverified: the tree records no paper value".to_string(),
                Ours => "not a quantity of the paper's".to_string(),
            };
            assert_eq!(
                default, pinned,
                "{field} ({provenance}): the default moved — edit its row"
            );
        }
        SibylConfig::default().validate();
    }

    #[test]
    fn exploration_anneal_is_configured_sanely() {
        let c = SibylConfig::default();
        assert!(c.exploration_initial >= c.exploration);
        assert!(c.exploration_decay_requests > 0);
    }

    #[test]
    #[should_panic(expected = "exploration_initial")]
    fn validate_rejects_inverted_anneal() {
        let c = SibylConfig {
            exploration: 0.5,
            exploration_initial: 0.1,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    fn sibyl_opt_lowers_learning_rate() {
        let c = SibylConfig::mixed_workload_optimized();
        assert_eq!(c.learning_rate, 1e-5);
        assert_eq!(c.discount, 0.9);
    }

    #[test]
    #[should_panic(expected = "discount must be in")]
    fn validate_rejects_bad_discount() {
        let c = SibylConfig {
            discount: 1.5,
            ..Default::default()
        };
        c.validate();
    }

    #[test]
    #[should_panic(expected = "n_atoms")]
    fn validate_rejects_single_atom() {
        let c = SibylConfig {
            n_atoms: 1,
            ..Default::default()
        };
        c.validate();
    }
}
