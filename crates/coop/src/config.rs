//! Cooperation modes and configuration.

/// How shard agents cooperate during a serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CoopMode {
    /// No cooperation — every shard agent learns alone. The baseline:
    /// bit-identical to an engine without a cooperation layer.
    #[default]
    Independent,
    /// Shards publish a fraction of their experiences to a global replay
    /// pool that is deterministically redistributed at sync rounds.
    SharedReplay,
    /// Every sync round, all participating shards' training-network
    /// parameters are federated-averaged and adopted by each participant.
    WeightAverage,
    /// [`CoopMode::SharedReplay`] and [`CoopMode::WeightAverage`]
    /// combined.
    Both,
}

impl CoopMode {
    /// All four modes, baseline first (the order `sec12_coop` sweeps).
    pub const ALL: [CoopMode; 4] = [
        CoopMode::Independent,
        CoopMode::SharedReplay,
        CoopMode::WeightAverage,
        CoopMode::Both,
    ];

    /// `true` when this mode publishes/absorbs shared experiences.
    pub fn shares_experiences(self) -> bool {
        matches!(self, CoopMode::SharedReplay | CoopMode::Both)
    }

    /// `true` when this mode averages weights at sync rounds.
    pub fn averages_weights(self) -> bool {
        matches!(self, CoopMode::WeightAverage | CoopMode::Both)
    }

    /// `true` unless this is [`CoopMode::Independent`].
    pub fn is_cooperative(self) -> bool {
        self != CoopMode::Independent
    }
}

impl std::fmt::Display for CoopMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            CoopMode::Independent => "independent",
            CoopMode::SharedReplay => "shared-replay",
            CoopMode::WeightAverage => "weight-average",
            CoopMode::Both => "both",
        };
        write!(f, "{name}")
    }
}

/// Why a [`CoopConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoopConfigError {
    /// A cooperative mode was configured with `sync_period == 0`: agents
    /// would never reach a sync round (or, read the other way, sync on
    /// every round boundary of period zero — both degenerate).
    ZeroSyncPeriod,
    /// An experience-sharing mode was configured with a `share_fraction`
    /// outside `(0, 1]` — nothing (or nonsense) would be published.
    InvalidShareFraction,
    /// An experience-sharing mode was configured with a `foreign_weight`
    /// other than 1.0 — absorbed experiences train on equal footing with
    /// local ones.
    InvalidForeignWeight,
}

impl std::fmt::Display for CoopConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoopConfigError::ZeroSyncPeriod => {
                write!(f, "cooperative mode requires sync_period > 0")
            }
            CoopConfigError::InvalidShareFraction => {
                write!(f, "experience sharing requires share_fraction in (0, 1]")
            }
            CoopConfigError::InvalidForeignWeight => {
                write!(f, "experience sharing requires foreign_weight 1.0")
            }
        }
    }
}

impl std::error::Error for CoopConfigError {}

/// Configuration of the cooperation layer.
///
/// # Examples
///
/// ```
/// use sibyl_coop::{CoopConfig, CoopMode};
///
/// let cfg = CoopConfig::new(CoopMode::Both)
///     .with_sync_period(16)
///     .with_share_fraction(0.5);
/// cfg.validate().unwrap();
/// assert!(cfg.mode.shares_experiences() && cfg.mode.averages_weights());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoopConfig {
    /// The cooperation mode. Default: [`CoopMode::Independent`].
    pub mode: CoopMode,
    /// Inference rounds (batches) between sync rounds, counted per shard
    /// against its own subsequence — a *logical* period, so seeded runs
    /// stay deterministic. Default: 8.
    pub sync_period: u64,
    /// Fraction of each shard's experiences published to the shared
    /// replay pool (experience-sharing modes only). Default: 0.5.
    pub share_fraction: f64,
    /// Kept only for the frozen `benchmark/` harness, which reads it:
    /// absorbed experiences train on equal footing with local ones, and
    /// [`CoopConfig::validate`] accepts only the default 1.0 in the
    /// experience-sharing modes.
    pub foreign_weight: f64,
}

impl Default for CoopConfig {
    fn default() -> Self {
        CoopConfig {
            mode: CoopMode::Independent,
            sync_period: 8,
            share_fraction: 0.5,
            foreign_weight: 1.0,
        }
    }
}

impl CoopConfig {
    /// A configuration of the given mode with default period/fraction.
    pub fn new(mode: CoopMode) -> Self {
        CoopConfig {
            mode,
            ..Default::default()
        }
    }

    /// Sets the number of inference rounds between sync rounds.
    pub fn with_sync_period(mut self, period: u64) -> Self {
        self.sync_period = period;
        self
    }

    /// Sets the published-experience fraction.
    pub fn with_share_fraction(mut self, fraction: f64) -> Self {
        self.share_fraction = fraction;
        self
    }

    /// Validates the configuration for its mode.
    ///
    /// # Errors
    ///
    /// Returns a [`CoopConfigError`] describing the degenerate setting.
    /// [`CoopMode::Independent`] accepts anything — the knobs are unused.
    pub fn validate(&self) -> Result<(), CoopConfigError> {
        if !self.mode.is_cooperative() {
            return Ok(());
        }
        if self.sync_period == 0 {
            return Err(CoopConfigError::ZeroSyncPeriod);
        }
        if self.mode.shares_experiences() {
            if !(self.share_fraction > 0.0 && self.share_fraction <= 1.0) {
                return Err(CoopConfigError::InvalidShareFraction);
            }
            if self.foreign_weight != 1.0 {
                return Err(CoopConfigError::InvalidForeignWeight);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_independent_and_valid() {
        let cfg = CoopConfig::default();
        assert_eq!(cfg.mode, CoopMode::Independent);
        assert!(!cfg.mode.is_cooperative());
        cfg.validate().unwrap();
    }

    #[test]
    fn mode_predicates() {
        assert!(CoopMode::SharedReplay.shares_experiences());
        assert!(!CoopMode::SharedReplay.averages_weights());
        assert!(CoopMode::WeightAverage.averages_weights());
        assert!(!CoopMode::WeightAverage.shares_experiences());
        assert!(CoopMode::Both.shares_experiences() && CoopMode::Both.averages_weights());
        assert_eq!(CoopMode::ALL.len(), 4);
        assert_eq!(CoopMode::Both.to_string(), "both");
    }

    #[test]
    fn zero_sync_period_rejected_for_cooperative_modes() {
        let cfg = CoopConfig::new(CoopMode::WeightAverage).with_sync_period(0);
        assert_eq!(cfg.validate(), Err(CoopConfigError::ZeroSyncPeriod));
        // ... but tolerated in the inert baseline.
        let indep = CoopConfig::default().with_sync_period(0);
        indep.validate().unwrap();
    }

    #[test]
    fn share_fraction_bounds_enforced_only_when_sharing() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let cfg = CoopConfig::new(CoopMode::SharedReplay).with_share_fraction(bad);
            assert_eq!(
                cfg.validate(),
                Err(CoopConfigError::InvalidShareFraction),
                "fraction {bad} should be rejected"
            );
        }
        CoopConfig::new(CoopMode::SharedReplay)
            .with_share_fraction(1.0)
            .validate()
            .unwrap();
        // WeightAverage ignores the fraction entirely.
        CoopConfig::new(CoopMode::WeightAverage)
            .with_share_fraction(-3.0)
            .validate()
            .unwrap();
    }

    #[test]
    fn foreign_weight_other_than_one_rejected_only_when_sharing() {
        assert_eq!(CoopConfig::default().foreign_weight, 1.0);
        for bad in [0.0, 0.5, 1.1, f64::NAN] {
            let cfg = CoopConfig {
                foreign_weight: bad,
                ..CoopConfig::new(CoopMode::Both)
            };
            assert_eq!(
                cfg.validate(),
                Err(CoopConfigError::InvalidForeignWeight),
                "weight {bad} should be rejected"
            );
        }
        // Non-sharing modes ignore the field entirely.
        CoopConfig {
            foreign_weight: 9.0,
            ..CoopConfig::new(CoopMode::WeightAverage)
        }
        .validate()
        .unwrap();
        assert!(CoopConfigError::InvalidForeignWeight
            .to_string()
            .contains("foreign_weight"));
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(CoopConfigError::ZeroSyncPeriod
            .to_string()
            .contains("sync_period"));
        assert!(CoopConfigError::InvalidShareFraction
            .to_string()
            .contains("share_fraction"));
    }
}
