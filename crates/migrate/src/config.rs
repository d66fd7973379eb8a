//! Configuration of the background-migration subsystem.

/// Which migration policy runs in the background.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MigratePolicyKind {
    /// No background migration — the baseline, bit-identical to an
    /// engine without the subsystem (no migrator is even constructed).
    #[default]
    None,
    /// The heuristic: promote pages whose resident heat crossed a
    /// threshold, demote LRU-cold fast pages once the fast device fills
    /// past a watermark.
    HotCold,
    /// The Harmonia-style second RL agent: a C51 learner (reusing
    /// `sibyl-core`'s learner/replay machinery) that picks a migration
    /// intensity each tick from page-heat, fast-fill, and hit-rate-delta
    /// features, rewarded by the post-migration latency change.
    Rl,
}

impl MigratePolicyKind {
    /// All three policies, baseline first (the order `sec13_migration`
    /// sweeps).
    pub const ALL: [MigratePolicyKind; 3] = [
        MigratePolicyKind::None,
        MigratePolicyKind::HotCold,
        MigratePolicyKind::Rl,
    ];

    /// `true` unless this is [`MigratePolicyKind::None`].
    pub fn is_active(self) -> bool {
        self != MigratePolicyKind::None
    }
}

impl std::fmt::Display for MigratePolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            MigratePolicyKind::None => "no-migration",
            MigratePolicyKind::HotCold => "hot-cold",
            MigratePolicyKind::Rl => "rl-migration",
        };
        write!(f, "{name}")
    }
}

/// Why a [`MigrateConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrateConfigError {
    /// An active policy was configured with `scan_period == 0`: the
    /// migrator would never (or degenerately always) tick.
    ZeroScanPeriod,
    /// `max_moves_per_tick == 0`: ticks could never move anything.
    ZeroMoves,
    /// `demote_watermark` is not a finite fraction in `[0, 1]`.
    InvalidWatermark,
    /// `promote_min_heat == 0`: every resident page would qualify for
    /// promotion, including pages never re-accessed.
    ZeroPromoteHeat,
}

impl std::fmt::Display for MigrateConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateConfigError::ZeroScanPeriod => {
                write!(f, "active migration requires scan_period > 0")
            }
            MigrateConfigError::ZeroMoves => {
                write!(f, "active migration requires max_moves_per_tick > 0")
            }
            MigrateConfigError::InvalidWatermark => {
                write!(f, "demote_watermark must be a finite fraction in [0, 1]")
            }
            MigrateConfigError::ZeroPromoteHeat => {
                write!(f, "promote_min_heat must be positive")
            }
        }
    }
}

impl std::error::Error for MigrateConfigError {}

/// Configuration of the background-migration subsystem.
///
/// # Examples
///
/// ```
/// use sibyl_migrate::{MigrateConfig, MigratePolicyKind};
///
/// let cfg = MigrateConfig::new(MigratePolicyKind::HotCold).with_scan_period(8);
/// cfg.validate().unwrap();
/// assert!(cfg.policy.is_active());
/// assert!(!MigrateConfig::default().policy.is_active());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MigrateConfig {
    /// Which policy runs. Default: [`MigratePolicyKind::None`] — no
    /// migrator is constructed and the host engine is bit-identical to
    /// one without the subsystem.
    pub policy: MigratePolicyKind,
    /// Serving-engine batches between migration ticks (a *logical*
    /// period, counted per shard against its own batch sequence, so
    /// seeded runs stay deterministic). Default: 4.
    pub scan_period: u64,
    /// Upper bound on pages moved per tick. Default: 64.
    pub max_moves_per_tick: usize,
    /// Minimum accesses *since the page landed on its current device*
    /// for a slower-device page to become a promotion candidate
    /// (`PageDirectory::heat_since_place`) — so a freshly demoted or
    /// evicted page must earn new accesses before qualifying again.
    /// Default: 2.
    pub promote_min_heat: u64,
    /// Fast-device fill fraction above which the heuristic starts
    /// demoting LRU-cold pages. Default: 0.85.
    pub demote_watermark: f64,
    /// Minimum recency-token age for a fast page to become a demotion
    /// candidate (pages touched more recently are left alone). Default:
    /// 512.
    pub demote_min_idle: u64,
    /// RNG seed for the RL agent's initialization and exploration.
    pub seed: u64,
}

impl Default for MigrateConfig {
    fn default() -> Self {
        MigrateConfig {
            policy: MigratePolicyKind::None,
            scan_period: 4,
            max_moves_per_tick: 64,
            promote_min_heat: 2,
            demote_watermark: 0.85,
            demote_min_idle: 512,
            seed: 0x5EC1_3B17,
        }
    }
}

impl MigrateConfig {
    /// A configuration running the given policy with default knobs.
    pub fn new(policy: MigratePolicyKind) -> Self {
        MigrateConfig {
            policy,
            ..Default::default()
        }
    }

    /// Sets the batches-between-ticks period.
    pub fn with_scan_period(mut self, period: u64) -> Self {
        self.scan_period = period;
        self
    }

    /// Sets the per-tick move budget.
    pub fn with_max_moves(mut self, moves: usize) -> Self {
        self.max_moves_per_tick = moves;
        self
    }

    /// Sets the promotion heat threshold.
    pub fn with_promote_min_heat(mut self, heat: u64) -> Self {
        self.promote_min_heat = heat;
        self
    }

    /// Validates the configuration for its policy.
    ///
    /// # Errors
    ///
    /// Returns a [`MigrateConfigError`] describing the degenerate
    /// setting. [`MigratePolicyKind::None`] accepts anything — the knobs
    /// are unused.
    pub fn validate(&self) -> Result<(), MigrateConfigError> {
        if !self.policy.is_active() {
            return Ok(());
        }
        if self.scan_period == 0 {
            return Err(MigrateConfigError::ZeroScanPeriod);
        }
        if self.max_moves_per_tick == 0 {
            return Err(MigrateConfigError::ZeroMoves);
        }
        if !(self.demote_watermark.is_finite() && (0.0..=1.0).contains(&self.demote_watermark)) {
            return Err(MigrateConfigError::InvalidWatermark);
        }
        if self.promote_min_heat == 0 {
            return Err(MigrateConfigError::ZeroPromoteHeat);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_inactive_and_valid() {
        let cfg = MigrateConfig::default();
        assert_eq!(cfg.policy, MigratePolicyKind::None);
        assert!(!cfg.policy.is_active());
        cfg.validate().unwrap();
        assert_eq!(MigratePolicyKind::ALL.len(), 3);
        assert_eq!(MigratePolicyKind::Rl.to_string(), "rl-migration");
    }

    #[test]
    fn degenerate_knobs_rejected_only_when_active() {
        let inert = MigrateConfig::default().with_scan_period(0);
        inert.validate().unwrap();
        let active = MigrateConfig::new(MigratePolicyKind::HotCold);
        assert_eq!(
            active.clone().with_scan_period(0).validate(),
            Err(MigrateConfigError::ZeroScanPeriod)
        );
        assert_eq!(
            active.clone().with_max_moves(0).validate(),
            Err(MigrateConfigError::ZeroMoves)
        );
        assert_eq!(
            active.clone().with_promote_min_heat(0).validate(),
            Err(MigrateConfigError::ZeroPromoteHeat)
        );
        let mut bad = active.clone();
        bad.demote_watermark = f64::NAN;
        assert_eq!(bad.validate(), Err(MigrateConfigError::InvalidWatermark));
        active.validate().unwrap();
    }
}
