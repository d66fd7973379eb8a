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
    /// `scan_limit == 0`: the candidate scan could never see a page.
    ZeroScanLimit,
    /// `demote_watermark` is not a finite fraction in `[0, 1]`.
    InvalidWatermark,
    /// `promote_min_heat == 0`: every resident page would qualify for
    /// promotion, including pages never re-accessed.
    ZeroPromoteHeat,
    /// The RL policy's hyper-parameters are degenerate (non-positive
    /// learning rate, discount outside `[0, 1]`, inverted exploration
    /// anneal, fewer than two atoms, an empty value support, or a zero
    /// buffer/batch/train cadence).
    InvalidRl,
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
            MigrateConfigError::ZeroScanLimit => {
                write!(f, "active migration requires scan_limit > 0")
            }
            MigrateConfigError::InvalidWatermark => {
                write!(f, "demote_watermark must be a finite fraction in [0, 1]")
            }
            MigrateConfigError::ZeroPromoteHeat => {
                write!(f, "promote_min_heat must be positive")
            }
            MigrateConfigError::InvalidRl => {
                write!(f, "rl-migration hyper-parameters are degenerate")
            }
        }
    }
}

impl std::error::Error for MigrateConfigError {}

/// Hyper-parameters of the [`MigratePolicyKind::Rl`] agent. Smaller than
/// the placement agent's everywhere — it decides once per *tick*, not
/// once per request, so its experience stream is two to three orders of
/// magnitude thinner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlMigrateConfig {
    /// Learning rate of the Adam-trained C51 head.
    pub learning_rate: f32,
    /// Discount factor over ticks.
    pub discount: f32,
    /// Final exploration rate.
    pub exploration: f64,
    /// Initial exploration rate, annealed linearly over
    /// [`RlMigrateConfig::exploration_decay_ticks`].
    pub exploration_initial: f64,
    /// Ticks over which the exploration anneal runs.
    pub exploration_decay_ticks: u64,
    /// Replay-buffer capacity in tick transitions.
    pub buffer_capacity: usize,
    /// Transitions per training batch.
    pub batch_size: usize,
    /// Batches per training step.
    pub batches_per_step: usize,
    /// Ticks between training steps.
    pub train_ticks: u64,
    /// C51 support atoms.
    pub n_atoms: usize,
    /// Lower bound of the value support.
    pub v_min: f32,
    /// Upper bound of the value support.
    pub v_max: f32,
}

impl Default for RlMigrateConfig {
    fn default() -> Self {
        RlMigrateConfig {
            learning_rate: 1e-2,
            discount: 0.8,
            exploration: 0.02,
            exploration_initial: 0.4,
            exploration_decay_ticks: 150,
            buffer_capacity: 256,
            batch_size: 32,
            batches_per_step: 2,
            train_ticks: 4,
            n_atoms: 21,
            v_min: -2.0,
            v_max: 2.0,
        }
    }
}

impl RlMigrateConfig {
    fn is_valid(&self) -> bool {
        self.learning_rate.is_finite()
            && self.learning_rate > 0.0
            && (0.0..=1.0).contains(&self.discount)
            && (0.0..=1.0).contains(&self.exploration)
            && (0.0..=1.0).contains(&self.exploration_initial)
            && self.exploration_initial >= self.exploration
            && self.buffer_capacity > 0
            && self.batch_size > 0
            && self.batches_per_step > 0
            && self.train_ticks > 0
            && self.n_atoms >= 2
            && self.v_min < self.v_max
            && self.v_max > 0.0
    }
}

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
    /// LRU entries examined per device per tick when scanning for
    /// candidates (bounds tick cost on huge directories). Default: 2048.
    pub scan_limit: usize,
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
    /// Hyper-parameters of the [`MigratePolicyKind::Rl`] agent.
    pub rl: RlMigrateConfig,
    /// RNG seed for the RL agent's initialization and exploration.
    pub seed: u64,
}

impl Default for MigrateConfig {
    fn default() -> Self {
        MigrateConfig {
            policy: MigratePolicyKind::None,
            scan_period: 4,
            max_moves_per_tick: 64,
            scan_limit: 2048,
            promote_min_heat: 2,
            demote_watermark: 0.85,
            demote_min_idle: 512,
            rl: RlMigrateConfig::default(),
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

    /// Replaces the policy, keeping every knob (how a sweep varies the
    /// policy under otherwise identical settings).
    pub fn with_policy(mut self, policy: MigratePolicyKind) -> Self {
        self.policy = policy;
        self
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

    /// Sets the RL agent's seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
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
        if self.scan_limit == 0 {
            return Err(MigrateConfigError::ZeroScanLimit);
        }
        if !(self.demote_watermark.is_finite() && (0.0..=1.0).contains(&self.demote_watermark)) {
            return Err(MigrateConfigError::InvalidWatermark);
        }
        if self.promote_min_heat == 0 {
            return Err(MigrateConfigError::ZeroPromoteHeat);
        }
        if self.policy == MigratePolicyKind::Rl && !self.rl.is_valid() {
            return Err(MigrateConfigError::InvalidRl);
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
        bad.scan_limit = 0;
        assert_eq!(bad.validate(), Err(MigrateConfigError::ZeroScanLimit));
        let mut bad = active.clone();
        bad.demote_watermark = f64::NAN;
        assert_eq!(bad.validate(), Err(MigrateConfigError::InvalidWatermark));
        active.validate().unwrap();
    }

    #[test]
    fn rl_knobs_validated_only_for_rl() {
        let mut cfg = MigrateConfig::new(MigratePolicyKind::Rl);
        cfg.rl.learning_rate = 0.0;
        assert_eq!(cfg.validate(), Err(MigrateConfigError::InvalidRl));
        let hot_cold = cfg.clone().with_policy(MigratePolicyKind::HotCold);
        hot_cold.validate().unwrap();
        assert!(MigrateConfigError::InvalidRl.to_string().contains("rl"));
    }
}
