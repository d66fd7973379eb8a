//! Configuration of the sharded serving engine.

use sibyl_coop::CoopConfig;
use sibyl_core::{QuantMode, SibylConfig};
use sibyl_hss::HssConfig;
use sibyl_migrate::MigrateConfig;
use sibyl_telemetry::TelemetryConfig;
use sibyl_xray::XrayConfig;

use crate::engine::ServeError;

/// Configuration of a sharded serving run: how many worker shards to
/// spawn, how deep each shard's inference batches may grow, how (and
/// whether) shard agents cooperate, and the per-shard storage and agent
/// configurations.
///
/// Every shard owns a private [`sibyl_hss::StorageManager`] (its own
/// devices) plus a private [`sibyl_core::SibylAgent`] seeded from
/// [`SibylConfig::seed`] and the shard index, so an `N`-shard engine
/// models a scale-out deployment of `N` hybrid-storage nodes, each
/// serving its own partition of the LBA regions (see [`crate::shard_of`]
/// for the boundary-straddle caveat). With a cooperative
/// [`CoopConfig::mode`] the nodes additionally exchange experiences
/// and/or federated-averaged weights at deterministic sync rounds.
///
/// # Examples
///
/// ```
/// use sibyl_hss::{DeviceSpec, HssConfig};
/// use sibyl_serve::ServeConfig;
///
/// let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
/// let cfg = ServeConfig::new(hss).with_shards(4).with_max_batch(64);
/// assert_eq!(cfg.shards, 4);
/// cfg.validate().unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards; requests are routed by LBA hash. Default: 4.
    pub shards: usize,
    /// Maximum requests drained into one batched-inference decision.
    /// Default: 32. A shard blocks until its batch is full or the trace
    /// is exhausted, so batch boundaries — and therefore results — are
    /// deterministic regardless of thread scheduling. Requests cross
    /// from the router in fixed blocks of 512, so at most
    /// `3 × 512 + max_batch` requests per shard are in flight (see
    /// [`crate::serve_stream`]).
    pub max_batch: usize,
    /// Trace-replay time compression, as in the sim crate's
    /// `Experiment::with_time_scale`: every timestamp is divided by this
    /// factor, putting the system in the device-bound regime where
    /// throughput differentiates. Default: 1.0 (no compression).
    pub time_scale: f64,
    /// Simulated NN-inference cost in nanoseconds per multiply-accumulate
    /// (the §10 overhead model). When positive, each batch is charged one
    /// forward pass — `inference_macs × nn_ns_per_mac` — amortized over
    /// the batch: batched inference streams the weight matrices once per
    /// *batch*, so the per-request placement-decision delay shrinks as
    /// batches grow, and serve metrics show the batching win in latency
    /// rather than IOPS alone. The delay holds back device dispatch and
    /// counts toward each request's reported latency
    /// (`StorageManager::access_after`); it is not compressed by
    /// [`ServeConfig::time_scale`] (thinking time compresses; compute
    /// does not). Training is billed through the same rate: each train
    /// step charges `batches_per_step` batched forward+backward weight
    /// streams, delaying the shard's next batch (§10 charges training to
    /// request latency too; see [`crate::ShardReport::train_busy_us`]).
    /// Default: 0.0 (NN compute is free, as before the overhead model
    /// was coupled in).
    pub nn_ns_per_mac: f64,
    /// When positive, every shard samples a learning-curve point
    /// (cumulative average latency, fast-placement fraction) every
    /// `curve_every` batches into [`crate::ShardReport::curve`].
    /// Default: 0 (disabled).
    pub curve_every: u64,
    /// How shard agents cooperate (shared replay / weight averaging /
    /// both). Default: [`sibyl_coop::CoopMode::Independent`] — no
    /// cooperation, bit-identical to an engine without the layer.
    pub coop: CoopConfig,
    /// The background-migration subsystem run by every shard against its
    /// private storage node: which policy plans moves, how many batches
    /// between ticks, and the per-tick move budget. Default:
    /// [`sibyl_migrate::MigratePolicyKind::None`] — no migrator is
    /// constructed and the engine is bit-identical to one without the
    /// subsystem. Ticks sit at deterministic batch-count boundaries
    /// (after every [`MigrateConfig::scan_period`] of a shard's own
    /// batches), and migration I/O is charged against device time
    /// through [`sibyl_hss::StorageManager::migrate_batch`], so
    /// foreground requests observe the contention.
    pub migrate: MigrateConfig,
    /// The hybrid-storage configuration instantiated per shard. Fraction
    /// capacities resolve against each shard's own footprint.
    pub hss: HssConfig,
    /// The agent configuration instantiated per shard (the seed is
    /// perturbed per shard).
    pub sibyl: SibylConfig,
    /// Read by nothing; kept for the frozen harness (see [`QuantMode`]).
    pub quant: QuantMode,
    /// Telemetry recording for the run. Default:
    /// [`TelemetryConfig::off`] — no sink is allocated, no event is
    /// recorded, and the engine is pinned bit-identical to one without
    /// the subsystem. When enabled, every shard collects a metrics
    /// registry plus a bounded event trace into
    /// [`crate::ServeReport::telemetry`], keyed on logical time (request
    /// and batch counts) so two enabled runs export byte-identical
    /// JSONL; wall-clock durations are confined to the `measured.*`
    /// namespace, which is excluded from equality and the deterministic
    /// export. Overrides [`SibylConfig::telemetry`] per shard, the same
    /// way the per-shard seed overrides [`SibylConfig::seed`].
    pub telemetry: TelemetryConfig,
    /// Per-request x-ray tracing for the run. Default:
    /// [`XrayConfig::Off`] — no tracer is constructed and the engine is
    /// pinned bit-identical to one without the subsystem.
    /// [`XrayConfig::Sampled(k)`](XrayConfig::Sampled) traces a
    /// deterministic `1/2^k` subset of requests — the sampling decision
    /// is a stateless hash of `(base seed, lba, per-shard seq)`, so the
    /// traced set is identical across runs and thread schedules — and
    /// collects critical-path attribution, folded-stacks exports, and
    /// tail forensics into [`crate::ServeReport::xray`]. Sample durations
    /// are simulated time quantized to logical nanoseconds: tracing
    /// reads no wall clock and perturbs zero placement decisions.
    pub xray: XrayConfig,
}

impl ServeConfig {
    /// Creates a serving configuration with default sharding (4 shards,
    /// batches of up to 32, no cooperation) over the given storage
    /// configuration and the paper's default agent hyper-parameters.
    pub fn new(hss: HssConfig) -> Self {
        ServeConfig {
            shards: 4,
            max_batch: 32,
            time_scale: 1.0,
            nn_ns_per_mac: 0.0,
            curve_every: 0,
            coop: CoopConfig::default(),
            migrate: MigrateConfig::default(),
            hss,
            sibyl: SibylConfig::default(),
            quant: QuantMode::Off,
            telemetry: TelemetryConfig::off(),
            xray: XrayConfig::Off,
        }
    }

    /// Sets the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the maximum inference batch size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the replay time compression (>1 compresses think time).
    pub fn with_time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self
    }

    /// Sets the simulated NN-inference cost (ns per MAC; 0 disables).
    pub fn with_nn_ns_per_mac(mut self, ns_per_mac: f64) -> Self {
        self.nn_ns_per_mac = ns_per_mac;
        self
    }

    /// Sets the telemetry level (off or full) for every shard.
    pub fn with_telemetry(mut self, telemetry: TelemetryConfig) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Sets the per-request x-ray tracing mode (see [`XrayConfig`]).
    pub fn with_xray(mut self, xray: XrayConfig) -> Self {
        self.xray = xray;
        self
    }

    /// Enables learning-curve sampling every `batches` batches per shard
    /// (0 disables).
    pub fn with_curve_every(mut self, batches: u64) -> Self {
        self.curve_every = batches;
        self
    }

    /// Replaces the cooperation configuration.
    pub fn with_coop(mut self, coop: CoopConfig) -> Self {
        self.coop = coop;
        self
    }

    /// Replaces the background-migration configuration.
    pub fn with_migrate(mut self, migrate: MigrateConfig) -> Self {
        self.migrate = migrate;
        self
    }

    /// Replaces the per-shard agent configuration.
    pub fn with_sibyl(mut self, sibyl: SibylConfig) -> Self {
        self.sibyl = sibyl;
        self
    }

    /// The agent seed for one shard: the base seed perturbed by the shard
    /// index so shards explore independently while staying reproducible.
    pub fn shard_seed(&self, shard: usize) -> u64 {
        self.sibyl
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1))
    }

    /// The migration-policy seed for one shard, perturbed like
    /// [`ServeConfig::shard_seed`] so per-shard RL migrators explore
    /// independently while staying reproducible.
    pub fn migrate_seed(&self, shard: usize) -> u64 {
        self.migrate
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard as u64 + 1))
    }

    /// Validates ranges, returning a descriptive [`ServeError`] for
    /// degenerate settings (0 shards, 0-deep batches, a cooperative mode
    /// with a zero sync period, …) instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    ///
    /// # Panics
    ///
    /// The embedded [`SibylConfig`] still validates by panicking
    /// (see [`SibylConfig::validate`]).
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.shards == 0 {
            return Err(ServeError::ZeroShards);
        }
        if self.max_batch == 0 {
            return Err(ServeError::ZeroMaxBatch);
        }
        if !(self.time_scale.is_finite() && self.time_scale > 0.0) {
            return Err(ServeError::InvalidTimeScale);
        }
        if !(self.nn_ns_per_mac.is_finite() && self.nn_ns_per_mac >= 0.0) {
            return Err(ServeError::InvalidNnCost);
        }
        self.xray.validate().map_err(ServeError::Xray)?;
        self.coop.validate().map_err(ServeError::Coop)?;
        self.migrate.validate().map_err(ServeError::Migrate)?;
        self.sibyl.validate();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_coop::{CoopConfigError, CoopMode};
    use sibyl_hss::DeviceSpec;

    fn hss() -> HssConfig {
        HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
    }

    #[test]
    fn defaults_are_valid() {
        let cfg = ServeConfig::new(hss());
        assert_eq!(cfg.shards, 4);
        assert_eq!(cfg.max_batch, 32);
        assert_eq!(cfg.nn_ns_per_mac, 0.0);
        assert_eq!(cfg.coop.mode, CoopMode::Independent);
        assert!(!cfg.telemetry.enabled());
        cfg.validate().unwrap();
    }

    #[test]
    fn builders_apply() {
        let cfg = ServeConfig::new(hss())
            .with_shards(8)
            .with_max_batch(4)
            .with_time_scale(40.0)
            .with_nn_ns_per_mac(2.0)
            .with_curve_every(16)
            .with_coop(CoopConfig::new(CoopMode::Both).with_sync_period(4))
            .with_telemetry(TelemetryConfig::full());
        assert_eq!(cfg.shards, 8);
        assert_eq!(cfg.telemetry, TelemetryConfig::full());
        assert_eq!(cfg.max_batch, 4);
        assert_eq!(cfg.time_scale, 40.0);
        assert_eq!(cfg.nn_ns_per_mac, 2.0);
        assert_eq!(cfg.curve_every, 16);
        assert_eq!(cfg.coop.mode, CoopMode::Both);
        cfg.validate().unwrap();
    }

    #[test]
    fn shard_seeds_differ_but_are_stable() {
        let cfg = ServeConfig::new(hss());
        assert_ne!(cfg.shard_seed(0), cfg.shard_seed(1));
        assert_eq!(cfg.shard_seed(3), cfg.shard_seed(3));
    }

    #[test]
    fn degenerate_settings_return_descriptive_errors() {
        assert_eq!(
            ServeConfig::new(hss()).with_shards(0).validate(),
            Err(ServeError::ZeroShards)
        );
        assert_eq!(
            ServeConfig::new(hss()).with_max_batch(0).validate(),
            Err(ServeError::ZeroMaxBatch)
        );
        assert_eq!(
            ServeConfig::new(hss()).with_time_scale(0.0).validate(),
            Err(ServeError::InvalidTimeScale)
        );
        assert_eq!(
            ServeConfig::new(hss()).with_time_scale(f64::NAN).validate(),
            Err(ServeError::InvalidTimeScale)
        );
        assert_eq!(
            ServeConfig::new(hss()).with_nn_ns_per_mac(-1.0).validate(),
            Err(ServeError::InvalidNnCost)
        );
        assert_eq!(
            ServeConfig::new(hss())
                .with_coop(CoopConfig::new(CoopMode::WeightAverage).with_sync_period(0))
                .validate(),
            Err(ServeError::Coop(CoopConfigError::ZeroSyncPeriod))
        );
        assert_eq!(
            ServeConfig::new(hss())
                .with_coop(CoopConfig::new(CoopMode::SharedReplay).with_share_fraction(0.0))
                .validate(),
            Err(ServeError::Coop(CoopConfigError::InvalidShareFraction))
        );
        assert_eq!(
            ServeConfig::new(hss())
                .with_coop(CoopConfig {
                    foreign_weight: 0.5,
                    ..CoopConfig::new(CoopMode::SharedReplay)
                })
                .validate(),
            Err(ServeError::Coop(CoopConfigError::InvalidForeignWeight))
        );
    }
}
