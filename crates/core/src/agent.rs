//! The Sibyl agent: an online reinforcement-learning placement policy.
//!
//! This is the paper's contribution assembled: per-request observation of
//! the Table 1 state features, ε-greedy action selection from the
//! inference network (one [`DecisionCore`] behind both `place` and
//! `place_batch`), reward computed from served latency and eviction
//! penalty (Eq. 1), experience collection into a replay buffer, periodic
//! training of the separate training network, and training → inference
//! weight adoption every `train_interval` requests (Algorithm 1).

use sibyl_hss::{AccessOutcome, DeviceId, PlacementPolicy, StorageManager};
use sibyl_telemetry::{Log2Histogram, Registry};
use sibyl_trace::IoRequest;

use crate::buffer::{Experience, ExperienceRef};
use crate::config::SibylConfig;
use crate::decision::DecisionCore;
use crate::features::StateEncoder;
use crate::learner::Learner;
use crate::reward::RewardShaper;

/// Counters describing the agent's activity during a run.
///
/// Equality compares the *logical* counters only:
/// [`AgentStats::train_ns`] is wall-clock telemetry that legitimately
/// differs between two otherwise bit-identical runs, so it is excluded
/// from `PartialEq` — determinism tests can keep asserting whole-report
/// equality.
#[derive(Debug, Clone, Default)]
pub struct AgentStats {
    /// Placement decisions made.
    pub decisions: u64,
    /// Decisions taken by random exploration (ε branch).
    pub explorations: u64,
    /// Experiences pushed toward the learner.
    pub experiences: u64,
    /// Training steps completed.
    pub train_steps: u64,
    /// Wall-clock nanoseconds spent inside training steps (the paper's
    /// §10 charges this to request latency). Telemetry only — excluded
    /// from equality.
    pub train_ns: u64,
    /// Training→inference weight synchronizations.
    pub weight_syncs: u64,
    /// Experiences copied out through the experience tap toward a shared
    /// (cross-agent) replay pool.
    pub shared_published: u64,
    /// Foreign experiences absorbed from a shared replay pool.
    pub shared_absorbed: u64,
}

impl PartialEq for AgentStats {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `train_ns` (wall-clock telemetry). The
        // exhaustive destructuring makes adding a field a compile error
        // here, so new counters cannot silently escape equality.
        let AgentStats {
            decisions,
            explorations,
            experiences,
            train_steps,
            train_ns: _,
            weight_syncs,
            shared_published,
            shared_absorbed,
        } = self;
        *decisions == other.decisions
            && *explorations == other.explorations
            && *experiences == other.experiences
            && *train_steps == other.train_steps
            && *weight_syncs == other.weight_syncs
            && *shared_published == other.shared_published
            && *shared_absorbed == other.shared_absorbed
    }
}

impl Eq for AgentStats {}

/// Point-in-time snapshot of the agent's learning state — the RL
/// introspection probe the serving engine samples every `curve_every`
/// batches into the telemetry registry. Reading a probe is pure: it
/// consumes no RNG and touches no training state, so sampling it can
/// never perturb placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RlProbe {
    /// Current ε of the exploration anneal.
    pub epsilon: f64,
    /// Mean loss of the most recent training step, when one has run and
    /// telemetry is enabled.
    pub last_loss: Option<f32>,
    /// Experiences currently stored in the replay buffer.
    pub buffer_len: usize,
    /// Replay-buffer capacity.
    pub buffer_capacity: usize,
    /// Age distribution of the stored experiences in push counts.
    pub buffer_age: Log2Histogram,
    /// Mean (best − second-best) Q-value gap over the greedy rows of the
    /// most recent decided batch — how decisively the policy is choosing
    /// (0 until a batch has been decided with telemetry on).
    pub q_spread: f64,
    /// Normalized entropy of the chosen-action distribution of the most
    /// recent decided batch, in `[0, 1]` (0 until a batch has been
    /// decided with telemetry on).
    pub argmax_entropy: f64,
    /// Training steps completed so far.
    pub train_steps: u64,
}

/// Introspection state, allocated only when telemetry is enabled so the
/// disabled path stays a null-pointer check.
#[derive(Debug, Default)]
struct Introspection {
    registry: Registry,
    last_argmax_entropy: f64,
    /// `AgentStats::train_ns` as of the previous
    /// [`SibylAgent::take_telemetry`], so each drain reports its own share.
    drained_train_ns: u64,
}

/// Lazily-built runtime state (needs the storage manager's shape).
#[derive(Debug)]
struct Runtime {
    encoder: StateEncoder,
    core: DecisionCore,
    /// Trains inline on the decision path; decisions borrow its inference
    /// network.
    learner: Learner,
    shaper: RewardShaper,
    /// The latest batch's observation rows and rewards, in buffers reused
    /// from batch to batch.
    rows: Vec<f32>,
    rewards: Vec<f32>,
}

impl Runtime {
    fn new(config: &SibylConfig, manager: &StorageManager) -> Self {
        let n_actions = manager.num_devices();
        let encoder = StateEncoder::new(config.feature_mask, n_actions);
        let obs_len = encoder.observation_len();
        let shaper = RewardShaper::new(
            config.eviction_penalty_coeff,
            manager.device(DeviceId(0)).spec().min_read_service_us(),
            config.clamp_eviction_reward,
            config.v_min as f64,
        );
        Runtime {
            encoder,
            core: DecisionCore::new(config, n_actions, config.seed),
            learner: Learner::new(config, n_actions, obs_len),
            shaper,
            rows: Vec::new(),
            rewards: Vec::new(),
        }
    }
}

/// The Sibyl reinforcement-learning data-placement agent.
///
/// # Examples
///
/// ```
/// use sibyl_core::{SibylAgent, SibylConfig};
/// use sibyl_hss::PlacementPolicy;
/// let agent = SibylAgent::new(SibylConfig::default());
/// assert_eq!(agent.name(), "Sibyl");
/// ```
#[derive(Debug)]
pub struct SibylAgent {
    config: SibylConfig,
    runtime: Option<Box<Runtime>>,
    /// Decisions of the current [`SibylAgent::place_batch`] call still
    /// owed their outcomes through [`SibylAgent::feedback_batch`].
    outstanding: usize,
    stats: AgentStats,
    pushes_seen: u64,
    next_train_at: u64,
    /// Experience-tap share fraction (0 = tap disabled).
    tap_fraction: f64,
    /// Fractional-stride accumulator of the tap (deterministic selection:
    /// an experience is published whenever the accumulator crosses 1).
    tap_acc: f64,
    /// Experiences selected by the tap since the last
    /// [`SibylAgent::take_published`].
    tapped: Vec<Experience>,
    /// RL introspection state; `None` when telemetry is off.
    introspect: Option<Box<Introspection>>,
}

impl SibylAgent {
    /// Creates an agent with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`SibylConfig::validate`]).
    pub fn new(config: SibylConfig) -> Self {
        config.validate();
        let next_train_at = config.train_interval;
        let introspect = config
            .telemetry
            .enabled()
            .then(|| Box::new(Introspection::default()));
        SibylAgent {
            config,
            runtime: None,
            outstanding: 0,
            stats: AgentStats::default(),
            pushes_seen: 0,
            next_train_at,
            tap_fraction: 0.0,
            tap_acc: 0.0,
            tapped: Vec::new(),
            introspect,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &SibylConfig {
        &self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> &AgentStats {
        &self.stats
    }

    /// The inference network's multiply-accumulate count per decision
    /// (§10.1), available once the agent has seen its first request.
    pub fn inference_macs(&self) -> Option<usize> {
        Some(self.runtime.as_ref()?.learner.inference().net.mac_count())
    }

    /// `(lookups, hits)` of the decision memo (see [`DecisionCore`]): how
    /// many greedy decisions were looked up and how many of them skipped
    /// the network. Host-side counts for benches — no report carries them.
    pub fn decision_memo(&self) -> (u64, u64) {
        self.runtime
            .as_ref()
            .map_or((0, 0), |rt| (rt.core.memo_lookups(), rt.core.memo_hits()))
    }

    /// Pushes a finalized experience into `learner` and runs the training
    /// step + weight sync it makes due. `learner` is the runtime's: callers
    /// take the runtime out of `self` while `exp` borrows its decision
    /// core's rows.
    fn push_experience(&mut self, learner: &mut Learner, exp: ExperienceRef<'_>) {
        self.stats.experiences += 1;
        self.pushes_seen += 1;
        // Experience tap: deterministic stride selection — publish one
        // experience each time the fractional accumulator crosses 1, so a
        // fraction of f publishes every ⌈1/f⌉-th experience with no RNG
        // draw (the tap must not perturb the ε-greedy stream).
        if self.tap_fraction > 0.0 {
            self.tap_acc += self.tap_fraction;
            if self.tap_acc >= 1.0 {
                self.tap_acc -= 1.0;
                self.tapped.push(exp.to_experience());
                self.stats.shared_published += 1;
            }
        }
        let due = self.pushes_seen >= self.next_train_at;
        if due {
            self.next_train_at += self.config.train_interval;
        }
        learner.push(exp);
        if due && learner.train_step() {
            self.stats.train_steps = learner.train_steps;
            self.stats.train_ns = learner.train_ns();
            self.stats.weight_syncs += 1;
            // The learner tracks its loss exactly when telemetry is
            // enabled, which is when the introspection state exists.
            if let (Some(intro), Some(loss)) = (self.introspect.as_deref_mut(), learner.last_loss())
            {
                intro
                    .registry
                    .series_push("rl.train_loss", learner.train_steps, f64::from(loss));
            }
        }
    }

    /// Makes placement decisions for a whole batch of requests at once,
    /// amortizing NN inference across the batch: the greedy decisions not
    /// already taken under the current weights (see [`DecisionCore`]) run
    /// through one [`sibyl_nn::Mlp::infer_batch`] matrix-matrix pass
    /// instead of one matrix-vector pass per request. This is the
    /// decision path of the `sibyl-serve` sharded serving engine; the
    /// sequential [`PlacementPolicy::place`] and
    /// [`PlacementPolicy::feedback`] are this pair at a width of one, so
    /// they hold to the same pairing.
    ///
    /// Observations are encoded against the manager state *before* any
    /// request of the batch is served — the staleness-for-throughput
    /// trade batched serving makes (request *k* of a batch does not see
    /// the residency/capacity effects of requests `0..k`). RNG
    /// consumption and ε-greedy annealing run request for request
    /// whatever the batch size, and the batched network outputs are
    /// bit-identical to per-request inference.
    ///
    /// Every `place_batch` call must be paired with a
    /// [`SibylAgent::feedback_batch`] call carrying the outcomes of the
    /// returned placements, in order.
    ///
    /// # Panics
    ///
    /// Panics if the previous batch was never completed with
    /// [`SibylAgent::feedback_batch`].
    pub fn place_batch(&mut self, reqs: &[IoRequest], manager: &StorageManager) -> Vec<DeviceId> {
        assert!(
            self.outstanding == 0,
            "place_batch: previous batch still awaits feedback_batch"
        );
        if reqs.is_empty() {
            return Vec::new();
        }
        let mut rt = self
            .runtime
            .take()
            .unwrap_or_else(|| Box::new(Runtime::new(&self.config, manager)));
        let Runtime {
            encoder,
            core,
            learner,
            rows,
            ..
        } = &mut *rt;
        let obs_len = encoder.observation_len();
        rows.clear();
        for req in reqs {
            encoder.observe_into(req, manager, rows);
        }
        // The previous call's last decision closes on its next state —
        // first, as the push can train the network this batch decides on.
        if let Some(exp) = core.close(&rows[..obs_len]) {
            self.push_experience(learner, exp);
        }
        let actions = core.act(learner.inference(), rows);
        if let Some(intro) = self.introspect.as_deref_mut() {
            intro.last_argmax_entropy = argmax_entropy(actions, manager.num_devices());
        }
        let targets = actions.iter().map(|&action| DeviceId(action)).collect();
        self.stats.decisions = core.decisions();
        self.stats.explorations = core.explorations();
        self.outstanding = reqs.len();
        self.runtime = Some(rt);
        targets
    }

    /// Completes the current batch: shapes one reward per outcome, chains
    /// experiences within the batch (`⟨O_i, a_i, r_i, O_{i+1}⟩`), and
    /// leaves the batch's last decision open until the next batch
    /// supplies its next-state observation. Runs due training steps and
    /// weight adoptions as the experiences are pushed.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes.len()` differs from the preceding
    /// [`SibylAgent::place_batch`] call's request count.
    pub fn feedback_batch(&mut self, outcomes: &[AccessOutcome]) {
        assert_eq!(
            outcomes.len(),
            self.outstanding,
            "feedback_batch: one outcome per batched decision required"
        );
        // An empty round (paired with an empty place_batch) is a no-op; it
        // must not disturb the still-open decision of a previous batch.
        if outcomes.is_empty() {
            return;
        }
        let Some(mut rt) = self.runtime.take() else {
            return;
        };
        self.outstanding = 0;
        let Runtime {
            core,
            learner,
            shaper,
            rewards,
            ..
        } = &mut *rt;
        rewards.clear();
        rewards.extend(outcomes.iter().map(|o| shaper.reward(o)));
        for exp in core.settle(rewards) {
            self.push_experience(learner, exp);
        }
        self.runtime = Some(rt);
    }

    /// Enables (or, with `0.0`, disables) the experience tap: the given
    /// fraction of subsequently collected experiences is copied aside for
    /// a shared replay pool, retrievable with
    /// [`SibylAgent::take_published`]. Selection is a deterministic
    /// stride over the experience sequence — no RNG is consumed, so
    /// enabling the tap never changes the agent's decisions.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn set_experience_tap(&mut self, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "set_experience_tap: fraction must be in [0, 1]"
        );
        self.tap_fraction = fraction;
    }

    /// Drains the experiences the tap selected since the last call (empty
    /// when the tap is disabled).
    pub fn take_published(&mut self) -> Vec<Experience> {
        std::mem::take(&mut self.tapped)
    }

    /// Pushes foreign experiences (another agent's transitions from a
    /// shared replay pool) into this agent's replay buffer. They become
    /// sampling candidates for future training steps but do **not**
    /// advance the training schedule — only locally collected experiences
    /// trigger training — and the buffer's deduplication applies as
    /// usual. No-op before the first decision (no runtime yet).
    ///
    /// # Panics
    ///
    /// Panics if an experience's observations are not as wide as this
    /// agent's (see [`Learner::push`]).
    pub fn absorb_experiences(&mut self, exps: &[Experience]) {
        let Some(rt) = self.runtime.as_mut() else {
            return;
        };
        for exp in exps {
            rt.learner.push(exp.view());
        }
        self.stats.shared_absorbed += exps.len() as u64;
    }

    /// Kept only for the frozen `benchmark/` harness, which passes
    /// `CoopConfig::foreign_weight` here: absorbed experiences train on
    /// equal footing with local ones, so the one accepted weight is 1.0,
    /// and nothing is stored.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 1.0.
    pub fn set_foreign_weight(&mut self, weight: f64) {
        assert!(weight == 1.0, "set_foreign_weight: weight must be 1.0");
    }

    /// The training network's flat parameters — this agent's contribution
    /// to cooperative weight averaging. `None` before the first decision
    /// (no runtime yet).
    pub fn export_weights(&self) -> Option<Vec<f32>> {
        Some(self.runtime.as_ref()?.learner.flat_params())
    }

    /// Adopts externally averaged parameters: overwrites the training
    /// and inference networks, so the next decision and the next
    /// training step both start from the adopted weights.
    /// Returns `false` (and changes nothing) before the first decision.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the network's parameter
    /// count.
    pub fn import_weights(&mut self, params: &[f32]) -> bool {
        let Some(rt) = self.runtime.as_mut() else {
            return false;
        };
        rt.learner.set_flat_params(params);
        self.stats.weight_syncs += 1;
        true
    }

    /// Test hook: reroute this agent's learner through the
    /// pre-refactor per-sample training reference so golden tests can
    /// drive the exact old path through the public machinery. Requires
    /// the runtime to exist (one request seen) and no training to have
    /// happened yet for a meaningful comparison.
    #[cfg(test)]
    fn force_reference_training(&mut self) {
        if let Some(rt) = self.runtime.as_mut() {
            rt.learner.use_reference_train = true;
        }
    }

    /// Samples the RL introspection probe: exploration position, latest
    /// loss, replay-buffer occupancy and age distribution, and the
    /// decisiveness statistics of the most recent batch. Pure — consumes
    /// no RNG and mutates nothing, so callers may sample at any cadence
    /// without perturbing placement.
    pub fn probe(&self) -> RlProbe {
        let rt = self.runtime.as_ref();
        let (buffer_len, buffer_age) = rt.map_or((0, Log2Histogram::new()), |rt| {
            let buffer = &rt.learner.buffer;
            (buffer.len(), buffer.age_histogram())
        });
        RlProbe {
            epsilon: self.config.epsilon(self.stats.decisions),
            last_loss: rt.and_then(|rt| rt.learner.last_loss()),
            buffer_len,
            buffer_capacity: self.config.buffer_capacity,
            buffer_age,
            q_spread: rt.map_or(0.0, |rt| rt.core.q_spread()),
            argmax_entropy: self
                .introspect
                .as_deref()
                .map_or(0.0, |i| i.last_argmax_entropy),
            train_steps: self.stats.train_steps,
        }
    }

    /// Drains the agent's internal telemetry registry (the `rl.*` loss
    /// series plus the `measured.train_ns` wall-clock total), for the
    /// serving engine to fold into its shard sink at teardown. `None`
    /// when telemetry is off. The registry restarts empty and the
    /// training time counts from the previous call, so calling this
    /// mid-run partitions both rather than duplicating them.
    pub fn take_telemetry(&mut self) -> Option<Registry> {
        let intro = self.introspect.as_deref_mut()?;
        let mut registry = std::mem::take(&mut intro.registry);
        registry.counter_add(
            "measured.train_ns",
            self.stats.train_ns - intro.drained_train_ns,
        );
        intro.drained_train_ns = self.stats.train_ns;
        Some(registry)
    }
}

/// Normalized entropy (in `[0, 1]`) of the action distribution a decided
/// batch produced: 0 when every request went to one device, 1 when
/// placements split evenly across all `n_actions`.
fn argmax_entropy(actions: &[usize], n_actions: usize) -> f64 {
    if actions.is_empty() || n_actions < 2 {
        return 0.0;
    }
    let mut counts = vec![0u64; n_actions];
    for &a in actions {
        counts[a] += 1;
    }
    let total = actions.len() as f64;
    let mut h = 0.0f64;
    for &c in &counts {
        if c > 0 {
            let p = c as f64 / total;
            h -= p * p.ln();
        }
    }
    h / (n_actions as f64).ln()
}

impl PlacementPolicy for SibylAgent {
    fn name(&self) -> &str {
        "Sibyl"
    }

    /// [`SibylAgent::place_batch`] of one request.
    fn place(&mut self, req: &IoRequest, manager: &StorageManager) -> DeviceId {
        self.place_batch(std::slice::from_ref(req), manager)[0]
    }

    /// [`SibylAgent::feedback_batch`] of one outcome.
    fn feedback(&mut self, outcome: &AccessOutcome) {
        self.feedback_batch(std::slice::from_ref(outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_hss::{replay, DeviceSpec, HssConfig};
    use sibyl_trace::IoOp;

    fn manager(fast_pages: u64) -> StorageManager {
        let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
            .with_capacity_pages(vec![fast_pages, u64::MAX]);
        StorageManager::new(&cfg)
    }

    fn fast_test_config() -> SibylConfig {
        SibylConfig {
            buffer_capacity: 256,
            train_interval: 128,
            batch_size: 32,
            batches_per_step: 2,
            n_atoms: 11,
            learning_rate: 0.01,
            exploration: 0.05,
            exploration_initial: 0.3,
            exploration_decay_requests: 500,
            ..Default::default()
        }
    }

    /// Drives the agent through a request stream against a real manager,
    /// one `place`/`feedback` pair per request.
    fn drive(agent: &mut SibylAgent, mgr: &mut StorageManager, reqs: &[IoRequest]) {
        replay(agent, mgr, reqs.iter().copied(), |_, _| {});
    }

    fn hot_cold_stream(n: usize) -> Vec<IoRequest> {
        // Odd requests hammer 8 hot pages; even requests stream cold data.
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    IoRequest::new(i as u64 * 300, (i as u64) % 8, 1, IoOp::Write)
                } else {
                    IoRequest::new(i as u64 * 300, 10_000 + i as u64 * 8, 8, IoOp::Read)
                }
            })
            .collect()
    }

    /// The batch widths the agent is driven at, dividing the stream and
    /// not. Width 1 is also what `place`/`feedback` (and so `drive`) run.
    const DRIVES: [usize; 4] = [1, 7, 16, 32];

    #[test]
    fn agent_runs_and_collects_experiences() {
        for batch in DRIVES {
            let mut mgr = manager(512);
            let mut agent = SibylAgent::new(fast_test_config());
            drive_batched(&mut agent, &mut mgr, &hot_cold_stream(600), batch);
            let st = agent.stats();
            assert_eq!(st.decisions, 600, "{batch:?}");
            assert!(st.experiences >= 590, "{batch:?}: {}", st.experiences);
            assert!(st.train_steps >= 3, "{batch:?}: {}", st.train_steps);
            assert!(st.weight_syncs >= 3, "{batch:?}");
        }
    }

    #[test]
    fn exploration_rate_drives_random_actions() {
        let mut mgr = manager(512);
        let mut cfg = fast_test_config();
        cfg.exploration = 0.5;
        cfg.exploration_initial = 0.5; // constant ε
        let mut agent = SibylAgent::new(cfg);
        drive(&mut agent, &mut mgr, &hot_cold_stream(1_000));
        let frac = agent.stats().explorations as f64 / agent.stats().decisions as f64;
        assert!((frac - 0.5).abs() < 0.1, "exploration fraction {frac}");
    }

    #[test]
    fn zero_exploration_is_always_greedy() {
        let mut mgr = manager(512);
        let mut cfg = fast_test_config();
        cfg.exploration = 0.0;
        cfg.exploration_initial = 0.0;
        let mut agent = SibylAgent::new(cfg);
        drive(&mut agent, &mut mgr, &hot_cold_stream(300));
        assert_eq!(agent.stats().explorations, 0);
    }

    #[test]
    fn exploration_anneals_from_initial_to_final() {
        let mut mgr = manager(512);
        let mut cfg = fast_test_config();
        cfg.exploration = 0.0;
        cfg.exploration_initial = 1.0;
        cfg.exploration_decay_requests = 200;
        let mut agent = SibylAgent::new(cfg);
        drive(&mut agent, &mut mgr, &hot_cold_stream(1_000));
        // Expected randoms ≈ ∫ anneal = 200·0.5 = 100, none afterwards.
        let e = agent.stats().explorations;
        assert!((60..=140).contains(&e), "explorations {e}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |batch| {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(fast_test_config());
            drive_batched(&mut agent, &mut mgr, &hot_cold_stream(500), batch);
            (mgr.stats().avg_latency_us(), agent.stats().clone())
        };
        for batch in DRIVES {
            assert_eq!(
                run(batch),
                run(batch),
                "{batch:?}: a seeded agent must be deterministic"
            );
        }
    }

    #[test]
    fn learns_to_keep_hot_pages_fast() {
        // A tiny fast device that fits the hot set but not the cold
        // stream: after training, the agent should beat Slow-Only on the
        // same workload.
        let mut slow_mgr = manager(64);
        for req in hot_cold_stream(4_000).iter() {
            let _ = slow_mgr.access(req, DeviceId(1));
        }
        let slow_lat = slow_mgr.stats().avg_latency_us();
        for batch in DRIVES {
            let mut mgr = manager(64);
            let mut agent = SibylAgent::new(fast_test_config());
            drive_batched(&mut agent, &mut mgr, &hot_cold_stream(4_000), batch);
            let sibyl_lat = mgr.stats().avg_latency_us();
            assert!(
                sibyl_lat < slow_lat,
                "{batch:?}: Sibyl ({sibyl_lat:.0} µs) should beat Slow-Only ({slow_lat:.0} µs)"
            );
        }
    }

    fn tri_manager() -> StorageManager {
        let cfg = HssConfig::tri(
            DeviceSpec::optane_ssd(),
            DeviceSpec::tlc_ssd(),
            DeviceSpec::hdd(),
        )
        .with_capacity_pages(vec![64, 128, u64::MAX]);
        StorageManager::new(&cfg)
    }

    #[test]
    fn tri_device_action_space() {
        let mut mgr = tri_manager();
        let mut agent = SibylAgent::new(fast_test_config());
        let reqs = hot_cold_stream(900);
        drive(&mut agent, &mut mgr, &reqs);
        // All three devices should have received at least one placement.
        let placements = &mgr.stats().placements;
        assert_eq!(placements.len(), 3);
        assert_eq!(placements.iter().sum::<u64>(), 900);
    }

    /// Drives the agent through the batched decision path.
    fn drive_batched(
        agent: &mut SibylAgent,
        mgr: &mut StorageManager,
        reqs: &[IoRequest],
        batch: usize,
    ) {
        for chunk in reqs.chunks(batch) {
            let targets = agent.place_batch(chunk, mgr);
            let outcomes: Vec<AccessOutcome> = chunk
                .iter()
                .zip(&targets)
                .map(|(req, &t)| mgr.access(req, t))
                .collect();
            agent.feedback_batch(&outcomes);
        }
    }

    #[test]
    #[should_panic(expected = "one outcome per batched decision")]
    fn feedback_batch_rejects_mismatched_outcomes() {
        let mut mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        let reqs = hot_cold_stream(4);
        let _ = agent.place_batch(&reqs, &mgr);
        let out = mgr.access(&reqs[0], DeviceId(0));
        agent.feedback_batch(&[out]);
    }

    #[test]
    fn empty_batch_round_is_a_noop() {
        let mut mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        // A real batch, then an empty round: the empty round must not
        // drop the batch's last decision, so the follow-up batch still
        // finalizes it into an experience.
        drive_batched(&mut agent, &mut mgr, &hot_cold_stream(8), 8);
        assert_eq!(agent.place_batch(&[], &mgr), Vec::new());
        agent.feedback_batch(&[]);
        drive_batched(&mut agent, &mut mgr, &hot_cold_stream(8), 8);
        // 8 + 8 decisions; all but the final pending become experiences.
        assert_eq!(agent.stats().decisions, 16);
        assert_eq!(agent.stats().experiences, 15);
    }

    /// A `place` after an unanswered batch, or after an unanswered
    /// `place` (a batch of one), is a caller bug.
    #[test]
    fn sequential_place_rejects_outstanding_batch() {
        for lone in [false, true] {
            let panic = std::panic::catch_unwind(|| {
                let (mgr, reqs) = (manager(64), hot_cold_stream(4));
                let mut agent = SibylAgent::new(fast_test_config());
                let _ = match lone {
                    true => agent.place(&reqs[0], &mgr),
                    false => agent.place_batch(&reqs, &mgr)[0],
                };
                agent.place(&reqs[1], &mgr)
            });
            let msg = panic.expect_err("a place owed feedback must panic");
            let msg = msg.downcast_ref::<&str>().expect("a literal message");
            assert!(
                msg.contains("still awaits feedback_batch"),
                "lone {lone}: {msg}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "previous batch still awaits")]
    fn place_batch_rejects_unfinished_batch() {
        let mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        let reqs = hot_cold_stream(4);
        let _ = agent.place_batch(&reqs, &mgr);
        let _ = agent.place_batch(&reqs, &mgr);
    }

    #[test]
    fn experience_tap_publishes_requested_fraction() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        agent.set_experience_tap(0.25);
        drive(&mut agent, &mut mgr, &hot_cold_stream(800));
        let published = agent.take_published();
        let st = agent.stats();
        assert_eq!(st.shared_published, published.len() as u64);
        let frac = published.len() as f64 / st.experiences as f64;
        assert!(
            (frac - 0.25).abs() < 0.01,
            "tap fraction {frac} (published {})",
            published.len()
        );
        // Drained: a second take is empty until new experiences arrive.
        assert!(agent.take_published().is_empty());
    }

    #[test]
    fn experience_tap_does_not_change_decisions() {
        let run = |fraction: f64| {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(fast_test_config());
            agent.set_experience_tap(fraction);
            drive(&mut agent, &mut mgr, &hot_cold_stream(600));
            (mgr.stats().avg_latency_us(), agent.stats().explorations)
        };
        assert_eq!(
            run(0.0),
            run(0.5),
            "the tap must be invisible to the decision path"
        );
    }

    #[test]
    fn absorbed_experiences_enter_buffer_without_advancing_schedule() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        drive(&mut agent, &mut mgr, &hot_cold_stream(64));
        let foreign: Vec<Experience> = (0..10)
            .map(|i| Experience {
                obs: vec![0.9 - i as f32 * 0.01; 6],
                action: i % 2,
                reward: 0.5,
                next_obs: vec![0.8; 6],
            })
            .collect();
        let before_steps = agent.stats().train_steps;
        let before_exps = agent.stats().experiences;
        agent.absorb_experiences(&foreign);
        assert_eq!(agent.stats().shared_absorbed, 10);
        assert_eq!(agent.stats().train_steps, before_steps);
        assert_eq!(
            agent.stats().experiences,
            before_exps,
            "foreign experiences must not count as local collections"
        );
    }

    #[test]
    fn foreign_weight_one_leaves_training_bit_identical() {
        let run = |weight: Option<f64>| {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(fast_test_config());
            if let Some(w) = weight {
                agent.set_foreign_weight(w);
            }
            drive(&mut agent, &mut mgr, &hot_cold_stream(100));
            let foreign: Vec<Experience> = (0..24)
                .map(|i| Experience {
                    obs: vec![0.3 + i as f32 * 0.02; 6],
                    action: i % 2,
                    reward: 0.8,
                    next_obs: vec![0.35 + i as f32 * 0.02; 6],
                })
                .collect();
            agent.absorb_experiences(&foreign);
            drive(&mut agent, &mut mgr, &hot_cold_stream(400));
            agent
                .export_weights()
                .expect("a running agent exports")
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<u32>>()
        };
        assert_eq!(
            run(None),
            run(Some(1.0)),
            "weight 1.0 must leave training bit-identical"
        );
    }

    #[test]
    #[should_panic(expected = "weight must be 1.0")]
    fn foreign_weight_other_than_one_panics() {
        let mut agent = SibylAgent::new(fast_test_config());
        agent.set_foreign_weight(0.5);
    }

    /// A foreign transition of another width is refused as it is
    /// absorbed, not at this agent's next training step.
    #[test]
    #[should_panic(expected = "observation width 4 differs from the buffer's 6")]
    fn absorbing_a_ragged_experience_fails_at_once() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        drive(&mut agent, &mut mgr, &hot_cold_stream(4));
        agent.absorb_experiences(&[Experience {
            obs: vec![0.5; 4],
            action: 0,
            reward: 1.0,
            next_obs: vec![0.5; 4],
        }]);
    }

    #[test]
    fn absorb_before_first_decision_is_a_noop() {
        let mut agent = SibylAgent::new(fast_test_config());
        agent.absorb_experiences(&[Experience {
            obs: vec![0.0; 6],
            action: 0,
            reward: 1.0,
            next_obs: vec![0.0; 6],
        }]);
        assert_eq!(agent.stats().shared_absorbed, 0);
    }

    #[test]
    fn weight_export_import_roundtrip_syncs_agents() {
        let mut mgr_a = manager(256);
        let mut mgr_b = manager(256);
        let mut a = SibylAgent::new(fast_test_config());
        let mut cfg_b = fast_test_config();
        cfg_b.seed ^= 0xDEAD_BEEF;
        let mut b = SibylAgent::new(cfg_b);
        drive(&mut a, &mut mgr_a, &hot_cold_stream(300));
        drive(&mut b, &mut mgr_b, &hot_cold_stream(300));
        let wa = a.export_weights().expect("a running agent exports");
        let wb = b.export_weights().expect("a running agent exports");
        assert_ne!(wa, wb, "independently trained nets should differ");
        let syncs_before = b.stats().weight_syncs;
        assert!(b.import_weights(&wa));
        assert_eq!(b.export_weights().unwrap(), wa);
        assert_eq!(b.stats().weight_syncs, syncs_before + 1);
    }

    #[test]
    fn weight_export_unavailable_before_runtime() {
        let mut agent = SibylAgent::new(fast_test_config());
        assert!(agent.export_weights().is_none());
        assert!(!agent.import_weights(&[0.0; 4]));
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0, 1]")]
    fn tap_rejects_bad_fraction() {
        let mut agent = SibylAgent::new(fast_test_config());
        agent.set_experience_tap(1.5);
    }

    /// The end-to-end golden pin: a seeded agent trained through the
    /// batched learner produces bit-identical placement decisions,
    /// weights, and served latencies to the pre-refactor per-sample
    /// training path (kept as a `cfg(test)` reference implementation so
    /// this comparison cannot rot).
    #[test]
    fn batched_training_matches_reference_path_end_to_end() {
        let reqs = hot_cold_stream(700);
        let run = |reference: bool| {
            let mut mgr = manager(256);
            let mut agent = SibylAgent::new(SibylConfig {
                telemetry: sibyl_telemetry::TelemetryConfig::full(),
                ..fast_test_config()
            });
            let mut decisions = Vec::with_capacity(reqs.len());
            let mut record = |_: &IoRequest, o: &AccessOutcome| decisions.push(o.target);
            replay(&mut agent, &mut mgr, reqs[..1].iter().copied(), &mut record);
            if reference {
                // The runtime exists now and no training has run yet
                // (train_interval > 1), so the whole training history
                // goes through the reference path.
                agent.force_reference_training();
            }
            replay(&mut agent, &mut mgr, reqs[1..].iter().copied(), &mut record);
            let weights: Vec<u32> = agent
                .export_weights()
                .expect("a running agent exports")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (
                decisions,
                weights,
                mgr.stats().avg_latency_us().to_bits(),
                agent.stats().clone(),
                agent.probe().last_loss.map(f32::to_bits),
            )
        };
        let batched = run(false);
        let reference = run(true);
        assert!(
            batched.3.train_steps >= 4,
            "the comparison must cover several train steps: {}",
            batched.3.train_steps
        );
        assert_eq!(batched.0, reference.0, "placement decisions diverged");
        assert_eq!(batched.1, reference.1, "trained weights diverged");
        assert_eq!(batched.2, reference.2, "served latency diverged");
        assert_eq!(batched.3, reference.3, "logical stats diverged");
        assert!(batched.4.is_some(), "telemetry tracks the loss");
        assert_eq!(batched.4, reference.4, "loss diverged");
    }

    #[test]
    fn train_ns_is_accounted_but_ignored_by_equality() {
        let mut mgr = manager(512);
        let mut agent = SibylAgent::new(fast_test_config());
        drive(&mut agent, &mut mgr, &hot_cold_stream(300));
        let stats = agent.stats().clone();
        assert!(stats.train_steps > 0);
        assert!(stats.train_ns > 0, "training time must be accounted");
        let mut other = stats.clone();
        other.train_ns = stats.train_ns + 12345;
        assert_eq!(stats, other, "train_ns is telemetry, not identity");
        other.train_steps += 1;
        assert_ne!(stats, other, "logical counters still compare");
    }

    #[test]
    fn telemetry_probes_observe_without_perturbing() {
        use sibyl_telemetry::TelemetryConfig;
        let run = |telemetry: TelemetryConfig, sample: bool| {
            let mut mgr = manager(256);
            let mut cfg = fast_test_config();
            cfg.telemetry = telemetry;
            let mut agent = SibylAgent::new(cfg);
            let reqs = hot_cold_stream(600);
            let mut decisions = Vec::with_capacity(reqs.len());
            for chunk in reqs.chunks(16) {
                let targets = agent.place_batch(chunk, &mgr);
                if sample {
                    let _ = agent.probe();
                }
                let outcomes: Vec<AccessOutcome> = chunk
                    .iter()
                    .zip(&targets)
                    .map(|(req, &t)| mgr.access(req, t))
                    .collect();
                agent.feedback_batch(&outcomes);
                decisions.extend(targets);
            }
            let weights: Vec<u32> = agent
                .export_weights()
                .expect("a running agent exports")
                .iter()
                .map(|v| v.to_bits())
                .collect();
            (
                mgr.stats().avg_latency_us().to_bits(),
                agent.stats().clone(),
                agent.probe(),
                agent.take_telemetry(),
                decisions,
                weights,
            )
        };
        let off = run(TelemetryConfig::off(), false);
        let full = run(TelemetryConfig::full(), true);
        // The probes, and the training loss computed only for them, must
        // be invisible to the decision path.
        assert_eq!(off.0, full.0, "telemetry changed served latency");
        assert_eq!(off.1, full.1, "telemetry changed agent stats");
        assert_eq!(off.4, full.4, "telemetry changed a decision");
        assert_eq!(off.5, full.5, "telemetry changed a weight");
        // Off: no registry, default probe fields.
        assert!(off.3.is_none());
        assert_eq!(off.2.last_loss, None);
        assert_eq!(off.2.q_spread, 0.0);
        // Full: probes carry real learning state.
        let probe = &full.2;
        assert!(probe.last_loss.is_some(), "loss should be captured");
        assert!(probe.buffer_len > 0);
        assert_eq!(probe.buffer_capacity, 256);
        assert_eq!(probe.buffer_age.count(), probe.buffer_len as u64);
        assert!(probe.q_spread > 0.0, "greedy rows should have a Q gap");
        assert!((0.0..=1.0).contains(&probe.argmax_entropy));
        assert!(probe.train_steps >= 3);
        assert!((0.0..1.0).contains(&probe.epsilon));
        let registry = full.3.expect("full telemetry has a registry");
        let loss_series = registry.series("rl.train_loss").expect("loss series");
        assert_eq!(loss_series.len(), probe.train_steps as usize);
        assert!(registry.counter("measured.train_ns") > 0);
    }

    #[test]
    fn two_telemetry_drains_partition_what_one_would_report() {
        let mut mgr = manager(256);
        let mut cfg = fast_test_config();
        cfg.telemetry = sibyl_telemetry::TelemetryConfig::full();
        let mut agent = SibylAgent::new(cfg);
        let mut drained = (0, 0);
        for _ in 0..2 {
            drive(&mut agent, &mut mgr, &hot_cold_stream(300));
            let registry = agent.take_telemetry().expect("telemetry is on");
            assert!(registry.counter("measured.train_ns") > 0);
            drained.0 += registry.counter("measured.train_ns");
            drained.1 += registry.series("rl.train_loss").map_or(0, <[_]>::len);
        }
        let stats = agent.stats();
        assert_eq!(drained, (stats.train_ns, stats.train_steps as usize));
    }

    #[test]
    fn argmax_entropy_spans_unit_interval() {
        assert_eq!(argmax_entropy(&[], 2), 0.0);
        assert_eq!(argmax_entropy(&[0, 0, 0], 2), 0.0);
        assert_eq!(argmax_entropy(&[1, 1], 1), 0.0);
        let even = argmax_entropy(&[0, 1, 0, 1], 2);
        assert!((even - 1.0).abs() < 1e-12, "even split entropy {even}");
        let tri = argmax_entropy(&[0, 1, 2], 3);
        assert!((tri - 1.0).abs() < 1e-12);
        let skew = argmax_entropy(&[0, 0, 0, 1], 2);
        assert!(skew > 0.0 && skew < 1.0);
    }

    #[test]
    fn inference_macs_reported_after_first_request() {
        let mut mgr = manager(64);
        let mut agent = SibylAgent::new(fast_test_config());
        assert!(agent.inference_macs().is_none());
        drive(&mut agent, &mut mgr, &hot_cold_stream(2));
        let macs = agent.inference_macs().expect("runtime built");
        // 6·20 + 20·30 + 30·(2·11) = 120 + 600 + 660
        assert_eq!(macs, 1380);
    }

    /// Absolute pins. Every other test here compares one run against
    /// another inside one commit, so a refactor that shifts both sides
    /// passes them all; these FNV-1a digests of (action sequence, logical
    /// stats) hold a commit to its *parent's* decisions, for an agent
    /// driven one request at a time — through [`replay`], and through
    /// `place_batch` of one. Both drivers match one digest. A digest may
    /// change only with a behaviour change that CHANGES.md explains.
    #[test]
    fn sequential_decisions_match_the_committed_digests() {
        const DIGESTS: [(bool, u64); 2] = [
            (false, 816_240_558_327_692_238),
            (true, 10_537_976_496_901_355_160),
        ];
        let digest = |tri: bool, batched: bool| {
            let mut mgr = if tri { tri_manager() } else { manager(128) };
            let mut agent = SibylAgent::new(fast_test_config());
            let mut actions = Vec::new();
            let reqs = hot_cold_stream(700);
            if batched {
                for req in &reqs {
                    let target = agent.place_batch(std::slice::from_ref(req), &mgr)[0];
                    let outcome = mgr.access(req, target);
                    agent.feedback_batch(std::slice::from_ref(&outcome));
                    actions.push(target.0);
                }
            } else {
                replay(&mut agent, &mut mgr, reqs, |_, o| actions.push(o.target.0));
            }
            let mut stats = agent.stats().clone();
            stats.train_ns = 0;
            assert!(stats.train_steps >= 5 && stats.explorations > 0);
            format!("{actions:?}|{stats:?}")
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
                })
        };
        for (tri, pinned) in DIGESTS {
            for batched in [false, true] {
                assert_eq!(digest(tri, batched), pinned, "tri {tri}, batched {batched}");
            }
        }
    }

    /// Adoption site 2 of 2, a cooperative import: an agent that has
    /// decided (and remembers) an observation must decide on imported
    /// weights at once — and keeps what it remembers across an import of
    /// the weights it already holds (a sync round in which no member
    /// trained), which still counts as a sync. Fails if
    /// `Learner::set_flat_params` stops counting a generation, or counts
    /// one for nothing.
    #[test]
    fn imported_weights_are_decided_on_at_once() {
        let mgr = manager(64);
        let mut agent = SibylAgent::new(SibylConfig {
            exploration: 0.0,
            exploration_initial: 0.0,
            ..fast_test_config()
        });
        // Nothing is served in between, so every `place` sees one state;
        // each is answered with one fixed outcome (served on a manager of
        // its own), and at `train_interval` 128 no step trains.
        let req = IoRequest::new(0, 5, 1, IoOp::Read);
        let outcome = manager(64).access(&req, DeviceId(0));
        let place = |agent: &mut SibylAgent| {
            let target = agent.place(&req, &mgr);
            agent.feedback(&outcome);
            target
        };
        let before = place(&mut agent);
        assert_eq!(place(&mut agent), before);
        assert_eq!(agent.decision_memo(), (2, 1), "the repeat is a memo hit");
        let mut params = agent.export_weights().expect("a running agent exports");
        assert!(agent.import_weights(&params));
        assert_eq!(agent.stats().weight_syncs, 1);
        assert_eq!(place(&mut agent), before);
        assert_eq!(
            agent.decision_memo(),
            (3, 2),
            "an identical import kept the memo"
        );
        // The same network, its output biases (the last 2 × 11 parameters)
        // shifted so the device it chose puts its mass on the lowest atom
        // and the other device on the highest.
        let head = params.len() - 22;
        params[head + before.0 * 11] += 50.0;
        params[head + (1 - before.0) * 11 + 10] += 50.0;
        assert!(agent.import_weights(&params));
        assert_ne!(place(&mut agent), before, "decided from a stale memo");
        assert_eq!(
            agent.decision_memo(),
            (4, 2),
            "a differing import is a miss"
        );
        assert_eq!(agent.stats().weight_syncs, 2);
    }
}
