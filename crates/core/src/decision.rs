//! The decision core: the one ε-greedy loop of §6.2, run against a
//! *borrowed* inference network. [`SibylAgent`](crate::SibylAgent) decides
//! through it per request or batch, `sibyl-migrate`'s agent per tick; each
//! adds only its own observations, reward shaping and training cadence.
//!
//! Between two weight adoptions the greedy action is a pure function of
//! the observation, and the paper bins its features to keep observations
//! few (Table 1), so the core remembers the greedy decisions of the
//! current weight generation (`Memo`) and sends only unseen rows through
//! the network. A host-clock saving only: decisions, RNG draws and every
//! modeled cost are what they are without it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::buffer::ExperienceRef;
use crate::c51::Categorical;
use crate::config::SibylConfig;
use crate::learner::{value_head, Inference};

/// The latest decision, whose observation is the last of
/// [`DecisionCore`]'s rows until the next `act`. Its transition stays
/// open until the next observation arrives, and becomes an experience
/// only if a reward reached it first (`⟨O_t, a_t, r_t, O_{t+1}⟩`, §6
/// footnote 6).
#[derive(Debug)]
struct OpenTransition {
    action: usize,
    reward: Option<f32>,
}

/// [`Memo::actions`] of a slot holding nothing.
const EMPTY: u32 = u32::MAX;

/// The greedy decisions taken so far under one weight generation: a
/// fixed-size, direct-mapped table from an observation row to its argmax
/// action (and its Q gap, where [`DecisionCore::q_spread`] is tracked). A
/// row is keyed by the bit patterns of its `f32`s, compared exactly — not
/// by [`Observation::packed`](crate::Observation::packed), which leaves out
/// the tri-HSS capacity features and which the migration agent's rows do
/// not have — so a hit is what the network would have answered. A row
/// that maps to a taken slot overwrites it.
#[derive(Debug, Default)]
struct Memo {
    generation: u64,
    /// Slots, a power of two (0 in the property test's reference core,
    /// which then remembers nothing): no more than the decisions one
    /// generation can see, `train_interval`, and no more than 4096.
    capacity: usize,
    /// `capacity × obs_len` key words; the three arrays are allocated by
    /// the first insert.
    keys: Vec<u32>,
    actions: Vec<u32>,
    /// Best − second-best Q per slot; stays empty unless tracked.
    gaps: Vec<f64>,
    lookups: u64,
    hits: u64,
}

impl Memo {
    fn slot(&self, row: &[f32]) -> usize {
        let hash = row.iter().fold(0u64, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        });
        (hash >> 40) as usize & (self.capacity - 1)
    }

    /// The slot holding `row`'s decision, if it is remembered.
    fn get(&mut self, row: &[f32]) -> Option<usize> {
        self.lookups += 1;
        if self.actions.is_empty() {
            return None;
        }
        let slot = self.slot(row);
        let key = &self.keys[slot * row.len()..(slot + 1) * row.len()];
        let hit =
            self.actions[slot] != EMPTY && key.iter().zip(row).all(|(k, v)| *k == v.to_bits());
        self.hits += u64::from(hit);
        hit.then_some(slot)
    }

    fn insert(&mut self, row: &[f32], action: usize, gap: Option<f64>) {
        if self.capacity == 0 {
            return;
        }
        if self.actions.is_empty() {
            self.keys.resize(self.capacity * row.len(), 0);
            self.actions.resize(self.capacity, EMPTY);
            self.gaps.resize(gap.map_or(0, |_| self.capacity), 0.0);
        }
        let slot = self.slot(row);
        let key = &mut self.keys[slot * row.len()..(slot + 1) * row.len()];
        key.iter_mut().zip(row).for_each(|(k, v)| *k = v.to_bits());
        self.actions[slot] = action as u32;
        if let Some(gap) = gap {
            self.gaps[slot] = gap;
        }
    }
}

/// ε-greedy action selection plus the bookkeeping that turns a stream of
/// decisions and rewards into experiences.
///
/// A caller alternates [`DecisionCore::close`] (with the first new
/// observation — *before* deciding, so an experience that triggers training
/// does so ahead of the decision it can affect), [`DecisionCore::act`], and
/// either [`DecisionCore::settle`] (a reward per decision of the `act`) or
/// [`DecisionCore::set_reward`] (the latest decision only).
#[derive(Debug)]
pub struct DecisionCore {
    config: SibylConfig,
    head: Categorical,
    n_actions: usize,
    rng: StdRng,
    decisions: u64,
    explorations: u64,
    /// Observation rows (row-major) and actions of the latest `act`, and
    /// how many of its decisions still await [`DecisionCore::settle`].
    rows: Vec<f32>,
    actions: Vec<usize>,
    unsettled: usize,
    open: Option<OpenTransition>,
    q_spread: f64,
    memo: Memo,
    /// Workspace of [`DecisionCore::act`], kept so a call allocates
    /// nothing once it has grown: the positions and rows the memo missed,
    /// their logits and the network's inter-layer scratch, the head's
    /// softmax and Q-value buffers, and (tracked only) each row's Q gap.
    misses: Vec<usize>,
    miss_rows: Vec<f32>,
    logits: Vec<f32>,
    scratch: Vec<f32>,
    probs: Vec<f32>,
    q: Vec<f32>,
    gaps: Vec<f64>,
}

impl DecisionCore {
    /// Creates the core for `n_actions` actions: value head and ε schedule
    /// from `config`, action RNG from `seed`.
    pub fn new(config: &SibylConfig, n_actions: usize, seed: u64) -> Self {
        DecisionCore {
            config: config.clone(),
            head: value_head(config, n_actions),
            n_actions,
            rng: StdRng::seed_from_u64(seed),
            decisions: 0,
            explorations: 0,
            rows: Vec::new(),
            actions: Vec::new(),
            unsettled: 0,
            open: None,
            q_spread: 0.0,
            memo: Memo {
                capacity: config.train_interval.min(4096).next_power_of_two() as usize,
                ..Memo::default()
            },
            misses: Vec::new(),
            miss_rows: Vec::new(),
            logits: Vec::new(),
            scratch: Vec::new(),
            probs: Vec::new(),
            q: Vec::new(),
            gaps: Vec::new(),
        }
    }

    /// Decisions made so far (the ε schedule's clock).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Decisions taken by random exploration (ε branch).
    pub fn explorations(&self) -> u64 {
        self.explorations
    }

    /// Mean (best − second-best) Q-value gap over the greedy rows of the
    /// latest [`DecisionCore::act`] that had any; tracked only with
    /// telemetry on, 0 otherwise.
    pub fn q_spread(&self) -> f64 {
        self.q_spread
    }

    /// Greedy rows looked up in the decision memo so far — a host-side
    /// count for tests and benches, not part of any report.
    pub fn memo_lookups(&self) -> u64 {
        self.memo.lookups
    }

    /// The lookups that found their row already decided under the
    /// current weight generation and so skipped the network.
    pub fn memo_hits(&self) -> u64 {
        self.memo.hits
    }

    /// Closes the open transition against `next_obs`, the observation
    /// that followed it: the finished experience, or `None` when nothing
    /// was open or no reward reached the decision (it is dropped).
    pub fn close<'a>(&'a mut self, next_obs: &'a [f32]) -> Option<ExperienceRef<'a>> {
        let open = self.open.take()?;
        let obs_len = self.rows.len() / self.actions.len();
        Some(ExperienceRef {
            obs: &self.rows[self.rows.len() - obs_len..],
            action: open.action,
            reward: open.reward?,
            next_obs,
        })
    }

    /// Decides one action per observation row of `rows` (row-major,
    /// `inference.net.in_dim()` wide), in order: per row one exploration
    /// coin at the schedule's current ε and, on heads, one uniform action
    /// draw; every other row is looked up in the memo of
    /// `inference.generation`, and the rows it has not seen go through the
    /// network in one batched pass, take the argmax of their Q-values —
    /// bit-identically to per-row inference — and are remembered. A new
    /// generation empties the memo first. The last decision becomes the
    /// open transition. The core keeps its own copy of `rows`, in a buffer
    /// reused from call to call.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or not a whole number of observations.
    pub fn act(&mut self, inference: Inference<'_>, rows: &[f32]) -> &[usize] {
        let Inference { net, generation } = inference;
        let obs_len = net.in_dim();
        assert!(
            !rows.is_empty() && rows.len().is_multiple_of(obs_len),
            "DecisionCore::act: rows must be whole observations"
        );
        if generation != self.memo.generation {
            self.memo.generation = generation;
            self.memo.actions.fill(EMPTY);
        }
        // Telemetry introspection, read off the Q-values the argmax
        // ranks: no RNG consumed, no decision changed.
        let track = self.config.telemetry.enabled();
        let n = rows.len() / obs_len;
        self.actions.clear();
        self.actions.reserve(n);
        self.rows.clear();
        self.rows.extend_from_slice(rows);
        self.misses.clear();
        self.miss_rows.clear();
        self.gaps.clear();
        self.gaps.resize(if track { n } else { 0 }, 0.0);
        let explored = self.explorations;
        for row in self.rows.chunks_exact(obs_len) {
            if self.rng.gen::<f64>() < self.config.epsilon(self.decisions) {
                self.explorations += 1;
                self.actions.push(self.rng.gen_range(0..self.n_actions));
            } else if let Some(slot) = self.memo.get(row) {
                if track {
                    self.gaps[self.actions.len()] = self.memo.gaps[slot];
                }
                self.actions.push(self.memo.actions[slot] as usize);
            } else {
                self.misses.push(self.actions.len());
                self.miss_rows.extend_from_slice(row);
                self.actions.push(0);
            }
            self.decisions += 1;
        }
        if !self.misses.is_empty() {
            let missed = self.misses.len();
            net.infer_batch_into(&self.miss_rows, missed, &mut self.scratch, &mut self.logits);
            let logits = self.logits.chunks_exact(net.out_dim());
            let rows = self.miss_rows.chunks_exact(obs_len);
            for ((logits, row), &i) in logits.zip(rows).zip(&self.misses) {
                self.head
                    .q_values_into(logits, &mut self.probs, &mut self.q);
                let q = &self.q;
                // sibyl-lint: allow(unwrap-in-lib) -- invariant: q_values_into yields n_actions > 0 entries
                let best = sibyl_nn::argmax(q).expect("at least one action");
                self.actions[i] = best;
                let gap = track.then(|| {
                    let rest = q.iter().enumerate().filter(|&(a, _)| a != best);
                    let second = rest.fold(f32::NEG_INFINITY, |m, (_, &v)| m.max(v));
                    if second.is_finite() {
                        f64::from(q[best]) - f64::from(second)
                    } else {
                        0.0
                    }
                });
                if let Some(gap) = gap {
                    self.gaps[i] = gap;
                }
                self.memo.insert(row, best, gap);
            }
        }
        // Summed in row order from `+0.0`; the `0.0` of an explored row
        // (or of one with no finite runner-up) adds nothing, bit for bit.
        let greedy = n as u64 - (self.explorations - explored);
        if track && greedy > 0 {
            self.q_spread = self.gaps.iter().fold(0.0, |sum, gap| sum + gap) / greedy as f64;
        }
        self.open = Some(OpenTransition {
            action: self.actions[n - 1],
            reward: None,
        });
        self.unsettled = n;
        &self.actions
    }

    /// Delivers (or, with `None`, withdraws) the reward of the open
    /// transition. No-op when nothing is open.
    pub fn set_reward(&mut self, reward: Option<f32>) {
        if let Some(open) = self.open.as_mut() {
            open.reward = reward;
        }
    }

    /// Delivers one reward per decision of the latest
    /// [`DecisionCore::act`]: the last takes its reward and stays open for
    /// the next [`DecisionCore::close`]; every earlier one closes against
    /// its successor's observation, yielded in order by the returned
    /// iterator, which borrows the batch's rows from the core.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len()` is not the number of decisions the
    /// latest `act` made, or that `act` was settled before.
    pub fn settle<'a>(
        &'a mut self,
        rewards: &'a [f32],
    ) -> impl Iterator<Item = ExperienceRef<'a>> + 'a {
        assert_eq!(
            rewards.len(),
            self.unsettled,
            "DecisionCore::settle: one reward per decision of the latest act required"
        );
        self.unsettled = 0;
        if let Some(&last) = rewards.last() {
            self.set_reward(Some(last));
        }
        let (rows, actions) = (&self.rows, &self.actions);
        let obs_len = rows.len() / rewards.len().max(1);
        (1..rewards.len()).map(move |i| ExperienceRef {
            obs: &rows[(i - 1) * obs_len..i * obs_len],
            action: actions[i - 1],
            reward: rewards[i - 1],
            next_obs: &rows[i * obs_len..(i + 1) * obs_len],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::Learner;
    use proptest::prelude::*;

    fn core(exploration: f64, n_actions: usize, obs_len: usize) -> (Learner, DecisionCore) {
        let cfg = SibylConfig {
            exploration,
            exploration_initial: exploration,
            n_atoms: 11,
            ..Default::default()
        };
        let core = DecisionCore::new(&cfg, n_actions, 9);
        (Learner::new(&cfg, n_actions, obs_len), core)
    }

    #[test]
    fn a_transition_needs_a_reward_and_a_successor_to_close() {
        let (learner, mut core) = core(0.0, 3, 4);
        assert!(core.close(&[0.0; 4]).is_none(), "nothing open yet");
        let first = core.act(learner.inference(), &[0.1; 4])[0];
        assert!(core.close(&[0.2; 4]).is_none(), "unrewarded: dropped");
        let _ = core.act(learner.inference(), &[0.1; 4]);
        core.set_reward(Some(0.7));
        core.set_reward(None);
        assert!(core.close(&[0.3; 4]).is_none(), "reward withdrawn");
        let _ = core.act(learner.inference(), &[0.1; 4]);
        core.set_reward(Some(0.7));
        let exp = core.close(&[0.3; 4]).expect("rewarded and succeeded");
        assert_eq!(
            (exp.obs, exp.action, exp.reward, exp.next_obs),
            (&[0.1; 4][..], first, 0.7, &[0.3; 4][..])
        );
        assert!(core.close(&[0.3; 4]).is_none(), "closed only once");
        assert_eq!((core.decisions(), core.explorations()), (3, 0));
    }

    #[test]
    fn settle_chains_a_batch_and_leaves_its_last_decision_open() {
        let (learner, mut core) = core(1.0, 2, 2);
        let rows = [0.0, 0.1, 1.0, 1.1, 2.0, 2.1];
        let actions = core.act(learner.inference(), &rows).to_vec();
        assert_eq!(core.explorations(), 3, "ε = 1 explores every row");
        let rewards = [0.5, 0.6, 0.7];
        let closed: Vec<_> = core.settle(&rewards).collect();
        assert_eq!(closed.len(), 2);
        for (i, exp) in closed.iter().enumerate() {
            assert_eq!(exp.obs, &rows[2 * i..2 * i + 2]);
            assert_eq!(exp.next_obs, &rows[2 * i + 2..2 * i + 4]);
            assert_eq!((exp.action, exp.reward), (actions[i], rewards[i]));
        }
        assert_eq!(core.settle(&[]).count(), 0, "nothing left to settle");
        let last = core.close(&[3.0, 3.1]).expect("last decision rewarded");
        assert_eq!((last.obs, last.reward), (&[2.0, 2.1][..], 0.7));
    }

    /// Adoption site 1 of 2, the end of a training step: a
    /// core that has decided (and remembers) an observation must see the
    /// step that flips its argmax. Fails if `Learner::train_step` stops
    /// counting a generation.
    #[test]
    fn a_train_step_starts_a_new_generation() {
        let cfg = SibylConfig {
            exploration: 0.0,
            exploration_initial: 0.0,
            learning_rate: 0.05,
            batch_size: 16,
            batches_per_step: 2,
            buffer_capacity: 64,
            n_atoms: 11,
            ..Default::default()
        };
        let mut learner = Learner::new(&cfg, 2, 4);
        let mut core = DecisionCore::new(&cfg, 2, 9);
        let obs = vec![0.25f32, 0.5, 0.75, 1.0];
        let before = core.act(learner.inference(), &obs)[0];
        assert_eq!(core.act(learner.inference(), &obs)[0], before);
        assert_eq!((core.memo_lookups(), core.memo_hits()), (2, 1));
        // Reward only the action the untrained network does not take.
        for i in 0..64 {
            let (action, jitter) = (i % 2, i as f32 * 1e-4);
            let obs = [0.25 + jitter, 0.5, 0.75, 1.0];
            learner.push(ExperienceRef {
                obs: &obs,
                action,
                reward: if action == before { 0.0 } else { 1.0 },
                next_obs: &obs,
            });
        }
        for _ in 0..200 {
            assert!(learner.train_step(), "buffer non-empty");
        }
        let fresh = DecisionCore::new(&cfg, 2, 9).act(learner.inference(), &obs)[0];
        assert_ne!(fresh, before, "training must flip the argmax");
        assert_eq!(core.act(learner.inference(), &obs)[0], fresh, "stale memo");
        assert_eq!(core.memo_hits(), 1, "a new generation starts empty");
    }

    /// Steps of the invisibility property: per step a batch of rows drawn
    /// from a 12-row alphabet, and whether the weights change first.
    fn steps() -> impl Strategy<Value = Vec<(Vec<usize>, bool)>> {
        let step = (
            proptest::collection::vec(0usize..12, 1..10),
            proptest::bool::ANY,
        );
        proptest::collection::vec(step, 1..40)
    }

    proptest! {
        /// The memo is invisible: a core with an 8-slot table (12 distinct
        /// rows, so hits, conflicts and overwrites all happen) and one
        /// whose table holds nothing agree at every step on the actions,
        /// the counters, the RNG position, `q_spread` to the bit and the
        /// experiences `close` and `settle` yield — across weight changes,
        /// with exploration on, at `Full` telemetry.
        #[test]
        fn the_memo_changes_nothing_but_the_work(
            seed in 0u64..1_000,
            exploration in 0usize..3,
            steps in steps(),
        ) {
            let exploration = [0.0, 0.1, 0.5][exploration];
            let cfg = SibylConfig {
                exploration,
                exploration_initial: exploration,
                n_atoms: 11,
                train_interval: 8,
                telemetry: sibyl_telemetry::TelemetryConfig::full(),
                seed,
                ..Default::default()
            };
            let learners = [
                Learner::new(&cfg, 3, 5),
                Learner::new(&SibylConfig { seed: seed ^ 0xABCD, ..cfg.clone() }, 3, 5),
            ];
            let alphabet: Vec<f32> = (0..12 * 5).map(|i| ((i * 7 + i / 5) % 9) as f32 / 8.0).collect();
            let mut memo = DecisionCore::new(&cfg, 3, seed);
            let mut plain = DecisionCore::new(&cfg, 3, seed);
            plain.memo.capacity = 0;
            let mut generation = 0;
            for (picks, new_weights) in steps {
                generation += u64::from(new_weights);
                let inference = Inference {
                    net: learners[generation as usize % 2].inference().net,
                    generation,
                };
                let rows: Vec<f32> = picks
                    .iter()
                    .flat_map(|&p| alphabet[p * 5..(p + 1) * 5].iter().copied())
                    .collect();
                prop_assert_eq!(memo.close(&rows[..5]), plain.close(&rows[..5]));
                let actions = memo.act(inference, &rows).to_vec();
                prop_assert_eq!(&actions[..], plain.act(inference, &rows));
                prop_assert_eq!(memo.q_spread().to_bits(), plain.q_spread().to_bits());
                prop_assert_eq!(
                    (memo.decisions(), memo.explorations(), memo.rng.clone().gen::<u64>()),
                    (plain.decisions(), plain.explorations(), plain.rng.clone().gen::<u64>())
                );
                let rewards: Vec<f32> = picks.iter().map(|&p| p as f32 * 0.1).collect();
                let settled: Vec<_> = memo.settle(&rewards).collect();
                prop_assert_eq!(settled, plain.settle(&rewards).collect::<Vec<_>>());
            }
            prop_assert_eq!(memo.memo_lookups(), plain.memo_lookups());
            prop_assert_eq!(plain.memo_hits(), 0);
        }
    }

    /// The property above bites: on a stream that repeats rows under one
    /// generation, the 8-slot table does hit, and does get overwritten.
    #[test]
    fn a_small_table_hits_and_is_overwritten() {
        let cfg = SibylConfig {
            exploration: 0.0,
            exploration_initial: 0.0,
            n_atoms: 11,
            train_interval: 8,
            ..Default::default()
        };
        let learner = Learner::new(&cfg, 2, 2);
        let mut core = DecisionCore::new(&cfg, 2, 1);
        assert_eq!(core.memo.capacity, 8);
        // 32 distinct rows through 8 slots, twice: every slot is taken
        // over several times, so the second round cannot hit them all.
        for _ in 0..2 {
            for i in 0..32 {
                let _ = core.act(learner.inference(), &[i as f32, 0.5]);
            }
        }
        assert!(core.memo_hits() < 32, "hits: {}", core.memo_hits());
        // ... while a row asked again at once is remembered.
        let hits = core.memo_hits();
        let _ = core.act(learner.inference(), &[31.0, 0.5, 31.0, 0.5]);
        assert!(core.memo_hits() > hits);
        assert_eq!(core.memo_lookups(), 66);
    }
}
