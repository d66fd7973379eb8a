//! The decision core: the one ε-greedy loop of §6.2, run against a
//! *borrowed* inference network. [`SibylAgent`](crate::SibylAgent) decides
//! through it per request or batch, `sibyl-migrate`'s agent per tick; each
//! adds only its own observations, reward shaping and training cadence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sibyl_nn::Mlp;

use crate::buffer::Experience;
use crate::config::{QuantMode, SibylConfig};
use crate::learner::ValueHead;

/// The latest decision. Its transition stays open until the next
/// observation arrives, and becomes an experience only if a reward
/// reached it first (`⟨O_t, a_t, r_t, O_{t+1}⟩`, §6 footnote 6).
#[derive(Debug)]
struct OpenTransition {
    obs: Vec<f32>,
    action: usize,
    reward: Option<f32>,
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
    head: ValueHead,
    n_actions: usize,
    rng: StdRng,
    decisions: u64,
    explorations: u64,
    /// Observation rows (row-major) and actions of the latest `act`.
    rows: Vec<f32>,
    actions: Vec<usize>,
    open: Option<OpenTransition>,
    q_spread: f64,
}

impl DecisionCore {
    /// Creates the core for `n_actions` actions: value head, ε schedule
    /// and inference precision from `config`, action RNG from `seed`.
    pub fn new(config: &SibylConfig, n_actions: usize, seed: u64) -> Self {
        DecisionCore {
            config: config.clone(),
            head: ValueHead::new(config, n_actions),
            n_actions,
            rng: StdRng::seed_from_u64(seed),
            decisions: 0,
            explorations: 0,
            rows: Vec::new(),
            actions: Vec::new(),
            open: None,
            q_spread: 0.0,
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
    /// latest [`DecisionCore::act`] that had any; tracked only at `Full`
    /// telemetry, 0 otherwise.
    pub fn q_spread(&self) -> f64 {
        self.q_spread
    }

    /// Closes the open transition against `next_obs`, the observation
    /// that followed it: the finished experience, or `None` when nothing
    /// was open or no reward reached the decision (it is dropped).
    pub fn close(&mut self, next_obs: &[f32]) -> Option<Experience> {
        let open = self.open.take()?;
        Some(Experience {
            obs: open.obs,
            action: open.action,
            reward: open.reward?,
            next_obs: next_obs.to_vec(),
        })
    }

    /// Decides one action per observation row of `rows` (row-major,
    /// `net.in_dim()` wide), in order: per row one exploration coin at
    /// the schedule's current ε and, on heads, one uniform action draw;
    /// the other rows go through `net` in one batched pass (binary16
    /// weights under [`QuantMode::F16`]) and take the argmax of their
    /// Q-values, bit-identically to per-row inference. The last decision
    /// becomes the open transition.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or not a whole number of observations.
    pub fn act(&mut self, net: &Mlp, rows: Vec<f32>) -> &[usize] {
        let obs_len = net.in_dim();
        assert!(
            !rows.is_empty() && rows.len().is_multiple_of(obs_len),
            "DecisionCore::act: rows must be whole observations"
        );
        self.actions.clear();
        self.actions.reserve(rows.len() / obs_len);
        self.rows = rows;
        let (mut greedy, mut greedy_rows) = (Vec::new(), Vec::new());
        for row in self.rows.chunks_exact(obs_len) {
            if self.rng.gen::<f64>() < self.config.epsilon(self.decisions) {
                self.explorations += 1;
                self.actions.push(self.rng.gen_range(0..self.n_actions));
            } else {
                greedy.push(self.actions.len());
                greedy_rows.extend_from_slice(row);
                self.actions.push(0);
            }
            self.decisions += 1;
        }
        if !greedy.is_empty() {
            let logits = match self.config.quant_mode {
                QuantMode::Off => net.infer_batch(&greedy_rows, greedy.len()),
                QuantMode::F16 => net.infer_batch_f16(&greedy_rows, greedy.len()),
            };
            // Full-level introspection, read off the Q-values the argmax
            // ranks: no RNG consumed, no decision changed.
            let track = self.config.telemetry.histograms();
            let (mut probs, mut q) = (Vec::new(), Vec::new());
            let mut spread = 0.0;
            for (row, &i) in logits.chunks_exact(net.out_dim()).zip(&greedy) {
                self.head.q_values_into(row, &mut probs, &mut q);
                // sibyl-lint: allow(unwrap-in-lib) -- invariant: q_values_into yields n_actions > 0 entries
                let best = sibyl_nn::argmax(&q).expect("at least one action");
                self.actions[i] = best;
                if track {
                    let rest = q.iter().enumerate().filter(|&(a, _)| a != best);
                    let second = rest.fold(f32::NEG_INFINITY, |m, (_, &v)| m.max(v));
                    if second.is_finite() {
                        spread += f64::from(q[best]) - f64::from(second);
                    }
                }
            }
            if track {
                self.q_spread = spread / greedy.len() as f64;
            }
        }
        self.open = Some(OpenTransition {
            obs: self.rows[self.rows.len() - obs_len..].to_vec(),
            action: self.actions[self.actions.len() - 1],
            reward: None,
        });
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
    /// iterator (which owns what it reads, so the core stays usable).
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len()` is not the number of decisions the
    /// latest `act` made, or that `act` was settled before.
    pub fn settle<'a>(&mut self, rewards: &'a [f32]) -> impl Iterator<Item = Experience> + 'a {
        assert_eq!(
            rewards.len(),
            self.actions.len(),
            "DecisionCore::settle: one reward per decision of the latest act required"
        );
        if let Some(&last) = rewards.last() {
            self.set_reward(Some(last));
        }
        let rows = std::mem::take(&mut self.rows);
        let actions = std::mem::take(&mut self.actions);
        let obs_len = rows.len() / rewards.len().max(1);
        (1..rewards.len()).map(move |i| Experience {
            obs: rows[(i - 1) * obs_len..i * obs_len].to_vec(),
            action: actions[i - 1],
            reward: rewards[i - 1],
            next_obs: rows[i * obs_len..(i + 1) * obs_len].to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::learner::Learner;

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
        let first = core.act(learner.inference(), vec![0.1; 4])[0];
        assert!(core.close(&[0.2; 4]).is_none(), "unrewarded: dropped");
        let _ = core.act(learner.inference(), vec![0.1; 4]);
        core.set_reward(Some(0.7));
        core.set_reward(None);
        assert!(core.close(&[0.3; 4]).is_none(), "reward withdrawn");
        let _ = core.act(learner.inference(), vec![0.1; 4]);
        core.set_reward(Some(0.7));
        let exp = core.close(&[0.3; 4]).expect("rewarded and succeeded");
        assert_eq!(
            (exp.obs, exp.action, exp.reward, exp.next_obs),
            (vec![0.1; 4], first, 0.7, vec![0.3; 4])
        );
        assert!(core.close(&[0.3; 4]).is_none(), "closed only once");
        assert_eq!((core.decisions(), core.explorations()), (3, 0));
    }

    #[test]
    fn settle_chains_a_batch_and_leaves_its_last_decision_open() {
        let (learner, mut core) = core(1.0, 2, 2);
        let rows = [0.0, 0.1, 1.0, 1.1, 2.0, 2.1];
        let actions = core.act(learner.inference(), rows.to_vec()).to_vec();
        assert_eq!(core.explorations(), 3, "ε = 1 explores every row");
        let rewards = [0.5, 0.6, 0.7];
        let closed: Vec<_> = core.settle(&rewards).collect();
        assert_eq!(closed.len(), 2);
        for (i, exp) in closed.iter().enumerate() {
            assert_eq!(exp.obs, rows[2 * i..2 * i + 2]);
            assert_eq!(exp.next_obs, rows[2 * i + 2..2 * i + 4]);
            assert_eq!((exp.action, exp.reward), (actions[i], rewards[i]));
        }
        assert_eq!(core.settle(&[]).count(), 0, "nothing left to settle");
        let last = core.close(&[3.0, 3.1]).expect("last decision rewarded");
        assert_eq!((last.obs, last.reward), (vec![2.0, 2.1], 0.7));
    }
}
