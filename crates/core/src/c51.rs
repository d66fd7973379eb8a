//! Categorical distributional Q-learning (C51, Bellemare et al. 2017).
//!
//! Sibyl uses a Categorical Deep Q-Network "to learn the *distribution*
//! of Q-values, whereas other variants of Deep Q-Networks aim to
//! approximate a single value" (§6.2.1). The network emits `|A| × N`
//! logits; soft-maxing each action's block yields a categorical
//! distribution over a fixed value support `z_0..z_{N−1}`, and
//! `Q(s, a) = Σ z_i · p_i(s, a)`. Training projects the Bellman-updated
//! distribution `r + γ·z` back onto the support and minimizes
//! cross-entropy.

use sibyl_nn::softmax;

/// The categorical value head shared by the training and inference
/// networks.
///
/// # Examples
///
/// ```
/// use sibyl_core::Categorical;
/// let c = Categorical::new(2, 11, 0.0, 10.0);
/// assert_eq!(c.n_outputs(), 22);
/// // Uniform logits -> Q equals the support's mean for both actions.
/// let logits = vec![0.0; 22];
/// let q = c.q_values(&logits);
/// assert!((q[0] - 5.0).abs() < 1e-4);
/// assert!((q[1] - 5.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    n_actions: usize,
    n_atoms: usize,
    v_min: f32,
    v_max: f32,
    dz: f32,
    support: Vec<f32>,
}

impl Categorical {
    /// Creates a head for `n_actions` actions over `n_atoms` atoms
    /// spanning `[v_min, v_max]`.
    ///
    /// # Panics
    ///
    /// Panics if `n_actions == 0`, `n_atoms < 2`, or `v_max <= v_min`.
    pub fn new(n_actions: usize, n_atoms: usize, v_min: f32, v_max: f32) -> Self {
        assert!(n_actions > 0, "Categorical: need at least one action");
        assert!(n_atoms >= 2, "Categorical: need at least two atoms");
        assert!(v_max > v_min, "Categorical: v_max must exceed v_min");
        let dz = (v_max - v_min) / (n_atoms - 1) as f32;
        let support = (0..n_atoms).map(|i| v_min + i as f32 * dz).collect();
        Categorical {
            n_actions,
            n_atoms,
            v_min,
            v_max,
            dz,
            support,
        }
    }

    /// Number of actions.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }

    /// Number of support atoms.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Total network outputs required (`n_actions × n_atoms`).
    pub fn n_outputs(&self) -> usize {
        self.n_actions * self.n_atoms
    }

    /// The fixed value support.
    pub fn support(&self) -> &[f32] {
        &self.support
    }

    /// Softmax distribution of one action's logit block.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()` or `action` is out of
    /// range.
    pub fn action_distribution(&self, logits: &[f32], action: usize) -> Vec<f32> {
        let mut p = Vec::new();
        self.block_probs(logits, action, &mut p);
        p
    }

    /// [`Categorical::action_distribution`] refilling a caller-owned
    /// `probs` — the one place a logit block is soft-maxed.
    fn block_probs(&self, logits: &[f32], action: usize, probs: &mut Vec<f32>) {
        assert_eq!(logits.len(), self.n_outputs(), "logit length mismatch");
        assert!(action < self.n_actions, "action out of range");
        softmax(
            &logits[action * self.n_atoms..(action + 1) * self.n_atoms],
            probs,
        );
    }

    /// Soft-maxes one action's logit block into `probs` and returns its
    /// expected value `Q(s, a) = Σ zᵢ pᵢ` — the building block shared by
    /// the decide path ([`Categorical::q_values`]) and the training head
    /// ([`Categorical::batch_targets`]). Allocates nothing once `probs` has
    /// grown to `n_atoms`.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()` or `action` is out of
    /// range.
    fn action_value(&self, logits: &[f32], action: usize, probs: &mut Vec<f32>) -> f32 {
        self.block_probs(logits, action, probs);
        probs.iter().zip(&self.support).map(|(p, z)| p * z).sum()
    }

    /// Expected value per action: `Q(s, a) = Σ zᵢ pᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()`.
    pub fn q_values(&self, logits: &[f32]) -> Vec<f32> {
        let (mut probs, mut q) = (Vec::new(), Vec::new());
        self.q_values_into(logits, &mut probs, &mut q);
        q
    }

    /// [`Categorical::q_values`] into caller-owned buffers: `q` is
    /// refilled with one value per action, `probs` is softmax workspace.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()`.
    pub(crate) fn q_values_into(&self, logits: &[f32], probs: &mut Vec<f32>, q: &mut Vec<f32>) {
        q.clear();
        q.extend((0..self.n_actions).map(|a| self.action_value(logits, a, probs)));
    }

    /// The greedy action under the current logits.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()`.
    pub fn best_action(&self, logits: &[f32]) -> usize {
        // sibyl-lint: allow(unwrap-in-lib) -- invariant: the support always has n_actions > 0 entries
        sibyl_nn::argmax(&self.q_values(logits)).expect("n_actions > 0")
    }

    /// Projects the Bellman-updated distribution `r + γ·z` (with
    /// next-state distribution `next_probs`) onto the fixed support —
    /// the C51 categorical projection.
    ///
    /// # Panics
    ///
    /// Panics if `next_probs.len() != n_atoms`.
    pub fn project(&self, reward: f32, gamma: f32, next_probs: &[f32]) -> Vec<f32> {
        let mut m = vec![0.0f32; self.n_atoms];
        self.project_onto(reward, gamma, next_probs, &mut m);
        m
    }

    /// [`Categorical::project`] accumulating onto a caller-owned, zeroed
    /// `m` of `n_atoms` entries.
    fn project_onto(&self, reward: f32, gamma: f32, next_probs: &[f32], m: &mut [f32]) {
        assert_eq!(
            next_probs.len(),
            self.n_atoms,
            "next distribution length mismatch"
        );
        for (j, &p) in next_probs.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let tz = (reward + gamma * self.support[j]).clamp(self.v_min, self.v_max);
            let b = (tz - self.v_min) / self.dz;
            let l = b.floor();
            let u = b.ceil();
            let li = l as usize;
            let ui = (u as usize).min(self.n_atoms - 1);
            if li == ui {
                m[li] += p;
            } else {
                m[li] += p * (u - b);
                m[ui] += p * (b - l);
            }
        }
    }

    /// Cross-entropy loss and logit gradient for one sample: the target
    /// distribution applies to `action`'s block; all other blocks get zero
    /// gradient. Writes the full-width gradient into `grad` and returns
    /// the loss.
    ///
    /// # Panics
    ///
    /// Panics on any length/action mismatch.
    pub fn loss_grad(
        &self,
        logits: &[f32],
        action: usize,
        target: &[f32],
        grad: &mut Vec<f32>,
    ) -> f32 {
        assert_eq!(logits.len(), self.n_outputs(), "logit length mismatch");
        assert!(action < self.n_actions, "action out of range");
        assert_eq!(target.len(), self.n_atoms, "target length mismatch");
        grad.clear();
        grad.resize(self.n_outputs(), 0.0);
        let block = &logits[action * self.n_atoms..(action + 1) * self.n_atoms];
        let mut block_grad = Vec::new();
        sibyl_nn::loss::cross_entropy_logits_grad(block, target, &mut block_grad);
        grad[action * self.n_atoms..(action + 1) * self.n_atoms].copy_from_slice(&block_grad);
        sibyl_nn::loss::cross_entropy_logits(block, target)
    }

    /// Batched Bellman targets: appends one `n_atoms`-wide row per reward
    /// to `targets`, row `i` being the C51 projection of
    /// `rewards[i] + γ·z` under the greedy next-state action's
    /// distribution from `next_logits` row `i` — the target-network half
    /// of the per-sample pipeline, with one softmax per next-state action
    /// block (the greedy block's probabilities are kept for the
    /// projection instead of being recomputed).
    ///
    /// A row depends only on its own `next_logits` row and reward, so a
    /// caller may compute it once per distinct transition and reuse it for
    /// as long as the target network stands still.
    ///
    /// # Panics
    ///
    /// Panics if `next_logits` does not hold one `n_outputs()`-wide row
    /// per reward.
    pub fn batch_targets(
        &self,
        next_logits: &[f32],
        rewards: &[f32],
        gamma: f32,
        scratch: &mut HeadScratch,
        targets: &mut Vec<f32>,
    ) {
        let width = self.n_outputs();
        assert_eq!(
            next_logits.len(),
            rewards.len() * width,
            "next-logit matrix shape mismatch"
        );
        let filled = targets.len();
        targets.resize(filled + rewards.len() * self.n_atoms, 0.0);
        let HeadScratch {
            row: probs,
            next_probs,
            ..
        } = scratch;
        let rows = next_logits.chunks_exact(width).zip(rewards);
        let appended = targets[filled..].chunks_exact_mut(self.n_atoms);
        for ((next_row, &reward), target) in rows.zip(appended) {
            // Greedy next action, first-wins on ties exactly like
            // `sibyl_nn::argmax`; the winner's distribution stays in
            // `next_probs`.
            let mut best_q = 0.0f32;
            for a in 0..self.n_actions {
                let q = self.action_value(next_row, a, probs);
                let incumbent_stays = a > 0 && q <= best_q;
                if !incumbent_stays {
                    best_q = q;
                    std::mem::swap(probs, next_probs);
                }
            }
            self.project_onto(reward, gamma, next_probs, target);
        }
    }

    /// Batched cross-entropy against precomputed `targets` (one
    /// `n_atoms`-wide row per sample, as [`Categorical::batch_targets`]
    /// lays them out): fills the row-major `(batch × n_outputs)`
    /// `dL/dlogits` matrix and one loss per sample — the
    /// training-network half of the pipeline, [`Categorical::loss_grad`]
    /// per row with one softmax of the taken action's block feeding both
    /// the gradient `p − target` and the loss `−Σ target·ln p`. Every
    /// other block is left at exactly `+0.0` — the sparsity the backward
    /// kernels skip.
    ///
    /// # Panics
    ///
    /// Panics if the row counts of `logits`, `actions` and `targets`
    /// disagree, or any action is out of range.
    pub fn batch_loss_grad(
        &self,
        logits: &[f32],
        actions: &[usize],
        targets: &[f32],
        scratch: &mut HeadScratch,
        grads: &mut Vec<f32>,
        losses: &mut Vec<f32>,
    ) {
        let batch = actions.len();
        let width = self.n_outputs();
        assert_eq!(logits.len(), batch * width, "logit matrix shape mismatch");
        assert_eq!(
            targets.len(),
            batch * self.n_atoms,
            "target matrix shape mismatch"
        );
        grads.clear();
        grads.resize(batch * width, 0.0);
        losses.clear();
        let probs = &mut scratch.row;
        let rows = logits
            .chunks_exact(width)
            .zip(grads.chunks_exact_mut(width));
        for (((row, grad_row), &action), target) in
            rows.zip(actions).zip(targets.chunks_exact(self.n_atoms))
        {
            self.block_probs(row, action, probs);
            let block = &mut grad_row[action * self.n_atoms..][..self.n_atoms];
            let mut loss = 0.0f32;
            for ((g, &p), &t) in block.iter_mut().zip(probs.iter()).zip(target) {
                *g = p - t;
                if t > 0.0 {
                    loss -= t * p.max(1e-12).ln();
                }
            }
            losses.push(loss);
        }
    }
}

/// Reusable workspace of the batched training head; contents between
/// calls are unspecified.
#[derive(Debug, Clone, Default)]
pub struct HeadScratch {
    /// The block being soft-maxed.
    row: Vec<f32>,
    /// The greedy next-state action's distribution.
    next_probs: Vec<f32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn head() -> Categorical {
        Categorical::new(2, 11, 0.0, 10.0)
    }

    #[test]
    fn support_spans_range_evenly() {
        let c = head();
        assert_eq!(c.support().len(), 11);
        assert_eq!(c.support()[0], 0.0);
        assert_eq!(c.support()[10], 10.0);
        assert!((c.support()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn q_value_of_point_mass() {
        let c = head();
        // Action 0: all mass at atom 7 (value 7.0); action 1 uniform.
        let mut logits = vec![0.0f32; 22];
        logits[7] = 50.0;
        let q = c.q_values(&logits);
        assert!((q[0] - 7.0).abs() < 1e-3);
        assert!((q[1] - 5.0).abs() < 1e-3);
        assert_eq!(c.best_action(&logits), 0);
    }

    #[test]
    fn projection_of_zero_reward_identity() {
        // γ = 1, r = 0 maps the support onto itself exactly.
        let c = head();
        let probs: Vec<f32> = (0..11).map(|i| if i == 4 { 1.0 } else { 0.0 }).collect();
        let m = c.project(0.0, 1.0, &probs);
        assert!((m[4] - 1.0).abs() < 1e-6, "{m:?}");
    }

    #[test]
    fn projection_shifts_by_reward() {
        let c = head();
        let probs: Vec<f32> = (0..11).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        // r = 3: atom 0 (value 0) maps to value 3 → atom 3.
        let m = c.project(3.0, 1.0, &probs);
        assert!((m[3] - 1.0).abs() < 1e-6, "{m:?}");
    }

    #[test]
    fn projection_splits_between_atoms() {
        let c = head();
        let probs: Vec<f32> = (0..11).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
        // r = 2.5 lands halfway between atoms 2 and 3.
        let m = c.project(2.5, 1.0, &probs);
        assert!((m[2] - 0.5).abs() < 1e-6);
        assert!((m[3] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn projection_clamps_at_bounds() {
        let c = head();
        let probs: Vec<f32> = (0..11).map(|i| if i == 10 { 1.0 } else { 0.0 }).collect();
        // r = 100 would exceed v_max; clamps onto the top atom.
        let m = c.project(100.0, 1.0, &probs);
        assert!((m[10] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn loss_grad_touches_only_chosen_action() {
        let c = head();
        let logits = vec![0.1f32; 22];
        let target: Vec<f32> = (0..11).map(|i| if i == 2 { 1.0 } else { 0.0 }).collect();
        let mut grad = Vec::new();
        let loss = c.loss_grad(&logits, 1, &target, &mut grad);
        assert!(loss > 0.0);
        assert!(
            grad[..11].iter().all(|&g| g == 0.0),
            "action 0 block untouched"
        );
        assert!(
            grad[11..].iter().any(|&g| g != 0.0),
            "action 1 block has gradient"
        );
    }

    #[test]
    fn batched_head_matches_sequential_pipeline() {
        let c = head();
        let batch = 3;
        let width = c.n_outputs();
        let logits: Vec<f32> = (0..batch * width)
            .map(|i| (i as f32 * 0.37).sin())
            .collect();
        let next_logits: Vec<f32> = (0..batch * width)
            .map(|i| (i as f32 * 0.11).cos())
            .collect();
        let actions = [0usize, 1, 1];
        let rewards = [0.5f32, 3.0, -1.0];
        let mut scratch = HeadScratch::default();
        let (mut targets, mut grads, mut losses) = (Vec::new(), Vec::new(), Vec::new());
        c.batch_targets(&next_logits, &rewards, 0.9, &mut scratch, &mut targets);
        c.batch_loss_grad(
            &logits,
            &actions,
            &targets,
            &mut scratch,
            &mut grads,
            &mut losses,
        );
        assert_eq!(grads.len(), batch * width);
        assert_eq!(losses.len(), batch);
        for i in 0..batch {
            let row = &logits[i * width..(i + 1) * width];
            let next_row = &next_logits[i * width..(i + 1) * width];
            let next_best = c.best_action(next_row);
            let next_probs = c.action_distribution(next_row, next_best);
            let target = c.project(rewards[i], 0.9, &next_probs);
            let mut row_grad = Vec::new();
            let loss = c.loss_grad(row, actions[i], &target, &mut row_grad);
            assert_eq!(loss.to_bits(), losses[i].to_bits(), "loss row {i}");
            assert_eq!(
                grads[i * width..(i + 1) * width]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                row_grad.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "gradient row {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "logit matrix shape mismatch")]
    fn batch_loss_grad_rejects_ragged_logits() {
        let c = head();
        let mut grads = Vec::new();
        let mut losses = Vec::new();
        c.batch_loss_grad(
            &[0.0; 10],
            &[0, 1],
            &[0.0; 22],
            &mut HeadScratch::default(),
            &mut grads,
            &mut losses,
        );
    }

    proptest! {
        /// Projection preserves probability mass.
        #[test]
        fn projection_preserves_mass(
            reward in -5.0f32..15.0,
            gamma in 0.0f32..1.0,
            raw in proptest::collection::vec(0.01f32..1.0, 11),
        ) {
            let c = head();
            let s: f32 = raw.iter().sum();
            let probs: Vec<f32> = raw.iter().map(|x| x / s).collect();
            let m = c.project(reward, gamma, &probs);
            let total: f32 = m.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-4, "mass {total}");
            prop_assert!(m.iter().all(|&p| p >= -1e-6));
        }

        /// Q-values always lie within the support range.
        #[test]
        fn q_values_bounded(logits in proptest::collection::vec(-5.0f32..5.0, 22)) {
            let c = head();
            for q in c.q_values(&logits) {
                prop_assert!((0.0..=10.0).contains(&q));
            }
        }
    }
}
