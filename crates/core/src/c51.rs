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
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Categorical {
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
    pub(crate) fn new(n_actions: usize, n_atoms: usize, v_min: f32, v_max: f32) -> Self {
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

    /// Number of support atoms.
    pub(crate) fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Total network outputs required (`n_actions × n_atoms`).
    pub(crate) fn n_outputs(&self) -> usize {
        self.n_actions * self.n_atoms
    }

    /// Softmax distribution of one action's logit block.
    ///
    /// # Panics
    ///
    /// Panics if `logits.len() != n_outputs()` or `action` is out of
    /// range.
    #[cfg(test)]
    pub(crate) fn action_distribution(&self, logits: &[f32], action: usize) -> Vec<f32> {
        let mut p = Vec::new();
        self.block_probs(logits, action, &mut p);
        p
    }

    /// One action's softmax distribution into a caller-owned `probs` —
    /// the one place a logit block is soft-maxed.
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
    /// the decide path ([`Categorical::q_values_into`]) and the training
    /// head ([`Categorical::batch_targets`]). Allocates nothing once
    /// `probs` has grown to `n_atoms`.
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
    #[cfg(test)]
    pub(crate) fn q_values(&self, logits: &[f32]) -> Vec<f32> {
        let (mut probs, mut q) = (Vec::new(), Vec::new());
        self.q_values_into(logits, &mut probs, &mut q);
        q
    }

    /// Expected value per action, `Q(s, a) = Σ zᵢ pᵢ`, into caller-owned
    /// buffers: `q` is refilled with one value per action, `probs` is
    /// softmax workspace.
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
    #[cfg(test)]
    pub(crate) fn best_action(&self, logits: &[f32]) -> usize {
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
    #[cfg(test)]
    pub(crate) fn project(&self, reward: f32, gamma: f32, next_probs: &[f32]) -> Vec<f32> {
        let mut m = vec![0.0f32; self.n_atoms];
        self.project_onto(reward, gamma, next_probs, &mut m);
        m
    }

    /// Projects the Bellman-updated distribution `r + γ·z` (with
    /// next-state distribution `next_probs`) onto the fixed support,
    /// accumulating onto a caller-owned, zeroed `m` of `n_atoms` entries —
    /// the C51 categorical projection.
    ///
    /// The atom position `b` of a clamped target is never negative, so
    /// its floor `l` is the truncating cast `b as usize`, and its ceiling
    /// `u` is `l + 1` unless `b` sits exactly on an atom. That is the
    /// `floor`/`ceil` pair bit for bit, without a libm call per atom
    /// (baseline x86-64 has no rounding instruction) and without casting
    /// `u` back to an index. A NaN reward makes `b` NaN, and its whole
    /// mass lands on atom 0, where `NaN.floor()` and `NaN.ceil()`, both
    /// cast to 0, put it.
    fn project_onto(&self, reward: f32, gamma: f32, next_probs: &[f32], m: &mut [f32]) {
        assert_eq!(
            next_probs.len(),
            self.n_atoms,
            "next distribution length mismatch"
        );
        let top = self.n_atoms - 1;
        for (&p, &z) in next_probs.iter().zip(&self.support) {
            if p == 0.0 {
                continue;
            }
            let tz = (reward + gamma * z).clamp(self.v_min, self.v_max);
            let b = (tz - self.v_min) / self.dz;
            let li = b as usize;
            let l = li as f32;
            // False for NaN, which keeps `u = l = 0`.
            let (u, ui) = if b > l {
                (l + 1.0, (li + 1).min(top))
            } else {
                (l, li)
            };
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
    #[cfg(test)]
    pub(crate) fn loss_grad(
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
    pub(crate) fn batch_targets(
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
    /// `dL/dlogits` matrix — the training-network half of the pipeline:
    /// per row, one softmax of the taken action's block feeds the
    /// cross-entropy gradient `p − target`. Every other block is left at
    /// exactly `+0.0` — the sparsity the backward kernels skip.
    ///
    /// The gradient does not need the loss `−Σ target·ln p`, so it is only
    /// computed when `losses` is given, which it then refills with one
    /// loss per sample.
    ///
    /// # Panics
    ///
    /// Panics if the row counts of `logits`, `actions` and `targets`
    /// disagree, or any action is out of range.
    pub(crate) fn batch_loss_grad(
        &self,
        logits: &[f32],
        actions: &[usize],
        targets: &[f32],
        scratch: &mut HeadScratch,
        grads: &mut Vec<f32>,
        mut losses: Option<&mut Vec<f32>>,
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
        if let Some(losses) = losses.as_deref_mut() {
            losses.clear();
        }
        let probs = &mut scratch.row;
        let rows = logits
            .chunks_exact(width)
            .zip(grads.chunks_exact_mut(width));
        for (((row, grad_row), &action), target) in
            rows.zip(actions).zip(targets.chunks_exact(self.n_atoms))
        {
            self.block_probs(row, action, probs);
            let block = &mut grad_row[action * self.n_atoms..][..self.n_atoms];
            for ((g, &p), &t) in block.iter_mut().zip(probs.iter()).zip(target) {
                *g = p - t;
            }
            if let Some(losses) = losses.as_deref_mut() {
                let mut loss = 0.0f32;
                for (&p, &t) in probs.iter().zip(target) {
                    if t > 0.0 {
                        loss -= t * p.max(1e-12).ln();
                    }
                }
                losses.push(loss);
            }
        }
    }
}

/// Reusable workspace of the batched training head; contents between
/// calls are unspecified.
#[derive(Debug, Clone, Default)]
pub(crate) struct HeadScratch {
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// [`Categorical::project`] as written with libm's `floor` and `ceil`
    /// — the formulation `project_onto`'s cast-based floor must equal bit
    /// for bit.
    fn project_reference(c: &Categorical, reward: f32, gamma: f32, next_probs: &[f32]) -> Vec<f32> {
        let mut m = vec![0.0f32; c.n_atoms];
        for (j, &p) in next_probs.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let tz = (reward + gamma * c.support[j]).clamp(c.v_min, c.v_max);
            let b = (tz - c.v_min) / c.dz;
            let l = b.floor();
            let u = b.ceil();
            let li = l as usize;
            let ui = (u as usize).min(c.n_atoms - 1);
            if li == ui {
                m[li] += p;
            } else {
                m[li] += p * (u - b);
                m[ui] += p * (b - l);
            }
        }
        m
    }

    /// The in-situ head: 51 atoms over Sibyl's default support.
    fn in_situ_head() -> Categorical {
        let cfg = crate::SibylConfig::default();
        Categorical::new(2, cfg.n_atoms, cfg.v_min, cfg.v_max)
    }

    /// `raw` scaled to sum to one (its zeros stay exact).
    fn distribution(raw: &[f32]) -> Vec<f32> {
        let s: f32 = raw.iter().sum();
        raw.iter().map(|x| x / s).collect()
    }

    #[test]
    fn projection_of_non_finite_rewards_matches_floor_ceil() {
        for c in [head(), in_situ_head()] {
            let raw: Vec<f32> = (0..c.n_atoms()).map(|i| (i % 4) as f32).collect();
            let probs = distribution(&raw);
            for reward in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for gamma in [0.0, 0.5, 0.9, 1.0] {
                    assert_eq!(
                        bits(&c.project(reward, gamma, &probs)),
                        bits(&project_reference(&c, reward, gamma, &probs)),
                        "reward {reward}, gamma {gamma}"
                    );
                }
            }
            // NaN puts every atom's mass on atom 0; ±∞ clamp to the ends.
            let top = c.n_atoms() - 1;
            for (reward, atom) in [(f32::NAN, 0), (f32::NEG_INFINITY, 0), (f32::INFINITY, top)] {
                let m = c.project(reward, 0.9, &probs);
                let (on, off): (Vec<_>, Vec<_>) = (0..=top).partition(|&i| i == atom);
                assert!((m[on[0]] - 1.0).abs() < 1e-5, "{reward}: {m:?}");
                assert!(off.iter().all(|&i| m[i] == 0.0), "{reward}: {m:?}");
            }
        }
    }

    #[test]
    fn support_spans_range_evenly() {
        let c = head();
        assert_eq!(c.support.len(), 11);
        assert_eq!(c.support[0], 0.0);
        assert_eq!(c.support[10], 10.0);
        assert!((c.support[1] - 1.0).abs() < 1e-6);
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
            Some(&mut losses),
        );
        let mut lossless_grads = Vec::new();
        c.batch_loss_grad(
            &logits,
            &actions,
            &targets,
            &mut scratch,
            &mut lossless_grads,
            None,
        );
        assert_eq!(
            bits(&grads),
            bits(&lossless_grads),
            "the loss moved a gradient"
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
                bits(&grads[i * width..(i + 1) * width]),
                bits(&row_grad),
                "gradient row {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "logit matrix shape mismatch")]
    fn batch_loss_grad_rejects_ragged_logits() {
        let c = head();
        let mut grads = Vec::new();
        c.batch_loss_grad(
            &[0.0; 10],
            &[0, 1],
            &[0.0; 22],
            &mut HeadScratch::default(),
            &mut grads,
            None,
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

        /// The cast-based floor/ceil projects bit for bit like libm's:
        /// rewards on and between atoms, rewards clamped at either end of
        /// the support, and the discounts the agent can run with.
        #[test]
        fn projection_matches_floor_ceil_formulation(
            kind in 0u8..4,
            k in -60i32..60,
            frac in -1.0f32..1.0,
            wide in proptest::bool::ANY,
            gamma_pick in 0usize..5,
            gamma_free in 0.0f32..1.0,
            raw in proptest::collection::vec(-0.5f32..1.0, 51),
        ) {
            let c = if wide { in_situ_head() } else { head() };
            let gamma = [0.0, 0.5, 0.9, 1.0, gamma_free][gamma_pick];
            // About a third of the atoms carry no mass.
            let raw: Vec<f32> = raw[..c.n_atoms()].iter().map(|&x| x.max(0.0)).collect();
            prop_assume!(raw.iter().any(|&x| x > 0.0));
            let probs = distribution(&raw);
            // `k` atom widths reach well past both ends of the support.
            let reward = match kind {
                // An atom's value: on an atom at γ = 0.
                0 => c.support[k.rem_euclid(c.n_atoms() as i32) as usize],
                // Whole atom widths: the support shifted by `k` at γ = 1.
                1 => k as f32 * c.dz,
                // Between atoms.
                2 => (k as f32 + frac) * c.dz,
                // An end of the support, clamped onto at γ = 0.
                _ => if k < 0 { c.v_min } else { c.v_max },
            };
            prop_assert_eq!(
                bits(&c.project(reward, gamma, &probs)),
                bits(&project_reference(&c, reward, gamma, &probs))
            );
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
