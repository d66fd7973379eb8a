//! Gradient-descent optimizers.

/// A first-order optimizer that updates a parameter slice in place from its
/// gradient slice.
///
/// `param_id` identifies the parameter group (e.g. one layer's weight
/// matrix) so stateful optimizers such as [`Adam`] can keep per-parameter
/// moment estimates across calls.
pub trait Optimizer: std::fmt::Debug {
    /// Applies one update step: `params ← params - f(grads)`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `params.len() != grads.len()`.
    fn update(&mut self, param_id: usize, params: &mut [f32], grads: &[f32]);

    /// The current learning rate.
    fn learning_rate(&self) -> f32;
}

/// Plain stochastic gradient descent, the paper's optimizer (§6.1, line 18
/// of Algorithm 1): `w ← w − α·∇w`.
///
/// # Examples
///
/// ```
/// use sibyl_nn::{Optimizer, Sgd};
/// let mut opt = Sgd::new(0.1);
/// let mut w = [1.0f32];
/// opt.update(0, &mut w, &[0.5]);
/// assert!((w[0] - 0.95).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f32,
}

impl Sgd {
    /// Creates an SGD optimizer with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(
            lr.is_finite() && lr > 0.0,
            "Sgd: learning rate must be positive"
        );
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _param_id: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "Sgd::update: length mismatch");
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

/// Adam optimizer (Kingma & Ba) with bias-corrected moment estimates.
///
/// Not used by the paper's default configuration but provided as an
/// extension point for the hyper-parameter studies (§8.5 explores the
/// learning-rate axis; Adam makes the agent far less sensitive to it).
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f32,
    eps: f32,
    /// Per-parameter-group first/second moment buffers and step counts,
    /// indexed by `param_id` (a group not yet updated has `t == 0`).
    state: Vec<AdamState>,
}

#[derive(Debug, Clone, Default)]
struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// First-moment decay rate β₁.
    const BETA1: f32 = 0.9;
    /// Second-moment decay rate β₂.
    const BETA2: f32 = 0.999;

    /// Creates an Adam optimizer with the standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not finite and positive.
    pub fn new(lr: f32) -> Self {
        assert!(
            lr.is_finite() && lr > 0.0,
            "Adam: learning rate must be positive"
        );
        Adam {
            lr,
            eps: 1e-8,
            state: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn update(&mut self, param_id: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "Adam::update: length mismatch");
        if self.state.len() <= param_id {
            self.state.resize_with(param_id + 1, AdamState::default);
        }
        let st = &mut self.state[param_id];
        if st.t == 0 {
            st.m = vec![0.0; params.len()];
            st.v = vec![0.0; params.len()];
        }
        assert_eq!(
            st.m.len(),
            params.len(),
            "Adam::update: parameter group {param_id} changed size"
        );
        st.t += 1;
        let b1t = 1.0 - Self::BETA1.powi(st.t as i32);
        let b2t = 1.0 - Self::BETA2.powi(st.t as i32);
        // Zipped rather than indexed: no bounds checks, so the loop
        // vectorizes; every element still sees the same expressions in
        // the same order.
        let moments = st.m.iter_mut().zip(st.v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = Self::BETA1 * *m + (1.0 - Self::BETA1) * g;
            *v = Self::BETA2 * *v + (1.0 - Self::BETA2) * g * g;
            let m_hat = *m / b1t;
            let v_hat = *v / b2t;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_step_is_linear_in_lr() {
        let mut opt = Sgd::new(0.5);
        let mut w = [2.0f32];
        opt.update(0, &mut w, &[1.0]);
        assert!((w[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn sgd_rejects_zero_lr() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize f(w) = (w - 3)^2
        let mut opt = Adam::new(0.1);
        let mut w = [0.0f32];
        for _ in 0..500 {
            let g = [2.0 * (w[0] - 3.0)];
            opt.update(0, &mut w, &g);
        }
        assert!((w[0] - 3.0).abs() < 0.05, "w = {}", w[0]);
    }

    #[test]
    fn adam_keeps_separate_state_per_group() {
        let mut opt = Adam::new(0.1);
        let mut a = [0.0f32];
        let mut b = [0.0f32];
        for _ in 0..200 {
            let ga = [2.0 * (a[0] - 1.0)];
            opt.update(0, &mut a, &ga);
            let gb = [2.0 * (b[0] + 1.0)];
            opt.update(1, &mut b, &gb);
        }
        assert!((a[0] - 1.0).abs() < 0.1);
        assert!((b[0] + 1.0).abs() < 0.1);
    }

    /// The zipped update is bit-identical to Adam written as an indexed
    /// loop, over groups of several widths updated out of id order.
    #[test]
    fn adam_matches_the_indexed_formulation() {
        const LR: f32 = 0.01;
        let (b1, b2) = (Adam::BETA1, Adam::BETA2);
        let widths = [37usize, 1, 8, 102];
        let mut opt = Adam::new(LR);
        let mut params: Vec<Vec<f32>> = widths
            .iter()
            .map(|&n| (0..n).map(|i| (i as f32 * 0.37).sin()).collect())
            .collect();
        let mut reference = params.clone();
        let mut moments: Vec<(Vec<f32>, Vec<f32>)> = widths
            .iter()
            .map(|&n| (vec![0.0; n], vec![0.0; n]))
            .collect();
        for t in 1..=50i32 {
            for id in [2, 0, 3, 1] {
                let grads: Vec<f32> = (0..widths[id])
                    .map(|i| ((i as i32 * 7 + t * 3 + id as i32) as f32 * 0.11).cos())
                    .collect();
                opt.update(id, &mut params[id], &grads);
                let (m, v) = &mut moments[id];
                let (b1t, b2t) = (1.0 - b1.powi(t), 1.0 - b2.powi(t));
                let w = &mut reference[id];
                for i in 0..w.len() {
                    m[i] = b1 * m[i] + (1.0 - b1) * grads[i];
                    v[i] = b2 * v[i] + (1.0 - b2) * grads[i] * grads[i];
                    let m_hat = m[i] / b1t;
                    let v_hat = v[i] / b2t;
                    w[i] -= LR * m_hat / (v_hat.sqrt() + 1e-8);
                }
            }
        }
        let bits =
            |p: &[Vec<f32>]| -> Vec<u32> { p.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&params), bits(&reference));
    }

    #[test]
    #[should_panic(expected = "changed size")]
    fn adam_rejects_a_resized_group() {
        let mut opt = Adam::new(0.1);
        opt.update(1, &mut [0.0; 3], &[1.0; 3]);
        opt.update(1, &mut [0.0; 4], &[1.0; 4]);
    }

    #[test]
    fn learning_rate_accessors_report_the_constructed_rate() {
        assert_eq!(Sgd::new(0.01).learning_rate(), 0.01);
        assert_eq!(Adam::new(0.02).learning_rate(), 0.02);
    }

    #[test]
    fn sgd_beats_adam_on_tiny_budget() {
        // Sanity check that both make progress in a couple of steps.
        let mut s = Sgd::new(0.2);
        let mut a = Adam::new(0.2);
        let mut ws = [5.0f32];
        let mut wa = [5.0f32];
        for _ in 0..10 {
            let gs = [2.0 * ws[0]];
            s.update(0, &mut ws, &gs);
            let ga = [2.0 * wa[0]];
            a.update(0, &mut wa, &ga);
        }
        assert!(ws[0].abs() < 5.0);
        assert!(wa[0].abs() < 5.0);
    }
}
