//! A small Elman recurrent network with backpropagation through time.
//!
//! Used by the RNN-HSS baseline (adapted from Kleio, HPDC'19) to predict
//! page hotness from short windows of access history. The Sibyl paper
//! contrasts its tiny feed-forward agent against exactly this kind of
//! "sophisticated RNN-based mechanism" (§4.2 (5), §12).

use rand::Rng;

use crate::init::xavier_uniform;
use crate::linalg;
use crate::loss;

/// An Elman RNN: `h_t = tanh(Wxh·x_t + Whh·h_{t−1} + bh)` with a linear
/// read-out `y = Why·h_T + by` from the final hidden state.
///
/// Training performs full backpropagation through time over the (short)
/// input sequence with a softmax cross-entropy loss on the final output —
/// sequence classification, which is how RNN-HSS labels pages hot or cold.
///
/// # Examples
///
/// ```
/// use sibyl_nn::Rnn;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let mut rnn = Rnn::new(4, 8, 2, &mut rng);
/// let seq = vec![vec![0.1, 0.0, 0.3, 1.0]; 6];
/// let logits = rnn.forward(&seq);
/// assert_eq!(logits.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Rnn {
    in_dim: usize,
    hidden_dim: usize,
    out_dim: usize,
    wxh: Vec<f32>,
    whh: Vec<f32>,
    bh: Vec<f32>,
    why: Vec<f32>,
    by: Vec<f32>,
}

impl Rnn {
    /// Creates an RNN with Xavier-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        hidden_dim: usize,
        out_dim: usize,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_dim > 0 && hidden_dim > 0 && out_dim > 0,
            "Rnn: dimensions must be non-zero"
        );
        let mut wxh = vec![0.0; hidden_dim * in_dim];
        let mut whh = vec![0.0; hidden_dim * hidden_dim];
        let mut why = vec![0.0; out_dim * hidden_dim];
        xavier_uniform(&mut wxh, in_dim, hidden_dim, rng);
        xavier_uniform(&mut whh, hidden_dim, hidden_dim, rng);
        xavier_uniform(&mut why, hidden_dim, out_dim, rng);
        Rnn {
            in_dim,
            hidden_dim,
            out_dim,
            wxh,
            whh,
            bh: vec![0.0; hidden_dim],
            why,
            by: vec![0.0; out_dim],
        }
    }

    /// Input dimensionality per time step.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.wxh.len() + self.whh.len() + self.bh.len() + self.why.len() + self.by.len()
    }

    /// Runs the sequence and returns the final-step output logits.
    ///
    /// An empty sequence yields the read-out of the zero hidden state.
    ///
    /// # Panics
    ///
    /// Panics if any step's input length differs from `in_dim`.
    pub fn forward(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        let (hs, _zs) = self.run(xs);
        // sibyl-lint: allow(unwrap-in-lib) -- invariant: run() always yields the initial hidden state h_0
        let h_last = hs.last().expect("run always yields h_0");
        let mut y = Vec::new();
        linalg::scalar::matmul_bias(
            &self.why,
            &self.by,
            h_last,
            self.out_dim,
            self.hidden_dim,
            1,
            &mut y,
        );
        y
    }

    /// Forward pass retaining every hidden state; `hs[0]` is the initial
    /// zero state, `hs[t+1]` the state after consuming `xs[t]`.
    fn run(&self, xs: &[Vec<f32>]) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let mut hs = Vec::with_capacity(xs.len() + 1);
        let mut zs = Vec::with_capacity(xs.len());
        hs.push(vec![0.0; self.hidden_dim]);
        let mut zx = Vec::new();
        let mut zh = Vec::new();
        let zero_bias = vec![0.0; self.hidden_dim];
        for x in xs {
            assert_eq!(x.len(), self.in_dim, "Rnn: input length mismatch");
            linalg::scalar::matmul_bias(
                &self.wxh,
                &self.bh,
                x,
                self.hidden_dim,
                self.in_dim,
                1,
                &mut zx,
            );
            linalg::scalar::matmul_bias(
                &self.whh,
                &zero_bias,
                // sibyl-lint: allow(unwrap-in-lib) -- invariant: hs starts with h_0 and only grows
                hs.last().expect("hs non-empty"),
                self.hidden_dim,
                self.hidden_dim,
                1,
                &mut zh,
            );
            let z: Vec<f32> = zx.iter().zip(&zh).map(|(a, b)| a + b).collect();
            let h: Vec<f32> = z.iter().map(|v| v.tanh()).collect();
            zs.push(z);
            hs.push(h);
        }
        (hs, zs)
    }

    /// One training step: softmax cross-entropy between the final-step
    /// logits and `target` (a probability vector, typically one-hot), full
    /// BPTT, gradient clipping at L2 norm 5, and an SGD update with rate
    /// `lr`. Returns the loss before the update.
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != out_dim`, the sequence is empty, or any
    /// step's input length differs from `in_dim`.
    pub fn train_step(&mut self, xs: &[Vec<f32>], target: &[f32], lr: f32) -> f32 {
        assert_eq!(
            target.len(),
            self.out_dim,
            "Rnn::train_step: target length mismatch"
        );
        assert!(!xs.is_empty(), "Rnn::train_step: empty sequence");
        let (hs, _zs) = self.run(xs);
        // sibyl-lint: allow(unwrap-in-lib) -- invariant: run() always yields the initial hidden state h_0
        let h_last = hs.last().expect("hs non-empty");
        let mut y = Vec::new();
        linalg::scalar::matmul_bias(
            &self.why,
            &self.by,
            h_last,
            self.out_dim,
            self.hidden_dim,
            1,
            &mut y,
        );
        let loss_val = loss::cross_entropy_logits(&y, target);

        // Gradient buffers, zeroed on every step. The backward kernels skip
        // the exactly-zero margins of each delta, which is bit-neutral here:
        // the buffers start at `+0.0` (so no accumulator is `-0.0`) and the
        // weights, inputs and hidden states are finite.
        let mut d_wxh = vec![0.0; self.wxh.len()];
        let mut d_whh = vec![0.0; self.whh.len()];
        let mut d_bh = vec![0.0; self.bh.len()];
        let mut d_why = vec![0.0; self.why.len()];
        let mut d_by = vec![0.0; self.by.len()];

        // dL/dy = softmax(y) - target.
        let mut dy = Vec::new();
        loss::cross_entropy_logits_grad(&y, target, &mut dy);

        // Read-out gradients.
        let (out_dim, hidden_dim) = (self.out_dim, self.hidden_dim);
        linalg::matmul_at_b_acc(&mut d_why, &dy, h_last, out_dim, hidden_dim, 1);
        linalg::col_sum_acc(&mut d_by, &dy, 1);
        let mut dh = Vec::new();
        linalg::matmul_transpose(&self.why, &dy, out_dim, hidden_dim, 1, &mut dh);

        // BPTT.
        for t in (0..xs.len()).rev() {
            let h_t = &hs[t + 1];
            let h_prev = &hs[t];
            // dz = dh ⊙ (1 - h²)   (tanh derivative via the activation value)
            let dz: Vec<f32> = dh.iter().zip(h_t).map(|(d, h)| d * (1.0 - h * h)).collect();
            linalg::matmul_at_b_acc(&mut d_wxh, &dz, &xs[t], hidden_dim, self.in_dim, 1);
            linalg::matmul_at_b_acc(&mut d_whh, &dz, h_prev, hidden_dim, hidden_dim, 1);
            linalg::col_sum_acc(&mut d_bh, &dz, 1);
            linalg::matmul_transpose(&self.whh, &dz, hidden_dim, hidden_dim, 1, &mut dh);
        }

        // Clip and apply.
        for g in [&mut d_wxh, &mut d_whh, &mut d_bh, &mut d_why, &mut d_by] {
            linalg::clip_l2_norm(g, 5.0);
        }
        for (p, g) in [
            (&mut self.wxh, &d_wxh),
            (&mut self.whh, &d_whh),
            (&mut self.bh, &d_bh),
            (&mut self.why, &d_why),
            (&mut self.by, &d_by),
        ] {
            for (pv, &gv) in p.iter_mut().zip(g.iter()) {
                *pv -= lr * gv;
            }
        }
        loss_val
    }

    /// Class prediction for a sequence: index of the largest final logit.
    ///
    /// # Panics
    ///
    /// Panics if any step's input length differs from `in_dim`.
    pub fn classify(&self, xs: &[Vec<f32>]) -> usize {
        // sibyl-lint: allow(unwrap-in-lib) -- invariant: out_dim > 0 is enforced at construction
        crate::argmax(&self.forward(xs)).expect("out_dim > 0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn forward_shape_and_determinism() {
        let rnn = Rnn::new(3, 5, 2, &mut rng(0));
        let seq = vec![vec![0.1, 0.2, 0.3]; 4];
        let a = rnn.forward(&seq);
        let b = rnn.forward(&seq);
        assert_eq!(a.len(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_sequence_reads_zero_state() {
        let rnn = Rnn::new(3, 5, 2, &mut rng(1));
        let y = rnn.forward(&[]);
        // Read-out of h=0 is just the bias, which starts at zero.
        assert!(y.iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn learns_to_separate_two_sequence_classes() {
        let mut rnn = Rnn::new(2, 12, 2, &mut rng(2));
        // Class 0: rising sequences; class 1: falling sequences.
        let rising: Vec<Vec<f32>> = (0..6).map(|i| vec![i as f32 / 6.0, 0.0]).collect();
        let falling: Vec<Vec<f32>> = (0..6).map(|i| vec![(5 - i) as f32 / 6.0, 0.0]).collect();
        for _ in 0..300 {
            rnn.train_step(&rising, &[1.0, 0.0], 0.05);
            rnn.train_step(&falling, &[0.0, 1.0], 0.05);
        }
        assert_eq!(rnn.classify(&rising), 0);
        assert_eq!(rnn.classify(&falling), 1);
    }

    #[test]
    fn training_reduces_loss() {
        let mut rnn = Rnn::new(2, 8, 2, &mut rng(3));
        let seq = vec![vec![1.0, -1.0]; 5];
        let first = rnn.train_step(&seq, &[1.0, 0.0], 0.1);
        let mut last = first;
        for _ in 0..100 {
            last = rnn.train_step(&seq, &[1.0, 0.0], 0.1);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn num_params_reflects_shapes() {
        let rnn = Rnn::new(4, 10, 2, &mut rng(4));
        assert_eq!(rnn.num_params(), 40 + 100 + 10 + 20 + 2);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn rejects_bad_step_width() {
        let rnn = Rnn::new(3, 4, 2, &mut rng(5));
        let _ = rnn.forward(&[vec![1.0]]);
    }
}
