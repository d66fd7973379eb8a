//! Fully-connected layer with cached forward state for backpropagation.

use rand::Rng;

use crate::activation::Activation;
use crate::init::xavier_uniform;
use crate::linalg;

/// A fully-connected layer `y = act(W·x + b)`.
///
/// Weights are stored row-major as `(out_dim × in_dim)`. The layer caches
/// its last input and the activation derivative at every pre-activation
/// during [`Dense::forward`] / [`Dense::forward_batch`] so the backward
/// pass computes exact gradients without re-evaluating the activation;
/// use [`Dense::infer`] for cache-free inference (the paper's inference
/// network is never trained directly, §6.2.2).
///
/// # Examples
///
/// ```
/// use sibyl_nn::{Activation, Dense};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, Activation::Relu, &mut rng);
/// let y = layer.forward(&[1.0, 0.0, -1.0]);
/// assert_eq!(y.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    w: Vec<f32>,
    b: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
    cache_x: Vec<f32>,
    /// `act'(z)` for every pre-activation of the cached forward pass —
    /// `out_dim` values after [`Dense::forward`], `batch × out_dim` after
    /// [`Dense::forward_batch`], empty when nothing is cached. Filled by
    /// the same [`Activation::apply_with_derivative`] call that produces
    /// the layer's output, so the activation's `exp`/`tanh` runs once per
    /// element per training pass, not once forward and once backward.
    cache_dact: Vec<f32>,
    /// `dL/dz` scratch of the backward passes, reused across calls.
    dz: Vec<f32>,
    /// Workspace of [`Dense::forward_batch_blocks_into`]: up to
    /// [`BLOCK_CHUNK`] gathered input rows of one block, and their outputs.
    block_x: Vec<f32>,
    block_y: Vec<f32>,
}

/// Rows [`Dense::forward_batch_blocks_into`] gathers per kernel call: a
/// multiple of the kernel's 8-row tile, so the chunks cost no extra
/// remainder passes, and small enough that the workspace stays a few KiB.
const BLOCK_CHUNK: usize = 4 * linalg::BATCH_TILE;

impl Dense {
    /// Creates a layer with Xavier-uniform weights and zero biases.
    ///
    /// # Panics
    ///
    /// Panics if `in_dim` or `out_dim` is zero.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "Dense: dimensions must be non-zero"
        );
        let mut w = vec![0.0; in_dim * out_dim];
        xavier_uniform(&mut w, in_dim, out_dim, rng);
        Dense {
            in_dim,
            out_dim,
            act,
            w,
            b: vec![0.0; out_dim],
            dw: vec![0.0; in_dim * out_dim],
            db: vec![0.0; out_dim],
            cache_x: Vec::new(),
            cache_dact: Vec::new(),
            dz: Vec::new(),
            block_x: Vec::new(),
            block_y: Vec::new(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.act
    }

    /// Number of trainable parameters (weights + biases).
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Multiply-accumulate operations for one forward pass, as counted by
    /// the paper's overhead analysis (§10.1).
    pub fn mac_count(&self) -> usize {
        self.in_dim * self.out_dim
    }

    /// Forward pass that caches `x` and the activation derivative for
    /// [`Dense::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        assert_eq!(
            x.len(),
            self.in_dim,
            "Dense::forward: input length mismatch"
        );
        self.cache_x.clear();
        self.cache_x.extend_from_slice(x);
        let mut y = Vec::new();
        linalg::matvec_bias(&self.w, &self.b, x, self.out_dim, self.in_dim, &mut y);
        self.activate_and_cache(&mut y);
        y
    }

    /// Turns freshly computed pre-activations into activations in place
    /// and caches `act'(z)` per element for the backward pass. A linear
    /// layer (the C51 logit layer) has nothing to apply and a derivative
    /// of one everywhere, so it caches nothing.
    fn activate_and_cache(&mut self, z: &mut [f32]) {
        let act = self.act;
        self.cache_dact.clear();
        if act == Activation::Linear {
            return;
        }
        self.cache_dact.extend(z.iter_mut().map(|v| {
            let (y, d) = act.apply_with_derivative(*v);
            *v = y;
            d
        }));
    }

    /// Forward pass over a whole batch that caches the inputs and
    /// activation derivatives for [`Dense::backward_batch`] — the training
    /// twin of [`Dense::infer_batch`], just as [`Dense::forward`] is the
    /// training twin of [`Dense::infer`].
    ///
    /// `xs` is row-major `(batch × in_dim)`; the result is row-major
    /// `(batch × out_dim)`, and each output row is bit-identical to
    /// [`Dense::forward`] on the corresponding input (the batched kernel
    /// keeps every dot product's accumulation order unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `xs.len() != batch * in_dim`.
    pub fn forward_batch(&mut self, xs: &[f32], batch: usize) -> Vec<f32> {
        let mut out = Vec::new();
        self.forward_batch_into(xs, batch, &mut out);
        out
    }

    /// [`Dense::forward_batch`] refilling a caller-owned `out`: allocates
    /// nothing once `out` and the layer's caches have reached their size
    /// (what [`crate::Mlp::forward_batch_into`] chains).
    pub(crate) fn forward_batch_into(&mut self, xs: &[f32], batch: usize, out: &mut Vec<f32>) {
        assert!(batch > 0, "Dense::forward_batch: empty batch");
        assert_eq!(
            xs.len(),
            batch * self.in_dim,
            "Dense::forward_batch: input shape mismatch"
        );
        self.cache_x.clear();
        self.cache_x.extend_from_slice(xs);
        linalg::matmul_bias(&self.w, &self.b, xs, self.out_dim, self.in_dim, batch, out);
        self.activate_and_cache(out);
    }

    /// [`Dense::forward_batch_into`] for a linear layer whose outputs are
    /// read one `block`-wide slice per row: row `s` gets only outputs
    /// `blocks[s] * block .. (blocks[s] + 1) * block`, each bit-identical
    /// to the full pass, and every other output is `0.0`. The cache is what
    /// the full pass leaves, so [`Dense::backward_batch`] with `dL/dy`
    /// zero outside each row's block accumulates the same gradients. The
    /// rows of one block go through [`linalg::matmul_bias`] together, in
    /// chunks of [`BLOCK_CHUNK`].
    ///
    /// # Panics
    ///
    /// Panics if the layer is not linear, `block` does not divide
    /// `out_dim`, `blocks` does not hold one block below `out_dim / block`
    /// per row, or `xs.len() != batch * in_dim`.
    pub(crate) fn forward_batch_blocks_into(
        &mut self,
        xs: &[f32],
        batch: usize,
        block: usize,
        blocks: &[usize],
        out: &mut Vec<f32>,
    ) {
        assert_eq!(
            self.act,
            Activation::Linear,
            "Dense::forward_batch_blocks: needs a linear layer"
        );
        assert!(
            block > 0 && self.out_dim.is_multiple_of(block),
            "Dense::forward_batch_blocks: block must divide out_dim"
        );
        assert_eq!(
            blocks.len(),
            batch,
            "Dense::forward_batch_blocks: one block per row"
        );
        let n_blocks = self.out_dim / block;
        assert!(
            blocks.iter().all(|&k| k < n_blocks),
            "Dense::forward_batch_blocks: block out of range"
        );
        assert_eq!(
            xs.len(),
            batch * self.in_dim,
            "Dense::forward_batch_blocks: input shape mismatch"
        );
        self.cache_x.clear();
        self.cache_x.extend_from_slice(xs);
        self.cache_dact.clear();
        out.clear();
        out.resize(batch * self.out_dim, 0.0);
        for k in 0..n_blocks {
            let outs = k * block..(k + 1) * block;
            let w = &self.w[outs.start * self.in_dim..outs.end * self.in_dim];
            let mut members = (0..batch).filter(|&s| blocks[s] == k).peekable();
            while members.peek().is_some() {
                let mut rows = [0; BLOCK_CHUNK];
                let mut n = 0;
                self.block_x.clear();
                for s in members.by_ref().take(BLOCK_CHUNK) {
                    rows[n] = s;
                    n += 1;
                    self.block_x
                        .extend_from_slice(&xs[s * self.in_dim..][..self.in_dim]);
                }
                linalg::matmul_bias(
                    w,
                    &self.b[outs.clone()],
                    &self.block_x,
                    block,
                    self.in_dim,
                    n,
                    &mut self.block_y,
                );
                for (&s, y) in rows[..n].iter().zip(self.block_y.chunks_exact(block)) {
                    out[s * self.out_dim + outs.start..][..block].copy_from_slice(y);
                }
            }
        }
    }

    /// Cache-free forward pass for inference. Writes activations into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_dim`.
    pub fn infer(&self, x: &[f32], out: &mut Vec<f32>) {
        assert_eq!(x.len(), self.in_dim, "Dense::infer: input length mismatch");
        linalg::matvec_bias(&self.w, &self.b, x, self.out_dim, self.in_dim, out);
        self.act.apply_slice(out);
    }

    /// Cache-free forward pass over a whole batch. `xs` is row-major
    /// `(batch × in_dim)`; `out` is refilled row-major
    /// `(batch × out_dim)`. Each output row is bit-identical to what
    /// [`Dense::infer`] produces for the corresponding input — the
    /// batched path only restructures the loops for weight-row reuse.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != batch * in_dim`.
    pub fn infer_batch(&self, xs: &[f32], batch: usize, out: &mut Vec<f32>) {
        assert_eq!(
            xs.len(),
            batch * self.in_dim,
            "Dense::infer_batch: input shape mismatch"
        );
        linalg::matmul_bias(&self.w, &self.b, xs, self.out_dim, self.in_dim, batch, out);
        self.act.apply_slice(out);
    }

    /// Backward pass: given `dL/dy`, accumulates `dL/dW` and `dL/db` into
    /// the layer's gradient buffers and returns `dL/dx`.
    ///
    /// Must be preceded by a call to [`Dense::forward`] for the same input.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != out_dim` or no forward pass was cached.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        assert_eq!(
            dy.len(),
            self.out_dim,
            "Dense::backward: delta length mismatch"
        );
        assert_eq!(
            self.cache_x.len(),
            self.in_dim,
            "Dense::backward called without a cached forward pass"
        );
        let dz = pre_activation_delta(self.act, &self.cache_dact, dy, &mut self.dz);
        linalg::outer_acc(&mut self.dw, dz, &self.cache_x);
        linalg::add_assign(&mut self.db, dz);
        let mut dx = Vec::new();
        linalg::matvec_transpose(&self.w, dz, self.out_dim, self.in_dim, &mut dx);
        dx
    }

    /// Batched backward pass: given the row-major `(batch × out_dim)`
    /// upstream gradient `dy`, accumulates the whole batch's `dL/dW` and
    /// `dL/db` into the layer's gradient buffers and returns the
    /// row-major `(batch × in_dim)` gradient `dL/dx`.
    ///
    /// Must be preceded by a [`Dense::forward_batch`] call with the same
    /// `batch`. The accumulation order per gradient element is kept
    /// identical to `batch` sequential [`Dense::forward`] +
    /// [`Dense::backward`] calls in sample order — per weight row, each
    /// sample's contribution lands in ascending sample order — so the
    /// batched training path is bit-exact against the per-sample loop
    /// (pinned by the `train_batch_parity` property suite). The kernels
    /// skip the exactly-zero margins of each delta row (see
    /// [`linalg::matmul_at_b_acc`] for why that is bit-neutral), which
    /// relies on the gradient buffers never holding `-0.0`:
    /// [`Dense::zero_grad`] writes `+0.0` and accumulation cannot produce
    /// `-0.0` from there.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != batch * out_dim` or the cached forward
    /// state does not match `batch`.
    pub fn backward_batch(&mut self, dy: &[f32], batch: usize) -> Vec<f32> {
        let mut dx = Vec::new();
        self.backward_batch_into(dy, batch, Some(&mut dx));
        dx
    }

    /// [`Dense::backward_batch`] refilling a caller-owned `dx`: allocates
    /// nothing once `dx` and the layer's scratch have reached their size.
    /// With `None` it stops at the parameter gradients — what a network's
    /// first layer needs when nobody reads `dL/dx`.
    pub(crate) fn backward_batch_into(
        &mut self,
        dy: &[f32],
        batch: usize,
        dx: Option<&mut Vec<f32>>,
    ) {
        assert_eq!(
            dy.len(),
            batch * self.out_dim,
            "Dense::backward_batch: delta shape mismatch"
        );
        assert_eq!(
            self.cache_x.len(),
            batch * self.in_dim,
            "Dense::backward_batch called without a matching forward_batch"
        );
        let dz = pre_activation_delta(self.act, &self.cache_dact, dy, &mut self.dz);
        linalg::matmul_at_b_acc(
            &mut self.dw,
            dz,
            &self.cache_x,
            self.out_dim,
            self.in_dim,
            batch,
        );
        linalg::col_sum_acc(&mut self.db, dz, batch);
        if let Some(dx) = dx {
            linalg::matmul_transpose(&self.w, dz, self.out_dim, self.in_dim, batch, dx);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.dw.iter_mut().for_each(|g| *g = 0.0);
        self.db.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Immutable views of `(weights, biases)`.
    pub fn params(&self) -> (&[f32], &[f32]) {
        (&self.w, &self.b)
    }

    /// Mutable views of `(weights, biases)`.
    pub fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.w, &mut self.b)
    }

    /// Immutable views of `(weight grads, bias grads)`.
    pub fn grads(&self) -> (&[f32], &[f32]) {
        (&self.dw, &self.db)
    }

    /// Mutable parameter and gradient views, in the order
    /// `(w, dw, b, db)`, for optimizer updates.
    pub fn params_and_grads_mut(&mut self) -> (&mut [f32], &mut [f32], &mut [f32], &mut [f32]) {
        (&mut self.w, &mut self.dw, &mut self.b, &mut self.db)
    }

    /// Copies weights and biases from another layer of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn copy_weights_from(&mut self, other: &Dense) {
        assert_eq!(
            self.in_dim, other.in_dim,
            "copy_weights_from: in_dim mismatch"
        );
        assert_eq!(
            self.out_dim, other.out_dim,
            "copy_weights_from: out_dim mismatch"
        );
        self.w.copy_from_slice(&other.w);
        self.b.copy_from_slice(&other.b);
    }

    /// Restores gradient/cache buffers after deserialization.
    pub(crate) fn ensure_buffers(&mut self) {
        if self.dw.len() != self.w.len() {
            self.dw = vec![0.0; self.w.len()];
        }
        if self.db.len() != self.b.len() {
            self.db = vec![0.0; self.b.len()];
        }
    }
}

/// `dL/dz = dy ⊙ act'(z)` from the derivatives the forward pass cached,
/// element-wise — the same product per element on the per-sample and the
/// batched path. A linear layer's delta *is* `dy` (`d · 1.0` is `d` bit
/// for bit), so it is passed through and `dz` stays untouched.
///
/// # Panics
///
/// Panics if a non-linear layer's cache does not match `dy`.
fn pre_activation_delta<'a>(
    act: Activation,
    cache_dact: &[f32],
    dy: &'a [f32],
    dz: &'a mut Vec<f32>,
) -> &'a [f32] {
    if act == Activation::Linear {
        return dy;
    }
    assert_eq!(
        cache_dact.len(),
        dy.len(),
        "Dense: backward pass without a matching forward pass"
    );
    dz.clear();
    dz.extend(dy.iter().zip(cache_dact).map(|(d, a)| d * a));
    dz
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1234)
    }

    #[test]
    fn forward_shapes() {
        let mut layer = Dense::new(4, 3, Activation::Linear, &mut rng());
        let y = layer.forward(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y.len(), 3);
        assert_eq!(layer.num_params(), 4 * 3 + 3);
        assert_eq!(layer.mac_count(), 12);
    }

    #[test]
    fn infer_matches_forward() {
        let mut layer = Dense::new(5, 2, Activation::Swish, &mut rng());
        let x = [0.3, -0.5, 0.9, 0.0, 2.0];
        let y1 = layer.forward(&x);
        let mut y2 = Vec::new();
        layer.infer(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn forward_rejects_bad_input() {
        let mut layer = Dense::new(4, 3, Activation::Linear, &mut rng());
        let _ = layer.forward(&[1.0]);
    }

    #[test]
    fn copy_weights_makes_layers_identical() {
        let mut a = Dense::new(3, 3, Activation::Tanh, &mut rng());
        let mut src_rng = rand::rngs::StdRng::seed_from_u64(77);
        let b = Dense::new(3, 3, Activation::Tanh, &mut src_rng);
        a.copy_weights_from(&b);
        let x = [0.1, 0.2, 0.3];
        let mut ya = Vec::new();
        let mut yb = Vec::new();
        a.infer(&x, &mut ya);
        b.infer(&x, &mut yb);
        assert_eq!(ya, yb);
    }

    /// Finite-difference gradient check: perturb each weight and compare
    /// dL/dw against (L(w+h) - L(w-h)) / 2h for the scalar loss L = Σ y².
    #[test]
    fn gradient_check_weights() {
        let mut layer = Dense::new(4, 3, Activation::Swish, &mut rng());
        let x = [0.5, -0.2, 0.8, 0.1];

        let loss = |layer: &Dense, x: &[f32]| -> f32 {
            let mut y = Vec::new();
            layer.infer(x, &mut y);
            y.iter().map(|v| v * v).sum()
        };

        // Analytic gradient.
        let y = layer.forward(&x);
        let dy: Vec<f32> = y.iter().map(|v| 2.0 * v).collect();
        layer.zero_grad();
        let _ = layer.backward(&dy);
        let (dw, _db) = {
            let (dw, db) = layer.grads();
            (dw.to_vec(), db.to_vec())
        };

        let h = 1e-3f32;
        // Indexes both the mutated weights and the saved gradient, so an
        // iterator over either alone doesn't fit.
        #[allow(clippy::needless_range_loop)]
        for idx in 0..layer.w.len() {
            let orig = layer.w[idx];
            layer.w[idx] = orig + h;
            let lp = loss(&layer, &x);
            layer.w[idx] = orig - h;
            let lm = loss(&layer, &x);
            layer.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * h);
            assert!(
                (numeric - dw[idx]).abs() < 2e-2,
                "weight {idx}: numeric {numeric} vs analytic {}",
                dw[idx]
            );
        }
    }

    proptest! {
        /// Input gradients match finite differences for random inputs.
        #[test]
        fn gradient_check_inputs(seed in 0u64..500) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let mut layer = Dense::new(3, 2, Activation::Tanh, &mut r);
            let x: Vec<f32> = (0..3).map(|_| {
                use rand::Rng;
                r.gen_range(-1.0f32..1.0)
            }).collect();

            let y = layer.forward(&x);
            let dy: Vec<f32> = y.iter().map(|v| 2.0 * v).collect();
            layer.zero_grad();
            let dx = layer.backward(&dy);

            let loss = |layer: &Dense, x: &[f32]| -> f32 {
                let mut y = Vec::new();
                layer.infer(x, &mut y);
                y.iter().map(|v| v * v).sum()
            };

            let h = 1e-3f32;
            for i in 0..x.len() {
                let mut xp = x.clone();
                xp[i] += h;
                let mut xm = x.clone();
                xm[i] -= h;
                let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * h);
                prop_assert!((numeric - dx[i]).abs() < 2e-2);
            }
        }
    }
}
