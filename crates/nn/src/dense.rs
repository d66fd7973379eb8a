//! Fully-connected layer with cached forward state for backpropagation.

use rand::Rng;

use crate::activation::Activation;
use crate::init::xavier_uniform;
use crate::linalg;
use crate::optim::Optimizer;

/// A fully-connected layer `y = act(W·x + b)`.
///
/// Weights are stored row-major as `(out_dim × in_dim)`, and mirrored in
/// weight panels packed for [`linalg::matmul_bias_panels`], the kernel
/// every forward pass runs. Every pass takes a batch of inputs, row-major,
/// and a single input is a batch of one.
/// The layer caches its last inputs and the activation derivative at
/// every pre-activation during [`Dense::forward_batch`] so the backward
/// pass computes exact gradients without re-evaluating the activation;
/// use [`Dense::infer_batch`] for cache-free inference (the paper's
/// inference network is never trained directly, §6.2.2).
///
/// # Examples
///
/// ```
/// use sibyl_nn::{Activation, Dense};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, Activation::Relu, &mut rng);
/// let y = layer.forward_batch(&[1.0, 0.0, -1.0], 1);
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
    /// `batch × out_dim` values after [`Dense::forward_batch`], empty when
    /// nothing is cached or the layer is linear. Filled by the same
    /// [`Activation::apply_with_derivative`] call that produces the
    /// layer's output, so the activation's `exp` runs once per element
    /// per training pass, not once forward and once backward.
    cache_dact: Vec<f32>,
    /// `dL/dz` scratch of the backward passes, reused across calls.
    dz: Vec<f32>,
    /// `w` packed by [`linalg::pack_panels`] for
    /// [`linalg::matmul_bias_panels`]. Always current: `w` is private, and
    /// every method that writes it repacks this in place.
    panels: Vec<f32>,
}

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
        let mut panels = Vec::new();
        linalg::pack_panels(&w, out_dim, in_dim, &mut panels);
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
            panels,
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

    /// Forward pass over a batch that caches the inputs and activation
    /// derivatives for [`Dense::backward_batch`] — the training twin of
    /// [`Dense::infer_batch`].
    ///
    /// `xs` is row-major `(batch × in_dim)`; the result is row-major
    /// `(batch × out_dim)`, and each output row is bit-identical to a
    /// batch of one on the corresponding input (the kernel keeps every
    /// dot product's accumulation order, whatever the batch) and to
    /// [`Dense::infer_batch`]'s row.
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
        linalg::matmul_bias_panels(
            &self.panels,
            &self.b,
            xs,
            self.out_dim,
            self.in_dim,
            batch,
            out,
        );
        self.activate_and_cache(out);
    }

    /// [`Dense::forward_batch_into`] for a linear layer whose outputs are
    /// read one `block`-wide slice per row: row `s` gets only outputs
    /// `blocks[s] * block .. (blocks[s] + 1) * block`, each bit-identical
    /// to the full pass, and every other output is `0.0`. The cache is what
    /// the full pass leaves, so [`Dense::backward_batch`] with `dL/dy`
    /// zero outside each row's block accumulates the same gradients. Each
    /// row runs the panel kernel over only the panels that cover its block
    /// (four panels of 16 for a 51-wide C51 block of a two- or
    /// three-action head), straight into
    /// its output row, and the panels' outputs outside the block are then
    /// reset to `0.0`.
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
        let cols = self.in_dim;
        for ((x, orow), &k) in xs
            .chunks_exact(cols)
            .zip(out.chunks_exact_mut(self.out_dim))
            .zip(blocks)
        {
            let outs = k * block..(k + 1) * block;
            // The whole panels covering the block, and the outputs they hold.
            let p0 = outs.start / linalg::PANEL;
            let p1 = outs.end.div_ceil(linalg::PANEL);
            let span = p0 * linalg::PANEL..(p1 * linalg::PANEL).min(self.out_dim);
            linalg::panels_row(
                &self.panels[p0 * cols * linalg::PANEL..p1 * cols * linalg::PANEL],
                &self.b[span.clone()],
                x,
                &mut orow[span.clone()],
            );
            orow[span.start..outs.start].fill(0.0);
            orow[outs.end..span.end].fill(0.0);
        }
    }

    /// Cache-free forward pass over a batch. `xs` is row-major
    /// `(batch × in_dim)`; `out` is refilled row-major
    /// `(batch × out_dim)`. Each output row is bit-identical to what a
    /// batch of one produces for the corresponding input, and to
    /// [`Dense::forward_batch`]'s row.
    ///
    /// Runs [`linalg::matmul_bias_panels`] over the layer's packed
    /// weights, one SIMD lane per output, so a row costs the same at any
    /// batch width.
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
        linalg::matmul_bias_panels(
            &self.panels,
            &self.b,
            xs,
            self.out_dim,
            self.in_dim,
            batch,
            out,
        );
        self.act.apply_slice(out);
    }

    /// Batched backward pass: given the row-major `(batch × out_dim)`
    /// upstream gradient `dy`, accumulates the whole batch's `dL/dW` and
    /// `dL/db` into the layer's gradient buffers and returns the
    /// row-major `(batch × in_dim)` gradient `dL/dx`.
    ///
    /// Must be preceded by a [`Dense::forward_batch`] call with the same
    /// `batch`. The accumulation order per gradient element is kept
    /// identical to `batch` sequential one-row [`Dense::forward_batch`] +
    /// [`Dense::backward_batch`] calls in sample order — per weight row,
    /// each sample's contribution lands in ascending sample order — so a
    /// batch is bit-exact against the one-row loop (pinned by the
    /// `train_batch_parity` property suite). The kernels
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

    /// Overwrites the weights (row-major `out_dim × in_dim`) and biases,
    /// and repacks the panels.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `b` has the wrong length.
    pub(crate) fn set_params(&mut self, w: &[f32], b: &[f32]) {
        self.w.copy_from_slice(w);
        self.b.copy_from_slice(b);
        self.repack();
    }

    /// Immutable views of `(weight grads, bias grads)`.
    pub fn grads(&self) -> (&[f32], &[f32]) {
        (&self.dw, &self.db)
    }

    /// Mutable views of `(weight grads, bias grads)`, for a caller that
    /// rewrites gradients in place. A rewrite can leave `-0.0` behind, so
    /// call [`Dense::zero_grad`] before accumulating again (the
    /// backward kernels' zero-skip contract, [`linalg::matmul_at_b_acc`]).
    pub fn grads_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (&mut self.dw, &mut self.db)
    }

    /// One optimizer step from the accumulated gradients, scaled by
    /// `scale` first: `opt` updates the weights as parameter group
    /// `param_id` and the biases as `param_id + 1`, then the panels are
    /// repacked.
    pub(crate) fn apply_grads<O: Optimizer + ?Sized>(
        &mut self,
        opt: &mut O,
        param_id: usize,
        scale: f32,
    ) {
        if scale != 1.0 {
            linalg::scale(&mut self.dw, scale);
            linalg::scale(&mut self.db, scale);
        }
        opt.update(param_id, &mut self.w, &self.dw);
        opt.update(param_id + 1, &mut self.b, &self.db);
        self.repack();
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
        // `other`'s panels mirror `other.w`, so they are copied, not
        // repacked.
        self.panels.copy_from_slice(&other.panels);
    }

    /// Repacks the panels from `w`, in place: what every write of `w`
    /// ends with.
    fn repack(&mut self) {
        linalg::pack_panels(&self.w, self.out_dim, self.in_dim, &mut self.panels);
    }
}

/// `dL/dz = dy ⊙ act'(z)` from the derivatives the forward pass cached,
/// element-wise. A linear layer's delta *is* `dy` (`d · 1.0` is `d` bit
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

    /// Cache-free inference of one input.
    fn infer(layer: &Dense, x: &[f32]) -> Vec<f32> {
        let mut y = Vec::new();
        layer.infer_batch(x, 1, &mut y);
        y
    }

    #[test]
    fn forward_shapes() {
        let mut layer = Dense::new(4, 3, Activation::Linear, &mut rng());
        let y = layer.forward_batch(&[1.0, 2.0, 3.0, 4.0], 1);
        assert_eq!(y.len(), 3);
        assert_eq!(layer.num_params(), 4 * 3 + 3);
        assert_eq!(layer.mac_count(), 12);
    }

    #[test]
    fn infer_matches_forward() {
        let mut layer = Dense::new(5, 2, Activation::Swish, &mut rng());
        let x = [0.3, -0.5, 0.9, 0.0, 2.0];
        assert_eq!(layer.forward_batch(&x, 1), infer(&layer, &x));
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn forward_rejects_bad_input() {
        let mut layer = Dense::new(4, 3, Activation::Linear, &mut rng());
        let _ = layer.forward_batch(&[1.0], 1);
    }

    #[test]
    fn copy_weights_makes_layers_identical() {
        let mut a = Dense::new(3, 3, Activation::Relu, &mut rng());
        let mut src_rng = rand::rngs::StdRng::seed_from_u64(77);
        let b = Dense::new(3, 3, Activation::Relu, &mut src_rng);
        a.copy_weights_from(&b);
        let x = [0.1, 0.2, 0.3];
        assert_eq!(infer(&a, &x), infer(&b, &x));
    }

    /// Finite-difference gradient check: perturb each weight and compare
    /// dL/dw against (L(w+h) - L(w-h)) / 2h for the scalar loss L = Σ y².
    #[test]
    fn gradient_check_weights() {
        let mut layer = Dense::new(4, 3, Activation::Swish, &mut rng());
        let x = [0.5, -0.2, 0.8, 0.1];

        let loss =
            |layer: &Dense, x: &[f32]| -> f32 { infer(layer, x).iter().map(|v| v * v).sum() };

        // Analytic gradient.
        let y = layer.forward_batch(&x, 1);
        let dy: Vec<f32> = y.iter().map(|v| 2.0 * v).collect();
        layer.zero_grad();
        let _ = layer.backward_batch(&dy, 1);
        let (dw, _db) = {
            let (dw, db) = layer.grads();
            (dw.to_vec(), db.to_vec())
        };

        let h = 1e-3f32;
        // The weights are written through `set_params`, which repacks the
        // panels the loss's inference reads.
        let (w, b) = (layer.params().0.to_vec(), layer.params().1.to_vec());
        for (idx, &analytic) in dw.iter().enumerate() {
            let mut perturbed = w.clone();
            perturbed[idx] = w[idx] + h;
            layer.set_params(&perturbed, &b);
            let lp = loss(&layer, &x);
            perturbed[idx] = w[idx] - h;
            layer.set_params(&perturbed, &b);
            let lm = loss(&layer, &x);
            let numeric = (lp - lm) / (2.0 * h);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    proptest! {
        /// Input gradients match finite differences for random inputs.
        #[test]
        fn gradient_check_inputs(seed in 0u64..500) {
            let mut r = rand::rngs::StdRng::seed_from_u64(seed);
            let mut layer = Dense::new(3, 2, Activation::Swish, &mut r);
            let x: Vec<f32> = (0..3).map(|_| {
                use rand::Rng;
                r.gen_range(-1.0f32..1.0)
            }).collect();

            let y = layer.forward_batch(&x, 1);
            let dy: Vec<f32> = y.iter().map(|v| 2.0 * v).collect();
            layer.zero_grad();
            let dx = layer.backward_batch(&dy, 1);

            let loss = |layer: &Dense, x: &[f32]| -> f32 {
                infer(layer, x).iter().map(|v| v * v).sum()
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
