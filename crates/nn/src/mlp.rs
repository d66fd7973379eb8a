//! Multi-layer perceptron assembled from [`Dense`] layers.

use rand::Rng;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::optim::Optimizer;

/// A feed-forward network of [`Dense`] layers.
///
/// The Sibyl paper's placement network is `Mlp::new(&[6, 20, 30, |A|·atoms],
/// Activation::Swish, Activation::Linear, rng)`: 6 state features in, two
/// swish hidden layers of 20 and 30 neurons, and a linear head whose logits
/// are soft-maxed per action by the C51 agent (Fig. 7(b)).
///
/// # Examples
///
/// ```
/// use sibyl_nn::{Activation, Mlp};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let net = Mlp::new(&[6, 20, 30, 2], Activation::Swish, Activation::Linear, &mut rng);
/// // 6·20 + 20·30 + 30·2 = 780 weights, exactly the paper's §10.1 count.
/// assert_eq!(net.mac_count(), 780);
/// ```
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Dense>,
}

impl Mlp {
    /// Builds an MLP with the given layer sizes.
    ///
    /// `dims` lists the input size followed by each layer's output size;
    /// hidden layers use `hidden_act` and the final layer uses `out_act`.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2` or any dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        dims: &[usize],
        hidden_act: Activation,
        out_act: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp: need at least input and output dims");
        let mut layers = Vec::with_capacity(dims.len() - 1);
        for i in 0..dims.len() - 1 {
            let act = if i + 2 == dims.len() {
                out_act
            } else {
                hidden_act
            };
            layers.push(Dense::new(dims[i], dims[i + 1], act, rng));
        }
        Mlp { layers }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.layers
            .last()
            // sibyl-lint: allow(unwrap-in-lib) -- invariant: Mlp::new rejects empty layer stacks
            .expect("Mlp has at least one layer")
            .out_dim()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Dense::num_params).sum()
    }

    /// Multiply-accumulate operations per forward pass (§10.1 of the paper
    /// counts 780 for the 6-20-30-2 network).
    pub fn mac_count(&self) -> usize {
        self.layers.iter().map(Dense::mac_count).sum()
    }

    /// [`Mlp::forward_batch`] over a batch of one input `x`, caching it
    /// for [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        self.forward_batch(x, 1)
    }

    /// [`Mlp::infer_batch`] over a batch of one input `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        self.infer_batch(x, 1)
    }

    /// Cache-free batched inference: one matrix-matrix pass per layer.
    ///
    /// `xs` holds `batch` inputs row-major (`batch × in_dim`); the result
    /// is row-major `(batch × out_dim)`. Row `i` is bit-identical to
    /// `self.infer(&xs[i*in_dim..(i+1)*in_dim])`, a batch of one, and to
    /// row `i` of [`Mlp::forward_batch`] — the kernels keep every dot
    /// product's accumulation order whatever the batch — so batched
    /// serving decisions match per-request decisions exactly. Each layer
    /// runs [`crate::linalg::matmul_bias_panels`] over its packed weights,
    /// one SIMD lane per output, as every forward pass does, so a row
    /// costs the same at any batch width and a batch saves only the
    /// per-call overhead.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `xs.len() != batch * self.in_dim()`.
    pub fn infer_batch(&self, xs: &[f32], batch: usize) -> Vec<f32> {
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        self.infer_batch_into(xs, batch, &mut scratch, &mut out);
        out
    }

    /// [`Mlp::infer_batch`] into caller-owned buffers: `out` is refilled
    /// with the result and `scratch` holds the intermediate activations,
    /// so a caller that keeps both across calls (the training step's
    /// target-network pass) allocates nothing after the first.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `xs.len() != batch * self.in_dim()`.
    pub fn infer_batch_into(
        &self,
        xs: &[f32],
        batch: usize,
        scratch: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        assert!(batch > 0, "Mlp::infer_batch: empty batch");
        assert_eq!(
            xs.len(),
            batch * self.in_dim(),
            "Mlp::infer_batch: input shape mismatch"
        );
        chain(self.layers.iter(), xs, scratch, out, |layer, x, y| {
            layer.infer_batch(x, batch, y);
        });
    }

    /// Batched forward pass that caches every layer's inputs and
    /// activation derivatives for [`Mlp::backward_batch`] — the training
    /// twin of [`Mlp::infer_batch`].
    ///
    /// `xs` holds `batch` inputs row-major; row `i` of the result is
    /// bit-identical to `self.forward(&xs[i*in_dim..(i+1)*in_dim])`.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `xs.len() != batch * self.in_dim()`.
    pub fn forward_batch(&mut self, xs: &[f32], batch: usize) -> Vec<f32> {
        let (mut scratch, mut out) = (Vec::new(), Vec::new());
        self.forward_batch_into(xs, batch, &mut scratch, &mut out);
        out
    }

    /// [`Mlp::forward_batch`] into caller-owned buffers (`out` the
    /// result, `scratch` the intermediate activations): allocates nothing
    /// once the buffers and the layers' caches have reached their size.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `xs.len() != batch * self.in_dim()`.
    pub fn forward_batch_into(
        &mut self,
        xs: &[f32],
        batch: usize,
        scratch: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        assert!(batch > 0, "Mlp::forward_batch: empty batch");
        assert_eq!(
            xs.len(),
            batch * self.in_dim(),
            "Mlp::forward_batch: input shape mismatch"
        );
        chain(self.layers.iter_mut(), xs, scratch, out, |layer, x, y| {
            layer.forward_batch_into(x, batch, y);
        });
    }

    /// [`Mlp::forward_batch_into`] for a caller that reads one
    /// `block`-wide slice of each output row — row `s`'s block
    /// `blocks[s]`, as a C51 head's loss reads the taken action's atoms.
    /// The output layer computes only the weight panels that cover each
    /// row's slice, each output bit-identical to the full pass, and leaves
    /// every other output `0.0`; the caches are
    /// the full pass's, so a backward pass whose `dL/dy` is zero outside
    /// each row's block accumulates the same gradients.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, `xs.len() != batch * self.in_dim()`, the
    /// output layer is not linear, `block` does not divide the output
    /// width, or `blocks` does not hold one in-range block per row.
    pub fn forward_batch_blocks_into(
        &mut self,
        xs: &[f32],
        batch: usize,
        block: usize,
        blocks: &[usize],
        scratch: &mut Vec<f32>,
        out: &mut Vec<f32>,
    ) {
        assert!(batch > 0, "Mlp::forward_batch: empty batch");
        assert_eq!(
            xs.len(),
            batch * self.in_dim(),
            "Mlp::forward_batch: input shape mismatch"
        );
        let last = self.layers.len() - 1;
        chain(
            self.layers.iter_mut().enumerate(),
            xs,
            scratch,
            out,
            |(i, layer), x, y| {
                if i == last {
                    layer.forward_batch_blocks_into(x, batch, block, blocks, y);
                } else {
                    layer.forward_batch_into(x, batch, y);
                }
            },
        );
    }

    /// [`Mlp::backward_batch`] over a batch of one: accumulates gradients
    /// in every layer from `dL/dy` and returns `dL/dx`.
    ///
    /// Must follow a [`Mlp::forward`] call.
    pub fn backward(&mut self, dy: &[f32]) -> Vec<f32> {
        self.backward_batch(dy, 1)
    }

    /// Batched backward pass from the row-major `(batch × out_dim)`
    /// upstream gradient `dy`: accumulates the whole batch's gradients in
    /// every layer with one matrix-matrix pass each and returns the
    /// row-major `(batch × in_dim)` gradient `dL/dx`.
    ///
    /// Must follow a [`Mlp::forward_batch`] call with the same `batch`.
    /// The bit-identity contract of the batched training path: calling
    /// `forward_batch` + `backward_batch` once leaves gradient buffers
    /// (and therefore the subsequent optimizer step) bit-identical to
    /// `batch` sequential one-row [`Mlp::forward`] + [`Mlp::backward`]
    /// calls in sample order, because every per-element floating-point
    /// accumulation happens in the same order — each weight matrix just
    /// streams once per *batch* instead of once per *sample*. The
    /// `train_batch_parity` property suite pins this across random
    /// shapes, batch sizes, and activations.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != batch * self.out_dim()` or the cached
    /// forward state does not match.
    pub fn backward_batch(&mut self, dy: &[f32], batch: usize) -> Vec<f32> {
        let (mut scratch, mut dx) = (Vec::new(), Vec::new());
        self.backward_batch_into(dy, batch, &mut scratch, &mut dx);
        dx
    }

    /// [`Mlp::backward_batch`] into caller-owned buffers (`dx` the
    /// result, `scratch` the intermediate deltas): allocates nothing once
    /// the buffers and the layers' scratch have reached their size.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != batch * self.out_dim()` or the cached
    /// forward state does not match.
    pub fn backward_batch_into(
        &mut self,
        dy: &[f32],
        batch: usize,
        scratch: &mut Vec<f32>,
        dx: &mut Vec<f32>,
    ) {
        chain(
            self.layers.iter_mut().rev(),
            dy,
            scratch,
            dx,
            |layer, d, dx| layer.backward_batch_into(d, batch, Some(dx)),
        );
    }

    /// [`Mlp::backward_batch_into`] for a caller that only steps the
    /// optimizer: accumulates every layer's gradients exactly as it does
    /// and stops there — the first layer's `dL/dx` is never computed.
    /// `scratch` holds the intermediate deltas.
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != batch * self.out_dim()` or the cached
    /// forward state does not match.
    pub fn accumulate_grads_batch(
        &mut self,
        dy: &[f32],
        batch: usize,
        scratch: &mut [Vec<f32>; 2],
    ) {
        let [scratch, out] = scratch;
        chain(
            self.layers.iter_mut().enumerate().rev(),
            dy,
            scratch,
            out,
            |(i, layer), d, dx| layer.backward_batch_into(d, batch, (i > 0).then_some(dx)),
        );
    }

    /// Clears accumulated gradients in all layers.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Applies accumulated gradients through `opt`, scaling them by
    /// `scale` first (use `1.0 / batch_size` for mean-gradient training),
    /// and repacks every layer's weight panels. Layer `i`'s weights are
    /// `opt`'s parameter group `2i` and its biases `2i + 1`. Accepts
    /// `&mut dyn Optimizer` as well as concrete optimizers.
    pub fn apply_grads<O: Optimizer + ?Sized>(&mut self, opt: &mut O, scale: f32) {
        for (i, layer) in self.layers.iter_mut().enumerate() {
            layer.apply_grads(opt, 2 * i, scale);
        }
    }

    /// Copies all weights from another network of identical shape.
    ///
    /// Used by the paper's two-network design: the training network's
    /// weights are copied to the inference network every 1000 requests
    /// (Algorithm 1, line 19).
    ///
    /// # Panics
    ///
    /// Panics if layer shapes differ.
    pub fn copy_weights_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "copy_weights_from: layer count mismatch"
        );
        for (dst, src) in self.layers.iter_mut().zip(&other.layers) {
            dst.copy_weights_from(src);
        }
    }

    /// Iterates over the layers.
    pub fn layers(&self) -> impl Iterator<Item = &Dense> {
        self.layers.iter()
    }

    /// Flattens all parameters into a single vector (weights then biases,
    /// layer by layer). Useful for checkpointing and tests.
    pub fn flat_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_params());
        for layer in &self.layers {
            let (w, b) = layer.params();
            out.extend_from_slice(w);
            out.extend_from_slice(b);
        }
        out
    }

    /// Restores all parameters from a flat vector produced by
    /// [`Mlp::flat_params`] (weights then biases, layer by layer) — the
    /// dual operation, used by checkpoint restore and by the cooperation
    /// layer's federated weight averaging.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len() != self.num_params()`.
    pub fn set_flat_params(&mut self, flat: &[f32]) {
        assert_eq!(
            flat.len(),
            self.num_params(),
            "Mlp::set_flat_params: parameter count mismatch"
        );
        let mut off = 0;
        for layer in &mut self.layers {
            let (nw, nb) = (layer.params().0.len(), layer.params().1.len());
            layer.set_params(&flat[off..off + nw], &flat[off + nw..off + nw + nb]);
            off += nw + nb;
        }
    }
}

/// Threads `input` through `layers` with `step(layer, x, y)` writing each
/// layer's output `y` from its input `x`, ping-ponging between the two
/// caller-owned buffers so no pass allocates once they have grown; the
/// last layer's output lands in `out`.
fn chain<L>(
    layers: impl Iterator<Item = L>,
    input: &[f32],
    scratch: &mut Vec<f32>,
    out: &mut Vec<f32>,
    mut step: impl FnMut(L, &[f32], &mut Vec<f32>),
) {
    for (i, layer) in layers.enumerate() {
        if i == 0 {
            step(layer, input, out);
        } else {
            std::mem::swap(scratch, out);
            step(layer, scratch, out);
        }
    }
}

/// Element-wise mean of parameter vectors (federated averaging across
/// cooperating agents' networks).
///
/// Computed baseline-relative — `out[j] = s₀[j] + (Σᵢ (sᵢ[j] − s₀[j])) / n`
/// — which is the exact arithmetic mean, but with two properties plain
/// summation lacks: averaging `n` *identical* vectors returns the input
/// bit-for-bit (every difference term is exactly zero), and for the
/// near-agreeing parameter sets weight averaging produces in practice the
/// summation happens on small differences instead of large magnitudes,
/// avoiding cancellation. The fold order is the slice order, so the
/// result is deterministic for a fixed input order.
///
/// # Panics
///
/// Panics if `sources` is empty or the vectors' lengths differ.
pub fn mean_params(sources: &[&[f32]]) -> Vec<f32> {
    assert!(!sources.is_empty(), "mean_params: no sources");
    let base = sources[0];
    assert!(
        sources.iter().all(|s| s.len() == base.len()),
        "mean_params: length mismatch"
    );
    let inv_n = 1.0f32 / sources.len() as f32;
    let mut out = base.to_vec();
    for (j, o) in out.iter_mut().enumerate() {
        let mut diff = 0.0f32;
        for s in &sources[1..] {
            diff += s[j] - base[j];
        }
        *o += diff * inv_n;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Sgd;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn paper_network_has_780_weights() {
        let net = Mlp::new(
            &[6, 20, 30, 2],
            Activation::Swish,
            Activation::Linear,
            &mut rng(0),
        );
        assert_eq!(net.mac_count(), 780);
        // 780 weights + 52 biases
        assert_eq!(net.num_params(), 832);
        assert_eq!(net.in_dim(), 6);
        assert_eq!(net.out_dim(), 2);
    }

    #[test]
    fn infer_matches_forward() {
        let mut net = Mlp::new(
            &[4, 8, 3],
            Activation::Swish,
            Activation::Linear,
            &mut rng(1),
        );
        let x = [0.2, -0.4, 0.6, 0.8];
        assert_eq!(net.forward(&x), net.infer(&x));
    }

    #[test]
    fn copy_weights_synchronizes_outputs() {
        let train = Mlp::new(
            &[4, 8, 2],
            Activation::Swish,
            Activation::Linear,
            &mut rng(2),
        );
        let mut infer = Mlp::new(
            &[4, 8, 2],
            Activation::Swish,
            Activation::Linear,
            &mut rng(3),
        );
        let x = [0.5, 0.5, -0.5, -0.5];
        assert_ne!(train.infer(&x), infer.infer(&x));
        infer.copy_weights_from(&train);
        assert_eq!(train.infer(&x), infer.infer(&x));
    }

    #[test]
    fn sgd_training_reduces_loss() {
        let mut net = Mlp::new(
            &[2, 16, 1],
            Activation::Swish,
            Activation::Linear,
            &mut rng(4),
        );
        let mut opt = Sgd::new(0.05);
        // Learn XOR-ish continuous function f(a, b) = a * b.
        let data: Vec<([f32; 2], f32)> = vec![
            ([0.0, 0.0], 0.0),
            ([0.0, 1.0], 0.0),
            ([1.0, 0.0], 0.0),
            ([1.0, 1.0], 1.0),
            ([0.5, 0.5], 0.25),
        ];
        let loss_of = |net: &Mlp| -> f32 {
            data.iter()
                .map(|(x, t)| {
                    let y = net.infer(x)[0];
                    (y - t) * (y - t)
                })
                .sum::<f32>()
        };
        let before = loss_of(&net);
        for _ in 0..400 {
            net.zero_grad();
            for (x, t) in &data {
                let y = net.forward(x);
                let dl = [2.0 * (y[0] - t)];
                net.backward(&dl);
            }
            net.apply_grads(&mut opt, 1.0 / data.len() as f32);
        }
        let after = loss_of(&net);
        assert!(
            after < before * 0.2,
            "loss did not drop: {before} -> {after}"
        );
    }

    #[test]
    fn flat_params_length_matches() {
        let net = Mlp::new(
            &[3, 5, 2],
            Activation::Relu,
            Activation::Linear,
            &mut rng(5),
        );
        assert_eq!(net.flat_params().len(), net.num_params());
    }

    #[test]
    fn whole_network_gradient_check() {
        let mut net = Mlp::new(
            &[3, 6, 4, 2],
            Activation::Swish,
            Activation::Linear,
            &mut rng(6),
        );
        let x = [0.4, -0.7, 0.2];
        let y = net.forward(&x);
        let dy: Vec<f32> = y.iter().map(|v| 2.0 * v).collect();
        net.zero_grad();
        let dx = net.backward(&dy);

        let loss = |net: &Mlp, x: &[f32]| -> f32 { net.infer(x).iter().map(|v| v * v).sum() };
        let h = 1e-3f32;
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += h;
            let mut xm = x;
            xm[i] -= h;
            let numeric = (loss(&net, &xp) - loss(&net, &xm)) / (2.0 * h);
            assert!(
                (numeric - dx[i]).abs() < 2e-2,
                "input {i}: numeric {numeric} vs analytic {}",
                dx[i]
            );
        }
    }

    #[test]
    #[should_panic(expected = "need at least input and output dims")]
    fn rejects_degenerate_shape() {
        let _ = Mlp::new(&[4], Activation::Linear, Activation::Linear, &mut rng(7));
    }

    #[test]
    fn set_flat_params_roundtrips() {
        let src = Mlp::new(
            &[4, 7, 3],
            Activation::Swish,
            Activation::Linear,
            &mut rng(20),
        );
        let mut dst = Mlp::new(
            &[4, 7, 3],
            Activation::Swish,
            Activation::Linear,
            &mut rng(21),
        );
        let x = [0.4, -0.2, 0.9, 0.1];
        assert_ne!(src.infer(&x), dst.infer(&x));
        dst.set_flat_params(&src.flat_params());
        assert_eq!(src.infer(&x), dst.infer(&x));
        assert_eq!(src.flat_params(), dst.flat_params());
    }

    /// The weight panels never go stale: each way of writing weights —
    /// `Dense::set_params`, `apply_grads`, `copy_weights_from` and
    /// `set_flat_params` — changes the outputs, and then both forward
    /// passes, `infer_batch` and `forward_batch`, equal, bit for bit, a
    /// network freshly built from the same `flat_params`.
    #[test]
    fn weight_writes_never_leave_stale_panels() {
        let dims = [6, 20, 30, 102];
        let new = |seed| Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut rng(seed));
        let xs: Vec<f32> = (0..3 * 6).map(|i| (i as f32 * 0.7).sin()).collect();
        let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let mut net = new(40);
        let mut seen = bits(net.infer_batch(&xs, 3));
        let mut check = |net: &mut Mlp, path: &str| {
            let got = bits(net.infer_batch(&xs, 3));
            assert_ne!(got, seen, "{path} changed no output");
            let mut fresh = new(0);
            fresh.set_flat_params(&net.flat_params());
            assert_eq!(got, bits(fresh.infer_batch(&xs, 3)), "{path}: stale panels");
            assert_eq!(
                bits(net.forward_batch(&xs, 3)),
                bits(fresh.forward_batch(&xs, 3)),
                "{path}: forward_batch read stale panels"
            );
            seen = got;
        };

        for layer in &mut net.layers {
            let (w, b) = layer.params();
            let w: Vec<f32> = w.iter().map(|v| v * -0.5).collect();
            let b: Vec<f32> = b.iter().map(|v| v + 0.25).collect();
            layer.set_params(&w, &b);
        }
        check(&mut net, "set_params");

        let _ = net.forward_batch(&xs, 3);
        net.zero_grad();
        let _ = net.backward_batch(&[1.0; 3 * 102], 3);
        net.apply_grads(&mut Sgd::new(0.1), 1.0);
        check(&mut net, "apply_grads");

        net.copy_weights_from(&new(41));
        check(&mut net, "copy_weights_from");

        net.set_flat_params(&new(42).flat_params());
        check(&mut net, "set_flat_params");
    }

    #[test]
    #[should_panic(expected = "parameter count mismatch")]
    fn set_flat_params_rejects_wrong_length() {
        let mut net = Mlp::new(
            &[3, 4, 2],
            Activation::Relu,
            Activation::Linear,
            &mut rng(22),
        );
        net.set_flat_params(&[0.0; 3]);
    }

    #[test]
    fn mean_params_averages_two_vectors() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [3.0f32, 0.0, 5.0];
        assert_eq!(mean_params(&[&a, &b]), vec![2.0, 1.0, 4.0]);
    }

    #[test]
    fn mean_params_single_source_is_identity() {
        let a = [0.1f32, -0.7, 3.3];
        assert_eq!(mean_params(&[&a]), a.to_vec());
    }

    #[test]
    #[should_panic(expected = "no sources")]
    fn mean_params_rejects_empty() {
        let _ = mean_params(&[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mean_params_rejects_ragged() {
        let _ = mean_params(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn infer_batch_rejects_empty() {
        let net = Mlp::new(
            &[3, 4, 2],
            Activation::Swish,
            Activation::Linear,
            &mut rng(9),
        );
        let _ = net.infer_batch(&[], 0);
    }

    #[test]
    fn forward_batch_matches_infer_batch_and_caches() {
        let mut net = Mlp::new(
            &[4, 9, 3],
            Activation::Swish,
            Activation::Linear,
            &mut rng(30),
        );
        let xs: Vec<f32> = (0..3 * 4).map(|i| (i as f32).sin()).collect();
        let cached = net.forward_batch(&xs, 3);
        assert_eq!(cached, net.infer_batch(&xs, 3));
        // The cached state supports an immediate batched backward pass.
        let dy = vec![1.0f32; 3 * 3];
        let dx = net.backward_batch(&dy, 3);
        assert_eq!(dx.len(), 3 * 4);
    }

    #[test]
    #[should_panic(expected = "without a matching forward_batch")]
    fn backward_batch_rejects_stale_cache() {
        let mut net = Mlp::new(
            &[3, 4, 2],
            Activation::Swish,
            Activation::Linear,
            &mut rng(31),
        );
        let _ = net.forward_batch(&[0.1; 6], 2);
        let _ = net.backward_batch(&[1.0; 6], 3);
    }

    proptest! {
        /// Averaging N copies of the same network is bit-identical to the
        /// input — the invariant the cooperation layer's weight-averaging
        /// relies on so that already-converged shards are not perturbed by
        /// a sync round.
        #[test]
        fn mean_of_identical_params_is_identity(seed in 0u64..200, n in 1usize..9) {
            let mut r = rng(seed);
            let net = Mlp::new(
                &[5, 12, 7, 3],
                Activation::Swish,
                Activation::Linear,
                &mut r,
            );
            let flat = net.flat_params();
            let sources: Vec<&[f32]> = (0..n).map(|_| flat.as_slice()).collect();
            let mean = mean_params(&sources);
            prop_assert_eq!(
                mean.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                flat.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
        }

        /// Batched inference is bit-identical to the per-request path for
        /// random weights, inputs, and batch sizes — the guarantee the
        /// serving engine's batched C51 decisions rest on.
        #[test]
        fn infer_batch_matches_per_request(seed in 0u64..200, batch in 1usize..9) {
            let mut r = rng(seed);
            let net = Mlp::new(
                &[5, 12, 7, 3],
                Activation::Swish,
                Activation::Linear,
                &mut r,
            );
            let xs: Vec<f32> = (0..batch * 5)
                .map(|_| {
                    use rand::Rng;
                    r.gen_range(-2.0f32..2.0)
                })
                .collect();
            let out = net.infer_batch(&xs, batch);
            prop_assert_eq!(out.len(), batch * 3);
            for i in 0..batch {
                let single = net.infer(&xs[i * 5..(i + 1) * 5]);
                prop_assert_eq!(&out[i * 3..(i + 1) * 3], &single[..]);
            }
        }
    }
}
