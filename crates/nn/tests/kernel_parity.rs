//! The tiled-kernel bit-identity pin.
//!
//! The tiled kernels in `sibyl_nn::linalg` exist purely for speed — their
//! inner loops are bounds-check-free so rustc autovectorizes them — so
//! they must change nothing about the numbers: every output element's
//! accumulation chain runs in exactly the order of the retained
//! [`linalg::scalar`] references, making results bit-for-bit identical.
//! These property tests pin that across random shapes, with the dimension
//! palette deliberately straddling the tile boundaries (`ROW_TILE` − 1 /
//! exact / + 1, 7, 8, 9 and 16, 1, and odd primes) so remainder paths are
//! exercised as hard as full tiles.
//!
//! The forward kernel, `matmul_bias_panels` over `pack_panels`'s k-major
//! weight panels, is pinned the same way against `scalar::matmul_bias`,
//! at every `rows % PANEL` remainder and every batch width 1..=17, with
//! signed zeros, NaNs and infinities among the inputs; and
//! `Mlp::infer_batch` equals `Mlp::forward_batch`, which caches for the
//! backward pass, row by row.
//!
//! Last, the tiled kernels must earn their place: on the default serving
//! network, release builds race `Mlp::infer_batch` against the same pass
//! assembled from the scalar references, at batch widths 1, 2, 8 and 32.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use sibyl_nn::linalg::{self, scalar, PANEL, ROW_TILE};
use sibyl_nn::{Activation, Mlp};

/// Dimension palette straddling the tile boundaries: 1, ROW_TILE−1,
/// ROW_TILE, ROW_TILE+1, 7, 8 and 9 around a 256-bit vector of f32, odd
/// primes, and 16, one `PANEL`.
const DIMS: [usize; 11] = [
    1,
    ROW_TILE - 1,
    ROW_TILE,
    ROW_TILE + 1,
    7,
    8,
    9,
    11,
    13,
    17,
    16,
];

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn random_vec(r: &mut rand::rngs::StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| r.gen_range(-2.0f32..2.0)).collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    /// Tiled `matmul_transpose` is bit-identical to the scalar reference.
    #[test]
    fn matmul_transpose_matches_scalar(
        seed in 0u64..400,
        ri in 0usize..DIMS.len(),
        ci in 0usize..DIMS.len(),
        bi in 0usize..DIMS.len(),
    ) {
        let (rows, cols, batch) = (DIMS[ri], DIMS[ci], DIMS[bi]);
        let mut r = rng(seed);
        let w = random_vec(&mut r, rows * cols);
        let d = random_vec(&mut r, batch * rows);
        let (mut tiled, mut reference) = (Vec::new(), Vec::new());
        linalg::matmul_transpose(&w, &d, rows, cols, batch, &mut tiled);
        scalar::matmul_transpose(&w, &d, rows, cols, batch, &mut reference);
        prop_assert_eq!(bits(&tiled), bits(&reference));
    }

    /// Tiled `matmul_at_b_acc` accumulates bit-identically to the scalar
    /// reference — on top of a non-zero prior gradient, so the
    /// accumulation (not just a fresh sum) is pinned.
    #[test]
    fn matmul_at_b_acc_matches_scalar(
        seed in 0u64..400,
        ri in 0usize..DIMS.len(),
        ci in 0usize..DIMS.len(),
        bi in 0usize..DIMS.len(),
    ) {
        let (rows, cols, batch) = (DIMS[ri], DIMS[ci], DIMS[bi]);
        let mut r = rng(seed);
        let prior = random_vec(&mut r, rows * cols);
        let d = random_vec(&mut r, batch * rows);
        let xs = random_vec(&mut r, batch * cols);
        let mut tiled = prior.clone();
        let mut reference = prior;
        linalg::matmul_at_b_acc(&mut tiled, &d, &xs, rows, cols, batch);
        scalar::matmul_at_b_acc(&mut reference, &d, &xs, rows, cols, batch);
        prop_assert_eq!(bits(&tiled), bits(&reference));
    }

    /// Tiled `col_sum_acc` accumulates bit-identically to the scalar
    /// reference, again on top of a non-zero prior.
    #[test]
    fn col_sum_acc_matches_scalar(
        seed in 0u64..400,
        ri in 0usize..DIMS.len(),
        bi in 0usize..DIMS.len(),
    ) {
        let (rows, batch) = (DIMS[ri], DIMS[bi]);
        let mut r = rng(seed);
        let prior = random_vec(&mut r, rows);
        let d = random_vec(&mut r, batch * rows);
        let mut tiled = prior.clone();
        let mut reference = prior;
        linalg::col_sum_acc(&mut tiled, &d, batch);
        scalar::col_sum_acc(&mut reference, &d, batch);
        prop_assert_eq!(bits(&tiled), bits(&reference));
    }
}

/// Equal to the bit, or both NaN: a NaN's payload is the platform's
/// business.
fn same(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// Inputs for the panel kernel's pins: random values (case 0), or random
/// values with `+0.0`, `-0.0`, NaN, `+∞` and `-∞` sprinkled in, all-zero
/// rows under all-negative weights, and biases of `±0.0` (case 1).
fn panel_case(
    r: &mut rand::rngs::StdRng,
    (rows, cols, batch): (usize, usize, usize),
    special: bool,
) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let mut w = random_vec(r, rows * cols);
    let mut b = random_vec(r, rows);
    let mut xs = random_vec(r, batch * cols);
    if special {
        const ODD: [f32; 5] = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        w.iter_mut().for_each(|v| *v = -v.abs() - 0.5);
        b.iter_mut()
            .for_each(|v| *v = if r.gen::<bool>() { 0.0 } else { -0.0 });
        for (s, row) in xs.chunks_exact_mut(cols).enumerate() {
            if s % 3 == 0 {
                row.fill(if s % 2 == 0 { 0.0 } else { -0.0 });
            } else {
                for v in row.iter_mut() {
                    if r.gen_range(0..4) == 0 {
                        *v = ODD[r.gen_range(0..ODD.len())];
                    }
                }
            }
        }
    }
    (w, b, xs)
}

/// The forward kernel over packed panels is bit-identical to the scalar
/// reference, and each row to itself at a batch of one, over every output
/// count 1..=2·PANEL+1 (every `rows % PANEL` remainder, at one panel and
/// at several) × every batch width 1..=17 × every column count in the
/// palette: on random inputs, and on signed zeros, NaNs and infinities
/// under `±0.0` biases. The decision memo's invisibility property rests
/// on this: a row's result does not depend on the batch it rides in.
#[test]
fn matmul_bias_panels_matches_scalar_at_every_remainder_and_width() {
    let mut r = rng(47);
    let (mut packed, mut reference, mut single) = (Vec::new(), Vec::new(), Vec::new());
    for rows in 1..=2 * PANEL + 1 {
        for batch in 1..=17usize {
            for cols in DIMS {
                for special in [false, true] {
                    let (w, b, xs) = panel_case(&mut r, (rows, cols, batch), special);
                    let mut panels = Vec::new();
                    linalg::pack_panels(&w, rows, cols, &mut panels);
                    linalg::matmul_bias_panels(&panels, &b, &xs, rows, cols, batch, &mut packed);
                    scalar::matmul_bias(&w, &b, &xs, rows, cols, batch, &mut reference);
                    assert_eq!(packed.len(), batch * rows);
                    for (s, x) in xs.chunks_exact(cols).enumerate() {
                        linalg::matmul_bias_panels(&panels, &b, x, rows, cols, 1, &mut single);
                        for (i, &v) in single.iter().enumerate() {
                            let (p, f) = (packed[s * rows + i], reference[s * rows + i]);
                            assert!(
                                same(p, f) && same(p, v),
                                "rows {rows} cols {cols} batch {batch} special {special} row {s} \
                                 out {i}: panels {p:?} scalar {f:?} one row {v:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    /// `Mlp::infer_batch` equals `Mlp::forward_batch`, which also caches
    /// for the backward pass, row by row, bit for bit, on networks
    /// whose layer widths straddle the panel boundary, with random weights
    /// and non-zero biases, at every batch width 1..=17.
    #[test]
    fn infer_batch_is_forward_batch(
        seed in 0u64..200,
        hidden in (1usize..=2 * PANEL + 1, 1usize..=2 * PANEL + 1),
        out_dim in 1usize..=2 * PANEL + 1,
        batch in 1usize..=17,
    ) {
        let mut r = rng(seed);
        let dims = [6, hidden.0, hidden.1, out_dim];
        let mut net = Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut r);
        net.set_flat_params(&random_vec(&mut r, net.num_params()));
        let xs = random_vec(&mut r, batch * 6);
        let inferred = net.infer_batch(&xs, batch);
        let forward = net.forward_batch(&xs, batch);
        prop_assert_eq!(bits(&inferred), bits(&forward));
    }
}

/// Delta matrices that exercise the backward kernels' zero-skip: the
/// kernels stream only each delta row's live span (first to last
/// non-zero entry), so the shapes that matter are exact zeros — of
/// either sign — at the margins, inside the span, and across whole rows.
#[derive(Debug, Clone, Copy)]
enum Sparsity {
    /// Random values with exact `+0.0` / `-0.0` entries scattered in.
    ScatteredZeros,
    /// Every other row entirely zero (alternating `+0.0` and `-0.0`).
    ZeroRows,
    /// A random live span per row, zero margins of either sign.
    ZeroMargins,
    /// What a C51 head emits: one live block per row, `blocks` equal
    /// blocks wide, everything else exactly `+0.0`.
    OneLiveBlock { blocks: usize },
}

fn sparse_deltas(
    r: &mut rand::rngs::StdRng,
    batch: usize,
    rows: usize,
    sparsity: Sparsity,
) -> Vec<f32> {
    let signed_zero = |r: &mut rand::rngs::StdRng| if r.gen::<bool>() { 0.0f32 } else { -0.0 };
    let mut d = random_vec(r, batch * rows);
    for (s, row) in d.chunks_exact_mut(rows).enumerate() {
        match sparsity {
            Sparsity::ScatteredZeros => {
                for v in row.iter_mut() {
                    if r.gen_range(0..3) == 0 {
                        *v = signed_zero(r);
                    }
                }
            }
            Sparsity::ZeroRows => {
                if s % 2 == 0 {
                    row.fill(if s % 4 == 0 { 0.0 } else { -0.0 });
                }
            }
            Sparsity::ZeroMargins => {
                let lo = r.gen_range(0..=rows);
                let hi = r.gen_range(lo..=rows);
                for (i, v) in row.iter_mut().enumerate() {
                    if !(lo..hi).contains(&i) {
                        *v = signed_zero(r);
                    }
                }
            }
            Sparsity::OneLiveBlock { blocks } => {
                let width = rows / blocks;
                let live = r.gen_range(0..blocks) * width;
                for (i, v) in row.iter_mut().enumerate() {
                    if !(live..live + width).contains(&i) {
                        *v = 0.0;
                    }
                }
            }
        }
    }
    d
}

/// Both backward kernels against their scalar references on `d`; the
/// gradient accumulates onto `prior`.
fn backward_kernels_match_scalar(
    r: &mut rand::rngs::StdRng,
    d: &[f32],
    prior: Vec<f32>,
    (rows, cols, batch): (usize, usize, usize),
) -> Result<(), TestCaseError> {
    let w = random_vec(r, rows * cols);
    let xs = random_vec(r, batch * cols);
    let (mut tiled, mut reference) = (Vec::new(), Vec::new());
    linalg::matmul_transpose(&w, d, rows, cols, batch, &mut tiled);
    scalar::matmul_transpose(&w, d, rows, cols, batch, &mut reference);
    prop_assert_eq!(bits(&tiled), bits(&reference));
    let (mut tiled, mut reference) = (prior.clone(), prior);
    linalg::matmul_at_b_acc(&mut tiled, d, &xs, rows, cols, batch);
    scalar::matmul_at_b_acc(&mut reference, d, &xs, rows, cols, batch);
    prop_assert_eq!(bits(&tiled), bits(&reference));
    Ok(())
}

proptest! {
    /// Zero-skipping is bit-neutral: on deltas with exact zeros of either
    /// sign anywhere — scattered, whole rows, margins, all but one block —
    /// both backward kernels equal the scalar references, which multiply
    /// through every zero. The gradient starts from `+0.0` (a zeroed
    /// buffer) or from a non-zero prior, the two states the zero-skip
    /// contract admits.
    #[test]
    fn sparse_deltas_match_scalar(
        seed in 0u64..400,
        ri in 0usize..DIMS.len(),
        ci in 0usize..DIMS.len(),
        bi in 0usize..DIMS.len(),
        kind in 0usize..5,
        zeroed_prior in proptest::bool::ANY,
    ) {
        let (rows, cols, batch) = (DIMS[ri], DIMS[ci], DIMS[bi]);
        let sparsity = match kind {
            0 => Sparsity::ScatteredZeros,
            1 => Sparsity::ZeroRows,
            2 => Sparsity::ZeroMargins,
            // A block count that does not divide `rows` leaves a zero tail.
            k => Sparsity::OneLiveBlock { blocks: (k - 1).min(rows) },
        };
        let mut r = rng(seed);
        let d = sparse_deltas(&mut r, batch, rows, sparsity);
        let prior = if zeroed_prior {
            vec![0.0; rows * cols]
        } else {
            random_vec(&mut r, rows * cols)
        };
        backward_kernels_match_scalar(&mut r, &d, prior, (rows, cols, batch))?;
    }
}

/// The in-situ shapes: the last layer's deltas under a two-action and a
/// three-action C51 head (102×30 and 153×30, one live 51-wide block per
/// row) at the replay batch of 128.
#[test]
fn c51_shaped_deltas_match_scalar_at_the_in_situ_shapes() {
    for (seed, blocks) in [(1, 2), (2, 3)] {
        let (rows, cols, batch) = (blocks * 51, 30, 128);
        let mut r = rng(seed);
        let d = sparse_deltas(&mut r, batch, rows, Sparsity::OneLiveBlock { blocks });
        let live = d.iter().filter(|v| **v != 0.0).count();
        assert_eq!(live, batch * 51, "one live block per row");
        backward_kernels_match_scalar(&mut r, &d, vec![0.0; rows * cols], (rows, cols, batch))
            .expect("bit-identical");
    }
}

/// The edge of the zero-skip contract, from the accumulator side. A
/// gradient entry of `-0.0` is the one value a skipped `+0.0` term would
/// have changed (`-0.0 + +0.0 = +0.0`), so on a buffer seeded with
/// `-0.0` the tiled kernel and the multiply-through reference may
/// disagree — but only ever in the sign of a zero, never in a value. A
/// caller that cannot rule `-0.0` out (gradients scaled in place can
/// underflow to it) must zero the buffer first, as `Dense::zero_grad`
/// does; `train_batch_parity` pins that end of the contract.
#[test]
fn negative_zero_accumulators_can_only_differ_in_the_sign_of_zero() {
    let (rows, cols, batch) = (6, 5, 4);
    let mut r = rng(9);
    let d = sparse_deltas(&mut r, batch, rows, Sparsity::OneLiveBlock { blocks: 3 });
    let xs = random_vec(&mut r, batch * cols);
    let mut tiled = vec![-0.0f32; rows * cols];
    let mut reference = tiled.clone();
    linalg::matmul_at_b_acc(&mut tiled, &d, &xs, rows, cols, batch);
    scalar::matmul_at_b_acc(&mut reference, &d, &xs, rows, cols, batch);
    assert_eq!(tiled, reference, "equal as numbers");
    for (t, s) in tiled.iter().zip(&reference) {
        assert!(
            t.to_bits() == s.to_bits() || (*t == 0.0 && *s == 0.0),
            "{t} vs {s}: more than a zero's sign differs"
        );
    }
    // From a zeroed buffer — the state the contract requires — the same
    // deltas accumulate bit-identically.
    let (mut tiled, mut reference) = (vec![0.0f32; rows * cols], vec![0.0f32; rows * cols]);
    linalg::matmul_at_b_acc(&mut tiled, &d, &xs, rows, cols, batch);
    scalar::matmul_at_b_acc(&mut reference, &d, &xs, rows, cols, batch);
    assert_eq!(bits(&tiled), bits(&reference));
}

/// The batches the inference race runs at: one and two rows, the widths a
/// memo's misses and `Experiment::run`'s one-at-a-time decisions arrive
/// in, then a full 8-row batch and four of them.
const RACED_BATCHES: [usize; 4] = [1, 2, 8, 32];

/// The network a default agent serves with: six features, hidden layers
/// of 20 and 30, and a C51 head of two actions × 51 atoms (3 780 MACs per
/// row).
fn serving_net() -> Mlp {
    let dims = [6, 20, 30, 2 * 51];
    Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut rng(11))
}

/// `batch` raced input rows of six features in `[0, 1)`.
fn raced_inputs(batch: usize) -> Vec<f32> {
    let mut r = rng(batch as u64);
    (0..batch * 6).map(|_| r.gen_range(0.0f32..1.0)).collect()
}

/// [`Mlp::infer_batch`] reassembled from the scalar references: per layer,
/// `scalar::matmul_bias` and then the activation, leaving the result in
/// `cur`.
fn scalar_infer_batch(
    net: &Mlp,
    xs: &[f32],
    batch: usize,
    cur: &mut Vec<f32>,
    next: &mut Vec<f32>,
) {
    cur.clear();
    cur.extend_from_slice(xs);
    for layer in net.layers() {
        let (w, b) = layer.params();
        scalar::matmul_bias(w, b, cur, layer.out_dim(), layer.in_dim(), batch, next);
        layer.activation().apply_slice(next);
        std::mem::swap(cur, next);
    }
}

/// The race below times one computation two ways: on the raced network
/// and inputs, the scalar reassembly equals `Mlp::infer_batch` bit for
/// bit — activations included, which the kernel pins leave out.
#[test]
fn scalar_reassembly_is_infer_batch_on_the_raced_inputs() {
    let net = serving_net();
    let (mut cur, mut next) = (Vec::new(), Vec::new());
    for batch in RACED_BATCHES {
        let xs = raced_inputs(batch);
        let tiled = net.infer_batch(&xs, batch);
        scalar_infer_batch(&net, &xs, batch, &mut cur, &mut next);
        assert_eq!(bits(&cur), bits(&tiled), "batch {batch}");
    }
}

/// Tiling never slows the decide path: at batch 1, 2, 8 and 32 the tiled
/// `Mlp::infer_batch` costs at most 1.00× the scalar reassembly per MAC.
/// The two take turns within each round, the first alternating, so a
/// change in host load lands on both alike; a warm-up round, then nine
/// timed rounds of about 2k rows each, compared by their medians. Release
/// only: debug codegen lacks the autovectorized loops the race certifies.
#[cfg(not(debug_assertions))]
#[test]
fn tiled_inference_is_no_slower_than_the_scalar_reassembly() {
    let net = serving_net();
    let macs = net.mac_count() as f64;
    let (mut cur, mut next) = (Vec::new(), Vec::new());
    for batch in RACED_BATCHES {
        let xs = raced_inputs(batch);
        let reps = (2048 / batch).max(8);
        let mut ns = [Vec::new(), Vec::new()];
        for round in 0..10 {
            for k in 0..2 {
                let path = (round + k) % 2;
                // sibyl-lint: allow(wallclock-in-logic) -- the race's stopwatch: durations are compared, never fed into a computation
                let start = std::time::Instant::now();
                for _ in 0..reps {
                    if path == 0 {
                        scalar_infer_batch(&net, &xs, batch, &mut cur, &mut next);
                        std::hint::black_box(&cur);
                    } else {
                        std::hint::black_box(net.infer_batch(&xs, batch));
                    }
                }
                if round > 0 {
                    ns[path].push(start.elapsed().as_nanos() as f64);
                }
            }
        }
        let [scalar, tiled] = ns.map(|mut v| {
            v.sort_by(f64::total_cmp);
            v[v.len() / 2] / (reps * batch) as f64 / macs
        });
        assert!(
            tiled <= scalar * 1.00,
            "batch {batch}: tiled {tiled:.3} ns/MAC vs scalar {scalar:.3} ns/MAC"
        );
    }
}
