//! The batched-training bit-identity pin.
//!
//! Training one batch (`forward_batch` + `backward_batch` over B rows)
//! exists purely for locality — each weight matrix streams once per
//! *batch* instead of once per *sample* — so it must change nothing about
//! the numbers: gradients, input deltas, and therefore every optimizer
//! step downstream must be bit-for-bit identical to B one-row calls in
//! sample order. These property tests pin that contract across random
//! shapes, batch sizes, and activations, mirroring the `infer_batch`
//! parity pin the serving engine's inference already rests on.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use sibyl_nn::{Activation, Dense, Mlp, Sgd};

const ACTS: [Activation; 3] = [Activation::Linear, Activation::Relu, Activation::Swish];

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
    /// One `Dense::forward_batch` + `Dense::backward_batch` round leaves
    /// the gradient buffers and input deltas bit-identical to `batch`
    /// sequential one-row rounds in sample order — even when
    /// accumulating on top of non-zero gradients from an earlier round
    /// (the sequential loop never zeroes between samples).
    #[test]
    fn dense_backward_batch_is_bit_identical(
        seed in 0u64..300,
        batch in 1usize..10,
        in_dim in 1usize..7,
        out_dim in 1usize..7,
        act_idx in 0usize..ACTS.len(),
    ) {
        let mut r = rng(seed);
        let act = ACTS[act_idx];
        let mut batched = Dense::new(in_dim, out_dim, act, &mut r);
        let mut sequential = batched.clone();
        let xs = random_vec(&mut r, batch * in_dim);
        let dys = random_vec(&mut r, batch * out_dim);

        // Seed both gradient buffers with the same prior round so the
        // accumulation (not just the fresh sum) is pinned.
        let prior_x = random_vec(&mut r, in_dim);
        let prior_dy = random_vec(&mut r, out_dim);
        for layer in [&mut batched, &mut sequential] {
            let _ = layer.forward_batch(&prior_x, 1);
            let _ = layer.backward_batch(&prior_dy, 1);
        }

        let ys = batched.forward_batch(&xs, batch);
        let dxs = batched.backward_batch(&dys, batch);

        for s in 0..batch {
            let y = sequential.forward_batch(&xs[s * in_dim..(s + 1) * in_dim], 1);
            prop_assert_eq!(bits(&ys[s * out_dim..(s + 1) * out_dim]), bits(&y));
            let dx = sequential.backward_batch(&dys[s * out_dim..(s + 1) * out_dim], 1);
            prop_assert_eq!(bits(&dxs[s * in_dim..(s + 1) * in_dim]), bits(&dx));
        }
        let (bdw, bdb) = batched.grads();
        let (sdw, sdb) = sequential.grads();
        prop_assert_eq!(bits(bdw), bits(sdw));
        prop_assert_eq!(bits(bdb), bits(sdb));
    }

    /// The whole-network contract: `Mlp::forward_batch` +
    /// `Mlp::backward_batch` accumulates every layer's gradients
    /// bit-identically to the one-row loop, across random hidden
    /// shapes, batch sizes, and both the paper's activations and the
    /// rest of the palette.
    #[test]
    fn mlp_backward_batch_is_bit_identical(
        seed in 0u64..300,
        batch in 1usize..10,
        hidden in 1usize..12,
        act_idx in 0usize..ACTS.len(),
    ) {
        let mut r = rng(seed);
        let act = ACTS[act_idx];
        let dims = [4, hidden, hidden.max(2), 3];
        let mut batched = Mlp::new(&dims, act, Activation::Linear, &mut r);
        let mut sequential = batched.clone();
        batched.zero_grad();
        sequential.zero_grad();
        let xs = random_vec(&mut r, batch * 4);
        let dys = random_vec(&mut r, batch * 3);

        let ys = batched.forward_batch(&xs, batch);
        let dxs = batched.backward_batch(&dys, batch);

        for s in 0..batch {
            let y = sequential.forward(&xs[s * 4..(s + 1) * 4]);
            prop_assert_eq!(bits(&ys[s * 3..(s + 1) * 3]), bits(&y));
            let dx = sequential.backward(&dys[s * 3..(s + 1) * 3]);
            prop_assert_eq!(bits(&dxs[s * 4..(s + 1) * 4]), bits(&dx));
        }
        for (bl, sl) in batched.layers().zip(sequential.layers()) {
            let (bdw, bdb) = bl.grads();
            let (sdw, sdb) = sl.grads();
            prop_assert_eq!(bits(bdw), bits(sdw));
            prop_assert_eq!(bits(bdb), bits(sdb));
        }
    }

    /// The forward that computes only one block of each output row: those
    /// blocks equal the full pass bit for bit, the rest are `0.0`, and a
    /// backward pass whose deltas live in the same blocks accumulates the
    /// full pass's gradients — across block widths 1..40 and counts 1..4,
    /// so blocks start and end mid-panel and straddle the 16-row panel
    /// boundaries, and at the same draw for a two-action C51 head's 2 × 51.
    #[test]
    fn block_forward_matches_the_full_pass(
        seed in 0u64..300,
        batch in 1usize..80,
        hidden in 1usize..12,
        block in 1usize..40,
        n_blocks in 1usize..4,
        act_idx in 0usize..ACTS.len(),
    ) {
        for (block, n_blocks) in [(block, n_blocks), (51, 2)] {
            block_forward_case(&mut rng(seed), batch, hidden, block, n_blocks, ACTS[act_idx])?;
        }
    }

    /// End-to-end through the optimizer: a mean-gradient SGD step taken
    /// from batched gradients lands on bit-identical parameters — the
    /// exact invariant `Learner::train_step` relies on.
    #[test]
    fn sgd_step_from_batched_gradients_is_bit_identical(
        seed in 0u64..150,
        batch in 1usize..9,
    ) {
        let mut r = rng(seed);
        let mut batched = Mlp::new(
            &[5, 8, 6, 2],
            Activation::Swish,
            Activation::Linear,
            &mut r,
        );
        let mut sequential = batched.clone();
        let xs = random_vec(&mut r, batch * 5);
        let dys = random_vec(&mut r, batch * 2);

        batched.zero_grad();
        let _ = batched.forward_batch(&xs, batch);
        let _ = batched.backward_batch(&dys, batch);
        let mut opt_b = Sgd::new(0.01);
        batched.apply_grads(&mut opt_b, 1.0 / batch as f32);

        sequential.zero_grad();
        for s in 0..batch {
            let _ = sequential.forward(&xs[s * 5..(s + 1) * 5]);
            let _ = sequential.backward(&dys[s * 2..(s + 1) * 2]);
        }
        let mut opt_s = Sgd::new(0.01);
        sequential.apply_grads(&mut opt_s, 1.0 / batch as f32);

        prop_assert_eq!(bits(&batched.flat_params()), bits(&sequential.flat_params()));
    }
}

/// One case of `block_forward_matches_the_full_pass`: a `4-hidden-out`
/// network with `out = block · n_blocks`, one random live block per row.
fn block_forward_case(
    r: &mut rand::rngs::StdRng,
    batch: usize,
    hidden: usize,
    block: usize,
    n_blocks: usize,
    act: Activation,
) -> Result<(), TestCaseError> {
    let out = block * n_blocks;
    let dims = [4, hidden, out];
    let mut full = Mlp::new(&dims, act, Activation::Linear, r);
    let mut blocked = full.clone();
    full.zero_grad();
    blocked.zero_grad();
    let xs = random_vec(r, batch * 4);
    let live: Vec<usize> = (0..batch).map(|_| r.gen_range(0..n_blocks)).collect();
    let mut dys = vec![0.0f32; batch * out];
    for (row, &k) in dys.chunks_exact_mut(out).zip(&live) {
        row[k * block..][..block].copy_from_slice(&random_vec(r, block));
    }

    let ys = full.forward_batch(&xs, batch);
    let (mut scratch, mut blocked_ys) = (Vec::new(), Vec::new());
    blocked.forward_batch_blocks_into(&xs, batch, block, &live, &mut scratch, &mut blocked_ys);
    for ((b, f), &k) in blocked_ys
        .chunks_exact(out)
        .zip(ys.chunks_exact(out))
        .zip(&live)
    {
        for (j, (bv, fv)) in b.iter().zip(f).enumerate() {
            let want = if j / block == k { fv.to_bits() } else { 0 };
            prop_assert_eq!(bv.to_bits(), want);
        }
    }
    let _ = full.backward_batch(&dys, batch);
    let _ = blocked.backward_batch(&dys, batch);
    for (bl, fl) in blocked.layers().zip(full.layers()) {
        prop_assert_eq!(bits(bl.grads().0), bits(fl.grads().0));
        prop_assert_eq!(bits(bl.grads().1), bits(fl.grads().1));
    }
    Ok(())
}

/// The in-situ shape, deterministically: the serving network
/// (6-20-30-102, swish hidden layers) at the replay batch of 128, fed
/// the deltas a two-action C51 head emits — one live 51-wide block per
/// row, the other exactly `+0.0`. This is the configuration where the
/// forward pass's cached swish derivatives, the skipped zero block and
/// the four-row register tiles all engage at once; one batched round
/// must equal 128 sequential `forward` + `backward` calls bit for bit,
/// through the reusable-buffer entry points — and so must the learner's
/// pass: a forward that computes only each row's live block, then the
/// gradients-only backward pass.
#[test]
fn swish_batch_128_with_c51_deltas_is_bit_identical() {
    const BATCH: usize = 128;
    let dims = [6, 20, 30, 102];
    let mut r = rng(128);
    let mut batched = Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut r);
    let mut sequential = batched.clone();
    let mut grads_only = batched.clone();
    let xs = random_vec(&mut r, BATCH * 6);
    let mut dys = random_vec(&mut r, BATCH * 102);
    let live: Vec<usize> = (0..BATCH).map(|s| usize::from(s % 3 == 0)).collect();
    for (row, &k) in dys.chunks_exact_mut(102).zip(&live) {
        row[(1 - k) * 51..][..51].fill(0.0);
    }

    batched.zero_grad();
    sequential.zero_grad();
    grads_only.zero_grad();
    let (mut scratch, mut ys, mut dxs) = (Vec::new(), Vec::new(), Vec::new());
    let mut deltas = [Vec::new(), Vec::new()];
    // Two rounds through the same buffers: the second runs entirely on
    // reused allocations and must still match.
    for round in 0..2 {
        batched.forward_batch_into(&xs, BATCH, &mut scratch, &mut ys);
        batched.backward_batch_into(&dys, BATCH, &mut scratch, &mut dxs);
        for s in 0..BATCH {
            let y = sequential.forward(&xs[s * 6..(s + 1) * 6]);
            assert_eq!(bits(&ys[s * 102..(s + 1) * 102]), bits(&y), "round {round}");
            let dx = sequential.backward(&dys[s * 102..(s + 1) * 102]);
            assert_eq!(bits(&dxs[s * 6..(s + 1) * 6]), bits(&dx), "round {round}");
        }
        // The learner's pass, which computes only the live blocks and
        // never `dxs`, accumulates the same gradients.
        let mut live_ys = Vec::new();
        grads_only.forward_batch_blocks_into(&xs, BATCH, 51, &live, &mut scratch, &mut live_ys);
        for ((row, full), &k) in live_ys
            .chunks_exact(102)
            .zip(ys.chunks_exact(102))
            .zip(&live)
        {
            assert_eq!(
                bits(&row[k * 51..][..51]),
                bits(&full[k * 51..][..51]),
                "round {round}"
            );
            assert!(row[(1 - k) * 51..][..51].iter().all(|&v| v == 0.0));
        }
        grads_only.accumulate_grads_batch(&dys, BATCH, &mut deltas);
        for ((bl, sl), gl) in batched
            .layers()
            .zip(sequential.layers())
            .zip(grads_only.layers())
        {
            assert_eq!(bits(bl.grads().0), bits(sl.grads().0), "round {round}");
            assert_eq!(bits(bl.grads().1), bits(sl.grads().1), "round {round}");
            assert_eq!(bits(gl.grads().0), bits(sl.grads().0), "round {round}");
            assert_eq!(bits(gl.grads().1), bits(sl.grads().1), "round {round}");
        }
    }
}

/// The accumulator half of the kernels' zero-skip contract, held at the
/// only place gradients are exposed for in-place rewriting: a buffer that
/// picked up `-0.0` entries (a scaled negative gradient can underflow to
/// it; here they are planted through `grads_mut`) is back to
/// `+0.0` after `zero_grad`, so the next sparse batch accumulates
/// bit-identically to the one-row loop. If `zero_grad` ever stopped
/// writing `+0.0` — or a caller accumulated without it — the skipped
/// `+0.0` terms would leave `-0.0` where multiplying through (the
/// `linalg::scalar` reference) gives `+0.0`.
#[test]
fn zero_grad_restores_the_zero_skip_precondition() {
    let (in_dim, out_dim, batch) = (5, 8, 6);
    let mut r = rng(77);
    let mut batched = Dense::new(in_dim, out_dim, Activation::Swish, &mut r);
    let mut sequential = batched.clone();
    let xs = random_vec(&mut r, batch * in_dim);
    let mut dys = random_vec(&mut r, batch * out_dim);
    for row in dys.chunks_exact_mut(out_dim) {
        row[..out_dim / 2].fill(0.0);
    }
    for layer in [&mut batched, &mut sequential] {
        let (dw, db) = layer.grads_mut();
        dw.fill(-0.0);
        db.fill(-0.0);
        layer.zero_grad();
    }
    let _ = batched.forward_batch(&xs, batch);
    let _ = batched.backward_batch(&dys, batch);
    for s in 0..batch {
        let _ = sequential.forward_batch(&xs[s * in_dim..(s + 1) * in_dim], 1);
        let _ = sequential.backward_batch(&dys[s * out_dim..(s + 1) * out_dim], 1);
    }
    let (bdw, bdb) = batched.grads();
    let (sdw, sdb) = sequential.grads();
    assert_eq!(bits(bdw), bits(sdw));
    assert_eq!(bits(bdb), bits(sdb));
    // The top half of every delta row was zero, so those gradient rows
    // were never touched: they must read `+0.0`, not the planted `-0.0`.
    assert!(bdw[..out_dim / 2 * in_dim].iter().all(|g| g.to_bits() == 0));
}
