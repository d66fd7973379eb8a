//! Small dense linear-algebra helpers shared by the layer implementations.
//!
//! The batched kernels (`matmul_bias_panels`, `matmul_transpose`,
//! `matmul_at_b_acc`, `col_sum_acc`) are tiled so their inner loops are
//! bounds-check-free and rustc autovectorizes them, under one hard
//! constraint: every output element's floating-point accumulation chain
//! runs in *exactly* the order of the retained [`scalar`] references. f32
//! addition is not associative, so a kernel may never vectorize *within*
//! one dot product's chain — instead the tiled kernels vectorize *across*
//! independent outputs, which reorders nothing. Every forward pass, for
//! inference and training alike, runs [`matmul_bias_panels`]: one SIMD lane
//! to each *output*, over weights packed k-major in panels of [`PANEL`]
//! output rows ([`pack_panels`]), so every input row fills a whole tile on
//! its own and a row costs the same at any batch width. Every chain —
//! [`dot`], the [`scalar`] references and each tile accumulator — starts
//! from `+0.0` (not the `-0.0` `Iterator::sum` starts from), so a result
//! does not depend, even in the sign of a zero, on which kernel or which
//! lane produced it. The `kernel_parity` property suite pins bit-for-bit
//! equality against [`scalar`] across random shapes, including every
//! tile-remainder size.

/// Output rows per weight panel of [`matmul_bias_panels`]: one
/// accumulator lane per output, sized to a 512-bit f32 vector (two 256-bit
/// or four 128-bit registers).
pub const PANEL: usize = 16;

/// Weight/gradient rows processed per register tile by
/// [`matmul_at_b_acc`] and [`matmul_transpose`]: within one sample's live
/// span the rows go four at a time, so one load of the input row feeds
/// four gradient rows, and one load/store of the output row absorbs four
/// weight rows.
pub const ROW_TILE: usize = 4;

/// Splits a `ROW_TILE × cols` block into its rows.
fn tile_rows(block: &[f32], cols: usize) -> [&[f32]; ROW_TILE] {
    let (r0, rest) = block.split_at(cols);
    let (r1, rest) = rest.split_at(cols);
    let (r2, r3) = rest.split_at(cols);
    [r0, r1, r2, r3]
}

/// Mutable twin of [`tile_rows`].
fn tile_rows_mut(block: &mut [f32], cols: usize) -> [&mut [f32]; ROW_TILE] {
    let (r0, rest) = block.split_at_mut(cols);
    let (r1, rest) = rest.split_at_mut(cols);
    let (r2, r3) = rest.split_at_mut(cols);
    [r0, r1, r2, r3]
}

/// The pre-tiling scalar reference kernels, retained verbatim.
///
/// These are the semantics the tiled kernels must reproduce bit for bit
/// — kept as always-compiled public API (not `cfg(test)`) because the
/// `kernel_parity` integration suite compares against them from outside
/// the crate, and races a pass assembled from them against
/// `Mlp::infer_batch`. Its `matmul_bias` is also the `Rnn`'s kernel: the
/// RNN's products are all batches of one, where it is one `dot` per
/// output.
pub mod scalar {
    /// Reference `out = X·Wᵀ + b`: one [`super::dot`] per output element,
    /// r-outer / s-inner — the chain [`super::matmul_bias_panels`]
    /// reproduces in every lane.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, exactly like the tiled kernel.
    pub fn matmul_bias(
        w: &[f32],
        b: &[f32],
        xs: &[f32],
        rows: usize,
        cols: usize,
        batch: usize,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(w.len(), rows * cols, "matmul_bias: weight shape mismatch");
        assert_eq!(xs.len(), batch * cols, "matmul_bias: input shape mismatch");
        assert_eq!(b.len(), rows, "matmul_bias: bias length mismatch");
        out.clear();
        out.resize(batch * rows, 0.0);
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            let br = b[r];
            for s in 0..batch {
                let x = &xs[s * cols..(s + 1) * cols];
                out[s * rows + r] = super::dot(row, x) + br;
            }
        }
    }

    /// Reference `out = D·W`: r-outer / s-middle elementwise accumulation
    /// (the pre-tiling [`super::matmul_transpose`] body).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, exactly like the tiled kernel.
    pub fn matmul_transpose(
        w: &[f32],
        d: &[f32],
        rows: usize,
        cols: usize,
        batch: usize,
        out: &mut Vec<f32>,
    ) {
        assert_eq!(
            w.len(),
            rows * cols,
            "matmul_transpose: weight shape mismatch"
        );
        assert_eq!(
            d.len(),
            batch * rows,
            "matmul_transpose: delta shape mismatch"
        );
        out.clear();
        out.resize(batch * cols, 0.0);
        for r in 0..rows {
            let row = &w[r * cols..(r + 1) * cols];
            for s in 0..batch {
                let dr = d[s * rows + r];
                let orow = &mut out[s * cols..(s + 1) * cols];
                for (o, &wv) in orow.iter_mut().zip(row) {
                    *o += wv * dr;
                }
            }
        }
    }

    /// Reference `dw += Dᵀ·X`: r-outer / s-middle with the gradient row
    /// hoisted (the pre-tiling [`super::matmul_at_b_acc`] body).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, exactly like the tiled kernel.
    pub fn matmul_at_b_acc(
        dw: &mut [f32],
        d: &[f32],
        xs: &[f32],
        rows: usize,
        cols: usize,
        batch: usize,
    ) {
        assert_eq!(
            dw.len(),
            rows * cols,
            "matmul_at_b_acc: gradient shape mismatch"
        );
        assert_eq!(
            d.len(),
            batch * rows,
            "matmul_at_b_acc: delta shape mismatch"
        );
        assert_eq!(
            xs.len(),
            batch * cols,
            "matmul_at_b_acc: input shape mismatch"
        );
        for r in 0..rows {
            let grow = &mut dw[r * cols..(r + 1) * cols];
            for s in 0..batch {
                let dr = d[s * rows + r];
                let x = &xs[s * cols..(s + 1) * cols];
                for (g, &xv) in grow.iter_mut().zip(x) {
                    *g += dr * xv;
                }
            }
        }
    }

    /// Reference batched bias gradient: one elementwise add per sample
    /// (the pre-tiling [`super::col_sum_acc`] body).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch, exactly like the tiled kernel.
    pub fn col_sum_acc(db: &mut [f32], d: &[f32], batch: usize) {
        let rows = db.len();
        assert_eq!(d.len(), batch * rows, "col_sum_acc: delta shape mismatch");
        for s in 0..batch {
            for (b, &dv) in db.iter_mut().zip(&d[s * rows..(s + 1) * rows]) {
                *b += dv;
            }
        }
    }
}

/// Dot product of two equal-length slices, accumulated left to right
/// from `+0.0` — the start every tile kernel uses.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).fold(0.0, |acc, (x, y)| acc + x * y)
}

/// Packs a row-major `(rows × cols)` weight matrix for
/// [`matmul_bias_panels`], refilling `panels`: k-major in panels of
/// [`PANEL`] output rows, `panels[(p·cols + k)·PANEL + j] = w[(p·PANEL +
/// j)·cols + k]`, the lanes past the last row zero;
/// `rows.div_ceil(PANEL) · cols · PANEL` long. Allocates nothing once
/// `panels` has reached that size.
///
/// # Panics
///
/// Panics if `w.len() != rows * cols`.
pub fn pack_panels(w: &[f32], rows: usize, cols: usize, panels: &mut Vec<f32>) {
    assert_eq!(w.len(), rows * cols, "pack_panels: weight shape mismatch");
    panels.clear();
    panels.resize(rows.div_ceil(PANEL) * cols * PANEL, 0.0);
    if cols == 0 {
        return;
    }
    for (r, row) in w.chunks_exact(cols).enumerate() {
        let panel = &mut panels[(r / PANEL) * cols * PANEL..];
        for (k, &wv) in row.iter().enumerate() {
            panel[k * PANEL + r % PANEL] = wv;
        }
    }
}

/// Computes `out = X·Wᵀ + b` over weights packed by [`pack_panels`]: `xs`
/// is row-major `(batch × cols)` — one input per row — and `out` is
/// refilled row-major `(batch × rows)`, one output row per input. A single
/// input is a batch of one. Every `Dense` forward pass runs it.
///
/// One SIMD lane per *output*: per input row and panel, a [`PANEL`]-lane
/// accumulator takes one broadcast input feature times one contiguous
/// panel row per `k`, so every input row fills whole tiles on its own and
/// a row costs the same at any batch width. Each lane carries one output's
/// products in ascending-`k` order from `+0.0` and then adds the bias:
/// exactly the [`scalar::matmul_bias`] chain, so a row's result does not
/// depend on the batch it rides in (what lets the decision memo move rows
/// between batches). The padded lanes of a last, partial panel are
/// computed and discarded.
///
/// # Panics
///
/// Panics if `panels` is not `rows × cols` packed, `xs.len() != batch *
/// cols`, or `b.len() != rows`.
pub fn matmul_bias_panels(
    panels: &[f32],
    b: &[f32],
    xs: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(
        panels.len(),
        rows.div_ceil(PANEL) * cols * PANEL,
        "matmul_bias_panels: panel shape mismatch"
    );
    assert_eq!(
        xs.len(),
        batch * cols,
        "matmul_bias_panels: input shape mismatch"
    );
    assert_eq!(b.len(), rows, "matmul_bias_panels: bias length mismatch");
    assert!(rows > 0 && cols > 0, "matmul_bias_panels: empty dimension");
    out.clear();
    out.resize(batch * rows, 0.0);
    for (x, orow) in xs.chunks_exact(cols).zip(out.chunks_exact_mut(rows)) {
        panels_row(panels, b, x, orow);
    }
}

/// One input row `x` of [`matmul_bias_panels`]: `out[r] = w[r]·x + b[r]`
/// for the `b.len()` outputs whose panels `panels` holds, `out` as long as
/// `b`. `panels` may be a run of whole panels cut from a larger packing,
/// with `b` and `out` the matching outputs — how a pass that reads only
/// some outputs of a row computes just their panels.
#[inline]
pub(crate) fn panels_row(panels: &[f32], b: &[f32], x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(panels.len(), b.len().div_ceil(PANEL) * x.len() * PANEL);
    debug_assert_eq!(out.len(), b.len());
    for ((panel, bp), op) in panels
        .chunks_exact(x.len() * PANEL)
        .zip(b.chunks(PANEL))
        .zip(out.chunks_mut(PANEL))
    {
        let mut acc = [0.0f32; PANEL];
        for (lanes, &xv) in panel.chunks_exact(PANEL).zip(x) {
            for (a, &wv) in acc.iter_mut().zip(lanes) {
                *a += wv * xv;
            }
        }
        for ((o, &a), &bv) in op.iter_mut().zip(&acc).zip(bp) {
            *o = a + bv;
        }
    }
}

/// The span of one delta row outside which every entry is exactly zero
/// (`+0.0` or `-0.0`): from its first to one past its last non-zero
/// entry, empty for an all-zero row. NaN compares unequal to zero, so a
/// non-finite delta is always inside the span.
fn live_span(drow: &[f32]) -> std::ops::Range<usize> {
    let live = |v: &f32| *v != 0.0;
    let start = drow.iter().position(live).unwrap_or(drow.len());
    let end = drow.iter().rposition(live).map_or(start, |last| last + 1);
    start..end
}

/// Computes `out = D·W` for a batch of backpropagated deltas: `d` is
/// row-major `(batch × rows)` — one delta per row — and `out` is refilled
/// row-major `(batch × cols)`, one output row per delta.
///
/// This is the batched input-gradient pass of training. The nest runs
/// sample-outer so each sample's output row stays hot while the weight
/// rows are streamed over it; the innermost loop is a bounds-check-free
/// broadcast-multiply-accumulate over the contiguous output row, which
/// rustc autovectorizes. Each output element still accumulates its terms
/// in ascending-`r` order — exactly the [`scalar::matmul_transpose`]
/// chain — so a batch's backward pass is bit-identical to one-row calls
/// in sequence, which the training parity property tests pin down.
///
/// **Zero-skip.** Only the weight rows inside each delta row's
/// `live_span` are streamed: a C51 head leaves every action block but
/// the taken one at exactly `0.0`, so half (two actions) or two thirds
/// (three) of the last layer's rows contribute `w · ±0.0 = ±0.0` terms.
/// Dropping such a term is bit-neutral under the contract spelled out at
/// [`matmul_at_b_acc`]; here the accumulators are this function's own
/// `+0.0`-initialised `out`, so only the "finite `w`" half of the
/// contract is the caller's.
///
/// # Panics
///
/// Panics if `w.len() != rows * cols` or `d.len() != batch * rows`.
pub fn matmul_transpose(
    w: &[f32],
    d: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
    out: &mut Vec<f32>,
) {
    assert_eq!(
        w.len(),
        rows * cols,
        "matmul_transpose: weight shape mismatch"
    );
    assert_eq!(
        d.len(),
        batch * rows,
        "matmul_transpose: delta shape mismatch"
    );
    out.clear();
    out.resize(batch * cols, 0.0);
    if rows == 0 || cols == 0 {
        return;
    }
    for (drow, orow) in d.chunks_exact(rows).zip(out.chunks_exact_mut(cols)) {
        let live = live_span(drow);
        let mut wtiles = w[live.start * cols..live.end * cols].chunks_exact(ROW_TILE * cols);
        let mut dtiles = drow[live].chunks_exact(ROW_TILE);
        for (wtile, dt) in (&mut wtiles).zip(&mut dtiles) {
            // Four weight rows per pass over the output row; the adds
            // stay left-to-right, i.e. in ascending-`r` order.
            let [w0, w1, w2, w3] = tile_rows(wtile, cols);
            for ((((o, &a), &b), &c), &e) in orow.iter_mut().zip(w0).zip(w1).zip(w2).zip(w3) {
                *o = (((*o + a * dt[0]) + b * dt[1]) + c * dt[2]) + e * dt[3];
            }
        }
        for (wrow, &dr) in wtiles
            .remainder()
            .chunks_exact(cols)
            .zip(dtiles.remainder())
        {
            for (o, &wv) in orow.iter_mut().zip(wrow) {
                *o += wv * dr;
            }
        }
    }
}

/// Accumulates the weight gradient of a whole batch,
/// `dw += Dᵀ·X`, into a row-major `(rows × cols)` gradient buffer:
/// `d` is row-major `(batch × rows)` deltas, `xs` row-major
/// `(batch × cols)` inputs.
///
/// Equivalent to `batch` successive one-row calls in sample order — and
/// bit-identical to them: for every gradient element the per-sample
/// contributions are added in ascending sample order onto the existing
/// value, exactly the floating-point accumulation sequence of the
/// retained [`scalar::matmul_at_b_acc`] reference. The nest runs
/// sample-outer; the innermost loop is a bounds-check-free
/// broadcast-multiply-accumulate over one contiguous gradient row, which
/// rustc autovectorizes.
///
/// **Zero-skip contract.** Per sample, only the gradient rows inside the
/// delta row's `live_span` are touched. A skipped term is `±0.0 · x`,
/// which for finite `x` is `±0.0`, and `g + ±0.0` is `g` bit for bit for
/// every `g` except `g = -0.0` (where `-0.0 + +0.0 = +0.0`). So the skip
/// is bit-neutral exactly when
///
/// 1. the operands (`xs` here, `w` in [`matmul_transpose`]) are finite —
///    a `0.0 · ∞` or `0.0 · NaN` term the reference would propagate as
///    NaN is dropped; and
/// 2. no accumulator in `dw` is `-0.0` on entry. Accumulation itself can
///    never create one: under round-to-nearest `a + b` is `-0.0` only
///    when both addends are, so a buffer that starts at `+0.0` (what
///    `Dense::zero_grad` writes) stays free of `-0.0` through any number
///    of calls. A caller that scales or otherwise rewrites gradients in
///    place (a negative value can underflow to `-0.0`) must zero them
///    before accumulating again.
///
/// # Panics
///
/// Panics if `dw.len() != rows * cols`, `d.len() != batch * rows`, or
/// `xs.len() != batch * cols`.
pub fn matmul_at_b_acc(
    dw: &mut [f32],
    d: &[f32],
    xs: &[f32],
    rows: usize,
    cols: usize,
    batch: usize,
) {
    assert_eq!(
        dw.len(),
        rows * cols,
        "matmul_at_b_acc: gradient shape mismatch"
    );
    assert_eq!(
        d.len(),
        batch * rows,
        "matmul_at_b_acc: delta shape mismatch"
    );
    assert_eq!(
        xs.len(),
        batch * cols,
        "matmul_at_b_acc: input shape mismatch"
    );
    if rows == 0 || cols == 0 {
        return;
    }
    for (x, drow) in xs.chunks_exact(cols).zip(d.chunks_exact(rows)) {
        let live = live_span(drow);
        let mut gtiles = dw[live.start * cols..live.end * cols].chunks_exact_mut(ROW_TILE * cols);
        let mut dtiles = drow[live].chunks_exact(ROW_TILE);
        for (gtile, dt) in (&mut gtiles).zip(&mut dtiles) {
            // One pass over the input row feeds four gradient rows.
            let [g0, g1, g2, g3] = tile_rows_mut(gtile, cols);
            for ((((a, b), c), e), &xv) in g0.iter_mut().zip(g1).zip(g2).zip(g3).zip(x) {
                *a += dt[0] * xv;
                *b += dt[1] * xv;
                *c += dt[2] * xv;
                *e += dt[3] * xv;
            }
        }
        let grest = gtiles.into_remainder();
        for (grow, &dr) in grest.chunks_exact_mut(cols).zip(dtiles.remainder()) {
            for (g, &xv) in grow.iter_mut().zip(x) {
                *g += dr * xv;
            }
        }
    }
}

/// Accumulates per-column sums of a row-major `(batch × rows)` delta
/// matrix into `db` — the batched bias gradient, `db[r] += Σ_s d[s][r]`,
/// with the per-element additions in ascending sample order so the result
/// is bit-identical to `batch` successive one-row calls (the retained
/// [`scalar::col_sum_acc`] reference). `chunks_exact` keeps the
/// elementwise inner loop free of bounds checks so it autovectorizes.
///
/// # Panics
///
/// Panics if `d.len() != batch * db.len()`.
pub fn col_sum_acc(db: &mut [f32], d: &[f32], batch: usize) {
    let rows = db.len();
    assert_eq!(d.len(), batch * rows, "col_sum_acc: delta shape mismatch");
    if rows == 0 {
        return;
    }
    for drow in d.chunks_exact(rows) {
        for (b, &dv) in db.iter_mut().zip(drow) {
            *b += dv;
        }
    }
}

/// Scales every element of `xs` by `k`.
#[inline]
pub fn scale(xs: &mut [f32], k: f32) {
    for x in xs {
        *x *= k;
    }
}

/// Euclidean (L2) norm of a slice.
#[inline]
pub fn l2_norm(xs: &[f32]) -> f32 {
    xs.iter().map(|x| x * x).sum::<f32>().sqrt()
}

/// Clips the global L2 norm of a gradient slice to `max_norm`, returning the
/// scaling factor applied (1.0 when no clipping occurred).
///
/// Gradient clipping keeps the online C51 updates stable when the reward
/// scale shifts abruptly (e.g. at workload phase changes).
pub fn clip_l2_norm(xs: &mut [f32], max_norm: f32) -> f32 {
    let norm = l2_norm(xs);
    if norm > max_norm && norm > 0.0 {
        let k = max_norm / norm;
        scale(xs, k);
        k
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "input shape mismatch")]
    fn matmul_bias_panels_rejects_ragged_batch() {
        let mut panels = Vec::new();
        pack_panels(&[1.0, 2.0], 1, 2, &mut panels);
        let mut out = Vec::new();
        matmul_bias_panels(&panels, &[0.0], &[1.0, 2.0, 3.0], 1, 2, 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "delta shape mismatch")]
    fn matmul_at_b_acc_rejects_ragged_delta() {
        let mut dw = vec![0.0; 4];
        matmul_at_b_acc(&mut dw, &[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0], 2, 2, 2);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut g = vec![0.1, 0.1];
        let k = clip_l2_norm(&mut g, 10.0);
        assert_eq!(k, 1.0);
        assert_eq!(g, vec![0.1, 0.1]);
    }

    #[test]
    fn clip_shrinks_large_gradients() {
        let mut g = vec![30.0, 40.0]; // norm 50
        clip_l2_norm(&mut g, 5.0);
        assert!((l2_norm(&g) - 5.0).abs() < 1e-4);
    }

    proptest! {
        /// `scalar::matmul_bias` and `matmul_transpose` are adjoint: the
        /// quadratic form dᵀ·W·x comes out the same both ways.
        #[test]
        fn quadratic_form_consistency(
            w in proptest::collection::vec(-2.0f32..2.0, 6),
            x in proptest::collection::vec(-2.0f32..2.0, 3),
            d in proptest::collection::vec(-2.0f32..2.0, 2),
        ) {
            let b = vec![0.0; 2];
            let mut wx = Vec::new();
            scalar::matmul_bias(&w, &b, &x, 2, 3, 1, &mut wx);
            let lhs = dot(&d, &wx);
            let mut wtd = Vec::new();
            matmul_transpose(&w, &d, 2, 3, 1, &mut wtd);
            let rhs = dot(&wtd, &x);
            prop_assert!((lhs - rhs).abs() < 1e-3);
        }

        /// Clipping never increases the norm and respects the bound.
        #[test]
        fn clip_invariants(mut g in proptest::collection::vec(-10.0f32..10.0, 1..32),
                           max in 0.1f32..20.0) {
            let before = l2_norm(&g);
            clip_l2_norm(&mut g, max);
            let after = l2_norm(&g);
            prop_assert!(after <= before + 1e-4);
            prop_assert!(after <= max + 1e-3);
        }
    }
}
