//! Loss functions and their gradients.
//!
//! The C51 agent in `sibyl-core` minimizes the cross-entropy between a
//! projected target distribution and the predicted categorical distribution
//! (Bellemare et al., 2017); the supervised baselines (Archivist and the
//! RNN-HSS classifier) use one-hot cross-entropy.

use crate::softmax;

/// Cross-entropy `−Σ tᵢ·log softmax(z)ᵢ` between logits `z` and a target
/// probability vector `t` (which may be soft, as in the C51 projection).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn cross_entropy_logits(z: &[f32], t: &[f32]) -> f32 {
    assert_eq!(z.len(), t.len(), "cross_entropy_logits: length mismatch");
    assert!(!z.is_empty(), "cross_entropy_logits: empty input");
    let mut p = Vec::new();
    softmax(z, &mut p);
    let mut loss = 0.0f32;
    for (pi, ti) in p.iter().zip(t) {
        if *ti > 0.0 {
            loss -= ti * pi.max(1e-12).ln();
        }
    }
    loss
}

/// Gradient of [`cross_entropy_logits`] with respect to the logits:
/// `softmax(z) − t` (assuming `t` sums to 1).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn cross_entropy_logits_grad(z: &[f32], t: &[f32], out: &mut Vec<f32>) {
    assert_eq!(
        z.len(),
        t.len(),
        "cross_entropy_logits_grad: length mismatch"
    );
    assert!(!z.is_empty(), "cross_entropy_logits_grad: empty input");
    softmax(z, out);
    for (o, &ti) in out.iter_mut().zip(t) {
        *o -= ti;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cross_entropy_minimized_at_target() {
        // Logits strongly favouring class 0 vs a one-hot target at 0.
        let good = cross_entropy_logits(&[10.0, -10.0], &[1.0, 0.0]);
        let bad = cross_entropy_logits(&[-10.0, 10.0], &[1.0, 0.0]);
        assert!(good < 1e-3);
        assert!(bad > 5.0);
    }

    #[test]
    fn ce_grad_matches_finite_difference() {
        let z = [0.3f32, -0.2, 0.8];
        let t = [0.2f32, 0.5, 0.3];
        let mut g = Vec::new();
        cross_entropy_logits_grad(&z, &t, &mut g);
        let h = 1e-3f32;
        for i in 0..z.len() {
            let mut zp = z;
            zp[i] += h;
            let mut zm = z;
            zm[i] -= h;
            let numeric =
                (cross_entropy_logits(&zp, &t) - cross_entropy_logits(&zm, &t)) / (2.0 * h);
            assert!(
                (numeric - g[i]).abs() < 1e-2,
                "logit {i}: numeric {numeric} vs analytic {}",
                g[i]
            );
        }
    }

    proptest! {
        /// Cross-entropy gradient sums to ~0 when the target sums to 1
        /// (softmax output also sums to 1).
        #[test]
        fn ce_grad_sums_to_zero(z in proptest::collection::vec(-3.0f32..3.0, 5),
                                raw_t in proptest::collection::vec(0.01f32..1.0, 5)) {
            let ts: f32 = raw_t.iter().sum();
            let t: Vec<f32> = raw_t.iter().map(|x| x / ts).collect();
            let mut g = Vec::new();
            cross_entropy_logits_grad(&z, &t, &mut g);
            let s: f32 = g.iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }
}
