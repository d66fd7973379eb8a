//! Element-wise activation functions and their derivatives.

/// An element-wise activation function.
///
/// The Sibyl paper uses the swish activation (`x · sigmoid(x)`,
/// Ramachandran et al.) on all fully-connected layers, noting it
/// outperforms ReLU for the data-placement task (§6.2.2).
///
/// # Examples
///
/// ```
/// use sibyl_nn::Activation;
/// assert_eq!(Activation::Relu.apply(-1.0), 0.0);
/// assert!((Activation::Swish.apply(0.0)).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// Identity: `f(x) = x`.
    #[default]
    Linear,
    /// Rectified linear unit: `f(x) = max(0, x)`.
    Relu,
    /// Swish (a.k.a. SiLU): `f(x) = x · σ(x)`. The paper's choice.
    Swish,
}

#[inline]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

impl Activation {
    /// Applies the activation to a single pre-activation value.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        self.apply_with_derivative(x).0
    }

    /// Derivative `df/dx` expressed in terms of the pre-activation `x`.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        self.apply_with_derivative(x).1
    }

    /// `(f(x), df/dx)` from one evaluation of the transcendental the two
    /// share (swish: one `exp`). This is the
    /// single definition of every activation — [`Activation::apply`] and
    /// [`Activation::derivative`] are its two projections — so a training
    /// forward pass that caches the derivative hands the backward pass
    /// exactly the bits a separate `derivative` call would compute.
    #[inline]
    pub fn apply_with_derivative(self, x: f32) -> (f32, f32) {
        match self {
            Activation::Linear => (x, 1.0),
            Activation::Relu => (x.max(0.0), if x > 0.0 { 1.0 } else { 0.0 }),
            Activation::Swish => {
                let s = sigmoid(x);
                let y = x * s;
                (y, s + y * (1.0 - s))
            }
        }
    }

    /// Applies the activation in place over a slice of pre-activations.
    pub fn apply_slice(self, xs: &mut [f32]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ALL: [Activation; 3] = [Activation::Linear, Activation::Relu, Activation::Swish];

    #[test]
    fn swish_matches_reference_points() {
        // swish(1) = 1 * sigmoid(1) ≈ 0.731058
        assert!((Activation::Swish.apply(1.0) - 0.731_058).abs() < 1e-4);
        // swish is slightly negative for small negative inputs
        assert!(Activation::Swish.apply(-1.0) < 0.0);
    }

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.apply(-5.0), 0.0);
        assert_eq!(Activation::Relu.apply(5.0), 5.0);
        assert_eq!(Activation::Relu.derivative(-1.0), 0.0);
        assert_eq!(Activation::Relu.derivative(1.0), 1.0);
    }

    #[test]
    fn apply_slice_matches_scalar() {
        let mut v = [-1.0f32, 0.0, 2.5];
        Activation::Swish.apply_slice(&mut v);
        assert_eq!(v[1], 0.0);
        assert_eq!(v[2].to_bits(), Activation::Swish.apply(2.5).to_bits());
    }

    /// `apply_with_derivative` is the single definition `apply` and
    /// `derivative` project from, so pin it against the textbook
    /// expressions written out independently — bit for bit, because the
    /// training path's bit-identity rests on these exact operations in
    /// this exact order.
    #[test]
    fn fused_pair_matches_the_written_out_formulas() {
        for i in -80..=80 {
            let x = i as f32 * 0.11;
            let s = 1.0 / (1.0 + (-x).exp());
            let expected = [
                (Activation::Linear, x, 1.0),
                (
                    Activation::Relu,
                    x.max(0.0),
                    if x > 0.0 { 1.0 } else { 0.0 },
                ),
                (Activation::Swish, x * s, s + x * s * (1.0 - s)),
            ];
            for (act, y, dy) in expected {
                let (fy, fdy) = act.apply_with_derivative(x);
                assert_eq!(fy.to_bits(), y.to_bits(), "{act:?}({x})");
                assert_eq!(fdy.to_bits(), dy.to_bits(), "{act:?}'({x})");
                assert_eq!(act.apply(x).to_bits(), y.to_bits());
                assert_eq!(act.derivative(x).to_bits(), dy.to_bits());
            }
        }
    }

    proptest! {
        /// Every activation's analytic derivative matches a central finite
        /// difference (away from the ReLU kink).
        #[test]
        fn derivatives_match_finite_differences(x in -4.0f32..4.0) {
            let h = 1e-3f32;
            for act in ALL {
                if act == Activation::Relu && x.abs() < 2.0 * h {
                    continue; // non-differentiable at 0
                }
                let numeric = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let analytic = act.derivative(x);
                prop_assert!(
                    (numeric - analytic).abs() < 5e-3,
                    "{act:?} at {x}: numeric {numeric} vs analytic {analytic}"
                );
            }
        }

        /// Swish is bounded below.
        #[test]
        fn ranges_hold(x in -50.0f32..50.0) {
            prop_assert!(Activation::Swish.apply(x) >= -0.2785);
        }
    }
}
