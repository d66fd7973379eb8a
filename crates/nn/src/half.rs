//! IEEE 754 binary16 (half-precision) conversion utilities.
//!
//! The paper stores network weights and rewards in half precision to reach
//! its 124.4 KiB total overhead (§10.2: 780 16-bit weights ⇒ 12.2 KiB per
//! network ... sic, the paper rounds generously; we reproduce the same
//! accounting). Computation and storage stay in `f32`: the encoder is the
//! resolution at which the replay buffer deduplicates experiences, and the
//! decoder is what the property suite checks it against.

/// Converts an `f32` to its IEEE 754 binary16 bit pattern
/// (round-to-nearest-even), handling subnormals, infinities, and NaN.
///
/// # Examples
///
/// ```
/// use sibyl_nn::half::{f32_to_f16_bits, f16_bits_to_f32};
/// let bits = f32_to_f16_bits(1.0);
/// assert_eq!(bits, 0x3C00);
/// assert_eq!(f16_bits_to_f32(bits), 1.0);
/// ```
pub fn f32_to_f16_bits(x: f32) -> u16 {
    // All three cases are computed and one is selected by magnitude, so
    // the compiler can pick with conditional moves instead of a branch
    // per class of input: the replay buffer encodes a dozen binned
    // feature values a push, where zeros and normals alternate and such a
    // branch mispredicts.
    const F32_INFINITY: u32 = 0xFF << 23;
    /// 2¹⁶: at and above it a value overflows to the binary16 infinity.
    const F16_OVERFLOW: u32 = (127 + 16) << 23;
    /// 2⁻¹⁴, the least binary16 normal.
    const F16_MIN_NORMAL: u32 = (127 - 14) << 23;
    let bits = x.to_bits();
    let sign = (bits >> 16) as u16 & 0x8000;
    let abs = bits & 0x7FFF_FFFF;
    // Inf or NaN (a quiet NaN whatever the payload), or overflow.
    let special = if abs > F32_INFINITY { 0x7E00 } else { 0x7C00 };
    // Subnormal or zero: adding 0.5, whose ulp is 2⁻²⁴ — the binary16
    // subnormal step — rounds to nearest even in the FPU and leaves the
    // value's subnormal bits at the bottom of the sum's fraction.
    let half = 0.5f32.to_bits();
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits().wrapping_sub(half);
    // Normal: re-bias the exponent from 127 to 15 and keep the top 10
    // fraction bits, rounding to nearest even by adding 0xFFF plus the
    // kept part's lowest bit (a carry into the exponent is correct).
    let normal = abs
        .wrapping_sub((127 - 15) << 23)
        .wrapping_add(0xFFF + (abs >> 13 & 1))
        >> 13;
    let magnitude = if abs >= F16_OVERFLOW {
        special
    } else if abs < F16_MIN_NORMAL {
        subnormal
    } else {
        normal
    };
    sign | magnitude as u16
}

/// Converts an IEEE 754 binary16 bit pattern back to `f32`.
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits & 0x8000) as u32) << 16;
    let exp = ((bits >> 10) & 0x1F) as u32;
    let frac = (bits & 0x03FF) as u32;

    let out = if exp == 0 {
        if frac == 0 {
            sign // signed zero
        } else {
            // Subnormal (value = frac · 2⁻²⁴): normalize. After shifting
            // the leading 1 up to bit 10 in k steps the value is
            // (1 + f/1024) · 2^(−14−k), so the biased f32 exponent is
            // 127 − 14 + e with e = −k.
            let mut e = 0i32;
            let mut f = frac;
            while f & 0x0400 == 0 {
                f <<= 1;
                e -= 1;
            }
            let f = f & 0x03FF;
            let exp32 = (127 - 14 + e) as u32;
            sign | (exp32 << 23) | (f << 13)
        }
    } else if exp == 0x1F {
        if frac == 0 {
            sign | 0x7F80_0000 // infinity
        } else {
            sign | 0x7FC0_0000 // NaN
        }
    } else {
        let exp32 = exp + 127 - 15;
        sign | (exp32 << 23) | (frac << 13)
    };
    f32::from_bits(out)
}

/// Quantizes a value through binary16 and back (the precision the paper's
/// stored weights actually have).
pub fn quantize(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The encoder as it was written first, one branch per class of
    /// input: the reference the branch-free encoder is pinned to.
    fn f32_to_f16_bits_reference(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let frac = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN
            return if frac == 0 {
                sign | 0x7C00
            } else {
                sign | 0x7E00 // quiet NaN
            };
        }

        // Re-bias exponent from 127 to 15.
        let unbiased = exp - 127;
        let new_exp = unbiased + 15;

        if new_exp >= 0x1F {
            // Overflow -> infinity.
            return sign | 0x7C00;
        }
        if new_exp <= 0 {
            // Subnormal or zero in f16.
            if new_exp < -10 {
                return sign; // underflows to zero
            }
            // Add implicit leading 1 and shift into subnormal position.
            let mant = frac | 0x0080_0000;
            let shift = (14 - new_exp) as u32;
            let sub = mant >> shift;
            // Round to nearest even.
            let round_bit = 1u32 << (shift - 1);
            let lower = mant & (round_bit | (round_bit - 1));
            let mut half = sub as u16;
            if lower > round_bit || (lower == round_bit && (sub & 1) == 1) {
                half += 1;
            }
            return sign | half;
        }

        // Normal number: keep top 10 fraction bits with round-to-nearest-even.
        let mut half = (new_exp as u16) << 10 | (frac >> 13) as u16;
        let round_bits = frac & 0x1FFF;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half & 1) == 1) {
            half = half.wrapping_add(1); // may carry into the exponent, which is correct
        }
        sign | half
    }

    /// The branch-free encoder is the reference bit for bit. Both signs,
    /// every exponent, and per exponent every pattern of the 13 fraction
    /// bits a normal rounds away under kept parts that are even, odd and
    /// all ones (a carry into the exponent); across the exponents whose
    /// values land in or next to the binary16 subnormals, where the
    /// rounding position moves, every fraction (a stride of 3 in debug
    /// builds).
    #[test]
    fn branch_free_encoder_is_the_reference() {
        let check = |bits: u32| {
            let x = f32::from_bits(bits);
            assert_eq!(
                f32_to_f16_bits(x),
                f32_to_f16_bits_reference(x),
                "{bits:#010x}"
            );
        };
        let stride = if cfg!(debug_assertions) { 3 } else { 1 };
        for sign in [0, 1u32 << 31] {
            for exp in 0..=0xFFu32 {
                for kept in [0, 1, 0x155, 0x2AA, 0x3FF] {
                    for low in 0..1u32 << 13 {
                        check(sign | exp << 23 | kept << 13 | low);
                    }
                }
            }
            for exp in 100..=114u32 {
                for frac in (0..1u32 << 23).step_by(stride) {
                    check(sign | exp << 23 | frac);
                }
            }
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // max finite f16
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(1e10), 0x7C00); // overflow
    }

    #[test]
    fn roundtrip_exact_for_representable() {
        for &v in &[0.5f32, 0.25, 1.5, 3.0, -100.0, 2048.0] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)), v);
        }
    }

    #[test]
    fn nan_survives() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive f16 subnormal is 2^-24 ≈ 5.96e-8.
        let tiny = 5.96e-8f32;
        let q = quantize(tiny);
        assert!(q > 0.0 && q < 1e-7);
        // Below half of the smallest subnormal underflows to zero.
        assert_eq!(quantize(1e-9), 0.0);
    }

    proptest! {
        /// Quantization error is within half an ULP of binary16 for normal
        /// values: relative error ≤ 2^-11.
        #[test]
        fn quantization_error_bounded(x in -60000.0f32..60000.0) {
            prop_assume!(x.abs() > 6.2e-5); // skip the subnormal range
            let q = quantize(x);
            let rel = ((q - x) / x).abs();
            prop_assert!(rel <= 4.9e-4, "x={x} q={q} rel={rel}");
        }

        /// Quantization is idempotent.
        #[test]
        fn quantize_idempotent(x in -60000.0f32..60000.0) {
            let q = quantize(x);
            prop_assert_eq!(quantize(q).to_bits(), q.to_bits());
        }

        /// Sign is always preserved.
        #[test]
        fn sign_preserved(x in -60000.0f32..60000.0) {
            let q = quantize(x);
            prop_assert_eq!(q.is_sign_negative(), x.is_sign_negative());
        }
    }
}
