//! Weight initialization schemes.

use rand::Rng;

/// Fills `w` with Xavier/Glorot-uniform samples for a layer with the given
/// fan-in and fan-out: `U(-√(6/(in+out)), +√(6/(in+out)))`.
///
/// Glorot initialization keeps forward activations and backward gradients
/// at comparable variance in small tanh/swish networks like the paper's
/// 6-20-30-|A| placement network.
pub fn xavier_uniform<R: Rng + ?Sized>(w: &mut [f32], fan_in: usize, fan_out: usize, rng: &mut R) {
    let limit = (6.0 / (fan_in + fan_out) as f32).sqrt();
    for v in w {
        *v = rng.gen_range(-limit..=limit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut w = vec![0.0; 1000];
        xavier_uniform(&mut w, 20, 30, &mut rng);
        let limit = (6.0f32 / 50.0).sqrt();
        assert!(w.iter().all(|v| v.abs() <= limit + f32::EPSILON));
        // Not degenerate: some spread.
        let mean: f32 = w.iter().sum::<f32>() / w.len() as f32;
        assert!(mean.abs() < 0.05);
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let mut a = vec![0.0; 16];
        let mut b = vec![0.0; 16];
        let mut r1 = rand::rngs::StdRng::seed_from_u64(9);
        let mut r2 = rand::rngs::StdRng::seed_from_u64(9);
        xavier_uniform(&mut a, 4, 4, &mut r1);
        xavier_uniform(&mut b, 4, 4, &mut r2);
        assert_eq!(a, b);
    }
}
