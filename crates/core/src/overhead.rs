//! Overhead accounting — the paper's §10.
//!
//! The paper counts, for the 6-20-30-2 network: 780 weights, 780 MACs per
//! inference, 1,597,440 MACs per training step, a 40-bit state entry, a
//! 100-bit experience, and a total storage overhead of 124.4 KiB (two
//! networks at 12.2 KiB each plus a 100 KiB experience buffer).
//!
//! Note on units: the paper's arithmetic is internally consistent in
//! *kilobits* (780 × 16 bits = 12.2 Kbit; 1000 × 100 bits = 100 Kbit)
//! but prints the totals as "KiB". [`OverheadReport`] reproduces the
//! paper's printed numbers via [`OverheadReport::paper_accounting_kib`]
//! and also reports strict bytes.

use crate::config::SibylConfig;

/// Bits per stored state entry (Table 1: 8+4+8+8+8+4).
pub const STATE_BITS: usize = 40;
/// Bits per action in the experience tuple (§6.2.1's relaxed encoding).
pub const ACTION_BITS: usize = 4;
/// Bits per reward (half-precision float).
pub const REWARD_BITS: usize = 16;
/// Bits per experience ⟨state, action, reward, next-state⟩ (§6.2.1: 100).
pub const EXPERIENCE_BITS: usize = 2 * STATE_BITS + ACTION_BITS + REWARD_BITS;

/// Static overhead description of a Sibyl instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadReport {
    /// Network weights (excluding biases, as §10.1 counts).
    pub weights: usize,
    /// Weights plus biases.
    pub parameters: usize,
    /// Multiply-accumulates per inference.
    pub inference_macs: usize,
    /// Multiply-accumulates per training step
    /// (`batches × batch_size × inference_macs` for forward, doubled for
    /// backward in our implementation; the paper counts the forward pass
    /// only).
    pub training_step_macs_forward: usize,
    /// Experience-buffer capacity.
    pub buffer_entries: usize,
    /// Strict bytes: two f16 networks + buffer + per-page metadata are
    /// *not* included (that scales with footprint; see
    /// [`OverheadReport::metadata_bytes_for_pages`]).
    pub total_bytes: usize,
}

impl OverheadReport {
    /// Builds the report for a configuration with `n_actions` devices and
    /// `obs_len` observation features: the C51 head's `n_actions × n_atoms`
    /// outputs.
    pub fn for_config(config: &SibylConfig, n_actions: usize, obs_len: usize) -> Self {
        Self::for_shape(config, obs_len, n_actions * config.n_atoms)
    }

    /// The report for `config`'s hidden layers between `obs_len` inputs
    /// and `outputs` output neurons.
    fn for_shape(config: &SibylConfig, obs_len: usize, outputs: usize) -> Self {
        let dims = [
            obs_len,
            config.hidden_dims[0],
            config.hidden_dims[1],
            outputs,
        ];
        let weights: usize = dims.windows(2).map(|w| w[0] * w[1]).sum();
        let biases: usize = dims[1..].iter().sum();
        let inference_macs = weights;
        let training_step_macs_forward =
            config.batches_per_step * config.batch_size * inference_macs;
        // Two networks (training + inference) in half precision, plus the
        // experience buffer.
        let network_bytes = 2 * 2 * (weights + biases);
        let buffer_bytes = config.buffer_capacity * EXPERIENCE_BITS / 8;
        OverheadReport {
            weights,
            parameters: weights + biases,
            inference_macs,
            training_step_macs_forward,
            buffer_entries: config.buffer_capacity,
            total_bytes: network_bytes + buffer_bytes,
        }
    }

    /// The paper's §10 network shape: six features in, one output
    /// neuron per action (6-20-30-2 for a dual HSS), which yields the
    /// published numbers exactly. It is a shape count: the agent itself
    /// carries the C51 head's `n_actions × n_atoms` outputs.
    pub fn paper_network(n_actions: usize) -> Self {
        Self::for_shape(&SibylConfig::default(), 6, n_actions)
    }

    /// Reproduces the paper's published "KiB" figures (which are
    /// kilobit-consistent, see module docs): returns
    /// `(per_network, buffer, total)` as printed in §10.2 —
    /// (12.2, 100.0, 124.4) for the dual-HSS configuration.
    pub fn paper_accounting_kib(&self) -> (f64, f64, f64) {
        let per_network = (self.weights * 16) as f64 / 1024.0;
        let buffer = (self.buffer_entries * EXPERIENCE_BITS) as f64 / 1000.0;
        (per_network, buffer, 2.0 * per_network + buffer)
    }

    /// Per-page placement metadata in bytes for a working set of
    /// `pages` pages (§10.2: 40 bits = 5 bytes per 4 KiB page, ≈ 0.1 %
    /// of capacity).
    pub fn metadata_bytes_for_pages(pages: u64) -> u64 {
        pages * STATE_BITS as u64 / 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experience_is_100_bits() {
        assert_eq!(EXPERIENCE_BITS, 100);
    }

    #[test]
    fn paper_network_has_780_weights_and_macs() {
        let r = OverheadReport::paper_network(2);
        assert_eq!(r.weights, 780);
        assert_eq!(r.inference_macs, 780);
        // §10.1: 8 batches × 128 × 780 MACs ≈ 798,720 forward MACs
        // (the paper's 1,597,440 counts forward+backward).
        assert_eq!(r.training_step_macs_forward, 798_720);
        assert_eq!(2 * r.training_step_macs_forward, 1_597_440);
    }

    #[test]
    fn paper_accounting_reproduces_124_4_kib() {
        let r = OverheadReport::paper_network(2);
        let (net, buf, total) = r.paper_accounting_kib();
        assert!((net - 12.19).abs() < 0.05, "per-network {net}");
        assert!((buf - 100.0).abs() < 0.01, "buffer {buf}");
        assert!((total - 124.4).abs() < 0.1, "total {total}");
    }

    #[test]
    fn tri_hss_adds_one_output_and_feature() {
        let r = OverheadReport::for_shape(&SibylConfig::default(), 7, 3);
        // 7·20 + 20·30 + 30·3 = 140 + 600 + 90
        assert_eq!(r.weights, 830);
    }

    #[test]
    fn metadata_cost_is_5_bytes_per_page() {
        assert_eq!(OverheadReport::metadata_bytes_for_pages(1), 5);
        // ~0.1% of a 4 KiB page.
        let frac = 5.0 / 4096.0;
        assert!(frac < 0.0013);
    }

    #[test]
    fn c51_head_is_larger_than_the_paper_shape() {
        let c51 = OverheadReport::for_config(&SibylConfig::default(), 2, 6);
        let paper = OverheadReport::paper_network(2);
        assert!(c51.weights > paper.weights);
        assert!(c51.total_bytes > 0);
    }
}
