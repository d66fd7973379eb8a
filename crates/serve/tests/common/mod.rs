//! The one serving-test fixture: the fast-learning agent, the reference
//! H&M configuration, the Mix2 reference trace and the three reference
//! geometries every golden in this directory runs on. Shared (by path)
//! with the crate's unit tests.
#![allow(dead_code)] // each test crate uses its own subset

pub mod watchdog;

use sibyl_core::SibylConfig;
use sibyl_hss::{DeviceSpec, HssConfig};
use sibyl_serve::ServeConfig;
use sibyl_trace::{mix::Mix, Trace};

/// A small agent that trains several times within a ~2k-request trace.
pub fn fast_sibyl() -> SibylConfig {
    SibylConfig {
        buffer_capacity: 256,
        train_interval: 128,
        batch_size: 32,
        batches_per_step: 2,
        n_atoms: 11,
        exploration: 0.05,
        exploration_initial: 0.3,
        exploration_decay_requests: 500,
        ..Default::default()
    }
}

/// The all-default serving configuration over the H&M pair.
pub fn config(shards: usize, max_batch: usize) -> ServeConfig {
    let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
    ServeConfig::new(hss)
        .with_shards(shards)
        .with_max_batch(max_batch)
        .with_sibyl(fast_sibyl())
}

/// The Mix2 reference trace (two components of `n_per_component`).
pub fn mixed_trace(n_per_component: usize) -> Trace {
    Mix::Mix2.generate(n_per_component, 7)
}

/// The reference geometries: (shards, max_batch, requests per trace
/// component).
pub const GEOMETRIES: [(usize, usize, usize); 3] = [(4, 16, 1_000), (2, 8, 800), (1, 32, 600)];
