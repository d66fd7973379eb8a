//! # sibyl-core
//!
//! Sibyl: adaptive and extensible data placement in hybrid storage
//! systems using online reinforcement learning — the paper's primary
//! contribution (Singh et al., ISCA 2022).
//!
//! The agent formulates data placement as an RL problem (§5):
//!
//! - **State** ([`features`]): six binned features per request — request
//!   size, type, access interval, access count, remaining fast capacity,
//!   and current placement (Table 1) — packed into 40 bits and normalized
//!   for the network.
//! - **Action**: the device to place the request's pages on; extending to
//!   `N ≥ 3` devices adds outputs and capacity features (§8.7).
//! - **Reward** ([`RewardShaper`]): `1/L_t`, penalized by `0.001·L_e` on
//!   eviction (Eq. 1), scaled to a stable support range.
//! - **Learning** ([`Learner`]): a C51 categorical DQN
//!   over a 6-20-30-|A| swish network, trained from a 1000-entry
//!   deduplicated [`ExperienceBuffer`] — 8 batches of 128 every 1000
//!   requests, with training→inference weight copies (Algorithm 1).
//! - **Two networks, one loop** (§6.2): a [`Learner`] holds the training
//!   network and the inference network, which doubles as the bootstrap
//!   target; `place`, `place_batch` and `sibyl-migrate`'s tick agent all
//!   decide through one [`DecisionCore`] ε-greedy pass against it.
//! - **One thread** ([`SibylAgent`]): training runs inline on the
//!   decision thread at `train_interval` boundaries. The paper overlaps
//!   it with decisions on a second thread (Fig. 7(a)); this crate does
//!   not carry that, so that two identical runs are bit-identical.
//!
//! [`SibylAgent`] implements [`sibyl_hss::PlacementPolicy`], so it drops
//! into the same driver loop as every baseline.
//!
//! ## Example
//!
//! ```rust
//! use sibyl_core::{SibylAgent, SibylConfig};
//! use sibyl_hss::{DeviceSpec, HssConfig, PlacementPolicy, StorageManager};
//! use sibyl_trace::{IoOp, IoRequest};
//!
//! let cfg = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
//!     .with_capacity_pages(vec![64, u64::MAX]);
//! let mut hss = StorageManager::new(&cfg);
//! let mut sibyl = SibylAgent::new(SibylConfig::default());
//!
//! let req = IoRequest::new(0, 42, 4, IoOp::Write);
//! let target = sibyl.place(&req, &hss);
//! let outcome = hss.access(&req, target);
//! sibyl.feedback(&outcome);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agent;
mod buffer;
mod c51;
mod config;
mod decision;
pub mod features;
mod learner;
pub mod overhead;
mod reward;

pub use agent::{AgentStats, RlProbe, SibylAgent};
pub use buffer::{Experience, ExperienceBuffer};
pub use config::{QuantMode, SibylConfig};
pub use decision::DecisionCore;
pub use features::{FeatureMask, Observation, StateEncoder};
pub use learner::{Inference, Learner};
pub use overhead::OverheadReport;
pub use reward::RewardShaper;
// Convenience re-export: `SibylConfig.telemetry` is of this type.
pub use sibyl_telemetry::TelemetryConfig;
