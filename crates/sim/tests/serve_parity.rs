//! The single-node experiment runner and a one-shard, batch-1 serving run
//! are the same simulation: for the Sibyl agent on the shard's seed, an
//! [`Experiment`] run and [`serve_trace`] report equal [`Metrics`](sibyl_sim::Metrics)
//! on every workload, device configuration and replay speed below.

use sibyl_core::SibylConfig;
use sibyl_hss::{DeviceSpec, HssConfig};
use sibyl_serve::{serve_trace, ServeConfig};
use sibyl_sim::{Experiment, PolicyKind};
use sibyl_trace::msrc::{self, Workload};

#[test]
fn experiment_equals_one_shard_batch_one_serving() -> Result<(), Box<dyn std::error::Error>> {
    let configs = [
        (
            "H&M",
            HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd()),
        ),
        (
            "H&L",
            HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd()),
        ),
    ];
    for workload in [Workload::Hm1, Workload::Prxy1, Workload::Rsrch0] {
        let trace = msrc::generate(workload, 3_000, 42);
        for (name, hss) in &configs {
            for scale in [1.0, 40.0] {
                let cfg = ServeConfig::new(hss.clone())
                    .with_shards(1)
                    .with_max_batch(1)
                    .with_time_scale(scale);
                let sibyl = SibylConfig {
                    seed: cfg.shard_seed(0),
                    ..Default::default()
                };
                let sim = Experiment::new(hss.clone(), trace.clone())
                    .with_time_scale(scale)
                    .run(PolicyKind::sibyl_with(sibyl))?
                    .metrics;
                let served = serve_trace(&cfg, &trace)?.aggregate();
                assert_eq!(
                    sim, served,
                    "{workload:?} on {name} at time scale {scale}: sim and serve diverge"
                );
            }
        }
    }
    Ok(())
}
