//! Figure 13: feature ablation — Sibyl with subsets of the Table 1 state
//! features on the H&L configuration (rt = request size, ft = access
//! count, mt = access interval, pt = current placement, All = all six).

use sibyl_bench::{hl_config, seed, trace_len, Cell, Figure};
use sibyl_core::{FeatureMask, SibylConfig};
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(25_000);
    let mut fig = Figure::new(
        "fig13_features",
        "Figure 13",
        "Sibyl normalized latency with different state-feature subsets (H&L)",
        n,
    );
    let traces = Workload::MOTIVATION.map(|wl| msrc::generate(wl, n, seed()));
    let masks = [
        ("rt", FeatureMask::RT),
        ("ft", FeatureMask::FT),
        ("rt+ft", FeatureMask::RT_FT),
        ("rt+ft+mt", FeatureMask::RT_FT_MT),
        ("rt+ft+pt", FeatureMask::RT_FT_PT),
        ("All", FeatureMask::ALL),
    ]
    .map(|(label, feature_mask)| {
        let config = SibylConfig {
            feature_mask,
            ..Default::default()
        };
        (label, PolicyKind::sibyl_with(config))
    });
    let panel = [("hl", "", hl_config())];
    fig.grid(&panel, "workload", &traces, &masks, Cell::NormLatency)?;
    println!(
        "(The paper: using all six features is consistently best — up to 43.6 % lower latency.)"
    );
    Ok(fig.finish()?)
}
