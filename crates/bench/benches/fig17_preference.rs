//! Figure 17: explainability — Sibyl's preference for the fast device
//! (fraction of placements targeting it) per workload, under H&M and
//! H&L.
//!
//! The paper's reading: with a large inter-device gap (H&L) Sibyl
//! aggressively prefers fast storage; with a small gap (H&M) it places
//! only performance-critical pages there.

use sibyl_bench::{hl_config, hm_config, seed, trace_len, Figure};
use sibyl_sim::report::Table;
use sibyl_sim::{Experiment, PolicyKind};
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(25_000);
    let mut fig = Figure::new(
        "fig17_preference",
        "Figure 17",
        "Sibyl's preference for fast storage: #fast placements / #all placements",
        n,
    );
    let mut table = Table::new(["workload", "H&M", "H&L"]);
    let mut sums = [0.0f64; 2];
    for wl in Workload::ALL {
        let trace = msrc::generate(wl, n, seed());
        let mut row = vec![trace.name().to_string()];
        for (i, cfg) in [hm_config(), hl_config()].into_iter().enumerate() {
            let exp = Experiment::new(cfg, trace.clone());
            let out = exp.run(PolicyKind::sibyl())?;
            let pref = out.metrics.fast_placement_fraction;
            sums[i] += pref;
            row.push(format!("{pref:.2}"));
        }
        table.add_row(row);
    }
    let count = Workload::ALL.len() as f64;
    table.add_row(vec![
        "AVG".into(),
        format!("{:.2}", sums[0] / count),
        format!("{:.2}", sums[1] / count),
    ]);
    fig.table("preference", &table);
    Ok(fig.finish()?)
}
