//! Figure 15: average request latency while sweeping the fast device's
//! available capacity from 1 % to 90 % of the working set, under H&M and
//! H&L.

use sibyl_bench::{hm_hl_panels, seed, trace_len, Cell, Figure};
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(15_000);
    let mut fig = Figure::new(
        "fig15_capacity",
        "Figure 15",
        "Normalized latency vs available fast-device capacity (fraction of working set)",
        n,
    );
    let policies = vec![
        PolicyKind::Cde,
        PolicyKind::Hps,
        PolicyKind::Archivist,
        PolicyKind::sibyl(),
        PolicyKind::Oracle,
    ];
    let mut headers = vec!["capacity"];
    headers.extend(policies.iter().map(PolicyKind::name));
    // Each point averages the normalized latency across both workloads.
    let traces = [Workload::Rsrch0, Workload::Prxy1].map(|wl| msrc::generate(wl, n, seed()));
    for (name, heading, hss) in hm_hl_panels() {
        let points = [0.01, 0.05, 0.10, 0.20, 0.40, 0.90].map(|fraction| {
            let hss = hss.clone().with_fast_capacity_fraction(fraction);
            (format!("{:.0}%", fraction * 100.0), hss, policies.clone())
        });
        println!("{heading}");
        fig.sweep(name, &headers, &points, &[&traces], Cell::NormLatency)?;
    }
    println!("(Paper: latencies approach Fast-Only as capacity grows, except Archivist.)");
    Ok(fig.finish()?)
}
