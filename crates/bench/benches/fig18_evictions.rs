//! Figure 18: evictions from fast to slow storage as a fraction of all
//! requests, per policy, under H&M and H&L.
//!
//! The paper's reading: CDE's aggressive fast placement causes the most
//! evictions; Sibyl evicts far less in H&M but willingly evicts in H&L
//! where fast service is worth the churn.

use sibyl_bench::{by_name, hm_hl_panels, seed, trace_len, Cell, Figure};
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(15_000);
    let mut fig = Figure::new(
        "fig18_evictions",
        "Figure 18",
        "Eviction events as a fraction of all storage requests",
        n,
    );
    let traces = Workload::ALL.map(|wl| msrc::generate(wl, n, seed()));
    let policies = by_name(vec![
        PolicyKind::Cde,
        PolicyKind::Hps,
        PolicyKind::Archivist,
        PolicyKind::RnnHss,
        PolicyKind::sibyl(),
    ]);
    fig.grid(
        &hm_hl_panels(),
        "workload",
        &traces,
        &policies,
        Cell::EvictionFraction,
    )?;
    Ok(fig.finish()?)
}
