//! Figure 2: motivation — average request latency of prior policies vs
//! the Oracle, normalized to Fast-Only, under H&M and H&L.
//!
//! The paper's takeaway: every baseline is far from the Oracle on most
//! workloads (41.1 %/32.6 % average loss in H&M/H&L), and no single
//! policy wins everywhere.

use sibyl_bench::{by_name, hm_hl_panels, seed, trace_len, Cell, Figure};
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(25_000);
    let mut fig = Figure::new(
        "fig02_motivation",
        "Figure 2",
        "Average request latency normalized to Fast-Only (baselines vs Oracle)",
        n,
    );
    let traces = Workload::MOTIVATION.map(|wl| msrc::generate(wl, n, seed()));
    let policies = by_name(vec![
        PolicyKind::SlowOnly,
        PolicyKind::Cde,
        PolicyKind::Hps,
        PolicyKind::Archivist,
        PolicyKind::RnnHss,
        PolicyKind::Oracle,
    ]);
    fig.grid(
        &hm_hl_panels(),
        "workload",
        &traces,
        &policies,
        Cell::NormLatency,
    )?;
    Ok(fig.finish()?)
}
