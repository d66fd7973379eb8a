//! Figure 16: tri-hybrid storage systems — the hot/cold/frozen heuristic
//! vs Sibyl on H&M&L and H&M&Lssd (normalized to Fast-Only).
//!
//! Extending Sibyl needed only (1) one more action and (2) the remaining
//! capacity of M as a state feature — both happen automatically from the
//! device count (§8.7).

use sibyl_bench::{by_name, seed, trace_len, tri_panels, Cell, Figure};
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(25_000);
    let mut fig = Figure::new(
        "fig16_trihybrid",
        "Figure 16",
        "Tri-HSS average request latency normalized to Fast-Only",
        n,
    );
    let traces = Workload::ALL.map(|wl| msrc::generate(wl, n, seed()));
    let policies = by_name(vec![PolicyKind::TriHybridHeuristic, PolicyKind::sibyl()]);
    fig.grid(
        &tri_panels(),
        "workload",
        &traces,
        &policies,
        Cell::NormLatency,
    )?;
    Ok(fig.finish()?)
}
