//! Figure 11: performance on unseen (FileBench) workloads that no policy
//! — including Sibyl — was tuned on, under H&M and H&L.

use sibyl_bench::{by_name, hm_hl_panels, seed, trace_len, Cell, Figure};
use sibyl_sim::PolicyKind;
use sibyl_trace::filebench::{self, Unseen};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(25_000);
    let mut fig = Figure::new(
        "fig11_unseen",
        "Figure 11",
        "Average request latency on unseen FileBench workloads (normalized to Fast-Only)",
        n,
    );
    let traces = Unseen::FILEBENCH.map(|wl| filebench::generate(wl, n, seed()));
    // The paper's Fig. 11 legend.
    let policies = by_name(vec![
        PolicyKind::SlowOnly,
        PolicyKind::Archivist,
        PolicyKind::RnnHss,
        PolicyKind::sibyl(),
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
