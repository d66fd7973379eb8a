//! Figure 12: mixed workloads (Table 5's mix1–mix6) with default and
//! mixed-optimized Sibyl hyper-parameters, under H&M and H&L.

use sibyl_bench::{hm_hl_panels, seed, trace_len, Cell, Figure};
use sibyl_sim::PolicyKind;
use sibyl_trace::mix::Mix;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n_per_component = trace_len(10_000);
    let mut fig = Figure::new(
        "fig12_mixed",
        "Figure 12",
        "Average request latency on mixed workloads (normalized to Fast-Only)",
        n_per_component,
    );
    let traces = Mix::ALL.map(|m| m.generate(n_per_component, seed()));
    let policies = [
        ("Slow-Only", PolicyKind::SlowOnly),
        ("CDE", PolicyKind::Cde),
        ("HPS", PolicyKind::Hps),
        ("Archivist", PolicyKind::Archivist),
        ("RNN-HSS", PolicyKind::RnnHss),
        ("Sibyl_Def", PolicyKind::sibyl()),
        ("Sibyl_Opt", PolicyKind::sibyl_opt()), // α = 1e-5
        ("Oracle", PolicyKind::Oracle),
    ];
    fig.grid(
        &hm_hl_panels(),
        "mix",
        &traces,
        &policies,
        Cell::NormLatency,
    )?;
    Ok(fig.finish()?)
}
