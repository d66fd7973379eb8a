//! Figure 10: request throughput (IOPS) of all policies normalized to
//! Fast-Only, under H&M and H&L.
//!
//! Throughput differentiates under load, so this bench replays the traces
//! with compressed think time (`Experiment::with_time_scale`), putting
//! the system in the device-bound regime the paper measures.

use sibyl_bench::{by_name, hm_hl_panels, seed, trace_len, Cell, Figure};
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(15_000);
    let mut fig = Figure::new(
        "fig10_throughput",
        "Figure 10",
        "Request throughput (IOPS) normalized to Fast-Only under accelerated replay",
        n,
    );
    let traces = Workload::ALL.map(|wl| msrc::generate(wl, n, seed()));
    let policies = by_name(PolicyKind::standard_suite());
    fig.grid(
        &hm_hl_panels(),
        "workload",
        &traces,
        &policies,
        Cell::NormIops(40.0),
    )?;
    Ok(fig.finish()?)
}
