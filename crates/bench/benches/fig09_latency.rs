//! Figure 9: the paper's main result — average request latency of all
//! seven policies on all fourteen workloads under H&M and H&L, normalized
//! to Fast-Only.
//!
//! Headline claims being reproduced in shape: Sibyl outperforms the
//! heuristic and supervised baselines on average, and reaches ~80 % of
//! the Oracle. The `vs_paper` table sets this run's averages beside §8's
//! published numbers.

use sibyl_bench::{by_name, hm_hl_panels, seed, trace_len, vs_paper, Cell, Figure};
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(25_000);
    let mut fig = Figure::new(
        "fig09_latency",
        "Figure 9",
        "Average request latency normalized to Fast-Only (all policies, all workloads)",
        n,
    );
    let traces = Workload::ALL.map(|wl| msrc::generate(wl, n, seed()));
    let policies = by_name(PolicyKind::standard_suite());
    let averages = fig.grid(
        &hm_hl_panels(),
        "workload",
        &traces,
        &policies,
        Cell::NormLatency,
    )?;
    println!("Sibyl's average against the paper's (§8)");
    fig.table("vs_paper", &vs_paper(&policies, &averages));
    Ok(fig.finish()?)
}
