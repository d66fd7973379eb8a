//! Table 4: characteristics of the fourteen evaluated workloads —
//! measured from the synthesized traces, side by side with the paper's
//! published targets.

use sibyl_bench::{seed, trace_len, Figure};
use sibyl_sim::report::Table;
use sibyl_trace::msrc::{self, Workload};
use sibyl_trace::stats::TraceStats;

fn main() -> std::io::Result<()> {
    let n = trace_len(30_000);
    let mut fig = Figure::new(
        "tab04_workloads",
        "Table 4",
        "Measured workload characteristics vs the paper's published values",
        n,
    );
    let mut table = Table::new([
        "workload",
        "write% (paper)",
        "write% (ours)",
        "KiB (paper)",
        "KiB (ours)",
        "count (paper)",
        "count (ours)",
        "uniq reqs (ours)",
    ]);
    for wl in Workload::ALL {
        let spec = wl.spec();
        let st = TraceStats::measure(&msrc::generate(wl, n, seed()));
        table.add_row(vec![
            st.name.clone(),
            format!("{:.1}", spec.write_fraction * 100.0),
            format!("{:.1}", st.write_fraction * 100.0),
            format!("{:.1}", spec.avg_request_size_kib),
            format!("{:.1}", st.avg_request_size_kib),
            format!("{:.1}", spec.avg_access_count),
            format!("{:.1}", st.avg_access_count),
            format!("{}", st.unique_requests),
        ]);
    }
    fig.table("workloads", &table);
    println!(
        "(Access counts scale with trace length; the paper's values are for full-week traces.)"
    );
    fig.finish()
}
