//! Figure 3: randomness and hotness characteristics of the fourteen
//! MSRC workloads — average request size (KiB) vs average access count.

use sibyl_bench::{seed, trace_len, Figure};
use sibyl_sim::report::Table;
use sibyl_trace::msrc::{self, Workload};
use sibyl_trace::stats::TraceStats;

fn main() -> std::io::Result<()> {
    let n = trace_len(30_000);
    let mut fig = Figure::new(
        "fig03_workload_char",
        "Figure 3",
        "Hotness (avg access count) vs randomness (avg request size) per workload",
        n,
    );
    let mut table = Table::new([
        "workload",
        "avg access count",
        "avg request size (KiB)",
        "character",
    ]);
    for wl in Workload::ALL {
        let st = TraceStats::measure(&msrc::generate(wl, n, seed()));
        let hot = if st.avg_access_count >= 10.0 {
            "hot"
        } else {
            "cold"
        };
        let seq = if st.avg_request_size_kib >= 20.0 {
            "sequential"
        } else {
            "random"
        };
        table.add_row(vec![
            st.name.clone(),
            format!("{:.1}", st.avg_access_count),
            format!("{:.1}", st.avg_request_size_kib),
            format!("{hot}/{seq}"),
        ]);
    }
    fig.table("workloads", &table);
    fig.finish()
}
