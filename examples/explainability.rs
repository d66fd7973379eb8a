//! Explainability analysis (§9): compare Sibyl's fast-storage preference
//! across device configurations and relate it to workload character, the
//! way the paper explains its agent's learned behaviour.
//!
//! ```text
//! cargo run --release --example explainability
//! ```

use sibyl::hss::{DeviceSpec, HssConfig};
use sibyl::sim::{report::Table, Experiment, PolicyKind};
use sibyl::trace::{msrc, stats::TraceStats};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = match std::env::var("SIBYL_REQS") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("SIBYL_REQS={v:?} is not a non-negative integer; unset it for the default");
            std::process::exit(2)
        }),
        Err(_) => 20_000,
    };
    let hm = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
    let hl = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd());

    let mut table = Table::new([
        "workload",
        "hotness",
        "size KiB",
        "pref H&M",
        "pref H&L",
        "evict H&M",
        "evict H&L",
    ]);
    for wl in [
        msrc::Workload::Prxy1,
        msrc::Workload::Rsrch0,
        msrc::Workload::Usr0,
        msrc::Workload::Proj2,
        msrc::Workload::Stg1,
    ] {
        let trace = msrc::generate(wl, n, 5);
        let st = TraceStats::measure(&trace);
        let hm_out = Experiment::new(hm.clone(), trace.clone()).run(PolicyKind::sibyl())?;
        let hl_out = Experiment::new(hl.clone(), trace.clone()).run(PolicyKind::sibyl())?;
        table.add_row(vec![
            st.name.clone(),
            format!("{:.1}", st.avg_access_count),
            format!("{:.1}", st.avg_request_size_kib),
            format!("{:.2}", hm_out.metrics.fast_placement_fraction),
            format!("{:.2}", hl_out.metrics.fast_placement_fraction),
            format!("{:.3}", hm_out.metrics.eviction_fraction),
            format!("{:.3}", hl_out.metrics.eviction_fraction),
        ]);
    }
    println!("{}", table.render());
    println!("Reading the table the way §9 does:");
    println!(" - larger device gap (H&L) -> stronger preference for fast placement;");
    println!(" - hot/random workloads earn more fast placements than cold/sequential ones.");
    Ok(())
}
