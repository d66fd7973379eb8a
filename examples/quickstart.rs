//! Quickstart: run Sibyl and the baseline policies on one workload in the
//! paper's performance-oriented (H&M) hybrid storage configuration.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sibyl::hss::{DeviceSpec, HssConfig};
use sibyl::sim::{report::Table, run_suite, PolicyKind};
use sibyl::trace::msrc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Synthesize an MSRC-like workload (rsrch_0: write-heavy, hot,
    // random) and build the paper's H&M configuration: Optane SSD fast
    // tier at 10 % of the working set, TLC SSD slow tier.
    let n: usize = match std::env::var("SIBYL_REQS") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("SIBYL_REQS={v:?} is not a non-negative integer; unset it for the default");
            std::process::exit(2)
        }),
        Err(_) => 30_000,
    };
    let trace = msrc::generate(msrc::Workload::Rsrch0, n, 42);
    let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());

    println!("workload: {} ({} requests)", trace.name(), trace.len());
    println!(
        "running {} policies...\n",
        PolicyKind::standard_suite().len()
    );

    let suite = run_suite(&hss, &trace, &PolicyKind::standard_suite())?;

    let mut table = Table::new([
        "policy",
        "avg latency (us)",
        "norm. latency",
        "norm. IOPS",
        "evict frac",
        "fast pref",
    ]);
    for (i, o) in suite.outcomes.iter().enumerate() {
        table.add_row(vec![
            o.policy.clone(),
            format!("{:.1}", o.metrics.avg_latency_us),
            format!("{:.2}", suite.normalized_latency(i)),
            format!("{:.2}", suite.normalized_iops(i)),
            format!("{:.3}", o.metrics.eviction_fraction),
            format!("{:.2}", o.metrics.fast_placement_fraction),
        ]);
    }
    println!("{}", table.render());
    println!(
        "(Fast-Only baseline: {:.1} us average latency; all 'norm.' columns are relative to it)",
        suite.fast_only.metrics.avg_latency_us
    );
    Ok(())
}
