//! Extensibility demo (§8.7): run Sibyl on a *three*-device hybrid
//! storage system (Optane + TLC SSD + HDD) against the hot/cold/frozen
//! heuristic. Extending Sibyl required no new policy code — the action
//! space and state features grow with the device count automatically.
//!
//! ```text
//! cargo run --release --example tri_hybrid
//! ```

use sibyl::hss::{DeviceSpec, HssConfig};
use sibyl::sim::{report::Table, run_suite, PolicyKind};
use sibyl::trace::msrc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = match std::env::var("SIBYL_REQS") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("SIBYL_REQS={v:?} is not a non-negative integer; unset it for the default");
            std::process::exit(2)
        }),
        Err(_) => 30_000,
    };
    let trace = msrc::generate(msrc::Workload::Prxy1, n, 7);
    // H capped at 5 % and M at 10 % of the working set, as in §8.7.
    let hss = HssConfig::tri(
        DeviceSpec::optane_ssd(),
        DeviceSpec::tlc_ssd(),
        DeviceSpec::hdd(),
    );

    println!(
        "tri-hybrid H&M&L on {} ({} requests)",
        trace.name(),
        trace.len()
    );
    let suite = run_suite(
        &hss,
        &trace,
        &[PolicyKind::TriHybridHeuristic, PolicyKind::sibyl()],
    )?;

    let mut table = Table::new(["policy", "norm. latency", "H picks", "M picks", "L picks"]);
    for (i, o) in suite.outcomes.iter().enumerate() {
        table.add_row(vec![
            o.policy.clone(),
            format!("{:.2}", suite.normalized_latency(i)),
            o.metrics.placements[0].to_string(),
            o.metrics.placements[1].to_string(),
            o.metrics.placements[2].to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(Sibyl spreads placements across all three tiers from the same code path);");
    println!("(the heuristic's static thresholds were hand-assigned at design time.)");
    Ok(())
}
