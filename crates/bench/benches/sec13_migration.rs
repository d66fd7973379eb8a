//! §13 background migration: the Harmonia-style second agent (beyond the
//! paper).
//!
//! Sibyl only decides where a page lands on first write; once placed,
//! pages move only reactively (on-access promotion, capacity eviction).
//! On a phase-shifting (diurnal) workload that staleness costs latency:
//! after each phase rotation the new hot set serves from slow storage
//! until the placement agent relearns it, one slow access at a time.
//! This target sweeps the three `sibyl-migrate` policies — no migration
//! / hot-cold threshold heuristic / the second C51 agent — on the
//! `synth::diurnal` trace, reporting aggregate latency (normalized to
//! the no-migration baseline), migration volume, and the device time the
//! migration I/O consumed (charged against the same device clocks the
//! foreground requests queue on, so the win is net of its own cost).

use sibyl_bench::{best_challenger, migration_config, seed, trace_len, Figure};
use sibyl_serve::{serve_trace, MigratePolicyKind, ServeError};
use sibyl_sim::report::Table;
use sibyl_trace::synth;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(10_000);
    let phases = 5;
    let trace = synth::diurnal(n, phases, seed());
    let mut fig = Figure::new(
        "sec13_migration",
        "§13 background migration",
        "Proactive migration policies on a phase-shifting (diurnal) workload",
        n,
    );
    println!(
        "workload {} ({} requests, {} phases), accelerated replay, NN cost charged\n",
        trace.name(),
        trace.len(),
        phases
    );

    let runs = MigratePolicyKind::ALL
        .into_iter()
        .map(|policy| Ok((policy, serve_trace(&migration_config(policy), &trace)?)))
        .collect::<Result<Vec<_>, ServeError>>()?;
    let baseline = runs[0].1.aggregate();
    let mut table = Table::new([
        "policy",
        "avg lat (us)",
        "norm lat",
        "p99 (us)",
        "fast frac",
        "promoted",
        "demoted",
        "migr busy (ms)",
        "evicted",
    ]);
    for (policy, report) in &runs {
        let agg = report.aggregate();
        let shards = &report.shards;
        let promoted: u64 = shards.iter().map(|s| s.stats.bg_promoted_pages).sum();
        let demoted: u64 = shards.iter().map(|s| s.stats.bg_demoted_pages).sum();
        let busy_us: f64 = shards.iter().map(|s| s.migration_busy_us).sum();
        let p99s = shards.iter().map(|s| s.stats.histogram.percentile(0.99));
        table.add_row(vec![
            policy.to_string(),
            format!("{:.1}", agg.avg_latency_us),
            format!("{:.3}", agg.normalized_latency(&baseline)),
            format!("{:.0}", p99s.fold(0.0, f64::max)),
            format!("{:.3}", agg.fast_placement_fraction),
            promoted.to_string(),
            demoted.to_string(),
            format!("{:.1}", busy_us / 1_000.0),
            agg.evicted_pages.to_string(),
        ]);
    }
    fig.table("policies", &table);
    let (best, best_report) = best_challenger(&runs).expect("active policies ran");
    let best_agg = best_report.aggregate();
    print!("best active policy: ");
    fig.note("best_active_policy", best);
    println!(
        " (norm lat {:.3}, hit gain {:+.3})",
        best_agg.normalized_latency(&baseline),
        best_agg.fast_placement_fraction - baseline.fast_placement_fraction,
    );
    Ok(fig.finish()?)
}
