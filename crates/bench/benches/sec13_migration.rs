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

use sibyl_bench::{migration_config, seed, trace_len, Figure};
use sibyl_serve::MigratePolicyKind;
use sibyl_sim::report::Table;
use sibyl_sim::ServeExperiment;
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

    let policies = MigratePolicyKind::ALL.map(|p| (p, migration_config(p)));
    let sweep = ServeExperiment::sweep(&trace, policies)?;
    let norm_lat = |policy| sweep.normalized_latency(policy).expect("policy was swept");
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
    for (policy, run) in &sweep.runs {
        let shards = &run.report.shards;
        let promoted: u64 = shards.iter().map(|s| s.stats.bg_promoted_pages).sum();
        let demoted: u64 = shards.iter().map(|s| s.stats.bg_demoted_pages).sum();
        let busy_us: f64 = shards.iter().map(|s| s.migration_busy_us).sum();
        let p99s = run.shard_metrics.iter().map(|m| m.p99_latency_us);
        table.add_row(vec![
            policy.to_string(),
            format!("{:.1}", run.aggregate.avg_latency_us),
            format!("{:.3}", norm_lat(policy)),
            format!("{:.0}", p99s.fold(0.0, f64::max)),
            format!("{:.3}", run.aggregate.fast_placement_fraction),
            promoted.to_string(),
            demoted.to_string(),
            format!("{:.1}", busy_us / 1_000.0),
            run.aggregate.evicted_pages.to_string(),
        ]);
    }
    fig.table("policies", &table);
    let best = sweep.best_challenger().expect("active policies ran");
    print!("best active policy: ");
    fig.note("best_active_policy", best);
    println!(
        " (norm lat {:.3}, hit gain {:+.3})",
        norm_lat(best),
        sweep.hit_rate_gain(best).expect("policy was swept"),
    );
    Ok(fig.finish()?)
}
