//! §12 cooperation: multi-agent learning across shards of the serving
//! engine (the Harmonia direction, beyond the paper).
//!
//! The paper trains one agent on one HSS node. Once traffic is
//! partitioned across shards (`sec11_scale`), each shard's private agent
//! sees only its slice — and on a skew-partitioned workload, data-poor
//! shards relearn slowly what data-rich shards already know. This target
//! sweeps the four cooperation modes of `sibyl-coop` (independent /
//! shared replay / federated weight averaging / both) against shard
//! counts on a skew-partitioned hot/cold mix, reporting aggregate
//! latency (normalized to the independent baseline), fast-placement
//! preference ("hit rate"), and the learning curves that show *why*
//! cooperation wins: cooperative shards pull the knee of the curve
//! earlier. NN inference time is charged via the §10 overhead model, so
//! the latency columns include the decision cost cooperation has to
//! amortize.

use sibyl_bench::{best_challenger, coop_config, seed, skewed_coop_trace, trace_len, Figure};
use sibyl_serve::{serve_trace, CoopMode, ServeError, ServeReport};
use sibyl_sim::report::Table;
use sibyl_sim::Metrics;

fn shared_experiences(report: &ServeReport) -> u64 {
    report.shards.iter().map(|s| s.agent.shared_absorbed).sum()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(8_000);
    let trace = skewed_coop_trace(n, seed());
    let mut fig = Figure::new(
        "sec12_coop",
        "§12 cooperation",
        "Multi-agent cooperation across shards: modes × shard counts on a skew-partitioned mix",
        n,
    );
    println!(
        "workload {} ({} requests), accelerated replay, NN cost charged\n",
        trace.name(),
        trace.len()
    );

    let mut four_shard = None;
    for shards in [1usize, 2, 4, 8] {
        let runs = CoopMode::ALL
            .into_iter()
            .map(|mode| Ok((mode, serve_trace(&coop_config(shards, mode), &trace)?)))
            .collect::<Result<Vec<_>, ServeError>>()?;
        let baseline = runs[0].1.aggregate();
        let hit_gain =
            |agg: &Metrics| agg.fast_placement_fraction - baseline.fast_placement_fraction;
        let mut table = Table::new([
            "mode",
            "avg lat (us)",
            "norm lat",
            "fast frac",
            "hit gain",
            "syncs",
            "shared exps",
        ]);
        for (mode, report) in &runs {
            let agg = report.aggregate();
            let syncs: u64 = report.shards.iter().map(|s| s.coop_syncs).sum();
            table.add_row(vec![
                mode.to_string(),
                format!("{:.1}", agg.avg_latency_us),
                format!("{:.3}", agg.normalized_latency(&baseline)),
                format!("{:.3}", agg.fast_placement_fraction),
                format!("{:+.3}", hit_gain(&agg)),
                syncs.to_string(),
                shared_experiences(report).to_string(),
            ]);
        }
        println!("{shards} shard(s)");
        fig.table(&format!("shards{shards}"), &table);
        let (best, best_report) = best_challenger(&runs).expect("cooperative modes ran");
        let best_agg = best_report.aggregate();
        print!("best cooperative mode: ");
        fig.note(&format!("best_coop_shards{shards}"), best);
        println!(
            " (norm lat {:.3}, hit gain {:+.3})\n",
            best_agg.normalized_latency(&baseline),
            hit_gain(&best_agg),
        );

        // Learning curves explain the win: print the aggregate curve of
        // the baseline vs the best cooperative mode at the widest sweep
        // point.
        if shards == 8 {
            let mut curve = Table::new([
                "requests",
                "indep lat",
                "coop lat",
                "indep fast",
                "coop fast",
            ]);
            let (indep, coop) = (runs[0].1.aggregate_curve(), best_report.aggregate_curve());
            for (a, b) in indep.iter().zip(&coop) {
                curve.add_row(vec![
                    a.requests.to_string(),
                    format!("{:.1}", a.avg_latency_us),
                    format!("{:.1}", b.avg_latency_us),
                    format!("{:.3}", a.fast_placement_fraction),
                    format!("{:.3}", b.fast_placement_fraction),
                ]);
            }
            println!("learning curves, {shards} shards (cumulative): independent vs {best}");
            fig.table("curves_shards8", &curve);
        }
        if shards == 4 {
            four_shard = Some(runs);
        }
    }

    // Shared-replay importance weighting (ROADMAP item): absorbed foreign
    // experiences enter the replay buffer on equal terms at
    // foreign_weight 1.0 (bit-identical to the pre-knob engine); 0.5
    // halves their loss/gradient contribution, damping stale
    // off-partition transitions without changing what is shared or how
    // sampling draws. Only SharedReplay depends on the weight, and the
    // 4-shard sweep above already served the Independent baseline and the
    // default-weight (1.0) point — reuse both and serve only 0.5 fresh.
    println!("foreign-weight ablation (shared replay, 4 shards)");
    let runs = four_shard.expect("4-shard sweep ran");
    let baseline = runs[0].1.aggregate();
    let mut cfg = coop_config(4, CoopMode::SharedReplay);
    cfg.coop = cfg.coop.with_foreign_weight(0.5);
    let halved = serve_trace(&cfg, &trace)?;
    let mut ablation = Table::new(["foreign weight", "avg lat (us)", "norm lat", "shared exps"]);
    let (_, default_weight) = runs
        .iter()
        .find(|(mode, _)| *mode == CoopMode::SharedReplay)
        .expect("mode was swept");
    for (weight, report) in [(1.0, default_weight), (0.5, &halved)] {
        let latency = report.aggregate().avg_latency_us;
        ablation.add_row(vec![
            format!("{weight:.1}"),
            format!("{latency:.1}"),
            format!("{:.3}", latency / baseline.avg_latency_us),
            shared_experiences(report).to_string(),
        ]);
    }
    fig.table("foreign_weight_ablation", &ablation);
    Ok(fig.finish()?)
}
