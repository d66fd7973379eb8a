//! Figure 14: sensitivity of Sibyl's throughput to the discount factor
//! (γ), learning rate (α), and exploration rate (ε), averaged across
//! workloads, under H&M.

use sibyl_bench::{hm_config, seed, trace_len, Cell, Figure};
use sibyl_core::SibylConfig;
use sibyl_sim::PolicyKind;
use sibyl_trace::msrc::{self, Workload};

/// One swept hyper-parameter: the heading line, the table's name and row
/// header, the values, and how a value is applied to the default config.
type Sweep = (
    &'static str,
    &'static str,
    &'static [f64],
    fn(&mut SibylConfig, f64),
);

const SWEEPS: [Sweep; 3] = [
    (
        "(a) discount factor γ",
        "gamma",
        &[0.0, 0.1, 0.5, 0.9, 0.95, 1.0],
        |c, v| c.discount = v as f32,
    ),
    (
        "(b) learning rate α",
        "alpha",
        &[1e-5, 1e-4, 1e-3, 1e-2, 1e-1],
        |c, v| c.learning_rate = v as f32,
    ),
    (
        "(c) exploration rate ε",
        "epsilon",
        &[1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0],
        |c, v| {
            c.exploration = v;
            c.exploration_initial = c.exploration_initial.max(v);
        },
    ),
];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = trace_len(12_000);
    let mut fig = Figure::new(
        "fig14_hyperparams",
        "Figure 14",
        "Sibyl throughput sensitivity to γ, α, ε (H&M, normalized to Fast-Only)",
        n,
    );
    let traces =
        [Workload::Rsrch0, Workload::Prxy1, Workload::Usr0].map(|wl| msrc::generate(wl, n, seed()));
    for (heading, name, values, apply) in SWEEPS {
        let points: Vec<_> = values
            .iter()
            .map(|&v| {
                let mut config = SibylConfig::default();
                apply(&mut config, v);
                let sibyl = vec![PolicyKind::sibyl_with(config)];
                (format!("{v}"), hm_config(), sibyl)
            })
            .collect();
        println!("{heading}");
        let headers = [name, "normalized IOPS (avg)"];
        fig.sweep(name, &headers, &points, &[&traces], Cell::NormIops(40.0))?;
    }
    println!("(Paper: γ = 0 and ε ≥ 0.1 hurt sharply; mid-range α is best.)");
    Ok(fig.finish()?)
}
