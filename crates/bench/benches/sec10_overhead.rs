//! §10 overhead analysis: inference latency, training-step latency, and
//! storage accounting.
//!
//! The paper reports ~780 MACs ≈ tens of nanoseconds per inference on a
//! desktop CPU, a training step well under the I/O latency of a fast SSD,
//! and a 124.4 KiB total storage overhead.
//!
//! Measured with the crate's own stopwatch ([`sibyl_bench::median_ns`])
//! so the target builds offline with `harness = false` like every other
//! figure bench; the training step is timed by the learner's own phase
//! accounts (`Learner::train_phase_ns`).

use rand::SeedableRng;
use sibyl_bench::{median_ns, seed, Figure};
use sibyl_core::{Experience, ExperienceBuffer, Learner, OverheadReport, SibylConfig};
use sibyl_nn::{Activation, Mlp};
use sibyl_sim::report::Table;

/// Times `f` and notes the median ns/iter under `name`.
fn bench_function(fig: &mut Figure, name: &str, f: impl FnMut()) {
    const BATCH: u32 = 10_000;
    const RUNS: usize = 31;
    let ns = format!("{:.1}", median_ns(BATCH, RUNS, f));
    print!("{name:<40} {:>1$}", "", 10usize.saturating_sub(ns.len()));
    fig.note(name, ns);
    println!(" ns/iter (median of {RUNS} x {BATCH})");
}

fn inference_benchmark(fig: &mut Figure) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    // The paper's §10 network: 6-20-30-2.
    let paper_net = Mlp::new(
        &[6, 20, 30, 2],
        Activation::Swish,
        Activation::Linear,
        &mut rng,
    );
    let obs = [0.3f32, 1.0, 0.4, 0.6, 0.9, 0.0];
    bench_function(fig, "inference_paper_network_780_macs", || {
        std::hint::black_box(paper_net.infer(std::hint::black_box(&obs)));
    });

    // Our default C51 head (6-20-30-102).
    let c51_net = Mlp::new(
        &[6, 20, 30, 102],
        Activation::Swish,
        Activation::Linear,
        &mut rng,
    );
    bench_function(fig, "inference_c51_network", || {
        std::hint::black_box(c51_net.infer(std::hint::black_box(&obs)));
    });
}

/// §10's training-step cost, swept over replay-batch sizes on the
/// default serving network (6-20-30-102): the modeled per-sample latency
/// (deterministic — two weight streams per replay batch, amortized over
/// the batch) next to `Learner::train_step`'s own wall-clock accounts of
/// its median step, in total and by phase in the order the step runs
/// them (`Learner::TRAIN_PHASES`, which sum to the total). The batch-128
/// row is the in-situ step at `SibylConfig::default()`: read its
/// `ns/sample` against the benchmark's `nn.train_us_per_sample`.
fn training_step_table(fig: &mut Figure) {
    const NS_PER_MAC: f64 = 20.0;
    println!("--- §10.1 training-step latency (default C51 net, {NS_PER_MAC} ns/MAC model) ---");
    let mut headers = vec!["batch", "model step (us)", "model/sample (us)", "ns/sample"];
    headers.extend(Learner::TRAIN_PHASES);
    let mut table = Table::new(headers);
    for row in sibyl_bench::train_step_latency_rows(&[1, 8, 32, 128], NS_PER_MAC) {
        let mut cells = vec![
            row.batch.to_string(),
            format!("{:.2}", row.modeled_step_us),
            format!("{:.3}", row.modeled_per_sample_us),
            format!("{:.1}", row.ns_per_sample),
        ];
        cells.extend(row.phase_ns_per_sample.map(|ns| format!("{ns:.1}")));
        table.add_row(cells);
    }
    fig.table("train_step", &table);
}

/// The decide-path kernel table: measured ns/MAC through the retained
/// scalar references (the pre-tiling "before") and the tiled f32 kernels
/// (the autovectorized "after"), next to the deterministic modeled
/// per-request decide cost. The tiled ≤ scalar pin is asserted by the
/// bench-crate regression test in release builds.
fn inference_kernel_table(fig: &mut Figure) {
    const NS_PER_MAC: f64 = 20.0;
    // Off-tile widths too: the rows a decision memo leaves for the
    // network are rarely a multiple of the 8-lane tile.
    const BATCHES: [usize; 10] = [1, 2, 4, 5, 7, 8, 9, 15, 16, 32];
    println!("--- §10.1 decide-path kernels (C51 net, {NS_PER_MAC} ns/MAC model) ---");
    let mut table = Table::new(["batch", "model/req (us)", "scalar ns/MAC", "tiled ns/MAC"]);
    let rows = sibyl_bench::infer_kernel_rows(&BATCHES, NS_PER_MAC);
    for row in &rows {
        table.add_row(vec![
            row.batch.to_string(),
            format!("{:.3}", row.modeled_per_req_us),
            format!("{:.3}", row.scalar_ns_per_mac),
            format!("{:.3}", row.tiled_ns_per_mac),
        ]);
    }
    fig.table("infer_kernels", &table);

    // Fit the tiled measurements to setup + per_row · batch: how this
    // host's decide cost splits into per-call and per-row work. A
    // host-clock measurement — it is reported, never replayed into the
    // modeled clock, whose one cost model is `nn_ns_per_mac`. The fit
    // itself is exact least squares (deterministic given the points).
    let macs = rows[0].macs as f64;
    let points: Vec<(usize, f64)> = rows
        .iter()
        .map(|r| {
            (
                r.batch,
                r.tiled_ns_per_mac * macs * r.batch as f64 / 1_000.0,
            )
        })
        .collect();
    let fit = sibyl_bench::calibrate_two_term(&points);
    print!("two-term decide fit (host clock, tiled kernels): ");
    fig.note("two_term_setup_us", format_args!("{:.3}", fit.setup_us));
    print!(" µs setup + ");
    fig.note("two_term_per_row_us", format_args!("{:.4}", fit.per_row_us));
    println!(
        " µs/row\n  equivalent single-rate at batch 32: {:.2} ns/MAC (model uses {NS_PER_MAC})",
        fit.step_us(32) * 1_000.0 / (macs * 32.0)
    );
}

/// The decision memo on Table 5's mix2: how many greedy decisions each
/// weight generation had already taken, and what a decision costs on the
/// host with that many skipped passes. A short `train_interval` means
/// short generations (and a small table), so fewer repeats.
fn decision_memo_table(fig: &mut Figure) {
    println!("--- §10.1 decision memo (mix2, batches of 16) ---");
    let mut table = Table::new([
        "train_interval",
        "lookups",
        "hits",
        "hit rate",
        "decide ns/req",
    ]);
    let n = sibyl_bench::trace_len(20_000);
    for row in sibyl_bench::decision_memo_rows(&[250, 1_000, 16_000], n, seed()) {
        table.add_row(vec![
            row.train_interval.to_string(),
            row.lookups.to_string(),
            row.hits.to_string(),
            format!("{:.3}", row.hits as f64 / row.lookups.max(1) as f64),
            format!("{:.1}", row.decide_ns_per_req),
        ]);
    }
    fig.table("decision_memo", &table);
}

/// The storage model's own host cost — the floor under every policy —
/// per page for the three shapes of access and per request for a policy
/// that decides nothing.
fn hss_access_table(fig: &mut Figure) {
    println!("--- §10 storage-model host cost (H&M, no eviction) ---");
    let cost = sibyl_bench::hss_access_cost(sibyl_bench::trace_len(20_000), seed());
    let mut table = Table::new(["access", "cost", "unit"]);
    for (access, cost, unit) in [
        ("first-touch", cost.first_touch_ns_per_page, "ns/page"),
        ("read-hit", cost.read_hit_ns_per_page, "ns/page"),
        ("write-hit", cost.write_hit_ns_per_page, "ns/page"),
        ("Fast-Only on hm_1", cost.fast_only_us_per_req, "us/request"),
    ] {
        table.add_row(vec![access.into(), format!("{cost:.3}"), unit.into()]);
    }
    fig.table("hss_access", &table);
}

fn buffer_benchmark(fig: &mut Figure) {
    let mut buf = ExperienceBuffer::new(1000);
    let mut i = 0u32;
    bench_function(fig, "experience_buffer_push", || {
        i = i.wrapping_add(1);
        buf.push(Experience {
            obs: vec![i as f32 * 1e-3; 6],
            action: (i % 2) as usize,
            reward: i as f32 * 1e-4,
            next_obs: vec![i as f32 * 1e-3 + 0.5; 6],
        });
    });
}

fn print_storage_accounting() {
    let report = OverheadReport::paper_network(2);
    let (net, buf, total) = report.paper_accounting_kib();
    println!("--- §10.2 storage accounting (paper arithmetic) ---");
    println!("weights: {} (paper: 780)", report.weights);
    println!("inference MACs: {} (paper: 780)", report.inference_macs);
    println!(
        "training-step MACs fwd+bwd: {} (paper: 1,597,440)",
        2 * report.training_step_macs_forward
    );
    println!("per network: {net:.1} KiB (paper: 12.2)");
    println!("experience buffer: {buf:.1} KiB (paper: 100)");
    println!("total: {total:.1} KiB (paper: 124.4)");
    let c51 = OverheadReport::for_config(&SibylConfig::default(), 2, 6);
    println!(
        "our default C51 head: {} weights, {} strict bytes total",
        c51.weights, c51.total_bytes
    );
}

fn main() -> std::io::Result<()> {
    // No trace is served here: the request count is 0.
    let mut fig = Figure::new(
        "sec10_overhead",
        "§10 overhead",
        "Storage accounting, and the host cost of inference, training and the storage model",
        0,
    );
    print_storage_accounting();
    inference_benchmark(&mut fig);
    inference_kernel_table(&mut fig);
    decision_memo_table(&mut fig);
    hss_access_table(&mut fig);
    training_step_table(&mut fig);
    buffer_benchmark(&mut fig);
    fig.finish()
}
