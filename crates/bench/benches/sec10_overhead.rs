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
//!
//! The batched decide kernels and the storage model are timed in place by
//! the benchmark's per-layer ledger (`nn.infer_us_per_row`,
//! `hss.access_ns_per_page`, `policies.fast_only_us_per_req`), and the
//! race of the tiled kernels against their scalar references is
//! `sibyl-nn`'s `kernel_parity` test.

use rand::{Rng, SeedableRng};
use sibyl_bench::{median_ns, seed, Figure};
use sibyl_core::{ExperienceBuffer, ExperienceRef, Learner, OverheadReport, SibylConfig};
use sibyl_nn::{Activation, Mlp};
use sibyl_sim::report::Table;

/// Calls per timed run of [`bench_function`], and timed runs.
const BATCH: u32 = 10_000;
const RUNS: usize = 31;

/// Times `f`, notes the median ns/iter under `name` and prints it on a
/// line it leaves open for the caller to end.
fn bench_function(fig: &mut Figure, name: &str, f: impl FnMut()) {
    let ns = format!("{:.1}", median_ns(BATCH, RUNS, f));
    print!("{name:<40} {:>1$}", "", 10usize.saturating_sub(ns.len()));
    fig.note(name, ns);
    print!(" ns/iter (median of {RUNS} x {BATCH})");
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
    println!();

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
    println!();
    inference_batch_width_table(fig, &c51_net, &mut rng);
}

/// The C51 network's inference cost per row at the batch widths a
/// decision arrives in: one `Mlp::infer_batch_into` over caller-owned
/// buffers per call, as `DecisionCore::act` runs a batch's memo misses
/// and `Experiment::run` its one-at-a-time decisions. The inference
/// kernel gives each output its own SIMD lane, so a row fills whole
/// tiles at any width.
fn inference_batch_width_table(fig: &mut Figure, net: &Mlp, rng: &mut rand::rngs::StdRng) {
    println!("--- §10.1 inference batch-width sweep (default C51 net) ---");
    let mut table = Table::new(["batch", "ns/row"]);
    let (mut scratch, mut out) = (Vec::new(), Vec::new());
    for batch in [1usize, 2, 4, 8, 16] {
        let xs: Vec<f32> = (0..batch * net.in_dim())
            .map(|_| rng.gen_range(0.0f32..1.0))
            .collect();
        let ns = median_ns(BATCH / batch as u32, RUNS, || {
            net.infer_batch_into(std::hint::black_box(&xs), batch, &mut scratch, &mut out);
            std::hint::black_box(&out);
        });
        table.add_row(vec![batch.to_string(), format!("{:.1}", ns / batch as f64)]);
    }
    fig.table("inference_batch_width", &table);
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

/// One push into the default 1 000-entry replay ring, from rows the
/// caller owns (as `DecisionCore::settle` lends them): no heap block is
/// built inside the timed closure. The features are a push counter's
/// base-1024 digits, integers half precision holds exactly, so the rows
/// stay distinct at the f16 resolution the buffer deduplicates at and the
/// pushes take the overwrite path a serving stream takes (where 0.19 % of
/// pushes are duplicates). The measured duplicate share is printed beside
/// the cost.
fn buffer_benchmark(fig: &mut Figure) {
    let mut buf = ExperienceBuffer::new(1000);
    let (mut obs, mut next_obs) = ([0.0f32; 6], [0.0f32; 6]);
    let mut i = 0u64;
    bench_function(fig, "experience_buffer_push", || {
        i += 1;
        for (k, (o, n)) in obs.iter_mut().zip(&mut next_obs).enumerate() {
            let digit = (i >> (10 * k)) & 1023;
            *o = digit as f32;
            *n = (1023 - digit) as f32;
        }
        buf.push(ExperienceRef {
            obs: &obs,
            action: (i % 2) as usize,
            reward: (i % 1024) as f32,
            next_obs: &next_obs,
        });
    });
    let share = buf.duplicates() as f64 / buf.pushes().max(1) as f64;
    print!(", duplicate share ");
    fig.note(
        "experience_buffer_push_duplicate_share",
        format!("{share:.4}"),
    );
    println!();
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
        "Storage accounting, and the host cost of inference, decisions and training",
        0,
    );
    print_storage_accounting();
    inference_benchmark(&mut fig);
    decision_memo_table(&mut fig);
    training_step_table(&mut fig);
    buffer_benchmark(&mut fig);
    fig.finish()
}
