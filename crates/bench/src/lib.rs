//! # sibyl-bench
//!
//! Shared scaffolding for the per-figure benchmark targets. Every table
//! and figure in the Sibyl paper's motivation/evaluation sections has a
//! `benches/figNN_*.rs` target that regenerates its rows/series; this
//! crate holds the pieces they share.
//!
//! Run a single figure with
//! `cargo bench -p sibyl-bench --bench fig09_latency`, or everything with
//! `cargo bench --workspace`.
//!
//! ## Environment variables
//!
//! Every bench target honors two environment variables, read through
//! [`trace_len`] and [`seed`]:
//!
//! - **`SIBYL_REQS`** — requests per workload. Each target passes its own
//!   laptop-friendly default to [`trace_len`]; setting `SIBYL_REQS`
//!   overrides all of them at once, which is how CI and spot checks run
//!   the slow sweeps (`fig10`, `fig15`) in seconds. Unparsable values
//!   fall back to the default rather than failing the run.
//! - **`SIBYL_SEED`** — the workload seed (default 42). Trace synthesis,
//!   weight init, exploration, and replay sampling are all derived from
//!   explicit seeds, so two runs with identical `SIBYL_REQS`/`SIBYL_SEED`
//!   print byte-identical tables; changing `SIBYL_SEED` re-rolls the
//!   workloads for robustness checks.
//!
//! ```sh
//! SIBYL_REQS=2000 SIBYL_SEED=7 cargo bench -p sibyl-bench --bench fig09_latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sibyl_core::{Categorical, HeadScratch, SibylAgent, SibylConfig};
use sibyl_hss::{DeviceSpec, HssConfig, StorageManager};
use sibyl_nn::{Activation, Mlp, Sgd};
use sibyl_serve::{CoopConfig, CoopMode, MigrateConfig, MigratePolicyKind, ServeConfig};
use sibyl_sim::report::Table;
use sibyl_sim::SuiteResult;
use sibyl_trace::mix::Mix;
use sibyl_trace::msrc::Workload;
use sibyl_trace::zipf::Zipf;
use sibyl_trace::{IoOp, IoRequest, Trace};

/// Requests per workload, overridable with `SIBYL_REQS`.
pub fn trace_len(default: usize) -> usize {
    std::env::var("SIBYL_REQS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Workload seed, overridable with `SIBYL_SEED`.
pub fn seed() -> u64 {
    std::env::var("SIBYL_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// The paper's performance-oriented H&M configuration (Optane + TLC SSD).
pub fn hm_config() -> HssConfig {
    HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
}

/// The paper's cost-oriented H&L configuration (Optane + HDD).
pub fn hl_config() -> HssConfig {
    HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
}

/// The paper's H&M&L tri-hybrid configuration.
pub fn hml_config() -> HssConfig {
    HssConfig::tri(
        DeviceSpec::optane_ssd(),
        DeviceSpec::tlc_ssd(),
        DeviceSpec::hdd(),
    )
}

/// The paper's H&M&Lssd tri-hybrid configuration.
pub fn hml_ssd_config() -> HssConfig {
    HssConfig::tri(
        DeviceSpec::optane_ssd(),
        DeviceSpec::tlc_ssd(),
        DeviceSpec::cheap_ssd(),
    )
}

/// A skew-partitioned hot/cold workload for the cooperation sweep
/// (`sec12_coop`): half the requests hit small per-region hot sets whose
/// *regions* follow a Zipf(1.2) popularity law, the other half stream
/// cold 8-page reads across a large area. Under the serving engine's
/// region-hash routing, every shard receives a very different hot/cold
/// proportion — data-rich shards see most of the hot traffic while
/// data-poor shards mostly stream cold — which is exactly the partition
/// skew where independent per-shard agents relearn what their neighbors
/// already know and cooperation (shared replay / weight averaging)
/// should close the gap.
pub fn skewed_coop_trace(n: usize, seed: u64) -> Trace {
    /// Hot regions, each the serving engine's 64-page routing granule.
    const HOT_REGIONS: usize = 32;
    const REGION_PAGES: u64 = 64;
    /// Hot pages per region — the whole hot set fits a 10 % fast device.
    const HOT_PAGES_PER_REGION: u64 = 16;
    /// Cold area: far beyond the hot span, large enough never to fit.
    const COLD_BASE: u64 = 1 << 20;
    const COLD_SPAN_PAGES: u64 = 1 << 18;
    let zipf = Zipf::new(HOT_REGIONS, 1.2);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC1_2C00);
    let mut reqs = Vec::with_capacity(n);
    let mut cold_cursor = 0u64;
    for i in 0..n {
        let ts = i as u64 * 300;
        if rng.gen::<f64>() < 0.5 {
            let region = zipf.sample(&mut rng) as u64;
            let page = region * REGION_PAGES + rng.gen_range(0..HOT_PAGES_PER_REGION);
            let op = if rng.gen::<f64>() < 0.5 {
                IoOp::Write
            } else {
                IoOp::Read
            };
            reqs.push(IoRequest::new(ts, page, 1, op));
        } else {
            let lpn = COLD_BASE + (cold_cursor * 8) % COLD_SPAN_PAGES;
            cold_cursor += 1;
            reqs.push(IoRequest::new(ts, lpn, 8, IoOp::Read));
        }
    }
    Trace::from_requests("skewed-coop", reqs)
}

/// The serving configuration `sec12_coop` sweeps the cooperation modes
/// under (shared with the bench-crate regression test so the pinned
/// numbers and the printed table cannot drift apart): the H&M pair,
/// accelerated replay, the §10 NN cost charged, curve sampling, a sync
/// round every 8 batches publishing half the experiences — and a
/// shorter train interval than the paper's 1000, so every shard still
/// trains a useful number of steps on its partition of the trace.
pub fn coop_config(shards: usize, mode: CoopMode) -> ServeConfig {
    let sibyl = SibylConfig {
        train_interval: 250,
        ..Default::default()
    };
    ServeConfig::new(hm_config())
        .with_shards(shards)
        .with_max_batch(16)
        .with_time_scale(40.0)
        .with_nn_ns_per_mac(20.0)
        .with_curve_every(8)
        .with_coop(
            CoopConfig::new(mode)
                .with_sync_period(8)
                .with_share_fraction(0.5),
        )
        .with_sibyl(sibyl)
}

/// The serving configuration `sec13_migration` sweeps the migration
/// policies under (shared with the bench-crate regression test, like
/// [`coop_config`]): the cost-oriented H&L pair — where every avoided
/// slow access is worth milliseconds, the regime Harmonia targets — 2
/// shards, moderately accelerated replay, the §10 NN cost charged, and a
/// migration tick every 4 batches promoting pages re-read at least 3
/// times.
pub fn migration_config(policy: MigratePolicyKind) -> ServeConfig {
    let sibyl = SibylConfig {
        train_interval: 250,
        ..Default::default()
    };
    let mut migrate = MigrateConfig::new(policy)
        .with_scan_period(4)
        .with_max_moves(32)
        .with_promote_min_heat(3);
    migrate.demote_min_idle = 4_096;
    migrate.demote_watermark = 0.95;
    ServeConfig::new(hl_config())
        .with_shards(2)
        .with_max_batch(16)
        .with_time_scale(5.0)
        .with_nn_ns_per_mac(20.0)
        .with_migrate(migrate)
        .with_sibyl(sibyl)
}

/// One row of `sec10_overhead`'s training-step latency table: the C51
/// training step at one replay-batch size, under both the deterministic
/// §10 cost model and a wall-clock measurement of the real kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStepRow {
    /// Replay-batch size.
    pub batch: usize,
    /// Modeled µs for one replay batch under the batched §10 cost model
    /// — two weight streams (forward + backward) at the given ns/MAC,
    /// independent of batch size because the batched kernels stream each
    /// weight matrix once per *batch*. Deterministic.
    pub modeled_step_us: f64,
    /// Modeled µs per trained sample (`modeled_step_us / batch`) — the
    /// per-request training latency §10 charges; drops monotonically as
    /// the batch grows. Deterministic.
    pub modeled_per_sample_us: f64,
    /// Measured wall-clock ns per sample through the pre-refactor
    /// per-sample loop (batched target inference, then one
    /// `forward`/`backward` pass and one head pipeline per transition).
    pub seq_ns_per_sample: f64,
    /// Measured wall-clock ns per sample through the batched path in the
    /// order `Learner::train_step` runs it: target `infer_batch`,
    /// `forward_batch`, `Categorical::batch_grad`, `backward_batch`,
    /// optimizer. At batch 128 this is the figure to read against the
    /// benchmark's in-situ `nn.train_us_per_sample` (which adds replay
    /// sampling and Adam's moments).
    pub batched_ns_per_sample: f64,
    /// The four kernel phases of that step, each timed on its own over
    /// the same reused buffers: `[target infer_batch, forward_batch,
    /// Categorical::batch_grad, zero_grad + backward_batch]`, ns per
    /// sample.
    pub phase_ns_per_sample: [f64; 4],
}

/// Times `step` (one whole replay batch of `batch` samples) and returns
/// the median ns per *sample* over several timed runs.
fn time_per_sample(batch: usize, mut step: impl FnMut()) -> f64 {
    let reps = (2048 / batch).max(8) as u32;
    const RUNS: usize = 9;
    // Warm-up.
    for _ in 0..reps {
        step();
    }
    let mut per_sample: Vec<f64> = (0..RUNS)
        .map(|_| {
            let start = std::time::Instant::now();
            for _ in 0..reps {
                step();
            }
            start.elapsed().as_nanos() as f64 / (reps as f64 * batch as f64)
        })
        .collect();
    per_sample.sort_by(|a, b| a.total_cmp(b));
    per_sample[RUNS / 2]
}

/// One replay batch of the batched training step, in the calls
/// `Learner::train_step` makes and over buffers reused across calls the
/// way the learner holds them.
struct BatchedStep<'a> {
    head: &'a Categorical,
    target: &'a Mlp,
    net: Mlp,
    gamma: f32,
    batch: usize,
    obs: &'a [f32],
    next_obs: &'a [f32],
    actions: &'a [usize],
    rewards: &'a [f32],
    bufs: StepBuffers,
}

#[derive(Default)]
struct StepBuffers {
    pingpong: Vec<f32>,
    next_logits: Vec<f32>,
    logits: Vec<f32>,
    grads: Vec<f32>,
    losses: Vec<f32>,
    dx: Vec<f32>,
    head: HeadScratch,
}

impl BatchedStep<'_> {
    /// Target inference, forward, head, backward — in step order.
    const PHASES: [fn(&mut Self); 4] = [
        Self::target_infer,
        Self::forward,
        Self::head_grad,
        Self::backward,
    ];

    fn target_infer(&mut self) {
        let b = &mut self.bufs;
        self.target.infer_batch_into(
            self.next_obs,
            self.batch,
            &mut b.pingpong,
            &mut b.next_logits,
        );
        std::hint::black_box(&b.next_logits);
    }

    fn forward(&mut self) {
        let b = &mut self.bufs;
        self.net
            .forward_batch_into(self.obs, self.batch, &mut b.pingpong, &mut b.logits);
        std::hint::black_box(&b.logits);
    }

    fn head_grad(&mut self) {
        let b = &mut self.bufs;
        self.head.batch_grad(
            &b.logits,
            self.actions,
            self.rewards,
            &b.next_logits,
            self.gamma,
            &mut b.head,
            &mut b.grads,
            &mut b.losses,
        );
        std::hint::black_box((&b.grads, &b.losses));
    }

    fn backward(&mut self) {
        let b = &mut self.bufs;
        self.net.zero_grad();
        self.net
            .backward_batch_into(&b.grads, self.batch, &mut b.pingpong, &mut b.dx);
        std::hint::black_box(&b.dx);
    }
}

/// Builds `sec10_overhead`'s training-step latency table: one
/// [`TrainStepRow`] per requested replay-batch size, on the network and
/// head [`SibylConfig::default`] serves with (6-20-30-102: two actions ×
/// 51 atoms, 3780 MACs) and the paper's two-network layout.
///
/// The modeled columns are pure arithmetic over `ns_per_mac` —
/// bit-identical across runs — while the measured columns time the real
/// sequential and batched training paths over identical seeded data,
/// which is what the bench-crate regression test uses to pin that the
/// batched path is no slower than the per-sample loop it replaced.
pub fn train_step_latency_rows(batches: &[usize], ns_per_mac: f64) -> Vec<TrainStepRow> {
    const N_ACTIONS: usize = 2;
    const OBS_LEN: usize = 6;
    let config = SibylConfig::default();
    // sibyl-lint: allow(entropy-rng) -- deliberate fixed harness seed: the latency table must measure identical weights every run
    let mut rng = StdRng::seed_from_u64(0x5EC1_0000);
    let head = Categorical::new(N_ACTIONS, config.n_atoms, config.v_min, config.v_max);
    let [h1, h2] = config.hidden_dims;
    let dims = [OBS_LEN, h1, h2, head.n_outputs()];
    let proto = Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut rng);
    let target = proto.clone();
    let macs = proto.mac_count() as f64;
    let out_dim = proto.out_dim();
    let gamma = config.discount;

    let mut rows = Vec::with_capacity(batches.len());
    for &batch in batches {
        assert!(batch > 0, "train_step_latency_rows: zero batch");
        let mut obs_matrix = || -> Vec<f32> {
            (0..batch * OBS_LEN)
                .map(|_| rng.gen_range(0.0f32..1.0))
                .collect()
        };
        let (obs, next_obs) = (obs_matrix(), obs_matrix());
        let actions: Vec<usize> = (0..batch).map(|i| i % N_ACTIONS).collect();
        let rewards: Vec<f32> = (0..batch).map(|i| (i % 5) as f32 * 0.25).collect();

        // Per-sample reference: the pre-refactor loop shape — batched
        // target inference, then one forward/backward per transition and
        // the per-sample head pipeline.
        let mut seq_net = proto.clone();
        let mut seq_opt = Sgd::new(0.001);
        let seq_ns = time_per_sample(batch, || {
            let next_logits = target.infer_batch(&next_obs, batch);
            seq_net.zero_grad();
            let mut grad = Vec::new();
            for i in 0..batch {
                let next_row = &next_logits[i * out_dim..(i + 1) * out_dim];
                let next_best = head.best_action(next_row);
                let next_probs = head.action_distribution(next_row, next_best);
                let proj = head.project(rewards[i], gamma, &next_probs);
                let logits = seq_net.forward(&obs[i * OBS_LEN..(i + 1) * OBS_LEN]);
                let _ = head.loss_grad(&logits, actions[i], &proj, &mut grad);
                std::hint::black_box(seq_net.backward(&grad));
            }
            seq_net.apply_grads(&mut seq_opt, 1.0 / batch as f32);
        });

        // Batched path: each phase on its own, then the four as one step
        // with the optimizer.
        let mut step = BatchedStep {
            head: &head,
            target: &target,
            net: proto.clone(),
            gamma,
            batch,
            obs: &obs,
            next_obs: &next_obs,
            actions: &actions,
            rewards: &rewards,
            bufs: Default::default(),
        };
        let phases = BatchedStep::PHASES.map(|phase| time_per_sample(batch, || phase(&mut step)));
        let mut opt = Sgd::new(0.001);
        let batched_ns = time_per_sample(batch, || {
            BatchedStep::PHASES
                .iter()
                .for_each(|phase| phase(&mut step));
            step.net.apply_grads(&mut opt, 1.0 / batch as f32);
        });

        let modeled_step_us = 2.0 * macs * ns_per_mac / 1_000.0;
        rows.push(TrainStepRow {
            batch,
            modeled_step_us,
            modeled_per_sample_us: modeled_step_us / batch as f64,
            seq_ns_per_sample: seq_ns,
            batched_ns_per_sample: batched_ns,
            phase_ns_per_sample: phases,
        });
    }
    rows
}

/// One row of `sec10_overhead`'s inference-kernel table: the C51 decide
/// pass at one batch size through the retained scalar reference kernels
/// and the tiled f32 kernels — the before/after ns/MAC evidence for the
/// SIMD-friendly restructuring.
#[derive(Debug, Clone, PartialEq)]
pub struct InferKernelRow {
    /// Decide-batch size.
    pub batch: usize,
    /// Modeled µs per request under the §10 cost model — one forward
    /// weight stream amortized over the batch
    /// (`macs × ns_per_mac / batch`). Deterministic.
    pub modeled_per_req_us: f64,
    /// Measured wall-clock ns per MAC through the retained scalar
    /// reference kernels (`linalg::scalar`) — the pre-tiling "before".
    pub scalar_ns_per_mac: f64,
    /// Measured wall-clock ns per MAC through the tiled f32 kernels
    /// (`Mlp::infer_batch`) — the autovectorized "after".
    pub tiled_ns_per_mac: f64,
}

/// Batched inference through the retained scalar reference kernels — the
/// exact pre-tiling decide path, reassembled from `linalg::scalar` so the
/// overhead bench can still measure the "before" side after the refactor.
fn scalar_infer_batch(
    net: &Mlp,
    xs: &[f32],
    batch: usize,
    cur: &mut Vec<f32>,
    next: &mut Vec<f32>,
) {
    cur.clear();
    cur.extend_from_slice(xs);
    for layer in net.layers() {
        let (w, b) = layer.params();
        sibyl_nn::linalg::scalar::matmul_bias(
            w,
            b,
            cur,
            layer.out_dim(),
            layer.in_dim(),
            batch,
            next,
        );
        layer.activation().apply_slice(next);
        std::mem::swap(cur, next);
    }
}

/// Builds `sec10_overhead`'s inference-kernel table: one
/// [`InferKernelRow`] per requested decide-batch size on the default C51
/// network (6-20-30-22, 1380 MACs).
///
/// The modeled column is pure arithmetic over `ns_per_mac` —
/// bit-identical across runs — while the measured columns time the
/// retained scalar references and the tiled f32 kernels over identical
/// seeded weights and inputs. The bench-crate
/// regression test uses the scalar/tiled pair to pin that tiling never
/// regresses the decide path.
pub fn infer_kernel_rows(batches: &[usize], ns_per_mac: f64) -> Vec<InferKernelRow> {
    // sibyl-lint: allow(entropy-rng) -- deliberate fixed harness seed: the kernel table must measure identical weights every run
    let mut rng = StdRng::seed_from_u64(0x5EC1_0001);
    let head = Categorical::new(2, 11, 0.0, 10.0);
    let dims = [6, 20, 30, head.n_outputs()];
    let net = Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut rng);
    let macs = net.mac_count() as f64;

    let mut rows = Vec::with_capacity(batches.len());
    for &batch in batches {
        assert!(batch > 0, "infer_kernel_rows: zero batch");
        let xs: Vec<f32> = (0..batch * 6).map(|_| rng.gen_range(0.0f32..1.0)).collect();

        let (mut cur, mut next) = (Vec::new(), Vec::new());
        let scalar_ns = time_per_sample(batch, || {
            scalar_infer_batch(&net, &xs, batch, &mut cur, &mut next);
            std::hint::black_box(&cur);
        }) / macs;
        let tiled_ns = time_per_sample(batch, || {
            std::hint::black_box(net.infer_batch(&xs, batch));
        }) / macs;

        rows.push(InferKernelRow {
            batch,
            modeled_per_req_us: macs * ns_per_mac / 1_000.0 / batch as f64,
            scalar_ns_per_mac: scalar_ns,
            tiled_ns_per_mac: tiled_ns,
        });
    }
    rows
}

/// One row of `sec10_overhead`'s decision-memo table: a placement agent
/// served Table 5's mix2 in batches of 16 at one `train_interval` (which
/// bounds a weight generation's length and so the memo's capacity).
#[derive(Debug, Clone, PartialEq)]
pub struct MemoRow {
    /// Requests between training steps.
    pub train_interval: u64,
    /// Greedy decisions looked up in the memo. Deterministic.
    pub lookups: u64,
    /// Lookups answered without the network. Deterministic.
    pub hits: u64,
    /// Measured wall-clock ns per decision inside `place_batch`
    /// (featurization, ε-greedy, lookup, the missed rows' inference),
    /// net of any training step that fired there.
    pub decide_ns_per_req: f64,
}

/// Builds `sec10_overhead`'s decision-memo table: per `train_interval`, a
/// default [`SibylAgent`] places a mix2 trace of `n` requests
/// per component on the H&M pair, 16 requests per `place_batch` — the
/// serving engine's decide → serve → learn round.
pub fn decision_memo_rows(train_intervals: &[u64], n: usize, seed: u64) -> Vec<MemoRow> {
    let trace = Mix::Mix2.generate(n, seed);
    let hss = hm_config().resolved(trace.footprint_pages());
    let mut rows = Vec::with_capacity(train_intervals.len());
    for &train_interval in train_intervals {
        let mut manager = StorageManager::new(&hss);
        let mut agent = SibylAgent::new(SibylConfig {
            train_interval,
            ..Default::default()
        });
        let mut outcomes = Vec::with_capacity(16);
        let mut decide = std::time::Duration::ZERO;
        for batch in trace.requests().chunks(16) {
            let (started, trained) = (std::time::Instant::now(), agent.stats().train_ns);
            let targets = agent.place_batch(batch, &manager);
            decide += started.elapsed();
            decide -= std::time::Duration::from_nanos(agent.stats().train_ns - trained);
            outcomes.clear();
            for (req, &target) in batch.iter().zip(&targets) {
                outcomes.push(manager.access(req, target));
            }
            agent.feedback_batch(&outcomes);
        }
        let (lookups, hits) = agent.decision_memo();
        rows.push(MemoRow {
            train_interval,
            lookups,
            hits,
            decide_ns_per_req: decide.as_nanos() as f64 / trace.len() as f64,
        });
    }
    rows
}

/// `sec10_overhead`'s storage-model table: what [`StorageManager`]
/// itself costs on the host — the floor under every policy, learning or
/// not. Host-clock medians; the streams they are taken on are fixed by
/// the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HssAccessCost {
    /// ns per page of writes to pages the directory has never seen
    /// (index insert, arena growth included).
    pub first_touch_ns_per_page: f64,
    /// ns per page of reads whose pages stay where they are.
    pub read_hit_ns_per_page: f64,
    /// ns per page of writes to pages already on the target.
    pub write_hit_ns_per_page: f64,
    /// µs per request of `Experiment::run(FastOnly)` on `hm_1`: a policy
    /// that decides nothing, so all of it is the storage model.
    pub fast_only_us_per_req: f64,
}

/// Measures [`HssAccessCost`] on an H&M manager: a first-touch pass
/// writing a `4 × n`-page footprint in 4-page requests, then `n` seeded
/// 1–8-page reads and `n` such writes over it, every request targeting
/// the unlimited slow device so no page moves or is evicted; and
/// Fast-Only over `n` requests of `hm_1`. Each figure is the median of
/// five runs from a fresh manager.
pub fn hss_access_cost(n: usize, seed: u64) -> HssAccessCost {
    const RUNS: usize = 5;
    let n = n.max(1) as u64;
    let slow = sibyl_hss::DeviceId(1);
    let hss = hm_config().with_unlimited_capacities();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hits = |op: IoOp| -> Vec<IoRequest> {
        (0..n)
            .map(|t| IoRequest::new(t, rng.gen_range(0..4 * n - 8), rng.gen_range(1..=8), op))
            .collect()
    };
    let (reads, writes) = (hits(IoOp::Read), hits(IoOp::Write));
    let fill: Vec<IoRequest> = (0..n)
        .map(|t| IoRequest::new(t, 4 * t, 4, IoOp::Write))
        .collect();
    let ns_per_page = |manager: &mut StorageManager, reqs: &[IoRequest]| {
        let pages: u64 = reqs.iter().map(|r| u64::from(r.size_pages)).sum();
        let start = std::time::Instant::now();
        for req in reqs {
            std::hint::black_box(manager.access(req, slow));
        }
        start.elapsed().as_nanos() as f64 / pages as f64
    };
    let median = |mut runs: Vec<f64>| {
        runs.sort_by(|a, b| a.total_cmp(b));
        runs[runs.len() / 2]
    };
    let (mut first, mut read, mut write) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..RUNS {
        let mut manager = StorageManager::new(&hss);
        first.push(ns_per_page(&mut manager, &fill));
        read.push(ns_per_page(&mut manager, &reads));
        write.push(ns_per_page(&mut manager, &writes));
    }
    let hm_1 = sibyl_sim::Experiment::new(
        hm_config(),
        sibyl_trace::msrc::generate(Workload::Hm1, n as usize, seed),
    );
    let fast_only = (0..RUNS)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(hm_1.run(sibyl_sim::PolicyKind::FastOnly))
                .expect("hm_1 is not empty");
            start.elapsed().as_nanos() as f64 / 1_000.0 / n as f64
        })
        .collect();
    HssAccessCost {
        first_touch_ns_per_page: median(first),
        read_hit_ns_per_page: median(read),
        write_hit_ns_per_page: median(write),
        fast_only_us_per_req: median(fast_only),
    }
}

/// A two-term fit of *measured* decide time: one batched decide costs
/// `setup_us + per_row_us · batch` on this host, splitting the per-call
/// fixed work (dispatch, bias setup, cache warm-up) from the per-sample
/// streaming work. A host-clock quantity `sec10_overhead` reports; the
/// modeled clock is billed by `ServeConfig::nn_ns_per_mac` alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoTermFit {
    /// Fixed µs per batched decide call (the model's intercept).
    pub setup_us: f64,
    /// Incremental µs per batched sample (the model's slope).
    pub per_row_us: f64,
}

impl TwoTermFit {
    /// The modeled µs for one decide call over `batch` samples.
    pub fn step_us(&self, batch: usize) -> f64 {
        self.setup_us + self.per_row_us * batch as f64
    }
}

/// Calibrates the two-term model from `(batch, step_us)` observations by
/// exact least squares — closed-form slope/intercept, no iteration, so
/// identical inputs produce a bit-identical fit.
///
/// # Panics
///
/// Panics with fewer than two points or when all batch sizes coincide
/// (the slope would be undefined).
pub fn calibrate_two_term(points: &[(usize, f64)]) -> TwoTermFit {
    assert!(points.len() >= 2, "calibrate_two_term: need >= 2 points");
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0f64, 0.0, 0.0, 0.0);
    for &(b, t) in points {
        let x = b as f64;
        sx += x;
        sy += t;
        sxx += x * x;
        sxy += x * t;
    }
    let denom = n * sxx - sx * sx;
    assert!(
        denom.abs() > f64::EPSILON,
        "calibrate_two_term: batch sizes must differ"
    );
    let per_row_us = (n * sxy - sx * sy) / denom;
    let setup_us = (sy - per_row_us * sx) / n;
    TwoTermFit {
        setup_us,
        per_row_us,
    }
}

/// Escapes `s` for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// A machine-readable artifact writer for the bench targets: every
/// `sec*` target assembles the tables it prints into one of these and
/// calls [`BenchJson::write`] before exiting, which is a no-op unless
/// the **`SIBYL_BENCH_JSON`** environment variable names an output path.
/// CI sets it per target and uploads the files as run artifacts, so the
/// printed numbers can be tracked across commits without scraping
/// stdout.
///
/// The schema is stable (consumers may pin it): one JSON object per
/// file, terminated by a newline —
///
/// ```json
/// {"schema":1,"target":"sec13_migration","requests":10000,"seed":42,
///  "notes":[{"key":"best_active_policy","value":"hot-cold"}],
///  "tables":[{"name":"policies","headers":["policy","..."],
///             "rows":[["no-migration","..."]]}],
///  "texts":[{"name":"folded","text":"shard0;request;nn.decide 12345\n"}]}
/// ```
///
/// Field order is fixed and every entry appears in insertion order, so
/// a target whose tables are deterministic produces a byte-identical
/// artifact across identically-seeded runs. Cells are kept as the
/// strings the tables print — the artifact mirrors the human-readable
/// output rather than re-deriving it.
#[derive(Debug, Clone)]
pub struct BenchJson {
    target: String,
    requests: usize,
    seed: u64,
    notes: Vec<(String, String)>,
    tables: Vec<(String, Vec<String>, Vec<Vec<String>>)>,
    texts: Vec<(String, String)>,
}

impl BenchJson {
    /// Starts an artifact for `target` (the bench's cargo target name),
    /// recording the request count and seed the run used.
    pub fn new(target: &str, requests: usize, seed: u64) -> Self {
        BenchJson {
            target: target.to_string(),
            requests,
            seed,
            notes: Vec::new(),
            tables: Vec::new(),
            texts: Vec::new(),
        }
    }

    /// Records a named key/value note (summary scalars, best-mode
    /// verdicts — anything the target prints outside a table).
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records a named table, cell-for-cell as the target printed it.
    pub fn table(&mut self, name: &str, table: &Table) {
        self.tables.push((
            name.to_string(),
            table.headers().to_vec(),
            table.rows().to_vec(),
        ));
    }

    /// Records a named multi-line text artifact (folded stacks, span
    /// dumps) verbatim.
    pub fn text(&mut self, name: &str, text: &str) {
        self.texts.push((name.to_string(), text.to_string()));
    }

    /// Renders the artifact as its single-object JSON document.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":1,\"target\":\"{}\",\"requests\":{},\"seed\":{}",
            json_escape(&self.target),
            self.requests,
            self.seed
        );
        out.push_str(",\"notes\":[");
        for (i, (key, value)) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"key\":\"{}\",\"value\":\"{}\"}}",
                json_escape(key),
                json_escape(value)
            );
        }
        out.push_str("],\"tables\":[");
        for (i, (name, headers, rows)) in self.tables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"headers\":[", json_escape(name));
            for (j, h) in headers.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\"", json_escape(h));
            }
            out.push_str("],\"rows\":[");
            for (j, row) in rows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push('[');
                for (k, cell) in row.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "\"{}\"", json_escape(cell));
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        out.push_str("],\"texts\":[");
        for (i, (name, text)) in self.texts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"text\":\"{}\"}}",
                json_escape(name),
                json_escape(text)
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Writes the artifact to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render())
    }

    /// Writes the artifact to the path named by `SIBYL_BENCH_JSON`,
    /// returning that path — or does nothing and returns `None` when the
    /// variable is unset or empty (the default local run).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error when the variable is
    /// set but the path cannot be written.
    pub fn write(&self) -> std::io::Result<Option<String>> {
        match std::env::var("SIBYL_BENCH_JSON") {
            Ok(path) if !path.is_empty() => {
                self.write_to(&path)?;
                Ok(Some(path))
            }
            _ => Ok(None),
        }
    }
}

/// A 6-workload subset used where running all 14 would make a sweep
/// bench unreasonably slow (the motivation figure's subset).
pub fn motivation_workloads() -> Vec<Workload> {
    Workload::MOTIVATION.to_vec()
}

/// All 14 Table 4 workloads.
pub fn all_workloads() -> Vec<Workload> {
    Workload::ALL.to_vec()
}

/// Prints a figure banner.
pub fn banner(figure: &str, caption: &str) {
    println!("\n=== {figure} ===");
    println!("{caption}\n");
}

/// Builds a normalized-latency table row for one workload's suite result.
pub fn latency_row(suite: &SuiteResult) -> Vec<String> {
    let mut row = vec![suite.workload.clone()];
    for i in 0..suite.outcomes.len() {
        row.push(format!("{:.2}", suite.normalized_latency(i)));
    }
    row
}

/// Builds a normalized-IOPS table row for one workload's suite result.
pub fn iops_row(suite: &SuiteResult) -> Vec<String> {
    let mut row = vec![suite.workload.clone()];
    for i in 0..suite.outcomes.len() {
        row.push(format!("{:.3}", suite.normalized_iops(i)));
    }
    row
}

/// Appends a geometric-mean row across previously added numeric rows.
pub fn append_avg_row(table: &mut Table, rows: &[Vec<String>]) {
    if rows.is_empty() {
        return;
    }
    let cols = rows[0].len();
    let mut avg = vec!["AVG".to_string()];
    for c in 1..cols {
        let vals: Vec<f64> = rows
            .iter()
            .filter_map(|r| r.get(c).and_then(|v| v.parse::<f64>().ok()))
            .collect();
        if vals.is_empty() {
            avg.push(String::new());
        } else {
            let gm =
                (vals.iter().map(|v| v.max(1e-12).ln()).sum::<f64>() / vals.len() as f64).exp();
            avg.push(format!("{gm:.2}"));
        }
    }
    table.add_row(avg);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults_apply() {
        assert!(trace_len(1234) >= 1);
        let _ = seed();
    }

    #[test]
    fn configs_have_expected_shapes() {
        assert_eq!(hm_config().num_devices(), 2);
        assert_eq!(hml_config().num_devices(), 3);
        assert_eq!(hml_ssd_config().num_devices(), 3);
    }

    #[test]
    fn skewed_coop_trace_is_skewed_and_deterministic() {
        let a = skewed_coop_trace(2_000, 7);
        let b = skewed_coop_trace(2_000, 7);
        assert_eq!(a.requests(), b.requests(), "generator must be seeded");
        assert_ne!(
            a.requests(),
            skewed_coop_trace(2_000, 8).requests(),
            "seed must re-roll the workload"
        );
        // The hot half is region-skewed: the most popular shard partition
        // should see far more hot requests than the least popular.
        let mut per_shard = vec![0u64; 4];
        for r in a.iter().filter(|r| r.lpn < 32 * 64) {
            per_shard[sibyl_serve::shard_of(r.lpn, 4)] += 1;
        }
        let (min, max) = (
            per_shard.iter().min().copied().unwrap_or(0),
            per_shard.iter().max().copied().unwrap_or(0),
        );
        assert!(
            max > 2 * min.max(1),
            "hot traffic should partition unevenly: {per_shard:?}"
        );
    }

    /// The sec12_coop acceptance pin: on the skew-partitioned mix at 4
    /// shards, federated weight averaging *and* shared replay strictly
    /// beat independent per-shard agents on aggregate latency. Settings
    /// mirror the bench target at a test-sized request count. (An older
    /// form of this pin asserted shared replay raised fast-*placement*
    /// preference; since reads stopped demoting, winning agents place
    /// *less* on fast while keeping the right pages there, so placement
    /// fraction no longer proxies benefit — latency is the metric.)
    #[test]
    fn cooperation_beats_independent_on_skewed_partition() {
        use sibyl_sim::ServeExperiment;

        let trace = skewed_coop_trace(6_000, 42);
        let modes = [
            CoopMode::Independent,
            CoopMode::WeightAverage,
            CoopMode::SharedReplay,
        ];
        let sweep = ServeExperiment::sweep(&trace, modes.map(|m| (m, coop_config(4, m)))).unwrap();
        let norm = sweep
            .normalized_latency(&CoopMode::WeightAverage)
            .expect("swept");
        assert!(
            norm < 1.0,
            "weight averaging should serve the skewed mix faster: norm lat {norm:.3}"
        );
        let shared = sweep
            .normalized_latency(&CoopMode::SharedReplay)
            .expect("swept");
        assert!(
            shared < 1.0,
            "shared replay should serve the skewed mix faster: norm lat {shared:.3}"
        );
    }

    /// The sec13_migration acceptance pin: on the phase-shifting diurnal
    /// trace over the H&L pair, *both* active migration policies beat
    /// the no-migration baseline on normalized latency — the RL second
    /// agent strictly, the heuristic with a clear margin. (That the
    /// baseline equals an engine whose config never mentions migration is
    /// the `MigratePolicyKind::None` row of the serve crate's
    /// `neutral_knobs.rs`.) Settings are the bench target's, at a
    /// test-sized request count.
    #[test]
    fn migration_beats_no_migration_on_phased_trace() {
        use sibyl_sim::ServeExperiment;
        use sibyl_trace::synth;

        let trace = synth::diurnal(8_000, 5, 42);
        let policies = MigratePolicyKind::ALL.map(|p| (p, migration_config(p)));
        let sweep = ServeExperiment::sweep(&trace, policies).unwrap();
        let rl = sweep
            .normalized_latency(&MigratePolicyKind::Rl)
            .expect("swept");
        let hc = sweep
            .normalized_latency(&MigratePolicyKind::HotCold)
            .expect("swept");
        assert!(
            rl < 0.995,
            "RL migration should beat NoMigration on the phased trace: norm lat {rl:.3}"
        );
        assert!(
            hc < 0.95,
            "hot-cold migration should beat NoMigration clearly: norm lat {hc:.3}"
        );
        let rl_run = sweep.get(&MigratePolicyKind::Rl).expect("swept");
        let promoted: u64 = rl_run
            .report
            .shards
            .iter()
            .map(|s| s.stats.bg_promoted_pages)
            .sum();
        assert!(
            promoted > 0,
            "the RL agent must actually migrate to earn its win"
        );
    }

    /// The sec10_overhead training-latency pins: the batched training
    /// step is no slower than the per-sample loop once batches amortize
    /// (batch ≥ 8), and the table's modeled latency columns are
    /// bit-deterministic across runs and drop monotonically with batch
    /// size — the acceptance shape of the batched-training refactor.
    #[test]
    fn batched_training_step_is_no_slower_and_table_is_deterministic() {
        let rows_a = train_step_latency_rows(&[1, 8, 32], 20.0);
        let rows_b = train_step_latency_rows(&[1, 8, 32], 20.0);
        assert_eq!(rows_a.len(), 3);
        for (a, b) in rows_a.iter().zip(&rows_b) {
            assert_eq!(
                a.modeled_step_us.to_bits(),
                b.modeled_step_us.to_bits(),
                "modeled step column must be deterministic"
            );
            assert_eq!(
                a.modeled_per_sample_us.to_bits(),
                b.modeled_per_sample_us.to_bits(),
                "modeled per-sample column must be deterministic"
            );
        }
        for w in rows_a.windows(2) {
            assert!(
                w[1].modeled_per_sample_us < w[0].modeled_per_sample_us,
                "per-sample training latency must drop monotonically: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        // The wall-clock pin only holds meaning under the optimized
        // codegen the benches actually run in (and debug timing noise on
        // a loaded runner could flake the whole gate), so it is scoped to
        // release builds — CI's `cargo test --release` pass exercises it.
        #[cfg(not(debug_assertions))]
        for row in rows_a.iter().filter(|r| r.batch >= 8) {
            assert!(
                row.batched_ns_per_sample <= row.seq_ns_per_sample * 1.10,
                "batch {}: batched {:.0} ns/sample vs sequential {:.0} ns/sample",
                row.batch,
                row.batched_ns_per_sample,
                row.seq_ns_per_sample
            );
        }
    }

    /// The sec10_overhead inference-kernel pins: the modeled decide
    /// column is bit-deterministic across runs and drops monotonically
    /// with batch size, and — under release codegen, where the
    /// autovectorized loops actually exist — the tiled f32 path is no
    /// slower than the retained scalar reference per MAC once batches
    /// amortize (batch ≥ 8): the acceptance shape of the tiling
    /// refactor.
    #[test]
    fn tiled_inference_is_no_slower_and_modeled_column_is_deterministic() {
        let rows_a = infer_kernel_rows(&[1, 8, 32], 20.0);
        let rows_b = infer_kernel_rows(&[1, 8, 32], 20.0);
        assert_eq!(rows_a.len(), 3);
        for (a, b) in rows_a.iter().zip(&rows_b) {
            assert_eq!(
                a.modeled_per_req_us.to_bits(),
                b.modeled_per_req_us.to_bits(),
                "modeled decide column must be deterministic"
            );
        }
        for w in rows_a.windows(2) {
            assert!(
                w[1].modeled_per_req_us < w[0].modeled_per_req_us,
                "per-request decide latency must drop monotonically: {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        for row in &rows_a {
            assert!(row.scalar_ns_per_mac > 0.0 && row.tiled_ns_per_mac > 0.0);
        }
        // The wall-clock pin is scoped to release builds, like the
        // batched-training pin above: debug codegen defeats the
        // autovectorization the pin certifies, and debug timing noise on
        // a loaded runner could flake the gate.
        #[cfg(not(debug_assertions))]
        for row in rows_a.iter().filter(|r| r.batch >= 8) {
            assert!(
                row.tiled_ns_per_mac <= row.scalar_ns_per_mac * 1.00,
                "batch {}: tiled {:.3} ns/MAC vs scalar {:.3} ns/MAC",
                row.batch,
                row.tiled_ns_per_mac,
                row.scalar_ns_per_mac
            );
        }
    }

    /// The two-term calibration pin: the exact least-squares fit recovers
    /// a synthetic (setup, per-row) pair to float precision, is
    /// bit-deterministic across calls, and degrades gracefully to the
    /// single-rate model when the data has no intercept.
    #[test]
    fn two_term_fit_recovers_synthetic_line_deterministically() {
        let truth = TwoTermFit {
            setup_us: 3.5,
            per_row_us: 0.75,
        };
        let points: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16, 32]
            .iter()
            .map(|&b| (b, truth.step_us(b)))
            .collect();
        let fit_a = calibrate_two_term(&points);
        let fit_b = calibrate_two_term(&points);
        assert_eq!(
            fit_a.setup_us.to_bits(),
            fit_b.setup_us.to_bits(),
            "fit must be bit-deterministic"
        );
        assert_eq!(fit_a.per_row_us.to_bits(), fit_b.per_row_us.to_bits());
        assert!(
            (fit_a.setup_us - truth.setup_us).abs() < 1e-9,
            "setup {} vs {}",
            fit_a.setup_us,
            truth.setup_us
        );
        assert!((fit_a.per_row_us - truth.per_row_us).abs() < 1e-9);
        // Pure per-row data (no intercept) fits setup ≈ 0: the two-term
        // model contains the §10 single-rate model as its special case.
        let flat: Vec<(usize, f64)> = [1usize, 4, 16]
            .iter()
            .map(|&b| (b, 2.0 * b as f64))
            .collect();
        let flat_fit = calibrate_two_term(&flat);
        assert!(flat_fit.setup_us.abs() < 1e-9);
        assert!((flat_fit.per_row_us - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "need >= 2 points")]
    fn two_term_fit_rejects_single_point() {
        let _ = calibrate_two_term(&[(4, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "batch sizes must differ")]
    fn two_term_fit_rejects_degenerate_batches() {
        let _ = calibrate_two_term(&[(4, 1.0), (4, 2.0)]);
    }

    /// The sec15_telemetry and sec16_xray acceptance pins: on the mix2
    /// reference workload at 4 shards × batch 16, fully-enabled telemetry
    /// and 1/64-sampled span tracing each change zero placement decisions
    /// (always asserted, every profile) and — under release codegen, where
    /// the benches' measured numbers are produced — cost at most 3% and 5%
    /// of measured serving throughput. The bound is certified
    /// compositionally, because a 3% end-to-end A/B wall-clock delta is
    /// smaller than ambient load drift on a shared runner (median, paired
    /// order-alternating ratios and best-of-N were all tried): the engine's
    /// own `ShardObserver` is fed one `request` per iteration and one
    /// `batch_decided` per 16 in a tight loop — the very code the shard
    /// loop runs, with an eviction charged on every request though real
    /// traffic evicts only sometimes — and its per-request cost is held
    /// against the engine's measured per-request serving cost.
    #[test]
    fn observer_overhead_is_bounded_and_non_perturbing() {
        use sibyl_serve::{serve_trace, ServeConfig, TelemetryConfig, XrayConfig};
        use sibyl_trace::mix::Mix;

        let trace = Mix::Mix2.generate(6_000, 42);
        let sibyl = sibyl_core::SibylConfig {
            train_interval: 250,
            ..Default::default()
        };
        let base = ServeConfig::new(hm_config())
            .with_shards(4)
            .with_max_batch(16)
            .with_time_scale(40.0)
            .with_nn_ns_per_mac(20.0)
            .with_curve_every(8)
            .with_sibyl(sibyl);
        let observers = [
            ("telemetry", TelemetryConfig::full(), XrayConfig::Off, 0.03),
            ("xray", TelemetryConfig::off(), XrayConfig::Sampled(6), 0.05),
        ];
        let off_report = serve_trace(&base, &trace).unwrap();
        assert!(off_report.telemetry.is_none() && off_report.xray.is_none());
        for (name, telemetry, xray, _) in observers {
            let on = base.clone().with_telemetry(telemetry).with_xray(xray);
            let on_report = serve_trace(&on, &trace).unwrap();
            assert_eq!(
                on_report.shards, off_report.shards,
                "{name} must observe, never decide"
            );
            assert_eq!(on_report.telemetry.is_some(), telemetry.enabled());
            assert_eq!(on_report.xray.is_some(), xray.enabled());
        }

        // The wall-clock pins are scoped to release builds like the kernel
        // pins above: debug codegen inflates the observers' relative cost
        // past anything the benches report, and debug timing noise on a
        // loaded runner could flake the gate.
        #[cfg(not(debug_assertions))]
        {
            use sibyl_serve::ShardObserver;
            use sibyl_xray::RequestObservation;
            use std::time::Instant;

            // The engine's per-request cost, best-of-3 at 1 shard: the
            // observer work being bounded is identical per shard loop, and
            // the single-worker run avoids the thread-scheduling spread of
            // multi-shard wall-clock. Measured once for both bounds.
            let base_1 = base.clone().with_shards(1);
            let mut engine_s = f64::INFINITY;
            for _ in 0..3 {
                let t = Instant::now();
                std::hint::black_box(serve_trace(&base_1, &trace).unwrap());
                engine_s = engine_s.min(t.elapsed().as_secs_f64());
            }
            let request_ns = engine_s * 1e9 / trace.len() as f64;

            const ITERS: u64 = 200_000;
            for (name, telemetry, xray, bound) in observers {
                let mut observer = ShardObserver::new(&telemetry, &xray, 0, 42);
                let t = Instant::now();
                for i in 0..ITERS {
                    if i % 16 == 0 {
                        observer.batch_decided(i / 16, 16, 27.6);
                    }
                    observer.request(&RequestObservation {
                        lba: i * 64,
                        timestamp_us: i as f64 * 10.0,
                        arrival_us: i as f64 * 10.0 + 1.0,
                        latency_us: 80.0 + (i % 64) as f64,
                        decide_us: 2.0,
                        train_us: 0.4,
                        queue_us: 3.0,
                        batch: 16,
                        device: (i % 2) as usize,
                        target: 0,
                        promoted: 0,
                        evicted: 1 + i % 4,
                    });
                }
                let observer_ns = t.elapsed().as_nanos() as f64 / ITERS as f64;
                std::hint::black_box(&observer);
                assert!(
                    observer_ns <= request_ns * bound,
                    "{name} overhead exceeds {:.0}%: {observer_ns:.0} ns of observer work per \
                     request vs {request_ns:.0} ns of serving work per request ({:.2}%)",
                    100.0 * bound,
                    100.0 * observer_ns / request_ns
                );
            }
        }
    }

    /// The sec14_scale acceptance pins at test size: a streamed serving
    /// run is bit-identical to the materialized run it replaces, and the
    /// compact directory's resident bytes track the workload's footprint
    /// — under 96 bytes per tracked page, growing far slower than the
    /// request count when the same fixed-horizon stream is served 8×
    /// longer. Settings mirror the bench target at a test-sized horizon.
    #[test]
    fn streamed_scale_run_keeps_directory_footprint_bounded() {
        use sibyl_serve::{serve_stream, serve_trace, ServeConfig};
        use sibyl_sim::ServeExperiment;
        use sibyl_trace::mix::Mix;

        let horizon = 800;
        let config = ServeConfig::new(hm_config())
            .with_shards(4)
            .with_max_batch(16)
            .with_time_scale(40.0)
            .with_sibyl(sibyl_core::SibylConfig {
                train_interval: 250,
                ..Default::default()
            });

        // Streamed == materialized on the bench's own workload and config.
        let trace = Mix::Mix2.generate(horizon, 42);
        let vec_fed = serve_trace(&config, &trace).unwrap();
        let streamed = serve_stream(&config, Mix::Mix2.stream(horizon, 42).take(trace.len()));
        assert_eq!(vec_fed, streamed.unwrap());

        // Fixed horizon, 1x vs 8x the requests: compact and sublinear.
        let short =
            ServeExperiment::run_stream(&config, Mix::Mix2.stream(horizon, 42).take(2 * horizon))
                .unwrap();
        let long =
            ServeExperiment::run_stream(&config, Mix::Mix2.stream(horizon, 42).take(16 * horizon))
                .unwrap();
        for outcome in [&short, &long] {
            let report = &outcome.report;
            let bytes_per_page = report.total_directory_bytes() as f64
                / report.total_directory_pages().max(1) as f64;
            assert!(
                bytes_per_page <= 96.0,
                "directory not compact: {bytes_per_page:.1} B/page"
            );
        }
        assert!(
            long.report.total_directory_bytes() < 4 * short.report.total_directory_bytes(),
            "directory bytes must track footprint, not trace length: {} -> {}",
            short.report.total_directory_bytes(),
            long.report.total_directory_bytes()
        );
    }

    /// The BenchJson schema pin: field order, escaping, and the
    /// newline-terminated single-object layout are all byte-stable —
    /// consumers parse these artifacts across commits, so the exact
    /// rendering is part of the crate's contract.
    #[test]
    fn bench_json_schema_is_stable_and_escaped() {
        let mut t = Table::new(vec!["a".into(), "b\"q".into()]);
        t.add_row(vec!["x\n".into(), "1".into()]);
        let mut j = BenchJson::new("sec99_test", 100, 7);
        j.note("best", "mode \"x\"");
        j.table("rows", &t);
        j.text("folded", "a;b 1\n");
        assert_eq!(
            j.render(),
            "{\"schema\":1,\"target\":\"sec99_test\",\"requests\":100,\"seed\":7,\
             \"notes\":[{\"key\":\"best\",\"value\":\"mode \\\"x\\\"\"}],\
             \"tables\":[{\"name\":\"rows\",\"headers\":[\"a\",\"b\\\"q\"],\
             \"rows\":[[\"x\\n\",\"1\"]]}],\
             \"texts\":[{\"name\":\"folded\",\"text\":\"a;b 1\\n\"}]}\n"
        );
        // An empty artifact still carries every section, so consumers
        // never have to probe for missing keys.
        let empty = BenchJson::new("t", 0, 0).render();
        assert!(empty.contains("\"notes\":[]"));
        assert!(empty.contains("\"tables\":[]"));
        assert!(empty.contains("\"texts\":[]"));
    }

    #[test]
    fn bench_json_writes_its_rendering() {
        let j = BenchJson::new("sec99_roundtrip", 10, 3);
        let path = std::env::temp_dir().join("sibyl_bench_json_roundtrip.json");
        let path = path.to_str().expect("utf-8 temp path");
        j.write_to(path).expect("temp dir writable");
        let read = std::fs::read_to_string(path).expect("just written");
        assert_eq!(read, j.render());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn avg_row_is_geometric_mean() {
        let mut t = Table::new(vec!["w".into(), "x".into()]);
        let rows = vec![
            vec!["a".to_string(), "1.00".to_string()],
            vec!["b".to_string(), "4.00".to_string()],
        ];
        for r in &rows {
            t.add_row(r.clone());
        }
        append_avg_row(&mut t, &rows);
        assert!(t.render().contains("2.00"), "{}", t.render());
    }
}
