//! # sibyl-bench
//!
//! The figure harness. Every table and figure in the Sibyl paper's
//! motivation/evaluation sections has a `benches/figNN_*.rs` target that
//! regenerates its rows/series; this crate holds what they share:
//!
//! - [`Figure`] — a target's output. Everything handed to it is printed
//!   *and* recorded in one call, and [`Figure::finish`] writes the record
//!   as a JSON artifact when **`SIBYL_BENCH_JSON`** names a path — so all
//!   22 targets emit an artifact and none can print a table its artifact
//!   lacks.
//! - [`Figure::grid`] / [`Figure::sweep`] — the two table shapes the
//!   paper's figures have (HSS configurations × traces × policies, and
//!   swept parameter × policies). A figure is one `grid`/`sweep` call.
//! - [`median_ns`] — the one stopwatch behind every host-clock number
//!   the harness takes itself; the training-step table reads the
//!   learner's own phase accounts instead.
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
//!   the slow sweeps (`fig10`, `fig15`) in seconds.
//! - **`SIBYL_SEED`** — the workload seed (default 42). Trace synthesis,
//!   weight init, exploration, and replay sampling are all derived from
//!   explicit seeds, so two runs with identical `SIBYL_REQS`/`SIBYL_SEED`
//!   print byte-identical tables; changing `SIBYL_SEED` re-rolls the
//!   workloads for robustness checks.
//!
//! A value that does not parse (`SIBYL_REQS=1e4`) stops the target with a
//! message naming the variable: a measuring tool must not quietly run,
//! and label, a size nobody asked for.
//!
//! ```sh
//! SIBYL_REQS=2000 SIBYL_SEED=7 cargo bench -p sibyl-bench --bench fig09_latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io::Write;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sibyl_core::{Experience, Learner, SibylAgent, SibylConfig};
use sibyl_hss::{DeviceSpec, HssConfig, StorageManager};
use sibyl_nn::{Activation, Mlp};
use sibyl_serve::{
    CoopConfig, CoopMode, MigrateConfig, MigratePolicyKind, ServeConfig, ServeReport,
};
use sibyl_sim::report::Table;
use sibyl_sim::{Experiment, PolicyKind, SimError};
use sibyl_trace::mix::Mix;
use sibyl_trace::msrc::Workload;
use sibyl_trace::zipf::Zipf;
use sibyl_trace::{IoOp, IoRequest, Trace};

/// Requests per workload, overridable with `SIBYL_REQS`.
pub fn trace_len(default: usize) -> usize {
    env_or("SIBYL_REQS", default)
}

/// Workload seed, overridable with `SIBYL_SEED`.
pub fn seed() -> u64 {
    env_or("SIBYL_SEED", 42)
}

/// The environment's value for `var`, `default` when it is unset; a value
/// that does not parse ends the process with [`setting`]'s message.
fn env_or<T: std::str::FromStr>(var: &str, default: T) -> T {
    let raw = std::env::var_os(var).map(|v| v.to_string_lossy().into_owned());
    setting(var, raw.as_deref(), default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2)
    })
}

/// Parses the raw value of the environment variable `var`: `default` when
/// unset, otherwise the parsed value or a message naming both.
fn setting<T: std::str::FromStr>(var: &str, raw: Option<&str>, default: T) -> Result<T, String> {
    let Some(raw) = raw else { return Ok(default) };
    raw.parse().map_err(|_| {
        format!("{var}={raw:?} is not a non-negative integer; unset it for the default")
    })
}

/// The paper's performance-oriented H&M configuration (Optane + TLC SSD).
pub fn hm_config() -> HssConfig {
    HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd())
}

/// The paper's cost-oriented H&L configuration (Optane + HDD).
pub fn hl_config() -> HssConfig {
    HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd())
}

/// The paper's two dual-HSS configurations as [`Figure::grid`] panels.
pub fn hm_hl_panels() -> [(&'static str, &'static str, HssConfig); 2] {
    [
        ("hm", "(a) H&M HSS configuration", hm_config()),
        ("hl", "(b) H&L HSS configuration", hl_config()),
    ]
}

/// The paper's two tri-hybrid configurations, H&M&L and H&M&Lssd, as
/// [`Figure::grid`] panels.
pub fn tri_panels() -> [(&'static str, &'static str, HssConfig); 2] {
    let (h, m) = (DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
    let hml = HssConfig::tri(h.clone(), m.clone(), DeviceSpec::hdd());
    let hml_ssd = HssConfig::tri(h, m, DeviceSpec::cheap_ssd());
    [
        ("hml", "(a) H&M&L configuration", hml),
        ("hml_ssd", "(b) H&M&Lssd configuration", hml_ssd),
    ]
}

/// The serving engine's reference point — what `sec11_scale` sweeps and
/// `sec14`–`sec16`, `sec12_coop` and their regression tests hold fixed, so
/// the pinned numbers and the printed tables cannot drift apart: the H&M
/// pair, accelerated replay, the §10 NN cost charged at 20 ns per MAC
/// (≈ 76 µs per C51 forward pass — software inference on a busy core —
/// per batch, so a larger batch shows as lower latency, not just higher
/// IOPS), and a shorter train interval than the paper's 1000, so every
/// shard still trains a useful number of steps on its partition.
pub fn serving_config(shards: usize, max_batch: usize) -> ServeConfig {
    let sibyl = SibylConfig {
        train_interval: 250,
        ..Default::default()
    };
    ServeConfig::new(hm_config())
        .with_shards(shards)
        .with_max_batch(max_batch)
        .with_time_scale(40.0)
        .with_nn_ns_per_mac(20.0)
        .with_sibyl(sibyl)
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
/// under (shared with the bench-crate regression test): the reference
/// [`serving_config`] at batch 16 with curve sampling and a sync round
/// every 8 batches publishing half the experiences.
pub fn coop_config(shards: usize, mode: CoopMode) -> ServeConfig {
    let coop = CoopConfig::new(mode)
        .with_sync_period(8)
        .with_share_fraction(0.5);
    serving_config(shards, 16)
        .with_curve_every(8)
        .with_coop(coop)
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

/// Of labelled runs of one workload, the first is the baseline the others
/// challenge: the challenger whose aggregate latency is lowest, the first
/// such on ties, or `None` when only the baseline ran. `sec12_coop`'s
/// cooperation modes and `sec13_migration`'s migration policies are such
/// runs.
pub fn best_challenger<L>(runs: &[(L, ServeReport)]) -> Option<&(L, ServeReport)> {
    runs.iter().skip(1).min_by(|(_, a), (_, b)| {
        let (a, b) = (a.aggregate(), b.aggregate());
        a.avg_latency_us.total_cmp(&b.avg_latency_us)
    })
}

/// One row of `sec10_overhead`'s training-step latency table: the C51
/// training step at one replay-batch size, under both the deterministic
/// §10 cost model and the learner's own wall-clock accounts of the step
/// that runs.
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
    /// Measured wall-clock ns per trained sample of `Learner::train_step`:
    /// the median step's time over its `batches_per_step × batch` samples.
    /// At batch 128 the step is the in-situ one, the benchmark's
    /// `nn.train_us_per_sample`.
    pub ns_per_sample: f64,
    /// That step's time by `Learner::TRAIN_PHASES`, ns per sample, as the
    /// learner accounts it; the phases sum to `ns_per_sample`.
    pub phase_ns_per_sample: [f64; Learner::TRAIN_PHASES.len()],
}

/// The crate's one stopwatch: calls `f` `reps` times untimed to warm up,
/// then times `runs` rounds of `reps` calls each and returns the median
/// round's nanoseconds per call (the upper middle when `runs` is even).
pub fn median_ns(reps: u32, runs: usize, mut f: impl FnMut()) -> f64 {
    let [ns] = median_ns_each(reps, runs, [&mut f]);
    ns
}

/// [`median_ns`] for several closures at once, returning each one's
/// median. Within a round the closures take turns, starting one further
/// along each round, so a change in host load lands on all of them alike
/// — which is what lets two paths' medians be compared.
fn median_ns_each<const N: usize>(
    reps: u32,
    runs: usize,
    mut fs: [&mut dyn FnMut(); N],
) -> [f64; N] {
    let round = |f: &mut dyn FnMut()| (0..reps).for_each(|_| f());
    fs.iter_mut().for_each(|f| round(*f));
    let mut per_call = [(); N].map(|()| Vec::with_capacity(runs));
    for r in 0..runs {
        for k in 0..N {
            let i = (r + k) % N;
            let start = std::time::Instant::now();
            round(fs[i]);
            per_call[i].push(start.elapsed().as_nanos() as f64 / f64::from(reps));
        }
    }
    per_call.map(|mut ns| {
        ns.sort_by(f64::total_cmp);
        ns[runs / 2]
    })
}

/// Builds `sec10_overhead`'s training-step latency table: one
/// [`TrainStepRow`] per requested replay-batch size, timing the
/// [`Learner`] the agent trains with — [`SibylConfig::default`] at that
/// batch size, two actions (the 6-20-30-102 serving network, 3780 MACs)
/// and a full buffer of seeded transitions.
///
/// The modeled columns are pure arithmetic over `ns_per_mac` —
/// bit-identical across runs. The measured columns are the learner's own
/// phase accounts of its steps, each step started from the same weights:
/// Adam moves every weight by about the learning rate per step whatever
/// the gradient, so thousands of steps on one buffer would drive the
/// network into saturated, subnormal-heavy arithmetic no agent sees.
pub fn train_step_latency_rows(batches: &[usize], ns_per_mac: f64) -> Vec<TrainStepRow> {
    const N_ACTIONS: usize = 2;
    const OBS_LEN: usize = 6;
    // sibyl-lint: allow(entropy-rng) -- deliberate fixed harness seed: the latency table must measure identical transitions every run
    let mut rng = StdRng::seed_from_u64(0x5EC1_0000);
    let mut rows = Vec::with_capacity(batches.len());
    for &batch in batches {
        assert!(batch > 0, "train_step_latency_rows: zero batch");
        let config = SibylConfig {
            batch_size: batch,
            ..SibylConfig::default()
        };
        let mut learner = Learner::new(&config, N_ACTIONS, OBS_LEN);
        let mut observation =
            || -> Vec<f32> { (0..OBS_LEN).map(|_| rng.gen_range(0.0f32..1.0)).collect() };
        for i in 0..config.buffer_capacity {
            learner.push(Experience {
                obs: observation(),
                action: i % N_ACTIONS,
                reward: (i % 5) as f32 * 0.25,
                next_obs: observation(),
            });
        }
        let start = learner.flat_params();
        let samples = (config.batches_per_step * batch) as f64;
        // A few untimed steps warm the buffers up, then about 16k samples.
        let steps = (16_384 / (config.batches_per_step * batch)).max(9);
        let mut step_phases: Vec<[u64; Learner::TRAIN_PHASES.len()]> = Vec::with_capacity(steps);
        for step in 0..steps + 3 {
            learner.set_flat_params(&start);
            let before = learner.train_phase_ns();
            assert!(learner.train_step(), "the buffer is full");
            let after = learner.train_phase_ns();
            if step >= 3 {
                step_phases.push(std::array::from_fn(|i| after[i] - before[i]));
            }
        }
        step_phases.sort_by_key(|phases| phases.iter().sum::<u64>());
        let median = step_phases[step_phases.len() / 2];

        let macs = learner.inference().net.mac_count() as f64;
        let modeled_step_us = 2.0 * macs * ns_per_mac / 1_000.0;
        rows.push(TrainStepRow {
            batch,
            modeled_step_us,
            modeled_per_sample_us: modeled_step_us / batch as f64,
            ns_per_sample: median.iter().sum::<u64>() as f64 / samples,
            phase_ns_per_sample: median.map(|ns| ns as f64 / samples),
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
    /// Multiply-accumulates per decided row: the measured network's
    /// `mac_count`.
    pub macs: usize,
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
/// network (6-20-30-102, 3 780 MACs), the one a default agent serves with.
///
/// The modeled column is pure arithmetic over `ns_per_mac` —
/// bit-identical across runs — while the measured columns time the
/// retained scalar references and the tiled f32 kernels in turns over
/// identical seeded weights and inputs. The bench-crate
/// regression test uses the scalar/tiled pair to pin that tiling never
/// regresses the decide path.
pub fn infer_kernel_rows(batches: &[usize], ns_per_mac: f64) -> Vec<InferKernelRow> {
    // sibyl-lint: allow(entropy-rng) -- deliberate fixed harness seed: the kernel table must measure identical weights every run
    let mut rng = StdRng::seed_from_u64(0x5EC1_0001);
    // Two actions × the default atom count.
    let config = SibylConfig::default();
    let dims = [
        6,
        config.hidden_dims[0],
        config.hidden_dims[1],
        2 * config.n_atoms,
    ];
    let net = Mlp::new(&dims, Activation::Swish, Activation::Linear, &mut rng);
    let macs = net.mac_count() as f64;

    let mut rows = Vec::with_capacity(batches.len());
    for &batch in batches {
        assert!(batch > 0, "infer_kernel_rows: zero batch");
        let xs: Vec<f32> = (0..batch * 6).map(|_| rng.gen_range(0.0f32..1.0)).collect();

        let (mut cur, mut next) = (Vec::new(), Vec::new());
        // Both passes in turns, nine timed rounds of about 2k rows each.
        let [scalar_ns, tiled_ns] = median_ns_each(
            (2048 / batch).max(8) as u32,
            9,
            [
                &mut || {
                    scalar_infer_batch(&net, &xs, batch, &mut cur, &mut next);
                    std::hint::black_box(&cur);
                },
                &mut || {
                    std::hint::black_box(net.infer_batch(&xs, batch));
                },
            ],
        )
        .map(|ns| ns / batch as f64 / macs);

        rows.push(InferKernelRow {
            batch,
            macs: net.mac_count(),
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
/// five passes, each pass on a manager of its own — built before the clock
/// starts, then filled, read and written in that order, so only `access`
/// calls are timed and every hit pass is the first over its manager.
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
    let serve = |manager: &mut StorageManager, reqs: &[IoRequest]| {
        for req in reqs {
            std::hint::black_box(manager.access(req, slow));
        }
    };
    let per_page = |pass_ns: f64, reqs: &[IoRequest]| {
        pass_ns / reqs.iter().map(|r| f64::from(r.size_pages)).sum::<f64>()
    };
    // One manager per round of the stopwatch, its warm-up round included.
    let mut managers: Vec<StorageManager> = (0..=RUNS).map(|_| StorageManager::new(&hss)).collect();
    let mut pass = |reqs: &[IoRequest]| {
        let mut round = managers.iter_mut();
        median_ns(1, RUNS, || {
            serve(round.next().expect("RUNS + 1 rounds"), reqs)
        })
    };
    let (first, read, write) = (pass(&fill), pass(&reads), pass(&writes));
    let hm_1 = Experiment::new(
        hm_config(),
        sibyl_trace::msrc::generate(Workload::Hm1, n as usize, seed),
    );
    let fast_only = median_ns(1, RUNS, || {
        std::hint::black_box(hm_1.run(PolicyKind::FastOnly)).expect("hm_1 is not empty");
    });
    HssAccessCost {
        first_touch_ns_per_page: per_page(first, &fill),
        read_hit_ns_per_page: per_page(read, &reads),
        write_hit_ns_per_page: per_page(write, &writes),
        fast_only_us_per_req: fast_only / 1_000.0 / n as f64,
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

/// `s` as a JSON string literal, quoted and escaped.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Already-rendered JSON values as a JSON array.
fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// A bench target's output, printed and recorded in one place: the
/// banner, then every table, note and text the target hands over goes to
/// stdout *and* into a machine-readable artifact that [`Figure::finish`]
/// writes when the **`SIBYL_BENCH_JSON`** environment variable names an
/// output path. CI sets it per target and uploads the files as run
/// artifacts, so the printed numbers can be tracked across commits
/// without scraping stdout.
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
#[derive(Debug)]
pub struct Figure<W: Write = std::io::Stdout> {
    out: W,
    target: String,
    requests: usize,
    seed: u64,
    notes: Vec<(String, String)>,
    tables: Vec<(String, Table)>,
    texts: Vec<(String, String)>,
}

impl Figure {
    /// Starts `target` (the bench's cargo target name) on stdout: prints
    /// the `title`/`caption` banner and records the request count and
    /// [`seed`] the run uses.
    pub fn new(target: &str, title: &str, caption: &str, requests: usize) -> Self {
        Figure::to(std::io::stdout(), target, title, caption, requests, seed())
    }
}

impl<W: Write> Figure<W> {
    /// [`Figure::new`] printing to `out`, with an explicit seed.
    fn to(out: W, target: &str, title: &str, caption: &str, requests: usize, seed: u64) -> Self {
        let mut figure = Figure {
            out,
            target: target.to_string(),
            requests,
            seed,
            notes: Vec::new(),
            tables: Vec::new(),
            texts: Vec::new(),
        };
        figure.emit(format_args!("\n=== {title} ===\n{caption}\n\n"));
        figure
    }

    fn emit(&mut self, text: std::fmt::Arguments<'_>) {
        self.out
            .write_fmt(text)
            .expect("the figure's output is writable");
    }

    /// Prints `table` (followed by a blank line) and records it under
    /// `name`, cell for cell.
    pub fn table(&mut self, name: &str, table: &Table) {
        self.emit(format_args!("{}\n", table.render()));
        self.tables.push((name.to_string(), table.clone()));
    }

    /// Prints `value` where the line the target is printing has got to —
    /// no newline; the target `print!`s the words around it — and records
    /// it under `key` (summary scalars, best-mode verdicts: anything stated
    /// outside a table, several to a sentence if need be).
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        let value = value.to_string();
        self.emit(format_args!("{value}"));
        self.notes.push((key.to_string(), value));
    }

    /// Prints a multi-line `text` (tail dumps, a rendered dashboard) and
    /// records it verbatim under `name`.
    pub fn text(&mut self, name: &str, text: &str) {
        self.emit(format_args!("{text}\n"));
        self.record_text(name, text);
    }

    /// Records `text` without printing it (exports too long to read on a
    /// terminal, such as folded stacks).
    pub fn record_text(&mut self, name: &str, text: &str) {
        self.texts.push((name.to_string(), text.to_string()));
    }

    /// Renders the record as its single-object JSON document.
    fn render(&self) -> String {
        let strings = |cells: &[String]| json_array(cells.iter().map(|c| json_str(c)));
        let pair = |a: &str, first: &str, b: &str, second: &str| {
            format!(
                "{{\"{a}\":{},\"{b}\":{}}}",
                json_str(first),
                json_str(second)
            )
        };
        let notes = self.notes.iter().map(|(k, v)| pair("key", k, "value", v));
        let tables = self.tables.iter().map(|(name, table)| {
            format!(
                "{{\"name\":{},\"headers\":{},\"rows\":{}}}",
                json_str(name),
                strings(table.headers()),
                json_array(table.rows().iter().map(|row| strings(row)))
            )
        });
        let texts = self.texts.iter().map(|(n, t)| pair("name", n, "text", t));
        format!(
            "{{\"schema\":1,\"target\":{},\"requests\":{},\"seed\":{},\
             \"notes\":{},\"tables\":{},\"texts\":{}}}\n",
            json_str(&self.target),
            self.requests,
            self.seed,
            json_array(notes),
            json_array(tables),
            json_array(texts)
        )
    }

    /// Ends the target: writes the artifact to the path `SIBYL_BENCH_JSON`
    /// names and says so, or does nothing when the variable is unset or
    /// empty (the default local run).
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the path cannot be written.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.finish_to(&std::env::var("SIBYL_BENCH_JSON").unwrap_or_default())
    }

    /// [`Figure::finish`] with the variable's value passed in.
    fn finish_to(&mut self, path: &str) -> std::io::Result<()> {
        if !path.is_empty() {
            std::fs::write(path, self.render())?;
            self.emit(format_args!("bench JSON written to {path}\n"));
        }
        Ok(())
    }

    /// The table shape of Figs. 2, 9–13, 16 and 18: per HSS configuration
    /// in `panels` — `(artifact table name, heading line printed above the
    /// table unless empty, configuration)` — one table whose rows are
    /// `traces`, whose columns are the labelled policies and whose last
    /// row, `AVG`, is each column's [`Cell`] mean over the unrounded
    /// values. Returns those unrounded `AVG` rows, one per panel.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for an empty trace.
    pub fn grid(
        &mut self,
        panels: &[(&str, &str, HssConfig)],
        row_header: &str,
        traces: &[Trace],
        columns: &[(&str, PolicyKind)],
        cell: Cell,
    ) -> Result<Vec<Vec<f64>>, SimError> {
        let labels = columns.iter().map(|(label, _)| *label);
        let policies: Vec<PolicyKind> = columns.iter().map(|(_, p)| p.clone()).collect();
        let mut averages = Vec::with_capacity(panels.len());
        for (name, heading, hss) in panels {
            let mut table = Table::new(std::iter::once(row_header).chain(labels.clone()));
            let mut values = Vec::with_capacity(traces.len());
            for trace in traces {
                let row = cell.values(hss, trace, &policies)?;
                table.add_row(cell.row(trace.name(), &row));
                values.push(row);
            }
            let avg: Vec<f64> = (0..columns.len())
                .map(|c| cell.mean(&values.iter().map(|row| row[c]).collect::<Vec<_>>()))
                .collect();
            table.add_row(cell.row("AVG", &avg));
            if !heading.is_empty() {
                self.emit(format_args!("{heading}\n"));
            }
            self.table(name, &table);
            averages.push(avg);
        }
        Ok(averages)
    }

    /// The table shape of Figs. 8, 14 and 15: one row per swept point
    /// `(row label, configuration, policies)`; each group of traces in
    /// `groups` contributes one cell per policy, the arithmetic mean of
    /// that policy's [`Cell`] value over the group.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for an empty trace.
    pub fn sweep(
        &mut self,
        name: &str,
        headers: &[&str],
        points: &[(String, HssConfig, Vec<PolicyKind>)],
        groups: &[&[Trace]],
        cell: Cell,
    ) -> Result<(), SimError> {
        let mut table = Table::new(headers.iter().copied());
        for (label, hss, policies) in points {
            let mut means = Vec::new();
            for group in groups {
                let mut sums = vec![0.0f64; policies.len()];
                for trace in *group {
                    let values = cell.values(hss, trace, policies)?;
                    sums.iter_mut().zip(values).for_each(|(s, v)| *s += v);
                }
                means.extend(sums.iter().map(|s| s / group.len() as f64));
            }
            table.add_row(cell.row(label, &means));
        }
        self.table(name, &table);
        Ok(())
    }
}

/// What a [`Figure::grid`] or [`Figure::sweep`] cell measures — which
/// also fixes the precision it prints at and the mean its `AVG` row takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cell {
    /// Average request latency over Fast-Only's. Two decimals; a ratio,
    /// so `AVG` is the geometric mean.
    NormLatency,
    /// IOPS over Fast-Only's, both replayed with think time compressed by
    /// this factor so device capacity, not arrival rate, bounds them.
    /// Three decimals; geometric mean.
    NormIops(f64),
    /// Eviction events per request. Three decimals; `AVG` is the
    /// arithmetic mean — fractions are often exactly 0, where a geometric
    /// mean collapses to 0 whatever the other rows say.
    EvictionFraction,
}

impl Cell {
    /// One value per policy on `trace` under `hss`. The normalized cells
    /// are [`Experiment::suite`]'s (Fast-Only run once, reused for a
    /// Fast-Only column); eviction fractions need no baseline and run none.
    fn values(
        self,
        hss: &HssConfig,
        trace: &Trace,
        policies: &[PolicyKind],
    ) -> Result<Vec<f64>, SimError> {
        let exp = Experiment::new(hss.clone(), trace.clone());
        let each = 0..policies.len();
        Ok(match self {
            Cell::NormLatency => {
                let suite = exp.suite(policies)?;
                each.map(|i| suite.normalized_latency(i)).collect()
            }
            Cell::NormIops(time_scale) => {
                let suite = exp.with_time_scale(time_scale).suite(policies)?;
                each.map(|i| suite.normalized_iops(i)).collect()
            }
            Cell::EvictionFraction => {
                let mut fractions = Vec::with_capacity(policies.len());
                for policy in policies {
                    fractions.push(exp.run(policy.clone())?.metrics.eviction_fraction);
                }
                fractions
            }
        })
    }

    fn mean(self, values: &[f64]) -> f64 {
        let n = values.len() as f64;
        match self {
            Cell::EvictionFraction => values.iter().sum::<f64>() / n,
            _ => (values.iter().map(|v| v.ln()).sum::<f64>() / n).exp(),
        }
    }

    /// A table row: `label`, then each value at this cell's precision.
    fn row(self, label: &str, values: &[f64]) -> Vec<String> {
        let digits = if self == Cell::NormLatency { 2 } else { 3 };
        std::iter::once(label.to_string())
            .chain(values.iter().map(|v| format!("{v:.digits$}")))
            .collect()
    }
}

/// §8: Sibyl's average latency gain over the best baseline on H&M.
pub const PAPER_GAIN_VS_BEST_HM: f64 = 0.216;
/// §8: Sibyl's average latency gain over the best baseline on H&L.
pub const PAPER_GAIN_VS_BEST_HL: f64 = 0.199;
/// §8: the share of the Oracle's performance Sibyl reaches ("~80 %").
pub const PAPER_SHARE_OF_ORACLE: f64 = 0.80;

/// Fig. 9's average against §8's published numbers: given the
/// [`Figure::grid`] `columns` and the unrounded `AVG` rows it returned for
/// [`hm_hl_panels`], one row per panel and claim with this repo's value,
/// the paper's and the difference (this repo − paper).
///
/// The gain is `1 − Sibyl / best baseline`, the best baseline being the
/// lowest average among the policies that are neither Sibyl nor the
/// Oracle; the Oracle share is `Oracle / Sibyl` (latency, so performance
/// inverted).
///
/// # Panics
///
/// Panics unless `columns` hold Sibyl, the Oracle and a baseline, and
/// `averages` one row per H&M/H&L panel.
pub fn vs_paper(columns: &[(&str, PolicyKind)], averages: &[Vec<f64>]) -> Table {
    let column = |wanted: fn(&PolicyKind) -> bool| {
        columns
            .iter()
            .position(|(_, p)| wanted(p))
            .expect("the columns hold Sibyl and the Oracle")
    };
    let sibyl = column(|p| matches!(p, PolicyKind::Sibyl(_)));
    let oracle = column(|p| matches!(p, PolicyKind::Oracle));
    let [hm, hl] = averages else {
        panic!("one AVG row per H&M/H&L panel");
    };
    let mut table = Table::new(["claim", "this repo", "paper", "difference"]);
    for (panel, avg, paper_gain) in [
        ("H&M", hm, PAPER_GAIN_VS_BEST_HM),
        ("H&L", hl, PAPER_GAIN_VS_BEST_HL),
    ] {
        let best = (0..avg.len())
            .filter(|&c| c != sibyl && c != oracle)
            .map(|c| avg[c])
            .reduce(f64::min)
            .expect("the columns hold a baseline");
        for (claim, ours, paper) in [
            ("gain vs best baseline", 1.0 - avg[sibyl] / best, paper_gain),
            (
                "share of Oracle",
                avg[oracle] / avg[sibyl],
                PAPER_SHARE_OF_ORACLE,
            ),
        ] {
            table.add_row(vec![
                format!("{panel} {claim}"),
                format!("{ours:.3}"),
                format!("{paper:.3}"),
                format!("{:.3}", ours - paper),
            ]);
        }
    }
    table
}

/// Labels each policy with its display name, as [`Figure::grid`] columns.
pub fn by_name(policies: Vec<PolicyKind>) -> Vec<(&'static str, PolicyKind)> {
    policies.into_iter().map(|p| (p.name(), p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The comparison finds Sibyl and the Oracle by policy and takes the
    /// best of the rest, on hand-checkable averages.
    #[test]
    fn vs_paper_compares_sibyl_with_the_best_baseline_and_the_oracle() {
        let columns = by_name(PolicyKind::standard_suite());
        let labels: Vec<&str> = columns.iter().map(|(label, _)| *label).collect();
        assert_eq!(
            labels,
            [
                "Slow-Only",
                "CDE",
                "HPS",
                "Archivist",
                "RNN-HSS",
                "Sibyl",
                "Oracle"
            ]
        );
        let hm = vec![4.0, 2.5, 4.5, 3.0, 3.0, 2.0, 1.6];
        let hl = vec![27.0, 9.0, 23.0, 20.0, 21.0, 27.0, 7.0];
        let table = vs_paper(&columns, &[hm, hl]);
        let cells: Vec<Vec<&str>> = table
            .rows()
            .iter()
            .map(|row| row.iter().map(String::as_str).collect())
            .collect();
        assert_eq!(
            cells,
            [
                ["H&M gain vs best baseline", "0.200", "0.216", "-0.016"],
                ["H&M share of Oracle", "0.800", "0.800", "0.000"],
                ["H&L gain vs best baseline", "-2.000", "0.199", "-2.199"],
                ["H&L share of Oracle", "0.259", "0.800", "-0.541"],
            ]
        );
    }

    /// Both variables: unset means the default, and a value that does not
    /// parse is an error naming the variable and the value — never the
    /// default under the requested label.
    #[test]
    fn settings_default_when_unset_and_reject_what_does_not_parse() {
        assert_eq!(setting("SIBYL_REQS", None, 1234usize), Ok(1234));
        assert_eq!(setting("SIBYL_SEED", None, 42u64), Ok(42));
        assert_eq!(setting("SIBYL_REQS", Some("800"), 1234usize), Ok(800));
        assert_eq!(setting("SIBYL_SEED", Some("7"), 42u64), Ok(7));
        for (var, raw) in [
            ("SIBYL_REQS", "1e4"),
            ("SIBYL_SEED", "-3"),
            ("SIBYL_REQS", ""),
        ] {
            let message = setting(var, Some(raw), 0u64).unwrap_err();
            assert!(
                message.contains(var) && message.contains(&format!("{raw:?}")),
                "{message}"
            );
        }
    }

    #[test]
    fn configs_have_expected_shapes() {
        assert_eq!(hm_config().num_devices(), 2);
        assert!(tri_panels()
            .iter()
            .all(|(_, _, hss)| hss.num_devices() == 3));
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
        use sibyl_serve::serve_trace;

        let trace = skewed_coop_trace(6_000, 42);
        let serve = |mode| {
            let report = serve_trace(&coop_config(4, mode), &trace).unwrap();
            report.aggregate()
        };
        let independent = serve(CoopMode::Independent);
        let norm = serve(CoopMode::WeightAverage).normalized_latency(&independent);
        assert!(
            norm < 1.0,
            "weight averaging should serve the skewed mix faster: norm lat {norm:.3}"
        );
        let shared = serve(CoopMode::SharedReplay).normalized_latency(&independent);
        assert!(
            shared < 1.0,
            "shared replay should serve the skewed mix faster: norm lat {shared:.3}"
        );
    }

    /// The baseline never challenges, and of equally fast challengers the
    /// first wins — sec12's and sec13's "best" notes depend on both.
    #[test]
    fn best_challenger_skips_the_baseline_and_keeps_the_first_tie() {
        let idle = || ServeReport {
            shards: Vec::new(),
            telemetry: None,
            xray: None,
        };
        assert!(best_challenger(&[("base", idle())]).is_none());
        let runs = [("base", idle()), ("first", idle()), ("second", idle())];
        assert_eq!(
            best_challenger(&runs).map(|(label, _)| *label),
            Some("first")
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
        use sibyl_serve::serve_trace;
        use sibyl_trace::synth;

        let trace = synth::diurnal(8_000, 5, 42);
        let serve = |policy| serve_trace(&migration_config(policy), &trace).unwrap();
        let baseline = serve(MigratePolicyKind::None).aggregate();
        let hc = serve(MigratePolicyKind::HotCold)
            .aggregate()
            .normalized_latency(&baseline);
        let rl_report = serve(MigratePolicyKind::Rl);
        let rl = rl_report.aggregate().normalized_latency(&baseline);
        assert!(
            rl < 0.995,
            "RL migration should beat no-migration on the phased trace: norm lat {rl:.3}"
        );
        assert!(
            hc < 0.95,
            "hot-cold migration should beat no-migration clearly: norm lat {hc:.3}"
        );
        let promoted: u64 = rl_report
            .shards
            .iter()
            .map(|s| s.stats.bg_promoted_pages)
            .sum();
        assert!(
            promoted > 0,
            "the RL agent must actually migrate to earn its win"
        );
    }

    /// The sec10_overhead training-latency pins: the table's modeled
    /// latency columns are bit-deterministic across runs and drop
    /// monotonically with batch size, every phase of the learner's step
    /// is timed, and each row's phases add up to its ns/sample. (That
    /// the batched step is no slower than the per-sample loop it replaced
    /// is pinned beside both, in `sibyl-core`'s learner tests.)
    #[test]
    fn training_step_table_is_the_learners_own_account() {
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
        for row in &rows_a {
            assert!(
                row.phase_ns_per_sample
                    .iter()
                    .all(|ns| ns.is_finite() && *ns > 0.0),
                "every phase is timed: {row:?}"
            );
            let sum: f64 = row.phase_ns_per_sample.iter().sum();
            assert!(
                (sum - row.ns_per_sample).abs() <= 1e-9 * row.ns_per_sample,
                "the phases are the step: {row:?}"
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
    /// and 1/64-sampled x-ray tracing each change zero placement decisions
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
        use sibyl_serve::{serve_trace, TelemetryConfig, XrayConfig};
        use sibyl_trace::mix::Mix;

        let trace = Mix::Mix2.generate(6_000, 42);
        let base = serving_config(4, 16).with_curve_every(8);
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

            // The engine's per-request cost, the fastest of 3 runs at 1
            // shard — the smallest denominator, so the strictest bound: the
            // observer work being bounded is identical per shard loop, and
            // the single-worker run avoids the thread-scheduling spread of
            // multi-shard wall-clock. Measured once for both bounds.
            let base_1 = base.clone().with_shards(1);
            let serve = || {
                std::hint::black_box(serve_trace(&base_1, &trace).unwrap());
            };
            let serve_ns = (0..3)
                .map(|_| median_ns(1, 1, serve))
                .fold(f64::INFINITY, f64::min);
            let request_ns = serve_ns / trace.len() as f64;

            // Each round feeds a fresh observer, so the stopwatch's warm-up
            // round warms the code, not the buffers the timed round grows.
            const ITERS: u64 = 200_000;
            for (name, telemetry, xray, bound) in observers {
                let round_ns = median_ns(1, 1, || {
                    let mut observer = ShardObserver::new(&telemetry, &xray, 0, 42);
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
                    std::hint::black_box(&observer);
                });
                let observer_ns = round_ns / ITERS as f64;
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
        use sibyl_serve::{serve_stream, serve_trace};
        use sibyl_trace::mix::Mix;

        let horizon = 800;
        let config = serving_config(4, 16);

        // Streamed == materialized on the bench's own workload and config.
        let trace = Mix::Mix2.generate(horizon, 42);
        let vec_fed = serve_trace(&config, &trace).unwrap();
        let streamed = serve_stream(&config, Mix::Mix2.stream(horizon, 42).take(trace.len()));
        assert_eq!(vec_fed, streamed.unwrap());

        // Fixed horizon, 1x vs 8x the requests: compact and sublinear.
        let short = serve_stream(&config, Mix::Mix2.stream(horizon, 42).take(2 * horizon)).unwrap();
        let long = serve_stream(&config, Mix::Mix2.stream(horizon, 42).take(16 * horizon)).unwrap();
        for report in [&short, &long] {
            let bytes_per_page = report.total_directory_bytes() as f64
                / report.total_directory_pages().max(1) as f64;
            assert!(
                bytes_per_page <= 96.0,
                "directory not compact: {bytes_per_page:.1} B/page"
            );
        }
        assert!(
            long.total_directory_bytes() < 4 * short.total_directory_bytes(),
            "directory bytes must track footprint, not trace length: {} -> {}",
            short.total_directory_bytes(),
            long.total_directory_bytes()
        );
    }

    /// A figure printing into memory, for the harness tests.
    fn captured(target: &str, requests: usize, seed: u64) -> Figure<Vec<u8>> {
        Figure::to(Vec::new(), target, "Figure 99", "caption", requests, seed)
    }

    /// The artifact schema pin: field order, escaping, and the
    /// newline-terminated single-object layout are all byte-stable —
    /// consumers parse these artifacts across commits, so the exact
    /// rendering is part of the crate's contract.
    #[test]
    fn bench_json_schema_is_stable_and_escaped() {
        let mut t = Table::new(["a", "b\"q"]);
        t.add_row(vec!["x\n".into(), "1".into()]);
        let mut j = captured("sec99_test", 100, 7);
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
        let empty = captured("t", 0, 0).render();
        assert!(empty.contains("\"notes\":[]"));
        assert!(empty.contains("\"tables\":[]"));
        assert!(empty.contains("\"texts\":[]"));
    }

    /// Print ≡ record: the banner, then everything handed to `table`,
    /// `note` and `text` is on the terminal verbatim and in the artifact;
    /// what is only recorded is in the artifact alone.
    #[test]
    fn figure_prints_what_it_records() {
        let mut t = Table::new(["workload", "Sibyl"]);
        t.add_row(vec!["hm_1".into(), "1.23".into()]);
        let mut fig = captured("fig99_test", 300, 7);
        fig.table("hm", &t);
        fig.note("best", "hot-cold");
        fig.note("norm_lat", format_args!("{:.1}", 0.94));
        fig.text("tail", "#1 shard 0\n  request 1.0 us");
        fig.record_text("folded", "a;b 1\n");
        let printed = String::from_utf8(fig.out.clone()).expect("utf-8");
        assert_eq!(
            printed,
            format!(
                "\n=== Figure 99 ===\ncaption\n\n{}\nhot-cold0.9\
                 #1 shard 0\n  request 1.0 us\n",
                t.render()
            )
        );
        let json = fig.render();
        for recorded in [
            r#"{"name":"hm","headers":["workload","Sibyl"],"rows":[["hm_1","1.23"]]}"#,
            r#"[{"key":"best","value":"hot-cold"},{"key":"norm_lat","value":"0.9"}]"#,
            r##"{"name":"tail","text":"#1 shard 0\n  request 1.0 us"}"##,
            r#"{"name":"folded","text":"a;b 1\n"}"#,
        ] {
            assert!(json.contains(recorded), "{recorded} not recorded:\n{json}");
        }
    }

    /// `finish` writes exactly the rendering to the path it is given and
    /// says so on the terminal; given no path it writes and says nothing.
    #[test]
    fn bench_json_writes_its_rendering() {
        let mut fig = captured("sec99_roundtrip", 10, 3);
        let banner = fig.out.len();
        fig.finish_to("").expect("nothing to write");
        assert_eq!(fig.out.len(), banner, "no path, no line");

        let path = std::env::temp_dir().join("sibyl_bench_json_roundtrip.json");
        let path = path.to_str().expect("utf-8 temp path");
        fig.finish_to(path).expect("temp dir writable");
        let read = std::fs::read_to_string(path).expect("just written");
        assert_eq!(read, fig.render());
        let said = format!("bench JSON written to {path}\n");
        assert_eq!(fig.out[banner..], *said.as_bytes());
        let _ = std::fs::remove_file(path);
    }

    /// Two 300-request traces for the grid and sweep tests.
    fn short_traces() -> [Trace; 2] {
        [Workload::Hm1, Workload::Prxy1].map(|w| sibyl_trace::msrc::generate(w, 300, 7))
    }

    /// Column `c` of the `t`-th recorded table, parsed.
    fn column(fig: &Figure<Vec<u8>>, t: usize, c: usize) -> Vec<f64> {
        let rows = fig.tables[t].1.rows().iter();
        rows.map(|r| r[c].parse().expect("numeric cell")).collect()
    }

    /// `grid` on 300-request traces: a Fast-Only column is exactly 1.00 in
    /// every row and in AVG (it is the baseline run itself; that there is
    /// one per (configuration, trace) is pinned beside the loop, in
    /// `sibyl_sim`), and the eviction AVG is its column's arithmetic mean.
    #[test]
    fn grid_normalizes_to_fast_only_and_averages_its_columns() -> Result<(), SimError> {
        let (traces, mut fig) = (short_traces(), captured("fig99_grid", 300, 7));
        let columns = by_name(vec![PolicyKind::FastOnly, PolicyKind::Cde]);
        let (latency, evictions) = (Cell::NormLatency, Cell::EvictionFraction);
        fig.grid(&hm_hl_panels(), "workload", &traces, &columns, latency)?;
        for (name, table) in &fig.tables {
            let labels: Vec<&str> = table.rows().iter().map(|r| r[0].as_str()).collect();
            assert_eq!(labels, ["hm_1", "prxy_1", "AVG"], "{name}");
            assert!(table.rows().iter().all(|r| r[1] == "1.00"), "{table:?}");
        }
        let printed = String::from_utf8(fig.out.clone()).expect("utf-8");
        assert!(printed.contains("(b) H&L HSS configuration\nworkload  Fast-Only"));

        let panel = [("hm", "", hm_config())];
        fig.grid(&panel, "workload", &traces, &columns[1..], evictions)?;
        let cde = column(&fig, 2, 1);
        assert!((cde[2] - (cde[0] + cde[1]) / 2.0).abs() <= 0.001, "{cde:?}");
        Ok(())
    }

    /// The AVG regression: the mean is taken over the values, with the
    /// mean the figure names. The parent re-parsed the printed cells and
    /// took a geometric mean with zeros clamped to 1e-12, which printed
    /// Fig. 18's CDE column as 0.00 over cells like these.
    #[test]
    fn avg_is_arithmetic_for_fractions_and_geometric_for_ratios() {
        for (cell, values, avg) in [
            (Cell::EvictionFraction, [0.0, 0.5, 0.6], "0.367"),
            (Cell::NormLatency, [1.0, 2.0, 4.0], "2.00"),
            (Cell::NormIops(40.0), [0.25, 0.5, 1.0], "0.500"),
        ] {
            assert_eq!(cell.row("AVG", &[cell.mean(&values)]), ["AVG", avg]);
        }
    }

    /// `sweep` means each trace group into one cell per policy: the
    /// two-trace group's Slow-Only cell is the mean of the one-trace
    /// groups' cells.
    #[test]
    fn sweep_means_each_trace_group() -> Result<(), SimError> {
        let (traces, mut fig) = (short_traces(), captured("fig99_sweep", 300, 7));
        let policies = vec![PolicyKind::FastOnly, PolicyKind::SlowOnly];
        let points = [("x".to_string(), hm_config(), policies)];
        let (one, two) = (["p", "fast", "slow"], ["p", "fast", "slow", "fast", "slow"]);
        let (both, each): ([&[Trace]; 1], [&[Trace]; 2]) =
            ([&traces], [&traces[..1], &traces[1..]]);
        fig.sweep("both", &one, &points, &both, Cell::NormLatency)?;
        fig.sweep("each", &two, &points, &each, Cell::NormLatency)?;
        assert_eq!(fig.tables[1].1.rows()[0][..2], ["x", "1.00"]);
        let both = column(&fig, 0, 2)[0];
        let each = [column(&fig, 1, 2)[0], column(&fig, 1, 4)[0]];
        assert!(
            (both - (each[0] + each[1]) / 2.0).abs() <= 0.01,
            "{both} vs {each:?}"
        );
        Ok(())
    }

    /// The stopwatch reports the middle round, not the mean or an
    /// extreme: after the warm-up call, rounds of 2, 60 and 20 ms.
    #[test]
    fn median_ns_is_the_middle_of_an_odd_run_count() {
        let mut naps = [0, 2, 60, 20]
            .map(std::time::Duration::from_millis)
            .into_iter();
        let ns = median_ns(1, 3, || {
            std::thread::sleep(naps.next().expect("four calls"))
        });
        assert!((20e6..60e6).contains(&ns), "2/60/20 ms rounds: {ns} ns");
    }
}
