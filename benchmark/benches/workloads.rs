//! The four workloads and one *untraced* repetition of each: set up,
//! warm up, make exactly one timed call into the engine, check what came
//! back. Everything here goes through the layers' public functions.

use std::time::Instant;

use sibyl_coop::{CoopConfig, CoopMode};
use sibyl_core::{AgentStats, SibylConfig};
use sibyl_hss::{DeviceSpec, HssConfig, HssStats};
use sibyl_migrate::{MigrateConfig, MigratePolicyKind};
use sibyl_serve::{serve_stream, ServeConfig, ServeReport};
use sibyl_sim::{Experiment, Metrics, PolicyKind};
use sibyl_telemetry::TelemetryConfig;
use sibyl_trace::mix::Mix;
use sibyl_trace::msrc;
use sibyl_trace::stream::MixStream;
use sibyl_xray::XrayConfig;

use crate::json::Value;
use crate::probes::{self, Fingerprint};

/// ISSUE 11 sizes every workload for a ~5–6 s repetition and lets the
/// harness scale all of them by one common factor. Host noise on the
/// reference container is one-sided and comes in episodes of seconds to
/// tens of seconds, so many ~1 s repetitions find a quiet window where a
/// few long ones do not (benchmark/README.md, "Measured noise"); this
/// factor gives ~1 s repetitions and is recorded in every report.
pub const REQUEST_SCALE: f64 = 0.2;

/// `--quick` divides every request count by this (tests, smoke runs).
pub const QUICK_DIVISOR: usize = 20;

/// Per-component horizon of the mixed streams: fixes the page footprint
/// every serve workload streams over (the `sec14_scale` calibration).
const MIX_HORIZON: usize = 50_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeLearn,
    ServeSteady,
    FullStack,
    PaperSuite,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeLearn,
        Workload::ServeSteady,
        Workload::FullStack,
        Workload::PaperSuite,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeLearn => "serve-learn",
            Workload::ServeSteady => "serve-steady",
            Workload::FullStack => "full-stack",
            Workload::PaperSuite => "paper-suite",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests of one repetition at scale 1: the stream length of a
    /// serve workload, the length of *each* generated trace on
    /// `paper-suite` (which replays it once per cell and policy).
    fn base_requests(self) -> usize {
        match self {
            Workload::ServeLearn => 300_000,
            Workload::ServeSteady => 1_200_000,
            Workload::FullStack => 600_000,
            Workload::PaperSuite => 25_000,
        }
    }

    pub fn requests(self, quick: bool) -> usize {
        let scaled = (self.base_requests() as f64 * REQUEST_SCALE) as usize;
        if quick {
            scaled / QUICK_DIVISOR
        } else {
            scaled
        }
    }
}

/// A serve workload: the engine configuration and the stream it replays.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub config: ServeConfig,
    pub mix: Mix,
    pub requests: usize,
}

impl ServeSpec {
    /// `None` for `paper-suite`, which bypasses the serving engine.
    pub fn new(workload: Workload, requests: usize) -> Option<ServeSpec> {
        let hm = || HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
        let with_train_interval = |train_interval| SibylConfig {
            train_interval,
            ..Default::default()
        };
        let (config, mix) = match workload {
            // sec14's agent minus the §10 cost knobs: an agent that is
            // still learning, retraining every 250 requests.
            Workload::ServeLearn => (
                ServeConfig::new(hm())
                    .with_shards(2)
                    .with_max_batch(16)
                    .with_time_scale(40.0)
                    .with_sibyl(with_train_interval(250)),
                Mix::Mix2,
            ),
            // A converged agent: 16x rarer training than Table 2, one
            // shard, so the decide/serve/route path dominates.
            Workload::ServeSteady => (
                ServeConfig::new(hm())
                    .with_shards(1)
                    .with_max_batch(16)
                    .with_time_scale(40.0)
                    .with_sibyl(with_train_interval(16_000)),
                Mix::Mix2,
            ),
            // Every subsystem on: three devices, cooperation (barriers,
            // unbounded queues), RL migration, both observers. ISSUE 11
            // asked for `time_scale 1`; at this length that replay is
            // arrival-limited, so its modeled IOPS and latency measure the
            // trace's think times and swing 12–24 % from seed to seed.
            // Compressed like the other two it is device-bound and steady.
            Workload::FullStack => (
                ServeConfig::new(HssConfig::tri(
                    DeviceSpec::optane_ssd(),
                    DeviceSpec::tlc_ssd(),
                    DeviceSpec::cheap_ssd(),
                ))
                .with_shards(2)
                .with_max_batch(16)
                .with_time_scale(40.0)
                .with_coop(CoopConfig::new(CoopMode::Both))
                .with_migrate(MigrateConfig::new(MigratePolicyKind::Rl))
                .with_telemetry(TelemetryConfig::full())
                .with_xray(XrayConfig::Sampled(4)),
                Mix::Mix1,
            ),
            Workload::PaperSuite => return None,
        };
        Some(ServeSpec {
            config,
            mix,
            requests,
        })
    }

    /// The workload's input: an infinite seeded mix bounded to
    /// `requests`. Building it runs the mix's metadata pass.
    pub fn stream(&self, seed: u64) -> std::iter::Take<MixStream> {
        self.mix.stream(MIX_HORIZON, seed).take(self.requests)
    }
}

/// What one shard (engine or replica) ended with — the modeled state the
/// fingerprint and the drift check are taken over.
#[derive(Debug)]
pub struct ShardView<'a> {
    pub requests: u64,
    pub batches: u64,
    pub coop_syncs: u64,
    pub migrations: u64,
    pub migration_busy_us: f64,
    pub stats: &'a HssStats,
    pub agent: &'a AgentStats,
}

impl ShardView<'_> {
    /// `(requests, Σlatency bits, train_steps)`: what `replica_drift`
    /// compares shard by shard.
    pub fn drift_key(&self) -> String {
        format!(
            "{}:{:016x}:{}",
            self.requests,
            self.stats.sum_latency_us.to_bits(),
            self.agent.train_steps
        )
    }

    /// A shard whose own counters disagree served nothing we can trust.
    fn served(&self) -> u64 {
        let consistent = self.stats.total_requests == self.requests
            && self.agent.decisions == self.requests
            && self.stats.placements.iter().sum::<u64>() == self.requests
            && self.stats.sum_latency_us.is_finite();
        if consistent {
            self.requests
        } else {
            0
        }
    }

    fn fold(&self, f: &mut Fingerprint) {
        let s = self.stats;
        for w in [
            self.requests,
            self.batches,
            self.coop_syncs,
            self.migrations,
            s.total_requests,
            s.reads,
            s.writes,
            s.eviction_events,
            s.evicted_pages,
            s.migrated_pages,
            s.bg_promoted_pages,
            s.bg_demoted_pages,
        ] {
            f.word(w);
        }
        for &p in &s.placements {
            f.word(p);
        }
        for x in [
            self.migration_busy_us,
            s.sum_latency_us,
            s.max_latency_us,
            s.first_arrival_us,
            s.last_completion_us,
        ] {
            f.float(x);
        }
        let a = self.agent;
        for w in [
            a.decisions,
            a.explorations,
            a.experiences,
            a.train_steps,
            a.weight_syncs,
            a.shared_published,
            a.shared_absorbed,
        ] {
            f.word(w);
        }
    }
}

pub fn shard_views(report: &ServeReport) -> Vec<ShardView<'_>> {
    report
        .shards
        .iter()
        .map(|s| ShardView {
            requests: s.requests,
            batches: s.batches,
            coop_syncs: s.coop_syncs,
            migrations: s.migrations,
            migration_busy_us: s.migration_busy_us,
            stats: &s.stats,
            agent: &s.agent,
        })
        .collect()
}

/// The modeled outcome of a serve run, engine or replica: request-weighted
/// mean latency and aggregate IOPS over the union of the shards' busy
/// spans (the convention of `ServeReport::aggregate`), plus the state
/// fingerprint and the per-shard drift keys.
#[derive(Debug, Clone, PartialEq)]
pub struct Modeled {
    pub served: u64,
    pub avg_latency_us: f64,
    pub iops: f64,
    pub fingerprint32: u32,
    pub shard_keys: Vec<String>,
}

impl Modeled {
    pub fn of(shards: &[ShardView<'_>]) -> Modeled {
        let mut fingerprint = Fingerprint::new();
        let (mut total, mut sum_latency) = (0u64, 0.0f64);
        let (mut first, mut last) = (f64::INFINITY, f64::NEG_INFINITY);
        for s in shards {
            s.fold(&mut fingerprint);
            if s.stats.total_requests > 0 {
                total += s.stats.total_requests;
                sum_latency += s.stats.sum_latency_us;
                first = first.min(s.stats.first_arrival_us);
                last = last.max(s.stats.last_completion_us);
            }
        }
        Modeled {
            served: shards.iter().map(ShardView::served).sum(),
            avg_latency_us: sum_latency / total as f64,
            iops: total as f64 / (last - first) * 1e6,
            fingerprint32: fingerprint.low32(),
            shard_keys: shards.iter().map(ShardView::drift_key).collect(),
        }
    }

    /// This outcome as a repetition's result, beside the host readings of
    /// the run that produced it (`timed` is `Timed::stop`'s pair).
    pub fn into_rep(
        self,
        requests: usize,
        setup_s: f64,
        timed: (f64, Option<f64>),
        layers: Vec<(String, f64)>,
    ) -> Rep {
        Rep {
            requests: requests as u64,
            served: self.served,
            wall_s: timed.0,
            cpu_s: timed.1,
            setup_s,
            peak_rss_mib: probes::peak_rss_mib(),
            sim_avg_latency_us: self.avg_latency_us,
            sim_iops: self.iops,
            fingerprint32: self.fingerprint32,
            shard_keys: self.shard_keys,
            layers,
        }
    }
}

/// One repetition's result, as it crosses from the child process to the
/// parent. Host readings a platform cannot give are `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// Requests submitted, and how many of them were served.
    pub requests: u64,
    pub served: u64,
    pub wall_s: f64,
    pub cpu_s: Option<f64>,
    pub setup_s: f64,
    pub peak_rss_mib: Option<f64>,
    pub sim_avg_latency_us: f64,
    pub sim_iops: f64,
    pub fingerprint32: u32,
    pub shard_keys: Vec<String>,
    /// Per-layer readings this repetition could take, by metric name.
    pub layers: Vec<(String, f64)>,
}

impl Rep {
    pub fn to_json(&self) -> Value {
        let mut v = Value::obj();
        v.set("requests", self.requests);
        v.set("served", self.served);
        v.set("wall_s", self.wall_s);
        v.set("cpu_s", self.cpu_s);
        v.set("setup_s", self.setup_s);
        v.set("peak_rss_mib", self.peak_rss_mib);
        v.set("sim_avg_latency_us", self.sim_avg_latency_us);
        v.set("sim_iops", self.sim_iops);
        v.set("fingerprint32", u64::from(self.fingerprint32));
        v.set(
            "shard_keys",
            Value::Arr(self.shard_keys.iter().map(|k| k.as_str().into()).collect()),
        );
        let mut layers = Value::obj();
        for (name, value) in &self.layers {
            layers.set(name, *value);
        }
        v.set("layers", layers);
        v
    }

    pub fn from_json(v: &Value) -> Result<Rep, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Value::num)
                .ok_or_else(|| format!("repetition result lacks number {key:?}"))
        };
        let opt = |key: &str| v.get(key).and_then(Value::num);
        Ok(Rep {
            requests: num("requests")? as u64,
            served: num("served")? as u64,
            wall_s: num("wall_s")?,
            cpu_s: opt("cpu_s"),
            setup_s: num("setup_s")?,
            peak_rss_mib: opt("peak_rss_mib"),
            sim_avg_latency_us: num("sim_avg_latency_us")?,
            sim_iops: num("sim_iops")?,
            fingerprint32: num("fingerprint32")? as u32,
            shard_keys: v
                .get("shard_keys")
                .map(Value::arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|k| k.str().map(str::to_string))
                .collect(),
            layers: v
                .get("layers")
                .map(Value::fields)
                .unwrap_or_default()
                .iter()
                .filter_map(|(k, x)| x.num().map(|x| (k.clone(), x)))
                .collect(),
        })
    }

    pub fn layer(&self, name: &str) -> Option<f64> {
        self.layers.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }
}

/// Brackets the one timed call: wall from `Instant`, CPU from
/// `/proc/self/stat` (all threads, joined ones included).
pub struct Timed {
    wall: Instant,
    cpu: Option<f64>,
}

impl Timed {
    pub fn start() -> Timed {
        Timed {
            cpu: probes::cpu_seconds(),
            wall: Instant::now(),
        }
    }

    /// `(wall seconds, CPU seconds)`.
    pub fn stop(self) -> (f64, Option<f64>) {
        let wall = self.wall.elapsed().as_secs_f64();
        let cpu = probes::cpu_seconds().zip(self.cpu).map(|(b, a)| b - a);
        (wall, cpu)
    }
}

/// One untraced repetition of a serve workload. The timed call is exactly
/// `serve_stream(&config, stream)` — pre-pass, spawn and join included,
/// since a user pays them on every run. `started` is the process start,
/// so `setup_s` covers configs, stream construction and the warm-up.
pub fn run_serve_rep(spec: &ServeSpec, seed: u64, started: Instant) -> Result<Rep, String> {
    let stream = spec.stream(seed);
    // Untimed warm-up over the first 5 % of requests: page-faults the
    // allocator arenas and instruction cache, which users pay once.
    let warm = (spec.requests / 20).max(1);
    serve_stream(&spec.config, stream.clone().take(warm)).map_err(|e| e.to_string())?;
    let setup_s = started.elapsed().as_secs_f64();

    let timed = Timed::start();
    let report = serve_stream(&spec.config, stream).map_err(|e| e.to_string())?;
    let timed = timed.stop();

    let layers = observer_layers(&report);
    Ok(Modeled::of(&shard_views(&report)).into_rep(spec.requests, setup_s, timed, layers))
}

/// What the observers collected and what exporting it costs — read from
/// the engine's own report, after the timed call.
fn observer_layers(report: &ServeReport) -> Vec<(String, f64)> {
    let mut layers = Vec::new();
    let mut put = |name: &str, value: f64| layers.push((name.to_string(), value));
    if let Some(telemetry) = &report.telemetry {
        let events: u64 = telemetry.shards.iter().map(|s| s.recorded_events).sum();
        let t = Instant::now();
        let jsonl = telemetry.export_jsonl();
        put("telemetry.export_ms", t.elapsed().as_secs_f64() * 1e3);
        put("telemetry.events", events as f64);
        put("telemetry.jsonl_bytes", jsonl.len() as f64);
    }
    if let Some(xray) = &report.xray {
        let t = Instant::now();
        let folded = xray.xray_folded();
        put("xray.export_ms", t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(folded);
        let totals = xray.merged_totals();
        put("xray.sampled", xray.sampled() as f64);
        put(
            "xray.sim_queue_share",
            totals.queue_ns as f64 / totals.latency_ns as f64,
        );
    }
    layers
}

/// The eight placement policies of `paper-suite`, in run order, with the
/// key each goes by in `policies.*`.
fn paper_policies() -> Vec<(String, PolicyKind)> {
    std::iter::once(PolicyKind::FastOnly)
        .chain(PolicyKind::standard_suite())
        .map(|kind| (kind.name().to_lowercase().replace('-', "_"), kind))
        .collect()
}

const PAPER_TRACES: [msrc::Workload; 4] = [
    msrc::Workload::Hm1,   // hot reads
    msrc::Workload::Prxy0, // hot writes
    msrc::Workload::Stg1,  // cold, large sequential
    msrc::Workload::Usr0,  // mixed
];

/// One repetition of `paper-suite`: the single-node path behind every
/// `fig*` target — materialized traces × {H&M, H&L} × {Fast-Only + the
/// standard suite} through `Experiment::run`, each run timed from
/// outside. No serving engine, so no replica: the per-layer numbers come
/// straight from this repetition.
pub fn run_paper_rep(per_trace: usize, seed: u64, started: Instant) -> Result<Rep, String> {
    let t = Instant::now();
    let traces = PAPER_TRACES.map(|w| msrc::generate(w, per_trace, seed));
    let materialize_s = t.elapsed().as_secs_f64();
    let footprint: u64 = traces.iter().map(|t| t.footprint_pages()).sum();
    let configs = [
        (
            "hm",
            HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd()),
        ),
        (
            "hl",
            HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::hdd()),
        ),
    ];
    let policies = paper_policies();
    // Cells in config-major order; the warm-up replays the first 5 % of
    // each cell under every policy.
    let mut cells = Vec::new();
    for (config_name, hss) in &configs {
        for trace in &traces {
            let warm = Experiment::new(hss.clone(), trace.truncated((per_trace / 20).max(1)));
            for (_, kind) in &policies {
                warm.run(kind.clone()).map_err(|e| e.to_string())?;
            }
            cells.push((*config_name, Experiment::new(hss.clone(), trace.clone())));
        }
    }
    let setup_s = started.elapsed().as_secs_f64();

    let mut policy_s = vec![0.0f64; policies.len()];
    let mut outcomes: Vec<Vec<Metrics>> = Vec::with_capacity(cells.len());
    let timed = Timed::start();
    for (_, experiment) in &cells {
        let mut row = Vec::with_capacity(policies.len());
        for (p, (_, kind)) in policies.iter().enumerate() {
            let t = Instant::now();
            let outcome = experiment.run(kind.clone()).map_err(|e| e.to_string())?;
            policy_s[p] += t.elapsed().as_secs_f64();
            row.push(outcome.metrics);
        }
        outcomes.push(row);
    }
    let (wall_s, cpu_s) = timed.stop();

    let n = per_trace as u64;
    let mut fingerprint = Fingerprint::new();
    let mut served = 0u64;
    for m in outcomes.iter().flatten() {
        // A policy run that lost or invented requests fails all of them.
        if m.total_requests == n && m.avg_latency_us.is_finite() && m.avg_latency_us > 0.0 {
            served += n;
        }
        for w in [m.total_requests, m.evicted_pages, m.migrated_pages] {
            fingerprint.word(w);
        }
        for &p in &m.placements {
            fingerprint.word(p);
        }
        for x in [m.avg_latency_us, m.max_latency_us, m.iops] {
            fingerprint.float(x);
        }
    }

    let index_of = |key: &str| policies.iter().position(|(k, _)| k == key);
    let (fast, sibyl, oracle) = match (index_of("fast_only"), index_of("sibyl"), index_of("oracle"))
    {
        (Some(f), Some(s), Some(o)) => (f, s, o),
        _ => return Err("the standard suite no longer holds Fast-Only, Sibyl and Oracle".into()),
    };
    let mut layers: Vec<(String, f64)> = Vec::new();
    for (config_name, _) in &configs {
        // Fast-Only-normalized latency of policy `p`: geometric mean over
        // the four traces of this device configuration.
        let norm = |p: usize| {
            let ratios: Vec<f64> = cells
                .iter()
                .zip(&outcomes)
                .filter(|((c, _), _)| c == config_name)
                .map(|(_, row)| row[p].avg_latency_us / row[fast].avg_latency_us)
                .collect();
            probes::geomean(&ratios)
        };
        let best_baseline = (0..policies.len())
            .filter(|&p| p != fast && p != sibyl && p != oracle)
            .map(norm)
            .fold(f64::INFINITY, f64::min);
        layers.extend([
            (format!("sim.norm_lat_{config_name}_sibyl"), norm(sibyl)),
            (
                format!("sim.norm_lat_{config_name}_best_baseline"),
                best_baseline,
            ),
            (format!("sim.norm_lat_{config_name}_oracle"), norm(oracle)),
            (
                format!("sim.gain_vs_best_{config_name}"),
                1.0 - norm(sibyl) / best_baseline,
            ),
        ]);
    }
    let runs_per_policy = (cells.len() as u64 * n) as f64;
    for ((key, _), seconds) in policies.iter().zip(&policy_s) {
        layers.push((
            format!("policies.{key}_us_per_req"),
            seconds * 1e6 / runs_per_policy,
        ));
    }
    // Sibyl's eight cells stand for the modeled outcome of the suite.
    let sibyl_cells = || outcomes.iter().map(|row| &row[sibyl]);
    let cell_values = |f: fn(&Metrics) -> f64| sibyl_cells().map(f).collect::<Vec<f64>>();
    let mean = |f| cell_values(f).iter().sum::<f64>() / cells.len() as f64;
    let requests = cells.len() as u64 * policies.len() as u64 * n;
    layers.extend(
        [
            ("hss.eviction_fraction", mean(|m| m.eviction_fraction)),
            (
                "hss.fast_placement_fraction",
                mean(|m| m.fast_placement_fraction),
            ),
            (
                "hss.evicted_pages",
                sibyl_cells().map(|m| m.evicted_pages).sum::<u64>() as f64,
            ),
            (
                "hss.migrated_pages",
                sibyl_cells().map(|m| m.migrated_pages).sum::<u64>() as f64,
            ),
            ("trace.materialize_s", materialize_s),
            ("trace.footprint_pages", footprint as f64),
            ("trace.requests", requests as f64),
        ]
        .map(|(name, value)| (name.to_string(), value)),
    );
    Ok(Rep {
        requests,
        served,
        wall_s,
        cpu_s,
        setup_s,
        peak_rss_mib: probes::peak_rss_mib(),
        sim_avg_latency_us: probes::geomean(&cell_values(|m| m.avg_latency_us)),
        sim_iops: probes::geomean(&cell_values(|m| m.iops)),
        fingerprint32: fingerprint.low32(),
        shard_keys: Vec::new(),
        layers,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_quick_divides() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(w.requests(true), w.requests(false) / QUICK_DIVISOR);
        }
        assert_eq!(Workload::from_name("serve"), None);
    }

    #[test]
    fn policy_keys_are_the_catalogue_names() {
        let keys: Vec<String> = paper_policies().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "fast_only",
                "slow_only",
                "cde",
                "hps",
                "archivist",
                "rnn_hss",
                "sibyl",
                "oracle"
            ]
        );
        for key in keys {
            let name = format!("policies.{key}_us_per_req");
            assert!(crate::metrics::per_layer(&name).is_some(), "{name}");
        }
    }

    #[test]
    fn rep_survives_the_process_boundary() {
        let rep = Rep {
            requests: 1000,
            served: 999,
            wall_s: 0.123456789,
            cpu_s: None,
            setup_s: 0.5,
            peak_rss_mib: Some(6.25),
            sim_avg_latency_us: 617.8,
            sim_iops: 94_500.5,
            fingerprint32: u32::MAX,
            shard_keys: vec!["500:40c3880000000000:2".into(), "500:0:2".into()],
            layers: vec![("telemetry.events".into(), 42.0)],
        };
        let text = rep.to_json().compact();
        let back = Rep::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, rep);
        assert!(Rep::from_json(&Value::obj()).is_err());
    }

    #[test]
    fn paper_rep_serves_every_request_and_is_deterministic() {
        let a = run_paper_rep(400, 7, Instant::now()).unwrap();
        let b = run_paper_rep(400, 7, Instant::now()).unwrap();
        assert_eq!(a.requests, 4 * 2 * 8 * 400);
        assert_eq!(a.served, a.requests);
        assert_eq!(a.fingerprint32, b.fingerprint32);
        assert_eq!(a.sim_avg_latency_us, b.sim_avg_latency_us);
        assert_ne!(
            a.fingerprint32,
            run_paper_rep(400, 8, Instant::now()).unwrap().fingerprint32
        );
        for (name, value) in &a.layers {
            assert!(crate::metrics::per_layer(name).is_some(), "{name}");
            assert!(value.is_finite(), "{name} = {value}");
        }
        assert!(a.layer("sim.norm_lat_hl_sibyl").is_some());
    }
}
