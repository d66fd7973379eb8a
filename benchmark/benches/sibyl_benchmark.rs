//! The repo's benchmark: four workloads on two clocks.
//!
//! ```text
//! sibyl_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, the driver's contract: the last stdout line is one
//!     JSON object {correct, attempted, failed, metrics}
//! sibyl_benchmark [--seed <n>] [--seconds <s>] [--quick] [--out <report.json>] [--spans <dir>]
//!     all four workloads, repetitions interleaved, then the traced runs;
//!     prints every metric and writes the full report
//! sibyl_benchmark compare <a.json> <b.json>
//!     diff two full reports; non-zero exit on a regression
//! sibyl_benchmark manifest
//!     print the BENCHMARK.json this harness implements
//! ```
//!
//! See `benchmark/README.md` for the clocks, the workloads and how to read
//! the ledger.

mod compare;
mod json;
mod metrics;
mod probes;
mod replica;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Value;
use metrics::{Better, Clock, Pick, END_TO_END, PER_LAYER};
use workloads::{Rep, ServeSpec, Workload, QUICK_DIVISOR, REQUEST_SCALE};

/// Default `--seconds`, and `run_seconds` of the manifest.
const RUN_SECONDS: u64 = 25;

/// One line each, for the manifest: why the workload exists.
fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::ServeLearn => {
            "learning agent (train every 250 requests, 2 shards): training is ~90% of CPU, so \
             core.train/nn kernels and training overlap show here; hss, trace and routing do not"
        }
        Workload::ServeSteady => {
            "converged agent (train every 16000, 1 shard): decide, hss access, channels and the \
             serial pre-pass dominate, so routing/featurization changes show and training changes do not"
        }
        Workload::FullStack => {
            "every subsystem on (3 tiers, coop barriers, RL migration, telemetry, x-ray): guards \
             cooperation, migration and observer cost when independent serving is optimised"
        }
        Workload::PaperSuite => {
            "single-node Experiment::run over 4 traces x {H&M, H&L} x 8 policies, bypassing serve: \
             pins the paper's headline (Sibyl vs best baseline) and the baselines' host cost"
        }
    }
}

#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        trace: false,
        quick: false,
        out: None,
        spans: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            options.quick = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                options.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|_| bad())?;
                if !(options.seconds.is_finite() && options.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => options.out = Some(value.clone()),
            "--spans" => options.spans = Some(value.clone()),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(options)
}

/// `child <workload> <seed> <requests> <traced 0|1> [spans path]`: one
/// repetition in this (fresh) process; prints the [`Rep`] as one line.
fn child(args: &[String], started: Instant) -> Result<(), String> {
    let [workload, seed, requests, traced, rest @ ..] = args else {
        return Err("child: expected <workload> <seed> <requests> <traced>".into());
    };
    let workload = Workload::from_name(workload).ok_or("child: unknown workload")?;
    let seed: u64 = seed.parse().map_err(|_| "child: bad seed")?;
    let requests: usize = requests.parse().map_err(|_| "child: bad request count")?;
    let spans = rest.first().map(String::as_str);
    let rep = match ServeSpec::new(workload, requests) {
        None => workloads::run_paper_rep(requests, seed, started)?,
        Some(spec) if traced == "1" => replica::run_traced_rep(&spec, seed, started, spans)?,
        Some(spec) => workloads::run_serve_rep(&spec, seed, started)?,
    };
    println!("{}", rep.to_json().compact());
    Ok(())
}

/// Runs one repetition in a fresh child process (clean peak-RSS and CPU
/// counters, cold allocator) and waits for it to end.
fn spawn_rep(
    workload: Workload,
    options: &Options,
    traced: bool,
    spans: Option<&str>,
) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command.args([
        "child",
        workload.name(),
        &options.seed.to_string(),
        &workload.requests(options.quick).to_string(),
        if traced { "1" } else { "0" },
    ]);
    command.args(spans);
    let output = command
        .output()
        .map_err(|e| format!("spawning a repetition: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} repetition failed ({}): {}",
            workload.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    Rep::from_json(&json::parse(line)?)
}

/// Everything measured for one workload.
#[derive(Debug)]
struct Measurement {
    workload: Workload,
    reps: Vec<Rep>,
    traced: Option<Rep>,
}

/// The picked value, median and range of one end-to-end metric over the
/// repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Summary {
    value: f64,
    median: f64,
    min: f64,
    max: f64,
}

impl Measurement {
    fn attempted(&self) -> u64 {
        self.reps
            .iter()
            .chain(&self.traced)
            .map(|r| r.requests)
            .sum()
    }

    /// Requests not served. A repetition whose modeled state differs from
    /// the first one's broke determinism and fails all its requests.
    fn failed(&self) -> u64 {
        let reference = self.reps.first().map(|r| r.fingerprint32);
        let untraced: u64 = self
            .reps
            .iter()
            .map(|r| {
                if Some(r.fingerprint32) == reference {
                    r.requests - r.served.min(r.requests)
                } else {
                    r.requests
                }
            })
            .sum();
        let traced = self
            .traced
            .as_ref()
            .map_or(0, |r| r.requests - r.served.min(r.requests));
        untraced + traced
    }

    /// One repetition's reading of an end-to-end metric; `None` where the
    /// platform cannot give it.
    fn reading(rep: &Rep, name: &str) -> Option<f64> {
        match name {
            "host_req_per_s" => Some(rep.requests as f64 / rep.wall_s),
            "cpu_us_per_req" => rep.cpu_s.map(|cpu| cpu * 1e6 / rep.requests as f64),
            "peak_rss_mib" => rep.peak_rss_mib,
            "setup_s" => Some(rep.setup_s),
            "sim_avg_latency_us" => Some(rep.sim_avg_latency_us),
            "sim_iops" => Some(rep.sim_iops),
            _ => None,
        }
    }

    fn summary(&self, metric: &metrics::EndToEnd) -> Option<Summary> {
        let mut readings: Vec<f64> = self
            .reps
            .iter()
            .map(|r| Self::reading(r, metric.metric.name))
            .collect::<Option<_>>()?;
        let median = probes::median(&readings)?;
        // Best first.
        readings.sort_by(f64::total_cmp);
        if metric.metric.better == Better::Higher {
            readings.reverse();
        }
        let (best, worst) = (readings[0], readings[readings.len() - 1]);
        Some(Summary {
            value: match metric.pick {
                Pick::Median => median,
                Pick::Best => best,
            },
            median,
            min: best.min(worst),
            max: best.max(worst),
        })
    }

    /// The repetition that stands for host speed: the fastest one.
    fn best_rep(&self) -> Option<&Rep> {
        self.reps
            .iter()
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
    }

    /// Per-layer metrics by name, in catalogue order. Layers the workload
    /// does not run are absent.
    fn layers(&self) -> Vec<(&'static str, f64)> {
        let first = self.reps.first();
        let mut found: Vec<(String, f64)> = Vec::new();
        match &self.traced {
            // A serve workload: the replica's ledger, the observers'
            // export cost from repetition 1, and what only the pair of
            // runs can say.
            Some(traced) => {
                found.extend(traced.layers.iter().cloned());
                found.extend(first.iter().flat_map(|r| r.layers.iter().cloned()));
                if let Some(first) = first {
                    let drift = first
                        .shard_keys
                        .iter()
                        .zip(&traced.shard_keys)
                        .filter(|(engine, replica)| engine != replica)
                        .count()
                        + first.shard_keys.len().abs_diff(traced.shard_keys.len());
                    found.push(("ledger.replica_drift".into(), drift as f64));
                }
                let best_cpu = metrics::end_to_end("cpu_us_per_req").and_then(|m| self.summary(m));
                if let (Some(cpu), Some(total)) =
                    (best_cpu, traced.layer("ledger.total_us_per_req"))
                {
                    // A shard parked at the coop barrier burns no CPU.
                    let waited = traced.layer("coop.sync_wait_us_per_req").unwrap_or(0.0);
                    found.push((
                        "serve.engine_overhead_us_per_req".into(),
                        cpu.value - (total - waited),
                    ));
                }
            }
            // No traced run (`paper-suite`, or `--trace 0`): what the
            // repetitions themselves read. Host readings take the best
            // repetition, modeled ones are the same in all of them.
            None => {
                for (name, value) in first.iter().flat_map(|r| &r.layers) {
                    let host = metrics::per_layer(name).is_some_and(|m| m.clock == Clock::Host);
                    let value = if host {
                        self.reps
                            .iter()
                            .filter_map(|r| r.layer(name))
                            .fold(*value, f64::min)
                    } else {
                        *value
                    };
                    found.push((name.clone(), value));
                }
                if let Some(first) = first {
                    found.push(("sim.fingerprint32".into(), f64::from(first.fingerprint32)));
                }
            }
        }
        if let Some((cpu, rep)) = self.best_rep().and_then(|r| r.cpu_s.zip(Some(r))) {
            found.push(("serve.cpu_per_wall".into(), cpu / rep.wall_s));
        }
        PER_LAYER
            .iter()
            .filter_map(|m| {
                let value = found.iter().find(|(name, _)| name == m.name)?.1;
                Some((m.name, value))
            })
            .collect()
    }
}

/// The best repetition needs a few to be chosen from.
const MIN_REPS: usize = 3;

/// Runs the repetitions. Untraced ones go round-robin across the
/// workloads — host noise comes in episodes, and interleaving keeps one
/// episode from owning every repetition of one workload — until each
/// workload has measured for `--seconds` (and at least `MIN_REPS` times);
/// then, if asked, one traced run per serve workload. A traced invocation
/// needs the engine repetitions too: the ledger is read against the
/// engine's CPU time and checked against its report.
fn measure(
    workloads: &[Workload],
    options: &Options,
    traced: bool,
) -> Result<Vec<Measurement>, String> {
    let mut measurements: Vec<Measurement> = workloads
        .iter()
        .map(|&workload| Measurement {
            workload,
            reps: Vec::new(),
            traced: None,
        })
        .collect();
    loop {
        let mut ran = false;
        for m in &mut measurements {
            let measured: f64 = m.reps.iter().map(|r| r.wall_s).sum();
            let done = if options.quick {
                !m.reps.is_empty()
            } else {
                m.reps.len() >= MIN_REPS && measured >= options.seconds
            };
            if !done {
                m.reps.push(spawn_rep(m.workload, options, false, None)?);
                ran = true;
            }
        }
        if !ran {
            break;
        }
    }
    if traced {
        for m in &mut measurements {
            if m.workload != Workload::PaperSuite {
                let spans = options
                    .spans
                    .as_ref()
                    .map(|dir| format!("{dir}/{}.spans.jsonl", m.workload.name()));
                m.traced = Some(spawn_rep(m.workload, options, true, spans.as_deref())?);
            }
        }
    }
    Ok(measurements)
}

fn metric_value(value: f64, unit: &str) -> Value {
    let mut v = Value::obj();
    v.set("value", value);
    v.set("unit", unit);
    v
}

/// The driver's contract: one workload, one JSON line.
fn run_contract(workload: Workload, options: &Options) -> Result<ExitCode, String> {
    let measurements = measure(&[workload], options, options.trace)?;
    let m = &measurements[0];
    print_measurement(m);

    let mut metrics = Value::obj();
    if options.trace {
        // The driver wants every per-layer name on every workload; a
        // layer this workload does not run reads 0 here (the full report
        // leaves it out instead).
        let layers = m.layers();
        for metric in &PER_LAYER {
            let value = layers
                .iter()
                .find(|(name, _)| *name == metric.name)
                .map_or(0.0, |(_, v)| *v);
            metrics.set(metric.name, metric_value(value, metric.unit));
        }
    } else {
        for metric in &END_TO_END {
            // Absent — never 0 — where the platform has no /proc.
            if let Some(summary) = m.summary(metric) {
                metrics.set(
                    metric.metric.name,
                    metric_value(summary.value, metric.metric.unit),
                );
            }
        }
    }
    let mut line = Value::obj();
    line.set("correct", m.failed() == 0);
    line.set("attempted", m.attempted());
    line.set("failed", m.failed());
    line.set("metrics", metrics);
    println!("{}", line.compact());
    Ok(ExitCode::SUCCESS)
}

fn print_measurement(m: &Measurement) {
    println!(
        "== {} — {} requests x {} repetitions{} ==",
        m.workload.name(),
        m.reps.first().map_or(0, |r| r.requests),
        m.reps.len(),
        if m.traced.is_some() {
            " + traced run"
        } else {
            ""
        },
    );
    for metric in &END_TO_END {
        match m.summary(metric) {
            Some(s) => println!(
                "  {:<36} {:>14.4} {:<7} (median {:.4}, range {:.4}..{:.4})",
                metric.metric.name, s.value, metric.metric.unit, s.median, s.min, s.max
            ),
            None => println!(
                "  {:<36} {:>14} (no /proc on this host)",
                metric.metric.name, "absent"
            ),
        }
    }
    println!(
        "  {:<36} {:>14.4} {:<7} ({} of {} requests)",
        "failed_share",
        m.failed() as f64 / m.attempted() as f64,
        "ratio",
        m.failed(),
        m.attempted()
    );
    let layers = m.layers();
    for (name, value) in &layers {
        let unit = metrics::per_layer(name).map_or("", |d| d.unit);
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    let gain = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v * 100.0)
    };
    if let (Some(hm), Some(hl)) = (gain("sim.gain_vs_best_hm"), gain("sim.gain_vs_best_hl")) {
        println!(
            "  Sibyl vs best baseline: H&M {hm:+.1} % (paper: +21.6 %), H&L {hl:+.1} % (paper: \
             +19.9 %). The repo commits no reference results: the model is unvalidated and no \
             error figure is given."
        );
    }
}

/// The full report: what `compare` reads and `baseline/BENCH_<pr>.json`
/// holds.
fn report(measurements: &[Measurement], options: &Options) -> Value {
    let mut host = Value::obj();
    host.set(
        "nproc",
        std::thread::available_parallelism()
            .ok()
            .map(|n| n.get() as f64),
    );
    host.set("cpu_model", probes::cpu_model());
    host.set("rustc", probes::rustc_version());

    let mut doc = Value::obj();
    doc.set("schema", 1u64);
    doc.set("seed", options.seed);
    doc.set(
        "request_scale",
        if options.quick {
            REQUEST_SCALE / QUICK_DIVISOR as f64
        } else {
            REQUEST_SCALE
        },
    );
    doc.set("seconds", options.seconds);
    doc.set("host", host);
    let mut workloads = Value::obj();
    for m in measurements {
        let mut w = Value::obj();
        w.set("requests", m.reps.first().map_or(0, |r| r.requests));
        w.set("repetitions", m.reps.len() as u64);
        w.set("attempted", m.attempted());
        w.set("failed", m.failed());
        let mut end_to_end = Value::obj();
        for metric in &END_TO_END {
            if let Some(s) = m.summary(metric) {
                let mut v = metric_value(s.value, metric.metric.unit);
                v.set("median", s.median);
                v.set("min", s.min);
                v.set("max", s.max);
                end_to_end.set(metric.metric.name, v);
            }
        }
        w.set("end_to_end", end_to_end);
        let mut per_layer = Value::obj();
        for (name, value) in m.layers() {
            let unit = metrics::per_layer(name).map_or("", |d| d.unit);
            per_layer.set(name, metric_value(value, unit));
        }
        w.set("per_layer", per_layer);
        workloads.set(m.workload.name(), w);
    }
    doc.set("workloads", workloads);
    doc
}

/// All four workloads, both kinds of run, the full report.
fn run_all(options: &Options) -> Result<ExitCode, String> {
    let measurements = measure(&Workload::ALL, options, true)?;
    for m in &measurements {
        print_measurement(m);
    }
    let doc = report(&measurements, options);
    if let Some(path) = &options.out {
        std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        println!("report written to {path}");
    }
    let failed: u64 = measurements.iter().map(Measurement::failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, generated from the catalogue so the two cannot drift.
fn manifest() -> Value {
    let strings = |items: &[&str]| Value::Arr(items.iter().map(|&s| s.into()).collect());
    let mut doc = Value::obj();
    doc.set(
        "command",
        strings(&[
            "cargo",
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "benchmark/Cargo.toml",
            "--",
        ]),
    );
    doc.set("paths", strings(&["benchmark"]));
    doc.set("run_seconds", RUN_SECONDS);
    doc.set(
        "workloads",
        Value::Arr(
            Workload::ALL
                .iter()
                .map(|&w| {
                    let mut v = Value::obj();
                    v.set("name", w.name());
                    v.set("why", why(w));
                    v
                })
                .collect(),
        ),
    );
    let describe = |m: &metrics::Metric| {
        let mut v = Value::obj();
        v.set("name", m.name);
        v.set("unit", m.unit);
        v.set("better", m.better.as_str());
        v
    };
    doc.set(
        "end_to_end",
        Value::Arr(
            END_TO_END
                .iter()
                .map(|m| {
                    let mut v = describe(&m.metric);
                    v.set("bound", m.bound);
                    v
                })
                .collect(),
        ),
    );
    doc.set(
        "per_layer",
        Value::Arr(PER_LAYER.iter().map(describe).collect()),
    );
    doc
}

fn run(args: &[String], started: Instant) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("child") => child(&args[1..], started).map(|()| ExitCode::SUCCESS),
        Some("compare") => compare::run(&args[1..]),
        Some("manifest") => {
            print!("{}", manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ => {
            let options = parse_options(args)?;
            match options.workload {
                Some(workload) => run_contract(workload, &options),
                None => run_all(&options),
            }
        }
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    run(&args, started).unwrap_or_else(|message| {
        eprintln!("sibyl_benchmark: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(wall_s: f64, fingerprint32: u32) -> Rep {
        Rep {
            requests: 1000,
            served: 1000,
            wall_s,
            cpu_s: Some(wall_s * 1.5),
            setup_s: 0.1 * wall_s,
            peak_rss_mib: Some(6.0),
            sim_avg_latency_us: 600.0,
            sim_iops: 90_000.0,
            fingerprint32,
            shard_keys: vec!["a".into(), "b".into()],
            layers: Vec::new(),
        }
    }

    #[test]
    fn host_speed_takes_the_best_repetition_and_setup_the_median() {
        let m = Measurement {
            workload: Workload::ServeLearn,
            reps: vec![rep(2.0, 7), rep(1.0, 7), rep(4.0, 7)],
            traced: None,
        };
        let summary = |name| m.summary(metrics::end_to_end(name).unwrap()).unwrap();
        let speed = summary("host_req_per_s");
        assert_eq!((speed.value, speed.median), (1000.0, 500.0));
        assert_eq!((speed.min, speed.max), (250.0, 1000.0));
        let cpu = summary("cpu_us_per_req");
        assert_eq!((cpu.value, cpu.min, cpu.max), (1500.0, 1500.0, 6000.0));
        assert_eq!(summary("setup_s").value, 0.2);
        assert_eq!(m.failed(), 0);
        assert_eq!(m.attempted(), 3000);
    }

    #[test]
    fn a_missing_proc_reading_makes_the_metric_absent_not_zero() {
        let mut blind = rep(1.0, 7);
        blind.cpu_s = None;
        blind.peak_rss_mib = None;
        let m = Measurement {
            workload: Workload::ServeLearn,
            reps: vec![rep(1.0, 7), blind],
            traced: None,
        };
        assert!(m
            .summary(metrics::end_to_end("cpu_us_per_req").unwrap())
            .is_none());
        assert!(m
            .summary(metrics::end_to_end("peak_rss_mib").unwrap())
            .is_none());
        assert!(m
            .summary(metrics::end_to_end("host_req_per_s").unwrap())
            .is_some());
    }

    #[test]
    fn a_repetition_that_diverges_fails_all_its_requests() {
        let mut short = rep(1.0, 7);
        short.served = 990;
        let m = Measurement {
            workload: Workload::ServeLearn,
            reps: vec![rep(1.0, 7), rep(1.0, 8), short],
            traced: None,
        };
        assert_eq!(m.failed(), 1000 + 10);
    }

    #[test]
    fn drift_counts_shards_whose_keys_differ() {
        let mut traced = rep(1.0, 7);
        traced.shard_keys = vec!["a".into(), "x".into()];
        traced.layers = vec![
            ("ledger.total_us_per_req".into(), 1000.0),
            ("coop.sync_wait_us_per_req".into(), 100.0),
        ];
        let m = Measurement {
            workload: Workload::FullStack,
            reps: vec![rep(1.0, 7)],
            traced: Some(traced),
        };
        let layers = m.layers();
        let get = |name: &str| layers.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
        assert_eq!(get("ledger.replica_drift"), Some(1.0));
        // 1500 us of engine CPU against 1000 - 100 us of replica work.
        assert_eq!(get("serve.engine_overhead_us_per_req"), Some(600.0));
        assert_eq!(get("serve.cpu_per_wall"), Some(1.5));
        assert_eq!(get("policies.sibyl_us_per_req"), None);
    }

    #[test]
    fn options_parse_the_contract_and_reject_nonsense() {
        let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let o = parse_options(&args(
            "--workload full-stack --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload, Some(Workload::FullStack));
        assert_eq!((o.seed, o.seconds, o.trace), (9, 3.0, true));
        assert_eq!(parse_options(&[]).unwrap().seed, 42);
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--trace 2",
            "--seed",
            "--frobnicate 1",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn manifest_meets_the_contract_and_matches_the_committed_file() {
        let doc = manifest();
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .unwrap()
                .arr()
                .iter()
                .map(|m| m.get("name").unwrap().str().unwrap().to_string())
                .collect()
        };
        let mut all: Vec<String> = ["workloads", "end_to_end", "per_layer"]
            .iter()
            .flat_map(|k| names(k))
            .collect();
        for name in &all {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), total, "a name is used once");
        for w in doc.get("workloads").unwrap().arr() {
            let why = w.get("why").unwrap().str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        assert!(names("end_to_end").contains(&"setup_s".to_string()));
        for m in END_TO_END.iter().map(|m| &m.metric).chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(committed).expect("BENCHMARK.json at the repo root");
        assert_eq!(json::parse(&committed).unwrap(), doc);
        assert!(committed.len() <= 64 * 1024);
    }
}
