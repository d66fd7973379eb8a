//! The traced run: a benchmark-owned replica of the serving engine's shard
//! loop, built from public calls only, with every call into a layer
//! bracketed by the host clock and recorded as a span.
//!
//! The engine itself is not instrumented (spans inside the program are a
//! later change), so the per-layer numbers come from outside: the replica
//! makes the same calls in the same order — pre-pass, route, then per
//! batch `place_batch` → `access_after` → `feedback_batch` → migrate tick
//! → coop sync — and is checked bit for bit against the engine's report
//! (`ledger.replica_drift`). What the replica leaves out is exactly what
//! the engine adds on top: channels, wake-ups, thread spawn/join and the
//! observers. That difference is `serve.engine_overhead_us_per_req`.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

use sibyl_coop::Coordinator;
use sibyl_core::{AgentStats, Learner, SibylAgent, StateEncoder};
use sibyl_hss::{AccessOutcome, HssStats, StorageManager};
use sibyl_migrate::Migrator;
use sibyl_serve::{shard_of, ServeConfig};
use sibyl_trace::IoRequest;

use crate::probes;
use crate::workloads::{Modeled, Rep, ServeSpec, ShardView, Timed};

/// Parent of a root span, and the `shard` of the router's spans.
pub const NONE: u32 = u32::MAX;

/// One bracketed call. Times are nanoseconds since the run's epoch;
/// `parent` indexes the run's span list. Spans named `micro.*` are
/// duplicate work done for measurement only and stay outside the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub shard: u32,
    pub batch: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A thread's span buffer. Spans stay in memory until the run ends.
struct Recorder {
    epoch: Instant,
    shard: u32,
    spans: Vec<Span>,
    clock_reads: u64,
}

impl Recorder {
    fn new(epoch: Instant, shard: u32) -> Recorder {
        Recorder {
            epoch,
            shard,
            spans: Vec::new(),
            clock_reads: 0,
        }
    }

    fn now(&mut self) -> u64 {
        self.clock_reads += 1;
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        batch: u32,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            shard: self.shard,
            batch,
            start_ns,
            end_ns,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    /// Brackets `call` as a child span of `parent`.
    fn timed<T>(
        &mut self,
        name: &'static str,
        batch: u32,
        parent: u32,
        call: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = call();
        let end = self.now();
        self.push(name, batch, start, end, parent);
        out
    }

    /// Brackets a call into the agent and splits training out of it.
    /// Training can fire inside `place_batch` as well as `feedback_batch`;
    /// the delta of the agent's cumulative `train_ns` across the call
    /// becomes a `core.train` child span, so the call's self time is the
    /// layer's own work. (The child is laid at the end of the call's
    /// interval: its duration is measured, its position is not.)
    fn timed_agent<T>(
        &mut self,
        name: &'static str,
        batch: u32,
        parent: u32,
        agent: &mut SibylAgent,
        call: impl FnOnce(&mut SibylAgent) -> T,
    ) -> T {
        let train_before = agent.stats().train_ns;
        let start = self.now();
        let out = call(agent);
        let end = self.now();
        let span = self.push(name, batch, start, end, parent);
        let trained = (agent.stats().train_ns - train_before).min(end - start);
        if trained > 0 {
            self.push("core.train", batch, end - trained, end, span);
        }
        out
    }
}

/// What one replica shard ended with.
#[derive(Debug)]
pub struct ShardRun {
    pub requests: u64,
    pub batches: u64,
    pub coop_syncs: u64,
    pub migrations: u64,
    pub migration_busy_us: f64,
    pub migrate_ticks: u64,
    pub directory_bytes: u64,
    pub directory_pages: u64,
    pub pages_accessed: u64,
    pub sim_queue_us: f64,
    pub latencies_us: Vec<f64>,
    pub stats: HssStats,
    pub agent: AgentStats,
    spans: Vec<Span>,
    clock_reads: u64,
}

impl ShardRun {
    pub fn view(&self) -> ShardView<'_> {
        ShardView {
            requests: self.requests,
            batches: self.batches,
            coop_syncs: self.coop_syncs,
            migrations: self.migrations,
            migration_busy_us: self.migration_busy_us,
            stats: &self.stats,
            agent: &self.agent,
        }
    }
}

/// Releases the barrier's other members if this shard's thread unwinds,
/// as the engine's own guard does.
struct LeaveGuard<'a> {
    coordinator: &'a Coordinator,
    member: usize,
}

impl Drop for LeaveGuard<'_> {
    fn drop(&mut self) {
        self.coordinator.leave(self.member);
    }
}

/// One shard's lifetime, call for call what `sibyl_serve`'s worker does
/// with its queue already drained into `requests`.
fn run_shard(
    config: &ServeConfig,
    shard: usize,
    requests: &[IoRequest],
    footprint: u64,
    coordinator: Option<&Arc<Coordinator>>,
    epoch: Instant,
) -> ShardRun {
    let resolved = config.hss.resolved(footprint.max(1));
    let mut sibyl = config.sibyl.clone();
    sibyl.seed = config.shard_seed(shard);
    sibyl.quant_mode = config.quant;
    sibyl.telemetry = config.telemetry;
    let mut migrate = config.migrate.clone();
    migrate.seed = config.migrate_seed(shard);

    let mut manager = StorageManager::new(&resolved);
    let encoder = StateEncoder::new(sibyl.feature_mask, manager.num_devices());
    let mut agent = SibylAgent::new(sibyl);
    let _leave = coordinator.map(|c| LeaveGuard {
        coordinator: c,
        member: shard,
    });
    if let Some(c) = coordinator {
        if c.config().mode.shares_experiences() {
            agent.set_experience_tap(c.config().share_fraction);
            agent.set_foreign_weight(c.config().foreign_weight);
        }
    }
    let mut migrator = Migrator::new(migrate);

    let mut rec = Recorder::new(epoch, shard as u32);
    let mut outcomes: Vec<AccessOutcome> = Vec::with_capacity(config.max_batch);
    let mut latencies_us = Vec::with_capacity(requests.len());
    let (mut batches, mut served, mut coop_syncs) = (0u64, 0u64, 0u64);
    let (mut migrations, mut migration_busy_us) = (0u64, 0.0f64);
    let (mut pages_accessed, mut sim_queue_us) = (0u64, 0.0f64);
    for (k, batch) in requests.chunks(config.max_batch).enumerate() {
        let k = k as u32;
        rec.timed("micro.featurize", k, NONE, || {
            for req in batch {
                black_box(encoder.observe(req, &manager));
            }
        });

        let opened = rec.now();
        let span = rec.push("batch", k, opened, opened, NONE);
        let targets = rec.timed_agent("core.decide", k, span, &mut agent, |agent| {
            agent.place_batch(batch, &manager)
        });
        rec.timed("hss.access", k, span, || {
            outcomes.clear();
            for (req, &target) in batch.iter().zip(&targets) {
                let outcome = manager.access_after(req, target, 0.0);
                sim_queue_us += manager.last_access_detail().queue_us;
                pages_accessed += u64::from(req.size_pages);
                latencies_us.push(outcome.latency_us);
                outcomes.push(outcome);
            }
        });
        rec.timed_agent("core.feedback", k, span, &mut agent, |agent| {
            agent.feedback_batch(&outcomes)
        });
        batches += 1;
        served += batch.len() as u64;
        if let Some(m) = &mut migrator {
            if batches.is_multiple_of(m.config().scan_period) {
                let tick = rec.timed("migrate.tick", k, span, || m.tick(&mut manager));
                migrations += tick.moved_pages;
                migration_busy_us += tick.busy_us;
            }
        }
        if let Some(c) = coordinator {
            if batches.is_multiple_of(c.config().sync_period) {
                let mode = c.config().mode;
                let (weights, published) = rec.timed("coop.exchange", k, span, || {
                    (
                        mode.averages_weights()
                            .then(|| agent.export_weights())
                            .flatten(),
                        if mode.shares_experiences() {
                            agent.take_published()
                        } else {
                            Vec::new()
                        },
                    )
                });
                let outcome = rec.timed("coop.sync_wait", k, span, || {
                    c.sync(shard, weights, published)
                });
                rec.timed("coop.exchange", k, span, || {
                    if let Some(average) = &outcome.weights {
                        agent.import_weights(average);
                    }
                    if !outcome.shared.is_empty() {
                        agent.absorb_experiences(&outcome.shared);
                    }
                });
                coop_syncs += 1;
            }
        }
        let closed = rec.now();
        rec.spans[span as usize].end_ns = closed;
    }
    ShardRun {
        requests: served,
        batches,
        coop_syncs,
        migrations,
        migration_busy_us,
        migrate_ticks: migrator.as_ref().map_or(0, |m| m.stats().ticks),
        directory_bytes: manager.directory().directory_bytes() as u64,
        directory_pages: manager.directory().len() as u64,
        pages_accessed,
        sim_queue_us,
        latencies_us,
        stats: manager.stats().clone(),
        agent: agent.stats().clone(),
        spans: rec.spans,
        clock_reads: rec.clock_reads,
    }
}

/// A finished traced run.
#[derive(Debug)]
pub struct Replica {
    pub shards: Vec<ShardRun>,
    /// Router spans first, then each shard's, parents re-indexed.
    pub spans: Vec<Span>,
    pub footprint_pages: u64,
    /// Building the stream (the mix's metadata pass included).
    pub materialize_s: f64,
    clock_reads: u64,
}

/// Runs the replica: the router's two passes on the calling thread, then
/// the shards — one after the other when they are independent, one
/// harness thread each when cooperation needs the barrier.
pub fn run(spec: &ServeSpec, seed: u64) -> Replica {
    let config = &spec.config;
    let epoch = Instant::now();
    let mut router = Recorder::new(epoch, NONE);

    let t = Instant::now();
    let stream = spec.stream(seed);
    let materialize_s = t.elapsed().as_secs_f64();

    // The engine's footprint pre-pass, statement for statement.
    let footprints: Vec<u64> = router.timed("serve.prepass", 0, NONE, || {
        let mut shard_pages: Vec<HashSet<u64>> = vec![HashSet::new(); config.shards];
        for req in stream.clone() {
            shard_pages[shard_of(req.lpn, config.shards)].extend(req.pages());
        }
        shard_pages.iter().map(|pages| pages.len() as u64).collect()
    });
    // The routing pass: generate, rescale, pick the shard. A `Vec` push
    // stands where the engine sends on a channel.
    let queues: Vec<Vec<IoRequest>> = router.timed("trace.gen", 0, NONE, || {
        let mut queues = vec![Vec::new(); config.shards];
        for req in stream {
            let mut routed = req;
            if config.time_scale != 1.0 {
                routed.timestamp_us = (req.timestamp_us as f64 / config.time_scale) as u64;
            }
            queues[shard_of(routed.lpn, config.shards)].push(routed);
        }
        queues
    });

    let coordinator = config
        .coop
        .mode
        .is_cooperative()
        .then(|| Coordinator::new(config.coop, config.shards));
    let shards: Vec<ShardRun> = match &coordinator {
        None => (0..config.shards)
            .map(|i| run_shard(config, i, &queues[i], footprints[i], None, epoch))
            .collect(),
        Some(coordinator) => std::thread::scope(|scope| {
            let workers: Vec<_> = (0..config.shards)
                .map(|i| {
                    let (queue, footprint) = (&queues[i], footprints[i]);
                    scope.spawn(move || {
                        run_shard(config, i, queue, footprint, Some(coordinator), epoch)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("a replica shard panicked"))
                .collect()
        }),
    };

    let mut spans = router.spans;
    let mut clock_reads = router.clock_reads;
    for shard in &shards {
        let offset = spans.len() as u32;
        spans.extend(shard.spans.iter().map(|s| Span {
            parent: if s.parent == NONE {
                NONE
            } else {
                s.parent + offset
            },
            ..*s
        }));
        clock_reads += shard.clock_reads;
    }
    Replica {
        shards,
        spans,
        footprint_pages: footprints.iter().sum(),
        materialize_s,
        clock_reads,
    }
}

/// One replica run is as exposed to host noise as one engine repetition,
/// and the ledger is read against the engine's *best* repetition; so the
/// traced process runs the replica a few times and keeps the run with the
/// smallest ledger total.
const TRACED_RUNS: usize = 5;

/// The traced run as one repetition's result: the replica's modeled
/// outcome (for the drift check) and every per-layer reading it can take.
/// Host fields time the traced process's replica runs, spans and all.
pub fn run_traced_rep(
    spec: &ServeSpec,
    seed: u64,
    started: Instant,
    spans: Option<&str>,
) -> Result<Rep, String> {
    let setup_s = started.elapsed().as_secs_f64();
    let timed = Timed::start();
    let replica = (0..TRACED_RUNS)
        .map(|_| run(spec, seed))
        .min_by_key(|replica| Ledger::of(&replica.spans).total_ns)
        .ok_or("no traced run")?;
    let timed = timed.stop();
    if let Some(path) = spans {
        replica
            .write_spans(path)
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    let layers = replica.layers(&spec.config);
    Ok(replica
        .modeled()
        .into_rep(spec.requests, setup_s, timed, layers))
}

/// Host time by layer. A span's *self* time is its duration minus what
/// its child spans cover; the ledger's total is the root spans' duration,
/// so the self times sum to it exactly.
#[derive(Debug, PartialEq, Eq)]
pub struct Ledger {
    pub total_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    /// `micro.*` spans: measured, but not part of the total.
    pub micro_ns: BTreeMap<&'static str, u64>,
}

impl Ledger {
    pub fn of(spans: &[Span]) -> Ledger {
        let mut covered = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NONE {
                covered[s.parent as usize] += s.duration();
            }
        }
        let mut ledger = Ledger {
            total_ns: 0,
            self_ns: BTreeMap::new(),
            micro_ns: BTreeMap::new(),
        };
        for (s, covered) in spans.iter().zip(covered) {
            if s.name.starts_with("micro.") {
                *ledger.micro_ns.entry(s.name).or_default() += s.duration();
                continue;
            }
            if s.parent == NONE {
                ledger.total_ns += s.duration();
            }
            *ledger.self_ns.entry(s.name).or_default() += s.duration().saturating_sub(covered);
        }
        ledger
    }

    fn layer(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }
}

/// Cost of one bracket read, for `ledger.timer_cost_us_per_req`.
fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let t = Instant::now();
    for _ in 0..READS {
        black_box(Instant::now());
    }
    t.elapsed().as_nanos() as f64 / f64::from(READS)
}

/// Micro-benchmark: µs per row of the decide path's kernel —
/// `infer_batch` at the engine's batch width on the learner's snapshot.
fn infer_us_per_row(config: &ServeConfig) -> f64 {
    const ITERATIONS: u32 = 4_000;
    let rows = config.max_batch;
    let devices = config.hss.num_devices();
    let obs_len = StateEncoder::new(config.sibyl.feature_mask, devices).observation_len();
    let net = Learner::new(&config.sibyl, devices, obs_len).weights_snapshot();
    let xs: Vec<f32> = (0..rows * obs_len).map(|i| (i % 7) as f32 / 7.0).collect();
    let t = Instant::now();
    for _ in 0..ITERATIONS {
        black_box(net.infer_batch(black_box(&xs), rows));
    }
    t.elapsed().as_secs_f64() * 1e6 / (f64::from(ITERATIONS) * rows as f64)
}

impl Replica {
    pub fn modeled(&self) -> Modeled {
        let views: Vec<ShardView<'_>> = self.shards.iter().map(ShardRun::view).collect();
        Modeled::of(&views)
    }

    /// Every per-layer metric the replica can give, by catalogue name.
    /// `coop.*` and `migrate.*` appear only when the workload runs them.
    pub fn layers(&self, config: &ServeConfig) -> Vec<(String, f64)> {
        let ledger = Ledger::of(&self.spans);
        let sum = |f: fn(&ShardRun) -> u64| self.shards.iter().map(f).sum::<u64>() as f64;
        let n = sum(|s| s.requests);
        let us_per_req = |ns: u64| ns as f64 / 1e3 / n;
        let layer = |name: &str| us_per_req(ledger.layer(name));

        let mut out: Vec<(String, f64)> = Vec::new();
        let mut put = |name: &str, value: f64| out.push((name.to_string(), value));
        put("ledger.total_us_per_req", us_per_req(ledger.total_ns));
        put(
            "ledger.residual_share",
            ledger.layer("batch") as f64 / ledger.total_ns as f64,
        );
        put(
            "ledger.timer_cost_us_per_req",
            clock_read_ns() * self.clock_reads as f64 / 1e3 / n,
        );
        put("trace.gen_us_per_req", layer("trace.gen"));
        put("trace.materialize_s", self.materialize_s);
        put("trace.requests", n);
        put("trace.footprint_pages", self.footprint_pages as f64);
        put("serve.prepass_us_per_req", layer("serve.prepass"));
        put("serve.batches", sum(|s| s.batches));
        let busiest = self.shards.iter().map(|s| s.requests).max().unwrap_or(0);
        let idlest = self.shards.iter().map(|s| s.requests).min().unwrap_or(0);
        put("serve.shard_skew", busiest as f64 / idlest as f64);

        let train_ns = ledger.layer("core.train");
        let train_steps = sum(|s| s.agent.train_steps);
        put("core.train_us_per_req", us_per_req(train_ns));
        put("core.train_steps", train_steps);
        if train_steps > 0.0 {
            put(
                "core.train_ms_per_step",
                train_ns as f64 / 1e6 / train_steps,
            );
            let samples =
                train_steps * config.sibyl.batches_per_step as f64 * config.sibyl.batch_size as f64;
            put("nn.train_us_per_sample", train_ns as f64 / 1e3 / samples);
        }
        put("core.decide_us_per_req", layer("core.decide"));
        put(
            "core.featurize_us_per_req",
            us_per_req(ledger.micro_ns.get("micro.featurize").copied().unwrap_or(0)),
        );
        put("core.feedback_us_per_req", layer("core.feedback"));
        put("core.explorations", sum(|s| s.agent.explorations));
        put("core.weight_syncs", sum(|s| s.agent.weight_syncs));
        put("nn.infer_us_per_row", infer_us_per_row(config));

        let access_ns = ledger.layer("hss.access");
        put("hss.access_us_per_req", us_per_req(access_ns));
        put(
            "hss.access_ns_per_page",
            access_ns as f64 / sum(|s| s.pages_accessed),
        );
        let sim_latency_us: f64 = self.shards.iter().map(|s| s.stats.sum_latency_us).sum();
        let sim_queue_us: f64 = self.shards.iter().map(|s| s.sim_queue_us).sum();
        put("hss.sim_queue_share", sim_queue_us / sim_latency_us);
        let mut latencies: Vec<f64> = self
            .shards
            .iter()
            .flat_map(|s| s.latencies_us.iter().copied())
            .collect();
        latencies.sort_by(f64::total_cmp);
        for (name, p) in [
            ("hss.sim_p50_latency_us", 50.0),
            ("hss.sim_p99_latency_us", 99.0),
        ] {
            if let Some(value) = probes::percentile(&latencies, p) {
                put(name, value);
            }
        }
        put(
            "hss.eviction_fraction",
            sum(|s| s.stats.eviction_events) / n,
        );
        put("hss.evicted_pages", sum(|s| s.stats.evicted_pages));
        put("hss.migrated_pages", sum(|s| s.stats.migrated_pages));
        put(
            "hss.fast_placement_fraction",
            sum(|s| s.stats.placements.first().copied().unwrap_or(0)) / n,
        );
        put(
            "hss.dir_bytes_per_page",
            sum(|s| s.directory_bytes) / sum(|s| s.directory_pages),
        );

        if config.migrate.policy.is_active() {
            let ticks = sum(|s| s.migrate_ticks);
            put("migrate.tick_us_per_req", layer("migrate.tick"));
            put("migrate.ticks", ticks);
            put("migrate.moved_pages", sum(|s| s.migrations));
            put(
                "migrate.move_yield",
                sum(|s| s.migrations) / (ticks * config.migrate.max_moves_per_tick as f64),
            );
            put(
                "migrate.sim_busy_us",
                self.shards.iter().map(|s| s.migration_busy_us).sum(),
            );
        }
        if config.coop.mode.is_cooperative() {
            put("coop.sync_wait_us_per_req", layer("coop.sync_wait"));
            put("coop.exchange_us_per_req", layer("coop.exchange"));
            put("coop.syncs", sum(|s| s.coop_syncs));
            put("coop.absorbed", sum(|s| s.agent.shared_absorbed));
        }
        put("sim.fingerprint32", f64::from(self.modeled().fingerprint32));
        out
    }

    /// Writes the spans as JSON lines: id, name (`batch.<shard>.<k>` for
    /// a batch), shard, batch, start, end, parent id.
    pub fn write_spans(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let id_or_null = |id: u32| {
            if id == NONE {
                "null".to_string()
            } else {
                id.to_string()
            }
        };
        for (id, s) in self.spans.iter().enumerate() {
            let name = if s.name == "batch" {
                format!("batch.{}.{}", s.shard, s.batch)
            } else {
                s.name.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{name}\",\"shard\":{},\"batch\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                id_or_null(s.shard),
                s.batch,
                s.start_ns,
                s.end_ns,
                id_or_null(s.parent)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{shard_views, Workload};
    use sibyl_serve::serve_stream;

    /// The 4 000-request cut of a serve workload.
    fn cut(workload: Workload) -> ServeSpec {
        ServeSpec::new(workload, 4_000).unwrap()
    }

    #[test]
    fn replica_is_bit_identical_to_the_engine_on_every_serve_workload() {
        // `full-stack` runs the threaded replica behind the coop barrier.
        for workload in [
            Workload::ServeLearn,
            Workload::ServeSteady,
            Workload::FullStack,
        ] {
            let spec = cut(workload);
            let engine = serve_stream(&spec.config, spec.stream(11)).unwrap();
            let replica = run(&spec, 11);
            assert_eq!(replica.shards.len(), engine.shards.len());
            for (r, e) in replica.shards.iter().zip(&engine.shards) {
                let name = workload.name();
                assert_eq!(r.stats, e.stats, "{name}: HssStats of shard {}", e.shard);
                assert_eq!(r.agent, e.agent, "{name}: AgentStats of shard {}", e.shard);
                assert_eq!(r.requests, e.requests, "{name}");
                assert_eq!(r.batches, e.batches, "{name}");
                assert_eq!(r.coop_syncs, e.coop_syncs, "{name}");
                assert_eq!(r.migrations, e.migrations, "{name}");
                assert_eq!(r.directory_bytes, e.directory_bytes, "{name}");
                assert_eq!(
                    r.migration_busy_us.to_bits(),
                    e.migration_busy_us.to_bits(),
                    "{name}"
                );
            }
            let engine_modeled = Modeled::of(&shard_views(&engine));
            assert_eq!(replica.modeled(), engine_modeled, "{}", workload.name());
            assert_eq!(engine_modeled.served, 4_000);
            let aggregate = engine.aggregate();
            assert_eq!(engine_modeled.avg_latency_us, aggregate.avg_latency_us);
            assert_eq!(engine_modeled.iops, aggregate.iops);
        }
    }

    #[test]
    fn ledger_stages_plus_residual_equal_the_total() {
        for workload in [Workload::ServeLearn, Workload::FullStack] {
            let spec = cut(workload);
            let replica = run(&spec, 5);
            let ledger = Ledger::of(&replica.spans);
            assert!(ledger.total_ns > 0);
            assert_eq!(
                ledger.self_ns.values().sum::<u64>(),
                ledger.total_ns,
                "{}: self times must sum to the total",
                workload.name()
            );
            // Exactness rests on containment: every child lies inside its
            // parent, and parents precede children.
            for (i, s) in replica.spans.iter().enumerate() {
                assert!(s.start_ns <= s.end_ns);
                if s.parent != NONE {
                    let p = &replica.spans[s.parent as usize];
                    assert!((s.parent as usize) < i);
                    assert!(
                        p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                        "{s:?} in {p:?}"
                    );
                    assert_eq!(p.shard, s.shard);
                }
            }
            for stage in [
                "serve.prepass",
                "trace.gen",
                "batch",
                "core.decide",
                "hss.access",
            ] {
                assert!(ledger.self_ns.contains_key(stage), "{stage}");
            }
            assert!(ledger.micro_ns.contains_key("micro.featurize"));
            let has_coop = ledger.self_ns.contains_key("coop.sync_wait");
            assert_eq!(has_coop, workload == Workload::FullStack);
        }
    }

    #[test]
    fn ledger_arithmetic_on_a_hand_built_tree() {
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            shard: 0,
            batch: 0,
            start_ns,
            end_ns,
            parent,
        };
        let spans = [
            span("serve.prepass", 0, 10, NONE),
            span("batch", 10, 110, NONE),
            span("core.decide", 12, 52, 1),
            span("core.train", 22, 52, 2),
            span("hss.access", 55, 100, 1),
            span("micro.featurize", 110, 117, NONE),
        ];
        let ledger = Ledger::of(&spans);
        assert_eq!(ledger.total_ns, 110);
        assert_eq!(ledger.layer("serve.prepass"), 10);
        assert_eq!(ledger.layer("batch"), 15);
        assert_eq!(ledger.layer("core.decide"), 10);
        assert_eq!(ledger.layer("core.train"), 30);
        assert_eq!(ledger.layer("hss.access"), 45);
        assert_eq!(ledger.micro_ns["micro.featurize"], 7);
        assert_eq!(ledger.self_ns.values().sum::<u64>(), ledger.total_ns);
    }

    #[test]
    fn layers_use_catalogue_names_and_separate_the_subsystems() {
        let spec = cut(Workload::FullStack);
        let layers = run(&spec, 3).layers(&spec.config);
        for (name, value) in &layers {
            assert!(crate::metrics::per_layer(name).is_some(), "{name}");
            assert!(value.is_finite(), "{name} = {value}");
        }
        let has = |prefix: &str| layers.iter().any(|(n, _)| n.starts_with(prefix));
        assert!(has("coop.") && has("migrate."));

        let spec = cut(Workload::ServeSteady);
        let layers = run(&spec, 3).layers(&spec.config);
        let has = |prefix: &str| layers.iter().any(|(n, _)| n.starts_with(prefix));
        assert!(!has("coop.") && !has("migrate.") && !has("policies."));
    }
}
