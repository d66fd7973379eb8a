//! The sharded serving engine: LBA-hash routing, per-shard workers,
//! batched-inference request draining, cooperative sync rounds, and
//! background-migration ticks.

use std::sync::Arc;

use sibyl_coop::{CoopConfigError, Coordinator};
use sibyl_core::SibylAgent;
use sibyl_hss::{AccessOutcome, StorageManager};
use sibyl_migrate::{MigrateConfig, MigrateConfigError, Migrator};
use sibyl_telemetry::{ShardTelemetry, TelemetryReport};
use sibyl_trace::{mix64, IoRequest, PageSet, Trace};
use sibyl_xray::{RequestObservation, ShardXray, XrayConfigError, XrayReport};

use crate::config::ServeConfig;
use crate::handoff::{block_queues, BlockReceiver, QUEUE_CAPACITY};
use crate::observe::ShardObserver;
use crate::report::{CurvePoint, ServeReport, ShardReport};

/// Errors from serving runs: an unusable trace or a degenerate
/// configuration ([`ServeConfig::validate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The trace contains no requests.
    EmptyTrace,
    /// `shards == 0`: there would be nothing to route to.
    ZeroShards,
    /// `max_batch == 0`: a shard could never fill a batch.
    ZeroMaxBatch,
    /// `time_scale` is not positive and finite.
    InvalidTimeScale,
    /// `nn_ns_per_mac` is negative or not finite.
    InvalidNnCost,
    /// The xray tracing configuration is degenerate.
    Xray(XrayConfigError),
    /// The cooperation configuration is degenerate.
    Coop(CoopConfigError),
    /// The background-migration configuration is degenerate.
    Migrate(MigrateConfigError),
    /// A worker shard died mid-run (its thread panicked), so the trace
    /// could not be fully served. Carries the dead shard's index. This
    /// surfaces as an error instead of poisoning the caller with a
    /// router-side panic.
    ShardDown {
        /// Index of the shard whose worker died.
        shard: usize,
    },
    /// The OS refused to spawn a worker thread for this shard, so the
    /// engine could not be brought up. Like [`ServeError::ShardDown`],
    /// this is surfaced as a typed error rather than a router panic.
    SpawnFailed {
        /// Index of the shard whose worker could not be spawned.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::EmptyTrace => write!(f, "trace contains no requests"),
            ServeError::ZeroShards => write!(f, "ServeConfig: shards must be positive"),
            ServeError::ZeroMaxBatch => write!(f, "ServeConfig: max_batch must be positive"),
            ServeError::InvalidTimeScale => {
                write!(f, "ServeConfig: time_scale must be positive and finite")
            }
            ServeError::InvalidNnCost => {
                write!(
                    f,
                    "ServeConfig: nn_ns_per_mac must be non-negative and finite"
                )
            }
            ServeError::Xray(e) => write!(f, "ServeConfig: {e}"),
            ServeError::Coop(e) => write!(f, "ServeConfig: {e}"),
            ServeError::Migrate(e) => write!(f, "ServeConfig: {e}"),
            ServeError::ShardDown { shard } => {
                write!(f, "worker shard {shard} died before the trace was served")
            }
            ServeError::SpawnFailed { shard } => {
                write!(f, "could not spawn the worker thread for shard {shard}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Pages per routing region (`2^REGION_BITS` = 64 pages, 256 KiB at 4 KiB
/// pages). Sized to the trace generators' maximum request size, so a
/// request's pages almost always share one region — and therefore one
/// shard.
pub const REGION_BITS: u32 = 6;

/// The shard a request routes to: a mixing hash of its starting LPN's
/// *region* (`lpn >> REGION_BITS`) modulo the shard count. Same LPN →
/// same region → same shard, so each shard's access-frequency features
/// stay meaningful, and whole regions colocate, so multi-page requests
/// land on the shard that owns (nearly all of) their pages.
///
/// Routing is by the request's *starting* LPN: a request that straddles
/// a region boundary carries its tail pages to the start region's shard,
/// so a page in the straddled tail can materialize in more than one
/// shard's private manager. Shard-private copies are modeled
/// independently (no cross-shard invalidation) — an approximation that
/// only occurs at region boundaries and is the price of stateless
/// routing; cross-shard migration is an open ROADMAP item.
pub fn shard_of(lpn: u64, shards: usize) -> usize {
    debug_assert!(shards > 0);
    // An avalanching hash, so adjacent regions spread evenly across
    // shards.
    (mix64((lpn >> REGION_BITS).wrapping_add(0x9E37_79B9_7F4A_7C15)) % shards as u64) as usize
}

/// The footprint pre-pass: how many distinct pages the requests routed
/// to each shard touch, and how many requests `stream` holds.
/// Fraction-mode capacities resolve against these — the data each shard
/// will actually hold, the same per-shard footprints
/// [`Trace::footprint_pages`] gives a materialized split. The page sets
/// keep this O(unique pages), not O(total request pages): one
/// regeneration pass buys footprint-bounded memory for the run.
fn shard_footprints(stream: impl Iterator<Item = IoRequest>, shards: usize) -> (Vec<u64>, u64) {
    let mut shard_pages = vec![PageSet::default(); shards];
    let mut total_requests = 0u64;
    for req in stream {
        shard_pages[shard_of(req.lpn, shards)].insert(req.lpn..=req.last_lpn());
        total_requests += 1;
    }
    let footprints = shard_pages.iter().map(PageSet::len).collect();
    (footprints, total_requests)
}

/// Serves a whole materialized trace through the sharded engine.
///
/// Thin wrapper over [`serve_stream`] — the trace's requests are fed
/// straight from the slice, so existing call sites keep their exact
/// behavior (bit-identical reports) while the engine itself is
/// stream-fed. For production-sized runs, hand [`serve_stream`] an
/// infinite generator (e.g. [`sibyl_trace::stream::SpecStream`]) bounded
/// with `.take(n)` instead of materializing a `Vec` of requests.
///
/// # Errors
///
/// Returns [`ServeError::EmptyTrace`] for an empty trace, or whatever
/// [`serve_stream`] returns.
///
/// # Panics
///
/// Panics if the embedded [`SibylConfig`](sibyl_core::SibylConfig) is
/// invalid.
pub fn serve_trace(config: &ServeConfig, trace: &Trace) -> Result<ServeReport, ServeError> {
    serve_stream(config, trace.iter().copied())
}

/// Serves a finite request stream through the sharded engine and collects
/// per-shard reports — without ever materializing the workload.
///
/// This is the engine's real entry point ([`serve_trace`] delegates
/// here). The stream is consumed twice: a *footprint pre-pass* over a
/// clone computes each shard's unique-page count (so fraction-mode
/// capacities resolve against exactly the data that shard will hold,
/// identically to the materialized path), then the *routing pass* feeds
/// the shard queues.
///
/// **Memory.** The pre-pass page sets cost O(footprint) and are dropped
/// before routing. Routing has backpressure: requests cross to a shard in
/// fixed blocks of 512; the router fills one, one may be queued, the
/// shard cuts its batches out of a third. So at most `3 × 512 +
/// max_batch` requests per shard are in flight between the router and
/// the serve stage, and peak memory is
/// bounded by the footprint plus that — never by the stream length,
/// which is what makes 10M-request runs practical: a seeded generator
/// stream costs O(footprint) where a materialized `Trace` costs 24 bytes
/// per request. A *cooperative* run adds one term: while a shard is
/// starved (blocked on an empty queue) the router queues past a full
/// peer's lane instead of waiting, so a lane can also hold the
/// routing imbalance that accumulated while a peer starved — under
/// lock-step sync rounds the difference between the shards' shares of
/// the stream (a few percent of it for a hash-balanced workload, all of
/// it only when every request routes to one shard).
///
/// The stream must be **finite** (bound an infinite generator with
/// `.take(n)`) and `Clone` must replay the identical sequence — true for
/// slice and `Vec` iterators and for every seeded stream in
/// [`sibyl_trace::stream`], whose proptests pin it.
///
/// The caller thread acts as the router: it walks the stream in
/// timestamp order, compresses timestamps by [`ServeConfig::time_scale`],
/// and appends each request to the block it is filling for the shard
/// selected by [`shard_of`]; a full block (and, at the end of the
/// stream, each partial one) is handed to the shard whole, so a router
/// parked on a full queue is woken once per block rather than once per
/// batch.
/// Each worker shard owns a private [`StorageManager`] + [`SibylAgent`]
/// pair and repeatedly blocks until it has cut
/// [`ServeConfig::max_batch`] requests out of its blocks — carrying a
/// partial batch from one block into the next — or the trace is
/// exhausted, decides the whole batch with one
/// [`SibylAgent::place_batch`] call — batched C51 inference — then
/// serves the batch and feeds the outcomes back.
///
/// Under a cooperative [`CoopConfig`](sibyl_coop::CoopConfig) mode, every
/// shard additionally arrives at a [`Coordinator`] sync round after each
/// `sync_period` of its batches: experience-sharing modes publish the
/// tap's selections and absorb every other shard's, weight-averaging
/// modes contribute training-net parameters and adopt the federated
/// mean. Sync rounds sit at logical (batch-count) boundaries, and a
/// shard whose subsequence is exhausted leaves the coordinator, so the
/// contributor set of every round — hence every result — is independent
/// of thread scheduling. A full queue behind a barrier-parked shard must
/// not stall the router while the barrier waits on a peer the router has
/// yet to feed, so a cooperative run's router waits on a full queue only
/// while no shard is starved; a starved shard makes it queue past the
/// bound until that shard is fed.
///
/// When [`ServeConfig::migrate`] runs an active policy, every shard
/// additionally ticks a private [`Migrator`] after each
/// `scan_period` of its batches — another logical boundary, so seeded
/// runs stay deterministic — promoting hot slower-device pages and
/// demoting cold fast ones through the bandwidth-accounted
/// [`StorageManager::migrate_batch`]; the migration I/O advances the
/// shard's device clocks, so subsequent foreground requests observe the
/// contention ([`ShardReport::migrations`] /
/// [`ShardReport::migration_busy_us`]).
///
/// When [`ServeConfig::nn_ns_per_mac`] is positive, every batch is
/// charged one simulated NN forward pass amortized over its requests
/// (see the field's docs), so placement-decision compute shows up in the
/// latency metrics. Training is charged through the same model: a train
/// step bills `batches_per_step` batched forward+backward weight streams
/// (the batched `train_step` streams each weight matrix once per replay
/// batch, exactly like batched inference), and the bill delays the
/// shard's *next* batch — the §10 overhead analysis's point that both
/// halves of the two-network design cost request latency.
///
/// Because shards fill batches by blocking on their queue rather than
/// draining opportunistically, batch boundaries are fixed chunks of each
/// shard's request subsequence, whatever the block size, and training
/// runs inline on the shard thread. Results are therefore bit-identical
/// across runs for a given config and trace, regardless of thread
/// scheduling — in every cooperation mode.
///
/// # Errors
///
/// Returns [`ServeError::EmptyTrace`] for a stream that yields no
/// requests, the configuration's first violated constraint (see
/// [`ServeConfig::validate`]), or [`ServeError::SpawnFailed`] when the
/// OS refuses a worker thread.
///
/// # Panics
///
/// Panics if the embedded [`SibylConfig`](sibyl_core::SibylConfig) is
/// invalid.
pub fn serve_stream<S>(config: &ServeConfig, stream: S) -> Result<ServeReport, ServeError>
where
    S: Iterator<Item = IoRequest> + Clone,
{
    route_and_serve(config, stream, QUEUE_CAPACITY)
}

/// [`serve_stream`] with the router→shard queue capacity as a parameter
/// (blocks of `max(1, queue_capacity / 2)`), so this crate's tests can
/// drive lanes far smaller than a run's.
pub(crate) fn route_and_serve<S>(
    config: &ServeConfig,
    stream: S,
    queue_capacity: usize,
) -> Result<ServeReport, ServeError>
where
    S: Iterator<Item = IoRequest> + Clone,
{
    config.validate()?;

    let (footprints, total_requests) = shard_footprints(stream.clone(), config.shards);
    if total_requests == 0 {
        return Err(ServeError::EmptyTrace);
    }

    let coordinator = config
        .coop
        .mode
        .is_cooperative()
        .then(|| Coordinator::new(config.coop, config.shards));

    let queues = block_queues(queue_capacity, config.shards, coordinator.is_some());
    let mut senders = Vec::with_capacity(config.shards);
    let mut workers = Vec::with_capacity(config.shards);
    for ((shard, &footprint), (tx, rx)) in footprints.iter().enumerate().zip(queues) {
        senders.push(tx);
        let resolved = config.hss.resolved(footprint.max(1));
        let mut sibyl = config.sibyl.clone();
        sibyl.seed = config.shard_seed(shard);
        sibyl.telemetry = config.telemetry;
        let mut migrate = config.migrate.clone();
        migrate.seed = config.migrate_seed(shard);
        let task = ShardTask {
            shard,
            rx,
            resolved,
            sibyl,
            max_batch: config.max_batch,
            nn_ns_per_mac: config.nn_ns_per_mac,
            curve_every: config.curve_every,
            coop: coordinator.clone(),
            migrate,
        };
        // The observers are built on the shard's own thread, once its
        // manager and agent exist (the wall clock they start is the
        // shard's serving time), from the *base* seed: an x-ray sampling
        // decision depends only on (seed, lba, seq).
        let (telemetry, xray, seed) = (config.telemetry, config.xray, config.sibyl.seed);
        let spawned = std::thread::Builder::new()
            .name(format!("sibyl-shard-{shard}"))
            .spawn(move || run_shard(task, || ShardObserver::new(&telemetry, &xray, shard, seed)));
        match spawned {
            Ok(handle) => workers.push(handle),
            Err(_) => {
                // Unblock the shards already spawned — with their senders
                // gone they drain an empty queue, leave any coordinator,
                // and exit — then surface a typed error instead of
                // panicking the router.
                drop(senders);
                for worker in workers {
                    let _ = worker.join();
                }
                return Err(ServeError::SpawnFailed { shard });
            }
        }
    }

    // Route. A full lane gives backpressure: the router stalls while a
    // shard still holds its previous block instead of buffering the
    // whole stream (a cooperative run's router stalls only while no peer
    // is starved). A push can only fail when the receiving worker died
    // (dropped its receiver by panicking); stop routing and surface that
    // as an error rather than panicking the router.
    let mut dead_shard: Option<usize> = None;
    for req in stream {
        let routed = req.time_scaled(config.time_scale);
        let s = shard_of(routed.lpn, config.shards);
        if senders[s].push(routed).is_err() {
            dead_shard = Some(s);
            break;
        }
    }
    if dead_shard.is_none() {
        // End of stream: hand over the partial blocks.
        dead_shard = senders.iter_mut().position(|tx| tx.flush().is_err());
    }
    drop(senders); // end-of-stream (or abort): workers drain and exit

    let mut shards: Vec<ShardReport> = Vec::with_capacity(workers.len());
    let mut shard_telemetry: Vec<ShardTelemetry> = Vec::new();
    let mut shard_xrays: Vec<ShardXray> = Vec::new();
    for (shard, handle) in workers.into_iter().enumerate() {
        match handle.join() {
            Ok((report, (telemetry, xray))) => {
                shards.push(report);
                shard_telemetry.extend(telemetry);
                shard_xrays.extend(xray);
            }
            // Prefer the panicking shard's index over the shard whose
            // queue the router noticed first — they can differ when one
            // shard's death aborts routing to the others.
            Err(_) => dead_shard = Some(shard),
        }
    }
    if let Some(shard) = dead_shard {
        return Err(ServeError::ShardDown { shard });
    }
    shards.sort_by_key(|s| s.shard);
    let telemetry = config
        .telemetry
        .enabled()
        .then(|| TelemetryReport::new(shard_telemetry));
    let xray = config.xray.enabled().then(|| XrayReport::new(shard_xrays));
    Ok(ServeReport {
        shards,
        telemetry,
        xray,
    })
}

/// Everything one worker shard needs, moved onto its thread.
struct ShardTask {
    shard: usize,
    rx: BlockReceiver,
    resolved: sibyl_hss::HssConfig,
    sibyl: sibyl_core::SibylConfig,
    max_batch: usize,
    nn_ns_per_mac: f64,
    curve_every: u64,
    coop: Option<Arc<Coordinator>>,
    migrate: MigrateConfig,
}

/// Deregisters a shard from the coordinator when its thread exits — on
/// the normal path *and* on unwind. Without this, a panicking shard
/// would leave `members` overcounted and every peer parked at the sync
/// barrier forever, turning a loud `join` panic into a silent hang.
struct LeaveGuard {
    coord: Arc<Coordinator>,
    member: usize,
}

impl Drop for LeaveGuard {
    fn drop(&mut self) {
        self.coord.leave(self.member);
    }
}

/// One cooperative sync round: contribute what the mode shares, adopt
/// what the round returns.
fn coop_sync(coord: &Coordinator, shard: usize, agent: &mut SibylAgent) {
    let mode = coord.config().mode;
    let weights = if mode.averages_weights() {
        agent.export_weights()
    } else {
        None
    };
    let published = if mode.shares_experiences() {
        agent.take_published()
    } else {
        Vec::new()
    };
    let outcome = coord.sync(shard, weights, published);
    if let Some(avg) = &outcome.weights {
        agent.import_weights(avg);
    }
    if !outcome.shared.is_empty() {
        agent.absorb_experiences(&outcome.shared);
    }
}

/// §10 overhead model, decide side: one forward pass per batch — the
/// batched kernels stream each weight matrix once per *batch* — in µs.
/// Free when the model is off or the agent has no network yet.
fn decide_bill_us(agent: &SibylAgent, ns_per_mac: f64) -> f64 {
    if ns_per_mac > 0.0 {
        agent
            .inference_macs()
            .map_or(0.0, |macs| macs as f64 * ns_per_mac / 1_000.0)
    } else {
        0.0
    }
}

/// §10 overhead model, training side: one train step streams each weight
/// matrix once forward and once backward per replay batch — two passes
/// at the rate batched inference is billed — in µs.
fn train_step_bill_us(agent: &SibylAgent, ns_per_mac: f64) -> f64 {
    agent.inference_macs().map_or(0.0, |macs| {
        2.0 * agent.config().batches_per_step as f64 * macs as f64 * ns_per_mac / 1_000.0
    })
}

/// What a shard's observers recorded: the telemetry and x-ray sections.
type Observed = (Option<ShardTelemetry>, Option<ShardXray>);

/// One worker shard's lifetime, as five stages per batch — **fill**
/// (blocking), **decide** (one batched inference, billed by the §10
/// model), **serve** (each request through the storage manager, delayed
/// by its share of the bill), **learn** (feed outcomes back; bill any
/// train steps to the next batch) and **maintain** (migration tick,
/// curve sample, cooperative sync, each on its own batch-count boundary)
/// — until the router hangs up. Each stage reports what it did to the
/// [`ShardObserver`]; nothing here knows how a run is observed. The
/// shard leaves the coordinator through a drop guard, so a panicking
/// shard releases its peers instead of wedging the barrier.
fn run_shard(
    mut task: ShardTask,
    observe: impl FnOnce() -> ShardObserver,
) -> (ShardReport, Observed) {
    // First, so a constructor that panics below still leaves.
    let _leave_guard = task.coop.as_ref().map(|coord| LeaveGuard {
        coord: Arc::clone(coord),
        member: task.shard,
    });
    let mut manager = StorageManager::new(&task.resolved);
    let mut agent = SibylAgent::new(task.sibyl);
    let mut observer = observe();
    if let Some(coord) = &task.coop {
        if coord.config().mode.shares_experiences() {
            agent.set_experience_tap(coord.config().share_fraction);
        }
    }
    // `MigratePolicyKind::None` builds no migrator, so the baseline's
    // maintain stage has no migration work at all.
    let mut migrator = Migrator::new(task.migrate);
    let mut batch: Vec<IoRequest> = Vec::with_capacity(task.max_batch);
    let mut outcomes: Vec<AccessOutcome> = Vec::with_capacity(task.max_batch);
    let mut batches = 0u64;
    let mut requests = 0u64;
    let mut coop_syncs = 0u64;
    let mut nn_busy_us = 0.0f64;
    let mut train_busy_us = 0.0f64;
    // Training time billed but not yet charged to any request: a train
    // step runs after a batch's outcomes are fed back, so its cost lands
    // on the *next* batch's dispatch.
    let mut pending_train_us = 0.0f64;
    let mut train_steps = 0u64;
    let mut curve: Vec<CurvePoint> = Vec::new();
    let mut open = true;
    while open {
        open = task.rx.fill(task.max_batch, &mut batch);
        if batch.is_empty() {
            break;
        }

        // Decide. The batch's bill is amortized evenly across its
        // requests as an arrival delay, plus any training bill carried
        // over from the previous batch.
        let targets = agent.place_batch(&batch, &manager);
        let batch_decide_us = decide_bill_us(&agent, task.nn_ns_per_mac);
        let per_req_nn_us = batch_decide_us / batch.len() as f64;
        let per_req_delay_us = per_req_nn_us + pending_train_us / batch.len() as f64;
        pending_train_us = 0.0;
        observer.batch_decided(batches, batch.len(), batch_decide_us);

        // Serve. The manager's sub-span detail is valid right after
        // `access_after`: which device sat on the critical path and how
        // its time split into queueing vs transfer.
        outcomes.clear();
        for (req, &target) in batch.iter().zip(&targets) {
            nn_busy_us += per_req_nn_us;
            let outcome = manager.access_after(req, target, per_req_delay_us);
            if observer.wants_requests() {
                let detail = manager.last_access_detail();
                observer.request(&RequestObservation {
                    lba: req.lpn,
                    timestamp_us: req.timestamp_us as f64,
                    arrival_us: outcome.arrival_us,
                    latency_us: outcome.latency_us,
                    decide_us: per_req_nn_us,
                    train_us: per_req_delay_us - per_req_nn_us,
                    queue_us: detail.queue_us,
                    batch: batch.len(),
                    device: detail.device,
                    target: outcome.target.0,
                    promoted: outcome.migrated_pages,
                    evicted: outcome.evicted_pages,
                });
            }
            outcomes.push(outcome);
        }

        // Learn. Synchronous train steps happen inside `feedback_batch`,
        // so the step delta over a batch is deterministic.
        agent.feedback_batch(&outcomes);
        let new_steps = agent.stats().train_steps - train_steps;
        train_steps += new_steps;
        if new_steps > 0 {
            let billed = new_steps as f64 * train_step_bill_us(&agent, task.nn_ns_per_mac);
            pending_train_us += billed;
            train_busy_us += billed;
            observer.learned(&agent, new_steps);
        }
        batches += 1;
        requests += batch.len() as u64;

        // Maintain. All three sit at deterministic batch-count
        // boundaries. Migration I/O is charged against this shard's
        // device clocks — the next batch's requests queue behind it.
        if let Some(m) = &mut migrator {
            if batches.is_multiple_of(m.config().scan_period) {
                let tick = m.tick(&mut manager);
                observer.migration_tick(batches / m.config().scan_period, &tick);
            }
        }
        if task.curve_every > 0 && batches.is_multiple_of(task.curve_every) {
            let point = CurvePoint::from_stats(manager.stats());
            observer.curve_point(batches, &point, &agent);
            curve.push(point);
        }
        if let Some(coord) = &task.coop {
            if batches.is_multiple_of(coord.config().sync_period) {
                coop_sync(coord, task.shard, &mut agent);
                coop_syncs += 1;
                observer.coop_synced(coop_syncs, batches);
            }
        }
    }
    let observed = observer.finish(
        &manager,
        &agent,
        migrator.as_ref(),
        task.coop.as_deref().map(Coordinator::config),
    );
    // The migrator's own totals are the per-tick sums, in tick order.
    let migrated = migrator.map(|m| *m.stats()).unwrap_or_default();
    let report = ShardReport {
        shard: task.shard,
        requests,
        batches,
        directory_bytes: manager.directory().directory_bytes() as u64,
        directory_pages: manager.directory().len() as u64,
        coop_syncs,
        nn_busy_us,
        train_busy_us,
        migrations: migrated.moved_pages(),
        migration_busy_us: migrated.busy_us,
        curve,
        stats: manager.stats().clone(),
        agent: agent.stats().clone(),
    };
    (report, observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::watchdog::within_timeout;
    use crate::common::{config, mixed_trace};
    use proptest::prelude::*;
    use sibyl_coop::{CoopConfig, CoopMode};
    use sibyl_hss::{DeviceSpec, HssConfig};
    use sibyl_telemetry::TelemetryConfig;
    use sibyl_trace::IoOp;
    use sibyl_xray::XrayConfig;

    // The engine tests below route through lanes of other capacities
    // than `QUEUE_CAPACITY` (down to a single slot), which only this
    // crate can set: the router blocks, yields and queues past its bound
    // many times per run.

    #[test]
    fn cooperation_survives_tiny_queues_without_deadlock() {
        // A barrier-parked shard must not wedge the router: it waits on a
        // full queue only while no peer is starved, so even a 1-slot
        // capacity and a short sync period finish.
        let trace = mixed_trace(600);
        let cfg = config(4, 8).with_coop(CoopConfig::new(CoopMode::Both).with_sync_period(1));
        let n = trace.len() as u64;
        let report =
            within_timeout(move || route_and_serve(&cfg, trace.iter().copied(), 1)).unwrap();
        assert_eq!(report.total_requests(), n);
    }

    #[test]
    fn a_totally_skewed_cooperative_run_finishes() {
        // Every request routes to one shard of four. That shard parks at its
        // first barrier until its three empty peers leave — which they do
        // only at the end of the stream — so the router has to get the whole
        // stream past a 1-slot queue: a hard cap here is a hang, which is
        // why a full queue yields to a starved peer instead.
        let trace = mixed_trace(600);
        let busy = shard_of(trace.requests()[0].lpn, 4);
        let skewed: Vec<_> = trace
            .iter()
            .copied()
            .filter(|r| shard_of(r.lpn, 4) == busy)
            .collect();
        assert!(skewed.len() > 100);
        let cfg = config(4, 8).with_coop(CoopConfig::new(CoopMode::Both).with_sync_period(1));
        let n = skewed.len() as u64;
        let report =
            within_timeout(move || route_and_serve(&cfg, skewed.iter().copied(), 1)).unwrap();
        for s in &report.shards {
            let expected = if s.shard == busy { n } else { 0 };
            assert_eq!(s.requests, expected, "shard {}", s.shard);
        }
        assert_eq!(report.shards[busy].batches, n.div_ceil(8));
        assert_eq!(report.shards[busy].coop_syncs, n.div_ceil(8));
    }

    #[test]
    fn dead_shard_surfaces_as_shard_down_error() {
        // A capacity-limited slowest device makes StorageManager::new
        // panic inside every worker thread; the router must fold that
        // into ServeError::ShardDown instead of panicking on send/join —
        // also when it is blocked on a full queue at the time (8 slots
        // against 2 400 requests), in an independent run and in a
        // cooperative one.
        let independent = CoopConfig::new(CoopMode::Independent);
        let cooperative = CoopConfig::new(CoopMode::Both).with_sync_period(1);
        for (capacity, n, coop) in [
            (1024, 200, independent),
            (8, 1_200, independent),
            (8, 1_200, cooperative),
        ] {
            let mut cfg = config(2, 8).with_coop(coop);
            cfg.hss = cfg.hss.with_capacity_pages(vec![10, 10]);
            let trace = mixed_trace(n);
            match within_timeout(move || route_and_serve(&cfg, trace.iter().copied(), capacity)) {
                Err(ServeError::ShardDown { shard }) => {
                    assert!(shard < 2);
                    assert!(ServeError::ShardDown { shard }
                        .to_string()
                        .contains(&format!("shard {shard}")));
                }
                other => panic!("expected ShardDown, got {other:?}"),
            }
        }
    }

    #[test]
    fn backpressure_is_decision_neutral() {
        // The queue capacity sizes the blocks requests cross to a shard
        // in, never the batches cut from them: whatever the capacity —
        // below `max_batch`, not a multiple of it, a single slot — every
        // report equals the production-capacity (1024) one and every
        // shard's batches are fixed `max_batch`-chunks of its subsequence.
        // 773 is prime, so the single-shard runs end on a partial batch
        // too. The same under every cooperative mode, where a full queue
        // yields to a starved peer: how far the router gets ahead moves
        // with the capacity and the thread schedule, the reports do not.
        let mut cases = Vec::new();
        for shards in [1, 2, 3] {
            for max_batch in [1, 7, 16] {
                cases.push((shards, max_batch, CoopConfig::default()));
            }
        }
        for mode in [
            CoopMode::SharedReplay,
            CoopMode::WeightAverage,
            CoopMode::Both,
        ] {
            for shards in [2, 3] {
                for period in [1, 4] {
                    cases.push((shards, 7, CoopConfig::new(mode).with_sync_period(period)));
                }
            }
        }
        let trace = mixed_trace(400);
        within_timeout(move || {
            let stream = || trace.iter().copied().take(773);
            for (shards, max_batch, coop) in cases {
                let base = config(shards, max_batch)
                    .with_nn_ns_per_mac(20.0)
                    .with_coop(coop);
                let baseline = serve_stream(&base, stream()).unwrap();
                assert_eq!(baseline.total_requests(), 773);
                for s in &baseline.shards {
                    assert_eq!(s.batches, s.requests.div_ceil(max_batch as u64));
                }
                for capacity in [1, 5, 16, 1024] {
                    let report = route_and_serve(&base, stream(), capacity).unwrap();
                    assert_eq!(
                        report, baseline,
                        "queue capacity {capacity} at {shards}x{max_batch}, {coop:?}"
                    );
                }
            }
        });
    }

    #[test]
    fn a_shard_that_dies_in_its_constructors_releases_its_peers() {
        // Two shards share a coordinator and sync after every batch. One
        // gets a storage configuration `StorageManager::new` rejects (a
        // capacity-limited slowest device) and panics before its loop;
        // the other must still finish its rounds instead of parking at
        // the first barrier forever.
        let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
        let coop = CoopConfig::new(CoopMode::WeightAverage).with_sync_period(1);
        let coordinator = Coordinator::new(coop, 2);
        let mut queues = block_queues(QUEUE_CAPACITY, 2, true).into_iter();
        let mut task = |shard: usize, hss: HssConfig| {
            let (tx, rx) = queues.next().unwrap();
            let task = ShardTask {
                shard,
                rx,
                resolved: hss.resolved(1_000),
                sibyl: sibyl_core::SibylConfig::default(),
                max_batch: 8,
                nn_ns_per_mac: 0.0,
                curve_every: 0,
                coop: Some(Arc::clone(&coordinator)),
                migrate: MigrateConfig::default(),
            };
            (tx, task)
        };
        let (_idle, doomed) = task(0, hss.clone().with_capacity_pages(vec![10, 10]));
        let (mut tx, healthy) = task(1, hss);
        for i in 0..64 {
            tx.push(IoRequest::new(i, i, 1, IoOp::Read)).unwrap();
        }
        tx.flush().unwrap();
        drop(tx);
        let off = || ShardObserver::new(&TelemetryConfig::off(), &XrayConfig::Off, 0, 0);
        let report = within_timeout(move || {
            let doomed = std::thread::spawn(move || run_shard(doomed, off));
            let healthy = std::thread::spawn(move || run_shard(healthy, off));
            assert!(doomed.join().is_err(), "the bad configuration must panic");
            healthy.join().expect("the surviving shard must finish").0
        });
        assert_eq!((report.requests, report.batches), (64, 8));
        assert_eq!(report.coop_syncs, 8);
    }

    proptest! {
        /// Fraction-mode capacities resolve from these counts, so the
        /// pre-pass must report exactly what materializing each shard's
        /// subsequence and asking [`Trace::footprint_pages`] would.
        #[test]
        fn shard_footprints_equal_each_shards_trace_footprint(
            reqs in proptest::collection::vec((0u64..1 << 14, 1u32..65), 0..300),
            shards in 1usize..5,
            base in 0u64..u64::MAX - (1 << 15),
        ) {
            let reqs: Vec<IoRequest> = reqs
                .iter()
                .enumerate()
                .map(|(t, &(lpn, pages))| IoRequest::new(t as u64, base + lpn, pages, IoOp::Read))
                .collect();
            let (footprints, total) = shard_footprints(reqs.iter().copied(), shards);
            prop_assert_eq!(total, reqs.len() as u64);
            for (shard, &footprint) in footprints.iter().enumerate() {
                let routed = reqs.iter().copied().filter(|r| shard_of(r.lpn, shards) == shard);
                let trace = Trace::from_requests("shard", routed.collect());
                prop_assert_eq!(footprint, trace.footprint_pages());
            }
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for lpn in [0u64, 1, 4096, u64::MAX] {
            let s = shard_of(lpn, 4);
            assert!(s < 4);
            assert_eq!(s, shard_of(lpn, 4));
        }
        assert_eq!(shard_of(12345, 1), 0);
    }

    #[test]
    fn shard_of_keeps_a_region_together() {
        // All 64 pages of one region — the span of the largest generated
        // request — route to the same shard.
        let region_shard = shard_of(0, 8);
        for lpn in 0..(1u64 << REGION_BITS) {
            assert_eq!(shard_of(lpn, 8), region_shard);
        }
    }

    #[test]
    fn shard_of_spreads_adjacent_regions() {
        let mut hit = vec![false; 8];
        for region in 0..64u64 {
            hit[shard_of(region << REGION_BITS, 8)] = true;
        }
        assert!(hit.iter().all(|&h| h), "some shard never hit: {hit:?}");
    }
}
