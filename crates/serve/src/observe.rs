//! The shard loop's single observation seam.
//!
//! [`run_shard`](crate::engine) serves requests in five stages and tells
//! one [`ShardObserver`] what each stage did. Everything about *how* a
//! run is observed lives here and nowhere else: the telemetry event
//! taxonomy, the registry names (`serve.*`, `xray.*`, `curve.*`, `rl.*`,
//! `dir.*`), the x-ray → registry cross-feed and the teardown fold of the
//! storage manager's, migrator's and coordinator's final state.
//!
//! Disabled subsystems are *absent*, not branched on per call site: with
//! telemetry and x-ray off the observer holds two `None`s, constructs no
//! sink and no tracer, and every method returns at once.

use sibyl_coop::CoopConfig;
use sibyl_core::SibylAgent;
use sibyl_hss::StorageManager;
use sibyl_migrate::{Migrator, TickOutcome};
use sibyl_telemetry::{measured, ShardTelemetry, TelemetryConfig, TelemetrySink, TraceEvent};
use sibyl_xray::{RequestObservation, ShardXray, XrayConfig, XrayTracer};

use crate::report::CurvePoint;

/// One shard's observers: the telemetry sink, the x-ray tracer and the
/// wall-clock stopwatch whose total lands in the quarantined
/// `measured.*` namespace. One method per stage event of the shard loop.
#[derive(Debug)]
pub struct ShardObserver {
    shard: usize,
    sink: Option<TelemetrySink>,
    xray: Option<XrayTracer>,
    /// Started only alongside a sink — the one place its reading can go.
    stopwatch: Option<measured::Stopwatch>,
}

impl ShardObserver {
    /// Builds the observers the two configurations enable for `shard`.
    /// `xray_seed` is the run's *base* seed, so a request's sampling
    /// decision depends only on `(seed, lba, seq)` and re-sharding a run
    /// keeps comparable sampled sets.
    pub fn new(
        telemetry: &TelemetryConfig,
        xray: &XrayConfig,
        shard: usize,
        xray_seed: u64,
    ) -> Self {
        let sink = TelemetrySink::new(telemetry);
        ShardObserver {
            shard,
            stopwatch: sink.as_ref().map(|_| measured::Stopwatch::start()),
            sink,
            xray: XrayTracer::new(xray, shard, xray_seed),
        }
    }

    /// Decide stage: batch number `batch` placed `rows` requests and was
    /// billed `decide_us` of modeled NN time.
    pub fn batch_decided(&mut self, batch: u64, rows: usize, decide_us: f64) {
        let Some(sink) = &mut self.sink else { return };
        sink.event(TraceEvent::BatchDecided {
            batch,
            requests: rows,
            decide_us,
        });
        let registry = sink.registry_mut();
        registry.counter_add("serve.requests", rows as u64);
        registry.counter_add("serve.batches", 1);
        registry.histogram_record("serve.batch_fill", rows as u64);
        registry.histogram_record("serve.decide_ns", (decide_us * 1_000.0) as u64);
    }

    /// Whether [`ShardObserver::request`] would record anything, so the
    /// serve stage of an unobserved run can skip assembling its argument.
    pub fn wants_requests(&self) -> bool {
        self.sink.is_some() || self.xray.is_some()
    }

    /// Serve stage: one request completed in the storage model.
    ///
    /// The latency *sample* is not recorded here: the storage manager's
    /// own histogram already holds it, and [`ShardObserver::finish`]
    /// merges that into `serve.latency_us` once — bucket counts merge
    /// commutatively, so the export is what per-request recording would
    /// have produced, without a name lookup per request.
    pub fn request(&mut self, obs: &RequestObservation) {
        if let Some(sink) = &mut self.sink {
            sink.event(TraceEvent::RequestServed {
                lpn: obs.lba,
                device: obs.target,
                latency_us: obs.latency_us,
            });
            if obs.evicted > 0 {
                sink.event(TraceEvent::Eviction {
                    lpn: obs.lba,
                    pages: obs.evicted,
                });
            }
        }
        let Some(sample) = self.xray.as_mut().and_then(|x| x.observe_request(obs)) else {
            return;
        };
        // Samples double as `xray.*` histograms: the quantized
        // decomposition is exact, so the registry sees the same logical
        // ns the x-ray report aggregates.
        if let Some(sink) = &mut self.sink {
            let registry = sink.registry_mut();
            registry.histogram_record("xray.latency_ns", sample.latency_ns);
            registry.histogram_record("xray.decide_ns", sample.decide_ns);
            registry.histogram_record("xray.train_ns", sample.train_ns);
            registry.histogram_record("xray.queue_ns", sample.queue_ns);
            registry.histogram_record("xray.transfer_ns", sample.transfer_ns);
            registry.histogram_record("xray.queue_wait_ns", sample.queue_wait_ns);
        }
    }

    /// Learn stage: feeding the batch back ran `new_steps` (> 0)
    /// synchronous train steps. The loss comes from the agent's
    /// introspection probe, which is on whenever a sink exists.
    pub fn learned(&mut self, agent: &SibylAgent, new_steps: u64) {
        let Some(sink) = &mut self.sink else { return };
        let steps = agent.stats().train_steps;
        let loss = agent.probe().last_loss.map_or(f64::NAN, f64::from);
        for step in steps - new_steps..steps {
            sink.event(TraceEvent::TrainStep {
                step: step + 1,
                loss,
            });
        }
    }

    /// Maintain stage: the migrator ran its `tick`-th scan.
    pub fn migration_tick(&mut self, tick: u64, outcome: &TickOutcome) {
        if let Some(x) = &mut self.xray {
            x.observe_migration_tick(outcome.read_us, outcome.write_us, outcome.moved_pages);
        }
        if let Some(sink) = &mut self.sink {
            sink.event(TraceEvent::MigrationTick {
                tick,
                moved_pages: outcome.moved_pages,
                busy_us: outcome.busy_us,
            });
        }
    }

    /// Maintain stage: a learning-curve sample after `batches` batches.
    /// The curve doubles as registry series keyed on the shard's request
    /// count, and the same cadence samples the agent's RL probe (pure: no
    /// RNG, no mutation).
    pub fn curve_point(&mut self, batches: u64, point: &CurvePoint, agent: &SibylAgent) {
        let Some(sink) = &mut self.sink else { return };
        let registry = sink.registry_mut();
        registry.series_push("curve.avg_latency_us", point.requests, point.avg_latency_us);
        registry.series_push(
            "curve.fast_fraction",
            point.requests,
            point.fast_placement_fraction,
        );
        let probe = agent.probe();
        registry.series_push("rl.epsilon", batches, probe.epsilon);
        registry.series_push("rl.buffer_len", batches, probe.buffer_len as f64);
        registry.series_push("rl.q_spread", batches, probe.q_spread);
        registry.series_push("rl.argmax_entropy", batches, probe.argmax_entropy);
        if let Some(loss) = probe.last_loss {
            registry.series_push("rl.loss", batches, f64::from(loss));
        }
        registry.histogram_merge("rl.replay_age", &probe.buffer_age);
    }

    /// Maintain stage: the shard's `round`-th cooperative sync returned.
    pub fn coop_synced(&mut self, round: u64, batches: u64) {
        if let Some(x) = &mut self.xray {
            x.observe_coop_sync();
        }
        if let Some(sink) = &mut self.sink {
            sink.event(TraceEvent::CoopSync { round, batches });
            sink.registry_mut().counter_add("coop.syncs", 1);
        }
    }

    /// Teardown: folds the run's terminal state into the registry — the
    /// served-latency histogram, the agent's internal `rl.*` series and
    /// `measured.train_ns`, the directory footprint, the `hss.*`,
    /// `migrate.*` and `coop.*` accounting — and yields the two report
    /// sections. Shard-local state only: global coordinator counters keep
    /// advancing while other shards drain, so reading them here would
    /// make the export depend on teardown timing.
    pub fn finish(
        self,
        manager: &StorageManager,
        agent: &mut SibylAgent,
        migrator: Option<&Migrator>,
        coop: Option<&CoopConfig>,
    ) -> (Option<ShardTelemetry>, Option<ShardXray>) {
        let telemetry = self.sink.map(|mut sink| {
            let registry = sink.registry_mut();
            let latency = &manager.stats().histogram;
            // Guarded on non-empty so a shard that served nothing exports
            // no entry at all.
            if latency.count() > 0 {
                registry.histogram_merge("serve.latency_us", latency);
            }
            if let Some(agent_registry) = agent.take_telemetry() {
                registry.absorb(agent_registry);
            }
            // The compact directory is append-only, so its final size is
            // the run's peak. Gauges merge by max: the cross-shard report
            // shows the largest shard's directory.
            let directory = manager.directory();
            registry.gauge_set("dir.bytes", directory.directory_bytes() as f64);
            registry.gauge_set("dir.pages", directory.len() as f64);
            manager.stats().record_registry(registry);
            if let Some(m) = migrator {
                m.stats().record_registry(registry);
            }
            if let Some(coop) = coop {
                coop.record_registry(registry);
            }
            if let Some(stopwatch) = self.stopwatch {
                stopwatch.stop_into(registry, "measured.shard_run_ns");
            }
            sink.finish(self.shard)
        });
        (telemetry, self.xray.map(XrayTracer::finish))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibyl_core::SibylConfig;
    use sibyl_hss::{DeviceSpec, HssConfig};

    fn request(lba: u64, evicted: u64) -> RequestObservation {
        RequestObservation {
            lba,
            timestamp_us: 10.0,
            arrival_us: 11.0,
            latency_us: 80.0,
            decide_us: 2.0,
            train_us: 0.5,
            queue_us: 3.0,
            batch: 2,
            evicted,
            ..Default::default()
        }
    }

    fn teardown(observer: ShardObserver) -> (Option<ShardTelemetry>, Option<ShardXray>) {
        let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
        let manager = StorageManager::new(&hss.resolved(64));
        let mut agent = SibylAgent::new(SibylConfig::default());
        observer.finish(&manager, &mut agent, None, None)
    }

    #[test]
    fn stage_events_reach_both_observers_in_order() {
        let mut o = ShardObserver::new(&TelemetryConfig::full(), &XrayConfig::Sampled(0), 3, 42);
        o.batch_decided(0, 2, 27.6);
        o.request(&request(0, 0));
        o.request(&request(64, 5));
        o.migration_tick(
            1,
            &TickOutcome {
                moved_pages: 9,
                busy_us: 20.0,
                read_us: 12.5,
                write_us: 7.5,
            },
        );
        o.batch_decided(1, 1, 27.6);
        o.request(&request(128, 0));
        o.coop_synced(1, 2);
        let (telemetry, xray) = teardown(o);
        let telemetry = telemetry.expect("sink enabled");
        let kinds: Vec<&str> = telemetry.events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(
            kinds,
            [
                "batch_decided",
                "request_served",
                "request_served",
                "eviction",
                "migration_tick",
                "batch_decided",
                "request_served",
                "coop_sync",
            ]
        );
        assert_eq!(telemetry.shard, 3);
        let registry = &telemetry.registry;
        assert_eq!(registry.counter("serve.requests"), 3);
        assert_eq!(registry.counter("serve.batches"), 2);
        assert_eq!(registry.counter("coop.syncs"), 1);
        assert_eq!(registry.histogram("xray.latency_ns").unwrap().count(), 3);
        // No request went through the manager, so no latency entry.
        assert!(registry.histogram("serve.latency_us").is_none());
        assert!(registry.counter("measured.shard_run_ns") > 0);
        let xray = xray.expect("tracer enabled");
        assert_eq!((xray.shard, xray.requests_seen), (3, 3));
        assert_eq!((xray.migrate_ticks, xray.coop_syncs), (1, 1));
    }

    #[test]
    fn disabled_observer_holds_nothing_and_yields_nothing() {
        let mut o = ShardObserver::new(&TelemetryConfig::off(), &XrayConfig::Off, 0, 42);
        assert!(o.sink.is_none() && o.xray.is_none() && o.stopwatch.is_none());
        o.batch_decided(0, 1, 0.0);
        o.request(&request(0, 1));
        o.migration_tick(1, &TickOutcome::default());
        o.coop_synced(1, 1);
        assert_eq!(teardown(o), (None, None));
    }
}
