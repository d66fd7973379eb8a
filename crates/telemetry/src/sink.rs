//! Per-shard collection point: one registry plus one event ring.

use crate::config::TelemetryConfig;
use crate::event::{EventRing, SeqEvent, TraceEvent};
use crate::registry::Registry;

/// Capacity of the per-shard event ring. When it fills, the oldest
/// events are dropped (and counted) — the trace is a bounded tail.
pub(crate) const EVENT_CAPACITY: usize = 4096;

/// Live telemetry collector owned by one shard worker.
///
/// Constructed via [`TelemetrySink::new`], which returns `None` when
/// telemetry is off — the disabled path allocates nothing and every call
/// site stays an `if let Some(sink)` that the optimizer can see through.
#[derive(Debug)]
pub struct TelemetrySink {
    registry: Registry,
    ring: EventRing,
}

impl TelemetrySink {
    /// A sink for `config`, or `None` when telemetry is off.
    pub fn new(config: &TelemetryConfig) -> Option<Self> {
        config.enabled().then(|| TelemetrySink {
            registry: Registry::new(),
            ring: EventRing::new(EVENT_CAPACITY),
        })
    }

    /// Records an event into the bounded trace.
    pub fn event(&mut self, event: TraceEvent) {
        self.ring.record(event);
    }

    /// The metrics registry, for direct recording.
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// Read access to the registry (tests, probes).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Finalizes the sink into the per-shard report section.
    pub fn finish(self, shard: usize) -> ShardTelemetry {
        let recorded = self.ring.recorded();
        let (events, dropped_events) = self.ring.into_parts();
        ShardTelemetry {
            shard,
            registry: self.registry,
            events,
            recorded_events: recorded,
            dropped_events,
        }
    }
}

/// Telemetry captured by one shard over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardTelemetry {
    /// Shard index.
    pub shard: usize,
    /// The shard's metrics registry.
    pub registry: Registry,
    /// Retained tail of the event trace, oldest first.
    pub events: Vec<SeqEvent>,
    /// Total events recorded over the run (retained + dropped).
    pub recorded_events: u64,
    /// Events evicted because the ring filled.
    pub dropped_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TelemetryConfig;

    #[test]
    fn off_allocates_nothing() {
        assert!(TelemetrySink::new(&TelemetryConfig::off()).is_none());
    }

    #[test]
    fn finish_carries_drop_accounting() {
        let mut sink = TelemetrySink::new(&TelemetryConfig::full()).unwrap();
        let recorded = EVENT_CAPACITY as u64 + 3;
        for step in 0..recorded {
            sink.event(TraceEvent::TrainStep { step, loss: 0.1 });
        }
        sink.registry_mut().counter_add("c", 1);
        let shard = sink.finish(3);
        assert_eq!(shard.shard, 3);
        assert_eq!(shard.events.len(), EVENT_CAPACITY);
        assert_eq!(shard.events[0].seq, 3, "the oldest three were dropped");
        assert_eq!(shard.recorded_events, recorded);
        assert_eq!(shard.dropped_events, 3);
        assert_eq!(shard.registry.counter("c"), 1);
    }
}
