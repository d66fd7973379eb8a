//! Telemetry configuration: how much the stack records.

/// How much telemetry the stack records, carried by `SibylConfig` and
/// `ServeConfig`.
///
/// Levels are strictly ordered: each adds to the previous. The default is
/// [`TelemetryConfig::Off`], which is zero-cost — no sink is allocated and
/// serving output is pinned bit-identical to a build without telemetry.
///
/// # Examples
///
/// ```
/// use sibyl_telemetry::TelemetryConfig;
/// let cfg = TelemetryConfig::default();
/// assert!(!cfg.enabled());
/// let full = TelemetryConfig::full();
/// assert!(full.enabled() && full.histograms());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TelemetryConfig {
    /// Record nothing (the default). Sinks are `None`; no allocation.
    #[default]
    Off,
    /// Record the bounded event trace and counters/gauges/series, but
    /// skip per-request histogram updates.
    Events,
    /// Everything: events plus per-request histograms and RL probes.
    Full,
}

impl TelemetryConfig {
    /// Telemetry disabled (the default).
    pub fn off() -> Self {
        TelemetryConfig::Off
    }

    /// Event trace and scalar metrics, no histograms.
    pub fn events() -> Self {
        TelemetryConfig::Events
    }

    /// Everything, including histograms and RL probes.
    pub fn full() -> Self {
        TelemetryConfig::Full
    }

    /// True when any recording happens at all.
    pub fn enabled(&self) -> bool {
        *self != TelemetryConfig::Off
    }

    /// True when per-request histograms (and RL probes) are recorded.
    pub fn histograms(&self) -> bool {
        *self == TelemetryConfig::Full
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        let cfg = TelemetryConfig::default();
        assert_eq!(cfg, TelemetryConfig::off());
        assert!(!cfg.enabled());
        assert!(!cfg.histograms());
    }

    #[test]
    fn levels_are_ordered() {
        assert!(TelemetryConfig::events().enabled());
        assert!(!TelemetryConfig::events().histograms());
        assert!(TelemetryConfig::full().histograms());
    }
}
