//! Telemetry configuration: whether the stack records.

/// Whether the stack records telemetry, carried by `SibylConfig` and
/// `ServeConfig`.
///
/// The default is [`TelemetryConfig::Off`], which is zero-cost — no sink
/// is allocated and serving output is pinned bit-identical to a build
/// without telemetry.
///
/// # Examples
///
/// ```
/// use sibyl_telemetry::TelemetryConfig;
/// let cfg = TelemetryConfig::default();
/// assert!(!cfg.enabled());
/// assert!(TelemetryConfig::full().enabled());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TelemetryConfig {
    /// Record nothing (the default). Sinks are `None`; no allocation.
    #[default]
    Off,
    /// Everything: the bounded event trace, counters/gauges/series,
    /// per-request histograms and RL probes.
    Full,
}

impl TelemetryConfig {
    /// Telemetry disabled (the default).
    pub fn off() -> Self {
        TelemetryConfig::Off
    }

    /// Everything, including histograms and RL probes.
    pub fn full() -> Self {
        TelemetryConfig::Full
    }

    /// True when any recording happens at all.
    pub fn enabled(&self) -> bool {
        *self != TelemetryConfig::Off
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
        assert!(TelemetryConfig::full().enabled());
    }
}
