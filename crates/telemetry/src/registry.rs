//! Named metrics registry: counters, gauges, histograms, and time series.
//!
//! All maps are `BTreeMap`s so iteration (and therefore every export) is
//! deterministic. Time series are keyed on *logical* time supplied by the
//! caller — request index, batch count, or simulated µs — never wall
//! clock. Wall-clock measurements are permitted but must live under the
//! [`crate::measured::MEASURED_PREFIX`] namespace, which is excluded from
//! [`PartialEq`] and from the deterministic export, mirroring how
//! `AgentStats` excludes `train_ns`.

use std::collections::BTreeMap;

use crate::histogram::Log2Histogram;
use crate::measured::is_measured;

/// A deterministic collection of named metrics.
///
/// # Examples
///
/// ```
/// use sibyl_telemetry::Registry;
/// let mut r = Registry::new();
/// r.counter_add("serve.requests", 3);
/// r.gauge_set("rl.epsilon", 0.05);
/// r.histogram_record("serve.latency_us", 120);
/// r.series_push("rl.loss", 1, 0.7);
/// assert_eq!(r.counter("serve.requests"), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Log2Histogram>,
    series: BTreeMap<String, Vec<(u64, f64)>>,
}

/// Compares two metric maps, skipping entries in the `measured.`
/// namespace on both sides — those carry wall-clock data and must never
/// participate in equality (the same contract as `AgentStats::train_ns`).
fn eq_skip_measured<V: PartialEq>(a: &BTreeMap<String, V>, b: &BTreeMap<String, V>) -> bool {
    let da = a.iter().filter(|(name, _)| !is_measured(name));
    let db = b.iter().filter(|(name, _)| !is_measured(name));
    da.eq(db)
}

impl PartialEq for Registry {
    fn eq(&self, other: &Self) -> bool {
        // Exhaustive destructuring: adding a field without deciding its
        // equality semantics is a compile error, as for `AgentStats`.
        let Registry {
            counters,
            gauges,
            histograms,
            series,
        } = self;
        eq_skip_measured(counters, &other.counters)
            && eq_skip_measured(gauges, &other.gauges)
            && eq_skip_measured(histograms, &other.histograms)
            && eq_skip_measured(series, &other.series)
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// True when no metric of any kind has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.series.is_empty()
    }

    /// Adds `delta` to the named counter (creating it at zero).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += delta;
    }

    /// Current value of the named counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current value of the named gauge, or `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records `value` into the named histogram (creating it empty).
    pub fn histogram_record(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_owned())
            .or_default()
            .record(value);
    }

    /// Merges `h` into the named histogram (creating it empty).
    pub fn histogram_merge(&mut self, name: &str, h: &Log2Histogram) {
        self.histograms.entry(name.to_owned()).or_default().merge(h);
    }

    /// The named histogram, or `None` when never recorded.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// Appends `(t, value)` to the named time series. `t` is logical
    /// time — callers supply request index, batch count, or simulated µs.
    pub fn series_push(&mut self, name: &str, t: u64, value: f64) {
        self.series
            .entry(name.to_owned())
            .or_default()
            .push((t, value));
    }

    /// The named time series, or `None` when never pushed.
    pub fn series(&self, name: &str) -> Option<&[(u64, f64)]> {
        self.series.get(name).map(Vec::as_slice)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(name, &v)| (name.as_str(), v))
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(name, &v)| (name.as_str(), v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Log2Histogram)> {
        self.histograms.iter().map(|(name, h)| (name.as_str(), h))
    }

    /// All time series in name order.
    pub fn all_series(&self) -> impl Iterator<Item = (&str, &[(u64, f64)])> {
        self.series
            .iter()
            .map(|(name, points)| (name.as_str(), points.as_slice()))
    }

    /// Cross-shard merge: counters add, gauges keep the maximum,
    /// histograms merge bucket-wise. Time series are *not* merged — they
    /// are per-shard timelines and interleaving them would destroy the
    /// logical-time ordering; read them from the per-shard registries.
    pub fn merge(&mut self, other: &Registry) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, &v) in &other.gauges {
            self.gauges
                .entry(name.clone())
                .and_modify(|g| *g = g.max(v))
                .or_insert(v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        assert_eq!(r.counter("a"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.gauge_set("g", 2.0);
        a.histogram_record("h", 10);
        let mut b = Registry::new();
        b.counter_add("c", 4);
        b.gauge_set("g", 1.0);
        b.histogram_record("h", 20);
        b.series_push("s", 0, 1.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), Some(2.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert!(a.series("s").is_none(), "merge must not move series");
    }

    #[test]
    fn measured_namespace_is_excluded_from_equality() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.counter_add("serve.requests", 10);
        b.counter_add("serve.requests", 10);
        a.counter_add("measured.shard_run_ns", 123);
        b.counter_add("measured.shard_run_ns", 456_789);
        b.gauge_set("measured.extra", 1.0);
        assert_eq!(a, b, "measured.* must not participate in equality");
        b.counter_add("serve.requests", 1);
        assert_ne!(a, b, "deterministic metrics must still compare");
    }

    #[test]
    fn measured_series_and_histograms_are_excluded_too() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        a.series_push("measured.t", 0, 1.0);
        b.histogram_record("measured.h", 9);
        assert_eq!(a, b);
    }
}
