//! The sharded-serving experiment driver: trace × serving configuration
//! → per-shard and aggregate metrics.

use sibyl_serve::{
    serve_stream, serve_trace, Aggregate, ServeConfig, ServeReport, TelemetryReport, XrayReport,
};
use sibyl_trace::{IoRequest, Trace};

use crate::experiment::SimError;
use crate::metrics::Metrics;

/// Result of one sharded serving run: the engine's raw report plus each
/// shard's statistics lifted into the paper's [`Metrics`] vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-shard metrics, ordered by shard index.
    pub shard_metrics: Vec<Metrics>,
    /// Aggregate metrics across shards (parallel-span IOPS,
    /// request-weighted latency).
    pub aggregate: Aggregate,
    /// The engine's full report (batch counts, agent counters).
    pub report: ServeReport,
}

impl ServeOutcome {
    /// Lifts an engine report into the paper's metric vocabulary.
    fn from_report(report: ServeReport) -> Self {
        let shard_metrics = report
            .shards
            .iter()
            .map(|s| Metrics::from_stats(&s.stats))
            .collect();
        let aggregate = report.aggregate();
        ServeOutcome {
            shard_metrics,
            aggregate,
            report,
        }
    }

    /// The run's merged-and-per-shard telemetry export as deterministic
    /// JSONL (one JSON object per line; `measured.*` wall-clock entries
    /// are excluded, so two identically-seeded runs export byte-identical
    /// text). `None` when the run's
    /// [`ServeConfig::telemetry`](sibyl_serve::ServeConfig) was off.
    pub fn telemetry_jsonl(&self) -> Option<String> {
        self.report
            .telemetry
            .as_ref()
            .map(TelemetryReport::export_jsonl)
    }

    /// A plain-text `sibyl-top`-style rendering of the run's telemetry:
    /// merged counters, gauges, histogram percentiles, and per-shard
    /// event accounting. `None` when telemetry was off.
    pub fn telemetry_top(&self) -> Option<String> {
        self.report
            .telemetry
            .as_ref()
            .map(TelemetryReport::render_top)
    }

    /// The run's span-tracing results — per-shard and merged
    /// critical-path totals, folded-stacks export, tail forensics.
    /// `None` when the run's
    /// [`ServeConfig::xray`](sibyl_serve::ServeConfig) was off.
    pub fn xray_report(&self) -> Option<&XrayReport> {
        self.report.xray.as_ref()
    }

    /// The run's folded-stacks export (`stack;frames weight` lines,
    /// flamegraph-ready; byte-identical across identically-seeded runs).
    /// `None` when xray was off.
    pub fn xray_folded(&self) -> Option<String> {
        self.report.xray.as_ref().map(XrayReport::xray_folded)
    }
}

/// A reusable sharded-serving experiment: one workload served through the
/// [`sibyl_serve`] engine under one [`ServeConfig`].
///
/// This is the scale-out counterpart of [`crate::Experiment`]: instead of
/// replaying the trace through a single policy/manager pair, the trace is
/// routed by LBA hash across `N` worker shards, each deciding placements
/// with batched C51 inference.
///
/// # Examples
///
/// ```
/// use sibyl_hss::{DeviceSpec, HssConfig};
/// use sibyl_serve::ServeConfig;
/// use sibyl_sim::ServeExperiment;
/// use sibyl_trace::msrc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let trace = msrc::generate(msrc::Workload::Hm1, 2_000, 42);
/// let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
/// let exp = ServeExperiment::new(ServeConfig::new(hss).with_shards(2), trace);
/// let outcome = exp.run()?;
/// assert_eq!(outcome.shard_metrics.len(), 2);
/// assert_eq!(outcome.aggregate.total_requests, 2_000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ServeExperiment {
    config: ServeConfig,
    trace: Trace,
}

impl ServeExperiment {
    /// Creates a serving experiment from a serving configuration and a
    /// trace.
    pub fn new(config: ServeConfig, trace: Trace) -> Self {
        ServeExperiment { config, trace }
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The workload.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Runs the sharded engine over the whole trace.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for an empty trace.
    pub fn run(&self) -> Result<ServeOutcome, SimError> {
        let report = serve_trace(&self.config, &self.trace)?;
        Ok(ServeOutcome::from_report(report))
    }

    /// Runs the sharded engine over a finite request stream without ever
    /// materializing it — the scale path for 10M-request runs. Bound an
    /// infinite generator stream with `.take(n)`; see
    /// [`sibyl_serve::serve_stream`] for the footprint pre-pass and the
    /// memory bound.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::EmptyTrace`] for a stream yielding no requests.
    pub fn run_stream<S>(config: &ServeConfig, stream: S) -> Result<ServeOutcome, SimError>
    where
        S: Iterator<Item = IoRequest> + Clone,
    {
        let report = serve_stream(config, stream)?;
        Ok(ServeOutcome::from_report(report))
    }

    /// Serves one workload under each labelled configuration, in input
    /// order — the shape of every "vary one subsystem, hold the rest"
    /// table (`sec12_coop`'s modes, `sec13_migration`'s policies). The
    /// first entry is the baseline the others are normalized to.
    ///
    /// # Errors
    ///
    /// Propagates the first failing configuration's error.
    ///
    /// # Examples
    ///
    /// ```
    /// use sibyl_hss::{DeviceSpec, HssConfig};
    /// use sibyl_serve::{CoopMode, ServeConfig};
    /// use sibyl_sim::ServeExperiment;
    /// use sibyl_trace::msrc;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let trace = msrc::generate(msrc::Workload::Hm1, 2_000, 42);
    /// let hss = HssConfig::dual(DeviceSpec::optane_ssd(), DeviceSpec::tlc_ssd());
    /// let base = ServeConfig::new(hss).with_shards(2);
    /// let sweep = ServeExperiment::sweep(
    ///     &trace,
    ///     [CoopMode::Independent, CoopMode::WeightAverage].map(|mode| {
    ///         let mut config = base.clone();
    ///         config.coop = config.coop.with_mode(mode);
    ///         (mode, config)
    ///     }),
    /// )?;
    /// assert_eq!(sweep.normalized_latency(&CoopMode::Independent), Some(1.0));
    /// assert!(sweep.normalized_latency(&CoopMode::Both).is_none(), "not swept");
    /// # Ok(())
    /// # }
    /// ```
    pub fn sweep<L>(
        trace: &Trace,
        configs: impl IntoIterator<Item = (L, ServeConfig)>,
    ) -> Result<ServeSweep<L>, SimError> {
        let runs = configs
            .into_iter()
            .map(|(label, config)| {
                let report = serve_trace(&config, trace)?;
                Ok((label, ServeOutcome::from_report(report)))
            })
            .collect::<Result<Vec<_>, SimError>>()?;
        Ok(ServeSweep { runs })
    }
}

/// One workload's outcomes under several labelled serving
/// configurations ([`ServeExperiment::sweep`]). The first run is the
/// baseline. Lookups answer `None` for a label that was not swept (or a
/// degenerate baseline) — never a number a table could print as a
/// result.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSweep<L> {
    /// `(label, outcome)` per configuration, in input order.
    pub runs: Vec<(L, ServeOutcome)>,
}

impl<L: PartialEq> ServeSweep<L> {
    /// The outcome of one labelled run.
    pub fn get(&self, label: &L) -> Option<&ServeOutcome> {
        self.runs.iter().find(|(l, _)| l == label).map(|(_, o)| o)
    }

    /// The first run's outcome.
    pub fn baseline(&self) -> Option<&ServeOutcome> {
        self.runs.first().map(|(_, o)| o)
    }

    /// A run's aggregate average latency normalized to the baseline's —
    /// below 1.0 means it served the same workload faster. `None` when
    /// the label is absent or the baseline latency is not positive.
    pub fn normalized_latency(&self, label: &L) -> Option<f64> {
        let base = self.baseline()?.aggregate.avg_latency_us;
        let run = self.get(label)?.aggregate.avg_latency_us;
        (base > 0.0).then(|| run / base)
    }

    /// A run's aggregate fast-placement fraction minus the baseline's.
    /// `None` when the label is absent.
    pub fn hit_rate_gain(&self, label: &L) -> Option<f64> {
        let base = self.baseline()?.aggregate.fast_placement_fraction;
        Some(self.get(label)?.aggregate.fast_placement_fraction - base)
    }

    /// The non-baseline run with the lowest aggregate latency (the first
    /// such on ties), or `None` when only the baseline was swept.
    pub fn best_challenger(&self) -> Option<&L> {
        self.runs
            .iter()
            .skip(1)
            .min_by(|(_, a), (_, b)| {
                a.aggregate
                    .avg_latency_us
                    .total_cmp(&b.aggregate.avg_latency_us)
            })
            .map(|(label, _)| label)
    }
}
