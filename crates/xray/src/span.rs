//! The sampled-request record and the exact latency decomposition.
//!
//! All arithmetic is integer nanoseconds of *simulated* time
//! (`round(µs × 1000)`): the engine's clocks are simulated `f64`
//! microseconds, and quantizing once at the tracing boundary makes every
//! downstream invariant exact — the four components of a request sum to
//! its recorded latency *exactly*, because the last component of every
//! split is defined as the integer residual.

/// Converts simulated microseconds to logical nanoseconds (non-negative,
/// rounded; non-finite inputs clamp to 0).
pub fn us_to_ns(us: f64) -> u64 {
    if us.is_finite() && us > 0.0 {
        (us * 1_000.0).round() as u64
    } else {
        0
    }
}

/// One sampled request: its identity, its recorded latency split into
/// the four critical-path components (`nn.decide → stall.train →
/// device.queue → device.transfer`, summing to `latency_ns` exactly),
/// the closed-loop wait ahead of its arrival, and the attribution the
/// tail dump prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sample {
    /// The shard that served the request.
    pub shard: usize,
    /// The request's starting logical page number.
    pub lba: u64,
    /// The request's per-shard sequence number (1-based arrival order on
    /// its shard — one input of the sampling hash).
    pub seq: u64,
    /// Recorded end-to-end latency, logical ns.
    pub latency_ns: u64,
    /// The request's amortized share of the batch's NN decide bill.
    pub decide_ns: u64,
    /// The request's share of the §10 synchronous-training bill carried
    /// over from the previous batch.
    pub train_ns: u64,
    /// Waiting for the critical device (the one whose completion
    /// determined the request's) — including any migration or eviction
    /// I/O it is draining.
    pub queue_ns: u64,
    /// The critical device's service (command + transfer) time: the
    /// residual, so the four components sum to `latency_ns`.
    pub transfer_ns: u64,
    /// Closed-loop backpressure: the gap between the request's trace
    /// timestamp and its effective arrival. Outside recorded latency.
    pub queue_wait_ns: u64,
    /// Inference batch size the request was decided in.
    pub batch: usize,
    /// The critical device.
    pub device: usize,
    /// The device the policy targeted.
    pub target: usize,
    /// Pages moved toward the target while serving.
    pub promoted: u64,
    /// Pages evicted by the capacity cascade the request triggered.
    pub evicted: u64,
}

/// Running totals of the critical-path components over a set of sampled
/// requests — exact integer sums, so per-shard totals merge exactly and
/// shares are reproducible bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComponentTotals {
    /// Sampled requests folded in.
    pub sampled: u64,
    /// Σ recorded latency (logical ns).
    pub latency_ns: u64,
    /// Σ [`Sample::decide_ns`].
    pub decide_ns: u64,
    /// Σ [`Sample::train_ns`].
    pub train_ns: u64,
    /// Σ [`Sample::queue_ns`].
    pub queue_ns: u64,
    /// Σ [`Sample::transfer_ns`].
    pub transfer_ns: u64,
    /// Σ [`Sample::queue_wait_ns`] (outside recorded latency).
    pub queue_wait_ns: u64,
}

impl ComponentTotals {
    /// Folds one sampled request into the totals.
    pub fn add(&mut self, s: &Sample) {
        self.sampled += 1;
        self.latency_ns += s.latency_ns;
        self.decide_ns += s.decide_ns;
        self.train_ns += s.train_ns;
        self.queue_ns += s.queue_ns;
        self.transfer_ns += s.transfer_ns;
        self.queue_wait_ns += s.queue_wait_ns;
    }

    /// Merges another shard's totals (exact integer addition).
    pub fn merge(&mut self, other: &ComponentTotals) {
        self.sampled += other.sampled;
        self.latency_ns += other.latency_ns;
        self.decide_ns += other.decide_ns;
        self.train_ns += other.train_ns;
        self.queue_ns += other.queue_ns;
        self.transfer_ns += other.transfer_ns;
        self.queue_wait_ns += other.queue_wait_ns;
    }

    /// The four component sums in path order: decide, train, queue,
    /// transfer.
    pub fn components(&self) -> [u64; 4] {
        [
            self.decide_ns,
            self.train_ns,
            self.queue_ns,
            self.transfer_ns,
        ]
    }

    /// A component's share of total sampled latency (0 when empty).
    pub fn share(&self, component_ns: u64) -> f64 {
        if self.latency_ns == 0 {
            0.0
        } else {
            component_ns as f64 / self.latency_ns as f64
        }
    }

    /// Mean sampled latency in microseconds.
    pub fn mean_latency_us(&self) -> f64 {
        if self.sampled == 0 {
            0.0
        } else {
            self.latency_ns as f64 / self.sampled as f64 / 1_000.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_to_ns_rounds_and_clamps() {
        assert_eq!(us_to_ns(1.0), 1_000);
        assert_eq!(us_to_ns(0.0004), 0);
        assert_eq!(us_to_ns(0.0006), 1);
        assert_eq!(us_to_ns(-5.0), 0);
        assert_eq!(us_to_ns(f64::NAN), 0);
        assert_eq!(us_to_ns(f64::INFINITY), 0);
    }

    #[test]
    fn totals_fold_and_merge_exactly() {
        let sample = |queue_wait_ns| Sample {
            latency_ns: 100,
            decide_ns: 10,
            queue_ns: 5,
            transfer_ns: 85,
            queue_wait_ns,
            ..Sample::default()
        };
        let mut a = ComponentTotals::default();
        a.add(&sample(3));
        let mut b = ComponentTotals::default();
        b.add(&sample(0));
        b.add(&sample(1));
        a.merge(&b);
        assert_eq!(a.sampled, 3);
        assert_eq!(a.latency_ns, 300);
        assert_eq!(a.transfer_ns, 255);
        assert_eq!(a.queue_wait_ns, 4);
        assert_eq!(a.components().iter().sum::<u64>(), a.latency_ns);
        assert!((a.mean_latency_us() - 0.1).abs() < 1e-12);
    }
}
