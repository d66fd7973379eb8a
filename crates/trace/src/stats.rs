//! Measured trace statistics — the columns of the paper's Table 4 and the
//! axes of its Fig. 3 (hotness vs randomness).

use std::collections::HashMap;

use crate::trace::Trace;

/// Per-trace statistics in the paper's vocabulary.
///
/// - *Randomness* is quantified by the average request size: larger
///   requests ⇒ more sequential (§3).
/// - *Hotness* is quantified by the average access count over all pages:
///   higher ⇒ hotter (§3).
///
/// # Examples
///
/// ```
/// use sibyl_trace::{IoOp, IoRequest, Trace, stats::TraceStats};
/// let t = Trace::from_requests(
///     "s",
///     vec![
///         IoRequest::new(0, 0, 2, IoOp::Write),
///         IoRequest::new(1, 0, 2, IoOp::Read),
///     ],
/// );
/// let st = TraceStats::measure(&t);
/// assert_eq!(st.total_requests, 2);
/// assert!((st.write_fraction - 0.5).abs() < 1e-9);
/// assert!((st.avg_access_count - 2.0).abs() < 1e-9); // both pages touched twice
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Trace name.
    pub name: String,
    /// Total number of requests.
    pub total_requests: usize,
    /// Fraction of write requests (Table 4 "Write %" / 100).
    pub write_fraction: f64,
    /// Average request size in KiB (Table 4 "Avg. request size").
    pub avg_request_size_kib: f64,
    /// Average per-page access count (Table 4 "Avg. access count").
    pub avg_access_count: f64,
    /// Number of distinct (lpn, size, op) request shapes
    /// (Table 4 "No. of unique requests").
    pub unique_requests: usize,
    /// Number of distinct logical pages (working-set size).
    pub unique_pages: u64,
    /// Trace duration in microseconds.
    pub duration_us: u64,
}

impl TraceStats {
    /// Computes statistics for a trace.
    pub fn measure(trace: &Trace) -> Self {
        let total = trace.len();
        let mut writes = 0usize;
        let mut size_pages_sum: u64 = 0;
        let mut page_counts: HashMap<u64, u64> = HashMap::new();
        let mut shapes: HashMap<(u64, u32, bool), ()> = HashMap::new();
        for r in trace.iter() {
            if r.op.is_write() {
                writes += 1;
            }
            size_pages_sum += r.size_pages as u64;
            for p in r.pages() {
                *page_counts.entry(p).or_insert(0) += 1;
            }
            shapes.insert((r.lpn, r.size_pages, r.op.is_write()), ());
        }
        let unique_pages = page_counts.len() as u64;
        // sibyl-lint: allow(unordered-map-iteration) -- u64 sum over values: integer addition is commutative, order cannot matter
        let total_page_accesses: u64 = page_counts.values().sum();
        TraceStats {
            name: trace.name().to_string(),
            total_requests: total,
            write_fraction: if total == 0 {
                0.0
            } else {
                writes as f64 / total as f64
            },
            avg_request_size_kib: if total == 0 {
                0.0
            } else {
                size_pages_sum as f64 * 4.0 / total as f64
            },
            avg_access_count: if unique_pages == 0 {
                0.0
            } else {
                total_page_accesses as f64 / unique_pages as f64
            },
            unique_requests: shapes.len(),
            unique_pages,
            duration_us: trace.duration_us(),
        }
    }

    /// Read fraction (`1 − write_fraction`).
    pub fn read_fraction(&self) -> f64 {
        1.0 - self.write_fraction
    }

    /// Renders one row of the paper's Table 4.
    pub fn table_row(&self) -> String {
        format!(
            "{:<12} {:>7.1}% {:>7.1}% {:>10.1} {:>10.1} {:>10}",
            self.name,
            self.write_fraction * 100.0,
            self.read_fraction() * 100.0,
            self.avg_request_size_kib,
            self.avg_access_count,
            self.unique_requests,
        )
    }

    /// Header matching [`TraceStats::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<12} {:>8} {:>8} {:>10} {:>10} {:>10}",
            "Workload", "Write%", "Read%", "AvgKiB", "AvgCount", "UniqReqs"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{IoOp, IoRequest};

    fn t(reqs: Vec<IoRequest>) -> Trace {
        Trace::from_requests("test", reqs)
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let st = TraceStats::measure(&t(vec![]));
        assert_eq!(st.total_requests, 0);
        assert_eq!(st.write_fraction, 0.0);
        assert_eq!(st.avg_access_count, 0.0);
    }

    #[test]
    fn write_fraction_counts_requests_not_pages() {
        // One large write, three small reads -> 25% writes.
        let st = TraceStats::measure(&t(vec![
            IoRequest::new(0, 0, 10, IoOp::Write),
            IoRequest::new(1, 100, 1, IoOp::Read),
            IoRequest::new(2, 101, 1, IoOp::Read),
            IoRequest::new(3, 102, 1, IoOp::Read),
        ]));
        assert!((st.write_fraction - 0.25).abs() < 1e-9);
    }

    #[test]
    fn avg_request_size_in_kib() {
        // sizes 1 and 3 pages -> mean 2 pages = 8 KiB
        let st = TraceStats::measure(&t(vec![
            IoRequest::new(0, 0, 1, IoOp::Read),
            IoRequest::new(1, 10, 3, IoOp::Read),
        ]));
        assert!((st.avg_request_size_kib - 8.0).abs() < 1e-9);
    }

    #[test]
    fn access_count_averages_over_pages() {
        // Page 0 touched 3 times, page 1 once -> avg 2.0 over 2 pages.
        let st = TraceStats::measure(&t(vec![
            IoRequest::new(0, 0, 1, IoOp::Read),
            IoRequest::new(1, 0, 1, IoOp::Read),
            IoRequest::new(2, 0, 2, IoOp::Read),
        ]));
        assert_eq!(st.unique_pages, 2);
        assert!((st.avg_access_count - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unique_requests_dedup_by_shape() {
        let st = TraceStats::measure(&t(vec![
            IoRequest::new(0, 0, 1, IoOp::Read),
            IoRequest::new(5, 0, 1, IoOp::Read),  // same shape
            IoRequest::new(9, 0, 1, IoOp::Write), // different op
        ]));
        assert_eq!(st.unique_requests, 2);
    }

    #[test]
    fn table_row_is_nonempty_and_aligned() {
        let st = TraceStats::measure(&t(vec![IoRequest::new(0, 0, 1, IoOp::Read)]));
        let row = st.table_row();
        assert!(row.starts_with("test"));
        assert!(TraceStats::table_header().len() > 20);
    }
}
