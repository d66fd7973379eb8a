//! Measured trace statistics — the columns of the paper's Table 4 and the
//! axes of its Fig. 3 (hotness vs randomness).

use std::collections::HashSet;

use crate::page_set::PageSet;
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
        // Every page of every request is one page access.
        let mut size_pages_sum: u64 = 0;
        let mut pages = PageSet::default();
        let mut shapes: HashSet<(u64, u32, bool)> = HashSet::new();
        for r in trace.iter() {
            if r.op.is_write() {
                writes += 1;
            }
            size_pages_sum += r.size_pages as u64;
            pages.insert(r.lpn..=r.last_lpn());
            shapes.insert((r.lpn, r.size_pages, r.op.is_write()));
        }
        let unique_pages = pages.len();
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
                size_pages_sum as f64 / unique_pages as f64
            },
            unique_requests: shapes.len(),
            unique_pages,
            duration_us: trace.duration_us(),
        }
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
}
