//! The trace container.

use crate::page_set::PageSet;
use crate::request::IoRequest;

/// A named sequence of [`IoRequest`]s ordered by timestamp.
///
/// # Examples
///
/// ```
/// use sibyl_trace::{IoOp, IoRequest, Trace};
/// let trace = Trace::from_requests(
///     "tiny",
///     vec![IoRequest::new(0, 0, 1, IoOp::Write), IoRequest::new(10, 0, 1, IoOp::Read)],
/// );
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.footprint_pages(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    name: String,
    requests: Vec<IoRequest>,
}

impl Trace {
    /// Builds a trace from pre-sorted requests, sorting defensively by
    /// timestamp if needed (stable, preserving issue order at equal times).
    pub fn from_requests(name: impl Into<String>, mut requests: Vec<IoRequest>) -> Self {
        if !requests
            .windows(2)
            .all(|w| w[0].timestamp_us <= w[1].timestamp_us)
        {
            requests.sort_by_key(|r| r.timestamp_us);
        }
        Trace {
            name: name.into(),
            requests,
        }
    }

    /// The trace's name (e.g. `"hm_1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests in timestamp order.
    pub fn requests(&self) -> &[IoRequest] {
        &self.requests
    }

    /// Iterates over the requests.
    pub fn iter(&self) -> std::slice::Iter<'_, IoRequest> {
        self.requests.iter()
    }

    /// Number of distinct logical pages touched (the working-set size the
    /// paper sizes fast-device capacity against, §3: "10 % of the working
    /// set size").
    pub fn footprint_pages(&self) -> u64 {
        let mut pages = PageSet::default();
        for r in &self.requests {
            pages.insert(r.lpn..=r.last_lpn());
        }
        pages.len()
    }

    /// The largest logical page number referenced plus one (address-space
    /// size needed to replay the trace), or 0 for an empty trace.
    pub fn address_space_pages(&self) -> u64 {
        self.requests
            .iter()
            .map(|r| r.last_lpn() + 1)
            .max()
            .unwrap_or(0)
    }

    /// Duration between the first and last request timestamps, in
    /// microseconds.
    pub fn duration_us(&self) -> u64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(a), Some(b)) => b.timestamp_us - a.timestamp_us,
            _ => 0,
        }
    }

    /// Returns a copy truncated to the first `n` requests.
    pub fn truncated(&self, n: usize) -> Trace {
        Trace {
            name: self.name.clone(),
            requests: self.requests.iter().take(n).copied().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a IoRequest;
    type IntoIter = std::slice::Iter<'a, IoRequest>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoOp;

    fn sample() -> Trace {
        Trace::from_requests(
            "t",
            vec![
                IoRequest::new(0, 10, 2, IoOp::Write),
                IoRequest::new(5, 11, 1, IoOp::Read),
                IoRequest::new(9, 100, 4, IoOp::Read),
            ],
        )
    }

    #[test]
    fn footprint_deduplicates_pages() {
        // pages: 10, 11 (write), 11 (read), 100..103 => 6 unique
        assert_eq!(sample().footprint_pages(), 6);
    }

    #[test]
    fn address_space_covers_last_page() {
        assert_eq!(sample().address_space_pages(), 104);
    }

    #[test]
    fn unsorted_input_is_sorted() {
        let t = Trace::from_requests(
            "x",
            vec![
                IoRequest::new(10, 1, 1, IoOp::Read),
                IoRequest::new(0, 2, 1, IoOp::Read),
            ],
        );
        assert_eq!(t.requests()[0].timestamp_us, 0);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let t = sample().truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests()[1].lpn, 11);
    }

    #[test]
    fn empty_trace_properties() {
        let t = Trace::from_requests("e", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.duration_us(), 0);
        assert_eq!(t.footprint_pages(), 0);
        assert_eq!(t.address_space_pages(), 0);
    }
}
