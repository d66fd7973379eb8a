//! The basic storage-request model.

/// Logical page size in bytes. The paper manages placement at 4 KiB
/// granularity (§2.1, §10.2).
pub const PAGE_SIZE_BYTES: u64 = 4096;

/// Largest `size_pages` a request may carry: 2^24 − 1 pages (64 GiB per
/// request), far beyond any real block request.
pub const MAX_REQUEST_PAGES: u32 = (1 << 24) - 1;

/// Direction of a storage request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// A read of previously written data.
    Read,
    /// A write (or overwrite).
    Write,
}

impl IoOp {
    /// `true` for [`IoOp::Write`].
    pub fn is_write(self) -> bool {
        matches!(self, IoOp::Write)
    }
}

impl std::fmt::Display for IoOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoOp::Read => write!(f, "R"),
            IoOp::Write => write!(f, "W"),
        }
    }
}

/// One block-I/O request as seen by the storage management layer.
///
/// A request covers `size_pages` consecutive 4 KiB logical pages starting
/// at logical page number `lpn`. Timestamps are microseconds since trace
/// start; in the MSRC traces the gap between consecutive requests is the
/// time the cores spent computing (§3).
///
/// # Examples
///
/// ```
/// use sibyl_trace::{IoOp, IoRequest};
/// let req = IoRequest::new(1_000, 42, 4, IoOp::Write);
/// assert_eq!(req.size_bytes(), 16_384);
/// assert_eq!(req.last_lpn(), 45);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IoRequest {
    /// Issue time in microseconds since trace start.
    pub timestamp_us: u64,
    /// First logical page number touched.
    pub lpn: u64,
    /// Number of consecutive 4 KiB pages covered (≥ 1).
    pub size_pages: u32,
    /// Read or write.
    pub op: IoOp,
}

impl IoRequest {
    /// Creates a request.
    ///
    /// # Panics
    ///
    /// Panics if `size_pages` is zero or exceeds [`MAX_REQUEST_PAGES`],
    /// or if the covered LBA range `lpn ..= lpn + size_pages - 1` would
    /// wrap past `u64::MAX` (which would make [`IoRequest::pages`] and
    /// address-space math overflow).
    pub fn new(timestamp_us: u64, lpn: u64, size_pages: u32, op: IoOp) -> Self {
        match Self::checked(timestamp_us, lpn, size_pages, op) {
            Some(req) => req,
            None => {
                assert!(size_pages > 0, "IoRequest: size_pages must be >= 1");
                assert!(
                    size_pages <= MAX_REQUEST_PAGES,
                    "IoRequest: size_pages must be <= {MAX_REQUEST_PAGES}"
                );
                panic!("IoRequest: lpn range {lpn} + {size_pages} pages wraps past u64::MAX");
            }
        }
    }

    /// Creates a request, returning `None` instead of panicking when the
    /// fields violate the invariants of [`IoRequest::new`] (which is
    /// built on it).
    pub fn checked(timestamp_us: u64, lpn: u64, size_pages: u32, op: IoOp) -> Option<Self> {
        if size_pages == 0 || size_pages > MAX_REQUEST_PAGES {
            return None;
        }
        // The last covered page (and the address-space size, which is
        // last_lpn() + 1) must fit in u64.
        lpn.checked_add(size_pages as u64)?;
        Some(IoRequest {
            timestamp_us,
            lpn,
            size_pages,
            op,
        })
    }

    /// Request size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_pages as u64 * PAGE_SIZE_BYTES
    }

    /// The last logical page number covered. Never wraps: construction
    /// guarantees `lpn + size_pages` fits in `u64` (so the address-space
    /// size `last_lpn() + 1` fits too).
    pub fn last_lpn(&self) -> u64 {
        self.lpn + self.size_pages as u64 - 1
    }

    /// The request replayed `scale` times faster: its timestamp divided by
    /// `scale` (>1 compresses think time) and truncated to whole µs. At
    /// `scale == 1.0` the request is returned as is — a timestamp above
    /// 2^53 would not survive the round trip through `f64`.
    #[inline]
    pub fn time_scaled(self, scale: f64) -> IoRequest {
        if scale == 1.0 {
            return self;
        }
        IoRequest {
            timestamp_us: (self.timestamp_us as f64 / scale) as u64,
            ..self
        }
    }

    /// Iterates over every logical page number the request touches.
    pub fn pages(&self) -> impl Iterator<Item = u64> + '_ {
        self.lpn..=self.last_lpn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_conversions() {
        let r = IoRequest::new(0, 100, 8, IoOp::Read);
        assert_eq!(r.size_bytes(), 32768);
        assert_eq!(r.size_bytes() / 1024, 32, "32 KiB");
    }

    #[test]
    fn pages_iterator_covers_range() {
        let r = IoRequest::new(0, 5, 3, IoOp::Write);
        let pages: Vec<u64> = r.pages().collect();
        assert_eq!(pages, vec![5, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "size_pages must be >= 1")]
    fn zero_size_rejected() {
        let _ = IoRequest::new(0, 0, 0, IoOp::Read);
    }

    #[test]
    #[should_panic(expected = "size_pages must be <=")]
    fn oversized_request_rejected() {
        let _ = IoRequest::new(0, 0, MAX_REQUEST_PAGES + 1, IoOp::Read);
    }

    #[test]
    #[should_panic(expected = "wraps past u64::MAX")]
    fn lpn_range_wraparound_rejected() {
        // lpn + size - 1 would wrap: pages() would be an empty range and
        // address_space_pages() would overflow.
        let _ = IoRequest::new(0, u64::MAX - 2, 4, IoOp::Write);
    }

    #[test]
    fn checked_matches_new_on_the_boundaries() {
        assert!(IoRequest::checked(0, 0, 0, IoOp::Read).is_none());
        assert!(IoRequest::checked(0, 0, MAX_REQUEST_PAGES + 1, IoOp::Read).is_none());
        assert!(IoRequest::checked(0, u64::MAX, 1, IoOp::Read).is_none());
        // The largest representable request: ends exactly at u64::MAX - 1,
        // so last_lpn() + 1 still fits.
        let r = IoRequest::checked(
            0,
            u64::MAX - u64::from(MAX_REQUEST_PAGES),
            MAX_REQUEST_PAGES,
            IoOp::Write,
        )
        .expect("maximal request is valid");
        assert_eq!(r.last_lpn(), u64::MAX - 1);
        assert_eq!(r.pages().count() as u32, MAX_REQUEST_PAGES);
        let max = IoRequest::new(7, 9, MAX_REQUEST_PAGES, IoOp::Read);
        assert_eq!(
            IoRequest::checked(7, 9, MAX_REQUEST_PAGES, IoOp::Read),
            Some(max)
        );
    }

    #[test]
    fn time_scaled_divides_the_timestamp_and_keeps_it_exact_at_one() {
        let big = IoRequest::new((1 << 53) + 1, 3, 2, IoOp::Read);
        assert_eq!(big.time_scaled(1.0), big, "2^53 + 1 is not an f64");
        let r = IoRequest::new(4_000, 3, 2, IoOp::Write);
        assert_eq!(r.time_scaled(40.0), IoRequest::new(100, 3, 2, IoOp::Write));
    }

    #[test]
    fn op_display_and_predicates() {
        assert_eq!(IoOp::Read.to_string(), "R");
        assert_eq!(IoOp::Write.to_string(), "W");
        assert!(IoOp::Write.is_write());
        assert!(!IoOp::Read.is_write());
    }
}
