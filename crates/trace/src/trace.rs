//! The trace container and its binary serialization.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use serde::{Deserialize, Serialize};

use crate::request::{IoOp, IoRequest};

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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
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
        let mut pages: Vec<u64> = self.requests.iter().flat_map(|r| r.pages()).collect();
        pages.sort_unstable();
        pages.dedup();
        pages.len() as u64
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

    /// Consumes the trace into a finite [`RequestStream`], so
    /// stream-accepting drivers serve materialized traces unchanged
    /// (see [`crate::stream`]).
    ///
    /// [`RequestStream`]: crate::stream::RequestStream
    pub fn into_stream(self) -> crate::stream::TraceStream {
        crate::stream::TraceStream::new(self.name, self.requests)
    }

    /// Compact binary encoding (20 bytes per request) for caching
    /// generated traces on disk.
    ///
    /// Wire format: `u32` name length, the UTF-8 name, `u64` request
    /// count, then per request `u64` timestamp, `u64` lpn, a 3-byte
    /// big-endian `size_pages`, and one op byte (0 = read, 1 = write).
    /// The 3-byte size field bounds `size_pages` at
    /// [`MAX_REQUEST_PAGES`](crate::MAX_REQUEST_PAGES) = 2^24 − 1, which
    /// [`IoRequest::new`] enforces at construction — so every in-memory
    /// trace encodes losslessly.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(8 + self.name.len() + self.requests.len() * 20);
        buf.put_u32(self.name.len() as u32);
        buf.put_slice(self.name.as_bytes());
        buf.put_u64(self.requests.len() as u64);
        for r in &self.requests {
            buf.put_u64(r.timestamp_us);
            buf.put_u64(r.lpn);
            buf.put_uint(r.size_pages as u64, 3);
            buf.put_u8(match r.op {
                IoOp::Read => 0,
                IoOp::Write => 1,
            });
        }
        buf.freeze()
    }

    /// Decodes a trace produced by [`Trace::to_bytes`].
    ///
    /// Returns `None` on malformed input; never panics, however hostile
    /// the bytes — the header's request count is validated with checked
    /// arithmetic against the actual payload length before any
    /// allocation is sized from it, and requests whose timestamps
    /// decrease are malformed (a [`Trace`] is in timestamp order, and
    /// [`Trace::to_bytes`] only ever writes one that is).
    pub fn from_bytes(mut data: Bytes) -> Option<Trace> {
        if data.remaining() < 4 {
            return None;
        }
        let name_len = data.get_u32() as usize;
        if data.remaining() < name_len.checked_add(8)? {
            return None;
        }
        let name_bytes = data.copy_to_bytes(name_len);
        let name = String::from_utf8(name_bytes.to_vec()).ok()?;
        let n = usize::try_from(data.get_u64()).ok()?;
        // A hostile count cannot wrap the bounds check or size a huge
        // preallocation: 20 bytes per request must actually be present.
        if data.remaining() < n.checked_mul(20)? {
            return None;
        }
        let mut requests: Vec<IoRequest> = Vec::with_capacity(n.min(data.remaining() / 20));
        for _ in 0..n {
            let timestamp_us = data.get_u64();
            if requests
                .last()
                .is_some_and(|r| r.timestamp_us > timestamp_us)
            {
                return None;
            }
            let lpn = data.get_u64();
            let size_pages = data.get_uint(3) as u32;
            let op = match data.get_u8() {
                0 => IoOp::Read,
                1 => IoOp::Write,
                _ => return None,
            };
            // Re-validate the IoRequest invariants (size bounds, no LBA
            // wraparound) rather than trusting the wire.
            requests.push(IoRequest::checked(timestamp_us, lpn, size_pages, op)?);
        }
        Some(Trace { name, requests })
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
    use proptest::prelude::*;

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

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let decoded = Trace::from_bytes(t.to_bytes()).expect("roundtrip");
        assert_eq!(t, decoded);
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(Trace::from_bytes(Bytes::from_static(&[1, 2, 3])).is_none());
    }

    #[test]
    fn size_pages_roundtrips_at_the_wire_boundary() {
        // 2^24 - 1 is the largest encodable size; before the bound was
        // enforced, 2^24 encoded as 0 and anything larger silently lost
        // its top byte.
        let t = Trace::from_requests(
            "wide",
            vec![
                IoRequest::new(0, 0, crate::MAX_REQUEST_PAGES, IoOp::Write),
                IoRequest::new(1, 1 << 40, crate::MAX_REQUEST_PAGES - 1, IoOp::Read),
            ],
        );
        let decoded = Trace::from_bytes(t.to_bytes()).expect("roundtrip");
        assert_eq!(t, decoded);
    }

    #[test]
    fn hostile_request_count_cannot_overflow_or_overallocate() {
        // Header claims u64::MAX requests: `n * 20` used to wrap in
        // release (defeating the bounds check) and the preallocation
        // could abort the process.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(1);
        buf.put_u8(b'x');
        buf.put_u64(u64::MAX);
        buf.put_slice(&[0u8; 40]);
        assert!(Trace::from_bytes(buf.freeze()).is_none());

        // Plausible-but-unbacked count: must reject, not preallocate.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(0);
        buf.put_u64(1 << 40);
        assert!(Trace::from_bytes(buf.freeze()).is_none());
    }

    #[test]
    fn from_bytes_rejects_wire_level_invalid_requests() {
        // An lpn range that wraps past u64::MAX is rejected even though
        // each field individually parses.
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u32(0);
        buf.put_u64(1);
        buf.put_u64(0); // timestamp
        buf.put_u64(u64::MAX - 1); // lpn
        buf.put_uint(8, 3); // size_pages: range wraps
        buf.put_u8(0);
        assert!(Trace::from_bytes(buf.freeze()).is_none());
    }

    proptest! {
        #[test]
        fn binary_roundtrip_random(
            reqs in proptest::collection::vec(
                // Sizes span the full 3-byte wire field, not just 1..64 —
                // the top byte used to be silently dropped on encode.
                (
                    0u64..1_000_000,
                    0u64..1_000_000,
                    1u32..=crate::MAX_REQUEST_PAGES,
                    proptest::bool::ANY,
                ),
                0..100,
            )
        ) {
            let requests: Vec<IoRequest> = reqs
                .into_iter()
                .map(|(t, l, s, w)| IoRequest::new(t, l, s, if w { IoOp::Write } else { IoOp::Read }))
                .collect();
            let t = Trace::from_requests("p", requests);
            let decoded = Trace::from_bytes(t.to_bytes()).expect("roundtrip");
            prop_assert_eq!(t, decoded);
        }

        #[test]
        fn hostile_encodings_never_panic(
            flips in proptest::collection::vec((0usize..10_000, 0u8..=255), 1..8),
            raw in proptest::collection::vec(0u8..=255, 0..96),
            stamps in proptest::collection::vec(0u64..=u64::MAX, 3),
            near in proptest::collection::vec(0u64..12, 3),
        ) {
            // Fuzz: arbitrary byte mutations of a valid encoding, and
            // arbitrary bytes, must decode to Some(valid trace) or None —
            // never panic or abort.
            let t = sample();
            let mut bytes = t.to_bytes().to_vec();
            for (pos, val) in flips {
                let len = bytes.len();
                bytes[pos % len] = val;
            }
            survives(Trace::from_bytes(Bytes::from(bytes)));
            survives(Trace::from_bytes(Bytes::from(raw)));
            // The same encoding with only its timestamp fields overwritten
            // — anywhere in u64, and close together so that some orders
            // do decode — is a trace exactly when they do not decrease.
            for stamps in [stamps, near] {
                let mut bytes = t.to_bytes().to_vec();
                let first = bytes.len() - 3 * 20;
                for (i, stamp) in stamps.iter().enumerate() {
                    bytes[first + i * 20..first + i * 20 + 8].copy_from_slice(&stamp.to_be_bytes());
                }
                let decoded = Trace::from_bytes(Bytes::from(bytes));
                prop_assert_eq!(decoded.is_some(), stamps.windows(2).all(|w| w[0] <= w[1]));
                survives(decoded);
            }
        }
    }

    /// What `from_bytes` lets through is in timestamp order and can be
    /// measured. `footprint_pages` and `TraceStats::measure` are O(pages)
    /// by design and one 20-byte record may name 2²⁴ of them, so they run
    /// on the decoded traces that stay under 2¹⁶.
    fn survives(decoded: Option<Trace>) {
        let Some(t) = decoded else { return };
        let stamps: Vec<u64> = t.iter().map(|r| r.timestamp_us).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{stamps:?}");
        assert_eq!(
            t.duration_us(),
            stamps.last().map_or(0, |last| last - stamps[0])
        );
        if t.iter().map(|r| u64::from(r.size_pages)).sum::<u64>() < 1 << 16 {
            let stats = crate::stats::TraceStats::measure(&t);
            assert_eq!(stats.unique_pages, t.footprint_pages());
            assert_eq!(stats.duration_us, t.duration_us());
        }
    }
}
