//! Offline shim of the [`bytes`](https://crates.io/crates/bytes) buffer
//! surface used by the Sibyl workspace: big-endian `put_*`/`get_*`
//! cursors over a plain `Vec<u8>`. No reference counting — `Bytes` owns
//! its data and `copy_to_bytes` copies. No workspace source uses it:
//! `sibyl-trace` still lists it until the next re-lock of
//! `benchmark/Cargo.lock`.

#![warn(missing_docs)]

/// Read access to a byte cursor, mirroring `bytes::Buf`.
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;

    /// Copies `cnt` bytes out, advancing the cursor.
    fn copy_to_bytes(&mut self, cnt: usize) -> Bytes;

    /// Reads one byte.
    fn get_u8(&mut self) -> u8;

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32;

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64;

    /// Reads `nbytes` big-endian bytes into the low bits of a `u64`.
    fn get_uint(&mut self, nbytes: usize) -> u64;
}

/// Write access to a growable byte buffer, mirroring `bytes::BufMut`.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8);

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32);

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64);

    /// Appends the low `nbytes` bytes of `v`, big-endian.
    fn put_uint(&mut self, v: u64, nbytes: usize);
}

/// An immutable byte buffer with a read cursor, mirroring `bytes::Bytes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bytes {
    data: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Wraps a static byte slice.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            data: data.to_vec(),
            pos: 0,
        }
    }

    /// Copies the unread remainder into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.data[self.pos..].to_vec()
    }

    /// Length of the unread remainder.
    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    /// `true` when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn take(&mut self, cnt: usize) -> &[u8] {
        assert!(cnt <= self.remaining(), "buffer underflow");
        let s = &self.data[self.pos..self.pos + cnt];
        self.pos += cnt;
        s
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes { data, pos: 0 }
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn copy_to_bytes(&mut self, cnt: usize) -> Bytes {
        Bytes {
            data: self.take(cnt).to_vec(),
            pos: 0,
        }
    }

    fn get_u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().unwrap())
    }

    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().unwrap())
    }

    fn get_uint(&mut self, nbytes: usize) -> u64 {
        assert!(nbytes <= 8, "get_uint supports at most 8 bytes");
        self.take(nbytes)
            .iter()
            .fold(0u64, |acc, &b| (acc << 8) | b as u64)
    }
}

/// A growable byte buffer, mirroring `bytes::BytesMut`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    /// Freezes into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes {
            data: self.data,
            pos: 0,
        }
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.data.extend_from_slice(&v.to_be_bytes());
    }

    fn put_uint(&mut self, v: u64, nbytes: usize) {
        assert!(nbytes <= 8, "put_uint supports at most 8 bytes");
        self.data.extend_from_slice(&v.to_be_bytes()[8 - nbytes..]);
    }
}

#[cfg(test)]
mod tests {
    use super::{Buf, BufMut, Bytes, BytesMut};

    #[test]
    fn roundtrip_all_widths() {
        let mut w = BytesMut::with_capacity(32);
        w.put_u32(7);
        w.put_slice(b"abc");
        w.put_u64(u64::MAX - 1);
        w.put_uint(0x01_02_03, 3);
        w.put_u8(9);
        let mut r = w.freeze();
        assert_eq!(r.get_u32(), 7);
        assert_eq!(r.copy_to_bytes(3).to_vec(), b"abc");
        assert_eq!(r.get_u64(), u64::MAX - 1);
        assert_eq!(r.get_uint(3), 0x01_02_03);
        assert_eq!(r.get_u8(), 9);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut b = Bytes::from_static(&[1, 2]);
        b.get_u32();
    }
}
