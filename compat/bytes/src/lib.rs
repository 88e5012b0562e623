//! Offline stand-in for the subset of the `bytes` crate this workspace uses:
//! [`Bytes`]/[`BytesMut`] buffers and the big-endian [`Buf`]/[`BufMut`]
//! cursor traits. Semantics match upstream for the covered surface — all
//! integer accessors are big-endian and reading past the end panics (wire
//! decoders bound-check with their own `need()` helpers before reading).

use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer. Like upstream `bytes`, a
/// `Bytes` is a view (offset range) into shared storage, so [`Bytes::slice`]
/// and [`Clone`] are O(1) reference bumps — a batch of wire frames can be
/// encoded into one allocation and handed out as per-frame slices.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Creates a buffer by copying `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Number of bytes in the buffer.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether this is the only handle on the underlying storage — no
    /// clone and no [`Bytes::slice`] view of it is alive elsewhere.
    pub fn is_unique(&self) -> bool {
        Arc::strong_count(&self.data) == 1
    }

    /// A sub-view of this buffer sharing the same storage — no copy, no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or decreasing.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {}..{} out of bounds of {} bytes",
            range.start,
            range.end,
            self.len()
        );
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from(Vec::new())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        Bytes { data: Arc::new(data), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::copy_from_slice(data)
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(bytes: Bytes) -> Self {
        bytes.to_vec()
    }
}

/// A growable byte buffer for encoding.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with at least `capacity` bytes reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut { data: Vec::with_capacity(capacity) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes the buffer into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }

    /// Appends raw bytes.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Write access to a byte buffer; all integers big-endian, as on the wire.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `i64`.
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian IEEE-754 `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Read access to a byte buffer; reading advances the cursor.
///
/// # Panics
///
/// Like upstream `bytes`, every `get_*` panics if fewer bytes remain than
/// the value requires; callers bound-check with [`Buf::remaining`] first.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Reads `N` bytes, advancing the cursor.
    fn take_array<const N: usize>(&mut self) -> [u8; N];

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        self.take_array::<1>()[0]
    }

    /// Reads a big-endian `u16`.
    fn get_u16(&mut self) -> u16 {
        u16::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian `i64`.
    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take_array())
    }

    /// Reads a big-endian IEEE-754 `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_array<const N: usize>(&mut self) -> [u8; N] {
        assert!(self.len() >= N, "buffer underflow: need {N} bytes, have {}", self.len());
        let (head, tail) = self.split_at(N);
        *self = tail;
        let mut out = [0u8; N];
        out.copy_from_slice(head);
        out
    }

    fn advance(&mut self, cnt: usize) {
        assert!(self.len() >= cnt, "cannot advance past the end of the buffer");
        *self = &self[cnt..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_big_endian() {
        let mut buf = BytesMut::with_capacity(29);
        buf.put_u8(0xAB);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_f64(-12.5);
        buf.put_i64(-42);
        buf.put_u64(u64::MAX - 1);
        let frozen = buf.freeze();
        assert_eq!(frozen.len(), 1 + 4 + 8 + 8 + 8);
        let mut cursor: &[u8] = &frozen;
        assert_eq!(cursor.get_u8(), 0xAB);
        assert_eq!(cursor.get_u32(), 0xDEAD_BEEF);
        assert_eq!(cursor.get_f64(), -12.5);
        assert_eq!(cursor.get_i64(), -42);
        assert_eq!(cursor.get_u64(), u64::MAX - 1);
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn wire_layout_is_big_endian() {
        let mut buf = BytesMut::new();
        buf.put_u32(1);
        assert_eq!(&buf[..], &[0, 0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn underflow_panics() {
        let mut cursor: &[u8] = &[1, 2];
        let _ = cursor.get_u32();
    }

    #[test]
    fn bytes_slices_like_a_slice() {
        let b = Bytes::from(vec![1, 2, 3, 4]);
        assert_eq!(&b[1..3], &[2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(Bytes::copy_from_slice(&b[..2]).len(), 2);
    }

    #[test]
    fn slice_views_share_storage_without_copying() {
        let block = Bytes::from(vec![10, 11, 12, 13, 14]);
        let head = block.slice(0..2);
        let tail = block.slice(2..5);
        assert_eq!(&head[..], &[10, 11]);
        assert_eq!(&tail[..], &[12, 13, 14]);
        // Nested slices compose relative to the view, not the storage.
        assert_eq!(&tail.slice(1..3)[..], &[13, 14]);
        assert_eq!(block.slice(5..5).len(), 0);
        // Content equality ignores how the view was produced.
        assert_eq!(head, Bytes::from(vec![10, 11]));
    }

    #[test]
    fn uniqueness_counts_clones_and_slices() {
        let block = Bytes::from(vec![1, 2, 3]);
        assert!(block.is_unique());
        let view = block.slice(1..2);
        assert!(!block.is_unique() && !view.is_unique());
        drop(view);
        let copy = block.clone();
        assert!(!copy.is_unique());
        drop(block);
        assert!(copy.is_unique());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        let _ = Bytes::from(vec![1, 2]).slice(1..3);
    }
}
