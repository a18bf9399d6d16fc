//! Vendored offline subset of the `bytes` crate: reference-counted byte
//! buffers with cheap slicing, built for the zero-copy framing path in
//! `mc-net`.
//!
//! Differences from upstream (deliberate, to keep the subset small):
//!
//! - [`BytesMut::split_to`] returns a frozen [`Bytes`] view directly
//!   (upstream returns another `BytesMut`); the framing code only ever
//!   wants an immutable frame out of the receive buffer.
//! - Backing storage is a fixed, zero-initialised region that never
//!   reallocates in place. `reserve` either *reclaims* the region (when
//!   no frozen views are still alive) or swaps in a fresh one. The
//!   reclaim-vs-allocate decision is counted in process-wide pool
//!   statistics ([`pool_stats`]) so tests can pin the steady-state
//!   allocation behaviour of the hot path.
//!
//! # Safety model
//!
//! A buffer region is logically split at two cursors, `start ≤ end`:
//! `[0, start)` is frozen (owned by outstanding [`Bytes`] views),
//! `[start, end)` is written-but-unconsumed, and `[end, cap)` is spare.
//! Writes only ever touch `[end, cap)`; frozen views only ever read
//! `[0, start)`. The two ranges are disjoint, cursors only advance, and
//! the region is only reset or replaced when the owner proves (via the
//! reference count) that no frozen view is alive — so shared access is
//! race-free without any per-access synchronisation.

use std::cell::UnsafeCell;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Fresh backing regions allocated (pool misses).
static POOL_ALLOCS: AtomicU64 = AtomicU64::new(0);
/// In-place region reclaims (pool hits: `reserve` found the region free
/// of frozen views and reset it instead of allocating).
static POOL_REUSES: AtomicU64 = AtomicU64::new(0);

/// Process-wide buffer-pool counters: `(allocations, reuses)`. A hot
/// loop in steady state should drive the reuse count, not the
/// allocation count.
pub fn pool_stats() -> (u64, u64) {
    (POOL_ALLOCS.load(Ordering::Relaxed), POOL_REUSES.load(Ordering::Relaxed))
}

/// The shared backing region: fixed capacity, zero-initialised, never
/// grown in place.
struct Shared {
    buf: UnsafeCell<Box<[u8]>>,
}

// Safety: all mutation goes through `BytesMut` (unique owner of the
// write cursor) and is confined to `[end, cap)`; concurrent readers
// (`Bytes` clones on other threads) are confined to frozen `[0, start)`.
unsafe impl Send for Shared {}
unsafe impl Sync for Shared {}

impl Shared {
    fn with_capacity(cap: usize) -> Arc<Shared> {
        POOL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        Arc::new(Shared { buf: UnsafeCell::new(vec![0u8; cap].into_boxed_slice()) })
    }

    fn capacity(&self) -> usize {
        // Safety: the box itself (pointer + length) is only replaced
        // when the owning `BytesMut` holds the sole reference.
        unsafe { (&*self.buf.get()).len() }
    }

    /// Safety: the caller must hold a window into an immutable or
    /// exclusively-owned part of the region (see the module-level model).
    unsafe fn slice(&self, off: usize, len: usize) -> &[u8] {
        &(&*self.buf.get())[off..off + len]
    }

    /// Safety: the caller must be the unique writer and the window must
    /// be disjoint from every frozen view.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, off: usize, len: usize) -> &mut [u8] {
        &mut (&mut *self.buf.get())[off..off + len]
    }
}

/// An immutable, cheaply cloneable view into a shared byte region.
pub struct Bytes {
    shared: Option<Arc<Shared>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// The empty view (no backing region at all).
    pub const fn new() -> Bytes {
        Bytes { shared: None, off: 0, len: 0 }
    }

    /// Copies `src` into a freshly allocated region. Cold-path
    /// constructor — the hot path slices pooled buffers instead.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        let mut b = BytesMut::with_capacity(src.len().max(1));
        b.put_slice(src);
        b.freeze()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of this view (zero-copy; clones the region handle).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len, "slice out of bounds");
        Bytes {
            shared: self.shared.clone(),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` becomes the
    /// remainder. Zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_to out of bounds");
        let head = self.slice(0..at);
        self.off += at;
        self.len -= at;
        head
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Clone for Bytes {
    fn clone(&self) -> Bytes {
        Bytes { shared: self.shared.clone(), off: self.off, len: self.len }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.shared {
            None => &[],
            // Safety: this window was frozen when the view was created
            // and the writer never touches frozen offsets again.
            Some(s) => unsafe { s.slice(self.off, self.len) },
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

/// A unique, appendable byte buffer over a pooled region. Frames are
/// appended at the write cursor and frozen off the front as [`Bytes`].
pub struct BytesMut {
    shared: Arc<Shared>,
    /// Start of the written-but-unconsumed window (everything before is
    /// frozen into outstanding `Bytes` views).
    start: usize,
    /// End of the written window (everything from here to capacity is
    /// spare, zero-initialised space).
    end: usize,
}

impl BytesMut {
    /// A buffer over a fresh region of at least `cap` bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { shared: Shared::with_capacity(cap.max(1)), start: 0, end: 0 }
    }

    /// Unconsumed written bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Total capacity of the current backing region.
    pub fn capacity(&self) -> usize {
        self.shared.capacity()
    }

    /// Ensures at least `additional` bytes of spare space. Reclaims the
    /// current region in place when no frozen views are alive (the pool
    /// hit), otherwise swaps in a fresh region (the pool miss). Either
    /// way the unconsumed window is preserved.
    pub fn reserve(&mut self, additional: usize) {
        let cap = self.capacity();
        if cap - self.end >= additional {
            return;
        }
        let live = self.end - self.start;
        if Arc::strong_count(&self.shared) == 1 && cap >= live + additional {
            // Sole owner: every frozen view has been dropped, so the
            // region can be compacted and reused without a new
            // allocation. This is the steady-state path.
            if live > 0 {
                // Safety: unique owner, and copy_within handles overlap.
                unsafe {
                    (&mut *self.shared.buf.get()).copy_within(self.start..self.end, 0);
                }
            }
            self.start = 0;
            self.end = live;
            POOL_REUSES.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Frozen views still alive (or the region is simply too small):
        // allocate a fresh region and migrate the unconsumed window.
        let want = (live + additional).max(cap).next_power_of_two();
        let fresh = Shared::with_capacity(want);
        if live > 0 {
            // Safety: fresh region is uniquely ours; source window is
            // the written range of the old region.
            unsafe {
                fresh.slice_mut(0, live).copy_from_slice(self.shared.slice(self.start, live));
            }
        }
        self.shared = fresh;
        self.start = 0;
        self.end = live;
    }

    /// Appends `src`, growing via [`BytesMut::reserve`] if needed.
    /// Inlined, so that a caller's fixed-width write copies a constant
    /// number of bytes.
    #[inline]
    pub fn put_slice(&mut self, src: &[u8]) {
        self.reserve(src.len());
        // Safety: `[end, end+len)` is spare space; we are the unique
        // writer.
        unsafe {
            self.shared.slice_mut(self.end, src.len()).copy_from_slice(src);
        }
        self.end += src.len();
    }

    pub fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    pub fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    pub fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    pub fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Splits off the first `at` unconsumed bytes as a frozen [`Bytes`]
    /// view (zero-copy; upstream returns `BytesMut` here, see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `at > len`.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to out of bounds");
        let frame = Bytes { shared: Some(self.shared.clone()), off: self.start, len: at };
        self.start += at;
        frame
    }

    /// Freezes the whole unconsumed window.
    pub fn freeze(mut self) -> Bytes {
        let len = self.len();
        self.split_to(len)
    }

    /// The spare (writable) tail of the region, for direct socket reads.
    /// Always zero-initialised, so plain `&mut [u8]` I/O is safe; pair
    /// with [`BytesMut::advance_written`].
    pub fn spare_mut(&mut self) -> &mut [u8] {
        let cap = self.capacity();
        // Safety: `[end, cap)` is spare; we are the unique writer.
        unsafe { self.shared.slice_mut(self.end, cap - self.end) }
    }

    /// Commits `n` bytes written into [`BytesMut::spare_mut`].
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the spare space.
    pub fn advance_written(&mut self, n: usize) {
        assert!(self.end + n <= self.capacity(), "advance past capacity");
        self.end += n;
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        // Safety: the unconsumed window is only written through `&mut
        // self` methods, which cannot overlap this borrow.
        unsafe { self.shared.slice(self.start, self.end - self.start) }
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({} of {} bytes)", self.len(), self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `pool_stats` counts process-wide, so a test that pins its deltas
    /// must not run beside one that allocates: each test holds this.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn append_freeze_slice_roundtrip() {
        let _serial = serial();
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(b"hello ");
        b.put_slice(b"world");
        assert_eq!(&b[..], b"hello world");
        let head = b.split_to(6);
        assert_eq!(&head[..], b"hello ");
        assert_eq!(&b[..], b"world");
        let tail = b.split_to(5);
        assert_eq!(&tail[..], b"world");
        assert!(b.is_empty());
        assert_eq!(&head.slice(0..5)[..], b"hello");
    }

    #[test]
    fn bytes_split_to_advances_view() {
        let _serial = serial();
        let mut b = Bytes::copy_from_slice(b"abcdef");
        let head = b.split_to(2);
        assert_eq!(&head[..], b"ab");
        assert_eq!(&b[..], b"cdef");
    }

    #[test]
    fn reserve_reclaims_when_views_are_dropped() {
        let _serial = serial();
        let mut b = BytesMut::with_capacity(16);
        let (allocs0, reuses0) = pool_stats();
        for _ in 0..100 {
            b.put_slice(&[7u8; 12]);
            let frame = b.split_to(12);
            assert_eq!(frame.len(), 12);
            drop(frame);
            // The view is gone, so this must reclaim in place.
            b.reserve(12);
        }
        let (allocs1, reuses1) = pool_stats();
        assert_eq!(allocs1 - allocs0, 0, "steady-state loop must not allocate");
        assert!(reuses1 - reuses0 >= 99, "steady-state loop must reclaim");
    }

    #[test]
    fn reserve_migrates_when_views_are_alive() {
        let _serial = serial();
        let mut b = BytesMut::with_capacity(16);
        b.put_slice(&[1u8; 8]);
        let frame = b.split_to(8);
        b.put_slice(&[2u8; 8]);
        // The frozen view pins the old region; growing must migrate.
        b.reserve(16);
        b.put_slice(&[3u8; 16]);
        assert_eq!(&frame[..], &[1u8; 8], "frozen view survives migration");
        assert_eq!(b.len(), 24);
        assert_eq!(&b[..8], &[2u8; 8]);
        assert_eq!(&b[8..], &[3u8; 16]);
    }

    #[test]
    fn socket_read_pattern() {
        let _serial = serial();
        let mut b = BytesMut::with_capacity(32);
        let n = {
            let spare = b.spare_mut();
            spare[..4].copy_from_slice(b"data");
            4
        };
        b.advance_written(n);
        assert_eq!(&b[..], b"data");
    }

    #[test]
    fn little_endian_put_helpers() {
        let _serial = serial();
        let mut b = BytesMut::with_capacity(32);
        b.put_u8(0xab);
        b.put_u16_le(0x1234);
        b.put_u32_le(0xdead_beef);
        b.put_u64_le(0x0102_0304_0506_0708);
        assert_eq!(b.len(), 15);
        assert_eq!(b[0], 0xab);
        assert_eq!(&b[1..3], &0x1234u16.to_le_bytes());
        assert_eq!(&b[3..7], &0xdead_beefu32.to_le_bytes());
        assert_eq!(&b[7..15], &0x0102_0304_0506_0708u64.to_le_bytes());
    }
}
