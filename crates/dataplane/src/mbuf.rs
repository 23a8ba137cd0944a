//! Message buffers and the untrusted packet memory pool.
//!
//! In the paper's near-zero-copy design (Fig. 7b), full packets stay in an
//! *untrusted* host memory pool; only `⟨5T, size⟩` plus a memory reference
//! enter the enclave. [`MemPool`] models that pool: fixed capacity,
//! explicit allocate/free, and reference handles ([`MbufRef`]) standing in
//! for the `*` pointer the enclave returns with its allow/drop verdict.
//!
//! # Concurrency model
//!
//! Free slot *indices* live on a [`Ring`] — the same bounded mutex ring
//! the packet pipeline uses — so returning a buffer is one short ring push
//! that never touches slot contents. Each slot guards its own contents
//! with a tiny per-slot lock, touched only by the current owner of that
//! slot's index.
//!
//! On top of the shared pool, [`LocalMemPool`] gives each worker a private
//! free-index cache in DPDK mempool-cache style: steady-state alloc/free
//! cycles hit only the worker's own `Vec`, refilled from the shared ring
//! with one burst dequeue (one lock) and spilled back in batches. All
//! index storage is preallocated at construction, so steady-state
//! operation performs zero heap allocations (pinned by `hotpath_alloc.rs`
//! in `vif-core`).

use crate::packet::FiveTuple;
use crate::ring::Ring;
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A packet buffer: headers (five-tuple), wire size, and payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mbuf {
    /// Flow identifier parsed from the headers.
    pub tuple: FiveTuple,
    /// Frame size on the wire.
    pub wire_size: u16,
    /// Payload bytes (zero-copy shared).
    pub payload: Bytes,
}

impl Mbuf {
    /// A headers-only buffer (empty payload) — the shape the near-zero-copy
    /// mode keeps inside the enclave boundary, and the cheapest buffer a
    /// caller without payload bytes in hand can allocate.
    pub fn header_only(tuple: FiveTuple, wire_size: u16) -> Self {
        Mbuf {
            tuple,
            wire_size,
            payload: Bytes::new(),
        }
    }
}

/// A reference to an mbuf slot in a [`MemPool`] — the "memory reference ∗"
/// that crosses the enclave boundary in the near-zero-copy design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MbufRef(usize);

/// Errors from pool operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolError {
    /// No free slots (packet must be dropped at RX).
    Exhausted,
    /// The reference does not name a live buffer (double free / stale ref).
    InvalidRef,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Exhausted => write!(f, "packet memory pool exhausted"),
            PoolError::InvalidRef => write!(f, "invalid mbuf reference"),
        }
    }
}

impl std::error::Error for PoolError {}

#[derive(Debug)]
struct PoolShared {
    /// Slot contents, each behind its own lock; a slot is only touched by
    /// whoever holds its index (from the free ring or a local cache), so
    /// these locks are never contended — they exist to keep the API safe
    /// against stale references.
    slots: Vec<Mutex<Option<Mbuf>>>,
    /// Free slot indices: the handoff point between threads.
    free: Ring<usize>,
    /// Currently allocated buffers (capacity − free − locally cached).
    in_use: AtomicUsize,
    /// Peak simultaneous allocation observed.
    high_water: AtomicUsize,
}

impl PoolShared {
    fn charge(&self) {
        let used = self.in_use.fetch_add(1, Ordering::AcqRel) + 1;
        self.high_water.fetch_max(used, Ordering::AcqRel);
    }

    fn store(&self, idx: usize, buf: Mbuf) -> MbufRef {
        *self.slots[idx].lock() = Some(buf);
        self.charge();
        MbufRef(idx)
    }

    fn take(&self, r: MbufRef) -> Result<(usize, Mbuf), PoolError> {
        let slot = self.slots.get(r.0).ok_or(PoolError::InvalidRef)?;
        let buf = slot.lock().take().ok_or(PoolError::InvalidRef)?;
        self.in_use.fetch_sub(1, Ordering::AcqRel);
        Ok((r.0, buf))
    }
}

/// A fixed-capacity packet memory pool (DPDK `rte_mempool`).
///
/// Cloning is cheap and shares the pool. For per-worker fast paths, wrap a
/// clone in a [`LocalMemPool`].
///
/// # Example
///
/// ```
/// use vif_dataplane::mbuf::{Mbuf, MemPool};
/// use vif_dataplane::{FiveTuple, Protocol};
/// use bytes::Bytes;
///
/// let pool = MemPool::new(2);
/// let tuple = FiveTuple::new(1, 2, 3, 4, Protocol::Udp);
/// let r = pool.alloc(Mbuf { tuple, wire_size: 64, payload: Bytes::new() }).unwrap();
/// assert_eq!(pool.in_use(), 1);
/// let buf = pool.free(r).unwrap();
/// assert_eq!(buf.wire_size, 64);
/// ```
#[derive(Debug, Clone)]
pub struct MemPool {
    shared: Arc<PoolShared>,
}

impl MemPool {
    /// Creates a pool with `capacity` mbuf slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "pool capacity must be positive");
        let free = Ring::new(capacity);
        free.enqueue_burst(&mut (0..capacity).collect());
        MemPool {
            shared: Arc::new(PoolShared {
                slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
                free,
                in_use: AtomicUsize::new(0),
                high_water: AtomicUsize::new(0),
            }),
        }
    }

    /// Total slot count.
    pub fn capacity(&self) -> usize {
        self.shared.slots.len()
    }

    /// Currently allocated buffers (excludes indices parked in
    /// [`LocalMemPool`] caches, which hold no data).
    pub fn in_use(&self) -> usize {
        self.shared.in_use.load(Ordering::Acquire)
    }

    /// Peak simultaneous allocation observed.
    pub fn high_water(&self) -> usize {
        self.shared.high_water.load(Ordering::Acquire)
    }

    /// Allocates a slot for `buf`.
    ///
    /// # Errors
    ///
    /// [`PoolError::Exhausted`] when all slots are in use.
    pub fn alloc(&self, buf: Mbuf) -> Result<MbufRef, PoolError> {
        let idx = self.shared.free.dequeue().ok_or(PoolError::Exhausted)?;
        Ok(self.shared.store(idx, buf))
    }

    /// Reads the buffer behind a reference without freeing it.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidRef`] for stale or never-issued references.
    pub fn get(&self, r: MbufRef) -> Result<Mbuf, PoolError> {
        self.shared
            .slots
            .get(r.0)
            .and_then(|s| s.lock().clone())
            .ok_or(PoolError::InvalidRef)
    }

    /// Frees a slot, returning its buffer (TX after ALLOW, or reclamation
    /// after DROP). The slot's index goes back on the shared free ring —
    /// one ring push, safe from any thread.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidRef`] on double free or a stale reference.
    pub fn free(&self, r: MbufRef) -> Result<Mbuf, PoolError> {
        let (idx, buf) = self.shared.take(r)?;
        // The ring holds every index at most once, so this cannot fail.
        let _ = self.shared.free.enqueue(idx);
        Ok(buf)
    }
}

/// A per-worker view of a [`MemPool`] with a private free-index cache
/// (DPDK's per-lcore mempool cache).
///
/// Steady-state alloc/free cycles touch only this worker's preallocated
/// `Vec`: an empty cache refills from the shared ring in a batch, an
/// overfull one spills half back in a batch, so the shared ring is hit
/// once per `cache_size` operations instead of once per packet — and
/// buffers freed by *other* threads (e.g. TX returning this worker's
/// forwarded packets through [`MemPool::free`]) flow back through the
/// shared ring.
///
/// References issued here are plain [`MbufRef`]s: any holder of the
/// shared pool can `get`/`free` them.
#[derive(Debug)]
pub struct LocalMemPool {
    shared: Arc<PoolShared>,
    /// Locally parked free indices; capacity `2 * cache_size`, never
    /// reallocated.
    cache: Vec<usize>,
    cache_size: usize,
}

impl LocalMemPool {
    /// Creates a worker-local view of `pool` caching up to
    /// `2 * cache_size` free indices.
    ///
    /// # Panics
    ///
    /// Panics if `cache_size` is zero.
    pub fn new(pool: &MemPool, cache_size: usize) -> Self {
        assert!(cache_size > 0, "cache size must be positive");
        LocalMemPool {
            shared: Arc::clone(&pool.shared),
            cache: Vec::with_capacity(2 * cache_size),
            cache_size,
        }
    }

    /// Free indices currently parked in this worker's cache.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Allocates from the local cache, refilling a batch from the shared
    /// ring when empty.
    ///
    /// # Errors
    ///
    /// [`PoolError::Exhausted`] when both the cache and the shared ring
    /// are empty.
    pub fn alloc(&mut self, buf: Mbuf) -> Result<MbufRef, PoolError> {
        let idx = match self.cache.pop() {
            Some(idx) => idx,
            None => {
                // Batch refill: one ring lock buys cache_size allocations.
                self.shared
                    .free
                    .dequeue_burst(&mut self.cache, self.cache_size);
                self.cache.pop().ok_or(PoolError::Exhausted)?
            }
        };
        Ok(self.shared.store(idx, buf))
    }

    /// Frees into the local cache, spilling a batch to the shared ring
    /// when the cache is full.
    ///
    /// # Errors
    ///
    /// [`PoolError::InvalidRef`] on double free or a stale reference.
    pub fn free(&mut self, r: MbufRef) -> Result<Mbuf, PoolError> {
        let (idx, buf) = self.shared.take(r)?;
        if self.cache.len() == 2 * self.cache_size {
            // Spill half: keeps indices circulating to other workers
            // instead of pooling on one (the DPDK cache flush threshold).
            for i in self.cache.drain(self.cache_size..) {
                let _ = self.shared.free.enqueue(i);
            }
        }
        self.cache.push(idx);
        Ok(buf)
    }
}

impl Drop for LocalMemPool {
    fn drop(&mut self) {
        // Parked indices go back to the shared pool; a dropped worker
        // never leaks capacity.
        self.shared.free.enqueue_burst(&mut self.cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Protocol;

    fn mk(size: u16) -> Mbuf {
        Mbuf {
            tuple: FiveTuple::new(1, 2, 3, 4, Protocol::Tcp),
            wire_size: size,
            payload: Bytes::from_static(b"payload"),
        }
    }

    #[test]
    fn exhaustion_and_reuse() {
        let pool = MemPool::new(2);
        let a = pool.alloc(mk(64)).unwrap();
        let _b = pool.alloc(mk(65)).unwrap();
        assert_eq!(pool.alloc(mk(66)), Err(PoolError::Exhausted));
        pool.free(a).unwrap();
        let c = pool.alloc(mk(67)).unwrap();
        assert_eq!(pool.get(c).unwrap().wire_size, 67);
    }

    #[test]
    fn double_free_rejected() {
        let pool = MemPool::new(1);
        let a = pool.alloc(mk(64)).unwrap();
        pool.free(a).unwrap();
        assert_eq!(pool.free(a), Err(PoolError::InvalidRef));
    }

    #[test]
    fn get_does_not_free() {
        let pool = MemPool::new(1);
        let a = pool.alloc(mk(100)).unwrap();
        assert_eq!(pool.get(a).unwrap().wire_size, 100);
        assert_eq!(pool.in_use(), 1);
    }

    #[test]
    fn high_water_tracks_peak() {
        let pool = MemPool::new(4);
        let refs: Vec<_> = (0..3).map(|_| pool.alloc(mk(64)).unwrap()).collect();
        for r in refs {
            pool.free(r).unwrap();
        }
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.high_water(), 3);
    }

    #[test]
    fn payload_shared_zero_copy() {
        let pool = MemPool::new(1);
        let payload = Bytes::from(vec![7u8; 1024]);
        let a = pool
            .alloc(Mbuf {
                tuple: FiveTuple::new(1, 2, 3, 4, Protocol::Udp),
                wire_size: 1024,
                payload: payload.clone(),
            })
            .unwrap();
        let got = pool.get(a).unwrap();
        // bytes::Bytes clones share the same backing storage.
        assert_eq!(got.payload.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn local_cache_allocs_and_spills() {
        let pool = MemPool::new(64);
        let mut local = LocalMemPool::new(&pool, 4);
        // First alloc triggers a batch refill.
        let refs: Vec<_> = (0..10).map(|_| local.alloc(mk(64)).unwrap()).collect();
        assert_eq!(pool.in_use(), 10);
        assert_eq!(pool.high_water(), 10);
        // Frees park locally up to 2 * cache_size, then spill half.
        for r in refs {
            local.free(r).unwrap();
        }
        assert_eq!(pool.in_use(), 0);
        assert!(local.cached() <= 8, "cache bounded: {}", local.cached());
        // Shared view still works against locally recycled slots.
        let r = local.alloc(mk(91)).unwrap();
        assert_eq!(pool.get(r).unwrap().wire_size, 91);
        assert_eq!(pool.free(r).unwrap().wire_size, 91);
    }

    #[test]
    fn cross_thread_handoff_returns_capacity() {
        // A worker allocates from its local cache, TX frees through the
        // shared pool (the ring handoff), and nothing leaks: every
        // slot is allocatable again afterwards.
        let pool = MemPool::new(8);
        let mut local = LocalMemPool::new(&pool, 2);
        let refs: Vec<_> = (0..8).map(|_| local.alloc(mk(64)).unwrap()).collect();
        assert_eq!(local.alloc(mk(9)), Err(PoolError::Exhausted));
        let tx_pool = pool.clone();
        std::thread::spawn(move || {
            for r in refs {
                tx_pool.free(r).unwrap();
            }
        })
        .join()
        .unwrap();
        assert_eq!(pool.in_use(), 0);
        let again: Vec<_> = (0..8).map(|_| local.alloc(mk(65)).unwrap()).collect();
        assert_eq!(again.len(), 8);
        for r in again {
            pool.free(r).unwrap();
        }
    }

    #[test]
    fn dropping_local_cache_releases_indices() {
        let pool = MemPool::new(4);
        {
            let mut local = LocalMemPool::new(&pool, 2);
            let r = local.alloc(mk(64)).unwrap();
            local.free(r).unwrap();
            assert!(local.cached() > 0);
        }
        // All four slots allocatable from the shared pool again.
        let refs: Vec<_> = (0..4).map(|_| pool.alloc(mk(64)).unwrap()).collect();
        assert_eq!(refs.len(), 4);
    }

    #[test]
    fn steady_state_cycle_stays_local() {
        let pool = MemPool::new(32);
        let mut local = LocalMemPool::new(&pool, 8);
        // Warm the cache, then alloc/free cycles should never exhaust and
        // never grow the cache past its bound.
        for _ in 0..100 {
            let r = local.alloc(mk(64)).unwrap();
            local.free(r).unwrap();
            assert!(local.cached() <= 16);
        }
        assert_eq!(pool.in_use(), 0);
    }
}
