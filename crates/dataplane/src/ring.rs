//! Bounded rings with DPDK-style burst operations.
//!
//! The paper's pipeline passes packets between the RX, filter, and TX
//! threads in bursts over DPDK rings (§V-A, Fig. 6). [`Ring`] is the same
//! hand-off with the same burst API, built as a mutex around a bounded
//! `VecDeque` — not lock-free. Its cost is one lock per *burst*: a burst
//! enqueue or dequeue takes the lock once and moves every item that fits,
//! so a 32-packet burst pays for one lock round-trip, not 32.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// A bounded FIFO ring; every operation takes its one lock once.
///
/// # Example
///
/// ```
/// use vif_dataplane::ring::Ring;
/// let ring: Ring<u32> = Ring::new(8);
/// let mut items = vec![1, 2, 3];
/// assert_eq!(ring.enqueue_burst(&mut items), 3);
/// assert!(items.is_empty());
/// let mut out = Vec::new();
/// assert_eq!(ring.dequeue_burst(&mut out, 2), 2);
/// assert_eq!(out, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct Ring<T> {
    /// Preallocated to `capacity`, so no operation ever reallocates it.
    slots: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> Ring<T> {
    /// Creates a ring holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        Ring {
            slots: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// The one lock. A poisoned lock is taken over, not propagated: no
    /// operation leaves the queue half-updated, and a worker that panics
    /// must not take the rings it shares with the others down with it.
    fn slots(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Capacity of the ring.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.slots().len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.slots().is_empty()
    }

    /// Enqueues one item; returns it back if the ring is full.
    pub fn enqueue(&self, item: T) -> Result<(), T> {
        let mut slots = self.slots();
        if slots.len() == self.capacity {
            return Err(item);
        }
        slots.push_back(item);
        Ok(())
    }

    /// Dequeues one item.
    pub fn dequeue(&self) -> Option<T> {
        self.slots().pop_front()
    }

    /// Enqueues as many items from the front of `items` as fit; returns how
    /// many were accepted (the DPDK `rte_ring_enqueue_burst` contract).
    ///
    /// Accepted items are removed from `items`; everything that did not fit
    /// stays with the caller, in order, so a full ring never destroys
    /// packets: the producer retries or accounts the leftovers as explicit
    /// drops. One lock, and no allocation even on a partial accept.
    pub fn enqueue_burst(&self, items: &mut Vec<T>) -> usize {
        let mut slots = self.slots();
        let n = (self.capacity - slots.len()).min(items.len());
        slots.extend(items.drain(..n));
        n
    }

    /// Dequeues up to `max` items into `out`; returns how many were moved.
    /// One lock.
    pub fn dequeue_burst(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut slots = self.slots();
        let n = max.min(slots.len());
        out.extend(slots.drain(..n));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn burst_respects_capacity() {
        let ring: Ring<u32> = Ring::new(4);
        let mut items: Vec<u32> = (0..10).collect();
        assert_eq!(ring.enqueue_burst(&mut items), 4);
        assert_eq!(ring.len(), 4);
        // The six rejected items stay with the caller, in order.
        assert_eq!(items, vec![4, 5, 6, 7, 8, 9]);
        let mut out = Vec::new();
        assert_eq!(ring.dequeue_burst(&mut out, 10), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_burst_loses_nothing_non_copy() {
        // Regression: an iterator-based enqueue_burst once consumed the
        // first item that failed to push and dropped it on the floor. With
        // a non-Copy payload the loss was unrecoverable.
        let ring: Ring<String> = Ring::new(4);
        let mut items: Vec<String> = (0..10).map(|i| format!("pkt-{i}")).collect();
        let accepted = ring.enqueue_burst(&mut items);
        assert_eq!(accepted, 4);
        assert_eq!(items.len(), 10 - accepted, "rejected items must survive");
        let mut out = Vec::new();
        ring.dequeue_burst(&mut out, 10);
        out.append(&mut items);
        // Zero items lost, FIFO order preserved end to end.
        assert_eq!(out, (0..10).map(|i| format!("pkt-{i}")).collect::<Vec<_>>());
    }

    #[test]
    fn single_enqueue_dequeue() {
        let ring: Ring<&str> = Ring::new(1);
        ring.enqueue("a").unwrap();
        assert_eq!(ring.enqueue("b"), Err("b"));
        assert_eq!(ring.dequeue(), Some("a"));
        assert_eq!(ring.dequeue(), None);
    }

    #[test]
    fn fifo_order_preserved() {
        let ring: Ring<u64> = Ring::new(128);
        let mut items: Vec<u64> = (0..100).collect();
        ring.enqueue_burst(&mut items);
        let mut out = Vec::new();
        ring.dequeue_burst(&mut out, 100);
        assert_eq!(out, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn producer_consumer_threads() {
        let ring: Arc<Ring<u64>> = Arc::new(Ring::new(64));
        let producer_ring = Arc::clone(&ring);
        let total = 10_000u64;
        let producer = std::thread::spawn(move || {
            let mut sent = 0;
            while sent < total {
                if producer_ring.enqueue(sent).is_ok() {
                    sent += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut received = Vec::with_capacity(total as usize);
        while received.len() < total as usize {
            if ring.dequeue_burst(&mut received, 32) == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(received, (0..total).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _: Ring<u8> = Ring::new(0);
    }
}
