//! The telemetry hub: one shared registry of per-worker, per-slice, and
//! per-contract metrics plus the flight recorder and the virtual clock.
//!
//! The hub is built once (all storage pre-allocated) and shared by
//! `Arc` across the service workers, the round driver, the cluster, and
//! the harness. Nothing touches the hub per packet, and it counts each
//! thing once:
//!
//! - **Packets.** The service counts each packet once, in its round
//!   tally of [`PacketCounts`]. At every flush barrier (and once more at
//!   shutdown) it hands the hub that round's per-worker rows and
//!   per-contract deltas ([`TelemetryHub::add_round`]), which the hub
//!   adds, under its one lock, to a cumulative row per worker and per
//!   contract.
//!   The only thing a worker records itself is wire sizes, into a plain
//!   [`Histogram`] on its stack that it merges
//!   ([`TelemetryHub::merge_sizes`]) once per round.
//! - **Slice events.** [`TelemetryHub::record_event`] counts each event
//!   it records per (slice, kind), under the recorder lock it already
//!   takes, so a slice's audit, quarantine, probation, promotion and
//!   demotion counts are views of the flight recorder that survive its
//!   wraparound.
//!
//! Steady-state recording is allocation-free: one uncontended lock per
//! round for the packet rows, and O(64) atomic adds per worker per round
//! for the size histogram.
//!
//! Everything the hub aggregates is *deterministic* under a fixed seed:
//! packet counts, wire sizes, event counts and virtual-clock timestamps.
//! Scheduling-dependent values (park events, spin counts, burst sizes)
//! deliberately stay out — they live on the service handle —
//! so a [`TelemetrySnapshot`] is byte-identical across re-runs of the
//! same seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::hist::{AtomicHistogram, Histogram};
use crate::recorder::{Event, EventKind, FlightRecorder};
use crate::snapshot::{PacketCounts, SliceSnapshot, TelemetrySnapshot};

/// Everything the hub adds up off the packet path, kept under one lock:
/// the cumulative packet rows, the flight recorder, and the per-slice
/// event counts it feeds.
#[derive(Debug)]
struct Book {
    workers: Vec<PacketCounts>,
    contracts: Vec<PacketCounts>,
    recorder: FlightRecorder,
    slices: Vec<SliceSnapshot>,
}

/// Default flight-recorder capacity (events retained) when callers don't
/// choose one.
pub const DEFAULT_EVENTS_CAPACITY: usize = 4096;

/// The shared telemetry registry: virtual clock, per-worker / per-slice /
/// per-contract metrics, the round-latency histogram, and the flight
/// recorder. See the module docs for the recording discipline.
#[derive(Debug)]
pub struct TelemetryHub {
    /// Virtual-clock time, set by the harness each round. Never wall time.
    clock: AtomicU64,
    /// Current global round, set at the flush barrier.
    round: AtomicU64,
    worker_sizes: Vec<AtomicHistogram>,
    contract_ids: Vec<u32>,
    round_latency: AtomicHistogram,
    book: Mutex<Book>,
}

impl TelemetryHub {
    /// Builds a hub for `workers` service workers (and the same number of
    /// audit slices), labeling per-tenant counters by `contract_ids`, with
    /// a flight recorder retaining up to `events_capacity` events. All
    /// storage is allocated here, up front.
    pub fn new(workers: usize, contract_ids: &[u32], events_capacity: usize) -> Self {
        TelemetryHub {
            clock: AtomicU64::new(0),
            round: AtomicU64::new(0),
            worker_sizes: (0..workers).map(|_| AtomicHistogram::new()).collect(),
            contract_ids: contract_ids.to_vec(),
            round_latency: AtomicHistogram::new(),
            book: Mutex::new(Book {
                workers: vec![PacketCounts::default(); workers],
                contracts: vec![PacketCounts::default(); contract_ids.len()],
                recorder: FlightRecorder::new(events_capacity),
                slices: vec![SliceSnapshot::default(); workers],
            }),
        }
    }

    /// Convenience constructor: `workers` workers, only the default
    /// contract `0`, default recorder capacity.
    pub fn for_workers(workers: usize) -> Self {
        TelemetryHub::new(workers, &[0], DEFAULT_EVENTS_CAPACITY)
    }

    /// Sets the virtual clock (nanoseconds). The harness calls this once
    /// per round with `global_round * round_ns`; events recorded until
    /// the next update are stamped with this time.
    pub fn set_time(&self, t_ns: u64) {
        self.clock.store(t_ns, Ordering::Relaxed);
    }

    /// Current virtual-clock reading (nanoseconds).
    pub fn now_ns(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    /// Sets the global round events are stamped with.
    pub fn set_round(&self, round: u64) {
        self.round.store(round, Ordering::Relaxed);
    }

    /// Current global round.
    pub fn round(&self) -> u64 {
        self.round.load(Ordering::Relaxed)
    }

    /// The packet rows, recorder and slice counts. Nothing panics while
    /// holding the lock, so a poisoned one is taken over as is.
    fn book(&self) -> MutexGuard<'_, Book> {
        self.book.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records one control-plane event, stamped from the virtual clock
    /// and current round, and counts it against its slice (see
    /// [`SliceSnapshot`]). Steady-state allocation-free (the recorder
    /// ring is pre-sized; the mutex is uncontended off the packet path).
    pub fn record_event(&self, kind: EventKind, slice: u32, a: u64, b: u64) {
        let ev = Event {
            t_ns: self.now_ns(),
            round: self.round(),
            kind,
            slice,
            a,
            b,
        };
        let book = &mut *self.book();
        book.recorder.record(ev);
        if let Some(counts) = book.slices.get_mut(slice as usize) {
            counts.count(&ev);
        }
    }

    /// Number of workers (== slices) the hub tracks.
    pub fn worker_count(&self) -> usize {
        self.worker_sizes.len()
    }

    /// Adds one settled round of the service's tally: `workers` holds one
    /// row per worker, `contracts` one `(contract id, delta)` per
    /// contract. Deltas of contracts the hub does not label are not kept.
    ///
    /// # Panics
    ///
    /// Panics unless there is one row per hub worker.
    pub fn add_round(&self, workers: &[PacketCounts], contracts: &[(u32, PacketCounts)]) {
        assert_eq!(workers.len(), self.worker_count(), "one row per hub worker");
        let book = &mut *self.book();
        for (sum, &row) in book.workers.iter_mut().zip(workers) {
            *sum += row;
        }
        for &(id, delta) in contracts {
            if let Some(i) = self.contract_ids.iter().position(|&c| c == id) {
                book.contracts[i] += delta;
            }
        }
    }

    /// Merges worker `w`'s local wire-size histogram and clears it. Cheap
    /// no-op when it is empty.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn merge_sizes(&self, w: usize, sizes: &mut Histogram) {
        self.worker_sizes[w].merge_from(sizes);
        sizes.clear();
    }

    /// Slice `i`'s event counts, if tracked.
    pub fn slice(&self, i: usize) -> Option<SliceSnapshot> {
        self.book().slices.get(i).copied()
    }

    /// The shared end-to-end round-latency histogram (nanoseconds),
    /// written by the round driver, read by reports and snapshots.
    pub fn round_latency(&self) -> &AtomicHistogram {
        &self.round_latency
    }

    /// Total events ever recorded.
    pub fn events_recorded(&self) -> u64 {
        self.book().recorder.recorded()
    }

    /// Events lost to ring wraparound.
    pub fn events_dropped(&self) -> u64 {
        self.book().recorder.dropped()
    }

    /// The last `n` retained flight-recorder events, oldest first.
    pub fn events_last(&self, n: usize) -> Vec<Event> {
        self.book().recorder.last(n)
    }

    /// The full deterministic binary trace (see
    /// [`FlightRecorder::trace_bytes`]).
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.book().recorder.trace_bytes()
    }

    /// Aggregates everything into a deterministic [`TelemetrySnapshot`],
    /// carrying the last `events_tail` flight-recorder events. Allocates —
    /// call it at round barriers or at end of run, never per packet.
    pub fn snapshot(&self, events_tail: usize) -> TelemetrySnapshot {
        let book = self.book();
        TelemetrySnapshot {
            t_ns: self.now_ns(),
            round: self.round(),
            workers: book.workers.clone(),
            worker_sizes: self
                .worker_sizes
                .iter()
                .map(AtomicHistogram::load)
                .collect(),
            slices: book.slices.clone(),
            contracts: self
                .contract_ids
                .iter()
                .copied()
                .zip(book.contracts.iter().copied())
                .collect(),
            round_latency: self.round_latency.load(),
            events_recorded: book.recorder.recorded(),
            events_dropped: book.recorder.dropped(),
            events: book.recorder.last(events_tail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_counters_add_rounds_and_merge_sizes() {
        let hub = TelemetryHub::for_workers(2);
        let mut sizes = Histogram::new();
        for v in [64, 1500, 64] {
            sizes.record(v);
        }
        hub.merge_sizes(0, &mut sizes);
        assert_eq!(sizes.count(), 0, "merging clears the local histogram");
        let row = PacketCounts {
            received: 3,
            forwarded: 2,
            filtered: 1,
            overflow: 4,
            uncovered: 5,
        };
        hub.add_round(&[row, PacketCounts::default()], &[]);
        hub.add_round(&[row, PacketCounts::default()], &[]);
        let snap = hub.snapshot(0);
        let mut twice = row;
        twice += row;
        assert_eq!(snap.workers, [twice, PacketCounts::default()]);
        assert_eq!(snap.worker_sizes[0].count(), 3);
        assert_eq!(snap.worker_sizes[0].max(), 1500);
        assert_eq!(snap.worker_sizes[1].count(), 0);
    }

    #[test]
    #[should_panic(expected = "one row per hub worker")]
    fn a_round_without_a_row_per_worker_panics() {
        TelemetryHub::for_workers(2).add_round(&[PacketCounts::default()], &[]);
    }

    #[test]
    fn events_stamped_from_virtual_clock() {
        let hub = TelemetryHub::for_workers(1);
        hub.set_time(5_000);
        hub.set_round(3);
        hub.record_event(EventKind::Quarantine, 7, 1, 2);
        hub.set_time(6_000);
        hub.record_event(EventKind::Rejoin, 7, 9, 0);
        let evs = hub.events_last(8);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].t_ns, 5_000);
        assert_eq!(evs[0].round, 3);
        assert_eq!(evs[0].kind, EventKind::Quarantine);
        assert_eq!(evs[1].t_ns, 6_000);
        assert_eq!(hub.events_recorded(), 2);
        assert_eq!(hub.events_dropped(), 0);
    }

    #[test]
    fn slice_counts_are_event_counts_and_survive_wraparound() {
        let hub = TelemetryHub::new(2, &[0], 4);
        for verdict in [0, 1, 2, 3, 0, 0] {
            hub.record_event(EventKind::AuditVerdict, 1, verdict, 0);
        }
        for kind in [
            EventKind::Quarantine,
            EventKind::Probation,
            EventKind::Demote,
            EventKind::Quarantine,
            EventKind::Probation,
            EventKind::Promote,
        ] {
            hub.record_event(kind, 1, 0, 0);
        }
        // Other kinds, and slices the hub does not track, count nowhere.
        hub.record_event(EventKind::Rejoin, 1, 0, 0);
        hub.record_event(EventKind::Quarantine, 9, 0, 0);
        assert_eq!(hub.events_dropped(), 10, "the ring kept only 4 of 14");

        let expected = SliceSnapshot {
            audits: 6,
            dirty: 3,
            quarantines: 2,
            probations: 2,
            promotions: 1,
            demotions: 1,
        };
        assert_eq!(hub.slice(1), Some(expected));
        assert_eq!(hub.slice(0), Some(SliceSnapshot::default()));
        assert_eq!(hub.slice(2), None);
        let snap = hub.snapshot(0);
        assert_eq!(snap.slices, [SliceSnapshot::default(), expected]);
    }

    #[test]
    fn snapshot_labels_contracts_by_id() {
        let hub = TelemetryHub::new(1, &[0, 7, 9], 16);
        let delta = PacketCounts {
            received: 10,
            forwarded: 6,
            filtered: 4,
            ..Default::default()
        };
        hub.add_round(&[PacketCounts::default()], &[(7, delta), (5, delta)]);
        let snap = hub.snapshot(4);
        let ids: Vec<u32> = snap.contracts.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, [0, 7, 9]);
        assert_eq!(snap.contracts[0].1, PacketCounts::default());
        assert_eq!(snap.contracts[1].1, delta);
        assert_eq!(snap.contracts[2].1, PacketCounts::default());
    }
}
