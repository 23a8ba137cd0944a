//! The telemetry hub: one shared registry of per-worker, per-slice, and
//! per-contract metrics plus the flight recorder and the virtual clock.
//!
//! The hub is built once (all storage pre-allocated) and shared by
//! `Arc` across the service workers, the round driver, the cluster, and
//! the harness. Nothing touches the hub per packet. The service counts
//! each packet once, in its own round tally, and at every flush barrier
//! (and once more at shutdown) adds each worker's report row
//! ([`WorkerTelemetry::add_round`]) and each contract's delta
//! ([`ContractTelemetry::add_round`]) here, so the hub's counters are
//! views of that one tally. The only thing a worker records
//! itself is wire sizes, into a plain [`Histogram`] on its stack that it
//! merges ([`WorkerTelemetry::merge_sizes`]) once per round. Steady-state
//! recording is allocation-free and the atomic traffic is O(64) per
//! worker per round.
//!
//! Everything the hub aggregates is *deterministic* under a fixed seed:
//! packet counts, wire sizes, and virtual-clock timestamps.
//! Scheduling-dependent values (park events, spin counts, burst sizes)
//! deliberately stay out — they live on the service handle —
//! so a [`TelemetrySnapshot`](crate::TelemetrySnapshot) is byte-identical
//! across re-runs of the same seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::{AtomicHistogram, Histogram};
use crate::recorder::{Event, EventKind, FlightRecorder};
use crate::snapshot::{ContractSnapshot, SliceSnapshot, TelemetrySnapshot, WorkerSnapshot};

/// Per-worker shared counters and histograms: the handle adds each flushed
/// round's report row, the worker merges its wire sizes; readers snapshot
/// with relaxed loads.
#[derive(Debug, Default)]
pub struct WorkerTelemetry {
    forwarded: AtomicU64,
    filtered: AtomicU64,
    overflow: AtomicU64,
    uncovered: AtomicU64,
    sizes: AtomicHistogram,
}

impl WorkerTelemetry {
    /// Adds one flushed round's worth of this worker's counters.
    pub fn add_round(&self, forwarded: u64, filtered: u64, overflow: u64, uncovered: u64) {
        self.forwarded.fetch_add(forwarded, Ordering::Relaxed);
        self.filtered.fetch_add(filtered, Ordering::Relaxed);
        self.overflow.fetch_add(overflow, Ordering::Relaxed);
        self.uncovered.fetch_add(uncovered, Ordering::Relaxed);
    }

    /// Merges a worker's local wire-size histogram and clears it. Cheap
    /// no-op when it is empty.
    pub fn merge_sizes(&self, sizes: &mut Histogram) {
        self.sizes.merge_from(sizes);
        sizes.clear();
    }

    /// Total packets processed (forwarded + filtered).
    pub fn packets(&self) -> u64 {
        self.forwarded() + self.filtered()
    }

    /// Packets forwarded to the victim.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Packets filtered (dropped by rules).
    pub fn filtered(&self) -> u64 {
        self.filtered.load(Ordering::Relaxed)
    }

    /// Packets lost to full RX rings.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Packets that bypassed filtering during outages.
    pub fn uncovered(&self) -> u64 {
        self.uncovered.load(Ordering::Relaxed)
    }

    /// Wire-size distribution of processed packets.
    pub fn sizes(&self) -> Histogram {
        self.sizes.load()
    }
}

/// Per-slice audit-plane counters (slice `i` is the enclave the round
/// driver audits, mirrored 1:1 onto service worker `i`).
#[derive(Debug, Default)]
pub struct SliceTelemetry {
    audits: AtomicU64,
    dirty: AtomicU64,
    quarantines: AtomicU64,
    probations: AtomicU64,
    promotions: AtomicU64,
    demotions: AtomicU64,
}

impl SliceTelemetry {
    /// Counts one completed round audit (`dirty` when the verdict failed
    /// verification).
    pub fn note_audit(&self, dirty: bool) {
        self.audits.fetch_add(1, Ordering::Relaxed);
        if dirty {
            self.dirty.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts one quarantine transition.
    pub fn note_quarantine(&self) {
        self.quarantines.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one probation entry.
    pub fn note_probation(&self) {
        self.probations.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one probation → live promotion.
    pub fn note_promotion(&self) {
        self.promotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one probation → quarantine demotion.
    pub fn note_demotion(&self) {
        self.demotions.fetch_add(1, Ordering::Relaxed);
    }

    /// Round audits completed.
    pub fn audits(&self) -> u64 {
        self.audits.load(Ordering::Relaxed)
    }

    /// Audits that came back dirty.
    pub fn dirty(&self) -> u64 {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Quarantine transitions.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }

    /// Probation entries.
    pub fn probations(&self) -> u64 {
        self.probations.load(Ordering::Relaxed)
    }

    /// Probation promotions.
    pub fn promotions(&self) -> u64 {
        self.promotions.load(Ordering::Relaxed)
    }

    /// Probation demotions.
    pub fn demotions(&self) -> u64 {
        self.demotions.load(Ordering::Relaxed)
    }
}

/// Per-contract (tenant) cumulative counters, mirroring the service's
/// `ContractRoundDelta` fields.
#[derive(Debug, Default)]
pub struct ContractTelemetry {
    received: AtomicU64,
    forwarded: AtomicU64,
    filtered: AtomicU64,
    overflow: AtomicU64,
    uncovered: AtomicU64,
}

impl ContractTelemetry {
    /// Adds one round's worth of contract deltas.
    pub fn add_round(
        &self,
        received: u64,
        forwarded: u64,
        filtered: u64,
        overflow: u64,
        uncovered: u64,
    ) {
        self.received.fetch_add(received, Ordering::Relaxed);
        self.forwarded.fetch_add(forwarded, Ordering::Relaxed);
        self.filtered.fetch_add(filtered, Ordering::Relaxed);
        self.overflow.fetch_add(overflow, Ordering::Relaxed);
        self.uncovered.fetch_add(uncovered, Ordering::Relaxed);
    }

    /// Packets offered for this contract's destinations.
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// Packets forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Packets filtered.
    pub fn filtered(&self) -> u64 {
        self.filtered.load(Ordering::Relaxed)
    }

    /// Packets lost to ring overflow.
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    /// Packets that bypassed filtering during outages.
    pub fn uncovered(&self) -> u64 {
        self.uncovered.load(Ordering::Relaxed)
    }
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
    workers: Vec<WorkerTelemetry>,
    slices: Vec<SliceTelemetry>,
    contract_ids: Vec<u32>,
    contracts: Vec<ContractTelemetry>,
    round_latency: AtomicHistogram,
    recorder: Mutex<FlightRecorder>,
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
            workers: (0..workers).map(|_| WorkerTelemetry::default()).collect(),
            slices: (0..workers).map(|_| SliceTelemetry::default()).collect(),
            contract_ids: contract_ids.to_vec(),
            contracts: contract_ids
                .iter()
                .map(|_| ContractTelemetry::default())
                .collect(),
            round_latency: AtomicHistogram::new(),
            recorder: Mutex::new(FlightRecorder::new(events_capacity)),
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

    /// Records one control-plane event, stamped from the virtual clock
    /// and current round. Steady-state allocation-free (the recorder ring
    /// is pre-sized; the mutex is uncontended off the packet path).
    pub fn record_event(&self, kind: EventKind, slice: u32, a: u64, b: u64) {
        let ev = Event {
            t_ns: self.now_ns(),
            round: self.round(),
            kind,
            slice,
            a,
            b,
        };
        if let Ok(mut rec) = self.recorder.lock() {
            rec.record(ev);
        }
    }

    /// Number of workers (== slices) the hub tracks.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Worker `w`'s shared metrics.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn worker(&self, w: usize) -> &WorkerTelemetry {
        &self.workers[w]
    }

    /// Slice `i`'s audit-plane counters, if tracked.
    pub fn slice(&self, i: usize) -> Option<&SliceTelemetry> {
        self.slices.get(i)
    }

    /// Dense index of `contract` in the hub's label set, if registered.
    pub fn contract_index(&self, contract: u32) -> Option<usize> {
        self.contract_ids.iter().position(|&c| c == contract)
    }

    /// Contract counters by dense index (see
    /// [`contract_index`](TelemetryHub::contract_index)).
    pub fn contract(&self, idx: usize) -> &ContractTelemetry {
        &self.contracts[idx]
    }

    /// The shared end-to-end round-latency histogram (nanoseconds),
    /// written by the round driver, read by reports and snapshots.
    pub fn round_latency(&self) -> &AtomicHistogram {
        &self.round_latency
    }

    /// Total events ever recorded.
    pub fn events_recorded(&self) -> u64 {
        self.recorder.lock().map(|r| r.recorded()).unwrap_or(0)
    }

    /// Events lost to ring wraparound.
    pub fn events_dropped(&self) -> u64 {
        self.recorder.lock().map(|r| r.dropped()).unwrap_or(0)
    }

    /// The last `n` retained flight-recorder events, oldest first.
    pub fn events_last(&self, n: usize) -> Vec<Event> {
        self.recorder.lock().map(|r| r.last(n)).unwrap_or_default()
    }

    /// The full deterministic binary trace (see
    /// [`FlightRecorder::trace_bytes`]).
    pub fn trace_bytes(&self) -> Vec<u8> {
        self.recorder
            .lock()
            .map(|r| r.trace_bytes())
            .unwrap_or_default()
    }

    /// Aggregates everything into a deterministic [`TelemetrySnapshot`],
    /// carrying the last `events_tail` flight-recorder events. Allocates —
    /// call it at round barriers or at end of run, never per packet.
    pub fn snapshot(&self, events_tail: usize) -> TelemetrySnapshot {
        let (events, events_recorded, events_dropped) = match self.recorder.lock() {
            Ok(r) => (r.last(events_tail), r.recorded(), r.dropped()),
            Err(_) => (Vec::new(), 0, 0),
        };
        TelemetrySnapshot {
            t_ns: self.now_ns(),
            round: self.round(),
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| WorkerSnapshot {
                    worker: i as u32,
                    packets: w.packets(),
                    forwarded: w.forwarded(),
                    filtered: w.filtered(),
                    overflow: w.overflow(),
                    uncovered: w.uncovered(),
                    sizes: w.sizes(),
                })
                .collect(),
            slices: self
                .slices
                .iter()
                .enumerate()
                .map(|(i, s)| SliceSnapshot {
                    slice: i as u32,
                    audits: s.audits(),
                    dirty: s.dirty(),
                    quarantines: s.quarantines(),
                    probations: s.probations(),
                    promotions: s.promotions(),
                    demotions: s.demotions(),
                })
                .collect(),
            contracts: self
                .contract_ids
                .iter()
                .zip(self.contracts.iter())
                .map(|(&id, c)| ContractSnapshot {
                    contract: id,
                    received: c.received(),
                    forwarded: c.forwarded(),
                    filtered: c.filtered(),
                    overflow: c.overflow(),
                    uncovered: c.uncovered(),
                })
                .collect(),
            round_latency: self.round_latency.load(),
            events_recorded,
            events_dropped,
            events,
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
        hub.worker(0).merge_sizes(&mut sizes);
        assert_eq!(sizes.count(), 0, "merging clears the local histogram");
        hub.worker(0).add_round(2, 1, 4, 5);
        let w = hub.worker(0);
        assert_eq!(w.packets(), 3);
        assert_eq!((w.forwarded(), w.filtered()), (2, 1));
        assert_eq!((w.overflow(), w.uncovered()), (4, 5));
        assert_eq!(w.sizes().count(), 3);
        assert_eq!(w.sizes().max(), 1500);
        assert_eq!(hub.worker(1).packets(), 0);
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
    fn snapshot_labels_contracts_by_id() {
        let hub = TelemetryHub::new(1, &[0, 7, 9], 16);
        assert_eq!(hub.contract_index(7), Some(1));
        assert_eq!(hub.contract_index(5), None);
        hub.contract(1).add_round(10, 6, 4, 0, 0);
        let snap = hub.snapshot(4);
        assert_eq!(snap.contracts.len(), 3);
        assert_eq!(snap.contracts[1].contract, 7);
        assert_eq!(snap.contracts[1].received, 10);
        assert_eq!(snap.contracts[2].received, 0);
    }
}
