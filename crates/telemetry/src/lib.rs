//! `vif_telemetry`: zero-allocation metrics, log2-bucketed latency
//! histograms, and a deterministic flight recorder for the always-on
//! VIF dataplane.
//!
//! The crate is the observability substrate the rest of the stack records
//! into:
//!
//! - [`Histogram`] / [`AtomicHistogram`] — HDR-lite latency and size
//!   distributions: fixed `[u64; 64]` log2 buckets, exact
//!   count/sum/mean/min/max, bucket-resolution percentiles, merge by
//!   addition. One percentile implementation shared by every per-round
//!   report.
//! - [`FlightRecorder`] / [`Event`] / [`EventKind`] — a fixed-capacity
//!   ring of binary control-plane events (epoch publish, flush barrier,
//!   audit verdict/strike, quarantine → rejoin → probation → live,
//!   fault injections, contract admit/reject) stamped from the
//!   deterministic virtual clock, with dropped-event accounting and a
//!   byte-reproducible [`trace`](FlightRecorder::trace_bytes).
//! - [`TelemetryHub`] — the shared registry: per-worker
//!   ([`WorkerTelemetry`]), per-slice ([`SliceTelemetry`]), and
//!   per-contract ([`ContractTelemetry`]) counters, the round-latency
//!   histogram, the virtual clock, and the recorder. Hot-path writers
//!   batch into a stack-resident [`WorkerScratch`] and merge once per
//!   round at the flush barrier, so steady-state recording allocates
//!   nothing and the per-packet cost is a handful of plain adds.
//! - [`TelemetrySnapshot`] — the aggregate view taken at a round
//!   barrier, with Prometheus-style text
//!   ([`to_prometheus`](TelemetrySnapshot::to_prometheus)) and
//!   deterministic JSON ([`to_json`](TelemetrySnapshot::to_json))
//!   expositions labeled per worker, per slice, and per contract.
//!
//! Everything exported is seed-deterministic: timestamps come from the
//! harness-driven virtual clock, values are exact packet counts and wire
//! sizes, and scheduling-dependent numbers (park events, spin
//! counts, burst sizes) are deliberately excluded. Same seed ⇒
//! byte-identical snapshot JSON and flight-recorder trace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod hub;
mod recorder;
mod snapshot;

pub use hist::{bucket_of, bucket_upper_bound, AtomicHistogram, Histogram, BUCKETS};
pub use hub::{
    ContractTelemetry, SliceTelemetry, TelemetryHub, WorkerScratch, WorkerTelemetry,
    DEFAULT_EVENTS_CAPACITY,
};
pub use recorder::{fault, Event, EventKind, FlightRecorder, EVENT_ENCODED_LEN};
pub use snapshot::{ContractSnapshot, SliceSnapshot, TelemetrySnapshot, WorkerSnapshot};
