//! Snapshot + export: the aggregated, deterministic view of a
//! [`TelemetryHub`](crate::TelemetryHub) with Prometheus-style text and
//! machine-readable JSON expositions.
//!
//! A snapshot has three labeled row families: workers and contracts are
//! [`PacketCounts`] rows, slices are [`SliceSnapshot`] rows. Each family
//! has one column table (key, help text, accessor), and both expositions
//! walk it, so a new counter is one table row. The key names the JSON
//! field and the Prometheus family `vif_<label>_<key>_total`.
//!
//! Snapshots contain only seed-deterministic values (see the hub module
//! docs), so comparing two snapshots with `==` — or diffing their
//! [`to_json`](TelemetrySnapshot::to_json) bytes — is a reproducibility
//! check. Both expositions are hand-rolled with a stable field order and
//! integer-only values; no float formatting, no map iteration order, no
//! locale can perturb the bytes.

use std::fmt::Write;
use std::ops::AddAssign;

use crate::hist::{bucket_upper_bound, Histogram, BUCKETS};
use crate::recorder::{Event, EventKind};

/// The five packet counters, defined once. The service's round tally is
/// a grid of these, one per (worker, contract); a worker's round report
/// is a row of it, a contract's round delta a column, and the hub and
/// the snapshot keep the running sums of both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketCounts {
    /// Packets offered (steered to the worker, or addressed to the
    /// contract's destinations).
    pub received: u64,
    /// Packets forwarded toward the victim.
    pub forwarded: u64,
    /// Packets dropped by filter verdict.
    pub filtered: u64,
    /// Packets lost to full RX rings (backpressure).
    pub overflow: u64,
    /// Packets that bypassed filtering because their worker was dead or
    /// quarantined — the degraded-mode accountability counter. Zero on
    /// every healthy run.
    pub uncovered: u64,
}

impl AddAssign for PacketCounts {
    fn add_assign(&mut self, rhs: Self) {
        self.received += rhs.received;
        self.forwarded += rhs.forwarded;
        self.filtered += rhs.filtered;
        self.overflow += rhs.overflow;
        self.uncovered += rhs.uncovered;
    }
}

/// One audit slice's counts of the events recorded against it: each
/// counter counts one [`EventKind`], so the counts are views of the
/// flight recorder that survive its wraparound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SliceSnapshot {
    /// Round audits: [`EventKind::AuditVerdict`] events.
    pub audits: u64,
    /// Dirty audits: `AuditVerdict` events with non-zero verdict bits.
    pub dirty: u64,
    /// [`EventKind::Quarantine`] events.
    pub quarantines: u64,
    /// [`EventKind::Probation`] events.
    pub probations: u64,
    /// [`EventKind::Promote`] events (probation → live).
    pub promotions: u64,
    /// [`EventKind::Demote`] events (probation → quarantine).
    pub demotions: u64,
}

impl SliceSnapshot {
    /// Counts one event recorded against this slice.
    pub(crate) fn count(&mut self, ev: &Event) {
        let n = match ev.kind {
            EventKind::AuditVerdict => {
                self.dirty += u64::from(ev.a != 0);
                &mut self.audits
            }
            EventKind::Quarantine => &mut self.quarantines,
            EventKind::Probation => &mut self.probations,
            EventKind::Promote => &mut self.promotions,
            EventKind::Demote => &mut self.demotions,
            _ => return,
        };
        *n += 1;
    }
}

/// Everything the hub knows, aggregated at a round barrier.
///
/// `==` between two snapshots (or between their
/// [`to_json`](TelemetrySnapshot::to_json) bytes) is the determinism
/// check the property tests rely on: same seed ⇒ equal snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Virtual-clock time the snapshot was taken (nanoseconds).
    pub t_ns: u64,
    /// Global round at the snapshot.
    pub round: u64,
    /// Per-worker packet counts, worker order.
    pub workers: Vec<PacketCounts>,
    /// Per-worker wire-size distributions of processed packets (bytes),
    /// worker order.
    pub worker_sizes: Vec<Histogram>,
    /// Per-slice event counts, slice order.
    pub slices: Vec<SliceSnapshot>,
    /// Per-contract `(contract id, packet counts)`, hub label order.
    pub contracts: Vec<(u32, PacketCounts)>,
    /// End-to-end round-latency distribution (nanoseconds).
    pub round_latency: Histogram,
    /// Total flight-recorder events ever recorded.
    pub events_recorded: u64,
    /// Flight-recorder events lost to ring wraparound.
    pub events_dropped: u64,
    /// Tail of the flight recorder (oldest first).
    pub events: Vec<Event>,
}

/// One exposed counter of a row family: its key (the JSON field, and
/// the Prometheus family `vif_<label>_<key>_total`), its help text, and
/// how to read it off a row.
struct Column<R> {
    key: &'static str,
    help: &'static str,
    read: fn(&R) -> u64,
}

const fn col<R>(key: &'static str, help: &'static str, read: fn(&R) -> u64) -> Column<R> {
    Column { key, help, read }
}

// One row per exposed counter, in exposition order.
#[rustfmt::skip]
const WORKER_COLUMNS: [Column<PacketCounts>; 5] = [
    col("packets", "Packets processed per worker", |c| c.forwarded + c.filtered),
    col("forwarded", "Packets forwarded per worker", |c| c.forwarded),
    col("filtered", "Packets filtered per worker", |c| c.filtered),
    col("overflow", "Ring-overflow drops per worker", |c| c.overflow),
    col("uncovered", "Packets bypassing filtering during outages per worker", |c| c.uncovered),
];

#[rustfmt::skip]
const SLICE_COLUMNS: [Column<SliceSnapshot>; 6] = [
    col("audits", "Round audits per slice", |s| s.audits),
    col("dirty", "Dirty audits per slice", |s| s.dirty),
    col("quarantines", "Quarantine transitions per slice", |s| s.quarantines),
    col("probations", "Probation entries per slice", |s| s.probations),
    col("promotions", "Probation promotions per slice", |s| s.promotions),
    col("demotions", "Probation demotions per slice", |s| s.demotions),
];

#[rustfmt::skip]
const CONTRACT_COLUMNS: [Column<PacketCounts>; 5] = [
    col("received", "Packets offered per contract", |c| c.received),
    col("forwarded", "Packets forwarded per contract", |c| c.forwarded),
    col("filtered", "Packets filtered per contract", |c| c.filtered),
    col("overflow", "Ring-overflow drops per contract", |c| c.overflow),
    col("uncovered", "Packets bypassing filtering during outages per contract", |c| c.uncovered),
];

/// Rows labeled by their index.
fn indexed<R>(rows: &[R]) -> impl Iterator<Item = (u32, &R)> + Clone {
    rows.iter().enumerate().map(|(i, r)| (i as u32, r))
}

/// Writes one Prometheus metric family header.
fn prom_head(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Writes one counter family per column, each with a
/// `vif_<label>_<key>_total{<label>="id"} v` line per row.
fn prom_family<'a, R: 'a>(
    out: &mut String,
    label: &str,
    columns: &[Column<R>],
    rows: impl Iterator<Item = (u32, &'a R)> + Clone,
) {
    for col in columns {
        let name = format!("vif_{label}_{}_total", col.key);
        prom_head(out, &name, col.help, "counter");
        for (id, row) in rows.clone() {
            let _ = writeln!(out, "{name}{{{label}=\"{id}\"}} {}", (col.read)(row));
        }
    }
}

/// Appends a histogram in Prometheus histogram exposition (cumulative
/// `_bucket{le=...}` series, then `_sum` and `_count`). Empty buckets are
/// skipped except the mandatory `+Inf` point.
fn prom_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    prom_head(out, name, help, "histogram");
    let mut cum = 0u64;
    for b in (0..BUCKETS).filter(|&b| h.buckets()[b] > 0) {
        cum += h.buckets()[b];
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"{}\"}} {cum}",
            bucket_upper_bound(b)
        );
    }
    let (count, sum) = (h.count(), h.sum());
    let _ = writeln!(
        out,
        "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}"
    );
}

/// Appends `"<label>s":[{"<label>":id,"<key>":v,…},…]`, with `tail`
/// writing any fields that follow the columns of row `i`.
fn json_family<'a, R: 'a>(
    out: &mut String,
    label: &str,
    columns: &[Column<R>],
    rows: impl Iterator<Item = (u32, &'a R)>,
    tail: impl Fn(&mut String, usize),
) {
    let _ = write!(out, "\"{label}s\":[");
    for (i, (id, row)) in rows.enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"{label}\":{id}");
        for col in columns {
            let _ = write!(out, ",\"{}\":{}", col.key, (col.read)(row));
        }
        tail(out, i);
        out.push('}');
    }
    out.push(']');
}

/// Appends a histogram's JSON object: exact count/sum/min/max plus
/// bucket-resolution p50/p90/p99 (all integers, deterministic).
fn json_histogram(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
    );
}

impl TelemetrySnapshot {
    fn contract_rows(&self) -> impl Iterator<Item = (u32, &PacketCounts)> + Clone {
        self.contracts.iter().map(|(id, c)| (*id, c))
    }

    /// Prometheus-style text exposition: counters labeled per worker,
    /// per slice, and per contract, plus the round-latency histogram.
    /// Stable output: same snapshot ⇒ same bytes.
    pub fn to_prometheus(&self) -> String {
        let mut out = format!("# vif telemetry round={} t_ns={}\n", self.round, self.t_ns);
        prom_family(&mut out, "worker", &WORKER_COLUMNS, indexed(&self.workers));
        prom_family(&mut out, "slice", &SLICE_COLUMNS, indexed(&self.slices));
        prom_family(
            &mut out,
            "contract",
            &CONTRACT_COLUMNS,
            self.contract_rows(),
        );
        prom_histogram(
            &mut out,
            "vif_round_latency_ns",
            "End-to-end audited round latency (virtual nanoseconds)",
            &self.round_latency,
        );
        for (name, help, v) in [
            (
                "vif_events_recorded_total",
                "Flight-recorder events recorded",
                self.events_recorded,
            ),
            (
                "vif_events_dropped_total",
                "Flight-recorder events lost to wraparound",
                self.events_dropped,
            ),
        ] {
            prom_head(&mut out, name, help, "counter");
            let _ = writeln!(out, "{name} {v}");
        }
        out
    }

    /// Machine-readable JSON exposition. Hand-rolled with a fixed key
    /// order and integer-only values so the bytes are deterministic:
    /// same seed ⇒ identical JSON across runs.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"t_ns\":{},\"round\":{},", self.t_ns, self.round);
        let sizes = |out: &mut String, i: usize| {
            out.push_str(",\"sizes\":");
            json_histogram(out, &self.worker_sizes[i]);
        };
        json_family(
            &mut out,
            "worker",
            &WORKER_COLUMNS,
            indexed(&self.workers),
            sizes,
        );
        out.push(',');
        json_family(
            &mut out,
            "slice",
            &SLICE_COLUMNS,
            indexed(&self.slices),
            |_, _| {},
        );
        out.push(',');
        json_family(
            &mut out,
            "contract",
            &CONTRACT_COLUMNS,
            self.contract_rows(),
            |_, _| {},
        );
        out.push_str(",\"round_latency\":");
        json_histogram(&mut out, &self.round_latency);
        let _ = write!(
            out,
            ",\"events_recorded\":{},\"events_dropped\":{},\"events\":[",
            self.events_recorded, self.events_dropped
        );
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"t_ns\":{},\"round\":{},\"kind\":\"{}\",\"slice\":{},\"a\":{},\"b\":{}}}",
                e.t_ns,
                e.round,
                e.kind.name(),
                e.slice,
                e.a,
                e.b,
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::PacketCounts;
    use crate::hub::TelemetryHub;
    use crate::recorder::EventKind;

    fn sample_hub() -> TelemetryHub {
        let hub = TelemetryHub::new(2, &[0, 7], 8);
        hub.set_time(2_000_000);
        hub.set_round(2);
        let mut sizes = crate::hist::Histogram::new();
        sizes.record(64);
        sizes.record(1500);
        hub.merge_sizes(0, &mut sizes);
        let row = |forwarded, filtered, overflow| PacketCounts {
            forwarded,
            filtered,
            overflow,
            ..Default::default()
        };
        let delta = PacketCounts {
            received: 2,
            forwarded: 1,
            filtered: 1,
            ..Default::default()
        };
        hub.add_round(&[row(1, 1, 0), row(0, 0, 3)], &[(7, delta)]);
        hub.record_event(EventKind::AuditVerdict, 0, 1, 0);
        hub.round_latency().record(1_000_000);
        hub.record_event(EventKind::FlushBarrier, 0, 2, 2);
        hub
    }

    #[test]
    fn json_is_deterministic_and_labeled() {
        let a = sample_hub().snapshot(8);
        let b = sample_hub().snapshot(8);
        assert_eq!(a, b);
        let j = a.to_json();
        assert_eq!(j, b.to_json(), "same inputs, same bytes");
        assert!(j.contains("\"contract\":7"));
        assert!(j.contains("\"kind\":\"flush_barrier\""));
        assert!(j.contains("\"overflow\":3"));
        assert!(!j.contains("NaN"));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let snap = sample_hub().snapshot(8);
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE vif_worker_packets_total counter"));
        assert!(text.contains("vif_worker_packets_total{worker=\"0\"} 2"));
        assert!(text.contains("vif_contract_received_total{contract=\"7\"} 2"));
        assert!(text.contains("vif_slice_dirty_total{slice=\"0\"} 1"));
        assert!(text.contains("vif_round_latency_ns_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("vif_round_latency_ns_count 1"));
        assert_eq!(text, sample_hub().snapshot(8).to_prometheus());
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let hub = TelemetryHub::for_workers(1);
        for v in [1u64, 2, 4, 8, 1000] {
            hub.round_latency().record(v);
        }
        let text = hub.snapshot(0).to_prometheus();
        // The final non-Inf bucket must have cumulated everything.
        assert!(text.contains("vif_round_latency_ns_bucket{le=\"1023\"} 5"));
        assert!(text.contains("vif_round_latency_ns_sum 1015"));
    }
}
