//! Snapshot + export: the aggregated, deterministic view of a
//! [`TelemetryHub`](crate::TelemetryHub) with Prometheus-style text and
//! machine-readable JSON expositions.
//!
//! Snapshots contain only seed-deterministic values (see the hub module
//! docs), so comparing two snapshots with `==` — or diffing their
//! [`to_json`](TelemetrySnapshot::to_json) bytes — is a reproducibility
//! check. Both expositions are hand-rolled with a stable field order and
//! integer-only values; no float formatting, no map iteration order, no
//! locale can perturb the bytes.

use crate::hist::{bucket_upper_bound, Histogram, BUCKETS};
use crate::recorder::Event;

/// One worker's aggregated dataplane metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// Worker index.
    pub worker: u32,
    /// Packets processed (forwarded + filtered).
    pub packets: u64,
    /// Packets forwarded to the victim.
    pub forwarded: u64,
    /// Packets filtered (dropped by rules).
    pub filtered: u64,
    /// Packets lost to full RX rings.
    pub overflow: u64,
    /// Packets that bypassed filtering during outages.
    pub uncovered: u64,
    /// Wire-size distribution of processed packets (bytes).
    pub sizes: Histogram,
}

/// One audit slice's control-plane counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SliceSnapshot {
    /// Slice index.
    pub slice: u32,
    /// Round audits completed.
    pub audits: u64,
    /// Audits that came back dirty.
    pub dirty: u64,
    /// Quarantine transitions.
    pub quarantines: u64,
    /// Probation entries.
    pub probations: u64,
    /// Probation → live promotions.
    pub promotions: u64,
    /// Probation → quarantine demotions.
    pub demotions: u64,
}

/// One tenant contract's cumulative dataplane counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractSnapshot {
    /// The contract id.
    pub contract: u32,
    /// Packets offered for this contract's destinations.
    pub received: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets filtered.
    pub filtered: u64,
    /// Packets lost to ring overflow.
    pub overflow: u64,
    /// Packets that bypassed filtering during outages.
    pub uncovered: u64,
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
    /// Per-worker metrics, worker order.
    pub workers: Vec<WorkerSnapshot>,
    /// Per-slice audit counters, slice order.
    pub slices: Vec<SliceSnapshot>,
    /// Per-contract counters, hub label order.
    pub contracts: Vec<ContractSnapshot>,
    /// End-to-end round-latency distribution (nanoseconds).
    pub round_latency: Histogram,
    /// Total flight-recorder events ever recorded.
    pub events_recorded: u64,
    /// Flight-recorder events lost to ring wraparound.
    pub events_dropped: u64,
    /// Tail of the flight recorder (oldest first).
    pub events: Vec<Event>,
}

/// Writes one Prometheus metric family header.
fn prom_head(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str("# HELP ");
    out.push_str(name);
    out.push(' ');
    out.push_str(help);
    out.push_str("\n# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Writes `name{label="value"} v`.
fn prom_line(out: &mut String, name: &str, label: &str, value: u32, v: u64) {
    out.push_str(name);
    out.push('{');
    out.push_str(label);
    out.push_str("=\"");
    out.push_str(&value.to_string());
    out.push_str("\"} ");
    out.push_str(&v.to_string());
    out.push('\n');
}

/// Appends a histogram in Prometheus histogram exposition (cumulative
/// `_bucket{le=...}` series, then `_sum` and `_count`). Empty buckets are
/// skipped except the mandatory `+Inf` point.
fn prom_histogram(out: &mut String, name: &str, help: &str, h: &Histogram) {
    prom_head(out, name, help, "histogram");
    let mut cum = 0u64;
    for b in 0..BUCKETS {
        let n = h.buckets()[b];
        if n == 0 {
            continue;
        }
        cum += n;
        out.push_str(name);
        out.push_str("_bucket{le=\"");
        out.push_str(&bucket_upper_bound(b).to_string());
        out.push_str("\"} ");
        out.push_str(&cum.to_string());
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_bucket{le=\"+Inf\"} ");
    out.push_str(&h.count().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum ");
    out.push_str(&h.sum().to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count ");
    out.push_str(&h.count().to_string());
    out.push('\n');
}

/// Appends a histogram's JSON object: exact count/sum/min/max plus
/// bucket-resolution p50/p90/p99 (all integers, deterministic).
fn json_histogram(out: &mut String, h: &Histogram) {
    out.push_str(&format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.percentile(50.0),
        h.percentile(90.0),
        h.percentile(99.0),
    ));
}

impl TelemetrySnapshot {
    /// Prometheus-style text exposition: counters labeled per worker,
    /// per slice, and per contract, plus the round-latency histogram.
    /// Stable output: same snapshot ⇒ same bytes.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "# vif telemetry round={} t_ns={}\n",
            self.round, self.t_ns
        ));

        prom_head(
            &mut out,
            "vif_worker_packets_total",
            "Packets processed per worker",
            "counter",
        );
        for w in &self.workers {
            prom_line(
                &mut out,
                "vif_worker_packets_total",
                "worker",
                w.worker,
                w.packets,
            );
        }
        prom_head(
            &mut out,
            "vif_worker_forwarded_total",
            "Packets forwarded per worker",
            "counter",
        );
        for w in &self.workers {
            prom_line(
                &mut out,
                "vif_worker_forwarded_total",
                "worker",
                w.worker,
                w.forwarded,
            );
        }
        prom_head(
            &mut out,
            "vif_worker_filtered_total",
            "Packets filtered per worker",
            "counter",
        );
        for w in &self.workers {
            prom_line(
                &mut out,
                "vif_worker_filtered_total",
                "worker",
                w.worker,
                w.filtered,
            );
        }
        prom_head(
            &mut out,
            "vif_worker_overflow_total",
            "Ring-overflow drops per worker",
            "counter",
        );
        for w in &self.workers {
            prom_line(
                &mut out,
                "vif_worker_overflow_total",
                "worker",
                w.worker,
                w.overflow,
            );
        }
        prom_head(
            &mut out,
            "vif_worker_uncovered_total",
            "Packets bypassing filtering during outages per worker",
            "counter",
        );
        for w in &self.workers {
            prom_line(
                &mut out,
                "vif_worker_uncovered_total",
                "worker",
                w.worker,
                w.uncovered,
            );
        }

        prom_head(
            &mut out,
            "vif_slice_audits_total",
            "Round audits per slice",
            "counter",
        );
        for s in &self.slices {
            prom_line(
                &mut out,
                "vif_slice_audits_total",
                "slice",
                s.slice,
                s.audits,
            );
        }
        prom_head(
            &mut out,
            "vif_slice_dirty_total",
            "Dirty audits per slice",
            "counter",
        );
        for s in &self.slices {
            prom_line(&mut out, "vif_slice_dirty_total", "slice", s.slice, s.dirty);
        }
        prom_head(
            &mut out,
            "vif_slice_quarantines_total",
            "Quarantine transitions per slice",
            "counter",
        );
        for s in &self.slices {
            prom_line(
                &mut out,
                "vif_slice_quarantines_total",
                "slice",
                s.slice,
                s.quarantines,
            );
        }
        prom_head(
            &mut out,
            "vif_slice_probations_total",
            "Probation entries per slice",
            "counter",
        );
        for s in &self.slices {
            prom_line(
                &mut out,
                "vif_slice_probations_total",
                "slice",
                s.slice,
                s.probations,
            );
        }
        prom_head(
            &mut out,
            "vif_slice_promotions_total",
            "Probation promotions per slice",
            "counter",
        );
        for s in &self.slices {
            prom_line(
                &mut out,
                "vif_slice_promotions_total",
                "slice",
                s.slice,
                s.promotions,
            );
        }
        prom_head(
            &mut out,
            "vif_slice_demotions_total",
            "Probation demotions per slice",
            "counter",
        );
        for s in &self.slices {
            prom_line(
                &mut out,
                "vif_slice_demotions_total",
                "slice",
                s.slice,
                s.demotions,
            );
        }

        prom_head(
            &mut out,
            "vif_contract_received_total",
            "Packets offered per contract",
            "counter",
        );
        for c in &self.contracts {
            prom_line(
                &mut out,
                "vif_contract_received_total",
                "contract",
                c.contract,
                c.received,
            );
        }
        prom_head(
            &mut out,
            "vif_contract_forwarded_total",
            "Packets forwarded per contract",
            "counter",
        );
        for c in &self.contracts {
            prom_line(
                &mut out,
                "vif_contract_forwarded_total",
                "contract",
                c.contract,
                c.forwarded,
            );
        }
        prom_head(
            &mut out,
            "vif_contract_filtered_total",
            "Packets filtered per contract",
            "counter",
        );
        for c in &self.contracts {
            prom_line(
                &mut out,
                "vif_contract_filtered_total",
                "contract",
                c.contract,
                c.filtered,
            );
        }
        prom_head(
            &mut out,
            "vif_contract_overflow_total",
            "Ring-overflow drops per contract",
            "counter",
        );
        for c in &self.contracts {
            prom_line(
                &mut out,
                "vif_contract_overflow_total",
                "contract",
                c.contract,
                c.overflow,
            );
        }
        prom_head(
            &mut out,
            "vif_contract_uncovered_total",
            "Packets bypassing filtering during outages per contract",
            "counter",
        );
        for c in &self.contracts {
            prom_line(
                &mut out,
                "vif_contract_uncovered_total",
                "contract",
                c.contract,
                c.uncovered,
            );
        }

        prom_histogram(
            &mut out,
            "vif_round_latency_ns",
            "End-to-end audited round latency (virtual nanoseconds)",
            &self.round_latency,
        );

        prom_head(
            &mut out,
            "vif_events_recorded_total",
            "Flight-recorder events recorded",
            "counter",
        );
        out.push_str(&format!(
            "vif_events_recorded_total {}\n",
            self.events_recorded
        ));
        prom_head(
            &mut out,
            "vif_events_dropped_total",
            "Flight-recorder events lost to wraparound",
            "counter",
        );
        out.push_str(&format!(
            "vif_events_dropped_total {}\n",
            self.events_dropped
        ));
        out
    }

    /// Machine-readable JSON exposition. Hand-rolled with a fixed key
    /// order and integer-only values so the bytes are deterministic:
    /// same seed ⇒ identical JSON across runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"t_ns\":{},\"round\":{},",
            self.t_ns, self.round
        ));

        out.push_str("\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"worker\":{},\"packets\":{},\"forwarded\":{},\"filtered\":{},\"overflow\":{},\"uncovered\":{},\"sizes\":",
                w.worker, w.packets, w.forwarded, w.filtered, w.overflow, w.uncovered,
            ));
            json_histogram(&mut out, &w.sizes);
            out.push('}');
        }
        out.push_str("],");

        out.push_str("\"slices\":[");
        for (i, s) in self.slices.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"slice\":{},\"audits\":{},\"dirty\":{},\"quarantines\":{},\"probations\":{},\"promotions\":{},\"demotions\":{}}}",
                s.slice, s.audits, s.dirty, s.quarantines, s.probations, s.promotions, s.demotions,
            ));
        }
        out.push_str("],");

        out.push_str("\"contracts\":[");
        for (i, c) in self.contracts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"contract\":{},\"received\":{},\"forwarded\":{},\"filtered\":{},\"overflow\":{},\"uncovered\":{}}}",
                c.contract, c.received, c.forwarded, c.filtered, c.overflow, c.uncovered,
            ));
        }
        out.push_str("],");

        out.push_str("\"round_latency\":");
        json_histogram(&mut out, &self.round_latency);
        out.push_str(&format!(
            ",\"events_recorded\":{},\"events_dropped\":{},",
            self.events_recorded, self.events_dropped
        ));

        out.push_str("\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"t_ns\":{},\"round\":{},\"kind\":\"{}\",\"slice\":{},\"a\":{},\"b\":{}}}",
                e.t_ns,
                e.round,
                e.kind.name(),
                e.slice,
                e.a,
                e.b,
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::hub::TelemetryHub;
    use crate::recorder::EventKind;

    fn sample_hub() -> TelemetryHub {
        let hub = TelemetryHub::new(2, &[0, 7], 8);
        hub.set_time(2_000_000);
        hub.set_round(2);
        let mut s = crate::hub::WorkerScratch::new();
        s.record(64, true);
        s.record(1500, false);
        s.flush_into(hub.worker(0));
        hub.worker(1).add_overflow(3);
        hub.slice(0).unwrap().note_audit(true);
        hub.contract(1).add_round(2, 1, 1, 0, 0);
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
