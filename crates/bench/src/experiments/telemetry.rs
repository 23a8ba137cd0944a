//! The observability experiment (beyond the paper): run the seeded chaos
//! scenario with a [`TelemetryHub`] wired through the whole stack and
//! render what the hub saw — the aggregated round snapshot (per-worker,
//! per-slice, and per-contract counters plus the round-latency
//! histogram) and the tail of the flight recorder's control-plane trace.
//!
//! The run is executed **twice** from the same seed and the artifacts are
//! compared byte-for-byte: the rendered report includes the SHA-256 of
//! the binary trace and of the snapshot JSON, so two invocations (or two
//! machines) can diff reproducibility with one line.

use std::sync::Arc;
use vif_crypto::Sha256;
use vif_scenario::{
    CampaignHarness, FaultKind, FaultPlan, Scenario, ScenarioHarnessConfig, ThresholdPolicy,
};
use vif_telemetry::{TelemetryHub, TelemetrySnapshot};

/// Flight-recorder events shown in the rendered tail.
const EVENT_TAIL: usize = 24;

/// One seeded chaos run with a fresh hub; returns the snapshot and the
/// binary trace.
fn run_once(seed: u64, quick: bool, workers: usize) -> (TelemetrySnapshot, Vec<u8>) {
    let scenario = if quick {
        Scenario::smoke(seed)
    } else {
        Scenario::pulse_and_carpet(seed)
    };
    let crash_round = if quick { 4 } else { 8 };
    let hub = Arc::new(TelemetryHub::new(workers, &[0], 4096));
    CampaignHarness::single(
        scenario,
        ScenarioHarnessConfig {
            workers,
            ..Default::default()
        },
    )
    .with_faults(
        FaultPlan::new()
            .at(crash_round, FaultKind::WorkerCrash { worker: 2 })
            .at(
                crash_round + 2,
                FaultKind::ExportTimeout {
                    slice: 1,
                    attempts: 1,
                },
            ),
    )
    .with_telemetry(Arc::clone(&hub))
    .run(vec![Box::new(ThresholdPolicy::default())]);
    let snap = hub.snapshot(EVENT_TAIL);
    let trace = hub.trace_bytes();
    (snap, trace)
}

/// Renders the telemetry experiment at the given scale (`quick` = the
/// smoke scenario, CI-sized).
pub fn telemetry(quick: bool) -> String {
    let seed = 42;
    let workers = 4;
    let (snap, trace) = run_once(seed, quick, workers);
    let (snap2, trace2) = run_once(seed, quick, workers);
    let reproduced = snap == snap2 && trace == trace2;

    let mut out = String::new();
    out.push_str(&format!(
        "Telemetry (seed {seed}, {workers} workers, chaos: crash + export timeout)\n\n"
    ));

    out.push_str("Per-worker counters at the final round barrier:\n");
    out.push_str("worker   packets  forwarded   filtered  overflow  uncovered  p99 wire (B)\n");
    for w in &snap.workers {
        out.push_str(&format!(
            "{:>6} {:>9} {:>10} {:>10} {:>9} {:>10} {:>13}\n",
            w.worker,
            w.packets,
            w.forwarded,
            w.filtered,
            w.overflow,
            w.uncovered,
            w.sizes.percentile(99.0),
        ));
    }

    out.push_str("\nPer-slice audit counters:\n");
    out.push_str("slice   audits  dirty  quarantines  probations  promotions  demotions\n");
    for s in &snap.slices {
        out.push_str(&format!(
            "{:>5} {:>8} {:>6} {:>12} {:>11} {:>11} {:>10}\n",
            s.slice, s.audits, s.dirty, s.quarantines, s.probations, s.promotions, s.demotions,
        ));
    }

    out.push_str(&format!(
        "\nRound latency: count {}  p50 {} ns  p90 {} ns  p99 {} ns  max {} ns\n",
        snap.round_latency.count(),
        snap.round_latency.percentile(50.0),
        snap.round_latency.percentile(90.0),
        snap.round_latency.percentile(99.0),
        snap.round_latency.max(),
    ));

    out.push_str(&format!(
        "\nFlight recorder: {} events recorded, {} dropped; last {}:\n",
        snap.events_recorded,
        snap.events_dropped,
        snap.events.len(),
    ));
    out.push_str("t_ns         round  event           slice  a      b\n");
    for ev in &snap.events {
        out.push_str(&format!(
            "{:<12} {:>5}  {:<15} {:>5}  {:<6} {}\n",
            ev.t_ns,
            ev.round,
            ev.kind.name(),
            ev.slice,
            ev.a,
            ev.b,
        ));
    }

    out.push_str(&format!(
        "\ntrace: {} bytes, sha256 {}\n",
        trace.len(),
        vif_crypto::hex::encode(&Sha256::digest(&trace)),
    ));
    out.push_str(&format!(
        "snapshot json: {} bytes, sha256 {}\n",
        snap.to_json().len(),
        vif_crypto::hex::encode(&Sha256::digest(snap.to_json().as_bytes())),
    ));
    out.push_str(&format!(
        "re-run from seed {seed}: {}\n",
        if reproduced {
            "byte-identical (snapshot + trace reproduce)"
        } else {
            "DIVERGED — determinism bug"
        }
    ));
    out
}
