//! Telemetry acceptance: a seeded chaos run with a hub attached must
//! reproduce its observability artifacts byte-for-byte — the aggregated
//! [`TelemetrySnapshot`] JSON, the Prometheus exposition, and the flight
//! recorder's binary trace are all functions of the seed alone.

use std::sync::Arc;
use vif_scenario::{
    CampaignConfig, CampaignContract, CampaignHarness, FaultKind, FaultPlan, Scenario,
    ScenarioHarnessConfig, ScenarioReport, ThresholdPolicy, VictimPolicy,
};
use vif_telemetry::{EventKind, TelemetryHub};

const WORKERS: usize = 4;
const DEAD: usize = 2;

fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .at(4, FaultKind::WorkerCrash { worker: DEAD })
        .at(
            6,
            FaultKind::ExportTimeout {
                slice: 1,
                attempts: 1,
            },
        )
}

/// One seeded single-victim run (the lone contract 0) under `faults` with
/// `hub` attached.
fn run_single(scenario: Scenario, faults: FaultPlan, hub: &Arc<TelemetryHub>) -> ScenarioReport {
    CampaignHarness::single(
        scenario,
        ScenarioHarnessConfig {
            workers: WORKERS,
            ..Default::default()
        },
    )
    .with_faults(faults)
    .with_telemetry(Arc::clone(hub))
    .run(vec![Box::new(ThresholdPolicy::default())])
    .reports
    .remove(0)
}

/// One seeded single-victim chaos run with a fresh hub; returns the three
/// exported artifacts.
fn run_scenario(seed: u64) -> (String, String, Vec<u8>) {
    let hub = Arc::new(TelemetryHub::new(WORKERS, &[0], 4096));
    run_single(Scenario::smoke(seed), chaos_plan(), &hub);
    let snap = hub.snapshot(128);
    (snap.to_json(), snap.to_prometheus(), hub.trace_bytes())
}

/// One seeded two-tenant chaos campaign with a fresh hub.
fn run_campaign(seed: u64) -> (String, Vec<u8>) {
    let hub = Arc::new(TelemetryHub::new(WORKERS, &[1, 2], 4096));
    let contracts = vec![
        CampaignContract {
            contract: 1,
            scenario: Scenario::smoke(seed),
            demand_gbps_per_rule: vec![0.5; 8],
        },
        CampaignContract {
            contract: 2,
            scenario: {
                let mut s = Scenario::smoke(seed ^ 0xb);
                s.victim = vif_trie::Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16);
                s.name = "victim-b".into();
                s
            },
            demand_gbps_per_rule: vec![0.25; 4],
        },
    ];
    let policies: Vec<Box<dyn VictimPolicy>> = vec![
        Box::new(ThresholdPolicy::default()),
        Box::new(ThresholdPolicy::default()),
    ];
    CampaignHarness::new(
        contracts,
        CampaignConfig {
            harness: ScenarioHarnessConfig {
                workers: WORKERS,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .with_faults(FaultPlan::new().at(4, FaultKind::WorkerCrash { worker: DEAD }))
    .with_telemetry(Arc::clone(&hub))
    .run(policies);
    (hub.snapshot(128).to_json(), hub.trace_bytes())
}

#[test]
fn seeded_scenario_telemetry_is_byte_identical() {
    let (json_a, prom_a, trace_a) = run_scenario(2941);
    let (json_b, prom_b, trace_b) = run_scenario(2941);
    assert_eq!(json_a, json_b, "snapshot JSON reproduces from the seed");
    assert_eq!(prom_a, prom_b, "Prometheus exposition reproduces");
    assert_eq!(trace_a, trace_b, "flight-recorder trace is byte-identical");

    // The chaos actually landed in the trace: the crash, its quarantine,
    // and the absorbed export retry are all on the record.
    assert!(json_a.contains("\"fault_injected\""), "{json_a}");
    assert!(json_a.contains("\"quarantine\""), "{json_a}");
    assert!(json_a.contains("\"export_retry\""), "{json_a}");
    assert!(json_a.contains("\"audit_verdict\""), "{json_a}");

    // A different seed shifts traffic, so the flush barriers (which carry
    // per-round packet counts) diverge.
    let (_, _, trace_c) = run_scenario(2942);
    assert_ne!(trace_a, trace_c, "the trace is a function of the seed");
}

/// The single-victim run is the lone contract 0 on the campaign loop:
/// with or without chaos, the same seed reproduces the same report and
/// the same observability artifacts, byte for byte.
#[test]
fn single_contract_run_reproduces_report_and_telemetry() {
    for faults in [FaultPlan::new(), chaos_plan()] {
        let run = || {
            let hub = Arc::new(TelemetryHub::new(WORKERS, &[0], 4096));
            let report = run_single(Scenario::smoke(515), faults.clone(), &hub);
            (report, hub.snapshot(128).to_json(), hub.trace_bytes())
        };
        let (report_a, json_a, trace_a) = run();
        let (report_b, json_b, trace_b) = run();
        assert_eq!(report_a.contract, 0, "the default contract");
        assert_eq!(report_a.rounds, Scenario::smoke(515).total_rounds());
        assert_eq!(report_a, report_b, "same seed, same report");
        assert_eq!(json_a, json_b, "same seed, same snapshot");
        assert_eq!(trace_a, trace_b, "same seed, same trace");
        assert!(json_a.contains("\"contract\":0"), "{json_a}");
        assert_eq!(
            report_a.quarantined_slices.is_empty(),
            faults.is_empty(),
            "only the chaos plan quarantines a slice"
        );
    }
}

#[test]
fn seeded_campaign_telemetry_is_byte_identical() {
    let (json_a, trace_a) = run_campaign(77);
    let (json_b, trace_b) = run_campaign(77);
    assert_eq!(json_a, json_b);
    assert_eq!(trace_a, trace_b);

    // Both tenants were admitted on the record, labeled by contract id.
    assert!(json_a.contains("\"contract_admit\""), "{json_a}");
    assert!(json_a.contains("\"contract\":1"), "{json_a}");
    assert!(json_a.contains("\"contract\":2"), "{json_a}");
}

#[test]
fn scenario_events_are_stamped_from_the_virtual_clock() {
    let hub = Arc::new(TelemetryHub::new(WORKERS, &[0], 4096));
    let scenario = Scenario::smoke(9);
    let round_ns = scenario.round_ns();
    run_single(scenario, chaos_plan(), &hub);
    assert!(hub.events_recorded() > 0, "chaos run records events");
    for ev in hub.events_last(4096) {
        assert_eq!(
            ev.t_ns % round_ns,
            0,
            "event {:?} stamped off-round: t_ns={}",
            ev.kind,
            ev.t_ns
        );
        if ev.kind == EventKind::FaultInjected && ev.a == vif_telemetry::fault::CRASH {
            assert_eq!(ev.t_ns, 4 * round_ns, "crash fires at its planned round");
            assert_eq!(ev.slice, DEAD as u32);
        }
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2))]

        /// Same seed ⇒ byte-identical snapshot and trace, across random
        /// seeds (the acceptance property, sampled — each case is a full
        /// live-service chaos run).
        #[test]
        fn any_seed_reproduces_its_telemetry(seed in 1u64..1_000_000) {
            let (json_a, prom_a, trace_a) = run_scenario(seed);
            let (json_b, prom_b, trace_b) = run_scenario(seed);
            prop_assert_eq!(json_a, json_b);
            prop_assert_eq!(prom_a, prom_b);
            prop_assert_eq!(trace_a, trace_b);
        }
    }
}
