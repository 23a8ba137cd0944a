//! The fault-tolerance acceptance run: a seeded worker crash mid-attack
//! on a 4-worker multi-tenant service must quarantine exactly the dead
//! slice, re-steer its flows to the survivors within a round, keep every
//! surviving audit clean, charge the outage to the affected contracts'
//! `uncovered` counters — and reproduce byte-for-byte from the seed.

use vif_scenario::{
    CampaignConfig, CampaignContract, CampaignHarness, CampaignReport, DegradedMode, FaultKind,
    FaultPlan, LegitProfile, Phase, PhaseKind, Scenario, ScenarioHarnessConfig, ThresholdPolicy,
    VictimPolicy,
};
use vif_trie::Ipv4Prefix;

/// The worker the plan kills. Not slice 0: the master slice carries the
/// control channel, and master failover is out of scope here.
const DEAD: usize = 2;
/// Global round the crash fires in — round 4 is the first
/// carpet-bombing round of the smoke scenario (mid-attack) and a
/// flash-crowd round of the second tenant.
const CRASH_ROUND: u64 = 4;

/// Victim A: the smoke acceptance mix (8 rounds: ramp, pulse, carpet
/// bombing, flash crowd) on 203.0.0.0/16 — under attack when the crash
/// lands.
fn scenario_a(seed: u64) -> Scenario {
    let mut s = Scenario::smoke(seed);
    s.name = "victim-a".into();
    s
}

/// Victim B: a pure flash crowd on 198.18.0.0/16 — zero malicious
/// traffic, so any delivery B loses is infrastructure damage.
fn scenario_b(seed: u64) -> Scenario {
    Scenario {
        name: "victim-b".into(),
        seed,
        victim: Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16),
        legit: LegitProfile {
            sources: 48,
            gbps: 0.2,
        },
        phases: vec![
            Phase {
                name: "calm".into(),
                kind: PhaseKind::Ramp {
                    from_gbps: 0.0,
                    to_gbps: 0.0,
                },
                rounds: 3,
                attack_gbps: 0.0,
                attack_sources: 0,
                zipf_exponent: 0.0,
            },
            Phase {
                name: "flash-crowd".into(),
                kind: PhaseKind::FlashCrowd {
                    surge_sources: 96,
                    surge_gbps: 0.6,
                },
                rounds: 5,
                attack_gbps: 0.0,
                attack_sources: 0,
                zipf_exponent: 0.0,
            },
        ],
        round_ms: 1,
        packet_size: 128,
    }
}

fn run_chaos_campaign(seed: u64) -> CampaignReport {
    let contracts = vec![
        CampaignContract {
            contract: 1,
            scenario: scenario_a(seed),
            demand_gbps_per_rule: vec![0.5; 8],
        },
        CampaignContract {
            contract: 2,
            scenario: scenario_b(seed ^ 0xb),
            demand_gbps_per_rule: vec![0.25; 4],
        },
    ];
    let policies: Vec<Box<dyn VictimPolicy>> = vec![
        Box::new(ThresholdPolicy::default()),
        // B installs nothing: every packet it loses is collateral.
        Box::new(ThresholdPolicy {
            install_threshold: u64::MAX,
            ..Default::default()
        }),
    ];
    let config = CampaignConfig {
        harness: ScenarioHarnessConfig {
            workers: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    CampaignHarness::new(contracts, config)
        .with_faults(FaultPlan::new().at(CRASH_ROUND, FaultKind::WorkerCrash { worker: DEAD }))
        // B's traffic is all-legitimate: during its slice's outage the
        // dataplane fails open (deliver unfiltered, count uncovered)
        // instead of dropping a quarter of a flash crowd on the floor.
        .with_degraded_mode(2, DegradedMode::FailOpen)
        .run(policies)
}

#[test]
fn crash_mid_attack_quarantines_dead_slice_and_recovers() {
    let report = run_chaos_campaign(2941);
    assert!(report.rejected.is_empty(), "both contracts fit the pool");

    let a = report.report(1).expect("contract 1 report");
    let b = report.report(2).expect("contract 2 report");

    // Exactly the dead slice is quarantined — no survivor is dragged
    // down with it — and both tenants see the same infrastructure event.
    assert_eq!(a.quarantined_slices, vec![DEAD]);
    assert_eq!(b.quarantined_slices, vec![DEAD]);

    // Both tenants ran their full scenarios on the surviving slices.
    assert_eq!(a.rounds, scenario_a(2941).total_rounds());
    assert_eq!(b.rounds, scenario_b(2941 ^ 0xb).total_rounds());

    // Surviving audits stay clean: a crash is an infrastructure event,
    // not operator misbehavior, and must never read as a bypass.
    assert_eq!(a.dirty_rounds, 0, "no false strikes for A");
    assert_eq!(b.dirty_rounds, 0, "no false strikes for B");

    // The outage is visible, bounded, and attributed: the crash round's
    // traffic toward the dead slice goes uncovered, and re-steering
    // closes the hole by the next round.
    assert!(
        a.total_uncovered() > 0,
        "A lost coverage in the crash round"
    );
    assert!(
        b.total_uncovered() > 0,
        "B lost coverage in the crash round"
    );
    assert_eq!(a.recovery_rounds, Some(1), "A recovers at the next barrier");
    assert_eq!(b.recovery_rounds, Some(1), "B recovers at the next barrier");

    // ...and only the crash round's phase carries uncovered traffic.
    for (i, phase) in a.phases.iter().enumerate() {
        if phase.name == "carpet-bombing" {
            assert!(phase.uncovered > 0, "outage lands in carpet-bombing");
        } else {
            assert_eq!(phase.uncovered, 0, "phase {i} outside the outage");
        }
    }

    // B fails open: uncovered deliveries still arrive, so the flash
    // crowd sees zero collateral from the crash.
    for phase in &b.phases {
        assert_eq!(
            phase.delivered_legit, phase.offered_legit,
            "zero collateral for B in phase {:?}",
            phase.name
        );
    }
    assert_eq!(b.total_goodput(), 1.0);

    // A fails closed (the default): its uncovered packets were dropped,
    // never delivered unfiltered — so leakage cannot exceed a clean run's.
    assert!(a.total_goodput() < 1.0, "A paid for fail-closed in goodput");

    // The shrunken pool still carries both admitted budgets.
    assert!(
        report.failover_rejected.is_empty(),
        "both contracts refit on 3 survivors: {:?}",
        report.failover_rejected
    );
}

/// Chaos runs reproduce byte-for-byte from the seed: same fault plan,
/// same outage, same recovery, same rendered report.
#[test]
fn chaos_campaign_is_deterministic() {
    let a = run_chaos_campaign(77);
    let b = run_chaos_campaign(77);
    assert_eq!(a.reports, b.reports);
    assert_eq!(
        format!("{:?}", a.reports),
        format!("{:?}", b.reports),
        "byte-for-byte debug rendering"
    );
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.to_string(), rb.to_string(), "byte-for-byte display");
    }
}

/// Single-victim chaos: a crash plus a *transient* export timeout on a
/// surviving slice. The retry absorbs the timeout (no strike, no second
/// quarantine); the crash quarantines exactly its own slice.
#[test]
fn single_victim_crash_with_transient_export_timeout() {
    let run = |seed: u64| {
        CampaignHarness::single(
            scenario_a(seed),
            ScenarioHarnessConfig {
                workers: 4,
                ..Default::default()
            },
        )
        .with_faults(
            FaultPlan::new()
                .at(CRASH_ROUND, FaultKind::WorkerCrash { worker: DEAD })
                .at(
                    6,
                    FaultKind::ExportTimeout {
                        slice: 1,
                        attempts: 1,
                    },
                ),
        )
        .run(vec![Box::new(ThresholdPolicy::default())])
        .reports
        .remove(0)
    };
    let report = run(1117);
    assert_eq!(
        report.quarantined_slices,
        vec![DEAD],
        "only the crash quarantines"
    );
    assert_eq!(report.dirty_rounds, 0, "neither fault reads as a bypass");
    assert_eq!(report.rounds, scenario_a(1117).total_rounds());
    assert!(report.total_uncovered() > 0);
    assert_eq!(report.recovery_rounds, Some(1));
    let rendered = report.to_string();
    assert!(rendered.contains("slices [2] quarantined"), "{rendered}");

    let again = run(1117);
    assert_eq!(report, again, "single-victim chaos is seed-deterministic");
}
