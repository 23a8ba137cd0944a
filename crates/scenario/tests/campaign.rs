//! The multi-tenant acceptance campaign: carpet-bombing victim A while
//! victim B rides a flash crowd on the same live service, plus an
//! over-budget third contract the arbiter must turn away — and the
//! infrastructure-wide events every tenant must see alike: a
//! slice-stealing adversary, an unauditable slice, and rule telemetry
//! that lives on a non-master slice.

use std::sync::{Arc, Mutex};
use vif_core::rounds::ContractState;
use vif_dataplane::shard_of;
use vif_scenario::{
    CampaignConfig, CampaignContract, CampaignHarness, CampaignReport, FaultKind, FaultPlan,
    LegitProfile, Phase, PhaseKind, PolicyAction, PolicyObservation, Scenario, ScenarioAdversary,
    ScenarioHarnessConfig, ThresholdPolicy, VictimPolicy,
};
use vif_trie::Ipv4Prefix;

/// Victim A: the smoke acceptance mix (ramp, pulse, carpet bombing across
/// its /16, flash crowd) on 203.0.0.0/16.
fn scenario_a(seed: u64) -> Scenario {
    let mut s = Scenario::smoke(seed);
    s.name = "victim-a".into();
    s
}

/// Victim B: a pure flash crowd on 198.18.0.0/16 — zero malicious
/// traffic, so *any* drop or strike B sees is cross-tenant damage.
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
                rounds: 4,
                attack_gbps: 0.0,
                attack_sources: 0,
                zipf_exponent: 0.0,
            },
        ],
        round_ms: 1,
        packet_size: 128,
    }
}

fn run_campaign(seed: u64) -> CampaignReport {
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
        // Contract 3 asks for more than the whole pool carries: a single
        // rule's offered load exceeds any enclave's capacity and the
        // aggregate exceeds the pool, so admission must fail with a
        // per-resource verdict — before any session is established.
        CampaignContract {
            contract: 3,
            scenario: Scenario {
                name: "victim-c".into(),
                victim: Ipv4Prefix::new(u32::from_be_bytes([100, 64, 0, 0]), 16),
                ..scenario_b(seed ^ 0xc)
            },
            demand_gbps_per_rule: vec![500.0; 4],
        },
    ];
    let policies: Vec<Box<dyn VictimPolicy>> = vec![
        // A fights back with the default control loop.
        Box::new(ThresholdPolicy::default()),
        // B never installs anything: its flash crowd is all-legitimate,
        // and with no rules of its own, every packet B loses and every
        // strike B's audit raises could only come from A's tenancy.
        Box::new(ThresholdPolicy {
            install_threshold: u64::MAX,
            ..Default::default()
        }),
        Box::new(ThresholdPolicy::default()),
    ];
    CampaignHarness::new(contracts, CampaignConfig::default()).run(policies)
}

#[test]
fn campaign_isolates_tenants_and_arbitrates_admission() {
    let report = run_campaign(1701);

    // The over-budget contract is rejected at admission with a
    // per-resource reason; the viable contracts both run.
    assert_eq!(report.rejected.len(), 1, "exactly one rejection");
    assert_eq!(report.rejected[0].contract, 3);
    let reason = &report.rejected[0].reason;
    assert!(
        reason.contains("Gb/s"),
        "reason names the exhausted resource: {reason}"
    );
    assert_eq!(report.reports.len(), 2, "one report per admitted contract");

    // Victim A (carpet-bombed) ran its whole scenario and fought back.
    let a = report.report(1).expect("contract 1 report");
    assert_eq!(a.scenario, "victim-a");
    assert_eq!(a.rounds, scenario_a(1701).total_rounds());
    assert!(a.rules_installed > 0, "A's control loop installed rules");
    assert_eq!(a.dirty_rounds, 0, "honest network: no strikes for A");
    assert_eq!(a.detection_latency_rounds, None, "nothing to detect");
    assert!(
        a.total_leakage() < 1.0,
        "A's rules dropped some attack traffic"
    );

    // Victim B: ZERO collateral and ZERO strikes despite A's live churn
    // on the same service. B installed nothing, so any loss would be
    // cross-tenant damage — there must be none, structurally.
    let b = report.report(2).expect("contract 2 report");
    assert_eq!(b.scenario, "victim-b");
    assert_eq!(b.rounds, scenario_b(1701 ^ 0xb).total_rounds());
    assert_eq!(b.rules_installed, 0, "B's policy stayed quiet");
    assert_eq!(b.dirty_rounds, 0, "A's churn raised no strikes for B");
    for phase in &b.phases {
        assert_eq!(
            phase.delivered_legit, phase.offered_legit,
            "zero collateral for B in phase {:?}",
            phase.name
        );
    }
    assert_eq!(b.total_goodput(), 1.0);
}

/// The campaign is deterministic in its seed, like single-victim runs.
#[test]
fn campaign_is_deterministic() {
    let a = run_campaign(77);
    let b = run_campaign(77);
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.rejected.len(), b.rejected.len());
}

/// Tenants A and B of the acceptance campaign under `harness` knobs and
/// `faults`, both with the default control loop.
fn run_two_tenants(seed: u64, harness: ScenarioHarnessConfig, faults: FaultPlan) -> CampaignReport {
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
        Box::new(ThresholdPolicy::default()),
    ];
    let config = CampaignConfig {
        harness,
        ..Default::default()
    };
    CampaignHarness::new(contracts, config)
        .with_faults(faults)
        .run(policies)
}

/// A filtering network that starts stealing worker 1's post-filter output
/// in round 3 robs every tenant with traffic on that worker: each one's
/// audit flags the onset round, and each report carries its own
/// detection latency.
#[test]
fn slice_thief_is_detected_by_every_tenant_in_the_onset_round() {
    const ONSET: u64 = 3;
    let report = run_two_tenants(
        1701,
        ScenarioHarnessConfig {
            adversary: Some(ScenarioAdversary {
                from_round: ONSET,
                drop_after_worker: 1,
            }),
            ..Default::default()
        },
        FaultPlan::new(),
    );
    for (contract, scenario) in [(1, scenario_a(1701)), (2, scenario_b(1701 ^ 0xb))] {
        // The precondition: the tenant forwards traffic through worker 1
        // in the onset round (legitimate baseline flows at minimum).
        let onset = &scenario.compile()[ONSET as usize];
        assert!(
            onset
                .packets
                .iter()
                .any(|p| !onset.attack_sources.contains(&p.tuple.src_ip)
                    && shard_of(&p.tuple, 2) == 1),
            "contract {contract} has no legitimate flow on worker 1"
        );
        let r = report.report(contract).expect("admitted");
        assert_eq!(
            r.detection_latency_rounds,
            Some(1),
            "contract {contract} catches the thief in the onset round"
        );
        assert_eq!(
            r.dirty_rounds as u64,
            scenario.total_rounds() - ONSET,
            "contract {contract}: every round from the onset is dirty, none before"
        );
        assert_eq!(
            r.rounds,
            scenario.total_rounds(),
            "strikes never abort here"
        );
        assert_eq!(r.final_state, ContractState::Active);
    }
}

/// One slice's exports time out past the retry budget: the slice is
/// unauditable for everyone, so both tenants quarantine it — and since a
/// dead export path is not a bypass, neither takes a strike or loses a
/// packet (the worker itself keeps filtering).
#[test]
fn export_timeout_quarantines_the_slice_for_both_tenants_without_strikes() {
    const SLICE: usize = 1;
    let run = || {
        run_two_tenants(
            1701,
            ScenarioHarnessConfig {
                workers: 4,
                ..Default::default()
            },
            // Three timed-out attempts exhaust the default export retry
            // budget (one try + two retries).
            FaultPlan::new().at(
                2,
                FaultKind::ExportTimeout {
                    slice: SLICE,
                    attempts: 3,
                },
            ),
        )
    };
    let report = run();
    for (contract, scenario) in [(1, scenario_a(1701)), (2, scenario_b(1701 ^ 0xb))] {
        let r = report.report(contract).expect("admitted");
        assert_eq!(r.quarantined_slices, vec![SLICE], "contract {contract}");
        assert_eq!(r.dirty_rounds, 0, "contract {contract} falsely struck");
        assert_eq!(r.final_state, ContractState::Active);
        assert_eq!(r.rounds, scenario.total_rounds());
        assert_eq!(r.total_uncovered(), 0, "the worker never stopped filtering");
        assert!(r.recovered_slices.is_empty(), "no rejoin was scheduled");
        for phase in &r.phases {
            assert_eq!(
                phase.delivered_legit, phase.offered_legit,
                "contract {contract} lost legitimate traffic in {:?}",
                phase.name
            );
        }
    }
    assert_eq!(report.reports, run().reports, "seed-deterministic");
}

/// The default control loop, recording every `(rule source, rounds_idle)`
/// it is shown.
struct IdleRecorder {
    inner: ThresholdPolicy,
    seen: Arc<Mutex<Vec<(u32, u32)>>>,
}

impl VictimPolicy for IdleRecorder {
    fn react(&mut self, obs: &PolicyObservation<'_>, actions: &mut Vec<PolicyAction>) {
        let mut seen = self.seen.lock().unwrap();
        for r in obs.installed {
            seen.push((r.rule.pattern().src.addr(), r.rounds_idle));
        }
        self.inner.react(obs, actions);
    }
}

/// Regression: each round RSS steering lands an attack source's flow on
/// exactly one slice, so in a round where that is slice 1 the source's
/// drop rule never moves the *master's* byte counters. Rule-idle
/// telemetry must sum the live slices — reading the master alone reported
/// such a rule idle, withdrew it after `idle_rounds` such rounds in a row,
/// leaked a round of attack traffic and re-installed it.
#[test]
fn rule_matched_only_off_the_master_is_never_idle_nor_withdrawn() {
    const WORKERS: usize = 2;
    let scenario = Scenario {
        name: "sustained".into(),
        seed: 88,
        victim: Ipv4Prefix::new(u32::from_be_bytes([203, 0, 0, 0]), 16),
        legit: LegitProfile {
            sources: 16,
            gbps: 0.2,
        },
        // A fixed pool of uniform heavy hitters, every one well above the
        // default install threshold, for the whole run.
        phases: vec![Phase {
            name: "assault".into(),
            kind: PhaseKind::Ramp {
                from_gbps: 2.0,
                to_gbps: 2.0,
            },
            rounds: 8,
            attack_gbps: 2.0,
            attack_sources: 8,
            zipf_exponent: 0.0,
        }],
        round_ms: 1,
        packet_size: 128,
    };
    // The precondition: some source's flow sits on slice 1 — and only
    // there — for `idle_rounds` consecutive rounds while its rule (in
    // force from round 1) is biting.
    let compiled = scenario.compile();
    let attackers = &compiled[0].attack_sources;
    let only_on_slice_1 = |src: u32, round: usize| {
        compiled[round]
            .packets
            .iter()
            .filter(|p| p.tuple.src_ip == src)
            .all(|p| shard_of(&p.tuple, WORKERS) == 1)
    };
    assert!(
        attackers.iter().any(|&src| (1..compiled.len() - 1)
            .any(|r| only_on_slice_1(src, r) && only_on_slice_1(src, r + 1))),
        "no attack source stays off the master for two rounds running"
    );

    let seen = Arc::new(Mutex::new(Vec::new()));
    let report = CampaignHarness::new(
        vec![CampaignContract {
            contract: 1,
            scenario,
            demand_gbps_per_rule: Vec::new(),
        }],
        CampaignConfig {
            harness: ScenarioHarnessConfig {
                workers: WORKERS,
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .run(vec![Box::new(IdleRecorder {
        inner: ThresholdPolicy::default(),
        seen: Arc::clone(&seen),
    })]);

    let seen = seen.lock().unwrap();
    for &(src, idle) in seen.iter() {
        assert_eq!(
            idle, 0,
            "the rule for {src:#x} bites every round on some slice yet read idle"
        );
    }
    assert!(seen.len() >= attackers.len() * 6, "rules were in force");
    let r = report.report(1).expect("admitted");
    assert_eq!(r.rules_withdrawn, 0, "no biting rule is withdrawn");
    assert_eq!(
        r.rules_installed as usize,
        attackers.len(),
        "one install per attack source, never a re-install"
    );
    assert_eq!(r.dirty_rounds, 0);
}
