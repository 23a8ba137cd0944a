//! Integration properties of the scenario engine: full-run determinism,
//! the acceptance scenario's closed-loop behavior, adversary detection
//! latency, and audit cleanliness under genuinely concurrent mid-run rule
//! churn.

use proptest::prelude::*;
use std::sync::{Arc, Mutex};
use vif_core::cost::FilterMode;
use vif_core::enclave_app::{EnclaveFilterStage, FilterEnclaveApp};
use vif_core::logs::PacketFingerprints;
use vif_core::rounds::{ClusterRoundDriver, ContractState, RoundPolicy};
use vif_core::rpki::RpkiRegistry;
use vif_core::rules::{FilterRule, FlowPattern};
use vif_core::ruleset::{RuleId, RuleSet};
use vif_core::scale::EnclaveCluster;
use vif_core::session::{SessionConfig, VictimClient};
use vif_dataplane::{
    shard_of, shard_of_fingerprint, DataplaneService, FiveTuple, FlowSet, Packet, Protocol,
    ServiceConfig, ThreadedReport, TrafficConfig, TrafficGenerator,
};
use vif_scenario::{
    CampaignHarness, Scenario, ScenarioAdversary, ScenarioHarnessConfig, ScenarioReport,
    ThresholdPolicy,
};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};
use vif_trie::Ipv4Prefix;

/// One single-victim run (the lone contract 0) under the default policy.
fn run_single(scenario: Scenario, config: ScenarioHarnessConfig) -> ScenarioReport {
    CampaignHarness::single(scenario, config)
        .run(vec![Box::new(ThresholdPolicy::default())])
        .reports
        .remove(0)
}

fn run_smoke(seed: u64) -> ScenarioReport {
    run_single(Scenario::smoke(seed), ScenarioHarnessConfig::default())
}

/// A scenario run is a pure function of its seed: live threads, shared
/// rings, and mid-run churn may reorder *work*, but every observable
/// count in the report is identical run to run.
#[test]
fn scenario_run_with_fixed_seed_is_fully_deterministic() {
    let a = run_smoke(42);
    let b = run_smoke(42);
    assert_eq!(a, b, "same seed must reproduce the same ScenarioReport");
    let c = run_smoke(43);
    assert_ne!(a, c, "different seeds explore different runs");

    // Sanity on the accounting while we have a report in hand.
    assert_eq!(a.rounds, Scenario::smoke(42).total_rounds());
    for phase in &a.phases {
        assert!(phase.delivered_legit <= phase.offered_legit);
        assert!(phase.delivered_attack <= phase.offered_attack);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Timeline compilation (the expensive deterministic substrate under
    /// the harness) is seed-stable across arbitrary seeds.
    #[test]
    fn compiled_timeline_is_seed_stable(seed in 0u64..1_000_000) {
        let s = Scenario::smoke(seed);
        prop_assert_eq!(s.compile(), s.compile());
    }
}

/// The acceptance scenario: a seeded pulse-wave + carpet-bombing run on
/// the live sharded dataplane, with the default victim policy installing
/// and withdrawing rules mid-run purely from audited-round feedback.
#[test]
fn pulse_and_carpet_acceptance() {
    let scenario = Scenario::pulse_and_carpet(42);
    let report = run_single(scenario.clone(), ScenarioHarnessConfig::default());

    // Ran to completion, audited every round, zero false strikes.
    assert_eq!(report.rounds, scenario.total_rounds());
    assert_eq!(report.dirty_rounds, 0, "honest run must audit clean");
    assert_eq!(report.final_state, ContractState::Active);
    assert_eq!(report.phases.len(), 4);

    // The control loop actually closed: rules were installed in reaction
    // to heavy hitters and withdrawn again once their traffic subsided.
    assert!(report.rules_installed >= 1, "no mid-run install happened");
    assert!(
        report.rules_withdrawn >= 1,
        "no mid-run withdrawal happened"
    );

    // Per-source drop rules never touch legitimate traffic: perfect
    // goodput in every phase of an honest run.
    for phase in &report.phases {
        assert_eq!(
            phase.delivered_legit, phase.offered_legit,
            "collateral damage in {}",
            phase.name
        );
    }

    // The defense bites: every attack phase leaks, but far below 100%,
    // and the run overall filters more than it leaks once rules are in.
    for phase in &report.phases[..3] {
        assert!(phase.offered_attack > 0);
        let leakage = phase.leakage();
        assert!(
            leakage < 0.75,
            "{} leaked {:.1}%",
            phase.name,
            leakage * 100.0
        );
        assert!(leakage > 0.0, "first round of a phase always leaks");
    }

    // Flash crowd: a purely legitimate surge — nothing offered was
    // malicious and nothing legitimate was dropped.
    let flash = &report.phases[3];
    assert_eq!(flash.offered_attack, 0);
    assert_eq!(flash.delivered_legit, flash.offered_legit);
    assert_eq!(
        flash.rules_installed, 0,
        "the surge must not trigger installs"
    );
    // The attack ended, so the loop stands down: the flash-crowd phase is
    // where stale rules go idle and get withdrawn.
    assert!(flash.rules_withdrawn >= 1);
}

/// A scenario adversary (stealing one slice's post-filter output from a
/// mid-scenario round on) is caught by the audit in that very round.
#[test]
fn scenario_adversary_is_detected_with_round_latency() {
    let report = run_single(
        Scenario::smoke(42),
        ScenarioHarnessConfig {
            adversary: Some(ScenarioAdversary {
                from_round: 3,
                drop_after_worker: 1,
            }),
            ..Default::default()
        },
    );
    assert!(report.dirty_rounds >= 1);
    assert_eq!(
        report.detection_latency_rounds,
        Some(1),
        "per-round audits catch a slice thief in the onset round"
    );
}

/// Live rule churn **while the sharded service is processing**: a control
/// thread queues §VI-B installs/withdrawals through the session and
/// publishes them as epochs to the same enclaves the worker threads are
/// filtering through.
/// The audit must stay clean — the enclave's logs describe what it
/// actually did, and the verifiers observe what actually happened, so
/// churn itself can never produce a false strike (the churn analogue of
/// the `burst_logging_audit_equivalence` contract).
#[test]
fn mid_run_publish_keeps_audit_clean() {
    const N: usize = 2;
    const RING_CAPACITY: usize = 1 << 14;
    let secret = [7u8; 32];
    let root = AttestationRootKey::new([8u8; 32]);
    let platform = SgxPlatform::new(77, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-churn", 1, vec![0x90; 1 << 12]);
    let master = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh(secret)));
    let ias = AttestationService::new(root);
    let owner = [1u8; 32];
    let victim_prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let client = VictimClient::new(
        owner,
        &[0x42; 32],
        ias.verifier(),
        SessionConfig {
            expected_measurement: image.measurement(),
            tolerance: 0,
        },
    );
    let mut rpki = RpkiRegistry::new();
    rpki.register(victim_prefix, owner);
    let mut session = client
        .establish_contract(Arc::clone(&master), &ias, [0x11; 32], 0)
        .unwrap();
    let keys = session.keys().clone();
    let mut cluster = EnclaveCluster::launch_rss_with(
        platform,
        image,
        master,
        RuleSet::new(),
        N,
        secret,
        keys.sketch_seed,
        keys.audit_key,
    );
    let mut driver = ClusterRoundDriver::new(
        cluster.enclaves().to_vec(),
        keys.sketch_seed,
        keys.audit_key,
        0,
        RoundPolicy::default(),
    );

    // Mixed traffic: half the flows sit in 10/8 (the space the control
    // thread's churned rules cover), half are benign.
    let victim_ip = u32::from_be_bytes([203, 0, 113, 9]);
    let mut tuples = Vec::new();
    for i in 0..128u32 {
        tuples.push(FiveTuple::new(
            0x0a000000 | (i << 8) | 1,
            victim_ip,
            2000 + i as u16,
            80,
            Protocol::Udp,
        ));
        tuples.push(FiveTuple::new(
            0x0b000000 | (i << 8) | 1,
            victim_ip,
            2000 + i as u16,
            80,
            Protocol::Tcp,
        ));
    }
    let traffic = TrafficGenerator::new(5).generate(
        &FlowSet::uniform(tuples),
        TrafficConfig {
            packet_size: 128,
            offered_gbps: 2.0,
            count: 60_000,
        },
    );
    for pkt in &traffic {
        let fp = PacketFingerprints::of(&pkt.tuple);
        driver
            .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, N))
            .observe_fingerprint(fp.src_ip);
    }

    let stages: Vec<EnclaveFilterStage> = cluster
        .enclaves()
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    let forwarded: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());

    // A first batch installed before the run guarantees the filter drops
    // something even if the dataplane outruns the churn loop entirely.
    let first_batch: Vec<FilterRule> = (0..4u32)
        .map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::new(0x0a000000 | (i << 8), 24),
                victim_prefix,
            ))
        })
        .collect();
    session.submit_rules_deferred(&first_batch, &rpki).unwrap();
    let mut installed: Vec<RuleId> = cluster.publish_contract(0, 0).new_rule_ids;

    let churn_rounds = std::thread::scope(|scope| {
        let dataplane = scope.spawn(|| {
            DataplaneService::new(ServiceConfig {
                ring_capacity: RING_CAPACITY,
                burst: 32,
                ..Default::default()
            })
            .run(
                stages,
                |_, pkt: &Packet| forwarded.lock().unwrap().push(pkt.tuple),
                |t: &FiveTuple| shard_of(t, N),
                |svc| {
                    // A window between two barriers is smaller than one
                    // worker's ring, so no scheduling of the worker
                    // threads can make a ring overflow.
                    let mut total = ThreadedReport::default();
                    for window in traffic.chunks(RING_CAPACITY / 2) {
                        total += svc.round(window).total();
                    }
                    total
                },
            )
        });
        // Control thread (this one): churn rules through the session and
        // publish them while the workers are live. Verdicts flip mid-run;
        // the audit must not care.
        let mut rounds = 1u32;
        loop {
            let batch: Vec<FilterRule> = (0..4u32)
                .map(|i| {
                    FilterRule::drop(FlowPattern::prefixes(
                        Ipv4Prefix::new(0x0a000000 | (((rounds * 4 + i) % 128) << 8), 24),
                        victim_prefix,
                    ))
                })
                .collect();
            session.submit_rules_deferred(&batch, &rpki).unwrap();
            installed.extend(cluster.publish_contract(0, 0).new_rule_ids);
            if installed.len() > 8 {
                let drop_ids: Vec<RuleId> = installed.drain(..4).collect();
                session.withdraw_rules_deferred(&drop_ids).unwrap();
                assert_eq!(cluster.publish_contract(0, 0).withdrawals, 4);
            }
            rounds += 1;
            if dataplane.is_finished() {
                break;
            }
        }
        let total = dataplane.join().expect("dataplane thread");
        assert_eq!(total.overflow, 0, "a window never exceeds a ring");
        assert_eq!(total.received, 60_000);
        assert_eq!(total.forwarded + total.filtered, total.received);
        assert!(total.filtered > 0, "churned rules dropped something");
        rounds
    });
    assert!(churn_rounds >= 2, "churn loop never ran");

    // The victim observes exactly what arrived, whatever the interleaving
    // of churn and filtering was.
    for t in forwarded.into_inner().unwrap() {
        let fp = t.tuple_fingerprint();
        driver
            .victim_verifier_mut(shard_of_fingerprint(fp, N))
            .observe_fingerprint(fp);
    }
    let outcome = driver.close_round().expect("authentic exports");
    assert!(
        !outcome.dirty(),
        "rule churn must never audit as a bypass: {outcome:?}"
    );
    assert_eq!(driver.state(), ContractState::Active);
}
