//! Satellite property of the always-on service: for any worker count and
//! mid-stream rule churn, the persistent-service path (one
//! [`DataplaneService`], rounds as messages) produces **identical**
//! verdicts, per-round dataplane reports, forwarded packet sets, and
//! audited log exports to the tear-down-per-round reference (a fresh
//! one-round service every round) on the same seed. Both churn the one
//! way rules change: the session's deferred queue, then one epoch
//! publication.
//!
//! This is the contract that lets the scenario engine ride the service:
//! keeping the workers alive across rounds and publications is an
//! execution-strategy change, not a semantic one.

use std::sync::{Arc, Mutex};
use vif_core::cost::FilterMode;
use vif_core::enclave_app::{EnclaveFilterStage, FilterEnclaveApp};
use vif_core::logs::PacketFingerprints;
use vif_core::rounds::{ClusterRoundDriver, ClusterRoundOutcome, ContractState, RoundPolicy};
use vif_core::rpki::RpkiRegistry;
use vif_core::rules::{FilterRule, FlowPattern};
use vif_core::ruleset::{RuleId, RuleSet};
use vif_core::scale::EnclaveCluster;
use vif_core::session::{FilteringSession, SessionConfig, VictimClient};
use vif_dataplane::{
    shard_of, shard_of_fingerprint, DataplaneService, FiveTuple, FlowSet, Packet, Protocol,
    ServiceConfig, ShardedReport, TrafficConfig, TrafficGenerator,
};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};
use vif_trie::Ipv4Prefix;

const ROUNDS: usize = 3;
const PACKETS_PER_ROUND: usize = 4_000;

/// Everything observable about one audited round.
#[derive(Debug, PartialEq)]
struct RoundRecord {
    dataplane: ShardedReport,
    /// Forwarded five tuples, sorted (TX delivery order is scheduling
    /// noise; the multiset is the semantic content).
    forwarded: Vec<FiveTuple>,
    outcome: ClusterRoundOutcome,
    state: ContractState,
}

/// One independently launched environment: cluster, session, driver, all
/// derived from the seed so two environments are identical twins.
struct Env {
    cluster: EnclaveCluster,
    session: FilteringSession,
    rpki: RpkiRegistry,
    driver: ClusterRoundDriver,
    victim_prefix: Ipv4Prefix,
}

fn build_env(n: usize, seed: u64) -> Env {
    let secret = [seed as u8; 32];
    let root = AttestationRootKey::new([0x42; 32]);
    let platform = SgxPlatform::new(seed, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-equiv", 1, vec![0x90; 1 << 12]);
    let master = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh(secret)));
    let ias = AttestationService::new(root);
    let owner = [1u8; 32];
    let victim_prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let client = VictimClient::new(
        owner,
        &[0x24; 32],
        ias.verifier(),
        SessionConfig {
            expected_measurement: image.measurement(),
            tolerance: 0,
        },
    );
    let mut rpki = RpkiRegistry::new();
    rpki.register(victim_prefix, owner);
    let session = client
        .establish_contract(Arc::clone(&master), &ias, [0x11; 32], 0)
        .unwrap();
    let keys = session.keys().clone();
    let cluster = EnclaveCluster::launch_rss_with(
        platform,
        image,
        master,
        RuleSet::new(),
        n,
        secret,
        keys.sketch_seed,
        keys.audit_key,
    );
    let driver = ClusterRoundDriver::new(
        cluster.enclaves().to_vec(),
        keys.sketch_seed,
        keys.audit_key,
        0,
        RoundPolicy::default(),
    );
    Env {
        cluster,
        session,
        rpki,
        driver,
        victim_prefix,
    }
}

/// Deterministic per-round traffic: half the flows live in 10/8 (the
/// space churned rules cover), half elsewhere, re-keyed per round so the
/// rounds are distinct.
fn round_traffic(seed: u64, round: usize) -> Vec<Packet> {
    let victim_ip = u32::from_be_bytes([203, 0, 113, 9]);
    let mut tuples = Vec::new();
    for i in 0..64u32 {
        tuples.push(FiveTuple::new(
            0x0a000000 | (i << 8) | (round as u32 + 1),
            victim_ip,
            2000 + i as u16,
            80,
            Protocol::Udp,
        ));
        tuples.push(FiveTuple::new(
            0x0b000000 | (i << 8) | (round as u32 + 1),
            victim_ip,
            3000 + i as u16,
            443,
            Protocol::Tcp,
        ));
    }
    TrafficGenerator::new(seed ^ (round as u64).wrapping_mul(0x9e37)).generate(
        &FlowSet::uniform(tuples),
        TrafficConfig {
            packet_size: 128,
            offered_gbps: 2.0,
            count: PACKETS_PER_ROUND,
        },
    )
}

/// The churn plan applied between rounds (after round 0 and 1): a batch
/// of installs, then — once rules exist — a withdrawal of the oldest.
fn churn_rules(victim_prefix: Ipv4Prefix, round: usize) -> Vec<FilterRule> {
    (0..4u32)
        .map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::new(0x0a000000 | ((round as u32 * 4 + i) << 8), 24),
                victim_prefix,
            ))
        })
        .collect()
}

/// Observes one round's offered traffic on the neighbor side.
fn observe_neighbors(driver: &mut ClusterRoundDriver, traffic: &[Packet], n: usize) {
    for pkt in traffic {
        let fp = PacketFingerprints::of(&pkt.tuple);
        driver
            .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, n))
            .observe_fingerprint(fp.src_ip);
    }
}

/// Observes what the victim received and closes the audited round.
fn close_round(
    driver: &mut ClusterRoundDriver,
    forwarded: &[FiveTuple],
    n: usize,
) -> (ClusterRoundOutcome, ContractState) {
    for t in forwarded {
        let fp = t.tuple_fingerprint();
        driver
            .victim_verifier_mut(shard_of_fingerprint(fp, n))
            .observe_fingerprint(fp);
    }
    let outcome = driver.close_round().expect("authentic slice exports");
    (outcome, driver.state())
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        ring_capacity: 1 << 14,
        burst: 32,
        ..Default::default()
    }
}

/// Mid-stream churn between `round` and the next: queue through the
/// session, publish one compiled epoch to every slice.
fn churn(env: &mut Env, round: usize) {
    if round >= 1 {
        let stale: Vec<RuleId> = vec![0, 1];
        env.session.withdraw_rules_deferred(&stale).unwrap();
    }
    env.session
        .submit_rules_deferred(&churn_rules(env.victim_prefix, round), &env.rpki)
        .unwrap();
    let report = env.cluster.publish_contract(0, 0);
    assert_eq!(report.installs, 4);
    assert_eq!(report.withdrawals, if round >= 1 { 2 } else { 0 });
}

/// Tear-down-per-round baseline: fresh service threads every round, the
/// churn published while no worker runs.
fn run_baseline(n: usize, seed: u64) -> Vec<RoundRecord> {
    let mut env = build_env(n, seed);
    let mut records = Vec::new();
    for round in 0..ROUNDS {
        let traffic = round_traffic(seed, round);
        observe_neighbors(&mut env.driver, &traffic, n);

        let stages: Vec<EnclaveFilterStage> = env
            .cluster
            .enclaves()
            .iter()
            .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
            .collect();
        let sink: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
        let dataplane = DataplaneService::new(service_config()).run(
            stages,
            |_, pkt: &Packet| sink.lock().unwrap().push(pkt.tuple),
            move |t: &FiveTuple| shard_of(t, n),
            |svc| svc.round(&traffic).clone(),
        );
        let mut forwarded = sink.into_inner().unwrap();
        let (outcome, state) = close_round(&mut env.driver, &forwarded, n);
        forwarded.sort();
        records.push(RoundRecord {
            dataplane,
            forwarded,
            outcome,
            state,
        });

        if round + 1 < ROUNDS {
            churn(&mut env, round);
        }
    }
    records
}

/// Always-on service path: ONE set of worker threads for all rounds, the
/// churn published while they run.
fn run_service(n: usize, seed: u64) -> Vec<RoundRecord> {
    let mut env = build_env(n, seed);
    let stages: Vec<EnclaveFilterStage> = env
        .cluster
        .enclaves()
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    let sink: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
    DataplaneService::new(service_config()).run(
        stages,
        |_, pkt| sink.lock().unwrap().push(pkt.tuple),
        move |t: &FiveTuple| shard_of(t, n),
        |svc| {
            let mut records = Vec::new();
            for round in 0..ROUNDS {
                let traffic = round_traffic(seed, round);
                observe_neighbors(&mut env.driver, &traffic, n);

                let dataplane = svc.round(&traffic).clone();
                let mut forwarded: Vec<FiveTuple> = sink.lock().unwrap().drain(..).collect();
                let (outcome, state) = close_round(&mut env.driver, &forwarded, n);
                forwarded.sort();
                records.push(RoundRecord {
                    dataplane,
                    forwarded,
                    outcome,
                    state,
                });

                // The workers above never stop for the publication.
                if round + 1 < ROUNDS {
                    churn(&mut env, round);
                }
            }
            records
        },
    )
}

/// The satellite property: one always-on service ≡ a service torn down
/// every round, both churning through deferred queue + epoch publication,
/// for N ∈ {1, 2, 4} workers, on the same seed.
#[test]
fn always_on_service_equals_torn_down_service() {
    for n in [1usize, 2, 4] {
        let seed = 0xe9_u64 ^ (n as u64);
        let baseline = run_baseline(n, seed);
        let service = run_service(n, seed);
        assert_eq!(baseline.len(), service.len());
        for (round, (b, s)) in baseline.iter().zip(&service).enumerate() {
            assert_eq!(
                b.dataplane, s.dataplane,
                "n={n} round={round}: dataplane report diverged"
            );
            assert_eq!(
                b.forwarded, s.forwarded,
                "n={n} round={round}: forwarded set diverged"
            );
            assert_eq!(
                b.outcome, s.outcome,
                "n={n} round={round}: audited exports diverged"
            );
            assert_eq!(b.state, s.state, "n={n} round={round}: contract state");
            assert!(!b.outcome.dirty(), "honest runs must audit clean");
        }
        // The churned rules actually dropped traffic in later rounds —
        // the equivalence is not vacuous.
        assert!(
            service.last().unwrap().dataplane.total().filtered > 0,
            "n={n}: churned rules never filtered anything"
        );
    }
}

/// A misprogrammed (or compromised) RSS stage that rotates 30 % of flows
/// to the next worker loses no packet, yet the verifiers — attributing by
/// the public steering hash — see every affected slice's logs disagree:
/// steering integrity is enforced by the audit alone.
#[test]
fn misrouting_steering_dirties_the_audit() {
    let n = 4;
    let mut env = build_env(n, 0x5e);
    let traffic = round_traffic(0x5e, 0);
    observe_neighbors(&mut env.driver, &traffic, n);
    let stages: Vec<EnclaveFilterStage> = env
        .cluster
        .enclaves()
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    let misroute = move |t: &FiveTuple| {
        let fp = t.tuple_fingerprint();
        let honest = shard_of_fingerprint(fp, n);
        // A different slice of the hash than steering reduces: ~30 % of
        // flows, deterministically.
        if (fp >> 17) % 10 < 3 {
            (honest + 1) % n
        } else {
            honest
        }
    };
    let sink: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
    let dataplane = DataplaneService::new(service_config()).run(
        stages,
        |_, pkt: &Packet| sink.lock().unwrap().push(pkt.tuple),
        misroute,
        |svc| svc.round(&traffic).clone(),
    );
    let (outcome, state) = close_round(&mut env.driver, &sink.into_inner().unwrap(), n);
    assert!(outcome.dirty(), "misrouted slices must audit dirty");
    assert_eq!(state, ContractState::Aborted { strikes: 1 });
    // No packet was lost in the data plane itself.
    let total = dataplane.total();
    assert_eq!(total.received, PACKETS_PER_ROUND as u64);
    assert_eq!(total.overflow, 0);
    assert_eq!(total.forwarded + total.filtered, total.received);
}

/// The live service runs no update period between epoch installs, so the
/// hybrid filter's promotion queue must bound itself. Many rounds of fresh
/// flows under a 50 % probabilistic rule, with no churn, hash-decide more
/// flows than the cache holds. When none of them comes back, none is seen
/// twice and the enclave's queue stays empty; when every flow sends two
/// packets back to back, every flow qualifies and the queue fills up to
/// the cap, and no further.
#[test]
fn serving_path_bounds_the_promotion_queue() {
    let (peak, cap) = pending_peak(1);
    assert_eq!(peak, 0, "pending peaked at {peak} flows, cap {cap}");
    let (peak, cap) = pending_peak(2);
    assert!(
        0 < peak && peak <= cap,
        "pending peaked at {peak} flows, cap {cap}"
    );
}

/// Serves fresh flows, each sending `copies` packets back to back, until
/// more distinct flows were hash-decided than the cache holds; returns
/// the enclave's peak promotion-queue length and the cache's capacity.
fn pending_peak(copies: usize) -> (usize, usize) {
    let victim: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let rules = RuleSet::from_rules([FilterRule::drop_fraction(
        FlowPattern::prefixes(Ipv4Prefix::default_route(), victim),
        0.5,
    )]);
    let root = AttestationRootKey::new([0x42; 32]);
    let platform = SgxPlatform::new(7, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-pending", 1, vec![0x90; 1 << 12]);
    let app = FilterEnclaveApp::new(rules, [5u8; 32], 3, [2u8; 32]);
    let enclave = Arc::new(platform.launch(image, app));
    let cap = enclave.ecall(|app| app.hybrid().max_cached_flows());
    let per_round = 1usize << 16;
    let flows_per_round = per_round / copies;
    let rounds = cap / flows_per_round + 2;
    let dst = u32::from_be_bytes([203, 0, 113, 7]);
    // A ring that holds a whole round: no packet overflows undecided.
    let service = DataplaneService::new(ServiceConfig {
        ring_capacity: per_round,
        ..Default::default()
    });
    let peak = service.run(
        vec![EnclaveFilterStage::new(
            Arc::clone(&enclave),
            FilterMode::SgxNearZeroCopy,
        )],
        |_, _| {},
        |_: &FiveTuple| 0,
        |svc| {
            let mut peak = 0;
            for r in 0..rounds {
                let traffic: Vec<Packet> = (0..per_round)
                    .map(|i| {
                        let n = (r * flows_per_round + i / copies) as u32;
                        let t = FiveTuple::new(0x0a00_0000 + n, dst, 1024, 80, Protocol::Udp);
                        Packet::new(t, 64, u64::from(n), u64::from(n))
                    })
                    .collect();
                svc.round(&traffic);
                peak = peak.max(enclave.ecall(|app| app.hybrid().pending_flows()));
            }
            peak
        },
    );
    let hashed = enclave.ecall(|app| app.hybrid().stats().hash_decisions);
    assert!(
        hashed > (cap * copies) as u64,
        "only {hashed} hash decisions, cap {cap}"
    );
    (peak, cap)
}
