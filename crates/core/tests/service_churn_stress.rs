//! Satellite stress property of epoch publication: a publisher thread
//! continuously churns the rule set (deferred queue +
//! [`EnclaveCluster::publish_contract`]) while the always-on service's
//! workers are live. Two
//! complementary **sentinel flows** make torn classifier reads visible:
//! each published epoch drops exactly one of them, alternating, so within
//! any single filtered burst (the atomicity unit — one enclave-thread
//! entry per burst) the verdicts must be uniform per sentinel and never
//! drop both. A classifier assembled from two epochs would violate one of
//! those invariants.
//!
//! The audit closes clean over the whole run: churn is an execution event,
//! not a bypass, whatever the interleaving.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
    shard_of, shard_of_fingerprint, DataplaneService, FiveTuple, Packet, PacketCounts, PacketStage,
    Protocol, ServiceConfig, StageOutcome, StageVerdict,
};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};
use vif_trie::Ipv4Prefix;

const WORKERS: usize = 2;
const TOTAL_PACKETS: usize = 60_000;
const RING_CAPACITY: usize = 1 << 14;
/// Packets offered between two `flush_round` barriers. Both sentinels
/// share one worker, so a window is that worker's whole load: keeping it
/// under the ring capacity makes overflow impossible by construction,
/// whatever the scheduler does to the worker threads.
const WINDOW: usize = RING_CAPACITY / 2;
/// Packets replayed per keep-hot pass.
const KEEP_HOT: usize = 4096;

/// Per-sentinel verdict tallies plus the torn-read flag, shared between
/// the worker-side detectors and the test body.
#[derive(Default)]
struct SentinelLedger {
    fwd_a: AtomicU64,
    drop_a: AtomicU64,
    fwd_b: AtomicU64,
    drop_b: AtomicU64,
    torn: Mutex<Vec<String>>,
}

/// Wraps the real enclave stage and checks every burst's verdicts against
/// the epoch-atomicity invariants before passing them on.
struct TornReadDetector {
    inner: EnclaveFilterStage,
    a: FiveTuple,
    b: FiveTuple,
    ledger: Arc<SentinelLedger>,
}

impl PacketStage for TornReadDetector {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<StageOutcome>) {
        let start = out.len();
        self.inner.process_batch(pkts, out);
        let burst = &out[start..];

        // Collect the burst's sentinel verdicts.
        let (mut a_fwd, mut a_drop, mut b_fwd, mut b_drop) = (0u64, 0u64, 0u64, 0u64);
        for (pkt, outcome) in pkts.iter().zip(burst) {
            if pkt.tuple == self.a {
                match outcome.verdict {
                    StageVerdict::Forward => a_fwd += 1,
                    StageVerdict::Drop => a_drop += 1,
                }
            } else if pkt.tuple == self.b {
                match outcome.verdict {
                    StageVerdict::Forward => b_fwd += 1,
                    StageVerdict::Drop => b_drop += 1,
                }
            }
        }
        self.ledger.fwd_a.fetch_add(a_fwd, Ordering::Relaxed);
        self.ledger.drop_a.fetch_add(a_drop, Ordering::Relaxed);
        self.ledger.fwd_b.fetch_add(b_fwd, Ordering::Relaxed);
        self.ledger.drop_b.fetch_add(b_drop, Ordering::Relaxed);

        // Invariant 1: within one burst a sentinel's verdict is uniform.
        // Invariant 2: no epoch drops both sentinels, so neither may a
        // burst. (Both forwarded is legal: epoch 0 has no rules.)
        let mut torn = None;
        if a_fwd > 0 && a_drop > 0 {
            torn = Some(format!("sentinel A split {a_fwd} fwd / {a_drop} drop"));
        } else if b_fwd > 0 && b_drop > 0 {
            torn = Some(format!("sentinel B split {b_fwd} fwd / {b_drop} drop"));
        } else if a_drop > 0 && b_drop > 0 {
            torn = Some("both sentinels dropped in one burst".to_string());
        }
        if let Some(msg) = torn {
            self.ledger.torn.lock().unwrap().push(msg);
        }
    }

    fn name(&self) -> &str {
        "torn-read-detector"
    }
}

/// A /32-source drop rule for one sentinel.
fn sentinel_rule(sentinel: FiveTuple, victim: Ipv4Prefix) -> FilterRule {
    FilterRule::drop(FlowPattern::prefixes(
        Ipv4Prefix::new(sentinel.src_ip, 32),
        victim,
    ))
}

#[test]
fn continuous_publish_churn_never_tears_a_burst() {
    let secret = [0x5a; 32];
    let root = AttestationRootKey::new([0x42; 32]);
    let platform = SgxPlatform::new(99, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-stress", 1, vec![0x90; 1 << 12]);
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
    let mut session = client
        .establish_contract(Arc::clone(&master), &ias, [0x11; 32], 0)
        .unwrap();
    let keys = session.keys().clone();
    let mut cluster = EnclaveCluster::launch_rss_with(
        platform,
        image,
        master,
        RuleSet::new(),
        WORKERS,
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

    // The two sentinels, steered to the SAME worker so single bursts can
    // contain both (the complementarity check needs them side by side).
    let victim_ip = u32::from_be_bytes([203, 0, 113, 9]);
    let a = FiveTuple::new(0x0a00_0001, victim_ip, 4000, 80, Protocol::Udp);
    let shard_a = shard_of(&a, WORKERS);
    let b = (2..)
        .map(|i| FiveTuple::new(0x0a00_0000 | i, victim_ip, 4001, 80, Protocol::Udp))
        .find(|t| shard_of(t, WORKERS) == shard_a)
        .unwrap();

    // Traffic: strictly alternating sentinels, so nearly every burst on
    // their shared worker carries both.
    let traffic: Vec<Packet> = (0..TOTAL_PACKETS)
        .map(|i| Packet::new(if i % 2 == 0 { a } else { b }, 128, i as u64, i as u64))
        .collect();
    for pkt in &traffic {
        let fp = PacketFingerprints::of(&pkt.tuple);
        driver
            .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, WORKERS))
            .observe_fingerprint(fp.src_ip);
    }

    let ledger = Arc::new(SentinelLedger::default());
    let stages: Vec<TornReadDetector> = cluster
        .enclaves()
        .iter()
        .map(|e| TornReadDetector {
            inner: EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy),
            a,
            b,
            ledger: Arc::clone(&ledger),
        })
        .collect();
    let forwarded: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
    let done = AtomicBool::new(false);

    // Publisher thread: flip the dropped sentinel every epoch, as fast as
    // the publication path allows, until the dataplane has drained.
    let (total, epochs, extra_passes) = std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            // Let epoch 0 forward both sentinels before the first publish
            // lands, so the forwarded-baseline assertions below cannot
            // race the churn.
            while !done.load(Ordering::Acquire)
                && (ledger.fwd_a.load(Ordering::Relaxed) == 0
                    || ledger.fwd_b.load(Ordering::Relaxed) == 0)
            {
                std::thread::yield_now();
            }
            let mut epochs = 0u64;
            let mut last_rule: Option<RuleId> = None;
            while !done.load(Ordering::Acquire) {
                let target = if epochs.is_multiple_of(2) { a } else { b };
                if let Some(old) = last_rule {
                    session.withdraw_rules_deferred(&[old]).unwrap();
                }
                session
                    .submit_rules_deferred(&[sentinel_rule(target, victim_prefix)], &rpki)
                    .unwrap();
                let report = cluster.publish_contract(0, 0);
                assert_eq!(report.installs, 1);
                last_rule = Some(report.new_rule_ids[0]);
                epochs += 1;
            }
            epochs
        });

        let service = DataplaneService::new(ServiceConfig {
            ring_capacity: RING_CAPACITY,
            ..Default::default()
        });
        let report = service.run(
            stages,
            |_, pkt| forwarded.lock().unwrap().push(pkt.tuple),
            |t: &FiveTuple| shard_of(t, WORKERS),
            |svc| {
                let mut total = PacketCounts::default();
                let mut window = |pkts: &[Packet]| total += svc.round(pkts).total();
                for pkts in traffic.chunks(WINDOW) {
                    window(pkts);
                }
                // Keep the dataplane hot until each sentinel's published
                // rule has bitten at least once — the churn assertions
                // below must not race the publisher. Bounded, so a broken
                // publication path fails loudly instead of hanging.
                let mut extra_passes = 0u64;
                while extra_passes < 200
                    && (ledger.drop_a.load(Ordering::Relaxed) == 0
                        || ledger.drop_b.load(Ordering::Relaxed) == 0)
                {
                    window(&traffic[..KEEP_HOT]);
                    extra_passes += 1;
                }
                (total, extra_passes)
            },
        );
        done.store(true, Ordering::Release);
        let (total, extra_passes) = report;
        (
            total,
            publisher.join().expect("publisher thread"),
            extra_passes,
        )
    });

    // The extra keep-hot passes replayed the head of the traffic; their
    // handover is on the neighbor record like everyone else's.
    for pkt in traffic
        .iter()
        .take(KEEP_HOT)
        .cycle()
        .take(KEEP_HOT * extra_passes as usize)
    {
        let fp = PacketFingerprints::of(&pkt.tuple);
        driver
            .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, WORKERS))
            .observe_fingerprint(fp.src_ip);
    }

    // The workers never stopped forwarding: every offered packet was
    // received and fully accounted, no ring overflow, across many epochs.
    assert_eq!(total.overflow, 0, "a window never exceeds the ring");
    assert_eq!(
        total.received,
        TOTAL_PACKETS as u64 + KEEP_HOT as u64 * extra_passes
    );
    assert_eq!(total.forwarded + total.filtered, total.received);
    assert!(epochs >= 2, "publisher only completed {epochs} epochs");

    // No torn classifier reads: every burst saw exactly one epoch.
    let torn = ledger.torn.lock().unwrap();
    assert!(torn.is_empty(), "torn bursts: {torn:?}");

    // The churn actually bit mid-run (the race is not vacuous) and both
    // sentinels were forwarded at some point (epoch 0 at minimum).
    assert!(ledger.fwd_a.load(Ordering::Relaxed) > 0);
    assert!(ledger.fwd_b.load(Ordering::Relaxed) > 0);
    assert!(
        ledger.drop_a.load(Ordering::Relaxed) + ledger.drop_b.load(Ordering::Relaxed) > 0,
        "no published rule ever filtered a sentinel"
    );

    // And the audit does not care about any of it.
    for t in forwarded.into_inner().unwrap() {
        let fp = t.tuple_fingerprint();
        driver
            .victim_verifier_mut(shard_of_fingerprint(fp, WORKERS))
            .observe_fingerprint(fp);
    }
    let outcome = driver.close_round().expect("authentic exports");
    assert!(
        !outcome.dirty(),
        "epoch churn must never audit as a bypass: {outcome:?}"
    );
    assert_eq!(driver.state(), ContractState::Active);
}
