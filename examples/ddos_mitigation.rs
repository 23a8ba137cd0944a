//! End-to-end DDoS mitigation with a (possibly malicious) filtering IXP.
//!
//! Walks the paper's full deployment story (§VI-B) on the **always-on
//! dataplane service** — one persistent RX/worker/TX pipeline serves every
//! round; the audit happens *around* the live service, not in a one-shot
//! harness:
//! 1. a DNS-amplification attack floods the victim,
//! 2. the victim attests a VIF enclave at the IXP (RPKI-authorized),
//! 3. rules are submitted over the authenticated channel,
//! 4. an honest round through the running service audits clean,
//! 5. a malicious operator that steals traffic before the filter, drops
//!    deliveries after it, and injects around it (§III-B's three bypass
//!    attacks) is caught by the sketch audits — and the victim aborts.
//!
//! ```text
//! cargo run --example ddos_mitigation
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use vif::core::logs::PacketFingerprints;
use vif::core::prelude::*;
use vif::dataplane::{
    shard_of, shard_of_fingerprint, DataplaneService, FlowSet, ServiceConfig, ServiceHandle,
    ThreadedReport, TrafficConfig, TrafficGenerator,
};
use vif::sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};

/// Offers `packets` as one audit round, at most half a ring per flush. A
/// ring that fills counts the packet as `overflow`, which the neighbor
/// audit reads as a drop before the filter: an honest round must have none.
fn offer_round<R: FnMut(&FiveTuple) -> usize>(
    svc: &mut ServiceHandle<'_, '_, R>,
    packets: &[Packet],
) -> ThreadedReport {
    let mut total = ThreadedReport::default();
    for chunk in packets.chunks(ServiceConfig::default().ring_capacity / 2) {
        total += svc.round(chunk).total();
    }
    total
}

fn main() {
    // --- the world -------------------------------------------------------
    let root = AttestationRootKey::new([1u8; 32]); // "Intel"
    let ias = AttestationService::new(root.clone());
    let platform = SgxPlatform::new(1001, EpcConfig::paper_default(), &root); // the IXP's server
    let image = EnclaveImage::new("vif-filter", 1, vec![0x90; 1 << 20]); // open-source build

    let victim_identity = [7u8; 32];
    let victim_prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let mut rpki = RpkiRegistry::new();
    rpki.register(victim_prefix, victim_identity);

    // --- the attack --------------------------------------------------------
    // Amplified DNS responses (UDP src port 53) from reflector hosts.
    let reflectors: Vec<FiveTuple> = (0..500u32)
        .map(|i| {
            FiveTuple::new(
                0x0a000000 + i * 131,
                u32::from_be_bytes([203, 0, 113, 10]),
                53,
                (1024 + i % 50000) as u16,
                Protocol::Udp,
            )
        })
        .collect();
    let traffic = TrafficGenerator::new(3).generate(
        &FlowSet::uniform(reflectors),
        TrafficConfig {
            packet_size: 512,
            offered_gbps: 8.0,
            count: 20_000,
        },
    );
    println!(
        "attack: {} amplified DNS packets toward {victim_prefix}",
        traffic.len()
    );

    // --- session establishment (attestation + channel + rules) -----------
    let victim = vif::core::session::VictimClient::new(
        victim_identity,
        &[0x42; 32],
        ias.verifier(),
        vif::core::session::SessionConfig {
            expected_measurement: image.measurement(),
            tolerance: 0,
        },
    );
    let enclave = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh([5u8; 32])));
    let mut session = victim
        .establish_contract(Arc::clone(&enclave), &ias, [0x33; 32], 0)
        .expect("attestation succeeds for the genuine image");
    println!(
        "attestation: measurement {} verified, ~{:.2}s end-to-end (Appendix G model)",
        image.measurement(),
        session.attestation_latency_ns() as f64 / 1e9
    );

    // Drop all amplified DNS traffic (UDP source port 53) to our prefix.
    let rules = vec![FilterRule::drop(
        FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim_prefix)
            .with_protocol(Protocol::Udp)
            .with_src_port(vif::core::rules::PortRange::exactly(53)),
    )];
    let queued = session
        .submit_rules_deferred(&rules, &rpki)
        .expect("authorized rules");
    // The attested enclave is a one-slice cluster; publishing its epoch is
    // what puts the queued rules in force.
    let keys = session.keys().clone();
    let mut cluster = EnclaveCluster::launch_rss_with(
        platform,
        image,
        Arc::clone(&enclave),
        RuleSet::new(),
        1,
        [5u8; 32],
        keys.sketch_seed,
        keys.audit_key,
    );
    let installed = cluster.publish_contract(0, 0).installs;
    assert_eq!(installed, queued);
    println!("rules: {installed} rule installed over the authenticated channel");

    // --- the always-on service + the audit around it ----------------------
    // One worker stage over the attested enclave; the round driver exports
    // and verifies the enclave's authenticated logs each round, and aborts
    // the contract at the first strike.
    let mut driver = ClusterRoundDriver::new(
        vec![Arc::clone(&enclave)],
        keys.sketch_seed,
        keys.audit_key,
        0,
        RoundPolicy {
            round_duration_ns: 1_000_000,
            max_strikes: 1,
            ..Default::default()
        },
    );
    let stages = vec![EnclaveFilterStage::new(
        Arc::clone(&enclave),
        FilterMode::SgxNearZeroCopy,
    )];

    // The operator's post-filter tampering, switched on between rounds:
    // drop every 10th delivery (and inject — see round 2 below).
    let steal_after = AtomicBool::new(false);
    let delivered: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
    let tally = Mutex::new(0u64);

    DataplaneService::new(ServiceConfig::default()).run(
        stages,
        |_, pkt| {
            let mut n = tally.lock().unwrap();
            *n += 1;
            if steal_after.load(Ordering::Relaxed) && (*n).is_multiple_of(10) {
                return; // stolen on the way to the victim
            }
            delivered.lock().unwrap().push(pkt.tuple);
        },
        |t: &FiveTuple| shard_of(t, 1),
        |svc| {
            // --- round 1: honest operator ---------------------------------
            for pkt in &traffic {
                let fp = PacketFingerprints::of(&pkt.tuple);
                driver
                    .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, 1))
                    .observe_fingerprint(fp.src_ip);
            }
            let honest = offer_round(svc, &traffic);
            for t in delivered.lock().unwrap().drain(..) {
                let fp = PacketFingerprints::of(&t);
                driver
                    .victim_verifier_mut(shard_of_fingerprint(fp.tuple, 1))
                    .observe_fingerprint(fp.tuple);
            }
            let outcome = driver.close_round().expect("authentic logs");
            println!(
                "honest round: {} filtered, {} reached victim, {} overflow, bypass detected = {}",
                honest.filtered,
                honest.forwarded,
                honest.overflow,
                outcome.dirty()
            );
            assert_eq!(honest.overflow, 0, "the honest round filled a ring");
            assert!(!outcome.dirty());

            // --- round 2: malicious operator ------------------------------
            // The IXP steals 30% of the handover before the filter (saving
            // filter capacity), drops 10% of deliveries after it, and
            // injects attack packets around it. The service keeps running —
            // only the operator's behavior changes.
            steal_after.store(true, Ordering::Relaxed);
            for pkt in &traffic {
                // Neighbors attest the full handover...
                let fp = PacketFingerprints::of(&pkt.tuple);
                driver
                    .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, 1))
                    .observe_fingerprint(fp.src_ip);
            }
            // ...but the operator only presents 70% of it to the enclave.
            let presented: Vec<_> = traffic
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 10 >= 3)
                .map(|(_, p)| *p)
                .collect();
            offer_round(svc, &presented);
            // Injection around the filter: spoofed packets appear at the
            // victim without ever transiting the enclave.
            let spoofed = FiveTuple::new(
                0x0b0b0b0b,
                u32::from_be_bytes([203, 0, 113, 10]),
                53,
                4444,
                Protocol::Udp,
            );
            {
                let mut d = delivered.lock().unwrap();
                for _ in 0..500 {
                    d.push(spoofed);
                }
            }
            for t in delivered.lock().unwrap().drain(..) {
                let fp = PacketFingerprints::of(&t);
                driver
                    .victim_verifier_mut(shard_of_fingerprint(fp.tuple, 1))
                    .observe_fingerprint(fp.tuple);
            }
            let outcome = driver.close_round().expect("authentic logs");
            let slice = &outcome.slices[0];
            println!(
                "malicious round: victim audit = {:?}, neighbor audit = {:?}",
                slice.victim_verdict, slice.neighbor_verdict
            );
            assert!(outcome.dirty(), "misbehavior must be caught");
            assert!(matches!(driver.state(), ContractState::Aborted { .. }));
            println!("OK: every bypass attempt was detected; the victim aborts the contract.");
        },
    );
}
