//! Scale-out: filtering 100 Gb/s with a pool of 10 Gb/s enclaves (§IV).
//!
//! Shows the paper's rule-partitioned pool end to end: greedy rule
//! distribution, connection-preserving dispatch through the untrusted load
//! balancer, detection of a misbehaving load balancer, and a Fig. 5
//! master–slave repartition round after the traffic mix shifts. The pool is
//! a paper experiment (`vif_bench::partitioned`); the live service runs the
//! replicated `EnclaveCluster` instead.
//!
//! ```text
//! cargo run --release --example scaling_enclaves
//! ```

use vif::core::prelude::*;
use vif::sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};
use vif_bench::partitioned::{LoadBalancerBehavior, PartitionedPool};

fn attack_tuple(rule: u32, flow: u32) -> FiveTuple {
    FiveTuple::new(
        0x0a000000 + (rule << 8) + (flow % 250),
        u32::from_be_bytes([203, 0, 113, 1]),
        (1000 + flow % 50_000) as u16,
        80,
        Protocol::Udp,
    )
}

fn main() {
    let victim: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let k = 2000usize;

    // 2,000 source-prefix rules expected to carry ~100 Gb/s in total.
    let ruleset = RuleSet::from_rules((0..k as u32).map(|i| {
        FilterRule::drop(FlowPattern::prefixes(
            Ipv4Prefix::new(0x0a000000 + (i << 8), 24),
            victim,
        ))
    }));

    let root = AttestationRootKey::new([1u8; 32]);
    let platform = SgxPlatform::new(2002, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-filter", 1, vec![0x90; 1 << 20]);

    let mut cluster = PartitionedPool::launch(
        platform,
        image,
        ruleset,
        vec![100.0 / k as f64; k], // uniform initial estimates
        [7u8; 32],
        99,
        [8u8; 32],
        LoadBalancerBehavior::Honest,
    );
    println!(
        "cluster: {} enclaves for {k} rules / 100 Gb/s (per-enclave caps: 10 Gb/s, EPC 92 MB)",
        cluster.enclaves().len()
    );

    // --- steady state ------------------------------------------------------
    let mut filtered = 0u64;
    for r in 0..200u32 {
        for f in 0..5 {
            let (action, _) = cluster.process(&attack_tuple(r, f), 512);
            if action == vif::core::rules::RuleAction::Drop {
                filtered += 1;
            }
        }
    }
    println!("steady state: {filtered}/1000 attack packets dropped, 0 misroutes");
    assert_eq!(cluster.misrouted_total(), 0);

    // --- the traffic mix shifts: rule 0 becomes an elephant -----------------
    for f in 0..5000u32 {
        cluster.process(&attack_tuple(0, f), 1500);
    }
    let report = cluster.repartition(0);
    println!(
        "redistribution (Fig. 5): master=E{}, {} enclaves in use, {} installations, solved in {:?}",
        report.master, report.enclaves_used, report.installations, report.solve_time
    );

    // Rules still enforced afterwards.
    for r in 0..200u32 {
        let (action, _) = cluster.process(&attack_tuple(r, 9), 64);
        assert_eq!(action, vif::core::rules::RuleAction::Drop);
    }
    println!(
        "post-redistribution: all rules still enforced, {} misroutes",
        cluster.misrouted_total()
    );

    // --- a malicious load balancer ------------------------------------------
    let root = AttestationRootKey::new([1u8; 32]);
    let platform = SgxPlatform::new(2003, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-filter", 1, vec![0x90; 1 << 20]);
    let ruleset = RuleSet::from_rules((0..k as u32).map(|i| {
        FilterRule::drop(FlowPattern::prefixes(
            Ipv4Prefix::new(0x0a000000 + (i << 8), 24),
            victim,
        ))
    }));
    let evil = PartitionedPool::launch(
        platform,
        image,
        ruleset,
        vec![100.0 / k as f64; k],
        [7u8; 32],
        99,
        [8u8; 32],
        LoadBalancerBehavior::MisrouteFraction(0.3),
    );
    for r in 0..200u32 {
        for f in 0..5 {
            evil.process(&attack_tuple(r, f), 512);
        }
    }
    println!(
        "malicious LB (30% misroute): enclaves flagged {} misrouted packets -> reported to victim",
        evil.misrouted_total()
    );
    assert!(evil.misrouted_total() > 0);
    println!("OK: untrusted-component misbehavior is detectable from inside the enclaves.");
}
