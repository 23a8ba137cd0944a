//! Internet-scale deployment study (§VI): how much of a real attack can a
//! handful of VIF-enabled IXPs absorb?
//!
//! Builds a synthetic Internet (5 regions, tiered AS topology), instantiates
//! the paper's Table III IXPs, floods a victim from a Mirai-style botnet,
//! and sweeps Top-1..Top-5 IXP deployments per region. The covered share
//! of the flood is then pushed through a **live [`DataplaneService`]** at
//! one modeled IXP — the always-on RX/worker/TX pipeline over enclave
//! filter stages — to show the absorbed volume at the packet level. Also
//! demonstrates the Appendix B BGP-poisoning localization of a
//! packet-dropping intermediate AS.
//!
//! ```text
//! cargo run --release --example ixp_deployment
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vif::core::cost::FilterMode;
use vif::core::enclave_app::{EnclaveFilterStage, FilterEnclaveApp};
use vif::core::rules::{FilterRule, FlowPattern};
use vif::core::ruleset::RuleSet;
use vif::dataplane::{
    shard_of, DataplaneService, FiveTuple, FlowSet, Packet, PacketCounts, Protocol, ServiceConfig,
    ServiceHandle, TrafficConfig, TrafficGenerator,
};
use vif::interdomain::prelude::*;
use vif::sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};

/// Offers `packets` at most half a ring per flush. A ring that fills
/// counts the packet as `overflow` — lost before the filter — so a round
/// larger than a ring would make the absorbed counts depend on scheduling.
fn offer_round<R: FnMut(&FiveTuple) -> usize>(
    svc: &mut ServiceHandle<'_, '_, R>,
    packets: &[Packet],
) -> PacketCounts {
    let mut total = PacketCounts::default();
    for chunk in packets.chunks(ServiceConfig::default().ring_capacity / 2) {
        total += svc.round(chunk).total();
    }
    total
}

fn main() {
    // --- the synthetic Internet -------------------------------------------
    let topo = TopologyConfig::paper_scale().build(7);
    let catalog = IxpCatalog::generate(&topo, 1.0, 7);
    println!(
        "topology: {} ASes ({} T1 / {} T2 / {} T3), {} IXPs from Table III",
        topo.len(),
        topo.tier1_ases().len(),
        topo.tier2_ases().len(),
        topo.tier3_ases().len(),
        catalog.ixps().len()
    );

    // --- the botnet --------------------------------------------------------
    let model = AttackSourceModel::MiraiBotnet;
    let sources = model.distribute(&topo, model.paper_source_count(), 8);
    println!(
        "attack: {} Mirai bots across {} ASes (regionally skewed)",
        sources.total(),
        sources.as_count()
    );

    // --- coverage sweep ----------------------------------------------------
    let experiment = CoverageExperiment {
        victims: 200,
        max_top_n: 5,
        seed: 9,
    };
    let result = experiment.run(&topo, &catalog, &sources);
    println!("\nFig. 11-style sweep (fraction of bot traffic crossing a VIF IXP):");
    for n in 1..=5 {
        let s = result.stats(n);
        println!(
            "  Top-{n} IXPs/region ({:2} IXPs): median {:.0}%, q1 {:.0}%, q3 {:.0}%",
            n * 5,
            s.median * 100.0,
            s.q1 * 100.0,
            s.q3 * 100.0
        );
    }

    // --- the dataplane at one IXP ------------------------------------------
    // The sweep says what *fraction* of bot volume crosses a VIF IXP; run
    // that share through the live service to see it absorbed in packets.
    // One IXP server, two enclave filter slices, one drop rule covering
    // the botnet's address space toward the victim prefix.
    let covered = result.stats(5).median;
    let victim_prefix = "203.0.113.0/24".parse().unwrap();
    let drop_bots = FilterRule::drop(FlowPattern::prefixes(
        "10.0.0.0/8".parse().unwrap(),
        victim_prefix,
    ));
    let root = AttestationRootKey::new([2u8; 32]);
    let platform = SgxPlatform::new(2002, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-filter", 1, vec![0x90; 1 << 20]);
    let workers = 2usize;
    let stages: Vec<EnclaveFilterStage> = (0..workers)
        .map(|_| {
            let app =
                FilterEnclaveApp::new(RuleSet::from_rules([drop_bots]), [6u8; 32], 11, [13u8; 32]);
            EnclaveFilterStage::new(
                Arc::new(platform.launch(image.clone(), app)),
                FilterMode::SgxNearZeroCopy,
            )
        })
        .collect();

    // The flood that crosses this IXP: the covered share of 40k bot
    // packets, riding alongside legitimate user traffic that must pass.
    let victim_host = u32::from_be_bytes([203, 0, 113, 10]);
    let bots: Vec<FiveTuple> = (0..800u32)
        .map(|i| {
            FiveTuple::new(
                0x0a000000 + i * 9973,
                victim_host,
                (1024 + i % 50000) as u16,
                80,
                Protocol::Tcp,
            )
        })
        .collect();
    let users: Vec<FiveTuple> = (0..200u32)
        .map(|i| {
            FiveTuple::new(
                0x50000000 + i * 7919,
                victim_host,
                (2048 + i % 40000) as u16,
                443,
                Protocol::Tcp,
            )
        })
        .collect();
    let mut gen = TrafficGenerator::new(17);
    let bot_count = (40_000.0 * covered) as usize;
    let mut traffic = gen.generate(
        &FlowSet::uniform(bots),
        TrafficConfig {
            packet_size: 512,
            offered_gbps: 8.0,
            count: bot_count,
        },
    );
    traffic.extend(gen.generate(
        &FlowSet::uniform(users),
        TrafficConfig {
            packet_size: 512,
            offered_gbps: 0.5,
            count: 4_000,
        },
    ));

    let delivered = AtomicU64::new(0);
    let absorbed = DataplaneService::new(ServiceConfig::default()).run(
        stages,
        |_, _| {
            delivered.fetch_add(1, Ordering::Relaxed);
        },
        move |t: &FiveTuple| shard_of(t, workers),
        |svc| offer_round(svc, &traffic),
    );
    println!(
        "\nlive IXP dataplane: Top-5 coverage ({:.0}% of bot volume) = {} bot packets \
         absorbed at the filter; {} packets delivered ({} legitimate offered)",
        covered * 100.0,
        absorbed.filtered,
        delivered.load(Ordering::Relaxed),
        4_000,
    );
    assert_eq!(absorbed.overflow, 0, "no packet lost before the filter");
    assert_eq!(
        absorbed.filtered, bot_count as u64,
        "every covered bot packet dropped"
    );
    assert_eq!(
        absorbed.forwarded, 4_000,
        "every legitimate packet delivered"
    );

    // --- Appendix B: localizing a dropper -----------------------------------
    // After a clean VIF audit, packets still go missing: some intermediate
    // AS is dropping them. The victim reroutes around candidates one by one.
    let victim = result.victims[0];
    let routes = compute_routes(&topo, victim);
    let src = *sources
        .counts()
        .iter()
        .map(|(a, _)| a)
        .find(|&&a| {
            routes
                .path(a)
                .map(|p| p.len() >= 4) // need an intermediate AS to blame
                .unwrap_or(false)
        })
        .expect("some source with a long path");
    let path = routes.path(src).unwrap();
    let culprit = path[path.len() / 2];
    println!(
        "\nAppendix B: traffic {src} -> {victim} takes path {:?}; {culprit} silently drops",
        path
    );
    let oracle = move |p: &[AsId]| p.contains(&culprit);
    match localize_dropper(&topo, victim, src, &oracle) {
        LocalizeOutcome::Dropper(found) => {
            println!("BGP-poisoning test localized the dropper: {found}");
            assert_eq!(found, culprit);
        }
        other => println!("localization outcome: {other:?}"),
    }
}

use vif::interdomain::poison::LocalizeOutcome;
