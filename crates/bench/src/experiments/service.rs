//! `service` — activation latency of epoch-based rule publication on the
//! always-on dataplane (beyond the paper).
//!
//! The service keeps its worker threads and rings alive across rule
//! churn: an epoch publication compiles the churned rule set **once**,
//! off the hot path, and every enclave slice swaps to the shared compiled
//! table atomically. This experiment measures what the victim cares
//! about: **activation latency** — the virtual time between requesting a
//! rule install and the first packet that rule actually drops — in-band,
//! against the traffic generator's deterministic arrival clock.
//!
//! Method, per background-rule-set size: start the service over a
//! replicated cluster preloaded with N host rules; stream the first half
//! of a saturating workload (a sentinel source woven through benign
//! flows); mid-stream, queue a drop rule for the sentinel and publish one
//! epoch (wall-clocked); stream the second half and flush. The first
//! enforced packet is the first sentinel arrival after the request — the
//! gap between its timestamp and the request point is the in-band
//! activation latency. Forwarded sentinels after the request would mean
//! the swap left a stale classifier live; the experiment asserts there
//! are none.

use super::{render_table, saturating_traffic, victim_ip, victim_prefix};
use std::sync::{Arc, Mutex};
use vif_core::enclave_app::RuleEdit;
use vif_core::prelude::*;
use vif_dataplane::{shard_of, DataplaneService, FlowSet, ServiceConfig};
use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};
use vif_trie::Ipv4Prefix;

const WORKERS: usize = 2;

/// A cluster of `WORKERS` replicated slices preloaded with `bg` host
/// rules, plus the stages to run them.
fn launch(bg_rules: RuleSet) -> (EnclaveCluster, Vec<EnclaveFilterStage>) {
    let root = AttestationRootKey::new([0xAB; 32]);
    let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-service", 1, vec![0x90; 1 << 16]);
    let cluster = EnclaveCluster::launch_rss(
        platform, image, bg_rules, WORKERS, [0x55; 32], 1234, [0x66; 32],
    );
    let stages = cluster
        .enclaves()
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    (cluster, stages)
}

/// One activation measurement over `bg` background rules. Returns
/// `(publish_wall_us, activation_virtual_ns, sentinels_enforced,
/// forwarded, filtered, park_events)`.
fn measure(bg: usize, duration_ms: u64) -> (f64, u64, u64, u64, u64, u64) {
    let (bg_rules, _) = super::host_rule_list(bg, 9);
    let (mut cluster, stages) = launch(RuleSet::from_rules(bg_rules));

    // The sentinel source the mid-stream rule will drop, woven through
    // benign flows toward the victim.
    let sentinel_src = u32::from_be_bytes([198, 51, 100, 77]);
    let mut flows = vec![FiveTuple::new(
        sentinel_src,
        victim_ip(),
        4000,
        80,
        Protocol::Udp,
    )];
    for i in 0..63u32 {
        flows.push(FiveTuple::new(
            u32::from_be_bytes([192, 0, 2, 1]) + (i << 8),
            victim_ip(),
            (5000 + i) as u16,
            80,
            Protocol::Udp,
        ));
    }
    let traffic = saturating_traffic(&FlowSet::uniform(flows), 128, duration_ms, 21);
    let mid = traffic.len() / 2;
    // The install request lands when the stream position is here.
    let request_ns = traffic[mid - 1].arrival_ns;

    let forwarded_sentinels: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let service = DataplaneService::new(ServiceConfig::default());
    let (report, park_events, publish_us) = service.run(
        stages,
        |_, pkt| {
            if pkt.tuple.src_ip == sentinel_src {
                forwarded_sentinels.lock().unwrap().push(pkt.arrival_ns);
            }
        },
        |t: &FiveTuple| shard_of(t, WORKERS),
        |svc| {
            svc.offer(&traffic[..mid]);

            // Rule-install request: queue the edit on the master and
            // publish one epoch — rebuild off-path, per-slice atomic swap
            // — while the workers stay live on the old classifier.
            let rule = FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::new(sentinel_src, 32),
                victim_prefix(),
            ));
            let start = std::time::Instant::now();
            cluster.enclaves()[0].ecall(move |app| app.queue_edits([RuleEdit::Install(rule)]));
            cluster.publish_contract(0, 0);
            let publish_us = start.elapsed().as_secs_f64() * 1e6;

            svc.offer(&traffic[mid..]);
            let report = svc.flush_round().clone();
            (report, svc.park_events(), publish_us)
        },
    );

    // In-band activation: the first sentinel arrival after the request is
    // the first enforced packet. None of them may have been forwarded.
    let late_forwarded = forwarded_sentinels
        .into_inner()
        .unwrap()
        .into_iter()
        .filter(|&ns| ns > request_ns)
        .count();
    assert_eq!(
        late_forwarded, 0,
        "a sentinel leaked past the published epoch"
    );
    let mut first_enforced = None;
    let mut enforced = 0u64;
    for pkt in &traffic[mid..] {
        if pkt.tuple.src_ip == sentinel_src {
            first_enforced.get_or_insert(pkt.arrival_ns);
            enforced += 1;
        }
    }
    let activation_ns = first_enforced
        .map(|ns| ns - request_ns)
        .expect("the workload always carries sentinels in its second half");
    let total = report.total();
    (
        publish_us,
        activation_ns,
        enforced,
        total.forwarded,
        total.filtered,
        park_events,
    )
}

/// The `service` experiment: activation latency vs. background rule-set
/// size on the always-on dataplane.
pub fn service(quick: bool) -> String {
    let (sizes, duration_ms): (&[usize], u64) = if quick {
        (&[64, 256], 5)
    } else {
        (&[256, 1024, 4096], 30)
    };
    let rows: Vec<Vec<String>> = sizes
        .iter()
        .map(|&bg| {
            let (publish_us, activation_ns, enforced, forwarded, filtered, parks) =
                measure(bg, duration_ms);
            vec![
                bg.to_string(),
                format!("{publish_us:.1}"),
                activation_ns.to_string(),
                enforced.to_string(),
                forwarded.to_string(),
                filtered.to_string(),
                parks.to_string(),
            ]
        })
        .collect();
    render_table(
        "Service — epoch publication on the always-on dataplane: rule-install → first enforced packet",
        &[
            "bg rules",
            "publish wall µs",
            "activation ns (virtual)",
            "enforced sentinels",
            "forwarded",
            "filtered",
            "park events",
        ],
        &rows,
    )
}
