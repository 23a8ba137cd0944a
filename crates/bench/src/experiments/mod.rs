//! One module per paper artifact.

pub mod ablations;
pub mod attest;
pub mod chaos;
pub mod dataplane;
pub mod heal;
pub mod ixp;
pub mod multivictim;
pub mod scenario;
pub mod service;
pub mod solver;
pub mod telemetry;

use vif_core::prelude::*;
use vif_dataplane::{FlowSet, Packet, TrafficConfig, TrafficGenerator};
use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};
use vif_trie::Ipv4Prefix;

/// The victim prefix used across the data-plane experiments.
pub fn victim_prefix() -> Ipv4Prefix {
    "203.0.113.0/24".parse().unwrap()
}

/// The victim address attack traffic targets.
pub fn victim_ip() -> u32 {
    u32::from_be_bytes([203, 0, 113, 7])
}

/// Builds `k` per-source host rules (the per-flow filtering workload of
/// Fig. 3: each rule pins one attack source, stored in the multi-bit trie).
pub fn host_rules(k: usize, seed: u64) -> (RuleSet, FlowSet) {
    let (rules, flows) = host_rule_list(k, seed);
    (RuleSet::from_rules(rules), FlowSet::uniform(flows))
}

/// The raw rule/flow lists behind [`host_rules`], for callers that need
/// the rules themselves (e.g. to measure `RuleSet::from_rules`).
pub fn host_rule_list(k: usize, seed: u64) -> (Vec<FilterRule>, Vec<FiveTuple>) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rules = Vec::with_capacity(k);
    let mut flows = Vec::with_capacity(k);
    for _ in 0..k {
        let src: u32 = rng.gen();
        rules.push(FilterRule::drop(FlowPattern::prefixes(
            Ipv4Prefix::host(src),
            victim_prefix(),
        )));
        flows.push(FiveTuple::new(
            src,
            victim_ip(),
            rng.gen_range(1024..u16::MAX),
            rng.gen_range(1..1024),
            Protocol::Udp,
        ));
    }
    (rules, flows)
}

/// The Fig. 14 hash-filter workload: one probabilistic rule over the
/// victim prefix — every verdict pays the SHA-256 hash path — plus a
/// 4096-flow set toward the victim.
pub fn fig14_hash_workload() -> (StatelessFilter, Vec<FiveTuple>) {
    let rule = FilterRule::drop_fraction(
        FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim_prefix()),
        0.5,
    );
    let filter = StatelessFilter::new(RuleSet::from_rules([rule]), [7u8; 32]);
    let flows = FlowSet::random_toward_victim(4096, victim_ip(), 3);
    (filter, flows.flows().to_vec())
}

/// The hybrid filter over `stateless`, warmed to steady state on
/// `tuples`: it has seen the working set twice (admission) and promoted it
/// to exact-match entries. Steady state is what the paper's Fig. 14 sweep
/// measures and where batch effects matter at line rate.
pub fn steady_state_hybrid(stateless: &StatelessFilter, tuples: &[FiveTuple]) -> HybridFilter {
    let mut hybrid = HybridFilter::new(stateless.clone(), 100_000);
    for _ in 0..2 {
        for t in tuples {
            hybrid.decide(t);
        }
    }
    hybrid.apply_update_period();
    hybrid
}

/// Launches a single filter enclave preloaded with `ruleset`.
pub fn launch_filter(ruleset: RuleSet) -> std::sync::Arc<vif_sgx::Enclave<FilterEnclaveApp>> {
    let root = AttestationRootKey::new([0xAA; 32]);
    let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-filter", 1, vec![0x90; 1 << 20]);
    let app = FilterEnclaveApp::new(ruleset, [0x55; 32], 1234, [0x66; 32]);
    std::sync::Arc::new(platform.launch(image, app))
}

/// Generates a saturating CBR workload over `flows`.
pub fn saturating_traffic(
    flows: &FlowSet,
    packet_size: u16,
    duration_ms: u64,
    seed: u64,
) -> Vec<Packet> {
    TrafficGenerator::new(seed).generate(
        flows,
        TrafficConfig::saturating_10g(packet_size, duration_ms),
    )
}

/// Formats a markdown-style table.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = format!("## {title}\n\n");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let body: Vec<String> = cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        format!("| {} |\n", body.join(" | "))
    };
    out.push_str(&fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
    ));
    out.push_str(&format!(
        "|{}|\n",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    ));
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
    }
    out
}
