//! Ablations of the design choices DESIGN.md calls out.

use super::{host_rules, launch_filter, render_table, saturating_traffic, victim_prefix};
use crate::model::{run_enclave, CostModel};
use vif_core::cost::FilterMode;
use vif_core::prelude::*;
use vif_optimizer::greedy::GreedySolver;
use vif_optimizer::instances::lognormal_instance;
use vif_sketch::{compare, CountMinSketch, SketchConfig};

/// Copy-strategy ablation: what each part of the near-zero-copy design is
/// worth at 64 B (line-rate pressure), including a no-sketch variant that
/// quantifies the accountability cost.
pub fn ablation_copy(duration_ms: u64) -> String {
    let cases: Vec<(&str, FilterMode, CostModel)> = vec![
        (
            "native, no SGX",
            FilterMode::Native,
            CostModel::paper_default(),
        ),
        (
            "SGX full packet copy",
            FilterMode::SgxFullCopy,
            CostModel::paper_default(),
        ),
        (
            "SGX near zero copy (VIF)",
            FilterMode::SgxNearZeroCopy,
            CostModel::paper_default(),
        ),
        (
            "SGX near zero copy, no packet logs",
            FilterMode::SgxNearZeroCopy,
            {
                let mut m = CostModel::paper_default();
                m.sketch_ns = 0.0;
                m
            },
        ),
    ];
    let rows: Vec<Vec<String>> = cases
        .into_iter()
        .map(|(name, mode, cost)| {
            let (ruleset, flows) = host_rules(3000, 42);
            let enclave = launch_filter(ruleset);
            let traffic = saturating_traffic(&flows, 64, duration_ms, 17);
            let mut stage = EnclaveFilterStage::new(enclave, mode);
            let report = run_enclave(&traffic, &mut stage, &cost);
            vec![
                name.to_string(),
                format!("{:.2}", report.throughput_mpps()),
                format!("{:.2}", report.wire_throughput_gbps()),
            ]
        })
        .collect();
    render_table(
        "Ablation — copy strategy and packet-log cost (64 B, 3,000 rules)",
        &["variant", "Mpps", "Gb/s (wire)"],
        &rows,
    )
}

/// Connection-preserving execution ablation (Appendix A): hash-based vs.
/// exact-match vs. hybrid, measured on the real data structures.
pub fn ablation_conn(flows: usize) -> String {
    use vif_dataplane::FlowSet;
    let rule = FilterRule::drop_fraction(
        FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim_prefix()),
        0.5,
    );
    let fs = FlowSet::random_toward_victim(flows, super::victim_ip(), 23);
    let packets_per_flow = 20usize;

    let mut rows = Vec::new();

    // Hash-based: every packet pays the SHA-256.
    {
        let filter = StatelessFilter::new(RuleSet::from_rules([rule]), [9u8; 32]);
        let start = std::time::Instant::now();
        let mut drops = 0u64;
        for _ in 0..packets_per_flow {
            for t in fs.flows() {
                if filter.decide(t).action == vif_core::rules::RuleAction::Drop {
                    drops += 1;
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / (flows * packets_per_flow) as f64;
        rows.push(vec![
            "hash-based".into(),
            format!("{ns:.0}"),
            "O(1), no table growth".into(),
            format!("{:.3}", drops as f64 / (flows * packets_per_flow) as f64),
        ]);
    }

    // Hybrid: two passes hash (the second admits each flow), then flows
    // are promoted.
    {
        let filter = StatelessFilter::new(RuleSet::from_rules([rule]), [9u8; 32]);
        let mut hybrid = HybridFilter::new(filter, flows * 2);
        for _ in 0..2 {
            for t in fs.flows() {
                hybrid.decide(t);
            }
        }
        hybrid.apply_update_period();
        let start = std::time::Instant::now();
        let mut drops = 0u64;
        for _ in 0..packets_per_flow {
            for t in fs.flows() {
                if hybrid.decide(t).action == vif_core::rules::RuleAction::Drop {
                    drops += 1;
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / (flows * packets_per_flow) as f64;
        rows.push(vec![
            "hybrid (promoted)".into(),
            format!("{ns:.0}"),
            format!("{} cached flows", hybrid.cached_flows()),
            format!("{:.3}", drops as f64 / (flows * packets_per_flow) as f64),
        ]);
    }

    // Exact-match only: one rule per flow, installed up front, with the
    // same per-flow verdicts the probabilistic rule would produce.
    {
        let base = StatelessFilter::new(RuleSet::from_rules([rule]), [9u8; 32]);
        let exact_rules: Vec<FilterRule> = fs
            .flows()
            .iter()
            .map(|t| {
                let pattern = FlowPattern::exact_tuple(*t);
                match base.decide(t).action {
                    vif_core::rules::RuleAction::Drop => FilterRule::drop(pattern),
                    vif_core::rules::RuleAction::Allow => FilterRule::allow(pattern),
                }
            })
            .collect();
        let ruleset = RuleSet::from_rules(exact_rules);
        let mem_mb = ruleset.memory_bytes() as f64 / (1 << 20) as f64;
        let filter = StatelessFilter::new(ruleset, [9u8; 32]);
        let start = std::time::Instant::now();
        let mut drops = 0u64;
        for _ in 0..packets_per_flow {
            for t in fs.flows() {
                if filter.decide(t).action == vif_core::rules::RuleAction::Drop {
                    drops += 1;
                }
            }
        }
        let ns = start.elapsed().as_nanos() as f64 / (flows * packets_per_flow) as f64;
        rows.push(vec![
            "exact-match only".into(),
            format!("{ns:.0}"),
            format!("{mem_mb:.2} MB table"),
            format!("{:.3}", drops as f64 / (flows * packets_per_flow) as f64),
        ]);
    }

    render_table(
        &format!("Ablation — connection-preserving execution over {flows} flows (Appendix A)"),
        &["variant", "ns/decision (measured)", "memory", "drop rate"],
        &rows,
    )
}

/// Head-room parameter λ ablation (§IV-B): enclaves provisioned vs. load
/// balance quality.
pub fn ablation_lambda() -> String {
    let rows: Vec<Vec<String>> = [0.0, 0.1, 0.2, 0.4, 0.8, 1.0]
        .iter()
        .map(|&lambda| {
            let mut inst = lognormal_instance(3000, 100.0, 1.5, 7);
            inst.lambda = lambda;
            let alloc = GreedySolver::default().solve(&inst).expect("feasible");
            inst.validate(&alloc).expect("valid");
            vec![
                format!("{lambda:.1}"),
                inst.n().to_string(),
                alloc.used_enclaves().to_string(),
                format!("{:.2}", alloc.max_load()),
                format!("{:.2}", inst.objective(&alloc)),
            ]
        })
        .collect();
    render_table(
        "Ablation — enclave head-room λ (3,000 rules, 100 Gb/s)",
        &[
            "lambda",
            "n provisioned",
            "n used",
            "max load (Gb/s)",
            "objective z",
        ],
        &rows,
    )
}

/// Sketch-dimension ablation: bypass-detection false positives under
/// benign loss vs. sketch width (§III-B's accountability/memory tradeoff).
pub fn ablation_sketch() -> String {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let widths = [1024usize, 4096, 16_384, 65_536];
    let flows = 50_000u64;
    let benign_loss = 0.005; // 0.5% loss between filter and victim
    let tolerance = 3u64;
    let trials = 20;

    let rows: Vec<Vec<String>> = widths
        .iter()
        .map(|&width| {
            let mut fp = 0u32;
            for trial in 0..trials {
                let cfg = SketchConfig {
                    width,
                    depth: 2,
                    seed: trial as u64,
                };
                let mut enclave = CountMinSketch::new(cfg.clone());
                let mut victim = CountMinSketch::new(cfg);
                let mut rng = StdRng::seed_from_u64(1000 + trial as u64);
                for i in 0..flows {
                    let key = i.to_le_bytes();
                    enclave.add(&key, 1);
                    if !rng.gen_bool(benign_loss) {
                        victim.add(&key, 1);
                    }
                }
                let cmp = compare(&enclave, &victim).expect("same config");
                if cmp.drop_detected(tolerance) {
                    fp += 1;
                }
            }
            let mem_kb = (width * 2 * 8) as f64 / 1024.0;
            vec![
                width.to_string(),
                format!("{mem_kb:.0}"),
                format!("{:.2}", fp as f64 / trials as f64),
            ]
        })
        .collect();
    render_table(
        "Ablation — sketch width vs. false-positive alarms under 0.5% benign loss (tolerance 3)",
        &["width (bins)", "memory (KB)", "false-positive rate"],
        &rows,
    )
}
