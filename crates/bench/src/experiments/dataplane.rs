//! Data-plane experiments: Figs. 3a/3b/8/13/14, the §V-B latency list, and
//! Table II.

use super::{host_rules, launch_filter, render_table, saturating_traffic, victim_prefix};
use crate::model::{run_enclave, CostModel};
use std::sync::Arc;
use vif_core::cost::FilterMode;
use vif_core::filter::Verdict;
use vif_core::prelude::*;
use vif_dataplane::{
    shard_of, DataplaneService, FlowSet, ServiceConfig, TrafficConfig, TrafficGenerator,
};
use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};
use vif_trie::{Ipv4Prefix, MultiBitTrie};

/// Rule counts swept in Fig. 3.
pub const FIG3_RULE_COUNTS: [usize; 11] = [
    100, 500, 1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 10_000,
];

/// Packet sizes swept in Figs. 8/13/14.
pub const PACKET_SIZES: [u16; 6] = [64, 128, 256, 512, 1024, 1500];

/// One Fig. 3 sweep point.
#[derive(Debug, Clone, Copy)]
pub struct Fig3Point {
    /// Number of installed rules.
    pub rules: usize,
    /// Measured filter throughput, Mpps (64 B frames).
    pub throughput_mpps: f64,
    /// Enclave rule-table + log working set, MB.
    pub memory_mb: f64,
}

/// Runs the Fig. 3 sweep (both 3a and 3b come from the same run).
pub fn fig3_sweep(duration_ms: u64) -> Vec<Fig3Point> {
    FIG3_RULE_COUNTS
        .iter()
        .map(|&k| {
            let (ruleset, flows) = host_rules(k, 42);
            let enclave = launch_filter(ruleset);
            let memory_mb =
                enclave.in_enclave_thread(|app| app.table_bytes()) as f64 / (1 << 20) as f64;
            let traffic = saturating_traffic(&flows, 64, duration_ms, 7);
            let mut stage = EnclaveFilterStage::new(enclave, FilterMode::SgxNearZeroCopy);
            let report = run_enclave(&traffic, &mut stage, &CostModel::paper_default());
            Fig3Point {
                rules: k,
                throughput_mpps: report.throughput_mpps(),
                memory_mb,
            }
        })
        .collect()
}

/// Renders Fig. 3a (throughput vs. rules).
pub fn fig3a(duration_ms: u64) -> String {
    let points = fig3_sweep(duration_ms);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| vec![p.rules.to_string(), format!("{:.2}", p.throughput_mpps)])
        .collect();
    render_table(
        "Fig. 3a — single-enclave filter throughput vs. number of rules (64 B frames)",
        &["rules", "throughput (Mpps)"],
        &rows,
    )
}

/// Renders Fig. 3b (memory vs. rules, with the EPC line).
pub fn fig3b() -> String {
    let rows: Vec<Vec<String>> = FIG3_RULE_COUNTS
        .iter()
        .map(|&k| {
            let (ruleset, _) = host_rules(k, 42);
            // The paper's two 1 MB sketches of 64-bit counters (the
            // serving sketches' 32-bit counters take half that).
            let logs_mb = 2.0;
            let mb = ruleset.memory_bytes() as f64 / (1 << 20) as f64 + logs_mb;
            let over = if mb > 92.0 { " > EPC(92)" } else { "" };
            vec![k.to_string(), format!("{mb:.1}{over}")]
        })
        .collect();
    render_table(
        "Fig. 3b — enclave memory footprint vs. number of rules (EPC limit 92 MB)",
        &["rules", "memory (MB)"],
        &rows,
    )
}

/// One Fig. 8/13 grid cell.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputPoint {
    /// Frame size, bytes.
    pub size: u16,
    /// Implementation variant.
    pub mode: FilterMode,
    /// Wire-rate throughput, Gb/s (the paper's plot unit).
    pub gbps: f64,
    /// Packet throughput, Mpps.
    pub mpps: f64,
}

/// Runs the Fig. 8/13 grid: 3 modes × 6 frame sizes at 3,000 rules.
pub fn fig8_sweep(duration_ms: u64) -> Vec<ThroughputPoint> {
    let mut out = Vec::new();
    for mode in FilterMode::ALL {
        for &size in &PACKET_SIZES {
            let (ruleset, flows) = host_rules(3000, 42);
            let enclave = launch_filter(ruleset);
            let traffic = saturating_traffic(&flows, size, duration_ms, 9);
            let mut stage = EnclaveFilterStage::new(enclave, mode);
            let report = run_enclave(&traffic, &mut stage, &CostModel::paper_default());
            out.push(ThroughputPoint {
                size,
                mode,
                gbps: report.wire_throughput_gbps(),
                mpps: report.throughput_mpps(),
            });
        }
    }
    out
}

fn render_mode_grid(
    title: &str,
    points: &[ThroughputPoint],
    value: impl Fn(&ThroughputPoint) -> f64,
    unit: &str,
) -> String {
    let mut rows = Vec::new();
    for &size in &PACKET_SIZES {
        let mut row = vec![size.to_string()];
        for mode in FilterMode::ALL {
            let p = points
                .iter()
                .find(|p| p.size == size && p.mode == mode)
                .expect("grid complete");
            row.push(format!("{:.2}", value(p)));
        }
        rows.push(row);
    }
    render_table(
        title,
        &[
            &format!("size (B) \\ {unit}"),
            "Native (no SGX)",
            "SGX full copy",
            "SGX near zero copy",
        ],
        &rows,
    )
}

/// Renders Fig. 8 (Gb/s, wire rate).
pub fn fig8(duration_ms: u64) -> String {
    render_mode_grid(
        "Fig. 8 — throughput (Gb/s, wire rate) vs. packet size, 3,000 rules",
        &fig8_sweep(duration_ms),
        |p| p.gbps,
        "Gb/s",
    )
}

/// Renders Fig. 13 (Mpps; Appendix E).
pub fn fig13(duration_ms: u64) -> String {
    render_mode_grid(
        "Fig. 13 — throughput (Mpps) vs. packet size, 3,000 rules (Appendix E)",
        &fig8_sweep(duration_ms),
        |p| p.mpps,
        "Mpps",
    )
}

/// The §V-B latency experiment: near-zero-copy, 8 Gb/s offered load.
pub fn latency(duration_ms: u64) -> String {
    let paper = [
        (128u16, 34.0f64),
        (256, 38.0),
        (512, 52.0),
        (1024, 80.0),
        (1500, 107.0),
    ];
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(size, paper_us)| {
            let (ruleset, _) = host_rules(3000, 42);
            let enclave = launch_filter(ruleset);
            // Latency is measured on *forwarded* packets: benign flows that
            // match no DROP rule (pktgen's latency probes must come back).
            let flows = FlowSet::random_toward_victim(256, super::victim_ip(), 99);
            let traffic = TrafficGenerator::new(3)
                .generate(&flows, TrafficConfig::at_rate(size, 8.0, duration_ms));
            let mut stage = EnclaveFilterStage::new(enclave, FilterMode::SgxNearZeroCopy);
            let report = run_enclave(&traffic, &mut stage, &CostModel::paper_default());
            vec![
                size.to_string(),
                format!("{:.1}", report.mean_latency_ns() / 1e3),
                format!("{paper_us:.0}"),
            ]
        })
        .collect();
    render_table(
        "§V-B — mean forwarding latency at 8 Gb/s offered load (near zero copy)",
        &["size (B)", "measured (µs)", "paper (µs)"],
        &rows,
    )
}

/// Hash ratios swept in Fig. 14.
pub const FIG14_RATIOS: [f64; 5] = [0.01, 0.05, 0.1, 0.5, 1.0];

/// Fig. 14: throughput vs. fraction of SHA-256-hashed packets.
///
/// A probabilistic rule covers the victim prefix; a fraction `1 - ratio` of
/// flows is pre-promoted to exact-match entries (the hybrid's steady
/// state), so `ratio` of the traffic takes the hash path.
pub fn fig14(duration_ms: u64) -> String {
    let mut rows = Vec::new();
    for &ratio in &FIG14_RATIOS {
        let mut row = vec![format!("{ratio:.2}")];
        for &size in &PACKET_SIZES {
            let rule = FilterRule::drop_fraction(
                FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim_prefix()),
                0.5,
            );
            let ruleset = RuleSet::from_rules([rule]);
            let enclave = launch_filter(ruleset);
            let flows = FlowSet::random_toward_victim(2000, super::victim_ip(), 5);
            // Pre-promote (1 - ratio) of the flows to exact-match entries:
            // each is shown twice, since a flow is admitted on its second
            // sight.
            let promote = ((1.0 - ratio) * flows.len() as f64).round() as usize;
            enclave.in_enclave_thread(|app| {
                for t in flows.flows().iter().take(promote) {
                    app.process(t, 0);
                    app.process(t, 0);
                }
                app.apply_update_period();
                app.new_round_for(0);
            });
            let traffic = saturating_traffic(&flows, size, duration_ms, 11);
            let mut stage = EnclaveFilterStage::new(enclave, FilterMode::SgxNearZeroCopy);
            let report = run_enclave(&traffic, &mut stage, &CostModel::paper_default());
            row.push(format!("{:.2}", report.wire_throughput_gbps()));
        }
        rows.push(row);
    }
    render_table(
        "Fig. 14 — throughput (Gb/s, wire rate) vs. ratio of SHA-256-hashed packets (Appendix F)",
        &[
            "hash ratio \\ size",
            "64",
            "128",
            "256",
            "512",
            "1024",
            "1500",
        ],
        &rows,
    )
}

/// Batch sizes compared by the batch-throughput experiment.
pub const BATCH_SIZES: [usize; 3] = [1, 32, 256];

/// Per-packet vs. batched filtering throughput over the Fig. 14
/// hash-filter workload, for the reference and the hybrid filter.
///
/// Wall-clock (not simulated): each cell decides `decisions` packets
/// through `decide_batch` at the given batch size; the `single` column is
/// the per-packet `decide` loop. Both filters are measured in steady
/// state (hybrid promoted).
pub fn batch(decisions: usize) -> String {
    let (mut stateless, tuples) = super::fig14_hash_workload();
    let mut hybrid = super::steady_state_hybrid(&stateless, &tuples);
    let rows = vec![
        batch_row(
            "stateless",
            &mut stateless,
            |f, t| f.decide(t),
            |f, burst, out| f.decide_batch(burst, out),
            &tuples,
            decisions,
        ),
        batch_row(
            "hybrid",
            &mut hybrid,
            HybridFilter::decide,
            HybridFilter::decide_batch,
            &tuples,
            decisions,
        ),
    ];
    render_table(
        "Batch path — filter throughput (Mpps, wall-clock) vs. batch size, Fig. 14 hash workload",
        &["filter", "single", "batch=1", "batch=32", "batch=256"],
        &rows,
    )
}

/// One row of [`batch`]: `filter`'s per-packet rate, then its rate at each
/// of [`BATCH_SIZES`].
fn batch_row<F>(
    name: &str,
    filter: &mut F,
    decide: impl Fn(&mut F, &FiveTuple) -> Verdict,
    decide_batch: impl Fn(&mut F, &[FiveTuple], &mut Vec<Verdict>),
    tuples: &[FiveTuple],
    decisions: usize,
) -> Vec<String> {
    let start = std::time::Instant::now();
    let mut done = 0usize;
    while done < decisions {
        for t in tuples.iter().take(decisions - done) {
            std::hint::black_box(decide(filter, t));
            done += 1;
        }
    }
    let mpps_single = done as f64 / start.elapsed().as_secs_f64() / 1e6;
    let mut row = vec![name.to_string(), format!("{mpps_single:.2}")];
    for &batch in &BATCH_SIZES {
        let mut verdicts = Vec::with_capacity(batch);
        let start = std::time::Instant::now();
        let mut done = 0usize;
        while done < decisions {
            let i = done % (tuples.len() - batch);
            verdicts.clear();
            decide_batch(filter, &tuples[i..i + batch], &mut verdicts);
            done += batch;
        }
        let mpps = done as f64 / start.elapsed().as_secs_f64() / 1e6;
        row.push(format!("{mpps:.2}"));
    }
    row
}

/// Worker counts swept by the shard-scaling experiment and bench.
pub const SHARD_WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Launches an RSS-sharded cluster over the Fig. 14 hash-filter rule and
/// returns one [`EnclaveFilterStage`] per slice.
pub fn shard_stages(workers: usize) -> Vec<EnclaveFilterStage> {
    let rule = FilterRule::drop_fraction(
        FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim_prefix()),
        0.5,
    );
    let root = AttestationRootKey::new([0xAB; 32]);
    let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-shard", 1, vec![0x90; 1 << 16]);
    let cluster = EnclaveCluster::launch_rss(
        platform,
        image,
        RuleSet::from_rules([rule]),
        workers,
        [0x55; 32],
        1234,
        [0x66; 32],
    );
    cluster
        .enclaves()
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect()
}

/// The sharded live-pipeline throughput trajectory: wall-clock packet rate
/// of one [`DataplaneService`] round over worker counts {1, 2, 4, 8} at burst 32 on the
/// Fig. 14 hash-filter workload.
///
/// Unlike the simulated sweeps, this measures *real threads* moving
/// packets over burst rings, so the trajectory reflects the host's
/// actual core count — on a single-core machine it stays flat, on a
/// many-core box it climbs toward the §IV linear-scaling story.
pub fn shard(duration_ms: u64) -> String {
    let flows = FlowSet::random_toward_victim(2000, super::victim_ip(), 5);
    let mut baseline_mpps = 0.0;
    let rows: Vec<Vec<String>> = SHARD_WORKER_COUNTS
        .iter()
        .map(|&workers| {
            let stages = shard_stages(workers);
            let traffic = saturating_traffic(&flows, 64, duration_ms, 11);
            let offered = traffic.len() as f64;
            let start = std::time::Instant::now();
            let service = DataplaneService::new(ServiceConfig {
                ring_capacity: 16_384,
                ..Default::default()
            });
            let total = service.run(
                stages,
                |_, _| {},
                move |t| shard_of(t, workers),
                |svc| svc.round(&traffic).total(),
            );
            let secs = start.elapsed().as_secs_f64();
            let mpps = offered / secs / 1e6;
            if workers == 1 {
                baseline_mpps = mpps;
            }
            vec![
                workers.to_string(),
                total.received.to_string(),
                total.forwarded.to_string(),
                total.filtered.to_string(),
                total.overflow.to_string(),
                format!("{mpps:.2}"),
                format!("{:.2}x", mpps / baseline_mpps.max(1e-12)),
            ]
        })
        .collect();
    render_table(
        "Shard scaling — live sharded pipeline (RX → N workers → TX), Fig. 14 workload, burst 32",
        &[
            "workers",
            "received",
            "forwarded",
            "filtered",
            "overflow",
            "Mpps (wall)",
            "speedup",
        ],
        &rows,
    )
}

/// Table II: batch insertion into the multi-bit trie lookup table.
pub fn tab2() -> String {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let paper = [(1usize, 50.0f64), (10, 52.0), (100, 53.0), (1000, 75.0)];
    let mut rng = StdRng::seed_from_u64(13);
    let rows: Vec<Vec<String>> = paper
        .iter()
        .map(|&(batch, paper_ms)| {
            // Preload 3,000 host rules, then time one batched update —
            // including the full table rebuild the enclave performs at each
            // update period (Appendix F).
            let mut trie: MultiBitTrie<u32> = MultiBitTrie::new(8);
            trie.batch_insert((0..3000u32).map(|i| (Ipv4Prefix::host(rng.gen()), i)));
            let batch_rules: Vec<(Ipv4Prefix, u32)> = (0..batch as u32)
                .map(|i| (Ipv4Prefix::host(rng.gen()), 10_000 + i))
                .collect();
            let start = std::time::Instant::now();
            trie.batch_insert(batch_rules);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            vec![
                batch.to_string(),
                format!("{ms:.2}"),
                format!("{paper_ms:.0}"),
            ]
        })
        .collect();
    render_table(
        "Table II — batched exact-match rule insertion into the multi-bit trie",
        &["batch size", "measured (ms)", "paper (ms)"],
        &rows,
    )
}
