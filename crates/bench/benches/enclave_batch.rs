//! End-to-end enclave burst cost: the full `FilterEnclaveApp::process_batch`
//! ns/packet — fingerprint-once pass, compiled classification, hybrid
//! cache, prefetch-pipelined audited logging, and telemetry together.
//!
//! This is the in-enclave half of the data path the paper prices in §V
//! (classification + "4 linear hash operations" of logging per packet),
//! measured as real wall-clock over the steady state: hash-path flows
//! promoted, every scratch buffer at capacity, zero allocation per burst
//! (pinned by `crates/core/tests/hotpath_alloc.rs`).
//!
//! Two measurements per burst size {1, 32, 256}:
//!
//! - `process_batch`: the burst path (one call per burst);
//! - `process_single`: the same packets through per-packet
//!   [`FilterEnclaveApp::process`] — the amortization baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vif_bench::experiments::{host_rules, victim_prefix};
use vif_core::enclave_app::FilterEnclaveApp;
use vif_core::prelude::*;

const BURSTS: [usize; 3] = [1, 32, 256];

/// 256 host rules plus an overlap spine and a probabilistic rule (the
/// `classifier_throughput` workload shape), so bursts mix deterministic,
/// hash-path, and default verdicts like mixed attack traffic does. The
/// flow pool is a 64 K-flow cloud — the paper's DDoS regime, where the
/// per-flow sketch keys scatter across the full 1 MiB of log counters and
/// the audited logging misses, not the arithmetic, set the per-packet
/// price (a small pool would leave both sketches cache-resident and hide
/// exactly the cost this bench exists to track).
fn workload() -> (RuleSet, Vec<(FiveTuple, u64)>) {
    let (mut rs, flows) = host_rules(256, 42);
    for len in [8u8, 12, 16, 20, 24] {
        rs.insert(FilterRule::drop(FlowPattern::prefixes(
            Ipv4Prefix::new(0x0a000000, len),
            victim_prefix(),
        )));
    }
    rs.insert(FilterRule::drop_fraction(
        FlowPattern::prefixes("198.51.100.0/24".parse().unwrap(), victim_prefix()),
        0.5,
    ));
    let mut tuples: Vec<FiveTuple> = flows.flows().to_vec();
    let mut i = 0u32;
    while tuples.len() < 1 << 16 {
        let (src, dst) = match i % 4 {
            0 => (0x0a010000 + i, u32::from_be_bytes([203, 0, 113, 7])),
            1 => (
                u32::from_be_bytes([198, 51, 100, (i % 250) as u8]),
                u32::from_be_bytes([203, 0, 113, 7]),
            ),
            _ => (0xc0000200 + i, 0x08080808 + i),
        };
        tuples.push(FiveTuple::new(
            src,
            dst,
            (1024 + i % 40_000) as u16,
            if i.is_multiple_of(2) { 80 } else { 53 },
            if i.is_multiple_of(3) {
                Protocol::Udp
            } else {
                Protocol::Tcp
            },
        ));
        i += 1;
    }
    let pkts = tuples.into_iter().map(|t| (t, 64u64)).collect();
    (rs, pkts)
}

fn bench(c: &mut Criterion) {
    let (ruleset, pkts) = workload();
    let mut group = c.benchmark_group("enclave_batch/256_rules");
    group.sample_size(30);
    for &burst in &BURSTS {
        group.throughput(Throughput::Elements(burst as u64));
        let mut app = FilterEnclaveApp::new(ruleset.clone(), [7u8; 32], 9, [2u8; 32]);
        let mut verdicts = Vec::with_capacity(burst);
        // Steady state: show the hash-path working set twice (admission),
        // promote it and warm every scratch buffer before measuring.
        app.process_batch(&pkts, &mut verdicts);
        app.process_batch(&pkts, &mut verdicts);
        app.apply_update_period();
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("process_batch", burst), &burst, |b, &n| {
            b.iter(|| {
                let start = (i * n) % (pkts.len() - n);
                i += 1;
                app.process_batch(black_box(&pkts[start..start + n]), &mut verdicts);
                black_box(verdicts.len())
            });
        });
        let mut app = FilterEnclaveApp::new(ruleset.clone(), [7u8; 32], 9, [2u8; 32]);
        app.process_batch(&pkts, &mut verdicts);
        app.process_batch(&pkts, &mut verdicts);
        app.apply_update_period();
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("process_single", burst),
            &burst,
            |b, &n| {
                b.iter(|| {
                    let start = (i * n) % (pkts.len() - n);
                    i += 1;
                    let mut forwarded = 0usize;
                    for (t, bytes) in &pkts[start..start + n] {
                        forwarded += (app.process(black_box(t), *bytes).action
                            == vif_core::rules::RuleAction::Allow)
                            as usize;
                    }
                    black_box(forwarded)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
