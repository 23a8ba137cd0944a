//! The audited logging path: per-packet sketch updates vs. the
//! fingerprint-once, prefetch-pipelined burst path.
//!
//! PR 3 compiled classification down to tens of nanoseconds; the remaining
//! per-packet cost of §V-A's audit design is the two count-min-sketch log
//! updates ("only 4 linear hash function operations"), whose real price on
//! the paper's 512 KiB sketches is the dependent counter-line miss, not the
//! arithmetic. This bench sweeps burst sizes {1, 32, 256} over the paper
//! sketch configuration with three update strategies:
//!
//! - `add_single`: the seed's per-packet path — hash the 13-byte key and
//!   update each row, one packet at a time;
//! - `add_fingerprint`: fingerprint-once — the key fingerprint is derived
//!   upstream and shared, but updates stay sequential;
//! - `add_batch_prefetch`: the pipelined burst path
//!   (`CountMinSketch::add_batch_fingerprints`) — bins computed for the
//!   whole burst first, counter lines software-prefetched, updates applied
//!   after.
//!
//! A fourth group measures `PacketLogs` end to end (both sketches, the
//! incoming + outgoing pair the enclave pays per packet): sequential
//! `log_incoming`/`log_outgoing` vs. `log_batch_fingerprints`.
//!
//! Acceptance bar (tracked in `BENCH_hotpath.json`): `add_batch_prefetch`
//! ≥ 2× faster than `add_single` at burst 32 on the paper config.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vif_core::filter::{DecisionPath, Verdict};
use vif_core::logs::{PacketFingerprints, PacketLogs};
use vif_core::rules::RuleAction;
use vif_dataplane::{FiveTuple, Protocol};
use vif_sketch::{hash::splitmix64, CountMinSketch, SketchConfig};

const BURSTS: [usize; 3] = [1, 32, 256];

/// Distinct-flow key pool: far more flows than counter lines are hot, so
/// updates scatter across the full sketch the way a DDoS flow cloud does.
const POOL: usize = 1 << 15;

fn tuple_pool() -> Vec<FiveTuple> {
    (0..POOL as u64)
        .map(|i| {
            let r = splitmix64(i);
            FiveTuple::new(
                r as u32,
                u32::from_be_bytes([203, 0, 113, (r >> 32) as u8]),
                (r >> 40) as u16,
                if i % 2 == 0 { 80 } else { 53 },
                if i % 3 == 0 {
                    Protocol::Udp
                } else {
                    Protocol::Tcp
                },
            )
        })
        .collect()
}

fn bench_sketch(c: &mut Criterion) {
    let tuples = tuple_pool();
    let keys: Vec<[u8; 13]> = tuples.iter().map(FiveTuple::encode).collect();
    let fps: Vec<u64> = tuples.iter().map(FiveTuple::tuple_fingerprint).collect();
    let mut group = c.benchmark_group("logging_throughput/paper_config");
    group.sample_size(30);
    for &burst in &BURSTS {
        group.throughput(Throughput::Elements(burst as u64));
        let mut sketch = CountMinSketch::new(SketchConfig::paper_default(7));
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("add_single", burst), &burst, |b, &n| {
            b.iter(|| {
                let start = (i * n) % (POOL - n);
                i += 1;
                for key in &keys[start..start + n] {
                    sketch.add(black_box(key), 1);
                }
            });
        });
        let mut sketch = CountMinSketch::new(SketchConfig::paper_default(7));
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("add_fingerprint", burst),
            &burst,
            |b, &n| {
                b.iter(|| {
                    let start = (i * n) % (POOL - n);
                    i += 1;
                    for &fp in &fps[start..start + n] {
                        sketch.add_fingerprint(black_box(fp), 1);
                    }
                });
            },
        );
        let mut sketch = CountMinSketch::new(SketchConfig::paper_default(7));
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("add_batch_prefetch", burst),
            &burst,
            |b, &n| {
                b.iter(|| {
                    let start = (i * n) % (POOL - n);
                    i += 1;
                    sketch.add_batch_fingerprints(black_box(&fps[start..start + n]), 1);
                });
            },
        );
        let mut sketch = CountMinSketch::new(SketchConfig::paper_default(7));
        sketch.add_batch_fingerprints(&fps, 1);
        let mut estimates = Vec::with_capacity(burst);
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("estimate_batch", burst),
            &burst,
            |b, &n| {
                b.iter(|| {
                    let start = (i * n) % (POOL - n);
                    i += 1;
                    estimates.clear();
                    sketch.estimate_batch(black_box(&fps[start..start + n]), &mut estimates);
                    black_box(estimates.len())
                });
            },
        );
    }
    group.finish();
}

fn bench_packet_logs(c: &mut Criterion) {
    let tuples = tuple_pool();
    let fps: Vec<PacketFingerprints> = tuples.iter().map(PacketFingerprints::of).collect();
    // A fixed allow/drop mix: ~2/3 of packets reach the outgoing log.
    let verdicts: Vec<Verdict> = (0..POOL)
        .map(|i| Verdict {
            action: if i % 3 == 0 {
                RuleAction::Drop
            } else {
                RuleAction::Allow
            },
            rule: None,
            path: DecisionPath::Default,
        })
        .collect();
    let mut group = c.benchmark_group("logging_throughput/packet_logs");
    group.sample_size(30);
    for &burst in &BURSTS {
        group.throughput(Throughput::Elements(burst as u64));
        let mut logs = PacketLogs::new(7);
        let mut i = 0usize;
        group.bench_with_input(BenchmarkId::new("sequential", burst), &burst, |b, &n| {
            b.iter(|| {
                let start = (i * n) % (POOL - n);
                i += 1;
                for (t, v) in tuples[start..start + n]
                    .iter()
                    .zip(&verdicts[start..start + n])
                {
                    logs.log_incoming(black_box(t));
                    if v.action == RuleAction::Allow {
                        logs.log_outgoing(t);
                    }
                }
            });
        });
        let mut logs = PacketLogs::new(7);
        let mut i = 0usize;
        group.bench_with_input(
            BenchmarkId::new("batch_fingerprints", burst),
            &burst,
            |b, &n| {
                b.iter(|| {
                    let start = (i * n) % (POOL - n);
                    i += 1;
                    logs.log_batch_fingerprints(
                        black_box(&fps[start..start + n]),
                        &verdicts[start..start + n],
                    );
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sketch, bench_packet_logs);
criterion_main!(benches);
