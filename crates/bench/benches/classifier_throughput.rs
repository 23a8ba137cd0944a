//! Compiled classifier vs. the `lookup_path` reference — the hot-path
//! trajectory bench.
//!
//! Sweeps rule-set sizes {16, 256, 4096} (per-source host rules plus a
//! spine of overlapping coarse prefixes, the workload shape of Fig. 3)
//! against burst sizes {1, 32, 256}. Three measurements per cell:
//!
//! - `compiled_classify`: the compiled stride walk (`RuleSet::classify`),
//! - `reference_classify`: the pre-compilation map-probe path
//!   (`RuleSet::classify_reference`),
//! - `decide_batch`: the full verdict path through the stateless filter
//!   (classification + one-block SHA-256 for hash-decided flows).
//!
//! Run with `VIF_BENCH_JSON=BENCH_hotpath.json` to refresh the checked-in
//! baseline; the acceptance bar for this sweep is compiled ≥ 3× reference
//! on the 256-rule / burst-32 cell.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vif_bench::experiments::{host_rules, victim_prefix};
use vif_core::prelude::*;

const RULE_COUNTS: [usize; 3] = [16, 256, 4096];
const BURSTS: [usize; 3] = [1, 32, 256];

/// `n` host rules plus an overlapping-prefix spine and one probabilistic
/// rule, with a tuple pool mixing rule hits and default-allow misses.
fn workload(n: usize) -> (StatelessFilter, Vec<FiveTuple>) {
    let (mut rs, flows) = host_rules(n, 42);
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
    for i in 0..tuples.len().max(512) as u32 {
        let (src, dst) = match i % 4 {
            // Overlap spine hits and hash-path flows toward the victim.
            0 => (0x0a010000 + i, u32::from_be_bytes([203, 0, 113, 7])),
            1 => (
                u32::from_be_bytes([198, 51, 100, (i % 250) as u8]),
                u32::from_be_bytes([203, 0, 113, 7]),
            ),
            // Default-allow misses (off-victim destinations).
            _ => (0xc0000200 + i, 0x08080808 + i),
        };
        tuples.push(FiveTuple::new(
            src,
            dst,
            (1024 + i % 40_000) as u16,
            if i % 2 == 0 { 80 } else { 53 },
            if i % 3 == 0 {
                Protocol::Udp
            } else {
                Protocol::Tcp
            },
        ));
    }
    (StatelessFilter::new(rs, [7u8; 32]), tuples)
}

fn bench(c: &mut Criterion) {
    for &rules in &RULE_COUNTS {
        let (filter, tuples) = workload(rules);
        let mut group = c.benchmark_group(format!("classifier_throughput/{rules}_rules"));
        group.sample_size(30);
        for &burst in &BURSTS {
            group.throughput(Throughput::Elements(burst as u64));
            let ruleset = filter.ruleset();
            let mut i = 0usize;
            group.bench_with_input(
                BenchmarkId::new("compiled_classify", burst),
                &burst,
                |b, &n| {
                    b.iter(|| {
                        let start = (i * n) % (tuples.len() - n);
                        i += 1;
                        let mut hits = 0usize;
                        for t in &tuples[start..start + n] {
                            hits += ruleset.classify(black_box(t)).is_some() as usize;
                        }
                        black_box(hits)
                    });
                },
            );
            let mut i = 0usize;
            group.bench_with_input(
                BenchmarkId::new("reference_classify", burst),
                &burst,
                |b, &n| {
                    b.iter(|| {
                        let start = (i * n) % (tuples.len() - n);
                        i += 1;
                        let mut hits = 0usize;
                        for t in &tuples[start..start + n] {
                            hits += ruleset.classify_reference(black_box(t)).is_some() as usize;
                        }
                        black_box(hits)
                    });
                },
            );
            let mut verdicts = Vec::with_capacity(burst);
            let mut i = 0usize;
            group.bench_with_input(BenchmarkId::new("decide_batch", burst), &burst, |b, &n| {
                b.iter(|| {
                    let start = (i * n) % (tuples.len() - n);
                    i += 1;
                    verdicts.clear();
                    filter.decide_batch(black_box(&tuples[start..start + n]), &mut verdicts);
                    black_box(verdicts.len())
                });
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
