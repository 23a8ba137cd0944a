//! Fig. 14 micro-benchmark: the real cost of the hash-based decision path
//! (our from-scratch SHA-256) vs. deterministic and exact-match paths,
//! plus the burst path of the reference and the hybrid filter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use vif_bench::experiments::{victim_ip, victim_prefix};
use vif_core::filter::Verdict;
use vif_core::prelude::*;
use vif_dataplane::FlowSet;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig14_decision_paths");
    group.sample_size(30);
    let flows = FlowSet::random_toward_victim(4096, victim_ip(), 3);
    let tuples: Vec<FiveTuple> = flows.flows().to_vec();

    // Hash-based: probabilistic rule, every decision pays SHA-256.
    let prob_rule = FilterRule::drop_fraction(
        FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim_prefix()),
        0.5,
    );
    let hash_filter = StatelessFilter::new(RuleSet::from_rules([prob_rule]), [7u8; 32]);
    group.bench_function("hash_based_decide", |b| {
        let mut i = 0;
        b.iter(|| {
            let t = &tuples[i % tuples.len()];
            i += 1;
            black_box(hash_filter.decide(black_box(t)))
        });
    });

    // Deterministic coarse rule.
    let det_rule = FilterRule::drop(FlowPattern::prefixes(
        "0.0.0.0/0".parse().unwrap(),
        victim_prefix(),
    ));
    let det_filter = StatelessFilter::new(RuleSet::from_rules([det_rule]), [7u8; 32]);
    group.bench_function("deterministic_decide", |b| {
        let mut i = 0;
        b.iter(|| {
            let t = &tuples[i % tuples.len()];
            i += 1;
            black_box(det_filter.decide(black_box(t)))
        });
    });

    // Hybrid after promotion: exact-match cache hit.
    let mut hybrid = HybridFilter::new(
        StatelessFilter::new(
            RuleSet::from_rules([FilterRule::drop_fraction(
                FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim_prefix()),
                0.5,
            )]),
            [7u8; 32],
        ),
        10_000,
    );
    // Two passes: a flow is admitted to the cache on its second sight.
    for _ in 0..2 {
        for t in &tuples {
            hybrid.decide(t);
        }
    }
    hybrid.apply_update_period();
    group.bench_function("hybrid_promoted_decide", |b| {
        let mut i = 0;
        b.iter(|| {
            let t = &tuples[i % tuples.len()];
            i += 1;
            black_box(hybrid.decide(black_box(t)))
        });
    });

    group.finish();

    // Burst path: both filters decide the same workload through
    // decide_batch, 32 tuples per burst (the RX burst size).
    let mut group = c.benchmark_group("fig14_decide_batch32");
    group.sample_size(30);
    let prob_rule = || {
        FilterRule::drop_fraction(
            FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim_prefix()),
            0.5,
        )
    };
    let stateless = StatelessFilter::new(RuleSet::from_rules([prob_rule()]), [7u8; 32]);
    let mut hybrid = HybridFilter::new(stateless.clone(), 10_000);
    type DecideBatch<'a> = &'a mut dyn FnMut(&[FiveTuple], &mut Vec<Verdict>);
    let filters: [(&str, DecideBatch); 2] = [
        ("stateless", &mut |burst, out| {
            stateless.decide_batch(burst, out)
        }),
        ("hybrid", &mut |burst, out| hybrid.decide_batch(burst, out)),
    ];
    for (label, decide_batch) in filters {
        let mut verdicts = Vec::with_capacity(32);
        group.bench_with_input(BenchmarkId::new("decide_batch", label), &(), |b, _| {
            let mut i = 0;
            b.iter(|| {
                let start = (i * 32) % (tuples.len() - 32);
                i += 1;
                verdicts.clear();
                decide_batch(black_box(&tuples[start..start + 32]), &mut verdicts);
                black_box(verdicts.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
