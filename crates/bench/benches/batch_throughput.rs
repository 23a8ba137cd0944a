//! Per-packet vs. batched filtering throughput.
//!
//! The fig14 hash-filter workload (one probabilistic rule over the victim
//! prefix, so every verdict pays the SHA-256 hash path) driven through
//! the reference and the hybrid filter at batch sizes 1, 32, and 256.
//! Batch size 1 is a burst of one; 32 is the DPDK RX burst the pipeline
//! uses; 256 shows where the amortization curve flattens. Throughput is
//! reported as Melem/s, so the batch win reads directly as a packet-rate
//! multiplier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vif_bench::experiments::{dataplane::BATCH_SIZES, fig14_hash_workload, steady_state_hybrid};
use vif_core::filter::Verdict;
use vif_core::prelude::*;

fn bench(c: &mut Criterion) {
    let (mut stateless, tuples) = fig14_hash_workload();
    let mut hybrid = steady_state_hybrid(&stateless, &tuples);
    bench_filter(
        c,
        "stateless",
        &mut stateless,
        |f, t| f.decide(t),
        |f, burst, out| f.decide_batch(burst, out),
        &tuples,
    );
    bench_filter(
        c,
        "hybrid",
        &mut hybrid,
        HybridFilter::decide,
        HybridFilter::decide_batch,
        &tuples,
    );
}

fn bench_filter<F>(
    c: &mut Criterion,
    label: &str,
    filter: &mut F,
    decide: impl Fn(&mut F, &FiveTuple) -> Verdict,
    decide_batch: impl Fn(&mut F, &[FiveTuple], &mut Vec<Verdict>),
    tuples: &[FiveTuple],
) {
    let mut group = c.benchmark_group(format!("batch_throughput/{label}"));
    group.sample_size(30);
    for &batch in &BATCH_SIZES {
        group.throughput(Throughput::Elements(batch as u64));
        let mut verdicts = Vec::with_capacity(batch);
        group.bench_with_input(BenchmarkId::new("decide_batch", batch), &batch, |b, &n| {
            let mut i = 0usize;
            b.iter(|| {
                let start = (i * n) % (tuples.len() - n);
                i += 1;
                verdicts.clear();
                decide_batch(filter, black_box(&tuples[start..start + n]), &mut verdicts);
                black_box(verdicts.len())
            });
        });
    }
    // The per-packet loop: n calls to decide() per measurement so the
    // ns/iter column is directly comparable to decide_batch(n).
    for &batch in &BATCH_SIZES {
        group.throughput(Throughput::Elements(batch as u64));
        group.bench_with_input(
            BenchmarkId::new("decide_single_loop", batch),
            &batch,
            |b, &n| {
                let mut i = 0usize;
                b.iter(|| {
                    let start = (i * n) % (tuples.len() - n);
                    i += 1;
                    let mut last = None;
                    for t in &tuples[start..start + n] {
                        last = Some(decide(filter, black_box(t)));
                    }
                    black_box(last)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
