//! Epoch publication cost split: on-lock swap vs. off-lock rebuild/clone.
//!
//! The always-on service keeps workers hot through rule churn because an
//! epoch publication does the expensive parts off the enclave lock: the
//! churned rule set is recompiled **once** (`batch_edit`), then cloned per
//! slice — both while workers keep filtering on the old table — and only
//! the final swap ([`FilterEnclaveApp::install_published`]) contends with
//! the packet path. This bench pins each piece per rule-set size:
//!
//! - `swap_install`: the on-lock half — installing a prebuilt replica
//!   (move + old-filter teardown + counter reset), the whole window during
//!   which that slice's packets wait;
//! - `replica_clone`: the off-lock per-slice copy (`RuleSet::clone` deep-
//!   copies rules/counters/trie; the compiled classifier rides along as a
//!   shared `Arc`);
//! - `rebuild`: the off-lock compile (`RuleSet::from_rules`) — the floor a
//!   naive swap-by-recompile design would pay per slice while its workers
//!   stall.
//!
//! Run with `VIF_BENCH_JSON=BENCH_hotpath.json` to refresh the checked-in
//! baseline; `scripts/bench_regress.py` gates the `activation_latency`
//! group in CI like the rest of the hot path.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vif_bench::experiments::host_rule_list;
use vif_core::enclave_app::FilterEnclaveApp;
use vif_core::prelude::*;

const RULE_COUNTS: [usize; 3] = [256, 1024, 4096];

fn bench(c: &mut Criterion) {
    for &rules in &RULE_COUNTS {
        let (rule_list, _) = host_rule_list(rules, 9);
        let compiled = RuleSet::from_rules(rule_list.clone());
        let mut group = c.benchmark_group(format!("activation_latency/{rules}_rules"));
        group.sample_size(30);
        group.throughput(Throughput::Elements(rules as u64));

        // On-lock half: a prebuilt replica arriving at one slice. The
        // clone is setup (in `publish_contract` it happens before the ecall), so
        // the measured window is exactly what the packet path waits on.
        let mut app = FilterEnclaveApp::new(compiled.clone(), [7u8; 32], 3, [2u8; 32]);
        group.bench_with_input(BenchmarkId::new("swap_install", rules), &rules, |b, _| {
            b.iter_batched(
                || compiled.clone(),
                |replica| {
                    app.install_published_for(0, replica, &[]);
                    black_box(app.epoch())
                },
                BatchSize::SmallInput,
            );
        });

        // Off-lock per-slice copy the publisher pays while workers stay
        // live on the old table.
        group.bench_with_input(BenchmarkId::new("replica_clone", rules), &rules, |b, _| {
            b.iter(|| black_box(black_box(&compiled).clone()));
        });

        // Off-lock compile the publisher pays once per epoch.
        group.bench_with_input(BenchmarkId::new("rebuild", rules), &rules, |b, _| {
            b.iter(|| black_box(RuleSet::from_rules(black_box(rule_list.clone()))));
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
