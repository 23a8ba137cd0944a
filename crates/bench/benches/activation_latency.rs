//! Epoch publication cost split: on-lock swap vs. off-lock compile.
//!
//! The always-on service keeps workers hot through rule churn because a
//! rule epoch is one immutable set of tables shared by reference: the
//! publisher copies the flat rule arrays, applies the queued edits and
//! compiles **once** (`batch_edit`) while workers keep filtering on the old
//! tables; every slice then receives a handle on the result, and only the
//! final swap ([`FilterEnclaveApp::install_epoch_for`]) contends with the
//! packet path. This bench pins each piece per rule-set size:
//!
//! - `swap_install`: the on-lock half — installing a prebuilt epoch
//!   (pointer swap, cache restart, displaced epoch handed back out — the
//!   zeroed counters ride in with the handle), the whole window during
//!   which that slice's packets wait; flat in the rule count. The displaced
//!   handle is the next iteration's replica, so the loop needs no setup
//!   and is timed in chunks, far above timer resolution;
//! - `churn_epoch`: the off-lock half in the shape the service pays every
//!   round — 8 rules withdrawn and 8 installed through one `batch_edit`
//!   (array copy + one compile; a withdrawal is an ordered-set removal);
//! - `rebuild`: a from-scratch `RuleSet::from_rules` — set-up cost, and the
//!   floor a swap-by-recompile design would pay per slice while its
//!   workers stall.
//!
//! There is no per-slice copy to time: handing a slice its epoch is an
//! `Arc` clone plus a zeroed counter vector.
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

        // On-lock half: a prebuilt epoch arriving at one slice, by the call
        // `publish_contract` makes. The handle is made before the ecall
        // there and freed after it; here the one displaced comes back as
        // the next replica, so the measured window is exactly what the
        // packet path waits on.
        let mut app = FilterEnclaveApp::new(compiled.clone(), [7u8; 32], 3, [2u8; 32]);
        let mut replica = Some(compiled.clone());
        let mut epoch = 0u64;
        group.bench_with_input(BenchmarkId::new("swap_install", rules), &rules, |b, _| {
            b.iter(|| {
                epoch += 1;
                let next = replica.take().expect("handed back");
                replica = Some(app.install_epoch_for(0, epoch, black_box(next), &[], &[]));
            });
        });

        // Off-lock half, per round of churn: 8 out, 8 in, one new epoch.
        let (incoming, _) = host_rule_list(8, 10);
        group.bench_with_input(BenchmarkId::new("churn_epoch", rules), &rules, |b, _| {
            b.iter_batched(
                || compiled.clone(),
                |mut rs| {
                    rs.batch_edit(|edit| {
                        for id in 0..8 {
                            edit.remove(id);
                        }
                        for rule in &incoming {
                            edit.insert(*rule);
                        }
                    });
                    black_box(rs)
                },
                BatchSize::SmallInput,
            );
        });

        // From scratch: what set-up (and a swap-by-recompile design) pays.
        group.bench_with_input(BenchmarkId::new("rebuild", rules), &rules, |b, _| {
            b.iter(|| black_box(RuleSet::from_rules(black_box(rule_list.clone()))));
        });
        group.finish();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
