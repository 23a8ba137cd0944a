//! Scenario-engine benchmarks: timeline compilation, the Zipf-weighted
//! rate-shaped generator (the scenario hot path in `pktgen`), and a full
//! end-to-end smoke scenario through the live sharded dataplane with the
//! default victim policy in the loop.
//!
//! `VIF_BENCH_JSON` writes the machine-readable report that
//! `scripts/bench_regress.py` gates against `BENCH_scenario.json`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use std::hint::black_box;
use vif_bench::experiments::host_rules;
use vif_core::prelude::*;
use vif_dataplane::{FiveTuple, FlowSet, Protocol, RateShape, TrafficConfig, TrafficGenerator};
use vif_scenario::{
    CampaignConfig, CampaignContract, CampaignHarness, FaultKind, FaultPlan, Scenario,
    ScenarioHarnessConfig, ScenarioReport, ThresholdPolicy, VictimPolicy,
};
use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};

/// One single-victim run: the lone contract 0 on the campaign loop.
fn run_single(harness: CampaignHarness) -> ScenarioReport {
    harness
        .run(vec![Box::new(ThresholdPolicy::default())])
        .reports
        .remove(0)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("scenario_suite");
    group.sample_size(10);

    // Timeline compilation: the deterministic substrate every run starts
    // from (flow pools, Zipf weights, shaped schedules for every round).
    group.bench_function("compile/smoke", |b| {
        let scenario = Scenario::smoke(1);
        b.iter(|| black_box(scenario.compile().len()));
    });

    // The scenario generator hot path: a pulse-shaped schedule over a
    // 4096-flow Zipf mix (10 K packet budget per call).
    group.bench_function("pktgen/zipf_pulse_10k", |b| {
        let flows: Vec<FiveTuple> = (0..4096u32)
            .map(|i| FiveTuple::new(0x0a00_0000 + i, 1, 2, 3, Protocol::Udp))
            .collect();
        let flows = FlowSet::zipf(flows, 1.1);
        let mut gen = TrafficGenerator::new(9);
        b.iter(|| {
            black_box(
                gen.generate_shaped(
                    &flows,
                    TrafficConfig {
                        packet_size: 64,
                        offered_gbps: 5.0,
                        count: 10_000,
                    },
                    RateShape::Pulse {
                        period_ns: 50_000,
                        duty: 0.4,
                    },
                )
                .len(),
            )
        });
    });

    // End to end: the smoke scenario through session setup, the live
    // sharded pipeline, per-round audits, and policy-driven rule churn.
    group.bench_function("run/smoke_end_to_end", |b| {
        b.iter_batched(
            || Scenario::smoke(7),
            |scenario| {
                let report = run_single(CampaignHarness::single(
                    scenario,
                    ScenarioHarnessConfig::default(),
                ));
                black_box((report.rounds, report.rules_installed))
            },
            BatchSize::LargeInput,
        );
    });

    // Multi-tenant end to end: two admitted contracts (smoke mix + flash
    // crowd) round-locked on one live service — per-contract sessions,
    // audits, and epoch publications included.
    group.bench_function("campaign/smoke_2tenants", |b| {
        b.iter_batched(
            || {
                let contracts = vec![
                    CampaignContract {
                        contract: 1,
                        scenario: Scenario::smoke(7),
                        demand_gbps_per_rule: vec![0.5; 8],
                    },
                    CampaignContract {
                        contract: 2,
                        scenario: {
                            let mut s = Scenario::smoke(11);
                            s.victim =
                                vif_trie::Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16);
                            s
                        },
                        demand_gbps_per_rule: vec![0.25; 4],
                    },
                ];
                let policies: Vec<Box<dyn VictimPolicy>> = vec![
                    Box::new(ThresholdPolicy::default()),
                    Box::new(ThresholdPolicy::default()),
                ];
                (contracts, policies)
            },
            |(contracts, policies)| {
                let report =
                    CampaignHarness::new(contracts, CampaignConfig::default()).run(policies);
                black_box(report.reports.len())
            },
            BatchSize::LargeInput,
        );
    });

    // Chaos recovery: the smoke scenario on 4 workers with a seeded
    // worker crash mid-attack — prices the quarantine/re-steer path
    // (dead-ring reap, survivor re-hash, audit excision) against the
    // clean end-to-end run above.
    group.bench_function("chaos/recovery", |b| {
        b.iter_batched(
            || Scenario::smoke(7),
            |scenario| {
                let report = run_single(
                    CampaignHarness::single(
                        scenario,
                        ScenarioHarnessConfig {
                            workers: 4,
                            ..Default::default()
                        },
                    )
                    .with_faults(FaultPlan::new().at(4, FaultKind::WorkerCrash { worker: 2 })),
                );
                black_box((report.rounds, report.recovery_rounds))
            },
            BatchSize::LargeInput,
        );
    });

    // The full recovery lifecycle: crash at round 4, seeded recover at
    // round 6 — rejoin through a fresh attested session, master-state
    // replay, and the 2-round probation window, promoted by the end of
    // the smoke run. Prices the heal path (relaunch, re-attestation,
    // resync, shadow feed, probation audits) end to end; the report's
    // `rejoin_rounds` is the MTTR in rounds.
    group.bench_function("chaos/rejoin", |b| {
        b.iter_batched(
            || Scenario::smoke(7),
            |scenario| {
                let report = run_single(
                    CampaignHarness::single(
                        scenario,
                        ScenarioHarnessConfig {
                            workers: 4,
                            ..Default::default()
                        },
                    )
                    .with_faults(
                        FaultPlan::new()
                            .at(4, FaultKind::WorkerCrash { worker: 2 })
                            .at(6, FaultKind::WorkerRecover { worker: 2 }),
                    ),
                );
                assert_eq!(report.rejoin_rounds, Some(3), "MTTR in rounds");
                black_box((report.rounds, report.recovered_slices.len()))
            },
            BatchSize::LargeInput,
        );
    });

    // State-resync wall cost in isolation: quarantine + fresh relaunch +
    // master-state replay on a 4-slice replicated cluster, vs. the
    // number of in-force rules the master carries.
    for &k in &[256usize, 1024, 4096] {
        group.bench_function(BenchmarkId::new("chaos/resync", k), |b| {
            let root = AttestationRootKey::new([0xAA; 32]);
            let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
            let image = EnclaveImage::new("vif-filter", 1, vec![0x90; 1 << 20]);
            let (rules, _) = host_rules(k, 0x9e57 ^ k as u64);
            let mut cluster =
                EnclaveCluster::launch_rss(platform, image, rules, 4, [0x55; 32], 1234, [0x66; 32]);
            b.iter(|| {
                cluster.quarantine_slice(2);
                black_box(cluster.rejoin_slice(0, 2).rules)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
