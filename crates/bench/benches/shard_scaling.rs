//! Sharded live-pipeline throughput vs. worker count.
//!
//! One round of [`vif_dataplane::DataplaneService`] over the Fig. 14
//! hash-filter workload at burst 32, sweeping filter workers {1, 2, 4, 8}. Each worker is an
//! [`EnclaveFilterStage`] over its own slice of an RSS-replicated enclave
//! cluster; the RX thread steers flows with the public RSS hash and a
//! single TX thread drains the shared egress ring. Throughput is reported
//! in Melem/s of *offered* packets, so the per-worker-count trajectory
//! reads directly as the scale-out curve — flat on a single hardware
//! thread, climbing toward linear as cores are added.
//!
//! [`EnclaveFilterStage`]: vif_core::enclave_app::EnclaveFilterStage

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use vif_bench::experiments::dataplane::{shard_stages, SHARD_WORKER_COUNTS};
use vif_bench::experiments::victim_ip;
use vif_dataplane::{
    shard_of, DataplaneService, FlowSet, Packet, ServiceConfig, TrafficConfig, TrafficGenerator,
};

fn workload() -> Vec<Packet> {
    let flows = FlowSet::random_toward_victim(2000, victim_ip(), 5);
    TrafficGenerator::new(11).generate(
        &flows,
        TrafficConfig {
            packet_size: 64,
            offered_gbps: 9.0,
            count: 20_000,
        },
    )
}

fn bench(c: &mut Criterion) {
    let traffic = workload();
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(traffic.len() as u64));
    for &workers in &SHARD_WORKER_COUNTS {
        group.bench_with_input(BenchmarkId::new("workers", workers), &workers, |b, &n| {
            b.iter_batched(
                || (traffic.clone(), shard_stages(n)),
                |(traffic, stages)| {
                    let service = DataplaneService::new(ServiceConfig {
                        ring_capacity: 16_384,
                        ..Default::default()
                    });
                    let forwarded = service.run(
                        stages,
                        |_, _| {},
                        move |t| shard_of(t, n),
                        |svc| svc.round(&traffic).total().forwarded,
                    );
                    black_box(forwarded)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
