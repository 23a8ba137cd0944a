//! What observability costs on the hot path: the always-on service's
//! per-round wall-clock with telemetry recording **off** vs **on**.
//!
//! The acceptance budget is ≤5 % slowdown with recording enabled
//! (`record_on` vs `record_off` below); `scripts/bench_regress.py` gates
//! both keys against `BENCH_hotpath.json` with a tighter-than-default
//! tolerance so a recording-cost regression cannot hide inside the
//! generic 2× window.
//!
//! Four measurements:
//!
//! - `record_off/32`: one full service round (offer → shard → filter →
//!   TX → barrier, burst 32, 2 workers) with no telemetry hub attached —
//!   the baseline the overhead is priced against;
//! - `record_on/32`: the identical round with a [`TelemetryHub`]
//!   attached to the service — per-packet `WorkerScratch` recording in
//!   the workers, counter merges and a flight-recorder event at every
//!   flush barrier; the stages are the same plain enclave stages;
//! - `flight_event`: one [`FlightRecorder::record`] (ring write, no
//!   allocation) — the unit cost of a control-plane event;
//! - `histogram_record`: one [`Histogram::record`] (log2 bucket add) —
//!   the unit cost every latency/size sample pays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use vif_bench::experiments::host_rules;
use vif_core::cost::FilterMode;
use vif_core::enclave_app::{EnclaveFilterStage, FilterEnclaveApp};
use vif_core::ruleset::RuleSet;
use vif_dataplane::{shard_of, DataplaneService, FiveTuple, Packet, ServiceConfig};
use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};
use vif_telemetry::{Event, EventKind, FlightRecorder, Histogram, TelemetryHub};

const WORKERS: usize = 2;
const ROUND_PACKETS: usize = 2_048;
const BURST: usize = 32;

fn workload() -> (RuleSet, Vec<Packet>) {
    let (rs, flows) = host_rules(256, 42);
    let traffic: Vec<Packet> = flows
        .flows()
        .iter()
        .cycle()
        .take(ROUND_PACKETS)
        .enumerate()
        .map(|(i, t)| Packet::new(*t, 128, i as u64, i as u64))
        .collect();
    (rs, traffic)
}

fn enclaves(rs: &RuleSet) -> (SgxPlatform, Vec<Arc<vif_sgx::Enclave<FilterEnclaveApp>>>) {
    let root = AttestationRootKey::new([3u8; 32]);
    let platform = SgxPlatform::new(11, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-telemetry-bench", 1, vec![0x90; 1 << 12]);
    let e = (0..WORKERS)
        .map(|_| {
            let app = FilterEnclaveApp::new(rs.clone(), [7u8; 32], 3, [2u8; 32]);
            Arc::new(platform.launch(image.clone(), app))
        })
        .collect();
    (platform, e)
}

fn bench(c: &mut Criterion) {
    let (rs, traffic) = workload();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.throughput(Throughput::Elements(traffic.len() as u64));

    // --- recording OFF: the baseline round ------------------------------
    let (_platform, encl) = enclaves(&rs);
    let stages: Vec<EnclaveFilterStage> = encl
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    let service = DataplaneService::new(ServiceConfig {
        ring_capacity: 1 << 12,
        burst: BURST,
        ..Default::default()
    });
    service.run(
        stages,
        |_, _| {},
        |t: &FiveTuple| shard_of(t, WORKERS),
        |svc| {
            svc.round(&traffic); // warm rings, buffers, caches
            svc.round(&traffic);
            group.bench_function("record_off/32", |b| {
                b.iter(|| black_box(svc.round(&traffic).total().received));
            });
        },
    );

    // --- recording ON: identical round, hub attached to the service -----
    let (_platform, encl) = enclaves(&rs);
    let hub = Arc::new(TelemetryHub::for_workers(WORKERS));
    let stages: Vec<EnclaveFilterStage> = encl
        .iter()
        .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    let service = DataplaneService::new(ServiceConfig {
        ring_capacity: 1 << 12,
        burst: BURST,
        ..Default::default()
    })
    .with_telemetry(Arc::clone(&hub));
    service.run(
        stages,
        |_, _| {},
        |t: &FiveTuple| shard_of(t, WORKERS),
        |svc| {
            svc.round(&traffic);
            svc.round(&traffic);
            group.bench_function("record_on/32", |b| {
                b.iter(|| black_box(svc.round(&traffic).total().received));
            });
        },
    );
    assert!(
        hub.events_recorded() > 0,
        "the measured rounds actually recorded"
    );

    // --- unit costs ------------------------------------------------------
    group.throughput(Throughput::Elements(1));
    let mut rec = FlightRecorder::new(4096);
    let mut t = 0u64;
    group.bench_function("flight_event/1", |b| {
        b.iter(|| {
            t += 1;
            rec.record(black_box(Event {
                t_ns: t,
                round: t,
                kind: EventKind::FlushBarrier,
                slice: 0,
                a: t,
                b: t,
            }));
        });
    });
    black_box(rec.recorded());

    let mut h = Histogram::new();
    let mut v = 1u64;
    group.bench_function("histogram_record/1", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(black_box(v >> 32));
        });
    });
    black_box(h.count());

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
