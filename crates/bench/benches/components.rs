//! Component micro-benchmarks: the primitives behind every experiment.
//!
//! These confirm the cost-model rank ordering on real hardware: sketch
//! updates ≪ trie lookups ≪ SHA-256, and channel/HMAC costs that keep the
//! control plane negligible next to the data plane.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use vif_crypto::channel::SecureChannel;
use vif_crypto::hmac::HmacSha256;
use vif_crypto::sha256::Sha256;
use vif_sketch::{CountMinSketch, SketchConfig};
use vif_trie::{Ipv4Prefix, MultiBitTrie};

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group.throughput(Throughput::Bytes(13));
    group.bench_function("sha256_5tuple", |b| {
        let data = [0x42u8; 13];
        b.iter(|| black_box(Sha256::digest(black_box(&data))));
    });
    group.throughput(Throughput::Bytes(1 << 20));
    group.bench_function("sha256_1mb", |b| {
        let data = vec![0x42u8; 1 << 20];
        b.iter(|| black_box(Sha256::digest(black_box(&data))));
    });
    group.throughput(Throughput::Bytes(1 << 20));
    group.bench_function("hmac_sketch_export_1mb", |b| {
        let data = vec![0x42u8; 1 << 20];
        b.iter(|| black_box(HmacSha256::mac(b"audit-key", black_box(&data))));
    });
    group.finish();

    let mut group = c.benchmark_group("channel");
    group.bench_function("seal_open_64b", |b| {
        let (mut a, mut bch) = SecureChannel::pair_from_secret(b"s", b"ctx");
        let msg = [0u8; 64];
        b.iter(|| {
            let f = a.seal(black_box(&msg));
            black_box(bch.open(&f).unwrap())
        });
    });
    group.finish();
}

fn bench_sketch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketch");
    let mut s = CountMinSketch::new(SketchConfig::paper_default(1));
    let mut rng = StdRng::seed_from_u64(2);
    group.bench_function("add_paper_config", |b| {
        b.iter(|| {
            let key: u64 = rng.gen();
            s.add(black_box(&key.to_le_bytes()), 1)
        });
    });
    group.bench_function("estimate_paper_config", |b| {
        b.iter(|| black_box(s.estimate(black_box(b"10.1.2.3"))));
    });
    // Named when counters were 64-bit (1 MiB); the name stays so its
    // `BENCH_history.jsonl` trajectory stays one series.
    group.bench_function("encode_1mb_sketch", |b| {
        b.iter(|| black_box(s.encode().len()));
    });
    group.finish();
}

fn bench_trie(c: &mut Criterion) {
    let mut group = c.benchmark_group("trie");
    let mut rng = StdRng::seed_from_u64(3);
    let mut trie: MultiBitTrie<u32> = MultiBitTrie::new(8);
    trie.batch_insert((0..3000u32).map(|i| (Ipv4Prefix::host(rng.gen()), i)));
    group.bench_function("lookup_3000_host_rules", |b| {
        b.iter(|| black_box(trie.lookup(black_box(rng.gen()))));
    });
    group.bench_function("lookup_path_3000_host_rules", |b| {
        b.iter(|| black_box(trie.lookup_path(black_box(rng.gen())).len()));
    });
    group.finish();
}

criterion_group!(benches, bench_crypto, bench_sketch, bench_trie);
criterion_main!(benches);
