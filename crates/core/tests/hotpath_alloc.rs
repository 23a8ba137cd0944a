//! Zero-allocation guarantee of the steady-state decide path.
//!
//! The compiled classifier exists so that deciding a packet touches no
//! allocator: the stride walk reads flat arrays, the hash decision pads a
//! single SHA-256 block on the stack, and the hybrid filter probes a
//! fast-hash table. This test pins the guarantee with a counting global
//! allocator: after warmup (buffers at capacity, cache promoted), whole
//! `decide_batch` bursts of the stateless and the hybrid filter must
//! perform **zero** heap allocations, and so must the enclave's bursts of
//! never-repeating spoofed flows, which the hybrid never queues for
//! promotion. The same counter then pins the
//! whole always-on service (persistent workers, rings, TX, round
//! barriers): entire steady-state rounds allocate nothing, on any
//! thread — and neither does a full ring, whether a burst is
//! partially accepted or `offer` runs into a stalled worker. Last, it pins the on-lock half of an epoch publication:
//! what the snapshot and the install allocate does not depend on the rule
//! count.
//!
//! Kept to a single `#[test]` on purpose: the test harness runs multiple
//! tests concurrently, and any other thread's allocations would pollute
//! the global counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vif_core::filter::Verdict;
use vif_core::logs::LogDirection;
use vif_core::prelude::*;

/// Passes every call through to [`System`], counting allocation events
/// and the bytes they ask for.
struct CountingAllocator;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

fn allocated_bytes() -> u64 {
    ALLOC_BYTES.load(Ordering::Relaxed)
}

/// A rule set exercising every decide flavor: overlapping coarse drops,
/// a protocol-constrained rule, a probabilistic (hash-path) rule, and an
/// exact-match rule.
fn workload() -> (RuleSet, Vec<FiveTuple>) {
    let victim: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let mut rules = vec![
        FilterRule::drop(FlowPattern::prefixes("10.0.0.0/8".parse().unwrap(), victim)),
        FilterRule::allow(
            FlowPattern::prefixes("10.1.0.0/16".parse().unwrap(), victim)
                .with_protocol(Protocol::Tcp),
        ),
        FilterRule::drop_fraction(
            FlowPattern::prefixes("0.0.0.0/0".parse().unwrap(), victim),
            0.5,
        ),
    ];
    let dst = u32::from_be_bytes([203, 0, 113, 9]);
    let exact = FiveTuple::new(
        u32::from_be_bytes([10, 1, 2, 3]),
        dst,
        555,
        80,
        Protocol::Tcp,
    );
    rules.push(FilterRule::allow(FlowPattern::exact_tuple(exact)));
    let mut tuples = Vec::new();
    for i in 0..256u32 {
        // Half the sources sit outside 10/8 so they fall through to the
        // probabilistic rule: the stateless filter then pays the
        // one-block SHA-256 on every burst, inside the measured window.
        let src = if i % 2 == 0 { 0x0a000000 } else { 0xc0000200 } + i * 65_537;
        tuples.push(FiveTuple::new(
            src,
            dst,
            (1024 + i) as u16,
            if i % 3 == 0 { 80 } else { 443 },
            if i % 2 == 0 {
                Protocol::Tcp
            } else {
                Protocol::Udp
            },
        ));
    }
    tuples.push(exact);
    (RuleSet::from_rules(rules), tuples)
}

/// The two filters the decide-path half checks: the §III-A reference and
/// the hybrid the enclave serves with.
enum Filter {
    Stateless(StatelessFilter),
    Hybrid(HybridFilter),
}

impl Filter {
    fn name(&self) -> &'static str {
        match self {
            Filter::Stateless(_) => "stateless",
            Filter::Hybrid(_) => "hybrid",
        }
    }

    fn decide(&mut self, t: &FiveTuple) -> Verdict {
        match self {
            Filter::Stateless(f) => f.decide(t),
            Filter::Hybrid(f) => f.decide(t),
        }
    }

    fn decide_batch(&mut self, tuples: &[FiveTuple], out: &mut Vec<Verdict>) {
        match self {
            Filter::Stateless(f) => f.decide_batch(tuples, out),
            Filter::Hybrid(f) => f.decide_batch(tuples, out),
        }
    }
}

#[test]
fn decide_batch_is_allocation_free_at_steady_state() {
    let (ruleset, tuples) = workload();
    let stateless = StatelessFilter::new(ruleset, [7u8; 32]);

    let mut hybrid = HybridFilter::new(stateless.clone(), 100_000);
    let mut sink = Vec::new();
    // Two sightings admit every hash-path flow; the period promotes them.
    for _ in 0..2 {
        sink.clear();
        hybrid.decide_batch(&tuples, &mut sink);
    }
    hybrid.apply_update_period();

    let mut filters = [Filter::Stateless(stateless), Filter::Hybrid(hybrid)];

    let mut out = Vec::with_capacity(tuples.len());
    for filter in &mut filters {
        // Warm this filter's output path once so every buffer is at
        // capacity (the verdict vec, the hybrid promotion queue, …).
        out.clear();
        filter.decide_batch(&tuples, &mut out);
        assert_eq!(out.len(), tuples.len());

        let before = allocations();
        for _ in 0..10 {
            out.clear();
            filter.decide_batch(&tuples, &mut out);
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "filter `{}`: {} allocation(s) across 10 steady-state bursts",
            filter.name(),
            after - before
        );
        assert_eq!(out.len(), tuples.len());
    }

    // The per-packet path is equally clean (a burst of one).
    for filter in &mut filters {
        let warm = filter.decide(&tuples[0]);
        let before = allocations();
        for t in tuples.iter().take(64) {
            let _ = filter.decide(t);
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "filter `{}`: decide() allocated (warm verdict was {warm:?})",
            filter.name()
        );
    }

    // The full audited burst path — fingerprint-once pass, filter batch,
    // prefetch-pipelined sketch logging, telemetry — with logging enabled:
    // `FilterEnclaveApp::process_batch` must also be allocation-free at
    // steady state (the ~2 MB of sketch counters are written in place; the
    // burst fingerprints live in reused scratch buffers).
    let (ruleset, tuples) = workload();
    let mut app = vif_core::enclave_app::FilterEnclaveApp::new(ruleset, [7u8; 32], 3, [2u8; 32]);
    let pkts: Vec<(FiveTuple, u64)> = tuples.iter().map(|t| (*t, 64)).collect();
    let mut verdicts = Vec::new();
    // Warm: two bursts bring every scratch buffer (tuples, fingerprints,
    // log keys, verdicts) to capacity and show the hash-path flows twice,
    // so the update period promotes them.
    app.process_batch(&pkts, &mut verdicts);
    app.process_batch(&pkts, &mut verdicts);
    app.apply_update_period();
    assert!(
        app.logs_of(0).sketch(LogDirection::Incoming).total() > 0,
        "logging is enabled"
    );
    let before = allocations();
    for _ in 0..10 {
        app.process_batch(&pkts, &mut verdicts);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "enclave app burst logging path: {} allocation(s) across 10 steady-state bursts",
        after - before
    );
    assert_eq!(verdicts.len(), pkts.len());
    assert_eq!(
        app.logs_of(0).sketch(LogDirection::Incoming).total(),
        12 * pkts.len() as u64
    );

    // The same check with three contract slots: two scoped tenants beside
    // the default slot, each burst split three ways by destination. The
    // per-contract grouping reuses its buffers, so multi-tenant logging is
    // allocation-free at steady state too.
    let (ruleset, tuples) = workload();
    let mut app = vif_core::enclave_app::FilterEnclaveApp::new(ruleset, [7u8; 32], 3, [2u8; 32]);
    app.provision_contract(1, Some("203.0.113.0/25".parse().unwrap()), 4, [5u8; 32]);
    app.provision_contract(2, Some("203.0.113.128/25".parse().unwrap()), 5, [6u8; 32]);
    let dsts = [[203, 0, 113, 9], [203, 0, 113, 137], [198, 51, 100, 9]];
    let pkts: Vec<(FiveTuple, u64)> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut t = *t;
            t.dst_ip = u32::from_be_bytes(dsts[i % 3]);
            (t, 64)
        })
        .collect();
    app.process_batch(&pkts, &mut verdicts);
    app.process_batch(&pkts, &mut verdicts);
    app.apply_update_period();
    let before = allocations();
    for _ in 0..10 {
        app.process_batch(&pkts, &mut verdicts);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "three-slot enclave app burst logging path: {} allocation(s) across 10 steady-state bursts",
        after - before
    );
    let logged: Vec<u64> = (0..3)
        .map(|c| app.logs_of(c).sketch(LogDirection::Incoming).total())
        .collect();
    assert!(logged.iter().all(|&n| n > 0), "every slot logs: {logged:?}");
    assert_eq!(logged.iter().sum::<u64>(), 12 * pkts.len() as u64);

    // A spoofed flood: bursts of tuples that never repeat, each one
    // hash-decided by the probabilistic rule. No flow is seen twice, so
    // none is queued for promotion, and the burst path allocates nothing
    // however long the flood runs.
    let (ruleset, _) = workload();
    let mut app = vif_core::enclave_app::FilterEnclaveApp::new(ruleset, [7u8; 32], 3, [2u8; 32]);
    let dst = u32::from_be_bytes([203, 0, 113, 9]);
    let spoofed: Vec<(FiveTuple, u64)> = (0..11 * 256u32)
        .map(|i| {
            let t = FiveTuple::new(0xc000_0000 + i, dst, 4096, 443, Protocol::Udp);
            (t, 64)
        })
        .collect();
    let mut bursts = spoofed.chunks(256);
    app.process_batch(bursts.next().expect("a warm burst"), &mut verdicts);
    let before = allocations();
    for burst in bursts {
        app.process_batch(burst, &mut verdicts);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "never-repeating flows: {} allocation(s) across 10 bursts",
        after - before
    );
    let stats = app.hybrid().stats();
    assert_eq!(stats.hash_decisions, spoofed.len() as u64);
    assert_eq!(app.hybrid().pending_flows(), 0);

    // --- service mode -----------------------------------------------------
    // The always-on dataplane holds the same guarantee end to end: once the
    // persistent workers, rings, and scratch buffers are warm, whole rounds
    // (offer → filter → TX → barrier) across ALL threads perform zero heap
    // allocations. The counting allocator is global, so the worker and TX
    // threads' allocations land in the same counter the assertions read.
    let (ruleset, tuples) = workload();
    let secret = [7u8; 32];
    let root = vif_sgx::AttestationRootKey::new([3u8; 32]);
    let platform = vif_sgx::SgxPlatform::new(11, vif_sgx::EpcConfig::paper_default(), &root);
    let image = vif_sgx::EnclaveImage::new("vif-alloc", 1, vec![0x90; 1 << 12]);
    let enclaves: Vec<std::sync::Arc<vif_sgx::Enclave<vif_core::enclave_app::FilterEnclaveApp>>> =
        (0..2)
            .map(|_| {
                let app = vif_core::enclave_app::FilterEnclaveApp::new(
                    ruleset.clone(),
                    secret,
                    3,
                    [2u8; 32],
                );
                std::sync::Arc::new(platform.launch(image.clone(), app))
            })
            .collect();
    let stages: Vec<EnclaveFilterStage> = enclaves
        .iter()
        .map(|e| EnclaveFilterStage::new(std::sync::Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    let traffic: Vec<Packet> = tuples
        .iter()
        .cycle()
        .take(2_048)
        .enumerate()
        .map(|(i, t)| Packet::new(*t, 128, i as u64, i as u64))
        .collect();
    let delivered = AtomicU64::new(0);
    let service = vif_dataplane::DataplaneService::new(vif_dataplane::ServiceConfig {
        ring_capacity: 1 << 12,
        burst: 32,
        ..Default::default()
    });
    let (before, after, received) = service.run(
        stages,
        |_, _| {
            delivered.fetch_add(1, Ordering::Relaxed);
        },
        |t: &FiveTuple| vif_dataplane::shard_of(t, 2),
        |svc| {
            // Warm: one round fills the promotion queues, an update period
            // promotes every hash-path flow into the exact caches, and one
            // more round brings every ring, batch buffer, and enclave
            // scratch vec to capacity (and exercises park/unpark once).
            svc.round(&traffic);
            for e in &enclaves {
                e.in_enclave_thread(|app| {
                    app.apply_update_period();
                });
            }
            svc.round(&traffic);
            let before = allocations();
            let mut received = 0u64;
            for _ in 0..5 {
                received += svc.round(&traffic).total().received;
            }
            (before, allocations(), received)
        },
    );
    assert_eq!(
        after - before,
        0,
        "service mode: {} allocation(s) across 5 steady-state rounds",
        after - before
    );
    assert_eq!(received, 5 * traffic.len() as u64);
    assert!(delivered.load(Ordering::Relaxed) > 0);

    // --- service mode with telemetry recording ----------------------------
    // The guarantee must survive observability: the same always-on service
    // with a telemetry hub attached on every thread — per-packet scratch
    // recording in the workers, flush-barrier counter merges and
    // flight-recorder events on the handle thread — still allocates
    // nothing at steady state. (The hub's histograms are fixed arrays, the
    // scratch lives on the worker's stack, and the recorder's ring was
    // reserved up front.)
    let hub = std::sync::Arc::new(vif_telemetry::TelemetryHub::for_workers(2));
    let stages: Vec<EnclaveFilterStage> = enclaves
        .iter()
        .map(|e| EnclaveFilterStage::new(std::sync::Arc::clone(e), FilterMode::SgxNearZeroCopy))
        .collect();
    let service = vif_dataplane::DataplaneService::new(vif_dataplane::ServiceConfig {
        ring_capacity: 1 << 12,
        burst: 32,
        ..Default::default()
    })
    .with_telemetry(std::sync::Arc::clone(&hub));
    let (before, after, received) = service.run(
        stages,
        |_, _| {
            delivered.fetch_add(1, Ordering::Relaxed);
        },
        |t: &FiveTuple| vif_dataplane::shard_of(t, 2),
        |svc| {
            svc.round(&traffic);
            svc.round(&traffic);
            let before = allocations();
            let mut received = 0u64;
            for _ in 0..5 {
                received += svc.round(&traffic).total().received;
            }
            (before, allocations(), received)
        },
    );
    assert_eq!(
        after - before,
        0,
        "telemetry-on service mode: {} allocation(s) across 5 steady-state rounds",
        after - before
    );
    assert_eq!(received, 5 * traffic.len() as u64);
    // The recording actually happened: every offered packet landed in the
    // per-worker counters and size histograms, and every barrier left a
    // flush event on the flight recorder.
    let snap = hub.snapshot(16);
    let recorded: u64 = snap.workers.iter().map(|w| w.forwarded + w.filtered).sum();
    assert_eq!(recorded, 7 * traffic.len() as u64, "all rounds recorded");
    assert!(
        snap.worker_sizes.iter().all(|sizes| sizes.count() > 0),
        "wire sizes recorded on every worker"
    );
    assert_eq!(snap.events_recorded, 7, "one flush event per barrier");

    // --- burst hand-offs under backpressure --------------------------------
    // A full ring is the loaded case, so it must not allocate either: a
    // partially accepted burst keeps its tail in the caller's buffer, in
    // place, and `offer` into a stalled worker stages, hands off and counts
    // its overflow in buffers the handle allocated once.
    let ring: vif_dataplane::Ring<u64> = vif_dataplane::Ring::new(64);
    let mut items: Vec<u64> = (0..100).collect();
    let before = allocated_bytes();
    let accepted = ring.enqueue_burst(&mut items);
    let bytes = allocated_bytes() - before;
    assert_eq!((accepted, items.len()), (64, 36));
    assert_eq!(
        bytes, 0,
        "a partially accepted burst allocated {bytes} bytes"
    );

    let forward = |_p: &Packet| vif_dataplane::StageOutcome {
        verdict: vif_dataplane::StageVerdict::Forward,
        hashed: false,
    };
    let service = vif_dataplane::DataplaneService::new(vif_dataplane::ServiceConfig {
        ring_capacity: 256,
        burst: 32,
        ..Default::default()
    });
    let (bytes, overflow) = service.run(
        vec![forward],
        |_, _| {},
        |_: &FiveTuple| 0,
        |svc| {
            svc.round(&traffic[..256]);
            svc.stall_worker(0, true);
            let before = allocated_bytes();
            svc.offer(&traffic);
            let bytes = allocated_bytes() - before;
            (bytes, svc.flush_round().total().overflow)
        },
    );
    assert!(overflow > 0, "the stalled ring never filled");
    assert_eq!(
        bytes, 0,
        "offer into a stalled worker allocated {bytes} bytes"
    );

    // --- epoch publication, the on-lock half ------------------------------
    // The two calls a publication makes while holding the enclave lock move
    // handles on shared tables; whatever is linear in the rule count (the
    // copy, the compile, the replica's counter vector) is the publisher's,
    // off-lock. So the bytes they allocate are the same at 256 and at
    // 4,096 rules — none, in fact.
    let on_lock_bytes = |rules: u32| {
        let victim: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
        let ruleset = RuleSet::from_rules((0..rules).map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::host(0x0a00_0000 + i * 4_099),
                victim,
            ))
        }));
        let mut app =
            vif_core::enclave_app::FilterEnclaveApp::new(ruleset.clone(), [7u8; 32], 3, [2u8; 32]);
        let replica = ruleset.clone();
        let before = allocated_bytes();
        let snapshot = app.take_publish_snapshot_for(0).expect("default contract");
        let displaced = app.install_published_for(0, replica, &[]);
        let bytes = allocated_bytes() - before;
        assert!(std::sync::Arc::ptr_eq(&snapshot.tables, displaced.tables()));
        assert_eq!((app.epoch_of(0), app.ruleset().len()), (1, rules as usize));
        bytes
    };
    let (small, large) = (on_lock_bytes(256), on_lock_bytes(4096));
    assert_eq!(
        small, large,
        "on-lock publication bytes depend on the rule count"
    );
    assert_eq!(large, 0, "on-lock publication allocated");
}
