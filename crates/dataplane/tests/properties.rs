//! Property-based tests for the data-plane substrate.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;
use vif_dataplane::lifecycle::{PROBATION_ROUNDS, REJOIN_RETRIES};
use vif_dataplane::{
    shard_of, DataplaneService, FiveTuple, FlowSet, LineRate, Packet, Protocol, Ring,
    ServiceConfig, SliceEvent, SliceLifecycle, SliceState, StageOutcome, StageVerdict,
    TrafficConfig, TrafficGenerator,
};

proptest! {
    /// A ring is a capacity-bounded `VecDeque` under any mix of burst and
    /// single operations: the same FIFO order and length, a partial
    /// accept takes exactly what fits and hands the rejected tail back
    /// intact and in order, and a burst dequeue appends to what the
    /// caller's buffer already held.
    #[test]
    fn ring_fifo(capacity in 1usize..48, ops in vec((0u8..4, 0usize..40), 1..120)) {
        let ring: Ring<u64> = Ring::new(capacity);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for (op, n) in ops {
            match op {
                0 => {
                    let burst: Vec<u64> = (next..next + n as u64).collect();
                    next += n as u64;
                    let fits = n.min(capacity - model.len());
                    let mut items = burst.clone();
                    prop_assert_eq!(ring.enqueue_burst(&mut items), fits);
                    model.extend(&burst[..fits]);
                    prop_assert_eq!(&items[..], &burst[fits..]);
                }
                1 => {
                    let accepted = ring.enqueue(next);
                    if model.len() < capacity {
                        prop_assert_eq!(accepted, Ok(()));
                        model.push_back(next);
                    } else {
                        prop_assert_eq!(accepted, Err(next));
                    }
                    next += 1;
                }
                2 => {
                    let mut out = vec![u64::MAX];
                    let taken = n.min(model.len());
                    prop_assert_eq!(ring.dequeue_burst(&mut out, n), taken);
                    let mut expected = vec![u64::MAX];
                    expected.extend(model.drain(..taken));
                    prop_assert_eq!(out, expected);
                }
                _ => prop_assert_eq!(ring.dequeue(), model.pop_front()),
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
        }
    }

    /// Line-rate arithmetic: pps × (size + overhead) × 8 == rate.
    #[test]
    fn line_rate_identity(size in 64u32..9000) {
        let rate = LineRate::TEN_GBE;
        let pps = rate.max_pps(size);
        let reconstructed = pps * ((size + 20) * 8) as f64;
        prop_assert!((reconstructed - 10e9).abs() < 1.0);
    }

    /// The N-worker service is verdict- and accounting-equivalent to the
    /// 1-worker service at any worker count, and its flow → worker
    /// steering is stable and equal to the public RSS hash.
    #[test]
    fn sharded_equals_single_worker(
        workers in prop::sample::select(vec![1usize, 2, 4]),
        burst in prop::sample::select(vec![8usize, 32]),
        seed in 0u64..32,
    ) {
        let flows = FlowSet::random_toward_victim(32, 9, seed);
        let traffic = TrafficGenerator::new(seed).generate(
            &flows,
            TrafficConfig { packet_size: 64, offered_gbps: 5.0, count: 2000 },
        );
        // A stateless per-packet verdict function: what the batch
        // invariant guarantees the enclave filter behaves like.
        let stage = |p: &Packet| StageOutcome {
            verdict: if (p.tuple.src_ip ^ p.tuple.src_port as u32).is_multiple_of(3) {
                StageVerdict::Drop
            } else {
                StageVerdict::Forward
            },
            hashed: false,
        };
        // Rings hold the whole round: overflow would be scheduling-
        // dependent, everything else is deterministic.
        let service = DataplaneService::new(ServiceConfig {
            ring_capacity: 4096,
            burst,
            ..Default::default()
        });
        let one_seen = std::sync::Mutex::new(Vec::new());
        let single = service
            .run(
                vec![stage],
                |_, p: &Packet| one_seen.lock().unwrap().push(p.id),
                |_| 0,
                |svc| svc.round(&traffic).clone(),
            )
            .total();
        let s_seen = std::sync::Mutex::new(Vec::new());
        let sharded = service.run(
            vec![stage; workers],
            |w, p: &Packet| s_seen.lock().unwrap().push((w, p.id, p.tuple)),
            |t| shard_of(t, workers),
            |svc| svc.round(&traffic).clone(),
        );

        // Aggregate accounting matches the single-worker reference.
        let total = sharded.total();
        prop_assert_eq!(total.overflow, 0);
        prop_assert_eq!(single.overflow, 0);
        prop_assert_eq!(total, single);
        // Per-worker conservation and steering-derived received counts.
        let mut expected_rx = vec![0u64; workers];
        for p in &traffic {
            expected_rx[shard_of(&p.tuple, workers)] += 1;
        }
        for (w, r) in sharded.per_worker.iter().enumerate() {
            prop_assert_eq!(r.forwarded + r.filtered + r.overflow, r.received);
            prop_assert_eq!(r.received, expected_rx[w], "worker {}", w);
        }
        // Identical per-packet verdicts: the exact same packet ids were
        // forwarded (ids are unique, so set equality pins every verdict).
        let mut t_ids = one_seen.into_inner().unwrap();
        let s_tagged = s_seen.into_inner().unwrap();
        let mut s_ids: Vec<u64> = s_tagged.iter().map(|&(_, id, _)| id).collect();
        t_ids.sort_unstable();
        s_ids.sort_unstable();
        prop_assert_eq!(t_ids, s_ids);
        // Steering stability: every delivery came from the worker the
        // public hash names for that flow — per packet, across the run.
        for (w, _, tuple) in &s_tagged {
            prop_assert_eq!(*w, shard_of(tuple, workers));
        }
    }

    /// The slice lifecycle under arbitrary event sequences and 1–3 voting
    /// tenants: refused events change nothing, the log replays to the
    /// table, no slice is both steered and shadowed, `Live` is reached
    /// from quarantine only through a probation whose window settled clean
    /// for every tenant, rejoin attempts and backoff only grow, and
    /// steering stays total — with every slice down too.
    #[test]
    fn lifecycle_invariants_hold_under_any_event_sequence(
        tenants in 1usize..4,
        ops in vec((0usize..4, 0usize..11), 1..200),
    ) {
        const N: usize = 4;
        use SliceEvent::*;
        #[rustfmt::skip]
        let events = [Crash, Reaped, AckLost, Excise, Resync, Unauditable, ProbationDirty, ProbationClean, Promote];
        let states = |lc: &SliceLifecycle| (0..N).map(|w| lc.state(w)).collect::<Vec<_>>();
        let lc = SliceLifecycle::new(N);
        // Model of the probation window: clean votes since the last
        // settle, and consecutive unanimous settles, per slice.
        let (mut votes, mut streak) = ([0usize; N], [0u32; N]);
        let (mut attempts, mut not_before) = ([0u32; N], [0u64; N]);
        for (slice, code) in ops {
            let before = lc.snapshot();
            if let Some(&event) = events.get(code) {
                match lc.advance(slice, event) {
                    Ok(t) => {
                        prop_assert_eq!(Some(t.to), t.from.on(event));
                        prop_assert_ne!(event, Promote, "only a settle promotes");
                        votes[slice] += usize::from(event == ProbationClean);
                    }
                    Err(_) => prop_assert_eq!(states(&lc), states(&before)),
                }
            } else {
                // A round closes: every tenant votes every probation slice
                // clean (code 9) or nobody votes (code 10), then settle.
                for w in lc.slices_where(SliceState::shadowed) {
                    for _ in 0..if code == 9 { tenants } else { 0 } {
                        lc.advance(w, ProbationClean).unwrap();
                        votes[w] += 1;
                    }
                    streak[w] += u32::from(votes[w] >= tenants);
                }
                lc.settle_round(tenants);
                votes = [0; N];
            }
            for w in 0..N {
                let (was, now) = (before.state(w), lc.state(w));
                prop_assert!(!(now.steered() && now.shadowed()));
                if now == SliceState::Probation && was != now {
                    (votes[w], streak[w]) = (0, 0);
                }
                if now == SliceState::Live && was != now {
                    prop_assert_eq!(was, SliceState::Probation);
                    prop_assert!(streak[w] >= PROBATION_ROUNDS, "window not served");
                }
                prop_assert!(lc.rejoin_attempts(w) >= attempts[w]);
                attempts[w] = lc.rejoin_attempts(w);
                if let Some(at) = lc.rejoin_not_before(w) {
                    prop_assert!(at >= not_before[w] && attempts[w] <= REJOIN_RETRIES);
                    not_before[w] = at;
                }
                for fp in [0u64, 7, 0xdead_beef] {
                    let to = lc.steer(fp, w);
                    let none_steered = lc.slices_where(SliceState::steered).is_empty();
                    prop_assert!(lc.state(to).steered() || (none_steered && to == w));
                }
            }
        }
        let mut replay = [SliceState::Live; N];
        for t in lc.log() {
            prop_assert_eq!(replay[t.slice], t.from);
            replay[t.slice] = t.to;
        }
        prop_assert_eq!(replay.to_vec(), states(&lc));
    }

    /// Five-tuple encoding is injective across field changes.
    #[test]
    fn five_tuple_encode_injective(a in any::<(u32, u32, u16, u16, u8)>(), b in any::<(u32, u32, u16, u16, u8)>()) {
        let ta = FiveTuple::new(a.0, a.1, a.2, a.3, Protocol::from(a.4));
        let tb = FiveTuple::new(b.0, b.1, b.2, b.3, Protocol::from(b.4));
        prop_assert_eq!(ta == tb, ta.encode() == tb.encode());
    }
}
