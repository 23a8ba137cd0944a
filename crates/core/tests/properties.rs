//! Property-based tests for the core filtering semantics.

use proptest::collection::vec;
use proptest::prelude::*;
use vif_core::filter::{DecisionPath, Verdict};
use vif_core::logs::{LogDirection, LogError, PacketFingerprints, PacketLogs};
use vif_core::prelude::*;
use vif_core::rules::RuleAction;
use vif_core::verify::AuditError;
use vif_sketch::{compare, CountMinSketch};
use vif_trie::Ipv4Prefix;

/// The two filters over the same rule set/secret: the §III-A reference
/// and the hybrid the enclave serves with.
enum Filter {
    Stateless(StatelessFilter),
    Hybrid(HybridFilter),
}

impl Filter {
    fn both(stateless: &StatelessFilter) -> [Filter; 2] {
        [
            Filter::Stateless(stateless.clone()),
            Filter::Hybrid(HybridFilter::new(stateless.clone(), 1000)),
        ]
    }

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

    /// The hybrid's rule-update period; the reference has none.
    fn update_period(&mut self) {
        if let Filter::Hybrid(f) = self {
            f.apply_update_period();
        }
    }
}

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        any::<u8>(),
    )
        .prop_map(|(s, d, sp, dp, pr)| FiveTuple::new(s, d, sp, dp, Protocol::from(pr)))
}

fn arb_pattern() -> impl Strategy<Value = FlowPattern> {
    (
        any::<u32>(),
        0u8..=32,
        any::<u32>(),
        0u8..=32,
        any::<u16>(),
        any::<u16>(),
        proptest::option::of(any::<u8>()),
    )
        .prop_map(|(sa, sl, da, dl, p1, p2, proto)| {
            let mut pat = FlowPattern::prefixes(Ipv4Prefix::new(sa, sl), Ipv4Prefix::new(da, dl))
                .with_src_port(vif_core::rules::PortRange::new(p1.min(p2), p1.max(p2)));
            if let Some(pr) = proto {
                pat = pat.with_protocol(Protocol::from(pr));
            }
            pat
        })
}

fn arb_rule() -> impl Strategy<Value = FilterRule> {
    (arb_pattern(), 0u8..=2, 0.0f64..=1.0).prop_map(|(pat, kind, frac)| match kind {
        0 => FilterRule::drop(pat),
        1 => FilterRule::allow(pat),
        _ => FilterRule::drop_fraction(pat, frac),
    })
}

fn rule_of_kind(pat: FlowPattern, kind: u8, frac: f64) -> FilterRule {
    match kind {
        0 => FilterRule::drop(pat),
        1 => FilterRule::allow(pat),
        _ => FilterRule::drop_fraction(pat, frac),
    }
}

/// A rule set stressing the compiled classifier: arbitrary coarse rules,
/// exact five-tuple rules, and a chain of overlapping prefixes sharing one
/// base address (every length nests) — plus probes biased to actually hit
/// the overlap chain and the exact rules.
fn arb_mixed_workload() -> impl Strategy<Value = (Vec<FilterRule>, Vec<FiveTuple>)> {
    (
        vec(arb_rule(), 0..15),
        vec(arb_tuple(), 0..6),
        any::<u32>(),
        vec((0u8..=32, 0u8..=2, 0.0f64..=1.0, any::<u8>()), 0..12),
        vec(arb_tuple(), 1..40),
        vec(any::<u32>(), 0..20),
    )
        .prop_map(|(mut rules, exacts, base, chain, mut probes, near)| {
            for t in &exacts {
                rules.push(rule_of_kind(
                    FlowPattern::exact_tuple(*t),
                    t.src_port as u8 % 3,
                    0.5,
                ));
                // Probe the exact rules, and a near miss one port off.
                probes.push(*t);
                let mut miss = *t;
                miss.dst_port = miss.dst_port.wrapping_add(1);
                probes.push(miss);
            }
            for (len, kind, frac, proto) in chain {
                let mut pat =
                    FlowPattern::prefixes(Ipv4Prefix::new(base, len), Ipv4Prefix::default_route());
                if proto < 192 {
                    // Include denormalized `Other(n)` protocols (n may be
                    // 1/6/17): the reference matches by enum variant, and
                    // the compiled path must reproduce that exactly.
                    pat = pat.with_protocol(if proto < 128 {
                        Protocol::from(proto)
                    } else {
                        Protocol::Other(proto % 32)
                    });
                }
                rules.push(rule_of_kind(pat, kind, frac));
            }
            // Probes landing inside the overlap chain: perturb low bits of
            // the base so different prefix lengths of the chain match.
            for (i, salt) in near.into_iter().enumerate() {
                let src = base ^ (salt >> (i % 32));
                let proto = if salt & 1 == 0 {
                    Protocol::from(salt as u8)
                } else {
                    Protocol::Other((salt as u8) % 32)
                };
                probes.push(FiveTuple::new(
                    src,
                    !base,
                    (salt >> 16) as u16,
                    salt as u16,
                    proto,
                ));
            }
            (rules, probes)
        })
}

proptest! {
    /// Rule wire encoding round-trips for arbitrary rules.
    #[test]
    fn rule_codec_roundtrip(rule in arb_rule()) {
        let decoded = FilterRule::decode(&rule.encode()).unwrap();
        prop_assert_eq!(decoded, rule);
    }

    /// §III-A statelessness: the verdict for a packet is independent of the
    /// order of evaluation and of any interleaved (injected) packets.
    #[test]
    fn filter_is_stateless(
        rules in vec(arb_rule(), 0..20),
        packets in vec(arb_tuple(), 1..60),
        injected in vec(arb_tuple(), 0..30),
    ) {
        let filter = StatelessFilter::new(RuleSet::from_rules(rules), [7u8; 32]);
        let forward: Vec<RuleAction> = packets.iter().map(|t| filter.decide(t).action).collect();
        // Evaluate in reverse with injected noise between every packet.
        let mut backward = vec![RuleAction::Allow; packets.len()];
        for (i, t) in packets.iter().enumerate().rev() {
            for inj in &injected {
                let _ = filter.decide(inj);
            }
            backward[i] = filter.decide(t).action;
        }
        prop_assert_eq!(forward, backward);
    }

    /// Classification returns a rule whose pattern actually matches, and
    /// never misses when some rule matches.
    #[test]
    fn classify_sound_and_complete(
        rules in vec(arb_rule(), 0..25),
        probe in arb_tuple(),
    ) {
        let rs = RuleSet::from_rules(rules.clone());
        match rs.classify(&probe) {
            Some(id) => prop_assert!(rs.rule(id).pattern().matches(&probe)),
            None => {
                for (i, r) in rules.iter().enumerate() {
                    prop_assert!(
                        !r.pattern().matches(&probe),
                        "rule {i} matches but classify returned None"
                    );
                }
            }
        }
    }

    /// Classification prefers exact rules, then the longest matching source
    /// prefix (against a brute-force reference).
    #[test]
    fn classify_precedence(rules in vec(arb_rule(), 1..25), probe in arb_tuple()) {
        let rs = RuleSet::from_rules(rules.clone());
        if let Some(id) = rs.classify(&probe) {
            let chosen = &rules[id as usize];
            if !chosen.pattern().is_exact() {
                // No exact rule may match.
                for r in &rules {
                    if r.pattern().is_exact() {
                        prop_assert!(!r.pattern().matches(&probe));
                    }
                }
                // No matching coarse rule may have a longer src prefix.
                for r in &rules {
                    if !r.pattern().is_exact() && r.pattern().matches(&probe) {
                        prop_assert!(r.pattern().src.len() <= chosen.pattern().src.len());
                    }
                }
            }
        }
    }

    /// The batch invariant, both halves: (1) for both filters,
    /// `decide_batch` produces exactly the verdicts (action, rule id,
    /// decision path) that per-packet `decide` produces — including
    /// mid-stream, after the filter has accumulated caching state; and
    /// (2) the hybrid agrees with the stateless reference on the
    /// semantic fields (action, matched rule) — only the execution path
    /// may differ (e.g. `Cached` vs `HashBased`).
    #[test]
    fn batch_decide_equals_single_decide(
        rules in vec(arb_rule(), 0..20),
        warmup in vec(arb_tuple(), 0..40),
        packets in vec(arb_tuple(), 1..120),
    ) {
        let stateless = StatelessFilter::new(RuleSet::from_rules(rules), [7u8; 32]);
        let batchers = Filter::both(&stateless);
        let singles = Filter::both(&stateless);
        for (mut batcher, mut single) in batchers.into_iter().zip(singles) {
            // Drive both instances through identical warmup traffic, seen
            // twice so the hybrid admits it, and one update period, so the
            // cache, the promotion queue and the second-sight tags hold
            // state before the comparison.
            let mut sink = Vec::new();
            for _ in 0..2 {
                batcher.decide_batch(&warmup, &mut sink);
                for t in &warmup {
                    let _ = single.decide(t);
                }
            }
            batcher.update_period();
            single.update_period();
            // The warmup flows again (cached verdicts), then fresh ones.
            let probes: Vec<FiveTuple> = warmup.iter().chain(&packets).copied().collect();
            let mut got = Vec::new();
            batcher.decide_batch(&probes, &mut got);
            let want: Vec<Verdict> = probes.iter().map(|t| single.decide(t)).collect();
            prop_assert_eq!(&got, &want, "filter {} batch != single", batcher.name());
            // Semantic equivalence against the stateless reference.
            for (t, v) in probes.iter().zip(&got) {
                let r = stateless.decide(t);
                prop_assert_eq!(
                    (v.action, v.rule),
                    (r.action, r.rule),
                    "filter {} diverged from stateless reference",
                    batcher.name()
                );
            }
        }
    }

    /// The compiled classifier is bit-identical to the `lookup_path`
    /// reference: same rule id from `classify`, and the same full verdict
    /// (action, rule id, decision path) from `decide`, over rule sets
    /// mixing exact, probabilistic, and overlapping-prefix rules. This is
    /// the contract that lets the hot path replace the reference at all —
    /// audit equivalence and the batch invariant both build on it.
    #[test]
    fn compiled_classifier_matches_reference(
        (rules, probes) in arb_mixed_workload(),
    ) {
        let filter = StatelessFilter::new(RuleSet::from_rules(rules), [7u8; 32]);
        for t in &probes {
            prop_assert_eq!(
                filter.ruleset().classify(t),
                filter.ruleset().classify_reference(t),
                "classify diverged for {}", t
            );
            prop_assert_eq!(
                filter.decide(t),
                filter.decide_reference(t),
                "decide diverged for {}", t
            );
        }
    }

    /// Incremental insertion compiles to the same classifier as one batch
    /// build (the two mutation paths share the compiled-swap contract).
    #[test]
    fn compiled_classifier_incremental_equals_batch(
        (rules, probes) in arb_mixed_workload(),
    ) {
        let batch = RuleSet::from_rules(rules.clone());
        let mut inc = RuleSet::new();
        for r in &rules {
            inc.insert(*r);
        }
        for t in &probes {
            prop_assert_eq!(batch.classify(t), inc.classify(t), "probe {}", t);
        }
    }

    /// Any interleaving of `insert` / `remove` / `insert_batch` /
    /// `batch_edit` leaves a consistent epoch: ids are stable (a slot keeps
    /// its rule, a tombstone stays one), exactly one compile per dirty
    /// scope, the compiled walk agrees with the reference probe, and the
    /// whole set classifies like `from_rules` of the surviving rules, up
    /// to the renumbering that compaction implies.
    #[test]
    fn mutation_interleavings_yield_a_consistent_epoch(
        (pool, probes) in arb_mixed_workload(),
        ops in vec(
            (0u8..4, any::<u16>(), vec((any::<bool>(), any::<u16>()), 0..6)),
            1..12,
        ),
    ) {
        prop_assume!(!pool.is_empty());
        let mut next_rule = pool.iter().cycle().copied();
        let mut rs = RuleSet::new();
        // By id: the rule while in force, `None` once withdrawn.
        let mut model: Vec<Option<FilterRule>> = Vec::new();
        let mut rules_by_id: Vec<FilterRule> = Vec::new();
        let withdraw = |model: &mut Vec<Option<FilterRule>>, id: RuleId| {
            model.get_mut(id as usize).and_then(Option::take).is_some()
        };
        for (kind, arg, scope) in ops {
            let before = rs.rebuilds();
            let dirty = match kind {
                0 => {
                    let rule = next_rule.next().unwrap();
                    prop_assert_eq!(rs.insert(rule) as usize, model.len());
                    model.push(Some(rule));
                    rules_by_id.push(rule);
                    true
                }
                1 => {
                    // Sometimes out of range, sometimes already withdrawn.
                    let id = RuleId::from(arg) % (model.len() as RuleId + 2);
                    let was_in_force = withdraw(&mut model, id);
                    prop_assert_eq!(rs.remove(id), was_in_force);
                    was_in_force
                }
                2 => {
                    let batch: Vec<FilterRule> =
                        next_rule.by_ref().take(usize::from(arg % 5)).collect();
                    rs.insert_batch(batch.iter().copied());
                    model.extend(batch.iter().copied().map(Some));
                    rules_by_id.extend(&batch);
                    !batch.is_empty()
                }
                _ => rs.batch_edit(|edit| {
                    let mut dirty = false;
                    for &(insert, pick) in &scope {
                        if insert {
                            let rule = next_rule.next().unwrap();
                            assert_eq!(edit.insert(rule) as usize, model.len());
                            model.push(Some(rule));
                            rules_by_id.push(rule);
                            dirty = true;
                        } else {
                            let id = RuleId::from(pick) % (model.len() as RuleId + 2);
                            let was_in_force = withdraw(&mut model, id);
                            assert_eq!(edit.remove(id), was_in_force);
                            dirty |= was_in_force;
                        }
                        assert_eq!(edit.len(), model.len());
                    }
                    dirty
                }),
            };
            prop_assert_eq!(rs.rebuilds() - before, u64::from(dirty), "op kind {}", kind);
            prop_assert_eq!(rs.len(), model.len());
            prop_assert_eq!(rs.counters().len(), model.len());
            prop_assert_eq!(rs.active_len(), model.iter().flatten().count());
            prop_assert_eq!(rs.rules(), &rules_by_id[..]);
            for (id, slot) in model.iter().enumerate() {
                prop_assert_eq!(rs.is_removed(id as RuleId), slot.is_none(), "id {}", id);
            }
        }
        let survivors: Vec<RuleId> = (0..model.len() as RuleId)
            .filter(|&id| model[id as usize].is_some())
            .collect();
        let compacted = RuleSet::from_rules(model.iter().flatten().copied());
        for t in &probes {
            let got = rs.classify(t);
            prop_assert_eq!(got, rs.classify_reference(t), "probe {}", t);
            prop_assert_eq!(
                got,
                compacted.classify(t).map(|fresh| survivors[fresh as usize]),
                "probe {} against the compacted set", t
            );
        }
    }

    /// The audit-equivalence bar of the burst logging path: a
    /// `FilterEnclaveApp` fed one burst at a time produces **byte-identical**
    /// authenticated exports (payload and HMAC tag, both directions) to an
    /// identically-configured app processing the same packets one by one,
    /// and the same per-rule byte counters (`B_i`) —
    /// and `PacketLogs::log_batch_fingerprints` over both filters' verdicts
    /// matches sequential logging the same way. Burst boundaries are
    /// adversary-controlled; if they could perturb a single exported byte,
    /// the host could smuggle filtering differences past the §III-B
    /// verifiers. The app runs alone (one contract: every burst is one
    /// group) and with two scoped contracts beside the default slot, which
    /// splits each burst three ways by destination; every contract's
    /// exports must match.
    #[test]
    fn burst_logging_audit_equivalence(
        rules in vec(arb_rule(), 0..15),
        packets in vec(arb_tuple(), 1..150),
        bursts in vec(1usize..40, 1..6),
        seed in any::<u64>(),
    ) {
        let audit_key = [9u8; 32];
        let mk_app = |scoped: bool| {
            let mut app = FilterEnclaveApp::new(
                RuleSet::from_rules(
                    packets.iter().take(3).map(|t| {
                        FilterRule::drop_fraction(FlowPattern::exact_tuple(*t), 0.5)
                    }).chain(rules.iter().copied()),
                ),
                [7u8; 32],
                seed,
                audit_key,
            );
            if scoped {
                // Two scoped tenants take a quarter of the address space
                // each; the rest falls to the default slot.
                app.provision_contract(1, Some(Ipv4Prefix::new(0, 2)), seed ^ 1, [10u8; 32]);
                app.provision_contract(
                    2,
                    Some(Ipv4Prefix::new(0x4000_0000, 2)),
                    seed ^ 2,
                    [11u8; 32],
                );
            }
            app
        };
        let wire = |t: &FiveTuple| 64 + u64::from(t.src_port % 1437);
        for scoped in [false, true] {
            let mut batched = mk_app(scoped);
            let mut sequential = mk_app(scoped);
            let mut verdicts = Vec::new();
            let mut rest: &[FiveTuple] = &packets;
            let mut i = 0usize;
            while !rest.is_empty() {
                let take = bursts[i % bursts.len()].min(rest.len());
                let (burst, tail) = rest.split_at(take);
                let pkts: Vec<(FiveTuple, u64)> = burst.iter().map(|t| (*t, wire(t))).collect();
                batched.process_batch(&pkts, &mut verdicts);
                for (j, t) in burst.iter().enumerate() {
                    let v = sequential.process(t, wire(t));
                    prop_assert_eq!(verdicts[j], v, "burst verdict != sequential");
                }
                rest = tail;
                i += 1;
            }
            // The per-rule `B_i` that serving reads.
            prop_assert_eq!(batched.ruleset().counters(), sequential.ruleset().counters());
            prop_assert_eq!(batched.contract_ids().len(), if scoped { 3 } else { 1 });
            for contract in batched.contract_ids() {
                for dir in [LogDirection::Incoming, LogDirection::Outgoing] {
                    let b = batched.export_log_for(contract, dir);
                    let s = sequential.export_log_for(contract, dir);
                    prop_assert_eq!(
                        b.payload, s.payload,
                        "contract {} {:?} payload diverged", contract, dir
                    );
                    prop_assert_eq!(b.tag, s.tag, "contract {} {:?} tag diverged", contract, dir);
                }
            }
        }
        // The same bar for PacketLogs::log_batch_fingerprints under both
        // filters' verdicts (the app above exercises only the hybrid).
        let fps: Vec<PacketFingerprints> = packets.iter().map(PacketFingerprints::of).collect();
        let stateless = StatelessFilter::new(RuleSet::from_rules(rules), [7u8; 32]);
        for mut filter in Filter::both(&stateless) {
            let mut verdicts = Vec::new();
            filter.decide_batch(&packets, &mut verdicts);
            let mut batch_logs = PacketLogs::new(seed);
            batch_logs.log_batch_fingerprints(&fps, &verdicts);
            let mut seq_logs = PacketLogs::new(seed);
            for (t, v) in packets.iter().zip(&verdicts) {
                seq_logs.log_incoming(t);
                if v.action == RuleAction::Allow {
                    seq_logs.log_outgoing(t);
                }
            }
            for dir in [LogDirection::Incoming, LogDirection::Outgoing] {
                prop_assert_eq!(
                    batch_logs.export(dir, &audit_key),
                    seq_logs.export(dir, &audit_key),
                    "filter {} {:?} export diverged", filter.name(), dir
                );
            }
        }
    }

    /// The audit reads the enclave's counters straight out of the
    /// authenticated payload; its oracle decodes the payload into a sketch
    /// and runs `compare` in the direction's order. For arbitrary logged
    /// and observed streams over a shared flow pool, both directions and
    /// any tolerance, the two agree on the verdict, the maxima, the totals
    /// and the discrepancy list. A flip of any one payload or tag byte
    /// fails authentication.
    #[test]
    fn streamed_audit_equals_decode_then_compare(
        pool in vec(arb_tuple(), 1..40),
        logged in vec((any::<prop::sample::Index>(), 1usize..4), 0..100),
        observed in vec((any::<prop::sample::Index>(), 1usize..4), 0..100),
        tolerance in 0u64..4,
        seed in any::<u64>(),
        flip in (any::<prop::sample::Index>(), 1u8..=255, any::<bool>()),
    ) {
        let key = [3u8; 32];
        let stream = |picks: &[(prop::sample::Index, usize)]| -> Vec<FiveTuple> {
            picks
                .iter()
                .flat_map(|(i, n)| std::iter::repeat_n(pool[i.index(pool.len())], *n))
                .collect()
        };
        let (logged, observed) = (stream(&logged), stream(&observed));
        let mut logs = PacketLogs::new(seed);
        for t in &logged {
            logs.log_incoming(t);
            logs.log_outgoing(t);
        }
        for (direction, config) in [
            (LogDirection::Incoming, PacketLogs::incoming_config(seed)),
            (LogDirection::Outgoing, PacketLogs::outgoing_config(seed)),
        ] {
            let mut verifier = Verifier::new(direction, seed, key, tolerance);
            let mut local = CountMinSketch::new(config);
            for t in &observed {
                verifier.observe(t);
                local.add_fingerprint(direction.key(&PacketFingerprints::of(t)), 1);
            }
            let export = logs.export(direction, &key);
            let report = verifier.audit(&export).expect("authentic export");

            let enclave = CountMinSketch::decode(&export.payload).expect("honest payload");
            let oracle = match direction {
                LogDirection::Outgoing => compare(&enclave, &local),
                LogDirection::Incoming => compare(&local, &enclave),
            }
            .expect("same configuration");
            let dropped = oracle.drop_detected(tolerance);
            let injected =
                direction == LogDirection::Outgoing && oracle.injection_detected(tolerance);
            let verdict = match (dropped, injected) {
                (false, false) => BypassVerdict::Clean,
                (true, false) => BypassVerdict::DropDetected,
                (false, true) => BypassVerdict::InjectionDetected,
                (true, true) => BypassVerdict::DropAndInjectionDetected,
            };
            prop_assert_eq!(report.verdict, verdict, "{:?}", direction);
            prop_assert_eq!(report.comparison.max_missing(), oracle.max_missing());
            prop_assert_eq!(report.comparison.max_excess(), oracle.max_excess());
            prop_assert_eq!(report.comparison.discrepancies(), oracle.discrepancies());
            prop_assert_eq!(&report.comparison, &oracle);

            let (at, mask, in_tag) = flip;
            let mut forged = export.clone();
            let bytes: &mut [u8] = if in_tag { &mut forged.tag } else { &mut forged.payload };
            bytes[at.index(bytes.len())] ^= mask;
            prop_assert_eq!(
                verifier.audit(&forged).unwrap_err(),
                AuditError::Log(LogError::BadTag),
                "{:?}", direction
            );
        }
    }

    /// Hybrid promotion never changes a verdict, and a flow seen twice
    /// before an update period is served from the cache after it.
    #[test]
    fn hybrid_verdicts_stable(
        frac in 0.0f64..=1.0,
        flows in vec(arb_tuple(), 1..80),
    ) {
        let pattern = FlowPattern::prefixes(
            Ipv4Prefix::default_route(),
            Ipv4Prefix::default_route(),
        );
        let inner = StatelessFilter::new(
            RuleSet::from_rules([FilterRule::drop_fraction(pattern, frac)]),
            [3u8; 32],
        );
        let baseline: Vec<Verdict> = flows.iter().map(|t| inner.decide(t)).collect();
        let mut hybrid = HybridFilter::new(inner, 1000);
        for (t, want) in flows.iter().zip(&baseline) {
            // Back to back, so no other flow's tag can displace this one's.
            for _ in 0..2 {
                prop_assert_eq!(hybrid.decide(t).action, want.action);
            }
        }
        hybrid.apply_update_period();
        for (t, want) in flows.iter().zip(&baseline) {
            let got = hybrid.decide(t);
            prop_assert_eq!(got.action, want.action);
            if want.path == DecisionPath::HashBased {
                prop_assert_eq!(got.path, DecisionPath::Cached);
            }
        }
    }

    /// Realized drop fraction of probabilistic rules tracks the request
    /// over many distinct flows.
    #[test]
    fn drop_fraction_statistics(frac in 0.05f64..0.95) {
        let pattern = FlowPattern::prefixes(
            Ipv4Prefix::default_route(),
            Ipv4Prefix::default_route(),
        );
        let filter = StatelessFilter::new(
            RuleSet::from_rules([FilterRule::drop_fraction(pattern, frac)]),
            [5u8; 32],
        );
        let n = 4000u32;
        let dropped = (0..n)
            .filter(|i| {
                let t = FiveTuple::new(*i, !i, 1, 2, Protocol::Udp);
                filter.decide(&t).action == RuleAction::Drop
            })
            .count();
        let rate = dropped as f64 / n as f64;
        prop_assert!((rate - frac).abs() < 0.05, "requested {frac}, realized {rate}");
    }
}
