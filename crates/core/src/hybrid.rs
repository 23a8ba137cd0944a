//! Hybrid connection-preserving filtering (Appendix A & F).
//!
//! Probabilistic rules can be executed two ways:
//! - **hash-based**: per-packet SHA-256 over the 5-tuple — small memory,
//!   extra per-packet latency;
//! - **exact-match**: install one exact-match rule per observed flow —
//!   one lookup per packet, but a bigger table and update churn.
//!
//! The paper's hybrid takes both: new flows are decided hash-based and
//! queued (here from their second packet on, see below); at every
//! rule-update period (e.g., 5 s) the queued flows are promoted to
//! exact-match rules in one batch (amortizing the table rebuild,
//! Table II). Because the promoted verdict equals the hash
//! verdict, the filter's observable behavior remains the stateless `f(p)`
//! of §III-A — the cache is purely a performance optimization.
//!
//! # Admission on second sight
//!
//! A flow is queued for promotion only on its second hash-decided packet.
//! A fixed table of 65,536 32-bit tags (256 KB, allocated zeroed, so its
//! pages cost nothing until the hash path runs) sits in front of the
//! queue: each hash-decided packet hashes its tuple once, picks a slot from
//! the high bits and swaps its tag (the low 32 bits, forced odd so an empty
//! slot matches nothing) into it, and the flow is queued only if the slot
//! already held that tag. The table is never cleared — not by update
//! periods, flushes or rule installs — because a tag only says "seen
//! recently"; it never decides a verdict.
//!
//! What it bounds: under a spoofed flood of never-repeating tuples each
//! packet costs one SHA-256 and one tag write, and nothing reaches the
//! queue or the exact-match table (a junk admission needs a slot *and*
//! tag match, about 2⁻³¹ per packet). A spoofer that sends every tuple
//! twice is back to the promote-everything behaviour, still bounded by
//! `max_cached_flows`. Two live flows that share a slot can keep each
//! other out of the cache by overwriting each other's tag (of 2,000 flows
//! seen round-robin, about 2 % do), and under a flood the tags turn over
//! every ~65 K packets, so a flow sparser than that is kept out too; such
//! a flow pays the stateless price on every packet, never a wrong
//! verdict.
//!
//! [`HybridFilter`] is the one filter the enclave serves with. Its
//! verdicts must equal the reference [`StatelessFilter`]'s in action and
//! matched rule for every tuple, in any order and at any burst size; only
//! the [`DecisionPath`] may differ (`Cached` on a hit, where the reference
//! says `HashBased`), because the path is execution information, not
//! behavior (see [the reference](crate::filter#the-reference)).

use crate::fasthash::{FxBuildHasher, FxHashMap, FxHashSet};
use crate::filter::{DecisionPath, StatelessFilter, Verdict};
use std::hash::BuildHasher;
use vif_dataplane::FiveTuple;

/// Slots in the second-sight table ([module docs](self)): 2¹⁶ tags.
const SEEN_SLOTS_LOG2: u32 = 16;

/// The second-sight doorkeeper in front of the promotion queue: one
/// 32-bit tag per slot, an empty slot reads 0 and no tag is even.
#[derive(Clone)]
struct SeenTags(Box<[u32]>);

impl SeenTags {
    fn new() -> Self {
        // `vec![0; n]` asks the allocator for zeroed memory: pages no
        // packet writes are never touched.
        SeenTags(vec![0u32; 1 << SEEN_SLOTS_LOG2].into_boxed_slice())
    }

    /// Records a sighting of `t`; true when its slot already held its
    /// tag, i.e. `t` was the last flow seen in that slot.
    #[inline]
    fn resighted(&mut self, t: &FiveTuple) -> bool {
        let h = FxBuildHasher.hash_one(t);
        let slot = (h >> (64 - SEEN_SLOTS_LOG2)) as usize;
        let tag = h as u32 | 1;
        std::mem::replace(&mut self.0[slot], tag) == tag
    }
}

impl std::fmt::Debug for SeenTags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SeenTags({} slots)", self.0.len())
    }
}

/// Statistics of the hybrid execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Verdicts served from the exact-match cache.
    pub exact_hits: u64,
    /// Verdicts computed hash-based (new flows + deterministic paths).
    pub hash_decisions: u64,
    /// Flows promoted to exact-match rules so far.
    pub promoted_flows: u64,
    /// Distinct pending flows discarded (never promoted) because the
    /// exact-match cache was at capacity when their update period ran —
    /// counted per flow per period, however many packets the flow queued.
    /// Evicted flows keep taking the hash path — correctness is
    /// unaffected; a growing count signals the cache cap is undersized
    /// for the working set.
    pub pending_evicted: u64,
    /// Batch promotions executed.
    pub update_rounds: u64,
}

/// The hybrid filter: a [`StatelessFilter`] plus an exact-match fast path.
#[derive(Debug, Clone)]
pub struct HybridFilter {
    inner: StatelessFilter,
    /// Promoted flows. The *full* verdict (action, matched rule) is
    /// cached so the fast path loses no audit/telemetry information —
    /// rule byte counts (`B_i`, Fig. 5) and the Fig. 5 pool's misroute
    /// count keep working on cached flows. Keyed by the deterministic fast hasher
    /// ([`crate::fasthash`]): one multiply-xor round per tuple word
    /// instead of SipHash, the dominant cost of a cache hit.
    exact_cache: FxHashMap<FiveTuple, Verdict>,
    pending: Vec<(FiveTuple, Verdict)>,
    /// Admits a hash-decided flow to `pending` on its second sight.
    seen: SeenTags,
    stats: HybridStats,
    /// Cap on cached flows (exact-match table memory is EPC-bounded).
    max_cached_flows: usize,
}

impl HybridFilter {
    /// Wraps a stateless filter. `max_cached_flows` bounds the exact-match
    /// table (oldest batches are not evicted in this model; promotion stops
    /// at the cap and flows keep using the hash path).
    pub fn new(inner: StatelessFilter, max_cached_flows: usize) -> Self {
        HybridFilter {
            inner,
            exact_cache: FxHashMap::default(),
            pending: Vec::new(),
            seen: SeenTags::new(),
            stats: HybridStats::default(),
            max_cached_flows,
        }
    }

    /// The wrapped stateless filter.
    pub fn inner(&self) -> &StatelessFilter {
        &self.inner
    }

    /// Mutable access to the wrapped filter (rule telemetry updates).
    pub fn inner_mut(&mut self) -> &mut StatelessFilter {
        &mut self.inner
    }

    /// The enclave secret of the wrapped filter.
    pub fn secret(&self) -> &[u8; 32] {
        self.inner.secret()
    }

    /// The configured exact-match cache capacity.
    pub fn max_cached_flows(&self) -> usize {
        self.max_cached_flows
    }

    /// Execution statistics.
    pub fn stats(&self) -> HybridStats {
        self.stats
    }

    /// Number of flows currently in the exact-match cache.
    pub fn cached_flows(&self) -> usize {
        self.exact_cache.len()
    }

    /// Flows queued for promotion at the next update period — never more
    /// than [`max_cached_flows`](HybridFilter::max_cached_flows).
    pub fn pending_flows(&self) -> usize {
        self.pending.len()
    }

    /// Decides a packet. Identical action and matched rule to the wrapped
    /// stateless filter — only the execution path (and cost) differs:
    /// cache hits report [`DecisionPath::Cached`] so the cost model knows
    /// no SHA-256 was paid.
    ///
    /// A hash-decided flow is queued for promotion from its second sight
    /// on ([module docs](self)), while the queue holds fewer than
    /// `max_cached_flows` entries: no update period can promote more than
    /// that, and a caller that runs none (the live service between epoch
    /// installs) must not grow the queue without bound. A flow left
    /// unqueued keeps taking the hash path and queues on a later packet;
    /// verdicts never depend on the cache.
    pub fn decide(&mut self, t: &FiveTuple) -> Verdict {
        if let Some(cached) = self.exact_cache.get(t) {
            self.stats.exact_hits += 1;
            return Verdict {
                path: DecisionPath::Cached,
                ..*cached
            };
        }
        let verdict = self.inner.decide(t);
        self.stats.hash_decisions += 1;
        if verdict.path == DecisionPath::HashBased {
            self.admit(t, verdict);
        }
        verdict
    }

    /// Queues a hash-decided flow seen for the second time. Out of line,
    /// so that the cache-hit and deterministic paths of
    /// [`decide`](HybridFilter::decide) compile as if it were not there.
    #[inline(never)]
    fn admit(&mut self, t: &FiveTuple, verdict: Verdict) {
        if self.seen.resighted(t) && self.pending.len() < self.max_cached_flows {
            self.pending.push((*t, verdict));
        }
    }

    /// Runs one rule-update period: promotes queued flows to exact-match
    /// entries in a single batch. Returns the number of flows promoted
    /// (Table II's batch size).
    ///
    /// # Capacity policy
    ///
    /// Promotion stops — but the queue is still fully drained — once the
    /// cache reaches `max_cached_flows`: the not-yet-promoted tail is
    /// *evicted* (discarded, counted in
    /// [`HybridStats::pending_evicted`]), never silently lost. Evicted
    /// flows keep taking the hash path, re-enter `pending` on their next
    /// packet (their second-sight tags outlive the period), and compete
    /// again at the next period, so a later cache flush lets them in.
    /// Flows already cached (duplicates within the queue) are neither
    /// promoted nor counted as evicted.
    pub fn apply_update_period(&mut self) -> usize {
        let mut promoted = 0u64;
        let cap = self.max_cached_flows;
        // Distinct flows evicted this period: a flow queues one pending
        // entry per packet, and the counter promises flows, not packets.
        let mut evicted: FxHashSet<FiveTuple> = FxHashSet::default();
        for (tuple, verdict) in self.pending.drain(..) {
            if self.exact_cache.len() < cap {
                if self.exact_cache.insert(tuple, verdict).is_none() {
                    promoted += 1;
                }
            } else if !self.exact_cache.contains_key(&tuple) {
                evicted.insert(tuple);
            }
        }
        self.stats.promoted_flows += promoted;
        self.stats.pending_evicted += evicted.len() as u64;
        self.stats.update_rounds += 1;
        promoted as usize
    }

    /// Swaps in a whole new rule set and restarts the fast path: cached
    /// and pending verdicts derive from the old rules, and the execution
    /// statistics describe them. The flush is what keeps the equivalence
    /// with the reference filter ([module docs](crate::hybrid)): a new rule
    /// (e.g. a longer-prefix deterministic drop) can change the reference
    /// verdict of an already-promoted flow, and a withdrawn one can leave a
    /// cached verdict pointing at nothing. The tables keep their capacity,
    /// so the swap frees nothing; the displaced rule set is returned for
    /// the caller to drop where it likes.
    pub fn install_ruleset(&mut self, ruleset: crate::ruleset::RuleSet) -> crate::ruleset::RuleSet {
        self.flush_cache();
        self.stats = HybridStats::default();
        self.inner.install_ruleset(ruleset)
    }

    /// Drops every cached and pending verdict (rule-set mutation, key
    /// rotation). Flows fall back to the hash path until re-promoted. The
    /// second-sight tags stay: they decide no verdict, so a flow seen
    /// before the flush queues again on its next packet.
    pub fn flush_cache(&mut self) {
        self.exact_cache.clear();
        self.pending.clear();
    }

    /// Decides a burst, appending exactly one verdict per tuple to `out` in
    /// order. Callers must pass `out` cleared: this appends without
    /// clearing, so `out[i]` pairs with `tuples[i]` only when the buffer
    /// starts empty.
    ///
    /// The verdicts equal per-packet [`decide`](HybridFilter::decide)'s
    /// exactly, and the reference filter's in action and matched rule
    /// (module docs); the burst form reserves the promotion queue once per
    /// batch and keeps the exact-match table hot in cache across the burst.
    pub fn decide_batch(&mut self, tuples: &[FiveTuple], out: &mut Vec<Verdict>) {
        out.reserve(tuples.len());
        // Worst case every tuple is a hash-decided flow seen before; one
        // reserve call replaces up to `tuples.len()` incremental grows.
        let room = self.max_cached_flows.saturating_sub(self.pending.len());
        self.pending.reserve(tuples.len().min(room));
        for t in tuples {
            out.push(self.decide(t));
        }
    }

    /// Fraction of decisions served hash-based since start — the x-axis
    /// quantity of Fig. 14.
    pub fn hash_ratio(&self) -> f64 {
        let total = self.stats.exact_hits + self.stats.hash_decisions;
        if total == 0 {
            return 0.0;
        }
        self.stats.hash_decisions as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FilterRule, FlowPattern, RuleAction};
    use crate::ruleset::RuleSet;
    use vif_dataplane::Protocol;

    fn hybrid(p_drop: f64) -> HybridFilter {
        let pattern = FlowPattern::prefixes(
            "0.0.0.0/0".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        );
        let rs = RuleSet::from_rules(vec![FilterRule::drop_fraction(pattern, p_drop)]);
        HybridFilter::new(StatelessFilter::new(rs, [3u8; 32]), 100_000)
    }

    fn tuple(i: u32) -> FiveTuple {
        FiveTuple::new(
            i,
            u32::from_be_bytes([203, 0, 113, 1]),
            1000,
            80,
            Protocol::Tcp,
        )
    }

    #[test]
    fn promoted_verdicts_match_hash_verdicts() {
        let mut h = hybrid(0.5);
        let baseline: Vec<RuleAction> = (0..200)
            .map(|i| h.inner().decide(&tuple(i)).action)
            .collect();
        // Two sightings: the second queues the flow for promotion.
        for _ in 0..2 {
            for i in 0..200 {
                assert_eq!(h.decide(&tuple(i)).action, baseline[i as usize]);
            }
        }
        let promoted = h.apply_update_period();
        assert_eq!(promoted, 200);
        // After promotion the verdicts are identical but served exactly.
        for i in 0..200 {
            assert_eq!(h.decide(&tuple(i)).action, baseline[i as usize]);
        }
        assert_eq!(h.stats().exact_hits, 200);
    }

    #[test]
    fn hash_ratio_decreases_after_promotion() {
        let mut h = hybrid(0.5);
        for _ in 0..2 {
            for i in 0..100 {
                h.decide(&tuple(i));
            }
        }
        assert!((h.hash_ratio() - 1.0).abs() < 1e-12);
        h.apply_update_period();
        for _ in 0..9 {
            for i in 0..100 {
                h.decide(&tuple(i));
            }
        }
        assert!(h.hash_ratio() < 0.2, "ratio {}", h.hash_ratio());
    }

    #[test]
    fn cache_cap_respected() {
        let pattern = FlowPattern::prefixes(
            "0.0.0.0/0".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        );
        let rs = RuleSet::from_rules(vec![FilterRule::drop_fraction(pattern, 0.5)]);
        let mut h = HybridFilter::new(StatelessFilter::new(rs, [3u8; 32]), 10);
        for _ in 0..2 {
            for i in 0..50 {
                h.decide(&tuple(i));
            }
        }
        h.apply_update_period();
        assert!(h.cached_flows() <= 10);
        // Uncached flows still get correct (hash) verdicts.
        for i in 0..50 {
            let v = h.decide(&tuple(i));
            assert_eq!(v.action, h.inner().decide(&tuple(i)).action);
        }
    }

    #[test]
    fn deterministic_rules_never_queued() {
        let pattern = FlowPattern::prefixes(
            "0.0.0.0/0".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        );
        let rs = RuleSet::from_rules(vec![FilterRule::drop(pattern)]);
        let mut h = HybridFilter::new(StatelessFilter::new(rs, [3u8; 32]), 100);
        for i in 0..20 {
            h.decide(&tuple(i));
        }
        assert_eq!(h.pending_flows(), 0);
        assert_eq!(h.apply_update_period(), 0);
    }

    #[test]
    fn duplicate_flows_promoted_once() {
        let mut h = hybrid(0.5);
        for _ in 0..5 {
            h.decide(&tuple(7));
        }
        assert_eq!(h.apply_update_period(), 1);
        assert_eq!(h.cached_flows(), 1);
    }

    #[test]
    fn install_ruleset_invalidates_stale_promotions() {
        // A promoted hash-Allow verdict must not survive the arrival of a
        // longer-prefix deterministic drop rule covering the same flow.
        let mut h = hybrid(0.5);
        // Find a flow the probabilistic rule allows.
        let allowed = (0..200)
            .map(tuple)
            .find(|t| h.inner().decide(t).action == RuleAction::Allow)
            .expect("some flow is hash-allowed");
        h.decide(&allowed);
        h.decide(&allowed);
        h.apply_update_period();
        assert_eq!(h.decide(&allowed).path, DecisionPath::Cached);
        // The victim's next epoch adds a deterministic drop on the exact
        // source.
        let mut next = h.inner().ruleset().clone();
        next.insert(FilterRule::drop(FlowPattern::prefixes(
            vif_trie::Ipv4Prefix::host(allowed.src_ip),
            "203.0.113.0/24".parse().unwrap(),
        )));
        h.install_ruleset(next);
        // Cache flushed: the verdict now matches the stateless reference.
        let reference = h.inner().decide(&allowed);
        assert_eq!(reference.action, RuleAction::Drop);
        assert_eq!(h.decide(&allowed).action, RuleAction::Drop);
    }

    #[test]
    fn full_cache_counts_evictions_and_drains_pending() {
        let pattern = FlowPattern::prefixes(
            "0.0.0.0/0".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        );
        let rs = RuleSet::from_rules(vec![FilterRule::drop_fraction(pattern, 0.5)]);
        let mut h = HybridFilter::new(StatelessFilter::new(rs, [3u8; 32]), 10);
        for _ in 0..2 {
            for i in 0..50 {
                h.decide(&tuple(i));
            }
        }
        // The queue stops at the cache's capacity: no period could promote
        // more than that.
        assert_eq!(h.pending_flows(), 10);
        assert_eq!(h.apply_update_period(), 10);
        // With the cache full, queued new flows are evicted — none silently
        // lost.
        for _ in 0..2 {
            for i in 50..55 {
                h.decide(&tuple(i));
            }
        }
        h.apply_update_period();
        assert_eq!(h.stats().promoted_flows, 10);
        assert_eq!(h.stats().pending_evicted, 5);
        assert_eq!(h.pending_flows(), 0);
        // A flow already cached is neither promoted nor evicted when it
        // re-queues... it never re-queues (cache hit), but a duplicate in
        // one batch must not inflate either counter.
        h.flush_cache();
        for _ in 0..3 {
            h.decide(&tuple(0));
        }
        assert_eq!(h.pending_flows(), 3);
        assert_eq!(h.apply_update_period(), 1);
        assert_eq!(h.stats().pending_evicted, 5);
        // Refill the cache to capacity (1 cached + 9 new = cap of 10).
        for _ in 0..2 {
            for i in 200..209 {
                h.decide(&tuple(i));
            }
        }
        h.apply_update_period();
        assert_eq!(h.cached_flows(), 10);
        // With the cache full, a multi-packet flow queues several pending
        // entries but is evicted as ONE flow (the stat counts flows).
        for i in 0..9 {
            h.decide(&tuple(100 + i / 3)); // 3 flows × 3 packets
        }
        let before = h.stats().pending_evicted;
        h.apply_update_period();
        assert_eq!(h.stats().pending_evicted, before + 3);
    }

    #[test]
    fn evicted_flows_compete_again_after_flush() {
        let pattern = FlowPattern::prefixes(
            "0.0.0.0/0".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        );
        let rs = RuleSet::from_rules(vec![FilterRule::drop_fraction(pattern, 0.5)]);
        let mut h = HybridFilter::new(StatelessFilter::new(rs, [3u8; 32]), 2);
        for _ in 0..2 {
            for i in 0..5 {
                h.decide(&tuple(i));
            }
        }
        h.apply_update_period();
        assert_eq!(h.cached_flows(), 2);
        // Flows left out re-enter pending on their next packet, up to the
        // queue's bound of one cache's worth.
        for i in 0..5 {
            h.decide(&tuple(i));
        }
        assert_eq!(h.pending_flows(), 2);
        h.flush_cache();
        for i in 2..4 {
            h.decide(&tuple(i));
        }
        h.apply_update_period();
        assert_eq!(h.cached_flows(), 2);
        assert_eq!(h.decide(&tuple(2)).path, DecisionPath::Cached);
    }

    #[test]
    fn never_repeating_flows_are_not_admitted() {
        let mut h = hybrid(0.5);
        for i in 0..100_000 {
            h.decide(&tuple(i));
        }
        assert_eq!(h.stats().hash_decisions, 100_000);
        assert_eq!(h.pending_flows(), 0);
        assert_eq!(h.cached_flows(), 0);
        assert_eq!(h.apply_update_period(), 0);
        // Flows decided twice are admitted and served exactly, with the
        // reference's verdict.
        let repeating = 100_000..100_100;
        for i in repeating.clone() {
            h.decide(&tuple(i));
            h.decide(&tuple(i));
        }
        assert_eq!(h.apply_update_period(), 100);
        for i in repeating {
            let (v, r) = (h.decide(&tuple(i)), h.inner().decide(&tuple(i)));
            assert_eq!(v.path, DecisionPath::Cached);
            assert_eq!((v.action, v.rule), (r.action, r.rule));
        }
    }

    #[test]
    fn stats_track_rounds() {
        let mut h = hybrid(0.3);
        h.decide(&tuple(1));
        h.apply_update_period();
        h.apply_update_period();
        assert_eq!(h.stats().update_rounds, 2);
    }
}
