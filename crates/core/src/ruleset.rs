//! Rule sets with the enclave's lookup structures.
//!
//! Exact-match five-tuple rules live in a hash table; coarse rules are
//! bucketed by source prefix (§V-A's "Filter Rule Lookup Table: multi-bit
//! tries"). Classification precedence:
//!
//! 1. an exact five-tuple rule, if one matches,
//! 2. the coarse rule with the longest matching source prefix whose port
//!    and protocol constraints also match (falling back to shorter
//!    prefixes otherwise),
//! 3. no match — the filter's default applies (ALLOW: VIF only drops what
//!    the victim asked it to drop).
//!
//! A [`RuleSet`] is a handle on one **immutable rule epoch** — the
//! [`RuleTables`]: rule array, tombstones, the exact-match table keyed by
//! the deterministic fast hasher ([`crate::fasthash`]), the ordered
//! `(source prefix, rule id)` store of the coarse rules, and the
//! [`CompiledClassifier`] stride walk compiled from it — plus the
//! holder's own per-rule counters. The tables are never mutated once
//! built: every mutation builds the next epoch (copy the flat arrays,
//! apply the edits, compile once — the install-time table swap of
//! Appendix F) and repoints this handle, so cloning a rule set, handing
//! one to every cluster slice, or keeping one across a publication is a
//! reference-count bump, and whoever still holds the old tables keeps
//! classifying against a frozen epoch. The authoritative-store probe
//! survives as [`RuleSet::classify_reference`], the oracle the property
//! tests compare the compiled walk against.

use crate::classifier::{CompiledClassifier, COARSE_STRIDE};
use crate::fasthash::FxHashMap;
use crate::rules::FilterRule;
use std::collections::BTreeSet;
use std::sync::Arc;
use vif_dataplane::FiveTuple;
use vif_trie::{Ipv4Prefix, MultiBitTrie, NodeRecycler};

/// Identifier of a rule within a [`RuleSet`] (insertion index).
pub type RuleId = u32;

/// Per-rule telemetry the enclave keeps for the redistribution protocol:
/// the average received flow rate `B_i` of §IV-B's master–slave exchange.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCounters {
    /// Packets that matched this rule.
    pub packets: u64,
    /// Bytes that matched this rule.
    pub bytes: u64,
}

/// An ordered set of filter rules with classification indexes.
///
/// Cloning shares the rule tables (an [`Arc`] bump) and copies only the
/// counter vector; see the [module docs](self).
///
/// # Example
///
/// ```
/// use vif_core::prelude::*;
/// let mut rs = RuleSet::new();
/// rs.insert(FilterRule::drop(FlowPattern::http_to("203.0.113.0/24".parse().unwrap())));
/// let t = FiveTuple::new(1, u32::from_be_bytes([203, 0, 113, 5]), 9999, 80, Protocol::Tcp);
/// assert!(rs.classify(&t).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct RuleSet {
    tables: Arc<RuleTables>,
    /// This holder's rule telemetry, indexed by [`RuleId`] — one slot per
    /// rule slot of `tables`. Plain memory owned by the holder: the packet
    /// path bumps it with an indexed add, and no other holder of the same
    /// tables sees it.
    counters: Vec<RuleCounters>,
}

/// One immutable rule epoch, shared by reference between every
/// [`RuleSet`] cloned from (or built on, [`RuleSet::from_tables`]) the
/// same publication. Opaque: read it through a [`RuleSet`].
#[derive(Debug)]
pub struct RuleTables {
    index: RuleIndex,
    /// The hot-path classifier compiled from `index`, with every rule's
    /// precomputed allow threshold.
    compiled: CompiledClassifier,
    /// Compiles in this epoch's lineage (see [`RuleSet::rebuilds`]).
    rebuilds: u64,
    /// The lineage's spare trie node arrays: the last retired epoch's,
    /// refilled by the next compile instead of allocated afresh.
    nodes: NodeRecycler,
}

/// The authoritative rule structures — what a mutation copies and edits
/// before the next epoch is compiled from it.
#[derive(Debug, Clone, Default)]
struct RuleIndex {
    rules: Vec<FilterRule>,
    /// Tombstones: `removed[id]` is true once the rule was withdrawn.
    /// Slots are never compacted, so [`RuleId`]s stay stable across
    /// removals — rule telemetry and cluster slice mappings keep indexing
    /// by the same ids through arbitrary churn.
    removed: Vec<bool>,
    exact: FxHashMap<FiveTuple, RuleId>,
    /// Coarse rules in force, ordered by source prefix then id. Ids are
    /// assigned ascending, so each prefix's run is its bucket in insertion
    /// order — the precedence among rules sharing a prefix.
    coarse: BTreeSet<(Ipv4Prefix, RuleId)>,
}

impl RuleIndex {
    fn in_force(&self, id: RuleId) -> bool {
        self.removed.get(id as usize) == Some(&false)
    }

    fn insert(&mut self, rule: FilterRule) -> RuleId {
        let id = self.rules.len() as RuleId;
        match rule.pattern().as_tuple() {
            Some(t) => {
                self.exact.insert(t, id);
            }
            None => {
                self.coarse.insert((rule.pattern().src, id));
            }
        }
        self.rules.push(rule);
        self.removed.push(false);
        id
    }

    /// Tombstones and unlinks rule `id`, which must be in force.
    fn remove(&mut self, id: RuleId) {
        let idx = id as usize;
        self.removed[idx] = true;
        let rule = self.rules[idx];
        match rule.pattern().as_tuple() {
            // Only unlink if the table still points at this rule — a later
            // duplicate exact rule owns the entry otherwise. If this rule
            // owned it, the youngest surviving duplicate (if any) takes
            // over, matching what re-indexing from scratch would produce.
            Some(t) if self.exact.get(&t) == Some(&id) => {
                self.exact.remove(&t);
                let survivor = self
                    .rules
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|&(i, r)| !self.removed[i] && r.pattern().as_tuple() == Some(t));
                if let Some((i, _)) = survivor {
                    self.exact.insert(t, i as RuleId);
                }
            }
            Some(_) => {}
            None => {
                self.coarse.remove(&(rule.pattern().src, id));
            }
        }
    }
}

impl Default for RuleSet {
    fn default() -> Self {
        Self::new()
    }
}

impl RuleSet {
    /// Creates an empty rule set.
    pub fn new() -> Self {
        let nodes = NodeRecycler::new();
        RuleSet {
            tables: Arc::new(RuleTables {
                index: RuleIndex::default(),
                compiled: CompiledClassifier::compile([], &[], &nodes),
                rebuilds: 0,
                nodes,
            }),
            counters: Vec::new(),
        }
    }

    /// Builds a rule set from rules (batch: one compile).
    pub fn from_rules<I: IntoIterator<Item = FilterRule>>(rules: I) -> Self {
        let mut rs = RuleSet::new();
        rs.insert_batch(rules);
        rs
    }

    /// A rule set on an existing epoch's tables, with zeroed counters —
    /// how a published epoch reaches another holder without a copy.
    pub fn from_tables(tables: Arc<RuleTables>) -> Self {
        let counters = vec![RuleCounters::default(); tables.index.rules.len()];
        RuleSet { tables, counters }
    }

    /// The shared handle to this rule set's epoch.
    ///
    /// Rule sets cloned from one another (and not mutated since) return
    /// pointer-equal handles — the property the cluster's epoch publication
    /// relies on: one compile, N slices sharing the same tables. Any
    /// mutation replaces the handle wholesale (never edits in place), so a
    /// reader holding a clone observes a frozen epoch.
    pub fn tables(&self) -> &Arc<RuleTables> {
        &self.tables
    }

    /// Number of rule slots (installed rules including withdrawn
    /// tombstones — the valid [`RuleId`] range).
    pub fn len(&self) -> usize {
        self.tables.index.rules.len()
    }

    /// Number of rules currently in force (slots minus tombstones).
    pub fn active_len(&self) -> usize {
        let index = &self.tables.index;
        index.rules.len() - index.removed.iter().filter(|&&r| r).count()
    }

    /// True if rule `id` was withdrawn.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn is_removed(&self, id: RuleId) -> bool {
        self.tables.index.removed[id as usize]
    }

    /// Classifier compiles performed since construction. Each `insert`,
    /// effective `remove`, non-empty `insert_batch`, and dirty
    /// [`batch_edit`] scope counts one; reads never compile.
    ///
    /// [`batch_edit`]: RuleSet::batch_edit
    pub fn rebuilds(&self) -> u64 {
        self.tables.rebuilds
    }

    /// True if no rule slots exist.
    pub fn is_empty(&self) -> bool {
        self.tables.index.rules.is_empty()
    }

    /// The rules in insertion order.
    pub fn rules(&self) -> &[FilterRule] {
        &self.tables.index.rules
    }

    /// The rule with the given id.
    pub fn rule(&self, id: RuleId) -> &FilterRule {
        &self.tables.index.rules[id as usize]
    }

    /// Inserts one rule, returning its id.
    ///
    /// Builds and compiles a whole new epoch, which is linear in the
    /// number of rules — bulk loads should use
    /// [`insert_batch`](RuleSet::insert_batch) (one compile total), as
    /// the enclave's batched rule update does.
    pub fn insert(&mut self, rule: FilterRule) -> RuleId {
        self.batch_edit(|edit| edit.insert(rule))
    }

    /// Withdraws rule `id`, returning whether it was in force.
    ///
    /// The slot is tombstoned, never compacted: ids of the surviving rules
    /// are unchanged and the withdrawn rule's telemetry slot stays
    /// addressable (cluster slice mappings index by id). The next epoch
    /// lacks its exact-table / coarse-store entry, so
    /// [`classify`](RuleSet::classify) and
    /// [`classify_reference`](RuleSet::classify_reference) both stop
    /// matching it atomically. Removing an already-withdrawn or
    /// out-of-range id is a no-op (no new epoch).
    ///
    /// Bulk withdrawals should go through
    /// [`batch_edit`](RuleSet::batch_edit) (one compile total).
    pub fn remove(&mut self, id: RuleId) -> bool {
        self.batch_edit(|edit| edit.remove(id))
    }

    /// Inserts many rules with a single compile (the enclave's batched
    /// rule update, Appendix F / Table II).
    ///
    /// An empty batch is deliberately a no-op — no new epoch, and
    /// [`rebuilds`](RuleSet::rebuilds) does not count the call: an epoch
    /// identical to the one it replaces would only unshare this handle
    /// from every other holder of the tables.
    pub fn insert_batch<I: IntoIterator<Item = FilterRule>>(&mut self, rules: I) {
        self.batch_edit(|edit| {
            for rule in rules {
                edit.insert(rule);
            }
        });
    }

    /// Runs a bulk-churn scope that ends in **one** new epoch.
    ///
    /// The first effective [`insert`](RuleSetEdit::insert) /
    /// [`remove`](RuleSetEdit::remove) inside the scope copies the
    /// authoritative structures and later ones edit that copy; when the
    /// scope ends the classifier is compiled from it exactly once and this
    /// handle moves to the new tables (a scope that made no effective
    /// change copies and compiles nothing). This is the install-time
    /// analogue of the Appendix F batched rule update for mixed
    /// install/withdraw churn — a victim policy reacting to a round can
    /// apply its whole decision set for the cost of one table swap. A
    /// withdrawal costs one ordered-set removal, not a structure rebuild.
    ///
    /// Other holders of the previous tables are unaffected; this holder's
    /// counters carry over, with zeroed slots for the new rules.
    pub fn batch_edit<R>(&mut self, f: impl FnOnce(&mut RuleSetEdit<'_>) -> R) -> R {
        let mut edit = RuleSetEdit {
            base: &self.tables.index,
            draft: None,
        };
        let out = f(&mut edit);
        if let Some(index) = edit.draft {
            let nodes = self.tables.nodes.clone();
            let compiled =
                CompiledClassifier::compile(index.coarse.iter().copied(), &index.rules, &nodes);
            self.counters
                .resize(index.rules.len(), RuleCounters::default());
            self.tables = Arc::new(RuleTables {
                index,
                compiled,
                rebuilds: self.tables.rebuilds + 1,
                nodes,
            });
        }
        out
    }

    /// Classifies a five tuple, returning the matching rule id (see module
    /// docs for precedence).
    ///
    /// This is the per-packet hot path: one fast-hash probe of the
    /// exact-match table, then the compiled stride walk — no heap
    /// allocation, no SipHash, no ordered-map probes. Verdict-identical
    /// to [`classify_reference`](RuleSet::classify_reference) (enforced
    /// by the `compiled_classifier_matches_reference` property test).
    #[inline]
    pub fn classify(&self, t: &FiveTuple) -> Option<RuleId> {
        let tables = &*self.tables;
        if !tables.index.exact.is_empty() {
            if let Some(&id) = tables.index.exact.get(t) {
                return Some(id);
            }
        }
        tables.compiled.classify_coarse(t)
    }

    /// The install-time allow threshold (`p_allow · 2⁶⁴`) of rule `id` —
    /// compiled rule metadata consulted by the hash-based decision instead
    /// of re-deriving the constant from the float per packet. Zero (and
    /// meaningless) for deterministic rules.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn allow_threshold(&self, id: RuleId) -> u128 {
        self.tables.compiled.allow_threshold(id)
    }

    /// The reference classifier: the exact-match probe, then one probe of
    /// the authoritative coarse store per covering prefix length, longest
    /// first — independent of the compiled walk.
    ///
    /// Kept as the oracle the compiled hot path is property-tested
    /// against; up to 33 ordered-set probes per call, so not for the data
    /// path.
    pub fn classify_reference(&self, t: &FiveTuple) -> Option<RuleId> {
        let index = &self.tables.index;
        if let Some(&id) = index.exact.get(t) {
            return Some(id);
        }
        (0..=32u8).rev().find_map(|len| {
            let prefix = Ipv4Prefix::new(t.src_ip & Ipv4Prefix::mask(len), len);
            index
                .coarse
                .range((prefix, RuleId::MIN)..=(prefix, RuleId::MAX))
                .map(|&(_, id)| id)
                .find(|&id| index.rules[id as usize].pattern().matches(t))
        })
    }

    /// Records telemetry for a packet that matched `id`.
    pub fn record_hit(&mut self, id: RuleId, bytes: u64) {
        let c = &mut self.counters[id as usize];
        c.packets += 1;
        c.bytes += bytes;
    }

    /// Per-rule counters (the `B_i` array reported to the master enclave).
    pub fn counters(&self) -> &[RuleCounters] {
        &self.counters
    }

    /// Resets all rule counters (start of a redistribution round).
    pub fn reset_counters(&mut self) {
        self.counters.fill(RuleCounters::default());
    }

    /// Modelled enclave memory of the rule structures, in bytes — the
    /// working-set input to the paper-figure model in `vif-bench`
    /// (Fig. 3b's linearly growing footprint, Fig. 3a's EPC cliff),
    /// **not** an allocator reading.
    ///
    /// The model charges what an enclave holding the paper's lookup table
    /// would: the expanded multi-bit trie over the coarse prefixes
    /// ([`MultiBitTrie::modeled_bytes`] — this process does not build one;
    /// the compiled walk links the identical node structure, so its node
    /// and prefix counts feed the same formula), the compiled
    /// classifier, the exact-match table, the rule array, and the per-rule
    /// telemetry the redistribution protocol needs. It is a function of
    /// (node count, prefixes, rules) only, so sharing tables between
    /// holders does not change it; what the process really allocates shows
    /// in its resident set.
    pub fn memory_bytes(&self) -> usize {
        let tables = &*self.tables;
        let exact_entry = std::mem::size_of::<FiveTuple>() + std::mem::size_of::<RuleId>() + 48;
        let rule_entry = std::mem::size_of::<FilterRule>() + std::mem::size_of::<RuleCounters>();
        MultiBitTrie::<Vec<RuleId>>::modeled_bytes(
            COARSE_STRIDE,
            tables.compiled.node_count(),
            tables.compiled.prefixes(),
        ) + tables.compiled.memory_bytes()
            + tables.index.exact.len() * exact_entry
            + tables.index.rules.len() * rule_entry
    }
}

/// Mutation scope handed out by [`RuleSet::batch_edit`]: inserts and
/// removals edit a private copy of the authoritative structures, from
/// which the next epoch is compiled when the scope ends.
#[derive(Debug)]
pub struct RuleSetEdit<'a> {
    base: &'a RuleIndex,
    /// The edited copy; `None` until the first effective change.
    draft: Option<RuleIndex>,
}

impl RuleSetEdit<'_> {
    fn index(&self) -> &RuleIndex {
        self.draft.as_ref().unwrap_or(self.base)
    }

    fn draft(&mut self) -> &mut RuleIndex {
        self.draft.get_or_insert_with(|| self.base.clone())
    }

    /// Inserts one rule (no compile until the scope closes); returns its id.
    pub fn insert(&mut self, rule: FilterRule) -> RuleId {
        self.draft().insert(rule)
    }

    /// Withdraws rule `id` (no compile until the scope closes); returns
    /// whether it was in force. See [`RuleSet::remove`].
    pub fn remove(&mut self, id: RuleId) -> bool {
        let in_force = self.index().in_force(id);
        if in_force {
            self.draft().remove(id);
        }
        in_force
    }

    /// Number of rule slots (grows as the scope inserts).
    pub fn len(&self) -> usize {
        self.index().rules.len()
    }

    /// True if no rule slots exist.
    pub fn is_empty(&self) -> bool {
        self.index().rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FlowPattern, PortRange, RuleAction, RuleDecision};
    use vif_dataplane::Protocol;

    fn tuple(src: [u8; 4], dst: [u8; 4], sp: u16, dp: u16, proto: Protocol) -> FiveTuple {
        FiveTuple::new(
            u32::from_be_bytes(src),
            u32::from_be_bytes(dst),
            sp,
            dp,
            proto,
        )
    }

    fn victim() -> Ipv4Prefix {
        "203.0.113.0/24".parse().unwrap()
    }

    #[test]
    fn exact_match_beats_coarse() {
        let mut rs = RuleSet::new();
        let coarse = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let t = tuple([10, 1, 2, 3], [203, 0, 113, 5], 1234, 80, Protocol::Tcp);
        let exact = rs.insert(FilterRule::allow(FlowPattern::exact_tuple(t)));
        assert_eq!(rs.classify(&t), Some(exact));
        let mut other = t;
        other.src_port = 999;
        assert_eq!(rs.classify(&other), Some(coarse));
    }

    #[test]
    fn longest_src_prefix_wins() {
        let mut rs = RuleSet::new();
        let wide = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let narrow = rs.insert(FilterRule::allow(FlowPattern::prefixes(
            "10.1.0.0/16".parse().unwrap(),
            victim(),
        )));
        let t = tuple([10, 1, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t), Some(narrow));
        let t2 = tuple([10, 2, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t2), Some(wide));
    }

    #[test]
    fn constraint_mismatch_falls_back_to_shorter_prefix() {
        let mut rs = RuleSet::new();
        let wide = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        // Longer prefix but UDP-only.
        let narrow_udp = rs.insert(FilterRule::drop(
            FlowPattern::prefixes("10.1.0.0/16".parse().unwrap(), victim())
                .with_protocol(Protocol::Udp),
        ));
        let udp = tuple([10, 1, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&udp), Some(narrow_udp));
        // TCP from the same source: the /16 rule does not apply; the /8 does.
        let tcp = tuple([10, 1, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Tcp);
        assert_eq!(rs.classify(&tcp), Some(wide));
    }

    #[test]
    fn no_match_returns_none() {
        let mut rs = RuleSet::new();
        rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let t = tuple([11, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t), None);
    }

    #[test]
    fn dst_prefix_respected() {
        let mut rs = RuleSet::new();
        rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "0.0.0.0/0".parse().unwrap(),
            victim(),
        )));
        let to_victim = tuple([1, 1, 1, 1], [203, 0, 113, 9], 1, 2, Protocol::Tcp);
        let to_other = tuple([1, 1, 1, 1], [198, 51, 100, 9], 1, 2, Protocol::Tcp);
        assert!(rs.classify(&to_victim).is_some());
        assert!(rs.classify(&to_other).is_none());
    }

    #[test]
    fn same_prefix_first_rule_wins() {
        let mut rs = RuleSet::new();
        let first = rs.insert(FilterRule::drop(
            FlowPattern::prefixes("10.0.0.0/8".parse().unwrap(), victim())
                .with_dst_port(PortRange::ANY),
        ));
        let _second = rs.insert(FilterRule::allow(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let t = tuple([10, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t), Some(first));
    }

    #[test]
    fn batch_insert_equivalent_to_incremental() {
        let rules: Vec<FilterRule> = (0..50u32)
            .map(|i| {
                FilterRule::drop(FlowPattern::prefixes(
                    Ipv4Prefix::new(0x0a00_0000 + (i << 12), 24),
                    victim(),
                ))
            })
            .collect();
        let mut inc = RuleSet::new();
        for r in &rules {
            inc.insert(*r);
        }
        let bat = RuleSet::from_rules(rules.clone());
        for i in 0..50u32 {
            let t = tuple(
                [10, (i >> 4) as u8, ((i & 0xf) << 4) as u8, 1],
                [203, 0, 113, 1],
                5,
                6,
                Protocol::Tcp,
            );
            assert_eq!(inc.classify(&t), bat.classify(&t), "rule {i}");
        }
    }

    #[test]
    fn counters_accumulate_and_reset() {
        let mut rs = RuleSet::new();
        let id = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        rs.record_hit(id, 1500);
        rs.record_hit(id, 64);
        assert_eq!(rs.counters()[0].packets, 2);
        assert_eq!(rs.counters()[0].bytes, 1564);
        rs.reset_counters();
        assert_eq!(rs.counters()[0], RuleCounters::default());
    }

    #[test]
    fn memory_grows_with_rules() {
        let small = RuleSet::from_rules((0..100u32).map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::host(0x0a000000 + i * 131),
                victim(),
            ))
        }));
        let large = RuleSet::from_rules((0..1000u32).map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::host(0x0a000000 + i * 131),
                victim(),
            ))
        }));
        assert!(large.memory_bytes() > small.memory_bytes());
    }

    #[test]
    fn removal_unlinks_rule_and_falls_back() {
        let mut rs = RuleSet::new();
        let wide = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let narrow = rs.insert(FilterRule::allow(FlowPattern::prefixes(
            "10.1.0.0/16".parse().unwrap(),
            victim(),
        )));
        let t = tuple([10, 1, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert_eq!(rs.classify(&t), Some(narrow));
        assert!(rs.remove(narrow));
        assert!(rs.is_removed(narrow));
        assert!(!rs.is_removed(wide));
        assert_eq!(rs.active_len(), 1);
        assert_eq!(rs.len(), 2, "slots are stable");
        // Falls back to the shorter prefix, identically on both paths.
        assert_eq!(rs.classify(&t), Some(wide));
        assert_eq!(rs.classify(&t), rs.classify_reference(&t));
        // Removing again is a no-op.
        let rebuilds = rs.rebuilds();
        assert!(!rs.remove(narrow));
        assert_eq!(rs.rebuilds(), rebuilds, "idempotent removal: no rebuild");
    }

    #[test]
    fn removal_keeps_compiled_equal_to_reference() {
        // Mixed exact/coarse set; remove half and compare classifiers on a
        // probe grid after every removal.
        let mut rs = RuleSet::new();
        let mut ids = Vec::new();
        for i in 0..8u32 {
            ids.push(rs.insert(FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::new(0x0a000000 + (i << 16), 16),
                victim(),
            ))));
        }
        let exact_t = tuple([10, 3, 0, 9], [203, 0, 113, 5], 7, 80, Protocol::Tcp);
        ids.push(rs.insert(FilterRule::allow(FlowPattern::exact_tuple(exact_t))));
        let probes: Vec<FiveTuple> = (0..8u32)
            .map(|i| tuple([10, i as u8, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp))
            .chain([exact_t])
            .collect();
        for &id in ids.iter().step_by(2) {
            assert!(rs.remove(id));
            for t in &probes {
                assert_eq!(rs.classify(t), rs.classify_reference(t), "{t} after {id}");
            }
        }
    }

    #[test]
    fn removing_duplicate_exact_rule_restores_survivor() {
        let mut rs = RuleSet::new();
        let t = tuple([9, 9, 9, 9], [203, 0, 113, 2], 5, 80, Protocol::Tcp);
        let first = rs.insert(FilterRule::drop(FlowPattern::exact_tuple(t)));
        let second = rs.insert(FilterRule::allow(FlowPattern::exact_tuple(t)));
        assert_eq!(rs.classify(&t), Some(second), "youngest duplicate wins");
        assert!(rs.remove(second));
        assert_eq!(rs.classify(&t), Some(first), "survivor takes over");
        assert_eq!(rs.classify(&t), rs.classify_reference(&t));
        assert!(rs.remove(first));
        assert_eq!(rs.classify(&t), None);
    }

    #[test]
    fn batch_edit_coalesces_rebuilds() {
        let mut incremental = RuleSet::new();
        let rules: Vec<FilterRule> = (0..50u32)
            .map(|i| {
                FilterRule::drop(FlowPattern::prefixes(
                    Ipv4Prefix::new(0x0a000000 + (i << 12), 24),
                    victim(),
                ))
            })
            .collect();
        let before = incremental.rebuilds();
        for r in &rules {
            incremental.insert(*r);
        }
        for id in 0..25u32 {
            incremental.remove(id);
        }
        assert_eq!(
            incremental.rebuilds() - before,
            75,
            "per-mutation churn rebuilds per call"
        );

        let mut batched = RuleSet::new();
        let before = batched.rebuilds();
        let ids = batched.batch_edit(|edit| {
            let ids: Vec<RuleId> = rules.iter().map(|r| edit.insert(*r)).collect();
            for &id in ids.iter().take(25) {
                edit.remove(id);
            }
            ids
        });
        assert_eq!(
            batched.rebuilds() - before,
            1,
            "batch_edit rebuilds exactly once"
        );
        assert_eq!(ids.len(), 50);
        assert_eq!(batched.active_len(), 25);
        // Same observable classifier as the incremental path.
        for i in 0..50u32 {
            let t = tuple(
                [10, (i >> 4) as u8, ((i & 0xf) << 4) as u8, 1],
                [203, 0, 113, 1],
                5,
                6,
                Protocol::Tcp,
            );
            assert_eq!(batched.classify(&t), incremental.classify(&t), "rule {i}");
            assert_eq!(batched.classify(&t), batched.classify_reference(&t));
        }
    }

    #[test]
    fn clean_batch_edit_does_not_rebuild() {
        let mut rs = RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        ))]);
        let before = rs.rebuilds();
        rs.batch_edit(|edit| {
            assert_eq!(edit.len(), 1);
            assert!(!edit.is_empty());
            assert!(!edit.remove(99)); // out of range: no-op
        });
        assert_eq!(rs.rebuilds(), before);
    }

    #[test]
    fn probabilistic_rules_classify_like_deterministic() {
        let mut rs = RuleSet::new();
        let id = rs.insert(FilterRule::drop_fraction(
            FlowPattern::http_to(victim()),
            0.5,
        ));
        let t = tuple([9, 9, 9, 9], [203, 0, 113, 50], 4242, 80, Protocol::Tcp);
        assert_eq!(rs.classify(&t), Some(id));
        match rs.rule(id).decision() {
            RuleDecision::Probabilistic { p_allow } => assert!((p_allow - 0.5).abs() < 1e-12),
            RuleDecision::Deterministic(_) => panic!("expected probabilistic"),
        }
        let _ = RuleAction::Drop;
    }
}
