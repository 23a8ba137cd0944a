//! The compiled per-packet classifier.
//!
//! [`RuleSet::classify`](crate::ruleset::RuleSet::classify) must answer,
//! for every packet: *which installed rule decides this five tuple?* The
//! reference implementation probes the authoritative coarse-rule store
//! once per covering prefix length — up to 33 ordered-set probes per
//! packet, which is orders of magnitude away from the paper's §V
//! line-rate budget (two linear hashes and one table walk per packet).
//!
//! [`CompiledClassifier`] is the read-only compiled form, built once per
//! rule epoch (the enclave's copy-on-write table swap at rule install
//! time, Appendix F):
//!
//! - the coarse rules are compiled into a [`CompiledTrie`] stride walk
//!   whose per-slot candidate lists are pre-sorted longest-prefix-first
//!   (see `vif_trie::compiled`), so the covering-prefix scan is at most
//!   `32 / stride` array reads with **no allocation and no map probes**;
//! - each trie value is a span into one flat candidate array holding the
//!   rule's match constraints *by value* (masks, port bounds,
//!   protocol, rule id) — candidate evaluation never chases back into the
//!   `FilterRule` array, keeping the walk cache-linear.
//!
//! Candidate order reproduces the reference precedence exactly: prefixes
//! longest-first, and within one prefix the bucket's insertion order —
//! the property test `compiled_classifier_matches_reference` pins
//! bit-identical verdicts against the reference probe.

use crate::filter::allow_threshold;
use crate::rules::{FilterRule, RuleDecision};
use crate::ruleset::RuleId;
use vif_dataplane::{FiveTuple, Protocol};
use vif_trie::{CompiledTrie, Ipv4Prefix, NodeRecycler};

/// One coarse rule, flattened for the hot path: the full `FlowPattern`
/// constraint set as plain words, plus the rule id to report on a match.
#[derive(Debug, Clone, Copy)]
struct CompiledCandidate {
    src_addr: u32,
    src_mask: u32,
    dst_addr: u32,
    dst_mask: u32,
    src_port_lo: u16,
    src_port_hi: u16,
    dst_port_lo: u16,
    dst_port_hi: u16,
    /// Protocol constraint: `PROTO_ANY`, or a [`proto_code`].
    protocol: u16,
    id: RuleId,
}

/// Sentinel for "any protocol" (protocol codes occupy the low 10 bits).
const PROTO_ANY: u16 = 0x400;

/// Marker bit distinguishing `Protocol::Other(n)` from the named variant
/// with the same IANA number.
const PROTO_OTHER: u16 = 0x200;

/// Flattens a [`Protocol`] so that code equality is exactly the enum's
/// derived `PartialEq`. The reference matcher (`FlowPattern::matches`)
/// compares *variants*, under which `Other(6) != Tcp` even though both
/// carry IANA number 6 — comparing bare `number()`s here would diverge
/// from the oracle on such denormalized rules or tuples.
#[inline]
fn proto_code(p: Protocol) -> u16 {
    match p {
        Protocol::Other(n) => PROTO_OTHER | n as u16,
        named => named.number() as u16,
    }
}

impl CompiledCandidate {
    fn compile(id: RuleId, rule: &FilterRule) -> Self {
        let p = rule.pattern();
        CompiledCandidate {
            src_addr: p.src.addr(),
            src_mask: Ipv4Prefix::mask(p.src.len()),
            dst_addr: p.dst.addr(),
            dst_mask: Ipv4Prefix::mask(p.dst.len()),
            src_port_lo: p.src_port.lo,
            src_port_hi: p.src_port.hi,
            dst_port_lo: p.dst_port.lo,
            dst_port_hi: p.dst_port.hi,
            protocol: p.protocol.map(proto_code).unwrap_or(PROTO_ANY),
            id,
        }
    }

    /// Equivalent of `FlowPattern::matches` over the flattened constraints.
    #[inline]
    fn matches(&self, t: &FiveTuple) -> bool {
        (t.src_ip & self.src_mask) == self.src_addr
            && (t.dst_ip & self.dst_mask) == self.dst_addr
            && t.src_port >= self.src_port_lo
            && t.src_port <= self.src_port_hi
            && t.dst_port >= self.dst_port_lo
            && t.dst_port <= self.dst_port_hi
            && (self.protocol == PROTO_ANY || self.protocol == proto_code(t.protocol))
    }
}

/// Span into the flat candidate array (start index, length).
type CandSpan = (u32, u32);

/// Stride of the coarse-rule trie (§V-A's multi-bit trie: four levels).
pub(crate) const COARSE_STRIDE: u8 = 8;

/// The compiled coarse-rule classifier (see the [module docs](self)).
///
/// Read-only: compiled from the authoritative rule structures by
/// [`compile`](CompiledClassifier::compile), once per rule epoch.
#[derive(Debug, Clone)]
pub struct CompiledClassifier {
    trie: CompiledTrie<CandSpan>,
    candidates: Vec<CompiledCandidate>,
    /// Per-rule (by [`RuleId`], **all** rules — exact ones included) allow
    /// threshold `p_allow · 2⁶⁴` of the Appendix A hash decision, computed
    /// once at compile (= rule-install) time so no hash-decided packet
    /// re-derives it from the float. Zero for deterministic rules (never
    /// consulted: the decision kind is checked first).
    thresholds: Vec<u128>,
}

impl CompiledClassifier {
    /// Compiles the coarse side of a rule set: `coarse` lists the coarse
    /// rules in force as `(source prefix, rule id)`, sorted — each prefix's
    /// run is its bucket in precedence order; `rules` is the full rule
    /// array the ids index into. The trie's node arrays are taken from,
    /// and on drop handed back to, `recycler`
    /// ([`CompiledTrie::from_entries_recycled`]) — how one rule lineage's
    /// epochs reuse each other's arrays.
    pub fn compile(
        coarse: impl IntoIterator<Item = (Ipv4Prefix, RuleId)>,
        rules: &[FilterRule],
        recycler: &NodeRecycler,
    ) -> Self {
        let mut candidates = Vec::new();
        let mut buckets: Vec<(Ipv4Prefix, CandSpan)> = Vec::new();
        for (prefix, id) in coarse {
            match buckets.last_mut() {
                Some((last, (_, len))) if *last == prefix => *len += 1,
                _ => buckets.push((prefix, (candidates.len() as u32, 1))),
            }
            candidates.push(CompiledCandidate::compile(id, &rules[id as usize]));
        }
        let trie = CompiledTrie::from_entries_recycled(COARSE_STRIDE, buckets, recycler);
        let thresholds = rules
            .iter()
            .map(|r| match r.decision() {
                RuleDecision::Probabilistic { p_allow } => allow_threshold(p_allow),
                RuleDecision::Deterministic(_) => 0,
            })
            .collect();
        CompiledClassifier {
            trie,
            candidates,
            thresholds,
        }
    }

    /// The install-time allow threshold of rule `id` (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics if `id` was not part of the compiled rule array.
    #[inline]
    pub fn allow_threshold(&self, id: RuleId) -> u128 {
        self.thresholds[id as usize]
    }

    /// Finds the deciding coarse rule for `t`: the first candidate, in
    /// longest-source-prefix-then-insertion order, whose full constraint
    /// set matches. Allocation-free.
    #[inline]
    pub fn classify_coarse(&self, t: &FiveTuple) -> Option<RuleId> {
        for hit in self.trie.path(t.src_ip) {
            let (start, len) = *hit.value;
            for cand in &self.candidates[start as usize..(start + len) as usize] {
                if cand.matches(t) {
                    return Some(cand.id);
                }
            }
        }
        None
    }

    /// Nodes of the compiled trie — the same node structure a
    /// [`MultiBitTrie`](vif_trie::MultiBitTrie) over the coarse prefixes
    /// would allocate.
    pub fn node_count(&self) -> usize {
        self.trie.node_count()
    }

    /// Distinct coarse source prefixes compiled in.
    pub fn prefixes(&self) -> usize {
        self.trie.len()
    }

    /// Estimated memory footprint of the compiled structures, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.trie.memory_bytes()
            + self.candidates.len() * std::mem::size_of::<CompiledCandidate>()
            + self.thresholds.len() * std::mem::size_of::<u128>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FlowPattern, PortRange};
    use crate::ruleset::RuleSet;
    use vif_dataplane::Protocol;

    fn tuple(src: [u8; 4], dp: u16, proto: Protocol) -> FiveTuple {
        FiveTuple::new(
            u32::from_be_bytes(src),
            u32::from_be_bytes([203, 0, 113, 5]),
            4444,
            dp,
            proto,
        )
    }

    fn victim() -> Ipv4Prefix {
        "203.0.113.0/24".parse().unwrap()
    }

    /// The compiled path used through `RuleSet::classify` agrees with the
    /// reference on targeted overlap/constraint cases (the broad random
    /// check lives in the workspace property tests).
    #[test]
    fn precedence_and_fallback_match_reference() {
        let mut rs = RuleSet::new();
        rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        rs.insert(FilterRule::drop(
            FlowPattern::prefixes("10.1.0.0/16".parse().unwrap(), victim())
                .with_protocol(Protocol::Udp),
        ));
        rs.insert(FilterRule::allow(
            FlowPattern::prefixes("10.1.2.0/24".parse().unwrap(), victim())
                .with_dst_port(PortRange::new(80, 90)),
        ));
        let probes = [
            tuple([10, 1, 2, 3], 85, Protocol::Udp), // /24 allow
            tuple([10, 1, 2, 3], 99, Protocol::Udp), // /24 port miss → /16 udp
            tuple([10, 1, 2, 3], 99, Protocol::Tcp), // → /8
            tuple([10, 9, 9, 9], 1, Protocol::Tcp),  // /8 only
            tuple([11, 0, 0, 1], 1, Protocol::Tcp),  // no match
        ];
        for t in probes {
            assert_eq!(rs.classify(&t), rs.classify_reference(&t), "{t}");
        }
    }

    #[test]
    fn denormalized_other_protocol_matches_reference() {
        // `Protocol::Other(6)` is a distinct variant from `Tcp` under the
        // reference's enum equality, even though both are IANA 6; the
        // compiled protocol codes must preserve that distinction in both
        // directions (rule side and tuple side).
        let mut rs = RuleSet::new();
        rs.insert(FilterRule::drop(
            FlowPattern::prefixes("10.0.0.0/8".parse().unwrap(), victim())
                .with_protocol(Protocol::Other(6)),
        ));
        rs.insert(FilterRule::allow(
            FlowPattern::prefixes("11.0.0.0/8".parse().unwrap(), victim())
                .with_protocol(Protocol::Tcp),
        ));
        let probes = [
            tuple([10, 0, 0, 1], 80, Protocol::Tcp),
            tuple([10, 0, 0, 1], 80, Protocol::Other(6)),
            tuple([11, 0, 0, 1], 80, Protocol::Tcp),
            tuple([11, 0, 0, 1], 80, Protocol::Other(6)),
            tuple([10, 0, 0, 1], 80, Protocol::Other(17)),
        ];
        for t in probes {
            assert_eq!(rs.classify(&t), rs.classify_reference(&t), "{t}");
        }
        // Spot-check the intended semantics, not just agreement.
        assert_eq!(rs.classify(&probes[0]), None, "Tcp must not hit Other(6)");
        assert_eq!(rs.classify(&probes[1]), Some(0));
    }

    #[test]
    fn candidate_compiles_any_protocol_sentinel() {
        let rule = FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        ));
        let cand = CompiledCandidate::compile(0, &rule);
        assert_eq!(cand.protocol, PROTO_ANY);
        assert!(cand.matches(&tuple([10, 0, 0, 1], 80, Protocol::Tcp)));
        assert!(cand.matches(&tuple([10, 0, 0, 1], 80, Protocol::Other(200))));
    }

    #[test]
    fn empty_ruleset_compiles() {
        let rs = RuleSet::new();
        assert_eq!(rs.classify(&tuple([1, 2, 3, 4], 1, Protocol::Udp)), None);
    }
}
