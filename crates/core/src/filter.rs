//! The stateless auditable filter (§III-A).
//!
//! The filtering decision for a packet `p` is a pure function `f(p)` of its
//! five tuple — independent of arrival time, packet order, and all previous
//! packets. This is the property that makes the enclave's behavior
//! auditable even though the untrusted host controls every external input
//! (clock, delivery order, injected packets).
//!
//! Probabilistic rules are executed connection-preservingly with the
//! hash-based scheme of Appendix A: a flow is allowed iff
//! `H(5-tuple ‖ enclave secret)` falls below `p_allow · 2⁶⁴`, so every
//! packet of a TCP/UDP flow shares one verdict, and the realized drop rate
//! converges to the requested fraction across flows.
//!
//! # The batch invariant
//!
//! Statelessness is exactly what makes burst processing
//! ([`StatelessFilter::decide_batch`]) a pure optimization: since `f(p)`
//! ignores packet order, arrival time, and every other packet, the
//! verdicts of a batch equal the verdicts of the same tuples decided one
//! at a time, in any interleaving. Batching therefore amortizes per-packet
//! overhead (rule-table cache warmup, hash setup, enclave-boundary
//! crossings) without ever changing what a victim or neighbor AS observes
//! in the audit logs — an operator cannot use burst boundaries to smuggle
//! different filtering behavior past the §III-B verifiers.
//!
//! # The reference
//!
//! [`StatelessFilter`] is the reference execution of `f(p)`; the serving
//! filter, [`HybridFilter`](crate::hybrid::HybridFilter), caches its
//! hash-based verdicts. Every execution must equal this one in the
//! semantic fields of a [`Verdict`] — the same **action** (what the audit
//! logs observe) and the same **matched rule** (what drives `B_i`
//! telemetry and the Fig. 5 pool's misroute count), for every tuple, in any order
//! and at any burst size. [`DecisionPath`] is execution information: a
//! cache hit reports [`DecisionPath::Cached`] where the reference reports
//! [`DecisionPath::HashBased`]. Executions may differ in cost, never in
//! observable behavior; the `batch_decide_equals_single_decide` property
//! test enforces both halves.

use crate::rules::{RuleAction, RuleDecision};
use crate::ruleset::{RuleId, RuleSet};
use vif_crypto::sha256::Sha256;
use vif_dataplane::FiveTuple;

/// How a verdict was *executed* (used by the cost model and telemetry).
///
/// The path reports what this call actually computed — it is the one
/// verdict field that may differ between the reference filter and the
/// hybrid for the same tuple. The semantic fields (`action`, `rule`) must
/// be identical (module docs, "The reference").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionPath {
    /// A deterministic rule decided.
    Deterministic,
    /// A probabilistic rule decided via the SHA-256 hash of the flow.
    HashBased,
    /// A hash-based verdict served from the hybrid's exact-match cache —
    /// no SHA-256 paid on this call.
    Cached,
    /// No rule matched; the default (ALLOW) applied.
    Default,
}

/// A filter verdict with provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    /// Allow or drop.
    pub action: RuleAction,
    /// The matched rule, if any.
    pub rule: Option<RuleId>,
    /// How the decision was made.
    pub path: DecisionPath,
}

/// `p_allow · 2⁶⁴` as the `u128` compare constant of the Appendix A
/// decision: allow iff `H(5T ‖ secret) < threshold`.
///
/// Evaluated **once at rule-install time** (stored in the compiled
/// classifier's rule metadata) for the hot path; the reference path
/// recomputes it per packet, and both must produce the same constant —
/// the expression is deterministic in `p_allow`, so they do.
pub(crate) fn allow_threshold(p_allow: f64) -> u128 {
    (p_allow.clamp(0.0, 1.0) * (u64::MAX as f64 + 1.0)) as u128
}

/// The stateless per-packet filter.
///
/// # Example
///
/// ```
/// use vif_core::prelude::*;
/// use vif_core::filter::StatelessFilter;
///
/// let rs = RuleSet::from_rules([FilterRule::drop(FlowPattern::http_to(
///     "203.0.113.0/24".parse().unwrap(),
/// ))]);
/// let filter = StatelessFilter::new(rs, [9u8; 32]);
/// let http = FiveTuple::new(7, u32::from_be_bytes([203, 0, 113, 2]), 5555, 80, Protocol::Tcp);
/// assert_eq!(filter.decide(&http).action, vif_core::rules::RuleAction::Drop);
/// ```
#[derive(Debug, Clone)]
pub struct StatelessFilter {
    ruleset: RuleSet,
    /// Enclave-internal secret seeding the hash-based decisions. Generated
    /// inside the enclave so the host cannot predict flow verdicts.
    secret: [u8; 32],
}

impl StatelessFilter {
    /// Creates a filter over a rule set with the enclave secret.
    pub fn new(ruleset: RuleSet, secret: [u8; 32]) -> Self {
        StatelessFilter { ruleset, secret }
    }

    /// The underlying rule set.
    pub fn ruleset(&self) -> &RuleSet {
        &self.ruleset
    }

    /// Mutable access for rule updates (redistribution rounds).
    pub fn ruleset_mut(&mut self) -> &mut RuleSet {
        &mut self.ruleset
    }

    /// Replaces the rule set (a redistribution round installing a new
    /// configuration, Fig. 5), returning the displaced one so the caller
    /// chooses where its tables are released.
    pub fn install_ruleset(&mut self, ruleset: RuleSet) -> RuleSet {
        std::mem::replace(&mut self.ruleset, ruleset)
    }

    /// The enclave secret (never leaves the enclave in the real system).
    pub fn secret(&self) -> &[u8; 32] {
        &self.secret
    }

    /// Decides a packet. Pure: `decide(t)` never depends on prior calls.
    ///
    /// Runs entirely on the compiled hot path — the compiled classifier,
    /// the one-block SHA-256, and the rule's **pre-computed** allow
    /// threshold ([`RuleSet::allow_threshold`], compiled at install time
    /// instead of re-deriving `p_allow · 2⁶⁴` per hash-decided packet) —
    /// and performs no heap allocation.
    pub fn decide(&self, t: &FiveTuple) -> Verdict {
        self.verdict_for(
            t,
            self.ruleset.classify(t),
            Self::hash_threshold,
            |s, id, _| s.ruleset.allow_threshold(id),
        )
    }

    /// The reference decide path: [`RuleSet::classify_reference`] plus the
    /// streaming SHA-256 hasher and a per-packet threshold recomputation —
    /// the pre-compilation implementation, preserved end to end with no
    /// shared hot-path code.
    ///
    /// Bit-identical verdicts to [`decide`](StatelessFilter::decide) are a
    /// hard requirement (audit equivalence and the batch invariant depend
    /// on it); the `compiled_classifier_matches_reference` property test
    /// compares the two. Allocates per call, so it is the oracle, not the
    /// data path.
    pub fn decide_reference(&self, t: &FiveTuple) -> Verdict {
        self.verdict_for(
            t,
            self.ruleset.classify_reference(t),
            Self::hash_threshold_streaming,
            |_, _, p_allow| allow_threshold(p_allow),
        )
    }

    /// Maps a classification outcome to the full verdict, deciding
    /// probabilistic rules with the supplied Appendix A hash evaluator and
    /// allow-threshold source (pre-compiled lookup on the hot path,
    /// per-packet recomputation on the reference path).
    #[inline]
    fn verdict_for(
        &self,
        t: &FiveTuple,
        classified: Option<RuleId>,
        hash: impl Fn(&Self, &FiveTuple) -> u64,
        threshold: impl Fn(&Self, RuleId, f64) -> u128,
    ) -> Verdict {
        match classified {
            None => Verdict {
                action: RuleAction::Allow,
                rule: None,
                path: DecisionPath::Default,
            },
            Some(id) => match self.ruleset.rule(id).decision() {
                RuleDecision::Deterministic(action) => Verdict {
                    action,
                    rule: Some(id),
                    path: DecisionPath::Deterministic,
                },
                RuleDecision::Probabilistic { p_allow } => Verdict {
                    action: if (hash(self, t) as u128) < threshold(self, id, p_allow) {
                        RuleAction::Allow
                    } else {
                        RuleAction::Drop
                    },
                    rule: Some(id),
                    path: DecisionPath::HashBased,
                },
            },
        }
    }

    /// Decides a burst of packets, appending exactly one verdict per tuple
    /// to `out` in order. Callers must pass `out` cleared: this appends
    /// without clearing, so `out[i]` pairs with `tuples[i]` only when the
    /// buffer starts empty.
    ///
    /// Identical verdicts to per-packet [`decide`](StatelessFilter::decide)
    /// (the batch invariant, module docs). This is the reference loop —
    /// the stateless filter keeps no cache, so there is nothing to
    /// amortize beyond the single `reserve`.
    pub fn decide_batch(&self, tuples: &[FiveTuple], out: &mut Vec<Verdict>) {
        out.reserve(tuples.len());
        for t in tuples {
            out.push(self.decide(t));
        }
    }

    /// `H(5T ‖ secret)` truncated to 64 bits: the input of the Appendix A
    /// hash-based connection-preserving decision (allow iff it is below
    /// `p_allow · 2⁶⁴`).
    ///
    /// The 45-byte `5-tuple ‖ secret` message fits one padded SHA-256
    /// block, so the hot path assembles it on the stack and runs a single
    /// compression ([`Sha256::digest_one_block`]) — no streaming-buffer
    /// copies, no hasher state, no allocation.
    #[inline]
    fn hash_threshold(&self, t: &FiveTuple) -> u64 {
        let mut msg = [0u8; 45];
        msg[..13].copy_from_slice(&t.encode());
        msg[13..].copy_from_slice(&self.secret);
        let digest = Sha256::digest_one_block(&msg);
        u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"))
    }

    /// The same hash via the streaming hasher (reference path only).
    fn hash_threshold_streaming(&self, t: &FiveTuple) -> u64 {
        let mut h = Sha256::new();
        h.update(&t.encode());
        h.update(&self.secret);
        let digest = h.finalize();
        u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FilterRule, FlowPattern};
    use vif_dataplane::Protocol;

    fn victim_pattern() -> FlowPattern {
        FlowPattern::prefixes(
            "0.0.0.0/0".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        )
    }

    fn tuple(i: u32) -> FiveTuple {
        FiveTuple::new(
            0x0a000000 + i,
            u32::from_be_bytes([203, 0, 113, (i % 250) as u8]),
            (1024 + i % 50000) as u16,
            80,
            Protocol::Udp,
        )
    }

    fn filter(rules: Vec<FilterRule>) -> StatelessFilter {
        StatelessFilter::new(RuleSet::from_rules(rules), [7u8; 32])
    }

    #[test]
    fn hash_threshold_known_answers() {
        // `H(5T ‖ secret)[..8]` as a little-endian u64, pinned as
        // constants: the Appendix-A verdict of every flow rests on these
        // bytes whichever SHA-256 kernel the CPU offers.
        let ramp: [u8; 32] = std::array::from_fn(|i| i as u8);
        let cases: [(FiveTuple, [u8; 32], u64); 5] = [
            (tuple(1), [7; 32], 0x2d28_8545_3688_87f1),
            (tuple(77_777), [7; 32], 0x4433_6a5b_8520_a0c5),
            (
                FiveTuple::new(0, 0, 0, 0, Protocol::Tcp),
                [0; 32],
                0x8736_016b_0859_6744,
            ),
            (
                FiveTuple::new(u32::MAX, u32::MAX, u16::MAX, u16::MAX, Protocol::Icmp),
                [0xff; 32],
                0xe0f9_c157_deb5_aff2,
            ),
            (
                FiveTuple::new(0xc0a8_0101, 0xcb00_7105, 443, 51_515, Protocol::Tcp),
                ramp,
                0x89b9_903b_ea7b_acac,
            ),
        ];
        for (t, secret, want) in cases {
            let f = StatelessFilter::new(RuleSet::from_rules(vec![]), secret);
            assert_eq!(f.hash_threshold(&t), want, "{t:?}");
            assert_eq!(f.hash_threshold_streaming(&t), want, "{t:?}");
        }
    }

    #[test]
    fn default_is_allow() {
        let f = filter(vec![]);
        let v = f.decide(&tuple(1));
        assert_eq!(v.action, RuleAction::Allow);
        assert_eq!(v.path, DecisionPath::Default);
        assert_eq!(v.rule, None);
    }

    #[test]
    fn deterministic_drop() {
        let f = filter(vec![FilterRule::drop(victim_pattern())]);
        let v = f.decide(&tuple(1));
        assert_eq!(v.action, RuleAction::Drop);
        assert_eq!(v.path, DecisionPath::Deterministic);
        assert_eq!(v.rule, Some(0));
    }

    #[test]
    fn statelessness_order_independence() {
        // The core §III-A property: decisions are identical regardless of
        // the order (or repetition) in which packets are presented.
        let f = filter(vec![FilterRule::drop_fraction(victim_pattern(), 0.5)]);
        let tuples: Vec<FiveTuple> = (0..500).map(tuple).collect();
        let forward: Vec<RuleAction> = tuples.iter().map(|t| f.decide(t).action).collect();
        let mut reversed: Vec<(usize, &FiveTuple)> = tuples.iter().enumerate().rev().collect();
        // Interleave adversarial "injected" packets — they must not change
        // anything.
        let injected = tuple(999_999);
        let mut backward = vec![RuleAction::Allow; tuples.len()];
        for (i, t) in reversed.drain(..) {
            let _ = f.decide(&injected);
            backward[i] = f.decide(t).action;
            let _ = f.decide(&injected);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn hash_decisions_connection_preserving() {
        let f = filter(vec![FilterRule::drop_fraction(victim_pattern(), 0.5)]);
        for i in 0..100 {
            let t = tuple(i);
            let first = f.decide(&t).action;
            for _ in 0..10 {
                assert_eq!(f.decide(&t).action, first, "flow {i} verdict flapped");
            }
        }
    }

    #[test]
    fn hash_drop_rate_converges_to_request() {
        let f = filter(vec![FilterRule::drop_fraction(victim_pattern(), 0.5)]);
        let n = 10_000;
        let dropped = (0..n)
            .filter(|&i| f.decide(&tuple(i)).action == RuleAction::Drop)
            .count();
        let rate = dropped as f64 / n as f64;
        assert!(
            (0.47..0.53).contains(&rate),
            "drop rate {rate} far from requested 0.5"
        );
    }

    #[test]
    fn hash_rate_tracks_various_fractions() {
        for &frac in &[0.1, 0.25, 0.75, 0.9] {
            let f = filter(vec![FilterRule::drop_fraction(victim_pattern(), frac)]);
            let n = 20_000;
            let dropped = (0..n)
                .filter(|&i| f.decide(&tuple(i)).action == RuleAction::Drop)
                .count();
            let rate = dropped as f64 / n as f64;
            assert!(
                (rate - frac).abs() < 0.03,
                "requested {frac}, realized {rate}"
            );
        }
    }

    #[test]
    fn probability_extremes_are_exact() {
        let f_all = filter(vec![FilterRule::drop_fraction(victim_pattern(), 0.0)]);
        let f_none = filter(vec![FilterRule::drop_fraction(victim_pattern(), 1.0)]);
        for i in 0..1000 {
            assert_eq!(f_all.decide(&tuple(i)).action, RuleAction::Allow);
            assert_eq!(f_none.decide(&tuple(i)).action, RuleAction::Drop);
        }
    }

    #[test]
    fn different_secrets_different_flow_verdicts() {
        let rs = RuleSet::from_rules(vec![FilterRule::drop_fraction(victim_pattern(), 0.5)]);
        let f1 = StatelessFilter::new(rs.clone(), [1u8; 32]);
        let f2 = StatelessFilter::new(rs, [2u8; 32]);
        let differs = (0..200).any(|i| f1.decide(&tuple(i)).action != f2.decide(&tuple(i)).action);
        assert!(differs, "secrets should shuffle flow verdicts");
    }

    #[test]
    fn install_ruleset_swaps_rules() {
        let mut f = filter(vec![FilterRule::drop(victim_pattern())]);
        assert_eq!(f.decide(&tuple(1)).action, RuleAction::Drop);
        f.install_ruleset(RuleSet::new());
        assert_eq!(f.decide(&tuple(1)).action, RuleAction::Allow);
    }
}
