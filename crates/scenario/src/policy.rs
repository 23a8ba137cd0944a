//! The victim side of the control loop.
//!
//! Each audited round, the harness hands the policy everything the victim
//! legitimately has: the round's per-slice audit verdicts, heavy-hitter
//! estimates from the victim's own count-min sketch over *received*
//! traffic, and the enclaves' per-rule telemetry (the `B_i` counters of
//! the Fig. 5 exchange, reported over the attested session). The policy
//! answers with rule installs and withdrawals, which the harness applies
//! through the §VI-B session protocol before the next round.
//!
//! Ground truth (which sources are malicious) is deliberately *not* in
//! the observation — a policy must work from observable signals, which is
//! what makes the flash-crowd phase a real test: a correct policy leaves
//! a surge of many individually-modest legitimate sources alone.

use crate::report::ScenarioReport;
use vif_core::rounds::ClusterRoundOutcome;
use vif_core::rules::{FilterRule, FlowPattern};
use vif_core::ruleset::RuleId;
use vif_trie::Ipv4Prefix;

/// One victim-side heavy-hitter estimate for a source address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeavyHitter {
    /// The source address.
    pub src_ip: u32,
    /// Estimated packets received from it this round (count-min sketch
    /// estimate: never an undercount).
    pub estimated_packets: u64,
}

/// A rule the victim currently has in force, with its freshness telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct InstalledRule {
    /// The enclave-side rule id (stable across churn).
    pub id: RuleId,
    /// The installed rule.
    pub rule: FilterRule,
    /// The round it was installed in.
    pub installed_round: u64,
    /// Consecutive completed rounds in which the rule matched no traffic
    /// (from the enclaves' aggregated per-rule byte telemetry).
    pub rounds_idle: u32,
}

/// Everything a policy sees at the end of one audited round.
#[derive(Debug)]
pub struct PolicyObservation<'a> {
    /// The global round just audited (0-based).
    pub round: u64,
    /// The cluster-wide audit outcome (per-slice verdicts).
    pub outcome: &'a ClusterRoundOutcome,
    /// Victim-side per-source estimates over traffic *received* this
    /// round, sorted by estimate descending (ties: lower address first).
    pub heavy_hitters: &'a [HeavyHitter],
    /// The victim's currently installed rules with idle telemetry.
    pub installed: &'a [InstalledRule],
    /// The victim's address space (rules must target it — RPKI enforces
    /// this at install time anyway).
    pub victim: Ipv4Prefix,
}

/// A rule-churn decision.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyAction {
    /// Install a new filter rule.
    Install(FilterRule),
    /// Withdraw an installed rule by id.
    Withdraw(RuleId),
}

/// The adaptive victim: reacts to each audited round with rule churn.
pub trait VictimPolicy {
    /// Appends this round's decisions to `actions`.
    fn react(&mut self, obs: &PolicyObservation<'_>, actions: &mut Vec<PolicyAction>);

    /// Hook: called once when the scenario ends (default: nothing).
    fn finish(&mut self, _report: &ScenarioReport) {}
}

/// The default control loop: install a per-source drop when a source's
/// estimated received rate crosses a threshold, withdraw the rule once it
/// has been idle (matched nothing at the filter) for a few rounds.
///
/// The install threshold is what protects flash crowds: a legitimate
/// surge is many sources each below threshold, while a heavy-tailed
/// attack concentrates volume on a head the victim can name. The idle
/// window is what closes the loop on pulse gaps and phase changes —
/// rules whose attack has moved on are withdrawn instead of accreting
/// forever (the enclave's EPC budget is finite).
#[derive(Debug, Clone)]
pub struct ThresholdPolicy {
    /// Install a drop for any source estimated at or above this many
    /// packets per round.
    pub install_threshold: u64,
    /// Withdraw a rule after this many consecutive idle rounds.
    pub idle_rounds: u32,
    /// Cap on installs per round (control-plane rate limit).
    pub max_installs_per_round: usize,
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy {
            install_threshold: 100,
            idle_rounds: 2,
            max_installs_per_round: 32,
        }
    }
}

impl VictimPolicy for ThresholdPolicy {
    fn react(&mut self, obs: &PolicyObservation<'_>, actions: &mut Vec<PolicyAction>) {
        // Withdraw idle rules first: ids freed this round cannot collide
        // with installs (ids are tombstoned, never reused), so ordering is
        // cosmetic — but withdraw-then-install reads as the victim's
        // actual budget discipline.
        for rule in obs.installed {
            if rule.rounds_idle >= self.idle_rounds {
                actions.push(PolicyAction::Withdraw(rule.id));
            }
        }
        let mut budget = self.max_installs_per_round;
        for hh in obs.heavy_hitters {
            if budget == 0 {
                break;
            }
            if hh.estimated_packets < self.install_threshold {
                break; // sorted descending: nothing further qualifies
            }
            let covered = obs
                .installed
                .iter()
                .any(|r| r.rule.pattern().src.contains(hh.src_ip));
            if covered {
                continue;
            }
            actions.push(PolicyAction::Install(FilterRule::drop(
                FlowPattern::prefixes(Ipv4Prefix::host(hh.src_ip), obs.victim),
            )));
            budget -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vif_core::rounds::{ClusterRoundOutcome, RoundOutcome};
    use vif_core::verify::BypassVerdict;

    fn clean_outcome() -> ClusterRoundOutcome {
        ClusterRoundOutcome {
            round: 0,
            slices: vec![RoundOutcome {
                victim_verdict: BypassVerdict::Clean,
                neighbor_verdict: BypassVerdict::Clean,
                quarantined: false,
                probation: false,
            }],
        }
    }

    fn victim() -> Ipv4Prefix {
        Ipv4Prefix::new(u32::from_be_bytes([203, 0, 0, 0]), 16)
    }

    #[test]
    fn installs_above_threshold_only() {
        let mut p = ThresholdPolicy::default();
        let outcome = clean_outcome();
        let hitters = vec![
            HeavyHitter {
                src_ip: 0x0a000001,
                estimated_packets: 5_000,
            },
            HeavyHitter {
                src_ip: 0x0a000002,
                estimated_packets: 301,
            },
            HeavyHitter {
                src_ip: 0x50000001,
                estimated_packets: 40,
            },
        ];
        let mut actions = Vec::new();
        p.react(
            &PolicyObservation {
                round: 0,
                outcome: &outcome,
                heavy_hitters: &hitters,
                installed: &[],
                victim: victim(),
            },
            &mut actions,
        );
        assert_eq!(actions.len(), 2);
        for a in &actions {
            match a {
                PolicyAction::Install(r) => {
                    assert!(
                        r.pattern().src.contains(0x0a000001)
                            || r.pattern().src.contains(0x0a000002)
                    );
                    assert!(!r.pattern().src.contains(0x50000001));
                }
                PolicyAction::Withdraw(_) => panic!("nothing to withdraw"),
            }
        }
    }

    #[test]
    fn covered_sources_not_reinstalled_and_idle_rules_withdrawn() {
        let mut p = ThresholdPolicy {
            idle_rounds: 2,
            ..Default::default()
        };
        let outcome = clean_outcome();
        let installed = vec![
            InstalledRule {
                id: 0,
                rule: FilterRule::drop(FlowPattern::prefixes(
                    Ipv4Prefix::host(0x0a000001),
                    victim(),
                )),
                installed_round: 0,
                rounds_idle: 2,
            },
            InstalledRule {
                id: 1,
                rule: FilterRule::drop(FlowPattern::prefixes(
                    Ipv4Prefix::host(0x0a000002),
                    victim(),
                )),
                installed_round: 0,
                rounds_idle: 0,
            },
        ];
        let hitters = vec![HeavyHitter {
            src_ip: 0x0a000002,
            estimated_packets: 9_999,
        }];
        let mut actions = Vec::new();
        p.react(
            &PolicyObservation {
                round: 3,
                outcome: &outcome,
                heavy_hitters: &hitters,
                installed: &installed,
                victim: victim(),
            },
            &mut actions,
        );
        assert_eq!(actions, vec![PolicyAction::Withdraw(0)]);
    }

    #[test]
    fn install_budget_is_respected() {
        let mut p = ThresholdPolicy {
            max_installs_per_round: 3,
            ..Default::default()
        };
        let outcome = clean_outcome();
        let hitters: Vec<HeavyHitter> = (0..10)
            .map(|i| HeavyHitter {
                src_ip: 0x0a000000 + i,
                estimated_packets: 1_000,
            })
            .collect();
        let mut actions = Vec::new();
        p.react(
            &PolicyObservation {
                round: 0,
                outcome: &outcome,
                heavy_hitters: &hitters,
                installed: &[],
                victim: victim(),
            },
            &mut actions,
        );
        assert_eq!(actions.len(), 3);
    }
}
