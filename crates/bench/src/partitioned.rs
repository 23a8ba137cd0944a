//! The paper's scale-out experiments (§IV, Fig. 5, §VI-D): rule-partitioned
//! enclaves behind an untrusted load balancer, and the server-count
//! arithmetic of a deployment.
//!
//! The greedy allocator sizes the pool from per-rule bandwidth estimates
//! and hands each enclave a slice of the rules. The balancer classifies
//! each flow against the full rule map and routes it to an enclave that
//! hosts the matching rule, so the pool counts, per enclave, every
//! in-enclave verdict that matched none of that enclave's rules as
//! misrouted (§IV-B). A balancer that drops flows starves the enclaves'
//! incoming logs, which the ordinary bypass audit catches (§III-B).
//! [`PartitionedPool::repartition`] runs the Fig. 5 master–slave round:
//! slaves upload `(R_i, B_i)`, the master re-solves the partition from the
//! measured bytes, and every enclave installs its new slice.
//!
//! This is a paper experiment, not a serving path: it has no slice
//! lifecycle, no epoch publication and no quarantine. The live service
//! runs the replicated pool ([`EnclaveCluster`](vif_core::scale::EnclaveCluster)),
//! where every slice holds every rule.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vif_core::enclave_app::FilterEnclaveApp;
use vif_core::rules::RuleAction;
use vif_core::ruleset::{RuleId, RuleSet};
use vif_dataplane::FiveTuple;
use vif_optimizer::{greedy::GreedySolver, ilp::Instance, Allocation};
use vif_sgx::{Enclave, EnclaveImage, SgxPlatform};
use vif_sketch::hash::fingerprint;

/// The §VI-D back-of-envelope deployment plan: how many commodity SGX
/// servers an IXP needs for a target filtering capacity.
///
/// # Example
///
/// ```
/// use vif_bench::partitioned::DeploymentPlan;
/// // The paper's example: 500 Gb/s needs 50 servers ≈ US$ 100K.
/// let plan = DeploymentPlan::for_capacity_gbps(500.0);
/// assert_eq!(plan.servers, 50);
/// assert_eq!(plan.capex_usd, 100_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeploymentPlan {
    /// Commodity SGX servers required (one ≈10 Gb/s enclave each, §V-B).
    pub servers: usize,
    /// One-time hardware cost at ≈US$ 2,000 per server (§VI-D).
    pub capex_usd: u64,
    /// Rack units at ~40 servers per rack.
    pub racks: usize,
}

impl DeploymentPlan {
    /// Per-server filtering capacity demonstrated in §V-B, Gb/s.
    pub const GBPS_PER_SERVER: f64 = 10.0;
    /// Commodity server cost assumed in §VI-D, US$.
    pub const USD_PER_SERVER: u64 = 2_000;

    /// Sizes a deployment for `capacity_gbps` of filtering.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_gbps` is not positive and finite.
    pub fn for_capacity_gbps(capacity_gbps: f64) -> Self {
        assert!(
            capacity_gbps.is_finite() && capacity_gbps > 0.0,
            "capacity must be positive"
        );
        let servers = (capacity_gbps / Self::GBPS_PER_SERVER).ceil() as usize;
        DeploymentPlan {
            servers,
            capex_usd: servers as u64 * Self::USD_PER_SERVER,
            racks: servers.div_ceil(40),
        }
    }
}

/// Report of one Fig. 5 redistribution round of the rule-partitioned model
/// ([`PartitionedPool::repartition`]).
#[derive(Debug, Clone)]
pub struct RedistributionReport {
    /// Which enclave acted as master.
    pub master: usize,
    /// Enclaves in use after the round.
    pub enclaves_used: usize,
    /// Total `(rule, enclave)` installations after the round.
    pub installations: usize,
    /// Measured bytes per *global* rule id this round — the aggregated
    /// `B_i` the master collected. Identical rules installed under
    /// different global ids keep their own measurements.
    pub bytes_per_rule: Vec<u64>,
    /// Greedy solve time.
    pub solve_time: std::time::Duration,
}

/// How the untrusted load balancer behaves (failure injection for tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadBalancerBehavior {
    /// Follows the assignment faithfully.
    Honest,
    /// Sends this fraction of flows to the wrong enclave.
    MisrouteFraction(f64),
    /// Silently drops this fraction of flows (never reaches any enclave).
    DropFraction(f64),
}

/// The untrusted flow → enclave dispatcher.
#[derive(Debug, Clone)]
struct LoadBalancer {
    /// Per rule: the enclaves hosting it with their bandwidth shares.
    assignment: Vec<Vec<(usize, f64)>>,
    behavior: LoadBalancerBehavior,
    n_enclaves: usize,
}

impl LoadBalancer {
    /// Builds a balancer from an allocation over `ruleset`.
    fn new(
        ruleset_len: usize,
        allocation: &Allocation,
        n_enclaves: usize,
        behavior: LoadBalancerBehavior,
    ) -> Self {
        let mut assignment: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ruleset_len];
        for (enclave, shares) in allocation.enclaves.iter().enumerate() {
            for share in shares {
                if share.rule < ruleset_len {
                    assignment[share.rule].push((enclave, share.bandwidth.max(1e-9)));
                }
            }
        }
        LoadBalancer {
            assignment,
            behavior,
            n_enclaves,
        }
    }

    /// Dispatches a flow that matched `rule` (or none) to an enclave, or
    /// `None` when the (malicious) balancer drops it.
    ///
    /// Split rules hash the flow across their hosting enclaves
    /// proportionally to the allocated bandwidth shares, so a flow always
    /// lands on the same enclave (connection preserving).
    fn dispatch(&self, rule: Option<RuleId>, t: &FiveTuple) -> Option<usize> {
        let fp = fingerprint(&t.encode());
        let misroute = match self.behavior {
            LoadBalancerBehavior::DropFraction(f) if unit_hash(fp ^ 0xD0D0) < f => return None,
            LoadBalancerBehavior::MisrouteFraction(f) => unit_hash(fp ^ 0xBAD) < f,
            _ => false,
        };
        let hosts = rule
            .and_then(|r| self.assignment.get(r as usize))
            .filter(|h| !misroute && !h.is_empty());
        let Some(hosts) = hosts else {
            // Unmatched traffic goes to a hash-picked enclave (it will be
            // default-allowed wherever it lands), and so does a flow the
            // balancer misroutes on purpose (likely the wrong enclave).
            return Some((fp % self.n_enclaves as u64) as usize);
        };
        let mut x = unit_hash(fp) * hosts.iter().map(|(_, w)| w).sum::<f64>();
        for &(enclave, w) in hosts {
            if x < w {
                return Some(enclave);
            }
            x -= w;
        }
        Some(hosts.last().expect("non-empty").0)
    }
}

/// Maps a 64-bit hash to `[0, 1)`.
fn unit_hash(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Rule-partitioned enclaves behind an untrusted load balancer (see the
/// module docs).
pub struct PartitionedPool {
    enclaves: Vec<Arc<Enclave<FilterEnclaveApp>>>,
    /// Per enclave: verdicts it returned that matched none of its rules
    /// (a flow the balancer should not have sent there). Follows its
    /// enclave: a shrinking repartition drops the retired enclaves'
    /// counts.
    misrouted: Vec<AtomicU64>,
    /// Per enclave: the *global* ids of the rules installed there, in the
    /// slice's local rule order. This is the master's source of truth for
    /// mapping slave telemetry back to global rules — matching by rule
    /// equality would alias duplicate rules onto the first copy.
    slices: Vec<Vec<RuleId>>,
    lb: LoadBalancer,
    ruleset: RuleSet,
    platform: SgxPlatform,
    image: EnclaveImage,
    secret: [u8; 32],
    sketch_seed: u64,
    audit_key: [u8; 32],
}

impl PartitionedPool {
    /// Launches a pool for `ruleset`, sized by the greedy allocator under
    /// the given per-rule bandwidth estimates (Gb/s).
    ///
    /// # Panics
    ///
    /// Panics if the allocator cannot place the rules (pathological
    /// estimates).
    #[allow(clippy::too_many_arguments)] // deliberate: every key is distinct session state
    pub fn launch(
        platform: SgxPlatform,
        image: EnclaveImage,
        ruleset: RuleSet,
        bandwidth_estimates: Vec<f64>,
        secret: [u8; 32],
        sketch_seed: u64,
        audit_key: [u8; 32],
        behavior: LoadBalancerBehavior,
    ) -> Self {
        assert_eq!(ruleset.len(), bandwidth_estimates.len());
        let allocation = GreedySolver::default()
            .solve(&Instance::paper_defaults(bandwidth_estimates, 0.2))
            .expect("initial allocation feasible");
        let n = allocation.enclaves.len();
        let mut pool = PartitionedPool {
            enclaves: Vec::new(),
            misrouted: Vec::new(),
            slices: Vec::new(),
            lb: LoadBalancer::new(ruleset.len(), &allocation, n, behavior),
            ruleset,
            platform,
            image,
            secret,
            sketch_seed,
            audit_key,
        };
        pool.install(&allocation);
        pool
    }

    /// The enclaves.
    pub fn enclaves(&self) -> &[Arc<Enclave<FilterEnclaveApp>>] {
        &self.enclaves
    }

    /// Processes one packet through LB dispatch and the target enclave.
    ///
    /// Returns `(action, enclave)` — `None` enclave if the LB dropped it.
    pub fn process(&self, t: &FiveTuple, wire_bytes: u64) -> (RuleAction, Option<usize>) {
        // The LB classifies against the full rule map it was programmed
        // with (it is untrusted but needs the mapping to route).
        let Some(i) = self.lb.dispatch(self.ruleset.classify(t), t) else {
            return (RuleAction::Drop, None);
        };
        let verdict = self.enclaves[i].in_enclave_thread(|app| app.process(t, wire_bytes));
        if verdict.rule.is_none() {
            self.misrouted[i].fetch_add(1, Ordering::Relaxed);
        }
        (verdict.action, Some(i))
    }

    /// Total misrouted-packet count across enclaves (LB misbehavior
    /// evidence, §IV-B).
    pub fn misrouted_total(&self) -> u64 {
        self.misrouted
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .sum()
    }

    /// Runs the Fig. 5 master–slave round: `master` collects every
    /// enclave's `(R_i, B_i)`, recomputes the partition from the measured
    /// byte counts, grows or shrinks the pool, and installs the new slices.
    /// The balancer is reprogrammed for the new partition and keeps its
    /// behavior — a repartition does not make a malicious balancer honest.
    ///
    /// # Panics
    ///
    /// Panics if `master` is out of range.
    pub fn repartition(&mut self, master: usize) -> RedistributionReport {
        assert!(master < self.enclaves.len(), "master index out of range");

        // Slaves (and the master itself) report per-rule byte counts over
        // their attested channels. Local rule order matches the slice's
        // global-id list recorded at install time, so counts map straight
        // back to global ids — duplicate rules in the full set each keep
        // their own bytes instead of aliasing onto the first equal copy.
        let mut bytes_per_rule = vec![0u64; self.ruleset.len()];
        for (enclave, slice) in self.enclaves.iter().zip(&self.slices) {
            enclave.ecall(|app| {
                let counters = app.ruleset().counters();
                debug_assert_eq!(counters.len(), slice.len(), "slice mapping out of sync");
                for (&global, c) in slice.iter().zip(counters) {
                    bytes_per_rule[global as usize] += c.bytes;
                }
            });
        }

        // Convert byte counts to relative bandwidth (Gb/s scale; absolute
        // calibration does not change the partition shape).
        let total_bytes: u64 = bytes_per_rule.iter().sum();
        let estimates: Vec<f64> = if total_bytes == 0 {
            vec![1.0; self.ruleset.len()]
        } else {
            bytes_per_rule
                .iter()
                .map(|&b| (b as f64 / total_bytes as f64) * 50.0 + 1e-6)
                .collect()
        };

        let start = std::time::Instant::now();
        let allocation = GreedySolver::default()
            .solve(&Instance::paper_defaults(estimates, 0.2))
            .expect("redistribution feasible");
        let solve_time = start.elapsed();

        // Grow or shrink the pool (new enclaves must be attested before
        // receiving rules — modeled by fresh launches).
        let n = allocation.enclaves.len();
        self.enclaves.truncate(n);
        self.misrouted.truncate(n);
        self.install(&allocation);
        self.lb = LoadBalancer::new(self.ruleset.len(), &allocation, n, self.lb.behavior);

        RedistributionReport {
            master,
            enclaves_used: allocation.used_enclaves(),
            installations: allocation.installations(),
            bytes_per_rule,
            solve_time,
        }
    }

    /// Installs `allocation`'s slices (each a fresh rule set, so its
    /// counters start at zero), launching enclaves the pool does not have
    /// yet, and records each slice's global-id mapping for the next round.
    fn install(&mut self, allocation: &Allocation) {
        self.slices = allocation
            .enclaves
            .iter()
            .map(|shares| shares.iter().map(|s| s.rule as RuleId).collect())
            .collect();
        for (i, ids) in self.slices.iter().enumerate() {
            let subset = subset(&self.ruleset, ids);
            if i == self.enclaves.len() {
                let app =
                    FilterEnclaveApp::new(subset, self.secret, self.sketch_seed, self.audit_key);
                self.enclaves
                    .push(Arc::new(self.platform.launch(self.image.clone(), app)));
                self.misrouted.push(AtomicU64::new(0));
            } else {
                // The displaced slice comes back out of the ECall.
                drop(self.enclaves[i].ecall(|app| app.install_ruleset(subset)));
            }
        }
    }
}

/// Extracts the sub-ruleset with the given ids: the share the master
/// sends one slave (Fig. 5). Withdrawn ids are skipped — a tombstone never
/// resurrects through redistribution.
fn subset(ruleset: &RuleSet, ids: &[RuleId]) -> RuleSet {
    RuleSet::from_rules(
        ids.iter()
            .filter(|&&id| !ruleset.is_removed(id))
            .map(|&id| *ruleset.rule(id)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vif_core::logs::LogDirection::Incoming;
    use vif_core::rules::{FilterRule, FlowPattern};
    use vif_dataplane::Protocol;
    use vif_sgx::{AttestationRootKey, EpcConfig};
    use vif_trie::Ipv4Prefix;

    fn victim() -> Ipv4Prefix {
        "203.0.113.0/24".parse().unwrap()
    }

    fn tuple(src: [u8; 4], dst: [u8; 4], sp: u16, dp: u16, proto: Protocol) -> FiveTuple {
        FiveTuple::new(
            u32::from_be_bytes(src),
            u32::from_be_bytes(dst),
            sp,
            dp,
            proto,
        )
    }

    /// A pool of `k` rules sized for `gbps` of uniformly estimated load.
    fn pool(k: usize, gbps: f64, behavior: LoadBalancerBehavior) -> PartitionedPool {
        let root = AttestationRootKey::new([1u8; 32]);
        let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif", 1, vec![0; 256]);
        let ruleset = RuleSet::from_rules((0..k as u32).map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::new(0x0a000000 + (i << 8), 24),
                victim(),
            ))
        }));
        PartitionedPool::launch(
            platform,
            image,
            ruleset,
            vec![gbps / k as f64; k],
            [7u8; 32],
            99,
            [8u8; 32],
            behavior,
        )
    }

    fn attack_tuple(rule: u32, flow: u32) -> FiveTuple {
        FiveTuple::new(
            0x0a000000 + (rule << 8) + (flow % 250),
            u32::from_be_bytes([203, 0, 113, 1]),
            (1000 + flow % 50_000) as u16,
            80,
            Protocol::Udp,
        )
    }

    #[test]
    fn pool_sized_by_bandwidth() {
        // 50 Gb/s over 10 Gb/s enclaves: at least 5 (λ=0.2 -> 6).
        let c = pool(100, 50.0, LoadBalancerBehavior::Honest);
        let n = c.enclaves().len();
        assert!(n >= 5, "only {n} enclaves");
    }

    #[test]
    fn honest_lb_no_misroutes_and_drops_matching_flows() {
        let c = pool(50, 50.0, LoadBalancerBehavior::Honest);
        for r in 0..50 {
            for f in 0..4 {
                let (action, enclave) = c.process(&attack_tuple(r, f), 500);
                assert_eq!(action, RuleAction::Drop, "rule {r} flow {f}");
                assert!(enclave.is_some());
            }
        }
        assert_eq!(c.misrouted_total(), 0);
    }

    #[test]
    fn connection_preserving_dispatch() {
        let c = pool(20, 50.0, LoadBalancerBehavior::Honest);
        for r in 0..20 {
            let t = attack_tuple(r, 1);
            let (_, first) = c.process(&t, 64);
            for _ in 0..5 {
                let (_, again) = c.process(&t, 64);
                assert_eq!(first, again, "flow moved enclaves");
            }
        }
    }

    #[test]
    fn misrouting_lb_detected() {
        let c = pool(50, 50.0, LoadBalancerBehavior::MisrouteFraction(0.5));
        for r in 0..50 {
            for f in 0..10 {
                c.process(&attack_tuple(r, f), 64);
            }
        }
        assert!(
            c.misrouted_total() > 0,
            "the pool should catch misrouted flows"
        );
    }

    #[test]
    fn misrouting_lb_stays_malicious_after_repartition() {
        // Sized for 100 Gb/s, re-solved for the measured (50 Gb/s-scaled)
        // load: the repartition shrinks the pool, and the retired
        // enclaves' misroute counts leave with them.
        let mut c = pool(50, 100.0, LoadBalancerBehavior::MisrouteFraction(0.3));
        for r in 0..50 {
            for f in 0..4 {
                c.process(&attack_tuple(r, f), 64);
            }
        }
        assert_eq!((c.enclaves().len(), c.misrouted_total()), (12, 47));
        c.repartition(0);
        assert_eq!((c.enclaves().len(), c.misrouted_total()), (7, 29));
        // Regression: the repartition used to reprogram an honest balancer.
        for r in 0..50 {
            for f in 4..10 {
                c.process(&attack_tuple(r, f), 64);
            }
        }
        assert_eq!(c.misrouted_total(), 105);
    }

    #[test]
    fn dropping_lb_starves_enclave_logs() {
        let c = pool(20, 50.0, LoadBalancerBehavior::DropFraction(0.5));
        let mut lb_dropped = 0;
        let total = 400;
        for r in 0..20 {
            for f in 0..20 {
                let (_, enclave) = c.process(&attack_tuple(r, f), 64);
                if enclave.is_none() {
                    lb_dropped += 1;
                }
            }
        }
        assert!(lb_dropped > total / 5, "only {lb_dropped} LB drops");
        // The enclaves' incoming logs saw fewer packets than offered —
        // exactly what neighbor verifiers detect as drop-before-filter.
        let logged: u64 = c
            .enclaves()
            .iter()
            .map(|e| e.ecall(|a| a.logs_of(0).sketch(Incoming).total()))
            .sum();
        assert_eq!(logged, total - lb_dropped);
    }

    #[test]
    fn repartition_rebalances_by_measured_load() {
        let mut c = pool(40, 50.0, LoadBalancerBehavior::Honest);
        // Rule 0 carries almost all traffic.
        for f in 0..2000 {
            c.process(&attack_tuple(0, f), 1500);
        }
        for r in 1..40 {
            c.process(&attack_tuple(r, 0), 64);
        }
        let report = c.repartition(0);
        assert!(report.enclaves_used >= 1);
        assert!(report.installations >= 40, "every rule must stay installed");
        // All rules still enforced after redistribution.
        for r in 0..40 {
            let (action, _) = c.process(&attack_tuple(r, 7), 64);
            assert_eq!(action, RuleAction::Drop, "rule {r} lost in redistribution");
        }
        assert_eq!(
            c.misrouted_total(),
            0,
            "post-redistribution routing consistent"
        );
    }

    #[test]
    fn duplicate_rules_keep_separate_byte_counts() {
        // Two *identical* drop rules whose bandwidth forces them onto
        // different enclaves (6 + 6 Gb/s over 10 Gb/s slices).
        let dup = FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/24".parse().unwrap(),
            victim(),
        ));
        let root = AttestationRootKey::new([1u8; 32]);
        let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif", 1, vec![0; 64]);
        let mut c = PartitionedPool::launch(
            platform,
            image,
            RuleSet::from_rules(vec![dup, dup]),
            vec![6.0, 6.0],
            [7u8; 32],
            99,
            [8u8; 32],
            LoadBalancerBehavior::Honest,
        );
        // Find the enclave whose slice is exactly the *second* copy and
        // deliver matching traffic straight to it (a first-match balancer
        // never routes there on its own — only slice tracking can
        // attribute its measurements correctly).
        let holder = c
            .slices
            .iter()
            .position(|s| s == &vec![1 as RuleId])
            .expect("second copy on its own enclave");
        let t = FiveTuple::new(
            0x0a000007,
            u32::from_be_bytes([203, 0, 113, 1]),
            5,
            80,
            Protocol::Udp,
        );
        for _ in 0..4 {
            c.enclaves()[holder].in_enclave_thread(|app| app.process(&t, 1000));
        }
        let report = c.repartition(0);
        // Regression: equality-based id recovery credited these bytes to
        // the first copy (global id 0), starving the copy that actually
        // carried the traffic at re-partition time.
        assert_eq!(report.bytes_per_rule, vec![0, 4000]);
        // Both copies stay installed after the re-partition.
        assert_eq!(
            c.slices.iter().flatten().count(),
            report.installations,
            "slice mapping tracks the new allocation"
        );
        let installed: std::collections::HashSet<RuleId> =
            c.slices.iter().flatten().copied().collect();
        assert!(installed.contains(&0) && installed.contains(&1));
    }

    #[test]
    fn unmatched_traffic_default_allowed() {
        let c = pool(10, 50.0, LoadBalancerBehavior::Honest);
        // Even an honest balancer must put unmatched flows somewhere; each
        // verdict there counts as misrouted, repeated flows included.
        for _ in 0..2 {
            for f in 0..20u8 {
                let benign = FiveTuple::new(
                    u32::from_be_bytes([9, 9, 9, f]),
                    u32::from_be_bytes([203, 0, 113, 1]),
                    1,
                    80,
                    Protocol::Tcp,
                );
                let (action, enclave) = c.process(&benign, 64);
                assert_eq!(action, RuleAction::Allow);
                assert!(enclave.is_some());
            }
        }
        assert_eq!(c.misrouted_total(), 40);
    }

    #[test]
    fn deployment_plan_matches_paper_example() {
        let plan = DeploymentPlan::for_capacity_gbps(500.0);
        assert_eq!(plan.servers, 50);
        assert_eq!(plan.capex_usd, 100_000);
        assert!(plan.racks <= 2, "paper: one or two server racks");
        // Mitigating the record 1.7 Tb/s attack across a few IXPs:
        let record = DeploymentPlan::for_capacity_gbps(1700.0 / 4.0);
        assert!(record.servers <= 50);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn deployment_plan_rejects_zero() {
        DeploymentPlan::for_capacity_gbps(0.0);
    }

    #[test]
    fn subset_preserves_semantics() {
        let mut rs = RuleSet::new();
        let a = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let _b = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "11.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let sub = subset(&rs, &[a]);
        assert_eq!(sub.len(), 1);
        let t10 = tuple([10, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        let t11 = tuple([11, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert!(sub.classify(&t10).is_some());
        assert!(sub.classify(&t11).is_none());
    }

    #[test]
    fn subset_skips_withdrawn_rules() {
        let mut rs = RuleSet::new();
        let a = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        let b = rs.insert(FilterRule::drop(FlowPattern::prefixes(
            "11.0.0.0/8".parse().unwrap(),
            victim(),
        )));
        rs.remove(a);
        let sub = subset(&rs, &[a, b]);
        assert_eq!(sub.active_len(), 1);
        let t10 = tuple([10, 0, 0, 1], [203, 0, 113, 1], 1, 2, Protocol::Udp);
        assert!(sub.classify(&t10).is_none(), "tombstone must not resurrect");
    }
}
