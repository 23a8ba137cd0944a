//! End-to-end filtering runs with optional adversarial behavior.
//!
//! Wires together the whole §III data path for tests, examples, and the
//! benchmark harness: neighbor ASes hand packets to the filtering network,
//! the (possibly malicious) host delivers them to the enclave filter, and
//! forwards the allowed output toward the victim — while every party keeps
//! its sketch. One call produces the enclave's authenticated logs and both
//! verifiers' audit reports.

use crate::cost::FilterMode;
use crate::enclave_app::{EnclaveFilterStage, FilterEnclaveApp};
use crate::logs::LogDirection;
use crate::rounds::{ClusterRoundDriver, ClusterRoundOutcome, ContractState, RoundPolicy};
use crate::rules::RuleAction;
use crate::verify::{AuditError, AuditReport, BypassVerdict, NeighborVerifier, VictimVerifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vif_dataplane::{
    shard_of, shard_of_fingerprint, DataplaneService, FiveTuple, Packet, ServiceConfig,
    ServiceHandle, ShardedReport,
};
use vif_sgx::Enclave;
use vif_sketch::hash::fingerprint;

/// What the malicious filtering network does around the enclave (§III-B's
/// three bypass attacks).
#[derive(Debug, Clone, Default)]
pub struct AdversaryBehavior {
    /// Fraction of packets dropped *before* they reach the filter.
    pub drop_before_fraction: f64,
    /// Fraction of filter-allowed packets dropped *after* the filter.
    pub drop_after_fraction: f64,
    /// Packets injected into the victim-bound stream after the filter,
    /// bypassing the filter entirely: `(flow, count)`.
    pub injected_after: Vec<(FiveTuple, u64)>,
}

impl AdversaryBehavior {
    /// An honest filtering network.
    pub fn honest() -> Self {
        AdversaryBehavior::default()
    }

    /// True if no adversarial behavior is configured.
    pub fn is_honest(&self) -> bool {
        self.drop_before_fraction == 0.0
            && self.drop_after_fraction == 0.0
            && self.injected_after.is_empty()
    }
}

/// Counters from a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Packets the neighbors handed to the filtering network.
    pub offered: u64,
    /// Packets the adversary dropped before the filter.
    pub dropped_before: u64,
    /// Packets the filter dropped by rule.
    pub filtered: u64,
    /// Filter-allowed packets the adversary dropped after the filter.
    pub dropped_after: u64,
    /// Packets injected after the filter.
    pub injected: u64,
    /// Packets the victim finally received.
    pub received_by_victim: u64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunReport {
    /// Flow counters.
    pub counters: RunCounters,
    /// The victim's audit of the outgoing log.
    pub victim_audit: AuditReport,
    /// The neighbor's audit of the incoming log.
    pub neighbor_audit: AuditReport,
}

impl RunReport {
    /// True if any verifier detected a bypass.
    pub fn bypass_detected(&self) -> bool {
        self.victim_audit.bypass_detected() || self.neighbor_audit.bypass_detected()
    }

    /// Combined verdict summary: (victim, neighbor).
    pub fn verdicts(&self) -> (BypassVerdict, BypassVerdict) {
        (self.victim_audit.verdict, self.neighbor_audit.verdict)
    }
}

/// A single-enclave end-to-end run harness.
pub struct FilteringRun {
    enclave: Arc<Enclave<FilterEnclaveApp>>,
    victim_verifier: VictimVerifier,
    neighbor_verifier: NeighborVerifier,
    adversary: AdversaryBehavior,
    rng: StdRng,
}

impl FilteringRun {
    /// Creates a run over an enclave with session-bound verifiers.
    pub fn new(
        enclave: Arc<Enclave<FilterEnclaveApp>>,
        victim_verifier: VictimVerifier,
        neighbor_verifier: NeighborVerifier,
        adversary: AdversaryBehavior,
        seed: u64,
    ) -> Self {
        FilteringRun {
            enclave,
            victim_verifier,
            neighbor_verifier,
            adversary,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Pushes traffic through the (possibly adversarial) data path and
    /// audits the round.
    pub fn execute(mut self, traffic: &[Packet]) -> RunReport {
        let mut counters = RunCounters::default();

        for pkt in traffic {
            counters.offered += 1;
            // Neighbor AS observes what it hands over.
            self.neighbor_verifier.observe(&pkt.tuple);

            // Attack 3: drop before filtering.
            if self.rng.gen_bool(self.adversary.drop_before_fraction) {
                counters.dropped_before += 1;
                continue;
            }

            let action = self
                .enclave
                .in_enclave_thread(|app| app.process(&pkt.tuple, pkt.wire_size as u64).action);

            match action {
                RuleAction::Drop => counters.filtered += 1,
                RuleAction::Allow => {
                    // Attack 2: drop after filtering.
                    if self.rng.gen_bool(self.adversary.drop_after_fraction) {
                        counters.dropped_after += 1;
                        continue;
                    }
                    counters.received_by_victim += 1;
                    self.victim_verifier.observe(&pkt.tuple);
                }
            }
        }

        // Attack 1: injection after filtering.
        for (tuple, count) in &self.adversary.injected_after {
            for _ in 0..*count {
                counters.injected += 1;
                counters.received_by_victim += 1;
                self.victim_verifier.observe(tuple);
            }
        }

        let outgoing = self
            .enclave
            .ecall(|app| app.export_log_for(0, LogDirection::Outgoing));
        let incoming = self
            .enclave
            .ecall(|app| app.export_log_for(0, LogDirection::Incoming));

        let victim_audit = self
            .victim_verifier
            .audit(&outgoing)
            .expect("authentic export");
        let neighbor_audit = self
            .neighbor_verifier
            .audit(&incoming)
            .expect("authentic export");

        RunReport {
            counters,
            victim_audit,
            neighbor_audit,
        }
    }
}

/// What the malicious filtering network does around a *sharded* cluster.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardAdversary {
    /// Drop every filter-allowed packet of this worker after the filter
    /// (the per-slice variant of §III-B's attack 2).
    pub drop_after_worker: Option<usize>,
    /// Steer this fraction of flows to the wrong worker (a compromised or
    /// misprogrammed RSS stage).
    pub misroute_fraction: f64,
}

impl ShardAdversary {
    /// An honest sharded deployment.
    pub fn honest() -> Self {
        ShardAdversary::default()
    }
}

/// Everything a sharded audited run produces.
#[derive(Debug)]
pub struct ShardedRunReport {
    /// Per-worker data-plane counters.
    pub dataplane: ShardedReport,
    /// The cluster-wide round audit (per-slice verdicts), or the audit
    /// error that aborted the contract.
    pub audit: Result<ClusterRoundOutcome, AuditError>,
    /// Contract state after the round.
    pub state: ContractState,
}

impl ShardedRunReport {
    /// True if any slice was flagged (or the audit itself failed).
    pub fn bypass_detected(&self) -> bool {
        self.audit.as_ref().map_or(true, |o| o.dirty())
    }
}

/// An end-to-end audited run over the **live** sharded pipeline.
///
/// The §IV architecture on real threads, wired to the control plane: the
/// RX thread RSS-shards flows across one [`EnclaveFilterStage`] per
/// enclave slice ([`vif_dataplane::DataplaneService`]), forwarded packets drain
/// through the shared TX path into per-slice victim verifiers, and a
/// [`ClusterRoundDriver`] closes the round by auditing every slice's
/// authenticated logs. Neighbor and victim verifiers both attribute
/// packets to slices with the public [`shard_of`] hash, so a worker whose
/// output is stolen — or a steering stage that misroutes flows — surfaces
/// as that slice's dirty verdict.
pub struct ShardedRun {
    enclaves: Vec<Arc<Enclave<FilterEnclaveApp>>>,
    sketch_seed: u64,
    audit_key: [u8; 32],
    policy: RoundPolicy,
    mode: FilterMode,
    adversary: ShardAdversary,
    ring_capacity: usize,
    burst: usize,
    tolerance: u64,
}

impl ShardedRun {
    /// Creates a run over the cluster's enclaves with session-bound
    /// per-slice verifiers.
    ///
    /// # Panics
    ///
    /// Panics if `enclaves` is empty.
    pub fn new(
        enclaves: Vec<Arc<Enclave<FilterEnclaveApp>>>,
        sketch_seed: u64,
        audit_key: [u8; 32],
        mode: FilterMode,
        adversary: ShardAdversary,
        policy: RoundPolicy,
    ) -> Self {
        assert!(!enclaves.is_empty(), "cluster must have enclaves");
        ShardedRun {
            enclaves,
            sketch_seed,
            audit_key,
            policy,
            mode,
            adversary,
            ring_capacity: 16_384,
            burst: 32,
            tolerance: 0,
        }
    }

    /// Overrides the per-worker ring capacity and burst size.
    ///
    /// With small rings, pair this with
    /// [`with_tolerance`](ShardedRun::with_tolerance): RX-ring overflow
    /// drops packets the neighbor verifiers already observed, which at
    /// tolerance 0 audits as drop-before-filter.
    pub fn with_rings(mut self, ring_capacity: usize, burst: usize) -> Self {
        self.ring_capacity = ring_capacity;
        self.burst = burst;
        self
    }

    /// Sets the verifiers' per-bin tolerance (absorbs benign loss such as
    /// bounded RX-ring overflow; default 0).
    pub fn with_tolerance(mut self, tolerance: u64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// Starts the always-on service form of this run and hands `body` a
    /// [`ShardedSession`] to drive: the worker threads, rings, stages, and
    /// the cluster-wide [`ClusterRoundDriver`] persist across every
    /// [`round`](ShardedSession::round) the body executes, so rounds and
    /// audits are messages to a running dataplane rather than fresh
    /// harness invocations. Rule churn published into the enclaves between
    /// rounds (`EnclaveCluster::publish_contract`) takes effect mid-service without
    /// the workers ever stopping.
    ///
    /// [`execute`](ShardedRun::execute) is the one-round special case.
    pub fn serve<T>(self, body: impl FnOnce(&mut ShardedSession<'_, '_, '_>) -> T) -> T {
        let n = self.enclaves.len();
        let driver = ClusterRoundDriver::new(
            self.enclaves.clone(),
            self.sketch_seed,
            self.audit_key,
            self.tolerance,
            self.policy,
        );

        let stages: Vec<EnclaveFilterStage> = self
            .enclaves
            .iter()
            .map(|e| EnclaveFilterStage::new(Arc::clone(e), self.mode))
            .collect();

        // The (possibly misrouting) steering stage. The honest path is the
        // shared public hash — any drift between steering and the
        // verifiers' attribution must come from the adversary alone.
        let misroute = self.adversary.misroute_fraction;
        let steer: SessionSteer = Box::new(move |t: &FiveTuple| {
            let honest = shard_of(t, n);
            if misroute > 0.0 {
                // Decide deterministically from a different slice of the
                // hash than shard_of uses (adversarial path only — the
                // honest path pays a single hash).
                let fp = fingerprint(&t.encode());
                if ((fp >> 17) % 1000) as f64 / 1000.0 < misroute {
                    // Deterministically wrong: rotate to the next worker.
                    return (honest + 1) % n;
                }
            }
            honest
        });

        // Forwarded packets are collected on the TX thread; the session
        // drains this buffer at each round barrier (the victim is
        // off-path). `drop_after` is read per delivery so the session can
        // re-aim attack 2 between rounds; `NO_DROP_WORKER` means honest.
        let forwarded: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
        let drop_after = AtomicUsize::new(
            self.adversary
                .drop_after_worker
                .unwrap_or(ShardedSession::NO_DROP_WORKER),
        );

        let config = ServiceConfig {
            ring_capacity: self.ring_capacity,
            burst: self.burst,
            ..Default::default()
        };
        DataplaneService::new(config).run(
            stages,
            |worker, pkt| {
                // Attack 2, per slice: the network steals this worker's
                // post-filter output before the victim sees it.
                if drop_after.load(Ordering::Relaxed) != worker {
                    forwarded.lock().unwrap().push(pkt.tuple);
                }
            },
            steer,
            |handle| {
                let mut session = ShardedSession {
                    handle,
                    driver,
                    forwarded: &forwarded,
                    drop_after: &drop_after,
                    n,
                    last_forwarded: Vec::new(),
                };
                body(&mut session)
            },
        )
    }

    /// Pushes `traffic` through the live sharded data path and closes the
    /// audited round — a one-round [`serve`](ShardedRun::serve).
    pub fn execute(self, traffic: Vec<Packet>) -> ShardedRunReport {
        self.serve(|session| session.round(&traffic))
    }
}

/// Type-erased steering function of a [`ShardedSession`] (boxed so the
/// session type stays nameable by callers of [`ShardedRun::serve`]).
pub type SessionSteer = Box<dyn FnMut(&FiveTuple) -> usize>;

/// A running, audited sharded service: the multi-round control channel
/// [`ShardedRun::serve`] hands its body.
///
/// Each [`round`](ShardedSession::round) is a message exchange with the
/// persistent dataplane — neighbor verifiers observe the offered traffic,
/// the packets flow through the live workers, the round barrier flushes,
/// victim verifiers observe what actually arrived, and the cluster driver
/// audits every slice. Between rounds the caller may churn rules
/// (`EnclaveCluster::publish_contract`) or re-aim the adversary; the workers never
/// stop.
pub struct ShardedSession<'h, 'scope, 'env> {
    handle: &'h mut ServiceHandle<'scope, 'env, SessionSteer>,
    driver: ClusterRoundDriver,
    forwarded: &'h Mutex<Vec<FiveTuple>>,
    drop_after: &'h AtomicUsize,
    n: usize,
    /// The previous round's forwarded tuples, drained at the barrier.
    last_forwarded: Vec<FiveTuple>,
}

impl ShardedSession<'_, '_, '_> {
    /// Sentinel for "no worker's output is stolen".
    const NO_DROP_WORKER: usize = usize::MAX;

    /// Number of filter workers (= enclave slices).
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Rounds flushed so far.
    pub fn rounds(&self) -> u64 {
        self.handle.rounds()
    }

    /// Re-aims (or clears) the per-slice output-stealing adversary for
    /// subsequent rounds. Safe between rounds: the previous round's
    /// barrier guarantees no forwarded packet is still in flight.
    pub fn set_drop_after_worker(&mut self, worker: Option<usize>) {
        self.drop_after
            .store(worker.unwrap_or(Self::NO_DROP_WORKER), Ordering::Relaxed);
    }

    /// The forwarded five tuples of the most recent round, in TX delivery
    /// order — what the victim actually received (post-adversary). Control
    /// loops consume these for scoring and heavy-hitter estimation.
    pub fn forwarded(&self) -> &[FiveTuple] {
        &self.last_forwarded
    }

    /// Runs one audited round over the live service: observe → offer →
    /// barrier → observe → audit.
    pub fn round(&mut self, traffic: &[Packet]) -> ShardedRunReport {
        let n = self.n;
        // Neighbor ASes observe what they hand over, attributed to the
        // slice the public steering *should* deliver it to — fingerprint
        // once per packet, shared between attribution and the local sketch.
        for pkt in traffic {
            let fp = crate::logs::PacketFingerprints::of(&pkt.tuple);
            self.driver
                .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, n))
                .observe_fingerprint(fp.src_ip);
        }

        let dataplane = self.handle.round(traffic).clone();

        // The round barrier has passed: the sink saw every forwarded
        // packet of this round. Drain them and let the victim attribute
        // each by the same public hash — one tuple fingerprint per packet
        // feeds both the slice attribution and the local sketch.
        self.last_forwarded.clear();
        self.last_forwarded
            .append(&mut self.forwarded.lock().unwrap());
        for t in &self.last_forwarded {
            let fp = t.tuple_fingerprint();
            self.driver
                .victim_verifier_mut(shard_of_fingerprint(fp, n))
                .observe_fingerprint(fp);
        }

        let audit = self.driver.close_round();
        ShardedRunReport {
            dataplane,
            audit,
            state: self.driver.state(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FilterRule, FlowPattern};
    use crate::ruleset::RuleSet;
    use vif_dataplane::{FlowSet, Protocol, TrafficConfig, TrafficGenerator};

    const SEED: u64 = 5;
    const KEY: [u8; 32] = [6u8; 32];

    fn enclave_with_rules() -> Arc<Enclave<FilterEnclaveApp>> {
        use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};
        let root = AttestationRootKey::new([2u8; 32]);
        let platform = SgxPlatform::new(3, EpcConfig::paper_default(), &root);
        let rules = RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        ))]);
        let app = FilterEnclaveApp::new(rules, [1u8; 32], SEED, KEY);
        Arc::new(platform.launch(EnclaveImage::new("vif", 1, vec![0; 64]), app))
    }

    fn run(adversary: AdversaryBehavior) -> RunReport {
        let enclave = enclave_with_rules();
        let victim = VictimVerifier::new(SEED, KEY, 0);
        let neighbor = NeighborVerifier::new(SEED, KEY, 0);
        // Mixed traffic: attack sources in 10/8, benign elsewhere.
        let attack = FlowSet::random_toward_victim(40, u32::from_be_bytes([203, 0, 113, 1]), 1);
        let mut tuples: Vec<FiveTuple> = attack.flows().to_vec();
        for t in tuples.iter_mut().take(20) {
            t.src_ip = 0x0a000000 | (t.src_ip & 0x00ffffff);
        }
        for t in tuples.iter_mut().skip(20) {
            t.src_ip = 0x0b000000 | (t.src_ip & 0x00ffffff);
        }
        let flows = FlowSet::uniform(tuples);
        let traffic = TrafficGenerator::new(2).generate(
            &flows,
            TrafficConfig {
                packet_size: 128,
                offered_gbps: 1.0,
                count: 2000,
            },
        );
        FilteringRun::new(enclave, victim, neighbor, adversary, 9).execute(&traffic)
    }

    #[test]
    fn honest_run_clean() {
        let report = run(AdversaryBehavior::honest());
        assert!(!report.bypass_detected(), "{:?}", report.verdicts());
        assert_eq!(report.counters.offered, 2000);
        assert!(report.counters.filtered > 0, "attack traffic filtered");
        assert_eq!(
            report.counters.received_by_victim + report.counters.filtered,
            2000
        );
    }

    #[test]
    fn drop_after_filter_caught_by_victim_only() {
        let report = run(AdversaryBehavior {
            drop_after_fraction: 0.2,
            ..Default::default()
        });
        assert_eq!(report.victim_audit.verdict, BypassVerdict::DropDetected);
        assert_eq!(report.neighbor_audit.verdict, BypassVerdict::Clean);
    }

    #[test]
    fn injection_after_filter_caught_by_victim() {
        let spoofed = FiveTuple::new(
            0x0a010101,
            u32::from_be_bytes([203, 0, 113, 1]),
            666,
            80,
            Protocol::Udp,
        );
        let report = run(AdversaryBehavior {
            injected_after: vec![(spoofed, 100)],
            ..Default::default()
        });
        assert_eq!(
            report.victim_audit.verdict,
            BypassVerdict::InjectionDetected
        );
        assert_eq!(report.counters.injected, 100);
    }

    #[test]
    fn drop_before_filter_caught_by_neighbor_only() {
        let report = run(AdversaryBehavior {
            drop_before_fraction: 0.3,
            ..Default::default()
        });
        assert_eq!(report.neighbor_audit.verdict, BypassVerdict::DropDetected);
        // The victim sees a consistent outgoing log (the filter never saw
        // the stolen packets), so its audit stays clean.
        assert_eq!(report.victim_audit.verdict, BypassVerdict::Clean);
        assert!(report.counters.dropped_before > 0);
    }

    #[test]
    fn combined_attacks_all_caught() {
        let spoofed = FiveTuple::new(
            0x0a0a0a0a,
            u32::from_be_bytes([203, 0, 113, 1]),
            1,
            2,
            Protocol::Udp,
        );
        let report = run(AdversaryBehavior {
            drop_before_fraction: 0.1,
            drop_after_fraction: 0.1,
            injected_after: vec![(spoofed, 50)],
        });
        assert!(report.victim_audit.bypass_detected());
        assert!(report.neighbor_audit.bypass_detected());
    }

    #[test]
    fn counters_add_up() {
        let report = run(AdversaryBehavior {
            drop_before_fraction: 0.25,
            drop_after_fraction: 0.25,
            ..Default::default()
        });
        let c = report.counters;
        assert_eq!(
            c.offered,
            c.dropped_before + c.filtered + c.dropped_after + (c.received_by_victim - c.injected)
        );
    }

    // ---- live sharded path + cluster-wide audit -------------------------

    use crate::cost::FilterMode;
    use crate::rounds::{ContractState, RoundPolicy};
    use crate::scale::EnclaveCluster;
    use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};

    fn sharded_run(n: usize, adversary: ShardAdversary) -> ShardedRunReport {
        let root = AttestationRootKey::new([4u8; 32]);
        let platform = SgxPlatform::new(7, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif", 1, vec![0; 64]);
        let rules = RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        ))]);
        let cluster = EnclaveCluster::launch_rss(platform, image, rules, n, [1u8; 32], SEED, KEY);
        // Mixed traffic: attack sources in 10/8, benign elsewhere.
        let attack = FlowSet::random_toward_victim(64, u32::from_be_bytes([203, 0, 113, 1]), 21);
        let mut tuples: Vec<FiveTuple> = attack.flows().to_vec();
        for t in tuples.iter_mut().take(32) {
            t.src_ip = 0x0a000000 | (t.src_ip & 0x00ffffff);
        }
        for t in tuples.iter_mut().skip(32) {
            t.src_ip = 0x0b000000 | (t.src_ip & 0x00ffffff);
        }
        let traffic = TrafficGenerator::new(6).generate(
            &FlowSet::uniform(tuples),
            TrafficConfig {
                packet_size: 128,
                offered_gbps: 1.0,
                count: 4000,
            },
        );
        ShardedRun::new(
            cluster.enclaves().to_vec(),
            SEED,
            KEY,
            FilterMode::SgxNearZeroCopy,
            adversary,
            RoundPolicy::default(),
        )
        .execute(traffic)
    }

    #[test]
    fn honest_sharded_cluster_audits_clean() {
        let report = sharded_run(4, ShardAdversary::honest());
        assert!(!report.bypass_detected(), "{:?}", report.audit);
        assert_eq!(report.state, ContractState::Active);
        let outcome = report.audit.unwrap();
        assert_eq!(outcome.slices.len(), 4);
        let total = report.dataplane.total();
        assert_eq!(total.received, 4000);
        assert_eq!(total.overflow, 0);
        assert!(total.filtered > 0, "attack traffic filtered");
        assert_eq!(total.forwarded + total.filtered, total.received);
        // Work actually sharded: every worker saw traffic.
        for (w, r) in report.dataplane.per_worker.iter().enumerate() {
            assert!(r.received > 0, "worker {w} idle");
        }
    }

    #[test]
    fn stolen_slice_output_flags_exactly_that_slice() {
        let report = sharded_run(
            4,
            ShardAdversary {
                drop_after_worker: Some(1),
                ..Default::default()
            },
        );
        let outcome = report.audit.unwrap();
        assert_eq!(outcome.dirty_slices(), vec![1]);
        assert_eq!(
            outcome.slices[1].victim_verdict,
            BypassVerdict::DropDetected
        );
        assert_eq!(report.state, ContractState::Aborted { strikes: 1 });
    }

    #[test]
    fn misrouting_steering_dirties_the_audit() {
        let report = sharded_run(
            4,
            ShardAdversary {
                misroute_fraction: 0.3,
                ..Default::default()
            },
        );
        assert!(report.bypass_detected());
        assert_eq!(report.state, ContractState::Aborted { strikes: 1 });
        // No packet was lost in the data plane itself: misrouting is a
        // *steering* integrity failure, caught purely by the audit.
        let total = report.dataplane.total();
        assert_eq!(total.forwarded + total.filtered, total.received);
    }
}
