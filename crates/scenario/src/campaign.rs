//! The scenario round loop: tenant contracts on one live cluster.
//!
//! A [`CampaignHarness`] runs victims' scenarios against a single
//! always-on service — the paper's deployment shape, a transit ISP/IXP
//! selling verifiable filtering to many customers at once. One victim is
//! the n = 1 case: [`CampaignHarness::single`] runs a lone scenario as the
//! cluster's default contract 0 through exactly the same loop.
//!
//! 1. **Admission**: each declared contract's projected per-rule demand
//!    goes through [`vif_optimizer::arbitrate`]; contracts that do not fit
//!    the shared enclave pool (rule slots, EPC memory, bandwidth) are
//!    rejected up front with a per-resource reason and never get a
//!    session.
//! 2. **Attestation**: a master enclave is launched and an RSS-replicated
//!    [`EnclaveCluster`] built around it; each admitted contract runs the
//!    full §VI-B handshake under its own [`ContractId`]
//!    ([`VictimClient::establish_contract`]), landing its channel, audit
//!    key, and sketch pair in its own enclave slot on every slice
//!    ([`EnclaveCluster::provision_contract`]).
//! 3. **Execution**: the always-on [`DataplaneService`] is started once
//!    and every virtual round is a message exchange with it: all active
//!    scenarios' packet schedules are merged into one offer and split
//!    back by destination prefix on delivery. Each contract then audits
//!    its round with its own [`ClusterRoundDriver`], reacts through its
//!    own [`VictimPolicy`], and publishes its own epoch
//!    ([`EnclaveCluster::publish_contract`]) — one tenant's churn,
//!    rotation, and strikes never touch another tenant's slot. Faults,
//!    quarantine, and slice rejoin are infrastructure-wide: the service,
//!    the cluster and every tenant's driver share the cluster's one
//!    [`SliceLifecycle`] table, so there
//!    is nothing to mirror — the loop only reacts to its transitions.
//! 4. **Scoring**: every contract ends with its own [`ScenarioReport`]
//!    (goodput, leakage, collateral, churn), collected in a
//!    [`CampaignReport`] together with the admission verdicts. Reports are
//!    deterministic in the scenario seeds and harness configuration (see
//!    the crate docs for the argument).

use crate::harness::{ScenarioAdversary, ScenarioHarnessConfig};
use crate::policy::{HeavyHitter, InstalledRule, PolicyAction, PolicyObservation, VictimPolicy};
use crate::report::{PhaseReport, ScenarioReport};
use crate::timeline::{RoundTraffic, Scenario};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use vif_core::cost::FilterMode;
use vif_core::enclave_app::{ContractId, EnclaveFilterStage, FilterEnclaveApp};
use vif_core::logs::{LogDirection, PacketFingerprints};
use vif_core::rounds::{
    ClusterRoundDriver, ContractState, ExportFailurePolicy, ExportFault, RoundPolicy,
};
use vif_core::rpki::RpkiRegistry;
use vif_core::rules::FilterRule;
use vif_core::ruleset::RuleId;
use vif_core::scale::EnclaveCluster;
use vif_core::session::{FilteringSession, SessionConfig, VictimClient};
use vif_dataplane::{
    shard_of, shard_of_fingerprint, ContractMap, DataplaneService, DegradedMode, FaultKind,
    FaultPlan, FiveTuple, Packet, ServiceConfig, SliceLifecycle, SliceState,
};
use vif_optimizer::{arbitrate, AdmissionVerdict, ArbiterConfig, ContractDemand};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};
use vif_sketch::{CountMinSketch, SketchConfig};
use vif_telemetry::{fault, EventKind, TelemetryHub};
use vif_trie::Ipv4Prefix;

/// Sentinel for "no worker's output is stolen" in the adversary atomic.
const NO_DROP_WORKER: usize = usize::MAX;

/// Per-worker RX ring capacity of the campaign's service. It exceeds the
/// largest round's packet count, so runs are loss-free (ring overflow
/// would audit as drop-before at tolerance 0).
const RING_CAPACITY: usize = 1 << 15;

/// One tenant's entry in a campaign: who it is, what traffic it will see,
/// and what filtering capacity it asks the arbiter for.
#[derive(Debug, Clone)]
pub struct CampaignContract {
    /// The tenant's contract id. Must be nonzero (0 is the cluster's
    /// unscoped default slot, reserved for [`CampaignHarness::single`])
    /// and unique within the campaign.
    pub contract: ContractId,
    /// The tenant's scripted workload; its `victim` prefix doubles as the
    /// contract's traffic scope (destination-prefix attribution), so
    /// campaign scenarios must use disjoint victim prefixes.
    pub scenario: Scenario,
    /// Projected per-rule demand, Gb/s — what the tenant asks the
    /// admission arbiter to reserve against the shared enclave pool.
    pub demand_gbps_per_rule: Vec<f64>,
}

/// Campaign knobs: the per-victim harness settings plus the shared
/// resource pool the arbiter admits against.
#[derive(Debug, Clone, Copy, Default)]
pub struct CampaignConfig {
    /// Dataplane/audit knobs shared by every contract.
    pub harness: ScenarioHarnessConfig,
    /// The arbiter's enclave pool and solver budget.
    pub arbiter: ArbiterConfig,
}

/// A contract the arbiter turned away at admission.
#[derive(Debug, Clone)]
pub struct RejectedContract {
    /// The contract id.
    pub contract: ContractId,
    /// The per-resource reason, rendered from
    /// [`vif_optimizer::arbiter::RejectReason`].
    pub reason: String,
}

/// Everything a campaign run produces: one [`ScenarioReport`] per
/// admitted contract, plus who was rejected and why.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-contract scenario reports, in declaration order of the
    /// admitted contracts.
    pub reports: Vec<ScenarioReport>,
    /// Contracts rejected at admission (never attested, never ran).
    pub rejected: Vec<RejectedContract>,
    /// Contracts whose budget no longer fit when admission was re-run
    /// over the surviving slices after a mid-run quarantine
    /// ([`EnclaveCluster::rearbitrate`]). They keep running degraded —
    /// shedding is an operator decision — but the report names them.
    /// A contract that fit again after a slice rejoined moves to
    /// [`readmitted`](CampaignReport::readmitted).
    pub failover_rejected: Vec<RejectedContract>,
    /// Contracts that were failover-rejected during an outage but fit
    /// again when admission was re-run over the restored pool after a
    /// slice completed its rejoin (re-admission order).
    pub readmitted: Vec<ContractId>,
}

impl CampaignReport {
    /// The report for one contract, if it was admitted.
    pub fn report(&self, contract: ContractId) -> Option<&ScenarioReport> {
        self.reports.iter().find(|r| r.contract == contract)
    }
}

/// Per-contract live state inside the campaign round loop.
struct Tenant {
    contract: ContractId,
    /// Destination prefix attributing traffic to this contract; `None`
    /// for the lone default contract, which owns everything.
    scope: Option<Ipv4Prefix>,
    scenario: Scenario,
    rounds: Vec<RoundTraffic>,
    session: FilteringSession,
    /// Kept past admission: every slice rejoin re-attests a *fresh*
    /// session per tenant against the relaunched enclave.
    client: VictimClient,
    driver: ClusterRoundDriver,
    rpki: RpkiRegistry,
    hh_sketch: CountMinSketch,
    installed: Vec<InstalledRule>,
    prev_rule_bytes: BTreeMap<RuleId, u64>,
    phases: Vec<PhaseReport>,
    dirty_rounds: u32,
    detection_latency: Option<u64>,
    rounds_run: u64,
    total_installed: u32,
    total_withdrawn: u32,
    /// Buffered forwarded tuples for the current round (split by dst).
    received: Vec<FiveTuple>,
    /// First round any of this contract's traffic went uncovered.
    outage_start: Option<u64>,
    /// First post-outage round with zero uncovered traffic.
    recovered_at: Option<u64>,
}

/// Drives victims' scenarios concurrently over one live cluster, with
/// optimizer-arbitrated admission and an adaptive [`VictimPolicy`] per
/// contract in the loop.
pub struct CampaignHarness {
    /// Each declared contract with its traffic scope: the destination
    /// prefix it owns, or `None` for the lone contract that owns it all.
    contracts: Vec<(CampaignContract, Option<Ipv4Prefix>)>,
    config: CampaignConfig,
    faults: FaultPlan,
    degraded: Vec<(ContractId, DegradedMode)>,
    stale_rejoin: Option<usize>,
    telemetry: Option<Arc<TelemetryHub>>,
}

impl CampaignHarness {
    /// Creates a campaign harness.
    ///
    /// # Panics
    ///
    /// Panics on an empty campaign, a contract id of 0, duplicate
    /// contract ids, or a degenerate harness configuration.
    pub fn new(contracts: Vec<CampaignContract>, config: CampaignConfig) -> Self {
        assert!(!contracts.is_empty(), "campaign needs contracts");
        let mut seen = BTreeSet::new();
        for c in &contracts {
            assert!(c.contract != 0, "contract 0 is the default slot");
            assert!(seen.insert(c.contract), "duplicate contract id");
        }
        let scoped = contracts
            .into_iter()
            .map(|c| {
                let scope = Some(c.scenario.victim);
                (c, scope)
            })
            .collect();
        Self::over(scoped, config)
    }

    /// A single-victim run: `scenario` as the cluster's default contract
    /// 0 — unscoped (every packet is its traffic), no per-tenant routing,
    /// nothing asked of the arbiter — through the same round loop, so the
    /// enclaves keep their one-contract batched logging path. The run's
    /// only report is `reports[0]`.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate harness configuration.
    pub fn single(scenario: Scenario, config: ScenarioHarnessConfig) -> Self {
        let lone = CampaignContract {
            contract: 0,
            scenario,
            demand_gbps_per_rule: Vec::new(),
        };
        Self::over(
            vec![(lone, None)],
            CampaignConfig {
                harness: config,
                arbiter: ArbiterConfig::default(),
            },
        )
    }

    fn over(
        contracts: Vec<(CampaignContract, Option<Ipv4Prefix>)>,
        config: CampaignConfig,
    ) -> Self {
        assert!(config.harness.workers > 0, "at least one worker");
        CampaignHarness {
            contracts,
            config,
            faults: FaultPlan::new(),
            degraded: Vec::new(),
            stale_rejoin: None,
            telemetry: None,
        }
    }

    /// Attaches a telemetry hub to the whole campaign: admission verdicts
    /// land in the flight recorder as [`EventKind::ContractAdmit`] /
    /// [`EventKind::ContractReject`] events, every tenant's round driver
    /// records its audit events, the shared cluster records epoch
    /// publications and rejoins, the service records per-worker metrics
    /// and fault/quarantine events, and the round loop drives the hub's
    /// virtual clock (`global_round × round_ns`) and records seeded
    /// publish-ack-loss and recover-intent injections. Everything recorded
    /// is seed-deterministic: two runs of the same contracts + faults + hub
    /// shape produce byte-identical snapshots and traces. Build the hub
    /// with the run's contract ids ([`TelemetryHub::new`]; `&[0]` for a
    /// [`single`](CampaignHarness::single) run) so per-contract counters
    /// are labeled.
    pub fn with_telemetry(mut self, hub: Arc<TelemetryHub>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Attaches a seeded fault schedule shared by the whole campaign
    /// (faults hit infrastructure, not tenants): each event fires at the
    /// start of its global round, translated into the matching injection
    /// hook — worker crash/stall/overflow on the service, ack loss on the
    /// cluster, and export corruption/timeouts on **every** tenant's round
    /// driver (one slice's export path fails for all who audit it). A
    /// non-empty plan also switches the drivers' export-failure policy to
    /// [`ExportFailurePolicy::QuarantineSlice`] so chaos runs degrade
    /// instead of aborting.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets one contract's degraded-mode policy: what the dataplane does
    /// with the contract's traffic when its worker is dead or quarantined
    /// mid-round (fail-closed drops it, fail-open forwards it unfiltered;
    /// both count it `uncovered`). Defaults to
    /// [`DegradedMode::FailClosed`].
    pub fn with_degraded_mode(mut self, contract: ContractId, mode: DegradedMode) -> Self {
        self.degraded.push((contract, mode));
        self
    }

    /// Test/bench-only adversarial knob: every rejoin of worker `worker`
    /// comes back with an *empty* rule set (the operator "restored" a
    /// stale snapshot instead of replaying the master's state) and, like
    /// a stale replica would, drops every epoch published to it while on
    /// probation. The slice's shadow verdicts then disagree with its live
    /// re-steered peer — its outgoing log carries attack packets the
    /// victim never received — so the victim's probation audit flags the
    /// slice and it is demoted straight back to quarantine with backoff,
    /// proving the probation window actually gates re-trust.
    pub fn with_stale_rejoin(mut self, worker: usize) -> Self {
        self.stale_rejoin = Some(worker);
        self
    }

    /// Runs the campaign: arbitrate admission, attest every admitted
    /// contract, drive all scenarios round-locked over one service, and
    /// score each contract separately. `policies` pairs with the declared
    /// contracts by index (rejected contracts' policies are unused).
    ///
    /// # Panics
    ///
    /// Panics if `policies` does not pair 1:1 with the declared
    /// contracts, or on any session/audit failure.
    pub fn run(self, mut policies: Vec<Box<dyn VictimPolicy>>) -> CampaignReport {
        assert_eq!(
            policies.len(),
            self.contracts.len(),
            "one policy per declared contract"
        );
        let config = self.config;
        let faults = self.faults.clone();
        let degraded = self.degraded.clone();
        let stale_rejoin = self.stale_rejoin;
        let telemetry = self.telemetry.clone();
        let n = config.harness.workers;
        let adversary = config.harness.adversary;
        let seed = self.contracts[0].0.scenario.seed;

        // --- admission: the arbiter speaks first ------------------------
        let demands: Vec<ContractDemand> = self
            .contracts
            .iter()
            .map(|(c, _)| ContractDemand {
                contract: c.contract,
                rule_bandwidths_gbps: c.demand_gbps_per_rule.clone(),
            })
            .collect();
        let arbitration = arbitrate(&config.arbiter, &demands);
        let mut rejected = Vec::new();
        let mut admitted = Vec::new();
        for ((c, scope), policy) in self.contracts.into_iter().zip(policies.drain(..)) {
            match arbitration.verdict(c.contract) {
                Some(AdmissionVerdict::Rejected { reason }) => {
                    if let Some(hub) = &telemetry {
                        hub.record_event(EventKind::ContractReject, 0, c.contract as u64, 0);
                    }
                    rejected.push(RejectedContract {
                        contract: c.contract,
                        reason: reason.to_string(),
                    });
                }
                _ => {
                    if let Some(hub) = &telemetry {
                        hub.record_event(EventKind::ContractAdmit, 0, c.contract as u64, 0);
                    }
                    admitted.push((c, scope, policy));
                }
            }
        }
        if admitted.is_empty() {
            return CampaignReport {
                reports: Vec::new(),
                rejected,
                failover_rejected: Vec::new(),
                readmitted: Vec::new(),
            };
        }

        // --- shared platform, master enclave, replicated cluster --------
        let secret = derive32(seed, 0x11);
        let root = AttestationRootKey::new(derive32(seed, 0x12));
        let platform = SgxPlatform::new(seed ^ 0xca3a, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif-campaign", 1, vec![0x90; 1 << 16]);
        let master = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh(secret)));
        let ias = AttestationService::new(root);

        // The cluster launches with throwaway keys in its default slot 0;
        // every contract (the lone contract 0 included) keys its own slot
        // on every slice below.
        let mut cluster = EnclaveCluster::launch_rss_with(
            platform,
            image.clone(),
            Arc::clone(&master),
            vif_core::ruleset::RuleSet::new(),
            n,
            secret,
            seed ^ 0x0de0,
            derive32(seed, 0x13),
        );
        if let Some(hub) = &telemetry {
            cluster.set_telemetry(Arc::clone(hub));
        }
        // The one lifecycle table the service, drivers and loop share.
        let lifecycle = Arc::clone(cluster.lifecycle());

        // --- per-contract attested sessions + audit drivers -------------
        let mut tenants: Vec<Tenant> = Vec::with_capacity(admitted.len());
        let mut contract_map = ContractMap::new();
        let mut policies: Vec<Box<dyn VictimPolicy>> = Vec::with_capacity(admitted.len());
        for (idx, (c, scope, policy)) in admitted.into_iter().enumerate() {
            let tag = 0x20 + idx as u8;
            let owner = derive32(c.scenario.seed, tag);
            let client = VictimClient::new(
                owner,
                &derive32(c.scenario.seed, tag ^ 0x55),
                ias.verifier(),
                SessionConfig {
                    expected_measurement: image.measurement(),
                    tolerance: config.harness.tolerance,
                },
            );
            let mut rpki = RpkiRegistry::new();
            rpki.register(c.scenario.victim, owner);
            let session = client
                .establish_contract(
                    Arc::clone(&master),
                    &ias,
                    derive32(c.scenario.seed, tag ^ 0xaa),
                    c.contract,
                )
                .expect("campaign session handshake");
            let keys = session.keys().clone();
            // Land the contract's scope + keys on every slice (the
            // handshake itself only touched the master); an unscoped
            // contract is not routed either.
            cluster.provision_contract(c.contract, scope, keys.sketch_seed, keys.audit_key);
            if let Some(prefix) = scope {
                contract_map.assign(prefix.addr(), prefix.len(), c.contract);
            }
            let mut driver = ClusterRoundDriver::new(
                cluster.enclaves().to_vec(),
                keys.sketch_seed,
                keys.audit_key,
                config.harness.tolerance,
                RoundPolicy {
                    round_duration_ns: c.scenario.round_ns(),
                    max_strikes: config.harness.max_strikes,
                    export_failure: if faults.is_empty() {
                        ExportFailurePolicy::AbortContract
                    } else {
                        ExportFailurePolicy::QuarantineSlice
                    },
                    ..Default::default()
                },
            )
            .with_contract(c.contract)
            .with_lifecycle(Arc::clone(&lifecycle));
            if let Some(hub) = &telemetry {
                driver.set_telemetry(Arc::clone(hub));
            }
            // Export faults are injected on each driver's export path; the
            // hook is keyed by (slice, round, attempt), where the driver's
            // internal round counter stays aligned with the global round.
            if !faults.is_empty() {
                let plan = faults.clone();
                driver.set_export_fault(Box::new(move |slice, round, attempt| {
                    for e in plan.due(round) {
                        match e.kind {
                            FaultKind::ExportCorrupt { slice: s, attempts }
                                if s == slice && attempt < attempts =>
                            {
                                return ExportFault::Corrupt;
                            }
                            FaultKind::ExportTimeout { slice: s, attempts }
                                if s == slice && attempt < attempts =>
                            {
                                return ExportFault::Timeout;
                            }
                            _ => {}
                        }
                    }
                    ExportFault::None
                }));
            }
            let rounds = c.scenario.compile();
            let phases = c
                .scenario
                .phases
                .iter()
                .map(|p| PhaseReport {
                    name: p.name.clone(),
                    rounds: 0,
                    offered_legit: 0,
                    offered_attack: 0,
                    delivered_legit: 0,
                    delivered_attack: 0,
                    rules_installed: 0,
                    rules_withdrawn: 0,
                    dirty_rounds: 0,
                    uncovered: 0,
                })
                .collect();
            tenants.push(Tenant {
                contract: c.contract,
                scope,
                hh_sketch: CountMinSketch::new(SketchConfig::small(
                    c.scenario.seed ^ 0x6ea7 ^ c.contract as u64,
                )),
                scenario: c.scenario,
                rounds,
                session,
                client,
                driver,
                rpki,
                installed: Vec::new(),
                prev_rule_bytes: BTreeMap::new(),
                phases,
                dirty_rounds: 0,
                detection_latency: None,
                rounds_run: 0,
                total_installed: 0,
                total_withdrawn: 0,
                received: Vec::new(),
                outage_start: None,
                recovered_at: None,
            });
            policies.push(policy);
        }
        for &(contract, mode) in &degraded {
            contract_map.set_degraded_mode(contract, mode);
        }
        let total_rounds = tenants
            .iter()
            .map(|t| t.rounds.len() as u64)
            .max()
            .unwrap_or(0);
        // Virtual nanoseconds per round (campaign-wide max): the telemetry
        // clock ticks off it; seconds feed re-arbitration's demand window.
        let round_ns_max = tenants
            .iter()
            .map(|t| t.scenario.round_ns())
            .max()
            .unwrap_or(1)
            .max(1);
        let round_secs = round_ns_max as f64 / 1e9;

        // --- fault/recovery bookkeeping ---------------------------------
        let mut stall_until = vec![0u64; n];
        let mut failover_rejected: Vec<RejectedContract> = Vec::new();
        let mut readmitted: Vec<ContractId> = Vec::new();
        let ack_loss: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(vec![0u32; n]));
        if faults
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::PublishAckLoss { .. }))
        {
            let counts = Arc::clone(&ack_loss);
            cluster.set_publish_ack_loss(Box::new(move |slice, _attempt| {
                let mut counts = counts.lock().unwrap();
                if counts[slice] > 0 {
                    counts[slice] -= 1;
                    true
                } else {
                    false
                }
            }));
        }

        // --- the one always-on service every tenant shares --------------
        // Stages, rings, and worker threads are built ONCE; every round
        // below is a message exchange with this running service. The
        // adversary is re-aimed between rounds through an atomic the TX
        // sink reads per delivery (the round barrier orders the store).
        let stages: Vec<EnclaveFilterStage> = cluster
            .enclaves()
            .iter()
            .map(|e| EnclaveFilterStage::new(Arc::clone(e), FilterMode::SgxNearZeroCopy))
            .collect();
        let forwarded: Mutex<Vec<FiveTuple>> = Mutex::new(Vec::new());
        let adversary_drop = AtomicUsize::new(NO_DROP_WORKER);
        let mut service = DataplaneService::new(ServiceConfig {
            ring_capacity: RING_CAPACITY,
            ..Default::default()
        })
        .with_contracts(contract_map)
        .with_lifecycle(Arc::clone(&lifecycle));
        if let Some(hub) = &telemetry {
            service = service.with_telemetry(Arc::clone(hub));
        }

        let reports = service.run(
            stages,
            |worker, pkt| {
                if adversary_drop.load(Ordering::Relaxed) != worker {
                    forwarded.lock().unwrap().push(pkt.tuple);
                }
            },
            move |t: &FiveTuple| shard_of(t, n),
            |svc| {
                let mut merged: Vec<Packet> = Vec::new();
                for global_round in 0..total_rounds {
                    // Drive the hub's virtual clock off the campaign's
                    // (max) round length — deterministic in the seed.
                    if let Some(hub) = &telemetry {
                        hub.set_time(global_round * round_ns_max);
                    }
                    adversary_drop.store(
                        adversary
                            .filter(|a| global_round >= a.from_round)
                            .map_or(NO_DROP_WORKER, |a| a.drop_after_worker % n),
                        Ordering::Relaxed,
                    );
                    // Fire this round's scheduled infrastructure faults
                    // (crashes take effect at the coming barrier;
                    // stalls/storms shape the offer window; ack loss arms
                    // the cluster's install hook).
                    for ev in faults.due(global_round) {
                        match ev.kind {
                            FaultKind::WorkerCrash { worker } => svc.inject_crash(worker % n),
                            FaultKind::WorkerRecover { worker } => {
                                lifecycle.request_rejoin(worker % n);
                                if let Some(hub) = &telemetry {
                                    hub.record_event(
                                        EventKind::FaultInjected,
                                        (worker % n) as u32,
                                        fault::RECOVER,
                                        0,
                                    );
                                }
                            }
                            FaultKind::WorkerStall { worker, rounds } => {
                                let w = worker % n;
                                stall_until[w] = stall_until[w].max(global_round + rounds);
                            }
                            FaultKind::RingOverflowStorm { worker, packets } => {
                                svc.inject_overflow_storm(worker % n, packets);
                            }
                            FaultKind::PublishAckLoss { slice, count } => {
                                ack_loss.lock().unwrap()[slice % n] += count;
                                if let Some(hub) = &telemetry {
                                    hub.record_event(
                                        EventKind::FaultInjected,
                                        (slice % n) as u32,
                                        fault::ACK_LOSS,
                                        count as u64,
                                    );
                                }
                            }
                            // Export faults fire inside the driver hooks.
                            FaultKind::ExportCorrupt { .. } | FaultKind::ExportTimeout { .. } => {}
                        }
                    }
                    for (w, &until) in stall_until.iter().enumerate() {
                        if until > global_round && lifecycle.state(w).steered() {
                            svc.stall_worker(w, true);
                        }
                    }

                    // Start the rejoins the table says are due: relaunch
                    // the slice on a fresh enclave, re-attest a NEW session
                    // *per tenant* (pre-crash keys are never reused), replay
                    // rule and contract state from the master (which puts
                    // the slice on probation), and respawn the worker.
                    let active = |t: &Tenant| t.driver.state() == ContractState::Active;
                    let can_rejoin = lifecycle.state(0).published() && tenants.iter().any(active);
                    for w in 1..n {
                        if !can_rejoin || !lifecycle.take_due_rejoin(w) {
                            continue;
                        }
                        cluster.relaunch_slice(w);
                        let enclave = Arc::clone(&cluster.enclaves()[w]);
                        for (idx, t) in tenants.iter_mut().enumerate() {
                            if !active(t) {
                                continue;
                            }
                            let fresh = t
                                .client
                                .establish_contract(
                                    Arc::clone(&enclave),
                                    &ias,
                                    derive32(
                                        t.scenario.seed ^ global_round,
                                        0x60 ^ ((idx as u8) << 3) ^ w as u8,
                                    ),
                                    t.contract,
                                )
                                .expect("rejoin re-attestation handshake");
                            t.driver.replace_slice(
                                w,
                                Arc::clone(&enclave),
                                fresh.victim_verifier(),
                                fresh.neighbor_verifier(),
                            );
                        }
                        cluster.resync_slice(0, w);
                        svc.respawn_worker(
                            w,
                            EnclaveFilterStage::new(enclave, FilterMode::SgxNearZeroCopy),
                        );
                    }
                    // Adversarial variant (see `with_stale_rejoin`): the
                    // replica discards whatever was replayed or published
                    // to it, so churn cannot heal it — probation must
                    // catch the desync on its own.
                    if let Some(w) = stale_rejoin.filter(|&w| lifecycle.state(w).shadowed()) {
                        cluster.enclaves()[w].ecall(move |app| {
                            app.install_ruleset(vif_core::ruleset::RuleSet::new())
                        });
                    }

                    // Attribution state as the round starts: a worker
                    // dying this round still forwarded part of the offer
                    // under the old steering.
                    let pre = lifecycle.snapshot();

                    // Merge every active tenant's schedule for this round
                    // into one offered burst (arrival order per tenant is
                    // preserved; cross-tenant interleaving is irrelevant —
                    // verdicts are per packet and sketch updates commute).
                    merged.clear();
                    for t in tenants.iter_mut().filter(|t| active(t)) {
                        let Some(round) = t.rounds.get(global_round as usize) else {
                            continue;
                        };
                        for pkt in &round.packets {
                            attribute(&mut t.driver, &pre, LogDirection::Incoming, &pkt.tuple);
                        }
                        merged.extend_from_slice(&round.packets);
                    }
                    svc.round(&merged);
                    // Per-contract uncovered traffic for this round (the
                    // degraded-mode accountability counters).
                    let deltas = svc.contract_deltas().to_vec();

                    // A slice that started the round steered was reaped at
                    // this barrier: re-run admission over the shrunken pool
                    // before any tenant closes its round.
                    let shrank = (0..n).any(|w| {
                        pre.state(w).steered() && lifecycle.state(w) == SliceState::Quarantined
                    });
                    if shrank && lifecycle.state(0).published() {
                        let window_secs = (global_round + 1) as f64 * round_secs;
                        let arb = cluster.rearbitrate(0, window_secs, 0.1, config.arbiter);
                        for t in tenants.iter() {
                            if let Some(AdmissionVerdict::Rejected { reason }) =
                                arb.verdict(t.contract)
                            {
                                if !failover_rejected.iter().any(|r| r.contract == t.contract) {
                                    failover_rejected.push(RejectedContract {
                                        contract: t.contract,
                                        reason: reason.to_string(),
                                    });
                                }
                            }
                        }
                    }

                    // Split what arrived by destination prefix: each
                    // tenant consumes only its own deliveries.
                    for tuple in forwarded.lock().unwrap().drain(..) {
                        for t in tenants.iter_mut() {
                            if t.scope.is_none_or(|p| p.contains(tuple.dst_ip)) {
                                t.received.push(tuple);
                                break;
                            }
                        }
                    }

                    // Each tenant closes *its own* audited round and
                    // reacts; its churn publishes its own epoch before the
                    // next tenant is processed, so deferred install ids
                    // are assigned contract by contract, deterministically.
                    let mut closed = 0;
                    for (t, policy) in tenants.iter_mut().zip(policies.iter_mut()) {
                        if !active(t) || (global_round as usize) >= t.rounds.len() {
                            continue;
                        }
                        let uncovered = deltas
                            .iter()
                            .find(|d| d.contract == t.contract)
                            .map(|d| d.uncovered)
                            .unwrap_or(0);
                        step_tenant(
                            t,
                            policy.as_mut(),
                            global_round as usize,
                            &mut cluster,
                            &pre,
                            uncovered,
                            adversary,
                        );
                        closed += 1;
                    }

                    // Settle the tenants' probation votes. A promotion
                    // grows the pool back: re-admit failover-rejected
                    // contracts that fit again.
                    for _promoted in lifecycle.settle_round(closed) {
                        let window_secs = (global_round + 1) as f64 * round_secs;
                        let arb = cluster.rearbitrate(0, window_secs, 0.1, config.arbiter);
                        failover_rejected.retain(|r| {
                            if matches!(
                                arb.verdict(r.contract),
                                Some(AdmissionVerdict::Rejected { .. })
                            ) {
                                true
                            } else {
                                readmitted.push(r.contract);
                                false
                            }
                        });
                    }

                    if !tenants.iter().any(active) {
                        break; // every victim aborted its contract
                    }
                }

                tenants
                    .iter()
                    .map(|t| ScenarioReport {
                        scenario: t.scenario.name.clone(),
                        contract: t.contract,
                        seed: t.scenario.seed,
                        workers: n,
                        phases: t.phases.clone(),
                        rounds: t.rounds_run,
                        dirty_rounds: t.dirty_rounds,
                        final_state: t.driver.state(),
                        detection_latency_rounds: t.detection_latency,
                        rules_installed: t.total_installed,
                        rules_withdrawn: t.total_withdrawn,
                        quarantined_slices: lifecycle.quarantined_slices(),
                        recovery_rounds: t
                            .outage_start
                            .and_then(|start| t.recovered_at.map(|r| r - start)),
                        recovered_slices: lifecycle.recovered_slices(),
                        rejoin_rounds: lifecycle.rejoin_rounds(),
                        probation_rounds: t.driver.probation_rounds_used(),
                    })
                    .collect::<Vec<_>>()
            },
        );
        for (report, policy) in reports.iter().zip(policies.iter_mut()) {
            policy.finish(report);
        }

        CampaignReport {
            reports,
            rejected,
            failover_rejected,
            readmitted,
        }
    }
}

/// Replays one packet's attribution into the `direction` verifiers of the
/// slices that logged it: the one steering chose as the round started
/// (`pre`), and a probation home shard, which logged a shadow copy (the
/// stateless filter is deterministic, so it forwarded what was delivered).
fn attribute(
    driver: &mut ClusterRoundDriver,
    pre: &SliceLifecycle,
    direction: LogDirection,
    tuple: &FiveTuple,
) {
    let fp = PacketFingerprints::of(tuple);
    let home = shard_of_fingerprint(fp.tuple, driver.len());
    let key = direction.key(&fp);
    driver
        .verifier_mut(pre.steer(fp.tuple, home), direction)
        .observe_fingerprint(key);
    if pre.state(home).shadowed() {
        driver
            .verifier_mut(home, direction)
            .observe_fingerprint(key);
    }
}

/// One tenant's end-of-round step: score deliveries, audit, react,
/// publish its epoch.
fn step_tenant(
    t: &mut Tenant,
    policy: &mut dyn VictimPolicy,
    round_idx: usize,
    cluster: &mut EnclaveCluster,
    pre: &SliceLifecycle,
    uncovered: u64,
    adversary: Option<ScenarioAdversary>,
) {
    let round = &t.rounds[round_idx];
    let phase = &mut t.phases[round.phase];
    phase.rounds += 1;
    phase.offered_legit += round.offered_legit;
    phase.offered_attack += round.offered_attack;
    phase.uncovered += uncovered;
    if uncovered > 0 {
        if t.outage_start.is_none() {
            t.outage_start = Some(round.global_round);
        }
        t.recovered_at = None;
    } else if t.outage_start.is_some() && t.recovered_at.is_none() {
        t.recovered_at = Some(round.global_round);
    }

    t.hh_sketch.clear();
    let mut candidates: BTreeSet<u32> = BTreeSet::new();
    for tuple in t.received.drain(..) {
        attribute(&mut t.driver, pre, LogDirection::Outgoing, &tuple);
        if round.attack_sources.contains(&tuple.src_ip) {
            phase.delivered_attack += 1;
        } else {
            phase.delivered_legit += 1;
        }
        t.hh_sketch.add(&tuple.src_ip.to_be_bytes(), 1);
        candidates.insert(tuple.src_ip);
    }

    let outcome = t.driver.close_round().expect("authentic slice exports");
    t.rounds_run += 1;
    if outcome.dirty() {
        t.dirty_rounds += 1;
        phase.dirty_rounds += 1;
        if let Some(a) = adversary.filter(|a| round.global_round >= a.from_round) {
            t.detection_latency
                .get_or_insert(round.global_round - a.from_round + 1);
        }
    }

    // Per-contract rule telemetry (the B_i exchange): matched bytes of the
    // tenant's own rules summed over the live slices — RSS steering lands
    // a flow on one slice, so the master alone cannot tell a biting rule
    // from an idle one — diffed against the last round's snapshot.
    let cur_rule_bytes = cluster.contract_rule_bytes(t.contract);
    for rule in &mut t.installed {
        let cur = cur_rule_bytes.get(&rule.id).copied().unwrap_or(0);
        let prev = t.prev_rule_bytes.get(&rule.id).copied().unwrap_or(0);
        if cur == prev {
            rule.rounds_idle += 1;
        } else {
            rule.rounds_idle = 0;
        }
    }

    let mut heavy: Vec<HeavyHitter> = candidates
        .iter()
        .map(|&src| HeavyHitter {
            src_ip: src,
            estimated_packets: t.hh_sketch.estimate(&src.to_be_bytes()),
        })
        .collect();
    heavy.sort_by(|a, b| {
        b.estimated_packets
            .cmp(&a.estimated_packets)
            .then(a.src_ip.cmp(&b.src_ip))
    });

    let mut actions = Vec::new();
    policy.react(
        &PolicyObservation {
            round: round.global_round,
            outcome: &outcome,
            heavy_hitters: &heavy,
            installed: &t.installed,
            victim: t.scenario.victim,
        },
        &mut actions,
    );

    let mut installs: Vec<FilterRule> = Vec::new();
    let mut withdrawals: Vec<RuleId> = Vec::new();
    for action in actions {
        match action {
            PolicyAction::Install(rule) => installs.push(rule),
            PolicyAction::Withdraw(id) => withdrawals.push(id),
        }
    }
    // With the master slice unpublished the control channel is down:
    // churn is dropped until failover, and the tenant keeps running on
    // its frozen rule set.
    let master_live = cluster.lifecycle().state(0).published();
    if !withdrawals.is_empty() && master_live {
        let removed = t
            .session
            .withdraw_rules_deferred(&withdrawals)
            .expect("withdrawal over the session channel");
        t.installed.retain(|r| !withdrawals.contains(&r.id));
        phase.rules_withdrawn += removed as u32;
        t.total_withdrawn += removed as u32;
    }
    if !installs.is_empty() && master_live {
        t.session
            .submit_rules_deferred(&installs, &t.rpki)
            .expect("install over the session channel");
        phase.rules_installed += installs.len() as u32;
        t.total_installed += installs.len() as u32;
    }
    if master_live && (!installs.is_empty() || !withdrawals.is_empty()) {
        // Publish *this contract's* epoch only: other tenants' queues,
        // epochs, and sketches stay untouched. The report hands back the
        // ids the publisher assigned to this tenant's installs.
        let report = cluster.publish_contract(0, t.contract);
        for (i, rule) in installs.iter().enumerate() {
            t.installed.push(InstalledRule {
                id: report.new_rule_ids[i],
                rule: *rule,
                installed_round: round.global_round,
                rounds_idle: 0,
            });
        }
        // Publication resets every rule's byte counters on every slice.
        t.prev_rule_bytes = BTreeMap::new();
    } else {
        t.prev_rule_bytes = cur_rule_bytes;
    }
}

/// Expands a seed into deterministic 32-byte key material, domain-tagged
/// (one [`vif_sketch::hash::splitmix64`] output per word).
fn derive32(seed: u64, tag: u8) -> [u8; 32] {
    let mut out = [0u8; 32];
    let base = seed ^ (tag as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for (word, chunk) in out.chunks_mut(8).enumerate() {
        let z = vif_sketch::hash::splitmix64(
            base.wrapping_add((word as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        chunk.copy_from_slice(&z.to_le_bytes());
    }
    out
}
