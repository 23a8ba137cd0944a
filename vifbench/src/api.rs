//! The only file of the benchmark that names product types.
//!
//! Everything the benchmark asks of the system goes through here, by the
//! `ContractId`-general entry points only: `establish_contract`,
//! `submit_rules_deferred` / `withdraw_rules_deferred`, `publish_contract`,
//! `provision_contract`, `launch_rss_with`, `export_log_for`,
//! `install_published_for`, `take_publish_snapshot_for`, `new_round_for`,
//! `DataplaneService::run`, `EnclaveFilterStage`,
//! `ClusterRoundDriver::with_contract` and `CampaignHarness`. A refactor
//! that changes one of these needs a benchmark change first; the list is
//! repeated in the README.

use crate::inputs::{Flow, Pkt, Rng, Rule, Tenant};
use crate::metrics::{median_of, value, Metric};
use crate::stats::{time_ms, time_per_item};
use crate::trace::now_ns;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vif_core::cost::FilterMode;
use vif_core::enclave_app::{ContractId, EnclaveFilterStage, FilterEnclaveApp};
use vif_core::filter::StatelessFilter;
use vif_core::hybrid::HybridFilter;
use vif_core::logs::{LogDirection, PacketFingerprints, PacketLogs};
use vif_core::rounds::{ClusterRoundDriver, RoundPolicy};
use vif_core::rpki::RpkiRegistry;
use vif_core::rules::{FilterRule, FlowPattern};
use vif_core::ruleset::{RuleId, RuleSet};
use vif_core::scale::EnclaveCluster;
use vif_core::session::{FilteringSession, SessionConfig, VictimClient};
use vif_crypto::dh::DhGroup;
use vif_crypto::hmac::HmacSha256;
use vif_crypto::sha256::Sha256;
use vif_dataplane::{
    shard_of, shard_of_fingerprint, ContractMap, DataplaneService, FiveTuple, Packet, PacketStage,
    Protocol, Ring, ServiceConfig, ServiceHandle, StageOutcome,
};
use vif_optimizer::{arbitrate, ArbiterConfig, ContractDemand};
use vif_scenario::{
    CampaignConfig, CampaignContract, CampaignHarness, DegradedMode, FaultKind, FaultPlan,
    LegitProfile, Phase, PhaseKind, PolicyAction, PolicyObservation, Scenario,
    ScenarioHarnessConfig, ThresholdPolicy, VictimPolicy,
};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};
use vif_sketch::{compare, CountMinSketch};
use vif_telemetry::{EventKind, TelemetryHub};
use vif_trie::Ipv4Prefix;

/// Every packet is a minimum-size frame: per-packet cost dominates.
const WIRE_SIZE: u16 = 64;
const MODE: FilterMode = FilterMode::SgxNearZeroCopy;
/// Bursts the probes replay: the service's burst size.
const BURST: usize = 32;

/// The service configuration every dataplane workload runs under, as
/// recorded in result files.
pub fn service_config_text() -> String {
    format!("{:?}", ServiceConfig::default())
}

fn tuple_of(f: &Flow) -> FiveTuple {
    FiveTuple::new(
        f.src_ip,
        f.dst_ip,
        f.src_port,
        f.dst_port,
        Protocol::from(f.proto),
    )
}

fn packet_of(p: &Pkt) -> Packet {
    Packet::new(tuple_of(&p.flow), WIRE_SIZE, p.due_ns, p.id)
}

fn prefix_of(p: (u32, u8)) -> Ipv4Prefix {
    Ipv4Prefix::new(p.0, p.1)
}

fn rule_of(r: &Rule) -> FilterRule {
    let pattern = FlowPattern::prefixes(prefix_of(r.src), prefix_of(r.dst));
    match r.drop_fraction {
        None => FilterRule::drop(pattern),
        Some(fraction) => FilterRule::drop_fraction(pattern, fraction),
    }
}

/// A packet pool in the form the service takes.
pub struct Packets(Vec<Packet>);

impl Packets {
    pub fn new(pool: &[Pkt]) -> Self {
        Packets(pool.iter().map(packet_of).collect())
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn set(&mut self, index: usize, pkt: &Pkt) {
        self.0[index] = packet_of(pkt);
    }

    pub fn window(&self, range: std::ops::Range<usize>) -> &[Packet] {
        &self.0[range]
    }
}

/// One flushed window's counters, summed over workers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub received: u64,
    pub forwarded: u64,
    pub filtered: u64,
    pub overflow: u64,
    pub uncovered: u64,
}

/// The running service as the generator thread drives it.
pub trait Service {
    fn offer(&mut self, pkts: &[Packet]);
    fn flush(&mut self) -> Counts;
    fn park_events(&self) -> u64;
}

impl<R: FnMut(&FiveTuple) -> usize> Service for ServiceHandle<'_, '_, R> {
    fn offer(&mut self, pkts: &[Packet]) {
        ServiceHandle::offer(self, pkts);
    }

    fn flush(&mut self) -> Counts {
        let t = self.flush_round().total();
        Counts {
            received: t.received,
            forwarded: t.forwarded,
            filtered: t.filtered,
            overflow: t.overflow,
            uncovered: t.uncovered,
        }
    }

    fn park_events(&self) -> u64 {
        ServiceHandle::park_events(self)
    }
}

/// What the benchmark's stage wrapper measures on one worker thread.
#[derive(Default)]
pub struct StageProbe {
    /// Time batches only while set (the traced rounds of a traced pass).
    pub timing: AtomicBool,
    /// Additionally keep each batch's interval while set.
    pub keep_spans: AtomicBool,
    pub busy_ns: AtomicU64,
    pub batches: AtomicU64,
    pub packets: AtomicU64,
    /// When the latest batch ended ([`now_ns`] time base).
    pub last_end_ns: AtomicU64,
    /// The kept intervals, handed over when the worker exits.
    pub spans: Mutex<Vec<(u64, u64)>>,
}

/// Intervals one worker keeps before it stops recording them.
const STAGE_SPAN_CAP: usize = 1 << 16;

/// The enclave filter stage, timed from outside on its worker thread.
struct TimedStage {
    inner: EnclaveFilterStage,
    probe: Arc<StageProbe>,
    kept: Vec<(u64, u64)>,
}

impl PacketStage for TimedStage {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<StageOutcome>) {
        if !self.probe.timing.load(Ordering::Relaxed) {
            return self.inner.process_batch(pkts, out);
        }
        let start = now_ns();
        self.inner.process_batch(pkts, out);
        let end = now_ns();
        // Relaxed: statistics, read after the round barrier.
        self.probe.busy_ns.fetch_add(end - start, Ordering::Relaxed);
        self.probe.batches.fetch_add(1, Ordering::Relaxed);
        self.probe
            .packets
            .fetch_add(pkts.len() as u64, Ordering::Relaxed);
        self.probe.last_end_ns.store(end, Ordering::Relaxed);
        if self.kept.len() < STAGE_SPAN_CAP && self.probe.keep_spans.load(Ordering::Relaxed) {
            self.kept.push((start, end));
        }
    }
}

impl Drop for TimedStage {
    fn drop(&mut self) {
        // A poisoned lock only loses trace detail.
        if let Ok(mut spans) = self.probe.spans.lock() {
            spans.append(&mut self.kept);
        }
    }
}

struct TenantState {
    contract: ContractId,
    prefix: Ipv4Prefix,
    session: FilteringSession,
    rpki: RpkiRegistry,
    driver: ClusterRoundDriver,
    /// Ids of the rules the last churn epoch installed.
    churned: Vec<RuleId>,
}

/// How long the control-plane steps of one rule change took.
#[derive(Debug, Clone, Copy, Default)]
pub struct PublishTimes {
    /// Sealed-frame submit (and withdraw) over the session.
    pub submit_ms: f64,
    /// `publish_contract`: snapshot, rebuild, per-slice clone and swap.
    pub publish_ms: f64,
    /// Every slice ended on the new epoch with the expected edits applied.
    pub ok: bool,
}

impl PublishTimes {
    pub fn total_ms(&self) -> f64 {
        self.submit_ms + self.publish_ms
    }
}

/// An attested, rule-carrying cluster with one audit driver per tenant:
/// what a victim has once §VI-B set-up is done.
pub struct Deployment {
    workers: usize,
    cluster: EnclaveCluster,
    tenants: Vec<TenantState>,
    /// Per tenant: the handshake and the initial install, as measured.
    pub establish_ms: Vec<f64>,
    pub install: Vec<PublishTimes>,
}

impl Deployment {
    /// Launches `workers` slices, attests a session per tenant against
    /// the master, keys every slice for it, installs the tenant's rules
    /// over the session and publishes them.
    pub fn launch(seed: u64, workers: usize, tenants: &[Tenant]) -> Deployment {
        let mut rng = Rng::new(seed ^ 0x0005_e70b);
        let secret = rng.key();
        let root = AttestationRootKey::new(rng.key());
        let platform = SgxPlatform::new(seed ^ 0xb3c4, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif-filter", 1, vec![0x90; 1 << 16]);
        let master = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh(secret)));
        let ias = AttestationService::new(root);
        // The default slot's launch keys are never used: every tenant's
        // session keys are provisioned below.
        let cluster = EnclaveCluster::launch_rss_with(
            platform,
            image.clone(),
            Arc::clone(&master),
            RuleSet::new(),
            workers,
            secret,
            rng.next_u64(),
            rng.key(),
        );
        let mut dep = Deployment {
            workers,
            cluster,
            tenants: Vec::with_capacity(tenants.len()),
            establish_ms: Vec::new(),
            install: Vec::new(),
        };
        // A lone contract 0 is unscoped, so the enclave keeps its batched
        // single-tenant logging path; named contracts are scoped by prefix.
        let scoped = tenants.len() > 1 || tenants[0].contract != 0;
        for t in tenants {
            let owner = rng.key();
            let prefix = prefix_of(t.prefix);
            let mut rpki = RpkiRegistry::new();
            rpki.register(prefix, owner);
            let client = VictimClient::new(
                owner,
                &rng.key(),
                ias.verifier(),
                SessionConfig {
                    expected_measurement: image.measurement(),
                    tolerance: 0,
                },
            );
            let nonce = rng.key();
            let (session, establish_ms) = time_ms(|| {
                client
                    .establish_contract(Arc::clone(&master), &ias, nonce, t.contract)
                    .expect("attestation of the genuine image")
            });
            let keys = session.keys().clone();
            dep.cluster.provision_contract(
                t.contract,
                scoped.then_some(prefix),
                keys.sketch_seed,
                keys.audit_key,
            );
            let driver = ClusterRoundDriver::new(
                dep.cluster.enclaves().to_vec(),
                keys.sketch_seed,
                keys.audit_key,
                0,
                RoundPolicy {
                    // The bypass canary needs the contract to survive its
                    // deliberately dirty round.
                    max_strikes: u32::MAX,
                    ..Default::default()
                },
            )
            .with_contract(t.contract);
            dep.tenants.push(TenantState {
                contract: t.contract,
                prefix,
                session,
                rpki,
                driver,
                churned: Vec::new(),
            });
            dep.establish_ms.push(establish_ms);
            let index = dep.tenants.len() - 1;
            let (times, _) = dep.change_rules(index, &[], &t.rules);
            assert!(times.ok, "initial install of contract {}", t.contract);
            dep.install.push(times);
        }
        dep
    }

    /// Withdraws `withdraw`, installs `install` — both over the tenant's
    /// session, deferred — and publishes the tenant's epoch. Returns the
    /// ids the installs were given.
    fn change_rules(
        &mut self,
        tenant: usize,
        withdraw: &[RuleId],
        install: &[Rule],
    ) -> (PublishTimes, Vec<RuleId>) {
        let t = &mut self.tenants[tenant];
        let rules: Vec<FilterRule> = install.iter().map(rule_of).collect();
        let contract = t.contract;
        let epoch_before = self.cluster.enclaves()[0].ecall(move |app| app.epoch_of(contract));
        let ((), submit_ms) = time_ms(|| {
            if !withdraw.is_empty() {
                t.session
                    .withdraw_rules_deferred(withdraw)
                    .expect("withdrawal over the session");
            }
            if !rules.is_empty() {
                t.session
                    .submit_rules_deferred(&rules, &t.rpki)
                    .expect("install over the session");
            }
        });
        let (report, publish_ms) = time_ms(|| self.cluster.publish_contract(0, contract));
        let on_new_epoch = self
            .cluster
            .enclaves()
            .iter()
            .all(|e| e.ecall(move |app| app.epoch_of(contract)) == epoch_before + 1);
        let ok = on_new_epoch
            && report.installs == rules.len()
            && report.withdrawals == withdraw.len()
            && report.ack_lost_slices.is_empty();
        let times = PublishTimes {
            submit_ms,
            publish_ms,
            ok,
        };
        (times, report.new_rule_ids)
    }

    /// One churn epoch for the first tenant: last epoch's rules out, `rules`
    /// in, published.
    pub fn churn(&mut self, rules: &[Rule]) -> PublishTimes {
        let withdraw = std::mem::take(&mut self.tenants[0].churned);
        let (times, installed) = self.change_rules(0, &withdraw, rules);
        self.tenants[0].churned = installed;
        times
    }

    fn tenant_of(&self, dst_ip: u32) -> usize {
        if self.tenants.len() == 1 {
            return 0;
        }
        self.tenants
            .iter()
            .position(|t| t.prefix.contains(dst_ip))
            .expect("every packet is addressed to a tenant")
    }

    /// The neighbors' side of the audit: they sketch what they hand over,
    /// per slice by the public steering hash, before it is offered.
    pub fn observe_neighbor(&mut self, pkts: &[Packet]) {
        let n = self.workers;
        for p in pkts {
            let fp = PacketFingerprints::of(&p.tuple);
            let t = self.tenant_of(p.tuple.dst_ip);
            self.tenants[t]
                .driver
                .neighbor_verifier_mut(shard_of_fingerprint(fp.tuple, n))
                .observe_fingerprint(fp.src_ip);
        }
    }

    /// The victims' side: they sketch what the sink actually received.
    pub fn observe_victim(&mut self, pool: &Packets, delivered: &[u64]) {
        let n = self.workers;
        for &id in delivered {
            let tuple = pool.0[crate::inputs::pool_index_of(id)].tuple;
            let fp = PacketFingerprints::of(&tuple);
            let t = self.tenant_of(tuple.dst_ip);
            self.tenants[t]
                .driver
                .victim_verifier_mut(shard_of_fingerprint(fp.tuple, n))
                .observe_fingerprint(fp.tuple);
        }
    }

    /// Audits every tenant's round on every slice. `Ok(true)` is a dirty
    /// round; `Err` is an export that failed to authenticate.
    pub fn close_round(&mut self) -> Result<bool, String> {
        let mut dirty = false;
        for t in &mut self.tenants {
            let outcome = t.driver.close_round().map_err(|e| e.to_string())?;
            dirty |= outcome.dirty();
        }
        Ok(dirty)
    }

    /// The hybrid filter's rule-update period on every slice. Nothing in
    /// the product runs it; without it the promotion queue only grows.
    pub fn update_period(&self) {
        for e in self.cluster.enclaves() {
            e.ecall(|app| app.apply_update_period());
        }
    }

    /// The hybrid filters' counters, summed over the slices.
    pub fn hybrid_counts(&self) -> HybridCounts {
        let mut sum = HybridCounts::default();
        for e in self.cluster.enclaves() {
            let (stats, cached) =
                e.ecall(|app| (app.hybrid().stats(), app.hybrid().cached_flows()));
            sum.exact_hits += stats.exact_hits;
            sum.cached_flows += cached as u64;
            sum.pending_evicted += stats.pending_evicted;
        }
        sum
    }
}

/// What the exact-match layer of the hybrid filter has done so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct HybridCounts {
    /// Verdicts served from the exact-match cache.
    pub exact_hits: u64,
    pub cached_flows: u64,
    pub pending_evicted: u64,
}

/// Runs `body` on the calling thread — the RX stage — against the always-on
/// service over `dep`'s slices: one timed enclave stage per worker, steered
/// by the public hash, every forwarded packet's `(id, arrival_ns)` handed
/// to `sink` on the TX thread.
pub fn serve<T>(
    dep: &mut Deployment,
    probes: &[Arc<StageProbe>],
    mut sink: impl FnMut(u64, u64) + Send,
    body: impl FnOnce(&mut dyn Service, &mut Deployment) -> T,
) -> T {
    let n = dep.workers;
    assert_eq!(probes.len(), n, "one stage probe per worker");
    let stages: Vec<TimedStage> = dep
        .cluster
        .enclaves()
        .iter()
        .zip(probes)
        .map(|(e, probe)| TimedStage {
            inner: EnclaveFilterStage::new(Arc::clone(e), MODE),
            probe: Arc::clone(probe),
            kept: Vec::with_capacity(STAGE_SPAN_CAP),
        })
        .collect();
    let mut service = DataplaneService::new(ServiceConfig::default());
    if dep.tenants.len() > 1 {
        let mut map = ContractMap::new();
        for t in &dep.tenants {
            map.assign(t.prefix.addr(), t.prefix.len(), t.contract);
        }
        service = service.with_contracts(map);
    }
    service.run(
        stages,
        move |_, pkt| sink(pkt.id, pkt.arrival_ns),
        move |t: &FiveTuple| shard_of(t, n),
        |svc| body(svc, dep),
    )
}

// ---------------------------------------------------------------------
// The heal campaign (black box: `CampaignHarness::run`).

/// The attacked tenant of `repro heal`: a sustained uniform assault.
fn attacked_scenario(seed: u64, rounds: u32) -> Scenario {
    Scenario {
        name: "attacked-tenant".into(),
        seed,
        victim: Ipv4Prefix::new(u32::from_be_bytes([203, 0, 0, 0]), 16),
        legit: LegitProfile {
            sources: 16,
            gbps: 0.2,
        },
        phases: vec![Phase {
            name: "assault".into(),
            kind: PhaseKind::Ramp {
                from_gbps: 22.0,
                to_gbps: 22.0,
            },
            rounds,
            attack_gbps: 22.0,
            attack_sources: 330,
            zipf_exponent: 0.0,
        }],
        round_ms: 1,
        packet_size: 1024,
    }
}

/// The quiet tenant of `repro heal`: an all-legitimate flash crowd.
fn flash_crowd_scenario(seed: u64, rounds: u32) -> Scenario {
    let phase = |name: &str, kind, rounds| Phase {
        name: name.into(),
        kind,
        rounds,
        attack_gbps: 0.0,
        attack_sources: 0,
        zipf_exponent: 0.0,
    };
    Scenario {
        name: "flash-crowd-tenant".into(),
        seed,
        victim: Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16),
        legit: LegitProfile {
            sources: 48,
            gbps: 0.2,
        },
        phases: vec![
            phase(
                "calm",
                PhaseKind::Ramp {
                    from_gbps: 0.0,
                    to_gbps: 0.0,
                },
                4,
            ),
            phase(
                "flash-crowd",
                PhaseKind::FlashCrowd {
                    surge_sources: 96,
                    surge_gbps: 0.6,
                },
                rounds - 4,
            ),
        ],
        round_ms: 1,
        packet_size: 1024,
    }
}

/// The victim's policy with a clock on it: `react` runs once per tenant
/// per audited round, so the first tenant's stamps delimit the campaign's
/// rounds without touching the harness.
struct StampedPolicy {
    inner: ThresholdPolicy,
    stamps: Option<Arc<Mutex<Vec<u64>>>>,
}

impl VictimPolicy for StampedPolicy {
    fn react(&mut self, obs: &PolicyObservation<'_>, actions: &mut Vec<PolicyAction>) {
        if let Some(stamps) = &self.stamps {
            stamps.lock().expect("stamp lock").push(now_ns());
        }
        self.inner.react(obs, actions);
    }
}

pub const CAMPAIGN_WORKERS: usize = 2;
pub const CAMPAIGN_ROUNDS: u32 = 20;
/// Worker 1 is killed and brought back twice per campaign.
const CAMPAIGN_FAULTS: [(u64, u64); 2] = [(3, 5), (11, 13)];

/// One execution of the two-tenant heal campaign.
pub struct CampaignRun {
    /// Wall time of each audited round after the first, ms.
    pub round_ms: Vec<f64>,
    pub packets: u64,
    pub installs: u64,
    pub withdrawals: u64,
    pub mttr_rounds: Option<u64>,
    /// Everything the campaign reported; equal for equal seeds.
    pub digest: String,
    /// Lifecycle guarantees the run broke (none on an honest run).
    pub violations: Vec<String>,
    /// `TelemetryHub::snapshot` + JSON rendering after the run, µs.
    pub snapshot_us: f64,
}

pub fn heal_campaign(seed: u64) -> CampaignRun {
    let rounds = CAMPAIGN_ROUNDS;
    let contracts = vec![
        CampaignContract {
            contract: 1,
            scenario: attacked_scenario(seed, rounds),
            demand_gbps_per_rule: vec![0.5; 8],
        },
        CampaignContract {
            contract: 2,
            scenario: flash_crowd_scenario(seed ^ 0xb, rounds),
            demand_gbps_per_rule: vec![0.25; 4],
        },
    ];
    let stamps = Arc::new(Mutex::new(Vec::with_capacity(rounds as usize)));
    let policies: Vec<Box<dyn VictimPolicy>> = vec![
        Box::new(StampedPolicy {
            inner: ThresholdPolicy {
                install_threshold: 3,
                idle_rounds: u32::MAX,
                max_installs_per_round: 512,
            },
            stamps: Some(Arc::clone(&stamps)),
        }),
        Box::new(StampedPolicy {
            inner: ThresholdPolicy {
                install_threshold: u64::MAX,
                ..Default::default()
            },
            stamps: None,
        }),
    ];
    let mut faults = FaultPlan::new();
    for (crash, recover) in CAMPAIGN_FAULTS {
        faults = faults
            .at(crash, FaultKind::WorkerCrash { worker: 1 })
            .at(recover, FaultKind::WorkerRecover { worker: 1 });
    }
    let hub = Arc::new(TelemetryHub::new(CAMPAIGN_WORKERS, &[1, 2], 4096));
    let report = CampaignHarness::new(
        contracts,
        CampaignConfig {
            harness: ScenarioHarnessConfig {
                workers: CAMPAIGN_WORKERS,
                ..Default::default()
            },
            arbiter: ArbiterConfig {
                lambda: 0.0,
                ..Default::default()
            },
        },
    )
    .with_faults(faults)
    .with_degraded_mode(2, DegradedMode::FailOpen)
    .with_telemetry(Arc::clone(&hub))
    .run(policies);

    let mut violations = Vec::new();
    if report.reports.len() != 2 || !report.rejected.is_empty() {
        violations.push(format!("admission: {:?}", report.rejected));
    }
    for r in &report.reports {
        if r.dirty_rounds != 0 {
            violations.push(format!("contract {}: false strike", r.contract));
        }
        if r.rounds != u64::from(rounds) {
            violations.push(format!("contract {}: {} rounds", r.contract, r.rounds));
        }
        if r.quarantined_slices != [1] || r.recovered_slices.is_empty() {
            violations.push(format!(
                "contract {}: quarantined {:?}, recovered {:?}",
                r.contract, r.quarantined_slices, r.recovered_slices
            ));
        }
    }
    let stamps = stamps.lock().expect("stamp lock");
    let first = report.reports.first();
    let (json, snapshot_us) = time_ms(|| hub.snapshot(64).to_json());
    black_box(json);
    CampaignRun {
        round_ms: stamps
            .windows(2)
            .map(|w| (w[1] - w[0]) as f64 / 1e6)
            .collect(),
        packets: report
            .reports
            .iter()
            .flat_map(|r| &r.phases)
            .map(|p| p.offered_legit + p.offered_attack)
            .sum(),
        installs: report
            .reports
            .iter()
            .map(|r| u64::from(r.rules_installed))
            .sum(),
        withdrawals: report
            .reports
            .iter()
            .map(|r| u64::from(r.rules_withdrawn))
            .sum(),
        mttr_rounds: first.and_then(|r| r.rejoin_rounds),
        digest: format!("{report:?}"),
        violations,
        snapshot_us: snapshot_us * 1e3,
    }
}

// ---------------------------------------------------------------------
// Layer probes: the workload's own packets and rules replayed through one
// layer's public function at a time, single-threaded.

fn per_packet(name: &str, items: usize, f: impl FnMut()) -> Metric {
    let (ns, n) = time_per_item(items as u64, 15, f);
    value(name, ns, n)
}

fn ms_of(name: &str, reps: usize, mut f: impl FnMut() -> f64) -> Metric {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    median_of(name, &samples)
}

/// Probes every layer on `pool` (the workload's packets) and the rules of
/// `tenants`. `churn_rules(epoch)` names the rules of a churn epoch.
pub fn probe_layers(
    seed: u64,
    workers: usize,
    tenants: &[Tenant],
    pool: &Packets,
    hash_path: &Packets,
    churn_rules: &dyn Fn(u64) -> Vec<Rule>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    let pkts = &pool.0[..pool.len().min(8192) / BURST * BURST];
    let tuples: Vec<FiveTuple> = pkts.iter().map(|p| p.tuple).collect();
    let fps: Vec<PacketFingerprints> = tuples.iter().map(PacketFingerprints::of).collect();
    let tuple_fps: Vec<u64> = fps.iter().map(|f| f.tuple).collect();
    let mut rng = Rng::new(seed ^ 0x0094_07be);
    let (secret, key, sketch_seed) = (rng.key(), rng.key(), rng.next_u64());
    let n = tuples.len();

    // dataplane.packet / core.logs
    out.push(per_packet("probe.fingerprint_ns", n, || {
        for t in &tuples {
            black_box(PacketFingerprints::of(black_box(t)));
        }
    }));
    out.push(per_packet("probe.steer_ns", n, || {
        for f in &fps {
            black_box(shard_of_fingerprint(black_box(f.tuple), workers));
        }
    }));

    // dataplane.ring
    let ring: Ring<Packet> = Ring::new(ServiceConfig::default().ring_capacity);
    let (mut burst_in, mut burst_out) = (Vec::with_capacity(BURST), Vec::with_capacity(BURST));
    out.push(per_packet("probe.ring_ns", n, || {
        for burst in pkts.chunks(BURST) {
            burst_in.extend_from_slice(burst);
            ring.enqueue_burst(&mut burst_in);
            burst_out.clear();
            black_box(ring.dequeue_burst(&mut burst_out, BURST));
        }
    }));

    // core.ruleset / trie
    let ruleset = RuleSet::from_rules(tenants.iter().flat_map(|t| &t.rules).map(rule_of));
    out.push(per_packet("probe.classify_ns", n, || {
        for t in &tuples {
            black_box(ruleset.classify(black_box(t)));
        }
    }));
    let edits: Vec<FilterRule> = churn_rules(0).iter().map(rule_of).collect();
    out.push(ms_of("ruleset.rebuild_ms", 5, || {
        let mut rs = ruleset.clone();
        time_ms(|| {
            rs.batch_edit(|edit| {
                for id in 0..edits.len().min(ruleset.len()) {
                    edit.remove(id as RuleId);
                }
                for r in &edits {
                    edit.insert(*r);
                }
            })
        })
        .1
    }));
    out.push(ms_of("ruleset.clone_ms", 9, || {
        time_ms(|| black_box(ruleset.clone())).1
    }));
    out.push(value(
        "ruleset.memory_bytes",
        ruleset.memory_bytes() as f64,
        1,
    ));

    // core.filter / crypto.sha256
    let mut hash_rules = ruleset.clone();
    if !tenants
        .iter()
        .flat_map(|t| &t.rules)
        .any(|r| r.drop_fraction.is_some())
    {
        hash_rules.insert(rule_of(&Rule {
            src: crate::inputs::PROB_SRC,
            dst: tenants[0].prefix,
            drop_fraction: Some(0.5),
        }));
    }
    let stateless = StatelessFilter::new(hash_rules, secret);
    let hashed: Vec<FiveTuple> = hash_path.0.iter().map(|p| p.tuple).collect();
    out.push(per_packet("probe.hash_decide_ns", hashed.len(), || {
        for t in &hashed {
            black_box(stateless.decide(black_box(t)));
        }
    }));
    let block = [0x5au8; 45];
    out.push(per_packet("crypto.sha256_block_ns", 4096, || {
        for _ in 0..4096 {
            black_box(Sha256::digest_one_block(black_box(&block)));
        }
    }));
    let mib = vec![0xa5u8; 1 << 20];
    let (ns_per_byte, reps) = time_per_item(1 << 20, 9, || {
        black_box(Sha256::digest(black_box(&mib)));
    });
    out.push(value("crypto.sha256_mb_s", 1e3 / ns_per_byte, reps));
    let (ns_per_byte, reps) = time_per_item(1 << 20, 9, || {
        black_box(HmacSha256::mac(&key, black_box(&mib)));
    });
    out.push(value("crypto.hmac_mb_s", 1e3 / ns_per_byte, reps));
    let group = DhGroup::modp_2048();
    let peer = group.key_pair_from_secret(&rng.key()).public_bytes();
    out.push(ms_of("crypto.dh_ms", 3, || {
        let dh_secret = rng.key();
        time_ms(|| {
            let pair = group.key_pair_from_secret(&dh_secret);
            black_box(pair.shared_secret(&peer).expect("valid peer value"));
        })
        .1
    }));

    // core.hybrid
    let mut hybrid = HybridFilter::new(StatelessFilter::new(ruleset.clone(), secret), 500_000);
    let mut verdicts = Vec::with_capacity(n);
    hybrid.decide_batch(&tuples, &mut verdicts);
    hybrid.apply_update_period();
    out.push(per_packet("probe.hybrid_ns", n, || {
        for burst in tuples.chunks(BURST) {
            verdicts.clear();
            hybrid.decide_batch(black_box(burst), &mut verdicts);
        }
    }));
    verdicts.clear();
    hybrid.decide_batch(&tuples, &mut verdicts);

    // sketch.cms / core.logs
    let mut sketch = CountMinSketch::new(PacketLogs::outgoing_config(sketch_seed));
    out.push(per_packet("probe.sketch_add_ns", n, || {
        for burst in tuple_fps.chunks(BURST) {
            sketch.add_batch_fingerprints(black_box(burst), 1);
        }
    }));
    let mut logs = PacketLogs::new(sketch_seed);
    out.push(per_packet("probe.log_ns", n, || {
        for (f, v) in fps.chunks(BURST).zip(verdicts.chunks(BURST)) {
            logs.log_batch_fingerprints(black_box(f), v);
        }
    }));
    out.push(value("logs.memory_bytes", logs.memory_bytes() as f64, 1));
    let other = CountMinSketch::new(PacketLogs::outgoing_config(sketch_seed));
    out.push(ms_of("sketch.compare_ms", 9, || {
        time_ms(|| black_box(compare(&sketch, &other).expect("same configuration"))).1
    }));

    // sgx.enclave + core.enclave_app, on an enclave keyed like a live slice
    let root = AttestationRootKey::new(rng.key());
    let platform = SgxPlatform::new(seed ^ 0x9e0b, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-filter", 1, vec![0x90; 1 << 16]);
    let mut app = FilterEnclaveApp::new(ruleset.clone(), secret, sketch_seed, key);
    let scoped = tenants.len() > 1 || tenants[0].contract != 0;
    for t in tenants.iter().filter(|_| scoped) {
        app.provision_contract(t.contract, Some(prefix_of(t.prefix)), sketch_seed, key);
    }
    let contract = tenants[0].contract;
    let enclave = Arc::new(platform.launch(image, app));
    out.push(value(
        "probe.entry_ns",
        time_per_item(4096, 15, || {
            for _ in 0..4096 {
                enclave.in_enclave_thread(|app| {
                    black_box(app);
                });
            }
        })
        .0 / BURST as f64,
        15,
    ));
    out.push(value(
        "probe.ecall_us",
        time_per_item(4096, 15, || {
            for _ in 0..4096 {
                enclave.ecall(|app| {
                    black_box(app);
                });
            }
        })
        .0 / 1e3,
        15,
    ));
    let sized: Vec<(FiveTuple, u64)> = tuples.iter().map(|t| (*t, u64::from(WIRE_SIZE))).collect();
    enclave.ecall(|app| {
        app.process_batch(&sized, &mut verdicts);
        app.apply_update_period();
    });
    out.push(per_packet("probe.app_batch_ns", n, || {
        enclave.in_enclave_thread(|app| {
            for burst in sized.chunks(BURST) {
                app.process_batch(black_box(burst), &mut verdicts);
            }
        });
    }));
    let mut stage = EnclaveFilterStage::new(Arc::clone(&enclave), MODE);
    let mut outcomes = Vec::with_capacity(BURST);
    out.push(per_packet("probe.stage_ns", n, || {
        for burst in pkts.chunks(BURST) {
            outcomes.clear();
            stage.process_batch(black_box(burst), &mut outcomes);
        }
    }));
    out.push(value(
        "app.table_bytes",
        enclave.ecall(|app| app.table_bytes()) as f64,
        1,
    ));
    let mut exports = Vec::new();
    out.push(ms_of("app.export_ms", 6, || {
        let direction = if exports.len() % 2 == 0 {
            LogDirection::Outgoing
        } else {
            LogDirection::Incoming
        };
        let (export, ms) = time_ms(|| enclave.ecall(|app| app.export_log_for(contract, direction)));
        exports.push(export);
        ms
    }));
    out.push(ms_of("logs.verify_ms", exports.len(), || {
        let export = exports.pop().expect("one export per repetition");
        time_ms(|| black_box(export.verify(&key).expect("authentic export"))).1
    }));
    out.push(ms_of("app.rotate_ms", 5, || {
        time_ms(|| enclave.ecall(|app| app.new_round_for(contract))).1
    }));
    out.push(ms_of("app.snapshot_ms", 5, || {
        time_ms(|| {
            black_box(enclave.ecall(|app| app.take_publish_snapshot_for(contract)))
                .expect("known contract");
        })
        .1
    }));
    out.push(ms_of("app.swap_ms", 5, || {
        let replica = ruleset.clone();
        time_ms(|| enclave.ecall(|app| app.install_published_for(contract, replica, &[]))).1
    }));

    // core.session / core.scale: the real §VI-B path on a two-slice
    // cluster carrying the workload's rules
    let mut dep = Deployment::launch(seed ^ 0x9a0b, 2, tenants);
    out.push(median_of("session.establish_ms", &dep.establish_ms));
    let publishes: Vec<PublishTimes> = (1..=5)
        .map(|epoch| dep.churn(&churn_rules(epoch)))
        .collect();
    assert!(publishes.iter().all(|p| p.ok), "probe publish failed");
    let submit: Vec<f64> = publishes.iter().map(|p| p.submit_ms).collect();
    let total: Vec<f64> = publishes.iter().map(PublishTimes::total_ms).collect();
    out.push(median_of("session.submit_ms", &submit));
    out.push(value(
        "scale.publish_p95_ms",
        crate::stats::percentile(&total, 95.0),
        total.len(),
    ));
    let part = |name: &str| {
        out.iter()
            .find(|m| m.name == name)
            .expect("probed above")
            .value
    };
    let explained = part("app.snapshot_ms")
        + part("ruleset.rebuild_ms")
        + 2.0 * (part("ruleset.clone_ms") + part("app.swap_ms"))
        + part("session.submit_ms");
    out.push(value(
        "scale.publish_residual_ms",
        crate::stats::median(&total) - explained,
        total.len(),
    ));
    dep.cluster.quarantine_slice(1);
    out.push(value(
        "scale.relaunch_ms",
        time_ms(|| dep.cluster.relaunch_slice(1)).1,
        1,
    ));
    let (report, resync_ms) = time_ms(|| dep.cluster.resync_slice(0, 1));
    let in_force = dep.cluster.enclaves()[0].ecall(|app| app.ruleset().active_len());
    assert_eq!(report.rules, in_force, "resync replays every rule");
    out.push(value("scale.resync_ms", resync_ms, 1));

    // optimizer.arbiter / scenario / telemetry
    let demands = [
        ContractDemand {
            contract: 1,
            rule_bandwidths_gbps: vec![0.5; 8],
        },
        ContractDemand {
            contract: 2,
            rule_bandwidths_gbps: vec![0.25; 4],
        },
    ];
    let arbiter = ArbiterConfig {
        lambda: 0.0,
        ..Default::default()
    };
    out.push(ms_of("arbiter.arbitrate_ms", 5, || {
        time_ms(|| black_box(arbitrate(&arbiter, &demands))).1
    }));
    let scenarios = [
        attacked_scenario(seed, CAMPAIGN_ROUNDS),
        flash_crowd_scenario(seed ^ 0xb, CAMPAIGN_ROUNDS),
    ];
    out.push(ms_of("scenario.compile_ms", 3, || {
        time_ms(|| {
            for s in &scenarios {
                black_box(s.compile());
            }
        })
        .1
    }));
    out
}

/// `snapshot` + JSON rendering of a hub that saw `events` events, µs.
pub fn probe_telemetry_snapshot(workers: usize, events: u64) -> Metric {
    let hub = TelemetryHub::new(workers, &[0], 4096);
    for i in 0..events {
        hub.record_event(EventKind::FlushBarrier, 0, i, 32);
    }
    ms_of("telemetry.snapshot_us", 9, || {
        time_ms(|| black_box(hub.snapshot(64).to_json())).1 * 1e3
    })
}
