//! Scale-out: the replicated serving pool (§IV).
//!
//! [`EnclaveCluster`] is the pool the live service runs: `n` enclave
//! slices that each hold the **full** rule set, with every flow steered by
//! a public hash of its five tuple ([`vif_dataplane::shard_of`], failing
//! over through [`SliceLifecycle::steer`]). Verifiers recompute the
//! steering, so no slice counts misroutes. The master (slice 0) takes the
//! victims' sessions, and epoch publication, provisioning, quarantine and
//! rejoin keep every live slice on the master's rules.

use crate::enclave_app::{ContractId, FilterEnclaveApp, PublishSnapshot, RuleEdit};
use crate::retry::RetryPolicy;
use crate::ruleset::{RuleId, RuleSet};
use std::collections::BTreeMap;
use std::sync::Arc;
use vif_dataplane::{SliceEvent, SliceLifecycle, SliceState};
use vif_sgx::{Enclave, EnclaveImage, SgxPlatform};
use vif_telemetry::{EventKind, TelemetryHub};

/// Report of one epoch publication ([`EnclaveCluster::publish_contract`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishReport {
    /// Queued edits drained from the master (withdrawals of ids the
    /// contract does not own are discarded at the drain, uncounted).
    pub edits: usize,
    /// Installs among them (ids assigned in queue order from the
    /// pre-publication slot count).
    pub installs: usize,
    /// Withdrawals that were actually in force.
    pub withdrawals: usize,
    /// The master's epoch counter after the swap.
    pub epoch: u64,
    /// Global ids the drained installs were assigned, in queue order.
    pub new_rule_ids: Vec<RuleId>,
    /// Install re-sends forced by lost publish acks (see
    /// [`EnclaveCluster::set_publish_ack_loss`]); zero on healthy runs.
    pub ack_retries: u64,
    /// Slices whose ack never arrived within the retry budget — the
    /// publisher posted `AckLost` for them during this publication.
    pub ack_lost_slices: Vec<usize>,
}

/// Fault hook deciding whether a slice's publish ack is lost:
/// `(slice, attempt) -> true` drops the ack for that install attempt.
pub type PublishAckHook = Box<dyn FnMut(usize, u32) -> bool + Send>;

/// Report of one slice state resync ([`EnclaveCluster::resync_slice`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncReport {
    /// The slice that was resynced.
    pub slice: usize,
    /// Active rules replayed from the master.
    pub rules: usize,
    /// Contract slots replayed (scope + epoch + ownership; never keys).
    pub contracts: usize,
    /// The cluster-wide epoch the slice was brought up to.
    pub epoch: u64,
}

/// The replicated serving pool: `n` enclave slices that each hold the
/// full rule set, steered by the public RSS hash (see the module docs).
pub struct EnclaveCluster {
    enclaves: Vec<Arc<Enclave<FilterEnclaveApp>>>,
    full_ruleset: RuleSet,
    platform: SgxPlatform,
    image: EnclaveImage,
    secret: [u8; 32],
    /// Where each slice stands: the cluster reads `published` (who gets
    /// epochs, provisioning, telemetry) from it; the deployment's service
    /// and round drivers share it by handle and steer with it.
    lifecycle: Arc<SliceLifecycle>,
    /// Optional publish-ack fault hook (test/bench injection only).
    publish_ack_loss: Option<PublishAckHook>,
    /// Optional telemetry hub: epoch publications and slice rejoins land
    /// in its flight recorder.
    telemetry: Option<Arc<TelemetryHub>>,
}

impl EnclaveCluster {
    /// Install re-sends a slice gets before its lost publish acks turn it
    /// `Mute` (initial send + `attempts` re-sends). Flat: the
    /// publisher re-sends back-to-back; backoff lives in the transport
    /// model, not here.
    pub const PUBLISH_ACK_RETRY: RetryPolicy = RetryPolicy::flat(3);

    /// Launches an RSS-sharded cluster: `n` identical enclaves, each
    /// holding the **full** rule set.
    ///
    /// This is the deployment shape behind the live sharded service
    /// ([`vif_dataplane::DataplaneService`]): flows are steered to workers by a
    /// public hash of the five tuple ([`vif_dataplane::shard_of`]) rather
    /// than by matched rule, so every slice must be able to decide any
    /// flow — replication trades EPC headroom for steering that verifiers
    /// can recompute without trusting the balancer. Strict scoping stays
    /// off: with every rule everywhere, an unmatched flow is
    /// default-allowed benign traffic, not evidence of misrouting.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn launch_rss(
        platform: SgxPlatform,
        image: EnclaveImage,
        ruleset: RuleSet,
        n: usize,
        secret: [u8; 32],
        sketch_seed: u64,
        audit_key: [u8; 32],
    ) -> Self {
        let app = FilterEnclaveApp::new(ruleset.clone(), secret, sketch_seed, audit_key);
        let master = Arc::new(platform.launch(image.clone(), app));
        Self::launch_rss_with(
            platform,
            image,
            master,
            ruleset,
            n,
            secret,
            sketch_seed,
            audit_key,
        )
    }

    /// Launches an RSS-replicated cluster around an **existing master
    /// enclave** (slice 0) — the deployment shape behind the scenario
    /// harness's control loop: the victim attests the master and installs
    /// rules through its §VI-B session; the master then provisions `n - 1`
    /// slave replicas over attested channels (modeled by fresh launches
    /// holding the same rule set and session keys), and epoch publications
    /// ([`publish_contract`](EnclaveCluster::publish_contract)) keep them
    /// in sync with the master through live churn.
    ///
    /// `ruleset` must be the master's currently installed rule set (the
    /// caller typically just cloned it out of the master);
    /// `sketch_seed` / `audit_key` are the session-derived keys so every
    /// slice's logs audit under one session.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[allow(clippy::too_many_arguments)] // deliberate: every key is distinct session state
    pub fn launch_rss_with(
        platform: SgxPlatform,
        image: EnclaveImage,
        master: Arc<Enclave<FilterEnclaveApp>>,
        ruleset: RuleSet,
        n: usize,
        secret: [u8; 32],
        sketch_seed: u64,
        audit_key: [u8; 32],
    ) -> Self {
        assert!(n > 0, "at least one shard");
        let mut enclaves = Vec::with_capacity(n);
        enclaves.push(master);
        enclaves.extend((1..n).map(|_| {
            let app = FilterEnclaveApp::new(ruleset.clone(), secret, sketch_seed, audit_key);
            Arc::new(platform.launch(image.clone(), app))
        }));
        EnclaveCluster {
            enclaves,
            full_ruleset: ruleset,
            platform,
            image,
            secret,
            lifecycle: Arc::new(SliceLifecycle::new(n)),
            publish_ack_loss: None,
            telemetry: None,
        }
    }

    /// Number of enclaves.
    pub fn len(&self) -> usize {
        self.enclaves.len()
    }

    /// True if the cluster has no enclaves.
    pub fn is_empty(&self) -> bool {
        self.enclaves.is_empty()
    }

    /// The enclaves.
    pub fn enclaves(&self) -> &[Arc<Enclave<FilterEnclaveApp>>] {
        &self.enclaves
    }

    /// The rule set every slice replicates (the master's, as of the last
    /// publication).
    pub fn ruleset(&self) -> &RuleSet {
        &self.full_ruleset
    }

    /// The deployment's slice-lifecycle table, one entry per enclave (for
    /// `DataplaneService::with_lifecycle`, `ClusterRoundDriver::with_lifecycle`).
    pub fn lifecycle(&self) -> &Arc<SliceLifecycle> {
        &self.lifecycle
    }

    /// Indices of the slices publication reaches, ascending.
    pub fn live_slices(&self) -> Vec<usize> {
        self.lifecycle.slices_where(SliceState::published)
    }

    /// Number of slices publication reaches.
    pub fn live_len(&self) -> usize {
        self.live_slices().len()
    }

    /// Excises slice `i` from the pool (posts `Excise`): no more epoch
    /// publications or provisioning, telemetry ignored, not audited, and
    /// dispatch re-steers its flows onto the survivors with the one public
    /// failover hash ([`SliceLifecycle::steer`]). Idempotent. Excising the
    /// last live slice is legal — what then refuses is every operation
    /// that needs a live master.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn quarantine_slice(&mut self, i: usize) {
        assert!(i < self.enclaves.len(), "slice index out of range");
        self.lifecycle
            .advance(i, SliceEvent::Excise)
            .expect("any slice can be excised");
    }

    /// Replaces quarantined slice `i` with a **freshly launched** enclave:
    /// empty rule set, no contract sessions, zeroed session keys — the
    /// state an enclave has before any victim attests it. This is the
    /// first leg of rejoin: the old enclave's state (and any keys it held
    /// at crash time) is discarded wholesale; a rejoining slice must
    /// re-attest and re-key through fresh handshakes, never by reusing
    /// pre-crash secrets. The slice stays quarantined until
    /// [`resync_slice`](EnclaveCluster::resync_slice) replays state onto
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or the slice is not quarantined
    /// (relaunching a live slice would drop in-force rules on the floor).
    pub fn relaunch_slice(&mut self, i: usize) {
        assert!(i < self.enclaves.len(), "slice index out of range");
        assert!(
            self.lifecycle.state(i) == SliceState::Quarantined,
            "relaunch targets a quarantined slice"
        );
        let app = FilterEnclaveApp::fresh(self.secret);
        self.enclaves[i] = Arc::new(self.platform.launch(self.image.clone(), app));
    }

    /// Replays the master's published state onto relaunched slice `i` and
    /// puts it on probation (posts `Resync`): the master's current rule set is
    /// installed wholesale, then every contract slot is mirrored —
    /// victim scope, per-contract epoch, rule ownership — via
    /// [`FilterEnclaveApp::resync_contract`], which deliberately leaves
    /// session keys and packet logs untouched. Callers that need keyed,
    /// auditable slots re-run the attested handshake per contract
    /// *before* resync (the harness does) or re-provision keys explicitly
    /// after; resync itself never copies a secret.
    ///
    /// # Panics
    ///
    /// Panics if `master == i`, if either index is out of range, if the
    /// master is not live (no authoritative replay source), or if `i` is
    /// not quarantined.
    pub fn resync_slice(&mut self, master: usize, i: usize) -> ResyncReport {
        assert!(master < self.enclaves.len(), "master index out of range");
        assert!(i < self.enclaves.len(), "slice index out of range");
        assert!(master != i, "a slice cannot resync from itself");
        self.assert_master_live(master);
        assert!(
            self.lifecycle.state(i) == SliceState::Quarantined,
            "resync targets a quarantined slice"
        );

        // Snapshot the master: its live rule epoch is authoritative (the
        // victim's session churn lands there), and its contract slots
        // carry the scope/epoch/ownership a rejoined slice must agree on.
        // The replay is a reference to the master's tables, not a copy.
        let master_rules = self.master_epoch(master);
        let contracts = self.enclaves[master].ecall(|app| app.contract_ids());
        let epoch = self.enclaves[master].ecall(|app| app.epoch());

        let replica = master_rules.clone();
        drop(self.enclaves[i].ecall(move |app| app.install_ruleset(replica)));
        for &contract in &contracts {
            let scope = self.enclaves[master].ecall(move |app| app.contract_scope(contract));
            let c_epoch = self.enclaves[master].ecall(move |app| app.epoch_of(contract));
            let owned = self.enclaves[master].ecall(move |app| app.owned_rules(contract));
            self.enclaves[i].ecall(move |app| {
                app.resync_contract(contract, scope, c_epoch, &owned);
            });
        }
        self.enclaves[i].ecall(move |app| app.resync_epoch(epoch));

        // On probation: publication, provisioning and telemetry include
        // the slice again; dispatch does once it is promoted.
        self.lifecycle
            .advance(i, SliceEvent::Resync)
            .expect("a quarantined slice can be resynced");
        if let Some(hub) = &self.telemetry {
            hub.record_event(EventKind::Rejoin, i as u32, epoch, contracts.len() as u64);
        }
        ResyncReport {
            slice: i,
            rules: master_rules.active_len(),
            contracts: contracts.len(),
            epoch,
        }
    }

    /// Convenience rejoin: [`relaunch_slice`](EnclaveCluster::relaunch_slice)
    /// then [`resync_slice`](EnclaveCluster::resync_slice), for callers
    /// without per-contract sessions (property tests, benches). The
    /// rejoined slice holds the master's rules but **no session keys** —
    /// its logs will not audit until a handshake or explicit
    /// re-provisioning keys it.
    pub fn rejoin_slice(&mut self, master: usize, i: usize) -> ResyncReport {
        self.relaunch_slice(i);
        self.resync_slice(master, i)
    }

    /// Installs a publish-ack fault hook: before each slice install is
    /// acknowledged, the hook decides whether that ack is lost
    /// (`(slice, attempt) -> true`), forcing the publisher to re-send.
    /// A slice that exhausts the retry budget
    /// ([`PUBLISH_ACK_RETRY`](EnclaveCluster::PUBLISH_ACK_RETRY)) goes
    /// `Mute` mid-publication. Test/bench injection only.
    pub fn set_publish_ack_loss(&mut self, hook: PublishAckHook) {
        self.publish_ack_loss = Some(hook);
    }

    /// Attaches a telemetry hub: every epoch publication records an
    /// [`EventKind::EpochPublish`] event and every slice resync an
    /// [`EventKind::Rejoin`] event in the hub's flight recorder, stamped
    /// from its virtual clock, and the lifecycle table records its
    /// quarantine / probation / promote / demote transitions there.
    pub fn set_telemetry(&mut self, hub: Arc<TelemetryHub>) {
        self.lifecycle.set_telemetry(Arc::clone(&hub));
        self.telemetry = Some(hub);
    }

    /// Operations that replay or publish the master's state need it live.
    fn assert_master_live(&self, master: usize) {
        assert!(
            self.lifecycle.state(master).published(),
            "master slice is quarantined"
        );
    }

    /// Matched bytes per in-force rule `contract` owns, summed over the
    /// live slices — the victim-side view of which of its rules still
    /// bite. RSS steering lands each flow on exactly one slice, so a rule
    /// matched only off the master is invisible in the master's counters
    /// alone; unpublished slices are skipped (unreachable and stale).
    pub fn contract_rule_bytes(&self, contract: ContractId) -> BTreeMap<RuleId, u64> {
        let mut bytes = BTreeMap::new();
        for i in self.live_slices() {
            let enclave = &self.enclaves[i];
            for (id, b) in enclave.ecall(move |app| app.contract_rule_bytes(contract)) {
                *bytes.entry(id).or_insert(0) += b;
            }
        }
        bytes
    }

    /// Publishes one rule epoch for one contract: takes a reference to the
    /// master's live tables and drains that contract's deferred-edit queue
    /// (accepted through the session's `*_deferred` calls or
    /// [`FilterEnclaveApp::queue_edits`]), applies the whole set and
    /// compiles **once**, *outside* any enclave lock, then swaps the new
    /// epoch into every live slice with a brief install ECall.
    ///
    /// This is the churn path of the always-on dataplane: the one step
    /// that is linear in the rule count — copying the flat rule arrays and
    /// compiling the classifier — happens on the publisher's thread while
    /// workers keep deciding packets against the old epoch. Everything
    /// else is independent of it: the snapshot and each slice's install
    /// move [`Arc`] handles on one set of immutable tables
    /// ([`RuleSet::tables`](crate::ruleset::RuleSet::tables)) shared by
    /// every slice and the cluster, the on-lock window is a pointer swap
    /// plus a cache restart (fresh counters ride in with the handle), and
    /// the displaced epoch is handed back out of the lock to be freed here.
    /// It is the only way a rule change reaches a slice: edits apply in
    /// queue order (installs take the next slot ids), every live slice ends
    /// on the identical rule set at the same epoch, hybrid caches flush,
    /// and rule telemetry counters restart. No slice ever enforces rules
    /// its epoch counter does not show.
    ///
    /// Other tenants' queued churn stays queued and their epochs do not
    /// move, and ownership is enforced where the queue is drained, inside
    /// the master enclave: a queued withdrawal only takes force if the id
    /// belongs to the contract (installed by it earlier, or by an install
    /// earlier in this same queue). Foreign ids are dropped silently,
    /// mirroring idempotent-withdrawal semantics, so one tenant can never
    /// unlink another tenant's rules no matter what it queues. The default
    /// contract 0 owns every rule installed outside a tenant session
    /// (launch-time rules, [`FilterEnclaveApp::queue_edits`]), so a
    /// single-victim cluster — one slice or many — publishes as
    /// `publish_contract(master, 0)`.
    ///
    /// Returns what was published; with an empty queue this still swaps
    /// (bumping the epoch) so callers can use it as a barrier.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range or unpublished master, or if the master
    /// has no slot for `contract`.
    pub fn publish_contract(&mut self, master: usize, contract: ContractId) -> PublishReport {
        assert!(master < self.enclaves.len(), "master index out of range");
        self.assert_master_live(master);
        let PublishSnapshot {
            tables,
            edits,
            epoch,
        } = self.enclaves[master]
            .ecall(move |app| app.take_publish_snapshot_for(contract))
            .expect("unknown contract");
        let mut rs = RuleSet::from_tables(tables);
        let mut new_rule_ids: Vec<RuleId> = Vec::new();
        let mut withdrawn: Vec<RuleId> = Vec::new();
        rs.batch_edit(|edit| {
            for e in &edits {
                match *e {
                    RuleEdit::Install(rule) => new_rule_ids.push(edit.insert(rule)),
                    RuleEdit::Withdraw(id) => {
                        if edit.remove(id) {
                            withdrawn.push(id);
                        }
                    }
                }
            }
        });
        withdrawn.sort_unstable();
        let (ack_retries, ack_lost_slices) =
            self.install_on_live(contract, epoch + 1, &rs, &new_rule_ids, &withdrawn);
        let epoch = self.enclaves[master].ecall(move |app| app.epoch_of(contract));
        if let Some(hub) = &self.telemetry {
            hub.record_event(
                EventKind::EpochPublish,
                master as u32,
                epoch,
                rs.active_len() as u64,
            );
        }
        // The cluster keeps one more handle on the shared tables.
        self.full_ruleset = rs;
        PublishReport {
            edits: edits.len(),
            installs: new_rule_ids.len(),
            withdrawals: withdrawn.len(),
            epoch,
            new_rule_ids,
            ack_retries,
            ack_lost_slices,
        }
    }

    /// The slice-install leg of publication: installs `rs` as `contract`'s
    /// epoch `epoch` on every live slice — each gets a handle on the same
    /// tables and its own zeroed counters — re-sending while the publish
    /// ack is lost (per the injected [`PublishAckHook`]); a slice already
    /// on `epoch` acknowledges a re-send without applying it again. A slice
    /// whose ack never arrives within
    /// [`PUBLISH_ACK_RETRY`](Self::PUBLISH_ACK_RETRY) re-sends gets
    /// `AckLost` posted: the publisher cannot distinguish "installed but
    /// mute" from "dead", so it stops publishing to the slice (`Mute`; a
    /// probation slice fails its probation). Returns `(total re-sends,
    /// slices lost)`.
    fn install_on_live(
        &mut self,
        contract: ContractId,
        epoch: u64,
        rs: &RuleSet,
        installed: &[RuleId],
        withdrawn: &[RuleId],
    ) -> (u64, Vec<usize>) {
        let mut ack_retries = 0u64;
        let mut lost = Vec::new();
        for i in self.live_slices() {
            let mut attempt = 0u32;
            loop {
                let replica = rs.clone();
                // The displaced epoch comes back out of the ECall: if this
                // was its last holder, the tables die here, off-lock.
                drop(self.enclaves[i].ecall(move |app| {
                    app.install_epoch_for(contract, epoch, replica, installed, withdrawn)
                }));
                let dropped = match self.publish_ack_loss.as_mut() {
                    Some(hook) => hook(i, attempt),
                    None => false,
                };
                if !dropped {
                    break;
                }
                if !Self::PUBLISH_ACK_RETRY.allows(attempt) {
                    self.lifecycle
                        .advance(i, SliceEvent::AckLost)
                        .expect("a published slice can lose its acks");
                    lost.push(i);
                    break;
                }
                attempt += 1;
                ack_retries += 1;
            }
        }
        assert!(self.live_len() > 0, "publish acks lost on every slice");
        (ack_retries, lost)
    }

    /// A handle on the master's live rule epoch (shared tables, zeroed
    /// counters) — what resync and re-replication install elsewhere.
    fn master_epoch(&self, master: usize) -> RuleSet {
        RuleSet::from_tables(self.enclaves[master].ecall(|app| Arc::clone(app.ruleset().tables())))
    }

    /// Provisions a contract slot (scope + audit keys) on **every** slice,
    /// so packets for the contract's prefix are attributed to its sketches
    /// no matter which enclave the balancer picks. Call after the
    /// contract's session handshake (which only lands on one slice).
    pub fn provision_contract(
        &self,
        contract: ContractId,
        scope: Option<vif_trie::Ipv4Prefix>,
        sketch_seed: u64,
        audit_key: [u8; 32],
    ) {
        for i in self.live_slices() {
            self.enclaves[i].ecall(move |app| {
                app.provision_contract(contract, scope, sketch_seed, audit_key);
            });
        }
    }

    /// Builds the per-contract demand signals the admission arbiter
    /// consumes: each contract the master holds, with one bandwidth per
    /// owned, in-force rule from its matched bytes summed over the live
    /// slices ([`contract_rule_bytes`](EnclaveCluster::contract_rule_bytes))
    /// across `window_secs` of traffic. Freshly installed rules that have
    /// not matched traffic yet demand `floor_gbps` each so admission is
    /// conservative rather than free.
    pub fn contract_demands(
        &self,
        master: usize,
        window_secs: f64,
        floor_gbps: f64,
    ) -> Vec<vif_optimizer::ContractDemand> {
        let ids = self.enclaves[master].ecall(|app| app.contract_ids());
        ids.into_iter()
            .map(|contract| vif_optimizer::ContractDemand {
                contract,
                rule_bandwidths_gbps: self
                    .contract_rule_bytes(contract)
                    .into_values()
                    .map(|bytes| (bytes as f64 * 8.0 / 1e9 / window_secs.max(1e-9)).max(floor_gbps))
                    .collect(),
            })
            .collect()
    }

    /// Re-runs multi-tenant admission over the **surviving** pool: builds
    /// fresh [`contract_demands`](EnclaveCluster::contract_demands) from
    /// the live slices' counters and arbitrates them with `config.max_enclaves`
    /// clamped to the live slice count — the budget step of rule failover
    /// after quarantine shrinks the pool. Contracts admitted under the
    /// full pool may come back `Rejected`; the caller (the scenario
    /// harness, or an operator) decides whether to shed them or run them
    /// degraded.
    ///
    /// # Panics
    ///
    /// Panics if the master is not live or out of range.
    pub fn rearbitrate(
        &self,
        master: usize,
        window_secs: f64,
        floor_gbps: f64,
        mut config: vif_optimizer::ArbiterConfig,
    ) -> vif_optimizer::Arbitration {
        assert!(master < self.enclaves.len(), "master index out of range");
        self.assert_master_live(master);
        config.max_enclaves = config.max_enclaves.min(self.live_len());
        let demands = self.contract_demands(master, window_secs, floor_gbps);
        vif_optimizer::arbitrate(&config, &demands)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FilterRule, FlowPattern, RuleAction};
    use vif_dataplane::lifecycle::PROBATION_ROUNDS;
    use vif_dataplane::{FiveTuple, Protocol};
    use vif_sgx::{AttestationRootKey, EpcConfig};
    use vif_trie::Ipv4Prefix;

    fn victim() -> Ipv4Prefix {
        "203.0.113.0/24".parse().unwrap()
    }

    fn ruleset(k: usize) -> RuleSet {
        RuleSet::from_rules((0..k as u32).map(|i| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::new(0x0a000000 + (i << 8), 24),
                victim(),
            ))
        }))
    }

    /// Decides one packet where the service would: the public RSS hash,
    /// re-steered by the lifecycle if its home slice is not steered.
    fn dispatch(c: &EnclaveCluster, t: &FiveTuple, wire_bytes: u64) -> (RuleAction, usize) {
        let home = vif_dataplane::shard_of(t, c.len());
        let i = c.lifecycle().steer(t.tuple_fingerprint(), home);
        let action = c.enclaves()[i].in_enclave_thread(|app| app.process(t, wire_bytes).action);
        (action, i)
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
    fn rss_cluster_replicates_rules_and_preserves_connections() {
        let root = AttestationRootKey::new([3u8; 32]);
        let platform = SgxPlatform::new(2, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif", 1, vec![0; 64]);
        let c =
            EnclaveCluster::launch_rss(platform, image, ruleset(10), 4, [7u8; 32], 99, [8u8; 32]);
        assert_eq!(c.len(), 4);
        // Every slice holds the full rule set, so matching traffic is
        // dropped wherever the public RSS hash lands it.
        for e in c.enclaves() {
            assert_eq!(e.ecall(|app| app.ruleset().len()), 10);
        }
        for r in 0..10 {
            let (action, _) = dispatch(&c, &attack_tuple(r, 1), 64);
            assert_eq!(action, RuleAction::Drop);
        }
    }

    #[test]
    fn replicated_publish_propagates_master_churn() {
        let root = AttestationRootKey::new([3u8; 32]);
        let platform = SgxPlatform::new(5, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif", 1, vec![0; 64]);
        let mut c =
            EnclaveCluster::launch_rss(platform, image, ruleset(4), 3, [7u8; 32], 99, [8u8; 32]);
        // Traffic lands on every replica; telemetry aggregates across them.
        for r in 0..4 {
            for f in 0..6 {
                let (action, _) = dispatch(&c, &attack_tuple(r, f), 100);
                assert_eq!(action, RuleAction::Drop);
            }
        }
        // Rule 0 carried 6 × 100 bytes; the cluster routed per flow, so
        // the total across replicas is exactly the offered bytes per rule.
        let bytes = c.contract_rule_bytes(0);
        assert_eq!(bytes.values().collect::<Vec<_>>(), vec![&600; 4]);
        let spread = c
            .enclaves()
            .iter()
            .filter(|e| e.ecall(|app| app.ruleset().counters().iter().any(|k| k.bytes > 0)))
            .count();
        assert!(spread > 1, "all traffic landed on one replica");
        // The master churns: one rule withdrawn, one new rule installed
        // (as the victim's session queues them between rounds).
        let new_rule = FilterRule::drop(FlowPattern::prefixes(
            "12.0.0.0/8".parse().unwrap(),
            victim(),
        ));
        c.enclaves()[0].ecall(move |app| {
            app.queue_edits([RuleEdit::Withdraw(0), RuleEdit::Install(new_rule)]);
        });
        let report = c.publish_contract(0, 0);
        assert_eq!((report.withdrawals, report.installs), (1, 1));
        assert_eq!(report.new_rule_ids, vec![4]);
        // 4 originals - 1 withdrawn + 1 new = 4 active rules on 3 slices,
        // every one on the master's epoch.
        for e in c.enclaves() {
            assert_eq!(
                e.ecall(|app| (app.ruleset().active_len(), app.epoch_of(0))),
                (4, 1)
            );
        }
        // Every replica now enforces the master's churned rule set: the
        // withdrawn rule no longer drops, the new rule drops everywhere.
        let withdrawn = attack_tuple(0, 1);
        let new_hit = FiveTuple::new(
            0x0c000001,
            u32::from_be_bytes([203, 0, 113, 1]),
            5,
            80,
            Protocol::Udp,
        );
        for e in c.enclaves() {
            let w = withdrawn;
            let nh = new_hit;
            let (wd, nd) = e.in_enclave_thread(move |app| {
                (app.process(&w, 64).action, app.process(&nh, 64).action)
            });
            assert_eq!(wd, RuleAction::Allow, "withdrawn rule still enforced");
            assert_eq!(nd, RuleAction::Drop, "new rule missing on a replica");
        }
        // Replication invariant: full slices.
        for e in c.enclaves() {
            assert_eq!(e.ecall(|app| app.ruleset().len()), c.ruleset().len());
        }
    }

    fn rss_cluster(rules: usize, n: usize) -> EnclaveCluster {
        let root = AttestationRootKey::new([3u8; 32]);
        let platform = SgxPlatform::new(2, EpcConfig::paper_default(), &root);
        let image = EnclaveImage::new("vif", 1, vec![0; 64]);
        EnclaveCluster::launch_rss(platform, image, ruleset(rules), n, [7u8; 32], 99, [8u8; 32])
    }

    #[test]
    fn quarantined_slice_excised_from_publication_and_dispatch() {
        let mut c = rss_cluster(6, 3);
        c.quarantine_slice(2);
        assert_eq!(c.live_slices(), vec![0, 1]);
        assert_eq!(c.live_len(), 2);
        // Master churn published after the quarantine: survivors get the
        // new epoch, the dead slice keeps its stale rules untouched.
        let new_rule = FilterRule::drop(FlowPattern::prefixes(
            "12.0.0.0/8".parse().unwrap(),
            victim(),
        ));
        c.enclaves()[0].ecall(move |app| app.queue_edits([RuleEdit::Install(new_rule)]));
        let report = c.publish_contract(0, 0);
        assert_eq!(report.installs, 1);
        assert_eq!(report.ack_retries, 0);
        assert!(report.ack_lost_slices.is_empty());
        let new_hit = FiveTuple::new(
            0x0c000001,
            u32::from_be_bytes([203, 0, 113, 1]),
            5,
            80,
            Protocol::Udp,
        );
        for i in [0usize, 1] {
            let nh = new_hit;
            let action = c.enclaves()[i].in_enclave_thread(move |app| app.process(&nh, 64).action);
            assert_eq!(action, RuleAction::Drop, "survivor {i} missed the epoch");
        }
        let nh = new_hit;
        let stale = c.enclaves()[2].in_enclave_thread(move |app| app.process(&nh, 64).action);
        assert_eq!(stale, RuleAction::Allow, "dead slice must not be installed");
        // Dispatch fails over with the live service's hash: flows the RSS
        // hash maps onto the dead slice land on
        // live[shard_of_fingerprint(fp, live)], everything else stays put.
        for r in 0..6 {
            for f in 0..8 {
                let t = attack_tuple(r, f);
                let (_, enclave) = dispatch(&c, &t, 64);
                let home = vif_dataplane::shard_of(&t, 3);
                let expect = if home == 2 {
                    [0, 1][vif_dataplane::shard_of_fingerprint(t.tuple_fingerprint(), 2)]
                } else {
                    home
                };
                assert_eq!(enclave, expect, "rule {r} flow {f}");
            }
        }
        // Telemetry aggregation ignores the dead slice's stale counters.
        let live_bytes: u64 = c.contract_rule_bytes(0).values().sum();
        let survivor_bytes: u64 = [0usize, 1]
            .iter()
            .map(|&i| {
                c.enclaves()[i].ecall(|app| {
                    app.ruleset()
                        .counters()
                        .iter()
                        .map(|k| k.bytes)
                        .sum::<u64>()
                })
            })
            .sum();
        assert_eq!(live_bytes, survivor_bytes);
    }

    /// Per live slice: contract 0's epoch and owned ids.
    fn epochs_and_ownership(c: &EnclaveCluster) -> Vec<(u64, Vec<RuleId>)> {
        c.live_slices()
            .into_iter()
            .map(|i| c.enclaves()[i].ecall(|app| (app.epoch_of(0), app.owned_rules(0))))
            .collect()
    }

    #[test]
    fn publish_ack_loss_retries_then_quarantines() {
        let mut c = rss_cluster(4, 3);
        // Transient: slice 1 eats two acks, then the network heals — the
        // publisher re-sends and nobody is quarantined.
        c.set_publish_ack_loss(Box::new(|slice, attempt| slice == 1 && attempt < 2));
        let report = c.publish_contract(0, 0);
        assert_eq!(report.ack_retries, 2);
        assert!(report.ack_lost_slices.is_empty());
        assert_eq!(c.live_len(), 3);
        // The re-sends were acknowledged, not applied again: every slice
        // is on the one epoch that was published.
        assert_eq!(epochs_and_ownership(&c), vec![(1, vec![0, 1, 2, 3]); 3]);
        // Same with installs and a withdrawal in the lossy publication: a
        // re-delivered epoch must not re-extend ownership either.
        let rule = |octet: u8| {
            FilterRule::drop(FlowPattern::prefixes(
                Ipv4Prefix::new(u32::from(octet) << 24, 8),
                victim(),
            ))
        };
        c.enclaves()[0].ecall(|app| {
            app.queue_edits([
                RuleEdit::Install(rule(12)),
                RuleEdit::Withdraw(1),
                RuleEdit::Install(rule(13)),
            ])
        });
        let report = c.publish_contract(0, 0);
        assert_eq!(report.ack_retries, 2);
        assert_eq!(report.new_rule_ids, vec![4, 5]);
        assert_eq!(report.withdrawals, 1);
        assert_eq!(epochs_and_ownership(&c), vec![(2, vec![0, 2, 3, 4, 5]); 3]);
        for e in c.enclaves() {
            assert_eq!(e.ecall(|app| app.epoch()), 2, "app-wide epoch ticks once");
        }
        // Permanent: slice 2 never acks — the retry budget runs out and
        // the publisher excises it mid-publication.
        c.set_publish_ack_loss(Box::new(|slice, _| slice == 2));
        let report = c.publish_contract(0, 0);
        assert_eq!(
            report.ack_retries,
            u64::from(EnclaveCluster::PUBLISH_ACK_RETRY.attempts)
        );
        assert_eq!(report.ack_lost_slices, vec![2]);
        // Mute: no longer published to, still steered and audited.
        assert_eq!(c.lifecycle().state(2), SliceState::Mute);
        assert_eq!(c.live_slices(), vec![0, 1]);
        let t = attack_tuple(0, 1);
        assert_eq!(c.lifecycle().steer(t.tuple_fingerprint(), 2), 2);
        // Subsequent publications skip the mute slice entirely: the
        // still-lossy hook for slice 2 is never consulted again.
        let report = c.publish_contract(0, 0);
        assert_eq!(report.ack_retries, 0);
        assert!(report.ack_lost_slices.is_empty());
        assert_eq!(epochs_and_ownership(&c), vec![(4, vec![0, 2, 3, 4, 5]); 2]);
    }

    #[test]
    fn rejoined_slice_replays_master_state_and_restores_dispatch() {
        let mut c = rss_cluster(6, 3);
        c.quarantine_slice(2);
        // Master churn while slice 2 is dead: the survivors move to a new
        // epoch the dead slice never saw.
        let new_rule = FilterRule::drop(FlowPattern::prefixes(
            "12.0.0.0/8".parse().unwrap(),
            victim(),
        ));
        c.enclaves()[0].ecall(move |app| app.queue_edits([RuleEdit::Install(new_rule)]));
        c.publish_contract(0, 0);

        let report = c.rejoin_slice(0, 2);
        assert_eq!(report.slice, 2);
        assert_eq!(report.rules, 7, "6 seeded rules + 1 published install");
        assert_eq!(report.contracts, 1, "default contract slot");
        assert_eq!(c.lifecycle().state(2), SliceState::Probation);
        assert_eq!(c.live_len(), 3, "a probation slice is published to");

        // The fresh slice decides the epoch it missed...
        let new_hit = FiveTuple::new(
            0x0c000001,
            u32::from_be_bytes([203, 0, 113, 1]),
            5,
            80,
            Protocol::Udp,
        );
        let nh = new_hit;
        let action = c.enclaves()[2].in_enclave_thread(move |app| app.process(&nh, 64).action);
        assert_eq!(action, RuleAction::Drop, "rejoined slice missed the epoch");
        assert_eq!(
            c.enclaves()[2].ecall(|app| app.epoch()),
            c.enclaves()[0].ecall(|app| app.epoch()),
            "epoch counters must agree after resync"
        );

        // ...dispatch keeps failing over while it serves its probation...
        for r in 0..6 {
            let t = attack_tuple(r, 0);
            assert_ne!(dispatch(&c, &t, 64).1, 2, "probation slice steered");
        }
        // ...and once every auditing tenant has voted it clean for the
        // whole window, steers home shards onto it again, byte-identical
        // to the pre-crash assignment...
        for _ in 0..PROBATION_ROUNDS {
            c.lifecycle()
                .advance(2, SliceEvent::ProbationClean)
                .unwrap();
            c.lifecycle().settle_round(1);
        }
        assert_eq!(c.lifecycle().state(2), SliceState::Live);
        for r in 0..6 {
            for f in 0..8 {
                let t = attack_tuple(r, f);
                let (_, enclave) = dispatch(&c, &t, 64);
                assert_eq!(
                    enclave,
                    vif_dataplane::shard_of(&t, 3),
                    "rule {r} flow {f} not steered home"
                );
            }
        }

        // ...and subsequent publications include it.
        let late_rule = FilterRule::drop(FlowPattern::prefixes(
            "13.0.0.0/8".parse().unwrap(),
            victim(),
        ));
        c.enclaves()[0].ecall(move |app| app.queue_edits([RuleEdit::Install(late_rule)]));
        c.publish_contract(0, 0);
        let late_hit = FiveTuple::new(
            0x0d000001,
            u32::from_be_bytes([203, 0, 113, 1]),
            5,
            80,
            Protocol::Udp,
        );
        let action =
            c.enclaves()[2].in_enclave_thread(move |app| app.process(&late_hit, 64).action);
        assert_eq!(
            action,
            RuleAction::Drop,
            "rejoined slice skipped by publish"
        );
    }

    #[test]
    #[should_panic(expected = "quarantined slice")]
    fn cannot_relaunch_live_slice() {
        let mut c = rss_cluster(2, 2);
        c.relaunch_slice(1);
    }

    #[test]
    #[should_panic(expected = "master slice is quarantined")]
    fn cannot_resync_from_quarantined_master() {
        let mut c = rss_cluster(2, 3);
        c.quarantine_slice(0);
        c.quarantine_slice(1);
        c.relaunch_slice(1);
        c.resync_slice(0, 1);
    }

    #[test]
    fn rearbitrate_clamps_budget_to_surviving_pool() {
        use vif_optimizer::{AdmissionVerdict, ArbiterConfig};
        let mut c = rss_cluster(6, 3);
        // 6 rules at a 4.5 Gb/s floor = 27 Gb/s of demand: fits the
        // 3-slice pool (9 Gb/s per slice), not the 2-slice pool that
        // remains after a quarantine (13.5 Gb/s > a slice's 10 Gb/s).
        let full = c.rearbitrate(0, 1.0, 4.5, ArbiterConfig::default());
        assert!(
            matches!(full.verdicts[0].1, AdmissionVerdict::Admitted { .. }),
            "{:?}",
            full.verdicts
        );
        c.quarantine_slice(2);
        let shrunk = c.rearbitrate(0, 1.0, 4.5, ArbiterConfig::default());
        assert!(
            matches!(shrunk.verdicts[0].1, AdmissionVerdict::Rejected { .. }),
            "pool shrank to 2 slices, 18 Gb/s cannot fit: {:?}",
            shrunk.verdicts
        );
        assert!(shrunk.allocation.enclaves.len() <= 2);
    }

    #[test]
    fn contract_demands_sum_every_live_slice() {
        // RSS puts each flow on one slice: rule 0's flows that hash off the
        // master still demand their bandwidth from the arbiter.
        let c = rss_cluster(2, 4);
        let off_master: Vec<FiveTuple> = (0..64)
            .map(|f| attack_tuple(0, f))
            .filter(|t| vif_dataplane::shard_of(t, 4) != 0)
            .collect();
        for t in &off_master {
            assert_ne!(dispatch(&c, t, 1_000).1, 0);
        }
        let bytes = off_master.len() as f64 * 1_000.0;
        let demands = c.contract_demands(0, 1.0, 0.0);
        assert_eq!(demands.len(), 1);
        assert_eq!(
            demands[0].rule_bandwidths_gbps,
            vec![bytes * 8.0 / 1e9, 0.0],
            "one second of rule 0's off-master bytes, nothing on rule 1"
        );
    }

    /// Every slice down is a legal state (the service can lose every
    /// worker) and dispatch stays total; what refuses is each operation
    /// that needs a live master — resync here, publication below.
    #[test]
    #[should_panic(expected = "master slice is quarantined")]
    fn every_slice_down_is_legal_but_nothing_resyncs_without_a_master() {
        let mut c = rss_cluster(2, 2);
        c.quarantine_slice(0);
        c.quarantine_slice(1);
        assert_eq!(c.live_len(), 0);
        let t = attack_tuple(0, 1);
        let home = vif_dataplane::shard_of(&t, 2);
        assert_eq!(dispatch(&c, &t, 64).1, home, "steering stays total");
        c.relaunch_slice(1);
        c.resync_slice(0, 1);
    }

    #[test]
    #[should_panic(expected = "master slice is quarantined")]
    fn quarantined_master_cannot_publish() {
        let mut c = rss_cluster(2, 2);
        c.quarantine_slice(0);
        c.publish_contract(0, 0);
    }
}
