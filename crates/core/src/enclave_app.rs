//! The VIF filter application that lives inside an SGX enclave.
//!
//! [`FilterEnclaveApp`] is the protected state of a
//! [`vif_sgx::Enclave`]`<FilterEnclaveApp>`: rules with their per-rule
//! byte counters, packet logs, and channel secrets. [`EnclaveFilterStage`]
//! adapts it to the dataplane's [`PacketStage`] seam, standing in for the
//! filter thread pinned to a CPU core in the paper's Fig. 6.

use crate::cost::FilterMode;
use crate::filter::{DecisionPath, StatelessFilter, Verdict};
use crate::hybrid::HybridFilter;
use crate::logs::{AuthenticatedSketch, LogDirection, PacketFingerprints, PacketLogs};
use crate::rpki::{OwnerId, RpkiRegistry};
use crate::rules::{FilterRule, RuleAction, RuleDecodeError};
use crate::ruleset::{RuleId, RuleSet, RuleTables};
use crate::session::{derive_session_keys, SessionError};
use std::sync::Arc;
use vif_crypto::channel::SecureChannel;
use vif_crypto::dh::{DhError, DhGroup, DhKeyPair};
use vif_crypto::hmac::HmacSha256;
use vif_dataplane::{FiveTuple, Packet, PacketStage, StageOutcome, StageVerdict};
use vif_sgx::Enclave;
use vif_trie::Ipv4Prefix;

/// Identifies one victim's filtering contract within a shared deployment.
///
/// Everything a victim owns — audited sketch pair, secure channel, deferred
/// rule queue, publish epoch, installed rule ids — is namespaced by this id
/// inside [`FilterEnclaveApp`], so one tenant's churn and audit rounds never
/// touch another's. Contract `0` is the default contract every app starts
/// with: unscoped, it absorbs traffic no tenant's prefix claims, and a
/// single-victim deployment is simply the one-contract case that names it.
pub type ContractId = u32;

/// A queued rule mutation awaiting epoch publication.
///
/// The one rule-churn path ([`FilterEnclaveApp::receive_rules_deferred_for`],
/// [`FilterEnclaveApp::receive_rule_withdrawal_deferred_for`]) accepts and
/// authorizes edits without touching the live rule set; they sit in this
/// form until the cluster's publisher drains them with
/// [`FilterEnclaveApp::take_publish_snapshot_for`], compiles off the hot
/// path, and swaps the result in with
/// [`FilterEnclaveApp::install_epoch_for`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RuleEdit {
    /// Install a new rule (id assigned at publication, in queue order).
    Install(FilterRule),
    /// Withdraw the rule with this id.
    Withdraw(RuleId),
}

/// What [`FilterEnclaveApp::take_publish_snapshot_for`] hands the
/// publisher: a shared handle and the drained queue, nothing copied.
#[derive(Debug)]
pub struct PublishSnapshot {
    /// The live rule epoch, by reference.
    pub tables: Arc<RuleTables>,
    /// The contract's drained deferred queue, in submission order, less
    /// the withdrawals of ids the contract does not own (dropped inside
    /// the enclave, so every edit here is the contract's to make).
    pub edits: Vec<RuleEdit>,
    /// The contract's epoch at snapshot time; the publication installs
    /// `epoch + 1`.
    pub epoch: u64,
}

/// Per-contract enclave state: everything one victim's tenancy owns.
#[derive(Debug)]
struct ContractSlot {
    id: ContractId,
    /// Destination scope attributing packets to this contract's logs
    /// (`None` on the default contract, which absorbs unscoped traffic).
    scope: Option<Ipv4Prefix>,
    /// HMAC key for authenticated log export, shared with this contract's
    /// verifiers after attestation.
    audit_key: [u8; 32],
    logs: PacketLogs,
    /// Handshake state: the enclave-internal DH key of this contract's
    /// in-flight attestation exchange.
    dh: Option<DhKeyPair>,
    /// The authenticated channel to this contract's victim.
    channel: Option<SecureChannel>,
    /// Accepted-but-unpublished rule edits (this contract's deferred queue).
    pending: Vec<RuleEdit>,
    /// The epoch published *for this contract* that this enclave is on
    /// (see [`install_epoch_for`](FilterEnclaveApp::install_epoch_for)).
    epoch: u64,
    /// Rule ids installed through this contract and not withdrawn by a
    /// publication since; withdrawal frames may only unlink ids recorded
    /// here (ids never alias between contracts — the rule set tombstones
    /// slots, never renumbers). Ascending — ids are assigned ascending, so
    /// appends keep it sorted.
    owned: Vec<RuleId>,
}

impl ContractSlot {
    fn new(
        id: ContractId,
        scope: Option<Ipv4Prefix>,
        sketch_seed: u64,
        audit_key: [u8; 32],
    ) -> Self {
        ContractSlot {
            id,
            scope,
            audit_key,
            logs: PacketLogs::new(sketch_seed),
            dh: None,
            channel: None,
            pending: Vec::new(),
            epoch: 0,
            owned: Vec::new(),
        }
    }

    fn owns(&self, id: RuleId) -> bool {
        self.owned.binary_search(&id).is_ok()
    }
}

/// Picks the slot whose scope covers `dst_ip` (first scoped match wins —
/// RPKI keeps victim scopes disjoint); unscoped traffic falls to slot 0.
#[inline]
fn slot_for_dst(contracts: &[ContractSlot], dst_ip: u32) -> usize {
    if contracts.len() > 1 {
        for (i, s) in contracts.iter().enumerate() {
            if let Some(p) = s.scope {
                if p.contains(dst_ip) {
                    return i;
                }
            }
        }
    }
    0
}

/// The enclave-resident filter application.
#[derive(Debug)]
pub struct FilterEnclaveApp {
    filter: HybridFilter,
    /// Reused tuple buffer for the burst path (no per-burst allocation).
    scratch: Vec<FiveTuple>,
    /// Reused per-burst fingerprint buffer: the fingerprint-once pass
    /// derives each packet's log/steering fingerprints exactly once here
    /// and threads them through filtering and the audited logs.
    fp_scratch: Vec<PacketFingerprints>,
    /// Reused buffers gathering one contract's share of a burst.
    group_fps: Vec<PacketFingerprints>,
    group_verdicts: Vec<Verdict>,
    /// Per-contract state; slot 0 (the default contract) always exists.
    contracts: Vec<ContractSlot>,
    /// Epochs published into this enclave across all contracts.
    publish_epoch: u64,
}

impl FilterEnclaveApp {
    /// Creates the app with its rule set, the enclave-internal secret for
    /// hash-based filtering, the sketch seed shared with verifiers, and the
    /// audit key — all bound to the default contract 0, which also owns the
    /// initial rules. (Direct constructor for tests and standalone use; the
    /// session protocol uses [`fresh`](FilterEnclaveApp::fresh).)
    pub fn new(ruleset: RuleSet, secret: [u8; 32], sketch_seed: u64, audit_key: [u8; 32]) -> Self {
        let mut default_slot = ContractSlot::new(0, None, sketch_seed, audit_key);
        default_slot.owned.extend(0..ruleset.len() as RuleId);
        FilterEnclaveApp {
            filter: HybridFilter::new(StatelessFilter::new(ruleset, secret), 500_000),
            scratch: Vec::new(),
            fp_scratch: Vec::new(),
            group_fps: Vec::new(),
            group_verdicts: Vec::new(),
            contracts: vec![default_slot],
            publish_epoch: 0,
        }
    }

    /// Creates an app with no rules and no session — the state an enclave
    /// is launched with before a victim attests it (§VI-B).
    pub fn fresh(secret: [u8; 32]) -> Self {
        Self::new(RuleSet::new(), secret, 0, [0u8; 32])
    }

    fn slot_index(&self, contract: ContractId) -> Option<usize> {
        self.contracts.iter().position(|s| s.id == contract)
    }

    fn slot_index_or_err(&self, contract: ContractId) -> Result<usize, SessionError> {
        self.slot_index(contract)
            .ok_or(SessionError::UnknownContract(contract))
    }

    fn slot_mut_or_create(&mut self, contract: ContractId) -> &mut ContractSlot {
        let idx = match self.slot_index(contract) {
            Some(i) => i,
            None => {
                self.contracts
                    .push(ContractSlot::new(contract, None, 0, [0u8; 32]));
                self.contracts.len() - 1
            }
        };
        &mut self.contracts[idx]
    }

    /// Provisions (or re-keys) a contract slot without a handshake — the
    /// control-plane ECall a cluster uses to mirror a session's keys and
    /// victim scope into replica slices (the master slice acquires them via
    /// the attested handshake). An existing channel survives re-provisioning
    /// with the same keys; packet attribution uses `scope`.
    pub fn provision_contract(
        &mut self,
        contract: ContractId,
        scope: Option<Ipv4Prefix>,
        sketch_seed: u64,
        audit_key: [u8; 32],
    ) {
        let slot = self.slot_mut_or_create(contract);
        slot.scope = scope;
        slot.audit_key = audit_key;
        if slot.channel.is_none() {
            slot.logs = PacketLogs::new(sketch_seed);
        }
    }

    /// Ids of every contract with a slot in this enclave.
    pub fn contract_ids(&self) -> Vec<ContractId> {
        self.contracts.iter().map(|s| s.id).collect()
    }

    /// Rule ids installed through `contract`, ascending (deferred installs
    /// appear, and deferred withdrawals disappear, once published).
    pub fn owned_rules(&self, contract: ContractId) -> Vec<RuleId> {
        match self.slot_index(contract) {
            Some(i) => self.contracts[i].owned.clone(),
            None => Vec::new(),
        }
    }

    /// Measured bytes per owned rule (`B_i` restricted to `contract`) —
    /// the demand signal the admission arbiter consumes.
    pub fn contract_rule_bytes(&self, contract: ContractId) -> Vec<(RuleId, u64)> {
        let Some(i) = self.slot_index(contract) else {
            return Vec::new();
        };
        let counters = self.ruleset().counters();
        self.contracts[i]
            .owned
            .iter()
            .filter(|&&id| !self.ruleset().is_removed(id))
            .map(|&id| (id, counters[id as usize].bytes))
            .collect()
    }

    /// Handshake step 1 (inside the enclave): generate a DH key pair bound
    /// to the victim's challenge nonce and the contract id — two tenants
    /// challenging with the same nonce derive distinct keys, and
    /// concurrent handshakes of different contracts do not clobber each
    /// other's state — and return the public value. The caller then quotes
    /// `report_binding(public, nonce)`.
    pub fn begin_handshake_for(&mut self, contract: ContractId, nonce: [u8; 32]) -> Vec<u8> {
        // Deterministic per (enclave secret, contract, nonce): the host
        // cannot predict it without the enclave secret.
        let seed = if contract == 0 {
            HmacSha256::mac(self.filter.secret(), &nonce)
        } else {
            let mut msg = [0u8; 36];
            msg[..4].copy_from_slice(&contract.to_le_bytes());
            msg[4..].copy_from_slice(&nonce);
            HmacSha256::mac(self.filter.secret(), &msg)
        };
        let dh = DhGroup::modp_2048().key_pair_from_secret(&seed);
        let public = dh.public_bytes();
        self.slot_mut_or_create(contract).dh = Some(dh);
        public
    }

    /// Handshake step 2: derive the channel, audit key, and freshly seeded
    /// sketch pair from the victim's public value; they land in
    /// `contract`'s slot only.
    ///
    /// # Errors
    ///
    /// [`DhError::InvalidPeerPublic`] for degenerate peer values.
    pub fn complete_handshake_for(
        &mut self,
        contract: ContractId,
        victim_public: &[u8],
        nonce: &[u8; 32],
    ) -> Result<(), DhError> {
        let idx = self
            .slot_index(contract)
            .expect("begin_handshake_for first");
        let slot = &mut self.contracts[idx];
        let dh = slot.dh.as_ref().expect("begin_handshake first");
        let shared = dh.shared_secret(victim_public)?;
        let keys = derive_session_keys(&shared, nonce);
        let (_, responder) = SecureChannel::pair_from_secret(&shared, nonce);
        slot.channel = Some(responder);
        slot.audit_key = keys.audit_key;
        slot.logs = PacketLogs::new(keys.sketch_seed);
        Ok(())
    }

    /// Receives an encrypted rule submission: decrypt with `contract`'s
    /// channel, decode, check the in-frame contract id against the slot,
    /// authorize against RPKI, and **queue** the installs in `contract`'s
    /// own deferred queue — the live rule set is never touched here; the
    /// rules take force only at the contract's next epoch publication
    /// ([`take_publish_snapshot_for`](FilterEnclaveApp::take_publish_snapshot_for) /
    /// [`install_epoch_for`](FilterEnclaveApp::install_epoch_for)),
    /// so the data path never observes a rebuild in progress and publishing
    /// one tenant never flushes another's churn. The acknowledgement
    /// carries the number of rules queued.
    ///
    /// # Errors
    ///
    /// See [`SessionError`]; nothing is queued on any failure.
    pub fn receive_rules_deferred_for(
        &mut self,
        contract: ContractId,
        frame: &[u8],
        requester: &OwnerId,
        rpki: &RpkiRegistry,
    ) -> Result<Vec<u8>, SessionError> {
        self.queue_frame(contract, frame, |payload| {
            let rules = Self::frame_entries(contract, payload, 29)?
                .map(FilterRule::decode)
                .collect::<Result<Vec<_>, _>>()
                .map_err(SessionError::RuleDecode)?;
            rpki.authorize(requester, &rules)?;
            Ok(rules.into_iter().map(RuleEdit::Install).collect())
        })
    }

    /// Receives an encrypted rule withdrawal (§VI-B churn, the removal
    /// counterpart of
    /// [`receive_rules_deferred_for`](FilterEnclaveApp::receive_rules_deferred_for)):
    /// decrypt and decode, then queue the withdrawals for the contract's
    /// next epoch publication. The acknowledgement carries the number of
    /// ids *queued*: whether each is in force is known only at
    /// publication.
    ///
    /// Withdrawal is scoped to ownership, enforced when the queue is
    /// drained ([`take_publish_snapshot_for`](FilterEnclaveApp::take_publish_snapshot_for)):
    /// only ids the contract installed take effect; foreign or unknown ids
    /// are dropped (withdrawal stays idempotent), so no tenant can take
    /// another's rules out of force.
    ///
    /// # Errors
    ///
    /// See [`SessionError`]; nothing is queued on any failure.
    pub fn receive_rule_withdrawal_deferred_for(
        &mut self,
        contract: ContractId,
        frame: &[u8],
    ) -> Result<Vec<u8>, SessionError> {
        self.queue_frame(contract, frame, |payload| {
            Ok(Self::frame_entries(contract, payload, 4)?
                .map(|id| RuleEdit::Withdraw(u32::from_le_bytes(id.try_into().expect("4 bytes"))))
                .collect())
        })
    }

    /// The receive leg both request kinds share: open `frame` on
    /// `contract`'s channel, `decode` the payload into edits, queue them
    /// all and seal an acknowledgement carrying how many. A frame that
    /// fails to open or decode queues nothing.
    fn queue_frame(
        &mut self,
        contract: ContractId,
        frame: &[u8],
        decode: impl FnOnce(&[u8]) -> Result<Vec<RuleEdit>, SessionError>,
    ) -> Result<Vec<u8>, SessionError> {
        let idx = self.slot_index_or_err(contract)?;
        let slot = &mut self.contracts[idx];
        let channel = slot.channel.as_mut().ok_or(SessionError::NotEstablished)?;
        let edits = decode(&channel.open(frame)?)?;
        let ack = channel.seal(&(edits.len() as u32).to_le_bytes());
        slot.pending.extend(edits);
        Ok(ack)
    }

    /// Splits a request payload — `contract: u32 LE`, `count: u32 LE`,
    /// then `count` entries of `entry_len` bytes — into its entries, and
    /// checks the in-frame contract id against the slot the frame arrived
    /// on (a cross-tenant replay by the untrusted relay).
    fn frame_entries(
        contract: ContractId,
        payload: &[u8],
        entry_len: usize,
    ) -> Result<std::slice::ChunksExact<'_, u8>, SessionError> {
        let wrong_length = |n| SessionError::RuleDecode(RuleDecodeError::WrongLength(n));
        if payload.len() < 8 {
            return Err(wrong_length(payload.len()));
        }
        let got = u32::from_le_bytes(payload[..4].try_into().expect("4 bytes"));
        let count = u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")) as usize;
        let body = &payload[8..];
        if count.checked_mul(entry_len) != Some(body.len()) {
            return Err(wrong_length(body.len()));
        }
        if got != contract {
            return Err(SessionError::ContractMismatch {
                expected: contract,
                got,
            });
        }
        Ok(body.chunks_exact(entry_len))
    }

    /// Processes one packet: logs it (into the logs of the contract whose
    /// scope covers the destination), decides it, logs the forwarding.
    pub fn process(&mut self, t: &FiveTuple, wire_bytes: u64) -> Verdict {
        let si = slot_for_dst(&self.contracts, t.dst_ip);
        self.contracts[si].logs.log_incoming(t);
        let verdict = self.filter.decide(t);
        if verdict.action == RuleAction::Allow {
            self.contracts[si].logs.log_outgoing(t);
        }
        self.absorb_verdict(wire_bytes, verdict);
        verdict
    }

    /// Processes a burst of `(five tuple, wire bytes)` packets, **clearing
    /// `out`** and then filling it with one verdict per packet in order —
    /// callers may pass a dirty reuse buffer, but must not expect earlier
    /// contents to survive (zip verdicts against `pkts`, never against a
    /// longer accumulated buffer).
    ///
    /// Equivalent to calling [`process`](FilterEnclaveApp::process) per
    /// packet: verdicts are order-independent (§III-A) and the sketch/
    /// telemetry updates commute, so regrouping them around one
    /// [`HybridFilter::decide_batch`] call and one
    /// [`PacketLogs::log_batch_fingerprints`] call per contract changes
    /// cost, never state — exports after a burst are byte-identical to
    /// per-packet processing (the `burst_logging_audit_equivalence`
    /// property test).
    /// This is the in-enclave half of the pipeline's burst path — one
    /// enclave-thread entry covers the whole RX burst, and it is a
    /// **fingerprint-once** single pass: each 5-tuple is encoded once,
    /// its tuple and source-IP fingerprints derived once, and both sketch
    /// logs and (upstream) RSS steering consume those same values. The
    /// filter takes the tuples: its exact-match cache hashes the tuple
    /// words directly, which is cheaper than going through the 13-byte
    /// key fingerprint.
    pub fn process_batch(&mut self, pkts: &[(FiveTuple, u64)], out: &mut Vec<Verdict>) {
        out.clear();
        self.scratch.clear();
        self.scratch.reserve(pkts.len());
        self.fp_scratch.clear();
        self.fp_scratch.reserve(pkts.len());
        for (t, _) in pkts {
            self.scratch.push(*t);
            self.fp_scratch.push(PacketFingerprints::of(t));
        }
        self.filter.decide_batch(&self.scratch, out);
        // Each contract logs its share of the burst (the packets its scope
        // covers) in one prefetch-pipelined batch, from the fingerprints
        // derived above. A lone contract's share is the whole burst, as it
        // lies; with several, each share is gathered into reused buffers.
        let slots = self.contracts.len();
        for si in 0..slots {
            let (fps, verdicts) = if slots == 1 {
                (&self.fp_scratch[..], &out[..])
            } else {
                self.group_fps.clear();
                self.group_verdicts.clear();
                for (i, (t, _)) in pkts.iter().enumerate() {
                    if slot_for_dst(&self.contracts, t.dst_ip) == si {
                        self.group_fps.push(self.fp_scratch[i]);
                        self.group_verdicts.push(out[i]);
                    }
                }
                (&self.group_fps[..], &self.group_verdicts[..])
            };
            self.contracts[si]
                .logs
                .log_batch_fingerprints(fps, verdicts);
        }
        for (i, (_, wire_bytes)) in pkts.iter().enumerate() {
            self.absorb_verdict(*wire_bytes, out[i]);
        }
    }

    /// Post-verdict bookkeeping shared by the single and batch paths:
    /// credits the verdict's bytes to the rule it matched, the per-rule
    /// `B_i` that victim policy and re-arbitration read. It is the only
    /// tally the enclave keeps per packet; the service counts packets.
    fn absorb_verdict(&mut self, wire_bytes: u64, verdict: Verdict) {
        if let Some(rule) = verdict.rule {
            self.filter_ruleset_mut().record_hit(rule, wire_bytes);
        }
    }

    fn filter_ruleset_mut(&mut self) -> &mut RuleSet {
        // HybridFilter exposes the inner filter immutably; rule telemetry
        // lives in the rule set, reached through a dedicated path.
        self.filter.inner_mut().ruleset_mut()
    }

    /// The installed rule set.
    pub fn ruleset(&self) -> &RuleSet {
        self.filter.inner().ruleset()
    }

    /// Installs a new rule set (a slice resync, or one enclave's share of
    /// a Fig. 5 repartition).
    /// Resets the hybrid cache — promoted exact-match entries derive from
    /// the old rules. Returns the displaced rule set: a caller inside an
    /// ECall passes it out, so that the last reference to an old epoch's
    /// tables is dropped by the control plane, never while the enclave lock
    /// is held.
    pub fn install_ruleset(&mut self, ruleset: RuleSet) -> RuleSet {
        self.filter.install_ruleset(ruleset)
    }

    /// Queues rule edits directly (control-plane ECall; session-driven
    /// deferred churn goes through the `*_deferred` receivers). Nothing
    /// takes force until the next epoch publication. Queues onto the
    /// default contract 0.
    pub fn queue_edits<I: IntoIterator<Item = RuleEdit>>(&mut self, edits: I) {
        self.contracts[0].pending.extend(edits);
    }

    /// Number of queued-but-unpublished edits, across all contracts.
    pub fn pending_edits(&self) -> usize {
        self.contracts.iter().map(|s| s.pending.len()).sum()
    }

    /// Number of queued installs in one contract's deferred queue.
    pub fn pending_installs_for(&self, contract: ContractId) -> usize {
        match self.slot_index(contract) {
            Some(i) => self.contracts[i]
                .pending
                .iter()
                .filter(|e| matches!(e, RuleEdit::Install(_)))
                .count(),
            None => 0,
        }
    }

    /// Epoch-publication step 1 (a brief ECall): hand the publisher the
    /// live rule epoch by reference plus `contract`'s drained deferred
    /// queue (other tenants' pending churn stays queued). Ownership is
    /// enforced here, on the way out: a queued withdrawal survives only if
    /// the contract installed the id — earlier, or by an install earlier
    /// in this same queue (queued installs take the next slot ids in queue
    /// order) — so the publisher never sees an edit that is not the
    /// contract's to make. On-lock work is a reference-count bump and one
    /// pass over the queue (a binary search per withdrawal) — independent
    /// of the rule count. The publisher applies the edits and compiles
    /// **outside** the enclave lock, then re-enters with
    /// [`install_epoch_for`](FilterEnclaveApp::install_epoch_for).
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownContract`] if no such slot exists.
    pub fn take_publish_snapshot_for(
        &mut self,
        contract: ContractId,
    ) -> Result<PublishSnapshot, SessionError> {
        let idx = self.slot_index_or_err(contract)?;
        let tables = Arc::clone(self.ruleset().tables());
        let first_new = self.ruleset().len() as RuleId;
        let slot = &mut self.contracts[idx];
        let mut edits = std::mem::take(&mut slot.pending);
        let mut next_new = first_new;
        edits.retain(|edit| match *edit {
            RuleEdit::Install(_) => {
                next_new += 1;
                true
            }
            RuleEdit::Withdraw(id) => slot.owns(id) || (first_new..next_new).contains(&id),
        });
        Ok(PublishSnapshot {
            tables,
            edits,
            epoch: slot.epoch,
        })
    }

    /// Epoch-publication step 2 (a brief ECall): swap in the rule set the
    /// publisher built off the hot path as `contract`'s epoch `epoch`.
    /// Observable semantics of
    /// [`install_ruleset`](FilterEnclaveApp::install_ruleset) — the hybrid
    /// cache flushes and rule telemetry restarts — plus the epoch move (the
    /// contract's, and one tick of the app-wide counter), so concurrent
    /// readers can tell exactly which rule generation a burst was decided
    /// under. `installed` — the ids the publisher assigned to
    /// the contract's deferred installs, ascending — joins the contract's
    /// ownership set and `withdrawn` (ascending) leaves it.
    ///
    /// `ruleset` must arrive with zeroed counters (the publisher builds
    /// each slice's handle with [`RuleSet::from_tables`] before entering):
    /// that is how telemetry restarts with no on-lock pass over the rules.
    /// A rule set of unknown history goes through
    /// [`install_published_for`](FilterEnclaveApp::install_published_for),
    /// which zeroes it. On-lock work is then a pointer swap and two table
    /// clears, independent of the rule count, plus the ownership edit (an
    /// append; one pass over the contract's ids if the epoch withdraws
    /// any). Nothing is freed.
    ///
    /// Idempotent per epoch: a re-delivery of an epoch this enclave is
    /// already on (the publisher re-sends when an ack is lost) is
    /// acknowledged without being applied. Either way the rule set that is
    /// *not* installed afterwards — the displaced one, or the redundant
    /// delivery — is returned, so its tables are released off-lock.
    pub fn install_epoch_for(
        &mut self,
        contract: ContractId,
        epoch: u64,
        ruleset: RuleSet,
        installed: &[RuleId],
        withdrawn: &[RuleId],
    ) -> RuleSet {
        if self.epoch_of(contract) >= epoch {
            return ruleset;
        }
        let displaced = self.install_ruleset(ruleset);
        self.publish_epoch += 1;
        let slot = self.slot_mut_or_create(contract);
        slot.epoch = epoch;
        slot.owned.extend_from_slice(installed);
        if !withdrawn.is_empty() {
            slot.owned.retain(|id| withdrawn.binary_search(id).is_err());
        }
        displaced
    }

    /// [`install_epoch_for`](FilterEnclaveApp::install_epoch_for) the
    /// contract's *next* epoch, whatever this enclave is on — for callers
    /// that publish to one enclave directly and have no withdrawals to
    /// report. Takes any rule set: whatever its counters hold is zeroed
    /// first (in place, no allocation), so telemetry restarts here too.
    pub fn install_published_for(
        &mut self,
        contract: ContractId,
        mut ruleset: RuleSet,
        new_owned: &[RuleId],
    ) -> RuleSet {
        ruleset.reset_counters();
        let next = self.epoch_of(contract) + 1;
        self.install_epoch_for(contract, next, ruleset, new_owned, &[])
    }

    /// Epochs published into this enclave since launch (all contracts).
    pub fn epoch(&self) -> u64 {
        self.publish_epoch
    }

    /// The epoch one contract is on (publications since launch).
    pub fn epoch_of(&self, contract: ContractId) -> u64 {
        match self.slot_index(contract) {
            Some(i) => self.contracts[i].epoch,
            None => 0,
        }
    }

    /// The victim scope provisioned for one contract (None if the slot
    /// does not exist or was provisioned scopeless).
    pub fn contract_scope(&self, contract: ContractId) -> Option<Ipv4Prefix> {
        self.slot_index(contract)
            .and_then(|i| self.contracts[i].scope)
    }

    /// State-replay half of a slice rejoin: restores one contract's
    /// control-plane state (victim scope, publish epoch, rule ownership)
    /// from a healthy replica's snapshot into this freshly launched
    /// enclave. The slot's session keys and packet logs are deliberately
    /// left alone — a rejoining slice must re-attest and re-key through a
    /// fresh handshake, never by copying pre-crash secrets.
    pub fn resync_contract(
        &mut self,
        contract: ContractId,
        scope: Option<Ipv4Prefix>,
        epoch: u64,
        owned: &[RuleId],
    ) {
        let slot = self.slot_mut_or_create(contract);
        slot.scope = scope;
        slot.epoch = epoch;
        slot.owned = owned.to_vec();
    }

    /// Aligns the app-wide publish epoch with the master's after a rejoin
    /// replay, so epoch-stamped verdicts from the rejoined slice agree
    /// with the rest of the cluster.
    pub fn resync_epoch(&mut self, epoch: u64) {
        self.publish_epoch = epoch;
    }

    /// The packet logs of one contract.
    ///
    /// # Panics
    ///
    /// Panics if no such contract slot exists.
    pub fn logs_of(&self, contract: ContractId) -> &PacketLogs {
        let idx = self.slot_index(contract).expect("unknown contract");
        &self.contracts[idx].logs
    }

    /// The hybrid connection-preserving layer.
    pub fn hybrid(&self) -> &HybridFilter {
        &self.filter
    }

    /// Runs one hybrid rule-update period (Appendix F).
    pub fn apply_update_period(&mut self) -> usize {
        self.filter.apply_update_period()
    }

    /// Exports an authenticated log for one contract, keyed with that
    /// contract's session audit key — a tenant can only verify (and be
    /// struck on) its own sketches.
    ///
    /// # Panics
    ///
    /// Panics if no such contract slot exists.
    pub fn export_log_for(
        &self,
        contract: ContractId,
        direction: LogDirection,
    ) -> AuthenticatedSketch {
        let idx = self.slot_index(contract).expect("unknown contract");
        self.contracts[idx]
            .logs
            .export(direction, &self.contracts[idx].audit_key)
    }

    /// Starts a new filtering round for one contract only — other tenants'
    /// in-flight sketches are untouched, so one victim's audit cadence
    /// cannot dirty another's round.
    pub fn new_round_for(&mut self, contract: ContractId) {
        if let Some(idx) = self.slot_index(contract) {
            self.contracts[idx].logs.new_round();
        }
    }

    /// The enclave data working set: rule structures + sketches.
    pub fn table_bytes(&self) -> usize {
        self.ruleset().memory_bytes()
            + self
                .contracts
                .iter()
                .map(|s| s.logs.memory_bytes())
                .sum::<usize>()
    }
}

/// Adapts an enclave-hosted filter app to the dataplane's [`PacketStage`]
/// seam.
///
/// Each burst models the in-enclave filter thread taking packets from the
/// RX ring (no per-packet ECalls/OCalls, §V-A). The stage returns verdicts
/// and whether each took the hash path; it prices nothing.
pub struct EnclaveFilterStage {
    enclave: Arc<Enclave<FilterEnclaveApp>>,
    mode: FilterMode,
    /// Reused burst buffers (tuples in, verdicts out).
    scratch: Vec<(FiveTuple, u64)>,
    verdicts: Vec<Verdict>,
}

impl EnclaveFilterStage {
    /// Creates the stage.
    pub fn new(enclave: Arc<Enclave<FilterEnclaveApp>>, mode: FilterMode) -> Self {
        EnclaveFilterStage {
            enclave,
            mode,
            scratch: Vec::new(),
            verdicts: Vec::new(),
        }
    }

    /// The filter implementation variant this stage stands for.
    pub fn mode(&self) -> FilterMode {
        self.mode
    }

    /// The wrapped enclave.
    pub fn enclave(&self) -> &Arc<Enclave<FilterEnclaveApp>> {
        &self.enclave
    }
}

fn outcome(verdict: &Verdict) -> StageOutcome {
    StageOutcome {
        verdict: match verdict.action {
            RuleAction::Allow => StageVerdict::Forward,
            RuleAction::Drop => StageVerdict::Drop,
        },
        hashed: verdict.path == DecisionPath::HashBased,
    }
}

impl PacketStage for EnclaveFilterStage {
    /// One enclave-thread entry covers the whole burst: the app computes
    /// every verdict via [`HybridFilter::decide_batch`] before control
    /// returns to the untrusted side, amortizing the boundary crossing
    /// that a per-packet design would pay 64× per RX burst.
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<StageOutcome>) {
        self.scratch.clear();
        self.scratch
            .extend(pkts.iter().map(|p| (p.tuple, p.wire_size as u64)));
        let scratch = &self.scratch;
        let verdicts = &mut self.verdicts;
        self.enclave
            .in_enclave_thread(|app| app.process_batch(scratch, verdicts));
        out.extend(self.verdicts.iter().map(outcome));
    }

    fn name(&self) -> &str {
        "vif-enclave-filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FilterRule, FlowPattern};
    use vif_dataplane::Protocol;
    use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};

    fn victim_rules() -> RuleSet {
        RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        ))])
    }

    fn app() -> FilterEnclaveApp {
        FilterEnclaveApp::new(victim_rules(), [1u8; 32], 9, [2u8; 32])
    }

    fn attack_tuple(i: u32) -> FiveTuple {
        FiveTuple::new(
            0x0a000000 + i,
            u32::from_be_bytes([203, 0, 113, 1]),
            5,
            80,
            Protocol::Tcp,
        )
    }

    fn benign_tuple(i: u32) -> FiveTuple {
        FiveTuple::new(
            0x0b000000 + i,
            u32::from_be_bytes([203, 0, 113, 1]),
            5,
            80,
            Protocol::Tcp,
        )
    }

    #[test]
    fn processing_updates_logs() {
        let mut a = app();
        let mut dropped = 0;
        for i in 0..10 {
            for t in [attack_tuple(i), benign_tuple(i)] {
                if a.process(&t, 64).action == RuleAction::Drop {
                    dropped += 1;
                }
            }
        }
        assert_eq!(dropped, 10);
        assert_eq!(a.logs_of(0).sketch(LogDirection::Incoming).total(), 20);
        assert_eq!(a.logs_of(0).sketch(LogDirection::Outgoing).total(), 10);
    }

    #[test]
    fn rule_telemetry_collected() {
        let mut a = app();
        a.process(&attack_tuple(1), 1500);
        a.process(&attack_tuple(2), 500);
        // Unmatched traffic is credited to no rule.
        a.process(&benign_tuple(1), 700);
        let counters = a.ruleset().counters();
        assert_eq!((counters[0].packets, counters[0].bytes), (2, 2000));
    }

    #[test]
    fn stage_maps_verdicts_without_ecalls() {
        let root = AttestationRootKey::new([0u8; 32]);
        let platform = SgxPlatform::new(1, EpcConfig::paper_default(), &root);
        let enclave = Arc::new(platform.launch(EnclaveImage::new("vif", 1, vec![0; 1024]), app()));
        let mut stage = EnclaveFilterStage::new(Arc::clone(&enclave), FilterMode::SgxNearZeroCopy);
        let burst = [
            Packet::new(attack_tuple(1), 64, 0, 0),
            Packet::new(benign_tuple(1), 64, 10, 1),
        ];
        let mut out = Vec::new();
        stage.process_batch(&burst, &mut out);
        let verdicts: Vec<_> = out.iter().map(|o| o.verdict).collect();
        assert_eq!(verdicts, [StageVerdict::Drop, StageVerdict::Forward]);
        assert!(out.iter().all(|o| !o.hashed), "deterministic rule");
        // No per-packet ECalls on the data path.
        assert_eq!(enclave.ecalls(), 0);
    }

    #[test]
    fn install_ruleset_resets_behavior() {
        let mut a = app();
        assert_eq!(a.process(&attack_tuple(1), 64).action, RuleAction::Drop);
        a.install_ruleset(RuleSet::new());
        assert_eq!(a.process(&attack_tuple(1), 64).action, RuleAction::Allow);
    }

    #[test]
    fn exported_logs_verify() {
        let mut a = app();
        a.process(&benign_tuple(1), 64);
        let export = a.export_log_for(0, LogDirection::Outgoing);
        assert!(export.verify(&[2u8; 32]).is_ok());
        assert!(export.verify(&[9u8; 32]).is_err());
    }
}
