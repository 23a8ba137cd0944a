//! Filtering-round management (§III-B).
//!
//! "The VIF filtering network should allow a short (e.g., a few minutes)
//! time duration for each filtering round so that victim networks can
//! abort any further request quickly when it detects any bypass attempts."
//!
//! [`ClusterRoundDriver`] runs that loop for the victim: at the end of each
//! round it pulls every enclave slice's authenticated logs, audits them
//! against the verifiers' local sketches, records the outcome, and decides
//! whether the contract continues — aborting permanently after
//! [`RoundPolicy::max_strikes`] dirty rounds. A single enclave is the
//! one-slice case.
//!
//! A round closes in two phases. Phase 1 gives every audited slice its
//! first audit attempt (outgoing export → HMAC check → compare, then the
//! same for the incoming log) as one task on `std::thread::scope`, on at
//! most `available_parallelism()` threads, the caller running one share.
//! Phase 1 only reads and compares. Phase 2 then walks the slices in index
//! order on the caller and does everything with a side effect exactly as a
//! serial loop would: retries, backoff, lifecycle votes, telemetry events,
//! strikes, abort and rotation. The same inputs thus give the same
//! outcomes and the same flight-recorder bytes however the tasks interleave.

use crate::enclave_app::{ContractId, FilterEnclaveApp};
use crate::logs::LogDirection;
use crate::retry::RetryPolicy;
use crate::verify::{AuditError, BypassVerdict, Verifier};
use std::sync::Arc;
use vif_dataplane::{SliceEvent, SliceLifecycle, SliceState};
use vif_sgx::Enclave;
use vif_telemetry::{EventKind, TelemetryHub};

/// What the driver does with a slice whose export still fails after every
/// bounded retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportFailurePolicy {
    /// Abort the whole contract (the historical behavior, and the safe
    /// reading of the paper: an unauditable slice poisons the round).
    #[default]
    AbortContract,
    /// Excise only the failing slice from the audit loop (the driver
    /// votes it `Unauditable` in the lifecycle table, for every tenant),
    /// keep auditing the survivors, keep the contract active.
    QuarantineSlice,
}

/// Abort policy for a filtering contract.
#[derive(Debug, Clone, Copy)]
pub struct RoundPolicy {
    /// Nominal round duration (bookkeeping only; the simulation drives
    /// rounds explicitly), nanoseconds.
    pub round_duration_ns: u64,
    /// Dirty rounds tolerated before the victim aborts the contract.
    pub max_strikes: u32,
    /// Bounded retries of a failed audit export before the failure
    /// becomes contract-ending (or slice-quarantining), with exponential
    /// virtual-clock backoff in nanoseconds. Exports are pure enclave
    /// reads, so a retry re-audits the *same* round state — a transient
    /// corruption or timeout costs backoff, never a strike.
    pub export_retry: RetryPolicy,
    /// What happens when export retries are exhausted.
    pub export_failure: ExportFailurePolicy,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            round_duration_ns: 120 * 1_000_000_000, // "a few minutes": 2 min
            max_strikes: 1,
            export_retry: RetryPolicy::doubling(2, 1_000_000), // 1 ms, 2 ms
            export_failure: ExportFailurePolicy::AbortContract,
        }
    }
}

/// Outcome of one audited round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Round number audited.
    pub round: u64,
    /// Victim-side verdict on the outgoing log.
    pub victim_verdict: BypassVerdict,
    /// Neighbor-side verdict on the incoming log.
    pub neighbor_verdict: BypassVerdict,
    /// True if this slice sat out the round (its lifecycle state is not
    /// `audited`, or its export could not be audited): no audit ran and
    /// the verdicts are vacuously clean.
    pub quarantined: bool,
    /// True if this slice was audited *on probation*: the verdicts are
    /// real (shadow-fed logs against fresh verifiers) but never strike the
    /// contract — a dirty probation audit votes the slice down instead.
    pub probation: bool,
}

impl RoundOutcome {
    /// True if either verifier flagged this round.
    pub fn dirty(&self) -> bool {
        self.victim_verdict != BypassVerdict::Clean || self.neighbor_verdict != BypassVerdict::Clean
    }
}

/// Injected failure of one slice's audit-log export, decided per
/// `(slice, round, attempt)` by an [`ExportFaultHook`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExportFault {
    /// The export proceeds untouched.
    #[default]
    None,
    /// The export arrives with one payload byte flipped — the MAC check
    /// fails, exactly like a tampered sketch.
    Corrupt,
    /// The export never arrives within the audit window; the driver
    /// charges backoff and retries without a sketch to audit.
    Timeout,
}

/// Test/bench-only hook deciding whether a slice's export attempt is
/// faulted: `(slice, round, attempt) -> ExportFault`.
///
/// The hook must be pure in its arguments. [`ClusterRoundDriver::close_round`]
/// asks it about every audited slice's attempt 0 from the audit threads,
/// concurrently and in no fixed order, with the driver's count of closed
/// rounds as `round`. It then asks about retries (attempt ≥ 1) on the
/// caller thread, slice by slice in index order, with the round the
/// earlier trusted slices' exports named (see `close_round` for the one
/// case where that differs and attempt 0 is asked again).
pub type ExportFaultHook = Box<dyn Fn(usize, u64, u32) -> ExportFault + Send + Sync>;

/// Contract state after a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContractState {
    /// Filtering continues.
    Active,
    /// The victim aborted after too many dirty rounds.
    Aborted {
        /// Dirty rounds accumulated at abort time.
        strikes: u32,
    },
}

/// Outcome of one audited round over a whole enclave cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterRoundOutcome {
    /// Round number audited.
    pub round: u64,
    /// Per-enclave (per-slice) verdicts, indexed like the cluster.
    pub slices: Vec<RoundOutcome>,
}

impl ClusterRoundOutcome {
    /// True if any *trusted* slice was flagged. Probation slices cannot
    /// dirty the round: their failures demote them back to quarantine
    /// rather than striking the contract.
    pub fn dirty(&self) -> bool {
        self.slices.iter().any(|s| s.dirty() && !s.probation)
    }

    /// Indices of the flagged trusted slices.
    pub fn dirty_slices(&self) -> Vec<usize> {
        self.slices
            .iter()
            .enumerate()
            .filter(|(_, s)| s.dirty() && !s.probation)
            .map(|(i, _)| i)
            .collect()
    }

    /// Indices of probation slices whose audit came back dirty this round
    /// (each was voted back to quarantine).
    pub fn dirty_probation_slices(&self) -> Vec<usize> {
        self.slices
            .iter()
            .enumerate()
            .filter(|(_, s)| s.dirty() && s.probation)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Drives audited filtering rounds for a victim whose contract spans a
/// whole enclave cluster (§IV).
///
/// The driver exports and audits **every** enclave's incoming and outgoing
/// logs each round, with one [`Verifier`] per direction per slice: the
/// victim's audits the outgoing log, the neighbor's the incoming one (a
/// single-enclave contract is the one-slice case). Packets are
/// attributed to slices by the public deterministic steering
/// ([`vif_dataplane::shard_of`] for the RSS-sharded live pipeline), so
/// verifiers recompute the attribution from traffic they already observe —
/// no trust in the load balancer is needed. One dirty slice dirties the
/// round (the contract is with the cluster, not with a single enclave),
/// and strikes accumulate against the aggregate contract; per-slice
/// verdicts are preserved in the history so an operator can see *which*
/// slice was bypassed or starved by misrouting.
pub struct ClusterRoundDriver {
    enclaves: Vec<Arc<Enclave<FilterEnclaveApp>>>,
    /// Each slice's verifier pair, indexed by [`LogDirection::index`].
    verifiers: Vec<[Verifier; 2]>,
    policy: RoundPolicy,
    strikes: u32,
    history: Vec<ClusterRoundOutcome>,
    state: ContractState,
    contract: ContractId,
    /// Where each slice stands — read to choose skip / probation audit /
    /// trusted audit, written only by posting this tenant's verdict as a
    /// vote. An aborted tenant thus has nothing stale to be wrong about.
    lifecycle: Arc<SliceLifecycle>,
    /// Slice-rounds this tenant audited on probation (report telemetry).
    probation_rounds_used: u64,
    /// Rounds closed so far — names the round for quarantined placeholder
    /// outcomes, which have no export to read a round number from.
    rounds_closed: u64,
    /// Fault injection on the export path (None in production).
    export_fault: Option<ExportFaultHook>,
    /// Total export retries performed (health/recovery telemetry).
    audit_retries_used: u64,
    /// Virtual-clock nanoseconds charged to retry backoff.
    backoff_ns: u64,
    /// Optional telemetry hub: audit verdicts, strikes, and export retries
    /// land in its flight recorder (which counts the verdicts per slice);
    /// closed rounds feed its latency histogram.
    telemetry: Option<Arc<TelemetryHub>>,
}

impl ClusterRoundDriver {
    /// Creates a driver over the cluster's enclaves, building one verifier
    /// pair per slice from the attested session parameters.
    ///
    /// # Panics
    ///
    /// Panics if `enclaves` is empty.
    pub fn new(
        enclaves: Vec<Arc<Enclave<FilterEnclaveApp>>>,
        sketch_seed: u64,
        audit_key: [u8; 32],
        tolerance: u64,
        policy: RoundPolicy,
    ) -> Self {
        assert!(!enclaves.is_empty(), "cluster must have enclaves");
        let n = enclaves.len();
        let verifiers = (0..n)
            .map(|_| {
                [LogDirection::Incoming, LogDirection::Outgoing]
                    .map(|d| Verifier::new(d, sketch_seed, audit_key, tolerance))
            })
            .collect();
        ClusterRoundDriver {
            enclaves,
            verifiers,
            policy,
            strikes: 0,
            history: Vec::new(),
            state: ContractState::Active,
            contract: 0,
            lifecycle: Arc::new(SliceLifecycle::new(n)),
            probation_rounds_used: 0,
            rounds_closed: 0,
            export_fault: None,
            audit_retries_used: 0,
            backoff_ns: 0,
            telemetry: None,
        }
    }

    /// Scopes the driver to one contract: exports, audits, and sketch
    /// rotations touch only that contract's slot in each enclave, so this
    /// tenant's audit cadence (and any strikes it earns) cannot dirty
    /// another tenant's round. The verifiers must be built from the
    /// contract's own session keys.
    pub fn with_contract(mut self, contract: ContractId) -> Self {
        self.contract = contract;
        self
    }

    /// The contract this driver audits (the default contract 0 unless
    /// scoped with [`with_contract`](ClusterRoundDriver::with_contract)).
    pub fn contract(&self) -> ContractId {
        self.contract
    }

    /// Number of audited slices.
    pub fn len(&self) -> usize {
        self.enclaves.len()
    }

    /// True if the driver audits no enclaves (cannot be constructed; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.enclaves.is_empty()
    }

    /// Slice `i`'s verifier of `direction`'s log.
    pub fn verifier_mut(&mut self, i: usize, direction: LogDirection) -> &mut Verifier {
        &mut self.verifiers[i][direction.index()]
    }

    /// Slice `i`'s victim-side verifier (observe packets received from
    /// slice `i` — attributed by steering — here).
    pub fn victim_verifier_mut(&mut self, i: usize) -> &mut Verifier {
        self.verifier_mut(i, LogDirection::Outgoing)
    }

    /// Slice `i`'s neighbor-side verifier (observe packets handed over
    /// toward slice `i` here).
    pub fn neighbor_verifier_mut(&mut self, i: usize) -> &mut Verifier {
        self.verifier_mut(i, LogDirection::Incoming)
    }

    /// Current contract state.
    pub fn state(&self) -> ContractState {
        self.state
    }

    /// Audited round history.
    pub fn history(&self) -> &[ClusterRoundOutcome] {
        &self.history
    }

    /// Shares the deployment's lifecycle table (`EnclaveCluster::lifecycle`,
    /// one entry per audited slice). Without one the driver keeps a
    /// private all-`Live` table.
    pub fn with_lifecycle(mut self, table: Arc<SliceLifecycle>) -> Self {
        assert_eq!(table.slices(), self.enclaves.len(), "one entry per slice");
        self.lifecycle = table;
        self
    }

    /// The lifecycle table this driver reads and votes in.
    pub fn lifecycle(&self) -> &Arc<SliceLifecycle> {
        &self.lifecycle
    }

    /// Points slice `i` at a relaunched enclave: replaces its enclave
    /// handle (exports must come from the new one) and its verifier pair
    /// with ones built from the rejoined slice's new attested session keys
    /// (pre-crash keys are never reused), before the cluster resyncs it.
    ///
    /// # Panics
    ///
    /// Panics if slice `i` is under audit (its verifiers hold a round's
    /// observations).
    pub fn replace_slice(
        &mut self,
        i: usize,
        enclave: Arc<Enclave<FilterEnclaveApp>>,
        victim: Verifier,
        neighbor: Verifier,
    ) {
        assert!(
            !self.lifecycle.state(i).audited(),
            "replace targets a slice out of the audit loop"
        );
        self.enclaves[i] = enclave;
        self.verifiers[i] = [neighbor, victim]; // Incoming, Outgoing
    }

    /// Slice-rounds this tenant audited on probation (clean and failed
    /// audits both count).
    pub fn probation_rounds_used(&self) -> u64 {
        self.probation_rounds_used
    }

    /// Installs a test/bench-only export fault hook (see
    /// [`ExportFaultHook`]).
    pub fn set_export_fault(&mut self, hook: ExportFaultHook) {
        self.export_fault = Some(hook);
    }

    /// Attaches a telemetry hub: each closed round records per-slice
    /// [`EventKind::AuditVerdict`] events (plus strikes, export retries,
    /// and aborts) in the hub's flight recorder, whose per-slice audit
    /// counts are counts of those events, and feeds the round latency
    /// histogram with the round's virtual duration including any
    /// export-retry backoff.
    pub fn set_telemetry(&mut self, hub: Arc<TelemetryHub>) {
        self.telemetry = Some(hub);
    }

    /// Total export retries performed across all rounds.
    pub fn audit_retries_used(&self) -> u64 {
        self.audit_retries_used
    }

    /// Virtual-clock nanoseconds charged to export retry backoff.
    pub fn backoff_ns(&self) -> u64 {
        self.backoff_ns
    }

    /// Closes the round cluster-wide: audit every slice the lifecycle
    /// table says is `audited`, record, rotate those slices' sketches,
    /// decide the aggregate contract state. Failed exports are retried
    /// under [`RoundPolicy::export_retry`] with exponential virtual-clock
    /// backoff before the failure is acted on.
    ///
    /// The close runs in two phases (see the module docs). Phase 1 makes
    /// each audited slice's first attempt in parallel, on at most
    /// `available_parallelism()` threads including the caller; a
    /// one-slice cluster spawns none. Phase 2 consumes those results in
    /// slice order and makes every retry on the caller. Phase 1 passes the
    /// [`ExportFaultHook`] the number of rounds closed so far. An earlier
    /// trusted slice can name another round (a rejoined slice's logs
    /// count from 0); if the hook answers differently for that round, the
    /// slice's attempt 0 is redone in phase 2, as a serial loop would have
    /// made it. A result discarded by an earlier abort leaves no trace:
    /// phase 1 only reads and compares.
    ///
    /// Probation slices are audited like trusted ones — off the shadow
    /// traffic mirrored to them — but their verdicts never strike the
    /// contract: they are posted to the table as this tenant's *vote*. A
    /// dirty (or unauditable) vote sends the slice back to quarantine at
    /// once, for every tenant, and charges a rejoin attempt; clean votes
    /// are settled once per round (`SliceLifecycle::settle_round`), and
    /// `PROBATION_ROUNDS` unanimous rounds promote the slice.
    ///
    /// # Errors
    ///
    /// Audit failures are contract-ending events: a slice export that
    /// still fails to audit after retries (forged, wrong config) aborts
    /// the contract *before* the error is returned, with every live
    /// slice's sketches rotated so no stale state survives into an
    /// (invalid) next round — the error is propagated so the caller knows
    /// the abort was for a bad export, not a dirty-but-authentic round —
    /// unless the policy says
    /// [`ExportFailurePolicy::QuarantineSlice`], in which case the failing
    /// slice is voted `Unauditable` and the round completes on the
    /// survivors.
    pub fn close_round(&mut self) -> Result<ClusterRoundOutcome, AuditError> {
        assert_eq!(
            self.state,
            ContractState::Active,
            "contract already aborted"
        );
        let mut slices = Vec::with_capacity(self.enclaves.len());
        let mut round = self.rounds_closed;
        let contract = self.contract;
        let backoff_before = self.backoff_ns;
        'slices: for (i, first) in self.first_attempts().into_iter().enumerate() {
            let state = self.lifecycle.state(i);
            let on_probation = state == SliceState::Probation;
            // Placeholder outcome of a slice that sat the round out.
            let skipped = |round| RoundOutcome {
                round,
                victim_verdict: BypassVerdict::Clean,
                neighbor_verdict: BypassVerdict::Clean,
                quarantined: true,
                probation: on_probation,
            };
            if !state.audited() {
                slices.push(skipped(round));
                continue 'slices;
            }
            // Phase 1 asked the hook about the closed-rounds count. If an
            // earlier trusted slice named another round and the hook answers
            // differently for it, attempt 0 is redone here, as a serial
            // loop would have made it.
            let mut first = first.filter(|_| {
                round == self.rounds_closed
                    || self.fault(i, round, 0) == self.fault(i, self.rounds_closed, 0)
            });
            let mut attempt = 0u32;
            let verdicts = loop {
                let audits = first
                    .take()
                    .unwrap_or_else(|| self.audit_slice(i, self.fault(i, round, attempt)));
                match audits {
                    Ok(verdicts) => break verdicts,
                    Err(e) => {
                        if self.policy.export_retry.allows(attempt) {
                            // Exports are pure reads and audits are pure
                            // comparisons: retrying re-reads the same
                            // round, costing only (virtual) backoff.
                            self.audit_retries_used += 1;
                            self.backoff_ns += self.policy.export_retry.backoff_for(attempt);
                            if let Some(hub) = &self.telemetry {
                                hub.record_event(
                                    EventKind::ExportRetry,
                                    i as u32,
                                    attempt as u64,
                                    0,
                                );
                            }
                            attempt += 1;
                            continue;
                        }
                        // A probation slice that cannot even be audited
                        // fails its probation: never a strike or abort.
                        let policy = if on_probation {
                            self.probation_rounds_used += 1;
                            ExportFailurePolicy::QuarantineSlice
                        } else {
                            self.policy.export_failure
                        };
                        match policy {
                            ExportFailurePolicy::AbortContract => {
                                // One unauditable slice poisons the cluster
                                // round: abort the whole contract, leave
                                // every live slice rotated.
                                self.strikes += 1;
                                if let Some(hub) = &self.telemetry {
                                    hub.record_event(
                                        EventKind::Strike,
                                        i as u32,
                                        self.strikes as u64,
                                        contract as u64,
                                    );
                                    hub.record_event(
                                        EventKind::ContractAbort,
                                        i as u32,
                                        self.strikes as u64,
                                        contract as u64,
                                    );
                                }
                                self.state = ContractState::Aborted {
                                    strikes: self.strikes,
                                };
                                self.rotate();
                                return Err(e);
                            }
                            ExportFailurePolicy::QuarantineSlice => {
                                self.vote(i, SliceEvent::Unauditable);
                                slices.push(skipped(round));
                                continue 'slices;
                            }
                        }
                    }
                }
            };
            if !on_probation {
                // A rejoined slice's fresh logs restart at round 0; only
                // trusted slices name the cluster round.
                round = verdicts.round;
            }
            let outcome = RoundOutcome {
                round,
                victim_verdict: verdicts.by_direction[LogDirection::Outgoing.index()],
                neighbor_verdict: verdicts.by_direction[LogDirection::Incoming.index()],
                quarantined: false,
                probation: on_probation,
            };
            if let Some(hub) = &self.telemetry {
                let vbit = u64::from(outcome.victim_verdict != BypassVerdict::Clean);
                let nbit = u64::from(outcome.neighbor_verdict != BypassVerdict::Clean) << 1;
                hub.record_event(
                    EventKind::AuditVerdict,
                    i as u32,
                    vbit | nbit,
                    u64::from(on_probation),
                );
            }
            if on_probation {
                self.probation_rounds_used += 1;
                self.vote(
                    i,
                    if outcome.dirty() {
                        SliceEvent::ProbationDirty
                    } else {
                        SliceEvent::ProbationClean
                    },
                );
            }
            slices.push(outcome);
        }
        // Quarantined placeholders pushed before the first audited slice
        // carry the driver's own round counter, which the audited exports
        // must agree with anyway.
        let outcome = ClusterRoundOutcome { round, slices };
        self.history.push(outcome.clone());
        if outcome.dirty() {
            self.strikes += 1;
            if let Some(hub) = &self.telemetry {
                hub.record_event(EventKind::Strike, 0, self.strikes as u64, contract as u64);
            }
            if self.strikes >= self.policy.max_strikes {
                self.state = ContractState::Aborted {
                    strikes: self.strikes,
                };
                if let Some(hub) = &self.telemetry {
                    hub.record_event(
                        EventKind::ContractAbort,
                        0,
                        self.strikes as u64,
                        contract as u64,
                    );
                }
            }
        }
        self.rotate();
        if let Some(hub) = &self.telemetry {
            // The round's virtual duration: nominal length plus whatever
            // export-retry backoff this close charged.
            hub.round_latency()
                .record(self.policy.round_duration_ns + (self.backoff_ns - backoff_before));
        }
        self.rounds_closed += 1;
        Ok(outcome)
    }

    /// Phase 1 of [`close_round`](ClusterRoundDriver::close_round): the
    /// first audit attempt of every slice the lifecycle table marks
    /// `audited`, indexed like the cluster (`None` for a slice sitting the
    /// round out). The slices are split into at most
    /// `available_parallelism()` shares on scoped threads; the caller runs
    /// the first share itself, so a one-slice cluster spawns nothing.
    fn first_attempts(&self) -> Vec<Option<Result<SliceVerdicts, AuditError>>> {
        let mut results = vec![None; self.enclaves.len()];
        let due: Vec<usize> = (0..self.enclaves.len())
            .filter(|&i| self.lifecycle.state(i).audited())
            .collect();
        if due.is_empty() {
            return results;
        }
        let round = self.rounds_closed;
        let attempt = |i: usize| self.audit_slice(i, self.fault(i, round, 0));
        let threads = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(due.len());
        std::thread::scope(|s| {
            let mut shares = due.chunks(due.len().div_ceil(threads));
            let own = shares.next().unwrap_or_default();
            let spawned: Vec<_> = shares
                .map(|share| {
                    s.spawn(move || share.iter().map(|&i| (i, attempt(i))).collect::<Vec<_>>())
                })
                .collect();
            for &i in own {
                results[i] = Some(attempt(i));
            }
            for handle in spawned {
                let share = handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p));
                for (i, verdicts) in share {
                    results[i] = Some(verdicts);
                }
            }
        });
        results
    }

    /// What the export fault hook decides for slice `i`'s `attempt` in
    /// `round` (no fault without a hook).
    fn fault(&self, i: usize, round: u64, attempt: u32) -> ExportFault {
        self.export_fault
            .as_ref()
            .map_or(ExportFault::None, |hook| hook(i, round, attempt))
    }

    /// One audit attempt on slice `i`: export → verify → compare for the
    /// outgoing log, then the same for the incoming one, so only one export
    /// is alive at a time and the first failure ends the attempt. Exports
    /// are `&self` enclave reads and audits pure comparisons, so the
    /// attempt runs on any thread, and a result nobody consumes leaves no
    /// trace.
    fn audit_slice(&self, i: usize, fault: ExportFault) -> Result<SliceVerdicts, AuditError> {
        if fault == ExportFault::Timeout {
            return Err(AuditError::ExportTimeout);
        }
        let contract = self.contract;
        let mut found = SliceVerdicts {
            round: 0,
            by_direction: [BypassVerdict::Clean; 2],
        };
        for direction in [LogDirection::Outgoing, LogDirection::Incoming] {
            let mut export =
                self.enclaves[i].ecall(move |app| app.export_log_for(contract, direction));
            if fault == ExportFault::Corrupt && direction == LogDirection::Outgoing {
                if let Some(b) = export.payload.first_mut() {
                    *b ^= 0xff;
                }
            }
            let report = self.verifiers[i][direction.index()].audit(&export)?;
            if direction == LogDirection::Outgoing {
                found.round = report.round;
            }
            found.by_direction[direction.index()] = report.verdict;
        }
        Ok(found)
    }

    /// Posts this tenant's audit verdict on slice `i`.
    fn vote(&self, i: usize, verdict: SliceEvent) {
        self.lifecycle
            .advance(i, verdict)
            .expect("an audited slice accepts its auditor's vote");
    }

    /// Rotates the enclave sketches (this contract's slot only) of every
    /// slice still under audit, and every verifier. Slices out of the
    /// audit loop are left untouched — their frozen logs audit nothing.
    fn rotate(&mut self) {
        let contract = self.contract;
        for (i, enclave) in self.enclaves.iter().enumerate() {
            if self.lifecycle.state(i).audited() {
                enclave.ecall(move |app| app.new_round_for(contract));
            }
        }
        for v in self.verifiers.iter_mut().flatten() {
            v.new_round();
        }
    }
}

/// What one audit attempt on a slice found.
#[derive(Debug, Clone, Copy)]
struct SliceVerdicts {
    /// The round the outgoing export names.
    round: u64,
    /// Each direction's verdict, indexed by [`LogDirection::index`].
    by_direction: [BypassVerdict; 2],
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{FilterRule, FlowPattern, RuleAction};
    use crate::ruleset::RuleSet;
    use vif_dataplane::lifecycle::PROBATION_ROUNDS;
    use vif_dataplane::{FiveTuple, Protocol};
    use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};

    const SEED: u64 = 31;
    const KEY: [u8; 32] = [14u8; 32];

    fn setup(policy: RoundPolicy) -> (Arc<Enclave<FilterEnclaveApp>>, ClusterRoundDriver) {
        let root = AttestationRootKey::new([8u8; 32]);
        let platform = SgxPlatform::new(2, EpcConfig::paper_default(), &root);
        let rules = RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
            "10.0.0.0/8".parse().unwrap(),
            "203.0.113.0/24".parse().unwrap(),
        ))]);
        let app = FilterEnclaveApp::new(rules, [1u8; 32], SEED, KEY);
        let enclave = Arc::new(platform.launch(EnclaveImage::new("vif", 1, vec![]), app));
        let driver = ClusterRoundDriver::new(vec![Arc::clone(&enclave)], SEED, KEY, 0, policy);
        (enclave, driver)
    }

    fn benign(i: u32) -> FiveTuple {
        FiveTuple::new(
            0x0b000000 + i,
            u32::from_be_bytes([203, 0, 113, 1]),
            1,
            80,
            Protocol::Tcp,
        )
    }

    /// One honest round of traffic through enclave + verifiers.
    fn honest_round(
        enclave: &Arc<Enclave<FilterEnclaveApp>>,
        driver: &mut ClusterRoundDriver,
        n: u32,
    ) {
        for i in 0..n {
            let t = benign(i);
            driver.neighbor_verifier_mut(0).observe(&t);
            let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
            if v.action == RuleAction::Allow {
                driver.victim_verifier_mut(0).observe(&t);
            }
        }
    }

    #[test]
    fn honest_rounds_keep_contract_active() {
        let (enclave, mut driver) = setup(RoundPolicy::default());
        for round in 0..5u64 {
            honest_round(&enclave, &mut driver, 100);
            let outcome = driver.close_round().unwrap();
            assert!(!outcome.dirty(), "round {round}");
            assert_eq!(outcome.round, round);
        }
        assert_eq!(driver.state(), ContractState::Active);
        assert_eq!(driver.history().len(), 5);
    }

    #[test]
    fn dirty_round_aborts_with_default_policy() {
        let (enclave, mut driver) = setup(RoundPolicy::default());
        // Filtering network steals 10 packets after the filter.
        for i in 0..100 {
            let t = benign(i);
            driver.neighbor_verifier_mut(0).observe(&t);
            enclave.in_enclave_thread(|app| app.process(&t, 64));
            if i >= 10 {
                driver.victim_verifier_mut(0).observe(&t);
            }
        }
        let outcome = driver.close_round().unwrap();
        assert!(outcome.dirty());
        assert_eq!(driver.state(), ContractState::Aborted { strikes: 1 });
    }

    #[test]
    fn lenient_policy_tolerates_strikes() {
        let (enclave, mut driver) = setup(RoundPolicy {
            max_strikes: 3,
            ..Default::default()
        });
        for round in 0..2 {
            for i in 0..50 {
                let t = benign(i);
                driver.neighbor_verifier_mut(0).observe(&t);
                enclave.in_enclave_thread(|app| app.process(&t, 64));
                if i > 0 {
                    driver.victim_verifier_mut(0).observe(&t); // one packet short
                }
            }
            let outcome = driver.close_round().unwrap();
            assert!(outcome.dirty(), "round {round}");
            assert_eq!(driver.state(), ContractState::Active);
        }
        // Third strike aborts.
        honest_round(&enclave, &mut driver, 10);
        driver.victim_verifier_mut(0).observe(&benign(9999)); // injected
        driver.close_round().unwrap();
        assert_eq!(driver.state(), ContractState::Aborted { strikes: 3 });
    }

    #[test]
    fn sketches_rotate_between_rounds() {
        let (enclave, mut driver) = setup(RoundPolicy::default());
        honest_round(&enclave, &mut driver, 50);
        driver.close_round().unwrap();
        // A fresh round with different traffic still audits clean — stale
        // state would poison the comparison.
        for i in 1000..1100 {
            let t = benign(i);
            driver.neighbor_verifier_mut(0).observe(&t);
            let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
            if v.action == RuleAction::Allow {
                driver.victim_verifier_mut(0).observe(&t);
            }
        }
        let outcome = driver.close_round().unwrap();
        assert!(!outcome.dirty());
        assert_eq!(outcome.round, 1);
    }

    #[test]
    #[should_panic(expected = "already aborted")]
    fn closed_contract_rejects_rounds() {
        let (_, mut driver) = setup(RoundPolicy::default());
        driver.victim_verifier_mut(0).observe(&benign(1)); // injection
        driver.close_round().unwrap();
        let _ = driver.close_round();
    }

    /// Builds a driver whose verifiers hold a *different* audit key than
    /// the enclave — every export then looks forged (tampered) to them.
    fn setup_tampered() -> (Arc<Enclave<FilterEnclaveApp>>, ClusterRoundDriver) {
        let (enclave, _) = setup(RoundPolicy::default());
        let driver = ClusterRoundDriver::new(
            vec![Arc::clone(&enclave)],
            SEED,
            [0xEE; 32],
            0,
            RoundPolicy::default(),
        );
        (enclave, driver)
    }

    #[test]
    fn audit_error_aborts_contract_and_rotates_state() {
        let (enclave, mut driver) = setup_tampered();
        honest_round(&enclave, &mut driver, 20);
        let err = driver.close_round().unwrap_err();
        assert!(matches!(err, AuditError::Log(_)), "{err}");
        // Regression: the contract used to stay Active with stale sketches
        // after a forged export — despite audit failures being documented
        // as contract-ending events.
        assert_eq!(driver.state(), ContractState::Aborted { strikes: 1 });
        assert!(
            driver.history().is_empty(),
            "unauditable round not recorded"
        );
        // State is left consistent: the enclave rotated into round 1, so
        // nothing of the poisoned round can smear into a later comparison.
        let export = enclave.ecall(|app| app.export_log_for(0, LogDirection::Outgoing));
        assert_eq!(export.round, 1);
    }

    #[test]
    #[should_panic(expected = "already aborted")]
    fn round_after_audit_error_rejected() {
        let (enclave, mut driver) = setup_tampered();
        honest_round(&enclave, &mut driver, 5);
        assert!(driver.close_round().is_err());
        let _ = driver.close_round(); // must panic: contract is dead
    }

    /// A 4-slice replicated cluster with one driver, plus the tuples each
    /// slice's verifiers track.
    fn cluster_setup(n: usize) -> (Vec<Arc<Enclave<FilterEnclaveApp>>>, ClusterRoundDriver) {
        let root = AttestationRootKey::new([8u8; 32]);
        let platform = SgxPlatform::new(9, EpcConfig::paper_default(), &root);
        let enclaves: Vec<Arc<Enclave<FilterEnclaveApp>>> = (0..n)
            .map(|_| {
                let rules = RuleSet::from_rules(vec![FilterRule::drop(FlowPattern::prefixes(
                    "10.0.0.0/8".parse().unwrap(),
                    "203.0.113.0/24".parse().unwrap(),
                ))]);
                let app = FilterEnclaveApp::new(rules, [1u8; 32], SEED, KEY);
                Arc::new(platform.launch(EnclaveImage::new("vif", 1, vec![]), app))
            })
            .collect();
        let driver =
            ClusterRoundDriver::new(enclaves.clone(), SEED, KEY, 0, RoundPolicy::default());
        (enclaves, driver)
    }

    /// Drives `per_slice` benign packets through every slice; `steal_from`
    /// drops slice `s`'s post-filter output (never observed by the victim).
    fn cluster_round(
        enclaves: &[Arc<Enclave<FilterEnclaveApp>>],
        driver: &mut ClusterRoundDriver,
        per_slice: u32,
        steal_from: Option<usize>,
    ) {
        for (s, enclave) in enclaves.iter().enumerate() {
            for i in 0..per_slice {
                let t = benign(s as u32 * 10_000 + i);
                driver.neighbor_verifier_mut(s).observe(&t);
                let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
                if v.action == RuleAction::Allow && steal_from != Some(s) {
                    driver.victim_verifier_mut(s).observe(&t);
                }
            }
        }
    }

    #[test]
    fn honest_cluster_rounds_stay_clean() {
        let (enclaves, mut driver) = cluster_setup(4);
        assert_eq!(driver.len(), 4);
        for round in 0..3u64 {
            cluster_round(&enclaves, &mut driver, 50, None);
            let outcome = driver.close_round().unwrap();
            assert!(!outcome.dirty(), "round {round}: {outcome:?}");
            assert_eq!(outcome.round, round);
            assert_eq!(outcome.slices.len(), 4);
        }
        assert_eq!(driver.state(), ContractState::Active);
    }

    #[test]
    fn dirty_slice_is_flagged_and_aborts() {
        let (enclaves, mut driver) = cluster_setup(4);
        // The filtering network steals slice 2's entire post-filter output.
        cluster_round(&enclaves, &mut driver, 50, Some(2));
        let outcome = driver.close_round().unwrap();
        assert!(outcome.dirty());
        assert_eq!(outcome.dirty_slices(), vec![2], "only slice 2 is dirty");
        assert_eq!(
            outcome.slices[2].victim_verdict,
            BypassVerdict::DropDetected
        );
        for s in [0, 1, 3] {
            assert_eq!(outcome.slices[s].victim_verdict, BypassVerdict::Clean);
            assert_eq!(outcome.slices[s].neighbor_verdict, BypassVerdict::Clean);
        }
        assert_eq!(driver.state(), ContractState::Aborted { strikes: 1 });
    }

    #[test]
    fn cluster_audit_error_aborts_whole_contract() {
        let (enclaves, _) = cluster_setup(4);
        // Verifiers keyed differently: slice 0's export already fails.
        let mut driver = ClusterRoundDriver::new(
            enclaves.clone(),
            SEED,
            [0xEE; 32],
            0,
            RoundPolicy::default(),
        );
        cluster_round(&enclaves, &mut driver, 10, None);
        assert!(driver.close_round().is_err());
        assert_eq!(driver.state(), ContractState::Aborted { strikes: 1 });
        // Every slice rotated, not just the one that failed.
        for enclave in &enclaves {
            let export = enclave.ecall(|app| app.export_log_for(0, LogDirection::Incoming));
            assert_eq!(export.round, 1);
        }
    }

    #[test]
    fn transient_export_corruption_retries_without_strike_or_double_rotation() {
        // Satellite: a transient AuditError on export that succeeds on
        // retry must not strike the slice or rotate sketches twice — pin
        // the strike and rotation counts.
        let (enclaves, mut driver) = cluster_setup(2);
        // Corrupt slice 1's first export attempt of round 0 only.
        driver.set_export_fault(Box::new(|slice, round, attempt| {
            if slice == 1 && round == 0 && attempt == 0 {
                ExportFault::Corrupt
            } else {
                ExportFault::None
            }
        }));
        cluster_round(&enclaves, &mut driver, 30, None);
        let outcome = driver.close_round().expect("retry must recover");
        assert!(!outcome.dirty(), "{outcome:?}");
        assert_eq!(driver.state(), ContractState::Active);
        assert_eq!(driver.audit_retries_used(), 1, "exactly one retry");
        assert!(driver.backoff_ns() > 0, "retry must charge backoff");
        // Rotation count pinned: every enclave is in round 1, not 2 — a
        // double rotation would desync the cluster from its verifiers.
        for enclave in &enclaves {
            let export = enclave.ecall(|app| app.export_log_for(0, LogDirection::Outgoing));
            assert_eq!(export.round, 1, "rotated exactly once");
        }
        // And the next round still audits clean off the rotated state.
        cluster_round(&enclaves, &mut driver, 30, None);
        let outcome = driver.close_round().unwrap();
        assert!(!outcome.dirty());
        assert_eq!(outcome.round, 1);
    }

    #[test]
    fn transient_export_timeout_retries_with_backoff() {
        let (enclaves, mut driver) = cluster_setup(2);
        // Slice 0 times out twice (the default retry budget), then heals.
        driver.set_export_fault(Box::new(|slice, round, attempt| {
            if slice == 0 && round == 0 && attempt < 2 {
                ExportFault::Timeout
            } else {
                ExportFault::None
            }
        }));
        cluster_round(&enclaves, &mut driver, 20, None);
        let outcome = driver.close_round().expect("retries must recover");
        assert!(!outcome.dirty());
        assert_eq!(driver.audit_retries_used(), 2);
        // Exponential virtual-clock backoff: 1 ms + 2 ms.
        assert_eq!(driver.backoff_ns(), 3_000_000);
        assert_eq!(driver.state(), ContractState::Active);
    }

    /// One close of a 4-slice cluster with a hub: slice 1 corrupt on
    /// attempt 0, slice 3 timed out on attempts 0–1, slice 2 robbed of
    /// its deliveries. Returns everything the close is observable by.
    #[allow(clippy::type_complexity)]
    fn faulted_close() -> (
        ClusterRoundOutcome,
        u64,
        u64,
        ContractState,
        Vec<(EventKind, u32, u64)>,
    ) {
        let (enclaves, mut driver) = cluster_setup(4);
        let hub = Arc::new(TelemetryHub::for_workers(4));
        driver.set_telemetry(Arc::clone(&hub));
        driver.set_export_fault(Box::new(|slice, _, attempt| match (slice, attempt) {
            (1, 0) => ExportFault::Corrupt,
            (3, 0..=1) => ExportFault::Timeout,
            _ => ExportFault::None,
        }));
        cluster_round(&enclaves, &mut driver, 30, Some(2));
        let outcome = driver.close_round().expect("retries recover every slice");
        let events = hub
            .events_last(64)
            .iter()
            .map(|e| (e.kind, e.slice, e.a))
            .collect();
        (
            outcome,
            driver.audit_retries_used(),
            driver.backoff_ns(),
            driver.state(),
            events,
        )
    }

    #[test]
    fn close_round_keeps_serial_side_effect_order() {
        let first = faulted_close();
        let (outcome, retries, backoff, state, events) = first.clone();
        assert_eq!(outcome.round, 0);
        assert_eq!(outcome.dirty_slices(), vec![2]);
        for (s, slice) in outcome.slices.iter().enumerate() {
            assert!(!slice.quarantined && !slice.probation, "slice {s}");
            let victim = if s == 2 {
                BypassVerdict::DropDetected
            } else {
                BypassVerdict::Clean
            };
            assert_eq!(slice.victim_verdict, victim, "slice {s}");
            assert_eq!(slice.neighbor_verdict, BypassVerdict::Clean, "slice {s}");
        }
        assert_eq!(retries, 3);
        // Slice 1: 1 ms; slice 3: 1 ms + 2 ms.
        assert_eq!(backoff, 4_000_000);
        assert_eq!(state, ContractState::Aborted { strikes: 1 });
        assert_eq!(
            events,
            vec![
                (EventKind::AuditVerdict, 0, 0),
                (EventKind::ExportRetry, 1, 0),
                (EventKind::AuditVerdict, 1, 0),
                (EventKind::AuditVerdict, 2, 1),
                (EventKind::ExportRetry, 3, 0),
                (EventKind::ExportRetry, 3, 1),
                (EventKind::AuditVerdict, 3, 0),
                (EventKind::Strike, 0, 1),
                (EventKind::ContractAbort, 0, 1),
            ]
        );
        for run in 1..20 {
            assert_eq!(faulted_close(), first, "run {run}");
        }
    }

    #[test]
    fn abort_mid_cluster_leaves_no_trace_of_later_slices() {
        let (enclaves, mut driver) = cluster_setup(3);
        let hub = Arc::new(TelemetryHub::for_workers(3));
        driver.set_telemetry(Arc::clone(&hub));
        // Slice 1's export never arrives; the default policy aborts.
        driver.set_export_fault(Box::new(|slice, _, _| {
            if slice == 1 {
                ExportFault::Timeout
            } else {
                ExportFault::None
            }
        }));
        cluster_round(&enclaves, &mut driver, 20, None);
        let err = driver.close_round().unwrap_err();
        assert_eq!(err, AuditError::ExportTimeout);
        assert_eq!(driver.state(), ContractState::Aborted { strikes: 1 });
        let events = hub.events_last(64);
        assert!(events
            .iter()
            .any(|e| e.kind == EventKind::AuditVerdict && e.slice == 0));
        assert!(
            !events
                .iter()
                .any(|e| e.kind == EventKind::AuditVerdict && e.slice == 2),
            "{events:?}"
        );
        assert_eq!(driver.history().len(), 0);
        // Every enclave rotated exactly once.
        for (s, enclave) in enclaves.iter().enumerate() {
            let export = enclave.ecall(|app| app.export_log_for(0, LogDirection::Outgoing));
            assert_eq!(export.round, 1, "slice {s}");
        }
    }

    #[test]
    fn exhausted_retries_quarantine_slice_under_quarantine_policy() {
        let (enclaves, _) = cluster_setup(3);
        let mut driver = ClusterRoundDriver::new(
            enclaves.clone(),
            SEED,
            KEY,
            0,
            RoundPolicy {
                export_failure: ExportFailurePolicy::QuarantineSlice,
                ..Default::default()
            },
        );
        // Slice 2's exports never recover.
        driver.set_export_fault(Box::new(|slice, _, _| {
            if slice == 2 {
                ExportFault::Timeout
            } else {
                ExportFault::None
            }
        }));
        cluster_round(&enclaves, &mut driver, 20, None);
        let outcome = driver.close_round().expect("quarantine, not abort");
        assert_eq!(driver.state(), ContractState::Active);
        assert!(outcome.slices[2].quarantined);
        assert!(!outcome.dirty(), "quarantined slice must not dirty");
        assert_eq!(driver.lifecycle().state(2), SliceState::Unauditable);
        assert_eq!(driver.lifecycle().quarantined_slices(), vec![2]);
        // Next round: the quarantined slice is skipped outright (no
        // export, no retries) and survivors stay clean. Its verifiers saw
        // no slice-2 traffic because the harness re-steers it, modeled
        // here by observing nothing for slice 2.
        for (s, enclave) in enclaves.iter().enumerate().take(2) {
            for i in 0..20 {
                let t = benign(s as u32 * 10_000 + i);
                driver.neighbor_verifier_mut(s).observe(&t);
                let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
                if v.action == RuleAction::Allow {
                    driver.victim_verifier_mut(s).observe(&t);
                }
            }
        }
        let retries_before = driver.audit_retries_used();
        let outcome = driver.close_round().unwrap();
        assert!(outcome.slices[2].quarantined);
        assert!(!outcome.dirty());
        assert_eq!(
            driver.audit_retries_used(),
            retries_before,
            "skipped slice must not burn retries"
        );
    }

    /// Rejoins quarantined slice `i` onto probation the way the harness
    /// does: fresh verifier pair first, then the resync.
    fn rejoin(
        enclaves: &[Arc<Enclave<FilterEnclaveApp>>],
        driver: &mut ClusterRoundDriver,
        i: usize,
    ) {
        driver.replace_slice(
            i,
            Arc::clone(&enclaves[i]),
            Verifier::new(LogDirection::Outgoing, SEED, KEY, 0),
            Verifier::new(LogDirection::Incoming, SEED, KEY, 0),
        );
        driver.lifecycle().advance(i, SliceEvent::Resync).unwrap();
    }

    /// Drives `per_slice` benign packets through the given slices only
    /// (quarantined slices must stay untouched or their frozen logs
    /// desync).
    fn partial_round(
        enclaves: &[Arc<Enclave<FilterEnclaveApp>>],
        driver: &mut ClusterRoundDriver,
        per_slice: u32,
        skip: usize,
    ) {
        for (s, enclave) in enclaves.iter().enumerate() {
            if s == skip {
                continue;
            }
            for i in 0..per_slice {
                let t = benign(s as u32 * 10_000 + i);
                driver.neighbor_verifier_mut(s).observe(&t);
                let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
                if v.action == RuleAction::Allow {
                    driver.victim_verifier_mut(s).observe(&t);
                }
            }
        }
    }

    #[test]
    fn probation_promotes_after_consecutive_clean_audits() {
        let (enclaves, mut driver) = cluster_setup(3);
        let table = Arc::clone(driver.lifecycle());
        table.advance(1, SliceEvent::Excise).unwrap();
        partial_round(&enclaves, &mut driver, 20, 1);
        driver.close_round().unwrap();
        table.settle_round(1);

        // Rejoin on probation: fresh verifier pair, the K = 2 window.
        rejoin(&enclaves, &mut driver, 1);
        assert_eq!(table.state(1), SliceState::Probation);
        for k in 0..PROBATION_ROUNDS {
            assert_eq!(table.state(1), SliceState::Probation, "round {k}");
            cluster_round(&enclaves, &mut driver, 20, None);
            let outcome = driver.close_round().unwrap();
            assert!(!outcome.dirty(), "probation round {k}: {outcome:?}");
            assert!(outcome.slices[1].probation, "probation round {k}");
            assert!(!outcome.slices[1].quarantined, "probation round {k}");
            table.settle_round(1);
        }
        assert_eq!(table.state(1), SliceState::Live, "promoted to full trust");
        assert_eq!(table.recovered_slices(), vec![1]);
        assert_eq!(table.rejoin_attempts(1), 0);
        assert_eq!(driver.probation_rounds_used(), 2);
        assert_eq!(driver.state(), ContractState::Active);

        // Fully trusted again: an honest round still audits clean.
        cluster_round(&enclaves, &mut driver, 20, None);
        let outcome = driver.close_round().unwrap();
        assert!(!outcome.dirty());
        assert!(!outcome.slices[1].probation);
    }

    #[test]
    fn fault_hook_sees_the_round_an_earlier_rejoined_slice_names() {
        let (enclaves, mut driver) = cluster_setup(2);
        let table = Arc::clone(driver.lifecycle());
        driver.set_export_fault(Box::new(|slice, round, attempt| {
            if (slice, round, attempt) == (1, 2, 0) {
                ExportFault::Corrupt
            } else {
                ExportFault::None
            }
        }));
        // Slice 0 sits round 0 out, so its logs count one round behind.
        table.advance(0, SliceEvent::Excise).unwrap();
        partial_round(&enclaves, &mut driver, 10, 0);
        driver.close_round().unwrap();
        table.settle_round(1);
        rejoin(&enclaves, &mut driver, 0);
        for _ in 0..PROBATION_ROUNDS {
            cluster_round(&enclaves, &mut driver, 10, None);
            driver.close_round().unwrap();
            table.settle_round(1);
        }
        // Round 2 faulted slice 1 once.
        assert_eq!(driver.audit_retries_used(), 1);
        assert_eq!(table.state(0), SliceState::Live);
        // Closing round 3, the trusted slice 0 names round 2, and slice 1
        // is asked about round 2 again, as the serial loop always did.
        cluster_round(&enclaves, &mut driver, 10, None);
        assert!(!driver.close_round().unwrap().dirty());
        assert_eq!(driver.audit_retries_used(), 2);
    }

    #[test]
    fn dirty_probation_audit_demotes_without_striking() {
        let (enclaves, mut driver) = cluster_setup(3);
        let table = Arc::clone(driver.lifecycle());
        table.advance(1, SliceEvent::Excise).unwrap();
        partial_round(&enclaves, &mut driver, 20, 1);
        driver.close_round().unwrap();
        table.settle_round(1);

        // Every attempt, the operator steals the probation slice's would-be
        // output and the shadow audit catches it. Flap damping: wait 2
        // rounds, then 4, then the budget is exhausted for good.
        for (attempt, backoff) in [(1, Some(2)), (2, Some(4)), (3, None)] {
            let round = u64::from(attempt);
            rejoin(&enclaves, &mut driver, 1);
            cluster_round(&enclaves, &mut driver, 20, Some(1));
            let outcome = driver.close_round().expect("demote, not abort");
            assert!(!outcome.dirty(), "probation failures never dirty the round");
            assert_eq!(outcome.dirty_probation_slices(), vec![1]);
            // Demoted at once, before the round settles; no strike charged.
            assert_eq!(table.state(1), SliceState::Quarantined);
            assert_eq!(driver.state(), ContractState::Active);
            assert_eq!(table.rejoin_attempts(1), attempt);
            assert_eq!(table.rejoin_not_before(1), backoff.map(|b| round + 1 + b));
            table.settle_round(1);
        }
        assert!(table.recovered_slices().is_empty());
        // The trusted survivors were never affected.
        assert_eq!(driver.state(), ContractState::Active);
        assert_eq!(driver.probation_rounds_used(), 3);
    }

    #[test]
    fn unauditable_probation_slice_is_demoted_not_contract_ending() {
        let (enclaves, mut driver) = cluster_setup(2);
        let table = Arc::clone(driver.lifecycle());
        table.advance(1, SliceEvent::Excise).unwrap();
        partial_round(&enclaves, &mut driver, 10, 1);
        driver.close_round().unwrap();

        rejoin(&enclaves, &mut driver, 1);
        // The probation slice's export never arrives. Under the default
        // AbortContract policy this would end the contract for a trusted
        // slice — for a probation slice it only fails the probation.
        driver.set_export_fault(Box::new(|slice, _, _| {
            if slice == 1 {
                ExportFault::Timeout
            } else {
                ExportFault::None
            }
        }));
        cluster_round(&enclaves, &mut driver, 10, None);
        let outcome = driver.close_round().expect("demote, not abort");
        assert!(!outcome.dirty());
        assert!(outcome.slices[1].quarantined);
        assert!(outcome.slices[1].probation);
        assert_eq!(table.state(1), SliceState::Quarantined);
        assert_eq!(driver.state(), ContractState::Active);
        assert_eq!(table.rejoin_attempts(1), 1);
    }

    #[test]
    fn quarantined_slice_is_excised_from_audits() {
        let (enclaves, mut driver) = cluster_setup(4);
        // Slice 2's worker died: its neighbors observed round traffic the
        // enclave never logged. Quarantining before close_round prevents
        // the false DropDetected.
        driver.lifecycle().advance(2, SliceEvent::Excise).unwrap();
        for (s, enclave) in enclaves.iter().enumerate() {
            for i in 0..25 {
                let t = benign(s as u32 * 10_000 + i);
                if s == 2 {
                    // Traffic toward the dead slice: observed by the
                    // neighbor, never processed. (In the integrated stack
                    // the harness re-steers these; worst case modeled.)
                    continue;
                }
                driver.neighbor_verifier_mut(s).observe(&t);
                let v = enclave.in_enclave_thread(|app| app.process(&t, 64));
                if v.action == RuleAction::Allow {
                    driver.victim_verifier_mut(s).observe(&t);
                }
            }
        }
        let outcome = driver.close_round().unwrap();
        assert!(!outcome.dirty());
        assert!(outcome.slices[2].quarantined);
        assert_eq!(outcome.round, 0);
        assert_eq!(driver.state(), ContractState::Active);
        // The dead enclave's sketches are frozen (round 0), survivors
        // rotated to round 1.
        for (s, enclave) in enclaves.iter().enumerate() {
            let export = enclave.ecall(|app| app.export_log_for(0, LogDirection::Outgoing));
            let expect = if s == 2 { 0 } else { 1 };
            assert_eq!(export.round, expect, "slice {s}");
        }
    }
}
