//! The slice lifecycle: one state per slice, one checked transition
//! function, read-only predicates for everyone else.
//!
//! The victim, the neighbour and the filtering network must agree, packet
//! by packet, on which enclave slice was responsible for a flow — every
//! slice is audited on its own logs. So where slice *w* stands is stored
//! exactly once, in a [`SliceLifecycle`] table the cluster creates and the
//! service and every tenant's round driver share by handle. Components
//! *post* [`SliceEvent`]s through [`SliceLifecycle::advance`] and *read*
//! the predicate they need; none keeps a flag of its own.
//!
//! | state         | steered | shadowed | published | audited       |
//! |---------------|---------|----------|-----------|---------------|
//! | `Live`        | yes     | –        | yes       | trusted       |
//! | `Mute`        | yes     | –        | –         | trusted       |
//! | `Unauditable` | yes     | –        | –         | –             |
//! | `Crashed`     | yes¹    | –        | –         | –             |
//! | `Quarantined` | –       | –        | –         | –             |
//! | `Probation`   | –       | yes      | yes       | never strikes |
//!
//! ¹ onto a ring nobody drains: the residue is reaped as `uncovered` at
//! the round barrier, which is also where the slice becomes `Quarantined`.
//!
//! The service posts `Crash` and `Reaped`, the cluster `AckLost`, `Excise`
//! and `Resync`, and each tenant's round driver posts its audit verdict as
//! a *vote* — `Unauditable`, `ProbationDirty`, `ProbationClean`. A dirty
//! or unauditable vote acts at once, for every tenant; clean votes are
//! tallied and settled once per round ([`SliceLifecycle::settle_round`])
//! against the number of tenants that audited. [`SliceState::on`] is the
//! whole legal-edge relation.

use crate::sharded::shard_of_fingerprint;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use vif_telemetry::{EventKind, TelemetryHub};

/// Consecutive rounds in which every auditing tenant's probation audit
/// must come back clean before a rejoined slice is steered again.
pub const PROBATION_ROUNDS: u32 = 2;
/// Failed probations after which a slice is no longer re-scheduled (flap
/// damping: three attempts in total).
pub const REJOIN_RETRIES: u32 = 2;
/// Rounds a demoted slice waits before its next attempt; doubles per
/// failed attempt (2, 4, …).
pub const REJOIN_BACKOFF_ROUNDS: u64 = 2;

/// Where a slice stands (see the [module table](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SliceState {
    /// Fully trusted.
    Live,
    /// Missed a rule epoch after every ack retry.
    Mute,
    /// Export retries exhausted.
    Unauditable,
    /// Death seen, ring reap pending at the round barrier.
    Crashed,
    /// Excised from steering, publication and audit.
    Quarantined,
    /// Relaunched and resynced, not yet trusted.
    Probation,
}

use SliceState::*;

impl SliceState {
    /// Every state, in discriminant order.
    pub const ALL: [SliceState; 6] = [Live, Mute, Unauditable, Crashed, Quarantined, Probation];

    /// Flows whose home shard this is are offered to it.
    pub fn steered(self) -> bool {
        !matches!(self, Quarantined | Probation)
    }

    /// Its home shard's packets are mirrored onto it as shadow traffic.
    pub fn shadowed(self) -> bool {
        self == Probation
    }

    /// It receives rule epochs, contract provisioning and re-replication,
    /// and its rule telemetry is read.
    pub fn published(self) -> bool {
        matches!(self, Live | Probation)
    }

    /// Its logs are exported and audited each round (on probation the
    /// verdict votes instead of striking).
    pub fn audited(self) -> bool {
        matches!(self, Live | Mute | Probation)
    }

    /// The legal-edge relation: the state `event` leads to from `self`,
    /// or `None` if the event cannot happen here. A result equal to
    /// `self` is an idempotent no-op (a second tenant's dirty vote, a
    /// crash injected into an already dead slice, the service respawning
    /// a worker the cluster already resynced).
    pub fn on(self, event: SliceEvent) -> Option<SliceState> {
        use SliceEvent as E;
        Some(match (self, event) {
            (Live | Mute | Unauditable, E::Crash) => Crashed,
            (Crashed | Quarantined, E::Crash) => self,
            (Live | Mute | Unauditable | Crashed, E::Reaped | E::Excise) => Quarantined,
            (Live, E::AckLost) => Mute,
            (Live | Mute | Unauditable, E::Unauditable) => Unauditable,
            (Quarantined, E::Excise | E::Unauditable | E::ProbationDirty) => Quarantined,
            (Quarantined, E::Resync) => Probation,
            (Probation, E::ProbationClean | E::Resync) => Probation,
            (Probation, E::Promote) => Live,
            // Anything else that happens on probation fails the probation.
            (Probation, _) => Quarantined,
            _ => return None,
        })
    }
}

/// Something that happened to a slice, posted to
/// [`SliceLifecycle::advance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceEvent {
    /// A clean crash was injected into the slice's worker.
    Crash,
    /// The round barrier found the worker thread gone and reaped its ring.
    Reaped,
    /// The slice's publish ack never arrived within the retry budget.
    AckLost,
    /// An operator excised the slice from the pool.
    Excise,
    /// Master state was replayed onto the relaunched slice.
    Resync,
    /// A tenant's export retries ran out: the slice cannot be audited.
    Unauditable,
    /// A tenant's probation audit came back dirty.
    ProbationDirty,
    /// A tenant's probation audit came back clean (tallied until
    /// [`SliceLifecycle::settle_round`]).
    ProbationClean,
    /// The probation window closed clean for every auditing tenant
    /// (posted by [`SliceLifecycle::settle_round`]; refused until
    /// [`PROBATION_ROUNDS`] unanimous rounds have settled).
    Promote,
}

/// An event posted to a slice whose state does not admit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalTransition {
    /// The slice the event was posted to.
    pub slice: usize,
    /// The state it was in.
    pub state: SliceState,
    /// The event that does not apply there.
    pub event: SliceEvent,
}

/// One entry of the transition log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The lifecycle round (settles so far) it happened in.
    pub round: u64,
    /// The slice.
    pub slice: usize,
    /// State before.
    pub from: SliceState,
    /// State after (equal to `from` for an idempotent no-op, which is
    /// returned but never logged).
    pub to: SliceState,
}

impl Transition {
    /// Whether the state actually moved.
    pub fn changed(&self) -> bool {
        self.from != self.to
    }
}

/// What is per slice rather than per tenant besides the state itself.
#[derive(Debug, Clone, Copy, Default)]
struct Rejoin {
    /// Consecutive settled all-clean probation rounds.
    streak: u32,
    /// Clean votes tallied since the last settle.
    clean_votes: usize,
    /// Failed probations so far (never reset: flap damping has memory).
    attempts: u32,
    /// A rejoin is wanted (recover intent, or re-armed by a demotion).
    wanted: bool,
    /// First round the next attempt may start in.
    not_before: u64,
}

#[derive(Debug)]
struct Ledger {
    round: u64,
    slices: Vec<Rejoin>,
    log: Vec<Transition>,
    telemetry: Option<Arc<TelemetryHub>>,
}

/// The per-deployment lifecycle table.
///
/// State bytes are atomics so readers never lock; every read and write
/// happens on the control thread that drives the service (`Relaxed`
/// suffices — the byte publishes no other data). Transitions serialise on
/// the ledger mutex, which `offer` never touches.
#[derive(Debug)]
pub struct SliceLifecycle {
    states: Vec<AtomicU8>,
    ledger: Mutex<Ledger>,
}

impl SliceLifecycle {
    /// A table of `n` slices, all [`SliceState::Live`].
    pub fn new(n: usize) -> Self {
        SliceLifecycle {
            states: (0..n).map(|_| AtomicU8::new(Live as u8)).collect(),
            ledger: Mutex::new(Ledger {
                round: 0,
                slices: vec![Rejoin::default(); n],
                log: Vec::new(),
                telemetry: None,
            }),
        }
    }

    /// Number of slices.
    pub fn slices(&self) -> usize {
        self.states.len()
    }

    /// Attaches a telemetry hub: transitions record their flight-recorder
    /// event ([`EventKind::Quarantine`], `Probation`, `Promote`, `Demote`)
    /// once, however many tenants audit the slice; the hub's per-slice
    /// counts are counts of these events.
    pub fn set_telemetry(&self, hub: Arc<TelemetryHub>) {
        self.ledger().telemetry = Some(hub);
    }

    fn ledger(&self) -> MutexGuard<'_, Ledger> {
        self.ledger.lock().expect("lifecycle ledger poisoned")
    }

    /// Slice `i`'s state.
    #[inline]
    pub fn state(&self, i: usize) -> SliceState {
        SliceState::ALL[self.states[i].load(Ordering::Relaxed) as usize]
    }

    /// The slices whose state satisfies `pred`, ascending — e.g.
    /// `slices_where(SliceState::steered)`.
    pub fn slices_where(&self, pred: fn(SliceState) -> bool) -> Vec<usize> {
        (0..self.slices())
            .filter(|&i| pred(self.state(i)))
            .collect()
    }

    /// The failover hash: the slice that handles a flow whose RSS home
    /// shard is `home` — `home` itself while it is steered, otherwise the
    /// flow re-hashes over the steered slices. Total: with every slice
    /// down the flow stays on `home` (and is reaped as `uncovered`). Pure
    /// in the table, so verifiers attribute exactly as the service steers.
    pub fn steer(&self, tuple_fp: u64, home: usize) -> usize {
        if self.state(home).steered() {
            return home;
        }
        let survivors = || (0..self.slices()).filter(|&i| self.state(i).steered());
        match survivors().count() {
            0 => home,
            live => survivors()
                .nth(shard_of_fingerprint(tuple_fp, live))
                .expect("index below the survivor count"),
        }
    }

    /// A detached copy of every state (empty ledger) — what verifiers
    /// attribute a round's packets with, since a worker dying mid-round
    /// still forwarded part of the offer under the steering the round
    /// started with.
    pub fn snapshot(&self) -> SliceLifecycle {
        let copy = SliceLifecycle::new(self.slices());
        for (to, from) in copy.states.iter().zip(&self.states) {
            to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        copy
    }

    /// Posts `event` to `slice`: the only way a state changes.
    ///
    /// # Errors
    ///
    /// [`IllegalTransition`] if the slice's state does not admit the
    /// event; nothing changes.
    pub fn advance(
        &self,
        slice: usize,
        event: SliceEvent,
    ) -> Result<Transition, IllegalTransition> {
        self.apply(&mut self.ledger(), slice, event)
    }

    fn apply(
        &self,
        ledger: &mut Ledger,
        slice: usize,
        event: SliceEvent,
    ) -> Result<Transition, IllegalTransition> {
        let from = self.state(slice);
        let round = ledger.round;
        let r = &mut ledger.slices[slice];
        // The edge to `Live` exists only once the window is served.
        let unserved = event == SliceEvent::Promote && r.streak < PROBATION_ROUNDS;
        let to = from
            .on(event)
            .filter(|_| !unserved)
            .ok_or(IllegalTransition {
                slice,
                state: from,
                event,
            })?;
        let t = Transition {
            round,
            slice,
            from,
            to,
        };
        if event == SliceEvent::ProbationClean {
            r.clean_votes += 1;
        }
        if !t.changed() {
            return Ok(t);
        }
        if to == Probation {
            (r.streak, r.clean_votes) = (0, 0);
        }
        let demoted = from == Probation && to == Quarantined;
        if demoted {
            r.attempts += 1;
            r.wanted = r.attempts <= REJOIN_RETRIES;
            let factor = 1u64.checked_shl(r.attempts - 1).unwrap_or(u64::MAX);
            r.not_before = (round + 1).saturating_add(REJOIN_BACKOFF_ROUNDS.saturating_mul(factor));
        }
        let (streak, attempts) = (r.streak as u64, r.attempts as u64);
        self.states[slice].store(to as u8, Ordering::Relaxed);
        ledger.log.push(t);
        if let Some(hub) = &ledger.telemetry {
            let record = |kind, a| hub.record_event(kind, slice as u32, a, 0);
            match to {
                Probation => record(EventKind::Probation, attempts),
                Live => record(EventKind::Promote, streak),
                Quarantined | Unauditable => {
                    if demoted {
                        record(EventKind::Demote, attempts);
                    }
                    // `a = 1` marks the export-failure origin.
                    record(EventKind::Quarantine, u64::from(to == Unauditable));
                }
                Mute | Crashed => {}
            }
        }
        Ok(t)
    }

    /// Closes the lifecycle round: a probation slice that collected a
    /// clean vote from each of the `auditing` tenants extends its streak
    /// and is promoted at [`PROBATION_ROUNDS`]; the round counter ticks.
    /// Returns the promotions.
    pub fn settle_round(&self, auditing: usize) -> Vec<Transition> {
        let ledger = &mut *self.ledger();
        let mut promoted = Vec::new();
        for slice in 0..self.slices() {
            let r = &mut ledger.slices[slice];
            let unanimous = auditing > 0 && r.clean_votes >= auditing;
            r.clean_votes = 0;
            if unanimous && self.state(slice) == Probation {
                r.streak += 1;
                // Refused until the window is served.
                promoted.extend(self.apply(ledger, slice, SliceEvent::Promote));
            }
        }
        ledger.round += 1;
        promoted
    }

    /// Records the intent to bring `slice` back (a recover order); the
    /// attempt itself starts when
    /// [`take_due_rejoin`](SliceLifecycle::take_due_rejoin) says so.
    pub fn request_rejoin(&self, slice: usize) {
        self.ledger().slices[slice].wanted = true;
    }

    /// Whether a rejoin attempt of `slice` should start now: one is
    /// wanted, the slice is quarantined, its backoff has run out and its
    /// attempt budget ([`REJOIN_RETRIES`]) is not spent. Consumes the
    /// intent once the slice is eligible — a demotion re-arms it with the
    /// next backoff.
    pub fn take_due_rejoin(&self, slice: usize) -> bool {
        let ledger = &mut *self.ledger();
        let r = &mut ledger.slices[slice];
        if !r.wanted || self.state(slice) != Quarantined || ledger.round < r.not_before {
            return false;
        }
        r.wanted = false;
        r.attempts <= REJOIN_RETRIES
    }

    /// Failed probations charged against `slice` so far.
    pub fn rejoin_attempts(&self, slice: usize) -> u32 {
        self.ledger().slices[slice].attempts
    }

    /// The first round `slice`'s next rejoin attempt may start in, if one
    /// is wanted.
    pub fn rejoin_not_before(&self, slice: usize) -> Option<u64> {
        let r = self.ledger().slices[slice];
        r.wanted.then_some(r.not_before)
    }

    /// Every state change so far, in order.
    pub fn log(&self) -> Vec<Transition> {
        self.ledger().log.clone()
    }

    /// Slices that were excised from the audit loop, in order of first
    /// excision.
    pub fn quarantined_slices(&self) -> Vec<usize> {
        let mut order = Vec::new();
        for t in &self.ledger().log {
            if matches!(t.to, Quarantined | Unauditable) && !order.contains(&t.slice) {
                order.push(t.slice);
            }
        }
        order
    }

    /// Slices promoted back to full trust, in promotion order.
    pub fn recovered_slices(&self) -> Vec<usize> {
        let log = &self.ledger().log;
        let promoted = log.iter().filter(|t| t.to == Live);
        promoted.map(|t| t.slice).collect()
    }

    /// Rounds from the first-promoted slice's first quarantine to that
    /// promotion (the run's mean-time-to-rejoin figure).
    pub fn rejoin_rounds(&self) -> Option<u64> {
        let log = &self.ledger().log;
        let up = log.iter().find(|t| t.to == Live)?;
        let down = log
            .iter()
            .find(|t| t.slice == up.slice && t.to == Quarantined)?;
        Some(up.round - down.round)
    }
}
