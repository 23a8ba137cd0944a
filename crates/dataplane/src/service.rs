//! The always-on sharded dataplane service.
//!
//! The paper's filtering contract is a *service*: rounds, audits, and rule
//! churn arrive continuously while the same worker threads keep forwarding
//! (a one-shot experiment is simply one round). [`DataplaneService`] keeps
//! N filter workers and one TX thread alive on persistent rings — the
//! sharding model is described in [`crate::sharded`] — and the caller
//! drives them through a [`ServiceHandle`]:
//!
//! - [`ServiceHandle::offer`] steers packets onto the per-worker RX rings
//!   (the caller thread *is* the RX stage, so offering composes with any
//!   control-plane work the caller interleaves between bursts);
//! - [`ServiceHandle::flush_round`] closes a round: a `Flush` control token
//!   is enqueued behind each worker's pending packets, forwarded by the
//!   worker to the TX ring behind its forwarded packets, and counted by the
//!   TX thread — FIFO rings turn the token into a precise round barrier
//!   with no stop-the-world. When the TX thread has seen one token per
//!   worker, every packet of the round has been decided *and* delivered to
//!   the sink, and the handle reports exactly that round. It keeps one
//!   round tally, a [`PacketCounts`] cell per (worker, contract), and
//!   every report is a view of it: the per-worker report is its rows,
//!   [`ServiceHandle::contract_deltas`] its columns, and an attached
//!   telemetry hub adds both to its running sums, so each packet is
//!   counted once and the five counters are defined once, in
//!   `vif_telemetry`.
//!
//! # Control channel
//!
//! Each worker consumes one message stream (its RX ring) carrying two
//! message kinds: `Pkt(packet)` and `Flush(seq)`. Round boundaries are
//! therefore ordinary in-band messages — there is no pause/resume
//! handshake, and a worker never blocks on anything but its own ring.
//! Shutdown is a flag checked only when a ring runs dry, so it cannot
//! preempt queued work. Rule updates never appear on these rings at all:
//! stages read their rule state through epoch-published snapshots (see
//! `vif-core`'s publication path), so the data plane's control protocol
//! stays three messages big.
//!
//! # Hand-offs
//!
//! Every ring hop moves a burst under one lock. `offer` walks its packets
//! in [`ServiceConfig::burst`]-sized chunks, stages each chunk per target
//! worker, and hands each worker its share with one burst enqueue and at
//! most one wakeup; a worker dequeues a burst, decides it, and pushes the
//! forwarded packets to TX with one burst enqueue; the TX thread dequeues
//! a burst. A forwarded packet therefore costs a share of four locks per
//! burst rather than four locks of its own, and no packet waits for a
//! later one: a chunk leaves `offer` as soon as it is staged.
//!
//! # Idle behavior
//!
//! Between rounds the rings are empty and a busy-poll loop would pin every
//! core at 100%. Consumers instead spin for a bounded number of polls
//! ([`ServiceConfig::spin_limit`]), then *park* after publishing a parked
//! flag; producers check the flag after every burst enqueue and unpark the
//! consumer. The flag is re-checked against the ring between publishing
//! and parking, which closes the sleep/wake race; a bounded
//! [`ServiceConfig::park_timeout`] bounds the cost of any missed wakeup.
//! The net effect: an idle service consumes (almost) no CPU, and wakes
//! within one burst of traffic arriving — pinned by a regression test.
//!
//! # Recovery lifecycle
//!
//! Where each worker's slice stands lives in the deployment's
//! [`SliceLifecycle`] table ([`crate::lifecycle`] has the state ×
//! predicate table); the handle keeps no flag of its own. It does the
//! physical half and posts what it sees: [`ServiceHandle::inject_crash`]
//! posts `Crash`, the round barrier posts `Reaped` when it finds a worker
//! thread gone (and reaps a live thread left in a slot the table no longer
//! steers or shadows), [`ServiceHandle::respawn_worker`] starts a fresh
//! thread on the recycled ring. [`ServiceHandle::offer`] reads one state
//! byte per packet: a steered home shard gets the packet, anything else
//! re-hashes over the steered slices, and a shadowed (probation) home
//! shard also gets a mirror copy — processed, so the rejoined enclave's
//! logs can be audited, yet never counted or delivered. Promotion is a
//! table transition and nothing else, exactly inverting the re-steer.
//!
//! # Panic safety
//!
//! Worker and TX threads signal liveness through drop guards: a stage or
//! sink that panics mid-round unblocks everything spinning on its rings,
//! the handle's round wait notices the death, and the panic propagates
//! from the scope join (`"worker thread"` / `"tx thread"`).

use crate::lifecycle::{SliceEvent, SliceLifecycle, SliceState};
use crate::packet::{FiveTuple, Packet};
use crate::ring::Ring;
use crate::sharded::ShardedReport;
use crate::stage::{PacketStage, StageVerdict};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::Thread;
use std::time::Duration;
use vif_telemetry::{fault, EventKind, Histogram, PacketCounts, TelemetryHub};

/// One message on a worker's RX ring.
#[derive(Debug, Clone, Copy)]
enum WorkerMsg {
    /// A packet to decide.
    Pkt(Packet),
    /// Round barrier: everything enqueued before this token belongs to
    /// round `seq`; the worker forwards it to TX behind its output.
    Flush(u64),
    /// Fault injection: the worker exits its loop cleanly when it dequeues
    /// this, having decided everything enqueued before it. Ring residue
    /// behind the token becomes the handle's `uncovered` accounting.
    Crash,
    /// Fault injection: a junk message the worker dequeues and discards —
    /// it consumes ring capacity (overflow-storm pressure) but touches no
    /// counter and no stage.
    Noise,
    /// A mirrored copy of a packet whose home shard is on probation: the
    /// worker runs it through its stage for the side effects (enclave
    /// logs, sketches) but counts nothing and delivers nothing — the real
    /// copy was re-steered to a survivor and is accounted there.
    Shadow(Packet),
}

/// One message on the shared TX ring.
#[derive(Debug, Clone, Copy)]
enum TxMsg {
    /// A forwarded packet from `worker`.
    Pkt(usize, Packet),
    /// A worker's round-`seq` barrier token (one per worker per round).
    Flush(u64),
}

/// Per-contract policy for traffic whose worker is dead or quarantined:
/// does the outage drop the traffic or let it bypass filtering?
///
/// Either way every such packet is charged to the `uncovered` counter —
/// the mode only decides delivery, never accounting, so the victim's
/// audit view of the outage window is identical under both policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedMode {
    /// Outage traffic is dropped (filtered-by-default). The safe default:
    /// no attack packet ever reaches the victim unfiltered.
    #[default]
    FailClosed,
    /// Outage traffic is delivered *unfiltered* to the sink (availability
    /// over filtering). Still counted `uncovered`, never `forwarded`.
    FailOpen,
}

/// Maps destination addresses to tenant contracts (longest prefix wins)
/// so the service can split its round counters per contract.
///
/// Contract ids are plain `u32`s matching `vif-core`'s `ContractId`;
/// unmapped destinations fall through to the default contract `0`. The
/// map is fixed for the lifetime of a service run — tenancy churn happens
/// at the rule/publication layer, not per packet.
#[derive(Debug, Clone)]
pub struct ContractMap {
    /// `(network, prefix_len, dense_slot)` sorted longest-prefix-first.
    entries: Vec<(u32, u8, usize)>,
    /// Dense slot → contract id; slot 0 is always the default contract 0.
    ids: Vec<u32>,
    /// Dense slot → degraded-mode policy (parallel to `ids`).
    modes: Vec<DegradedMode>,
}

impl Default for ContractMap {
    fn default() -> Self {
        ContractMap::new()
    }
}

impl ContractMap {
    /// An empty map: every packet belongs to contract 0.
    pub fn new() -> Self {
        ContractMap {
            entries: Vec::new(),
            ids: vec![0],
            modes: vec![DegradedMode::default()],
        }
    }

    /// Routes `network/prefix_len` (host-order address) to `contract`.
    pub fn assign(&mut self, network: u32, prefix_len: u8, contract: u32) {
        assert!(prefix_len <= 32, "prefix length out of range");
        let slot = self.slot_for(contract);
        let mask = mask_of(prefix_len);
        self.entries.push((network & mask, prefix_len, slot));
        // Longest-prefix-first keeps lookup a linear first-match scan.
        self.entries.sort_by_key(|e| std::cmp::Reverse(e.1));
    }

    /// Sets `contract`'s degraded-mode policy (default:
    /// [`DegradedMode::FailClosed`]), registering the contract if new.
    pub fn set_degraded_mode(&mut self, contract: u32, mode: DegradedMode) {
        let slot = self.slot_for(contract);
        self.modes[slot] = mode;
    }

    /// `contract`'s degraded-mode policy.
    pub fn degraded_mode(&self, contract: u32) -> DegradedMode {
        match self.ids.iter().position(|&c| c == contract) {
            Some(slot) => self.modes[slot],
            None => DegradedMode::default(),
        }
    }

    /// Dense slot for `contract`, registering it if unknown.
    fn slot_for(&mut self, contract: u32) -> usize {
        match self.ids.iter().position(|&c| c == contract) {
            Some(s) => s,
            None => {
                self.ids.push(contract);
                self.modes.push(DegradedMode::default());
                self.ids.len() - 1
            }
        }
    }

    /// Contract ids known to the map, dense-slot order (`0` first).
    pub fn contracts(&self) -> &[u32] {
        &self.ids
    }

    /// The contract owning `dst_ip` (0 if unmapped).
    pub fn contract_of(&self, dst_ip: u32) -> u32 {
        self.ids[self.slot_of(dst_ip)]
    }

    /// Dense counter slot for `dst_ip`. A map with only the default
    /// contract skips the prefix scan, so the single-tenant hot path stays
    /// lookup-free.
    fn slot_of(&self, dst_ip: u32) -> usize {
        if self.ids.len() == 1 {
            return 0;
        }
        for &(net, len, slot) in &self.entries {
            if dst_ip & mask_of(len) == net {
                return slot;
            }
        }
        0
    }
}

fn mask_of(prefix_len: u8) -> u32 {
    if prefix_len == 0 {
        0
    } else {
        u32::MAX << (32 - prefix_len as u32)
    }
}

/// Tuning knobs for a [`DataplaneService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Per-worker RX ring capacity (also the shared TX ring capacity).
    pub ring_capacity: usize,
    /// Burst size of every ring hand-off: `offer`'s chunks and the
    /// worker/TX dequeue loops.
    pub burst: usize,
    /// Empty polls a consumer spins (yielding) before it parks.
    pub spin_limit: u32,
    /// Upper bound on one park: a missed wakeup costs at most this long.
    pub park_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            ring_capacity: 16_384,
            burst: 32,
            spin_limit: 256,
            park_timeout: Duration::from_millis(1),
        }
    }
}

/// State shared between the handle, the workers, and the TX thread.
struct Shared {
    rx_rings: Vec<Ring<WorkerMsg>>,
    tx_ring: Ring<TxMsg>,
    /// Tenant attribution: dst prefix → dense contract slot.
    contracts: ContractMap,
    /// The workers' half of the round tally: cumulative (forwarded,
    /// filtered) per (worker, contract slot) cell, indexed
    /// [`cell`](Shared::cell)-wise. Written with relaxed adds: every read
    /// that matters happens after the round barrier, whose token travels
    /// through the rings and the round mutex and therefore carries the
    /// happens-before edge.
    decided: Vec<[AtomicU64; 2]>,
    /// Per-consumer parked flags (workers, then TX) for the sleep/wake
    /// protocol, plus a global count of park events for the idle test.
    worker_parked: Vec<AtomicBool>,
    tx_parked: AtomicBool,
    park_events: AtomicU64,
    /// Liveness: per-worker flags and a count, plus the TX flag. Cleared
    /// by drop guards so panics unblock everyone.
    worker_alive: Vec<AtomicBool>,
    workers_live: AtomicUsize,
    /// Workers that died by *panic* (stage bug), as opposed to an injected
    /// clean crash: the round waiter still propagates these as fatal, while
    /// clean deaths take the quarantine path.
    workers_panicked: AtomicUsize,
    tx_alive: AtomicBool,
    /// Fault injection: a stalled worker stops draining its ring until the
    /// flag clears (every `flush_round` clears all stalls, so stalls show
    /// up as backpressure, never as a hung barrier).
    worker_stalled: Vec<AtomicBool>,
    /// Optional telemetry hub. The handle adds each settled tally's rows
    /// and columns and records control-plane events; workers record
    /// only wire sizes, into a stack [`Histogram`] merged at round
    /// barriers. `None` costs one predictable branch per packet.
    telemetry: Option<Arc<TelemetryHub>>,
    /// Set once by the handle when its scope ends; consumers exit when
    /// they see it with an empty ring.
    shutdown: AtomicBool,
    /// Highest round seq the TX thread has fully drained, guarded for the
    /// handle's condvar wait.
    round_done: Mutex<u64>,
    round_cv: Condvar,
}

impl Shared {
    fn new(
        n: usize,
        config: &ServiceConfig,
        contracts: ContractMap,
        telemetry: Option<Arc<TelemetryHub>>,
    ) -> Self {
        let c = contracts.contracts().len();
        Shared {
            rx_rings: (0..n).map(|_| Ring::new(config.ring_capacity)).collect(),
            tx_ring: Ring::new(config.ring_capacity),
            contracts,
            decided: (0..n * c).map(|_| Default::default()).collect(),
            worker_parked: (0..n).map(|_| AtomicBool::new(false)).collect(),
            tx_parked: AtomicBool::new(false),
            park_events: AtomicU64::new(0),
            worker_alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            workers_live: AtomicUsize::new(n),
            workers_panicked: AtomicUsize::new(0),
            tx_alive: AtomicBool::new(true),
            worker_stalled: (0..n).map(|_| AtomicBool::new(false)).collect(),
            telemetry,
            shutdown: AtomicBool::new(false),
            round_done: Mutex::new(0),
            round_cv: Condvar::new(),
        }
    }

    /// Round-tally cell of worker `w` and the contract owning `dst_ip`.
    fn cell(&self, w: usize, dst_ip: u32) -> usize {
        w * self.contracts.contracts().len() + self.contracts.slot_of(dst_ip)
    }

    /// Producer-side half of the sleep/wake protocol: clear the consumer's
    /// parked flag and unpark it if it was (or was about to be) parked.
    fn wake(parked: &AtomicBool, thread: &Thread) {
        if parked.load(Ordering::Acquire) && parked.swap(false, Ordering::AcqRel) {
            thread.unpark();
        }
    }
}

/// Clears a liveness flag *and wakes every waiter* when dropped —
/// including on unwind, so a panicking stage or sink can never strand the
/// round waiter or a sibling thread.
struct AliveGuard<'a> {
    shared: &'a Shared,
    /// `Some(w)` for worker `w`, `None` for the TX thread.
    worker: Option<usize>,
    tx_thread: Thread,
}

impl Drop for AliveGuard<'_> {
    fn drop(&mut self) {
        match self.worker {
            Some(w) => {
                // A panicking stage is a fatal bug the round waiter must
                // propagate; an injected clean crash is a *handled event*
                // the handle quarantines instead.
                if std::thread::panicking() {
                    self.shared.workers_panicked.fetch_add(1, Ordering::AcqRel);
                }
                self.shared.worker_alive[w].store(false, Ordering::Release);
                self.shared.workers_live.fetch_sub(1, Ordering::AcqRel);
                // The TX thread may be parked waiting for this worker's
                // output; its exit condition just changed.
                Shared::wake(&self.shared.tx_parked, &self.tx_thread);
            }
            None => self.shared.tx_alive.store(false, Ordering::Release),
        }
        // A flush_round waiter polls liveness under this condvar.
        self.shared.round_cv.notify_all();
    }
}

/// An always-on sharded dataplane: N persistent filter workers and one
/// persistent TX thread over persistent rings.
///
/// Worker stages and the sink may borrow from the caller's stack (the
/// service runs on scoped threads), so the service is used in a scoped
/// style: [`DataplaneService::run`] starts the threads, hands the caller a
/// [`ServiceHandle`], and tears the service down — joining every thread —
/// when the closure returns or panics.
///
/// # Example
///
/// ```
/// use vif_dataplane::stage::{StageOutcome, StageVerdict};
/// use vif_dataplane::service::{DataplaneService, ServiceConfig};
/// use vif_dataplane::{shard_of, Packet};
///
/// let stages: Vec<_> = (0..2)
///     .map(|_| {
///         |_p: &Packet| StageOutcome {
///             verdict: StageVerdict::Forward,
///             hashed: false,
///         }
///     })
///     .collect();
/// let traffic: Vec<Packet> = Vec::new(); // an empty round is legal
/// let report = DataplaneService::new(ServiceConfig::default()).run(
///     stages,
///     |_worker, _pkt| {},
///     |t| shard_of(t, 2),
///     |svc| {
///         svc.offer(&traffic);
///         svc.flush_round().clone()
///     },
/// );
/// assert_eq!(report.total().received, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataplaneService {
    config: ServiceConfig,
    contracts: ContractMap,
    telemetry: Option<Arc<TelemetryHub>>,
    lifecycle: Option<Arc<SliceLifecycle>>,
}

impl DataplaneService {
    /// Creates a service description with the given knobs.
    pub fn new(config: ServiceConfig) -> Self {
        DataplaneService {
            config,
            contracts: ContractMap::new(),
            telemetry: None,
            lifecycle: None,
        }
    }

    /// Shares the deployment's lifecycle table (one entry per worker,
    /// typically `EnclaveCluster::lifecycle`). Without one the service
    /// keeps a private all-`Live` table.
    pub fn with_lifecycle(mut self, table: Arc<SliceLifecycle>) -> Self {
        self.lifecycle = Some(table);
        self
    }

    /// Attaches a telemetry hub, built for as many workers as
    /// [`run`](DataplaneService::run) gets stages. At each flush barrier,
    /// and once more after shutdown, the handle adds the per-worker rows
    /// and per-contract deltas settled since the last time, the views of
    /// its one round tally, so the hub never counts a packet itself;
    /// workers merge their wire-size histograms. Fault injections,
    /// quarantines and flush barriers land in the hub's flight recorder.
    /// Recording is zero-allocation in steady state and adds one histogram
    /// bucket add per packet (gated by the `telemetry_overhead` bench).
    pub fn with_telemetry(mut self, hub: Arc<TelemetryHub>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Attributes round counters to tenant contracts by destination
    /// prefix; [`ServiceHandle::contract_deltas`] then reports each
    /// flushed round split per contract. Without a map everything counts
    /// against the default contract 0 and the per-packet lookup is
    /// skipped.
    pub fn with_contracts(mut self, contracts: ContractMap) -> Self {
        self.contracts = contracts;
        self
    }

    /// Starts the service, runs `body` with its [`ServiceHandle`] on the
    /// calling thread, then shuts the service down and joins every thread.
    ///
    /// Forwarded packets reach `sink` on the TX thread as
    /// `(worker, packet)`; `steer` maps each offered packet's five tuple
    /// to a worker (reduced modulo the worker count for safety) and runs
    /// on the calling thread inside [`ServiceHandle::offer`].
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty, the configuration is degenerate, or a
    /// shared lifecycle table or telemetry hub tracks another number of
    /// workers, and propagates panics from stages (`"worker thread"`), the
    /// sink (`"tx thread"`), and `body`.
    pub fn run<S, F, R, T>(
        &self,
        stages: Vec<S>,
        mut sink: F,
        steer: R,
        body: impl FnOnce(&mut ServiceHandle<'_, '_, R>) -> T,
    ) -> T
    where
        S: PacketStage + Send,
        F: FnMut(usize, &Packet) + Send,
        R: FnMut(&FiveTuple) -> usize,
    {
        let n = stages.len();
        assert!(n > 0, "at least one worker stage");
        assert!(
            self.config.ring_capacity > 0 && self.config.burst > 0,
            "degenerate ring/burst"
        );
        assert!(self.config.spin_limit > 0, "spin_limit must be positive");
        let lifecycle = self.lifecycle.clone().unwrap_or_else(|| {
            let private = SliceLifecycle::new(n);
            if let Some(hub) = &self.telemetry {
                private.set_telemetry(Arc::clone(hub));
            }
            Arc::new(private)
        });
        assert_eq!(lifecycle.slices(), n, "one lifecycle entry per worker");
        if let Some(hub) = &self.telemetry {
            assert_eq!(hub.worker_count(), n, "one telemetry hub worker per worker");
        }
        let config = self.config;
        let shared = Shared::new(n, &config, self.contracts.clone(), self.telemetry.clone());
        let c = shared.contracts.contracts().len();
        let shared = &shared;

        std::thread::scope(|scope| {
            let tx_handle = scope.spawn(move || tx_loop(shared, n, &mut sink, &config));
            let tx_thread = tx_handle.thread().clone();

            let mut worker_handles = Vec::with_capacity(n);
            for (w, stage) in stages.into_iter().enumerate() {
                let tx_thread = tx_thread.clone();
                worker_handles
                    .push(scope.spawn(move || worker_loop(shared, w, stage, &config, tx_thread)));
            }
            let worker_threads: Vec<Thread> =
                worker_handles.iter().map(|h| h.thread().clone()).collect();

            let mut handle = ServiceHandle {
                shared,
                scope,
                config,
                steer,
                n,
                worker_threads,
                tx_thread,
                lifecycle,
                tally: vec![PacketCounts::default(); n * c],
                settled: vec![[0; 2]; n * c],
                report: ShardedReport {
                    per_worker: vec![PacketCounts::default(); n],
                    quarantined: vec![false; n],
                },
                staged: (0..n).map(|_| Vec::with_capacity(config.burst)).collect(),
                shadows: (0..n).map(|_| Vec::with_capacity(config.burst)).collect(),
                tx_out: Vec::with_capacity(config.burst),
                contract_report: shared
                    .contracts
                    .contracts()
                    .iter()
                    .map(|&contract| (contract, PacketCounts::default()))
                    .collect(),
                seq: 0,
            };

            // The body may panic (harness assertions do); catch it so the
            // service still shuts down cleanly, then let any *thread* panic
            // take precedence — the joins below carry the canonical
            // "worker thread" / "tx thread" messages.
            let body_result = catch_unwind(AssertUnwindSafe(|| body(&mut handle)));

            shared.shutdown.store(true, Ordering::SeqCst);
            for (w, t) in handle.worker_threads.iter().enumerate() {
                shared.worker_parked[w].store(false, Ordering::SeqCst);
                t.unpark();
            }
            shared.tx_parked.store(false, Ordering::SeqCst);
            handle.tx_thread.unpark();

            for h in worker_handles {
                h.join().expect("worker thread");
            }
            tx_handle.join().expect("tx thread");
            // Packets decided after the last barrier still count.
            handle.settle();

            match body_result {
                Ok(v) => v,
                Err(panic) => resume_unwind(panic),
            }
        })
    }
}

/// The caller's control channel into a running [`DataplaneService`].
///
/// Obtained inside [`DataplaneService::run`]; offering and flushing happen
/// on the calling thread, so the caller is free to interleave control-plane
/// work (rule publication, audits) between bursts — the workers never stop.
pub struct ServiceHandle<'scope, 'env, R> {
    shared: &'scope Shared,
    /// The service's thread scope, kept so
    /// [`respawn_worker`](ServiceHandle::respawn_worker) can spawn a fresh
    /// worker thread for a quarantined slot mid-run.
    scope: &'scope std::thread::Scope<'scope, 'env>,
    config: ServiceConfig,
    steer: R,
    n: usize,
    worker_threads: Vec<Thread>,
    tx_thread: Thread,
    /// Where each worker's slice stands; read per packet, written only
    /// through [`SliceLifecycle::advance`].
    lifecycle: Arc<SliceLifecycle>,
    /// The round tally, one cell per (worker, contract slot) as in
    /// `Shared::decided`: `received` and `overflow` counted by `offer`,
    /// `uncovered` by the reaps, the decided half read from the workers'
    /// cells at the barrier. Every report is a view of it.
    tally: Vec<PacketCounts>,
    /// `Shared::decided` as read at the last flush, so each round's
    /// forwarded/filtered is a delta with no reset on the worker side.
    settled: Vec<[u64; 2]>,
    /// Reused views of the last flushed round: its tally's rows (one per
    /// worker) and columns (one per contract, dense slot order). Flushing
    /// a round is allocation-free.
    report: ShardedReport,
    contract_report: Vec<(u32, PacketCounts)>,
    /// Per-worker staging for one `burst`-sized chunk of an offer: the
    /// packets steered at each worker, and the shadow copies mirrored to
    /// each probation slice. Allocated once; every hand-off drains them.
    staged: Vec<Vec<WorkerMsg>>,
    shadows: Vec<Vec<WorkerMsg>>,
    /// TX messages the handle sends itself (barrier tokens it delivers for
    /// a dead worker, fail-open residue), pushed a burst at a time.
    tx_out: Vec<TxMsg>,
    seq: u64,
}

/// Upper bound on waiting for a cleanly-crashed worker to finish draining
/// and exit before its ring is reaped for quarantine. Generous: the worker
/// only has to decide the packets enqueued ahead of its crash token.
const QUARANTINE_WAIT: Duration = Duration::from_secs(10);

/// Re-tries that take nothing, in a row after a first attempt that took
/// nothing, `offer` grants a live worker's full ring before counting the
/// burst's leftovers `overflow`.
const OFFER_RETRIES: u32 = 64;

impl<'scope, 'env, R> ServiceHandle<'scope, 'env, R>
where
    R: FnMut(&FiveTuple) -> usize,
{
    /// Number of filter workers.
    pub fn workers(&self) -> usize {
        self.n
    }

    /// Rounds flushed so far.
    pub fn rounds(&self) -> u64 {
        self.seq
    }

    /// Total park events across all consumers (workers + TX) — nonzero
    /// once the service has idled past its spin budget.
    pub fn park_events(&self) -> u64 {
        self.shared.park_events.load(Ordering::Relaxed)
    }

    /// Steers `packets` onto the per-worker rings (the caller thread is
    /// the RX stage), one [`ServiceConfig::burst`]-sized chunk at a time:
    /// each worker's share of a chunk goes over in one burst enqueue with
    /// at most one wakeup. A live worker's ring is retried while it keeps
    /// taking packets; whatever is left once an attempt and 64 re-tries in
    /// a row take nothing counts as that worker's `overflow`. A ring whose
    /// worker is *dead* gets one attempt — overflow-while-dead is counted,
    /// never spun on.
    ///
    /// Flows whose home shard is not steered re-hash over the steered
    /// slices ([`retarget_fingerprint`](ServiceHandle::retarget_fingerprint));
    /// a shadowed (probation) home shard additionally receives a *shadow*
    /// copy — processed by its stage but never counted or delivered — so
    /// the audit layer can compare the rejoined slice's logs against its
    /// would-be share.
    pub fn offer(&mut self, packets: &[Packet]) {
        for chunk in packets.chunks(self.config.burst) {
            for pkt in chunk {
                let w0 = (self.steer)(&pkt.tuple) % self.n;
                let home = self.lifecycle.state(w0);
                let w = if home.steered() {
                    w0
                } else {
                    self.lifecycle.steer(pkt.tuple.tuple_fingerprint(), w0)
                };
                self.tally[self.shared.cell(w, pkt.tuple.dst_ip)].received += 1;
                self.staged[w].push(WorkerMsg::Pkt(*pkt));
                if home.shadowed() && w != w0 {
                    self.shadows[w0].push(WorkerMsg::Shadow(*pkt));
                }
            }
            for w in 0..self.n {
                if !self.staged[w].is_empty() {
                    // A dead target (crash pending its reap, or nowhere
                    // left to re-steer) gets one attempt, no spinning on a
                    // ring nobody drains: residue becomes `uncovered` at
                    // the barrier, a full ring counts `overflow` right away.
                    let target = self.lifecycle.state(w);
                    let live = target != SliceState::Crashed && target.steered();
                    let worker = &self.worker_threads[w];
                    push_rx(self.shared, w, worker, &mut self.staged[w], live);
                    for msg in self.staged[w].drain(..) {
                        if let WorkerMsg::Pkt(p) = msg {
                            self.tally[self.shared.cell(w, p.tuple.dst_ip)].overflow += 1;
                        }
                    }
                }
                if !self.shadows[w].is_empty() {
                    // Shadows take the same bounded-retry path as live
                    // packets so the mirrored share is deterministic under
                    // test loads, but one lost to sustained backpressure is
                    // dropped without any counter: the real copy was
                    // accounted at its target.
                    let worker = &self.worker_threads[w];
                    push_rx(self.shared, w, worker, &mut self.shadows[w], true);
                    self.shadows[w].clear();
                }
            }
        }
    }

    /// Enqueues one control token on worker `w`'s ring and wakes the
    /// worker, waiting for ring space for as long as the worker lives.
    /// `false`: the worker died first.
    fn push_token(&self, w: usize, mut msg: WorkerMsg) -> bool {
        loop {
            let enqueued = self.shared.rx_rings[w].enqueue(msg);
            Shared::wake(&self.shared.worker_parked[w], &self.worker_threads[w]);
            match enqueued {
                Ok(()) => return true,
                Err(back) => msg = back,
            }
            if !self.shared.worker_alive[w].load(Ordering::Acquire) {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// The worker that will actually handle a flow whose RSS shard is
    /// `w0`: [`SliceLifecycle::steer`], the one failover hash verifiers
    /// recompute attribution with.
    pub fn retarget_fingerprint(&self, tuple_fp: u64, w0: usize) -> usize {
        self.lifecycle.steer(tuple_fp, w0 % self.n)
    }

    /// The lifecycle table this service steers by.
    pub fn lifecycle(&self) -> &Arc<SliceLifecycle> {
        &self.lifecycle
    }

    /// Fault injection: asks worker `w` to crash *cleanly* via an in-band
    /// crash token. The worker decides everything enqueued before the
    /// token, then exits; everything offered after becomes `uncovered`
    /// residue and the next [`flush_round`](ServiceHandle::flush_round)
    /// reaps the ring and quarantines the slice. Idempotent; no-op on a
    /// quarantined worker. Crashing a *probation* worker (a flap) fails
    /// its probation on the spot; the barrier reaps the thread, which
    /// carried only shadow traffic.
    pub fn inject_crash(&mut self, w: usize) {
        let w = w % self.n;
        let t = self
            .lifecycle
            .advance(w, SliceEvent::Crash)
            .expect("a crash can hit a slice in any state");
        if t.to == SliceState::Crashed && t.changed() {
            if let Some(hub) = &self.shared.telemetry {
                hub.record_event(EventKind::FaultInjected, w as u32, fault::CRASH, 0);
            }
            self.push_token(w, WorkerMsg::Crash);
        }
    }

    /// Rejoining: spawns a fresh worker thread for slot `w` on its
    /// recycled ring and posts `Resync` (a no-op if the cluster already
    /// resynced the slice onto probation; the slot must be there or
    /// quarantined). It stays out of the steering hash, shadow-fed
    /// by [`offer`](ServiceHandle::offer), so `stage` (typically a freshly
    /// attested, state-resynced enclave slice) can be audited against real
    /// load before the table promotes it.
    ///
    /// # Panics
    ///
    /// Panics if `w` is neither quarantined nor on probation.
    pub fn respawn_worker<S>(&mut self, w: usize, stage: S)
    where
        S: PacketStage + Send + 'scope,
    {
        let w = w % self.n;
        // The ring is recycled, not replaced: reap anything that landed
        // after the last sweep so the fresh worker starts clean (charged
        // to this round's `uncovered`, like the sweep itself).
        self.retire(w);
        self.lifecycle
            .advance(w, SliceEvent::Resync)
            .expect("respawn targets a quarantined worker");
        self.shared.worker_stalled[w].store(false, Ordering::SeqCst);
        self.shared.worker_parked[w].store(false, Ordering::SeqCst);
        self.shared.workers_live.fetch_add(1, Ordering::AcqRel);
        self.shared.worker_alive[w].store(true, Ordering::Release);
        let shared = self.shared;
        let config = self.config;
        let tx_thread = self.tx_thread.clone();
        let spawned = self
            .scope
            .spawn(move || worker_loop(shared, w, stage, &config, tx_thread));
        self.worker_threads[w] = spawned.thread().clone();
    }

    /// Fault injection: stalls (or releases) worker `w`. A stalled worker
    /// stops draining its ring, so sustained offers surface as
    /// backpressure and eventually `overflow`. Every
    /// [`flush_round`](ServiceHandle::flush_round) releases all stalls —
    /// a stall can starve a round's offer window but never hang the
    /// barrier.
    pub fn stall_worker(&mut self, w: usize, stalled: bool) {
        let w = w % self.n;
        if stalled {
            if let Some(hub) = &self.shared.telemetry {
                hub.record_event(EventKind::FaultInjected, w as u32, fault::STALL, 0);
            }
        }
        self.shared.worker_stalled[w].store(stalled, Ordering::SeqCst);
        if !stalled {
            self.worker_threads[w].unpark();
        }
    }

    /// Fault injection: stuffs up to `count` junk messages onto worker
    /// `w`'s ring (an overflow storm). The junk consumes ring capacity —
    /// subsequent offers overflow sooner — but touches no counters when
    /// the worker discards it. Returns how many were enqueued (bounded by
    /// free ring capacity). The worker is deliberately not woken.
    pub fn inject_overflow_storm(&mut self, w: usize, count: u64) -> u64 {
        let w = w % self.n;
        if let Some(hub) = &self.shared.telemetry {
            hub.record_event(EventKind::FaultInjected, w as u32, fault::STORM, count);
        }
        let mut enqueued = 0;
        for _ in 0..count {
            if self.shared.rx_rings[w].enqueue(WorkerMsg::Noise).is_err() {
                break;
            }
            enqueued += 1;
        }
        enqueued
    }

    /// Closes the current round: enqueues one `Flush` barrier token per
    /// *live* worker, delivers the token on behalf of dead or quarantined
    /// workers (so the TX round count never depends on a thread that no
    /// longer exists), waits until the TX thread has drained every packet
    /// offered before the tokens, and returns this round's per-worker
    /// counters.
    ///
    /// A worker found cleanly dead (injected crash) is reaped here:
    /// bounded wait for the exit, `Reaped` posted (the table quarantines
    /// the slice), ring residue charged to `uncovered`, round completed on
    /// the survivors. A live thread in a slot the table no longer steers
    /// or shadows (a demoted probation worker) is crashed and reaped the
    /// same way, silently. The report's `quarantined` flags record which
    /// slots sat out of steering.
    ///
    /// The returned reference points at reused storage — clone it to keep
    /// a round's numbers past the next flush.
    ///
    /// # Panics
    ///
    /// Panics if a worker *panicked* mid-round (stage bug — as opposed to
    /// an injected clean crash, which quarantines) or the TX thread died;
    /// the underlying stage/sink panic supersedes it at scope exit. Also
    /// panics if a crashed worker fails to halt within the quarantine
    /// wait bound.
    pub fn flush_round(&mut self) -> &ShardedReport {
        self.seq += 1;
        // The barrier ends any injected stall: a stall starves the offer
        // window (backpressure, overflow), never the round itself.
        for w in 0..self.n {
            if self.shared.worker_stalled[w].swap(false, Ordering::SeqCst) {
                self.worker_threads[w].unpark();
            }
        }
        for w in 0..self.n {
            let state = self.lifecycle.state(w);
            let serving = state != SliceState::Crashed && (state.steered() || state.shadowed());
            // A serving worker forwards the barrier itself, keeping the TX
            // count at exactly one token per worker per round.
            if serving
                && self.shared.worker_alive[w].load(Ordering::Acquire)
                && self.push_token(w, WorkerMsg::Flush(self.seq))
            {
                continue;
            }
            // Dead, dying, or excised: reap the ring (stray residue lands
            // on an excised slot only when every worker is gone) and stand
            // in for the worker at the barrier.
            self.retire(w);
            if state != SliceState::Quarantined {
                if self.shared.workers_panicked.load(Ordering::Acquire) > 0 {
                    panic!("worker thread {w} died mid-round");
                }
                self.lifecycle
                    .advance(w, SliceEvent::Reaped)
                    .expect("a dead worker's slice can be quarantined");
            }
            self.tx_out.push(TxMsg::Flush(self.seq));
            push_tx(self.shared, &mut self.tx_out, &self.tx_thread);
        }
        Shared::wake(&self.shared.tx_parked, &self.tx_thread);

        let mut done = self
            .shared
            .round_done
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        while *done < self.seq {
            if !self.shared.tx_alive.load(Ordering::Acquire) {
                panic!("tx thread died mid-round");
            }
            if self.shared.workers_panicked.load(Ordering::Acquire) > 0 {
                panic!("worker thread died mid-round");
            }
            let (guard, _) = self
                .shared
                .round_cv
                .wait_timeout(done, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            done = guard;
        }
        drop(done);

        self.settle();
        if let Some(hub) = self.shared.telemetry.as_deref() {
            hub.set_round(self.seq);
            let received = self.report.total().received;
            hub.record_event(EventKind::FlushBarrier, 0, self.seq, received);
        }
        &self.report
    }

    /// Settles the round tally accumulated since the last settle: one pass
    /// over it makes each worker's report its row and each contract's
    /// delta its column, and an attached hub adds both. Run by every
    /// barrier and once more after shutdown, so packets decided after the
    /// last barrier are counted too.
    fn settle(&mut self) {
        let slots = self.contract_report.len();
        for (_, delta) in &mut self.contract_report {
            *delta = PacketCounts::default();
        }
        for w in 0..self.n {
            let mut row = PacketCounts::default();
            for slot in 0..slots {
                let i = w * slots + slot;
                let decided = self.shared.decided[i]
                    .each_ref()
                    .map(|a| a.load(Ordering::Relaxed));
                let mut cell = std::mem::take(&mut self.tally[i]);
                cell.forwarded = decided[0] - self.settled[i][0];
                cell.filtered = decided[1] - self.settled[i][1];
                self.settled[i] = decided;
                row += cell;
                self.contract_report[slot].1 += cell;
            }
            self.report.per_worker[w] = row;
            self.report.quarantined[w] = !self.lifecycle.state(w).steered();
        }
        if let Some(hub) = self.shared.telemetry.as_deref() {
            hub.add_round(&self.report.per_worker, &self.contract_report);
        }
    }

    /// Takes slot `w`'s worker thread out of service: crashes it if it
    /// still runs (a crashed slot's token is already in its ring), waits
    /// (bounded) for it to finish deciding its backlog and exit, and reaps
    /// the ring into `uncovered`.
    fn retire(&mut self, w: usize) {
        if self.lifecycle.state(w) != SliceState::Crashed
            && self.shared.worker_alive[w].load(Ordering::Acquire)
        {
            self.push_token(w, WorkerMsg::Crash);
        }
        let deadline = std::time::Instant::now() + QUARANTINE_WAIT;
        while self.shared.worker_alive[w].load(Ordering::Acquire) {
            if self.shared.workers_panicked.load(Ordering::Acquire) > 0 {
                panic!("worker thread {w} died mid-round");
            }
            assert!(
                std::time::Instant::now() < deadline,
                "worker {w} failed to halt for quarantine"
            );
            self.worker_threads[w].unpark();
            std::thread::yield_now();
        }
        self.reap_ring(w);
    }

    /// Drains a dead worker's ring. Packet residue is charged to its tally
    /// cell's `uncovered` counter — and, under a fail-open contract,
    /// delivered unfiltered to the sink (delivery is policy; the
    /// accounting is identical either way).
    fn reap_ring(&mut self, w: usize) {
        while let Some(msg) = self.shared.rx_rings[w].dequeue() {
            let out = match msg {
                WorkerMsg::Pkt(p) => {
                    self.tally[self.shared.cell(w, p.tuple.dst_ip)].uncovered += 1;
                    let slot = self.shared.contracts.slot_of(p.tuple.dst_ip);
                    if self.shared.contracts.modes[slot] != DegradedMode::FailOpen {
                        continue;
                    }
                    TxMsg::Pkt(w, p)
                }
                WorkerMsg::Flush(s) => {
                    // Unreachable in practice (tokens for closed rounds
                    // were consumed, and the barrier never rings a dead
                    // worker); replaying preserves token conservation all
                    // the same.
                    debug_assert!(s < self.seq, "future token in a dead ring");
                    TxMsg::Flush(s)
                }
                // Shadow residue is dropped without any counter: the
                // mirrored packets' originals were accounted at their
                // re-steer targets.
                WorkerMsg::Crash | WorkerMsg::Noise | WorkerMsg::Shadow(_) => continue,
            };
            self.tx_out.push(out);
            if self.tx_out.len() == self.config.burst {
                push_tx(self.shared, &mut self.tx_out, &self.tx_thread);
            }
        }
        push_tx(self.shared, &mut self.tx_out, &self.tx_thread);
    }

    /// The last flushed round's counters split per tenant contract, as
    /// `(contract id, delta)` in dense order, default contract 0 first. Like
    /// [`flush_round`](ServiceHandle::flush_round)'s report, the slice
    /// points at reused storage — clone entries to keep them past the
    /// next flush.
    pub fn contract_deltas(&self) -> &[(u32, PacketCounts)] {
        &self.contract_report
    }

    /// Convenience: one full round — offer `packets`, flush, report.
    pub fn round(&mut self, packets: &[Packet]) -> &ShardedReport {
        self.offer(packets);
        self.flush_round()
    }
}

/// Consumer-side half of the sleep/wake protocol. Returns once there is
/// (probably) work or the exit condition may have changed; `spins` is the
/// caller's empty-poll counter.
fn idle_backoff(
    shared: &Shared,
    parked: &AtomicBool,
    ring_nonempty: impl Fn() -> bool,
    spins: &mut u32,
    config: &ServiceConfig,
) {
    *spins += 1;
    if *spins < config.spin_limit {
        std::thread::yield_now();
        return;
    }
    // Publish intent to park, then re-check the ring: a producer that
    // enqueued before seeing the flag left work behind, a producer that
    // enqueues after seeing it will unpark us.
    parked.store(true, Ordering::SeqCst);
    if ring_nonempty() || shared.shutdown.load(Ordering::SeqCst) {
        parked.store(false, Ordering::SeqCst);
        return;
    }
    shared.park_events.fetch_add(1, Ordering::Relaxed);
    std::thread::park_timeout(config.park_timeout);
    parked.store(false, Ordering::SeqCst);
}

fn worker_loop<S: PacketStage>(
    shared: &Shared,
    w: usize,
    mut stage: S,
    config: &ServiceConfig,
    tx_thread: Thread,
) {
    let _alive = AliveGuard {
        shared,
        worker: Some(w),
        tx_thread: tx_thread.clone(),
    };
    let ring = &shared.rx_rings[w];
    let mut batch: Vec<WorkerMsg> = Vec::with_capacity(config.burst);
    let mut pkts: Vec<Packet> = Vec::with_capacity(config.burst);
    let mut shadows: Vec<Packet> = Vec::with_capacity(config.burst);
    let mut outcomes = Vec::with_capacity(config.burst);
    // Forwarded packets (and a trailing barrier token) bound for TX: one
    // burst never forwards more than it dequeued.
    let mut tx_out: Vec<TxMsg> = Vec::with_capacity(config.burst);
    // Reused per-contract-slot (forwarded, filtered) counts of one run.
    let mut counts = vec![[0u64; 2]; shared.contracts.contracts().len()];
    // Wire sizes for the telemetry hub, on the stack and merged only at
    // round barriers (and at exit) so the packet path stays atomic-free.
    let mut sizes = Histogram::new();
    let mut spins = 0u32;
    'outer: loop {
        // An injected stall freezes the dequeue side: the ring backs up
        // and producers see overflow. Shutdown still wins, and every
        // round barrier clears the flag, so a stall cannot hang a round.
        if shared.worker_stalled[w].load(Ordering::Acquire) {
            if shared.shutdown.load(Ordering::Acquire) {
                shared.worker_stalled[w].store(false, Ordering::Release);
            } else {
                std::thread::park_timeout(config.park_timeout);
                continue;
            }
        }
        batch.clear();
        if ring.dequeue_burst(&mut batch, config.burst) == 0 {
            if shared.shutdown.load(Ordering::Acquire) && ring.is_empty() {
                break;
            }
            idle_backoff(
                shared,
                &shared.worker_parked[w],
                || !ring.is_empty(),
                &mut spins,
                config,
            );
            continue;
        }
        spins = 0;
        // Process contiguous packet runs; a flush token ends a run and is
        // forwarded to TX *behind* the run's output, preserving the
        // barrier through the FIFO rings.
        pkts.clear();
        for i in 0..batch.len() {
            match batch[i] {
                WorkerMsg::Pkt(p) => pkts.push(p),
                WorkerMsg::Shadow(p) => shadows.push(p),
                WorkerMsg::Flush(seq) => {
                    process_run(
                        shared,
                        w,
                        &mut stage,
                        &mut pkts,
                        &mut outcomes,
                        &mut counts,
                        &mut sizes,
                        &mut tx_out,
                        &tx_thread,
                    );
                    shadow_run(&mut stage, &mut shadows, &mut outcomes);
                    // Merge the round's sizes before the token leaves:
                    // the barrier's happens-before edge then covers it.
                    if let Some(hub) = &shared.telemetry {
                        hub.merge_sizes(w, &mut sizes);
                    }
                    tx_out.push(TxMsg::Flush(seq));
                    push_tx(shared, &mut tx_out, &tx_thread);
                }
                WorkerMsg::Noise => {}
                WorkerMsg::Crash => {
                    // Injected clean crash: decide everything offered
                    // before the token, put anything dequeued after it
                    // back as ring residue for the quarantine reap, and
                    // exit. The AliveGuard records a *clean* death.
                    process_run(
                        shared,
                        w,
                        &mut stage,
                        &mut pkts,
                        &mut outcomes,
                        &mut counts,
                        &mut sizes,
                        &mut tx_out,
                        &tx_thread,
                    );
                    shadow_run(&mut stage, &mut shadows, &mut outcomes);
                    if let Some(hub) = &shared.telemetry {
                        hub.merge_sizes(w, &mut sizes);
                    }
                    batch.drain(..=i);
                    while !batch.is_empty() {
                        if ring.enqueue_burst(&mut batch) == 0 {
                            std::thread::yield_now();
                        }
                    }
                    break 'outer;
                }
            }
        }
        process_run(
            shared,
            w,
            &mut stage,
            &mut pkts,
            &mut outcomes,
            &mut counts,
            &mut sizes,
            &mut tx_out,
            &tx_thread,
        );
        shadow_run(&mut stage, &mut shadows, &mut outcomes);
    }
    // Sizes of packets decided after the last barrier (right before
    // shutdown) still reach the hub.
    if let Some(hub) = &shared.telemetry {
        hub.merge_sizes(w, &mut sizes);
    }
}

/// Runs mirrored shadow packets through the stage for their side effects
/// only (enclave logs, sketches): no counters and no TX delivery — a
/// probation slice earns trust by being audited, not by forwarding.
/// Clears `pkts`, discarding the outcomes.
fn shadow_run<S: PacketStage>(
    stage: &mut S,
    pkts: &mut Vec<Packet>,
    outcomes: &mut Vec<crate::stage::StageOutcome>,
) {
    if pkts.is_empty() {
        return;
    }
    outcomes.clear();
    stage.process_batch(pkts, outcomes);
    pkts.clear();
}

/// Runs one packet run through the stage, pushing its forwarded packets to
/// TX in one burst and adding its per-slot `counts` to worker `w`'s row of
/// the round tally. Clears `pkts`.
#[allow(clippy::too_many_arguments)] // worker-loop locals threaded by ref; grouping them would allocate
fn process_run<S: PacketStage>(
    shared: &Shared,
    w: usize,
    stage: &mut S,
    pkts: &mut Vec<Packet>,
    outcomes: &mut Vec<crate::stage::StageOutcome>,
    counts: &mut [[u64; 2]],
    sizes: &mut Histogram,
    tx_out: &mut Vec<TxMsg>,
    tx_thread: &Thread,
) {
    if pkts.is_empty() {
        return;
    }
    outcomes.clear();
    stage.process_batch(pkts, outcomes);
    debug_assert_eq!(outcomes.len(), pkts.len(), "one outcome per packet");
    // Telemetry costs one well-predicted branch per packet when detached.
    let telemetry = shared.telemetry.is_some();
    for (pkt, outcome) in pkts.iter().zip(outcomes.iter()) {
        let slot = shared.contracts.slot_of(pkt.tuple.dst_ip);
        if telemetry {
            sizes.record(pkt.wire_size as u64);
        }
        match outcome.verdict {
            StageVerdict::Forward => {
                counts[slot][0] += 1;
                tx_out.push(TxMsg::Pkt(w, *pkt));
            }
            StageVerdict::Drop => counts[slot][1] += 1,
        }
    }
    push_tx(shared, tx_out, tx_thread);
    // Relaxed is enough: round readers are ordered behind the flush token
    // these adds precede (see `Shared::decided`).
    let row = &shared.decided[w * counts.len()..][..counts.len()];
    for (cell, count) in row.iter().zip(counts.iter_mut()) {
        for (total, n) in cell.iter().zip(count.iter_mut()) {
            if *n > 0 {
                total.fetch_add(std::mem::take(n), Ordering::Relaxed);
            }
        }
    }
    pkts.clear();
}

/// Enqueues `msgs` on worker `w`'s ring, one lock per attempt, and wakes
/// the worker. A `live` target's ring is retried (yielding) while the
/// worker lives, until an attempt and [`OFFER_RETRIES`] re-tries in a row
/// take nothing — the budget a lone packet meeting a full ring gets —
/// and any attempt that takes something restarts the count; any other
/// target gets one attempt.
/// What did not fit stays in `msgs`, in order, for the caller to account.
fn push_rx(shared: &Shared, w: usize, worker: &Thread, msgs: &mut Vec<WorkerMsg>, live: bool) {
    let mut fruitless = 0;
    loop {
        if shared.rx_rings[w].enqueue_burst(msgs) > 0 {
            fruitless = 0;
        } else {
            fruitless += 1;
        }
        Shared::wake(&shared.worker_parked[w], worker);
        if msgs.is_empty()
            || !live
            || fruitless > OFFER_RETRIES
            || !shared.worker_alive[w].load(Ordering::Acquire)
        {
            return;
        }
        std::thread::yield_now();
    }
}

/// Enqueues `msgs` on the TX ring, one lock per attempt, waking a parked
/// TX thread; retries while TX lives. Leaves `msgs` empty: what is left
/// is dropped only if the TX thread died (its sink panicked — the panic
/// propagates at scope exit, and dropping lets shutdown proceed).
fn push_tx(shared: &Shared, msgs: &mut Vec<TxMsg>, tx_thread: &Thread) {
    while !msgs.is_empty() {
        shared.tx_ring.enqueue_burst(msgs);
        Shared::wake(&shared.tx_parked, tx_thread);
        if msgs.is_empty() {
            break;
        }
        if !shared.tx_alive.load(Ordering::Acquire) {
            msgs.clear();
            break;
        }
        std::thread::yield_now();
    }
}

fn tx_loop<F: FnMut(usize, &Packet)>(
    shared: &Shared,
    n: usize,
    sink: &mut F,
    config: &ServiceConfig,
) {
    let this = std::thread::current();
    let _alive = AliveGuard {
        shared,
        worker: None,
        tx_thread: this,
    };
    let mut batch: Vec<TxMsg> = Vec::with_capacity(config.burst);
    // Barrier tokens arrive strictly in round order (FIFO rings), so a
    // plain count suffices: every `n` tokens completes the next round.
    let mut tokens = 0u64;
    let mut spins = 0u32;
    loop {
        batch.clear();
        if shared.tx_ring.dequeue_burst(&mut batch, config.burst) == 0 {
            // Exit requires the shutdown flag: injected clean crashes can
            // zero `workers_live` while the service is still serving
            // rounds on handle-delivered barrier tokens.
            if shared.shutdown.load(Ordering::Acquire)
                && shared.workers_live.load(Ordering::Acquire) == 0
                && shared.tx_ring.is_empty()
            {
                break;
            }
            idle_backoff(
                shared,
                &shared.tx_parked,
                || {
                    !shared.tx_ring.is_empty()
                        || (shared.shutdown.load(Ordering::Acquire)
                            && shared.workers_live.load(Ordering::Acquire) == 0)
                },
                &mut spins,
                config,
            );
            continue;
        }
        spins = 0;
        for msg in batch.drain(..) {
            match msg {
                TxMsg::Pkt(w, pkt) => sink(w, &pkt),
                TxMsg::Flush(_seq) => {
                    tokens += 1;
                    if tokens.is_multiple_of(n as u64) {
                        let mut done = shared.round_done.lock().unwrap_or_else(|e| e.into_inner());
                        *done = tokens / n as u64;
                        shared.round_cv.notify_all();
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::PROBATION_ROUNDS;
    use crate::pktgen::{FlowSet, TrafficConfig, TrafficGenerator};
    use crate::sharded::shard_of;
    use crate::stage::StageOutcome;

    /// The last flushed round's delta of `contract`.
    fn delta_of<R: FnMut(&FiveTuple) -> usize>(
        svc: &ServiceHandle<'_, '_, R>,
        contract: u32,
    ) -> PacketCounts {
        let deltas = svc.contract_deltas();
        let (_, delta) = deltas.iter().find(|(c, _)| *c == contract).expect("mapped");
        *delta
    }

    fn traffic(count: usize, seed: u64) -> Vec<Packet> {
        let flows = FlowSet::random_toward_victim(64, 7, 3);
        TrafficGenerator::new(seed).generate(
            &flows,
            TrafficConfig {
                packet_size: 64,
                offered_gbps: 5.0,
                count,
            },
        )
    }

    /// Serves probation slice `w`'s window out with one clean-voting
    /// tenant: what an audit layer does over [`PROBATION_ROUNDS`] rounds.
    fn promote(lifecycle: &SliceLifecycle, w: usize) {
        for _ in 0..PROBATION_ROUNDS {
            lifecycle.advance(w, SliceEvent::ProbationClean).unwrap();
            lifecycle.settle_round(1);
        }
        assert_eq!(lifecycle.state(w), SliceState::Live);
    }

    fn parity_stage() -> impl FnMut(&Packet) -> StageOutcome + Send {
        |p: &Packet| StageOutcome {
            verdict: if p.tuple.src_ip.is_multiple_of(2) {
                StageVerdict::Forward
            } else {
                StageVerdict::Drop
            },
            hashed: false,
        }
    }

    #[test]
    fn multiple_rounds_are_isolated() {
        let n = 2;
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            |_, _| {},
            |t| shard_of(t, n),
            |svc| {
                let mut totals = Vec::new();
                for round in 0..5u64 {
                    let t = traffic(1_000 + 100 * round as usize, round);
                    let report = svc.round(&t).clone();
                    let total = report.total();
                    assert_eq!(total.received, 1_000 + 100 * round, "round {round}");
                    assert_eq!(
                        total.forwarded + total.filtered + total.overflow,
                        total.received,
                        "round {round} leaks"
                    );
                    totals.push(total);
                }
                assert_eq!(svc.rounds(), 5);
                // Rounds with different traffic produce different counters:
                // the report really is per round, not cumulative.
                assert!(totals.windows(2).any(|w| w[0] != w[1]));
            },
        );
    }

    #[test]
    fn empty_round_flushes_immediately() {
        let stages = vec![parity_stage()];
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            |_, _| {},
            |t| shard_of(t, 1),
            |svc| {
                let report = svc.flush_round();
                assert_eq!(report.total(), PacketCounts::default());
            },
        );
    }

    #[test]
    fn idle_service_parks_then_wakes_within_one_burst() {
        // Satellite: the persistent consume loops must not busy-burn CPU
        // between rounds, and a parked service must wake as soon as
        // traffic arrives.
        let n = 2;
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        let config = ServiceConfig {
            spin_limit: 8,
            park_timeout: Duration::from_millis(50),
            ..Default::default()
        };
        DataplaneService::new(config).run(
            stages,
            |_, _| {},
            |t| shard_of(t, n),
            |svc| {
                // Let the service idle well past its spin budget.
                std::thread::sleep(Duration::from_millis(20));
                let parked = svc.park_events();
                assert!(parked > 0, "idle consumers never parked");

                // A single burst must complete a round promptly even
                // though every consumer is parked: the offer/flush path
                // has to deliver the wakeups (a 50 ms park timeout would
                // otherwise dominate the 10 s budget below).
                let t = traffic(256, 9);
                let start = std::time::Instant::now();
                let report = svc.round(&t);
                assert_eq!(report.total().received, 256);
                assert_eq!(report.total().overflow, 0);
                assert!(
                    start.elapsed() < Duration::from_secs(10),
                    "wakeup lost: round took {:?}",
                    start.elapsed()
                );
            },
        );
    }

    #[test]
    fn sink_sees_each_round_before_flush_returns() {
        // The round barrier guarantees the sink observed every forwarded
        // packet of the round by the time flush_round returns.
        let n = 2;
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        let sunk = std::sync::Mutex::new(Vec::new());
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            |_, p: &Packet| sunk.lock().unwrap().push(p.id),
            |t| shard_of(t, n),
            |svc| {
                for round in 0..3 {
                    let t = traffic(2_000, round);
                    let report = svc.round(&t).clone();
                    let seen = sunk.lock().unwrap().len() as u64;
                    assert_eq!(
                        seen,
                        report.total().forwarded,
                        "round {round}: sink lagging the barrier"
                    );
                    sunk.lock().unwrap().clear();
                }
            },
        );
    }

    #[test]
    fn contract_deltas_split_rounds_per_tenant() {
        use crate::packet::Protocol;
        let n = 2;
        let a_net = u32::from_be_bytes([203, 0, 0, 0]); // contract 7: 203.0/16
        let b_net = u32::from_be_bytes([198, 18, 0, 0]); // contract 9: 198.18/16
        let mut map = ContractMap::new();
        map.assign(a_net, 16, 7);
        map.assign(b_net, 16, 9);
        assert_eq!(map.contract_of(a_net | 0x0107), 7);
        assert_eq!(map.contract_of(b_net | 0x0107), 9);
        assert_eq!(map.contract_of(u32::from_be_bytes([10, 0, 0, 1])), 0);

        // src parity decides forward/drop; dst decides the contract.
        let mk = |dst_net: u32, src: u32, id: u64| {
            Packet::new(
                FiveTuple::new(src, dst_net | (id as u32 & 0xff), 999, 80, Protocol::Tcp),
                64,
                0,
                id,
            )
        };
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        DataplaneService::new(ServiceConfig::default())
            .with_contracts(map)
            .run(
                stages,
                |_, _| {},
                |t| shard_of(t, n),
                |svc| {
                    // Round 1: 40 packets to A (half droppable), 10 to B
                    // (all forwardable).
                    let mut t = Vec::new();
                    for i in 0..40u64 {
                        t.push(mk(a_net, i as u32, i));
                    }
                    for i in 0..10u64 {
                        t.push(mk(b_net, 2 * i as u32, 100 + i));
                    }
                    svc.round(&t);
                    let (a, b) = (delta_of(svc, 7), delta_of(svc, 9));
                    let default = delta_of(svc, 0);
                    assert_eq!(a.received, 40);
                    assert_eq!(a.forwarded, 20);
                    assert_eq!(a.filtered, 20);
                    assert_eq!(b.received, 10);
                    assert_eq!(b.forwarded, 10);
                    assert_eq!(b.filtered, 0);
                    assert_eq!(default.received, 0);

                    // Round 2: only B sees traffic — A's delta is zero,
                    // not cumulative.
                    let t2: Vec<_> = (0..8u64)
                        .map(|i| mk(b_net, 2 * i as u32, 200 + i))
                        .collect();
                    svc.round(&t2);
                    let (a2, b2) = (delta_of(svc, 7), delta_of(svc, 9));
                    assert_eq!((a2.received, a2.forwarded, a2.filtered), (0, 0, 0));
                    assert_eq!((b2.received, b2.forwarded, b2.filtered), (8, 8, 0));
                },
            );
    }

    #[test]
    fn single_contract_deltas_match_totals() {
        let stages = vec![parity_stage()];
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            |_, _| {},
            |t| shard_of(t, 1),
            |svc| {
                for round in 0..3 {
                    let t = traffic(500, round);
                    let total = svc.round(&t).total();
                    let deltas = svc.contract_deltas();
                    assert_eq!(deltas, [(0, total)]);
                }
            },
        );
    }

    #[test]
    fn injected_crash_quarantines_and_resteers() {
        let n = 4;
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            |_, _| {},
            |t| shard_of(t, n),
            |svc| {
                // Healthy round first.
                let t = traffic(2_000, 1);
                let clean = svc.round(&t).clone();
                assert_eq!(clean.total().uncovered, 0);
                assert!(clean.quarantined.iter().all(|&q| !q));

                // Kill worker 2 at the round boundary, then offer the same
                // mix: everything steered at 2 becomes uncovered residue.
                svc.inject_crash(2);
                let report = svc.round(&t).clone();
                let expect_uncovered =
                    t.iter().filter(|p| shard_of(&p.tuple, n) == 2).count() as u64;
                assert!(expect_uncovered > 0, "mix never hits worker 2");
                assert_eq!(report.per_worker[2].uncovered, expect_uncovered);
                assert_eq!(report.total().uncovered, expect_uncovered);
                assert_eq!(report.quarantined_workers(), vec![2]);
                // Fail-closed default: nothing offered to the dead ring is
                // forwarded, and per-worker accounting still adds up.
                for (w, r) in report.per_worker.iter().enumerate() {
                    assert_eq!(
                        r.forwarded + r.filtered + r.overflow + r.uncovered,
                        r.received,
                        "worker {w} leaks"
                    );
                }

                // Next round: the dead shard is re-steered to survivors —
                // zero uncovered, zero loss, and attribution matches the
                // public retarget function.
                let report = svc.round(&t).clone();
                assert_eq!(report.total().uncovered, 0);
                assert_eq!(report.total().overflow, 0);
                assert_eq!(report.total().received, t.len() as u64);
                assert_eq!(report.per_worker[2].received, 0);
                let lifecycle = Arc::clone(svc.lifecycle());
                assert_eq!(lifecycle.slices_where(SliceState::steered), [0, 1, 3]);
                for p in &t {
                    let fp = p.tuple.tuple_fingerprint();
                    let w = svc.retarget_fingerprint(fp, shard_of(&p.tuple, n));
                    assert_ne!(w, 2, "flow still steered at the quarantined worker");
                    assert_eq!(w, lifecycle.steer(fp, shard_of(&p.tuple, n)));
                }
            },
        );
    }

    #[test]
    fn overflow_stays_exact_under_stalled_worker_backpressure() {
        // ShardedReport.overflow and the per-contract overflow deltas
        // must stay exact (no double-count, no loss) when producers outrun
        // a stalled worker — including across flush_round delta resets.
        use crate::packet::Protocol;
        let n = 2;
        let a_net = u32::from_be_bytes([203, 0, 0, 0]);
        let b_net = u32::from_be_bytes([198, 18, 0, 0]);
        let mut map = ContractMap::new();
        map.assign(a_net, 16, 7);
        map.assign(b_net, 16, 9);
        let cap = 64;
        let config = ServiceConfig {
            ring_capacity: cap,
            ..Default::default()
        };
        // Steer by dst net: contract 7 → worker 0, contract 9 → worker 1.
        let mk = |dst_net: u32, id: u64| {
            Packet::new(
                FiveTuple::new(4 + id as u32, dst_net | 1, 999, 80, Protocol::Tcp),
                64,
                0,
                id,
            )
        };
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        DataplaneService::new(config).with_contracts(map).run(
            stages,
            |_, _| {},
            |t| {
                if t.dst_ip & 0xffff_0000 == a_net {
                    0
                } else {
                    1
                }
            },
            |svc| {
                for round in 0..3u64 {
                    // Stall worker 0 and offer 4× its ring capacity toward
                    // contract 7, plus a small clean batch to worker 1.
                    svc.stall_worker(0, true);
                    let offered = 4 * cap as u64;
                    let t: Vec<_> = (0..offered)
                        .map(|i| mk(a_net, round * 10_000 + i))
                        .chain((0..10).map(|i| mk(b_net, round * 10_000 + 5_000 + i)))
                        .collect();
                    svc.offer(&t);
                    // flush_round itself releases the stall; the worker
                    // then drains what fit and the barrier completes.
                    let report = svc.round(&[]).clone();
                    let w0 = report.per_worker[0];
                    assert_eq!(
                        w0.forwarded + w0.filtered + w0.overflow,
                        w0.received,
                        "round {round}: worker 0 leaks"
                    );
                    assert!(
                        w0.overflow > 0,
                        "round {round}: no backpressure despite 4x capacity"
                    );
                    let (a, b) = (delta_of(svc, 7), delta_of(svc, 9));
                    // Per-contract overflow equals the worker's overflow
                    // exactly (only contract 7 traffic hits worker 0) and
                    // resets with the round delta — no carry, no loss.
                    assert_eq!(a.overflow, w0.overflow, "round {round}");
                    assert_eq!(a.received, offered, "round {round}");
                    assert_eq!(
                        a.forwarded + a.filtered + a.overflow,
                        a.received,
                        "round {round}: contract 7 leaks"
                    );
                    assert_eq!(b.overflow, 0, "round {round}: collateral overflow");
                    assert_eq!(b.received, 10, "round {round}");
                }
            },
        );
    }

    #[test]
    fn one_offer_past_a_stalled_ring_decides_exactly_a_ring() {
        // A single `offer` of more than a ring toward a stalled worker:
        // the burst hand-off fills the ring exactly, charges every leftover
        // to the worker and to its packet's contract, and leaves the other
        // worker's share untouched. Worker 0 stalls inside its stage on a
        // primer packet, so it provably drains nothing during the offer.
        use crate::packet::Protocol;
        use std::sync::mpsc;
        let cap = 64;
        let a_net = u32::from_be_bytes([203, 0, 0, 0]);
        let b_net = u32::from_be_bytes([198, 18, 0, 0]);
        let mut map = ContractMap::new();
        map.assign(a_net, 16, 7);
        map.assign(b_net, 16, 9);
        let config = ServiceConfig {
            ring_capacity: cap,
            ..Default::default()
        };
        let mk = |net: u32, id: u64| {
            Packet::new(
                FiveTuple::new(4 + id as u32, net | 1, 999, 80, Protocol::Tcp),
                64,
                0,
                id,
            )
        };
        const PRIMER: u64 = 1_000;
        let primer = mk(a_net, PRIMER);
        // Every 21st packet goes to contract 9 (worker 1), the rest to
        // contract 7 (worker 0); 220 packets span seven 32-packet chunks.
        let t: Vec<Packet> = (0..220u64)
            .map(|i| mk(if i % 21 == 0 { b_net } else { a_net }, i))
            .collect();
        let to_b = t
            .iter()
            .filter(|p| p.tuple.dst_ip & 0xffff_0000 == b_net)
            .count() as u64;
        let to_a = t.len() as u64 - to_b;
        assert!(to_a > cap as u64);

        let (entered_tx, entered) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let stage = |gate: Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>| {
            let mut parity = parity_stage();
            move |p: &Packet| {
                if let (Some((entered, release)), PRIMER) = (&gate, p.id) {
                    entered.send(()).unwrap();
                    // A dropped sender (the body panicked) also releases.
                    let _ = release.recv();
                }
                parity(p)
            }
        };
        let stages = vec![stage(Some((entered_tx, release_rx))), stage(None)];
        DataplaneService::new(config).with_contracts(map).run(
            stages,
            |_, _| {},
            |t| usize::from(t.dst_ip & 0xffff_0000 != a_net),
            move |svc| {
                svc.offer(&[primer]);
                entered.recv().unwrap();
                svc.offer(&t);
                release.send(()).unwrap();
                let report = svc.flush_round().clone();
                let (w0, w1) = (report.per_worker[0], report.per_worker[1]);
                assert_eq!(w0.received, to_a + 1);
                assert_eq!(w0.overflow, to_a - cap as u64);
                assert_eq!(
                    w0.forwarded + w0.filtered,
                    1 + cap as u64,
                    "the primer and exactly one ring decided"
                );
                assert_eq!((w1.received, w1.overflow), (to_b, 0));
                assert_eq!(w1.forwarded + w1.filtered, to_b);
                let (a, b) = (delta_of(svc, 7), delta_of(svc, 9));
                assert_eq!((a.received, a.overflow), (to_a + 1, w0.overflow));
                assert_eq!(a.forwarded + a.filtered + a.overflow, a.received);
                assert_eq!((b.received, b.overflow), (to_b, 0));
                assert_eq!(b.forwarded + b.filtered, b.received);
                let total = report.total();
                assert_eq!(
                    total.forwarded + total.filtered + total.overflow + total.uncovered,
                    total.received
                );
            },
        );
    }

    #[test]
    fn round_views_agree_under_faults() {
        // Every report is a view of one round tally: the worker rows, the
        // contract columns and the hub's counters must agree, and each
        // must conserve packets, while a stall, an overflow storm and a
        // fail-open crash put overflow and uncovered traffic in the mix.
        use crate::packet::Protocol;
        fn sum<'a>(rows: impl IntoIterator<Item = &'a PacketCounts>) -> PacketCounts {
            let mut total = PacketCounts::default();
            for &row in rows {
                total += row;
            }
            total
        }
        fn conserves(c: &PacketCounts) -> bool {
            c.forwarded + c.filtered + c.overflow + c.uncovered == c.received
        }
        let (n, cap) = (3, 64);
        let a_net = u32::from_be_bytes([203, 0, 0, 0]);
        let b_net = u32::from_be_bytes([198, 18, 0, 0]);
        let mut map = ContractMap::new();
        map.assign(a_net, 16, 7);
        map.assign(b_net, 16, 9);
        map.set_degraded_mode(9, DegradedMode::FailOpen);
        let hub = Arc::new(TelemetryHub::new(n, &[0, 7, 9], 64));
        // Destinations cycle through contract 7, contract 9 and the
        // default contract; steering by source spreads each over every
        // worker, so every cell of the tally sees traffic.
        let dst = [a_net | 1, b_net | 1, u32::from_be_bytes([10, 0, 0, 1])];
        let t: Vec<Packet> = (0..600u64)
            .map(|i| {
                let dst = dst[i as usize / 3 % 3];
                let tuple = FiveTuple::new(i as u32, dst, 9, 80, Protocol::Tcp);
                Packet::new(tuple, 64 + (i % 4) as u16 * 100, 0, i)
            })
            .collect();
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        let delivered = AtomicU64::new(0);
        let totals = DataplaneService::new(sized(cap, 32))
            .with_contracts(map)
            .with_telemetry(Arc::clone(&hub))
            .run(
                stages,
                |_, _| {
                    delivered.fetch_add(1, Ordering::Relaxed);
                },
                |t| t.src_ip as usize % n,
                |svc| {
                    let (mut totals, mut fail_open_uncovered) = (PacketCounts::default(), 0);
                    for round in 0..4 {
                        svc.stall_worker(0, true);
                        svc.inject_overflow_storm(1, cap as u64);
                        if round == 0 {
                            svc.inject_crash(2);
                        }
                        let report = svc.round(&t).clone();
                        let total = report.total();
                        let deltas = svc.contract_deltas();
                        let columns = sum(deltas.iter().map(|(_, d)| d));
                        assert_eq!(columns, total, "round {round}: rows and columns differ");
                        assert!(deltas.iter().all(|(_, d)| conserves(d)), "round {round}");
                        assert!(report.per_worker.iter().all(conserves), "round {round}");
                        assert_eq!(total.received, t.len() as u64, "round {round}");
                        assert_eq!(deltas[2].0, 9);
                        fail_open_uncovered += deltas[2].1.uncovered;
                        totals += total;
                    }
                    assert!(totals.overflow > 0, "no overflow in the mix");
                    assert!(fail_open_uncovered > 0, "no fail-open uncovered traffic");
                    assert_eq!(
                        delivered.load(Ordering::Relaxed),
                        totals.forwarded + fail_open_uncovered,
                        "the sink saw forwarded plus fail-open residue"
                    );
                    totals
                },
            );
        let snap = hub.snapshot(0);
        let workers = sum(&snap.workers);
        let contracts = sum(snap.contracts.iter().map(|(_, c)| c));
        assert_eq!(
            workers, contracts,
            "hub: worker sums differ from contract sums"
        );
        assert_eq!(
            workers, totals,
            "hub: counters differ from the round reports"
        );
    }

    #[test]
    #[should_panic(expected = "one telemetry hub worker per worker")]
    fn a_hub_with_fewer_workers_than_the_service_is_refused() {
        // Every worker merges its wire sizes into its own hub row, and
        // every barrier adds one row per worker: a short hub is refused
        // up front, not found missing by a worker thread mid-run.
        let n = 2;
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        DataplaneService::new(ServiceConfig::default())
            .with_telemetry(Arc::new(TelemetryHub::new(1, &[0], 16)))
            .run(stages, |_, _| {}, |t| shard_of(t, n), |_| {});
    }

    #[test]
    fn hub_counts_packets_offered_after_the_last_flush() {
        // The body returns without flushing: the workers still decide
        // every offered packet before they exit, and the hub must count
        // each of them, not only their wire sizes.
        let n = 2;
        let hub = Arc::new(TelemetryHub::new(n, &[0], 64));
        let t = traffic(1_000, 5);
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        DataplaneService::new(ServiceConfig::default())
            .with_telemetry(Arc::clone(&hub))
            .run(stages, |_, _| {}, |t| shard_of(t, n), |svc| svc.offer(&t));
        let snap = hub.snapshot(0);
        for (w, (c, sizes)) in snap.workers.iter().zip(&snap.worker_sizes).enumerate() {
            assert_eq!(c.forwarded + c.filtered, sizes.count(), "worker {w}");
        }
        let packets: u64 = snap.workers.iter().map(|c| c.forwarded + c.filtered).sum();
        assert_eq!(packets, t.len() as u64);
        assert_eq!(snap.contracts[0].1.received, t.len() as u64);
        assert_eq!(snap.round, 0, "no round was flushed");
        assert_eq!(snap.events_recorded, 0, "no barrier was recorded");
    }

    #[test]
    fn fail_open_delivers_uncovered_traffic_unfiltered() {
        use crate::packet::Protocol;
        let n = 2;
        let net = u32::from_be_bytes([203, 0, 0, 0]);
        let mut map = ContractMap::new();
        map.assign(net, 16, 7);
        map.set_degraded_mode(7, DegradedMode::FailOpen);
        assert_eq!(map.degraded_mode(7), DegradedMode::FailOpen);
        assert_eq!(map.degraded_mode(0), DegradedMode::FailClosed);
        let mk = |src: u32, id: u64| {
            Packet::new(
                FiveTuple::new(src, net | (id as u32 & 0xff), 999, 80, Protocol::Tcp),
                64,
                0,
                id,
            )
        };
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        let sunk = std::sync::Mutex::new(0u64);
        DataplaneService::new(ServiceConfig::default())
            .with_contracts(map)
            .run(
                stages,
                |_, _| *sunk.lock().unwrap() += 1,
                |_| 0usize, // everything to worker 0
                |svc| {
                    svc.inject_crash(0);
                    // Odd sources would be *filtered* by a live worker;
                    // fail-open delivers them anyway — and still counts
                    // them uncovered, not forwarded.
                    let t: Vec<_> = (0..50u64).map(|i| mk(1 + 2 * i as u32, i)).collect();
                    let report = svc.round(&t).clone();
                    assert_eq!(report.total().uncovered, 50);
                    assert_eq!(report.total().forwarded, 0);
                    assert_eq!(delta_of(svc, 7).uncovered, 50);
                    assert_eq!(*sunk.lock().unwrap(), 50, "fail-open must deliver");
                },
            );
    }

    #[test]
    fn overflow_storm_consumes_ring_capacity_without_counters() {
        let cap = 128;
        let config = ServiceConfig {
            ring_capacity: cap,
            ..Default::default()
        };
        DataplaneService::new(config).run(
            vec![parity_stage()],
            |_, _| {},
            |t| shard_of(t, 1),
            |svc| {
                // Stall so the storm (and the traffic behind it) sits in
                // the ring for the whole offer window.
                svc.stall_worker(0, true);
                let stuffed = svc.inject_overflow_storm(0, cap as u64);
                assert_eq!(stuffed, cap as u64);
                let t = traffic(64, 3);
                let report = svc.round(&t).clone();
                // Every real packet overflowed (the storm holds the ring),
                // and the junk itself appears in no counter.
                let total = report.total();
                assert_eq!(total.received, 64);
                assert_eq!(total.overflow, 64);
                assert_eq!(total.forwarded + total.filtered + total.uncovered, 0);
                // The next round is healthy again: the worker discarded
                // the junk at the barrier.
                let report = svc.round(&traffic(64, 4)).clone();
                assert_eq!(report.total().overflow, 0);
                assert_eq!(report.total().received, 64);
            },
        );
    }

    #[test]
    fn all_workers_crashed_rounds_still_complete() {
        let n = 2;
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            |_, _| {},
            |t| shard_of(t, n),
            |svc| {
                svc.inject_crash(0);
                svc.inject_crash(1);
                let t = traffic(500, 5);
                // Outage round: everything uncovered.
                let report = svc.round(&t).clone();
                assert_eq!(report.total().uncovered, 500);
                assert_eq!(report.quarantined_workers(), vec![0, 1]);
                // With nobody left to re-steer to, traffic keeps landing
                // on dead rings and is reaped as uncovered — the barrier
                // still turns, fully handle-driven.
                let report = svc.round(&t).clone();
                assert_eq!(
                    report.total().uncovered + report.total().overflow,
                    500,
                    "accounting must not lose packets with zero survivors"
                );
            },
        );
    }

    #[test]
    fn respawned_worker_shadows_on_probation_then_restores_steering() {
        use std::sync::atomic::AtomicU64;
        let n = 4;
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        let shadowed = std::sync::Arc::new(AtomicU64::new(0));
        let probe_seen = shadowed.clone();
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            |_, _| {},
            |t| shard_of(t, n),
            |svc| {
                let t = traffic(2_000, 1);
                let home2 = t.iter().filter(|p| shard_of(&p.tuple, n) == 2).count() as u64;
                assert!(home2 > 0, "mix never hits worker 2");

                // Healthy → crash → quarantine, as in the outage tests.
                let clean = svc.round(&t).clone();
                assert_eq!(clean.total().uncovered, 0);
                svc.inject_crash(2);
                svc.round(&t);
                let lifecycle = Arc::clone(svc.lifecycle());
                assert_eq!(lifecycle.slices_where(SliceState::steered), [0, 1, 3]);
                assert_eq!(lifecycle.state(2), SliceState::Quarantined);

                // Rejoin on probation: a fresh worker thread on the
                // recycled ring, shadow-fed but still out of steering.
                let probe = move |p: &Packet| {
                    probe_seen.fetch_add(1, Ordering::SeqCst);
                    StageOutcome {
                        verdict: if p.tuple.src_ip.is_multiple_of(2) {
                            StageVerdict::Forward
                        } else {
                            StageVerdict::Drop
                        },
                        hashed: false,
                    }
                };
                svc.respawn_worker(2, probe);
                assert_eq!(lifecycle.state(2), SliceState::Probation);
                assert!(!lifecycle.state(2).steered(), "probation is still excised");
                let report = svc.round(&t).clone();
                assert_eq!(report.quarantined_workers(), vec![2]);
                assert_eq!(report.per_worker[2].received, 0);
                assert_eq!(report.total().received, t.len() as u64);
                assert_eq!(report.total().uncovered, 0);
                assert_eq!(report.total().overflow, 0);
                for (w, r) in report.per_worker.iter().enumerate() {
                    assert_eq!(
                        r.forwarded + r.filtered + r.overflow + r.uncovered,
                        r.received,
                        "worker {w} leaks during probation"
                    );
                }
                // The probation stage saw exactly its home shard's
                // mirrored share — nothing more, nothing in the counters.
                assert_eq!(shadowed.load(Ordering::SeqCst), home2);

                // Promote: steering is byte-identical to pre-crash.
                promote(&lifecycle, 2);
                assert_eq!(lifecycle.slices_where(SliceState::steered), [0, 1, 2, 3]);
                for p in &t {
                    let w0 = shard_of(&p.tuple, n);
                    assert_eq!(
                        svc.retarget_fingerprint(p.tuple.tuple_fingerprint(), w0),
                        w0,
                        "restored steering differs from pre-crash"
                    );
                }
                let report = svc.round(&t).clone();
                assert_eq!(report.per_worker[2].received, home2);
                assert_eq!(report.total().uncovered, 0);
                // The shadow feed stopped at promotion: the stage now sees
                // its real share instead.
                assert_eq!(shadowed.load(Ordering::SeqCst), 2 * home2);
            },
        );
    }

    #[test]
    fn body_panic_still_shuts_down_cleanly() {
        let result = std::panic::catch_unwind(|| {
            DataplaneService::new(ServiceConfig::default()).run(
                vec![parity_stage()],
                |_, _| {},
                |t| shard_of(t, 1),
                |svc| {
                    svc.round(&traffic(100, 1));
                    panic!("body exploded");
                },
            )
        });
        let msg = *result.unwrap_err().downcast::<&str>().unwrap();
        assert_eq!(msg, "body exploded");
    }

    fn sized(ring_capacity: usize, burst: usize) -> ServiceConfig {
        ServiceConfig {
            ring_capacity,
            burst,
            ..Default::default()
        }
    }

    #[test]
    fn accounting_adds_up_per_worker() {
        let t = traffic(8_000, 2);
        let stages: Vec<_> = (0..4).map(|_| parity_stage()).collect();
        let report = DataplaneService::new(sized(16_384, 32)).run(
            stages,
            |_, _| {},
            |t| shard_of(t, 4),
            |svc| svc.round(&t).clone(),
        );
        assert_eq!(report.workers(), 4);
        for (w, r) in report.per_worker.iter().enumerate() {
            assert_eq!(
                r.forwarded + r.filtered + r.overflow,
                r.received,
                "worker {w} leaks packets"
            );
        }
        let total = report.total();
        assert_eq!(total.received, 8_000);
        assert_eq!(total.overflow, 0, "ring holds the whole round");
    }

    #[test]
    fn steering_is_deterministic_and_balanced() {
        let t = traffic(10_000, 2);
        let n = 4;
        // Every packet must land on the worker shard_of names.
        let seen = std::sync::Mutex::new(Vec::new());
        let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
        DataplaneService::new(sized(16_384, 32)).run(
            stages,
            |w, p: &Packet| seen.lock().unwrap().push((w, p.tuple)),
            |t| shard_of(t, n),
            |svc| {
                svc.round(&t);
            },
        );
        let seen = seen.into_inner().unwrap();
        assert!(!seen.is_empty());
        for (w, tuple) in &seen {
            assert_eq!(*w, shard_of(tuple, n), "flow moved shards");
        }
        // All workers get some share of a 64-flow mix.
        let mut counts = [0u64; 4];
        for p in &t {
            counts[shard_of(&p.tuple, n)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "unbalanced: {counts:?}");
    }

    #[test]
    fn custom_steering_is_clamped_and_applied() {
        let t = traffic(1_000, 2);
        let stages: Vec<_> = (0..2).map(|_| parity_stage()).collect();
        // Everything to (out-of-range) worker 5 → clamped to 5 % 2 = 1.
        let report = DataplaneService::new(sized(4_096, 16)).run(
            stages,
            |_, _| {},
            |_| 5usize,
            |svc| svc.round(&t).clone(),
        );
        assert_eq!(report.per_worker[0].received, 0);
        assert_eq!(report.per_worker[1].received, 1_000);
    }

    #[test]
    fn single_worker_alternating_stage_forwards_half_in_fifo_order() {
        // The Fig. 6 shape: one filter worker between RX and TX.
        let mut flip = false;
        let stage = move |_p: &Packet| {
            flip = !flip;
            StageOutcome {
                verdict: if flip {
                    StageVerdict::Forward
                } else {
                    StageVerdict::Drop
                },
                hashed: false,
            }
        };
        let t = traffic(10_000, 1);
        let seen = std::sync::Mutex::new(Vec::new());
        let total = DataplaneService::new(sized(16_384, 32))
            .run(
                vec![stage],
                |_, p: &Packet| seen.lock().unwrap().push(p.id),
                |_| 0,
                |svc| svc.round(&t).clone(),
            )
            .total();
        assert_eq!(total.received, 10_000);
        assert_eq!(total.overflow, 0, "ring holds the whole round");
        assert_eq!(total.forwarded, 5_000);
        assert_eq!(total.filtered, 5_000);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len() as u64, total.forwarded);
        // FIFO within the pipeline: ids arrive in order.
        assert!(seen.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn forward_all_drops_nothing() {
        let stage = |_p: &Packet| StageOutcome {
            verdict: StageVerdict::Forward,
            hashed: false,
        };
        let t = traffic(2_000, 1);
        let total = DataplaneService::new(sized(256, 8))
            .run(vec![stage], |_, _| {}, |_| 0, |svc| svc.round(&t).clone())
            .total();
        assert_eq!(total.forwarded, 2_000 - total.overflow);
        assert_eq!(total.filtered, 0);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_stage_set_rejected() {
        let stages: Vec<fn(&Packet) -> StageOutcome> = Vec::new();
        DataplaneService::new(sized(64, 8)).run(stages, |_, _| {}, |_| 0, |_| {});
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn panicking_stage_propagates_instead_of_deadlocking() {
        // A stage that dies mid-run must surface as a panic from the scope
        // join, not leave RX/TX spinning on its rings forever.
        let stages: Vec<_> = (0..2)
            .map(|_| {
                let mut seen = 0usize;
                move |_p: &Packet| {
                    seen += 1;
                    assert!(seen <= 100, "stage blew up");
                    StageOutcome {
                        verdict: StageVerdict::Forward,
                        hashed: false,
                    }
                }
            })
            .collect();
        let t = traffic(2_000, 2);
        DataplaneService::new(sized(64, 8)).run(
            stages,
            |_, _| {},
            |t| shard_of(t, 2),
            |svc| {
                svc.round(&t);
            },
        );
    }

    #[test]
    #[should_panic(expected = "tx thread")]
    fn panicking_sink_propagates_instead_of_deadlocking() {
        // A sink that dies must not leave the workers spinning on a full
        // TX ring: the tx_live flag is cleared on unwind and they bail.
        let stages: Vec<_> = (0..2).map(|_| parity_stage()).collect();
        let t = traffic(5_000, 2);
        DataplaneService::new(sized(64, 8)).run(
            stages,
            |_, _| panic!("sink died"),
            |t| shard_of(t, 2),
            |svc| {
                svc.round(&t);
            },
        );
    }
}
