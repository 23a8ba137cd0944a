//! One workload, one pass: set-up, warm-up, audited rounds for the
//! measured interval, the correctness gate, and the metrics.
//!
//! An audit round is what `examples/ddos_mitigation.rs` does per round,
//! on a service that stays up: neighbors observe the hand-over, the pool
//! is offered window by window (each closed by `flush_round`), the
//! victims observe what the sink received, `close_round` audits every
//! slice, and every slice runs its rule-update period.

use crate::api::{
    self, Counts, Deployment, HybridCounts, Packets, PublishTimes, Service, StageProbe,
};
use crate::inputs::{self, Class, Inputs};
use crate::metrics::{self, decile_of, median_of, value, Metric};
use crate::stats;
use crate::trace::{now_ns, Tracer};
use crate::workloads::Workload;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
const WARMUP_ROUNDS: usize = 2;
/// Fewest measured rounds, however short the run.
const MIN_ROUNDS: usize = 4;
/// The sink times one delivery in this many.
const LATENCY_SAMPLE: u64 = 16;
/// Traced rounds whose every stage batch is kept as a span.
const SPAN_ROUNDS: usize = 4;
/// A workload without churn publishes on its idle twin after every this
/// many measured rounds.
const TWIN_PUBLISH_EVERY: usize = 2;

pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Off only to demonstrate that the canary fails a neutered audit.
    pub canary_steal: bool,
    pub out_dir: std::path::PathBuf,
}

pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, for the reader.
    pub failures: Vec<String>,
}

/// What the sink on the TX thread records of one round.
#[derive(Default)]
struct Delivered {
    ids: Vec<u64>,
    by_class: [u64; 4],
    by_prob_flow: Vec<u32>,
    latency_ns: Vec<f64>,
    /// Sink calls (the `tx.deliver` count), stolen ones included.
    calls: u64,
}

impl Delivered {
    fn sized(inputs: &Inputs) -> Self {
        Delivered {
            ids: Vec::with_capacity(inputs.pool.len()),
            by_prob_flow: vec![0; inputs.prob_offered.len()],
            latency_ns: Vec::with_capacity(inputs.pool.len() / LATENCY_SAMPLE as usize + 1),
            ..Default::default()
        }
    }

    fn clear(&mut self) {
        self.ids.clear();
        self.by_class = [0; 4];
        self.by_prob_flow.fill(0);
        self.latency_ns.clear();
        self.calls = 0;
    }
}

/// State the generator thread and the sink share.
struct SinkShared {
    state: Mutex<Delivered>,
    /// What a packet's `arrival_ns` is relative to: the window's start in
    /// a closed loop, the pass's start in an open one.
    base_ns: AtomicU64,
    /// The bypass canary: drop one delivery in ten after the filter.
    steal: AtomicBool,
}

#[derive(Clone, Copy, PartialEq)]
enum RoundKind {
    Warmup,
    Measured,
    Canary,
}

/// The correctness gate's tally.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    /// Counts `count` failed operations; `what` is only rendered for the
    /// first few, and never on the (hot) path where nothing failed.
    fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        if count > 0 {
            self.failed += count;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Per-round samples of the measured interval.
#[derive(Default)]
struct Samples {
    mpps: Vec<f64>,
    mpps_traced: Vec<f64>,
    mpps_untraced: Vec<f64>,
    latency_p50_us: Vec<f64>,
    latency_p99_us: Vec<f64>,
    audit_ms: Vec<f64>,
    publish_ms: Vec<f64>,
    round_ms: Vec<f64>,
    cpu_ns_per_pkt: Vec<f64>,
    update_ms: Vec<f64>,
    barrier_us: Vec<f64>,
    tx_lag_us: Vec<f64>,
    /// Per round, the 99th percentile of how late the generator sent.
    late_p99_us: Vec<f64>,
    residual_share: Vec<f64>,
    /// Rounds whose stage batches were all kept as spans.
    span_rounds: Vec<u32>,
    offer_ns: u64,
    observe_ns: u64,
    observed: u64,
    decided: u64,
    overflow: u64,
    /// Serve wall time of the rounds the stage probes were timing.
    timed_serve_ns: u64,
    cpu_s: f64,
}

struct RoundLoop<'a> {
    spec: &'a Workload,
    inputs: &'a Inputs,
    class_offered: [u64; 4],
    seed: u64,
    svc: &'a mut dyn Service,
    dep: &'a mut Deployment,
    packets: &'a mut Packets,
    shared: &'a SinkShared,
    probes: &'a [Arc<StageProbe>],
    tracer: &'a mut Tracer,
    gate: &'a mut Gate,
    samples: &'a mut Samples,
    /// The sink's buffers of the round being checked (swapped, not copied).
    got: Delivered,
    round: u32,
    /// Packets the service reported forwarded this round.
    forwarded: u64,
    /// How late each burst of this round left the generator, µs.
    late_us: Vec<f64>,
    spoof_pass: u64,
    churn_epoch: u64,
}

impl RoundLoop<'_> {
    /// Publishes churn epoch `epoch` — last epoch's 8 rules out, 8 new /32
    /// drops in — and puts the sentinels from the new sources into the
    /// pool's reserved slots, for the next window to carry.
    fn publish_epoch(&mut self, epoch: u64) -> PublishTimes {
        self.churn_epoch = epoch;
        let (rules, sentinels) = inputs::churn_epoch(self.seed, epoch, self.inputs);
        let times = self.dep.churn(&rules);
        for (slot, p) in self.inputs.sentinel_slots.clone().zip(&sentinels) {
            self.packets.set(slot, p);
        }
        times
    }

    /// Offers one window and closes it with the flush barrier; with `paced`
    /// = (ns between bursts, when the round's first burst was due) the
    /// window's bursts go out on that schedule (open loop), else at once
    /// (closed loop). Returns `(ns inside offer, barrier ns)`.
    fn window(&mut self, range: std::ops::Range<usize>, paced: Option<(u64, u64)>) -> (u64, u64) {
        let round = self.round;
        let window = self.tracer.begin("window", round);
        let offer = self.tracer.begin("offer", round);
        let t0 = now_ns();
        // Time inside `offer` only: an open loop also spins between bursts.
        let mut paced_busy_ns = 0;
        match paced {
            None => {
                self.shared.base_ns.store(t0, Ordering::Relaxed);
                self.svc.offer(self.packets.window(range));
            }
            Some((burst_ns, origin)) => {
                // A generator that fell behind (its own stall, or the wait
                // at the previous window's barrier) catches up at no more
                // than twice the pace, so a stall shows as lateness and
                // latency, never as a burst that overflows a ring.
                let mut earliest = t0;
                for start in range.step_by(32) {
                    let due = origin + (start / 32) as u64 * burst_ns;
                    let send = due.max(earliest);
                    let mut now = now_ns();
                    while now < send {
                        std::hint::spin_loop();
                        now = now_ns();
                    }
                    earliest = now + burst_ns / 2;
                    self.late_us.push((now - due) as f64 / 1e3);
                    self.svc.offer(self.packets.window(start..start + 32));
                    paced_busy_ns += now_ns() - now;
                }
            }
        }
        let mut offer_ns = self.tracer.end(offer);
        if paced.is_some() {
            offer_ns = paced_busy_ns;
        }
        let barrier = self.tracer.begin("barrier", round);
        let counts = self.svc.flush();
        let barrier_ns = self.tracer.end(barrier);
        let flushed = now_ns();
        if self.tracer.is_on() {
            let last_batch = self
                .probes
                .iter()
                .map(|p| p.last_end_ns.load(Ordering::Relaxed))
                .max()
                .unwrap_or(flushed)
                .clamp(t0, flushed);
            self.tracer.leaf("tx.lag", round, last_batch, flushed);
            self.samples
                .tx_lag_us
                .push((flushed - last_batch) as f64 / 1e3);
        }
        self.tracer.end(window);
        self.check_counts(counts);
        (offer_ns, barrier_ns)
    }

    /// Packet conservation, and no loss: a window cannot overflow a ring.
    fn check_counts(&mut self, c: Counts) {
        self.gate.attempted += c.received;
        let accounted = c.forwarded + c.filtered + c.overflow + c.uncovered;
        self.gate.fail(c.received.abs_diff(accounted), || {
            format!("round {}: conservation broken: {c:?}", self.round)
        });
        self.gate.fail(c.overflow + c.uncovered, || {
            format!("round {}: packets lost: {c:?}", self.round)
        });
        self.samples.overflow += c.overflow;
        self.samples.decided += c.forwarded + c.filtered;
        self.forwarded += c.forwarded;
    }

    /// The class-tag oracle over what the sink received this round.
    fn check_deliveries(&mut self, kind: RoundKind) {
        let round = self.round;
        let got = &self.got;
        self.gate.fail(got.by_class[Class::MustDrop as usize], || {
            format!("round {round}: packets under a drop rule were delivered")
        });
        self.gate.fail(got.by_class[Class::Sentinel as usize], || {
            format!("round {round}: a sentinel was forwarded after its publish returned")
        });
        if kind == RoundKind::Canary {
            return;
        }
        let benign = self.class_offered[Class::Benign as usize];
        self.gate.fail(
            benign.abs_diff(got.by_class[Class::Benign as usize]),
            || format!("round {round}: benign packets offered and delivered differ"),
        );
        if self.inputs.prob_offered.is_empty() {
            // Every packet its own flow: about half of them get through.
            let offered = self.class_offered[Class::Prob as usize];
            if offered > 0 {
                let share = got.by_class[Class::Prob as usize] as f64 / offered as f64;
                self.gate.fail(u64::from((share - 0.5).abs() > 0.02), || {
                    format!("round {round}: {share:.4} of probabilistic flows forwarded")
                });
            }
        } else {
            let split = self
                .inputs
                .prob_offered
                .iter()
                .zip(&got.by_prob_flow)
                .filter(|(offered, delivered)| **delivered != 0 && delivered != offered)
                .count();
            self.gate.fail(split as u64, || {
                format!("round {round}: {split} probabilistic flows got both verdicts")
            });
        }
    }

    fn round(&mut self, kind: RoundKind) {
        let spec = self.spec;
        // Generator work, outside every timed section.
        if spec.rekey {
            let prefix = self.inputs.tenants[0].prefix;
            for i in 0..self.packets.len() {
                let p = inputs::spoofed(prefix, self.packets.len(), self.spoof_pass, i);
                self.packets.set(i, &p);
            }
            self.spoof_pass += 1;
        }
        let cpu_before = stats::threads_cpu_ns();
        self.round += 1;
        self.forwarded = 0;
        let round = self.round;
        let timing = self.tracer.is_on();
        self.late_us.clear();
        let kept_lags = self.samples.tx_lag_us.len();
        let span = self.tracer.begin("round", round);

        let all = self.packets.len();
        let observe = self.tracer.begin("observe.neighbor", round);
        self.dep.observe_neighbor(self.packets.window(0..all));
        let mut observe_ns = self.tracer.end(observe);

        let decided_before = self.samples.decided;
        // Warm-up is always closed loop: it fills caches, and a cold open
        // loop proves nothing.
        let origin = now_ns();
        let paced = match kind {
            RoundKind::Warmup => None,
            _ => spec.burst_ns.map(|burst_ns| (burst_ns, origin)),
        };
        if paced.is_some() {
            // Pool packets carry their due time relative to the round.
            self.shared.base_ns.store(origin, Ordering::Relaxed);
        }
        for start in (0..all).step_by(spec.window) {
            let (offer_ns, barrier_ns) = self.window(start..start + spec.window, paced);
            if kind == RoundKind::Measured {
                self.samples.offer_ns += offer_ns;
                self.samples.barrier_us.push(barrier_ns as f64 / 1e3);
            }
        }
        let serve_ns = now_ns() - origin;
        let decided = self.samples.decided - decided_before;

        // Everything of the round has reached the sink: take its record.
        std::mem::swap(
            &mut *self.shared.state.lock().expect("sink state"),
            &mut self.got,
        );
        self.gate.fail(self.forwarded.abs_diff(self.got.calls), || {
            format!("round {round}: the sink did not see every forwarded packet")
        });
        self.check_deliveries(kind);

        let observe = self.tracer.begin("observe.victim", round);
        self.dep.observe_victim(self.packets, &self.got.ids);
        observe_ns += self.tracer.end(observe);

        let audit = self.tracer.begin("audit.close", round);
        let verdict = self.dep.close_round();
        let audit_ns = self.tracer.end(audit);
        self.gate.attempted += 1;
        match (verdict, kind) {
            (Err(e), _) => self
                .gate
                .fail(1, || format!("round {round}: audit failed: {e}")),
            (Ok(false), RoundKind::Canary) => self.gate.fail(1, || {
                "bypass canary: expected dirty, got clean — the audit does not see stolen \
                 deliveries"
                    .into()
            }),
            (Ok(true), RoundKind::Canary) | (Ok(false), _) => {}
            (Ok(true), _) => self
                .gate
                .fail(1, || format!("round {round}: honest round audited dirty")),
        }

        let update = self.tracer.begin("update_period", round);
        self.dep.update_period();
        let update_ns = self.tracer.end(update);

        let mut publish = None;
        if spec.churn {
            publish = Some(self.churn(round));
        }
        let round_ns = self.tracer.end(span);

        if kind == RoundKind::Measured {
            let s = &mut *self.samples;
            let mpps = decided as f64 * 1e3 / serve_ns as f64;
            s.mpps.push(mpps);
            if timing {
                s.mpps_traced.push(mpps);
                s.timed_serve_ns += serve_ns;
            } else {
                s.mpps_untraced.push(mpps);
            }
            s.latency_p50_us
                .push(stats::median(&self.got.latency_ns) / 1e3);
            s.latency_p99_us
                .push(stats::percentile(&self.got.latency_ns, 99.0) / 1e3);
            s.audit_ms.push(audit_ns as f64 / 1e6);
            s.update_ms.push(update_ns as f64 / 1e6);
            s.round_ms.push(round_ns as f64 / 1e6);
            if let (Some(before), Some(after)) = (cpu_before, stats::threads_cpu_ns()) {
                s.cpu_ns_per_pkt
                    .push((after - before) as f64 / decided.max(1) as f64);
            }
            s.observe_ns += observe_ns;
            s.observed += all as u64 + self.got.ids.len() as u64;
            if let Some(p) = publish {
                s.publish_ms.push(p.total_ms());
            }
            if paced.is_some() {
                s.late_p99_us.push(stats::percentile(&self.late_us, 99.0));
            }
        } else {
            // Only measured rounds keep their per-window samples.
            self.samples.decided = decided_before;
            self.samples.tx_lag_us.truncate(kept_lags);
        }
        self.got.clear();
    }

    /// One churn epoch through the session, as a round's last step.
    fn churn(&mut self, round: u32) -> PublishTimes {
        let publish = self.tracer.begin("publish", round);
        let times = self.publish_epoch(self.churn_epoch + 1);
        let wall_ns = self.tracer.end(publish);
        if self.tracer.is_on() {
            // The two legs, laid end to end inside the publish span.
            let end = now_ns();
            let start = end - wall_ns;
            let mid = (start + (times.submit_ms * 1e6) as u64).min(end);
            self.tracer.leaf("session.submit", round, start, mid);
            self.tracer.leaf("scale.publish", round, mid, end);
        }
        self.gate.attempted += 1;
        self.gate.fail(u64::from(!times.ok), || {
            format!("round {round}: publish did not reach every slice")
        });
        times
    }
}

/// What the campaign half of `campaign_heal` measured.
#[derive(Default)]
struct CampaignSamples {
    round_ms: Vec<f64>,
    snapshot_us: Vec<f64>,
    packets: u64,
    installs: u64,
    withdrawals: u64,
    mttr_rounds: Vec<f64>,
    runs: usize,
}

/// Heal campaigns back to back for `seconds`, alternating two derived
/// seeds so that every execution after the second is compared with an
/// earlier one of the same seed.
fn campaigns(seed: u64, seconds: f64, gate: &mut Gate) -> CampaignSamples {
    let mut out = CampaignSamples::default();
    let mut digests: [Option<String>; 2] = [None, None];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while out.runs < 2 || Instant::now() < deadline {
        let which = out.runs % 2;
        let run = api::heal_campaign(seed.wrapping_mul(2).wrapping_add(which as u64));
        gate.attempted += 1;
        for v in &run.violations {
            gate.fail(1, || format!("campaign {}: {v}", out.runs));
        }
        match &digests[which] {
            Some(earlier) => gate.fail(u64::from(*earlier != run.digest), || {
                format!(
                    "campaign {}: report differs from its same-seed twin",
                    out.runs
                )
            }),
            None => digests[which] = Some(run.digest),
        }
        out.round_ms.extend(run.round_ms);
        out.snapshot_us.push(run.snapshot_us);
        out.packets += run.packets;
        out.installs += run.installs;
        out.withdrawals += run.withdrawals;
        out.mttr_rounds.extend(run.mttr_rounds.map(|r| r as f64));
        out.runs += 1;
    }
    out
}

pub fn run(spec: &Workload, args: &RunArgs) -> Outcome {
    let inputs = spec.inputs(args.seed);
    let mut packets = Packets::new(&inputs.pool);
    let class_offered = inputs.class_counts();
    let mut gate = Gate::default();
    let mut samples = Samples::default();
    // Half of a campaign run goes to the harness executions.
    let serve_seconds = if spec.campaign {
        args.seconds / 2.0
    } else {
        args.seconds
    };

    let shared = Arc::new(SinkShared {
        state: Mutex::new(Delivered::sized(&inputs)),
        base_ns: AtomicU64::new(0),
        steal: AtomicBool::new(false),
    });
    let probes: Vec<Arc<StageProbe>> = (0..spec.workers)
        .map(|_| Arc::new(StageProbe::default()))
        .collect();
    let mut tracer = Tracer::new(if args.trace {
        (1 << 14) + spec.workers * (1 << 16)
    } else {
        0
    });

    // A workload that never churns still reports `publish_ms`: the same
    // churn epochs, on an idle second deployment of the same tenants and
    // rules, spread over the measured interval. The live deployment is
    // left alone, so its caches stay as warm as the workload means them.
    let mut twin = (!spec.churn).then(|| {
        let mut twin = Deployment::launch(!args.seed, spec.workers, &inputs.tenants);
        // Epoch 0 goes in now, so every timed publish withdraws 8 rules
        // and installs 8, like a churning workload's.
        let primed = twin.churn(&inputs::churn_epoch(args.seed, 0, &inputs).0);
        assert!(primed.ok, "priming the idle twin");
        twin
    });
    let mut twin_epoch = 0;

    let mut setup_s = Vec::with_capacity(SETUPS);
    // Over the measured interval: cache hits and evictions; at its end:
    // cached flows.
    let mut hybrid = HybridCounts::default();
    let mut park_events = 0;
    for setup in 0..SETUPS {
        let started = Instant::now();
        let mut dep = Deployment::launch(args.seed, spec.workers, &inputs.tenants);
        let sink_shared = Arc::clone(&shared);
        let sink = move |id: u64, arrival_ns: u64| {
            let mut got = sink_shared.state.lock().expect("sink state");
            got.calls += 1;
            if sink_shared.steal.load(Ordering::Relaxed) && got.calls.is_multiple_of(10) {
                return;
            }
            let class = inputs::class_of(id);
            got.by_class[class as usize] += 1;
            if class == Class::Prob && !got.by_prob_flow.is_empty() {
                got.by_prob_flow[inputs::prob_flow_of(id)] += 1;
            }
            got.ids.push(id);
            if got.calls.is_multiple_of(LATENCY_SAMPLE) {
                let sent = sink_shared.base_ns.load(Ordering::Relaxed) + arrival_ns;
                got.latency_ns.push(now_ns().saturating_sub(sent) as f64);
            }
        };
        api::serve(&mut dep, &probes, sink, |svc, dep| {
            let mut rounds = RoundLoop {
                spec,
                inputs: &inputs,
                class_offered,
                seed: args.seed,
                svc,
                dep,
                packets: &mut packets,
                shared: &shared,
                probes: &probes,
                tracer: &mut tracer,
                gate: &mut gate,
                samples: &mut samples,
                got: Delivered::sized(&inputs),
                round: 0,
                forwarded: 0,
                late_us: Vec::with_capacity(inputs.pool.len() / 32),
                spoof_pass: 1,
                churn_epoch: 0,
            };
            if spec.churn {
                // A fresh deployment carries no churn rules yet; the pool's
                // reserved slots start out with epoch 0's sentinels.
                assert!(rounds.publish_epoch(0).ok, "first churn epoch");
            }
            for _ in 0..WARMUP_ROUNDS {
                rounds.round(RoundKind::Warmup);
            }
            setup_s.push(started.elapsed().as_secs_f64());
            if setup + 1 < SETUPS {
                return;
            }

            // The measured interval.
            let hybrid_start = rounds.dep.hybrid_counts();
            let parks_start = rounds.svc.park_events();
            let cpu_start = stats::cpu_seconds();
            let deadline = Instant::now() + Duration::from_secs_f64(serve_seconds);
            let mut measured = 0;
            let mut traced = 0;
            while measured < MIN_ROUNDS || Instant::now() < deadline {
                // A traced pass traces every other round, so the same run
                // yields the cost of tracing.
                let on = args.trace && measured % 2 == 0;
                rounds.tracer.set_on(on);
                for p in rounds.probes {
                    p.timing.store(on, Ordering::Relaxed);
                    p.keep_spans
                        .store(on && traced < SPAN_ROUNDS, Ordering::Relaxed);
                }
                if on && traced < SPAN_ROUNDS {
                    rounds.samples.span_rounds.push(rounds.round + 1);
                }
                rounds.round(RoundKind::Measured);
                traced += usize::from(on);
                measured += 1;
                if let Some(twin) = twin.as_mut().filter(|_| measured % TWIN_PUBLISH_EVERY == 0) {
                    twin_epoch += 1;
                    let (rules, _) = inputs::churn_epoch(args.seed, twin_epoch, &inputs);
                    let times = twin.churn(&rules);
                    rounds.gate.attempted += 1;
                    rounds.gate.fail(u64::from(!times.ok), || {
                        "publish on the idle twin failed".into()
                    });
                    rounds.samples.publish_ms.push(times.total_ms());
                }
            }
            rounds.tracer.set_on(false);
            for p in rounds.probes {
                p.timing.store(false, Ordering::Relaxed);
            }
            rounds.samples.cpu_s = stats::cpu_seconds() - cpu_start;
            park_events = rounds.svc.park_events() - parks_start;
            hybrid = rounds.dep.hybrid_counts();
            hybrid.exact_hits -= hybrid_start.exact_hits;
            hybrid.pending_evicted -= hybrid_start.pending_evicted;

            // The bypass canary, last and untimed: with the sink stealing
            // one delivery in ten, the round must audit dirty.
            shared.steal.store(args.canary_steal, Ordering::Relaxed);
            rounds.round(RoundKind::Canary);
            shared.steal.store(false, Ordering::Relaxed);
        });
    }

    let campaign = if spec.campaign {
        campaigns(args.seed, args.seconds - serve_seconds, &mut gate)
    } else {
        CampaignSamples::default()
    };

    let found = if args.trace {
        for (w, probe) in probes.iter().enumerate() {
            let spans = std::mem::take(&mut *probe.spans.lock().expect("stage spans"));
            tracer.adopt("stage.batch", 1 + w as u16, &spans, "window");
        }
        for (i, span) in tracer.spans().iter().enumerate() {
            if span.name == "window" && samples.span_rounds.contains(&span.round) {
                let share = tracer.window_residual_share(i as u32);
                samples.residual_share.push(share);
            }
        }
        let s = &samples;
        let mut found = layer_metrics(spec, args, &inputs, &packets, s, &campaign, &probes);
        // Packets that paid the SHA-256 path: those under the probabilistic
        // rule that the exact-match cache did not serve. (The product's own
        // `hash_ratio` also counts every compiled-classifier decision.)
        let prob_offered = s.mpps.len() as u64 * class_offered[Class::Prob as usize];
        found.push(value(
            "hybrid.hash_ratio",
            ratio(prob_offered.saturating_sub(hybrid.exact_hits), s.decided),
            s.mpps.len(),
        ));
        found.push(value("hybrid.cached_flows", hybrid.cached_flows as f64, 1));
        found.push(value(
            "hybrid.pending_evicted",
            hybrid.pending_evicted as f64,
            1,
        ));
        found.push(value("service.park_events", park_events as f64, 1));
        let written = write_trace(spec, args, &tracer, s, s.decided + campaign.packets);
        if let Err(e) = written {
            gate.fail(1, || format!("trace file: {e}"));
        }
        metrics::complete(metrics::PER_LAYER, found)
    } else {
        let s = &samples;
        let found = vec![
            decile_of("filter_mpps", &s.mpps, true),
            if s.cpu_ns_per_pkt.is_empty() {
                // No scheduler statistics: the coarser whole-interval figure.
                value("cpu_ns_per_pkt", s.cpu_s * 1e9 / s.decided.max(1) as f64, 1)
            } else {
                decile_of("cpu_ns_per_pkt", &s.cpu_ns_per_pkt, false)
            },
            decile_of("fwd_latency_us", &s.latency_p50_us, false),
            decile_of("audit_ms", &s.audit_ms, false),
            decile_of("publish_ms", &s.publish_ms, false),
            if spec.campaign {
                // A campaign's rounds are of different kinds by design (both
                // slices up, one down, one on probation): the best decile
                // would report the cheapest kind, the median the usual one.
                median_of("round_ms", &campaign.round_ms)
            } else {
                decile_of("round_ms", &s.round_ms, false)
            },
            median_of("setup_s", &setup_s),
            value("peak_rss_mb", stats::peak_rss_mb(), 1),
        ];
        metrics::complete(metrics::END_TO_END, found)
    };
    Outcome {
        metrics: found,
        attempted: gate.attempted,
        failed: gate.failed,
        failures: gate.failures,
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The per-layer metrics a traced pass reports besides the hybrid and
/// park counters: the service's own layers from the traced rounds, then
/// the single-threaded layer probes and the waterfall over both.
fn layer_metrics(
    spec: &Workload,
    args: &RunArgs,
    inputs: &Inputs,
    packets: &Packets,
    s: &Samples,
    campaign: &CampaignSamples,
    probes: &[Arc<StageProbe>],
) -> Vec<Metric> {
    let sum = |f: fn(&StageProbe) -> &AtomicU64| -> u64 {
        probes.iter().map(|p| f(p).load(Ordering::Relaxed)).sum()
    };
    let (busy_ns, batches, staged) = (
        sum(|p| &p.busy_ns),
        sum(|p| &p.batches),
        sum(|p| &p.packets),
    );
    let overhead = 1.0 - stats::median(&s.mpps_traced) / stats::median(&s.mpps_untraced).max(1e-9);
    let mut out = vec![
        value(
            "service.offer_ns",
            s.offer_ns as f64 / s.decided.max(1) as f64,
            s.decided as usize,
        ),
        median_of("service.barrier_us", &s.barrier_us),
        value(
            "service.stage_ns",
            busy_ns as f64 / staged.max(1) as f64,
            staged as usize,
        ),
        value(
            "service.stage_busy_share",
            busy_ns as f64 / (s.timed_serve_ns.max(1) * spec.workers as u64) as f64,
            batches as usize,
        ),
        value(
            "service.batch_fill",
            staged as f64 / batches.max(1) as f64,
            batches as usize,
        ),
        median_of("service.tx_lag_us", &s.tx_lag_us),
        value("service.overflow", s.overflow as f64, s.mpps.len()),
        median_of("service.fwd_latency_p99_us", &s.latency_p99_us),
        median_of("gen.late_p99_us", &s.late_p99_us),
        value(
            "verify.observe_ns",
            s.observe_ns as f64 / s.observed.max(1) as f64,
            s.observed as usize,
        ),
        value(
            "rounds.close_p95_ms",
            stats::percentile(&s.audit_ms, 95.0),
            s.audit_ms.len(),
        ),
        median_of("app.update_period_ms", &s.update_ms),
        value("trace.overhead_share", overhead, s.mpps_traced.len()),
        value(
            "waterfall.residual_share",
            s.residual_share.iter().sum::<f64>() / s.residual_share.len().max(1) as f64,
            s.residual_share.len(),
        ),
        value("campaign.installs", campaign.installs as f64, campaign.runs),
        value(
            "campaign.withdrawals",
            campaign.withdrawals as f64,
            campaign.runs,
        ),
        median_of("campaign.mttr_rounds", &campaign.mttr_rounds),
    ];
    out.push(if spec.campaign {
        median_of("telemetry.snapshot_us", &campaign.snapshot_us)
    } else {
        api::probe_telemetry_snapshot(spec.workers, 256)
    });

    // Hash-path tuples for the stateless-filter probe: fresh spoofed flows.
    let prefix = inputs.tenants[0].prefix;
    let hashed: Vec<inputs::Pkt> = (0..8192)
        .map(|i| inputs::spoofed(prefix, 8192, u64::MAX >> 20, i))
        .collect();
    let churn_rules = |epoch: u64| inputs::churn_epoch(args.seed, epoch, inputs).0;
    out.extend(api::probe_layers(
        args.seed,
        spec.workers,
        &inputs.tenants,
        packets,
        &Packets::new(&hashed),
        &churn_rules,
    ));
    let part = |name: &str| out.iter().find(|m| m.name == name).expect("probed").value;
    let explained = part("probe.fingerprint_ns")
        + part("probe.entry_ns")
        + part("probe.hybrid_ns")
        + part("probe.log_ns");
    let stage_residual = part("service.stage_ns") - explained;
    out.push(value("waterfall.stage_residual_ns", stage_residual, 1));
    out
}

/// `<out>/trace-<workload>.json`: the spans, plus the counts taken at the
/// same boundaries and per-name totals with self time.
fn write_trace(
    spec: &Workload,
    args: &RunArgs,
    tracer: &Tracer,
    s: &Samples,
    decided: u64,
) -> std::io::Result<()> {
    use crate::json::Json;
    let summary = tracer
        .summary()
        .into_iter()
        .map(|(name, count, total_ns, self_ns)| {
            Json::obj([
                ("name", Json::str(name)),
                ("count", Json::Num(count as f64)),
                ("total_ns", Json::Num(total_ns as f64)),
                ("self_ns", Json::Num(self_ns as f64)),
            ])
        })
        .collect();
    let meta = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::str(args.seed.to_string())),
        ("rounds", Json::Num(s.mpps.len() as f64)),
        ("traced_rounds", Json::Num(s.mpps_traced.len() as f64)),
        ("packets_decided", Json::Num(decided as f64)),
        ("spans_dropped", Json::Num(tracer.dropped as f64)),
        ("spans_by_name", Json::Arr(summary)),
    ]);
    let path = args.out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(&args.out_dir)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    tracer.write_chrome(&mut out, &meta.encode())?;
    std::io::Write::flush(&mut out)?;
    println!("trace {}", path.display());
    Ok(())
}
