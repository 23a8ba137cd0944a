//! The self-healing acceptance run: a seeded crash on a 4-worker
//! 2-tenant campaign quarantines exactly one slice and bumps the heavy
//! tenant off the shrunken admission pool; a seeded recover rejoins the
//! slice through a fresh attested session and master-state replay; it
//! passes the probation window (K consecutive clean shadow audits) and
//! is promoted back to full trust, re-admitting the failover-rejected
//! contract. An adversarial variant rejoins with stale (wiped) rule
//! state: probation catches the desync, demotes the slice back to
//! quarantine, and the flap-damping backoff spaces the retries until the
//! rejoin budget outlives the run. The same seed reproduces every report
//! byte-for-byte. A tenant that aborted before the crash takes no part in
//! the rejoin and must not drag the healed slice back into quarantine.

use std::sync::{Arc, Mutex, OnceLock};
use vif_core::rounds::ContractState;
use vif_core::rules::{FilterRule, FlowPattern};
use vif_dataplane::shard_of;
use vif_scenario::{
    ArbiterConfig, CampaignConfig, CampaignContract, CampaignHarness, CampaignReport, DegradedMode,
    FaultKind, FaultPlan, LegitProfile, Phase, PhaseKind, PolicyAction, PolicyObservation,
    Scenario, ScenarioAdversary, ScenarioHarnessConfig, ThresholdPolicy, VictimPolicy,
};
use vif_telemetry::{EventKind, TelemetryHub};
use vif_trie::Ipv4Prefix;

/// The worker the plan kills and later recovers. Not slice 0: the master
/// slice carries the control channel and the resync source.
const DEAD: usize = 2;
/// Global round the crash fires in (mid-attack for tenant A).
const CRASH_ROUND: u64 = 4;
/// Global round the recover fires in: the rejoin attempt, re-attestation,
/// and state resync all happen at this round's barrier.
const RECOVER_ROUND: u64 = 6;
/// Campaign length. Long enough for the happy path to finish probation
/// (promotion at the close of round 7) *and* for the stale variant to
/// burn two rejoin attempts with exponential backoff (rounds 6 and 9)
/// before its third slot (round 14) falls off the end of the run.
const ROUNDS: u32 = 14;

/// Victim A: a sustained uniform attack from a fixed source pool on
/// 203.0.0.0/16. The pool size is the load-bearing constant: A's policy
/// installs one /32 drop per source, and at the arbiter's 0.1 Gb/s
/// per-rule demand floor ~330 in-force rules ask for ~33 Gb/s — more
/// than the 3 surviving slices' 30 Gb/s pool (failover-rejected during
/// the outage), comfortably within the restored pool's 40 Gb/s
/// (re-admitted on promotion).
fn scenario_a(seed: u64) -> Scenario {
    Scenario {
        name: "victim-a".into(),
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
            rounds: ROUNDS,
            attack_gbps: 22.0,
            attack_sources: 330,
            zipf_exponent: 0.0,
        }],
        round_ms: 1,
        packet_size: 1024,
    }
}

/// Victim B: a pure flash crowd on 198.18.0.0/16 — zero malicious
/// traffic, zero rules, so B rides through admission for free and any
/// delivery it loses is infrastructure damage.
fn scenario_b(seed: u64) -> Scenario {
    Scenario {
        name: "victim-b".into(),
        seed,
        victim: Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16),
        legit: LegitProfile {
            sources: 48,
            gbps: 0.2,
        },
        phases: vec![
            Phase {
                name: "calm".into(),
                kind: PhaseKind::Ramp {
                    from_gbps: 0.0,
                    to_gbps: 0.0,
                },
                rounds: 4,
                attack_gbps: 0.0,
                attack_sources: 0,
                zipf_exponent: 0.0,
            },
            Phase {
                name: "flash-crowd".into(),
                kind: PhaseKind::FlashCrowd {
                    surge_sources: 96,
                    surge_gbps: 0.6,
                },
                rounds: ROUNDS - 4,
                attack_gbps: 0.0,
                attack_sources: 0,
                zipf_exponent: 0.0,
            },
        ],
        round_ms: 1,
        packet_size: 1024,
    }
}

fn policies() -> Vec<Box<dyn VictimPolicy>> {
    vec![
        // A installs a drop per attack source in the crash round's wake:
        // threshold 3 is below the ~8 packets/round each uniform source
        // sends, the install budget covers the whole pool in one round,
        // and idle withdrawal is off so the rule count (the admission
        // demand) stays put for the whole run.
        Box::new(ThresholdPolicy {
            install_threshold: 3,
            idle_rounds: u32::MAX,
            max_installs_per_round: 512,
        }),
        // B installs nothing: every packet it loses is collateral.
        Box::new(ThresholdPolicy {
            install_threshold: u64::MAX,
            ..Default::default()
        }),
    ]
}

/// A heal run with its telemetry hub still attached.
struct HealRun {
    report: CampaignReport,
    hub: Arc<TelemetryHub>,
}

impl HealRun {
    /// Flight-recorder events of `kind` about slice `DEAD`.
    fn events(&self, kind: EventKind) -> usize {
        let events = self.hub.events_last(usize::MAX);
        assert_eq!(self.hub.events_dropped(), 0, "trace wrapped");
        events
            .iter()
            .filter(|e| e.kind == kind && e.slice == DEAD as u32)
            .count()
    }
}

fn run_heal_campaign(seed: u64, stale_rejoin: bool) -> HealRun {
    let contracts = vec![
        CampaignContract {
            contract: 1,
            scenario: scenario_a(seed),
            demand_gbps_per_rule: vec![0.5; 8],
        },
        CampaignContract {
            contract: 2,
            scenario: scenario_b(seed ^ 0xb),
            demand_gbps_per_rule: vec![0.25; 4],
        },
    ];
    let config = CampaignConfig {
        harness: ScenarioHarnessConfig {
            workers: 4,
            ..Default::default()
        },
        // λ = 0 keeps the greedy packer at the bin-packing minimum, so
        // the admit/reject boundary is exactly the pool's aggregate
        // bandwidth: ~33 Gb/s of rule demand needs 4 slices, not 3.
        arbiter: ArbiterConfig {
            lambda: 0.0,
            ..Default::default()
        },
    };
    let hub = Arc::new(TelemetryHub::new(4, &[1, 2], 1 << 14));
    let mut harness = CampaignHarness::new(contracts, config)
        .with_telemetry(Arc::clone(&hub))
        .with_faults(
            FaultPlan::new()
                .at(CRASH_ROUND, FaultKind::WorkerCrash { worker: DEAD })
                .at(RECOVER_ROUND, FaultKind::WorkerRecover { worker: DEAD }),
        )
        // B's traffic is all-legitimate: fail open during its slice's
        // outage instead of dropping a flash crowd on the floor.
        .with_degraded_mode(2, DegradedMode::FailOpen);
    if stale_rejoin {
        harness = harness.with_stale_rejoin(DEAD);
    }
    HealRun {
        report: harness.run(policies()),
        hub,
    }
}

/// The happy-path run, shared between the acceptance assertions and the
/// determinism check (a full campaign is expensive in debug builds).
fn happy_run() -> &'static HealRun {
    static RUN: OnceLock<HealRun> = OnceLock::new();
    RUN.get_or_init(|| run_heal_campaign(4105, false))
}

#[test]
fn recover_rejoins_through_probation_and_readmits_the_bumped_contract() {
    let run = happy_run();
    let report = &run.report;
    assert!(
        report.rejected.is_empty(),
        "both contracts fit at admission"
    );

    let a = report.report(1).expect("contract 1 report");
    let b = report.report(2).expect("contract 2 report");

    // The crash half: exactly the dead slice is quarantined, the outage
    // is bounded to the crash round, and no surviving audit strikes.
    assert_eq!(a.quarantined_slices, vec![DEAD]);
    assert_eq!(b.quarantined_slices, vec![DEAD]);
    assert_eq!(a.recovery_rounds, Some(1), "re-steer closes the hole");
    assert_eq!(b.recovery_rounds, Some(1));
    assert_eq!(a.dirty_rounds, 0, "no false strikes for A");
    assert_eq!(b.dirty_rounds, 0, "no false strikes for B");
    assert_eq!(a.rounds, scenario_a(4105).total_rounds());
    assert_eq!(b.rounds, scenario_b(4105 ^ 0xb).total_rounds());

    // The sizing the re-admission story rests on: A's in-force rules put
    // its demand floor above the 3-slice pool but inside the 4-slice one.
    assert!(
        a.rules_installed > 300 && a.rules_installed < 400,
        "A's rule demand must straddle the 30 Gb/s survivor pool, got {}",
        a.rules_installed
    );
    assert_eq!(a.rules_withdrawn, 0, "idle withdrawal is disabled");

    // The heal half: the slice rejoins at the seeded recover round,
    // passes K = 2 clean probation audits (rounds 6 and 7), and is
    // promoted at the close of round 7 — MTTR 3 rounds from quarantine.
    assert_eq!(a.recovered_slices, vec![DEAD], "A saw the promotion");
    assert_eq!(b.recovered_slices, vec![DEAD], "B saw the promotion");
    assert_eq!(a.rejoin_rounds, Some(3), "MTTR: crash at 4, promoted at 7");
    assert_eq!(b.rejoin_rounds, Some(3));
    assert_eq!(a.probation_rounds, 2, "exactly the probation window");
    assert_eq!(b.probation_rounds, 2);

    // Admission follows the pool: A was bumped when the pool shrank to 3
    // slices, and re-admitted when the rejoin restored the 4th.
    assert_eq!(report.readmitted, vec![1], "A is re-admitted on promotion");
    assert!(
        report.failover_rejected.is_empty(),
        "nothing stays rejected after the heal: {:?}",
        report.failover_rejected
    );

    // B failed open through the outage and the probation window: the
    // flash crowd sees zero collateral end to end.
    assert_eq!(b.total_goodput(), 1.0, "zero collateral for B");

    let rendered = a.to_string();
    assert!(rendered.contains("slices [2] rejoined"), "{rendered}");
    assert!(rendered.contains("MTTR 3 round(s)"), "{rendered}");

    // One recovery is one probation and one promotion on the record,
    // however many tenants audited the slice.
    let slice = run.hub.slice(DEAD).expect("slice telemetry");
    assert_eq!((slice.quarantines(), slice.probations()), (1, 1));
    assert_eq!((slice.promotions(), slice.demotions()), (1, 0));
    assert_eq!(run.events(EventKind::Quarantine), 1);
    assert_eq!(run.events(EventKind::Probation), 1);
    assert_eq!(run.events(EventKind::Promote), 1);
    assert_eq!(run.events(EventKind::Demote), 0);
}

/// The adversarial rejoin: the slice comes back attested but with wiped
/// rule state (resync sabotaged). Its shadow copies forward attack
/// traffic the victim never received, so A's probation audit flags the
/// desync — the slice is demoted back to quarantine (never trusted, so
/// no dirty round and no leakage), and exponential backoff spaces the
/// retries until the attempt budget outlives the run.
#[test]
fn stale_rejoin_fails_probation_and_is_requarantined_with_backoff() {
    let run = run_heal_campaign(4105, true);
    let report = &run.report;

    let a = report.report(1).expect("contract 1 report");
    let b = report.report(2).expect("contract 2 report");

    // Probation caught every attempt: the slice never rejoined.
    assert!(a.recovered_slices.is_empty(), "stale slice never promoted");
    assert!(b.recovered_slices.is_empty());
    assert_eq!(a.rejoin_rounds, None, "no MTTR without a rejoin");
    assert_eq!(b.rejoin_rounds, None);

    // Backoff arithmetic: attempt 1 at the recover round (6) is demoted
    // on its first shadow audit; attempt 2 waits out the 2-round backoff
    // (round 9) and is demoted again; the doubled 4-round backoff pushes
    // attempt 3 to round 14 — past the end of the run. Each failed
    // attempt burned at least one probation round for A.
    assert!(
        a.probation_rounds >= 2,
        "two rejoin attempts each spent a probation round, got {}",
        a.probation_rounds
    );

    // A probation failure is *containment*, not a contract violation: the
    // shadow verdicts never counted, so no tenant takes a strike and no
    // attack traffic leaked through the stale slice.
    assert_eq!(a.dirty_rounds, 0, "shadow audits never strike");
    assert_eq!(b.dirty_rounds, 0);
    assert_eq!(a.quarantined_slices, vec![DEAD], "still just the one slice");

    // Without a promotion there is no re-admission: A stays bumped.
    assert!(report.readmitted.is_empty());
    assert_eq!(report.failover_rejected.len(), 1);
    assert_eq!(report.failover_rejected[0].contract, 1);

    // Two failed attempts are two probations and two demotions on the
    // record — per slice, not per auditing tenant.
    let slice = run.hub.slice(DEAD).expect("slice telemetry");
    assert_eq!((slice.probations(), slice.demotions()), (2, 2));
    assert_eq!(slice.promotions(), 0);
    assert_eq!(run.events(EventKind::Probation), 2);
    assert_eq!(run.events(EventKind::Demote), 2);
    assert_eq!(run.events(EventKind::Promote), 0);
}

/// Heal runs reproduce byte-for-byte from the seed: same crash, same
/// rejoin, same probation outcome, same admission flips, same rendering.
#[test]
fn heal_campaign_is_deterministic() {
    let a = &happy_run().report;
    let second = run_heal_campaign(4105, false);
    let b = &second.report;
    assert_eq!(
        happy_run().hub.trace_bytes(),
        second.hub.trace_bytes(),
        "byte-for-byte flight-recorder trace"
    );
    assert_eq!(a.reports, b.reports);
    assert_eq!(a.readmitted, b.readmitted);
    assert_eq!(
        format!("{:?}", a.failover_rejected),
        format!("{:?}", b.failover_rejected)
    );
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.to_string(), rb.to_string(), "byte-for-byte display");
    }
}

/// A single-victim run (the lone contract 0) goes through the same
/// lifecycle: seeded crash, seeded recover, probation, promotion — and
/// reports it.
#[test]
fn single_victim_crash_then_recover_heals() {
    let scenario = |seed: u64| Scenario {
        name: "victim-solo".into(),
        seed,
        victim: Ipv4Prefix::new(u32::from_be_bytes([203, 0, 113, 0]), 24),
        legit: LegitProfile {
            sources: 32,
            gbps: 0.3,
        },
        phases: vec![
            Phase {
                name: "ramp".into(),
                kind: PhaseKind::Ramp {
                    from_gbps: 0.2,
                    to_gbps: 1.0,
                },
                rounds: 4,
                attack_gbps: 1.0,
                attack_sources: 24,
                zipf_exponent: 1.1,
            },
            Phase {
                name: "sustain".into(),
                kind: PhaseKind::Ramp {
                    from_gbps: 1.0,
                    to_gbps: 1.0,
                },
                rounds: 8,
                attack_gbps: 1.0,
                attack_sources: 24,
                zipf_exponent: 1.1,
            },
        ],
        round_ms: 1,
        packet_size: 128,
    };
    let run = |seed: u64| {
        CampaignHarness::single(
            scenario(seed),
            ScenarioHarnessConfig {
                workers: 4,
                ..Default::default()
            },
        )
        .with_faults(
            FaultPlan::new()
                .at(CRASH_ROUND, FaultKind::WorkerCrash { worker: DEAD })
                .at(RECOVER_ROUND, FaultKind::WorkerRecover { worker: DEAD }),
        )
        .run(vec![Box::new(ThresholdPolicy::default())])
        .reports
        .remove(0)
    };

    let report = run(7215);
    assert_eq!(report.quarantined_slices, vec![DEAD]);
    assert_eq!(report.recovery_rounds, Some(1));
    assert_eq!(report.recovered_slices, vec![DEAD]);
    assert_eq!(report.rejoin_rounds, Some(3));
    assert_eq!(report.probation_rounds, 2);
    assert_eq!(report.dirty_rounds, 0, "the lifecycle never strikes");
    assert_eq!(report.rounds, scenario(7215).total_rounds());

    let again = run(7215);
    assert_eq!(report, again, "single-victim heal is seed-deterministic");
}

/// What [`Forewarned`] saw in one round: whether its driver sat the
/// watched slice out, and every installed rule's idle count.
struct Seen {
    round: u64,
    slice_audited: bool,
    idle: Vec<u32>,
}

/// A victim that knows its attackers in advance: installs a drop per
/// source in round 0, then only records what each round shows it.
struct Forewarned {
    sources: Vec<u32>,
    slice: usize,
    seen: Arc<Mutex<Vec<Seen>>>,
}

impl VictimPolicy for Forewarned {
    fn react(&mut self, obs: &PolicyObservation<'_>, actions: &mut Vec<PolicyAction>) {
        let verdict = &obs.outcome.slices[self.slice];
        self.seen.lock().unwrap().push(Seen {
            round: obs.round,
            slice_audited: !verdict.quarantined && !verdict.probation,
            idle: obs.installed.iter().map(|r| r.rounds_idle).collect(),
        });
        for src in self.sources.drain(..) {
            actions.push(PolicyAction::Install(FilterRule::drop(
                FlowPattern::prefixes(Ipv4Prefix::host(src), obs.victim),
            )));
        }
    }
}

/// Regression: a tenant that aborted before a crash sits out the slice's
/// rejoin, so its driver names the slice quarantined forever. That stale
/// flag must not read as a fresh export-failure quarantine once the
/// survivors have promoted the slice — it used to re-quarantine the slice
/// in the surviving tenant's driver (no more audits of a live slice) and
/// in the cluster (no churn, no rule telemetry) every round to the end.
#[test]
fn aborted_tenants_stale_quarantine_does_not_requarantine_a_promoted_slice() {
    const WORKERS: usize = 4;
    /// Robbed from round 1, crashed at `CRASH_ROUND`, promoted at 7.
    const SLICE: usize = 1;
    /// First round after the promotion; B's attack wave starts here.
    const HEALED: u64 = 8;
    let victim_b = Ipv4Prefix::new(u32::from_be_bytes([198, 18, 0, 0]), 16);
    // A keeps legitimate flows on every worker, so the thief on `SLICE`
    // dirties rounds 1 and 2 and A aborts on its second strike.
    let scenario_a = Scenario::smoke(4105);
    // B's one legitimate flow stays off `SLICE`, and its attackers are
    // dropped by rules in force since round 0: the thief never gets a
    // packet of B's, so B lives to see the slice heal.
    let scenario_b = Scenario {
        name: "victim-b".into(),
        seed: 4105 ^ 0xb,
        victim: victim_b,
        legit: LegitProfile {
            sources: 1,
            gbps: 0.05,
        },
        phases: vec![
            Phase {
                name: "calm".into(),
                kind: PhaseKind::Ramp {
                    from_gbps: 0.0,
                    to_gbps: 0.0,
                },
                rounds: HEALED as u32,
                attack_gbps: 0.0,
                attack_sources: 0,
                zipf_exponent: 0.0,
            },
            Phase {
                name: "wave".into(),
                kind: PhaseKind::Ramp {
                    from_gbps: 1.0,
                    to_gbps: 1.0,
                },
                rounds: ROUNDS - HEALED as u32,
                attack_gbps: 1.0,
                attack_sources: 16,
                zipf_exponent: 0.0,
            },
        ],
        round_ms: 1,
        packet_size: 128,
    };
    let compiled_b = scenario_b.compile();
    let on_slice = |p: &vif_dataplane::Packet| shard_of(&p.tuple, WORKERS) == SLICE;
    assert!(
        !compiled_b[0].packets.iter().any(on_slice),
        "B's legitimate flow must stay off the robbed slice"
    );
    assert!(
        compiled_b[HEALED as usize + 2..]
            .iter()
            .any(|r| r.packets.iter().any(on_slice)),
        "B's attackers never land on the healed slice"
    );
    assert!(
        scenario_a.compile()[1].packets.iter().any(on_slice),
        "A has nothing on the robbed slice to lose"
    );

    let seen = Arc::new(Mutex::new(Vec::new()));
    let report = CampaignHarness::new(
        vec![
            CampaignContract {
                contract: 1,
                scenario: scenario_a,
                demand_gbps_per_rule: Vec::new(),
            },
            CampaignContract {
                contract: 2,
                scenario: scenario_b,
                demand_gbps_per_rule: Vec::new(),
            },
        ],
        CampaignConfig {
            harness: ScenarioHarnessConfig {
                workers: WORKERS,
                max_strikes: 2,
                adversary: Some(ScenarioAdversary {
                    from_round: 1,
                    drop_after_worker: SLICE,
                }),
                ..Default::default()
            },
            ..Default::default()
        },
    )
    .with_faults(
        FaultPlan::new()
            .at(CRASH_ROUND, FaultKind::WorkerCrash { worker: SLICE })
            .at(RECOVER_ROUND, FaultKind::WorkerRecover { worker: SLICE }),
    )
    .run(vec![
        Box::new(ThresholdPolicy::default()),
        Box::new(Forewarned {
            sources: compiled_b[HEALED as usize]
                .attack_sources
                .iter()
                .copied()
                .collect(),
            slice: SLICE,
            seen: Arc::clone(&seen),
        }),
    ]);

    let a = report.report(1).expect("contract 1 report");
    assert_eq!(a.final_state, ContractState::Aborted { strikes: 2 });
    assert_eq!(a.rounds, 3, "A aborted two rounds before the crash");

    let b = report.report(2).expect("contract 2 report");
    assert_eq!(b.final_state, ContractState::Active);
    assert_eq!(b.rounds, ROUNDS as u64);
    assert_eq!(b.dirty_rounds, 0);
    assert_eq!(b.quarantined_slices, vec![SLICE]);
    assert_eq!(b.recovered_slices, vec![SLICE], "promoted by B alone");
    assert_eq!(b.rules_installed, 16);

    let seen = seen.lock().unwrap();
    for s in seen.iter().filter(|s| s.round >= HEALED) {
        // B's driver: the healed slice is audited as a trusted slice in
        // every round to the end of the run.
        assert!(
            s.slice_audited,
            "round {}: B's driver sat the healed slice out",
            s.round
        );
        // The cluster: every rule bites somewhere each round; reading one
        // idle means the slice its flow landed on was skipped.
        assert!(
            s.idle.iter().all(|&idle| idle == 0),
            "round {}: the cluster skipped the healed slice's rule telemetry: {:?}",
            s.round,
            s.idle
        );
    }
    assert_eq!(seen.len(), ROUNDS as usize);
}
