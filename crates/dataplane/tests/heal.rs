//! Recovery-lifecycle properties of the always-on service: a worker that
//! crashes, rejoins through probation, and is restored must hand every
//! flow back to its original RSS shard *byte-identically*, and the
//! service's conservation law (`received = forwarded + filtered +
//! overflow + uncovered`) must hold through every lifecycle state —
//! including a flapping worker that re-crashes mid-probation.

use std::sync::Mutex;
use vif_dataplane::lifecycle::PROBATION_ROUNDS;
use vif_dataplane::{
    shard_of, DataplaneService, FiveTuple, FlowSet, Packet, PacketCounts, ServiceConfig,
    ServiceHandle, SliceEvent, SliceLifecycle, SliceState, TrafficConfig, TrafficGenerator,
};
use vif_dataplane::{StageOutcome, StageVerdict};

/// Serves probation slice `w`'s window out with one clean-voting tenant —
/// what the audit layer does over the next `PROBATION_ROUNDS` rounds. The
/// promotion is a table transition only: nothing is asked of the service.
fn promote(lifecycle: &SliceLifecycle, w: usize) {
    for _ in 0..PROBATION_ROUNDS {
        lifecycle.advance(w, SliceEvent::ProbationClean).unwrap();
        lifecycle.settle_round(1);
    }
    assert_eq!(lifecycle.state(w), SliceState::Live);
}

fn traffic(count: usize, seed: u64) -> Vec<Packet> {
    let flows = FlowSet::random_toward_victim(64, 7, seed);
    TrafficGenerator::new(seed).generate(
        &flows,
        TrafficConfig {
            packet_size: 64,
            offered_gbps: 5.0,
            count,
        },
    )
}

fn forward_all() -> impl FnMut(&Packet) -> StageOutcome + Send {
    |_p: &Packet| StageOutcome {
        verdict: StageVerdict::Forward,
        hashed: false,
    }
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

/// Quarantine-then-rejoin restores the original `shard_of` steering
/// exactly: after the promotion, every delivery comes from the worker
/// the public RSS hash names — the same (worker, tuple) set as before the
/// crash — at worker counts 2, 4, and 8.
#[test]
fn rejoin_restores_original_steering_exactly() {
    for &n in &[2usize, 4, 8] {
        let dead = n - 1;
        let stages: Vec<_> = (0..n).map(|_| forward_all()).collect();
        let seen: Mutex<Vec<(usize, FiveTuple)>> = Mutex::new(Vec::new());
        let t = traffic(1_500, 0xa11c ^ n as u64);
        DataplaneService::new(ServiceConfig::default()).run(
            stages,
            |w, p| seen.lock().unwrap().push((w, p.tuple)),
            |t| shard_of(t, n),
            |svc| {
                let drain = |seen: &Mutex<Vec<(usize, FiveTuple)>>| {
                    let mut v: Vec<(usize, FiveTuple)> = seen.lock().unwrap().drain(..).collect();
                    v.sort_unstable_by_key(|&(w, tu)| (w, tu.encode()));
                    v
                };

                // Baseline: healthy steering is the public hash.
                svc.round(&t);
                let baseline = drain(&seen);
                assert_eq!(baseline.len(), t.len(), "{n} workers: lossless baseline");
                for &(w, tuple) in &baseline {
                    assert_eq!(w, shard_of(&tuple, n), "{n} workers: RSS steering");
                }

                // Crash + barrier quarantine, then one degraded round: the
                // dead worker's flows re-steer onto the survivors.
                svc.inject_crash(dead);
                svc.round(&t); // crash round: residue goes uncovered
                seen.lock().unwrap().clear();
                svc.round(&t);
                let degraded = drain(&seen);
                assert!(
                    degraded.iter().all(|&(w, _)| w != dead),
                    "{n} workers: no deliveries from the quarantined slot"
                );

                // Probation: the respawned worker carries only shadow
                // traffic — live steering is unchanged, the sink never
                // hears from it.
                svc.respawn_worker(dead, forward_all());
                svc.round(&t);
                let probation = drain(&seen);
                assert_eq!(
                    probation, degraded,
                    "{n} workers: probation leaves live steering untouched"
                );

                // Verifier-side attribution is the service's steering: the
                // table's failover hash names the worker that delivered.
                for &(w, tuple) in &degraded {
                    let home = shard_of(&tuple, n);
                    assert_eq!(svc.lifecycle().steer(tuple.tuple_fingerprint(), home), w);
                }

                // Promote: shard assignment is byte-identical to pre-crash.
                promote(svc.lifecycle(), dead);
                svc.round(&t);
                let healed = drain(&seen);
                assert_eq!(
                    healed, baseline,
                    "{n} workers: post-rejoin steering equals pre-crash steering"
                );
            },
        );
    }
}

/// `received = forwarded + filtered + overflow + uncovered` holds every
/// round of the full lifecycle — healthy, crash, quarantined, probation,
/// a flap (re-crash mid-probation), a second probation, and restored —
/// and the healed service covers everything again.
#[test]
fn conservation_holds_through_crash_probation_flap_and_restore() {
    let n = 4;
    let dead = 2;
    let stages: Vec<_> = (0..n).map(|_| parity_stage()).collect();
    let t = traffic(2_000, 0x5ea1);
    DataplaneService::new(ServiceConfig::default()).run(
        stages,
        |_, _| {},
        |t| shard_of(t, n),
        |svc| {
            fn check<R: FnMut(&FiveTuple) -> usize>(
                svc: &mut ServiceHandle<'_, '_, R>,
                t: &[Packet],
                label: &str,
            ) -> PacketCounts {
                let r = svc.round(t).total();
                assert_eq!(
                    r.forwarded + r.filtered + r.overflow + r.uncovered,
                    r.received,
                    "conservation violated: {label}"
                );
                r
            }

            let healthy = check(svc, &t, "healthy");
            assert_eq!(healthy.uncovered, 0);

            svc.inject_crash(dead);
            let crash = check(svc, &t, "crash round");
            assert!(crash.uncovered > 0, "crash residue is accounted");

            check(svc, &t, "quarantined");

            svc.respawn_worker(dead, parity_stage());
            assert_eq!(svc.lifecycle().state(dead), SliceState::Probation);
            check(svc, &t, "probation");

            // The flap: re-crash mid-probation. The worker is demoted on
            // the spot; only shadow traffic (never counted) is lost.
            svc.inject_crash(dead);
            assert_eq!(svc.lifecycle().state(dead), SliceState::Quarantined);
            assert_eq!(svc.lifecycle().rejoin_attempts(dead), 1, "a failed attempt");
            let flap = check(svc, &t, "after flap");
            assert_eq!(flap.uncovered, 0, "a flap loses only shadow traffic");
            // Steering never changed in between: the slot carries nothing.
            assert_ne!(svc.retarget_fingerprint(0, dead), dead);
            assert_eq!(svc.lifecycle().slices_where(SliceState::steered), [0, 1, 3]);

            svc.respawn_worker(dead, parity_stage());
            check(svc, &t, "second probation");

            promote(svc.lifecycle(), dead);
            let share = t.iter().filter(|p| shard_of(&p.tuple, n) == dead).count() as u64;
            assert_eq!(svc.round(&t).per_worker[dead].received, share);
            let healed = check(svc, &t, "restored");
            assert_eq!(healed.uncovered, 0, "full coverage after rejoin");
            assert_eq!(healed.received, t.len() as u64);
        },
    );
}
