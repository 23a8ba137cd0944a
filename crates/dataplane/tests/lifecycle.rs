//! The lifecycle table: the legal-edge relation as an exhaustive table,
//! the predicate table, the failover hash, the multi-tenant probation
//! window and the rejoin backoff. (Random event sequences × voting tenants
//! are in `properties.rs`.)

use vif_dataplane::lifecycle::{PROBATION_ROUNDS, REJOIN_RETRIES};
use vif_dataplane::SliceState::*;
use vif_dataplane::{shard_of_fingerprint, SliceEvent as E, SliceLifecycle, SliceState};

/// The README diagram as an executable table: every `(state, event)` pair
/// either yields the documented next state or is an `IllegalTransition`
/// that changes nothing.
#[test]
fn every_state_event_pair_is_documented() {
    #[rustfmt::skip]
    let events = [E::Crash, E::Reaped, E::AckLost, E::Excise, E::Resync, E::Unauditable, E::ProbationDirty, E::ProbationClean, E::Promote];
    let (l, m, c, q, p) = (
        Some(Live),
        Some(Mute),
        Some(Crashed),
        Some(Quarantined),
        Some(Probation),
    );
    let (u, x) = (Some(Unauditable), None);
    #[rustfmt::skip]
    let table = [
        // Crash Reaped AckLost Excise Resync Unaud. Dirty Clean Promote
        [c,      q,     m,      q,     x,     u,     x,    x,    x], // Live
        [c,      q,     x,      q,     x,     u,     x,    x,    x], // Mute
        [c,      q,     x,      q,     x,     u,     x,    x,    x], // Unauditable
        [c,      q,     x,      q,     x,     x,     x,    x,    x], // Crashed
        [q,      x,     x,      q,     p,     q,     q,    x,    x], // Quarantined
        [q,      q,     q,      q,     p,     q,     q,    p,    l], // Probation
    ];
    // How to reach each state from a fresh (all-`Live`) table.
    let paths: [&[E]; 6] = [
        &[],
        &[E::AckLost],
        &[E::Unauditable],
        &[E::Crash],
        &[E::Excise],
        &[E::Excise, E::Resync],
    ];
    for ((state, row), path) in SliceState::ALL.iter().zip(table).zip(paths) {
        for (event, want) in events.iter().zip(row) {
            assert_eq!(state.on(*event), want, "{state:?} on {event:?}");
            let lc = SliceLifecycle::new(1);
            for step in path {
                lc.advance(0, *step).unwrap();
            }
            assert_eq!(lc.state(0), *state);
            // `Promote` is additionally gated on a served window.
            let want = want.filter(|_| *event != E::Promote);
            match (lc.advance(0, *event), want) {
                (Ok(t), Some(to)) => assert_eq!((t.from, t.to, lc.state(0)), (*state, to, to)),
                (Err(e), None) => {
                    assert_eq!((e.state, e.event), (*state, *event));
                    assert_eq!(lc.state(0), *state, "a refused event changes nothing");
                }
                (got, _) => panic!("{state:?} on {event:?}: {got:?}"),
            }
        }
    }
}

#[test]
fn predicates_match_the_module_table() {
    let row = |s: SliceState| (s.steered(), s.shadowed(), s.published(), s.audited());
    assert_eq!(row(Live), (true, false, true, true));
    assert_eq!(row(Mute), (true, false, false, true));
    assert_eq!(row(Unauditable), (true, false, false, false));
    assert_eq!(row(Crashed), (true, false, false, false));
    assert_eq!(row(Quarantined), (false, false, false, false));
    assert_eq!(row(Probation), (false, true, true, true));
}

#[test]
fn steer_fails_over_with_the_public_hash_and_stays_total() {
    let lc = SliceLifecycle::new(4);
    for fp in 0..64u64 {
        assert_eq!(lc.steer(fp, 2), 2, "healthy steering is the home shard");
    }
    lc.advance(2, E::Excise).unwrap();
    let pre = lc.snapshot();
    for fp in 0..64u64 {
        assert_eq!(lc.steer(fp, 2), [0, 1, 3][shard_of_fingerprint(fp, 3)]);
        assert_eq!(lc.steer(fp, 1), 1, "other shards stay put");
    }
    // Every slice down is legal, and steering still answers.
    for w in [0, 1, 3] {
        lc.advance(w, E::Excise).unwrap();
    }
    assert!(lc.slices_where(SliceState::steered).is_empty());
    assert_eq!(lc.steer(7, 2), 2);
    // The snapshot still attributes as the round started.
    assert_eq!(pre.steer(7, 2), [0, 1, 3][shard_of_fingerprint(7, 3)]);
}

#[test]
fn promotion_needs_every_auditing_tenant_clean_for_the_whole_window() {
    let lc = SliceLifecycle::new(2);
    lc.advance(1, E::Excise).unwrap();
    lc.settle_round(2);
    lc.advance(1, E::Resync).unwrap();
    assert!(lc.advance(1, E::Promote).is_err(), "window not served");
    // Round 1: only one of two tenants voted — no progress.
    lc.advance(1, E::ProbationClean).unwrap();
    assert!(lc.settle_round(2).is_empty());
    for _ in 0..PROBATION_ROUNDS - 1 {
        lc.advance(1, E::ProbationClean).unwrap();
        lc.advance(1, E::ProbationClean).unwrap();
        assert!(lc.settle_round(2).is_empty());
    }
    lc.advance(1, E::ProbationClean).unwrap();
    lc.advance(1, E::ProbationClean).unwrap();
    let settled = lc.settle_round(2);
    assert_eq!(settled.len(), 1);
    assert_eq!((settled[0].from, settled[0].to), (Probation, Live));
    assert_eq!(lc.recovered_slices(), vec![1]);
    assert_eq!(lc.quarantined_slices(), vec![1]);
    assert_eq!(lc.rejoin_rounds(), Some(settled[0].round));
}

#[test]
fn demotion_charges_an_attempt_and_doubles_the_backoff() {
    let lc = SliceLifecycle::new(2);
    lc.advance(1, E::Excise).unwrap();
    assert!(!lc.take_due_rejoin(1), "nobody asked for a rejoin");
    lc.request_rejoin(1);
    let mut starts = Vec::new();
    for round in 0..40u64 {
        if lc.take_due_rejoin(1) {
            starts.push(round);
            lc.advance(1, E::Resync).unwrap();
            // Dirty for one tenant demotes at once; a second dirty vote in
            // the same round is a no-op.
            assert!(lc.advance(1, E::ProbationDirty).unwrap().changed());
            assert!(!lc.advance(1, E::ProbationDirty).unwrap().changed());
        }
        lc.settle_round(2);
    }
    // Attempts at 0, then after 2 and 4 rounds of backoff; the budget (one
    // try + REJOIN_RETRIES) is then spent for good.
    assert_eq!(starts, vec![0, 3, 8]);
    assert_eq!(lc.rejoin_attempts(1), 1 + REJOIN_RETRIES);
    assert_eq!(lc.rejoin_not_before(1), None);
    lc.request_rejoin(1);
    assert!(!lc.take_due_rejoin(1), "a new order does not refill it");
}
