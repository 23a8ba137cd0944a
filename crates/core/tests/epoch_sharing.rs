//! The sharing contract of a published rule epoch.
//!
//! One immutable set of rule tables per epoch, held by reference by every
//! live slice and the cluster; counters private to each holder; an old
//! epoch frozen for whoever still holds it.

use std::sync::Arc;
use vif_core::prelude::*;
use vif_core::ruleset::{RuleCounters, RuleTables};
use vif_sgx::{AttestationRootKey, EnclaveImage, EpcConfig, SgxPlatform};

fn victim() -> Ipv4Prefix {
    "203.0.113.0/24".parse().unwrap()
}

/// Drop everything from `10.<i>.0.0/16` to the victim.
fn rule(i: u32) -> FilterRule {
    FilterRule::drop(FlowPattern::prefixes(
        Ipv4Prefix::new(0x0a00_0000 + (i << 16), 16),
        victim(),
    ))
}

/// A packet rule `i` matches.
fn hit(i: u32) -> FiveTuple {
    FiveTuple::new(
        0x0a00_0000 + (i << 16) + 7,
        u32::from_be_bytes([203, 0, 113, 1]),
        1000,
        80,
        Protocol::Udp,
    )
}

fn cluster(rules: u32, slices: usize) -> EnclaveCluster {
    let root = AttestationRootKey::new([3u8; 32]);
    let platform = SgxPlatform::new(2, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif", 1, vec![0; 64]);
    EnclaveCluster::launch_rss(
        platform,
        image,
        RuleSet::from_rules((0..rules).map(rule)),
        slices,
        [7u8; 32],
        99,
        [8u8; 32],
    )
}

fn slice_tables(c: &EnclaveCluster, i: usize) -> Arc<RuleTables> {
    c.enclaves()[i].ecall(|app| Arc::clone(app.ruleset().tables()))
}

#[test]
fn every_live_slice_and_the_cluster_share_one_set_of_tables() {
    let mut c = cluster(4, 3);
    c.enclaves()[0].ecall(|app| app.queue_edits([RuleEdit::Install(rule(9))]));
    c.publish_contract(0, 0);
    let first_epoch = Arc::clone(c.ruleset().tables());
    for i in 0..3 {
        assert!(
            Arc::ptr_eq(&slice_tables(&c, i), &first_epoch),
            "slice {i} holds a copy"
        );
    }

    // A quarantined slice is not installed: it keeps the epoch it had.
    c.quarantine_slice(2);
    c.enclaves()[0].ecall(|app| app.queue_edits([RuleEdit::Withdraw(0)]));
    c.publish_contract(0, 0);
    let second_epoch = Arc::clone(c.ruleset().tables());
    assert!(!Arc::ptr_eq(&first_epoch, &second_epoch));
    for i in 0..2 {
        assert!(Arc::ptr_eq(&slice_tables(&c, i), &second_epoch));
    }
    assert!(Arc::ptr_eq(&slice_tables(&c, 2), &first_epoch));

    // Rejoin and re-replication (an empty publication) install by
    // reference too.
    c.rejoin_slice(0, 2);
    assert!(Arc::ptr_eq(&slice_tables(&c, 2), &second_epoch));
    c.publish_contract(0, 0);
    for i in 0..3 {
        assert!(Arc::ptr_eq(&slice_tables(&c, i), c.ruleset().tables()));
    }
    // Nobody holds the first epoch any more but this test.
    assert_eq!(Arc::strong_count(&first_epoch), 1);
}

#[test]
fn counters_belong_to_the_holder() {
    let c = cluster(3, 2);
    for _ in 0..5 {
        c.enclaves()[0].in_enclave_thread(|app| app.process(&hit(1), 100));
    }
    c.enclaves()[1].in_enclave_thread(|app| app.process(&hit(2), 40));

    let counters = |i: usize| c.enclaves()[i].ecall(|app| app.ruleset().counters().to_vec());
    assert_eq!(counters(0)[1].bytes, 500);
    assert_eq!(counters(0)[2].bytes, 0, "slice 1's hit leaked into slice 0");
    assert_eq!(
        counters(1)[1].bytes,
        0,
        "slice 0's hits leaked into slice 1"
    );
    assert_eq!(counters(1)[2].bytes, 40);

    // Neither the cluster's handle nor a publisher's snapshot sees them.
    assert!(c.ruleset().counters().iter().all(|k| k.packets == 0));
    let snapshot = c.enclaves()[0]
        .ecall(|app| app.take_publish_snapshot_for(0))
        .expect("default contract");
    let publisher = RuleSet::from_tables(snapshot.tables);
    assert_eq!(publisher.counters().len(), 3);
    assert!(publisher.counters().iter().all(|k| k.packets == 0));

    // The cluster-wide views still add the holders up.
    let by_rule: Vec<(RuleId, u64)> = c.contract_rule_bytes(0).into_iter().collect();
    assert_eq!(by_rule, [(0, 0), (1, 500), (2, 40)]);
}

#[test]
fn a_reader_of_the_old_tables_sees_a_frozen_epoch() {
    let mut c = cluster(2, 2);
    let reader = RuleSet::from_tables(Arc::clone(c.ruleset().tables()));
    c.enclaves()[1].in_enclave_thread(|app| app.process(&hit(1), 100));
    c.enclaves()[0].ecall(|app| {
        app.queue_edits([RuleEdit::Withdraw(0), RuleEdit::Install(rule(5))]);
    });
    let report = c.publish_contract(0, 0);
    assert_eq!((report.withdrawals, report.installs), (1, 1));
    // Rule telemetry restarts with the epoch, on every slice.
    let by_rule: Vec<(RuleId, u64)> = c.contract_rule_bytes(0).into_iter().collect();
    assert_eq!(by_rule, [(1, 0), (2, 0)]);

    // The cluster moved on...
    assert_eq!(c.ruleset().classify(&hit(0)), None);
    assert_eq!(c.ruleset().classify(&hit(5)), Some(2));
    assert!(c.ruleset().is_removed(0));
    // ...the reader did not.
    assert_eq!(reader.classify(&hit(0)), Some(0));
    assert_eq!(reader.classify(&hit(5)), None);
    assert_eq!(reader.classify_reference(&hit(0)), Some(0));
    assert_eq!((reader.len(), reader.active_len()), (2, 2));
    assert!(!reader.is_removed(0));
}

#[test]
fn a_directly_installed_rule_set_restarts_its_telemetry() {
    let rules = RuleSet::from_rules((0..2).map(rule));
    let mut app = FilterEnclaveApp::new(rules.clone(), [7u8; 32], 3, [2u8; 32]);
    let mut seen_traffic = rules;
    seen_traffic.record_hit(1, 1500);
    let displaced = app.install_published_for(0, seen_traffic, &[]);
    assert_eq!(app.ruleset().counters(), [RuleCounters::default(); 2]);
    assert_eq!(app.epoch_of(0), 1);
    assert!(Arc::ptr_eq(displaced.tables(), app.ruleset().tables()));
}

#[test]
fn the_snapshot_drops_withdrawals_the_contract_does_not_own() {
    let mut app = FilterEnclaveApp::new(
        RuleSet::from_rules((0..2).map(rule)),
        [7u8; 32],
        3,
        [2u8; 32],
    );
    app.resync_contract(0, None, 0, &[1]); // rule 0 is now somebody else's
    let queued = [
        RuleEdit::Withdraw(0), // not the contract's: dropped
        RuleEdit::Withdraw(2), // not installed yet: dropped
        RuleEdit::Install(rule(5)),
        RuleEdit::Withdraw(2), // installed one edit earlier: kept
        RuleEdit::Withdraw(3), // past this queue's installs: dropped
        RuleEdit::Withdraw(1), // the contract's own: kept
    ];
    app.queue_edits(queued);
    let snapshot = app.take_publish_snapshot_for(0).expect("default contract");
    assert_eq!(snapshot.edits, [queued[2], queued[3], queued[5]]);
    assert_eq!(app.pending_edits(), 0);
}
