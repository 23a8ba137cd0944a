//! Property tests for tenant rule-id discipline under churn.
//!
//! Two invariants the multi-tenant control plane leans on:
//!
//! 1. **Tombstone id-stability**: withdrawing a rule tombstones its slot;
//!    the id is *never* reassigned by a later publish epoch, of any
//!    contract. A victim's references to its own rule ids (telemetry,
//!    withdrawals) stay valid across arbitrary interleaved churn.
//! 2. **No cross-contract aliasing**: a rule id belongs to at most one
//!    contract, ever — exactly the one it was assigned to while in force,
//!    nobody once withdrawn. Ownership sets stay pairwise disjoint across
//!    arbitrary publish interleavings.

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use vif_core::enclave_app::{ContractId, FilterEnclaveApp};
use vif_core::rpki::RpkiRegistry;
use vif_core::rules::{FilterRule, FlowPattern};
use vif_core::ruleset::{RuleId, RuleSet};
use vif_core::scale::EnclaveCluster;
use vif_core::session::{FilteringSession, SessionConfig, VictimClient};
use vif_sgx::{AttestationRootKey, AttestationService, EnclaveImage, EpcConfig, SgxPlatform};
use vif_trie::Ipv4Prefix;

const CONTRACTS: [ContractId; 3] = [1, 2, 3];

/// One scripted churn step against one contract.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Queue `count` installs, then publish the contract's epoch.
    Install { contract_idx: u8, count: u8 },
    /// Withdraw the owned rule picked by `pick` (mod the live set), then
    /// publish. No-op if the contract owns nothing yet.
    Withdraw { contract_idx: u8, pick: u8 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    (any::<bool>(), 0u8..3, any::<u8>()).prop_map(|(install, contract_idx, arg)| {
        if install {
            Op::Install {
                contract_idx,
                count: 1 + arg % 3,
            }
        } else {
            Op::Withdraw {
                contract_idx,
                pick: arg,
            }
        }
    })
}

fn victim_prefix(contract: ContractId) -> Ipv4Prefix {
    Ipv4Prefix::new(u32::from_be_bytes([203, contract as u8, 0, 0]), 16)
}

/// A fresh cluster with one attested session per contract.
fn build_world(
    seed: u64,
) -> (
    EnclaveCluster,
    Vec<(ContractId, FilteringSession, RpkiRegistry)>,
) {
    let secret = [seed as u8; 32];
    let root = AttestationRootKey::new([2u8; 32]);
    let platform = SgxPlatform::new(seed, EpcConfig::paper_default(), &root);
    let image = EnclaveImage::new("vif-prop", 1, vec![0x90; 1 << 16]);
    let master = Arc::new(platform.launch(image.clone(), FilterEnclaveApp::fresh(secret)));
    let ias = AttestationService::new(root);
    let cluster = EnclaveCluster::launch_rss_with(
        platform,
        image.clone(),
        Arc::clone(&master),
        RuleSet::new(),
        2,
        secret,
        seed ^ 0xf00d,
        [3u8; 32],
    );
    let mut sessions = Vec::new();
    for &contract in &CONTRACTS {
        let owner = [0x40 + contract as u8; 32];
        let client = VictimClient::new(
            owner,
            &[0x60 + contract as u8; 32],
            ias.verifier(),
            SessionConfig {
                expected_measurement: image.measurement(),
                tolerance: 0,
            },
        );
        let mut rpki = RpkiRegistry::new();
        rpki.register(victim_prefix(contract), owner);
        let session = client
            .establish_contract(
                Arc::clone(&master),
                &ias,
                [0x80 + contract as u8; 32],
                contract,
            )
            .expect("handshake");
        let keys = session.keys().clone();
        cluster.provision_contract(
            contract,
            Some(victim_prefix(contract)),
            keys.sketch_seed,
            keys.audit_key,
        );
        sessions.push((contract, session, rpki));
    }
    (cluster, sessions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Across arbitrary interleaved per-contract install/withdraw/publish
    /// sequences: ids are assigned exactly once (tombstoned slots are
    /// never reused), every contract's references stay valid, ownership
    /// sets never alias, and the table never compacts under a tenant.
    #[test]
    fn rule_ids_stay_stable_and_never_alias_across_contracts(
        seed in 0u64..1000,
        ops in vec(arb_op(), 1..20),
    ) {
        let (mut cluster, mut sessions) = build_world(seed);

        // Model state: ids ever assigned (globally and per contract) and
        // the per-contract live (not-withdrawn) subset.
        let mut seen_ids: BTreeSet<RuleId> = BTreeSet::new();
        let mut assigned: Vec<Vec<RuleId>> = vec![Vec::new(); CONTRACTS.len()];
        let mut alive: Vec<Vec<RuleId>> = vec![Vec::new(); CONTRACTS.len()];
        let mut prev_table_len = 0usize;
        let mut src_salt = 0u32;

        for op in ops {
            let idx = match op {
                Op::Install { contract_idx, .. } | Op::Withdraw { contract_idx, .. } => {
                    contract_idx as usize
                }
            };
            let (contract, session, rpki) = &mut sessions[idx];
            match op {
                Op::Install { count, .. } => {
                    let rules: Vec<FilterRule> = (0..count)
                        .map(|k| {
                            src_salt += 1;
                            FilterRule::drop(FlowPattern::prefixes(
                                Ipv4Prefix::host(0x0a00_0000 + src_salt * 251 + k as u32),
                                victim_prefix(*contract),
                            ))
                        })
                        .collect();
                    session.submit_rules_deferred(&rules, rpki).expect("install");
                    let report = cluster.publish_contract(0, *contract);
                    prop_assert_eq!(report.new_rule_ids.len(), rules.len());
                    for &id in &report.new_rule_ids {
                        // Freshness: never assigned before, to anyone —
                        // including ids tombstoned in earlier epochs.
                        prop_assert!(seen_ids.insert(id), "id {} reused", id);
                        assigned[idx].push(id);
                        alive[idx].push(id);
                    }
                }
                Op::Withdraw { pick, .. } => {
                    if alive[idx].is_empty() {
                        continue;
                    }
                    let slot = pick as usize % alive[idx].len();
                    let id = alive[idx].remove(slot);
                    session.withdraw_rules_deferred(&[id]).expect("withdraw");
                    let report = cluster.publish_contract(0, *contract);
                    prop_assert!(report.new_rule_ids.is_empty());
                }
            }
            // Tombstones, never compaction: the table only grows, so
            // surviving ids keep addressing the same slots.
            let table_len = cluster.enclaves()[0].ecall(|app| app.ruleset().len());
            prop_assert!(table_len >= prev_table_len, "table compacted");
            prev_table_len = table_len;
        }

        // Endgame: per-contract ownership is exactly what the contract was
        // assigned and has not withdrawn (a published withdrawal releases
        // the id — to nobody: the freshness check above means it is never
        // handed out again), and no id is owned by two contracts.
        let mut owned_sets: Vec<BTreeSet<RuleId>> = Vec::new();
        for (i, &contract) in CONTRACTS.iter().enumerate() {
            let owned = cluster.enclaves()[0].ecall(move |app| app.owned_rules(contract));
            prop_assert!(owned.windows(2).all(|w| w[0] < w[1]), "owned ids not ascending");
            let owned: BTreeSet<RuleId> = owned.into_iter().collect();
            let in_force: BTreeSet<RuleId> = alive[i].iter().copied().collect();
            prop_assert_eq!(&owned, &in_force, "contract {} ownership drifted", contract);
            prop_assert!(owned.iter().all(|id| assigned[i].contains(id)));
            owned_sets.push(owned);
        }
        for i in 0..owned_sets.len() {
            for j in i + 1..owned_sets.len() {
                prop_assert!(
                    owned_sets[i].is_disjoint(&owned_sets[j]),
                    "contracts {} and {} share ids: {:?}",
                    CONTRACTS[i],
                    CONTRACTS[j],
                    owned_sets[i].intersection(&owned_sets[j]).collect::<Vec<_>>()
                );
            }
        }
    }
}
