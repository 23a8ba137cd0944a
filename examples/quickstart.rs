//! Quickstart: the core VIF loop in one file.
//!
//! A victim installs a rule in an (attested) filter; traffic is decided
//! statelessly; the enclave's sketch logs let the victim verify that the
//! filtering network executed the rule faithfully.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use vif::core::logs::LogDirection;
use vif::core::prelude::*;

fn main() {
    // --- the victim's filter rule --------------------------------------
    // "Drop 50% of HTTP flows destined to my /24" (the paper's Fig. 1).
    let victim_prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let rule = FilterRule::drop_fraction(FlowPattern::http_to(victim_prefix), 0.5);
    println!("victim submits: drop 50% of {}", rule.pattern());

    // --- the enclave-side filter ----------------------------------------
    // (ddos_mitigation.rs shows the full attestation handshake; here we
    // construct the enclave application directly.)
    let sketch_seed = 7;
    let audit_key = [42u8; 32];
    let mut app = FilterEnclaveApp::new(
        RuleSet::from_rules([rule]),
        [9u8; 32], // enclave-internal secret for hash-based decisions
        sketch_seed,
        audit_key,
    );

    // --- traffic ---------------------------------------------------------
    // 1,000 HTTP flows toward the victim; the victim watches what arrives.
    let mut victim_verifier = Verifier::new(LogDirection::Outgoing, sketch_seed, audit_key, 0);
    let mut forwarded = 0u32;
    let mut dropped = 0u32;
    for i in 0..1000u32 {
        let flow = FiveTuple::new(
            0x0a000000 + i,
            u32::from_be_bytes([203, 0, 113, 80]),
            (1024 + i % 40000) as u16,
            80,
            Protocol::Tcp,
        );
        // Every packet of a flow gets the same verdict (connection
        // preserving), and the verdict never depends on packet order.
        let verdict = app.process(&flow, 64);
        match verdict.action {
            vif::core::rules::RuleAction::Allow => {
                forwarded += 1;
                victim_verifier.observe(&flow); // packet reaches the victim
            }
            vif::core::rules::RuleAction::Drop => dropped += 1,
        }
    }
    println!("filter: {forwarded} flows forwarded, {dropped} dropped (requested 50%)");

    // --- verification ----------------------------------------------------
    // The enclave exports its authenticated outgoing log; the victim
    // compares it with what it actually received.
    let export = app.export_log_for(0, LogDirection::Outgoing);
    let report = victim_verifier.audit(&export).expect("authentic log");
    println!(
        "victim audit: bypass detected = {} (verdict {:?})",
        report.bypass_detected(),
        report.verdict
    );
    assert!(!report.bypass_detected(), "honest run must audit clean");
    println!("OK: the filtering network provably executed the rule.");
}
