//! # vif-scenario
//!
//! An adversarial attack-scenario engine over the VIF reproduction: the
//! paper evaluates the system under essentially static conditions (fixed
//! rule sets, constant-bit-rate mixes, one-shot redistribution), while
//! real DDoS defense is a *closed loop* — attacks shift shape over time
//! and the victim reacts by churning rules mid-contract. This crate
//! scripts that loop end to end on the live sharded data plane:
//!
//! - [`timeline`]: a deterministic, seeded scenario DSL — a [`Scenario`]
//!   is a list of named [`Phase`]s over a virtual clock, each compiling
//!   to per-round packet schedules via `vif_dataplane::pktgen`'s
//!   rate-shape modulation and Zipf flow weighting. Phase kinds cover
//!   ramping floods, pulse waves, carpet bombing across the victim's /16,
//!   spoofed-source rotation, botnet membership churn, and flash crowds
//!   (legitimate surges that must *not* be filtered).
//! - [`policy`]: the victim side of the loop — a [`VictimPolicy`] reacts
//!   to each audited round (per-slice verdicts, victim-side sketch
//!   heavy-hitter estimates, enclave rule telemetry) with rule installs
//!   and withdrawals. [`ThresholdPolicy`] is the default: drop sources
//!   whose estimated per-round rate crosses a threshold, withdraw rules
//!   once they go idle.
//! - [`campaign`]: the one round loop. A [`CampaignHarness`] wires
//!   scenarios through the real machinery — optimizer-arbitrated admission
//!   ([`vif_optimizer::arbitrate`]), an attested §VI-B session per
//!   contract against a master enclave, an RSS-replicated
//!   [`EnclaveCluster`](vif_core::scale::EnclaveCluster) behind the
//!   always-on [`DataplaneService`](vif_dataplane::DataplaneService), a
//!   [`ClusterRoundDriver`](vif_core::rounds::ClusterRoundDriver) per
//!   contract closing an audited round per virtual round, and live rule
//!   churn (deferred session install/withdraw + per-contract epoch
//!   publication) between rounds while the same enclaves keep filtering.
//!   Several victims run *simultaneously* as independent contracts with
//!   their own sessions, audit sketches, epochs and [`ScenarioReport`]s; a
//!   single victim is [`CampaignHarness::single`], the lone default
//!   contract 0 on the same loop.
//! - [`harness`]: the knobs every run shares ([`ScenarioHarnessConfig`],
//!   the mid-scenario [`ScenarioAdversary`]).
//! - **chaos**: a run takes a seeded [`FaultPlan`] (`with_faults`) of
//!   worker crashes/stalls/recoveries, export corruption/timeouts,
//!   publish-ack loss, and ring-overflow storms. A crashed worker is
//!   quarantined at the next round barrier, its flows re-steer to the
//!   survivors, and traffic caught in the outage is charged to a
//!   per-contract `uncovered` counter under that contract's
//!   [`DegradedMode`]; a seeded recover rejoins the slice through fresh
//!   attestation, state replay and a probation window — reports then score
//!   recovery (quarantine order, rounds-to-recover, MTTR) with the same
//!   seed-determinism as clean runs.
//! - [`report`]: per-phase metrics — goodput, malicious leakage,
//!   collateral damage on legitimate flows, bypass-detection latency in
//!   rounds, and rule-churn counts — in a [`ScenarioReport`] that is
//!   bit-for-bit deterministic in the scenario seed.
//!
//! # Determinism
//!
//! Everything observable in a [`ScenarioReport`] is a pure function of
//! the [`Scenario`] (seed included) and harness configuration: schedules
//! are seeded, steering is the public RSS hash, verdicts are stateless
//! per packet, and sketch updates commute — thread interleaving in the
//! live pipeline can reorder work but never change counts. Rule churn is
//! applied at round boundaries, so the decision each packet sees is
//! well-defined. (Churn *during* a run is also safe — enclave state is
//! lock-protected and the audit compares the enclave's logs against what
//! actually happened, so mid-run churn can never produce a false strike;
//! the integration tests pin that separately.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod harness;
pub mod policy;
pub mod report;
pub mod timeline;

pub use campaign::{
    CampaignConfig, CampaignContract, CampaignHarness, CampaignReport, RejectedContract,
};
pub use harness::{ScenarioAdversary, ScenarioHarnessConfig};
pub use policy::{
    HeavyHitter, InstalledRule, PolicyAction, PolicyObservation, ThresholdPolicy, VictimPolicy,
};
pub use report::{PhaseReport, ScenarioReport};
pub use timeline::{LegitProfile, Phase, PhaseKind, RoundTraffic, Scenario};
// Fault-injection vocabulary, re-exported so chaos scenarios can be
// scripted against this crate alone.
pub use vif_dataplane::{DegradedMode, FaultEvent, FaultKind, FaultPlan};
// The admission arbiter's pool knobs: [`CampaignConfig`] embeds them, so
// campaign callers can size the shared enclave pool without importing the
// optimizer crate themselves.
pub use vif_optimizer::ArbiterConfig;
