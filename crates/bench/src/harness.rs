//! Experiment registry and dispatch.

use crate::experiments::{
    ablations, attest, chaos, dataplane, heal, ixp, multivictim, scenario, service, solver,
    telemetry,
};
use vif_interdomain::AttackSourceModel;

/// Identifiers of every reproducible artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentId {
    /// Fig. 3a: throughput vs. rules.
    Fig3a,
    /// Fig. 3b: memory vs. rules.
    Fig3b,
    /// Fig. 8: Gb/s vs. packet size per mode.
    Fig8,
    /// Fig. 13: Mpps vs. packet size per mode.
    Fig13,
    /// §V-B latency list.
    Latency,
    /// Fig. 14: hash-ratio sweep.
    Fig14,
    /// Table I: solver times.
    Tab1,
    /// §V-C optimality gap.
    Gap,
    /// Fig. 9: greedy scaling.
    Fig9,
    /// Table II: batch insertion.
    Tab2,
    /// Per-packet vs. batched throughput of the reference and hybrid filters.
    Batch,
    /// Sharded live-pipeline throughput vs. worker count.
    Shard,
    /// Adaptive attack scenario with live rule churn (beyond the paper).
    Scenario,
    /// Multi-tenant campaign: many victims, one cluster, arbitrated
    /// budgets (beyond the paper).
    Multivictim,
    /// Fault-tolerance: seeded worker crash mid-attack, quarantine +
    /// re-steer recovery metrics (beyond the paper).
    Chaos,
    /// Self-healing: seeded crash *and* recover — verified slice rejoin
    /// through probation, MTTR, and contract re-admission (beyond the
    /// paper).
    Heal,
    /// Activation latency of epoch publication on the always-on service
    /// (beyond the paper).
    Service,
    /// Observability: seeded chaos run with the telemetry hub attached —
    /// round snapshot, flight-recorder tail, and reproducibility digests
    /// (beyond the paper).
    Telemetry,
    /// Fig. 11a: DNS-resolver coverage.
    Fig11a,
    /// Fig. 11b: Mirai coverage.
    Fig11b,
    /// Table III: IXP memberships.
    Tab3,
    /// Appendix G: attestation latency.
    Attestation,
    /// Ablation: copy strategy.
    AblationCopy,
    /// Ablation: connection-preserving execution.
    AblationConn,
    /// Ablation: λ head-room.
    AblationLambda,
    /// Ablation: sketch dimensions.
    AblationSketch,
}

/// All experiments in presentation order.
pub const ALL_EXPERIMENTS: [ExperimentId; 26] = [
    ExperimentId::Fig3a,
    ExperimentId::Fig3b,
    ExperimentId::Fig8,
    ExperimentId::Fig13,
    ExperimentId::Latency,
    ExperimentId::Fig14,
    ExperimentId::Tab1,
    ExperimentId::Gap,
    ExperimentId::Fig9,
    ExperimentId::Tab2,
    ExperimentId::Batch,
    ExperimentId::Shard,
    ExperimentId::Scenario,
    ExperimentId::Multivictim,
    ExperimentId::Chaos,
    ExperimentId::Heal,
    ExperimentId::Service,
    ExperimentId::Telemetry,
    ExperimentId::Fig11a,
    ExperimentId::Fig11b,
    ExperimentId::Tab3,
    ExperimentId::Attestation,
    ExperimentId::AblationCopy,
    ExperimentId::AblationConn,
    ExperimentId::AblationLambda,
    ExperimentId::AblationSketch,
];

impl ExperimentId {
    /// CLI name of the experiment.
    pub fn name(&self) -> &'static str {
        match self {
            ExperimentId::Fig3a => "fig3a",
            ExperimentId::Fig3b => "fig3b",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Latency => "latency",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Tab1 => "tab1",
            ExperimentId::Gap => "gap",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Tab2 => "tab2",
            ExperimentId::Batch => "batch",
            ExperimentId::Shard => "shard",
            ExperimentId::Scenario => "scenario",
            ExperimentId::Multivictim => "multivictim",
            ExperimentId::Chaos => "chaos",
            ExperimentId::Heal => "heal",
            ExperimentId::Service => "service",
            ExperimentId::Telemetry => "telemetry",
            ExperimentId::Fig11a => "fig11a",
            ExperimentId::Fig11b => "fig11b",
            ExperimentId::Tab3 => "tab3",
            ExperimentId::Attestation => "attestation",
            ExperimentId::AblationCopy => "ablation-copy",
            ExperimentId::AblationConn => "ablation-conn",
            ExperimentId::AblationLambda => "ablation-lambda",
            ExperimentId::AblationSketch => "ablation-sketch",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<ExperimentId> {
        ALL_EXPERIMENTS.iter().copied().find(|e| e.name() == s)
    }
}

/// Workload scale: quick (CI-friendly) or full (paper-scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Short simulated durations / fewer victims.
    Quick,
    /// Paper-scale parameters.
    Full,
}

/// Runs one experiment, returning its rendered report.
pub fn run_experiment(id: ExperimentId, scale: Scale) -> String {
    let (ms, victims, repeats, trials) = match scale {
        Scale::Quick => (5u64, 100usize, 1usize, 50usize),
        Scale::Full => (30, 1000, 3, 200),
    };
    match id {
        ExperimentId::Fig3a => dataplane::fig3a(ms),
        ExperimentId::Fig3b => dataplane::fig3b(),
        ExperimentId::Fig8 => dataplane::fig8(ms),
        ExperimentId::Fig13 => dataplane::fig13(ms),
        ExperimentId::Latency => dataplane::latency(ms),
        ExperimentId::Fig14 => dataplane::fig14(ms),
        ExperimentId::Tab1 => solver::tab1(),
        ExperimentId::Gap => solver::gap(),
        ExperimentId::Fig9 => solver::fig9(repeats),
        ExperimentId::Tab2 => dataplane::tab2(),
        ExperimentId::Batch => dataplane::batch(match scale {
            Scale::Quick => 100_000,
            Scale::Full => 1_000_000,
        }),
        ExperimentId::Shard => dataplane::shard(ms),
        ExperimentId::Scenario => scenario::scenario(scale == Scale::Quick),
        ExperimentId::Multivictim => multivictim::multivictim(scale == Scale::Quick),
        ExperimentId::Chaos => chaos::chaos(scale == Scale::Quick),
        ExperimentId::Heal => heal::heal(scale == Scale::Quick),
        ExperimentId::Service => service::service(scale == Scale::Quick),
        ExperimentId::Telemetry => telemetry::telemetry(scale == Scale::Quick),
        ExperimentId::Fig11a => ixp::fig11(AttackSourceModel::DnsResolvers, victims, 77),
        ExperimentId::Fig11b => ixp::fig11(AttackSourceModel::MiraiBotnet, victims, 77),
        ExperimentId::Tab3 => ixp::tab3(77),
        ExperimentId::Attestation => attest::attestation(trials),
        ExperimentId::AblationCopy => ablations::ablation_copy(ms),
        ExperimentId::AblationConn => ablations::ablation_conn(2000),
        ExperimentId::AblationLambda => ablations::ablation_lambda(),
        ExperimentId::AblationSketch => ablations::ablation_sketch(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for e in ALL_EXPERIMENTS {
            assert_eq!(ExperimentId::parse(e.name()), Some(e));
        }
        assert_eq!(ExperimentId::parse("nope"), None);
    }

    #[test]
    fn quick_smoke_fig3b_tab3() {
        // Cheap experiments must render non-empty tables.
        let out = run_experiment(ExperimentId::Fig3b, Scale::Quick);
        assert!(out.contains("EPC"));
        let out = run_experiment(ExperimentId::Tab3, Scale::Quick);
        assert!(out.contains("AMS-IX"));
    }
}
