//! The adversarial-scenario experiment: the closed control loop the
//! paper's static evaluation never exercises.
//!
//! Runs the canonical pulse-wave + carpet-bombing scenario end to end on
//! the live sharded dataplane with the default threshold policy in the
//! loop, then repeats it with a slice-stealing filtering network switched
//! on mid-scenario to show the audit's detection latency.

use vif_scenario::{
    CampaignHarness, Scenario, ScenarioAdversary, ScenarioHarnessConfig, ThresholdPolicy,
};

/// Renders the scenario experiment at the given scale (`quick` = the
/// smoke scenario, CI-sized).
pub fn scenario(quick: bool) -> String {
    let seed = 42;
    let build = || {
        if quick {
            Scenario::smoke(seed)
        } else {
            Scenario::pulse_and_carpet(seed)
        }
    };

    let run = |config| {
        CampaignHarness::single(build(), config)
            .run(vec![Box::new(ThresholdPolicy::default())])
            .reports
            .remove(0)
    };
    let honest = run(ScenarioHarnessConfig::default());
    let onset = build().total_rounds() / 2;
    let attacked = run(ScenarioHarnessConfig {
        adversary: Some(ScenarioAdversary {
            from_round: onset,
            drop_after_worker: 1,
        }),
        ..Default::default()
    });

    let mut out = String::new();
    out.push_str(
        "# Adaptive scenario runs (live sharded dataplane, audited rounds, §VI-B rule churn)\n\n",
    );
    out.push_str("honest filtering network — false strikes must be zero:\n\n");
    out.push_str(&honest.to_string());
    out.push_str(&format!(
        "\nslice-stealing network from round {onset} — the audit must flag it:\n\n"
    ));
    out.push_str(&attacked.to_string());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_experiment_renders() {
        let out = scenario(true);
        assert!(out.contains("flash-crowd"));
        assert!(out.contains("0 dirty rounds"), "honest run clean:\n{out}");
        assert!(out.contains("bypass detected"), "adversary caught:\n{out}");
    }
}
