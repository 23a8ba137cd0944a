//! Knobs shared by every run of the scenario round loop
//! ([`crate::campaign`]): the dataplane/audit configuration and the
//! optional mid-scenario adversary.

/// A malicious filtering network inside a scenario (the per-slice variant
/// of §III-B's attack 2, switched on mid-scenario so detection latency is
/// measurable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioAdversary {
    /// First global round (0-based) the adversary is active in.
    pub from_round: u64,
    /// The worker whose post-filter output the network steals.
    pub drop_after_worker: usize,
}

/// Harness knobs.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioHarnessConfig {
    /// Filter workers (= enclave slices) of the always-on service.
    pub workers: usize,
    /// Verifiers' per-bin audit tolerance.
    pub tolerance: u64,
    /// Dirty rounds tolerated before the victim aborts the contract.
    /// Scenario runs default to "never" so the full report is collected;
    /// lower it to study abort behavior.
    pub max_strikes: u32,
    /// Optional scenario adversary: from its onset round the filtering
    /// network steals one worker's post-filter output, for every tenant
    /// with traffic on that worker; each affected contract's report
    /// carries its own detection latency.
    pub adversary: Option<ScenarioAdversary>,
}

impl Default for ScenarioHarnessConfig {
    fn default() -> Self {
        ScenarioHarnessConfig {
            workers: 2,
            tolerance: 0,
            max_strikes: u32::MAX,
            adversary: None,
        }
    }
}
