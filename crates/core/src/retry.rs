//! One retry vocabulary for every recovery path.
//!
//! Publish-ack retries in [`scale`](crate::scale) and export-audit retries
//! with exponential backoff in [`rounds`](crate::rounds) are the same
//! shape — a bounded attempt budget and a geometric backoff — so they share
//! this one [`RetryPolicy`]. (The rejoin flap-damping schedule is a
//! constant of `vif_dataplane::lifecycle`, not a policy.)

/// A bounded-retry schedule with geometric backoff.
///
/// `attempts` is the number of *retries* after the first try (matching the
/// historical `audit_retries` and `PUBLISH_ACK_RETRIES` semantics: a policy
/// with `attempts = 2` tries three times in total). The backoff charged
/// before retry `k` (0-based) is `backoff_ns * multiplier^k`.
///
/// The backoff unit is nanoseconds of simulated wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries permitted after the first attempt fails.
    pub attempts: u32,
    /// Backoff charged before the first retry.
    pub backoff_ns: u64,
    /// Geometric growth factor applied per retry (2 = doubling).
    pub multiplier: u64,
}

impl RetryPolicy {
    /// A fixed-budget policy with no backoff (the publish-ack shape).
    pub const fn flat(attempts: u32) -> Self {
        RetryPolicy {
            attempts,
            backoff_ns: 0,
            multiplier: 1,
        }
    }

    /// A doubling-backoff policy (the export-retry shape).
    pub const fn doubling(attempts: u32, backoff_ns: u64) -> Self {
        RetryPolicy {
            attempts,
            backoff_ns,
            multiplier: 2,
        }
    }

    /// Whether retry number `attempt` (0-based) is within budget.
    pub fn allows(&self, attempt: u32) -> bool {
        attempt < self.attempts
    }

    /// Backoff to charge before retry number `attempt` (0-based),
    /// saturating rather than overflowing on absurd inputs.
    pub fn backoff_for(&self, attempt: u32) -> u64 {
        let factor = self
            .multiplier
            .saturating_pow(attempt.min(u32::from(u16::MAX)));
        self.backoff_ns.saturating_mul(factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubling_matches_the_historical_export_schedule() {
        // audit_retries = 2, retry_backoff_ns = 1 ms: retries cost
        // 1 ms then 2 ms — the 3 ms total the round tests pin.
        let p = RetryPolicy::doubling(2, 1_000_000);
        assert!(p.allows(0));
        assert!(p.allows(1));
        assert!(!p.allows(2));
        assert_eq!(p.backoff_for(0) + p.backoff_for(1), 3_000_000);
    }

    #[test]
    fn flat_policy_charges_no_backoff() {
        let p = RetryPolicy::flat(3);
        assert!(p.allows(2));
        assert!(!p.allows(3));
        assert_eq!(p.backoff_for(7), 0);
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy::doubling(u32::MAX, u64::MAX / 2);
        assert_eq!(p.backoff_for(400), u64::MAX);
    }
}
