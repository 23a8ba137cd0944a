//! The five workloads: what each offers the service, and why it is here.

use crate::inputs::{self, Inputs, TenantShape};

/// Packets per offer window and worker: half a default ring, so a window
/// can never overflow one and any loss is a failure, not noise.
const WINDOW_PER_WORKER: usize = 8192;
/// 203.0.113.0/24, the lone victim of the single-tenant workloads.
const VICTIM: (u32, u8) = (0xcb00_7100, 24);

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub workers: usize,
    /// Packets per `offer` + `flush_round` window; a round is the pool.
    pub window: usize,
    /// Open loop: a burst of 32 is due every this many ns, on a schedule
    /// that runs across the round's windows (closed loop without).
    pub burst_ns: Option<u64>,
    /// Every round withdraws the last 8 churn rules and installs 8 new.
    pub churn: bool,
    /// Every round re-keys the pool to 5-tuples never offered before.
    pub rekey: bool,
    /// Half the run goes to `CampaignHarness` executions of the heal
    /// campaign, half to the instrumented rounds below.
    pub campaign: bool,
    build: fn(u64) -> Inputs,
}

impl Workload {
    pub fn inputs(&self, seed: u64) -> Inputs {
        (self.build)(seed)
    }
}

fn victim_shape(host_rules: usize) -> TenantShape {
    TenantShape {
        contract: 0,
        prefix: VICTIM,
        host_rules,
        spine: true,
        prob: true,
    }
}

const ROUND_PACKETS: usize = 32 * WINDOW_PER_WORKER;

pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "steady_64k",
            why: "established-flow fast path: 262 rules, 64K Zipf flows, closed loop, 1 worker; \
                  steering, ring, enclave entry, classify, cache hit and sketch logging do the work",
            workers: 1,
            window: WINDOW_PER_WORKER,
            burst_ns: None,
            churn: false,
            rekey: false,
            campaign: false,
            build: |seed| inputs::steady(seed, &[victim_shape(256)], 1 << 16, ROUND_PACKETS, None, false),
        },
        Workload {
            name: "spoof_flood",
            why: "every packet a never-repeating spoofed 5-tuple under the 50% rule: SHA-256 per \
                  packet, polluted cache, pending eviction, scattered sketch bins; no cache hits",
            workers: 1,
            window: WINDOW_PER_WORKER,
            burst_ns: None,
            churn: false,
            rekey: true,
            campaign: false,
            build: |seed| inputs::spoof(seed, victim_shape(256), ROUND_PACKETS),
        },
        Workload {
            name: "paced_64k",
            why: "steady_64k's packets offered open loop at 1.0 Mpps: the same rings and barrier \
                  used for latency, so batching that holds packets longer shows its cost",
            workers: 1,
            window: WINDOW_PER_WORKER,
            burst_ns: Some(32_000),
            churn: false,
            rekey: false,
            campaign: false,
            build: |seed| {
                inputs::steady(seed, &[victim_shape(256)], 1 << 16, ROUND_PACKETS, Some(32_000), false)
            },
        },
        Workload {
            name: "churn_3k",
            why: "3,000 rules on 2 slices, 8 withdrawn and 8 installed over the session every \
                  round: submit, snapshot, rebuild, clone, swap and a 2-slice audit do the work",
            workers: 2,
            window: 2 * WINDOW_PER_WORKER,
            burst_ns: None,
            churn: true,
            rekey: false,
            campaign: false,
            build: |seed| {
                inputs::steady(seed, &[victim_shape(3000)], 1 << 16, 2 * WINDOW_PER_WORKER, None, true)
            },
        },
        Workload {
            name: "campaign_heal",
            why: "two tenants on one service: the heal campaign with crash/recover faults through \
                  CampaignHarness, then per-contract logging, audit and publish in instrumented rounds",
            workers: 2,
            window: 2 * WINDOW_PER_WORKER,
            burst_ns: None,
            churn: true,
            rekey: false,
            campaign: true,
            build: |seed| {
                // The campaign's two tenants and victim prefixes; tenant 1
                // carries one drop per attack source, tenant 2 none.
                let shapes = [
                    TenantShape {
                        contract: 1,
                        prefix: (0xcb00_0000, 16),
                        host_rules: 330,
                        spine: false,
                        prob: false,
                    },
                    TenantShape {
                        contract: 2,
                        prefix: (0xc612_0000, 16),
                        host_rules: 0,
                        spine: false,
                        prob: false,
                    },
                ];
                inputs::steady(seed, &shapes, 1 << 14, 4 * WINDOW_PER_WORKER, None, true)
            },
        },
    ]
}

pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_tile_the_pool_and_fit_the_rings() {
        for w in all() {
            let inputs = w.inputs(1);
            assert_eq!(inputs.pool.len() % w.window, 0, "{}", w.name);
            assert_eq!(inputs.pool.len() % 32, 0, "{}", w.name);
            assert!(w.window <= WINDOW_PER_WORKER * w.workers, "{}", w.name);
            assert_eq!(w.churn, !inputs.sentinel_slots.is_empty(), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(by_name(w.name).is_some());
        }
        assert!(by_name("nope").is_none());
    }
}
