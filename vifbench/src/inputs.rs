//! Seeded inputs: rules, flows and packet pools, in the benchmark's own
//! plain types. Everything here is a pure function of the seed; the
//! program under test only ever receives what this module generated.
//!
//! Address plan (sources; every destination is inside a tenant's prefix):
//! `32.0.0.0–95.255.255.255` hosts with a /32 drop rule, `10.0.0.0/8` the
//! overlapping drop spine, `100.64.0.0/10` the 50 % probabilistic rule,
//! `128.0.0.0–191.255.255.255` benign, `192.0.0.0–199.255.255.255` sources
//! that rule churn installs drops for.

use std::collections::HashSet;

/// The benchmark's random source (splitmix64).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// 32 bytes of key material.
    pub fn key(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for chunk in out.chunks_mut(8) {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        out
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flow {
    pub src_ip: u32,
    pub dst_ip: u32,
    pub src_port: u16,
    pub dst_port: u16,
    /// IANA protocol number.
    pub proto: u8,
}

/// What the filter must do with a packet — the ground truth the sink
/// checks deliveries against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Matches no rule: always delivered.
    Benign = 0,
    /// Matches a deterministic drop: never delivered.
    MustDrop = 1,
    /// Matches the probabilistic rule: all of a flow's packets share one
    /// verdict, and about half the flows are dropped.
    Prob = 2,
    /// From a source whose drop rule the last publish installed: never
    /// delivered once that publish has returned.
    Sentinel = 3,
}

/// A packet id carries the class in its top 4 bits, the probabilistic
/// flow's number in the next 28 and the packet's pool index in the low 32,
/// so the sink decides with one compare and never looks a tuple up.
pub fn tag(class: Class, prob_flow: u32, pool_index: u32) -> u64 {
    debug_assert!(prob_flow < 1 << 28);
    ((class as u64) << 60) | (u64::from(prob_flow) << 32) | u64::from(pool_index)
}

pub fn class_of(id: u64) -> Class {
    match id >> 60 {
        0 => Class::Benign,
        1 => Class::MustDrop,
        2 => Class::Prob,
        _ => Class::Sentinel,
    }
}

pub fn prob_flow_of(id: u64) -> usize {
    ((id >> 32) & 0x0fff_ffff) as usize
}

pub fn pool_index_of(id: u64) -> usize {
    (id & 0xffff_ffff) as usize
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pkt {
    pub flow: Flow,
    pub id: u64,
    /// When the packet is due, relative to the start of its pass; 0 in
    /// closed-loop pools.
    pub due_ns: u64,
}

/// Drop traffic from `src` to `dst` (address, prefix length) — all of it,
/// or the given fraction of flows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub src: (u32, u8),
    pub dst: (u32, u8),
    pub drop_fraction: Option<f64>,
}

/// One victim: its contract, its address space, the rules it installs.
#[derive(Debug, Clone, PartialEq)]
pub struct Tenant {
    pub contract: u32,
    pub prefix: (u32, u8),
    pub rules: Vec<Rule>,
}

/// The rule mix a tenant asks for.
#[derive(Debug, Clone, Copy)]
pub struct TenantShape {
    pub contract: u32,
    pub prefix: (u32, u8),
    pub host_rules: usize,
    /// The `enclave_batch` overlap spine: drops on 10.0.0.0/{8,12,16,20,24}.
    pub spine: bool,
    /// One rule dropping 50 % of flows from 100.64.0.0/10.
    pub prob: bool,
}

pub const SPINE_LENS: [u8; 5] = [8, 12, 16, 20, 24];
pub const PROB_SRC: (u32, u8) = (0x6440_0000, 10);
pub const SENTINELS_PER_RULE: usize = 8;
pub const CHURN_RULES: usize = 8;

#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    pub tenants: Vec<Tenant>,
    pub pool: Vec<Pkt>,
    /// Packets the pool holds of each probabilistic flow, by flow number.
    pub prob_offered: Vec<u32>,
    /// Pool slots reserved for sentinel packets (empty without churn).
    pub sentinel_slots: std::ops::Range<usize>,
}

impl Inputs {
    /// Packets of each [`Class`] in the pool, indexed by class number.
    pub fn class_counts(&self) -> [u64; 4] {
        let mut counts = [0u64; 4];
        for p in &self.pool {
            counts[class_of(p.id) as usize] += 1;
        }
        counts
    }
}

fn host_in(prefix: (u32, u8), r: u64) -> u32 {
    let host_bits = 32 - u32::from(prefix.1);
    let mask = if host_bits == 0 {
        0
    } else {
        (1u64 << host_bits) - 1
    };
    prefix.0 | (r & mask) as u32
}

fn tenant_rules(shape: &TenantShape, rng: &mut Rng) -> Vec<Rule> {
    let mut rules = Vec::with_capacity(shape.host_rules + 6);
    let mut seen = HashSet::new();
    while rules.len() < shape.host_rules {
        let src = 0x2000_0000 + (rng.next_u64() % 0x4000_0000) as u32;
        if seen.insert(src) {
            rules.push(Rule {
                src: (src, 32),
                dst: shape.prefix,
                drop_fraction: None,
            });
        }
    }
    if shape.spine {
        rules.extend(SPINE_LENS.iter().map(|&len| Rule {
            src: (0x0a00_0000, len),
            dst: shape.prefix,
            drop_fraction: None,
        }));
    }
    if shape.prob {
        rules.push(Rule {
            src: PROB_SRC,
            dst: shape.prefix,
            drop_fraction: Some(0.5),
        });
    }
    rules
}

/// Cumulative Zipf(1.0) weights over `n` ranks.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|rank| {
            acc += 1.0 / rank as f64;
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// The shared traffic shape: `flows` flows with Zipf(1.0) popularity, a
/// pool of `packets` packets drawn from them.
///
/// A flow's class is a function of its popularity rank alone, so every
/// seed offers the same share of benign, must-drop and probabilistic
/// packets and only the addresses change; probabilistic flows start at
/// rank 64 so that no single hash verdict moves the forwarded share.
/// With `burst_ns`, burst `b` of 32 packets is due at `b * burst_ns`.
pub fn steady(
    seed: u64,
    shapes: &[TenantShape],
    flows: usize,
    packets: usize,
    burst_ns: Option<u64>,
    churn: bool,
) -> Inputs {
    let mut rng = Rng::new(seed);
    let tenants: Vec<Tenant> = shapes
        .iter()
        .map(|s| Tenant {
            contract: s.contract,
            prefix: s.prefix,
            rules: tenant_rules(s, &mut rng),
        })
        .collect();

    let mut seen = HashSet::with_capacity(flows);
    let mut next_host = vec![0usize; shapes.len()];
    let mut prob_flows = 0u32;
    // (flow, class, probabilistic flow number)
    let mut table: Vec<(Flow, Class, u32)> = Vec::with_capacity(flows);
    for rank in 0..flows {
        let t = rank % shapes.len();
        let k = rank / shapes.len();
        let shape = &shapes[t];
        // The class and, for a host-rule flow, the rule's source address.
        let (class, host_src) = if k % 16 == 3 && next_host[t] < shape.host_rules {
            next_host[t] += 1;
            (
                Class::MustDrop,
                Some(tenants[t].rules[next_host[t] - 1].src.0),
            )
        } else if k % 8 == 5 && shape.spine {
            (Class::MustDrop, None)
        } else if k >= 64 && k % 8 == 6 && shape.prob {
            (Class::Prob, None)
        } else {
            (Class::Benign, None)
        };
        let flow = loop {
            let r = rng.next_u64();
            let flow = Flow {
                src_ip: match (class, host_src) {
                    (_, Some(src)) => src,
                    (Class::MustDrop, None) => 0x0a00_0000 | (r & 0x00ff_ffff) as u32,
                    (Class::Prob, None) => host_in(PROB_SRC, r),
                    _ => 0x8000_0000 | (r & 0x3fff_ffff) as u32,
                },
                dst_ip: host_in(shape.prefix, r >> 32),
                src_port: 1024 + (rng.next_u64() % 60_000) as u16,
                dst_port: 1 + (rng.next_u64() % 1023) as u16,
                proto: if rng.next_u64().is_multiple_of(3) {
                    17
                } else {
                    6
                },
            };
            if seen.insert(flow) {
                break flow;
            }
        };
        let number = if class == Class::Prob {
            prob_flows += 1;
            prob_flows - 1
        } else {
            0
        };
        table.push((flow, class, number));
    }

    let reserved = if churn {
        CHURN_RULES * SENTINELS_PER_RULE
    } else {
        0
    };
    let cdf = zipf_cdf(flows);
    let mut prob_offered = vec![0u32; prob_flows as usize];
    let mut pool = Vec::with_capacity(packets);
    for i in 0..packets {
        let u = rng.next_f64();
        let rank = cdf.partition_point(|&c| c <= u).min(flows - 1);
        let (flow, class, number) = table[rank];
        if class == Class::Prob {
            prob_offered[number as usize] += 1;
        }
        pool.push(Pkt {
            flow,
            id: tag(class, number, i as u32),
            due_ns: burst_ns.map_or(0, |ns| (i / 32) as u64 * ns),
        });
    }
    let mut inputs = Inputs {
        tenants,
        pool,
        prob_offered,
        sentinel_slots: packets - reserved..packets,
    };
    if churn {
        // The reserved tail holds sentinels from the first churn epoch.
        for slot in inputs.sentinel_slots.clone() {
            let p = inputs.pool[slot];
            if class_of(p.id) == Class::Prob {
                inputs.prob_offered[prob_flow_of(p.id)] -= 1;
            }
        }
        let (_, sentinels) = churn_epoch(seed, 0, &inputs);
        let start = inputs.sentinel_slots.start;
        inputs.pool[start..].copy_from_slice(&sentinels);
    }
    inputs
}

/// The rules churn epoch `epoch` installs for the first tenant — /32
/// drops for eight sources never seen before — and the sentinel packets
/// from those sources that the next window carries.
pub fn churn_epoch(seed: u64, epoch: u64, inputs: &Inputs) -> (Vec<Rule>, Vec<Pkt>) {
    let prefix = inputs.tenants[0].prefix;
    let base = 0xc000_0000 + (Rng::new(seed ^ 0xc4a2).next_u64() % 0x0400_0000) as u32;
    let rules: Vec<Rule> = (0..CHURN_RULES as u64)
        .map(|j| Rule {
            src: (base + (epoch * CHURN_RULES as u64 + j) as u32, 32),
            dst: prefix,
            drop_fraction: None,
        })
        .collect();
    let start = inputs.sentinel_slots.start;
    let sentinels = (0..inputs.sentinel_slots.len())
        .map(|i| Pkt {
            flow: Flow {
                src_ip: rules[i % CHURN_RULES].src.0,
                dst_ip: host_in(prefix, i as u64 + 1),
                src_port: 4000 + i as u16,
                dst_port: 53,
                proto: 17,
            },
            id: tag(Class::Sentinel, 0, (start + i) as u32),
            due_ns: 0,
        })
        .collect();
    (rules, sentinels)
}

/// Packet `index` of spoofed pass `pass`: a 5-tuple under the
/// probabilistic rule that no other (pass, index) pair produces — the
/// packet's running number is spread over source address and ports.
pub fn spoofed(prefix: (u32, u8), pool_len: usize, pass: u64, index: usize) -> Pkt {
    let c = pass * pool_len as u64 + index as u64;
    Pkt {
        flow: Flow {
            // 22 + 16 + 10 bits of the counter: unique below 2^48 packets.
            src_ip: host_in(PROB_SRC, c),
            dst_ip: host_in(prefix, 1 + (index as u64 % 200)),
            src_port: (c >> 22) as u16,
            dst_port: 1 + ((c >> 38) % 1023) as u16,
            proto: 17,
        },
        id: tag(Class::Prob, 0, index as u32),
        due_ns: 0,
    }
}

/// The `spoof_flood` inputs: `steady`'s rules, and a pool in which every
/// packet opens a flow of its own.
pub fn spoof(seed: u64, shape: TenantShape, packets: usize) -> Inputs {
    let tenant = Tenant {
        contract: shape.contract,
        prefix: shape.prefix,
        rules: tenant_rules(&shape, &mut Rng::new(seed)),
    };
    Inputs {
        pool: (0..packets)
            .map(|i| spoofed(shape.prefix, packets, 0, i))
            .collect(),
        tenants: vec![tenant],
        prob_offered: Vec::new(),
        sentinel_slots: packets..packets,
    }
}

/// The class a packet must have, recomputed from the rules alone.
#[cfg(test)]
fn oracle(inputs: &Inputs, churned: &HashSet<u32>, flow: &Flow) -> Class {
    let covers = |p: (u32, u8), ip: u32| p.1 == 0 || (ip ^ p.0) >> (32 - u32::from(p.1)) == 0;
    if churned.contains(&flow.src_ip) {
        return Class::Sentinel;
    }
    let mut class = Class::Benign;
    for t in &inputs.tenants {
        for r in &t.rules {
            if covers(r.src, flow.src_ip) && covers(r.dst, flow.dst_ip) {
                match r.drop_fraction {
                    None => return Class::MustDrop,
                    Some(_) => class = Class::Prob,
                }
            }
        }
    }
    class
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: TenantShape = TenantShape {
        contract: 0,
        prefix: (0xcb00_7100, 24),
        host_rules: 256,
        spine: true,
        prob: true,
    };

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = steady(11, &[SHAPE], 4096, 16_384, Some(32_000), true);
        let b = steady(11, &[SHAPE], 4096, 16_384, Some(32_000), true);
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}").as_bytes(), format!("{b:?}").as_bytes());
        let c = steady(12, &[SHAPE], 4096, 16_384, Some(32_000), true);
        assert_ne!(a.pool, c.pool);
        assert_eq!(spoof(5, SHAPE, 1000), spoof(5, SHAPE, 1000));
    }

    #[test]
    fn class_shares_do_not_depend_on_the_seed() {
        let a = steady(1, &[SHAPE], 65_536, 131_072, None, false).class_counts();
        let b = steady(2, &[SHAPE], 65_536, 131_072, None, false).class_counts();
        for class in 0..3 {
            let (x, y) = (a[class] as f64, b[class] as f64);
            assert!(
                x > 0.0 && (x - y).abs() / x < 0.05,
                "class {class}: {x} vs {y}"
            );
        }
        assert_eq!(a[Class::Sentinel as usize], 0);
    }

    #[test]
    fn tags_agree_with_a_rule_oracle() {
        let inputs = steady(7, &[SHAPE], 8192, 32_768, None, true);
        let (rules, _) = churn_epoch(7, 0, &inputs);
        let churned: HashSet<u32> = rules.iter().map(|r| r.src.0).collect();
        let mut offered = vec![0u32; inputs.prob_offered.len()];
        for (i, p) in inputs.pool.iter().enumerate() {
            assert_eq!(
                class_of(p.id),
                oracle(&inputs, &churned, &p.flow),
                "packet {i}"
            );
            assert_eq!(pool_index_of(p.id), i);
            if class_of(p.id) == Class::Prob {
                offered[prob_flow_of(p.id)] += 1;
            }
        }
        assert_eq!(offered, inputs.prob_offered);
        let counts = inputs.class_counts();
        assert_eq!(counts[Class::Sentinel as usize], 64);
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // One flow number never names two flows.
        let mut by_number = std::collections::HashMap::new();
        for p in inputs.pool.iter().filter(|p| class_of(p.id) == Class::Prob) {
            assert_eq!(
                *by_number.entry(prob_flow_of(p.id)).or_insert(p.flow),
                p.flow
            );
        }
    }

    #[test]
    fn two_tenants_split_flows_by_destination() {
        let shapes = [
            TenantShape {
                contract: 1,
                prefix: (0xcb00_0000, 16),
                host_rules: 64,
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
        let inputs = steady(3, &shapes, 4096, 8192, None, true);
        assert_eq!(inputs.tenants[0].rules.len(), 64);
        assert!(inputs.tenants[1].rules.is_empty());
        let churned = HashSet::new();
        for p in &inputs.pool[..inputs.sentinel_slots.start] {
            assert_eq!(class_of(p.id), oracle(&inputs, &churned, &p.flow));
            let t1 = p.flow.dst_ip >> 16 == 0xcb00;
            assert!(t1 || p.flow.dst_ip >> 16 == 0xc612);
            assert!(t1 || class_of(p.id) == Class::Benign);
        }
    }

    #[test]
    fn spoofed_tuples_never_repeat() {
        let mut seen = HashSet::new();
        let len = 50_000;
        for pass in [0u64, 1, 2, 77, 4000] {
            for i in 0..len {
                let p = spoofed(SHAPE.prefix, len, pass, i);
                assert!(seen.insert(p.flow), "pass {pass} packet {i} repeats");
                assert_eq!(class_of(p.id), Class::Prob);
                assert_eq!(p.flow.src_ip >> 22, PROB_SRC.0 >> 22);
            }
        }
    }

    #[test]
    fn churn_epochs_name_fresh_sources() {
        let inputs = steady(9, &[SHAPE], 1024, 4096, None, true);
        let mut seen = HashSet::new();
        for epoch in 0..200 {
            let (rules, sentinels) = churn_epoch(9, epoch, &inputs);
            assert_eq!(rules.len(), CHURN_RULES);
            assert_eq!(sentinels.len(), inputs.sentinel_slots.len());
            for r in &rules {
                assert!(seen.insert(r.src.0));
                assert_eq!(r.src.0 >> 27, 0xc000_0000u32 >> 27);
            }
            for s in &sentinels {
                assert!(rules.iter().any(|r| r.src.0 == s.flow.src_ip));
            }
        }
    }
}
