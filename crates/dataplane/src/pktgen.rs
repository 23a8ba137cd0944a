//! Traffic generation in the style of pktgen-dpdk.
//!
//! The paper's packet generator saturates the 10 GbE link with fixed-size
//! frames over a configurable flow mix (§V-B), and its rule-distribution
//! evaluation draws per-rule bandwidth from a lognormal distribution
//! (§V-C). [`FlowSet`] models weighted flow mixes; [`TrafficGenerator`]
//! emits constant-bit-rate packet schedules over them.

use crate::nic::LineRate;
use crate::packet::{FiveTuple, Packet, Protocol};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A set of flows with sampling weights.
#[derive(Debug, Clone)]
pub struct FlowSet {
    flows: Vec<FiveTuple>,
    /// Cumulative normalized weights, same length as `flows`; last = 1.0.
    cumulative: Vec<f64>,
    /// Raw (unnormalized) weights.
    weights: Vec<f64>,
}

impl FlowSet {
    /// Builds a uniformly weighted flow set.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is empty.
    pub fn uniform(flows: Vec<FiveTuple>) -> Self {
        let n = flows.len();
        Self::weighted(flows, vec![1.0; n])
    }

    /// Builds a flow set with explicit positive weights.
    ///
    /// # Panics
    ///
    /// Panics if empty, lengths differ, or any weight is not positive.
    pub fn weighted(flows: Vec<FiveTuple>, weights: Vec<f64>) -> Self {
        assert!(!flows.is_empty(), "flow set must be non-empty");
        assert_eq!(flows.len(), weights.len(), "flows/weights length mismatch");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w > 0.0),
            "weights must be positive and finite"
        );
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cumulative.push(acc);
        }
        *cumulative.last_mut().expect("non-empty") = 1.0;
        FlowSet {
            flows,
            cumulative,
            weights,
        }
    }

    /// Generates `n` random UDP flows toward a single victim address with
    /// uniform weights (the generic volumetric-attack mix).
    pub fn random_toward_victim(n: usize, victim_ip: u32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let flows = (0..n)
            .map(|_| {
                FiveTuple::new(
                    rng.gen(),
                    victim_ip,
                    rng.gen_range(1024..u16::MAX),
                    rng.gen_range(1..1024),
                    if rng.gen_bool(0.5) {
                        Protocol::Udp
                    } else {
                        Protocol::Tcp
                    },
                )
            })
            .collect();
        Self::uniform(flows)
    }

    /// Builds a flow set with Zipf(`exponent`) weights over the flows in
    /// definition order: flow `i` gets weight `1 / (i + 1)^exponent`.
    ///
    /// This is the heavy-tailed mix real attack traffic shows (a few
    /// botnet subnets carry most of the volume): with `exponent ≈ 1` the
    /// head flow alone outweighs the entire tail of a large set. The
    /// scenario engine leans on this to make its heavy-hitter dynamics
    /// realistic — a victim policy thresholding on per-source rate sees a
    /// clear head to react to.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is empty or `exponent` is not finite and
    /// non-negative (`exponent = 0` degenerates to uniform weights).
    pub fn zipf(flows: Vec<FiveTuple>, exponent: f64) -> Self {
        assert!(
            exponent.is_finite() && exponent >= 0.0,
            "zipf exponent must be finite and non-negative"
        );
        let weights: Vec<f64> = (0..flows.len())
            .map(|i| ((i + 1) as f64).powf(-exponent))
            .collect();
        Self::weighted(flows, weights)
    }

    /// Generates `n` random flows with lognormal(μ=0, σ) weights — the
    /// per-rule bandwidth distribution of §V-C.
    pub fn lognormal_toward_victim(n: usize, victim_ip: u32, sigma: f64, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let flows: Vec<FiveTuple> = (0..n)
            .map(|_| {
                FiveTuple::new(
                    rng.gen(),
                    victim_ip,
                    rng.gen_range(1024..u16::MAX),
                    rng.gen_range(1..1024),
                    Protocol::Udp,
                )
            })
            .collect();
        let weights: Vec<f64> = (0..n)
            .map(|_| lognormal_sample(&mut rng, 0.0, sigma))
            .collect();
        Self::weighted(flows, weights)
    }

    /// Number of flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if the set has no flows (cannot be constructed; kept for API
    /// completeness).
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flows in definition order.
    pub fn flows(&self) -> &[FiveTuple] {
        &self.flows
    }

    /// The raw weights in definition order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Samples a flow index according to the weights.
    pub fn sample_index(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.flows.len() - 1),
        }
    }

    /// Samples a flow according to the weights.
    pub fn sample(&self, rng: &mut impl Rng) -> FiveTuple {
        self.flows[self.sample_index(rng)]
    }
}

/// Draws one lognormal(μ, σ) sample via Box–Muller.
fn lognormal_sample(rng: &mut impl Rng, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (mu + sigma * z).exp()
}

/// A constant-bit-rate traffic workload.
#[derive(Debug, Clone, Copy)]
pub struct TrafficConfig {
    /// Frame size in bytes.
    pub packet_size: u16,
    /// Offered goodput in Gb/s (frame bytes only).
    pub offered_gbps: f64,
    /// Number of packets to emit.
    pub count: usize,
}

impl TrafficConfig {
    /// A workload saturating 10 GbE with `packet_size` frames for
    /// `duration_ms` milliseconds of simulated time.
    pub fn saturating_10g(packet_size: u16, duration_ms: u64) -> Self {
        let goodput = LineRate::TEN_GBE.max_goodput_gbps(packet_size as u32);
        Self::at_rate(packet_size, goodput, duration_ms)
    }

    /// A workload at `offered_gbps` goodput for `duration_ms` of simulated
    /// time.
    pub fn at_rate(packet_size: u16, offered_gbps: f64, duration_ms: u64) -> Self {
        let ia = LineRate::interarrival_ns(packet_size as u32, offered_gbps);
        let count = ((duration_ms as f64 * 1e6) / ia).ceil() as usize;
        TrafficConfig {
            packet_size,
            offered_gbps,
            count,
        }
    }
}

/// Time-varying modulation of an offered rate (the instantaneous rate is
/// `config.offered_gbps × factor(t)`).
///
/// [`TrafficGenerator::generate_shaped`] emits packets whose interarrival
/// tracks the shape over the workload's nominal duration, so one shape +
/// one [`TrafficConfig`] describe a pulse-wave burst train or a ramping
/// flood the way `Constant` describes the paper's CBR saturation runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateShape {
    /// Constant bit rate — `factor ≡ 1` (the §V-B workload).
    Constant,
    /// A pulse wave: full rate for the first `duty` fraction of every
    /// `period_ns` window, silent for the rest (the classic pulsing DDoS
    /// that dodges rate averaging).
    Pulse {
        /// Pulse period in nanoseconds.
        period_ns: u64,
        /// On-fraction of each period, in `(0, 1]`.
        duty: f64,
    },
    /// Linear ramp of the rate factor from `from` to `to` across the
    /// workload duration (attack build-up or decay).
    Ramp {
        /// Rate factor at t = 0.
        from: f64,
        /// Rate factor at the end of the workload.
        to: f64,
    },
}

impl RateShape {
    /// Validates the shape's parameters.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or out-of-range parameters.
    fn validate(&self) {
        match *self {
            RateShape::Constant => {}
            RateShape::Pulse { period_ns, duty } => {
                assert!(period_ns > 0, "pulse period must be positive");
                assert!(
                    duty.is_finite() && duty > 0.0 && duty <= 1.0,
                    "pulse duty must be in (0, 1]"
                );
            }
            RateShape::Ramp { from, to } => {
                assert!(
                    from.is_finite() && to.is_finite() && from >= 0.0 && to >= 0.0,
                    "ramp factors must be finite and non-negative"
                );
            }
        }
    }

    /// The rate factor at time `t_ns` of a `duration_ns`-long workload.
    pub fn factor_at(&self, t_ns: f64, duration_ns: f64) -> f64 {
        match *self {
            RateShape::Constant => 1.0,
            RateShape::Pulse { period_ns, duty } => {
                let phase = t_ns % period_ns as f64;
                if phase < duty * period_ns as f64 {
                    1.0
                } else {
                    0.0
                }
            }
            RateShape::Ramp { from, to } => {
                if duration_ns <= 0.0 {
                    from
                } else {
                    from + (to - from) * (t_ns / duration_ns).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// The next instant at or after `t_ns` with a positive factor, used to
    /// skip silent stretches (pulse off-windows) without emitting. `step`
    /// is the fallback advance for shapes without a closed-form boundary.
    fn next_active_ns(&self, t_ns: f64, step: f64) -> f64 {
        match *self {
            RateShape::Pulse { period_ns, .. } => {
                // Jump to the start of the next period's on-window.
                ((t_ns / period_ns as f64).floor() + 1.0) * period_ns as f64
            }
            _ => t_ns + step,
        }
    }
}

/// Generates packet schedules.
#[derive(Debug)]
pub struct TrafficGenerator {
    rng: StdRng,
    next_id: u64,
}

impl TrafficGenerator {
    /// Creates a generator with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        TrafficGenerator {
            rng: StdRng::seed_from_u64(seed),
            next_id: 0,
        }
    }

    /// Emits a CBR packet schedule over `flows`.
    ///
    /// Packets are spaced exactly at the configured rate (pktgen-style CBR);
    /// flows are drawn per-packet according to the flow weights.
    pub fn generate(&mut self, flows: &FlowSet, config: TrafficConfig) -> Vec<Packet> {
        let ia = LineRate::interarrival_ns(config.packet_size as u32, config.offered_gbps);
        (0..config.count)
            .map(|i| {
                let tuple = flows.sample(&mut self.rng);
                let id = self.next_id;
                self.next_id += 1;
                Packet::new(tuple, config.packet_size, (i as f64 * ia) as u64, id)
            })
            .collect()
    }

    /// Emits a rate-shaped packet schedule over `flows`.
    ///
    /// The workload's nominal duration is `config.count` packets at the
    /// configured CBR rate; within it, packet interarrival tracks
    /// `shape.factor_at` — so `RateShape::Constant` reproduces the CBR
    /// schedule's density, a pulse emits bursts separated by silence, and
    /// a ramp's spacing tightens (or relaxes) linearly. Fully
    /// deterministic in `(seed, flows, config, shape)`: the same inputs
    /// yield byte-identical schedules.
    ///
    /// # Panics
    ///
    /// Panics on invalid shape parameters (see [`RateShape`]).
    pub fn generate_shaped(
        &mut self,
        flows: &FlowSet,
        config: TrafficConfig,
        shape: RateShape,
    ) -> Vec<Packet> {
        shape.validate();
        let ia = LineRate::interarrival_ns(config.packet_size as u32, config.offered_gbps);
        let duration_ns = ia * config.count as f64;
        let mut out = Vec::new();
        let mut t = 0.0f64;
        // Fixed-step credit accumulation: every base interarrival window
        // earns `factor` packets' worth of credit and emits ⌊credit⌋
        // packets spaced at the instantaneous interarrival. Unlike
        // stepping the clock by `ia / factor`, this stays well-behaved as
        // the factor approaches zero (a ramp out of silence) — the
        // division there would overshoot the entire workload and emit a
        // single packet.
        let mut credit = 0.0f64;
        while t < duration_ns {
            let factor = shape.factor_at(t, duration_ns);
            if factor > 0.0 {
                credit += factor;
                let spacing = ia / factor;
                let mut k = 0.0;
                while credit >= 1.0 {
                    let tuple = flows.sample(&mut self.rng);
                    let id = self.next_id;
                    self.next_id += 1;
                    out.push(Packet::new(
                        tuple,
                        config.packet_size,
                        (t + k * spacing) as u64,
                        id,
                    ));
                    credit -= 1.0;
                    k += 1.0;
                }
                t += ia;
            } else {
                t = shape.next_active_ns(t, ia);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_sampling_covers_flows() {
        let fs = FlowSet::random_toward_victim(10, 0x0a000001, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let t = fs.sample(&mut rng);
            let idx = fs.flows().iter().position(|f| *f == t).unwrap();
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&s| s), "all flows sampled");
    }

    #[test]
    fn weighted_sampling_respects_weights() {
        let flows = vec![
            FiveTuple::new(1, 9, 1, 1, Protocol::Udp),
            FiveTuple::new(2, 9, 1, 1, Protocol::Udp),
        ];
        let fs = FlowSet::weighted(flows, vec![9.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 10_000;
        let heavy = (0..n).filter(|_| fs.sample_index(&mut rng) == 0).count();
        let frac = heavy as f64 / n as f64;
        assert!((0.85..0.95).contains(&frac), "heavy flow fraction {frac}");
    }

    #[test]
    fn lognormal_weights_are_skewed() {
        let fs = FlowSet::lognormal_toward_victim(1000, 1, 1.5, 7);
        let mut w: Vec<f64> = fs.weights().to_vec();
        w.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let total: f64 = w.iter().sum();
        let top10: f64 = w.iter().take(100).sum();
        assert!(
            top10 / total > 0.3,
            "top 10% of lognormal flows should carry >30% of weight, got {}",
            top10 / total
        );
    }

    #[test]
    fn cbr_schedule_is_evenly_spaced() {
        let fs = FlowSet::random_toward_victim(5, 1, 1);
        let mut gen = TrafficGenerator::new(1);
        let pkts = gen.generate(
            &fs,
            TrafficConfig {
                packet_size: 1500,
                offered_gbps: 8.0,
                count: 100,
            },
        );
        assert_eq!(pkts.len(), 100);
        let ia = pkts[1].arrival_ns - pkts[0].arrival_ns;
        assert!((1499..=1501).contains(&ia), "interarrival {ia}");
        assert!(pkts.windows(2).all(|w| w[1].arrival_ns >= w[0].arrival_ns));
        assert!(pkts.windows(2).all(|w| w[1].id == w[0].id + 1));
    }

    #[test]
    fn saturating_config_matches_duration() {
        let cfg = TrafficConfig::saturating_10g(64, 10);
        // 10 ms at 14.88 Mpps ≈ 148,800 packets.
        assert!((140_000..160_000).contains(&cfg.count), "{}", cfg.count);
    }

    #[test]
    fn generator_is_deterministic() {
        let fs = FlowSet::random_toward_victim(50, 1, 11);
        let cfg = TrafficConfig {
            packet_size: 64,
            offered_gbps: 5.0,
            count: 500,
        };
        let a = TrafficGenerator::new(9).generate(&fs, cfg);
        let b = TrafficGenerator::new(9).generate(&fs, cfg);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_flow_set_rejected() {
        FlowSet::uniform(Vec::new());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_rejected() {
        FlowSet::weighted(vec![FiveTuple::new(1, 2, 3, 4, Protocol::Udp)], vec![0.0]);
    }

    #[test]
    fn lognormal_sample_positive() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..1000 {
            assert!(lognormal_sample(&mut rng, 0.0, 2.0) > 0.0);
        }
    }

    #[test]
    fn zipf_weights_are_heavy_tailed_and_ordered() {
        let flows: Vec<FiveTuple> = (0..100)
            .map(|i| FiveTuple::new(i, 9, 1, 1, Protocol::Udp))
            .collect();
        let fs = FlowSet::zipf(flows, 1.0);
        let w = fs.weights();
        // Monotone decreasing in definition order, head dominates.
        assert!(w.windows(2).all(|p| p[0] > p[1]));
        let total: f64 = w.iter().sum();
        assert!(w[0] / total > 0.15, "head share {}", w[0] / total);
        // exponent 0 degenerates to uniform.
        let uniform = FlowSet::zipf(fs.flows().to_vec(), 0.0);
        assert!(uniform.weights().iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn zipf_rejects_negative_exponent() {
        FlowSet::zipf(vec![FiveTuple::new(1, 2, 3, 4, Protocol::Udp)], -1.0);
    }

    fn shaped(seed: u64, shape: RateShape) -> Vec<Packet> {
        let fs = FlowSet::random_toward_victim(32, 1, 4);
        TrafficGenerator::new(seed).generate_shaped(
            &fs,
            TrafficConfig {
                packet_size: 64,
                offered_gbps: 5.0,
                count: 2_000,
            },
            shape,
        )
    }

    #[test]
    fn shaped_schedules_are_byte_deterministic() {
        for shape in [
            RateShape::Constant,
            RateShape::Pulse {
                period_ns: 50_000,
                duty: 0.3,
            },
            RateShape::Ramp { from: 0.2, to: 1.8 },
        ] {
            let a = shaped(17, shape);
            let b = shaped(17, shape);
            assert_eq!(a, b, "{shape:?} not deterministic");
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn constant_shape_matches_cbr_density() {
        let cbr = {
            let fs = FlowSet::random_toward_victim(32, 1, 4);
            TrafficGenerator::new(17).generate(
                &fs,
                TrafficConfig {
                    packet_size: 64,
                    offered_gbps: 5.0,
                    count: 2_000,
                },
            )
        };
        let flat = shaped(17, RateShape::Constant);
        // Same packet budget within float-accumulation slack, same span.
        assert!(
            (flat.len() as i64 - cbr.len() as i64).unsigned_abs() <= 1,
            "{} vs {}",
            flat.len(),
            cbr.len()
        );
    }

    #[test]
    fn pulse_shape_emits_bursts_with_silent_gaps() {
        let period = 50_000u64;
        let duty = 0.3;
        let pkts = shaped(
            3,
            RateShape::Pulse {
                period_ns: period,
                duty,
            },
        );
        assert!(!pkts.is_empty());
        // Every packet falls inside an on-window; off-windows are empty.
        for p in &pkts {
            let phase = p.arrival_ns % period;
            assert!(
                (phase as f64) < duty * period as f64 + 1.0,
                "packet at {} (phase {phase}) outside the duty window",
                p.arrival_ns
            );
        }
        // The pulse train carries roughly duty × the CBR budget.
        let flat = shaped(3, RateShape::Constant).len() as f64;
        let ratio = pkts.len() as f64 / flat;
        assert!((0.2..0.4).contains(&ratio), "on-fraction {ratio}");
    }

    #[test]
    fn ramp_shape_densifies_toward_the_end() {
        let pkts = shaped(5, RateShape::Ramp { from: 0.2, to: 2.0 });
        assert!(pkts.len() > 10);
        let end = pkts.last().unwrap().arrival_ns;
        let first_half = pkts.iter().filter(|p| p.arrival_ns < end / 2).count();
        let second_half = pkts.len() - first_half;
        assert!(
            second_half > first_half * 2,
            "ramp not ramping: {first_half} vs {second_half}"
        );
        // Packet ids stay strictly sequential through shaped generation.
        assert!(pkts.windows(2).all(|w| w[1].id == w[0].id + 1));
    }

    #[test]
    fn ramp_from_silence_emits_half_the_budget() {
        // Regression: stepping the clock by `ia / factor` made a ramp out
        // of silence jump past the whole workload after one packet. The
        // credit-based walk must emit ≈ the integral of the factor: half
        // the CBR budget for a 0 → 1 ramp.
        let pkts = shaped(8, RateShape::Ramp { from: 0.0, to: 1.0 });
        let flat = shaped(8, RateShape::Constant).len() as f64;
        let ratio = pkts.len() as f64 / flat;
        assert!((0.4..0.6).contains(&ratio), "emitted fraction {ratio}");
        // And it actually ramps: nothing in the first tenth, plenty late.
        let end = pkts.last().unwrap().arrival_ns;
        let early = pkts.iter().filter(|p| p.arrival_ns < end / 10).count();
        assert!(early < pkts.len() / 20, "{early} packets in the first 10%");
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn pulse_rejects_zero_duty() {
        shaped(
            1,
            RateShape::Pulse {
                period_ns: 1000,
                duty: 0.0,
            },
        );
    }
}
