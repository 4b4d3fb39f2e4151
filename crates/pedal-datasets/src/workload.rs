//! Open-loop workload generation for fleet-scale serving benchmarks.
//!
//! Closed-loop benches (submit, wait, submit) let the system set the
//! pace, which hides overload: a saturated server simply slows its own
//! clients down. An *open-loop* generator draws arrival instants from a
//! stochastic process independent of the system under test, so offered
//! load keeps arriving whether or not the fleet keeps up — the only
//! honest way to measure shed rates and tail-latency SLOs.
//!
//! Two arrival processes are provided, both fully seeded:
//!
//! - **Poisson** — exponential inter-arrival gaps at a constant mean
//!   rate, the classic memoryless baseline.
//! - **Bursty** — a deterministic phase schedule alternating calm and
//!   burst windows (a synthetic stand-in for trace-driven diurnal /
//!   incident traffic), with Poisson gaps *within* each phase at that
//!   phase's rate.
//!
//! Tenants model a real multi-tenant fleet: a small pool of *paying*
//! tenants (ids `0..paying_tenants`) plus a huge best-effort id space
//! (millions of virtual tenants, each appearing in only a handful of
//! jobs). Every field of every [`Arrival`] is a pure function of the
//! seed and the config.

use crate::DatasetId;
use pedal_dpu::rng::Pcg32;
use pedal_dpu::{SimDuration, SimInstant};

/// The arrival process shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean gap.
    Poisson {
        /// Mean inter-arrival gap.
        mean_gap: SimDuration,
    },
    /// Alternating calm/burst phases; Poisson within each phase. The
    /// phase schedule is deterministic (phase = time / period).
    Bursty {
        /// Mean gap during calm phases.
        calm_gap: SimDuration,
        /// Mean gap during burst phases (smaller = heavier bursts).
        burst_gap: SimDuration,
        /// Length of one calm+burst cycle.
        period: SimDuration,
        /// Leading fraction of each cycle that bursts, in percent
        /// (e.g. 25 = the first quarter of every period is a burst).
        burst_pct: u32,
    },
}

/// Configuration for one seeded open-loop trace.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    pub seed: u64,
    pub process: ArrivalProcess,
    /// Total virtual time covered by the trace.
    pub span: SimDuration,
    /// Paying-tenant pool size (ids `0..paying_tenants`).
    pub paying_tenants: u32,
    /// Best-effort tenant id space (ids `paying_tenants..paying_tenants
    /// + tenant_space`); millions of virtual tenants, sampled uniformly.
    pub tenant_space: u32,
    /// Percent of jobs issued by paying tenants (0..=100).
    pub paying_pct: u32,
    /// Per-job payload size range in bytes (inclusive).
    pub payload_min: usize,
    pub payload_max: usize,
    /// Round every drawn payload size up to a multiple of this (1 = no
    /// rounding). Mixed traces with float columns use 4 so numeric
    /// payloads stay element-aligned end to end.
    pub payload_align: usize,
    /// Datasets the payload mix cycles through (compressibility mix).
    pub datasets: Vec<DatasetId>,
}

impl OpenLoopConfig {
    /// A small paying pool over a 4-million-tenant best-effort space,
    /// Poisson arrivals, mixed-compressibility payloads.
    pub fn poisson(seed: u64, mean_gap: SimDuration, span: SimDuration) -> Self {
        Self {
            seed,
            process: ArrivalProcess::Poisson { mean_gap },
            span,
            paying_tenants: 32,
            tenant_space: 4_000_000,
            paying_pct: 25,
            payload_min: 8 << 10,
            payload_max: 64 << 10,
            payload_align: 1,
            datasets: vec![DatasetId::SilesiaXml, DatasetId::SilesiaSamba, DatasetId::ObsError],
        }
    }

    /// An adversarial mixed-compressibility trace for adaptive-policy
    /// benches: compressible log text, incompressible random blobs, and
    /// pco-friendly float columns interleaved uniformly. Payload sizes
    /// are 4-byte aligned so float-column messages stay element-aligned.
    pub fn mixed(seed: u64, mean_gap: SimDuration, span: SimDuration) -> Self {
        Self {
            payload_align: 4,
            datasets: DatasetId::MIXED.to_vec(),
            ..Self::poisson(seed, mean_gap, span)
        }
    }

    /// Same tenant/payload mix with a calm/burst phase schedule.
    pub fn bursty(
        seed: u64,
        calm_gap: SimDuration,
        burst_gap: SimDuration,
        period: SimDuration,
        span: SimDuration,
    ) -> Self {
        Self {
            process: ArrivalProcess::Bursty { calm_gap, burst_gap, period, burst_pct: 25 },
            ..Self::poisson(seed, calm_gap, span)
        }
    }

    pub fn with_payload(mut self, min: usize, max: usize) -> Self {
        assert!(min > 0 && min <= max, "payload range must be non-empty");
        self.payload_min = min;
        self.payload_max = max;
        self
    }
}

/// One open-loop job arrival. `seq` is the trace position (stable tie
/// order for simultaneous arrivals); payload bytes are materialized
/// lazily via [`Arrival::payload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub seq: u64,
    pub at: SimInstant,
    pub tenant: u32,
    pub dataset: DatasetId,
    pub bytes: usize,
}

impl Arrival {
    /// Materialize the payload (seeded dataset generator — identical
    /// bytes for identical `(dataset, bytes)`).
    pub fn payload(&self) -> Vec<u8> {
        self.dataset.generate_bytes(self.bytes)
    }
}

/// Draw an exponential gap with the given mean from `rng`, quantized to
/// whole nanoseconds (so the trace is exactly reproducible from the
/// integer stream alone).
fn exp_gap(rng: &mut Pcg32, mean: SimDuration) -> SimDuration {
    // next_f64 is in [0, 1); reflect to (0, 1] so ln() stays finite.
    let u = 1.0 - rng.next_f64();
    let gap = -(u.ln()) * mean.as_nanos() as f64;
    // Cap at 64x the mean: keeps a single unlucky draw from swallowing
    // the whole trace span while perturbing the distribution tail only
    // past e^-64. Compare in f64 *before* converting so a huge or
    // non-finite draw can never reach the cast (Rust's saturating float
    // casts would cope, but NaN would silently become 0 — a duplicate
    // arrival instant).
    let cap = mean.as_nanos().saturating_mul(64).max(1);
    let ns = if gap.is_finite() && gap < cap as f64 { gap as u64 } else { cap };
    // Truncation can yield 0 for sub-nanosecond draws (tiny means make
    // this common); a zero gap duplicates the previous arrival instant
    // and breaks the strict monotonicity fleet replay ordering relies
    // on. Clamp to the 1 ns simulation quantum.
    SimDuration::from_nanos(ns.max(1))
}

/// In a bursty schedule, is instant `t` inside a burst phase?
fn in_burst(t: SimInstant, period: SimDuration, burst_pct: u32) -> bool {
    let phase = t.0 % period.as_nanos().max(1);
    phase * 100 < period.as_nanos() * burst_pct as u64
}

/// Generate the full arrival trace for `cfg`, ordered by arrival
/// instant. Deterministic: same config (including seed) ⇒ identical
/// trace, independent of host, thread count, or wall-clock.
pub fn generate_arrivals(cfg: &OpenLoopConfig) -> Vec<Arrival> {
    assert!(!cfg.datasets.is_empty(), "need at least one dataset in the mix");
    assert!(cfg.payload_min > 0 && cfg.payload_min <= cfg.payload_max);
    let mut rng = Pcg32::seed_from_u64(cfg.seed ^ 0x4f50_454e_4c4f_4f50); // "OPENLOOP"
    let mut out = Vec::new();
    let mut t = SimInstant::EPOCH;
    let mut seq = 0u64;
    loop {
        let mean = match cfg.process {
            ArrivalProcess::Poisson { mean_gap } => mean_gap,
            ArrivalProcess::Bursty { calm_gap, burst_gap, period, burst_pct } => {
                if in_burst(t, period, burst_pct) {
                    burst_gap
                } else {
                    calm_gap
                }
            }
        };
        t = t + exp_gap(&mut rng, mean);
        if t.elapsed_since(SimInstant::EPOCH) >= cfg.span {
            break;
        }
        let paying = cfg.paying_tenants > 0 && rng.gen_range(0u32..100) < cfg.paying_pct;
        let tenant = if paying {
            rng.gen_range(0..cfg.paying_tenants)
        } else {
            cfg.paying_tenants + rng.gen_range(0..cfg.tenant_space.max(1))
        };
        let dataset = cfg.datasets[(rng.next_u32() as usize) % cfg.datasets.len()];
        // Rounding up may exceed payload_max by at most align-1 bytes.
        let align = cfg.payload_align.max(1);
        let bytes = rng.gen_range(cfg.payload_min..=cfg.payload_max).next_multiple_of(align);
        out.push(Arrival { seq, at: t, tenant, dataset, bytes });
        seq += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> OpenLoopConfig {
        OpenLoopConfig::poisson(7, SimDuration::from_micros(50), SimDuration::from_millis(20))
    }

    #[test]
    fn trace_is_deterministic_and_ordered() {
        let a = generate_arrivals(&base());
        let b = generate_arrivals(&base());
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for w in a.windows(2) {
            assert!(w[0].at.0 < w[1].at.0, "duplicate or out-of-order arrival instants");
            assert_eq!(w[0].seq + 1, w[1].seq);
        }
    }

    #[test]
    fn tiny_mean_gaps_stay_strictly_monotone() {
        // Regression: sub-nanosecond exponential draws truncate to 0 ns,
        // which used to duplicate arrival instants. With a 1 ns mean the
        // *majority* of raw draws truncate to zero, so any regression
        // shows up immediately as a duplicate instant.
        for mean_ns in [1u64, 2, 3, 10] {
            let cfg = OpenLoopConfig::poisson(13, SimDuration(mean_ns), SimDuration(50_000));
            let arr = generate_arrivals(&cfg);
            assert!(arr.len() > 1_000, "tiny mean should pack the span (got {})", arr.len());
            for w in arr.windows(2) {
                assert!(
                    w[0].at.0 < w[1].at.0,
                    "duplicate instant at seq {} (mean {mean_ns} ns)",
                    w[1].seq
                );
            }
        }
        // And the gap clamp itself: a tiny mean can never emit a zero gap
        // or overshoot the 64x cap, even across many draws.
        let mut rng = Pcg32::seed_from_u64(99);
        for _ in 0..10_000 {
            let g = exp_gap(&mut rng, SimDuration(1));
            assert!((1..=64).contains(&g.as_nanos()), "gap {} out of [1, 64]", g.as_nanos());
        }
    }

    #[test]
    fn distinct_seeds_give_distinct_traces() {
        let a = generate_arrivals(&base());
        let mut cfg = base();
        cfg.seed = 8;
        let b = generate_arrivals(&cfg);
        assert_ne!(a, b);
    }

    #[test]
    fn poisson_rate_is_roughly_the_mean() {
        // 20 ms span at a 50 us mean gap ⇒ ~400 arrivals. Allow wide
        // stochastic slack; the point is open-loop pacing, not a
        // statistics test.
        let n = generate_arrivals(&base()).len();
        assert!((200..=800).contains(&n), "got {n} arrivals, expected ~400");
    }

    #[test]
    fn tenant_mix_spans_paying_and_best_effort() {
        let arr = generate_arrivals(&base());
        let paying = arr.iter().filter(|a| a.tenant < 32).count();
        let best_effort = arr.len() - paying;
        assert!(paying > 0, "no paying arrivals");
        assert!(best_effort > 0, "no best-effort arrivals");
        // Best-effort ids are drawn from the huge virtual space.
        assert!(arr.iter().any(|a| a.tenant > 1_000_000), "tenant space not exercised");
        // Payload sizes respect the configured range.
        for a in &arr {
            assert!((8 << 10..=64 << 10).contains(&a.bytes));
        }
    }

    #[test]
    fn bursty_phases_modulate_density() {
        let period = SimDuration::from_millis(4);
        let cfg = OpenLoopConfig::bursty(
            11,
            SimDuration::from_micros(200),
            SimDuration::from_micros(10),
            period,
            SimDuration::from_millis(20),
        );
        let arr = generate_arrivals(&cfg);
        let (mut burst, mut calm) = (0usize, 0usize);
        for a in &arr {
            if in_burst(a.at, period, 25) {
                burst += 1;
            } else {
                calm += 1;
            }
        }
        // The burst quarter runs 20x denser than the calm rest; even
        // with slack it must dominate the count.
        assert!(burst > calm, "burst {burst} <= calm {calm}: phases not modulating");
    }

    #[test]
    fn mixed_trace_interleaves_all_three_classes_aligned() {
        let cfg =
            OpenLoopConfig::mixed(21, SimDuration::from_micros(50), SimDuration::from_millis(10));
        let a = generate_arrivals(&cfg);
        let b = generate_arrivals(&cfg);
        assert_eq!(a, b, "mixed trace must be deterministic");
        for id in DatasetId::MIXED {
            assert!(a.iter().any(|x| x.dataset == id), "{} missing from mix", id.name());
        }
        for x in &a {
            assert_eq!(x.bytes % 4, 0, "unaligned payload at seq {}", x.seq);
            assert!(x.bytes >= 8 << 10);
        }
    }

    #[test]
    fn payload_materialization_is_stable() {
        let arr = generate_arrivals(&base());
        let a = &arr[0];
        assert_eq!(a.payload(), a.payload());
        assert_eq!(a.payload().len(), a.bytes);
    }
}
