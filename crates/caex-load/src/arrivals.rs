//! Open-loop arrival processes.
//!
//! An open-loop generator decides arrival times *before* the system
//! responds: requests keep coming at the offered rate even while the
//! server is saturated, which is what exposes queueing collapse (a
//! closed-loop generator self-throttles and hides it). Two processes
//! are supported, both seeded and bit-reproducible:
//!
//! - `poisson:<rate>` — exponential inter-arrival gaps at `rate`
//!   actions per (virtual) second, the classic M/·/· arrival stream;
//! - `burst:<n>@<ms>` — `n` simultaneous arrivals every `ms`
//!   milliseconds, the adversarial bursty counterpart.

use caex_net::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// A parsed arrival process specification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalSpec {
    /// Poisson process: exponential gaps at `rate_per_sec` arrivals per
    /// virtual second.
    Poisson {
        /// Offered rate, actions per virtual second.
        rate_per_sec: f64,
    },
    /// Bursts of `group` simultaneous arrivals every `every`.
    Burst {
        /// Arrivals per burst.
        group: u32,
        /// Gap between consecutive bursts.
        every: SimTime,
    },
}

impl ArrivalSpec {
    /// Parses `poisson:<rate>` or `burst:<n>@<ms>`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the spec does not match
    /// either form, carries a non-positive rate/group/gap, or a gap
    /// whose microseconds do not fit in a `u64`.
    pub fn parse(spec: &str) -> Result<ArrivalSpec, String> {
        if let Some(rate) = spec.strip_prefix("poisson:") {
            let rate_per_sec: f64 = rate
                .parse()
                .map_err(|_| format!("bad poisson rate `{rate}`"))?;
            if !(rate_per_sec > 0.0) || !rate_per_sec.is_finite() {
                return Err(format!("poisson rate must be positive, got {rate_per_sec}"));
            }
            return Ok(ArrivalSpec::Poisson { rate_per_sec });
        }
        if let Some(rest) = spec.strip_prefix("burst:") {
            let (n, ms) = rest
                .split_once('@')
                .ok_or_else(|| format!("burst spec `{rest}` needs <n>@<ms>"))?;
            let group: u32 = n.parse().map_err(|_| format!("bad burst size `{n}`"))?;
            let millis: u64 = ms.parse().map_err(|_| format!("bad burst gap `{ms}`"))?;
            if group == 0 || millis == 0 {
                return Err("burst size and gap must be positive".into());
            }
            let every = millis.checked_mul(1_000).map(SimTime::from_micros);
            let every =
                every.ok_or_else(|| format!("burst gap `{ms}` ms does not fit in microseconds"))?;
            return Ok(ArrivalSpec::Burst { group, every });
        }
        Err(format!(
            "unknown arrival spec `{spec}` (expected poisson:<rate> or burst:<n>@<ms>)"
        ))
    }

    /// The offered rate in actions per virtual second.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn offered_per_sec(&self) -> f64 {
        match *self {
            ArrivalSpec::Poisson { rate_per_sec } => rate_per_sec,
            ArrivalSpec::Burst { group, every } => {
                f64::from(group) * 1_000_000.0 / every.as_micros() as f64
            }
        }
    }

    /// Generates the first `k` arrival times of the process, sorted,
    /// deterministically from `seed`. (Burst schedules ignore the seed
    /// — they are already deterministic.)
    #[must_use]
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn schedule(&self, k: usize, seed: u64) -> Vec<SimTime> {
        match *self {
            ArrivalSpec::Poisson { rate_per_sec } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut at_us = 0.0_f64;
                (0..k)
                    .map(|_| {
                        // Inverse-CDF exponential draw; the open
                        // interval keeps ln() finite.
                        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                        at_us += -u.ln() * 1_000_000.0 / rate_per_sec;
                        SimTime::from_micros(at_us as u64)
                    })
                    .collect()
            }
            ArrivalSpec::Burst { group, every } => (0..k)
                .map(|i| {
                    let burst = (i / group as usize) as u64;
                    // Saturates: a far-off burst stays at the end of time.
                    SimTime::from_micros(burst.saturating_mul(every.as_micros()))
                })
                .collect(),
        }
    }
}

impl fmt::Display for ArrivalSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ArrivalSpec::Poisson { rate_per_sec } => write!(f, "poisson:{rate_per_sec}"),
            ArrivalSpec::Burst { group, every } => {
                write!(f, "burst:{group}@{}", every.as_micros() / 1000)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_both_forms_and_rejects_junk() {
        assert_eq!(
            ArrivalSpec::parse("poisson:1500").unwrap(),
            ArrivalSpec::Poisson { rate_per_sec: 1500.0 }
        );
        assert_eq!(
            ArrivalSpec::parse("burst:8@5").unwrap(),
            ArrivalSpec::Burst { group: 8, every: SimTime::from_millis(5) }
        );
        assert!(ArrivalSpec::parse("poisson:-3").is_err());
        assert!(ArrivalSpec::parse("burst:0@5").is_err());
        assert!(ArrivalSpec::parse("uniform:10").is_err());
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_near_rate() {
        let spec = ArrivalSpec::parse("poisson:1000").unwrap();
        let a = spec.schedule(2000, 7);
        let b = spec.schedule(2000, 7);
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, spec.schedule(2000, 8), "different seed, different gaps");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "sorted");
        // 2000 arrivals at 1000/s should span roughly 2 virtual
        // seconds; allow a generous statistical margin.
        let span = a.last().unwrap().as_micros();
        assert!((1_500_000..2_500_000).contains(&span), "span {span}us");
    }

    #[test]
    fn burst_schedule_groups_arrivals() {
        let spec = ArrivalSpec::parse("burst:3@10").unwrap();
        let times = spec.schedule(7, 0);
        let us: Vec<u64> = times.iter().map(|t| t.as_micros()).collect();
        assert_eq!(us, vec![0, 0, 0, 10_000, 10_000, 10_000, 20_000]);
        assert!((spec.offered_per_sec() - 300.0).abs() < 1e-9);
    }
}
