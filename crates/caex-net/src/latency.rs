//! Message-latency models for the simulator.

use crate::SimTime;
use rand::Rng;

/// How long a message spends in flight between two nodes.
///
/// All random models draw from the simulator's seeded RNG, so runs are
/// reproducible. FIFO ordering is enforced by the simulator regardless of
/// the jitter a model produces (a later message never overtakes an
/// earlier one on the same ordered pair).
///
/// # Examples
///
/// ```
/// use caex_net::{LatencyModel, SimTime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let model = LatencyModel::Uniform {
///     min: SimTime::from_micros(50),
///     max: SimTime::from_micros(150),
/// };
/// let d = model.sample(&mut rng);
/// assert!(d >= SimTime::from_micros(50) && d <= SimTime::from_micros(150));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimTime),
    /// Latency drawn uniformly from `[min, max]`.
    Uniform {
        /// Lower bound (inclusive).
        min: SimTime,
        /// Upper bound (inclusive).
        max: SimTime,
    },
    /// Exponentially distributed latency with the given mean, floored at
    /// `min` — a common heavy-ish-tail model for shared networks.
    Exponential {
        /// Floor added to every sample.
        min: SimTime,
        /// Mean of the exponential component.
        mean: SimTime,
    },
}

impl LatencyModel {
    /// A zero-latency model: messages arrive instantly (but still in
    /// FIFO order and after currently queued events).
    #[must_use]
    pub fn zero() -> Self {
        LatencyModel::Constant(SimTime::ZERO)
    }

    /// `true` for [`LatencyModel::Constant`]: every sample is the same.
    pub(crate) fn is_constant(&self) -> bool {
        matches!(self, LatencyModel::Constant(_))
    }

    /// Draws one latency sample using `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimTime {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                debug_assert!(min <= max, "uniform latency bounds inverted");
                if min == max {
                    min
                } else {
                    SimTime::from_micros(rng.gen_range(min.as_micros()..=max.as_micros()))
                }
            }
            LatencyModel::Exponential { min, mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                let exp = -(u.ln()) * mean.as_micros() as f64;
                min + SimTime::from_micros(exp as u64)
            }
        }
    }
}

impl Default for LatencyModel {
    /// A 100µs constant latency — a deliberately non-zero default so that
    /// "message passing time is not negligible" (§2.1) holds out of the
    /// box.
    fn default() -> Self {
        LatencyModel::Constant(SimTime::from_micros(100))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LatencyModel::Constant(SimTime::from_micros(42));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimTime::from_micros(42));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LatencyModel::Uniform {
            min: SimTime::from_micros(10),
            max: SimTime::from_micros(20),
        };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimTime::from_micros(10) && d <= SimTime::from_micros(20));
        }
    }

    #[test]
    fn uniform_degenerate_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LatencyModel::Uniform {
            min: SimTime::from_micros(5),
            max: SimTime::from_micros(5),
        };
        assert_eq!(m.sample(&mut rng), SimTime::from_micros(5));
    }

    #[test]
    fn exponential_respects_floor() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = LatencyModel::Exponential {
            min: SimTime::from_micros(30),
            mean: SimTime::from_micros(100),
        };
        for _ in 0..1000 {
            assert!(m.sample(&mut rng) >= SimTime::from_micros(30));
        }
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = LatencyModel::Exponential {
            min: SimTime::ZERO,
            mean: SimTime::from_micros(100),
        };
        let n = 20_000;
        let total: u64 = (0..n).map(|_| m.sample(&mut rng).as_micros()).sum();
        let mean = total as f64 / n as f64;
        assert!((80.0..120.0).contains(&mean), "sample mean {mean}");
    }

    #[test]
    fn sampling_is_deterministic_under_seed() {
        let m = LatencyModel::Uniform {
            min: SimTime::ZERO,
            max: SimTime::from_micros(1000),
        };
        let seq = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..20).map(|_| m.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(seq(9), seq(9));
        assert_ne!(seq(9), seq(10));
    }
}
