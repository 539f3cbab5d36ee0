//! Phi-accrual failure estimation (Hayashibara et al., SRDS 2004,
//! simplified to an exponential inter-arrival model).
//!
//! A fixed crash timeout forces one global answer to "how long is too
//! long?" — too short and a latency spike amputates a healthy peer,
//! too long and every real crash stalls resolution. The accrual
//! detector answers on a *continuous* scale instead: each peer's
//! heartbeat inter-arrival history yields a mean interval, and the
//! current silence is scored as
//!
//! ```text
//! φ(silence) = silence / (mean · ln 10)
//! ```
//!
//! which is `−log10` of the probability that an exponentially
//! distributed inter-arrival with that mean exceeds `silence`. φ = 1
//! means "this silence had a 10% chance under normal jitter"; φ = 8
//! means one in 10⁸. Consumers pick two thresholds: a low one to
//! *suspect* (informational, reversible) and a high one to *confirm*
//! (the peer is excluded as a §4.2 deserter). A latency spike raises
//! suspicion and then subsides; only sustained silence accrues enough
//! φ to confirm.
//!
//! The mean is floored at the configured heartbeat interval, so a
//! burst of back-to-back frames (e.g. a socket buffer draining after a
//! healed partition) cannot shrink the mean toward zero and turn the
//! next ordinary gap into a false alarm.

use std::collections::VecDeque;
use std::f64::consts::LN_10;

/// Sliding-window estimator of one peer's heartbeat inter-arrival
/// distribution, queried as a suspicion level φ.
#[derive(Debug, Clone)]
pub(crate) struct PhiEstimator {
    /// Most recent inter-arrival gaps, seconds, oldest first.
    intervals: VecDeque<f64>,
    /// Window capacity; older samples fall off.
    window: usize,
    /// Lower bound on the estimated mean, seconds (the heartbeat
    /// interval: gaps can't meaningfully be shorter than the cadence).
    floor: f64,
}

impl PhiEstimator {
    /// A fresh estimator with the given window capacity and mean floor
    /// (both from [`crate::wire::WireConfig`]).
    #[must_use]
    pub(crate) fn new(window: usize, floor: f64) -> PhiEstimator {
        PhiEstimator {
            intervals: VecDeque::with_capacity(window.max(1)),
            window: window.max(1),
            floor: floor.max(1e-6),
        }
    }

    /// Records one observed inter-arrival gap, seconds. Non-finite or
    /// negative samples are ignored (a clock hiccup is not evidence).
    pub(crate) fn observe(&mut self, interval_secs: f64) {
        if !interval_secs.is_finite() || interval_secs < 0.0 {
            return;
        }
        if self.intervals.len() == self.window {
            self.intervals.pop_front();
        }
        self.intervals.push_back(interval_secs);
    }

    /// The estimated mean inter-arrival, seconds — the window average,
    /// floored at the heartbeat interval. With no samples yet the
    /// floor itself is the estimate, so a peer that never spoke still
    /// accrues suspicion at the configured cadence.
    #[must_use]
    pub(crate) fn mean(&self) -> f64 {
        if self.intervals.is_empty() {
            return self.floor;
        }
        #[allow(clippy::cast_precision_loss)] // window sizes are small
        let avg = self.intervals.iter().sum::<f64>() / self.intervals.len() as f64;
        avg.max(self.floor)
    }

    /// φ after `silence_secs` of silence: `silence / (mean · ln 10)`.
    /// Monotonically non-decreasing in silence; zero at zero silence.
    #[must_use]
    pub(crate) fn phi(&self, silence_secs: f64) -> f64 {
        silence_secs.max(0.0) / (self.mean() * LN_10)
    }
}

/// The φ threshold whose detection latency matches a fixed crash
/// timeout under nominal heartbeat cadence: `timeout / (heartbeat ·
/// ln 10)`. This is how the legacy `--crash-timeout-ms` flag maps onto
/// the accrual detector.
#[must_use]
pub(crate) fn phi_for_timeout(timeout_secs: f64, heartbeat_secs: f64) -> f64 {
    timeout_secs / (heartbeat_secs.max(1e-6) * LN_10)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_estimator_accrues_at_the_floor_cadence() {
        let e = PhiEstimator::new(16, 0.05);
        assert!((e.mean() - 0.05).abs() < 1e-12);
        // One heartbeat of silence is φ = 1/ln10 ≈ 0.43 — nowhere near
        // suspicion, let alone confirmation.
        assert!(e.phi(0.05) < 0.5);
        assert!(e.phi(1.0) > 8.0, "a second of silence at 50ms cadence confirms");
    }

    #[test]
    fn window_slides_and_mean_tracks_recent_history() {
        let mut e = PhiEstimator::new(4, 0.01);
        for _ in 0..4 {
            e.observe(0.1);
        }
        assert!((e.mean() - 0.1).abs() < 1e-12);
        // Four faster samples push the slow ones out entirely.
        for _ in 0..4 {
            e.observe(0.02);
        }
        assert!((e.mean() - 0.02).abs() < 1e-12);
        assert_eq!(e.intervals.len(), 4);
    }

    #[test]
    fn mean_is_floored_against_burst_drains() {
        let mut e = PhiEstimator::new(8, 0.05);
        // A buffered backlog drains as near-zero gaps (healed
        // partition); the floor keeps φ calibrated to the cadence.
        for _ in 0..8 {
            e.observe(0.0001);
        }
        assert!((e.mean() - 0.05).abs() < 1e-12);
        assert!(e.phi(0.06) < 1.0);
    }

    #[test]
    fn bad_samples_are_ignored() {
        let mut e = PhiEstimator::new(8, 0.05);
        e.observe(f64::NAN);
        e.observe(f64::INFINITY);
        e.observe(-1.0);
        assert_eq!(e.intervals.len(), 0);
    }

    #[test]
    fn timeout_mapping_round_trips() {
        // The harness's legacy tuning: 400ms timeout on a 40ms
        // heartbeat maps to φ ≈ 4.34, and an empty estimator with a
        // 40ms floor reaches that φ at exactly 400ms of silence.
        let phi = phi_for_timeout(0.4, 0.04);
        let e = PhiEstimator::new(16, 0.04);
        assert!((e.phi(0.4) - phi).abs() < 1e-9);
        assert!(e.phi(0.399) < phi);
        assert!(e.phi(0.401) > phi);
    }

    /// Milli-units → seconds; the vendored proptest shim only offers
    /// integer range strategies, so the properties draw millis.
    fn sec(millis: u32) -> f64 {
        f64::from(millis) / 1000.0
    }

    proptest! {
        /// φ is monotone in silence: more silence never lowers
        /// suspicion.
        #[test]
        fn phi_is_monotone_in_silence(
            gaps in prop::collection::vec(1u32..500, 0..32),
            s1 in 0u32..10_000,
            s2 in 0u32..10_000,
        ) {
            let mut e = PhiEstimator::new(16, 0.05);
            for g in gaps {
                e.observe(sec(g));
            }
            let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
            prop_assert!(e.phi(sec(lo)) <= e.phi(sec(hi)));
        }

        /// Under jittered heartbeats bounded by `[h, 2h]`, φ is
        /// bounded both ways: at most `silence/(h·ln10)` (the floor
        /// bound) and at least `silence/(2h·ln10)` (the slowest
        /// plausible mean) — the estimator can't be gamed into either
        /// paranoia or complacency by jitter alone.
        #[test]
        fn phi_is_bounded_under_jittered_heartbeats(
            gaps in prop::collection::vec(50u32..100, 1..64),
            silence in 0u32..5_000,
        ) {
            let h = 0.05;
            let silence = sec(silence);
            let mut e = PhiEstimator::new(64, h);
            for g in gaps {
                e.observe(sec(g));
            }
            prop_assert!(e.phi(silence) <= silence / (h * LN_10) + 1e-9);
            prop_assert!(e.phi(silence) >= silence / (2.0 * h * LN_10) - 1e-9);
        }

        /// The delay-spike palette: mostly nominal gaps with occasional
        /// spikes up to 5× the cadence — the healed-partition latency
        /// profile `FaultPlan::with_healing_partition` produces, where
        /// deferred traffic arrives as a late burst. No gap in the
        /// palette may ever reach the default confirmation threshold:
        /// spikes suspect, only death confirms.
        #[test]
        fn delay_spikes_never_reach_confirmation(
            palette in prop::collection::vec((0u8..5, 0u32..1_000), 1..128),
        ) {
            let h = 0.05;
            let phi_confirm = 8.0;
            let mut e = PhiEstimator::new(64, h);
            // 4-in-5 nominal heartbeat jitter (40..60ms), 1-in-5
            // spike up to 5× the cadence (100..250ms).
            let palette = palette.into_iter().map(|(pick, frac)| {
                let frac = f64::from(frac) / 1000.0;
                if pick < 4 { 0.04 + frac * 0.02 } else { 0.1 + frac * 0.15 }
            });
            for gap in palette {
                // φ evaluated at the worst moment: just before the
                // late frame finally lands.
                prop_assert!(
                    e.phi(gap) < phi_confirm,
                    "gap {gap} confirmed at φ {}", e.phi(gap)
                );
                e.observe(gap);
            }
        }
    }
}
