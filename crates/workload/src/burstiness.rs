//! Burstiness injection via a two-state Markov-modulated process.
//!
//! The paper injects burstiness into the closed workload following Mi et
//! al. \[40\], characterising it with the asymptotic *index of dispersion
//! for counts* `I`. We use a two-state modulated environment: a *normal*
//! state and a *burst* state with a higher arrival intensity; users'
//! think-time means are divided by the current state's intensity
//! multiplier, so all users surge together — exactly what produces the
//! aggregate traffic surges of Fig. 13.
//!
//! For an MMPP(2) with arrival rates `λ₁, λ₂` and switching rates
//! `r₁ (1→2), r₂ (2→1)` the asymptotic index of dispersion is
//!
//! ```text
//! I = 1 + 2 (λ₁−λ₂)² r₁ r₂ / ((r₁+r₂)² (λ₁ r₂ + λ₂ r₁))
//! ```
//!
//! Fixing the stationary burst fraction `p = r₁/(r₁+r₂)` and the burst
//! multiplier `k = λ₂/λ₁`, `I` depends on the overall switching speed
//! `c = r₁ + r₂` as `I = 1 + 2 (λ₁−λ₂)² p (1−p) / (c λ̄)`, which inverts
//! in closed form — see [`Mmpp2::calibrated`].

use serde::{Deserialize, Serialize};

use atom_sim::SimRng;

/// Target burstiness for a workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BurstinessSpec {
    /// Asymptotic index of dispersion for counts (`I` in the paper;
    /// `I = 1` is a Poisson-like process, the paper uses 400 and 4000).
    pub index_of_dispersion: f64,
    /// Stationary fraction of time spent in the burst state (default
    /// 0.1).
    pub burst_fraction: f64,
    /// Ratio of burst to normal arrival intensity (default 8).
    pub burst_multiplier: f64,
}

impl Default for BurstinessSpec {
    fn default() -> Self {
        BurstinessSpec {
            index_of_dispersion: 1.0,
            burst_fraction: 0.1,
            burst_multiplier: 8.0,
        }
    }
}

/// The modulating environment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Normal traffic intensity.
    Normal,
    /// Burst: intensified traffic.
    Burst,
}

/// A calibrated two-state Markov-modulated process.
///
/// Drive it with [`Mmpp2::advance`] inside a simulation, or query the
/// closed-form [`Mmpp2::index_of_dispersion`] in tests.
#[derive(Debug, Clone)]
pub struct Mmpp2 {
    /// Intensity multiplier in the normal state (λ₁ / λ̄ < 1).
    normal_multiplier: f64,
    /// Intensity multiplier in the burst state (λ₂ / λ̄ > 1).
    burst_multiplier: f64,
    /// Mean sojourn in the normal state (seconds).
    normal_sojourn: f64,
    /// Mean sojourn in the burst state (seconds).
    burst_sojourn: f64,
    phase: Phase,
    next_switch: f64,
}

impl Mmpp2 {
    /// Calibrates a process to a target [`BurstinessSpec`] given the
    /// nominal mean arrival rate `mean_rate` (requests/second).
    ///
    /// # Panics
    ///
    /// Panics if `mean_rate <= 0`, `index_of_dispersion < 1`,
    /// `burst_fraction` outside `(0, 1)`, or `burst_multiplier <= 1`.
    pub fn calibrated(mean_rate: f64, spec: BurstinessSpec, rng: &mut SimRng) -> Self {
        assert!(mean_rate > 0.0, "mean rate must be positive");
        assert!(
            spec.index_of_dispersion >= 1.0,
            "index of dispersion must be >= 1"
        );
        assert!(
            spec.burst_fraction > 0.0 && spec.burst_fraction < 1.0,
            "burst fraction must be in (0, 1)"
        );
        assert!(spec.burst_multiplier > 1.0, "burst multiplier must be > 1");
        let p = spec.burst_fraction;
        let k = spec.burst_multiplier;
        // λ̄ = (1-p)λ₁ + p λ₂, λ₂ = k λ₁  →  λ₁ = λ̄ / (1 - p + k p).
        let lambda1 = mean_rate / (1.0 - p + k * p);
        let lambda2 = k * lambda1;
        let i_minus_1 = (spec.index_of_dispersion - 1.0).max(1e-9);
        // c = r₁ + r₂ from the closed form in the module docs.
        let c = 2.0 * (lambda1 - lambda2).powi(2) * p * (1.0 - p) / (i_minus_1 * mean_rate);
        let r1 = c * p; // normal → burst
        let r2 = c * (1.0 - p); // burst → normal
        let phase = if rng.bernoulli(p) {
            Phase::Burst
        } else {
            Phase::Normal
        };
        let mut mmpp = Mmpp2 {
            normal_multiplier: lambda1 / mean_rate,
            burst_multiplier: lambda2 / mean_rate,
            normal_sojourn: 1.0 / r1,
            burst_sojourn: 1.0 / r2,
            phase,
            next_switch: 0.0,
        };
        mmpp.next_switch = mmpp.sample_sojourn(0.0, rng);
        mmpp
    }

    fn sample_sojourn(&self, now: f64, rng: &mut SimRng) -> f64 {
        let mean = match self.phase {
            Phase::Normal => self.normal_sojourn,
            Phase::Burst => self.burst_sojourn,
        };
        now + rng.exponential(mean)
    }

    /// Advances the environment to time `now` and returns the current
    /// intensity multiplier (to divide think times by).
    pub fn advance(&mut self, now: f64, rng: &mut SimRng) -> f64 {
        while now >= self.next_switch {
            self.phase = match self.phase {
                Phase::Normal => Phase::Burst,
                Phase::Burst => Phase::Normal,
            };
            let from = self.next_switch;
            self.next_switch = self.sample_sojourn(from, rng);
        }
        self.intensity()
    }

    /// Current intensity multiplier without advancing time.
    pub(crate) fn intensity(&self) -> f64 {
        match self.phase {
            Phase::Normal => self.normal_multiplier,
            Phase::Burst => self.burst_multiplier,
        }
    }

    /// Closed-form asymptotic index of dispersion of the calibrated
    /// process (should reproduce the spec's target).
    pub fn index_of_dispersion(&self, mean_rate: f64) -> f64 {
        let l1 = self.normal_multiplier * mean_rate;
        let l2 = self.burst_multiplier * mean_rate;
        let r1 = 1.0 / self.normal_sojourn;
        let r2 = 1.0 / self.burst_sojourn;
        1.0 + 2.0 * (l1 - l2).powi(2) * r1 * r2 / ((r1 + r2).powi(2) * (l1 * r2 + l2 * r1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Empirical index of dispersion of counts: `Var / Mean` of the event
    /// counts in `window`-second bins over `[0, horizon]` (large windows
    /// approach the asymptotic `I`).
    fn empirical_index_of_dispersion(events: &[f64], horizon: f64, window: f64) -> f64 {
        let bins = (horizon / window).floor() as usize;
        let mut counts = vec![0u64; bins];
        for &t in events.iter().filter(|&&t| t < bins as f64 * window) {
            counts[(t / window) as usize] += 1;
        }
        let n = bins as f64;
        let mean = counts.iter().sum::<u64>() as f64 / n;
        let var = counts
            .iter()
            .map(|&c| (c as f64 - mean).powi(2))
            .sum::<f64>()
            / (n - 1.0);
        var / mean
    }

    #[test]
    fn calibration_reproduces_target_index() {
        let mut rng = SimRng::seed_from(1);
        for target in [50.0, 400.0, 4000.0] {
            let spec = BurstinessSpec {
                index_of_dispersion: target,
                ..Default::default()
            };
            let mmpp = Mmpp2::calibrated(70.0, spec, &mut rng);
            let i = mmpp.index_of_dispersion(70.0);
            assert!(
                (i - target).abs() / target < 1e-9,
                "target {target} got {i}"
            );
        }
    }

    #[test]
    fn mean_intensity_is_one() {
        let mut rng = SimRng::seed_from(2);
        let spec = BurstinessSpec {
            index_of_dispersion: 400.0,
            burst_fraction: 0.1,
            burst_multiplier: 8.0,
        };
        let mmpp = Mmpp2::calibrated(10.0, spec, &mut rng);
        let mean = 0.9 * mmpp.normal_multiplier + 0.1 * mmpp.burst_multiplier;
        assert!((mean - 1.0).abs() < 1e-9, "mean multiplier {mean}");
        assert!(mmpp.burst_multiplier > 1.0);
        assert!(mmpp.normal_multiplier < 1.0);
    }

    #[test]
    fn phases_alternate_over_time() {
        let mut rng = SimRng::seed_from(3);
        let spec = BurstinessSpec {
            index_of_dispersion: 100.0,
            ..Default::default()
        };
        let mut mmpp = Mmpp2::calibrated(50.0, spec, &mut rng);
        let mut saw_burst = false;
        let mut saw_normal = false;
        let mut t = 0.0;
        for _ in 0..200_000 {
            t += 1.0;
            mmpp.advance(t, &mut rng);
            match mmpp.phase {
                Phase::Burst => saw_burst = true,
                Phase::Normal => saw_normal = true,
            }
            if saw_burst && saw_normal {
                break;
            }
        }
        assert!(saw_burst && saw_normal, "both phases should occur");
    }

    #[test]
    fn empirical_index_detects_burstiness() {
        // Generate a modulated Poisson stream and compare to a plain one.
        let mut rng = SimRng::seed_from(4);
        let rate = 20.0;
        let spec = BurstinessSpec {
            index_of_dispersion: 200.0,
            ..Default::default()
        };
        let mut mmpp = Mmpp2::calibrated(rate, spec, &mut rng);
        let horizon = 200_000.0;
        let mut bursty = Vec::new();
        let mut t = 0.0;
        while t < horizon {
            let lam = rate * mmpp.advance(t, &mut rng);
            t += rng.exponential(1.0 / lam);
            bursty.push(t);
        }
        let mut plain = Vec::new();
        let mut t = 0.0;
        while t < horizon {
            t += rng.exponential(1.0 / rate);
            plain.push(t);
        }
        let window = 2_000.0;
        let i_bursty = empirical_index_of_dispersion(&bursty, horizon, window);
        let i_plain = empirical_index_of_dispersion(&plain, horizon, window);
        assert!(i_plain < 3.0, "plain Poisson I ~ 1, got {i_plain}");
        assert!(
            i_bursty > 20.0 * i_plain,
            "bursty I {i_bursty} should dwarf plain {i_plain}"
        );
    }

    #[test]
    #[should_panic(expected = "burst multiplier")]
    fn rejects_multiplier_below_one() {
        let mut rng = SimRng::seed_from(0);
        Mmpp2::calibrated(
            1.0,
            BurstinessSpec {
                index_of_dispersion: 10.0,
                burst_fraction: 0.1,
                burst_multiplier: 1.0,
            },
            &mut rng,
        );
    }
}
