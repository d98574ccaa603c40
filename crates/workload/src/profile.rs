//! Population-over-time profiles.

use serde::{Deserialize, Serialize};

/// Concurrent user population as a function of time.
///
/// The paper's evaluation protocol (§V-B) holds an initial population,
/// then increases it during the first 25 minutes of a 40-minute run; the
/// [`LoadProfile::Ramp`] variant models that directly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadProfile {
    /// Fixed population.
    Constant(usize),
    /// Linear ramp from `from` to `to` over `[start, start + duration]`,
    /// holding `to` afterwards and `from` before.
    Ramp {
        /// Population before the ramp.
        from: usize,
        /// Population after the ramp.
        to: usize,
        /// Ramp start time (seconds).
        start: f64,
        /// Ramp duration (seconds).
        duration: f64,
    },
    /// Piecewise-constant steps: `(time, population)` pairs sorted by
    /// time; before the first step the population is the first value.
    Steps(Vec<(f64, usize)>),
    /// A diurnal pattern parameterised by its mean and amplitude:
    /// `mean + amplitude·sin(2πt/period)` — the natural form when a
    /// forecaster's seasonal component is under study (the mean is the
    /// level, the amplitude the seasonal swing). Starts *at* the mean
    /// and rises first; clamps at zero if `amplitude > mean`.
    Sinusoidal {
        /// Mean population (the sinusoid's midline).
        mean: usize,
        /// Peak deviation from the mean.
        amplitude: usize,
        /// Full cycle length (seconds).
        period: f64,
    },
    /// A timed square spike: `baseline` everywhere except
    /// `[start, start + duration)`, where the population jumps to
    /// `spike`. The hardest case for reactive scaling — zero warning,
    /// full amplitude in one window — and the reference scenario for
    /// burst-onset detection.
    Spike {
        /// Population outside the spike.
        baseline: usize,
        /// Population during the spike.
        spike: usize,
        /// Spike start time (seconds).
        start: f64,
        /// Spike length (seconds).
        duration: f64,
    },
}

impl LoadProfile {
    /// Population at time `t`.
    ///
    /// # Examples
    ///
    /// ```
    /// use atom_workload::LoadProfile;
    /// let ramp = LoadProfile::Ramp { from: 500, to: 2500, start: 0.0, duration: 100.0 };
    /// assert_eq!(ramp.population_at(-1.0), 500);
    /// assert_eq!(ramp.population_at(50.0), 1500);
    /// assert_eq!(ramp.population_at(1000.0), 2500);
    ///
    /// // A day/night cycle around 1000 users, ±400, one hour per cycle.
    /// let day = LoadProfile::Sinusoidal { mean: 1000, amplitude: 400, period: 3600.0 };
    /// assert_eq!(day.population_at(0.0), 1000);
    /// assert_eq!(day.population_at(900.0), 1400);   // quarter cycle: peak
    /// assert_eq!(day.population_at(2700.0), 600);   // three quarters: trough
    ///
    /// // A square spike: 500 users, except 2000 during [600, 900).
    /// let flash = LoadProfile::Spike { baseline: 500, spike: 2000, start: 600.0, duration: 300.0 };
    /// assert_eq!(flash.population_at(599.0), 500);
    /// assert_eq!(flash.population_at(600.0), 2000);
    /// assert_eq!(flash.population_at(900.0), 500);
    /// ```
    pub fn population_at(&self, t: f64) -> usize {
        match self {
            LoadProfile::Constant(n) => *n,
            LoadProfile::Ramp {
                from,
                to,
                start,
                duration,
            } => {
                if t <= *start {
                    *from
                } else if t >= start + duration || *duration <= 0.0 {
                    *to
                } else {
                    let alpha = (t - start) / duration;
                    let f = *from as f64;
                    let delta = *to as f64 - f;
                    (f + alpha * delta).round() as usize
                }
            }
            LoadProfile::Steps(steps) => steps_population_at(steps, t),
            LoadProfile::Sinusoidal {
                mean,
                amplitude,
                period,
            } => {
                if *period <= 0.0 {
                    return *mean;
                }
                let phase = (t / period) * std::f64::consts::TAU;
                (*mean as f64 + *amplitude as f64 * phase.sin())
                    .round()
                    .max(0.0) as usize
            }
            LoadProfile::Spike {
                baseline,
                spike,
                start,
                duration,
            } => {
                if t >= *start && t < start + duration.max(0.0) {
                    *spike
                } else {
                    *baseline
                }
            }
        }
    }

    /// Largest population the profile ever reaches.
    pub fn peak(&self) -> usize {
        match self {
            LoadProfile::Constant(n) => *n,
            LoadProfile::Ramp { from, to, .. } => (*from).max(*to),
            LoadProfile::Steps(steps) => steps.iter().map(|&(_, p)| p).max().unwrap_or(0),
            LoadProfile::Sinusoidal {
                mean, amplitude, ..
            } => mean + amplitude,
            LoadProfile::Spike {
                baseline, spike, ..
            } => (*baseline).max(*spike),
        }
    }

    /// The times at which the integer population changes within
    /// `[t0, t1]`, useful for scheduling user arrivals/departures in the
    /// simulator. For ramps this returns one instant per unit change.
    pub fn change_points(&self, t0: f64, t1: f64) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        match self {
            LoadProfile::Constant(_) => {}
            LoadProfile::Ramp {
                from,
                to,
                start,
                duration,
            } => {
                if from == to || *duration <= 0.0 {
                    if *from != *to {
                        out.push((*start, *to));
                    }
                } else {
                    let steps = (*to as i64 - *from as i64).unsigned_abs() as usize;
                    for k in 1..=steps {
                        let alpha = k as f64 / steps as f64;
                        let t = start + alpha * duration;
                        let pop = if to > from { from + k } else { from - k };
                        if t >= t0 && t <= t1 {
                            out.push((t, pop));
                        }
                    }
                }
            }
            LoadProfile::Steps(steps) => out.extend(steps_change_points(steps, t0, t1)),
            LoadProfile::Sinusoidal { period, .. } => {
                // Sample the sinusoid finely enough to catch every unit
                // change (120 points per cycle suffices for the paper's
                // population scales).
                let step = (period / 120.0).max(1e-3);
                let mut last = self.population_at(t0);
                let mut t = t0 + step;
                while t <= t1 {
                    let pop = self.population_at(t);
                    if pop != last {
                        out.push((t, pop));
                        last = pop;
                    }
                    t += step;
                }
            }
            LoadProfile::Spike {
                baseline,
                spike,
                start,
                duration,
            } => {
                if baseline != spike && *duration > 0.0 {
                    if *start > t0 && *start <= t1 {
                        out.push((*start, *spike));
                    }
                    let end = start + duration;
                    if end > t0 && end <= t1 {
                        out.push((end, *baseline));
                    }
                }
            }
        }
        out
    }

    /// Time-averaged population over `[t0, t1]` — the aggregate-arrival
    /// view of the profile used by the fluid population backend, which
    /// needs "how many users were there on average this step" without
    /// enumerating per-unit change points (a million-user ramp has a
    /// million of those).
    ///
    /// Computed analytically on the *continuous envelope* of each
    /// profile (the unrounded ramp/sinusoid), so it can differ from the
    /// average of `population_at` by sub-user amounts.
    ///
    /// # Examples
    ///
    /// ```
    /// use atom_workload::LoadProfile;
    /// let ramp = LoadProfile::Ramp { from: 0, to: 100, start: 0.0, duration: 100.0 };
    /// assert!((ramp.average_population(0.0, 100.0) - 50.0).abs() < 1e-9);
    /// let spike = LoadProfile::Spike { baseline: 10, spike: 110, start: 50.0, duration: 50.0 };
    /// assert!((spike.average_population(0.0, 100.0) - 60.0).abs() < 1e-9);
    /// ```
    pub fn average_population(&self, t0: f64, t1: f64) -> f64 {
        if t1 <= t0 {
            return self.population_at(t0) as f64;
        }
        let span = t1 - t0;
        match self {
            LoadProfile::Constant(n) => *n as f64,
            LoadProfile::Ramp {
                from,
                to,
                start,
                duration,
            } => {
                let f = *from as f64;
                let t = *to as f64;
                if *duration <= 0.0 {
                    // A step at `start`.
                    let after = (t1 - start.max(t0)).clamp(0.0, span);
                    (f * (span - after) + t * after) / span
                } else {
                    // Piecewise linear: trapezoid on each linear piece.
                    let env = |x: f64| {
                        if x <= *start {
                            f
                        } else if x >= start + duration {
                            t
                        } else {
                            f + (x - start) / duration * (t - f)
                        }
                    };
                    let mut pts = [
                        t0,
                        start.clamp(t0, t1),
                        (start + duration).clamp(t0, t1),
                        t1,
                    ];
                    pts.sort_by(f64::total_cmp);
                    let mut area = 0.0;
                    for w in pts.windows(2) {
                        area += (env(w[0]) + env(w[1])) / 2.0 * (w[1] - w[0]);
                    }
                    area / span
                }
            }
            LoadProfile::Steps(steps) => steps_average_population(steps, t0, t1),
            LoadProfile::Sinusoidal {
                mean,
                amplitude,
                period,
            } => {
                if *period <= 0.0 {
                    return *mean as f64;
                }
                let w = std::f64::consts::TAU / period;
                // ∫ mean + amp·sin(wt) dt over [t0, t1]; the (rare)
                // below-zero clamp of `population_at` is ignored here.
                let avg = *mean as f64
                    + *amplitude as f64 * ((w * t0).cos() - (w * t1).cos()) / (w * span);
                avg.max(0.0)
            }
            LoadProfile::Spike {
                baseline,
                spike,
                start,
                duration,
            } => {
                let overlap =
                    ((start + duration.max(0.0)).min(t1) - start.max(t0)).clamp(0.0, span);
                (*spike as f64 * overlap + *baseline as f64 * (span - overlap)) / span
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shared piecewise-constant step arithmetic
// ---------------------------------------------------------------------------
//
// These free functions carry the exact `Steps` semantics so that a
// replayed trace (`TraceSource`) is bitwise-identical to the equivalent
// hand-built `LoadProfile::Steps`.

/// Population of a step sequence at time `t`: the last step at or before
/// `t`, the first step's value before any step, `0` when empty.
pub(crate) fn steps_population_at(steps: &[(f64, usize)], t: f64) -> usize {
    if steps.is_empty() {
        return 0;
    }
    let mut current = steps[0].1;
    for &(time, pop) in steps {
        if t >= time {
            current = pop;
        } else {
            break;
        }
    }
    current
}

/// Step entries strictly after `t0` and at or before `t1`.
pub(crate) fn steps_change_points(steps: &[(f64, usize)], t0: f64, t1: f64) -> Vec<(f64, usize)> {
    let mut out = Vec::new();
    for &(time, pop) in steps {
        if time > t0 && time <= t1 {
            out.push((time, pop));
        }
    }
    out
}

/// Time-averaged population of a step sequence over `[t0, t1]`; the
/// caller guarantees `t1 > t0`.
pub(crate) fn steps_average_population(steps: &[(f64, usize)], t0: f64, t1: f64) -> f64 {
    if steps.is_empty() {
        return 0.0;
    }
    let span = t1 - t0;
    let mut area = 0.0;
    let mut t = t0;
    let mut current = steps_population_at(steps, t0) as f64;
    for &(time, pop) in steps {
        if time <= t0 {
            continue;
        }
        if time >= t1 {
            break;
        }
        area += current * (time - t);
        t = time;
        current = pop as f64;
    }
    area += current * (t1 - t);
    area / span
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_everywhere() {
        let p = LoadProfile::Constant(42);
        assert_eq!(p.population_at(-5.0), 42);
        assert_eq!(p.population_at(1e9), 42);
        assert_eq!(p.peak(), 42);
        assert!(p.change_points(0.0, 100.0).is_empty());
    }

    #[test]
    fn ramp_interpolates() {
        let p = LoadProfile::Ramp {
            from: 100,
            to: 200,
            start: 10.0,
            duration: 10.0,
        };
        assert_eq!(p.population_at(0.0), 100);
        assert_eq!(p.population_at(15.0), 150);
        assert_eq!(p.population_at(30.0), 200);
        assert_eq!(p.peak(), 200);
    }

    #[test]
    fn ramp_change_points_are_unit_steps() {
        let p = LoadProfile::Ramp {
            from: 0,
            to: 10,
            start: 0.0,
            duration: 10.0,
        };
        let cps = p.change_points(0.0, 10.0);
        assert_eq!(cps.len(), 10);
        assert_eq!(cps[0].1, 1);
        assert_eq!(cps[9], (10.0, 10));
    }

    #[test]
    fn downward_ramp_works() {
        let p = LoadProfile::Ramp {
            from: 10,
            to: 5,
            start: 0.0,
            duration: 5.0,
        };
        assert_eq!(p.population_at(2.5), 8); // 10 - 2.5
        let cps = p.change_points(0.0, 5.0);
        assert_eq!(cps.len(), 5);
        assert_eq!(cps.last().unwrap().1, 5);
    }

    #[test]
    fn steps_hold_between_points() {
        let p = LoadProfile::Steps(vec![(0.0, 5), (10.0, 20), (20.0, 10)]);
        assert_eq!(p.population_at(-1.0), 5);
        assert_eq!(p.population_at(9.9), 5);
        assert_eq!(p.population_at(10.0), 20);
        assert_eq!(p.population_at(25.0), 10);
        assert_eq!(p.peak(), 20);
        let cps = p.change_points(5.0, 25.0);
        assert_eq!(cps, vec![(10.0, 20), (20.0, 10)]);
    }

    #[test]
    fn sinusoidal_oscillates_around_the_mean() {
        let p = LoadProfile::Sinusoidal {
            mean: 1000,
            amplitude: 400,
            period: 3600.0,
        };
        assert_eq!(p.population_at(0.0), 1000);
        assert_eq!(p.population_at(900.0), 1400); // quarter cycle: peak
        assert_eq!(p.population_at(1800.0), 1000); // half cycle: mean
        assert_eq!(p.population_at(2700.0), 600); // three quarters: trough
        assert_eq!(p.peak(), 1400);
        for i in 0..100 {
            let n = p.population_at(i as f64 * 36.0);
            assert!((600..=1400).contains(&n));
        }
        let cps = p.change_points(0.0, 3600.0);
        assert!(!cps.is_empty());
        for (t, pop) in cps {
            assert_eq!(p.population_at(t), pop);
        }
    }

    #[test]
    fn oversized_amplitude_clamps_at_zero() {
        let p = LoadProfile::Sinusoidal {
            mean: 100,
            amplitude: 300,
            period: 400.0,
        };
        assert_eq!(p.population_at(300.0), 0); // mean - amplitude < 0
        assert_eq!(p.peak(), 400);
    }

    #[test]
    fn spike_is_square() {
        let p = LoadProfile::Spike {
            baseline: 500,
            spike: 2000,
            start: 600.0,
            duration: 300.0,
        };
        assert_eq!(p.population_at(0.0), 500);
        assert_eq!(p.population_at(600.0), 2000);
        assert_eq!(p.population_at(899.9), 2000);
        assert_eq!(p.population_at(900.0), 500);
        assert_eq!(p.peak(), 2000);
        let cps = p.change_points(0.0, 1200.0);
        assert_eq!(cps, vec![(600.0, 2000), (900.0, 500)]);
        // Change points respect the queried span.
        assert_eq!(p.change_points(0.0, 700.0), vec![(600.0, 2000)]);
        assert!(p.change_points(1000.0, 1200.0).is_empty());
    }

    #[test]
    fn degenerate_spike_never_fires() {
        let flat = LoadProfile::Spike {
            baseline: 500,
            spike: 500,
            start: 100.0,
            duration: 50.0,
        };
        assert!(flat.change_points(0.0, 1000.0).is_empty());
        let instant = LoadProfile::Spike {
            baseline: 500,
            spike: 900,
            start: 100.0,
            duration: 0.0,
        };
        assert_eq!(instant.population_at(100.0), 500);
        assert!(instant.change_points(0.0, 1000.0).is_empty());
    }

    #[test]
    fn new_profiles_round_trip_through_serde() {
        for p in [
            LoadProfile::Sinusoidal {
                mean: 1200,
                amplitude: 350,
                period: 1800.0,
            },
            LoadProfile::Spike {
                baseline: 400,
                spike: 2500,
                start: 900.0,
                duration: 120.0,
            },
        ] {
            let json = serde_json::to_string(&p).unwrap();
            let back: LoadProfile = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
    }

    #[test]
    fn zero_duration_ramp_is_a_step() {
        let p = LoadProfile::Ramp {
            from: 1,
            to: 9,
            start: 5.0,
            duration: 0.0,
        };
        assert_eq!(p.population_at(4.9), 1);
        assert_eq!(p.population_at(5.1), 9);
        assert_eq!(p.change_points(0.0, 10.0), vec![(5.0, 9)]);
    }

    /// The analytic average must agree with a fine Riemann sum of
    /// `population_at` (up to the rounding of the integer envelope).
    #[test]
    fn average_population_matches_numeric_integral() {
        let profiles = [
            LoadProfile::Constant(250),
            LoadProfile::Ramp {
                from: 50,
                to: 950,
                start: 100.0,
                duration: 400.0,
            },
            LoadProfile::Ramp {
                from: 900,
                to: 100,
                start: 0.0,
                duration: 0.0,
            },
            LoadProfile::Steps(vec![(0.0, 100), (200.0, 700), (500.0, 50)]),
            LoadProfile::Sinusoidal {
                mean: 500,
                amplitude: 450,
                period: 450.0,
            },
            LoadProfile::Spike {
                baseline: 100,
                spike: 1000,
                start: 250.0,
                duration: 125.0,
            },
        ];
        for p in profiles {
            for (t0, t1) in [(0.0, 600.0), (37.0, 222.0), (480.0, 510.0)] {
                let steps = 20_000;
                let dt = (t1 - t0) / steps as f64;
                let numeric: f64 = (0..steps)
                    .map(|k| p.population_at(t0 + (k as f64 + 0.5) * dt) as f64 * dt)
                    .sum::<f64>()
                    / (t1 - t0);
                let analytic = p.average_population(t0, t1);
                assert!(
                    (analytic - numeric).abs() < 1.0,
                    "{p:?} on [{t0}, {t1}]: analytic {analytic} vs numeric {numeric}"
                );
            }
        }
    }

    #[test]
    fn average_population_degenerate_interval_reads_the_instant() {
        let p = LoadProfile::Constant(7);
        assert_eq!(p.average_population(5.0, 5.0), 7.0);
        let ramp = LoadProfile::Ramp {
            from: 0,
            to: 100,
            start: 0.0,
            duration: 100.0,
        };
        assert_eq!(ramp.average_population(50.0, 50.0), 50.0);
    }
}
