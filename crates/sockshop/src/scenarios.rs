//! Every workload and protocol the paper's experiments use
//! (Tables I, II, VI and the §V-B protocol).

use atom_core::workload::{BurstinessSpec, LoadProfile, RequestMix, WorkloadSpec};

/// Table VI browsing mix: 63% home, 32% catalogue, 5% carts.
pub fn browsing_mix() -> RequestMix {
    RequestMix::new(vec![0.63, 0.32, 0.05]).expect("static mix")
}

/// Table VI shopping mix: 54% home, 26% catalogue, 20% carts.
pub fn shopping_mix() -> RequestMix {
    RequestMix::new(vec![0.54, 0.26, 0.20]).expect("static mix")
}

/// Table VI ordering mix: 33% home, 17% catalogue, 50% carts.
pub fn ordering_mix() -> RequestMix {
    RequestMix::new(vec![0.33, 0.17, 0.50]).expect("static mix")
}

/// The three Table VI mixes with their paper names.
pub fn evaluation_mixes() -> Vec<(&'static str, RequestMix)> {
    vec![
        ("browsing", browsing_mix()),
        ("shopping", shopping_mix()),
        ("ordering", ordering_mix()),
    ]
}

/// Think time used throughout the evaluation (Tables I/VI): 7 s.
pub const THINK_TIME: f64 = 7.0;

/// Monitoring window used by default in §V: 5 minutes.
pub const WINDOW_SECS: f64 = 300.0;

/// Evaluation runs last 40 minutes…
pub const RUN_SECS: f64 = 40.0 * 60.0;

/// …of which the first 25 minutes ramp the workload up (§V-B).
pub(crate) const RAMP_SECS: f64 = 25.0 * 60.0;

/// Initial population the deployment is sized for (§V-A).
pub const INITIAL_USERS: usize = 500;

/// The §V-B evaluation protocol: hold 500 users, ramp to `target_users`
/// over the first 25 minutes, hold for the remaining 15.
pub fn evaluation_workload(mix: RequestMix, target_users: usize) -> WorkloadSpec {
    WorkloadSpec::new(
        mix,
        THINK_TIME,
        LoadProfile::Ramp {
            from: INITIAL_USERS,
            to: target_users,
            start: 0.0,
            duration: RAMP_SECS,
        },
    )
}

/// The burstiness experiment of Fig. 13: ordering mix, N = 500, index of
/// dispersion `I` (the paper uses 400 and 4000).
pub fn bursty_workload(index_of_dispersion: f64) -> WorkloadSpec {
    WorkloadSpec::new(ordering_mix(), THINK_TIME, LoadProfile::Constant(500)).with_burstiness(
        BurstinessSpec {
            index_of_dispersion,
            burst_fraction: 0.1,
            burst_multiplier: 8.0,
        },
    )
}

/// A phase-shifted tenant workload for the multi-tenant contention
/// experiment: tenant `tenant` of `n_tenants` holds `baseline` users and
/// spikes to `peak` during its own slice of the run, so at any moment at
/// most one tenant (plus spill-over) is at peak — the pool is sized for
/// staggered peaks, not for everyone peaking at once. The request mix
/// rotates through the Table VI mixes so tenants also differ in *shape*.
///
/// # Panics
///
/// Panics unless `tenant < n_tenants` and `run_secs > 0`.
pub fn contention_workload(
    tenant: usize,
    n_tenants: usize,
    baseline: usize,
    peak: usize,
    run_secs: f64,
) -> WorkloadSpec {
    assert!(tenant < n_tenants, "tenant index out of range");
    assert!(run_secs > 0.0, "run must have positive length");
    let phase = run_secs / n_tenants as f64;
    let mix = evaluation_mixes()
        .into_iter()
        .nth(tenant % 3)
        .map(|(_, m)| m)
        .expect("three mixes");
    WorkloadSpec::new(
        mix,
        THINK_TIME,
        LoadProfile::Spike {
            baseline,
            spike: peak,
            start: tenant as f64 * phase,
            duration: phase,
        },
    )
}

/// One §III-C validation pattern (a row of Table II at one population).
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationWorkload {
    /// Pattern number (1–4, as in Table II).
    pub pattern: usize,
    /// Request mix.
    pub mix: [f64; 3],
    /// Concurrent users.
    pub users: usize,
    /// Think time (seconds).
    pub think_time: f64,
    /// Whether the single-host (Docker-compose) placement is used.
    pub single_host: bool,
}

/// All twelve §III-C validation runs (Table II: four patterns × three
/// populations). Patterns 2 and 4 use the single-host placement.
pub fn validation_workloads() -> Vec<ValidationWorkload> {
    /// (pattern, mix, populations, think time, single host)
    type PatternRow = (usize, [f64; 3], [usize; 3], f64, bool);
    let mut out = Vec::new();
    let specs: [PatternRow; 4] = [
        (1, [0.57, 0.29, 0.14], [1000, 2000, 3000], 7.0, false),
        (2, [0.34, 0.33, 0.33], [1000, 2000, 3000], 7.0, true),
        (3, [0.57, 0.29, 0.14], [1500, 2500, 4000], 10.0, false),
        (4, [0.34, 0.33, 0.33], [1000, 2000, 3000], 10.0, true),
    ];
    for (pattern, mix, users, think, single_host) in specs {
        for n in users {
            out.push(ValidationWorkload {
                pattern,
                mix,
                users: n,
                think_time: think,
                single_host,
            });
        }
    }
    out
}

/// Table I's motivating cases: the browsing-heavy mix with the front-end
/// as bottleneck. Case A is light (N = 1000, share 0.2), case B heavy
/// (N = 4000, share 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotivatingCase {
    /// "A" or "B".
    pub name: &'static str,
    /// Concurrent users.
    pub users: usize,
    /// Initial front-end CPU share.
    pub front_end_share: f64,
}

/// Case A of Table I (light load).
pub const CASE_A: MotivatingCase = MotivatingCase {
    name: "A",
    users: 1000,
    front_end_share: 0.2,
};

/// Case B of Table I (heavy load).
pub const CASE_B: MotivatingCase = MotivatingCase {
    name: "B",
    users: 4000,
    front_end_share: 1.0,
};

/// The request mix of Table I (57/29/14).
pub fn motivating_mix() -> RequestMix {
    RequestMix::new(vec![0.57, 0.29, 0.14]).expect("static mix")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_normalised() {
        for (_, mix) in evaluation_mixes() {
            let sum: f64 = mix.fractions().iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn evaluation_workload_follows_protocol() {
        let w = evaluation_workload(browsing_mix(), 3000);
        assert_eq!(w.source.population_at(0.0), 500);
        assert_eq!(w.source.population_at(RAMP_SECS), 3000);
        assert_eq!(w.source.population_at(RUN_SECS), 3000);
        assert_eq!(w.think_time, 7.0);
    }

    #[test]
    fn twelve_validation_runs() {
        let v = validation_workloads();
        assert_eq!(v.len(), 12);
        assert!(v.iter().filter(|w| w.single_host).count() == 6);
        assert!(v.iter().any(|w| w.users == 4000 && w.think_time == 10.0));
    }

    #[test]
    fn bursty_workload_carries_index() {
        let w = bursty_workload(4000.0);
        assert_eq!(w.burstiness.unwrap().index_of_dispersion, 4000.0);
        assert_eq!(w.source.population_at(100.0), 500);
    }

    #[test]
    fn contention_workloads_are_phase_shifted() {
        let w0 = contention_workload(0, 4, 200, 1000, 2400.0);
        let w3 = contention_workload(3, 4, 200, 1000, 2400.0);
        // Tenant 0 spikes in the first quarter, tenant 3 in the last.
        assert_eq!(w0.source.population_at(1.0), 1000);
        assert_eq!(w0.source.population_at(700.0), 200);
        assert_eq!(w3.source.population_at(700.0), 200);
        assert_eq!(w3.source.population_at(1801.0), 1000);
        // Mixes rotate through the Table VI mixes.
        assert_eq!(w0.mix.fractions(), w3.mix.fractions());
        assert_ne!(
            contention_workload(1, 4, 200, 1000, 2400.0).mix.fractions(),
            w0.mix.fractions()
        );
    }

    #[test]
    fn motivating_cases_match_table_i() {
        assert_eq!(CASE_A.users, 1000);
        assert_eq!(CASE_A.front_end_share, 0.2);
        assert_eq!(CASE_B.users, 4000);
        assert_eq!(CASE_B.front_end_share, 1.0);
    }
}
