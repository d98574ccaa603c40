//! The workload analyzer: writes a window's observations into the LQN
//! (paper §IV-A).
//!
//! Two things change per monitoring window: the concurrent user count `N`
//! (the reference task's multiplicity) and the request mix (the call
//! means from the client entry to the feature entries).
//!
//! The analyzer reads a window through a `LoadView`, so a degraded
//! window can keep trusted counters under fresh gauges and a forecast
//! can scale the load without anyone copying a report.

use atom_cluster::WindowReport;
use atom_lqn::model::TaskKind;
use atom_lqn::{LqnError, LqnModel};

use crate::binding::ModelBinding;

/// The load a window put on the system — all the analyzer and the
/// forecaster read of a [`WindowReport`] — split by provenance (see
/// `atom_cluster::monitor`): *gauges* are control-plane state and stay
/// exact through a monitor dropout, *counters* are scraped and
/// under-report in a dark window. Actuator state is not load; it is
/// always read off the fresh report.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoadView {
    /// Gauge: concurrent users at window end (`N`).
    pub(crate) users: usize,
    /// Gauge: peak number of users simultaneously in the system.
    pub(crate) peak_in_system: f64,
    /// Gauge: time-averaged in-system user count.
    pub(crate) avg_in_system: f64,
    /// Counter: peak sub-interval client request issue rate (1/s).
    pub(crate) peak_arrival_rate: f64,
    /// Counter: completed client requests/second over the window.
    pub(crate) total_tps: f64,
    /// Counter: request mix of the completions (`None` if there were none).
    pub(crate) mix: Option<Vec<f64>>,
}

impl LoadView {
    /// The load exactly as `report` observed it.
    pub(crate) fn of(report: &WindowReport) -> Self {
        LoadView {
            users: report.users_at_end,
            peak_in_system: report.peak_in_system,
            avg_in_system: report.avg_in_system,
            peak_arrival_rate: report.peak_arrival_rate,
            total_tps: report.total_tps,
            mix: report.observed_mix(),
        }
    }

    /// This (trusted) view's counters under the gauges of a `dark`
    /// window: what a degraded window is analyzed as.
    pub(crate) fn with_gauges_of(&self, dark: &WindowReport) -> Self {
        LoadView {
            users: dark.users_at_end,
            peak_in_system: dark.peak_in_system,
            avg_in_system: dark.avg_in_system,
            ..self.clone()
        }
    }

    /// The same traffic shape at `planned` users: every load figure
    /// grows by `planned / users` (the mix is a ratio and stays). Never
    /// shrinks the view — a `planned` at or below the observation, or an
    /// idle window, leaves it as observed.
    pub(crate) fn scale_to(&mut self, planned: f64) {
        let observed = self.users as f64;
        if observed <= 0.0 || planned <= observed {
            return;
        }
        let factor = planned / observed;
        self.users = planned.round() as usize;
        self.peak_in_system *= factor;
        self.avg_in_system *= factor;
        self.peak_arrival_rate *= factor;
        self.total_tps *= factor;
    }
}

/// Updates an LQN from monitoring data.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkloadAnalyzer {
    /// The mix used when a window saw no requests at all (carried over
    /// from the last window that saw some; uniform until one does).
    last_mix: Option<Vec<f64>>,
    /// Peak sub-interval request rates of the most recent windows — part
    /// of the MAPE-K knowledge base. Retaining a short history keeps the
    /// system provisioned *between* traffic surges instead of scaling
    /// down the moment a burst passes (Fig. 13).
    recent_peaks: std::collections::VecDeque<f64>,
    /// Effective think times inferred from backlog surges in recent
    /// windows (same knowledge-base memory as `recent_peaks`).
    recent_z_eff: std::collections::VecDeque<f64>,
}

/// Windows of peak-rate memory kept by the analyzer.
const PEAK_MEMORY: usize = 3;

impl WorkloadAnalyzer {
    /// Produces a model instance for this window: the binding's template
    /// with `N` and the observed request mix applied.
    ///
    /// # Errors
    ///
    /// Propagates model-update failures (which indicate an inconsistent
    /// binding).
    pub(crate) fn instantiate(
        &mut self,
        binding: &ModelBinding,
        load: &LoadView,
    ) -> Result<LqnModel, LqnError> {
        let mut model = binding.model.clone();
        // The monitor samples sub-intervals within the window (§IV-A);
        // under bursty traffic the peak sampled request rate exceeds what
        // `N` users at the nominal think time would produce, so the
        // analyzer sizes the model for an *effective* population that
        // reproduces the peak rate (this is what lets ATOM follow traffic
        // surges while utilisation-averaging scalers cannot — Fig. 13).
        let think = match model.task(binding.client).kind {
            TaskKind::Reference { think_time } => think_time,
            TaskKind::Server => 0.0,
        };
        self.recent_peaks.push_back(load.peak_arrival_rate);
        while self.recent_peaks.len() > PEAK_MEMORY {
            self.recent_peaks.pop_front();
        }
        let peak = self.recent_peaks.iter().cloned().fold(0.0_f64, f64::max);
        let effective_n = (peak * think).ceil() as usize;
        model.set_population(binding.client, load.users.max(effective_n))?;

        // Traffic surges under a saturated system do not show up in
        // arrival or completion rates (the closed loop throttles), but
        // they do show up as a backlog spike: nearly every user is
        // simultaneously in-system. When the window shows a *transient*
        // spike (peak backlog well above its average — a sustained ramp
        // has peak ≈ average and is handled by `N` directly), infer the
        // effective think time from flow balance during the surge,
        // `Z_eff = (N − I_peak) / X`, and size the model for it. This is
        // what lets ATOM provision for surges that window-averaged
        // utilisation hides (§V-B, Fig. 13).
        let n = load.users as f64;
        let window_x = load.total_tps;
        let z_eff_now =
            if load.peak_in_system > 1.5 * load.avg_in_system && window_x > 0.0 && n > 0.0 {
                let thinkers = (n - load.peak_in_system).max(n * 0.02);
                (thinkers / window_x).clamp(think / 10.0, think)
            } else {
                think
            };
        self.recent_z_eff.push_back(z_eff_now);
        while self.recent_z_eff.len() > PEAK_MEMORY {
            self.recent_z_eff.pop_front();
        }
        let z_eff = self
            .recent_z_eff
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min)
            .min(think);
        if z_eff < think {
            // Applied *on top of* the arrival-peak population inflation:
            // the two signals capture different phases of a surge (the
            // arrival spike at its onset, the backlog once the system
            // throttles) and are deliberately combined aggressively —
            // the optimizer's CPU-cost term and the capacity constraints
            // bound any over-provisioning, and under-reacting is what
            // loses Fig. 13.
            model.set_think_time(binding.client, z_eff)?;
        }
        if load.mix.is_some() {
            self.last_mix.clone_from(&load.mix);
        }
        let features = binding.feature_entries.len();
        let mix = self
            .last_mix
            .get_or_insert_with(|| vec![1.0 / features.max(1) as f64; features]);
        let client_entry = model.reference_entry(binding.client)?;
        for (entry, frac) in binding.feature_entries.iter().zip(mix.iter()) {
            model.set_call_mean(client_entry, *entry, *frac)?;
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One service, two features (10 ms and 20 ms), 10 users thinking 1 s.
    fn binding() -> ModelBinding {
        crate::fixtures::chain((4, 1.0), &[("svc", 8, 1.0, &[0.01, 0.02])], 10, 1.0)
    }

    fn report(counts: Vec<u64>, users: usize) -> WindowReport {
        WindowReport::for_span(0.0, 300.0)
            .with_feature_tps(counts.iter().map(|&c| c as f64 / 300.0).collect())
            .with_feature_response(vec![0.0; counts.len()])
            .with_feature_counts(counts)
            .with_service_utilization(vec![0.5])
            .with_service_busy_cores(vec![0.5])
            .with_service_alloc_cores(vec![1.0])
            .with_service_replicas(vec![1])
            .with_service_shares(vec![1.0])
            .with_server_utilization(vec![0.1])
            .with_total_tps(1.0)
            .with_avg_users(users as f64)
            .with_users_at_end(users)
    }

    fn load(counts: Vec<u64>, users: usize) -> LoadView {
        LoadView::of(&report(counts, users))
    }

    #[test]
    fn writes_population_and_mix() {
        let b = binding();
        let mut analyzer = WorkloadAnalyzer::default();
        let model = analyzer
            .instantiate(&b, &load(vec![300, 100], 777))
            .unwrap();
        assert_eq!(model.task(b.client).multiplicity, 777);
        let ce = model.reference_entry(b.client).unwrap();
        let calls = &model.entry(ce).calls;
        let mean_of = |target| {
            calls
                .iter()
                .find(|c| c.target == target)
                .map(|c| c.mean)
                .unwrap_or(0.0)
        };
        assert!((mean_of(b.feature_entries[0]) - 0.75).abs() < 1e-12);
        assert!((mean_of(b.feature_entries[1]) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_window_reuses_previous_mix() {
        let b = binding();
        let mut analyzer = WorkloadAnalyzer::default();
        analyzer.instantiate(&b, &load(vec![90, 10], 10)).unwrap();
        let model = analyzer.instantiate(&b, &load(vec![0, 0], 10)).unwrap();
        let ce = model.reference_entry(b.client).unwrap();
        let first = model
            .entry(ce)
            .calls
            .iter()
            .find(|c| c.target == b.feature_entries[0]);
        assert!((first.unwrap().mean - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_history_falls_back_to_uniform() {
        let b = binding();
        let mut analyzer = WorkloadAnalyzer::default();
        let model = analyzer.instantiate(&b, &load(vec![0, 0], 10)).unwrap();
        let ce = model.reference_entry(b.client).unwrap();
        for c in &model.entry(ce).calls {
            assert!((c.mean - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn peak_rate_raises_effective_population() {
        let b = binding();
        let mut analyzer = WorkloadAnalyzer::default();
        let mut r = load(vec![100, 100], 500);
        r.peak_arrival_rate = 300.0; // think time is 1.0 in the template
        let model = analyzer.instantiate(&b, &r).unwrap();
        assert_eq!(model.task(b.client).multiplicity, 500);
        // A surge far above N inflates the effective population.
        let mut r = load(vec![100, 100], 500);
        r.peak_arrival_rate = 2000.0;
        let model = analyzer.instantiate(&b, &r).unwrap();
        assert_eq!(model.task(b.client).multiplicity, 2000);
    }

    #[test]
    fn peak_memory_spans_windows() {
        let b = binding();
        let mut analyzer = WorkloadAnalyzer::default();
        let mut bursty = load(vec![100, 100], 500);
        bursty.peak_arrival_rate = 1500.0;
        analyzer.instantiate(&b, &bursty).unwrap();
        // Two quiet windows later the burst is still remembered...
        let quiet = load(vec![100, 100], 500);
        analyzer.instantiate(&b, &quiet).unwrap();
        let model = analyzer.instantiate(&b, &quiet).unwrap();
        assert_eq!(model.task(b.client).multiplicity, 1500);
        // ...but it ages out of the knowledge base eventually.
        let model = analyzer.instantiate(&b, &quiet).unwrap();
        assert_eq!(model.task(b.client).multiplicity, 500);
    }

    #[test]
    fn dark_view_keeps_trusted_counters_under_fresh_gauges() {
        let mut healthy = report(vec![300, 100], 500);
        healthy.peak_arrival_rate = 40.0;
        let dark = report(vec![0, 0], 800)
            .with_total_tps(0.0)
            .with_peak_in_system(90.0)
            .with_avg_in_system(30.0);
        let view = LoadView::of(&healthy).with_gauges_of(&dark);
        assert_eq!(
            (view.users, view.peak_in_system, view.avg_in_system),
            (800, 90.0, 30.0),
            "gauges are control-plane state: always fresh"
        );
        assert_eq!((view.peak_arrival_rate, view.total_tps), (40.0, 1.0));
        assert_eq!(view.mix, Some(vec![0.75, 0.25]), "scraped: trusted");
    }

    #[test]
    fn scaling_a_view_never_shrinks_it() {
        let observed = load(vec![300, 100], 500);
        let mut view = observed.clone();
        view.scale_to(400.0);
        assert_eq!(view, observed, "a forecast below the observation");
        view.scale_to(750.0);
        assert_eq!((view.users, view.total_tps), (750, 1.5));
        assert_eq!(view.mix, observed.mix, "the mix is a ratio");
    }

    #[test]
    fn template_is_untouched() {
        let b = binding();
        let before = b.model.clone();
        let mut analyzer = WorkloadAnalyzer::default();
        analyzer.instantiate(&b, &load(vec![10, 0], 99)).unwrap();
        assert_eq!(b.model, before);
    }
}
