//! Window accumulators and report collection: what the monitoring plane
//! aggregates between `run_window` boundaries.

use atom_sim::TimeWeighted;

use crate::monitor::WindowReport;
use crate::runtime::Cluster;

/// Everything the monitor accumulates within one window. Both backends
/// feed these counters — the per-user DES increments them per event, the
/// fluid backend synthesises them per aggregation step — so
/// `collect_window` is backend-agnostic.
#[derive(Clone)]
pub(crate) struct WindowAccum {
    pub window_start: f64,
    pub feature_counts: Vec<u64>,
    pub feature_resp_sum: Vec<f64>,
    pub endpoint_counts: Vec<Vec<u64>>,
    /// Client request issues in the current monitor sub-interval, and the
    /// largest completed sub-interval count so far this window.
    pub subinterval_arrivals: u64,
    pub subinterval_start: f64,
    pub peak_subinterval_rate: f64,
    pub in_system: usize,
    pub in_system_tw: TimeWeighted,
    pub peak_in_system: usize,
    pub server_busy_at_window: Vec<f64>,
    /// Busy core-seconds synthesised by the fluid backend this window
    /// (exactly 0.0 in per-user mode), added on top of the processors'
    /// measured core-seconds at collection.
    pub fluid_service_busy: Vec<f64>,
    pub fluid_server_busy: Vec<f64>,
    /// Backend switches (hybrid policy) within the current window.
    pub window_switches: usize,
}

impl WindowAccum {
    /// Monitor sub-interval length (seconds) for peak-rate sampling.
    pub(crate) const SUBINTERVAL: f64 = 30.0;

    pub(crate) fn new(nf: usize, n_endpoints: Vec<usize>, np: usize, ns: usize) -> Self {
        WindowAccum {
            window_start: 0.0,
            feature_counts: vec![0; nf],
            feature_resp_sum: vec![0.0; nf],
            endpoint_counts: n_endpoints.into_iter().map(|n| vec![0; n]).collect(),
            subinterval_arrivals: 0,
            subinterval_start: 0.0,
            peak_subinterval_rate: 0.0,
            in_system: 0,
            in_system_tw: TimeWeighted::new(0.0, 0.0),
            peak_in_system: 0,
            server_busy_at_window: vec![0.0; np],
            fluid_service_busy: vec![0.0; ns],
            fluid_server_busy: vec![0.0; np],
            window_switches: 0,
        }
    }

    pub(crate) fn roll_subinterval(&mut self, now: f64) {
        while now >= self.subinterval_start + Self::SUBINTERVAL {
            let rate = self.subinterval_arrivals as f64 / Self::SUBINTERVAL;
            self.peak_subinterval_rate = self.peak_subinterval_rate.max(rate);
            self.subinterval_arrivals = 0;
            self.subinterval_start += Self::SUBINTERVAL;
        }
    }
}

impl Cluster {
    /// Multiplicative noise factor for one monitored reading.
    fn monitor_noise_factor(&mut self) -> f64 {
        if self.options.monitor_noise <= 0.0 {
            1.0
        } else {
            (1.0 + self.options.monitor_noise * self.rng.standard_normal()).max(0.0)
        }
    }

    pub(crate) fn collect_window(&mut self, end: f64) -> WindowReport {
        let span = end - self.accum.window_start;
        let nf = self.spec.features.len();
        let ns = self.fabric.services.len();
        let np = self.spec.servers.len();

        let mut feature_tps = vec![0.0; nf];
        let mut feature_response = vec![0.0; nf];
        for f in 0..nf {
            if self.accum.feature_counts[f] > 0 {
                feature_tps[f] = self.accum.feature_counts[f] as f64 / span;
                feature_response[f] =
                    self.accum.feature_resp_sum[f] / self.accum.feature_counts[f] as f64;
            }
        }
        let total_tps = self.accum.feature_counts.iter().sum::<u64>() as f64 / span;

        let endpoint_tps: Vec<Vec<f64>> = self
            .accum
            .endpoint_counts
            .iter()
            .map(|svc| svc.iter().map(|&c| c as f64 / span).collect())
            .collect();
        for svc in self.accum.endpoint_counts.iter_mut() {
            for c in svc.iter_mut() {
                *c = 0;
            }
        }
        let mut service_utilization = vec![0.0; ns];
        let mut service_busy_cores = vec![0.0; ns];
        let mut service_alloc_cores = vec![0.0; ns];
        let mut service_replicas = vec![0; ns];
        let mut service_ready_replicas = vec![0; ns];
        let mut service_shares = vec![0.0; ns];
        let mut service_availability = vec![0.0; ns];
        for si in 0..ns {
            let pi = self.fabric.services[si].server;
            // Read-only projection to `end`: advancing here would split
            // the remaining-work arithmetic at the window boundary and
            // make the run's dynamics depend on how it is windowed.
            let busy_now: f64 = self.fabric.services[si]
                .replicas
                .iter()
                .map(|r| self.fabric.processors[pi].group_busy_core_seconds_at(end, r.group))
                .sum();
            // Fluid-synthesised core-seconds ride on top of the measured
            // delta (0.0 whenever the per-user backend ran the window;
            // adding 0.0 is bitwise-neutral for the non-negative delta).
            let busy = busy_now - self.fabric.services[si].busy_at_window
                + self.accum.fluid_service_busy[si];
            self.fabric.services[si].busy_at_window = busy_now;
            self.accum.fluid_service_busy[si] = 0.0;
            service_busy_cores[si] = (busy / span) * self.monitor_noise_factor();
            service_alloc_cores[si] = self.fabric.services[si].alloc.average(end);
            if service_alloc_cores[si] > 0.0 {
                service_utilization[si] = service_busy_cores[si] / service_alloc_cores[si];
            }
            self.fabric.services[si].alloc.reset(end);
            service_availability[si] = self.fabric.services[si].up.average(end).clamp(0.0, 1.0);
            self.fabric.services[si].up.reset(end);
            service_replicas[si] = self.fabric.services[si].serving_count();
            service_ready_replicas[si] = self.fabric.services[si].ready_count();
            service_shares[si] = self.fabric.services[si].share;
        }

        let mut server_utilization = vec![0.0; np];
        #[allow(clippy::needless_range_loop)] // parallel arrays + &mut self call
        for pi in 0..np {
            let busy_now = self.fabric.processors[pi].busy_core_seconds_at(end);
            let busy =
                busy_now - self.accum.server_busy_at_window[pi] + self.accum.fluid_server_busy[pi];
            self.accum.server_busy_at_window[pi] = busy_now;
            self.accum.fluid_server_busy[pi] = 0.0;
            server_utilization[pi] =
                busy / (self.fabric.processors[pi].cores() * span) * self.monitor_noise_factor();
        }

        self.accum.roll_subinterval(end);
        // Include the (possibly partial) trailing sub-interval.
        let elapsed = (end - self.accum.subinterval_start).max(1e-9);
        if elapsed >= 0.5 * WindowAccum::SUBINTERVAL {
            self.accum.peak_subinterval_rate = self
                .accum
                .peak_subinterval_rate
                .max(self.accum.subinterval_arrivals as f64 / elapsed);
        }
        let peak_arrival_rate = self.accum.peak_subinterval_rate;
        self.accum.peak_subinterval_rate = 0.0;
        let peak_in_system = self.accum.peak_in_system as f64;
        let avg_in_system = self.accum.in_system_tw.average(end);
        self.accum
            .in_system_tw
            .update(end, self.accum.in_system as f64);
        self.accum.in_system_tw.reset(end);
        self.accum.peak_in_system = self.accum.in_system;

        // Per-tenant window averages, kept for `tenant_reports`; the
        // merged figure is their sum in tenant order (bitwise the single
        // value for one tenant, since a one-element sum is `0.0 + x`).
        for t in &mut self.tenants {
            t.window_avg_users = t.backend.window_users(end);
        }
        let avg_users = self.tenants.iter().map(|t| t.window_avg_users).sum();

        // Monitoring darkness overlapping this window.
        let dark = self
            .fabric
            .faults
            .dark_seconds(self.accum.window_start, end);
        self.fabric.faults.forget_dark_before(end);
        let monitor_dropout_fraction = (dark / span).clamp(0.0, 1.0);

        // `None` while span sampling is disabled, so reports (and every
        // artefact serialised from them) stay byte-identical.
        let span_stats = self.spans.window_stats(&mut self.telemetry);
        // Likewise `None` without a topology.
        let network = self.net.as_mut().map(|f| f.collect_window(span));

        let report = WindowReport {
            start: self.accum.window_start,
            end,
            feature_counts: std::mem::replace(&mut self.accum.feature_counts, vec![0; nf]),
            feature_tps,
            feature_response,
            endpoint_tps,
            service_utilization,
            service_busy_cores,
            service_alloc_cores,
            service_replicas,
            service_ready_replicas,
            service_shares,
            service_availability,
            server_utilization,
            total_tps,
            avg_users,
            users_at_end: self.tenants.iter().map(|t| t.backend.users_at_end()).sum(),
            peak_arrival_rate,
            peak_in_system,
            avg_in_system,
            monitor_dropout_fraction,
            failed_actuations: std::mem::take(&mut self.fabric.faults.failed_actuations),
            scale_latency: self.telemetry.scale_latency_stats(),
            backend: self.tenants[0].backend.kind(),
            backend_switches: std::mem::take(&mut self.accum.window_switches),
            tenant: None,
            span_stats,
            network,
        };
        self.accum.feature_resp_sum = vec![0.0; nf];
        self.accum.window_start = end;
        report
    }

    /// One view per tenant, in tenant order, of `merged` — the report the
    /// latest [`Cluster::run_window`] returned. A view holds its tenant's
    /// feature and service columns (re-indexed to tenant-local ids), its
    /// own population figures, and the shared infrastructure columns
    /// (server utilisation, dropout, scale latency) copied as-is. A
    /// one-tenant cluster's single view equals `merged` except for
    /// [`WindowReport::tenant`].
    pub fn tenant_reports(&self, merged: &WindowReport) -> Vec<WindowReport> {
        debug_assert_eq!(merged.end, self.accum.window_start, "not the latest window");
        (0..self.tenants.len())
            .map(|ti| self.tenant_view(merged, ti))
            .collect()
    }

    fn tenant_view(&self, merged: &WindowReport, ti: usize) -> WindowReport {
        let t = &self.tenants[ti];
        let fr = t.layout.features();
        let sr = t.layout.services();
        let feature_counts = merged.feature_counts[fr.clone()].to_vec();
        let span = merged.end - merged.start;
        let total_tps = feature_counts.iter().sum::<u64>() as f64 / span;
        WindowReport {
            start: merged.start,
            end: merged.end,
            feature_counts,
            feature_tps: merged.feature_tps[fr.clone()].to_vec(),
            feature_response: merged.feature_response[fr].to_vec(),
            endpoint_tps: merged.endpoint_tps[sr.clone()].to_vec(),
            service_utilization: merged.service_utilization[sr.clone()].to_vec(),
            service_busy_cores: merged.service_busy_cores[sr.clone()].to_vec(),
            service_alloc_cores: merged.service_alloc_cores[sr.clone()].to_vec(),
            service_replicas: merged.service_replicas[sr.clone()].to_vec(),
            service_ready_replicas: merged.service_ready_replicas[sr.clone()].to_vec(),
            service_shares: merged.service_shares[sr.clone()].to_vec(),
            service_availability: merged.service_availability[sr.clone()].to_vec(),
            server_utilization: merged.server_utilization.clone(),
            total_tps,
            avg_users: t.window_avg_users,
            users_at_end: t.backend.users_at_end(),
            peak_arrival_rate: merged.peak_arrival_rate,
            peak_in_system: merged.peak_in_system,
            avg_in_system: merged.avg_in_system,
            monitor_dropout_fraction: merged.monitor_dropout_fraction,
            failed_actuations: merged.failed_actuations,
            scale_latency: merged.scale_latency,
            backend: t.backend.kind(),
            backend_switches: merged.backend_switches,
            tenant: Some(ti),
            span_stats: merged.span_stats.as_ref().map(|stats| stats[sr].to_vec()),
            // The fabric is shared infrastructure, copied whole like the
            // server-utilisation columns.
            network: merged.network.clone(),
        }
    }
}
