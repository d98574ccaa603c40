//! Bring your own application: describe a microservices topology, derive
//! the LQN knowledge base automatically (§IV-A's "monitor the
//! communication among the microservices" path), and let ATOM manage it.
//!
//! Run with `cargo run --release --example custom_app`.

use atom::cluster::{AppSpec, ClusterOptions};
use atom::core::{run_experiment, Atom, AtomConfig, ExperimentConfig, ModelBinding, ObjectiveSpec};
use atom::workload::{LoadProfile, RequestMix, WorkloadSpec};
use atom_ga::Budget;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A three-tier ticket-booking API: gateway -> {search, booking},
    // booking -> payments -> ledger-db.
    let mut app = AppSpec::new();
    let node_a = app.add_server("node-a", 4, 1.0);
    let node_b = app.add_server("node-b", 4, 1.0);

    let gateway = app.add_service("gateway", node_a, 256, 1, 0.2);
    app.service_mut(gateway).stateful = true;
    app.service_mut(gateway).parallelism = Some(2);
    let search = app.add_service("search", node_a, 64, 1, 0.15);
    let booking = app.add_service("booking", node_b, 64, 1, 0.1);
    let payments = app.add_service("payments", node_b, 32, 1, 0.1);
    let ledger = app.add_service("ledger-db", node_b, 32, 1, 0.2);
    app.service_mut(ledger).stateful = true;

    let g_search = app.add_endpoint(gateway, "search", 0.001, 1.0);
    let g_book = app.add_endpoint(gateway, "book", 0.001, 1.0);
    let s_query = app.add_endpoint(search, "query", 0.004, 1.0);
    let b_create = app.add_endpoint(booking, "create", 0.003, 1.0);
    let p_charge = app.add_endpoint(payments, "charge", 0.005, 1.0);
    app.set_latency(payments, p_charge, 0.15); // external PSP round trip
    let l_write = app.add_endpoint(ledger, "write", 0.002, 1.0);

    app.add_call(gateway, g_search, search, s_query, 1.0);
    app.add_call(gateway, g_book, booking, b_create, 1.0);
    app.add_call(booking, b_create, payments, p_charge, 1.0);
    app.add_call(payments, p_charge, ledger, l_write, 2.0);

    app.add_feature("search", gateway, g_search);
    app.add_feature("book", gateway, g_book);

    // A lunchtime rush: 80/20 search/book, 200 -> 1200 users in 20 min.
    let workload = WorkloadSpec::new(
        RequestMix::new(vec![0.8, 0.2])?,
        5.0,
        LoadProfile::Ramp {
            from: 200,
            to: 1200,
            start: 0.0,
            duration: 1200.0,
        },
    );

    // The knowledge base is derived straight from the topology.
    let binding = ModelBinding::from_app_spec(&app, 200, 5.0, workload.mix.fractions());
    let mut objective = ObjectiveSpec::balanced(2);
    objective.feature_weights = vec![1.0, 10.0]; // bookings are revenue
    objective.server_capacity = vec![(0, 4.0), (1, 4.0)];
    objective.sla_response = vec![1.0, 2.0];
    let mut config = AtomConfig::new(objective);
    config.ga.budget = Budget::Evaluations(400);
    let mut atom = Atom::new(binding, config);

    let result = run_experiment(
        &app,
        workload,
        &mut atom,
        ExperimentConfig {
            windows: 6,
            window_secs: 300.0,
            cluster: ClusterOptions::default(),
        },
    )?;

    println!("window  users    TPS   book-resp[ms]");
    for (i, r) in result.reports.iter().enumerate() {
        println!(
            "{:>6}  {:>5}  {:>6.1}  {:>12.1}",
            i + 1,
            r.users_at_end,
            r.total_tps,
            r.feature_response[1] * 1e3
        );
    }
    println!(
        "\nmean TPS {:.1}; T_u {:.0} s; {} scaling actions:",
        result.mean_tps(0, 6),
        result.underprovision_time(None),
        result.actions.len()
    );
    for (t, a) in &result.actions {
        let service = &app.services[a.service.0].name;
        println!(
            "  t={t:>5.0}s  {}: {service} -> {} x {:.2}",
            result.scaler, a.replicas, a.share
        );
    }
    Ok(())
}
