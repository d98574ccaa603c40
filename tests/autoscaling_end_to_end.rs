//! End-to-end controller runs on the Sock Shop: the paper's headline
//! shapes at reduced scale (these are the claims the full `repro` harness
//! regenerates at paper scale).

use atom::core::autoscaler::NoopScaler;
use atom::core::{run_experiment, Atom, AtomConfig, ExperimentConfig, UhScaler, UvScaler};
use atom::sockshop::{scenarios, SockShop, SVC_CARTS, SVC_CATALOGUE, SVC_FRONT_END};
use atom_cluster::ClusterOptions;
use atom_ga::Budget;

const STATELESS: [usize; 3] = [SVC_FRONT_END, SVC_CATALOGUE, SVC_CARTS];

fn config(windows: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        windows,
        window_secs: 300.0,
        cluster: ClusterOptions::new().with_seed(seed),
    }
}

fn atom_scaler(shop: &SockShop, mix: &[f64], budget: usize) -> Atom {
    let binding = shop.binding(scenarios::INITIAL_USERS, scenarios::THINK_TIME, mix);
    let mut cfg = AtomConfig::new(shop.objective());
    cfg.ga.budget = Budget::Evaluations(budget);
    Atom::new(binding, cfg)
}

#[test]
fn atom_beats_doing_nothing() {
    let shop = SockShop::default();
    let workload = scenarios::evaluation_workload(scenarios::ordering_mix(), 2000);
    let spec = shop.app_spec();

    let mut noop = NoopScaler;
    let base = run_experiment(&spec, workload.clone(), &mut noop, config(6, 1)).unwrap();

    let mut atom = atom_scaler(&shop, workload.mix.fractions(), 200);
    let scaled = run_experiment(&spec, workload, &mut atom, config(6, 1)).unwrap();

    assert!(
        scaled.mean_tps(3, 6) > 1.5 * base.mean_tps(3, 6),
        "ATOM {} vs noop {}",
        scaled.mean_tps(3, 6),
        base.mean_tps(3, 6)
    );
    assert!(
        scaled.underprovision_area(Some(&STATELESS))
            < 0.5 * base.underprovision_area(Some(&STATELESS))
    );
}

#[test]
fn atom_beats_rule_based_baselines_on_heavy_ordering_mix() {
    // The Fig. 9/10 headline at reduced GA budget: at N = 3000 on the
    // ordering mix, ATOM clearly outperforms both baselines on the
    // whole-run TPS and on under-provisioning.
    let shop = SockShop::default();
    let make_workload = || scenarios::evaluation_workload(scenarios::ordering_mix(), 3000);

    let mut uh = UhScaler::new(&shop.app_spec_stateful_full_core());
    let uh_result = run_experiment(
        &shop.app_spec_stateful_full_core(),
        make_workload(),
        &mut uh,
        config(8, 5),
    )
    .unwrap();

    let mut uv = UvScaler::new(&shop.app_spec());
    let uv_result =
        run_experiment(&shop.app_spec(), make_workload(), &mut uv, config(8, 5)).unwrap();

    let mut atom = atom_scaler(&shop, make_workload().mix.fractions(), 250);
    let atom_result =
        run_experiment(&shop.app_spec(), make_workload(), &mut atom, config(8, 5)).unwrap();

    let tps = |r: &atom::core::ExperimentResult| r.mean_tps(0, 8);
    assert!(
        tps(&atom_result) > 1.10 * tps(&uv_result),
        "ATOM {} vs UV {}",
        tps(&atom_result),
        tps(&uv_result)
    );
    assert!(
        tps(&atom_result) > 1.05 * tps(&uh_result),
        "ATOM {} vs UH {}",
        tps(&atom_result),
        tps(&uh_result)
    );
    let au = |r: &atom::core::ExperimentResult| r.underprovision_area(Some(&STATELESS));
    assert!(
        au(&atom_result) < 0.6 * au(&uv_result),
        "A_u: ATOM {} vs UV {}",
        au(&atom_result),
        au(&uv_result)
    );
}

#[test]
fn scalers_are_deterministic_given_seed() {
    let shop = SockShop::default();
    let run = || {
        let workload = scenarios::evaluation_workload(scenarios::browsing_mix(), 1500);
        let mut atom = atom_scaler(&shop, workload.mix.fractions(), 120);
        run_experiment(&shop.app_spec(), workload, &mut atom, config(4, 9)).unwrap()
    };
    let a = run();
    let b = run();
    for (ra, rb) in a.reports.iter().zip(&b.reports) {
        assert_eq!(ra.total_tps, rb.total_tps);
        assert_eq!(ra.service_shares, rb.service_shares);
    }
}

#[test]
fn light_browsing_mix_keeps_scalers_close() {
    // Fig. 10's other half: on the light browsing mix all scalers end up
    // near the offered load; ATOM must not be (much) worse.
    let shop = SockShop::default();
    let make_workload = || scenarios::evaluation_workload(scenarios::browsing_mix(), 1000);

    let mut uv = UvScaler::new(&shop.app_spec());
    let uv_result =
        run_experiment(&shop.app_spec(), make_workload(), &mut uv, config(6, 11)).unwrap();
    let mut atom = atom_scaler(&shop, make_workload().mix.fractions(), 200);
    let atom_result =
        run_experiment(&shop.app_spec(), make_workload(), &mut atom, config(6, 11)).unwrap();

    let uv_tps = uv_result.mean_tps(3, 6);
    let atom_tps = atom_result.mean_tps(3, 6);
    assert!(
        atom_tps > 0.9 * uv_tps,
        "ATOM {atom_tps} vs UV {uv_tps} on light load"
    );
}
