//! Property-based tests: the solvers must respect operational laws for
//! arbitrary networks, not just hand-picked examples.

use atom_mva::bounds::throughput_bounds;
use atom_mva::closed::{solve_exact, solve_exact_multiclass};
use atom_mva::{solve_amva, AmvaOptions, ClassSpec, ClosedNetwork, Station};
use proptest::prelude::*;

fn single_class_network() -> impl Strategy<Value = ClosedNetwork> {
    (
        proptest::collection::vec((0.001f64..0.5, 1usize..4), 1..5),
        1usize..60,
        0.0f64..10.0,
    )
        .prop_map(|(stations, population, think)| {
            let stations = stations
                .into_iter()
                .enumerate()
                .map(|(i, (d, m))| Station::queueing(format!("s{i}"), m, vec![d]))
                .collect();
            ClosedNetwork::new(stations, vec![ClassSpec::new("c", population, think)]).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_mva_within_asymptotic_bounds(net in single_class_network()) {
        let sol = solve_exact(&net).unwrap();
        let b = throughput_bounds(&net);
        prop_assert!(sol.throughput[0] <= b.upper + 1e-9,
            "X={} upper={}", sol.throughput[0], b.upper);
        prop_assert!(sol.throughput[0] >= b.lower - 1e-9,
            "X={} lower={}", sol.throughput[0], b.lower);
    }

    #[test]
    fn exact_mva_conserves_population(net in single_class_network()) {
        let sol = solve_exact(&net).unwrap();
        let n = net.classes()[0].population() as f64;
        let in_stations: f64 = sol.queue_length.iter().map(|q| q[0]).sum();
        let thinking = sol.throughput[0] * net.classes()[0].think_time();
        prop_assert!((in_stations + thinking - n).abs() < 1e-6,
            "{} + {} != {}", in_stations, thinking, n);
    }

    #[test]
    fn exact_mva_utilization_law_holds(net in single_class_network()) {
        let sol = solve_exact(&net).unwrap();
        for (k, st) in net.stations().iter().enumerate() {
            let expected = sol.throughput[0] * st.demand(0) / st.servers() as f64;
            prop_assert!((sol.utilization[k] - expected).abs() < 1e-9);
            prop_assert!(sol.utilization[k] <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn amva_tracks_exact_single_class(net in single_class_network()) {
        let exact = solve_exact(&net).unwrap();
        let approx = solve_amva(&net, AmvaOptions).unwrap();
        // Bard–Schweitzer is typically within a few percent; allow a
        // conservative envelope including multi-server approximations.
        let rel = (exact.throughput[0] - approx.throughput[0]).abs()
            / exact.throughput[0].max(1e-9);
        prop_assert!(rel < 0.25, "rel error {rel}");
        // And never violates the hard bounds.
        let b = throughput_bounds(&net);
        prop_assert!(approx.throughput[0] <= b.upper * 1.001 + 1e-9);
    }

    #[test]
    fn multiclass_exact_satisfies_littles_law(
        d in proptest::collection::vec((0.001f64..0.3, 0.001f64..0.3), 1..4),
        n1 in 1usize..6,
        n2 in 1usize..6,
    ) {
        let stations = d
            .into_iter()
            .enumerate()
            .map(|(i, (a, b))| Station::queueing(format!("s{i}"), 1, vec![a, b]))
            .collect();
        let net = ClosedNetwork::new(
            stations,
            vec![ClassSpec::new("a", n1, 1.0), ClassSpec::new("b", n2, 0.5)],
        )
        .unwrap();
        let sol = solve_exact_multiclass(&net).unwrap();
        for cls in 0..2 {
            let in_system: f64 = sol.queue_length.iter().map(|q| q[cls]).sum();
            let expected = sol.throughput[cls] * sol.response_time[cls];
            prop_assert!((in_system - expected).abs() < 1e-6);
        }
    }

    #[test]
    fn throughput_monotone_in_population(
        d in 0.01f64..0.3,
        m in 1usize..4,
        z in 0.0f64..5.0,
    ) {
        let mut last = 0.0;
        for n in [1usize, 4, 16, 40] {
            let net = ClosedNetwork::new(
                vec![Station::queueing("s", m, vec![d])],
                vec![ClassSpec::new("c", n, z)],
            )
            .unwrap();
            let x = solve_exact(&net).unwrap().throughput[0];
            prop_assert!(x >= last - 1e-9);
            last = x;
        }
    }
}
