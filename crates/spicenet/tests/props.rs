//! Property-based tests: random ladder/grid networks must satisfy the
//! physics invariants regardless of topology and element values.

use proptest::prelude::*;
use spicenet::{Circuit, Method, NodeRef, SolveOptions};

/// Builds a random resistor ladder to ground with one pinned end and
/// random current injections; returns the circuit.
fn ladder(resistances: &[f64], injections: &[f64], pin: f64) -> Circuit {
    let mut c = Circuit::new();
    let nodes: Vec<NodeRef> = (0..resistances.len())
        .map(|i| NodeRef::Node(c.node(format!("n{i}"))))
        .collect();
    for (i, &r) in resistances.iter().enumerate() {
        let prev = if i == 0 {
            NodeRef::Ground
        } else {
            nodes[i - 1]
        };
        c.resistor(prev, nodes[i], r).unwrap();
    }
    c.voltage_source(nodes[0], NodeRef::Ground, pin).unwrap();
    for (i, &amps) in injections.iter().enumerate() {
        if amps != 0.0 {
            c.current_source(NodeRef::Ground, nodes[i], amps).unwrap();
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cg_matches_dense_on_random_ladders(
        rs in prop::collection::vec(1.0f64..10_000.0, 2..20),
        pin in -10.0f64..10.0,
        amps in prop::collection::vec(-0.1f64..0.1, 2..20),
    ) {
        let k = rs.len().min(amps.len());
        let c = ladder(&rs[..k], &amps[..k], pin);
        let cg = c.solve(SolveOptions {
            method: Method::ConjugateGradient,
            tolerance: 1e-12,
            max_iterations: Some(100_000),
            ..Default::default()
        }).unwrap();
        let lu = c.solve(SolveOptions { method: Method::DenseLu, ..Default::default() }).unwrap();
        for (a, b) in cg.voltages().iter().zip(lu.voltages()) {
            prop_assert!((a - b).abs() < 1e-5 * (1.0 + b.abs()), "CG {a} vs LU {b}");
        }
    }

    #[test]
    fn all_nonnegative_injections_yield_voltages_above_pin(
        rs in prop::collection::vec(1.0f64..1_000.0, 2..16),
        amps in prop::collection::vec(0.0f64..0.1, 2..16),
    ) {
        // With a single grounded pin at 0 and only inward current
        // injections, every node sits at or above 0 (maximum principle).
        let k = rs.len().min(amps.len());
        let c = ladder(&rs[..k], &amps[..k], 0.0);
        let sol = c.solve(SolveOptions::default()).unwrap();
        for &v in sol.voltages() {
            prop_assert!(v >= -1e-9, "node below reference: {v}");
        }
    }

    #[test]
    fn solution_is_linear_in_the_rhs(
        rs in prop::collection::vec(1.0f64..1_000.0, 3..12),
        amps in prop::collection::vec(-0.05f64..0.05, 3..12),
        scale in 0.1f64..5.0,
    ) {
        let k = rs.len().min(amps.len());
        let base = ladder(&rs[..k], &amps[..k], 0.0)
            .solve(SolveOptions::default()).unwrap();
        let scaled_amps: Vec<f64> = amps[..k].iter().map(|a| a * scale).collect();
        let scaled = ladder(&rs[..k], &scaled_amps, 0.0)
            .solve(SolveOptions::default()).unwrap();
        for (b, s) in base.voltages().iter().zip(scaled.voltages()) {
            prop_assert!((s - b * scale).abs() < 1e-6 * (1.0 + s.abs()));
        }
    }

    #[test]
    fn kcl_holds_at_every_internal_node(
        rs in prop::collection::vec(1.0f64..1_000.0, 3..12),
        amps in prop::collection::vec(-0.05f64..0.05, 3..12),
    ) {
        let k = rs.len().min(amps.len());
        let c = ladder(&rs[..k], &amps[..k], 1.0);
        let sol = c.solve(SolveOptions {
            method: Method::ConjugateGradient,
            tolerance: 1e-13,
            max_iterations: Some(100_000),
            ..Default::default()
        }).unwrap();
        // Internal nodes (not pinned): net resistor current == injection.
        // Resistor rs[i] connects node i-1 (or ground) to node i.
        for i in 1..k {
            let v = sol.voltages()[i];
            let v_prev = sol.voltages()[i - 1];
            let mut out = (v - v_prev) / rs[i];
            if i + 1 < k {
                out += (v - sol.voltages()[i + 1]) / rs[i + 1];
            }
            prop_assert!((out - amps[i]).abs() < 1e-6, "KCL at node {i}: {out} vs {}", amps[i]);
        }
    }

}
