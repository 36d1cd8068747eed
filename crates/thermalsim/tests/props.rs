//! Property tests for factorization reuse: a [`FactorizedThermalModel`]
//! built once per geometry must reproduce fresh
//! [`ThermalSimulator::solve`] temperature fields to within solver
//! tolerance for any admissible power map, mesh resolution and die size.

use geom::{Grid2d, Rect};
use proptest::prelude::*;
use thermalsim::{FactorizedThermalModel, SolverKind, ThermalConfig, ThermalSimulator};

/// Builds both solver backends for one geometry and asserts their
/// temperature fields agree to ≤ `tol_k` kelvin on `power`.
fn assert_backends_agree(
    nx: usize,
    ny: usize,
    die: Rect,
    power: &Grid2d<f64>,
    tol_k: f64,
) -> Result<(), String> {
    let base = ThermalConfig::with_resolution(nx, ny);
    let stencil =
        FactorizedThermalModel::build(&base.clone().with_solver(SolverKind::Stencil), die)
            .map_err(|e| e.to_string())?;
    let csr = FactorizedThermalModel::build(&base.with_solver(SolverKind::Csr), die)
        .map_err(|e| e.to_string())?;
    let a = stencil.solve(power).map_err(|e| e.to_string())?;
    let b = csr.solve(power).map_err(|e| e.to_string())?;
    for ((bin, x), (_, y)) in a.grid().iter().zip(b.grid().iter()) {
        if (x - y).abs() > tol_k {
            return Err(format!(
                "mesh {nx}x{ny} bin {bin:?}: multigrid {x} vs MIC(0) {y} (|Δ| > {tol_k} K)"
            ));
        }
    }
    Ok(())
}

/// The structured multigrid path must reproduce the CSR + MIC(0) oracle
/// to ≤ 1e-6 K on the non-power-of-two and asymmetric meshes the 2:1
/// coarsening handles with clipped aggregates.
#[test]
fn multigrid_matches_csr_oracle_on_awkward_meshes() {
    let die = Rect::new(0.0, 0.0, 373.5, 375.3);
    for (nx, ny) in [(28usize, 28usize), (20, 12), (9, 17)] {
        let mut power = Grid2d::new(nx, ny, die, 1e-6);
        *power.get_mut(nx / 2, ny / 2) = 2.5e-3;
        *power.get_mut(1, ny - 2) = 8e-4;
        *power.get_mut(nx - 1, 0) = 4e-4;
        assert_backends_agree(nx, ny, die, &power, 1e-6).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The structured-vs-CSR acceptance pin across random workloads,
    /// mesh resolutions (including non-square) and die sizes: the two
    /// backends solve the *same* conductance values, so their fields
    /// must agree to well under a microkelvin.
    #[test]
    fn multigrid_matches_csr_oracle_on_random_workloads(
        nx in 5usize..14,
        ny in 5usize..14,
        side in 150.0f64..500.0,
        bins in prop::collection::vec((0usize..14, 0usize..14, 1e-5f64..5e-3), 1..9),
    ) {
        let die = Rect::new(0.0, 0.0, side, side * 0.85);
        let mut power = Grid2d::new(nx, ny, die, 0.0);
        for &(ix, iy, w) in &bins {
            *power.get_mut(ix % nx, iy % ny) += w;
        }
        let outcome = assert_backends_agree(nx, ny, die, &power, 1e-6);
        prop_assert!(outcome.is_ok(), "{outcome:?}");
    }

    #[test]
    fn cached_model_matches_fresh_solves(
        n in 4usize..11,
        side in 150.0f64..500.0,
        bins in prop::collection::vec((0usize..10, 0usize..10, 0.0f64..5e-3), 1..8),
    ) {
        let die = Rect::new(0.0, 0.0, side, side * 0.9);
        let config = ThermalConfig::with_resolution(n, n);
        let sim = ThermalSimulator::new(config.clone());
        let model = FactorizedThermalModel::build(&config, die).unwrap();
        // Two power maps against the same factorization: reuse must not
        // leak state between solves.
        for round in 0..2 {
            let mut power = Grid2d::new(n, n, die, 0.0);
            for &(ix, iy, w) in &bins {
                *power.get_mut(ix % n, iy % n) += w * (round + 1) as f64;
            }
            let fresh = sim.solve(die, &power).unwrap();
            let cached = model.solve(&power).unwrap();
            let scale = 1.0 + fresh.peak_rise();
            for ((_, a), (_, b)) in fresh.grid().iter().zip(cached.grid().iter()) {
                prop_assert!(
                    (a - b).abs() < 1e-5 * scale,
                    "mesh {n}x{n}, round {round}: fresh {a} vs cached {b}"
                );
            }
        }
    }

}
