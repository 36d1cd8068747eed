//! The paper's **Default** baseline: blind, uniform whitespace.
//!
//! "Even a straightforward use of this area slack (e.g., by decreasing
//! the row utilization factor during placement) would result in a
//! decrease in cell (and, in turn, power) density over the entire
//! circuit." This module implements exactly that: re-place the design at
//! a relaxed utilization so the same cells spread over a larger core.

use geom::Grid2d;
use netlist::Netlist;
use placement::{PlacementResult, Placer, PlacerConfig};

use crate::{FlowError, PowerDelta};

/// Re-places `netlist` with `area_overhead` (e.g. `0.161` for +16.1 %)
/// of extra core area distributed uniformly: the new utilization is
/// `base_utilization / (1 + area_overhead)`.
///
/// # Errors
///
/// Returns [`FlowError::BadStrategy`] for a negative overhead and
/// propagates placement failures.
pub fn uniform_slack(
    netlist: &Netlist,
    base_config: &PlacerConfig,
    area_overhead: f64,
) -> Result<PlacementResult, FlowError> {
    if area_overhead < 0.0 {
        return Err(FlowError::BadStrategy {
            detail: format!("negative area overhead {area_overhead}"),
        });
    }
    let relaxed = PlacerConfig {
        utilization: base_config.utilization / (1.0 + area_overhead),
        ..base_config.clone()
    };
    Ok(Placer::new(relaxed).place(netlist)?)
}

/// The surrogate *map* of a uniform-slack stage: every bin's power
/// density scaled by `1/(1 + area_overhead)`, on the input map's own
/// mesh. This is the composable map→map half of [`uniform_power_delta`],
/// used by transform pipelines whose later stages reshape the diluted
/// map further.
pub fn uniform_surrogate_map(power: &Grid2d<f64>, area_overhead: f64) -> Grid2d<f64> {
    let dilute = 1.0 / (1.0 + area_overhead.max(0.0));
    let mut out = power.clone();
    for value in out.values_mut() {
        *value *= dilute;
    }
    out
}

/// The screening surrogate for a Default (uniform slack) candidate:
/// spreading the same cells over `1 + area_overhead` times the area
/// scales every bin's power density by `1/(1 + area_overhead)`, modeled
/// on the baseline mesh as a uniform scaling of the power map. Being a
/// pure scaling, a [`crate::DeltaCandidateEvaluator`] prices it in
/// closed form by linearity — no solve at all.
pub fn uniform_power_delta(power: &Grid2d<f64>, area_overhead: f64) -> PowerDelta {
    let scale = 1.0 / (1.0 + area_overhead.max(0.0)) - 1.0;
    let mut deltas = Vec::new();
    for iy in 0..power.ny() {
        for ix in 0..power.nx() {
            let p = *power.get(ix, iy);
            // lint: allow(float-eq, reason = "a zero overhead gives exactly 0.0 and must yield an empty delta; any other scale, however small, is a real scaling")
            if p > 0.0 && scale != 0.0 {
                deltas.push((ix, iy, p * scale));
            }
        }
    }
    PowerDelta::new(deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arithgen::{build_benchmark, BenchmarkConfig};

    #[test]
    fn overhead_grows_core_area_proportionally() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let base_cfg = PlacerConfig::default();
        let base = Placer::new(base_cfg.clone()).place(&nl).unwrap();
        let relaxed = uniform_slack(&nl, &base_cfg, 0.25).unwrap();
        let growth = relaxed.floorplan.core().area() / base.floorplan.core().area();
        assert!((growth - 1.25).abs() < 0.05, "area grew by {growth}");
        assert!(relaxed.placement.is_fully_placed(&nl));
    }

    #[test]
    fn zero_overhead_reproduces_the_base_area() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let base_cfg = PlacerConfig::default();
        let base = Placer::new(base_cfg.clone()).place(&nl).unwrap();
        let same = uniform_slack(&nl, &base_cfg, 0.0).unwrap();
        assert!(
            (same.floorplan.core().area() - base.floorplan.core().area()).abs()
                < base.floorplan.core().area() * 1e-6
        );
    }

    #[test]
    fn negative_overhead_is_rejected() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        assert!(uniform_slack(&nl, &PlacerConfig::default(), -0.1).is_err());
    }
}
