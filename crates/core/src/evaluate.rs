//! Candidate evaluation: pricing a power redistribution against the
//! memoized baseline.
//!
//! The optimization loops on top of the flow (row bisection, budget
//! search, frontier sweeps over strategy spaces) compare many
//! *candidate* transformations that differ from the memoized baseline
//! only in how power is redistributed over the die. A [`PowerDelta`]
//! captures that difference as a set of per-bin watt changes; a
//! [`CandidateEvaluator`] turns it into a peak-temperature estimate.
//!
//! [`DeltaCandidateEvaluator`] prices a candidate in one of two ways:
//!
//! * a uniform scaling of the baseline power map is priced in closed
//!   form — the network is linear, so the whole rise field scales with
//!   it and no solve is spent;
//! * anything else is priced by one [`FactorizedThermalModel::solve`] of
//!   the merged, validated power map against the base geometry's cached
//!   factorization (the spectral direct tier on the generated stacks,
//!   CSR/MIC(0)-CG as its fallback — under a millisecond at 40×40).
//!
//! Candidate deltas come from the strategy-transform engine:
//! [`crate::PlacementTransform::power_delta`] diffs a transform's
//! composable map→map surrogate against the memoized baseline, so any
//! registered technique — composites included — can be priced here
//! without touching a placement.
//!
//! Screening decisions come from these estimates, but reported
//! [`crate::FlowReport`] numbers never do: the optimization loops
//! re-verify every winning candidate with a full [`crate::Flow::run`]
//! (or [`crate::Flow::run_transform`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use geom::Grid2d;
use thermalsim::{FactorizedThermalModel, ThermalMap};

use crate::FlowError;

/// A candidate transformation expressed as a sparse power redistribution
/// (watts per thermal bin) against the baseline power map.
///
/// # Examples
///
/// ```
/// use postplace::PowerDelta;
///
/// // Move 2 mW from bin (3, 3) to bin (3, 6).
/// let delta = PowerDelta::new(vec![(3, 3, -2e-3), (3, 6, 2e-3)]);
/// assert_eq!(delta.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PowerDelta {
    /// Per-bin watt changes `(ix, iy, Δwatts)`; entries for the same bin
    /// accumulate.
    pub deltas: Vec<(usize, usize, f64)>,
}

impl PowerDelta {
    /// Wraps a list of per-bin changes.
    pub fn new(deltas: Vec<(usize, usize, f64)>) -> Self {
        PowerDelta { deltas }
    }

    /// The element-wise difference `candidate − base`, dropping changes
    /// below `eps` watts.
    ///
    /// # Panics
    ///
    /// Panics if the two maps have different resolutions.
    pub fn between(base: &Grid2d<f64>, candidate: &Grid2d<f64>, eps: f64) -> Self {
        assert_eq!(base.nx(), candidate.nx(), "power map resolution mismatch");
        assert_eq!(base.ny(), candidate.ny(), "power map resolution mismatch");
        let mut deltas = Vec::new();
        for iy in 0..base.ny() {
            for ix in 0..base.nx() {
                let dw = candidate.get(ix, iy) - base.get(ix, iy);
                if dw.abs() > eps {
                    deltas.push((ix, iy, dw));
                }
            }
        }
        PowerDelta { deltas }
    }

    /// Number of perturbed bins.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the candidate equals the baseline.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Returns `Some(scale)` when this delta is exactly a uniform scaling
    /// of `base` — every non-zero bin changed by the same factor and no
    /// zero bin gained power. Linearity then gives the perturbed field in
    /// closed form (no solve at all): `T′ − T_amb = (1 + scale)·(T −
    /// T_amb)`.
    fn uniform_scale_of(&self, base: &Grid2d<f64>) -> Option<f64> {
        if self.deltas.is_empty() {
            return Some(0.0);
        }
        let mut scale: Option<f64> = None;
        let mut seen = std::collections::HashSet::with_capacity(self.deltas.len());
        for &(ix, iy, dw) in &self.deltas {
            if ix >= base.nx() || iy >= base.ny() {
                return None;
            }
            // Duplicate entries accumulate per the contract; the simple
            // per-entry ratio test below would misread them, so leave
            // duplicated-bin deltas to the solve path.
            if !seen.insert((ix, iy)) {
                return None;
            }
            let p = *base.get(ix, iy);
            if p <= 0.0 {
                return None; // power appearing in an empty bin
            }
            let s = dw / p;
            if s < -1.0 - 1e-12 {
                // Beyond full removal — negative power. Leave it to the
                // general path, which rejects it as InvalidPower.
                return None;
            }
            match scale {
                None => scale = Some(s),
                Some(prev) if (prev - s).abs() > 1e-9 * (1.0 + prev.abs()) => return None,
                Some(_) => {}
            }
        }
        // Every powered bin must be scaled, or the field is not a pure
        // scaling of the baseline.
        let powered = base.values().iter().filter(|&&p| p > 0.0).count();
        if seen.len() == powered {
            scale
        } else {
            None
        }
    }
}

/// A candidate's estimated thermal outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateEval {
    /// Estimated peak temperature, °C.
    pub peak_c: f64,
    /// Estimated peak rise above ambient, K.
    pub peak_rise: f64,
    /// Estimated peak-temperature reduction vs the baseline, percent of
    /// the baseline rise (the paper's metric).
    pub reduction_pct: f64,
    /// `true` when the number came from a thermal solve, `false` when a
    /// uniform scaling of the baseline was priced in closed form.
    pub exact: bool,
}

/// Anything that can price a candidate power redistribution.
///
/// Implementations are thread-safe (`Send + Sync`) so optimization loops
/// can screen candidates from worker threads.
///
/// # Examples
///
/// ```no_run
/// use postplace::{CandidateEvaluator, Flow, FlowConfig, PowerDelta, Strategy};
///
/// # fn main() -> Result<(), postplace::FlowError> {
/// let flow = Flow::new(FlowConfig::scattered_small().fast())?;
/// let evaluator = flow.delta_evaluator()?;
/// // Screen a strategy without rebuilding its placement.
/// let delta = flow.strategy_power_delta(Strategy::EmptyRowInsertion { rows: 8 })?;
/// let estimate = evaluator.evaluate(&delta)?;
/// println!("estimated reduction: {:.2}%", estimate.reduction_pct);
/// // The winner is then re-verified exactly:
/// let report = flow.run(Strategy::EmptyRowInsertion { rows: 8 })?;
/// # let _ = report;
/// # Ok(())
/// # }
/// ```
pub trait CandidateEvaluator: Send + Sync {
    /// The baseline field candidates are measured against.
    fn baseline(&self) -> &ThermalMap;

    /// Prices one candidate.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures and invalid deltas.
    fn evaluate(&self, delta: &PowerDelta) -> Result<CandidateEval, FlowError>;

    /// Candidates evaluated so far.
    fn evaluations(&self) -> usize;
}

/// The screening evaluator: uniform scalings of the baseline are priced
/// in closed form, every other candidate by one re-solve against the
/// shared factorization (see the module docs).
#[derive(Debug)]
pub struct DeltaCandidateEvaluator {
    model: Arc<FactorizedThermalModel>,
    baseline_power: Grid2d<f64>,
    baseline: Arc<ThermalMap>,
    count: AtomicUsize,
}

impl DeltaCandidateEvaluator {
    /// Builds the evaluator from a factorized model and its baseline
    /// power map (the baseline field is solved once here).
    ///
    /// # Errors
    ///
    /// Propagates baseline-solve failures.
    pub fn new(
        model: Arc<FactorizedThermalModel>,
        baseline_power: &Grid2d<f64>,
    ) -> Result<Self, FlowError> {
        let baseline = model.solve(baseline_power)?;
        Ok(Self::with_baseline(
            model,
            baseline_power,
            Arc::new(baseline),
        ))
    }

    /// Like [`DeltaCandidateEvaluator::new`] with the baseline field
    /// already solved (e.g. the flow's memoized baseline analysis) — no
    /// extra solve is spent.
    pub fn with_baseline(
        model: Arc<FactorizedThermalModel>,
        baseline_power: &Grid2d<f64>,
        baseline: Arc<ThermalMap>,
    ) -> Self {
        DeltaCandidateEvaluator {
            model,
            baseline_power: baseline_power.clone(),
            baseline,
            count: AtomicUsize::new(0),
        }
    }
}

impl CandidateEvaluator for DeltaCandidateEvaluator {
    fn baseline(&self) -> &ThermalMap {
        &self.baseline
    }

    fn evaluate(&self, delta: &PowerDelta) -> Result<CandidateEval, FlowError> {
        self.count.fetch_add(1, Ordering::Relaxed);
        let baseline = &self.baseline;
        // A pure scaling of the baseline power needs no solve at all:
        // by linearity the whole rise field scales with it.
        if let Some(scale) = delta.uniform_scale_of(&self.baseline_power) {
            let base_rise = baseline.peak_rise();
            let rise = (1.0 + scale) * base_rise;
            return Ok(CandidateEval {
                peak_c: baseline.ambient_c()
                    + (1.0 + scale) * (baseline.peak_bin().1 - baseline.ambient_c()),
                peak_rise: rise,
                reduction_pct: if base_rise > 0.0 { -scale * 100.0 } else { 0.0 },
                exact: false,
            });
        }
        // Merge duplicate entries first, then validate the net totals.
        let mut power = self.baseline_power.clone();
        for &(ix, iy, dw) in &delta.deltas {
            if ix >= power.nx() || iy >= power.ny() || !dw.is_finite() {
                return Err(FlowError::Thermal(thermalsim::ThermalError::InvalidPower {
                    bin: (ix, iy),
                    watts: dw,
                }));
            }
            *power.get_mut(ix, iy) += dw;
        }
        for iy in 0..power.ny() {
            for ix in 0..power.nx() {
                let watts = power.get_mut(ix, iy);
                if *watts < -1e-9 {
                    return Err(FlowError::Thermal(thermalsim::ThermalError::InvalidPower {
                        bin: (ix, iy),
                        watts: *watts,
                    }));
                }
                if *watts < 0.0 {
                    *watts = 0.0; // rounding residue of a full move-out
                }
            }
        }
        let map = self.model.solve(&power)?;
        let (base_rise, rise) = (baseline.peak_rise(), map.peak_rise());
        Ok(CandidateEval {
            peak_c: map.peak_bin().1,
            peak_rise: rise,
            reduction_pct: if base_rise > 0.0 {
                (base_rise - rise) / base_rise * 100.0
            } else {
                0.0
            },
            exact: true,
        })
    }

    fn evaluations(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geom::Rect;
    use thermalsim::ThermalConfig;

    fn setup() -> (Arc<FactorizedThermalModel>, Grid2d<f64>) {
        let die = Rect::new(0.0, 0.0, 300.0, 300.0);
        let model = Arc::new(
            FactorizedThermalModel::build(&ThermalConfig::with_resolution(10, 10), die).unwrap(),
        );
        let mut power = Grid2d::new(10, 10, die, 0.0);
        *power.get_mut(5, 5) = 3e-3;
        *power.get_mut(2, 7) = 1e-3;
        (model, power)
    }

    #[test]
    fn candidates_are_priced_by_a_solve_of_the_perturbed_map() {
        let (model, power) = setup();
        let evaluator = DeltaCandidateEvaluator::new(Arc::clone(&model), &power).unwrap();
        let candidate = PowerDelta::new(vec![(5, 5, -1e-3), (8, 2, 1e-3)]);
        let got = evaluator.evaluate(&candidate).unwrap();
        assert!(got.exact);
        let mut perturbed = power.clone();
        *perturbed.get_mut(5, 5) -= 1e-3;
        *perturbed.get_mut(8, 2) += 1e-3;
        let want = model.solve(&perturbed).unwrap();
        assert_eq!(got.peak_c.to_bits(), want.peak_bin().1.to_bits());
        assert_eq!(got.peak_rise.to_bits(), want.peak_rise().to_bits());
        assert!(got.reduction_pct > 0.0, "moving hotspot power must cool");
        assert_eq!(evaluator.evaluations(), 1);
    }

    #[test]
    fn uniform_scaling_is_priced_in_closed_form() {
        let (model, power) = setup();
        let evaluator = DeltaCandidateEvaluator::new(Arc::clone(&model), &power).unwrap();
        // Scale every powered bin down by 1/(1+0.25): the Default
        // strategy's dilution surrogate.
        let s = 1.0 / 1.25 - 1.0;
        let candidate = PowerDelta::new(vec![(5, 5, 3e-3 * s), (2, 7, 1e-3 * s)]);
        let got = evaluator.evaluate(&candidate).unwrap();
        assert!(!got.exact, "no solve spent");
        let mut scaled = power.clone();
        *scaled.get_mut(5, 5) *= 1.0 + s;
        *scaled.get_mut(2, 7) *= 1.0 + s;
        let want = model.solve(&scaled).unwrap();
        assert!((got.peak_rise - want.peak_rise()).abs() < 1e-6);
        assert!(
            (got.reduction_pct - 20.0).abs() < 1e-6,
            "{}",
            got.reduction_pct
        );
    }

    #[test]
    fn duplicate_bin_deltas_accumulate() {
        // Duplicate entries accumulate: a net-zero pair prices as the
        // baseline (no closed-form misfire), and a split move prices as
        // the merged one.
        let (model, power) = setup();
        let evaluator = DeltaCandidateEvaluator::new(model, &power).unwrap();
        let net_zero = PowerDelta::new(vec![(5, 5, -2e-3), (5, 5, 2e-3)]);
        let got = evaluator.evaluate(&net_zero).unwrap();
        assert!((got.peak_rise - evaluator.baseline().peak_rise()).abs() < 1e-9);
        let split = PowerDelta::new(vec![(5, 5, -4e-4), (5, 5, -6e-4), (8, 2, 1e-3)]);
        let merged = PowerDelta::new(vec![(5, 5, -1e-3), (8, 2, 1e-3)]);
        let a = evaluator.evaluate(&split).unwrap();
        let b = evaluator.evaluate(&merged).unwrap();
        assert!(
            (a.peak_c - b.peak_c).abs() < 1e-9,
            "{} vs {}",
            a.peak_c,
            b.peak_c
        );
        // Driving a bin's total power negative is an error, as are
        // out-of-range bins and non-finite changes.
        for bad in [
            PowerDelta::new(vec![(5, 5, -1.0)]),
            PowerDelta::new(vec![(10, 0, 1e-3)]),
            PowerDelta::new(vec![(0, 0, f64::NAN)]),
        ] {
            assert!(evaluator.evaluate(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_delta_is_the_baseline() {
        let (model, power) = setup();
        let evaluator = DeltaCandidateEvaluator::new(model, &power).unwrap();
        let eval = evaluator.evaluate(&PowerDelta::default()).unwrap();
        assert!((eval.reduction_pct).abs() < 1e-12);
        assert!((eval.peak_rise - evaluator.baseline().peak_rise()).abs() < 1e-12);
    }

    #[test]
    fn between_diffs_power_maps_sparsely() {
        let die = Rect::new(0.0, 0.0, 100.0, 100.0);
        let base = Grid2d::new(4, 4, die, 1e-3);
        let mut cand = base.clone();
        *cand.get_mut(1, 2) += 5e-4;
        *cand.get_mut(3, 0) -= 2e-4;
        let delta = PowerDelta::between(&base, &cand, 1e-12);
        assert_eq!(delta.len(), 2);
        let (_, _, dw) = delta
            .deltas
            .iter()
            .find(|&&(ix, iy, _)| (ix, iy) == (1, 2))
            .unwrap();
        assert!((dw - 5e-4).abs() < 1e-12);
    }
}
