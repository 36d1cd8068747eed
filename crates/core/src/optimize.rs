//! The paper's stated future work, implemented: "improve the efficiency
//! of the approaches by transforming them into suitable optimization
//! problems (e.g., the amount of empty rows or filler cells to be
//! inserted)."
//!
//! [`minimize_rows_for_target`] finds the smallest empty-row count whose
//! ERI transformation reaches a requested peak-temperature reduction,
//! [`best_strategy_within_budget_with`] picks the winning technique under
//! an area budget, and the frontier goal of [`Flow::optimize`] sweeps the
//! whole transform registry — the decisions a designer would otherwise
//! sweep by hand.
//!
//! All three loops follow the same two-phase shape: candidates are first
//! *screened* through a [`crate::DeltaCandidateEvaluator`] — each
//! candidate's power-map surrogate priced against the memoized baseline
//! by one thermal solve (or in closed form for a uniform scaling)
//! instead of a full re-place + re-solve — and only the screened
//! winners are *verified* with exact [`Flow::run`] evaluations. Reported
//! numbers therefore never come from the surrogate, and the exactness
//! guarantees (minimality of the row count, target actually met) are
//! enforced by real runs.

use crate::{
    CandidateEvaluator, Flow, FlowError, FlowReport, PlacementTransform, Strategy,
    TransformRegistry,
};

/// Tunable knobs of the screen-then-verify optimization loops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeConfig {
    /// How far (in percentage points of reduction) the screening
    /// surrogate is trusted when ranking candidates: an
    /// exactly-evaluated leader must beat the next candidate's
    /// *estimate* by this margin before the loop stops spending exact
    /// evaluations on the rest. Raise it for workloads where the
    /// surrogate is known to be optimistic; lower it to spend fewer
    /// exact runs.
    pub screen_margin_pct: f64,
    /// Slack (in percentage points of area) tolerated between a
    /// candidate's realized overhead and the budget — row quantization
    /// and placer realization keep overheads from landing exactly on
    /// the target.
    pub budget_slack_pct: f64,
    /// Frontier resolution (percentage points of reduction): a
    /// surrogate-front candidate is exact-verified only when its
    /// estimate adds at least this much over the previously verified
    /// point. Near-duplicate candidates (different techniques realizing
    /// the same trade-off within noise) then share one exact run, which
    /// is what keeps exact verifications a small fraction of the
    /// screened set. `0.0` verifies the entire surrogate front.
    pub frontier_gain_pct: f64,
}

impl Default for OptimizeConfig {
    fn default() -> Self {
        OptimizeConfig {
            screen_margin_pct: 1.5,
            budget_slack_pct: 0.5,
            frontier_gain_pct: 0.25,
        }
    }
}

/// Result of a row-count optimization.
#[must_use = "a RowOptimum carries the selected row count and its evidence"]
#[derive(Debug, Clone)]
pub struct RowOptimum {
    /// The smallest row count meeting the target (if any met it).
    pub rows: usize,
    /// The report at that row count (from an exact run).
    pub report: FlowReport,
    /// Number of exact `Flow::run` evaluations spent.
    pub evaluations: usize,
    /// Number of cheap surrogate screenings spent (power-delta estimates).
    pub screened: usize,
}

/// Finds the minimum number of inserted empty rows achieving at least
/// `target_reduction_pct` (reduction is monotone in the row count to well
/// within solver noise).
///
/// The row-count axis is first bisected on the power-delta screening surrogate
/// to locate a candidate; the candidate is then verified — and, if the
/// surrogate was optimistic, grown; if pessimistic, walked down — with
/// exact [`Flow::run`] evaluations, so the returned optimum carries the
/// same exact-minimality guarantee as a full exact bisection at a
/// fraction of the evaluations.
///
/// `max_rows` bounds the search (e.g. the largest acceptable overhead).
///
/// # Errors
///
/// Returns [`FlowError::BadStrategy`] when even `max_rows` rows miss the
/// target, and propagates evaluation errors.
pub fn minimize_rows_for_target(
    flow: &Flow,
    target_reduction_pct: f64,
    max_rows: usize,
) -> Result<RowOptimum, FlowError> {
    if max_rows == 0 {
        return Err(FlowError::BadStrategy {
            detail: "empty row insertion needs rows > 0".to_string(),
        });
    }
    // Phase 1: screen. Bisect the row axis on the surrogate estimate to
    // get a starting candidate without paying a single re-place.
    let evaluator = flow.delta_evaluator()?;
    let mut screened = 0usize;
    let mut estimate = |rows: usize| -> Result<f64, FlowError> {
        screened += 1;
        let delta = flow.strategy_power_delta(Strategy::EmptyRowInsertion { rows })?;
        Ok(evaluator.evaluate(&delta)?.reduction_pct)
    };
    let mut guess = max_rows;
    if max_rows > 1 && estimate(max_rows)? >= target_reduction_pct {
        let (mut lo, mut hi) = (1usize, max_rows);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if estimate(mid)? >= target_reduction_pct {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        guess = hi;
    }

    // Phase 2: verify exactly. Every number reported below comes from a
    // real `Flow::run`; the surrogate only chose where to start. Memoize
    // per row count — the grow phase and the closing bisection can land
    // on the same candidate, and a re-place + re-solve is never free.
    let mut evaluations = 0usize;
    let mut memo: std::collections::HashMap<usize, FlowReport> = std::collections::HashMap::new();
    let mut run = |rows: usize| -> Result<FlowReport, FlowError> {
        if let Some(report) = memo.get(&rows) {
            return Ok(report.clone());
        }
        evaluations += 1;
        let report = flow.run(Strategy::EmptyRowInsertion { rows })?;
        memo.insert(rows, report.clone());
        Ok(report)
    };
    let mut rows = guess;
    let mut report = run(rows)?;
    // Surrogate optimism: grow until the target is exactly met (doubling
    // the distance to the cap bounds this at O(log max_rows) runs).
    while report.reduction_pct() < target_reduction_pct {
        if rows >= max_rows {
            return Err(FlowError::BadStrategy {
                detail: format!(
                    "even {max_rows} rows reach only {:.2}% (< {target_reduction_pct:.2}%)",
                    report.reduction_pct()
                ),
            });
        }
        rows = (rows + (rows - rows / 2).max(1)).min(max_rows);
        report = run(rows)?;
    }
    // Surrogate pessimism: gallop down to the exact minimum — probe at
    // exponentially growing distances until the first miss (an accurate
    // surrogate pays one probe; a poor one O(log) instead of O(rows)),
    // then close the last gap by exact bisection. Monotonicity makes
    // the first miss a valid bisection floor.
    let mut floor = None; // largest row count known to miss the target
    let mut step = 1usize;
    while rows > 1 {
        let probe = rows.saturating_sub(step).max(1);
        let rep = run(probe)?;
        if rep.reduction_pct() >= target_reduction_pct {
            rows = probe;
            report = rep;
            step *= 2;
        } else {
            floor = Some(probe);
            break;
        }
    }
    if let Some(miss) = floor {
        let (mut lo, mut hi) = (miss + 1, rows);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let rep = run(mid)?;
            if rep.reduction_pct() >= target_reduction_pct {
                hi = mid;
                report = rep;
            } else {
                lo = mid + 1;
            }
        }
        rows = hi;
    }
    Ok(RowOptimum {
        rows,
        report,
        evaluations,
        screened,
    })
}

/// The outcome of a budget search, with its evaluation accounting.
#[must_use = "a BudgetOptimum carries the search result and its accounting"]
#[derive(Debug, Clone)]
pub struct BudgetOptimum {
    /// The winning report (always from an exact run).
    pub report: FlowReport,
    /// Cheap surrogate screenings spent.
    pub screened: usize,
    /// Exact `Flow::run` evaluations spent.
    pub evaluations: usize,
    /// Candidates discarded *before any evaluation* because their
    /// row-quantized planned overhead already exceeded the budget.
    pub skipped_over_budget: usize,
}

/// Evaluates the three techniques at an area budget and returns the
/// report with the largest peak-temperature reduction, plus the search's
/// evaluation accounting.
///
/// Candidates whose row-quantized planned overhead is knowably over
/// budget are dropped before *any* evaluation — surrogate or exact (a
/// one-row ERI on a sub-row budget used to cost a full re-place +
/// re-solve before being discarded). The survivors are ranked by the
/// power-delta screening surrogate; exact [`Flow::run`] evaluations are then
/// spent best-estimate-first and stop as soon as the confirmed leader
/// outruns every remaining estimate by the configured trust margin —
/// typically one or two exact runs instead of three. The returned report
/// always comes from an exact run.
///
/// # Errors
///
/// Propagates the first evaluation error, and returns
/// [`FlowError::BadStrategy`] when no candidate fits the budget.
pub fn best_strategy_within_budget_with(
    flow: &Flow,
    area_budget: f64,
    config: &OptimizeConfig,
) -> Result<BudgetOptimum, FlowError> {
    let rows = crate::rows_for_budget(flow, area_budget);
    let candidates = [
        Strategy::UniformSlack {
            area_overhead: area_budget,
        },
        Strategy::EmptyRowInsertion { rows },
        Strategy::HotspotWrapper {
            area_overhead: area_budget,
        },
    ];
    // Screen: drop knowably-over-budget candidates first (planned
    // overheads are exact for row-quantized techniques), then price the
    // survivors as power deltas on the baseline.
    let evaluator = flow.delta_evaluator()?;
    let budget_cap_pct = area_budget * 100.0 + config.budget_slack_pct;
    let mut skipped_over_budget = 0usize;
    let mut screened = 0usize;
    let mut ranked: Vec<(Box<dyn PlacementTransform>, f64)> = Vec::with_capacity(candidates.len());
    for strategy in candidates {
        let transform = strategy.to_transform();
        if transform.planned_overhead(flow)? * 100.0 > budget_cap_pct {
            skipped_over_budget += 1;
            continue;
        }
        // A candidate the workload cannot realize (e.g. ERI with no
        // detected hotspots) drops out of the ranking; the others still
        // compete — matching the tolerance of the exact-run stage below
        // and of `compute_pareto_frontier`.
        let delta = match transform.power_delta(flow) {
            Ok(d) => d,
            Err(FlowError::BadStrategy { .. }) => continue,
            Err(e) => return Err(e),
        };
        screened += 1;
        let estimate = evaluator.evaluate(&delta)?.reduction_pct;
        ranked.push((transform, estimate));
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    // Verify: exact runs, best estimate first, early-out on a clear win.
    let mut evaluations = 0usize;
    let mut best: Option<FlowReport> = None;
    for (transform, estimate) in &ranked {
        if let Some(b) = &best {
            if b.reduction_pct() >= estimate + config.screen_margin_pct {
                break;
            }
        }
        evaluations += 1;
        let report = match flow.run_transform(transform.as_ref()) {
            Ok(r) => r,
            // Inapplicable at this budget (e.g. a wrapper with too
            // little slack to absorb its hot cells): not a winner, not
            // fatal to the search.
            Err(FlowError::BadStrategy { .. }) => continue,
            Err(e) => return Err(e),
        };
        if report.area_overhead_pct > budget_cap_pct {
            continue; // over budget (placer realization drift)
        }
        best = match best {
            Some(b) if b.reduction_pct() >= report.reduction_pct() => Some(b),
            _ => Some(report),
        };
    }
    let report = best.ok_or_else(|| FlowError::BadStrategy {
        detail: "no strategy fits the area budget".to_string(),
    })?;
    Ok(BudgetOptimum {
        report,
        screened,
        evaluations,
        skipped_over_budget,
    })
}

/// One exact-verified point of an area-vs-temperature frontier.
#[must_use = "a ParetoPoint is an exact-verified trade-off the caller asked for"]
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// Stable id of the transform (parse it back with
    /// [`TransformRegistry::parse`]).
    pub transform_id: String,
    /// The registry family the candidate came from (`"eri"`,
    /// `"targeted-eri+spread"`, …).
    pub kind: String,
    /// The budget the transform was instantiated at.
    pub budget: f64,
    /// The surrogate's reduction estimate at screening time, percent.
    pub estimated_reduction_pct: f64,
    /// The exact report ([`Flow::run_transform`] — bit-reproducible).
    pub report: FlowReport,
}

/// The outcome of a frontier goal: the paper's headline comparison
/// — which technique wins at which area overhead — automated over the
/// whole transform registry.
#[must_use = "a ParetoFrontier is the product of many exact evaluations"]
#[derive(Debug, Clone)]
pub struct ParetoFrontier {
    /// Non-dominated points, sorted by realized area overhead; the
    /// reduction is strictly increasing along the frontier.
    pub points: Vec<ParetoPoint>,
    /// Distinct candidates instantiated from the registry × budget grid.
    pub candidates: usize,
    /// Candidates priced through the screening surrogate.
    pub screened: usize,
    /// Exact `Flow::run_transform` verifications spent.
    pub exact_runs: usize,
    /// Candidates skipped (over budget, or inapplicable to this
    /// workload — e.g. ERI with no detected hotspots).
    pub skipped: usize,
}

impl ParetoFrontier {
    /// Exact verifications as a fraction of screened candidates — the
    /// bench gate holds this at ≤ 25 %.
    pub fn exact_share(&self) -> f64 {
        if self.screened == 0 {
            0.0
        } else {
            self.exact_runs as f64 / self.screened as f64
        }
    }
}

/// Sweeps the full transform registry across a budget grid and returns
/// the area-overhead-vs-peak-reduction Pareto frontier.
///
/// Every `registry × budgets` candidate is priced through the
/// [`crate::DeltaCandidateEvaluator`] (one thermal solve of its power-map
/// surrogate, or none for a uniform scaling); only the candidates on the
/// *surrogate* Pareto front are verified with exact
/// [`Flow::run_transform`] evaluations, and the returned frontier is
/// re-filtered on the exact numbers — so it is monotone (strictly
/// increasing reduction over increasing overhead), non-dominated, and
/// every point's report bit-matches a direct run of its transform.
///
/// Candidates that do not apply to the workload (e.g. row insertion
/// when no hotspot is detected) or whose *exact* evaluation fails on a
/// degenerate geometry are skipped, not fatal: the frontier reports
/// what the registry could realize.
///
/// # Errors
///
/// Propagates baseline/thermal failures.
pub(crate) fn compute_pareto_frontier(
    flow: &Flow,
    budgets: &[f64],
    registry: &TransformRegistry,
    config: &OptimizeConfig,
) -> Result<ParetoFrontier, FlowError> {
    struct Candidate {
        transform: Box<dyn PlacementTransform>,
        kind: String,
        budget: f64,
        overhead_pct: f64,
        estimate: f64,
    }
    let evaluator = flow.delta_evaluator()?;
    let mut skipped = 0usize;
    let mut screened = 0usize;
    let mut seen = std::collections::HashSet::new();
    let mut candidates: Vec<Candidate> = Vec::new();
    for &budget in budgets {
        for factory in registry.factories() {
            let transform = match factory.at_budget(flow, budget) {
                Ok(t) => t,
                Err(FlowError::BadStrategy { .. }) => {
                    skipped += 1;
                    continue;
                }
                Err(e) => return Err(e),
            };
            // Row quantization makes neighbouring budgets collapse onto
            // the same transform; screen each distinct id once. The
            // budget check comes first: a candidate over *this* budget
            // (the one-row minimum) may still fit a later, larger one,
            // so only in-budget candidates enter the dedup set.
            if seen.contains(&transform.id()) {
                continue;
            }
            let overhead_pct = transform.planned_overhead(flow)? * 100.0;
            if overhead_pct > budget * 100.0 + config.budget_slack_pct {
                skipped += 1; // knowably over budget (one-row minimum)
                continue;
            }
            seen.insert(transform.id());
            let delta = match transform.power_delta(flow) {
                Ok(d) => d,
                Err(FlowError::BadStrategy { .. }) => {
                    skipped += 1; // inapplicable here (e.g. no hotspots)
                    continue;
                }
                Err(e) => return Err(e),
            };
            screened += 1;
            let estimate = evaluator.evaluate(&delta)?.reduction_pct;
            candidates.push(Candidate {
                transform,
                kind: factory.kind().to_string(),
                budget,
                overhead_pct,
                estimate,
            });
        }
    }
    let candidate_count = candidates.len();

    // Surrogate Pareto front: sort by (overhead asc, estimate desc) and
    // keep every candidate whose estimate strictly beats everything
    // cheaper by at least the frontier resolution — these are the only
    // candidates worth an exact run. Near-ties (several techniques
    // realizing the same trade-off within `frontier_gain_pct`) share
    // the one verification the first of them pays.
    candidates.sort_by(|a, b| {
        a.overhead_pct
            .total_cmp(&b.overhead_pct)
            .then(b.estimate.total_cmp(&a.estimate))
    });
    let mut exact_runs = 0usize;
    let mut verified: Vec<ParetoPoint> = Vec::new();
    let mut best_estimate = f64::NEG_INFINITY;
    for candidate in candidates {
        if candidate.estimate <= best_estimate + config.frontier_gain_pct {
            continue; // dominated on the surrogate (within resolution)
        }
        exact_runs += 1;
        let report = match flow.run_transform(candidate.transform.as_ref()) {
            Ok(r) => r,
            Err(FlowError::BadStrategy { .. }) => {
                // Degenerate at exact-apply time: do NOT raise the
                // estimate floor, so a near-tie alternative right after
                // this candidate still gets its verification instead of
                // being shadowed by a point that produced no report.
                skipped += 1;
                continue;
            }
            Err(e) => return Err(e),
        };
        best_estimate = candidate.estimate;
        verified.push(ParetoPoint {
            transform_id: candidate.transform.id(),
            kind: candidate.kind,
            budget: candidate.budget,
            estimated_reduction_pct: candidate.estimate,
            report,
        });
    }

    // Exact non-dominated filter: the surrogate ordering may not
    // survive exact evaluation, so re-run the dominance test on the
    // realized (overhead, reduction) pairs.
    verified.sort_by(|a, b| {
        a.report
            .area_overhead_pct
            .total_cmp(&b.report.area_overhead_pct)
            .then(
                b.report
                    .reduction_pct()
                    .total_cmp(&a.report.reduction_pct()),
            )
    });
    let mut points: Vec<ParetoPoint> = Vec::new();
    for point in verified {
        let dominated = points
            .last()
            .is_some_and(|prev| prev.report.reduction_pct() >= point.report.reduction_pct());
        if !dominated {
            points.push(point);
        }
    }
    Ok(ParetoFrontier {
        points,
        candidates: candidate_count,
        screened,
        exact_runs,
        skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowConfig;

    #[test]
    fn screened_bisection_finds_a_minimal_row_count() {
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let max_rows = flow.base_placement().floorplan.num_rows() / 2;
        // Ask for half of what max_rows achieves; the optimum must be
        // well below max_rows and still meet the target.
        let top = flow
            .run(Strategy::EmptyRowInsertion { rows: max_rows })
            .unwrap();
        let target = top.reduction_pct() / 2.0;
        let opt = minimize_rows_for_target(&flow, target, max_rows).unwrap();
        assert!(opt.rows < max_rows, "screening should shrink the rows");
        assert!(opt.report.reduction_pct() >= target);
        assert!(opt.screened > 0, "the surrogate must have been consulted");
        // Screening must not cost more exact runs than the old full
        // bisection (probe + log2(max_rows) steps).
        assert!(
            opt.evaluations <= (max_rows as f64).log2() as usize + 3,
            "{} exact evaluations",
            opt.evaluations
        );
        // One fewer row misses the target (minimality), allowing solver
        // noise of a tenth of a percentage point.
        if opt.rows > 1 {
            let less = flow
                .run(Strategy::EmptyRowInsertion { rows: opt.rows - 1 })
                .unwrap();
            assert!(less.reduction_pct() < target + 0.1);
        }
    }

    #[test]
    fn trivial_targets_cost_one_exact_evaluation() {
        // A target every candidate meets screens straight to one row and
        // needs exactly one exact run to verify it — no bisection spend.
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let always_met = minimize_rows_for_target(&flow, -100.0, 8).unwrap();
        assert_eq!(always_met.rows, 1, "every candidate meets the target");
        assert_eq!(always_met.evaluations, 1, "screen + single verify");
        assert!(always_met.screened >= 1);

        // Degenerate search space: the verify is the only evaluation and
        // nothing is screened.
        let single = minimize_rows_for_target(&flow, -100.0, 1).unwrap();
        assert_eq!(single.rows, 1);
        assert_eq!(single.evaluations, 1);
    }

    #[test]
    fn reported_numbers_come_from_exact_runs() {
        // Whatever the surrogate estimated, the returned report must
        // bit-match a direct exact evaluation at the same row count.
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let top = flow.run(Strategy::EmptyRowInsertion { rows: 8 }).unwrap();
        let opt = minimize_rows_for_target(&flow, top.reduction_pct() / 2.0, 8).unwrap();
        let direct = flow
            .run(Strategy::EmptyRowInsertion { rows: opt.rows })
            .unwrap();
        assert_eq!(opt.report.after.peak_c, direct.after.peak_c);
        assert_eq!(opt.report.area_overhead_pct, direct.area_overhead_pct);
    }

    #[test]
    fn unreachable_target_is_an_error() {
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        assert!(minimize_rows_for_target(&flow, 95.0, 8).is_err());
    }

    #[test]
    fn best_strategy_fits_the_budget_and_matches_the_typed_path() {
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let best = best_strategy_within_budget_with(&flow, 0.16, &OptimizeConfig::default())
            .unwrap()
            .report;
        assert!(best.reduction_pct() > 0.0);
        assert!(best.area_overhead_pct <= 16.5);
        // The typed request dispatches through the same search.
        let request = crate::OptimizeRequest::builder()
            .workload(flow.config().workload.clone())
            .mesh(flow.config().thermal.grid.nx, flow.config().thermal.grid.ny)
            .budget(0.16)
            .build()
            .unwrap();
        let typed = flow.optimize(&request).unwrap();
        let typed_report = typed.report().unwrap();
        assert_eq!(best.after.peak_c, typed_report.after.peak_c);
        assert_eq!(best.area_overhead_pct, typed_report.area_overhead_pct);
        assert_eq!(best.transform_id, typed_report.transform_id);
    }

    #[test]
    fn knowably_over_budget_candidates_skip_every_evaluation() {
        // Regression: a budget below one row pitch quantizes ERI to a
        // single row whose realized overhead is knowably over budget.
        // The old loop paid a full exact `Flow::run` on it before the
        // in-loop overhead check discarded it; screening must now drop
        // it before any evaluation — surrogate or exact.
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let rows0 = flow.base_placement().floorplan.num_rows();
        let budget = 0.5 / rows0 as f64; // half a row pitch
        let opt =
            best_strategy_within_budget_with(&flow, budget, &OptimizeConfig::default()).unwrap();
        assert_eq!(opt.skipped_over_budget, 1, "the one-row ERI candidate");
        assert_eq!(opt.screened, 2, "only uniform and hw get surrogates");
        assert!(
            opt.evaluations <= 2,
            "no exact run on the over-budget candidate ({} spent)",
            opt.evaluations
        );
        assert!(opt.report.area_overhead_pct <= budget * 100.0 + 0.5);
    }

    #[test]
    fn screen_margin_is_tunable_per_workload() {
        // A huge trust margin distrusts the surrogate and verifies every
        // in-budget candidate; a zero margin trusts the ranking and
        // stops as soon as the confirmed leader matches the next
        // estimate.
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let skeptical = OptimizeConfig {
            screen_margin_pct: 1e6,
            ..OptimizeConfig::default()
        };
        let all = best_strategy_within_budget_with(&flow, 0.16, &skeptical).unwrap();
        assert_eq!(all.evaluations, all.screened, "margin forces every run");
        let trusting = OptimizeConfig {
            screen_margin_pct: 0.0,
            ..OptimizeConfig::default()
        };
        let opt = best_strategy_within_budget_with(&flow, 0.16, &trusting).unwrap();
        assert!(opt.evaluations <= all.evaluations);
        // Both pick exact-verified winners; the trusting loop's winner
        // cannot beat the skeptical loop's (which saw everything).
        assert!(all.report.reduction_pct() >= opt.report.reduction_pct() - 1e-9);
    }
}
