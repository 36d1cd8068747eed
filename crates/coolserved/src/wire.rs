//! Wire codecs: typed request/response values ⇄ [`Json`] documents.
//!
//! The vendored `serde` is a stub (its derives are no-op facade
//! markers), so the service's actual serialization lives here as
//! hand-rolled, schema-stable codecs. Numbers travel as `f64` through
//! [`Json::Num`]; the writer renders the shortest round-trip form, so
//! every finite `f64` survives an encode → render → parse → decode
//! cycle **bit-exactly** — the property the cache-hit-equals-cold-solve
//! guarantee rests on.
//!
//! Every decoder names what is missing (`request.goal: missing key
//! `budget``) instead of returning an opaque `None`: a truncated or
//! hand-edited cache file must fail loudly, not deserialize to garbage.

use arithgen::UnitRole;
use geom::Rect;
use netlist::CellId;
use postplace::{
    BudgetOptimum, CacheKey, FlowReport, Hotspot, OptimizeGoal, OptimizeOutcome, OptimizeRequest,
    OptimizeRequestBuilder, OptimizeResponse, ParetoFrontier, ParetoPoint, RowOptimum, SolverKind,
    Strategy, ThermalSummary, WorkloadSpec,
};
use timan::TimingReport;

use crate::json::Json;
use crate::ServiceError;

/// Schema version of the on-disk result documents; bump on any
/// incompatible layout change so stale caches are rejected, not
/// misread.
pub const WIRE_SCHEMA: f64 = 1.0;

fn codec_err(detail: String) -> ServiceError {
    ServiceError::Codec { detail }
}

fn member<'a>(value: &'a Json, ctx: &str, key: &str) -> Result<&'a Json, ServiceError> {
    value
        .get(key)
        .ok_or_else(|| codec_err(format!("{ctx}: missing key `{key}`")))
}

fn member_f64(value: &Json, ctx: &str, key: &str) -> Result<f64, ServiceError> {
    member(value, ctx, key)?
        .as_f64()
        .ok_or_else(|| codec_err(format!("{ctx}: key `{key}` is not a number")))
}

fn member_usize(value: &Json, ctx: &str, key: &str) -> Result<usize, ServiceError> {
    let v = member_f64(value, ctx, key)?;
    // lint: allow(float-eq, reason = "fract() != 0.0 is the exact integer-ness test, not a tolerance comparison")
    if v.fract() != 0.0 || !(0.0..9.0e15).contains(&v) {
        return Err(codec_err(format!(
            "{ctx}: key `{key}` is not a non-negative integer ({v})"
        )));
    }
    Ok(v as usize)
}

fn member_str<'a>(value: &'a Json, ctx: &str, key: &str) -> Result<&'a str, ServiceError> {
    member(value, ctx, key)?
        .as_str()
        .ok_or_else(|| codec_err(format!("{ctx}: key `{key}` is not a string")))
}

fn member_arr<'a>(value: &'a Json, ctx: &str, key: &str) -> Result<&'a [Json], ServiceError> {
    member(value, ctx, key)?
        .as_arr()
        .ok_or_else(|| codec_err(format!("{ctx}: key `{key}` is not an array")))
}

fn f64_arr(value: &Json, ctx: &str, key: &str) -> Result<Vec<f64>, ServiceError> {
    member_arr(value, ctx, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| codec_err(format!("{ctx}: `{key}` holds a non-number")))
        })
        .collect()
}

fn role_name(role: UnitRole) -> &'static str {
    role.unit_name()
}

fn role_from_name(name: &str) -> Result<UnitRole, ServiceError> {
    UnitRole::ALL
        .iter()
        .copied()
        .find(|r| r.unit_name() == name)
        .ok_or_else(|| codec_err(format!("workload.active: unknown unit role `{name}`")))
}

/// [`WorkloadSpec`] → JSON.
pub fn workload_to_json(spec: &WorkloadSpec) -> Json {
    Json::obj([
        (
            "active",
            Json::Arr(
                spec.active
                    .iter()
                    .map(|&r| Json::Str(role_name(r).to_string()))
                    .collect(),
            ),
        ),
        ("toggle_probability", Json::Num(spec.toggle_probability)),
    ])
}

/// JSON → [`WorkloadSpec`].
pub fn workload_from_json(value: &Json) -> Result<WorkloadSpec, ServiceError> {
    let active = member_arr(value, "workload", "active")?
        .iter()
        .map(|v| {
            v.as_str()
                .ok_or_else(|| codec_err("workload.active holds a non-string".to_string()))
                .and_then(role_from_name)
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(WorkloadSpec {
        active,
        toggle_probability: member_f64(value, "workload", "toggle_probability")?,
    })
}

/// [`Strategy`] → JSON. Structural, not stringly: float parameters are
/// carried as numbers so they round-trip bit-exactly (the transform-id
/// string form formats floats and would not).
pub fn strategy_to_json(strategy: &Strategy) -> Json {
    match strategy {
        Strategy::None => Json::obj([("kind", Json::Str("none".to_string()))]),
        Strategy::UniformSlack { area_overhead } => Json::obj([
            ("kind", Json::Str("uniform".to_string())),
            ("area_overhead", Json::Num(*area_overhead)),
        ]),
        Strategy::EmptyRowInsertion { rows } => Json::obj([
            ("kind", Json::Str("eri".to_string())),
            ("rows", Json::Num(*rows as f64)),
        ]),
        Strategy::HotspotWrapper { area_overhead } => Json::obj([
            ("kind", Json::Str("wrapper".to_string())),
            ("area_overhead", Json::Num(*area_overhead)),
        ]),
    }
}

/// JSON → [`Strategy`].
pub fn strategy_from_json(value: &Json) -> Result<Strategy, ServiceError> {
    match member_str(value, "strategy", "kind")? {
        "none" => Ok(Strategy::None),
        "uniform" => Ok(Strategy::UniformSlack {
            area_overhead: member_f64(value, "strategy", "area_overhead")?,
        }),
        "eri" => Ok(Strategy::EmptyRowInsertion {
            rows: member_usize(value, "strategy", "rows")?,
        }),
        "wrapper" => Ok(Strategy::HotspotWrapper {
            area_overhead: member_f64(value, "strategy", "area_overhead")?,
        }),
        other => Err(codec_err(format!("strategy: unknown kind `{other}`"))),
    }
}

fn goal_to_json(goal: &OptimizeGoal) -> Json {
    match goal {
        OptimizeGoal::Strategy(s) => Json::obj([
            ("type", Json::Str("strategy".to_string())),
            ("strategy", strategy_to_json(s)),
        ]),
        OptimizeGoal::Transform { id } => Json::obj([
            ("type", Json::Str("transform".to_string())),
            ("id", Json::Str(id.clone())),
        ]),
        OptimizeGoal::BestWithinBudget { budget } => Json::obj([
            ("type", Json::Str("budget".to_string())),
            ("budget", Json::Num(*budget)),
        ]),
        OptimizeGoal::Frontier { budgets } => Json::obj([
            ("type", Json::Str("frontier".to_string())),
            (
                "budgets",
                Json::Arr(budgets.iter().map(|&b| Json::Num(b)).collect()),
            ),
        ]),
        OptimizeGoal::RowsForTarget {
            target_reduction_pct,
            max_rows,
        } => Json::obj([
            ("type", Json::Str("rows_for_target".to_string())),
            ("target_reduction_pct", Json::Num(*target_reduction_pct)),
            ("max_rows", Json::Num(*max_rows as f64)),
        ]),
    }
}

/// Sets the goal a JSON goal object names on `builder`.
fn goal_from_json(
    value: &Json,
    builder: OptimizeRequestBuilder,
) -> Result<OptimizeRequestBuilder, ServiceError> {
    Ok(match member_str(value, "goal", "type")? {
        "strategy" => builder.strategy(strategy_from_json(member(value, "goal", "strategy")?)?),
        "transform" => builder.transform(member_str(value, "goal", "id")?),
        "budget" => builder.budget(member_f64(value, "goal", "budget")?),
        "frontier" => builder.frontier(f64_arr(value, "goal", "budgets")?),
        "rows_for_target" => builder.rows_for_target(
            member_f64(value, "goal", "target_reduction_pct")?,
            member_usize(value, "goal", "max_rows")?,
        ),
        other => return Err(codec_err(format!("goal: unknown type `{other}`"))),
    })
}

/// [`OptimizeRequest`] → JSON. `solver_threads`, `deadline_ms` and
/// `solver` are emitted only when set, so documents written before any
/// of those knobs existed render byte-identically to ones written now
/// without them.
pub fn request_to_json(request: &OptimizeRequest) -> Json {
    let mut members = vec![
        ("workload".to_string(), workload_to_json(&request.workload)),
        (
            "mesh".to_string(),
            Json::Arr(vec![
                Json::Num(request.mesh.0 as f64),
                Json::Num(request.mesh.1 as f64),
            ]),
        ),
        ("goal".to_string(), goal_to_json(&request.goal)),
        (
            "tag".to_string(),
            match &request.tag {
                Some(tag) => Json::Str(tag.clone()),
                None => Json::Null,
            },
        ),
    ];
    if let Some(threads) = request.solver_threads {
        members.push(("solver_threads".to_string(), Json::Num(threads as f64)));
    }
    if let Some(deadline_ms) = request.deadline_ms {
        members.push(("deadline_ms".to_string(), Json::Num(deadline_ms as f64)));
    }
    if let Some(solver) = request.solver {
        members.push((
            "solver".to_string(),
            Json::Str(solver_token(solver).to_string()),
        ));
    }
    Json::Obj(members)
}

fn solver_token(solver: SolverKind) -> &'static str {
    match solver {
        SolverKind::Auto => "auto",
        SolverKind::Csr => "csr",
    }
}

fn solver_from_token(token: &str) -> Result<SolverKind, ServiceError> {
    match token {
        "auto" => Ok(SolverKind::Auto),
        "csr" => Ok(SolverKind::Csr),
        other => Err(codec_err(format!(
            "request.solver: unknown backend `{other}` (expected auto/csr)"
        ))),
    }
}

/// JSON → [`OptimizeRequest`].
pub fn request_from_json(value: &Json) -> Result<OptimizeRequest, ServiceError> {
    let mesh = member_arr(value, "request", "mesh")?;
    let [nx, ny] = mesh else {
        return Err(codec_err(format!(
            "request.mesh: expected [nx, ny], got {} element(s)",
            mesh.len()
        )));
    };
    let dim = |v: &Json, name: &str| {
        v.as_f64()
            // lint: allow(float-eq, reason = "fract() == 0.0 is the exact integer-ness test, not a tolerance comparison")
            .filter(|d| d.fract() == 0.0 && *d >= 0.0)
            .map(|d| d as usize)
            .ok_or_else(|| codec_err(format!("request.mesh: `{name}` is not an integer")))
    };
    let tag = match member(value, "request", "tag")? {
        Json::Null => None,
        Json::Str(s) => Some(s.clone()),
        _ => {
            return Err(codec_err(
                "request.tag is neither string nor null".to_string(),
            ))
        }
    };
    // Absent or null means "inherit the service default": documents
    // written before the knob existed must keep decoding.
    let solver_threads = match value.get("solver_threads") {
        None | Some(Json::Null) => None,
        Some(_) => Some(member_usize(value, "request", "solver_threads")?),
    };
    let deadline_ms = match value.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(_) => Some(member_usize(value, "request", "deadline_ms")? as u64),
    };
    let solver = match value.get("solver") {
        None | Some(Json::Null) => None,
        Some(_) => Some(solver_from_token(member_str(value, "request", "solver")?)?),
    };
    // Decoded requests go through the builder's validation like every
    // other request: a degenerate mesh or an unparsable transform id is
    // a codec error, not a job that fails (or misbehaves) downstream.
    let mut builder = OptimizeRequest::builder()
        .workload(workload_from_json(member(value, "request", "workload")?)?)
        .mesh(dim(nx, "nx")?, dim(ny, "ny")?);
    builder = goal_from_json(member(value, "request", "goal")?, builder)?;
    if let Some(tag) = tag {
        builder = builder.tag(tag);
    }
    if let Some(threads) = solver_threads {
        builder = builder.solver_threads(threads);
    }
    if let Some(deadline_ms) = deadline_ms {
        builder = builder.deadline_ms(deadline_ms);
    }
    if let Some(solver) = solver {
        builder = builder.solver(solver);
    }
    builder
        .build()
        .map_err(|e| codec_err(format!("request: {e}")))
}

fn thermal_summary_to_json(s: &ThermalSummary) -> Json {
    Json::obj([
        ("peak_c", Json::Num(s.peak_c)),
        ("peak_rise", Json::Num(s.peak_rise)),
        ("mean_rise", Json::Num(s.mean_rise)),
        ("gradient", Json::Num(s.gradient)),
    ])
}

fn thermal_summary_from_json(value: &Json, ctx: &str) -> Result<ThermalSummary, ServiceError> {
    Ok(ThermalSummary {
        peak_c: member_f64(value, ctx, "peak_c")?,
        peak_rise: member_f64(value, ctx, "peak_rise")?,
        mean_rise: member_f64(value, ctx, "mean_rise")?,
        gradient: member_f64(value, ctx, "gradient")?,
    })
}

fn timing_to_json(t: &TimingReport) -> Json {
    Json::obj([
        ("critical_path_ps", Json::Num(t.critical_path_ps)),
        ("slack_ps", Json::Num(t.slack_ps)),
        (
            "critical_cells",
            Json::Arr(
                t.critical_cells
                    .iter()
                    .map(|c| Json::Num(c.index() as f64))
                    .collect(),
            ),
        ),
    ])
}

fn timing_from_json(value: &Json, ctx: &str) -> Result<TimingReport, ServiceError> {
    let critical_cells = member_arr(value, ctx, "critical_cells")?
        .iter()
        .map(|v| {
            v.as_f64()
                // lint: allow(float-eq, reason = "fract() == 0.0 is the exact integer-ness test, not a tolerance comparison")
                .filter(|d| d.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(d))
                .map(|d| CellId::from(d as u32))
                .ok_or_else(|| codec_err(format!("{ctx}.critical_cells holds a non-index")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(TimingReport {
        critical_path_ps: member_f64(value, ctx, "critical_path_ps")?,
        slack_ps: member_f64(value, ctx, "slack_ps")?,
        critical_cells: critical_cells.into(),
    })
}

fn rect_to_json(r: &Rect) -> Json {
    Json::Arr(vec![
        Json::Num(r.llx),
        Json::Num(r.lly),
        Json::Num(r.urx),
        Json::Num(r.ury),
    ])
}

fn rect_from_json(value: &Json, ctx: &str) -> Result<Rect, ServiceError> {
    let arr = value
        .as_arr()
        .ok_or_else(|| codec_err(format!("{ctx}: rect is not an array")))?;
    let [llx, lly, urx, ury] = arr else {
        return Err(codec_err(format!(
            "{ctx}: rect needs [llx, lly, urx, ury], got {} element(s)",
            arr.len()
        )));
    };
    let coord = |v: &Json| {
        v.as_f64()
            .ok_or_else(|| codec_err(format!("{ctx}: rect holds a non-number")))
    };
    Ok(Rect::new(
        coord(llx)?,
        coord(lly)?,
        coord(urx)?,
        coord(ury)?,
    ))
}

fn hotspot_to_json(h: &Hotspot) -> Json {
    Json::obj([
        (
            "bins",
            Json::Arr(
                h.bins
                    .iter()
                    .map(|&(x, y)| Json::Arr(vec![Json::Num(x as f64), Json::Num(y as f64)]))
                    .collect(),
            ),
        ),
        ("bbox", rect_to_json(&h.bbox)),
        ("peak_c", Json::Num(h.peak_c)),
        ("area_um2", Json::Num(h.area_um2)),
    ])
}

fn hotspot_from_json(value: &Json) -> Result<Hotspot, ServiceError> {
    let bins = member_arr(value, "hotspot", "bins")?
        .iter()
        .map(|pair| {
            let items = pair
                .as_arr()
                .filter(|a| a.len() == 2)
                .ok_or_else(|| codec_err("hotspot.bins holds a non-pair".to_string()))?;
            let idx = |v: &Json| {
                v.as_f64()
                    // lint: allow(float-eq, reason = "fract() == 0.0 is the exact integer-ness test, not a tolerance comparison")
                    .filter(|d| d.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(d))
                    .map(|d| d as u32)
                    .ok_or_else(|| codec_err("hotspot.bins holds a non-index".to_string()))
            };
            Ok((idx(&items[0])?, idx(&items[1])?))
        })
        .collect::<Result<Vec<_>, ServiceError>>()?;
    Ok(Hotspot {
        bins,
        bbox: rect_from_json(member(value, "hotspot", "bbox")?, "hotspot.bbox")?,
        peak_c: member_f64(value, "hotspot", "peak_c")?,
        area_um2: member_f64(value, "hotspot", "area_um2")?,
    })
}

/// [`FlowReport`] → JSON.
pub fn report_to_json(report: &FlowReport) -> Json {
    Json::obj([
        ("strategy", strategy_to_json(&report.strategy)),
        ("transform_id", Json::Str(report.transform_id.clone())),
        ("base_area_um2", Json::Num(report.base_area_um2)),
        ("new_area_um2", Json::Num(report.new_area_um2)),
        ("area_overhead_pct", Json::Num(report.area_overhead_pct)),
        ("before", thermal_summary_to_json(&report.before)),
        ("after", thermal_summary_to_json(&report.after)),
        (
            "hotspots",
            Json::Arr(report.hotspots.iter().map(hotspot_to_json).collect()),
        ),
        ("timing_before", timing_to_json(&report.timing_before)),
        ("timing_after", timing_to_json(&report.timing_after)),
        ("hpwl_before_um", Json::Num(report.hpwl_before_um)),
        ("hpwl_after_um", Json::Num(report.hpwl_after_um)),
        ("total_power_w", Json::Num(report.total_power_w)),
    ])
}

/// JSON → [`FlowReport`].
pub fn report_from_json(value: &Json) -> Result<FlowReport, ServiceError> {
    let hotspots = member_arr(value, "report", "hotspots")?
        .iter()
        .map(hotspot_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    Ok(FlowReport {
        strategy: strategy_from_json(member(value, "report", "strategy")?)?,
        transform_id: member_str(value, "report", "transform_id")?.to_string(),
        base_area_um2: member_f64(value, "report", "base_area_um2")?,
        new_area_um2: member_f64(value, "report", "new_area_um2")?,
        area_overhead_pct: member_f64(value, "report", "area_overhead_pct")?,
        before: thermal_summary_from_json(member(value, "report", "before")?, "report.before")?,
        after: thermal_summary_from_json(member(value, "report", "after")?, "report.after")?,
        hotspots,
        timing_before: timing_from_json(
            member(value, "report", "timing_before")?,
            "report.timing_before",
        )?,
        timing_after: timing_from_json(
            member(value, "report", "timing_after")?,
            "report.timing_after",
        )?,
        hpwl_before_um: member_f64(value, "report", "hpwl_before_um")?,
        hpwl_after_um: member_f64(value, "report", "hpwl_after_um")?,
        total_power_w: member_f64(value, "report", "total_power_w")?,
    })
}

fn point_to_json(p: &ParetoPoint) -> Json {
    Json::obj([
        ("transform_id", Json::Str(p.transform_id.clone())),
        ("kind", Json::Str(p.kind.clone())),
        ("budget", Json::Num(p.budget)),
        (
            "estimated_reduction_pct",
            Json::Num(p.estimated_reduction_pct),
        ),
        ("report", report_to_json(&p.report)),
    ])
}

fn point_from_json(value: &Json) -> Result<ParetoPoint, ServiceError> {
    Ok(ParetoPoint {
        transform_id: member_str(value, "point", "transform_id")?.to_string(),
        kind: member_str(value, "point", "kind")?.to_string(),
        budget: member_f64(value, "point", "budget")?,
        estimated_reduction_pct: member_f64(value, "point", "estimated_reduction_pct")?,
        report: report_from_json(member(value, "point", "report")?)?,
    })
}

fn outcome_to_json(outcome: &OptimizeOutcome) -> Json {
    match outcome {
        OptimizeOutcome::Report(report) => Json::obj([
            ("type", Json::Str("report".to_string())),
            ("report", report_to_json(report)),
        ]),
        OptimizeOutcome::Budget(b) => Json::obj([
            ("type", Json::Str("budget".to_string())),
            ("report", report_to_json(&b.report)),
            ("evaluations", Json::Num(b.evaluations as f64)),
            (
                "skipped_over_budget",
                Json::Num(b.skipped_over_budget as f64),
            ),
        ]),
        OptimizeOutcome::Frontier(frontier) => Json::obj([
            ("type", Json::Str("frontier".to_string())),
            (
                "points",
                Json::Arr(frontier.points.iter().map(point_to_json).collect()),
            ),
            ("candidates", Json::Num(frontier.candidates as f64)),
            ("screened", Json::Num(frontier.screened as f64)),
            ("exact_runs", Json::Num(frontier.exact_runs as f64)),
            ("skipped", Json::Num(frontier.skipped as f64)),
        ]),
        OptimizeOutcome::Rows(r) => Json::obj([
            ("type", Json::Str("rows".to_string())),
            ("rows", Json::Num(r.rows as f64)),
            ("report", report_to_json(&r.report)),
            ("evaluations", Json::Num(r.evaluations as f64)),
            ("screened", Json::Num(r.screened as f64)),
        ]),
    }
}

fn outcome_from_json(value: &Json) -> Result<OptimizeOutcome, ServiceError> {
    match member_str(value, "outcome", "type")? {
        "report" => Ok(OptimizeOutcome::Report(report_from_json(member(
            value, "outcome", "report",
        )?)?)),
        "budget" => Ok(OptimizeOutcome::Budget(BudgetOptimum {
            report: report_from_json(member(value, "outcome", "report")?)?,
            screened: 0,
            evaluations: member_usize(value, "outcome", "evaluations")?,
            skipped_over_budget: member_usize(value, "outcome", "skipped_over_budget")?,
        })),
        "frontier" => Ok(OptimizeOutcome::Frontier(ParetoFrontier {
            points: member_arr(value, "outcome", "points")?
                .iter()
                .map(point_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            candidates: member_usize(value, "outcome", "candidates")?,
            screened: member_usize(value, "outcome", "screened")?,
            exact_runs: member_usize(value, "outcome", "exact_runs")?,
            skipped: member_usize(value, "outcome", "skipped")?,
        })),
        "rows" => Ok(OptimizeOutcome::Rows(RowOptimum {
            rows: member_usize(value, "outcome", "rows")?,
            report: report_from_json(member(value, "outcome", "report")?)?,
            evaluations: member_usize(value, "outcome", "evaluations")?,
            screened: member_usize(value, "outcome", "screened")?,
        })),
        other => Err(codec_err(format!("outcome: unknown type `{other}`"))),
    }
}

/// [`OptimizeResponse`] → JSON.
pub fn response_to_json(response: &OptimizeResponse) -> Json {
    Json::obj([
        ("key", Json::Str(response.key.to_hex())),
        ("outcome", outcome_to_json(&response.outcome)),
    ])
}

/// JSON → [`OptimizeResponse`].
pub fn response_from_json(value: &Json) -> Result<OptimizeResponse, ServiceError> {
    let key = member_str(value, "response", "key")?;
    let key = CacheKey::from_hex(key)
        .ok_or_else(|| codec_err(format!("response.key `{key}` is not 32 hex digits")))?;
    Ok(OptimizeResponse {
        key,
        outcome: outcome_from_json(member(value, "response", "outcome")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> OptimizeRequest {
        OptimizeRequest::builder()
            .workload(WorkloadSpec {
                active: vec![UnitRole::BoothMult, UnitRole::Alu],
                toggle_probability: 0.4375,
            })
            .mesh(16, 16)
            .strategy(Strategy::UniformSlack {
                // A value with a busy mantissa: 0.1 has no exact binary
                // form, so a formatting codec would corrupt it.
                area_overhead: 0.1,
            })
            .tag("wire-test")
            .solver_threads(3)
            .build()
            .unwrap()
    }

    #[test]
    fn requests_round_trip_bit_exactly_through_text() {
        for goal in [
            sample_request(),
            OptimizeRequest::builder()
                .workload(WorkloadSpec::checkerboard())
                .mesh(10, 12)
                .transform("composite(eri:8+wrap)")
                .build()
                .unwrap(),
            OptimizeRequest::builder()
                .workload(WorkloadSpec::clustered_hotspot())
                .mesh(8, 8)
                .budget(0.16)
                .build()
                .unwrap(),
            OptimizeRequest::builder()
                .workload(WorkloadSpec::clustered_hotspot())
                .mesh(8, 8)
                .frontier([0.04, 0.08, 1.0 / 3.0])
                .build()
                .unwrap(),
            OptimizeRequest::builder()
                .workload(WorkloadSpec::clustered_hotspot())
                .mesh(8, 8)
                .rows_for_target(12.5, 24)
                .build()
                .unwrap(),
        ] {
            let text = request_to_json(&goal).render();
            let back = request_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(goal, back, "request must survive the wire");
        }
    }

    #[test]
    fn requests_without_solver_threads_still_decode() {
        // A document written before the knob existed: no key at all.
        let mut request = sample_request();
        request.solver_threads = None;
        let text = request_to_json(&request).render();
        assert!(
            !text.contains("solver_threads"),
            "an unset knob must not appear on the wire: {text}"
        );
        let back = request_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.solver_threads, None);
        assert_eq!(request, back);
    }

    #[test]
    fn deadlines_ride_the_wire_only_when_set() {
        let mut request = sample_request();
        request.deadline_ms = Some(750);
        let text = request_to_json(&request).render();
        assert!(text.contains("\"deadline_ms\": 750"), "{text}");
        let back = request_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.deadline_ms, Some(750));
        assert_eq!(request, back);
        request.deadline_ms = None;
        let text = request_to_json(&request).render();
        assert!(
            !text.contains("deadline_ms"),
            "an unset deadline must not appear on the wire: {text}"
        );
        let back = request_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.deadline_ms, None);
    }

    #[test]
    fn solver_rides_the_wire_only_when_set() {
        for (kind, token) in [(SolverKind::Auto, "auto"), (SolverKind::Csr, "csr")] {
            let mut request = sample_request();
            request.solver = Some(kind);
            let text = request_to_json(&request).render();
            assert!(text.contains(&format!("\"solver\": \"{token}\"")), "{text}");
            let back = request_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back.solver, Some(kind));
            assert_eq!(request, back);
        }
        let mut request = sample_request();
        request.solver = None;
        let text = request_to_json(&request).render();
        assert!(
            !text.contains("\"solver\""),
            "an unset solver must not appear on the wire: {text}"
        );
        let back = request_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back.solver, None);
        let err = request_from_json(
            &Json::parse(&text.replace(
                "\"solver_threads\": 3",
                "\"solver_threads\": 3, \"solver\": \"warp-drive\"",
            ))
            .unwrap(),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("warp-drive"), "{err}");
        // Backends other than auto and csr are codec errors.
        for retired in ["stencil", "spectral"] {
            let err = request_from_json(
                &Json::parse(&text.replace(
                    "\"solver_threads\": 3",
                    &format!("\"solver_threads\": 3, \"solver\": \"{retired}\""),
                ))
                .unwrap(),
            )
            .unwrap_err();
            assert!(
                matches!(err, ServiceError::Codec { .. }),
                "{retired}: {err:?}"
            );
            assert!(err.to_string().contains(retired), "{err}");
        }
    }

    #[test]
    fn pre_solver_documents_decode_and_re_render_byte_identically() {
        // A request document exactly as the service wrote it before the
        // `solver` knob existed must decode to `None` (= inherit the
        // service default) and — crucially for the persistent disk
        // cache, which compares re-rendered documents byte-for-byte —
        // render back to the very same bytes.
        let request = sample_request();
        let pre_pr_text = request_to_json(&request).render();
        assert!(!pre_pr_text.contains("\"solver\""));
        let back = request_from_json(&Json::parse(&pre_pr_text).unwrap()).unwrap();
        assert_eq!(back.solver, None);
        assert_eq!(request_to_json(&back).render(), pre_pr_text);
        // An explicit null is the other legacy spelling of "unset".
        let nulled = pre_pr_text.replace(
            "\"solver_threads\": 3",
            "\"solver_threads\": 3, \"solver\": null",
        );
        assert_ne!(nulled, pre_pr_text, "replacement must have fired");
        let back = request_from_json(&Json::parse(&nulled).unwrap()).unwrap();
        assert_eq!(back.solver, None);
        assert_eq!(request_to_json(&back).render(), pre_pr_text);
    }

    #[test]
    fn strategies_round_trip_structurally() {
        for strategy in [
            Strategy::None,
            Strategy::UniformSlack {
                area_overhead: 0.163_841_99,
            },
            Strategy::EmptyRowInsertion { rows: 17 },
            Strategy::HotspotWrapper {
                area_overhead: f64::MIN_POSITIVE,
            },
        ] {
            let text = strategy_to_json(&strategy).render();
            let back = strategy_from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(strategy, back);
        }
    }

    #[test]
    fn decoders_name_whats_missing() {
        let doc = Json::parse(r#"{"type": "budget"}"#).unwrap();
        let err = outcome_from_json(&doc).unwrap_err().to_string();
        assert!(err.contains("missing key `report`"), "{err}");
        let doc = Json::parse(r#"{"kind": "warp-drive"}"#).unwrap();
        let err = strategy_from_json(&doc).unwrap_err().to_string();
        assert!(err.contains("unknown kind `warp-drive`"), "{err}");
    }

    #[test]
    fn out_of_range_cell_ids_are_codec_errors() {
        // A cell index past u32 would overflow the id type; a corrupt
        // document must be rejected, not panic the reader.
        for cells in ["[4294967296]", "[1e300]", "[-1]", "[0.5]"] {
            let doc = Json::parse(&format!(
                r#"{{"critical_path_ps": 1, "slack_ps": 0, "critical_cells": {cells}}}"#
            ))
            .unwrap();
            let err = timing_from_json(&doc, "timing").unwrap_err().to_string();
            assert!(err.contains("non-index"), "{cells}: {err}");
        }
        let doc = Json::parse(
            r#"{"critical_path_ps": 1, "slack_ps": 0, "critical_cells": [4294967295]}"#,
        )
        .unwrap();
        let timing = timing_from_json(&doc, "timing").unwrap();
        assert_eq!(*timing.critical_cells, [CellId::from(u32::MAX)]);
    }

    #[test]
    fn out_of_range_hotspot_bins_are_codec_errors() {
        let hotspot = |bin: &str| {
            Json::parse(&format!(
                r#"{{"bins": [{bin}], "bbox": [0, 0, 1, 1], "peak_c": 30, "area_um2": 1}}"#
            ))
            .unwrap()
        };
        for bin in ["[4294967296, 0]", "[0, 1e300]", "[-1, 0]", "[0.5, 0]"] {
            let err = hotspot_from_json(&hotspot(bin)).unwrap_err().to_string();
            assert!(err.contains("non-index"), "{bin}: {err}");
        }
        let decoded = hotspot_from_json(&hotspot("[4294967295, 7]")).unwrap();
        assert_eq!(decoded.bins, [(u32::MAX, 7)]);
    }

    #[test]
    fn decoded_requests_are_validated_like_built_ones() {
        let text = request_to_json(&sample_request()).render();
        let transform = request_to_json(
            &OptimizeRequest::builder()
                .workload(WorkloadSpec::checkerboard())
                .mesh(10, 12)
                .transform("eri:8")
                .build()
                .unwrap(),
        )
        .render();
        for (bad, needle) in [
            (text.replace("[16, 16]", "[1, 16]"), "1x16"),
            (text.replace("[16, 16]", "[0, 0]"), "0x0"),
            (transform.replace("\"eri:8\"", "\"bogus:1\""), "bogus:1"),
        ] {
            assert_ne!(bad, text, "replacement must have fired");
            assert_ne!(bad, transform, "replacement must have fired");
            let err = request_from_json(&Json::parse(&bad).unwrap()).unwrap_err();
            assert!(matches!(err, ServiceError::Codec { .. }), "{err:?}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn unknown_unit_roles_are_rejected() {
        let doc = Json::parse(r#"{"active": ["mul_booth", "quantum"], "toggle_probability": 0.5}"#)
            .unwrap();
        let err = workload_from_json(&doc).unwrap_err().to_string();
        assert!(err.contains("quantum"), "{err}");
    }

    #[test]
    fn every_unit_role_survives_the_name_mapping() {
        for role in UnitRole::ALL {
            assert_eq!(role_from_name(role.unit_name()).unwrap(), role);
        }
    }
}
