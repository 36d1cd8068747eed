//! The CI regression gate for `BENCH_sweep.json`.
//!
//! A sweep run is checked on two axes:
//!
//! * **Results** — every baseline record must have a matching record
//!   (same workload, mesh and strategy) whose after-transform peak
//!   temperature agrees within an absolute tolerance. Result drift means
//!   the physics changed, which is never acceptable silently.
//! * **Sections** — each row of one rule table bounds one field of one
//!   section entry: the `Auto` backend's routing, speedups and oracle
//!   drift, the threaded solves' bit-identity and speedup, the
//!   optimizer's exact-verification share and frontier, the service
//!   cache's warm-over-cold ratio and cold fallbacks, the service
//!   building its one resolved flow exactly once, the logic simulator's
//!   evaluated share, the rows the wrapper's slot searches walk, and the
//!   paper's claims at paper scale (Table I, Fig. 5, Fig. 6, §IV's
//!   timing overhead and two ablations). The `paper` summaries that
//!   condense its `table1`, `fig6` and `timing` rows are recomputed from
//!   those rows and must match to the bit. Every bounded quantity is a
//!   within-run ratio, an exact count or a deterministic result, so
//!   machine speed cancels out; the baseline only establishes which
//!   sections must be present.
//!
//! Violations come back as human-readable strings; an empty list passes.

use coolserved::json::Json;

/// Absolute peak-temperature agreement required between a run and the
/// baseline, in kelvin. Far above solver tolerance, far below any real
/// physics change.
pub const PEAK_TOLERANCE_C: f64 = 0.25;

/// Minimum per-solve speedup the `Auto` backend (the spectral direct
/// solver) must hold over the CSR + MIC(0) oracle on the 40×40×9
/// configuration (a within-run ratio, so machine speed cancels out).
/// Gated conservatively.
pub const MIN_STRUCTURED_SPEEDUP: f64 = 1.5;

/// Maximum fraction of screened Pareto candidates the optimizer may
/// exact-verify (schema ≥ 4): the frontier search must stay
/// screening-dominated — paying full re-place + re-solve on more than a
/// quarter of the candidate space means the surrogate front (or its
/// resolution knob) regressed.
pub const MAX_OPTIMIZER_EXACT_SHARE: f64 = 0.25;

/// Minimum per-request speedup a warm (cache-served) pass through the
/// optimization service must hold over the cold pass that populated the
/// cache (schema ≥ 5). A cache hit skips placement and every thermal
/// solve, so the real ratio is orders of magnitude; the floor only has
/// to catch the cache silently degrading into recomputation.
pub const MIN_SERVICE_WARM_SPEEDUP: f64 = 3.0;

/// Worst allowed temperature disagreement between the `Auto` backend
/// and the CSR oracle at any mesh, kelvin. The spectral path is a
/// *direct* factorization of the same conductances the oracle iterates
/// on to a 1e-9 relative residual, so anything past a microkelvin means
/// one of the solvers is wrong.
pub const STRUCTURED_DRIFT_TOLERANCE_K: f64 = 1e-6;

/// Minimum speedup the threaded spectral solve must hold over its own
/// single-thread run at 256×256×9 (schema ≥ 6) — enforced only
/// when the run recorded at least [`MIN_THREADED_GATE_HW_THREADS`]
/// hardware threads *and* actually ran that many solver threads; a
/// single-core CI container can measure bit-drift but not parallelism.
pub const MIN_THREADED_SPEEDUP_256: f64 = 2.0;

/// Hardware-thread floor below which the threaded-speedup gate is
/// skipped (the drift gate never is).
pub const MIN_THREADED_GATE_HW_THREADS: f64 = 4.0;

/// Minimum speedup the `Auto` backend must hold over the CSR oracle at
/// 256×256×9 (schema ≥ 10) — a within-run ratio, so enforced on any
/// host, but only in full mode: smoke runs stop at 128×128.
pub const MIN_SPECTRAL_SPEEDUP_256: f64 = 2.0;

/// Most cell-cycles the logic simulator may evaluate on the
/// `scattered_small` paper workload, as a share of cells × cycles
/// (schema ≥ 11). Its active units hold 0.329 of the cells; idle units
/// stop running once they settle. A deterministic count, so a netlist
/// change that merges the units into one segment fails here.
pub const MAX_LOGIC_SIM_EVALUATED_SHARE: f64 = 0.5;

/// Most rows the hotspot wrapper's eviction slot searches may walk per
/// search on the four fine-mesh flows (schema ≥ 12). The row bounds
/// hold it at 6.5 (3.1–10.0 per workload); without them the searches
/// walked every row whose widest gap fits the cell, ~40 a search. A
/// deterministic count.
pub const MAX_WRAPPER_ROWS_PER_SEARCH: f64 = 12.0;

/// Which entries of a section a [`Rule`] reads.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// The section object itself.
    Section,
    /// Every object of the section's `meshes` array.
    EveryMesh,
    /// The `meshes` object whose `mesh` starts with this `nx`.
    Mesh(f64),
}

/// What a [`Rule`] demands of its field. Numeric bounds read the field
/// through [`Json::require_f64`], so a non-finite value fails by name.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// No smaller than the floor.
    AtLeast(f64),
    /// Strictly greater than the floor.
    Above(f64),
    /// Strictly smaller than the ceiling.
    Below(f64),
    /// No larger than the cap.
    AtMost(f64),
    /// Equal to the value.
    Exactly(f64),
    /// A string equal to the value.
    StrEquals(&'static str),
    /// An array with at least one element.
    NonEmptyArray,
    /// No larger than `share` times the entry's field `of`.
    ShareOf { of: &'static str, share: f64 },
}

/// A condition on the run: when a [`Rule`] is armed, and when its
/// [`Entry::Mesh`] entry must exist.
#[derive(Debug, Clone, Copy)]
enum When {
    /// On every run.
    Always,
    /// When the document's `mode` is `full` (smoke grids stop short of
    /// the largest meshes by design).
    FullMode,
    /// When the section records at least this many `hw_threads` *and*
    /// ran at least this many solver `threads`; on smaller hosts a
    /// threaded speedup measures oversubscription, not parallelism.
    HwThreads(f64),
}

/// One gated field of a `BENCH_sweep.json` section.
#[derive(Debug, Clone, Copy)]
struct Rule {
    section: &'static str,
    entry: Entry,
    field: &'static str,
    bound: Bound,
    armed: When,
    /// When an absent [`Entry::Mesh`] entry fails an armed rule. The
    /// section's `meshes` array itself is always required.
    required: When,
}

/// Every section gate. A section the baseline has but the run lacks
/// fails once by name; a present section is held to each of its rows.
///
/// The `paper` rows (schema ≥ 16) hold the paper's claims at paper
/// scale: ERI beats Default at both Table I overheads and by more at
/// the larger; at every Fig. 6 overhead ERI is within 0.05 pp of
/// Default or above it and HW within 0.6 pp, and every curve rises from
/// one overhead to the next; the power and thermal maps correlate
/// (r > 0.5); ERI and HW keep the timing overhead under 5 %;
/// hotspot-driven rows lose at most 0.05 pp to evenly spread ones; and
/// ERI moves by under 5 pp across meshes.
#[rustfmt::skip]
const RULES: [Rule; 23] = {
    use Bound::{Above, AtLeast, AtMost, Below, Exactly, NonEmptyArray, ShareOf, StrEquals};
    use Entry::{EveryMesh, Mesh, Section};
    use When::{Always, FullMode, HwThreads};
    const fn row(section: &'static str, entry: Entry, field: &'static str, bound: Bound, armed: When, required: When) -> Rule {
        Rule { section, entry, field, bound, armed, required }
    }
    [
        row("solver_scaling", Mesh(40.0), "speedup_vs_csr", AtLeast(MIN_STRUCTURED_SPEEDUP), Always, Always),
        row("solver_scaling", EveryMesh, "max_drift_k", AtMost(STRUCTURED_DRIFT_TOLERANCE_K), Always, Always),
        row("solver_scaling", EveryMesh, "backend", StrEquals("spectral-dct"), Always, Always),
        row("solver_scaling", Mesh(256.0), "speedup_vs_csr", AtLeast(MIN_SPECTRAL_SPEEDUP_256), FullMode, Always),
        row("solver_threads", EveryMesh, "max_drift_k", Exactly(0.0), Always, Always),
        row("solver_threads", Mesh(256.0), "speedup", AtLeast(MIN_THREADED_SPEEDUP_256), HwThreads(MIN_THREADED_GATE_HW_THREADS), FullMode),
        row("optimizer", Section, "screened", Above(0.0), Always, Always),
        row("optimizer", Section, "exact_runs", ShareOf { of: "screened", share: MAX_OPTIMIZER_EXACT_SHARE }, Always, Always),
        row("optimizer", Section, "frontier", NonEmptyArray, Always, Always),
        row("service", Section, "warm_over_cold", AtLeast(MIN_SERVICE_WARM_SPEEDUP), Always, Always),
        row("service", Section, "warm_cold_solves", Exactly(0.0), Always, Always),
        row("service", Section, "flows_built", Exactly(1.0), Always, Always),
        row("logic_sim", Section, "evaluated_share", AtMost(MAX_LOGIC_SIM_EVALUATED_SHARE), Always, Always),
        row("wrapper", Section, "rows_scanned_per_search", AtMost(MAX_WRAPPER_ROWS_PER_SEARCH), Always, Always),
        row("paper", Section, "table1_min_eri_gain_pp", Above(0.0), Always, Always),
        row("paper", Section, "table1_gain_widening_pp", Above(0.0), Always, Always),
        row("paper", Section, "fig6_min_eri_gain_pp", Above(-0.05), Always, Always),
        row("paper", Section, "fig6_min_hw_gain_pp", Above(-0.6), Always, Always),
        row("paper", Section, "fig6_min_rise_pp", Above(0.0), Always, Always),
        row("paper", Section, "fig5_pearson_r", Above(0.5), Always, Always),
        row("paper", Section, "timing_max_overhead_pct", Below(5.0), Always, Always),
        row("paper", Section, "abl1_eri_over_blind_pp", AtLeast(-0.05), Always, Always),
        row("paper", Section, "abl3_eri_spread_pp", Below(5.0), Always, Always),
    ]
};

fn record_key(record: &Json) -> Option<String> {
    let workload = record.get("workload")?.as_str()?;
    let strategy = record.get("strategy")?.as_str()?;
    let mesh = record.get("mesh")?.as_arr()?;
    let nx = mesh.first()?.as_f64()?;
    let ny = mesh.get(1)?.as_f64()?;
    Some(format!("{workload}/{nx}x{ny}/{strategy}"))
}

/// Compares a sweep document against a baseline document and returns
/// every violation (empty = gate passes).
pub fn check_against_baseline(
    current: &Json,
    baseline: &Json,
    peak_tolerance_c: f64,
) -> Vec<String> {
    let mut failures = Vec::new();

    let current_records = current.get("records").and_then(Json::as_arr);
    let baseline_records = baseline.get("records").and_then(Json::as_arr);
    match (current_records, baseline_records) {
        (Some(cur), Some(base)) => {
            for expected in base {
                let Some(key) = record_key(expected) else {
                    failures.push("baseline record without workload/mesh/strategy".to_string());
                    continue;
                };
                let found = cur.iter().find(|r| record_key(r).as_deref() == Some(&key));
                let Some(found) = found else {
                    failures.push(format!("scenario `{key}` missing from this run"));
                    continue;
                };
                let expected_peak = expected.get("peak_after_c").and_then(Json::as_f64);
                let got_peak = found.get("peak_after_c").and_then(Json::as_f64);
                match (expected_peak, got_peak) {
                    // A NaN peak would sail through the drift comparison
                    // below (`NaN > tol` is false) — reject it by name.
                    (Some(want), Some(got)) if !want.is_finite() || !got.is_finite() => {
                        failures.push(format!(
                            "scenario `{key}`: non-finite peak_after_c \
                             (run {got}, baseline {want})"
                        ));
                    }
                    (Some(want), Some(got)) if (want - got).abs() > peak_tolerance_c => {
                        failures.push(format!(
                            "scenario `{key}`: peak {got:.3} °C drifted from baseline \
                             {want:.3} °C (tolerance {peak_tolerance_c} K)"
                        ));
                    }
                    (Some(_), Some(_)) => {}
                    _ => failures.push(format!("scenario `{key}`: missing peak_after_c")),
                }
            }
        }
        _ => failures.push("missing `records` array".to_string()),
    }

    failures.extend(check_sections(current, baseline));
    if let Some(paper) = current.get("paper") {
        failures.extend(check_paper_summaries(paper));
    }
    failures
}

/// The `paper` summaries recomputed from the section's `table1`, `fig6`
/// and `timing` rows, each the way the sweep bench computes it: the
/// least ERI − Default gain over Table I and how much it widens from its
/// first row to its second; the least ERI and HW gains over Fig. 6 and
/// the least rise of any of its three curves from one overhead to the
/// next; and the worst ERI or HW timing overhead.
fn paper_summaries(paper: &Json) -> Result<[(&'static str, f64); 6], String> {
    let columns = |key: &str, fields: &[&str]| -> Result<Vec<Vec<f64>>, String> {
        let rows = paper
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("section `paper` is missing key `{key}`"))?;
        rows.iter()
            .enumerate()
            .map(|(i, row)| {
                let path = format!("paper.{key}[{i}]");
                fields.iter().map(|f| row.require_f64(&path, f)).collect()
            })
            .collect()
    };
    let min_of = |values: &mut dyn Iterator<Item = f64>| values.fold(f64::INFINITY, f64::min);
    let table1 = columns("table1", &["default_pct", "eri_pct"])?;
    let gains: Vec<f64> = table1.iter().map(|r| r[1] - r[0]).collect();
    let [first, second, ..] = gains[..] else {
        return Err("`paper.table1` needs two rows".to_string());
    };
    let fig6 = columns("fig6", &["default_pct", "eri_pct", "hw_pct"])?;
    let timing = columns("timing", &["eri_pct", "hw_pct"])?;
    Ok([
        ("table1_min_eri_gain_pp", min_of(&mut gains.iter().copied())),
        ("table1_gain_widening_pp", second - first),
        (
            "fig6_min_eri_gain_pp",
            min_of(&mut fig6.iter().map(|r| r[1] - r[0])),
        ),
        (
            "fig6_min_hw_gain_pp",
            min_of(&mut fig6.iter().map(|r| r[2] - r[0])),
        ),
        (
            "fig6_min_rise_pp",
            min_of(
                &mut fig6
                    .windows(2)
                    .flat_map(|w| (0..3).map(|i| w[1][i] - w[0][i])),
            ),
        ),
        (
            "timing_max_overhead_pct",
            timing
                .iter()
                .flatten()
                .fold(f64::NEG_INFINITY, |m, &v| m.max(v)),
        ),
    ])
}

/// Fails each stored `paper` summary that differs in any bit from the
/// one its rows give ([`paper_summaries`]). A summary missing or not
/// finite is left to its [`RULES`] row.
fn check_paper_summaries(paper: &Json) -> Vec<String> {
    let summaries = match paper_summaries(paper) {
        Ok(summaries) => summaries,
        Err(failure) => return vec![failure],
    };
    summaries
        .into_iter()
        .filter_map(|(field, want)| {
            let got = paper.require_f64("paper", field).ok()?;
            (got.to_bits() != want.to_bits())
                .then(|| format!("`paper.{field}` = {got}, but its rows give {want}"))
        })
        .collect()
}

/// Holds every present section of `current` to its [`RULES`] rows and
/// fails each section `baseline` has but `current` lacks. Identical
/// messages from several rows of one section (a missing `meshes` array)
/// are reported once.
fn check_sections(current: &Json, baseline: &Json) -> Vec<String> {
    let mut failures: Vec<String> = Vec::new();
    for (i, rule) in RULES.iter().enumerate() {
        let Some(section) = current.get(rule.section) else {
            let first_row = RULES[..i].iter().all(|r| r.section != rule.section);
            if first_row && baseline.get(rule.section).is_some() {
                failures.push(format!("`{}` section missing from this run", rule.section));
            }
            continue;
        };
        for failure in check_rule(rule, current, section) {
            if !failures.contains(&failure) {
                failures.push(failure);
            }
        }
    }
    failures
}

fn holds(condition: When, doc: &Json, section: &Json) -> bool {
    match condition {
        When::Always => true,
        When::FullMode => doc.get("mode").and_then(Json::as_str) == Some("full"),
        When::HwThreads(n) => ["hw_threads", "threads"].iter().all(|key| {
            section
                .get(key)
                .and_then(Json::as_f64)
                .is_some_and(|v| v >= n)
        }),
    }
}

fn mesh_nx(entry: &Json) -> Option<f64> {
    entry.get("mesh")?.as_arr()?.first()?.as_f64()
}

/// The violations of one armed rule against a present section.
fn check_rule(rule: &Rule, doc: &Json, section: &Json) -> Vec<String> {
    if !holds(rule.armed, doc, section) {
        return Vec::new();
    }
    let name = rule.section;
    if let Entry::Section = rule.entry {
        return check_field(rule, name, section).err().into_iter().collect();
    }
    let Some(meshes) = section.get("meshes").and_then(Json::as_arr) else {
        return vec![format!("section `{name}` is missing key `meshes`")];
    };
    let selected: Vec<&Json> = match rule.entry {
        Entry::Mesh(nx) => {
            let found = meshes.iter().find(|e| mesh_nx(e) == Some(nx));
            if found.is_none() && holds(rule.required, doc, section) {
                return vec![format!(
                    "section `{name}.meshes` has no {nx}x{nx} entry (the gated configuration)"
                )];
            }
            found.into_iter().collect()
        }
        _ => meshes.iter().collect(),
    };
    selected
        .into_iter()
        .filter_map(|entry| {
            let nx = mesh_nx(entry).unwrap_or(f64::NAN);
            check_field(rule, &format!("{name}.meshes[{nx}x{nx}]"), entry).err()
        })
        .collect()
}

/// Checks one entry's field against the rule's bound. A breach names
/// the entry path, the field, the value and the bound.
fn check_field(rule: &Rule, path: &str, entry: &Json) -> Result<(), String> {
    let field = rule.field;
    let number = |key: &str| entry.require_f64(path, key);
    let (value, ok, needs) = match rule.bound {
        Bound::StrEquals(want) => {
            return match entry.get(field).and_then(Json::as_str) {
                Some(got) if got == want => Ok(()),
                Some(got) => Err(format!("`{path}.{field}` = `{got}`, needs `{want}`")),
                None => Err(format!("section `{path}` is missing key `{field}`")),
            }
        }
        Bound::NonEmptyArray => {
            return match entry.get(field).and_then(Json::as_arr) {
                Some([]) => Err(format!("`{path}.{field}` = [], needs a non-empty array")),
                Some(_) => Ok(()),
                None => Err(format!("section `{path}` is missing key `{field}`")),
            }
        }
        Bound::AtLeast(floor) => {
            let v = number(field)?;
            (v, v >= floor, format!("≥ {}", num(floor)))
        }
        Bound::Above(floor) => {
            let v = number(field)?;
            (v, v > floor, format!("> {}", num(floor)))
        }
        Bound::Below(ceiling) => {
            let v = number(field)?;
            (v, v < ceiling, format!("< {}", num(ceiling)))
        }
        Bound::AtMost(cap) => {
            let v = number(field)?;
            (v, v <= cap, format!("≤ {}", num(cap)))
        }
        Bound::Exactly(want) => {
            let v = number(field)?;
            (v, v == want, format!("exactly {}", num(want)))
        }
        Bound::ShareOf { of, share } => {
            let (v, total) = (number(field)?, number(of)?);
            let needs = format!("≤ {}% of `{of}` = {}", num(share * 100.0), num(total));
            (v, v <= total * share, needs)
        }
    };
    if ok {
        Ok(())
    } else {
        Err(format!("`{path}.{field}` = {}, needs {needs}", num(value)))
    }
}

/// A gate number in messages: exponent form for tiny and huge
/// magnitudes (drifts in kelvin), plain otherwise.
fn num(v: f64) -> String {
    if v.abs() > 0.0 && !(1e-3..1e6).contains(&v.abs()) {
        format!("{v:e}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(speedup: f64, peak: f64) -> Json {
        Json::obj([
            ("threads", Json::Num(2.0)),
            ("speedup", Json::Num(speedup)),
            (
                "records",
                Json::Arr(vec![Json::obj([
                    ("workload", Json::Str("scattered".to_string())),
                    ("mesh", Json::Arr(vec![Json::Num(12.0), Json::Num(12.0)])),
                    ("strategy", Json::Str("eri(4 rows)".to_string())),
                    ("peak_after_c", Json::Num(peak)),
                ])]),
            ),
        ])
    }

    #[test]
    fn identical_runs_pass() {
        let failures = doc(3.0, 81.5);
        assert!(check_against_baseline(&failures, &failures, 0.25).is_empty());
    }

    #[test]
    fn peak_drift_fails() {
        let failures = check_against_baseline(&doc(3.0, 82.5), &doc(3.0, 81.5), 0.25);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("drifted"), "{failures:?}");
    }

    /// One `solver_scaling` mesh entry.
    fn scaling_entry(nx: f64, backend: &str, speedup: f64, drift: f64) -> Json {
        Json::obj([
            ("mesh", Json::Arr(vec![Json::Num(nx), Json::Num(nx)])),
            ("backend", Json::Str(backend.to_string())),
            ("speedup_vs_csr", Json::Num(speedup)),
            ("max_drift_k", Json::Num(drift)),
        ])
    }

    /// `doc` in `mode` with a `solver_scaling` section of `meshes`.
    fn with_meshes(mut doc: Json, mode: &str, meshes: Vec<Json>) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push(("mode".to_string(), Json::Str(mode.to_string())));
        pairs.push((
            "solver_scaling".to_string(),
            Json::obj([("meshes", Json::Arr(meshes))]),
        ));
        doc
    }

    fn with_scaling(doc: Json, speedup: f64, drift: f64) -> Json {
        with_meshes(
            doc,
            "smoke",
            vec![
                scaling_entry(20.0, "spectral-dct", 3.0, 1e-9),
                scaling_entry(40.0, "spectral-dct", speedup, drift),
            ],
        )
    }

    #[test]
    fn solver_scaling_gates_speedup_and_drift_at_40x40() {
        let base = with_scaling(doc(3.0, 81.5), 3.5, 1e-9);
        // Healthy section passes.
        let good = with_scaling(doc(3.0, 81.5), 2.1, 3e-8);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        // Speedup under the floor fails, naming the configuration.
        let slow = with_scaling(doc(3.0, 81.5), 1.2, 1e-9);
        let failures = check_against_baseline(&slow, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`solver_scaling.meshes[40x40].speedup_vs_csr` = 1.2")),
            "{failures:?}"
        );
        // Oracle drift fails.
        let drifty = with_scaling(doc(3.0, 81.5), 3.0, 1e-3);
        let failures = check_against_baseline(&drifty, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("meshes[40x40].max_drift_k` = 0.001, needs ≤ 1e-6")),
            "{failures:?}"
        );
        // A truncated section names exactly what is missing.
        let mut truncated = with_scaling(doc(3.0, 81.5), 2.0, 1e-9);
        let Json::Obj(pairs) = &mut truncated else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "solver_scaling");
        pairs.push(("solver_scaling".to_string(), Json::obj([])));
        let failures = check_against_baseline(&truncated, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`solver_scaling`") && f.contains("meshes")),
            "{failures:?}"
        );
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`solver_scaling` section missing")),
            "{failures:?}"
        );
        // Pre-v3 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25).is_empty());
    }

    fn with_solver_threads(mut doc: Json, hw: f64, ran: f64, speedup_256: f64, drift: f64) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push(("mode".to_string(), Json::Str("full".to_string())));
        pairs.push((
            "solver_threads".to_string(),
            Json::obj([
                ("hw_threads", Json::Num(hw)),
                ("threads", Json::Num(ran)),
                (
                    "meshes",
                    Json::Arr(vec![
                        Json::obj([
                            ("mesh", Json::Arr(vec![Json::Num(128.0), Json::Num(128.0)])),
                            ("speedup", Json::Num(1.8)),
                            ("max_drift_k", Json::Num(0.0)),
                        ]),
                        Json::obj([
                            ("mesh", Json::Arr(vec![Json::Num(256.0), Json::Num(256.0)])),
                            ("speedup", Json::Num(speedup_256)),
                            ("max_drift_k", Json::Num(drift)),
                        ]),
                    ]),
                ),
            ]),
        ));
        doc
    }

    #[test]
    fn threaded_gate_rejects_any_bit_drift_on_any_host() {
        let base = with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.6, 0.0);
        // A single-core host: the speedup floor is waived, the drift
        // gate is not.
        let single_core_ok = with_solver_threads(doc(3.0, 81.5), 1.0, 2.0, 0.9, 0.0);
        assert!(check_against_baseline(&single_core_ok, &base, 0.25).is_empty());
        let drifty = with_solver_threads(doc(3.0, 81.5), 1.0, 2.0, 0.9, 1e-15);
        let failures = check_against_baseline(&drifty, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("solver_threads.meshes[256x256].max_drift_k` = 1e-15")),
            "{failures:?}"
        );
    }

    #[test]
    fn threaded_gate_enforces_the_speedup_floor_only_on_multicore_hosts() {
        let base = with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.6, 0.0);
        // Healthy multi-core run passes.
        let good = with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.3, 0.0);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        // Multi-core host under the floor fails.
        let slow = with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 1.3, 0.0);
        let failures = check_against_baseline(&slow, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("meshes[256x256].speedup` = 1.3, needs ≥ 2")),
            "{failures:?}"
        );
        // The same measurement on a single-core host is skipped.
        let single = with_solver_threads(doc(3.0, 81.5), 1.0, 4.0, 1.3, 0.0);
        assert!(check_against_baseline(&single, &base, 0.25).is_empty());
        // ...as is a multi-core run that only used 2 solver threads.
        let underthreaded = with_solver_threads(doc(3.0, 81.5), 8.0, 2.0, 1.3, 0.0);
        assert!(check_against_baseline(&underthreaded, &base, 0.25).is_empty());
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`solver_threads` section missing")),
            "{failures:?}"
        );
        // Pre-v6 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25).is_empty());
    }

    #[test]
    fn threaded_gate_requires_the_256_entry_only_in_full_mode() {
        let base = with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.6, 0.0);
        let strip_256 = |mut d: Json, mode: &str| {
            let Json::Obj(pairs) = &mut d else {
                unreachable!()
            };
            for (k, v) in pairs.iter_mut() {
                if k == "mode" {
                    *v = Json::Str(mode.to_string());
                }
                if k == "solver_threads" {
                    let Json::Obj(section) = v else {
                        unreachable!()
                    };
                    for (sk, sv) in section.iter_mut() {
                        if sk == "meshes" {
                            let Json::Arr(meshes) = sv else {
                                unreachable!()
                            };
                            meshes.truncate(1);
                        }
                    }
                }
            }
            d
        };
        // A full run on a multi-core host may not drop the gated mesh...
        let hollow = strip_256(
            with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.6, 0.0),
            "full",
        );
        let failures = check_against_baseline(&hollow, &base, 0.25);
        assert!(
            failures.iter().any(|f| f.contains("no 256x256 entry")),
            "{failures:?}"
        );
        // ...but a smoke run stops at 128×128 by design.
        let smoke = strip_256(
            with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.6, 0.0),
            "smoke",
        );
        assert!(check_against_baseline(&smoke, &base, 0.25).is_empty());
    }

    /// A full-mode `solver_scaling` section whose 128×128 entry carries
    /// `backend` and whose 256×256 entry carries the speedup and drift.
    fn with_spectral(doc: Json, mode: &str, backend: &str, speedup_256: f64, drift: f64) -> Json {
        with_meshes(
            doc,
            mode,
            vec![
                scaling_entry(40.0, "spectral-dct", 3.0, 1e-9),
                scaling_entry(128.0, backend, 2.4, 1e-9),
                scaling_entry(256.0, "spectral-dct", speedup_256, drift),
            ],
        )
    }

    #[test]
    fn spectral_gate_enforces_drift_and_backend_on_any_host() {
        let base = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 3.1, 1e-9);
        // Healthy full run passes.
        let good = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 2.4, 2e-8);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        // Oracle drift past a microkelvin fails at any mesh — even in
        // smoke mode.
        let drifty = with_spectral(doc(3.0, 81.5), "smoke", "spectral-dct", 2.4, 1e-3);
        let failures = check_against_baseline(&drifty, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("solver_scaling.meshes[256x256].max_drift_k")),
            "{failures:?}"
        );
        // A mesh whose Auto leg silently fell back to CSR fails.
        let fallback = with_spectral(doc(3.0, 81.5), "smoke", "csr-mic0", 2.4, 0.0);
        let failures = check_against_baseline(&fallback, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`solver_scaling.meshes[128x128].backend` = `csr-mic0`")),
            "{failures:?}"
        );
        // An entry without a backend fails by name.
        let unnamed = with_meshes(
            doc(3.0, 81.5),
            "smoke",
            vec![Json::obj([
                ("mesh", Json::Arr(vec![Json::Num(40.0), Json::Num(40.0)])),
                ("speedup_vs_csr", Json::Num(3.0)),
                ("max_drift_k", Json::Num(1e-9)),
            ])],
        );
        let failures = check_against_baseline(&unnamed, &base, 0.25);
        assert!(
            failures.iter().any(|f| f.contains("missing key `backend`")),
            "{failures:?}"
        );
    }

    #[test]
    fn spectral_gate_enforces_the_speedup_floor_only_in_full_mode() {
        let base = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 3.1, 1e-9);
        // A full run under the floor fails, naming the configuration.
        let slow = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 1.3, 1e-9);
        let failures = check_against_baseline(&slow, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f
                    .contains("solver_scaling.meshes[256x256].speedup_vs_csr` = 1.3, needs ≥ 2")),
            "{failures:?}"
        );
        // The same ratio in a smoke run is not gated (the smoke grid
        // stops at 128×128; this 256 entry is synthetic)...
        let smoke = with_spectral(doc(3.0, 81.5), "smoke", "spectral-dct", 1.3, 1e-9);
        assert!(check_against_baseline(&smoke, &base, 0.25).is_empty());
        // ...but a full run may not drop the gated mesh.
        let hollow = with_meshes(
            doc(3.0, 81.5),
            "full",
            vec![scaling_entry(40.0, "spectral-dct", 3.0, 1e-9)],
        );
        let failures = check_against_baseline(&hollow, &base, 0.25);
        assert!(
            failures.iter().any(|f| f.contains("no 256x256 entry")),
            "{failures:?}"
        );
    }

    fn with_optimizer(mut doc: Json, screened: f64, exact: f64, points: usize) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push((
            "optimizer".to_string(),
            Json::obj([
                ("screened", Json::Num(screened)),
                ("exact_runs", Json::Num(exact)),
                (
                    "frontier",
                    Json::Arr(
                        (0..points)
                            .map(|i| Json::obj([("transform", Json::Str(format!("eri:{i}")))]))
                            .collect(),
                    ),
                ),
            ]),
        ));
        doc
    }

    #[test]
    fn optimizer_gate_caps_exact_share_and_requires_a_frontier() {
        let base = with_optimizer(doc(3.0, 81.5), 60.0, 12.0, 10);
        // Healthy section passes (20 % exact).
        let good = with_optimizer(doc(3.0, 81.5), 60.0, 12.0, 10);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        // Exact share over the cap fails.
        let greedy = with_optimizer(doc(3.0, 81.5), 60.0, 20.0, 10);
        let failures = check_against_baseline(&greedy, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`optimizer.exact_runs` = 20, needs ≤ 25% of `screened`")),
            "{failures:?}"
        );
        // An empty frontier fails.
        let empty = with_optimizer(doc(3.0, 81.5), 60.0, 12.0, 0);
        let failures = check_against_baseline(&empty, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`optimizer.frontier` = [], needs a non-empty array")),
            "{failures:?}"
        );
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`optimizer` section missing")),
            "{failures:?}"
        );
        // Pre-v4 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25).is_empty());
    }

    fn with_service(
        mut doc: Json,
        warm_over_cold: f64,
        warm_cold_solves: f64,
        flows_built: f64,
    ) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push((
            "service".to_string(),
            Json::obj([
                ("warm_over_cold", Json::Num(warm_over_cold)),
                ("warm_cold_solves", Json::Num(warm_cold_solves)),
                ("flows_built", Json::Num(flows_built)),
            ]),
        ));
        doc
    }

    #[test]
    fn service_gate_requires_warm_speedup_and_no_cold_fallbacks() {
        let base = with_service(doc(3.0, 81.5), 200.0, 0.0, 1.0);
        // Healthy section passes.
        let good = with_service(doc(3.0, 81.5), 50.0, 0.0, 1.0);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        // Warm requests barely beating cold solves fails.
        let tepid = with_service(doc(3.0, 81.5), 1.4, 0.0, 1.0);
        let failures = check_against_baseline(&tepid, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`service.warm_over_cold` = 1.4, needs ≥ 3")),
            "{failures:?}"
        );
        // Any warm request falling through to a cold solve fails.
        let leaky = with_service(doc(3.0, 81.5), 50.0, 2.0, 1.0);
        let failures = check_against_baseline(&leaky, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`service.warm_cold_solves` = 2, needs exactly 0")),
            "{failures:?}"
        );
        // A non-finite ratio fails by name instead of passing silently.
        let poisoned = with_service(doc(3.0, 81.5), f64::NAN, 0.0, 1.0);
        let failures = check_against_baseline(&poisoned, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("warm_over_cold") && f.contains("not finite")),
            "{failures:?}"
        );
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`service` section missing")),
            "{failures:?}"
        );
        // Pre-v5 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25).is_empty());
    }

    #[test]
    fn service_gate_requires_one_flow_per_resolved_config() {
        let base = with_service(doc(3.0, 81.5), 200.0, 0.0, 1.0);
        // Two workers that raced past the flow cache built it twice.
        let raced = with_service(doc(3.0, 81.5), 50.0, 0.0, 2.0);
        let failures = check_against_baseline(&raced, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`service.flows_built` = 2, needs exactly 1")),
            "{failures:?}"
        );
        // A service that answered without building its flow is as wrong.
        let none = with_service(doc(3.0, 81.5), 50.0, 0.0, 0.0);
        let failures = check_against_baseline(&none, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`service.flows_built` = 0, needs exactly 1")),
            "{failures:?}"
        );
        // A section without the count fails by name.
        let Json::Obj(mut pairs) = with_service(doc(3.0, 81.5), 50.0, 0.0, 1.0) else {
            unreachable!()
        };
        if let Some((_, Json::Obj(fields))) = pairs.iter_mut().find(|(k, _)| k == "service") {
            fields.retain(|(k, _)| k != "flows_built");
        }
        let failures = check_against_baseline(&Json::Obj(pairs), &base, 0.25);
        assert!(
            failures.iter().any(|f| f.contains("flows_built")),
            "{failures:?}"
        );
    }

    fn with_logic_sim(mut doc: Json, evaluated_share: f64) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push((
            "logic_sim".to_string(),
            Json::obj([
                ("active_cell_share", Json::Num(0.329)),
                ("evaluated_share", Json::Num(evaluated_share)),
            ]),
        ));
        doc
    }

    #[test]
    fn logic_sim_gate_caps_the_evaluated_share() {
        // The baseline predates the section; a run that has it is still
        // held to its row.
        let base = doc(3.0, 81.5);
        let good = with_logic_sim(doc(3.0, 81.5), 0.34);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        let merged = with_logic_sim(doc(3.0, 81.5), 1.0);
        let failures = check_against_baseline(&merged, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`logic_sim.evaluated_share` = 1, needs ≤ 0.5")),
            "{failures:?}"
        );
        let poisoned = with_logic_sim(doc(3.0, 81.5), f64::NAN);
        let failures = check_against_baseline(&poisoned, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("evaluated_share") && f.contains("not finite")),
            "{failures:?}"
        );
        let failures = check_against_baseline(&base, &good, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`logic_sim` section missing")),
            "{failures:?}"
        );
    }

    fn with_wrapper(mut doc: Json, rows_per_search: f64) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push((
            "wrapper".to_string(),
            Json::obj([
                ("searches", Json::Num(4174.0)),
                ("rows_scanned_per_search", Json::Num(rows_per_search)),
            ]),
        ));
        doc
    }

    #[test]
    fn wrapper_gate_caps_the_rows_each_search_walks() {
        let base = with_wrapper(doc(3.0, 81.5), 6.46);
        let good = with_wrapper(doc(3.0, 81.5), 6.46);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        let unbounded = with_wrapper(doc(3.0, 81.5), 41.0);
        let failures = check_against_baseline(&unbounded, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| { f.contains("`wrapper.rows_scanned_per_search` = 41, needs ≤ 12") }),
            "{failures:?}"
        );
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`wrapper` section missing")),
            "{failures:?}"
        );
    }

    /// Numbers from the committed baseline: Table I's `(default_pct,
    /// eri_pct)`, Fig. 6's `(default_pct, eri_pct, hw_pct)` and two of
    /// the timing rows' `(eri_pct, hw_pct)`, the worst one included.
    const TABLE1: [[f64; 2]; 2] = [
        [11.256272082833489, 12.800233156961582],
        [19.929945969730827, 22.654883574429736],
    ];
    const FIG6: [[f64; 3]; 5] = [
        [6.189375878502763, 7.232980575498191, 6.475818369094516],
        [11.484051011445679, 13.10811652281028, 11.747098125842621],
        [15.876898725530197, 18.228393626315665, 16.158422553728748],
        [19.862442608988655, 22.391436556632396, 19.99177373770489],
        [23.46205238494859, 26.15145199296636, 23.59433632810424],
    ];
    const TIMING: [[f64; 2]; 2] = [
        [-1.3068279086944956, 1.7137665610127215],
        [-0.02541880504495823, 4.220095866001803],
    ];

    /// A `paper` section with [`TABLE1`], [`FIG6`] and [`TIMING`] rows,
    /// the summaries they give and today's other claims, with
    /// `doctored` summaries overriding them.
    fn with_paper(mut doc: Json, doctored: &[(&str, f64)]) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        let mut section = Json::obj([
            ("table1", rows(["default_pct", "eri_pct"], &TABLE1)),
            ("fig6", rows(["default_pct", "eri_pct", "hw_pct"], &FIG6)),
            ("timing", rows(["eri_pct", "hw_pct"], &TIMING)),
        ]);
        let summaries = paper_summaries(&section).unwrap();
        let others = [
            ("fig5_pearson_r", 0.615),
            ("abl1_eri_over_blind_pp", 2.01),
            ("abl3_eri_spread_pp", 0.02),
        ];
        let Json::Obj(fields) = &mut section else {
            unreachable!()
        };
        for (key, value) in summaries.into_iter().chain(others) {
            let value = doctored
                .iter()
                .find(|(k, _)| *k == key)
                .map_or(value, |d| d.1);
            fields.push((key.to_string(), Json::Num(value)));
        }
        pairs.push(("paper".to_string(), section));
        doc
    }

    /// An array of row objects, one `fields` value per column.
    fn rows<const N: usize>(fields: [&'static str; N], rows: &[[f64; N]]) -> Json {
        let row = |values: &[f64; N]| Json::obj(fields.into_iter().zip(values.map(Json::Num)));
        Json::Arr(rows.iter().map(row).collect())
    }

    /// `doc` with `field` of row `index` of `paper.array` set to `f` of
    /// itself.
    fn doctor_row(
        mut doc: Json,
        array: &str,
        index: usize,
        field: &str,
        f: fn(f64) -> f64,
    ) -> Json {
        let mut at = &mut doc;
        for key in ["paper", array] {
            let Json::Obj(pairs) = at else { unreachable!() };
            at = &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap().1;
        }
        let Json::Arr(rows) = at else { unreachable!() };
        let Json::Obj(pairs) = &mut rows[index] else {
            unreachable!()
        };
        let (_, Json::Num(v)) = pairs.iter_mut().find(|(k, _)| k == field).unwrap() else {
            unreachable!()
        };
        *v = f(*v);
        doc
    }

    #[test]
    fn paper_gate_fails_each_broken_claim_by_its_row() {
        let base = with_paper(doc(3.0, 81.5), &[]);
        assert!(check_against_baseline(&base, &base, 0.25).is_empty());
        let cases: [(&str, f64, &str); 9] = [
            ("table1_min_eri_gain_pp", -0.3, "= -0.3, needs > 0"),
            // The Table I gap narrows from 16 % to 32 %.
            ("table1_gain_widening_pp", -0.4, "= -0.4, needs > 0"),
            ("fig6_min_eri_gain_pp", -0.06, "= -0.06, needs > -0.05"),
            ("fig6_min_hw_gain_pp", -0.7, "= -0.7, needs > -0.6"),
            // One Fig. 6 curve falls from one overhead to the next.
            ("fig6_min_rise_pp", -0.12, "= -0.12, needs > 0"),
            ("fig5_pearson_r", 0.49, "= 0.49, needs > 0.5"),
            // The timing ceiling is strict.
            ("timing_max_overhead_pct", 5.0, "= 5, needs < 5"),
            ("abl1_eri_over_blind_pp", -0.06, "= -0.06, needs ≥ -0.05"),
            ("abl3_eri_spread_pp", 5.0, "= 5, needs < 5"),
        ];
        let recomputed = paper_summaries(base.get("paper").unwrap()).unwrap();
        for (field, value, needs) in cases {
            let broken = with_paper(doc(3.0, 81.5), &[(field, value)]);
            let failures = check_against_baseline(&broken, &base, 0.25);
            // A summary its rows do not give fails a second time.
            let mut want = vec![format!("`paper.{field}` {needs}")];
            if let Some((_, rows_give)) = recomputed.iter().find(|(k, _)| *k == field) {
                want.push(format!(
                    "`paper.{field}` = {value}, but its rows give {rows_give}"
                ));
            }
            assert_eq!(failures, want, "{field} = {value}");
        }
    }

    #[test]
    fn paper_gate_recomputes_each_summary_from_its_rows_to_the_bit() {
        let base = with_paper(doc(3.0, 81.5), &[]);
        let next_up = |v: f64| f64::from_bits(v.to_bits() + 1);
        let fails = |doctored: &Json| {
            let failures = check_against_baseline(doctored, &base, 0.25);
            failures
                .iter()
                .map(|f| f.split(" = ").next().unwrap().to_string())
                .collect::<Vec<_>>()
        };
        // One ulp more ERI on Table I's first row moves its least gain
        // and the widening; no claim breaks, but both summaries are stale.
        let table1 = doctor_row(base.clone(), "table1", 0, "eri_pct", next_up);
        assert_eq!(
            fails(&table1),
            [
                "`paper.table1_min_eri_gain_pp`",
                "`paper.table1_gain_widening_pp`"
            ]
        );
        // Fig. 6's 32 % row holds the least HW gain.
        let fig6 = doctor_row(base.clone(), "fig6", 3, "hw_pct", next_up);
        assert_eq!(fails(&fig6), ["`paper.fig6_min_hw_gain_pp`"]);
        let timing = doctor_row(base.clone(), "timing", 1, "hw_pct", |v| v - 0.5);
        assert_eq!(fails(&timing), ["`paper.timing_max_overhead_pct`"]);
        let gone = doctor_row(base.clone(), "fig6", 0, "eri_pct", |_| f64::NAN);
        let failures = check_against_baseline(&gone, &base, 0.25);
        assert_eq!(
            failures,
            ["section `paper.fig6[0]`: key `eri_pct` is not finite (NaN)"]
        );
    }

    #[test]
    fn the_committed_baseline_gives_its_own_paper_summaries() {
        let baseline = Json::parse(include_str!("../../../ci/bench-baseline.json")).unwrap();
        let paper = baseline.get("paper").unwrap();
        assert!(paper
            .get("table1")
            .and_then(Json::as_arr)
            .is_some_and(|r| r.len() == 2));
        assert_eq!(check_paper_summaries(paper), Vec::<String>::new());
        assert!(check_against_baseline(&baseline, &baseline, PEAK_TOLERANCE_C).is_empty());
    }

    #[test]
    fn paper_gate_requires_the_section_once_the_baseline_has_it() {
        let base = with_paper(doc(3.0, 81.5), &[]);
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25);
        assert_eq!(failures, ["`paper` section missing from this run"]);
        let poisoned = with_paper(doc(3.0, 81.5), &[("fig5_pearson_r", f64::NAN)]);
        let failures = check_against_baseline(&poisoned, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("fig5_pearson_r") && f.contains("not finite")),
            "{failures:?}"
        );
    }

    #[test]
    fn non_finite_speedup_fails_instead_of_passing_silently() {
        // `NaN < floor` is false, so without an explicit guard a NaN
        // speedup would pass its floor.
        let base = with_scaling(doc(3.0, 81.5), 3.5, 1e-9);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let poisoned = with_scaling(doc(3.0, 81.5), bad, 1e-9);
            let failures = check_against_baseline(&poisoned, &base, 0.25);
            assert!(
                failures
                    .iter()
                    .any(|f| f.contains("speedup_vs_csr") && f.contains("not finite")),
                "speedup {bad}: {failures:?}"
            );
        }
    }

    #[test]
    fn non_finite_peak_fails_instead_of_passing_silently() {
        let failures = check_against_baseline(&doc(3.0, f64::NAN), &doc(3.0, 81.5), 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("non-finite peak_after_c")),
            "{failures:?}"
        );
    }

    #[test]
    fn non_finite_drift_values_fail_by_name() {
        let base = with_scaling(doc(3.0, 81.5), 3.5, 1e-9);
        let poisoned = with_scaling(doc(3.0, 81.5), 3.5, f64::NAN);
        let failures = check_against_baseline(&poisoned, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("max_drift_k") && f.contains("not finite")),
            "{failures:?}"
        );
    }

    #[test]
    fn malformed_baseline_json_is_a_named_error_not_a_panic() {
        // The gate's callers parse the baseline with Json::parse; a
        // truncated or corrupted file must surface as Err, never panic.
        for bad in ["", "{\"records\": [", "{\"speedup\": }", "not json at all"] {
            assert!(
                Json::parse(bad).is_err(),
                "accepted malformed input {bad:?}"
            );
        }
        // A baseline that parses but lacks the gated sections fails with
        // messages naming each missing piece.
        let hollow = Json::parse("{}").unwrap();
        let failures = check_against_baseline(&hollow, &doc(3.0, 81.5), 0.25);
        assert!(
            failures.iter().any(|f| f.contains("missing `records`")),
            "{failures:?}"
        );
    }

    #[test]
    fn overflowing_literals_are_caught_at_the_gate() {
        // `1e999` parses to +inf via str::parse::<f64>; the finiteness
        // guard has to catch what the parser lets through.
        let doc_inf = Json::parse(
            r#"{"solver_scaling": {"meshes": [
                {"mesh": [40, 40], "backend": "spectral-dct", "speedup_vs_csr": 3.0,
                 "max_drift_k": 1e999}
            ]}}"#,
        )
        .unwrap();
        let failures = check_sections(&doc_inf, &doc_inf);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("max_drift_k") && f.contains("not finite")),
            "{failures:?}"
        );
    }

    #[test]
    fn missing_scenarios_fail() {
        let empty = Json::obj([
            ("speedup", Json::Num(3.0)),
            ("records", Json::Arr(Vec::new())),
        ]);
        let failures = check_against_baseline(&empty, &doc(3.0, 81.5), 0.25);
        assert!(failures.iter().any(|f| f.contains("missing from this run")));
    }
}
