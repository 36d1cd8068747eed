//! The CI regression gate for `BENCH_sweep.json`.
//!
//! A sweep run is checked on two axes:
//!
//! * **Results** — every baseline record must have a matching record
//!   (same workload, mesh and strategy) whose after-transform peak
//!   temperature agrees within an absolute tolerance. Result drift means
//!   the physics changed, which is never acceptable silently.
//! * **Sections** — each row of one rule table bounds one field of one
//!   section entry: the structured and spectral solvers' speedups and
//!   oracle drift, the threaded kernels' bit-identity and speedup, the
//!   optimizer's exact-verification share and frontier, and the service
//!   cache's warm-over-cold ratio and cold fallbacks. Every bounded
//!   quantity is a within-run ratio or an exact count, so machine speed
//!   cancels out; the baseline only establishes which sections must be
//!   present.
//!
//! Violations come back as human-readable strings; an empty list passes.

use crate::json::Json;

/// Absolute peak-temperature agreement required between a run and the
/// baseline, in kelvin. Far above solver tolerance, far below any real
/// physics change.
pub const PEAK_TOLERANCE_C: f64 = 0.25;

/// Minimum per-solve speedup the structured stencil + multigrid path
/// must hold over the CSR + MIC(0) oracle on the 40×40×9 configuration
/// (a within-run ratio, so machine speed cancels out). Measured ~3–5×;
/// gated conservatively.
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

/// Worst allowed temperature disagreement between the structured path
/// and the CSR oracle, kelvin. Both solve the same conductances to a
/// 1e-9 relative residual, so anything past a microkelvin means one of
/// the solvers is wrong.
pub const STRUCTURED_DRIFT_TOLERANCE_K: f64 = 1e-6;

/// Minimum speedup the threaded V-cycle kernels must hold over their
/// own single-thread run at 256×256×9 (schema ≥ 6) — enforced only
/// when the run recorded at least [`MIN_THREADED_GATE_HW_THREADS`]
/// hardware threads *and* actually ran that many solver threads; a
/// single-core CI container can measure bit-drift but not parallelism.
pub const MIN_THREADED_SPEEDUP_256: f64 = 2.0;

/// Hardware-thread floor below which the threaded-speedup gate is
/// skipped (the drift gate never is).
pub const MIN_THREADED_GATE_HW_THREADS: f64 = 4.0;

/// Worst allowed temperature disagreement between the spectral (DCT)
/// direct solver and the stencil + multigrid oracle, kelvin (schema
/// ≥ 7). The spectral path is a *direct* factorization of the same
/// conductances the oracle iterates on to a 1e-9 relative residual, so
/// anything past a microkelvin means one of them is wrong.
pub const SPECTRAL_DRIFT_TOLERANCE_K: f64 = 1e-6;

/// Minimum speedup the spectral direct solver must hold over the
/// multigrid oracle at 256×256×9 (schema ≥ 7) — a within-run ratio, so
/// enforced on any host, but only in full mode: smoke runs stop at
/// 128×128, where both solvers finish in noise territory.
pub const MIN_SPECTRAL_SPEEDUP_256: f64 = 2.0;

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
#[rustfmt::skip]
const RULES: [Rule; 12] = {
    use Bound::{Above, AtLeast, AtMost, Exactly, NonEmptyArray, ShareOf, StrEquals};
    use Entry::{EveryMesh, Mesh, Section};
    use When::{Always, FullMode, HwThreads};
    const fn row(section: &'static str, entry: Entry, field: &'static str, bound: Bound, armed: When, required: When) -> Rule {
        Rule { section, entry, field, bound, armed, required }
    }
    [
        row("solver_scaling", Mesh(40.0), "speedup_vs_csr", AtLeast(MIN_STRUCTURED_SPEEDUP), Always, Always),
        row("solver_scaling", Mesh(40.0), "max_drift_k", AtMost(STRUCTURED_DRIFT_TOLERANCE_K), Always, Always),
        row("solver_threads", EveryMesh, "max_drift_k", Exactly(0.0), Always, Always),
        row("solver_threads", Mesh(256.0), "speedup", AtLeast(MIN_THREADED_SPEEDUP_256), HwThreads(MIN_THREADED_GATE_HW_THREADS), FullMode),
        row("spectral", Section, "backend", StrEquals("spectral-dct"), Always, Always),
        row("spectral", EveryMesh, "max_drift_k", AtMost(SPECTRAL_DRIFT_TOLERANCE_K), Always, Always),
        row("spectral", Mesh(256.0), "speedup_vs_mg", AtLeast(MIN_SPECTRAL_SPEEDUP_256), FullMode, Always),
        row("optimizer", Section, "screened", Above(0.0), Always, Always),
        row("optimizer", Section, "exact_runs", ShareOf { of: "screened", share: MAX_OPTIMIZER_EXACT_SHARE }, Always, Always),
        row("optimizer", Section, "frontier", NonEmptyArray, Always, Always),
        row("service", Section, "warm_over_cold", AtLeast(MIN_SERVICE_WARM_SPEEDUP), Always, Always),
        row("service", Section, "warm_cold_solves", Exactly(0.0), Always, Always),
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
    failures
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

    fn with_scaling(mut doc: Json, speedup: f64, drift: f64) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push((
            "solver_scaling".to_string(),
            Json::obj([(
                "meshes",
                Json::Arr(vec![
                    Json::obj([
                        ("mesh", Json::Arr(vec![Json::Num(20.0), Json::Num(20.0)])),
                        ("speedup_vs_csr", Json::Num(3.0)),
                        ("max_drift_k", Json::Num(1e-9)),
                    ]),
                    Json::obj([
                        ("mesh", Json::Arr(vec![Json::Num(40.0), Json::Num(40.0)])),
                        ("speedup_vs_csr", Json::Num(speedup)),
                        ("max_drift_k", Json::Num(drift)),
                    ]),
                ]),
            )]),
        ));
        doc
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

    fn with_spectral(
        mut doc: Json,
        mode: &str,
        backend: &str,
        speedup_256: f64,
        drift: f64,
    ) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push(("mode".to_string(), Json::Str(mode.to_string())));
        pairs.push((
            "spectral".to_string(),
            Json::obj([
                ("backend", Json::Str(backend.to_string())),
                (
                    "meshes",
                    Json::Arr(vec![
                        Json::obj([
                            ("mesh", Json::Arr(vec![Json::Num(128.0), Json::Num(128.0)])),
                            ("speedup_vs_mg", Json::Num(2.4)),
                            ("max_drift_k", Json::Num(1e-9)),
                        ]),
                        Json::obj([
                            ("mesh", Json::Arr(vec![Json::Num(256.0), Json::Num(256.0)])),
                            ("speedup_vs_mg", Json::Num(speedup_256)),
                            ("max_drift_k", Json::Num(drift)),
                        ]),
                    ]),
                ),
            ]),
        ));
        doc
    }

    #[test]
    fn spectral_gate_enforces_drift_and_backend_on_any_host() {
        let base = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 3.1, 1e-9);
        // Healthy full run passes.
        let good = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 2.4, 2e-8);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        // Oracle drift past a microkelvin fails — even in smoke mode.
        let drifty = with_spectral(doc(3.0, 81.5), "smoke", "spectral-dct", 2.4, 1e-3);
        let failures = check_against_baseline(&drifty, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("spectral.meshes[256x256].max_drift_k")),
            "{failures:?}"
        );
        // A spectral leg that silently fell back to multigrid fails.
        let fallback = with_spectral(doc(3.0, 81.5), "full", "stencil-multigrid", 2.4, 0.0);
        let failures = check_against_baseline(&fallback, &base, 0.25);
        assert!(
            failures.iter().any(|f| f.contains("stencil-multigrid")),
            "{failures:?}"
        );
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`spectral` section missing")),
            "{failures:?}"
        );
        // Pre-v7 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25).is_empty());
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
                .any(|f| f.contains("spectral.meshes[256x256].speedup_vs_mg` = 1.3, needs ≥ 2")),
            "{failures:?}"
        );
        // The same ratio in a smoke run is not gated (the smoke grid
        // stops at 128×128; this 256 entry is synthetic)...
        let smoke = with_spectral(doc(3.0, 81.5), "smoke", "spectral-dct", 1.3, 1e-9);
        assert!(check_against_baseline(&smoke, &base, 0.25).is_empty());
        // ...but a full run may not drop the gated mesh.
        let mut hollow = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 3.1, 1e-9);
        let Json::Obj(pairs) = &mut hollow else {
            unreachable!()
        };
        for (k, v) in pairs.iter_mut() {
            if k == "spectral" {
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

    fn with_service(mut doc: Json, warm_over_cold: f64, warm_cold_solves: f64) -> Json {
        let Json::Obj(pairs) = &mut doc else {
            unreachable!()
        };
        pairs.push((
            "service".to_string(),
            Json::obj([
                ("warm_over_cold", Json::Num(warm_over_cold)),
                ("warm_cold_solves", Json::Num(warm_cold_solves)),
            ]),
        ));
        doc
    }

    #[test]
    fn service_gate_requires_warm_speedup_and_no_cold_fallbacks() {
        let base = with_service(doc(3.0, 81.5), 200.0, 0.0);
        // Healthy section passes.
        let good = with_service(doc(3.0, 81.5), 50.0, 0.0);
        assert!(check_against_baseline(&good, &base, 0.25).is_empty());
        // Warm requests barely beating cold solves fails.
        let tepid = with_service(doc(3.0, 81.5), 1.4, 0.0);
        let failures = check_against_baseline(&tepid, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`service.warm_over_cold` = 1.4, needs ≥ 3")),
            "{failures:?}"
        );
        // Any warm request falling through to a cold solve fails.
        let leaky = with_service(doc(3.0, 81.5), 50.0, 2.0);
        let failures = check_against_baseline(&leaky, &base, 0.25);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`service.warm_cold_solves` = 2, needs exactly 0")),
            "{failures:?}"
        );
        // A non-finite ratio fails by name instead of passing silently.
        let poisoned = with_service(doc(3.0, 81.5), f64::NAN, 0.0);
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
                {"mesh": [40, 40], "speedup_vs_csr": 3.0, "max_drift_k": 1e999}
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
