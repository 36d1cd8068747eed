//! The CI regression gate for `BENCH_sweep.json`.
//!
//! A sweep run is compared against a checked-in baseline on two axes:
//!
//! * **Results** — every baseline record must have a matching record
//!   (same workload, mesh and strategy) whose after-transform peak
//!   temperature agrees within an absolute tolerance. Result drift means
//!   the physics changed, which is never acceptable silently.
//! * **Throughput** — the engine-vs-sequential speedup (measured within
//!   one run, so machine speed cancels out) must not regress by more
//!   than the configured fraction.
//! * **Service cache** (schema ≥ 5) — warm requests answered by the
//!   optimization service's keyed result cache must run at least
//!   [`MIN_SERVICE_WARM_SPEEDUP`] times faster per request than their
//!   cold solves (a within-run ratio), and no warm pass may fall back to
//!   a cold solve.
//! * **Threaded kernels** (schema ≥ 6) — the slab-parallel V-cycle
//!   kernels must produce *bit-identical* fields at every thread count
//!   (zero drift, gated on every machine), and on hosts with at least
//!   [`MIN_THREADED_GATE_HW_THREADS`] hardware threads the 256×256
//!   speedup must hold [`MIN_THREADED_SPEEDUP_256`].
//!
//! Violations come back as human-readable strings; an empty list passes.

use crate::json::Json;

/// Absolute peak-temperature agreement required between a run and the
/// baseline, in kelvin. Far above solver tolerance, far below any real
/// physics change.
pub const PEAK_TOLERANCE_C: f64 = 0.25;

/// Maximum allowed fractional speedup regression vs the baseline (0.2 =
/// fail when the measured speedup drops below 80 % of the baseline's).
pub const MAX_SPEEDUP_REGRESSION: f64 = 0.2;

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
    max_speedup_regression: f64,
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

    // The speedup is only comparable between runs with the same worker
    // count — raw thread parallelism could otherwise mask a regression
    // of the reuse machinery (or an over-threaded baseline could fail
    // every CI run).
    let current_threads = current.get("threads").and_then(Json::as_f64);
    let baseline_threads = baseline.get("threads").and_then(Json::as_f64);
    if let (Some(got), Some(want)) = (current_threads, baseline_threads) {
        if got != want {
            failures.push(format!(
                "thread count {got} differs from the baseline's {want}; \
                 speedups are not comparable — regenerate the baseline"
            ));
        }
    }

    let current_speedup = current.get("speedup").and_then(Json::as_f64);
    let baseline_speedup = baseline.get("speedup").and_then(Json::as_f64);
    match (current_speedup, baseline_speedup) {
        (Some(got), Some(want)) if !got.is_finite() || !want.is_finite() => {
            failures.push(format!(
                "non-finite `speedup` value (run {got}, baseline {want})"
            ));
        }
        (Some(got), Some(want)) => {
            let floor = want * (1.0 - max_speedup_regression);
            if got < floor {
                failures.push(format!(
                    "speedup {got:.2}× regressed more than \
                     {pct:.0}% vs baseline {want:.2}× (floor {floor:.2}×)",
                    pct = max_speedup_regression * 100.0
                ));
            }
        }
        _ => failures.push("missing `speedup` value".to_string()),
    }

    failures.extend(check_solver_scaling_section(current, baseline));
    failures.extend(check_solver_threads_section(current, baseline));
    failures.extend(check_spectral_section(current, baseline));
    failures.extend(check_optimizer_section(current, baseline));
    failures.extend(check_service_section(current, baseline));
    failures
}

/// Validates the threaded-kernel section (schema ≥ 6) on two axes of
/// very different severity:
///
/// * **Bit-drift** — every benched mesh must report *exactly* zero
///   drift between the single-thread and N-thread solves, on every
///   machine. The chunked-tree reductions are designed to make thread
///   count invisible to the bits; the content-keyed result caches
///   assume it, so any nonzero drift is a correctness bug, not noise.
/// * **Speedup** — the 256×256 entry must hold
///   [`MIN_THREADED_SPEEDUP_256`], but only when the run both recorded
///   ≥ [`MIN_THREADED_GATE_HW_THREADS`] hardware threads and ran that
///   many solver threads; on smaller hosts the measurement is
///   oversubscription, not parallelism.
fn check_solver_threads_section(current: &Json, baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(section) = current.get("solver_threads") else {
        if baseline.get("solver_threads").is_some() {
            failures.push("`solver_threads` section missing from this run".to_string());
        }
        return failures;
    };
    let Some(meshes) = section.get("meshes").and_then(Json::as_arr) else {
        failures.push("section `solver_threads` is missing key `meshes`".to_string());
        return failures;
    };
    for entry in meshes {
        let nx = entry
            .get("mesh")
            .and_then(Json::as_arr)
            .and_then(|m| m.first())
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        match entry.require_f64(&format!("solver_threads.meshes[{nx}x{nx}]"), "max_drift_k") {
            // lint: allow(float-eq, reason = "the threaded solver promises bit-identity; the only acceptable drift is exactly zero")
            Ok(drift) if drift != 0.0 => failures.push(format!(
                "threaded solve drifted {drift:.2e} K from the single-thread \
                 solve at {nx}x{nx}x9 — thread count must be invisible to the bits"
            )),
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    }
    let hw = section.get("hw_threads").and_then(Json::as_f64);
    let ran = section.get("threads").and_then(Json::as_f64);
    let gate_speedup = hw.is_some_and(|hw| hw >= MIN_THREADED_GATE_HW_THREADS)
        && ran.is_some_and(|t| t >= MIN_THREADED_GATE_HW_THREADS);
    if gate_speedup {
        let entry_256 = meshes.iter().find(|entry| {
            entry
                .get("mesh")
                .and_then(Json::as_arr)
                .and_then(|m| m.first())
                .and_then(Json::as_f64)
                == Some(256.0)
        });
        let Some(entry) = entry_256 else {
            // Smoke runs stop at 128×128 by design; only a full run may
            // not silently drop the gated configuration.
            if current.get("mode").and_then(Json::as_str) == Some("full") {
                failures.push(
                    "section `solver_threads.meshes` has no 256×256 entry \
                     in a full run on a multi-core host (the gated \
                     configuration)"
                        .to_string(),
                );
            }
            return failures;
        };
        match entry.require_f64("solver_threads.meshes[256x256]", "speedup") {
            Ok(speedup) if speedup < MIN_THREADED_SPEEDUP_256 => failures.push(format!(
                "threaded kernels reach only {speedup:.2}× at 256×256×9 with \
                 {t:.0} threads on {h:.0} hardware threads \
                 (floor {MIN_THREADED_SPEEDUP_256}×)",
                t = ran.unwrap_or(0.0),
                h = hw.unwrap_or(0.0),
            )),
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    }
    failures
}

/// Validates the spectral-solver section (schema ≥ 7) on two axes:
///
/// * **Drift** — every benched mesh must agree with the multigrid
///   oracle to [`SPECTRAL_DRIFT_TOLERANCE_K`], on every machine. The
///   direct factorization and the iterative solve answer the same
///   physics; a disagreement is a solver bug, not noise. The section
///   must also record that the spectral leg actually routed to the
///   `spectral-dct` backend — a silent fallback to multigrid would
///   make every other number in the section a tautology.
/// * **Speedup** — the 256×256 entry must hold
///   [`MIN_SPECTRAL_SPEEDUP_256`] over the oracle, but only in full
///   mode: smoke runs stop at 128×128 by design. The ratio is
///   within-run, so no hardware conditioning is needed.
fn check_spectral_section(current: &Json, baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(section) = current.get("spectral") else {
        if baseline.get("spectral").is_some() {
            failures.push("`spectral` section missing from this run".to_string());
        }
        return failures;
    };
    match section.get("backend").and_then(Json::as_str) {
        Some("spectral-dct") => {}
        Some(other) => failures.push(format!(
            "section `spectral` routed to backend `{other}` instead of \
             `spectral-dct` — the homogeneous bench stack must take the \
             direct tier"
        )),
        None => failures.push("section `spectral` is missing key `backend`".to_string()),
    }
    let Some(meshes) = section.get("meshes").and_then(Json::as_arr) else {
        failures.push("section `spectral` is missing key `meshes`".to_string());
        return failures;
    };
    for entry in meshes {
        let nx = entry
            .get("mesh")
            .and_then(Json::as_arr)
            .and_then(|m| m.first())
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        match entry.require_f64(&format!("spectral.meshes[{nx}x{nx}]"), "max_drift_k") {
            Ok(drift) if drift > SPECTRAL_DRIFT_TOLERANCE_K => failures.push(format!(
                "spectral direct solve drifted {drift:.2e} K from the \
                 multigrid oracle at {nx}x{nx}x9 \
                 (tolerance {SPECTRAL_DRIFT_TOLERANCE_K:.0e} K)"
            )),
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    }
    if current.get("mode").and_then(Json::as_str) == Some("full") {
        let entry_256 = meshes.iter().find(|entry| {
            entry
                .get("mesh")
                .and_then(Json::as_arr)
                .and_then(|m| m.first())
                .and_then(Json::as_f64)
                == Some(256.0)
        });
        let Some(entry) = entry_256 else {
            failures.push(
                "section `spectral.meshes` has no 256×256 entry in a full \
                 run (the gated configuration)"
                    .to_string(),
            );
            return failures;
        };
        match entry.require_f64("spectral.meshes[256x256]", "speedup_vs_mg") {
            Ok(speedup) if speedup < MIN_SPECTRAL_SPEEDUP_256 => failures.push(format!(
                "spectral direct solver reaches only {speedup:.2}× over the \
                 multigrid oracle at 256×256×9 \
                 (floor {MIN_SPECTRAL_SPEEDUP_256}×)"
            )),
            Ok(_) => {}
            Err(e) => failures.push(e),
        }
    }
    failures
}

/// Validates the optimization-service section (schema ≥ 5): the warm
/// (cache-served) passes must beat the cold pass per request by at least
/// [`MIN_SERVICE_WARM_SPEEDUP`], and none of them may have fallen back
/// to a cold solve. Both are within-run quantities; the baseline only
/// establishes that the section must be present at all.
fn check_service_section(current: &Json, baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(service) = current.get("service") else {
        if baseline.get("service").is_some() {
            failures.push("`service` section missing from this run".to_string());
        }
        return failures;
    };
    match service.require_f64("service", "warm_over_cold") {
        Ok(ratio) if ratio < MIN_SERVICE_WARM_SPEEDUP => failures.push(format!(
            "service cache serves warm requests only {ratio:.2}× faster than \
             cold solves (floor {MIN_SERVICE_WARM_SPEEDUP}×)"
        )),
        Ok(_) => {}
        Err(e) => failures.push(e),
    }
    match service.require_f64("service", "warm_cold_solves") {
        Ok(n) if n > 0.0 => failures.push(format!(
            "{n:.0} warm service request(s) fell through the result cache \
             to a cold solve"
        )),
        Ok(_) => {}
        Err(e) => failures.push(e),
    }
    failures
}

/// Validates the strategy-engine optimizer section (schema ≥ 4): exact
/// verifications must stay at most [`MAX_OPTIMIZER_EXACT_SHARE`] of the
/// screened candidates, and the frontier must not be empty. Within-run
/// quantities — the baseline only establishes presence.
fn check_optimizer_section(current: &Json, baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(optimizer) = current.get("optimizer") else {
        if baseline.get("optimizer").is_some() {
            failures.push("`optimizer` section missing from this run".to_string());
        }
        return failures;
    };
    let screened = optimizer.require_f64("optimizer", "screened");
    let exact = optimizer.require_f64("optimizer", "exact_runs");
    match (screened, exact) {
        (Ok(screened), Ok(exact)) => {
            if screened <= 0.0 {
                failures.push("optimizer screened no candidates".to_string());
            } else if exact > screened * MAX_OPTIMIZER_EXACT_SHARE {
                failures.push(format!(
                    "optimizer exact-verified {exact:.0} of {screened:.0} screened \
                     candidates ({:.0}%, cap {:.0}%)",
                    exact / screened * 100.0,
                    MAX_OPTIMIZER_EXACT_SHARE * 100.0
                ));
            }
        }
        (a, b) => failures.extend(a.err().into_iter().chain(b.err())),
    }
    match optimizer.get("frontier").and_then(Json::as_arr) {
        Some([]) => failures.push("optimizer frontier is empty".to_string()),
        Some(_) => {}
        None => failures.push("section `optimizer` is missing key `frontier`".to_string()),
    }
    failures
}

/// Validates the structured-solver section (schema ≥ 3): the 40×40×9
/// entry must hold the structured-vs-CSR speedup floor and stay within
/// the drift tolerance of the oracle. These are within-run measurements;
/// the baseline only establishes presence.
fn check_solver_scaling_section(current: &Json, baseline: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(scaling) = current.get("solver_scaling") else {
        if baseline.get("solver_scaling").is_some() {
            failures.push("`solver_scaling` section missing from this run".to_string());
        }
        return failures;
    };
    let Some(meshes) = scaling.get("meshes").and_then(Json::as_arr) else {
        failures.push("section `solver_scaling` is missing key `meshes`".to_string());
        return failures;
    };
    let gate_entry = meshes.iter().find(|entry| {
        entry
            .get("mesh")
            .and_then(Json::as_arr)
            .and_then(|m| m.first())
            .and_then(Json::as_f64)
            == Some(40.0)
    });
    let Some(entry) = gate_entry else {
        failures.push(
            "section `solver_scaling.meshes` has no 40×40 entry (the gated configuration)"
                .to_string(),
        );
        return failures;
    };
    match entry.require_f64("solver_scaling.meshes[40x40]", "speedup_vs_csr") {
        Ok(speedup) if speedup < MIN_STRUCTURED_SPEEDUP => failures.push(format!(
            "structured solver is only {speedup:.2}× the CSR oracle at 40×40×9 \
             (floor {MIN_STRUCTURED_SPEEDUP}×)"
        )),
        Ok(_) => {}
        Err(e) => failures.push(e),
    }
    match entry.require_f64("solver_scaling.meshes[40x40]", "max_drift_k") {
        Ok(drift) if drift > STRUCTURED_DRIFT_TOLERANCE_K => failures.push(format!(
            "structured solver drifted {drift:.2e} K from the CSR oracle at 40×40×9 \
             (tolerance {STRUCTURED_DRIFT_TOLERANCE_K:.0e} K)"
        )),
        Ok(_) => {}
        Err(e) => failures.push(e),
    }
    failures
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
        assert!(check_against_baseline(&failures, &failures, 0.25, 0.2).is_empty());
    }

    #[test]
    fn peak_drift_fails() {
        let failures = check_against_baseline(&doc(3.0, 82.5), &doc(3.0, 81.5), 0.25, 0.2);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("drifted"), "{failures:?}");
    }

    #[test]
    fn speedup_regression_fails_only_past_the_threshold() {
        // 2.5 vs 3.0 is a 17 % regression — allowed at 20 %.
        assert!(check_against_baseline(&doc(2.5, 81.5), &doc(3.0, 81.5), 0.25, 0.2).is_empty());
        let failures = check_against_baseline(&doc(2.3, 81.5), &doc(3.0, 81.5), 0.25, 0.2);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("regressed"), "{failures:?}");
    }

    #[test]
    fn thread_count_mismatch_fails() {
        let mut four_threads = doc(5.0, 81.5);
        let Json::Obj(pairs) = &mut four_threads else {
            unreachable!()
        };
        pairs[0].1 = Json::Num(4.0);
        let failures = check_against_baseline(&four_threads, &doc(3.0, 81.5), 0.25, 0.2);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("thread count"), "{failures:?}");
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
        assert!(check_against_baseline(&good, &base, 0.25, 0.2).is_empty());
        // Speedup under the floor fails, naming the configuration.
        let slow = with_scaling(doc(3.0, 81.5), 1.2, 1e-9);
        let failures = check_against_baseline(&slow, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("40×40×9")),
            "{failures:?}"
        );
        // Oracle drift fails.
        let drifty = with_scaling(doc(3.0, 81.5), 3.0, 1e-3);
        let failures = check_against_baseline(&drifty, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("drifted")),
            "{failures:?}"
        );
        // A truncated section names exactly what is missing.
        let mut truncated = with_scaling(doc(3.0, 81.5), 2.0, 1e-9);
        let Json::Obj(pairs) = &mut truncated else {
            unreachable!()
        };
        pairs.retain(|(k, _)| k != "solver_scaling");
        pairs.push(("solver_scaling".to_string(), Json::obj([])));
        let failures = check_against_baseline(&truncated, &base, 0.25, 0.2);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`solver_scaling`") && f.contains("meshes")),
            "{failures:?}"
        );
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25, 0.2);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`solver_scaling` section missing")),
            "{failures:?}"
        );
        // Pre-v3 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25, 0.2).is_empty());
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
        assert!(check_against_baseline(&single_core_ok, &base, 0.25, 0.2).is_empty());
        let drifty = with_solver_threads(doc(3.0, 81.5), 1.0, 2.0, 0.9, 1e-15);
        let failures = check_against_baseline(&drifty, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("invisible to the bits")),
            "{failures:?}"
        );
    }

    #[test]
    fn threaded_gate_enforces_the_speedup_floor_only_on_multicore_hosts() {
        let base = with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.6, 0.0);
        // Healthy multi-core run passes.
        let good = with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.3, 0.0);
        assert!(check_against_baseline(&good, &base, 0.25, 0.2).is_empty());
        // Multi-core host under the floor fails.
        let slow = with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 1.3, 0.0);
        let failures = check_against_baseline(&slow, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("floor 2×")),
            "{failures:?}"
        );
        // The same measurement on a single-core host is skipped.
        let single = with_solver_threads(doc(3.0, 81.5), 1.0, 4.0, 1.3, 0.0);
        assert!(check_against_baseline(&single, &base, 0.25, 0.2).is_empty());
        // ...as is a multi-core run that only used 2 solver threads.
        let underthreaded = with_solver_threads(doc(3.0, 81.5), 8.0, 2.0, 1.3, 0.0);
        assert!(check_against_baseline(&underthreaded, &base, 0.25, 0.2).is_empty());
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25, 0.2);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`solver_threads` section missing")),
            "{failures:?}"
        );
        // Pre-v6 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25, 0.2).is_empty());
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
        let failures = check_against_baseline(&hollow, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("no 256×256 entry")),
            "{failures:?}"
        );
        // ...but a smoke run stops at 128×128 by design.
        let smoke = strip_256(
            with_solver_threads(doc(3.0, 81.5), 8.0, 4.0, 2.6, 0.0),
            "smoke",
        );
        assert!(check_against_baseline(&smoke, &base, 0.25, 0.2).is_empty());
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
        assert!(check_against_baseline(&good, &base, 0.25, 0.2).is_empty());
        // Oracle drift past a microkelvin fails — even in smoke mode.
        let drifty = with_spectral(doc(3.0, 81.5), "smoke", "spectral-dct", 2.4, 1e-3);
        let failures = check_against_baseline(&drifty, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("drifted")),
            "{failures:?}"
        );
        // A spectral leg that silently fell back to multigrid fails.
        let fallback = with_spectral(doc(3.0, 81.5), "full", "stencil-multigrid", 2.4, 0.0);
        let failures = check_against_baseline(&fallback, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("stencil-multigrid")),
            "{failures:?}"
        );
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25, 0.2);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`spectral` section missing")),
            "{failures:?}"
        );
        // Pre-v7 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25, 0.2).is_empty());
    }

    #[test]
    fn spectral_gate_enforces_the_speedup_floor_only_in_full_mode() {
        let base = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 3.1, 1e-9);
        // A full run under the floor fails, naming the configuration.
        let slow = with_spectral(doc(3.0, 81.5), "full", "spectral-dct", 1.3, 1e-9);
        let failures = check_against_baseline(&slow, &base, 0.25, 0.2);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("256×256×9") && f.contains("floor 2×")),
            "{failures:?}"
        );
        // The same ratio in a smoke run is not gated (the smoke grid
        // stops at 128×128; this 256 entry is synthetic)...
        let smoke = with_spectral(doc(3.0, 81.5), "smoke", "spectral-dct", 1.3, 1e-9);
        assert!(check_against_baseline(&smoke, &base, 0.25, 0.2).is_empty());
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
        let failures = check_against_baseline(&hollow, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("no 256×256 entry")),
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
        assert!(check_against_baseline(&good, &base, 0.25, 0.2).is_empty());
        // Exact share over the cap fails.
        let greedy = with_optimizer(doc(3.0, 81.5), 60.0, 20.0, 10);
        let failures = check_against_baseline(&greedy, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("exact-verified")),
            "{failures:?}"
        );
        // An empty frontier fails.
        let empty = with_optimizer(doc(3.0, 81.5), 60.0, 12.0, 0);
        let failures = check_against_baseline(&empty, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("frontier is empty")),
            "{failures:?}"
        );
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25, 0.2);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`optimizer` section missing")),
            "{failures:?}"
        );
        // Pre-v4 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25, 0.2).is_empty());
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
        assert!(check_against_baseline(&good, &base, 0.25, 0.2).is_empty());
        // Warm requests barely beating cold solves fails.
        let tepid = with_service(doc(3.0, 81.5), 1.4, 0.0);
        let failures = check_against_baseline(&tepid, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("warm requests")),
            "{failures:?}"
        );
        // Any warm request falling through to a cold solve fails.
        let leaky = with_service(doc(3.0, 81.5), 50.0, 2.0);
        let failures = check_against_baseline(&leaky, &base, 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("fell through")),
            "{failures:?}"
        );
        // A non-finite ratio fails by name instead of passing silently.
        let poisoned = with_service(doc(3.0, 81.5), f64::NAN, 0.0);
        let failures = check_against_baseline(&poisoned, &base, 0.25, 0.2);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("warm_over_cold") && f.contains("not finite")),
            "{failures:?}"
        );
        // Dropping the section entirely (when the baseline has it) fails.
        let failures = check_against_baseline(&doc(3.0, 81.5), &base, 0.25, 0.2);
        assert!(
            failures
                .iter()
                .any(|f| f.contains("`service` section missing")),
            "{failures:?}"
        );
        // Pre-v5 documents (no section on either side) still pass.
        assert!(check_against_baseline(&doc(3.0, 81.5), &doc(3.0, 81.5), 0.25, 0.2).is_empty());
    }

    #[test]
    fn non_finite_speedup_fails_instead_of_passing_silently() {
        // `NaN < floor` is false, so without an explicit guard a NaN
        // speedup would pass the regression gate.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let failures = check_against_baseline(&doc(bad, 81.5), &doc(3.0, 81.5), 0.25, 0.2);
            assert!(
                failures.iter().any(|f| f.contains("non-finite `speedup`")),
                "speedup {bad}: {failures:?}"
            );
        }
    }

    #[test]
    fn non_finite_peak_fails_instead_of_passing_silently() {
        let failures = check_against_baseline(&doc(3.0, f64::NAN), &doc(3.0, 81.5), 0.25, 0.2);
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
        let failures = check_against_baseline(&poisoned, &base, 0.25, 0.2);
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
        let failures = check_against_baseline(&hollow, &doc(3.0, 81.5), 0.25, 0.2);
        assert!(
            failures.iter().any(|f| f.contains("missing `records`")),
            "{failures:?}"
        );
        assert!(
            failures.iter().any(|f| f.contains("missing `speedup`")),
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
        let failures = check_solver_scaling_section(&doc_inf, &doc_inf);
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
        let failures = check_against_baseline(&empty, &doc(3.0, 81.5), 0.25, 0.2);
        assert!(failures.iter().any(|f| f.contains("missing from this run")));
    }
}
