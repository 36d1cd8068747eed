//! **SWEEP** — the machine-readable bench pipeline behind
//! `BENCH_sweep.json`.
//!
//! Runs a scenario grid through a memory-only `coolserved` service and
//! emits a stable-schema JSON document with per-scenario results and
//! wall-clocks, plus per-section solver, optimizer, service, logic-sim
//! and wrapper measurements and the paper's claims at paper scale.
//! Every gated quantity is a within-run ratio, an exact count or a
//! deterministic result, so it is comparable across machines, which is
//! what lets CI gate on it.
//!
//! Schema version 3 adds the `solver_scaling` section — per-solve
//! latency, iteration counts and field drift of the structured stencil +
//! multigrid path against the CSR + MIC(0) oracle across meshes (20/40
//! smoke, up to 128 full), with fitted time-vs-unknowns scaling
//! exponents — plus a large-mesh scenario band (80×80, 128×128,
//! full mode only) in `records[]`. CI gates on the 40×40×9 structured
//! speedup (≥ 1.5×) and oracle drift (≤ 1e-6 K).
//!
//! Schema version 4 adds the `optimizer` section — the strategy-engine
//! Pareto frontier on the clustered-hotspot workload: the full transform
//! registry (paper techniques, targeted rows, hot-bin spreading,
//! composite pipelines) × a budget grid screened through the power-delta
//! surrogate, exact-verifying only the surrogate-optimal points. Emits
//! the frontier points and the screened/exact spend split; CI gates
//! exact verifications at ≤ 25 % of screened candidates. Records also
//! carry the applied transform's stable id.
//!
//! Schema version 5 adds the `service` section — the optimization
//! service (job queue + worker pool + keyed result cache) answering a
//! mixed batch of typed requests cold and then warm from cache, with
//! warm answers verified bit-identical to their cold solves. CI gates
//! the warm-over-cold per-request ratio (≥ 3×) and forbids warm passes
//! from falling back to cold solves. The grid legs of the bench run
//! through the typed request API: `SweepGrid::requests`, submitted to
//! `coolserved::serve`.
//!
//! Schema version 6 adds the `solver_threads` section — the threaded
//! slab-parallel V-cycle kernels against their own single-thread run at
//! 128×128 and 256×256 (64/128 in smoke mode), recording the host's
//! hardware thread count so CI can condition the speedup floor on it —
//! plus an xlarge scenario band (256×256, 512×512, full mode, one
//! service worker, thread budget spent inside each solve). CI gates the
//! 256×256 speedup (≥ 2× at 4 threads, multi-core hosts only) and,
//! unconditionally, zero bit-drift between thread counts.
//!
//! Schema version 7 adds the `spectral` section — the spectral (DCT +
//! per-mode Thomas) direct solver against the stencil + multigrid
//! oracle on the laterally homogeneous bench stack, per mesh (64/128
//! smoke, up to 512 full), with per-solve latency, field drift and
//! fitted scaling exponents. CI gates the drift (≤ 1e-6 K,
//! unconditionally) and the 256×256 speedup (≥ 2×, full mode only).
//!
//! Schema version 8 drops the `delta` section along with the
//! influence-column superposition tier it measured: the optimizer
//! screens every non-uniform candidate with one exact solve.
//!
//! Schema version 9 drops the sequential-reference leg with its four
//! top-level fields (its wall-clock, the engine-over-sequential
//! `speedup`, the peak agreement delta and the best-of-N repeat count):
//! the flow has one way to run, and the factorized-model reuse that
//! speedup stood for is pinned by counter tests in `postplace` instead.
//!
//! Schema version 10 folds the `spectral` section into `solver_scaling`:
//! with the multigrid tier gone, both timed the `Auto` backend (the
//! spectral direct solver) against the CSR + MIC(0) oracle. The merged
//! section covers the union of their meshes (20/40/64/128 smoke, up to
//! 512 full) and records the backend `Auto` routed to per mesh; CI gates
//! that backend and the drift (≤ 1e-6 K) on every mesh, the 40×40×9
//! speedup (≥ 1.5×) always and the 256×256×9 one (≥ 2×) in full mode.
//! `solver_threads` times the threaded spectral pipeline.
//!
//! Schema version 11 adds the `logic_sim` section — the logic simulator
//! on the `scattered_small` paper workload, run as `Flow::new` runs it:
//! the share of cells in active units, the cell-cycles the simulator
//! actually evaluated (a segment of idle units stops running once it
//! settles) and the wall-clock per cell-cycle. CI gates the evaluated
//! share (≤ 0.5), a deterministic count.
//!
//! Schema version 12 adds the `wrapper` section — the hotspot wrapper
//! (HW at 16 % on the paper design at 128×128, the `budget_fine`
//! service's flows) for the four fine workloads: cells evicted, the
//! eviction slot searches run, answered from the row bounds alone and
//! the rows they walked, and the wrap's wall-clock. CI gates the rows
//! walked per search, a deterministic count.
//!
//! Schema version 13 adds to the `wrapper` section the evictions the
//! squeeze fallback placed (`squeezed`, per workload and in all) and
//! `place_ms`, the median `Placer::place` of the paper design at the
//! section's overhead — the placement the wrapped state starts from.
//!
//! Schema version 14 adds to the `service` section the answer codec's
//! cost over the cold answers: the bytes of an answer's render
//! (`doc_bytes`), and the time to render it (`render_us`) and to decode
//! it back (`decode_us`), each the median over the answers.
//!
//! Schema version 15 times the codec on the document the result store
//! keeps for an answer: `render_us` is `render_document` (what a store
//! write pays) and `decode_us` is `decode_document`, the tape read a
//! disk hit pays; `doc_bytes` counts that document.
//!
//! Schema version 16 adds the `paper` section — the paper's claims at
//! paper scale, in smoke and full mode alike: Table I's ERI gain over
//! Default and its widening with overhead, Fig. 6's curves, Fig. 5's
//! power/thermal correlation, §IV's worst timing overhead and the
//! ablations, next to the paper's own numbers. CI gates each claim as
//! one row of the gate's rule table.
//!
//! ```sh
//! cargo bench -p coolplace-bench --bench sweep -- \
//!     --smoke --threads 2 --out BENCH_sweep.json --check ci/bench-baseline.json
//! ```
//!
//! Flags: `--smoke` (reduced grid for CI), `--threads N` (default: all
//! cores), `--out PATH` (default `BENCH_sweep.json`), `--check PATH`
//! (compare against a baseline document and exit non-zero on any result
//! drift or section gate breach). Unknown flags are ignored so the
//! binary survives whatever cargo-bench appends.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use arithgen::build_benchmark;
use coolplace_bench::gate::{check_against_baseline, PEAK_TOLERANCE_C};
use coolserved::json::Json;
use coolserved::wire::response_to_json;
use coolserved::{
    decode_document, render_document, serve, JobRecord, ResultSource, ServiceConfig, ServiceHandle,
};
use geom::{Grid2d, Rect};
use logicsim::{Simulator, Workload};
use placement::PlacerConfig;
use postplace::{
    detect_hotspots, hotspot_wrapper, split_hotspots_by_regions, uniform_slack, wrap_regions, Flow,
    FlowConfig, FlowReport, HotspotConfig, OptimizeConfig, OptimizeRequest, PlacementTransform,
    Scenario, Strategy, SweepGrid, TransformContext, TransformRegistry, TransformState,
    UniformSlackTransform, WorkloadSpec,
};
use thermalsim::{FactorizedThermalModel, SolverKind, ThermalConfig};

/// Bump when a field changes meaning; additions are backwards-compatible.
/// v2: added the `delta` section (delta-vs-exact candidate throughput)
/// and the clustered/checkerboard workloads.
/// v3: added the `solver_scaling` section (structured-vs-CSR per-solve),
/// the large-mesh scenario band (`band` field on records) and the
/// warm-start fields of the `delta` section.
/// v4: added the `optimizer` section (strategy-engine Pareto frontier
/// with screened/exact spend accounting) and the `transform` id on
/// records.
/// v5: added the `service` section (optimization-service cold vs warm
/// batch latency with bit-identity verification); the engine legs moved
/// from the deprecated `run_sweep` facade to the typed request API.
/// v6: added the `solver_threads` section (threaded V-cycle kernels vs
/// their own single-thread run, with mandatory zero bit-drift) and the
/// xlarge scenario band (256×256, 512×512, full mode, engine-only).
/// v7: added the `spectral` section (DCT direct solver vs the multigrid
/// oracle on the homogeneous bench stack, with drift and fitted scaling
/// exponents).
/// v8: removed the `delta` section (the superposition tier it measured
/// is gone).
/// v9: removed the sequential-reference leg and its four top-level
/// fields (wall-clock, `speedup`, peak agreement delta, repeat count).
/// v10: folded the `spectral` section into `solver_scaling` (`Auto` vs
/// CSR over the union of both mesh lists, per-mesh `backend`); the
/// multigrid tier both used to time is gone.
/// v11: added the `logic_sim` section (active-cell share, evaluated
/// cell-cycles and time per cell-cycle of the paper workload's logic
/// simulation).
/// v12: added the `wrapper` section (evictions, slot searches and rows
/// walked per search, and wall-clock of the hotspot wrapper on the four
/// fine-mesh flows).
/// v13: added `squeezed` (evictions placed by the squeeze fallback) and
/// `place_ms` (median `Placer::place` at the section's overhead) to the
/// `wrapper` section.
/// v14: added `doc_bytes`, `render_us` and `decode_us` (the answer
/// codec's cost per cold answer) to the `service` section.
/// v15: the codec keys time the stored document's `render_document` and
/// `decode_document` (the tape read of a disk hit).
/// v16: added the `paper` section (the paper's Table I, Fig. 5, Fig. 6,
/// timing and ablation claims at paper scale, each gated claim one
/// field).
const SCHEMA_VERSION: f64 = 16.0;

/// `cargo bench` launches the binary with the *package* directory as
/// CWD; anchor relative paths at the workspace root so
/// `--out BENCH_sweep.json` lands where CI expects it. Falls back to the
/// path as given if the manifest layout ever stops matching — a wrong
/// relative directory beats a panic mid-emission.
fn from_workspace_root(path: &str) -> PathBuf {
    let path = Path::new(path);
    if path.is_absolute() {
        return path.to_path_buf();
    }
    match Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2) {
        Some(root) => root.join(path),
        None => path.to_path_buf(),
    }
}

struct Args {
    smoke: bool,
    threads: usize,
    out: PathBuf,
    check: Option<PathBuf>,
}

/// The host's hardware threads (1 if it cannot be queried).
fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: hw_threads(),
        out: from_workspace_root("BENCH_sweep.json"),
        check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                    args.threads = n;
                }
            }
            "--out" => {
                if let Some(path) = it.next() {
                    args.out = from_workspace_root(&path);
                }
            }
            "--check" => args.check = it.next().map(|p| from_workspace_root(&p)),
            _ => {} // cargo-bench appends flags of its own; ignore them
        }
    }
    args
}

/// The sweep grid: strategies × row counts × workloads × meshes.
/// Smoke = 2×1×4 = 8 scenarios for CI; full = 4×2×8 = 64 scenarios.
/// The full grid carries all four workload regimes: the paper's two test
/// sets plus a clustered-hotspot profile (wrapper-friendly: the three
/// multipliers lit as one concentrated cluster) and a checkerboard
/// profile (ERI-friendly: every other unit active, wide banded warmth).
fn build_grid(smoke: bool) -> SweepGrid {
    let base = FlowConfig::scattered_small().fast();
    let grid = SweepGrid::new(base)
        .workload("scattered", FlowConfig::scattered_small().workload)
        .workload("concentrated", FlowConfig::concentrated_large().workload);
    if smoke {
        grid.mesh(12, 12)
            .strategy(Strategy::UniformSlack {
                area_overhead: 0.16,
            })
            .strategy(Strategy::HotspotWrapper {
                area_overhead: 0.16,
            })
            .row_counts([4, 8])
    } else {
        grid.workload("clustered", WorkloadSpec::clustered_hotspot())
            .workload("checkerboard", WorkloadSpec::checkerboard())
            .mesh(20, 20)
            .mesh(24, 24)
            .strategy(Strategy::UniformSlack {
                area_overhead: 0.08,
            })
            .strategy(Strategy::UniformSlack {
                area_overhead: 0.16,
            })
            .strategy(Strategy::HotspotWrapper {
                area_overhead: 0.16,
            })
            .row_counts([4, 6, 8, 10, 12])
    }
}

/// The large-mesh scenario band (full mode only): resolutions the
/// CSR + MIC(0) solver made impractically slow, opened up by the
/// spectral direct solver.
fn build_large_grid() -> SweepGrid {
    SweepGrid::new(FlowConfig::scattered_small().fast())
        .workload("scattered", FlowConfig::scattered_small().workload)
        .workload("concentrated", FlowConfig::concentrated_large().workload)
        .meshes([(80, 80), (128, 128)])
        .strategy(Strategy::UniformSlack {
            area_overhead: 0.16,
        })
        .row_counts([8])
}

/// One served scenario: the grid cell, its flow report and its job's
/// wall-clock.
struct EngineResult {
    scenario: Scenario,
    report: FlowReport,
    wall_ms: f64,
}

/// One grid leg of the bench.
struct EngineRun {
    results: Vec<EngineResult>,
    flows_built: u64,
    wall_ms: f64,
}

/// Runs a grid the way an external client does: expand it into typed
/// [`OptimizeRequest`]s, submit them all to a memory-only [`serve`] with
/// `workers` workers and `solver_threads` threads per solve (0 = the
/// service's auto split), and wait on each job in submission order, so
/// the answers zip back onto the grid's scenarios. A failed job fails
/// the leg, naming its scenario.
fn run_engine(
    grid: &SweepGrid,
    workers: usize,
    solver_threads: usize,
) -> Result<EngineRun, String> {
    let requests = grid.requests().map_err(|e| e.to_string())?;
    let config = ServiceConfig::new(grid.base.clone())
        .workers(workers)
        .solver_threads(solver_threads);
    let started = Instant::now();
    let (results, flows_built) = serve(config, |service| {
        let ids: Vec<_> = requests.into_iter().map(|r| service.submit(r)).collect();
        let results = grid
            .scenarios()
            .into_iter()
            .zip(ids)
            .map(|(scenario, id)| {
                let label = scenario.label();
                let record = service
                    .wait(id)
                    .map_err(|e| format!("scenario `{label}` failed: {e}"))?;
                // Every grid scenario is a single-report goal (strategy or
                // transform), so a report-less response is a wiring bug.
                let report = record
                    .response
                    .report()
                    .cloned()
                    .ok_or_else(|| format!("scenario `{label}` returned no report"))?;
                Ok(EngineResult {
                    scenario,
                    report,
                    wall_ms: record.wall_ms,
                })
            })
            .collect::<Result<Vec<_>, String>>();
        (results, service.stats().flows_built)
    });
    Ok(EngineRun {
        results: results?,
        flows_built,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}

/// The xlarge scenario band (full mode only): the 256×256 and 512×512
/// resolutions. One workload, one strategy — at ~600k–2.4M unknowns per
/// solve the point is that the band completes at all, not grid
/// coverage. It is served by a single worker with the thread budget
/// spent *inside* each solve instead of across scenarios: two scenarios
/// offer no batch parallelism worth having, while the threaded spectral
/// stages scale with the mesh.
fn build_xlarge_grid() -> SweepGrid {
    SweepGrid::new(FlowConfig::scattered_small().fast())
        .workload("concentrated", FlowConfig::concentrated_large().workload)
        .meshes([(256, 256), (512, 512)])
        .strategy(Strategy::UniformSlack {
            area_overhead: 0.16,
        })
}

/// The paper-scale die used by the solver benches.
fn bench_die() -> Rect {
    Rect::new(0.0, 0.0, 373.5, 375.3)
}

/// A hotspot-over-warm-background power map — the shape of the paper's
/// test set 2 — at any resolution.
fn bench_power(nx: usize, ny: usize, die: Rect) -> Grid2d<f64> {
    let mut power = Grid2d::new(nx, ny, die, 2e-6);
    for iy in 0..ny {
        for ix in 0..nx {
            let dx = ix as f64 - nx as f64 / 2.0;
            let dy = iy as f64 - ny as f64 / 2.0;
            let spread = (nx * ny) as f64 / 64.0;
            *power.get_mut(ix, iy) += 2.5e-3 * (-(dx * dx + dy * dy) / spread).exp();
        }
    }
    power
}

/// Least-squares slope of `ln(ms)` against `ln(unknowns)` — the measured
/// time-vs-size scaling exponent of a solver (1.0 = linear).
fn scaling_exponent(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(unknowns, ms) in points {
        let (x, y) = (unknowns.ln(), ms.ln());
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
    }
    let denom = n * sxx - sx * sx;
    (denom.abs() > 1e-12).then(|| (n * sxy - sx * sy) / denom)
}

/// Benchmarks one solver backend at one mesh: build time plus the mean
/// of `solves` timed re-solves (after one untimed warm-up), with the
/// iteration count, the solved field for cross-checking, and the name
/// of the backend the model actually routed to.
fn time_backend(
    nx: usize,
    solver: SolverKind,
    solves: usize,
) -> Result<(f64, f64, usize, thermalsim::ThermalMap, &'static str), String> {
    let die = bench_die();
    let config = ThermalConfig::with_resolution(nx, nx).with_solver(solver);
    let power = bench_power(nx, nx, die);
    let build_started = Instant::now();
    let model = FactorizedThermalModel::build(&config, die).map_err(|e| e.to_string())?;
    let build_ms = build_started.elapsed().as_secs_f64() * 1e3;
    let (map, mut stats) = model.solve_with_stats(&power).map_err(|e| e.to_string())?;
    let solve_started = Instant::now();
    for _ in 0..solves {
        let (_, s) = model.solve_with_stats(&power).map_err(|e| e.to_string())?;
        stats = s;
    }
    let solve_ms = solve_started.elapsed().as_secs_f64() * 1e3 / solves.max(1) as f64;
    Ok((
        build_ms,
        solve_ms,
        stats.iterations,
        map,
        model.solver_name(),
    ))
}

/// The solver-scaling section: the `Auto` backend (the spectral direct
/// tier on the homogeneous bench stack) versus the CSR + MIC(0) oracle,
/// per mesh — the backend `Auto` routed to, per-solve latency
/// (within-run ratio, machine-independent), iteration counts (one for a
/// direct solve, growing for MIC), worst field drift between the two,
/// and the fitted time-vs-unknowns scaling exponents.
fn run_solver_scaling(meshes: &[usize]) -> Result<Json, String> {
    let mut entries = Vec::new();
    let mut auto_points = Vec::new();
    let mut csr_points = Vec::new();
    for &nx in meshes {
        let solves = if nx <= 40 {
            5
        } else if nx <= 80 {
            3
        } else {
            2
        };
        let (a_build, a_solve, a_iters, a_map, backend) =
            time_backend(nx, SolverKind::Auto, solves)?;
        let (c_build, c_solve, c_iters, c_map, _) = time_backend(nx, SolverKind::Csr, solves)?;
        let mut drift_k: f64 = 0.0;
        for ((_, a), (_, b)) in a_map.grid().iter().zip(c_map.grid().iter()) {
            drift_k = drift_k.max((a - b).abs());
        }
        let unknowns = (nx * nx * 9 + 1) as f64;
        auto_points.push((unknowns, a_solve));
        csr_points.push((unknowns, c_solve));
        let speedup = c_solve / a_solve;
        println!(
            "solver scaling [{nx}x{nx}x9]: {backend} {a_solve:.2} ms/{a_iters} its \
             (build {a_build:.0} ms), csr {c_solve:.2} ms/{c_iters} its \
             (build {c_build:.0} ms) → {speedup:.1}×, drift {drift_k:.1e} K"
        );
        entries.push(Json::obj([
            (
                "mesh",
                Json::Arr(vec![Json::Num(nx as f64), Json::Num(nx as f64)]),
            ),
            ("unknowns", Json::Num(unknowns)),
            ("timed_solves", Json::Num(solves as f64)),
            ("backend", Json::Str(backend.to_string())),
            ("auto_build_ms", Json::Num(a_build)),
            ("auto_solve_ms", Json::Num(a_solve)),
            ("auto_iterations", Json::Num(a_iters as f64)),
            ("csr_build_ms", Json::Num(c_build)),
            ("csr_solve_ms", Json::Num(c_solve)),
            ("csr_iterations", Json::Num(c_iters as f64)),
            ("speedup_vs_csr", Json::Num(speedup)),
            ("max_drift_k", Json::Num(drift_k)),
        ]));
    }
    Ok(Json::obj([
        ("meshes", Json::Arr(entries)),
        (
            "scaling_exponent_auto",
            scaling_exponent(&auto_points).map_or(Json::Null, Json::Num),
        ),
        (
            "scaling_exponent_csr",
            scaling_exponent(&csr_points).map_or(Json::Null, Json::Num),
        ),
    ]))
}

/// Benchmarks the `Auto` backend at one mesh and thread count: build,
/// one untimed warm-up solve, then the mean of `solves` timed re-solves,
/// plus the solved field for the bit-drift check.
fn time_threaded(
    nx: usize,
    threads: usize,
    solves: usize,
) -> Result<(f64, usize, thermalsim::ThermalMap), String> {
    let die = bench_die();
    let config = ThermalConfig::with_resolution(nx, nx).with_threads(threads);
    let power = bench_power(nx, nx, die);
    let model = FactorizedThermalModel::build(&config, die).map_err(|e| e.to_string())?;
    let (map, mut stats) = model.solve_with_stats(&power).map_err(|e| e.to_string())?;
    let started = Instant::now();
    for _ in 0..solves {
        let (_, s) = model.solve_with_stats(&power).map_err(|e| e.to_string())?;
        stats = s;
    }
    let solve_ms = started.elapsed().as_secs_f64() * 1e3 / solves.max(1) as f64;
    Ok((solve_ms, stats.iterations, map))
}

/// The `solver_threads` section (schema ≥ 6): the threaded spectral
/// pipeline against its own single-thread run, at the meshes
/// the parallel band targets. The speedup is within-run (machine speed
/// cancels out) and only meaningful on multi-core hardware, so the
/// document records `hw_threads` and the gate conditions its floor on
/// it. The bit-drift is unconditional: the chunked-tree reductions make
/// every thread count produce the *same bits*, which the content-keyed
/// result caches assume — any nonzero drift fails CI on any machine.
fn run_solver_threads(threads: usize, smoke: bool) -> Result<Json, String> {
    let hw_threads = hw_threads();
    // Even a `--threads 1` run must exercise the threaded path.
    let threads = threads.max(2);
    let meshes: &[usize] = if smoke { &[64, 128] } else { &[128, 256] };
    let mut entries = Vec::new();
    for &nx in meshes {
        let solves = if nx <= 128 { 3 } else { 2 };
        let (t1_ms, t1_iters, t1_map) = time_threaded(nx, 1, solves)?;
        let (tn_ms, tn_iters, tn_map) = time_threaded(nx, threads, solves)?;
        let mut drift_k: f64 = 0.0;
        for ((_, a), (_, b)) in t1_map.grid().iter().zip(tn_map.grid().iter()) {
            drift_k = drift_k.max((a - b).abs());
        }
        let speedup = t1_ms / tn_ms;
        println!(
            "solver threads [{nx}x{nx}x9]: 1 thread {t1_ms:.2} ms/{t1_iters} its, \
             {threads} threads {tn_ms:.2} ms/{tn_iters} its → {speedup:.2}× \
             (drift {drift_k:.1e} K, {hw_threads} hw threads)"
        );
        entries.push(Json::obj([
            (
                "mesh",
                Json::Arr(vec![Json::Num(nx as f64), Json::Num(nx as f64)]),
            ),
            ("unknowns", Json::Num((nx * nx * 9 + 1) as f64)),
            ("timed_solves", Json::Num(solves as f64)),
            ("t1_solve_ms", Json::Num(t1_ms)),
            ("t1_iterations", Json::Num(t1_iters as f64)),
            ("tn_solve_ms", Json::Num(tn_ms)),
            ("tn_iterations", Json::Num(tn_iters as f64)),
            ("speedup", Json::Num(speedup)),
            ("max_drift_k", Json::Num(drift_k)),
        ]));
    }
    Ok(Json::obj([
        ("hw_threads", Json::Num(hw_threads as f64)),
        ("threads", Json::Num(threads as f64)),
        ("meshes", Json::Arr(entries)),
    ]))
}

/// Budget grid of the optimizer bench — fine enough that the frontier
/// interleaves several technique families.
const OPTIMIZER_BUDGETS: [f64; 8] = [0.04, 0.08, 0.12, 0.16, 0.20, 0.25, 0.30, 0.35];

/// The `optimizer` section: the strategy engine's Pareto frontier on the
/// clustered-hotspot workload (the regime where every technique family
/// is in play). Hundreds of registry × budget candidates go through the
/// power-delta screening surrogate; only the surrogate-Pareto-optimal points
/// pay an exact run, and CI gates that split.
fn run_optimizer_bench() -> Result<Json, String> {
    let config = FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()).fast();
    let flow = Flow::new(config).map_err(|e| e.to_string())?;
    let registry = TransformRegistry::standard();
    let request = OptimizeRequest::builder()
        .for_flow(&flow)
        .frontier(OPTIMIZER_BUDGETS)
        .tag("clustered")
        .build()
        .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let response = flow
        .optimize_with(&request, &registry, &OptimizeConfig::default())
        .map_err(|e| e.to_string())?;
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let frontier = response
        .frontier()
        .ok_or_else(|| "frontier request produced a non-frontier outcome".to_string())?;
    let kinds: std::collections::HashSet<&str> =
        frontier.points.iter().map(|p| p.kind.as_str()).collect();
    println!(
        "optimizer bench [clustered]: {} screened, {} exact ({:.0}%), \
         {} frontier points over {} kinds in {wall_ms:.0} ms",
        frontier.screened,
        frontier.exact_runs,
        frontier.exact_share() * 100.0,
        frontier.points.len(),
        kinds.len(),
    );
    let points: Vec<Json> = frontier
        .points
        .iter()
        .map(|p| {
            Json::obj([
                ("transform", Json::Str(p.transform_id.clone())),
                ("kind", Json::Str(p.kind.clone())),
                ("budget", Json::Num(p.budget)),
                ("area_overhead_pct", Json::Num(p.report.area_overhead_pct)),
                ("reduction_pct", Json::Num(p.report.reduction_pct())),
                (
                    "estimated_reduction_pct",
                    Json::Num(p.estimated_reduction_pct),
                ),
                ("peak_after_c", Json::Num(p.report.after.peak_c)),
            ])
        })
        .collect();
    Ok(Json::obj([
        ("workload", Json::Str("clustered".to_string())),
        (
            "budgets",
            Json::Arr(OPTIMIZER_BUDGETS.iter().map(|&b| Json::Num(b)).collect()),
        ),
        ("registry_kinds", Json::Num(registry.len() as f64)),
        ("candidates", Json::Num(frontier.candidates as f64)),
        ("screened", Json::Num(frontier.screened as f64)),
        ("exact_runs", Json::Num(frontier.exact_runs as f64)),
        ("skipped", Json::Num(frontier.skipped as f64)),
        ("exact_share", Json::Num(frontier.exact_share())),
        ("frontier_kinds", Json::Num(kinds.len() as f64)),
        ("wall_ms", Json::Num(wall_ms)),
        ("frontier", Json::Arr(points)),
    ]))
}

/// Warm passes of the service bench: enough resubmissions of the same
/// batch that the per-request warm cost is dominated by cache lookups
/// rather than timer noise.
const SERVICE_WARM_PASSES: usize = 4;

/// Timed repeats of each answer's render and decode; the median of each
/// is kept.
const CODEC_REPEATS: usize = 15;

/// The answer codec on `records`: per answer, the bytes of the document
/// the result store keeps for it and the median time to render it
/// (`render_document`, what a store write pays) and to decode it
/// (`decode_document`, what a disk hit pays). Returns
/// `[doc_bytes, render_us, decode_us]`, each the median over the
/// answers; an answer that does not decode back to its own bytes fails
/// the bench.
fn codec_costs(records: &[JobRecord]) -> Result<[f64; 3], String> {
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let time_us = |f: &mut dyn FnMut()| {
        let started = Instant::now();
        f();
        started.elapsed().as_secs_f64() * 1e6
    };
    let (mut bytes, mut render_us, mut decode_us) = (Vec::new(), Vec::new(), Vec::new());
    for record in records {
        let text = render_document(&record.response);
        let renders = (0..CODEC_REPEATS)
            .map(|_| time_us(&mut || drop(render_document(&record.response))))
            .collect();
        let decode = || decode_document(&text);
        let decoded = decode()?;
        if render_document(&decoded) != text {
            return Err(format!(
                "answer for `{}` does not decode back to its own bytes",
                record.request.label()
            ));
        }
        let decodes = (0..CODEC_REPEATS)
            .map(|_| time_us(&mut || drop(decode())))
            .collect();
        bytes.push(text.len() as f64);
        render_us.push(median(renders));
        decode_us.push(median(decodes));
    }
    Ok([median(bytes), median(render_us), median(decode_us)])
}

/// A tagged goal of the service-bench batch: a label plus the builder
/// step that sets the goal.
type ServiceGoal = (
    &'static str,
    fn(postplace::OptimizeRequestBuilder) -> postplace::OptimizeRequestBuilder,
);

/// The mixed batch the service bench submits: one request per goal
/// family, all on the clustered-hotspot workload.
fn service_requests() -> Result<Vec<OptimizeRequest>, String> {
    let goals: [ServiceGoal; 6] = [
        ("uniform +8%", |b| {
            b.strategy(Strategy::UniformSlack {
                area_overhead: 0.08,
            })
        }),
        ("uniform +16%", |b| {
            b.strategy(Strategy::UniformSlack {
                area_overhead: 0.16,
            })
        }),
        ("eri 6 rows", |b| {
            b.strategy(Strategy::EmptyRowInsertion { rows: 6 })
        }),
        ("wrapper +16%", |b| {
            b.strategy(Strategy::HotspotWrapper {
                area_overhead: 0.16,
            })
        }),
        ("budget +16%", |b| b.budget(0.16)),
        ("rows for -5%", |b| b.rows_for_target(5.0, 8)),
    ];
    goals
        .iter()
        .map(|(tag, goal)| {
            goal(
                OptimizeRequest::builder()
                    .workload(WorkloadSpec::clustered_hotspot())
                    .mesh(16, 16),
            )
            .tag(*tag)
            .build()
            .map_err(|e| e.to_string())
        })
        .collect()
}

/// The `service` section: the optimization service (job queue + worker
/// pool + keyed result cache) answering the mixed batch cold, then
/// [`SERVICE_WARM_PASSES`] more times from cache. The warm-over-cold
/// per-request ratio is a within-run quantity — machine speed cancels
/// out — and every warm answer is verified bit-identical to its cold
/// solve before anything is emitted.
fn run_service_bench(threads: usize) -> Result<Json, String> {
    let base = FlowConfig::with_workload(WorkloadSpec::clustered_hotspot()).fast();
    let requests = service_requests()?;
    // More workers than distinct flows buys nothing here (one resolved
    // config); a small pool keeps the cold pass representative.
    let workers = threads.clamp(1, 4);
    let config = ServiceConfig::new(base).workers(workers).cache_capacity(64);
    serve(config, |service| {
        let run_batch = |service: &ServiceHandle<'_>| -> Result<Vec<JobRecord>, String> {
            let ids: Vec<_> = requests.iter().map(|r| service.submit(r.clone())).collect();
            ids.into_iter()
                .map(|id| service.wait(id).map_err(|e| e.to_string()))
                .collect()
        };

        let cold_started = Instant::now();
        let cold = run_batch(service)?;
        let cold_wall_ms = cold_started.elapsed().as_secs_f64() * 1e3;
        let [doc_bytes, render_us, decode_us] = codec_costs(&cold)?;
        let by_key: HashMap<postplace::CacheKey, String> = cold
            .iter()
            .map(|r| (r.key, response_to_json(&r.response).render()))
            .collect();

        let warm_started = Instant::now();
        let mut warm = Vec::with_capacity(requests.len() * SERVICE_WARM_PASSES);
        for _ in 0..SERVICE_WARM_PASSES {
            warm.extend(run_batch(service)?);
        }
        let warm_wall_ms = warm_started.elapsed().as_secs_f64() * 1e3;

        // Warm answers must be the cold solves, bit for bit — a cache
        // that answers fast but differently measures nothing.
        let mut warm_cold_solves = 0usize;
        for record in &warm {
            if record.source == ResultSource::ColdSolve {
                warm_cold_solves += 1;
            }
            if by_key.get(&record.key).map(String::as_str)
                != Some(response_to_json(&record.response).render().as_str())
            {
                return Err(format!(
                    "warm answer for `{}` drifted from its cold solve",
                    record.request.label()
                ));
            }
        }

        let cold_ms_per_req = cold_wall_ms / requests.len() as f64;
        let warm_ms_per_req = warm_wall_ms / warm.len() as f64;
        // Sub-microsecond warm passes would make the ratio noise; the
        // clamp only matters on hardware faster than the cache itself.
        let warm_over_cold = cold_ms_per_req / warm_ms_per_req.max(1e-4);
        let stats = service.stats();
        println!(
            "service bench [clustered]: cold {cold_ms_per_req:.1} ms/req, \
             warm {warm_ms_per_req:.3} ms/req over {SERVICE_WARM_PASSES} passes \
             → {warm_over_cold:.0}× ({} cold solves, {} memory hits, {} flows); \
             answer codec: {doc_bytes} B, render {render_us:.1} µs, decode {decode_us:.1} µs",
            stats.cold_solves, stats.store.memory.hits, stats.flows_built
        );
        Ok(Json::obj([
            ("requests", Json::Num(requests.len() as f64)),
            ("warm_passes", Json::Num(SERVICE_WARM_PASSES as f64)),
            ("workers", Json::Num(workers as f64)),
            ("cold_wall_ms", Json::Num(cold_wall_ms)),
            ("warm_wall_ms", Json::Num(warm_wall_ms)),
            ("cold_ms_per_req", Json::Num(cold_ms_per_req)),
            ("warm_ms_per_req", Json::Num(warm_ms_per_req)),
            ("warm_over_cold", Json::Num(warm_over_cold)),
            ("warm_cold_solves", Json::Num(warm_cold_solves as f64)),
            ("cold_solves", Json::Num(stats.cold_solves as f64)),
            ("memory_hits", Json::Num(stats.store.memory.hits as f64)),
            ("flows_built", Json::Num(stats.flows_built as f64)),
            ("doc_bytes", Json::Num(doc_bytes)),
            ("render_us", Json::Num(render_us)),
            ("decode_us", Json::Num(decode_us)),
        ]))
    })
}

/// Timed repeats of the logic simulation; the fastest is reported.
const LOGIC_SIM_REPEATS: usize = 5;

/// The `logic_sim` section: the `scattered_small` paper workload
/// simulated as [`Flow::new`] simulates it (warm-up, reset, measured
/// cycles), [`LOGIC_SIM_REPEATS`] times. Reports the share of cells in
/// active units, the share of cell-cycles the simulator evaluated, and
/// the best wall-clock (compile included) per cell-cycle. The evaluated
/// count is deterministic, so a netlist change that silently merges
/// units into one segment shows up as an exact number.
fn run_logic_sim_bench() -> Result<Json, String> {
    let config = FlowConfig::scattered_small();
    let netlist = build_benchmark(&config.benchmark).map_err(|e| e.to_string())?;
    let active: Vec<_> = config.workload.active.iter().map(|r| r.unit_id()).collect();
    let workload =
        Workload::with_active_units(&netlist, &active, config.workload.toggle_probability);
    let cells = netlist.cell_count();
    let active_cells: usize = active.iter().map(|&u| netlist.unit_cells(u).len()).sum();
    let cycles = config.warmup_cycles + config.cycles;
    let cell_cycles = (cells * cycles) as f64;
    let (mut best_ms, mut evaluated, mut segments) = (f64::INFINITY, 0, 0);
    for _ in 0..LOGIC_SIM_REPEATS {
        let started = Instant::now();
        let mut sim = Simulator::new(&netlist);
        sim.run_workload(&workload, config.warmup_cycles, config.seed);
        let warmup = sim.evaluated_cells();
        sim.reset_activity();
        sim.run_workload(&workload, config.cycles, config.seed.wrapping_add(1));
        best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
        evaluated = warmup + sim.evaluated_cells();
        segments = sim.segment_count();
    }
    let active_share = active_cells as f64 / cells as f64;
    let evaluated_share = evaluated as f64 / cell_cycles;
    let ns_per_cell_cycle = best_ms * 1e6 / cell_cycles;
    println!(
        "logic sim bench [scattered_small]: {segments} segments, active share \
         {active_share:.3}, evaluated share {evaluated_share:.3}, {best_ms:.2} ms \
         ({ns_per_cell_cycle:.2} ns per cell-cycle)"
    );
    Ok(Json::obj([
        ("workload", Json::Str("scattered_small".to_string())),
        ("cells", Json::Num(cells as f64)),
        ("segments", Json::Num(segments as f64)),
        ("cycles", Json::Num(cycles as f64)),
        ("active_cell_share", Json::Num(active_share)),
        ("cell_cycles", Json::Num(cell_cycles)),
        ("evaluated_cell_cycles", Json::Num(evaluated as f64)),
        ("evaluated_share", Json::Num(evaluated_share)),
        ("sim_ms", Json::Num(best_ms)),
        ("ns_per_cell_cycle", Json::Num(ns_per_cell_cycle)),
    ]))
}

/// The `wrapper` section's mesh: the `budget_fine` service's flows.
const WRAPPER_MESH: usize = 128;

/// The area overhead HW spends before wrapping in the `wrapper` section.
const WRAPPER_OVERHEAD: f64 = 0.16;

/// Timed repeats of each wrap; the fastest is reported.
const WRAPPER_REPEATS: usize = 3;

/// Timed runs of the section's `Placer::place` per workload; the median
/// of all is reported.
const PLACE_REPEATS: usize = 9;

/// The `wrapper` section: HW at [`WRAPPER_OVERHEAD`] on the paper design
/// at [`WRAPPER_MESH`]² for the four fine workloads, its wrap stage
/// replayed by hand to read the report. Reports per workload and in all
/// the cells evicted and those the squeeze fallback placed, the eviction
/// slot searches run, those the row bounds answered without a scan, the
/// rows the searches walked, and the best wall-clock of the wrap; and
/// the median wall-clock of the `Placer::place` behind the uniform
/// stage. The counts are deterministic.
fn run_wrapper_bench() -> Result<Json, String> {
    let workloads = [
        ("scattered_small", FlowConfig::scattered_small().workload),
        (
            "concentrated_large",
            FlowConfig::concentrated_large().workload,
        ),
        ("clustered_hotspot", WorkloadSpec::clustered_hotspot()),
        ("checkerboard", WorkloadSpec::checkerboard()),
    ];
    let err = |e: postplace::FlowError| e.to_string();
    let mut entries = Vec::new();
    let (mut searches, mut rows_scanned, mut squeezed, mut wrap_ms) = (0u64, 0u64, 0usize, 0.0);
    let mut place_ms = Vec::new();
    for (name, workload) in workloads {
        let mut config = FlowConfig::scattered_small();
        config.workload = workload;
        config.thermal.grid = thermalsim::GridSpec {
            nx: WRAPPER_MESH,
            ny: WRAPPER_MESH,
        };
        let flow = Flow::new(config).map_err(err)?;
        let ctx = TransformContext::new(&flow).map_err(err)?;
        let placer = PlacerConfig::with_utilization(flow.config().base_utilization);
        for _ in 0..PLACE_REPEATS {
            let started = Instant::now();
            uniform_slack(flow.netlist(), &placer, WRAPPER_OVERHEAD).map_err(err)?;
            place_ms.push(started.elapsed().as_secs_f64() * 1e3);
        }
        let base = flow.base_placement();
        let (_, tmap) = flow.baseline_maps().map_err(err)?;
        let hotspots = flow.baseline_hotspots().map_err(err)?;
        let mut relaxed = UniformSlackTransform {
            area_overhead: WRAPPER_OVERHEAD,
        }
        .apply(
            &ctx,
            &mut TransformState::with_thermal(
                base.floorplan.clone(),
                base.placement.clone(),
                base.regions.clone(),
                tmap.into(),
                hotspots.clone(),
            ),
        )
        .map_err(err)?;
        relaxed.ensure_thermal(&ctx).map_err(err)?;
        let tmap = relaxed.thermal_map().map_err(err)?;
        let wrapper = flow.config().wrapper;
        let hotspot_cfg = HotspotConfig {
            threshold_fraction: wrapper.threshold_fraction,
            ..flow.config().hotspot
        }
        .scaled_for_mesh(WRAPPER_MESH, WRAPPER_MESH);
        let blobs = detect_hotspots(tmap, &hotspot_cfg);
        let spots = split_hotspots_by_regions(tmap, &blobs, &relaxed.regions, hotspot_cfg.min_bins);
        let regions = wrap_regions(&spots, &relaxed.floorplan, &wrapper);
        let mut best_ms = f64::INFINITY;
        let mut report = None;
        for _ in 0..WRAPPER_REPEATS {
            let mut placement = relaxed.placement.clone();
            let started = Instant::now();
            let done = hotspot_wrapper(
                flow.netlist(),
                &relaxed.floorplan,
                &mut placement,
                &regions,
                ctx.power_report(),
                &wrapper,
            )
            .map_err(err)?;
            best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1e3);
            report = Some(done);
        }
        let report = report.ok_or("no wrap ran")?;
        let stats = report.searches;
        searches += stats.searches;
        rows_scanned += stats.rows_scanned;
        squeezed += report.squeezed;
        wrap_ms += best_ms;
        println!(
            "wrapper bench [{name}]: {} evicted ({} squeezed), {} searches ({} skipped), \
             {:.2} rows per search, {best_ms:.2} ms",
            report.evicted,
            report.squeezed,
            stats.searches,
            stats.skipped,
            stats.rows_scanned as f64 / stats.searches.max(1) as f64
        );
        entries.push(Json::obj([
            ("workload", Json::Str(name.to_string())),
            ("regions", Json::Num(report.regions.len() as f64)),
            ("evicted", Json::Num(report.evicted as f64)),
            ("squeezed", Json::Num(report.squeezed as f64)),
            ("respread", Json::Num(report.respread as f64)),
            ("searches", Json::Num(stats.searches as f64)),
            ("searches_skipped", Json::Num(stats.skipped as f64)),
            ("rows_scanned", Json::Num(stats.rows_scanned as f64)),
            ("wrap_ms", Json::Num(best_ms)),
        ]));
    }
    place_ms.sort_by(f64::total_cmp);
    let place_ms = place_ms[place_ms.len() / 2];
    println!("wrapper bench: Placer::place at +{WRAPPER_OVERHEAD}: {place_ms:.2} ms (median)");
    Ok(Json::obj([
        (
            "mesh",
            Json::Arr(vec![
                Json::Num(WRAPPER_MESH as f64),
                Json::Num(WRAPPER_MESH as f64),
            ]),
        ),
        ("area_overhead", Json::Num(WRAPPER_OVERHEAD)),
        ("place_ms", Json::Num(place_ms)),
        ("squeezed", Json::Num(squeezed as f64)),
        ("searches", Json::Num(searches as f64)),
        ("rows_scanned", Json::Num(rows_scanned as f64)),
        (
            "rows_scanned_per_search",
            Json::Num(rows_scanned as f64 / searches.max(1) as f64),
        ),
        ("wrap_ms", Json::Num(wrap_ms)),
        ("workloads", Json::Arr(entries)),
    ]))
}

/// The paper's Fig. 6 (test set 1), read off the published plot:
/// `(area_overhead_pct, default, eri, hw)` reductions in percent.
const FIG6_PAPER: [(f64, f64, f64, f64); 5] = [
    (8.0, 6.0, 7.0, 6.5),
    (16.0, 11.3, 13.1, 12.0),
    (24.0, 15.5, 17.5, 16.5),
    (32.0, 20.2, 22.5, 21.0),
    (40.0, 24.0, 27.0, 25.0),
];

/// The paper's Table I (test set 2):
/// `(area_overhead_pct, rows on its 124-row die, default, eri)`.
const TABLE1_PAPER: [(f64, usize, f64, f64); 2] = [(16.1, 20, 11.3, 13.1), (32.2, 40, 20.2, 28.6)];

/// Overheads (percent) of the §IV timing check on both test sets; Table I
/// reads the concentrated runs at its two.
const TIMING_OVERHEADS_PCT: [f64; 4] = [8.0, 16.1, 24.0, 32.2];

/// The overhead (percent) of the ablations.
const ABLATION_OVERHEAD_PCT: f64 = 16.0;

/// Default, ERI and HW at one matched overhead.
struct Triple {
    overhead_pct: f64,
    default: FlowReport,
    eri: FlowReport,
    hw: FlowReport,
}

/// ERI's row count at `overhead`: that share of the base rows, at least
/// one.
fn eri_rows(flow: &Flow, overhead: f64) -> usize {
    let rows = flow.base_placement().floorplan.num_rows() as f64;
    ((overhead * rows).round() as usize).max(1)
}

fn run_triple(flow: &Flow, overhead_pct: f64) -> Result<Triple, postplace::FlowError> {
    let area_overhead = overhead_pct / 100.0;
    Ok(Triple {
        overhead_pct,
        default: flow.run(Strategy::UniformSlack { area_overhead })?,
        eri: flow.run(Strategy::EmptyRowInsertion {
            rows: eri_rows(flow, area_overhead),
        })?,
        hw: flow.run(Strategy::HotspotWrapper { area_overhead })?,
    })
}

/// Runs `f` on `shared` when `config` is its configuration, else on a
/// flow built for `config`.
fn on_flow<T>(
    shared: &Flow,
    config: FlowConfig,
    f: impl FnOnce(&Flow) -> Result<T, postplace::FlowError>,
) -> Result<T, postplace::FlowError> {
    if *shared.config() == config {
        f(shared)
    } else {
        f(&Flow::new(config)?)
    }
}

/// Pearson's correlation coefficient of two equally long samples.
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len() as f64;
    let (ma, mb) = (a.iter().sum::<f64>() / n, b.iter().sum::<f64>() / n);
    let cov: f64 = a.iter().zip(b).map(|(x, y)| (x - ma) * (y - mb)).sum();
    let va: f64 = a.iter().map(|x| (x - ma).powi(2)).sum();
    let vb: f64 = b.iter().map(|y| (y - mb).powi(2)).sum();
    cov / (va.sqrt() * vb.sqrt())
}

fn min_of(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::INFINITY, f64::min)
}

/// The `paper` section: the paper's claims on its two test sets at paper
/// scale (11.4 k cells, 40×40×9), with one shared flow per test set; only
/// the ablations that change the flow's configuration (ring width, mesh,
/// leakage feedback) build flows of their own. Each gated claim is one
/// field, next to the readings it is taken from and the paper's numbers,
/// which nothing compares against:
///
/// * Table I: the least ERI − Default gain over its two overheads, and
///   how much the gain widens from the first to the second;
/// * Fig. 6: the least ERI − Default and HW − Default gains over its five
///   overheads, and the least rise of any curve from one overhead to the
///   next;
/// * Fig. 5: Pearson's r between the baseline power and thermal maps;
/// * §IV: the worst timing overhead of ERI and HW on both test sets;
/// * ABL-1: hotspot-driven ERI against as many evenly spread rows;
/// * ABL-3: the spread of ERI across thermal meshes.
///
/// ABL-2 (wrapper ring width) and ABL-4 (leakage feedback) are reported
/// ungated.
fn run_paper_bench() -> Result<Json, String> {
    let err = |e: postplace::FlowError| e.to_string();
    let started = Instant::now();
    let scattered = Flow::new(FlowConfig::scattered_small()).map_err(err)?;
    let concentrated = Flow::new(FlowConfig::concentrated_large()).map_err(err)?;
    let triples = |flow: &Flow, overheads: &[f64]| {
        overheads
            .iter()
            .map(|&pct| run_triple(flow, pct))
            .collect::<Result<Vec<_>, _>>()
            .map_err(err)
    };
    let reductions = |t: &Triple| [&t.default, &t.eri, &t.hw].map(|r| r.reduction_pct());

    let fig6 = triples(&scattered, &FIG6_PAPER.map(|p| p.0))?;
    let fig6_min_eri_gain = min_of(
        fig6.iter()
            .map(|t| t.eri.reduction_pct() - t.default.reduction_pct()),
    );
    let fig6_min_hw_gain = min_of(
        fig6.iter()
            .map(|t| t.hw.reduction_pct() - t.default.reduction_pct()),
    );
    let fig6_min_rise = min_of(fig6.windows(2).flat_map(|w| {
        let (lo, hi) = (reductions(&w[0]), reductions(&w[1]));
        [0, 1, 2].map(|i| hi[i] - lo[i])
    }));
    let fig6_rows = fig6
        .iter()
        .zip(FIG6_PAPER)
        .map(|(t, (_, p_def, p_eri, p_hw))| {
            let [def, eri, hw] = reductions(t);
            Json::obj([
                ("area_overhead_pct", Json::Num(t.overhead_pct)),
                ("default_pct", Json::Num(def)),
                ("eri_pct", Json::Num(eri)),
                ("hw_pct", Json::Num(hw)),
                ("paper_default_pct", Json::Num(p_def)),
                ("paper_eri_pct", Json::Num(p_eri)),
                ("paper_hw_pct", Json::Num(p_hw)),
            ])
        })
        .collect();

    let timing_scattered = triples(&scattered, &TIMING_OVERHEADS_PCT)?;
    let timing_concentrated = triples(&concentrated, &TIMING_OVERHEADS_PCT)?;
    let mut timing_max = f64::NEG_INFINITY;
    let mut timing_rows = Vec::new();
    for (name, runs) in [
        ("scattered", &timing_scattered),
        ("concentrated", &timing_concentrated),
    ] {
        for t in runs {
            timing_max = timing_max
                .max(t.eri.timing_overhead_pct())
                .max(t.hw.timing_overhead_pct());
            timing_rows.push(Json::obj([
                ("workload", Json::Str(name.to_string())),
                ("area_overhead_pct", Json::Num(t.overhead_pct)),
                ("default_pct", Json::Num(t.default.timing_overhead_pct())),
                ("eri_pct", Json::Num(t.eri.timing_overhead_pct())),
                ("hw_pct", Json::Num(t.hw.timing_overhead_pct())),
            ]));
        }
    }

    let mut table1_gains = Vec::new();
    let mut table1_rows = Vec::new();
    for (pct, paper_rows, p_def, p_eri) in TABLE1_PAPER {
        let t = timing_concentrated
            .iter()
            .find(|t| t.overhead_pct == pct)
            .ok_or("Table I overhead missing from the timing runs")?;
        table1_gains.push(t.eri.reduction_pct() - t.default.reduction_pct());
        table1_rows.push(Json::obj([
            ("area_overhead_pct", Json::Num(pct)),
            (
                "rows",
                Json::Num(eri_rows(&concentrated, pct / 100.0) as f64),
            ),
            ("default_pct", Json::Num(t.default.reduction_pct())),
            ("eri_pct", Json::Num(t.eri.reduction_pct())),
            ("paper_rows", Json::Num(paper_rows as f64)),
            ("paper_default_pct", Json::Num(p_def)),
            ("paper_eri_pct", Json::Num(p_eri)),
        ]));
    }

    let (power, thermal) = scattered.baseline_maps().map_err(err)?;
    let pearson_r = pearson(power.values(), thermal.grid().values());

    // ABL-1: as many evenly spread rows as ERI inserts at the overhead.
    let overhead = ABLATION_OVERHEAD_PCT / 100.0;
    let rows = eri_rows(&scattered, overhead);
    let eri = scattered
        .run(Strategy::EmptyRowInsertion { rows })
        .map_err(err)?
        .reduction_pct();
    let base = scattered.base_placement();
    let rows0 = base.floorplan.num_rows();
    let positions: Vec<usize> = (0..rows).map(|k| (k + 1) * rows0 / (rows + 1)).collect();
    let (floorplan, mapping) = base.floorplan.with_rows_inserted(&positions);
    let placement = base.placement.remap_rows(&floorplan, &mapping);
    let (_, _, blind_map) = scattered
        .analyze_placement(&floorplan, &placement)
        .map_err(err)?;
    let blind = thermal.reduction_to(&blind_map);

    let mut rings = Vec::new();
    for ring_rows in [1.0, 2.0, 3.0, 4.5, 6.0] {
        let mut config = FlowConfig::scattered_small();
        config.wrapper.ring_rows = ring_rows;
        let hw = on_flow(&scattered, config, |flow| {
            flow.run(Strategy::HotspotWrapper {
                area_overhead: overhead,
            })
        })
        .map_err(err)?;
        rings.push(Json::obj([
            ("ring_rows", Json::Num(ring_rows)),
            ("hw_pct", Json::Num(hw.reduction_pct())),
            ("timing_pct", Json::Num(hw.timing_overhead_pct())),
        ]));
    }

    let mut mesh_eri = Vec::new();
    let mut meshes = Vec::new();
    for n in [20, 40, 60] {
        let mut config = FlowConfig::scattered_small();
        config.thermal = ThermalConfig::with_resolution(n, n);
        let eri = on_flow(&scattered, config, |flow| {
            flow.run(Strategy::EmptyRowInsertion {
                rows: eri_rows(flow, overhead),
            })
        })
        .map_err(err)?
        .reduction_pct();
        mesh_eri.push(eri);
        meshes.push(Json::obj([
            (
                "mesh",
                Json::Arr(vec![Json::Num(n as f64), Json::Num(n as f64)]),
            ),
            ("eri_pct", Json::Num(eri)),
        ]));
    }
    let spread = mesh_eri.iter().copied().fold(f64::NEG_INFINITY, f64::max) - min_of(mesh_eri);

    let mut feedback = Vec::new();
    for iters in [0, 1, 3] {
        let mut config = FlowConfig::scattered_small();
        config.leakage_feedback_iters = iters;
        let (_, map) = on_flow(&scattered, config, Flow::baseline_maps).map_err(err)?;
        feedback.push(Json::obj([
            ("iters", Json::Num(iters as f64)),
            ("peak_rise_k", Json::Num(map.peak_rise())),
            ("mean_rise_k", Json::Num(map.mean_rise())),
        ]));
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    let table1_min_gain = min_of(table1_gains.iter().copied());
    let table1_widening = table1_gains[1] - table1_gains[0];
    println!(
        "paper bench: Table I ERI − Default {:+.2} / {:+.2} pp (widens {table1_widening:+.2}); \
         Fig. 6 least ERI / HW gain {fig6_min_eri_gain:+.2} / {fig6_min_hw_gain:+.2} pp, \
         least rise {fig6_min_rise:+.2} pp; Fig. 5 r {pearson_r:.3}; worst timing \
         {timing_max:+.2} %; ERI − blind rows {:+.2} pp; mesh spread {spread:.2} pp; \
         {wall_ms:.0} ms",
        table1_gains[0],
        table1_gains[1],
        eri - blind,
    );
    Ok(Json::obj([
        ("table1", Json::Arr(table1_rows)),
        ("table1_min_eri_gain_pp", Json::Num(table1_min_gain)),
        ("table1_gain_widening_pp", Json::Num(table1_widening)),
        ("fig6", Json::Arr(fig6_rows)),
        ("fig6_min_eri_gain_pp", Json::Num(fig6_min_eri_gain)),
        ("fig6_min_hw_gain_pp", Json::Num(fig6_min_hw_gain)),
        ("fig6_min_rise_pp", Json::Num(fig6_min_rise)),
        ("fig5_pearson_r", Json::Num(pearson_r)),
        ("timing", Json::Arr(timing_rows)),
        ("timing_max_overhead_pct", Json::Num(timing_max)),
        ("ablation_overhead_pct", Json::Num(ABLATION_OVERHEAD_PCT)),
        ("abl1_eri_pct", Json::Num(eri)),
        ("abl1_blind_pct", Json::Num(blind)),
        ("abl1_eri_over_blind_pp", Json::Num(eri - blind)),
        ("abl2_rings", Json::Arr(rings)),
        ("abl3_meshes", Json::Arr(meshes)),
        ("abl3_eri_spread_pp", Json::Num(spread)),
        ("abl4_feedback", Json::Arr(feedback)),
        ("wall_ms", Json::Num(wall_ms)),
    ]))
}

fn main() -> ExitCode {
    let args = parse_args();
    let grid = build_grid(args.smoke);
    let mode = if args.smoke { "smoke" } else { "full" };
    println!(
        "sweep bench [{mode}]: {} scenarios, {} threads",
        grid.scenario_count(),
        args.threads
    );
    let sweep = match run_engine(&grid, args.threads, 0) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep grid failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "grid served in {:.0} ms across {} flows",
        sweep.wall_ms, sweep.flows_built
    );

    // The large-mesh band (full mode only): the resolutions the
    // spectral solver opened up.
    let large_results = if args.smoke {
        Vec::new()
    } else {
        let large_grid = build_large_grid();
        println!(
            "large-mesh band: {} scenarios at 80x80 / 128x128",
            large_grid.scenario_count()
        );
        match run_engine(&large_grid, args.threads, 0) {
            Ok(report) => {
                println!(
                    "large-mesh band done in {:.0} ms across {} flows",
                    report.wall_ms, report.flows_built
                );
                report.results
            }
            Err(e) => {
                eprintln!("large-mesh sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // The xlarge band (full mode only): 256×256 and 512×512 through a
    // single service worker, the thread budget spent inside each solve.
    let xlarge_results = if args.smoke {
        Vec::new()
    } else {
        let xlarge_grid = build_xlarge_grid();
        println!(
            "xlarge band: {} scenarios at 256x256 / 512x512, {} solver threads",
            xlarge_grid.scenario_count(),
            args.threads.max(1)
        );
        match run_engine(&xlarge_grid, 1, args.threads.max(1)) {
            Ok(report) => {
                println!(
                    "xlarge band done in {:.0} ms across {} flows",
                    report.wall_ms, report.flows_built
                );
                report.results
            }
            Err(e) => {
                eprintln!("xlarge sweep failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // Auto-vs-CSR per-solve scaling; CI gates the backend and drift of
    // every mesh and the 40×40×9 speedup, full runs the 256×256 one too.
    let scaling_meshes: &[usize] = if args.smoke {
        &[20, 40, 64, 128]
    } else {
        &[20, 40, 64, 80, 128, 256, 512]
    };
    let solver_scaling = match run_solver_scaling(scaling_meshes) {
        Ok(section) => section,
        Err(e) => {
            eprintln!("solver-scaling bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Threaded kernels against their own single-thread run, with the
    // mandatory zero-bit-drift check.
    let solver_threads_section = match run_solver_threads(args.threads, args.smoke) {
        Ok(section) => section,
        Err(e) => {
            eprintln!("solver-threads bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The strategy engine's frontier over the transform registry.
    let optimizer_section = match run_optimizer_bench() {
        Ok(section) => section,
        Err(e) => {
            eprintln!("optimizer bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    // The optimization service: the mixed batch cold, then warm from
    // the keyed result cache, with bit-identity verified in-bench.
    let service_section = match run_service_bench(args.threads) {
        Ok(section) => section,
        Err(e) => {
            eprintln!("service bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let record_json = |r: &EngineResult, index: usize, band: &str| {
        Json::obj([
            ("index", Json::Num(index as f64)),
            ("band", Json::Str(band.to_string())),
            ("workload", Json::Str(r.scenario.workload.clone())),
            (
                "mesh",
                Json::Arr(vec![
                    Json::Num(r.scenario.mesh.0 as f64),
                    Json::Num(r.scenario.mesh.1 as f64),
                ]),
            ),
            // label() == strategy.to_string() for strategy scenarios
            // (baseline keys unchanged); transform scenarios key by id.
            ("strategy", Json::Str(r.scenario.label())),
            ("transform", Json::Str(r.report.transform_id.clone())),
            ("area_overhead_pct", Json::Num(r.report.area_overhead_pct)),
            ("peak_before_c", Json::Num(r.report.before.peak_c)),
            ("peak_after_c", Json::Num(r.report.after.peak_c)),
            ("reduction_pct", Json::Num(r.report.reduction_pct())),
            (
                "timing_overhead_pct",
                Json::Num(r.report.timing_overhead_pct()),
            ),
            ("wall_ms", Json::Num(r.wall_ms)),
        ])
    };
    let records: Vec<Json> = sweep
        .results
        .iter()
        .map(|r| record_json(r, r.scenario.index, "standard"))
        .chain(
            large_results
                .iter()
                .map(|r| record_json(r, sweep.results.len() + r.scenario.index, "large")),
        )
        .chain(xlarge_results.iter().map(|r| {
            record_json(
                r,
                sweep.results.len() + large_results.len() + r.scenario.index,
                "xlarge",
            )
        }))
        .collect();
    let logic_sim_section = match run_logic_sim_bench() {
        Ok(section) => section,
        Err(e) => {
            eprintln!("logic-sim bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let wrapper_section = match run_wrapper_bench() {
        Ok(section) => section,
        Err(e) => {
            eprintln!("wrapper bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let paper_section = match run_paper_bench() {
        Ok(section) => section,
        Err(e) => {
            eprintln!("paper bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let doc = Json::obj([
        ("schema_version", Json::Num(SCHEMA_VERSION)),
        ("generator", Json::Str("coolplace-bench sweep".to_string())),
        ("mode", Json::Str(mode.to_string())),
        ("threads", Json::Num(args.threads.max(1) as f64)),
        ("scenario_count", Json::Num(sweep.results.len() as f64)),
        (
            "large_scenario_count",
            Json::Num(large_results.len() as f64),
        ),
        (
            "xlarge_scenario_count",
            Json::Num(xlarge_results.len() as f64),
        ),
        ("flows_built", Json::Num(sweep.flows_built as f64)),
        ("sweep_wall_ms", Json::Num(sweep.wall_ms)),
        ("solver_scaling", solver_scaling),
        ("solver_threads", solver_threads_section),
        ("optimizer", optimizer_section),
        ("service", service_section),
        ("logic_sim", logic_sim_section),
        ("wrapper", wrapper_section),
        ("paper", paper_section),
        ("records", Json::Arr(records)),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.render()) {
        eprintln!("cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out.display());

    if let Some(baseline_path) = &args.check {
        let baseline = match std::fs::read_to_string(baseline_path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
        {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let failures = check_against_baseline(&doc, &baseline, PEAK_TOLERANCE_C);
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("FAIL: {f}");
            }
            return ExitCode::FAILURE;
        }
        println!("baseline check passed ({})", baseline_path.display());
    }
    ExitCode::SUCCESS
}
