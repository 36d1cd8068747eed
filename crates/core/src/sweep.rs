//! Batched scenario sweeps: fan a grid of (workload × mesh × strategy)
//! evaluations across worker threads, reusing every cache the flow
//! offers.
//!
//! The engine is [`run_requests`]: it takes typed
//! [`OptimizeRequest`]s, builds one [`Flow`] per (workload, mesh) group
//! — the expensive netlist/simulation/placement prefix — and then
//! dispatches every request of a group against that shared flow, so the
//! memoized baseline and the per-geometry factorized thermal models are
//! amortized across the whole batch. Both phases run under
//! [`std::thread::scope`] with a simple atomic work queue; results come
//! back in deterministic submission order regardless of thread count.
//!
//! A [`SweepGrid`] names (workload × mesh × strategy) axes and expands
//! them into typed requests via [`SweepGrid::requests`].
//!
//! # Examples
//!
//! ```no_run
//! use postplace::{run_requests, FlowConfig, Strategy, SweepGrid};
//!
//! # fn main() -> Result<(), postplace::FlowError> {
//! let config = FlowConfig::scattered_small().fast();
//! let grid = SweepGrid::new(config.clone())
//!     .mesh(16, 16)
//!     .strategy(Strategy::UniformSlack { area_overhead: 0.16 })
//!     .row_counts([4, 8, 12]);
//! let batch = run_requests(&config, &grid.requests()?, 4)?;
//! for r in &batch.outcomes {
//!     let report = r.response.report().expect("strategy goals yield reports");
//!     println!("{}: {:.2}% in {:.1} ms", r.request.label(), report.reduction_pct(), r.wall_ms);
//! }
//! # Ok(())
//! # }
//! ```

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use thermalsim::GridSpec;

use crate::{
    Flow, FlowConfig, FlowError, OptimizeRequest, OptimizeResponse, Strategy, WorkloadSpec,
};

/// One cell of the sweep grid: which workload, mesh resolution and
/// transformation to evaluate.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the expanded grid (stable across thread counts).
    pub index: usize,
    /// Label of the workload axis entry.
    pub workload: String,
    /// Lateral mesh resolution `(nx, ny)`.
    pub mesh: (usize, usize),
    /// The transformation under evaluation (the legacy facade;
    /// [`Strategy::None`] for open-set transform scenarios, whose
    /// [`Scenario::transform`] id is authoritative).
    pub strategy: Strategy,
    /// Stable transform id for scenarios from the grid's transform axis
    /// (parsed with [`crate::TransformRegistry::parse`] at evaluation
    /// time); `None` for strategy-axis scenarios.
    pub transform: Option<String>,
}

impl Scenario {
    /// The scenario's display label: the transform id when the scenario
    /// comes from the transform axis, the strategy's compact form
    /// otherwise.
    pub fn label(&self) -> String {
        match &self.transform {
            Some(id) => id.clone(),
            None => self.strategy.to_string(),
        }
    }
}

/// The axes of a scenario sweep. Scenarios are the cartesian product
/// `workloads × meshes × strategies`, expanded in that nesting order; an
/// empty workload or mesh axis falls back to the base config's own value
/// at expansion time.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Template configuration; each scenario overrides the workload and
    /// the lateral mesh resolution, keeping every other knob.
    pub base: FlowConfig,
    /// Labelled workloads (empty = sweep the base config's workload,
    /// labelled `"base"`).
    pub workloads: Vec<(String, WorkloadSpec)>,
    /// Lateral mesh resolutions (empty = the base config's mesh).
    pub meshes: Vec<(usize, usize)>,
    /// Strategies (including row-count variants) to evaluate per
    /// workload × mesh combination.
    pub strategies: Vec<Strategy>,
    /// Open-set transforms, by stable id (see
    /// [`crate::PlacementTransform::id`]), appended after the strategy
    /// axis in every workload × mesh combination.
    pub transforms: Vec<String>,
}

impl SweepGrid {
    /// A grid over `base` with empty axes; add strategies (required) and
    /// optionally workloads and meshes.
    pub fn new(base: FlowConfig) -> Self {
        SweepGrid {
            base,
            workloads: Vec::new(),
            meshes: Vec::new(),
            strategies: Vec::new(),
            transforms: Vec::new(),
        }
    }

    /// Adds a labelled workload to the workload axis.
    pub fn workload(mut self, label: impl Into<String>, spec: WorkloadSpec) -> Self {
        self.workloads.push((label.into(), spec));
        self
    }

    /// Adds a mesh resolution to the mesh axis.
    pub fn mesh(mut self, nx: usize, ny: usize) -> Self {
        self.meshes.push((nx, ny));
        self
    }

    /// Adds several mesh resolutions at once — the shape the large-mesh
    /// scenario band uses (`.meshes([(80, 80), (128, 128)])`), which the
    /// spectral direct solver makes practical.
    pub fn meshes(mut self, meshes: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.meshes.extend(meshes);
        self
    }

    /// Adds one strategy to the strategy axis.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategies.push(strategy);
        self
    }

    /// Adds one [`Strategy::EmptyRowInsertion`] entry per row count.
    pub fn row_counts(mut self, rows: impl IntoIterator<Item = usize>) -> Self {
        self.strategies.extend(
            rows.into_iter()
                .map(|rows| Strategy::EmptyRowInsertion { rows }),
        );
        self
    }

    /// Adds an open-set transform to the grid by its stable id (e.g.
    /// `"composite(eri:8+wrap)"`); the id is validated here and parsed
    /// again per evaluation.
    ///
    /// # Panics
    ///
    /// Panics on an unparsable id — grids are built statically and a
    /// typo should fail at construction, not mid-sweep.
    pub fn transform(mut self, id: impl Into<String>) -> Self {
        let id = id.into();
        // lint: allow(no-panic, reason = "documented panic: grid construction is static config, a typo must fail fast at build, not mid-sweep")
        crate::TransformRegistry::parse(&id).expect("invalid transform id in sweep grid");
        self.transforms.push(id);
        self
    }

    fn effective_workloads(&self) -> Vec<(String, WorkloadSpec)> {
        if self.workloads.is_empty() {
            vec![("base".to_string(), self.base.workload.clone())]
        } else {
            self.workloads.clone()
        }
    }

    fn effective_meshes(&self) -> Vec<(usize, usize)> {
        if self.meshes.is_empty() {
            vec![(self.base.thermal.grid.nx, self.base.thermal.grid.ny)]
        } else {
            self.meshes.clone()
        }
    }

    /// The full flow configuration a scenario resolves to: the base
    /// config with the scenario's workload and mesh applied. This is the
    /// single source of truth both for [`SweepGrid::requests`] and for
    /// anything replaying scenarios outside the engine (e.g. a test
    /// building one scenario's flow directly).
    pub fn scenario_config(&self, scenario: &Scenario) -> FlowConfig {
        let spec = self
            .effective_workloads()
            .iter()
            .find(|(label, _)| *label == scenario.workload)
            .map(|(_, spec)| spec.clone())
            .unwrap_or_else(|| self.base.workload.clone());
        // A replay outside the engine is serial, so the base's solver
        // threading passes through untouched.
        group_config(&self.base, &spec, scenario.mesh, 1)
    }

    /// Number of scenarios the grid expands to.
    pub fn scenario_count(&self) -> usize {
        self.effective_workloads().len()
            * self.effective_meshes().len()
            * (self.strategies.len() + self.transforms.len())
    }

    /// Expands the axes into the full scenario list.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.scenario_count());
        for (label, _) in &self.effective_workloads() {
            for &mesh in &self.effective_meshes() {
                for &strategy in &self.strategies {
                    out.push(Scenario {
                        index: out.len(),
                        workload: label.clone(),
                        mesh,
                        strategy,
                        transform: None,
                    });
                }
                for id in &self.transforms {
                    out.push(Scenario {
                        index: out.len(),
                        workload: label.clone(),
                        mesh,
                        strategy: Strategy::None,
                        transform: Some(id.clone()),
                    });
                }
            }
        }
        out
    }

    /// Expands the grid into typed [`OptimizeRequest`]s (same order as
    /// [`SweepGrid::scenarios`]); each request is tagged with its
    /// workload label for display.
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] when a scenario does not validate
    /// (cannot happen for grids built through the checked builders).
    pub fn requests(&self) -> Result<Vec<OptimizeRequest>, FlowError> {
        self.scenarios()
            .iter()
            .map(|scenario| self.scenario_request(scenario))
            .collect()
    }

    /// The typed request one scenario maps onto: strategy-axis
    /// scenarios become [`crate::OptimizeGoal::Strategy`] goals (the
    /// serde facade travels as-is — no float-through-string round
    /// trip), transform-axis scenarios become
    /// [`crate::OptimizeGoal::Transform`] goals.
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] when the scenario does not validate.
    pub fn scenario_request(&self, scenario: &Scenario) -> Result<OptimizeRequest, FlowError> {
        let config = self.scenario_config(scenario);
        let builder = OptimizeRequest::builder()
            .workload(config.workload)
            .mesh(scenario.mesh.0, scenario.mesh.1)
            .tag(&scenario.workload);
        match &scenario.transform {
            Some(id) => builder.transform(id.clone()),
            None => builder.strategy(scenario.strategy),
        }
        .build()
    }
}

/// One evaluated request of a [`run_requests`] batch.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// The request that was dispatched.
    pub request: OptimizeRequest,
    /// Its deterministic response.
    pub response: OptimizeResponse,
    /// Wall-clock time of this dispatch, milliseconds.
    pub wall_ms: f64,
}

/// The outcome of a [`run_requests`] batch.
#[derive(Debug, Clone)]
pub struct RequestBatch {
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<RequestOutcome>,
    /// Worker threads used.
    pub threads: usize,
    /// Distinct (workload, mesh) flows that were built.
    pub flows_built: usize,
    /// End-to-end wall-clock of the batch (flow builds included), ms.
    pub wall_ms: f64,
    /// Counters of the model cache the batch's flows share.
    pub models: crate::CacheStats,
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The flow configuration one request group resolves to, with the
/// batch-level oversubscription guard applied: when the engine already
/// fans out across requests (`engine_threads > 1`), each individual
/// solve degrades to a single solver thread — `workers × solver
/// threads` would otherwise oversubscribe the machine, and because
/// solves are bit-identical at any thread count the degradation cannot
/// change any result.
fn group_config(
    base: &FlowConfig,
    workload: &WorkloadSpec,
    mesh: (usize, usize),
    engine_threads: usize,
) -> FlowConfig {
    let mut config = base.clone();
    config.workload = workload.clone();
    config.thermal.grid = GridSpec {
        nx: mesh.0,
        ny: mesh.1,
    };
    if engine_threads > 1 {
        config.thermal.threads = 1;
    }
    config
}

/// Runs every request of `requests` (resolved against `base`) across
/// `threads` workers and returns the outcomes in submission order.
///
/// Flows (one per distinct workload × mesh) are built first, in
/// parallel; request dispatches then share them, so the factorized
/// thermal models and the memoized baselines are reused across the
/// whole batch. With `threads == 1` the batch still benefits from that
/// reuse — thread fan-out stacks on top on multi-core machines.
///
/// Parallelism composes on one axis at a time: when the batch runs on
/// more than one worker, each solve inside it is forced to a single
/// solver thread (`base.thermal.threads` is ignored), so batch workers
/// and solver threads never multiply into oversubscription. Run a batch
/// with `threads == 1` to let per-solve threading through instead.
/// Either way the numbers are bit-identical — only latency moves.
///
/// # Errors
///
/// Returns the first flow-construction or dispatch error; remaining
/// workers stop at the next queue pull.
pub fn run_requests(
    base: &FlowConfig,
    requests: &[OptimizeRequest],
    threads: usize,
) -> Result<RequestBatch, FlowError> {
    let started = Instant::now();
    if requests.is_empty() {
        return Ok(RequestBatch {
            outcomes: Vec::new(),
            threads: 0,
            flows_built: 0,
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            models: crate::CacheStats::default(),
        });
    }

    // Group requests by (workload, mesh): one Flow per group.
    let mut group_of = Vec::with_capacity(requests.len());
    let mut groups: Vec<(WorkloadSpec, (usize, usize))> = Vec::new();
    for request in requests {
        let key = groups
            .iter()
            .position(|(spec, mesh)| *spec == request.workload && *mesh == request.mesh);
        let gi = match key {
            Some(gi) => gi,
            None => {
                groups.push((request.workload.clone(), request.mesh));
                groups.len() - 1
            }
        };
        group_of.push(gi);
    }

    let threads = threads.max(1).min(requests.len());
    let error: Mutex<Option<FlowError>> = Mutex::new(None);
    let abort = AtomicBool::new(false);
    // All worker-shared mutexes guard plain data that is never left
    // half-written across a panic, so a poisoned lock is recovered
    // rather than cascading the panic into every sibling worker.
    fn unpoison<T>(e: std::sync::PoisonError<T>) -> T {
        e.into_inner()
    }
    let fail = |e: FlowError| {
        abort.store(true, Ordering::SeqCst);
        let mut slot = error.lock().unwrap_or_else(unpoison);
        slot.get_or_insert(e);
    };

    // Phase 1: build one flow per group, in parallel. Every flow is
    // pointed at one shared model cache — the base placement does not
    // depend on the workload, so groups sharing a mesh produce identical
    // die geometries and must factorize each of them only once — and its
    // baseline is primed here, while the work is still spread across
    // groups, so phase-2 workers never race to initialize it.
    let shared_cache = crate::ThermalModelCache::new();
    let flow_slots: Vec<Mutex<Option<Flow>>> = groups.iter().map(|_| Mutex::new(None)).collect();
    let next_group = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads.min(groups.len()) {
            s.spawn(|| loop {
                let gi = next_group.fetch_add(1, Ordering::SeqCst);
                if gi >= groups.len() || abort.load(Ordering::SeqCst) {
                    break;
                }
                let (spec, mesh) = &groups[gi];
                let built =
                    Flow::new(group_config(base, spec, *mesh, threads)).and_then(|mut flow| {
                        flow.set_thermal_cache(shared_cache.clone());
                        flow.prime_baseline()?;
                        Ok(flow)
                    });
                match built {
                    Ok(flow) => {
                        *flow_slots[gi].lock().unwrap_or_else(unpoison) = Some(flow);
                    }
                    Err(e) => fail(e),
                }
            });
        }
    });
    if let Some(e) = error.lock().unwrap_or_else(unpoison).take() {
        return Err(e);
    }
    let flows: Vec<Flow> = flow_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(unpoison)
                .ok_or_else(|| FlowError::Internal {
                    detail: "a flow group was never built yet no error was recorded".to_string(),
                })
        })
        .collect::<Result<_, _>>()?;

    // Phase 2: dispatch requests against the shared flows.
    let outcomes: Mutex<Vec<Option<RequestOutcome>>> =
        Mutex::new((0..requests.len()).map(|_| None).collect());
    let next_request = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next_request.fetch_add(1, Ordering::SeqCst);
                if i >= requests.len() || abort.load(Ordering::SeqCst) {
                    break;
                }
                let request = &requests[i];
                let flow = &flows[group_of[i]];
                let eval_started = Instant::now();
                match flow.optimize(request) {
                    Ok(response) => {
                        let outcome = RequestOutcome {
                            request: request.clone(),
                            response,
                            wall_ms: eval_started.elapsed().as_secs_f64() * 1e3,
                        };
                        outcomes.lock().unwrap_or_else(unpoison)[i] = Some(outcome);
                    }
                    Err(e) => fail(e),
                }
            });
        }
    });
    if let Some(e) = error.lock().unwrap_or_else(unpoison).take() {
        return Err(e);
    }
    let outcomes = outcomes
        .into_inner()
        .unwrap_or_else(unpoison)
        .into_iter()
        .map(|r| {
            r.ok_or_else(|| FlowError::Internal {
                detail: "a request was never dispatched yet no error was recorded".to_string(),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(RequestBatch {
        outcomes,
        threads,
        flows_built: groups.len(),
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
        models: shared_cache.stats(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid::new(FlowConfig::scattered_small().fast())
            .mesh(8, 8)
            .mesh(10, 10)
            .strategy(Strategy::UniformSlack {
                area_overhead: 0.16,
            })
            .row_counts([4, 8])
    }

    #[test]
    fn parallel_batches_degrade_solves_to_one_thread() {
        // workers × solver threads must not oversubscribe: a parallel
        // batch forces every per-solve thread count to 1, a serial batch
        // lets the base's solver threading through untouched.
        let mut base = FlowConfig::scattered_small().fast();
        base.thermal.threads = 4;
        let spec = base.workload.clone();
        let parallel = group_config(&base, &spec, (8, 8), 2);
        assert_eq!(parallel.thermal.threads, 1);
        let serial = group_config(&base, &spec, (8, 8), 1);
        assert_eq!(serial.thermal.threads, 4);
        assert_eq!(serial.thermal.grid, GridSpec { nx: 8, ny: 8 });
    }

    #[test]
    fn grid_expansion_is_the_cartesian_product() {
        let grid = small_grid().workload(
            "booth",
            WorkloadSpec {
                active: vec![arithgen::UnitRole::BoothMult],
                toggle_probability: 0.5,
            },
        );
        // 1 workload × 2 meshes × 3 strategies.
        assert_eq!(grid.scenario_count(), 6);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 6);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.workload, "booth");
        }
        // An empty workload axis falls back to the base workload.
        let implicit = small_grid();
        assert_eq!(implicit.scenario_count(), 6);
        assert_eq!(implicit.scenarios()[0].workload, "base");
    }

    #[test]
    fn sweep_matches_direct_runs_and_is_thread_invariant() {
        let grid = small_grid();
        let requests = grid.requests().unwrap();
        let one = run_requests(&grid.base, &requests, 1).unwrap();
        let four = run_requests(&grid.base, &requests, 4).unwrap();
        assert_eq!(one.outcomes.len(), grid.scenario_count());
        assert_eq!(four.outcomes.len(), grid.scenario_count());
        assert_eq!(one.flows_built, 2, "two meshes share one workload");
        // 2 meshes × (base + uniform die + 2 ERI dies) fit the model
        // cache's bound, so a sweep never evicts a model it reuses.
        assert_eq!(one.models.misses, 8, "{:?}", one.models);
        assert_eq!(one.models.evictions, 0, "{:?}", one.models);
        assert_eq!(four.models.evictions, 0, "{:?}", four.models);
        for (a, b) in one.outcomes.iter().zip(&four.outcomes) {
            assert_eq!(a.request, b.request, "outcomes come back in order");
            let (a, b) = (a.response.report().unwrap(), b.response.report().unwrap());
            assert_eq!(
                a.after.peak_c.to_bits(),
                b.after.peak_c.to_bits(),
                "thread count must not change results"
            );
        }
        // Spot-check scenario 0 against a direct Flow evaluation.
        let scenario = &grid.scenarios()[0];
        let flow = Flow::new(grid.scenario_config(scenario)).unwrap();
        let direct = flow.run(scenario.strategy).unwrap();
        assert!(
            (direct.after.peak_c - one.outcomes[0].response.report().unwrap().after.peak_c).abs()
                < 1e-6,
            "sweep result must match a direct run"
        );
    }

    #[test]
    fn bundled_workload_profiles_cover_both_regimes() {
        // The sweep's bundled profiles must exercise the two strategy
        // regimes: a concentrated cluster (wrapper-friendly) and an
        // alternating spread (ERI-friendly).
        let clustered = WorkloadSpec::clustered_hotspot();
        assert_eq!(clustered.active.len(), 3, "the three multipliers");
        assert!(clustered.toggle_probability > 0.5, "driven hard");
        let checker = WorkloadSpec::checkerboard();
        assert_eq!(checker.active.len(), 5, "every other of the nine units");
        assert_eq!(checker.active[0], arithgen::UnitRole::ALL[0]);
        assert_eq!(checker.active[4], arithgen::UnitRole::ALL[8]);
        // Both slot into a sweep grid like any other workload.
        let grid = SweepGrid::new(FlowConfig::scattered_small().fast())
            .workload("clustered", clustered)
            .workload("checkerboard", checker)
            .row_counts([4]);
        assert_eq!(grid.scenario_count(), 2);
    }

    #[test]
    fn transform_axis_scenarios_match_direct_transform_runs() {
        let id = "composite(targeted-eri:4+spread)";
        let grid = SweepGrid::new(FlowConfig::scattered_small().fast())
            .mesh(10, 10)
            .row_counts([4])
            .transform(id)
            .transform("hot-spread:0.16");
        assert_eq!(grid.scenario_count(), 3);
        let batch = run_requests(&grid.base, &grid.requests().unwrap(), 2).unwrap();
        let scenario = &grid.scenarios()[1];
        assert_eq!(scenario.label(), id);
        assert_eq!(scenario.strategy, Strategy::None, "facade value");
        let report = batch.outcomes[1].response.report().unwrap();
        assert_eq!(report.transform_id, id);
        // The sweep's transform evaluation must match a direct run.
        let flow = Flow::new(grid.scenario_config(scenario)).unwrap();
        let t = crate::TransformRegistry::parse(id).unwrap();
        let direct = flow.run_transform(t.as_ref()).unwrap();
        assert!((direct.after.peak_c - report.after.peak_c).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "invalid transform id")]
    fn bad_transform_ids_fail_at_grid_construction() {
        let _ = SweepGrid::new(FlowConfig::scattered_small().fast()).transform("bogus:1");
    }

    #[test]
    fn empty_grid_returns_an_empty_report() {
        let grid = SweepGrid::new(FlowConfig::scattered_small().fast());
        let requests = grid.requests().unwrap();
        assert!(requests.is_empty());
        let batch = run_requests(&grid.base, &requests, 2).unwrap();
        assert!(batch.outcomes.is_empty());
        assert_eq!(batch.flows_built, 0);
    }
}
