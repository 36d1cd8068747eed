//! The end-to-end evaluation flow of the paper's Fig. 2: synthesis
//! (benchmark generation) → logic simulation → power estimation →
//! placement → thermal simulation → **area management** → re-analysis.

use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

use arithgen::{build_benchmark, BenchmarkConfig, UnitRole};
use geom::{Grid2d, Rect};
use logicsim::{Activity, SimProgram, Simulator, Workload};
use netlist::Netlist;
use placement::{Floorplan, PlacedGeometry, Placement, PlacementResult, Placer, PlacerConfig};
use powerest::{estimate_power_placed, power_map_placed, PowerConfig, PowerReport};
use thermalsim::{FactorizedThermalModel, ThermalConfig, ThermalMap};
use timan::{analyze_placed, TimingConfig, TimingReport};

use crate::{
    detect_hotspots, DeltaCandidateEvaluator, FlowError, Hotspot, HotspotConfig, KeyedCache,
    PlacementTransform, PowerDelta, Strategy, TransformContext, TransformState, WrapperConfig,
};

/// Which units a workload exercises, and how hard.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The units receiving random input transitions.
    pub active: Vec<UnitRole>,
    /// Per-cycle, per-bit input flip probability for active units.
    pub toggle_probability: f64,
}

impl WorkloadSpec {
    /// A clustered-hotspot workload: the three multipliers driven hard,
    /// so the largest adjacent units light up as one concentrated thermal
    /// cluster — the regime the Hotspot Wrapper targets.
    pub fn clustered_hotspot() -> Self {
        WorkloadSpec {
            active: vec![
                UnitRole::BoothMult,
                UnitRole::WallaceMult,
                UnitRole::ArrayMult,
            ],
            toggle_probability: 0.7,
        }
    }

    /// A checkerboard workload: every other unit of the benchmark active,
    /// alternating hot and cold blocks across the whole die — wide,
    /// banded warmth, the regime Empty Row Insertion targets.
    pub fn checkerboard() -> Self {
        WorkloadSpec {
            active: UnitRole::ALL.iter().copied().step_by(2).collect(),
            toggle_probability: 0.5,
        }
    }
}

/// Complete configuration of one paper experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowConfig {
    /// Benchmark netlist widths.
    pub benchmark: BenchmarkConfig,
    /// The workload controlling hotspot size and position.
    pub workload: WorkloadSpec,
    /// Cycles simulated before activity measurement starts.
    pub warmup_cycles: usize,
    /// Cycles of measured activity.
    pub cycles: usize,
    /// RNG seed for the random test vectors.
    pub seed: u64,
    /// Base placement utilization (the reference the overhead is
    /// measured against).
    pub base_utilization: f64,
    /// Thermal mesh and package model.
    pub thermal: ThermalConfig,
    /// Power model.
    pub power: PowerConfig,
    /// Timing model.
    pub timing: TimingConfig,
    /// Hotspot detection thresholds.
    pub hotspot: HotspotConfig,
    /// Hotspot-wrapper parameters.
    pub wrapper: WrapperConfig,
    /// Iterations of the leakage–temperature feedback loop (0 = leakage
    /// at reference temperature, as in the paper's main experiments).
    pub leakage_feedback_iters: usize,
}

impl FlowConfig {
    /// Paper test set 1: "four scattered small hotspots" — the four small
    /// units placed at the die corners by the region assignment (ripple
    /// adder, ALU, lookahead adder, MAC), so the hotspots are mutually
    /// distant as in the paper's Fig. 5.
    pub fn scattered_small() -> Self {
        FlowConfig::with_workload(WorkloadSpec {
            active: vec![
                UnitRole::RippleAdder,
                UnitRole::Alu,
                UnitRole::LookaheadAdder,
                UnitRole::Mac,
            ],
            toggle_probability: 0.5,
        })
    }

    /// Paper test set 2: "a single, large, concentrated hotspot" — the
    /// Booth multiplier, the largest unit, which the region assignment
    /// places at the center of the die.
    pub fn concentrated_large() -> Self {
        FlowConfig::with_workload(WorkloadSpec {
            active: vec![UnitRole::BoothMult],
            toggle_probability: 0.5,
        })
    }

    /// Custom workload over otherwise-default parameters.
    pub fn with_workload(workload: WorkloadSpec) -> Self {
        FlowConfig {
            benchmark: BenchmarkConfig::paper(),
            workload,
            warmup_cycles: 16,
            cycles: 256,
            seed: 2010,
            base_utilization: 0.85,
            thermal: ThermalConfig::paper(),
            power: PowerConfig::default(),
            timing: TimingConfig::default(),
            hotspot: HotspotConfig::default(),
            wrapper: WrapperConfig::default(),
            leakage_feedback_iters: 0,
        }
    }

    /// Scaled-down variant (small benchmark, coarse mesh) for tests.
    pub fn fast(mut self) -> Self {
        self.benchmark = BenchmarkConfig::small();
        self.thermal = ThermalConfig::with_resolution(16, 16);
        self.cycles = 96;
        self
    }
}

/// Scalar summary of a thermal map.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThermalSummary {
    /// Peak temperature, °C.
    pub peak_c: f64,
    /// Peak rise above ambient, K.
    pub peak_rise: f64,
    /// Mean rise above ambient, K.
    pub mean_rise: f64,
    /// On-die gradient (max − min), K.
    pub gradient: f64,
}

impl ThermalSummary {
    fn of(map: &ThermalMap) -> Self {
        ThermalSummary {
            peak_c: map.peak_bin().1,
            peak_rise: map.peak_rise(),
            mean_rise: map.mean_rise(),
            gradient: map.gradient(),
        }
    }
}

/// Everything one experiment run produces.
#[must_use = "a FlowReport is the entire output of an experiment run"]
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// The legacy strategy facade of the transform that was applied —
    /// [`Strategy::None`] when the transform has no enum equivalent
    /// (composites and the post-enum techniques); [`FlowReport::transform_id`]
    /// is always authoritative.
    pub strategy: Strategy,
    /// Stable id of the applied transform (see
    /// [`crate::PlacementTransform::id`]).
    pub transform_id: String,
    /// Base core area, µm².
    pub base_area_um2: f64,
    /// Core area after the transformation, µm².
    pub new_area_um2: f64,
    /// Area overhead in percent of the base area.
    pub area_overhead_pct: f64,
    /// Thermal summary before.
    pub before: ThermalSummary,
    /// Thermal summary after.
    pub after: ThermalSummary,
    /// Detected hotspots (on the base placement).
    pub hotspots: Vec<Hotspot>,
    /// Critical-path report before.
    pub timing_before: TimingReport,
    /// Critical-path report after.
    pub timing_after: TimingReport,
    /// Total HPWL before, µm.
    pub hpwl_before_um: f64,
    /// Total HPWL after, µm.
    pub hpwl_after_um: f64,
    /// Total power used for the thermal solves, W.
    pub total_power_w: f64,
}

impl FlowReport {
    /// Peak-temperature reduction in percent of the original rise — the
    /// paper's main metric.
    pub fn reduction_pct(&self) -> f64 {
        if self.before.peak_rise <= 0.0 {
            return 0.0;
        }
        (self.before.peak_rise - self.after.peak_rise) / self.before.peak_rise * 100.0
    }

    /// Gradient reduction in percent.
    pub fn gradient_reduction_pct(&self) -> f64 {
        if self.before.gradient <= 0.0 {
            return 0.0;
        }
        (self.before.gradient - self.after.gradient) / self.before.gradient * 100.0
    }

    /// Timing overhead in percent (positive = slower after).
    pub fn timing_overhead_pct(&self) -> f64 {
        self.timing_before.overhead_to(&self.timing_after)
    }
}

/// Cache key: the thermal config's process-stable fingerprint (mesh,
/// layer stack, boundary conditions, solver backend and tolerance) plus
/// the bit-exact die outline — so flows with different thermal
/// configurations can safely share one cache.
type ModelKey = (u64, u64, u64, u64, u64);

fn model_key(config: &ThermalConfig, die: Rect) -> ModelKey {
    (
        config.stable_fingerprint(),
        die.llx.to_bits(),
        die.lly.to_bits(),
        die.urx.to_bits(),
        die.ury.to_bits(),
    )
}

/// Benchmark netlists held process-wide. Every request names one of a
/// few benchmark configurations (usually [`BenchmarkConfig::paper`]), so
/// a handful of entries covers them while bounding the memo's memory.
const NETLIST_CACHE_CAP: usize = 4;

/// A benchmark netlist and its compiled simulation program, which
/// depends on nothing else.
#[derive(Debug)]
struct Benchmark {
    netlist: Netlist,
    program: SimProgram,
}

/// The benchmark netlist for `config` and its [`SimProgram`], built once
/// per process and shared by every [`Flow`] that names the same
/// configuration. [`build_benchmark`] and [`SimProgram::compile`] are
/// pure functions of their inputs and both are immutable once built, so
/// sharing cannot change an answer.
fn shared_netlist(config: &BenchmarkConfig) -> Result<Arc<Benchmark>, FlowError> {
    netlists().get_or_compute(config.clone(), || {
        let netlist = build_benchmark(config)?;
        let program = SimProgram::compile(&netlist);
        Ok(Benchmark { netlist, program })
    })
}

fn netlists() -> &'static KeyedCache<BenchmarkConfig, Benchmark> {
    static NETLISTS: OnceLock<KeyedCache<BenchmarkConfig, Benchmark>> = OnceLock::new();
    NETLISTS.get_or_init(|| KeyedCache::with_capacity(NETLIST_CACHE_CAP))
}

/// Base placements held process-wide, one per benchmark configuration
/// and base utilization a request names.
const PLACEMENT_CACHE_CAP: usize = 4;

/// A base placement and its [`PlacedGeometry`].
#[derive(Debug)]
struct BasePlacement {
    placed: PlacementResult,
    geometry: PlacedGeometry,
}

/// The base placement of `netlist` (the shared netlist of `config`) at
/// `utilization` with its geometry, placed once per process and shared
/// by every [`Flow`] that names the same pair. Placement is a pure
/// function of the netlist and the utilization, and nothing mutates a
/// base placement (a transformation starts from a clone), so sharing
/// cannot change an answer.
fn shared_base_placement(
    config: &BenchmarkConfig,
    netlist: &Netlist,
    utilization: f64,
) -> Result<Arc<BasePlacement>, FlowError> {
    placements().get_or_compute((config.clone(), utilization.to_bits()), || {
        let placed = Placer::new(PlacerConfig::with_utilization(utilization)).place(netlist)?;
        let geometry = PlacedGeometry::new(netlist, &placed.floorplan, &placed.placement);
        Ok(BasePlacement { placed, geometry })
    })
}

fn placements() -> &'static KeyedCache<(BenchmarkConfig, u64), BasePlacement> {
    static PLACEMENTS: OnceLock<KeyedCache<(BenchmarkConfig, u64), BasePlacement>> =
        OnceLock::new();
    PLACEMENTS.get_or_init(|| KeyedCache::with_capacity(PLACEMENT_CACHE_CAP))
}

/// Factorized models held per cache. The largest shared cache, the full
/// sweep grid of the bench, touches 16 die geometries: 2 meshes × (the
/// base + 2 uniform-slack dies + 5 ERI dies; HW reuses its uniform die).
/// A budget request factorizes two new dies (its uniform/HW outline and
/// its ERI outline) that later requests rarely revisit, so a larger
/// bound only holds ~1.2 MiB per 128² model nobody reads again.
const MODEL_CACHE_CAP: usize = 16;

/// A shareable cache of factorized thermal models, keyed by mesh and die
/// outline. Every [`Flow`] owns one; [`crate::run_requests`] points all
/// of a batch's flows at a single cache so identical geometries (the
/// base placement is workload-independent) are factorized once. Built on
/// [`KeyedCache`], so hit/miss/eviction counters are observable through
/// [`ThermalModelCache::stats`].
#[derive(Debug, Clone)]
pub struct ThermalModelCache {
    models: KeyedCache<ModelKey, FactorizedThermalModel>,
}

impl Default for ThermalModelCache {
    fn default() -> Self {
        ThermalModelCache::new()
    }
}

impl ThermalModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        ThermalModelCache {
            models: KeyedCache::with_capacity(MODEL_CACHE_CAP),
        }
    }

    /// Cached models currently held.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Hit/miss/eviction counters of the underlying [`KeyedCache`].
    pub fn stats(&self) -> crate::CacheStats {
        self.models.stats()
    }

    /// Invalidates every cached model (lazily, via the generation
    /// counter) — for long-running services whose thermal configuration
    /// changes underneath a shared cache.
    pub fn invalidate(&self) {
        self.models.bump_generation();
    }

    fn get_or_build(
        &self,
        config: &ThermalConfig,
        die: Rect,
    ) -> Result<Arc<FactorizedThermalModel>, FlowError> {
        // The compute runs outside the cache lock so distinct geometries
        // factorize concurrently; a second caller of the same geometry
        // waits for the first one's model.
        self.models.get_or_compute(model_key(config, die), || {
            FactorizedThermalModel::build(config, die).map_err(FlowError::from)
        })
    }
}

/// The base placement's analysis — identical for every `Flow::run`, so
/// computed once and shared (including across sweep worker threads).
#[derive(Debug, Clone)]
struct BaselineAnalysis {
    /// The leakage-adjusted report, when the feedback loop changed the
    /// flow's own ([`Flow::power`]).
    power: Option<PowerReport>,
    pmap: Grid2d<f64>,
    tmap: ThermalMap,
    hotspots: Vec<Hotspot>,
    timing: TimingReport,
    hpwl_um: f64,
}

/// The flow driver: fetches the benchmark and computes its activity once,
/// then evaluates any number of strategies against the same baseline.
///
/// The benchmark netlist is shared: every flow naming the same
/// [`BenchmarkConfig`] holds one process-wide netlist and its compiled
/// [`SimProgram`], built on first use and kept in a small bounded memo.
/// So is the base placement with its [`PlacedGeometry`], per benchmark
/// configuration and base utilization.
///
/// Thermal work is amortized two ways: the conductance network for each
/// die geometry is factorized once (see [`FactorizedThermalModel`]) and
/// re-solved per power map, and the base placement's analysis is
/// memoized across runs. Both caches are behind locks, so a `&Flow` can
/// be shared by sweep worker threads.
///
/// See the [crate docs](crate) for an example.
#[derive(Debug)]
pub struct Flow {
    config: FlowConfig,
    bench: Arc<Benchmark>,
    activity: Activity,
    base: Arc<BasePlacement>,
    /// Per-cell power computed once on the base placement and held fixed
    /// across transformations — the paper's premise: the techniques reduce
    /// power *density* "while keeping (cell) power consumption unchanged".
    power: PowerReport,
    models: ThermalModelCache,
    baseline: OnceLock<BaselineAnalysis>,
}

impl Flow {
    /// Fetches the shared benchmark netlist and base placement (building
    /// each on first use) and simulates the workload.
    ///
    /// # Errors
    ///
    /// Propagates netlist generation and placement errors.
    pub fn new(config: FlowConfig) -> Result<Self, FlowError> {
        let bench = shared_netlist(&config.benchmark)?;
        let netlist = &bench.netlist;
        let active: Vec<netlist::UnitId> =
            config.workload.active.iter().map(|r| r.unit_id()).collect();
        let workload =
            Workload::with_active_units(netlist, &active, config.workload.toggle_probability);
        let mut sim = Simulator::with_program(netlist, &bench.program);
        sim.run_workload(&workload, config.warmup_cycles, config.seed);
        sim.reset_activity();
        sim.run_workload(&workload, config.cycles, config.seed.wrapping_add(1));
        let activity = sim.activity();
        let base = shared_base_placement(&config.benchmark, netlist, config.base_utilization)?;
        let power = estimate_power_placed(netlist, &activity, &base.geometry, None, &config.power);
        Ok(Flow {
            config,
            bench,
            activity,
            base,
            power,
            models: ThermalModelCache::new(),
            baseline: OnceLock::new(),
        })
    }

    /// The per-cell power report (fixed across transformations).
    pub fn power(&self) -> &PowerReport {
        &self.power
    }

    /// The switching activity measured on the workload.
    pub fn activity(&self) -> &Activity {
        &self.activity
    }

    /// The flow configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The benchmark netlist, shared with every flow of the same
    /// [`BenchmarkConfig`].
    pub fn netlist(&self) -> &Netlist {
        &self.bench.netlist
    }

    /// The base placement the overhead is measured against.
    pub fn base_placement(&self) -> &PlacementResult {
        &self.base.placed
    }

    /// The factorized thermal model for a die outline, built on first use
    /// and cached for every later placement sharing that geometry.
    ///
    /// # Errors
    ///
    /// Propagates model-construction failures.
    pub fn thermal_model(&self, die: Rect) -> Result<Arc<FactorizedThermalModel>, FlowError> {
        self.models.get_or_build(&self.config.thermal, die)
    }

    /// The flow's model cache handle (cheap to clone — the flows cloned
    /// to share one).
    pub fn thermal_cache(&self) -> ThermalModelCache {
        self.models.clone()
    }

    /// Points this flow at `cache`, so identical geometries factorized by
    /// other flows (e.g. the other workloads of a sweep) are reused.
    pub fn set_thermal_cache(&mut self, cache: ThermalModelCache) {
        self.models = cache;
    }

    /// Power, power map and thermal map for a given placement, including
    /// the optional leakage–temperature feedback loop. Thermal solves go
    /// through the per-geometry factorized-model cache.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn analyze_placement(
        &self,
        floorplan: &Floorplan,
        placement: &Placement,
    ) -> Result<(PowerReport, Grid2d<f64>, ThermalMap), FlowError> {
        let (report, pmap, tmap) =
            self.analyze_geometry(&PlacedGeometry::new(self.netlist(), floorplan, placement))?;
        Ok((report.into_owned(), pmap, tmap))
    }

    /// [`Flow::analyze_placement`] over a placement's geometry, so the
    /// caller can hand the same geometry to timing and wirelength. The
    /// report borrows [`Flow::power`] unless the leakage feedback loop
    /// changed it.
    pub(crate) fn analyze_geometry(
        &self,
        geometry: &PlacedGeometry,
    ) -> Result<(Cow<'_, PowerReport>, Grid2d<f64>, ThermalMap), FlowError> {
        let nx = self.config.thermal.grid.nx;
        let ny = self.config.thermal.grid.ny;
        let model = self.thermal_model(geometry.core())?;
        let mut report = Cow::Borrowed(&self.power);
        let mut pmap = power_map_placed(self.netlist(), geometry, &report, nx, ny);
        let mut tmap = model.solve(&pmap)?;
        for _ in 0..self.config.leakage_feedback_iters {
            let temps = self.cell_temps(geometry, &tmap);
            report = Cow::Owned(report.with_leakage_at(self.netlist(), &self.config.power, &temps));
            pmap = power_map_placed(self.netlist(), geometry, &report, nx, ny);
            tmap = model.solve(&pmap)?;
        }
        Ok((report, pmap, tmap))
    }

    /// Computes and memoizes the baseline analysis now instead of on the
    /// first [`Flow::run`]. The sweep engine primes each flow while the
    /// build phase is still parallel, so run-phase workers never race to
    /// initialize the same baseline.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn prime_baseline(&self) -> Result<(), FlowError> {
        self.baseline().map(|_| ())
    }

    /// The memoized analysis of the base placement.
    fn baseline(&self) -> Result<&BaselineAnalysis, FlowError> {
        if let Some(b) = self.baseline.get() {
            return Ok(b);
        }
        let b = self.compute_baseline()?;
        Ok(self.baseline.get_or_init(|| b))
    }

    fn compute_baseline(&self) -> Result<BaselineAnalysis, FlowError> {
        let geometry = &self.base.geometry;
        let (power, pmap, tmap) = self.analyze_geometry(geometry)?;
        let power = match power {
            Cow::Borrowed(_) => None,
            Cow::Owned(adjusted) => Some(adjusted),
        };
        let hotspots = detect_hotspots(&tmap, &self.config.hotspot);
        let timing = analyze_placed(self.netlist(), geometry, Some(&tmap), &self.config.timing)?;
        Ok(BaselineAnalysis {
            power,
            pmap,
            tmap,
            hotspots,
            timing,
            hpwl_um: geometry.total_hpwl(),
        })
    }

    /// Per-cell temperatures sampled from a thermal map at the cell
    /// centers of a placement's geometry (ambient for unplaced cells).
    pub fn cell_temps(&self, geometry: &PlacedGeometry, map: &ThermalMap) -> Vec<f64> {
        let temp_at = map.sampler();
        self.netlist()
            .cells()
            .map(|(id, _)| geometry.cell_center(id).map_or(map.ambient_c(), &temp_at))
            .collect()
    }

    /// The power map and thermal map of the *base* placement (memoized —
    /// repeated calls only clone).
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn baseline_maps(&self) -> Result<(Grid2d<f64>, ThermalMap), FlowError> {
        let b = self.baseline()?;
        Ok((b.pmap.clone(), b.tmap.clone()))
    }

    /// The memoized baseline power map (watts per thermal bin) that
    /// candidate [`PowerDelta`]s are measured against.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn baseline_power_map(&self) -> Result<&Grid2d<f64>, FlowError> {
        Ok(&self.baseline()?.pmap)
    }

    /// The memoized baseline power report — equal to [`Flow::power`]
    /// until the leakage–temperature feedback loop is enabled, after
    /// which it carries the converged leakage-adjusted cell powers.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn baseline_power_report(&self) -> Result<&PowerReport, FlowError> {
        Ok(self.baseline()?.power.as_ref().unwrap_or(&self.power))
    }

    /// The memoized baseline hotspots (detected on the base placement).
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn baseline_hotspots(&self) -> Result<&[Hotspot], FlowError> {
        Ok(&self.baseline()?.hotspots)
    }

    /// The screening evaluator: each candidate power delta is priced
    /// against the memoized baseline — in closed form when it uniformly
    /// scales the baseline power, otherwise by one re-solve against the
    /// base geometry's cached factorization. This is what the
    /// optimization loops screen with; winners are always re-verified by
    /// a full [`Flow::run`].
    ///
    /// # Errors
    ///
    /// Propagates model-construction and baseline-solve failures.
    pub fn delta_evaluator(&self) -> Result<DeltaCandidateEvaluator, FlowError> {
        let b = self.baseline()?;
        let model = self.thermal_model(self.base.geometry.core())?;
        // Reuse the memoized baseline field — no extra solve.
        Ok(DeltaCandidateEvaluator::with_baseline(
            model,
            &b.pmap,
            b.tmap.clone(),
        ))
    }

    /// The memoized baseline thermal map and hotspots — the inputs every
    /// transform surrogate models itself on.
    pub(crate) fn baseline_thermal(&self) -> Result<(&ThermalMap, &[Hotspot]), FlowError> {
        let b = self.baseline()?;
        Ok((&b.tmap, &b.hotspots))
    }

    /// The screening surrogate of a strategy: the sparse power
    /// redistribution it would cause, modeled on the baseline mesh.
    /// Delegates to the strategy's ported transform (see
    /// [`Strategy::to_transform`] and
    /// [`crate::PlacementTransform::power_delta`]). Surrogates drive
    /// candidate *screening* only — [`FlowReport`] numbers always come
    /// from an exact run.
    ///
    /// # Errors
    ///
    /// Propagates baseline failures and strategy-parameter errors (e.g.
    /// ERI with no detected hotspots).
    pub fn strategy_power_delta(&self, strategy: Strategy) -> Result<PowerDelta, FlowError> {
        strategy.to_transform().power_delta(self)
    }

    /// The wrapper's hotspot-core detection thresholds, made
    /// resolution-aware: bin-count floors scale with the mesh so fine
    /// meshes do not let sliver hotspots through (the ≥ 28×28 failure).
    pub(crate) fn wrapper_hotspot_config(&self) -> HotspotConfig {
        HotspotConfig {
            threshold_fraction: self.config.wrapper.threshold_fraction,
            ..self.config.hotspot
        }
        .scaled_for_mesh(self.config.thermal.grid.nx, self.config.thermal.grid.ny)
    }

    /// Runs one strategy and reports before/after metrics.
    ///
    /// The strategy is dispatched through its ported
    /// [`PlacementTransform`] (see [`Strategy::to_transform`]); the
    /// baseline analysis is memoized and every thermal solve reuses the
    /// factorized model of its die geometry, so repeated runs (row
    /// bisection, budget search, sweeps) only pay for what changed.
    ///
    /// # Errors
    ///
    /// Propagates placement, thermal and strategy-parameter errors.
    pub fn run(&self, strategy: Strategy) -> Result<FlowReport, FlowError> {
        self.run_transform(&*strategy.to_transform())
    }

    /// Runs an arbitrary transform (composites and post-enum techniques
    /// included) and reports before/after metrics — the open-set sibling
    /// of [`Flow::run`]. Deterministic: re-running the same transform
    /// reproduces the report bit-exactly, which is what lets the Pareto
    /// optimizer promise that every frontier point matches a direct run.
    ///
    /// # Errors
    ///
    /// Propagates placement, thermal and transform-parameter errors.
    pub fn run_transform(
        &self,
        transform: &dyn PlacementTransform,
    ) -> Result<FlowReport, FlowError> {
        let ctx = TransformContext::new(self)?;
        let mut next = transform.apply(&ctx, &mut self.base_state()?)?;
        self.evaluate_state(&ctx, transform, &mut next)
    }

    /// The base placement as a transform state, carrying the memoized
    /// baseline analysis so no stage re-solves what is already known.
    pub(crate) fn base_state(&self) -> Result<TransformState, FlowError> {
        let baseline = self.baseline()?;
        Ok(TransformState::with_thermal(
            self.base.placed.floorplan.clone(),
            self.base.placed.placement.clone(),
            self.base.placed.regions.clone(),
            baseline.tmap.clone(),
            baseline.hotspots.clone(),
        ))
    }

    /// The second half of [`Flow::run_transform`]: the thermal solve,
    /// STA and HPWL of the state `transform` produced from the base
    /// state, reported under `transform`'s id. The after-map stays
    /// memoized on `state`, so a stage applied on top of it (the budget
    /// search wraps the uniform candidate's placement) solves nothing
    /// twice.
    pub(crate) fn evaluate_state(
        &self,
        ctx: &TransformContext,
        transform: &dyn PlacementTransform,
        state: &mut TransformState,
    ) -> Result<FlowReport, FlowError> {
        let baseline = self.baseline()?;
        let geometry = PlacedGeometry::new(self.netlist(), &state.floorplan, &state.placement);
        state.ensure_thermal_with(ctx, &geometry)?;
        let (tmap_after, _) = state.analysis()?;
        let mut timing_after = analyze_placed(
            self.netlist(),
            &geometry,
            Some(tmap_after),
            &self.config.timing,
        )?;
        // A transform seldom moves the critical path; when it did not,
        // the report holds the baseline's copy of it instead of a second.
        if timing_after.critical_cells == baseline.timing.critical_cells {
            timing_after.critical_cells = Arc::clone(&baseline.timing.critical_cells);
        }
        let hpwl_after = geometry.total_hpwl();
        let base_area = self.base.geometry.core().area();
        let new_area = geometry.core().area();
        Ok(FlowReport {
            strategy: transform.as_strategy().unwrap_or(Strategy::None),
            transform_id: transform.id(),
            base_area_um2: base_area,
            new_area_um2: new_area,
            area_overhead_pct: (new_area / base_area - 1.0) * 100.0,
            before: ThermalSummary::of(&baseline.tmap),
            after: ThermalSummary::of(tmap_after),
            hotspots: baseline.hotspots.clone(),
            timing_before: baseline.timing.clone(),
            timing_after,
            hpwl_before_um: baseline.hpwl_um,
            hpwl_after_um: hpwl_after,
            total_power_w: self.baseline_power_report()?.total_w(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_of_one_benchmark_share_one_bounded_netlist_memo() {
        let a = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let b = Flow::new(FlowConfig::concentrated_large().fast()).unwrap();
        assert!(std::ptr::eq(a.netlist(), b.netlist()), "same benchmark");
        assert!(
            Arc::ptr_eq(&a.bench, &b.bench),
            "one compiled program per benchmark"
        );
        let mut other = FlowConfig::scattered_small().fast();
        other.benchmark.name = "shared-netlist-other".to_string();
        let c = Flow::new(other).unwrap();
        assert!(
            !std::ptr::eq(a.netlist(), c.netlist()),
            "distinct benchmark"
        );
        for i in 0..NETLIST_CACHE_CAP + 2 {
            let mut config = BenchmarkConfig::small();
            config.name = format!("shared-netlist-{i}");
            shared_netlist(&config).unwrap();
            assert!(netlists().len() <= NETLIST_CACHE_CAP, "memo stays bounded");
        }
    }

    #[test]
    fn flows_of_one_benchmark_and_utilization_share_one_base_placement() {
        let a = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let b = Flow::new(FlowConfig::concentrated_large().fast()).unwrap();
        assert!(
            Arc::ptr_eq(&a.base, &b.base),
            "same benchmark and utilization: one placement and one geometry"
        );
        let placed = a.base_placement();
        assert_eq!(
            a.base.geometry,
            PlacedGeometry::new(a.netlist(), &placed.floorplan, &placed.placement),
            "the shared geometry is the base placement's"
        );
        let mut looser = FlowConfig::scattered_small().fast();
        looser.base_utilization = 0.7;
        let c = Flow::new(looser).unwrap();
        assert!(!Arc::ptr_eq(&a.base, &c.base), "distinct utilization");
        assert!(c.base.geometry.core().area() > a.base.geometry.core().area());
        let bench = shared_netlist(&BenchmarkConfig::small()).unwrap();
        for i in 0..PLACEMENT_CACHE_CAP + 2 {
            let utilization = 0.6 + 0.01 * i as f64;
            shared_base_placement(&BenchmarkConfig::small(), &bench.netlist, utilization).unwrap();
            assert!(
                placements().len() <= PLACEMENT_CACHE_CAP,
                "memo stays bounded"
            );
        }
    }

    #[test]
    fn repeated_runs_reuse_factorized_models_and_the_baseline_memo() {
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let strategy = Strategy::UniformSlack {
            area_overhead: 0.16,
        };
        let first = flow.run(strategy).unwrap();
        let after_first = flow.thermal_cache().stats();
        // Two distinct die outlines were solved: the base core (baseline)
        // and the slack-expanded core (after). One factorization each.
        assert!(first.new_area_um2 > first.base_area_um2);
        assert_eq!(after_first.misses, 2, "{after_first:?}");

        let second = flow.run(strategy).unwrap();
        let after_second = flow.thermal_cache().stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "a repeated run must not factorize again"
        );
        // Only the after-solve looks a model up; a re-solved baseline
        // would add a second lookup.
        assert_eq!(after_second.hits, after_first.hits + 1, "{after_second:?}");
        assert_eq!(first.after.peak_c.to_bits(), second.after.peak_c.to_bits());
    }
}
