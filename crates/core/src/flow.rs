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
use timan::{analyze_placed, check_placed, TimingConfig, TimingReport};

use crate::{
    detect_hotspots, CacheStats, DeltaCandidateEvaluator, EmptyRowInsertionTransform, FlowError,
    Hotspot, HotspotConfig, KeyedCache, PlacementTransform, PowerDelta, Strategy, TransformContext,
    TransformState, WrapperConfig,
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
    /// The summary [`ThermalMap::peak_bin`], [`ThermalMap::peak_rise`],
    /// [`ThermalMap::mean_rise`] and [`ThermalMap::gradient`] give, with
    /// the extremes found in one pass: the largest and smallest value
    /// under `total_cmp`, `NaN` skipped (and `NaN` for a grid of nothing
    /// else), as `Grid2d::max_bin` and `Grid2d::min_bin` pick them.
    fn of(map: &ThermalMap) -> Self {
        let extremes = map.grid().values().iter().filter(|v| !v.is_nan()).fold(
            None,
            |acc: Option<(f64, f64)>, &v| {
                Some(match acc {
                    None => (v, v),
                    Some((lo, hi)) => (
                        if v.total_cmp(&lo).is_lt() { v } else { lo },
                        if v.total_cmp(&hi).is_gt() { v } else { hi },
                    ),
                })
            },
        );
        let (min, max) = extremes.unwrap_or((f64::NAN, f64::NAN));
        ThermalSummary {
            peak_c: max,
            peak_rise: max - map.ambient_c(),
            mean_rise: map.mean_rise(),
            gradient: max - min,
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
    /// Detected hotspots (on the base placement), shared with the
    /// flow's baseline analysis and every other report of the flow.
    pub hotspots: Arc<[Hotspot]>,
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
        peak_reduction_pct(&self.before, &self.after)
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

/// The peak-rise reduction from `before` to `after`, in percent of
/// `before`'s rise (0 when `before` has none).
fn peak_reduction_pct(before: &ThermalSummary, after: &ThermalSummary) -> f64 {
    if before.peak_rise <= 0.0 {
        return 0.0;
    }
    (before.peak_rise - after.peak_rise) / before.peak_rise * 100.0
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

/// Bytes of factorized models a flow keeps, least recently used evicted
/// first, though never below its two most recent models. Every model of
/// one flow shares its configuration and mesh, so this is a count bound
/// sized by the mesh: a 128×128×9 spectral model holds ~1.2 MiB, nearly
/// all Thomas pivots, so a flow keeps 3 of them; at 40² it keeps ~34
/// (the 8 die geometries one flow of the bench's sweep grid touches fit);
/// at 256² and above it keeps 2 (a 1024² model holds ~72 MiB). The floor
/// of two lets a budget search's HW candidate hit the die its uniform
/// candidate just built while one other request runs on the same flow.
/// A budget request factorizes about one new die, its uniform/HW outline
/// (its ERI candidate comes from the flow's ERI memo once the row count
/// was run), which later requests rarely revisit, so more bytes would
/// only hold models nobody reads again.
pub const MODEL_CACHE_BYTES: usize = 4 << 20;

/// A cache of factorized thermal models, keyed by mesh and die outline.
/// Every [`Flow`] owns one, so each die geometry the flow's requests
/// place on is factorized once. Built on [`KeyedCache`], so
/// hit/miss/eviction counters are observable through
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
            models: KeyedCache::with_byte_bound(
                MODEL_CACHE_BYTES,
                2,
                FactorizedThermalModel::heap_bytes,
            ),
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

    /// Hit/miss/eviction counters of the underlying [`KeyedCache`], and
    /// the bytes its models hold.
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

/// Exact ERI reports a flow keeps, one per row count. A budget request
/// at 139 base rows names one of 37 row counts over the budgets 4–30 %
/// (`rows_for_budget`), so 64 entries hold every one a budget stream
/// revisits; a report shares its hotspots and usually its critical path
/// with the baseline, so an entry is a few hundred bytes.
const ERI_MEMO_CAP: usize = 64;

/// What an exact ERI run from the base state produced: its report, or
/// the detail of the deterministic "inapplicable" outcome
/// ([`FlowError::BadStrategy`]), which re-running would only repeat.
type EriOutcome = Result<FlowReport, String>;

/// The base placement's analysis — identical for every `Flow::run`, so
/// computed once and shared (including across sweep worker threads).
#[derive(Debug, Clone)]
struct BaselineAnalysis {
    /// The leakage-adjusted report, when the feedback loop changed the
    /// flow's own ([`Flow::power`]).
    power: Option<PowerReport>,
    pmap: Grid2d<f64>,
    /// Shared with every base state and delta evaluator of the flow.
    tmap: Arc<ThermalMap>,
    /// The summary of `tmap`, the `before` of every report.
    summary: ThermalSummary,
    hotspots: Arc<[Hotspot]>,
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
/// memoized across runs. Exact ERI runs from the base state are memoized
/// per row count (at most 64 of them), since the budget and
/// row-count searches revisit the few row counts a flow's budgets map
/// to. Every cache is behind a lock, so a `&Flow` can be shared by sweep
/// worker threads.
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
    /// Exact ERI runs from the base state, by row count.
    eri_runs: KeyedCache<usize, EriOutcome>,
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
            eri_runs: KeyedCache::with_capacity(ERI_MEMO_CAP),
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

    /// The flow's model cache handle (cheap to clone; its counters are
    /// the flow's).
    pub fn thermal_cache(&self) -> ThermalModelCache {
        self.models.clone()
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
    /// first [`Flow::run`]. The `coolserved` service primes each flow as
    /// it builds it, so the workers that share the flow never race to
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
        let hotspots = detect_hotspots(&tmap, &self.config.hotspot).into();
        let timing = analyze_placed(self.netlist(), geometry, Some(&tmap), &self.config.timing)?;
        Ok(BaselineAnalysis {
            power,
            pmap,
            summary: ThermalSummary::of(&tmap),
            tmap: Arc::new(tmap),
            hotspots,
            timing,
            hpwl_um: geometry.total_hpwl(self.netlist()),
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
        Ok((b.pmap.clone(), ThermalMap::clone(&b.tmap)))
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

    /// The memoized baseline hotspots (detected on the base placement),
    /// the one copy every [`FlowReport::hotspots`] of this flow shares.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn baseline_hotspots(&self) -> Result<&Arc<[Hotspot]>, FlowError> {
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
            Arc::clone(&b.tmap),
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
    /// bisection, budget search, sweeps) only pay for what changed. An
    /// ERI run is answered from the flow's per-row-count memo when that
    /// row count ran before (see [`Flow::eri_memo_stats`]).
    ///
    /// # Errors
    ///
    /// Propagates placement, thermal and strategy-parameter errors.
    pub fn run(&self, strategy: Strategy) -> Result<FlowReport, FlowError> {
        match strategy {
            Strategy::EmptyRowInsertion { rows } => self.run_eri(rows),
            _ => self.run_transform(&*strategy.to_transform()),
        }
    }

    /// The exact ERI run of `rows` rows from the base state, computed
    /// once per row count and then cloned from the flow's memo. A report
    /// is a pure function of the flow and the row count
    /// ([`Flow::run_transform`] is bit-reproducible), so a memo hit is
    /// the report a fresh run computes. Two callers of one row count run
    /// it once; the second waits for the first. The "inapplicable"
    /// outcome ([`FlowError::BadStrategy`]) is memoized too; any other
    /// error is not.
    ///
    /// # Errors
    ///
    /// As [`Flow::run_transform`] of [`EmptyRowInsertionTransform`].
    pub(crate) fn run_eri(&self, rows: usize) -> Result<FlowReport, FlowError> {
        let outcome = self.eri_runs.get_or_compute(rows, || {
            match self.run_transform(&EmptyRowInsertionTransform { rows }) {
                Ok(report) => Ok(Ok(report)),
                Err(FlowError::BadStrategy { detail }) => Ok(Err(detail)),
                Err(e) => Err(e),
            }
        })?;
        match &*outcome {
            Ok(report) => Ok(report.clone()),
            Err(detail) => Err(FlowError::BadStrategy {
                detail: detail.clone(),
            }),
        }
    }

    /// Counters of the flow's memo of exact ERI runs: a hit is a run
    /// served from the memo, an insertion a run computed, a wait a
    /// caller that found its row count being computed by another.
    pub fn eri_memo_stats(&self) -> CacheStats {
        self.eri_runs.stats()
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
    /// The state shares the baseline's thermal map and hotspots; only
    /// the placement is copied.
    pub(crate) fn base_state(&self) -> Result<TransformState, FlowError> {
        let baseline = self.baseline()?;
        Ok(TransformState::with_thermal(
            self.base.placed.floorplan.clone(),
            self.base.placed.placement.clone(),
            self.base.placed.regions.clone(),
            Arc::clone(&baseline.tmap),
            Arc::clone(&baseline.hotspots),
        ))
    }

    /// The second half of [`Flow::run_transform`]: the evaluation of
    /// the state `transform` produced from the base state, reported under
    /// `transform`'s id — [`Flow::score_state`], then
    /// [`Flow::finish_state`]. The after-map stays memoized on `state`, so
    /// a stage applied on top of it (the budget search wraps the uniform
    /// candidate's placement) solves nothing twice.
    pub(crate) fn evaluate_state(
        &self,
        ctx: &TransformContext,
        transform: &dyn PlacementTransform,
        state: &mut TransformState,
    ) -> Result<FlowReport, FlowError> {
        let scored = self.score_state(ctx, state)?;
        self.finish_state(transform, state, scored)
    }

    /// The scoring half of [`Flow::evaluate_state`]: the state's
    /// geometry, thermal solve, area and thermal summary — everything a
    /// report's [`FlowReport::area_overhead_pct`] and
    /// [`FlowReport::reduction_pct`] read. The state must be fully
    /// placed, as the finishing half's timing analysis requires; that is
    /// checked here, so a candidate that would fail there fails now,
    /// with the same error.
    pub(crate) fn score_state(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<ScoredState, FlowError> {
        let baseline = self.baseline()?;
        let geometry = PlacedGeometry::new(self.netlist(), &state.floorplan, &state.placement);
        state.ensure_thermal_with(ctx, &geometry)?;
        let after = ThermalSummary::of(state.thermal_map()?);
        check_placed(self.netlist(), &geometry)?;
        let base_area_um2 = self.base.geometry.core().area();
        let new_area_um2 = geometry.core().area();
        Ok(ScoredState {
            geometry,
            base_area_um2,
            new_area_um2,
            area_overhead_pct: (new_area_um2 / base_area_um2 - 1.0) * 100.0,
            before: baseline.summary,
            after,
        })
    }

    /// The finishing half of [`Flow::evaluate_state`]: STA and total
    /// wirelength of `state`, which `scored` scored, reported under
    /// `transform`'s id.
    pub(crate) fn finish_state(
        &self,
        transform: &dyn PlacementTransform,
        state: &TransformState,
        scored: ScoredState,
    ) -> Result<FlowReport, FlowError> {
        let baseline = self.baseline()?;
        let geometry = &scored.geometry;
        let mut timing_after = analyze_placed(
            self.netlist(),
            geometry,
            Some(state.thermal_map()?),
            &self.config.timing,
        )?;
        // A transform seldom moves the critical path; when it did not,
        // the report holds the baseline's copy of it instead of a second.
        if timing_after.critical_cells == baseline.timing.critical_cells {
            timing_after.critical_cells = Arc::clone(&baseline.timing.critical_cells);
        }
        Ok(FlowReport {
            strategy: transform.as_strategy().unwrap_or(Strategy::None),
            transform_id: transform.id(),
            base_area_um2: scored.base_area_um2,
            new_area_um2: scored.new_area_um2,
            area_overhead_pct: scored.area_overhead_pct,
            before: scored.before,
            after: scored.after,
            hotspots: Arc::clone(&baseline.hotspots),
            timing_before: baseline.timing.clone(),
            timing_after,
            hpwl_before_um: baseline.hpwl_um,
            hpwl_after_um: geometry.total_hpwl(self.netlist()),
            total_power_w: self.baseline_power_report()?.total_w(),
        })
    }
}

/// A placed state scored on its thermal answer ([`Flow::score_state`]):
/// the report's area and thermal-summary fields, and the geometry that
/// [`Flow::finish_state`] times and measures.
#[derive(Debug)]
pub(crate) struct ScoredState {
    geometry: PlacedGeometry,
    base_area_um2: f64,
    new_area_um2: f64,
    /// As [`FlowReport::area_overhead_pct`] will read.
    pub(crate) area_overhead_pct: f64,
    before: ThermalSummary,
    after: ThermalSummary,
}

impl ScoredState {
    /// As [`FlowReport::reduction_pct`] will read.
    pub(crate) fn reduction_pct(&self) -> f64 {
        peak_reduction_pct(&self.before, &self.after)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_summaries_equal_the_map_accessors_bit_for_bit() {
        let die = geom::Rect::new(0.0, 0.0, 30.0, 20.0);
        let nan = f64::NAN;
        let grids = [
            vec![31.5, 25.0, 47.25, 25.0, 47.25, 26.0],
            vec![0.0, -0.0, 0.0, -0.0, 0.0, -0.0],
            vec![-0.0, 0.0, -0.0, 0.0, -0.0, 0.0],
            vec![nan, 40.0, nan, 12.5, f64::INFINITY, 30.0],
            vec![nan, f64::NEG_INFINITY, nan, 25.0, 25.0, nan],
            vec![nan; 6],
        ];
        for values in grids {
            let map = ThermalMap::new(geom::Grid2d::from_values(3, 2, die, values), 25.0);
            let summary = ThermalSummary::of(&map);
            let bits = |v: [f64; 4]| v.map(f64::to_bits);
            assert_eq!(
                bits([
                    summary.peak_c,
                    summary.peak_rise,
                    summary.mean_rise,
                    summary.gradient
                ]),
                bits([
                    map.peak_bin().1,
                    map.peak_rise(),
                    map.mean_rise(),
                    map.gradient()
                ]),
                "{map:?}"
            );
        }
    }

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
    fn base_states_share_the_baseline_thermal_map() {
        // Every exact run starts from a base state; it carries the
        // baseline's thermal map and hotspots without copying either.
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let (tmap, hotspots) = flow.baseline_thermal().unwrap();
        for _ in 0..2 {
            let state = flow.base_state().unwrap();
            let ctx = TransformContext::new(&flow).unwrap();
            let map = state.thermal_map().unwrap();
            let spots = state.hotspots(&ctx).unwrap();
            assert!(std::ptr::eq(map, tmap), "the base state copied the map");
            assert!(
                std::ptr::eq(spots, hotspots),
                "the base state copied the hotspots"
            );
        }
        let evaluator = flow.delta_evaluator().unwrap();
        assert!(std::ptr::eq(
            crate::CandidateEvaluator::baseline(&evaluator),
            tmap
        ));
    }

    #[test]
    fn scoring_refuses_a_state_timing_would_refuse_with_its_error() {
        // The budget search times only its winner, so a candidate with
        // an unplaced cell must fail where it is scored.
        let flow = Flow::new(FlowConfig::scattered_small().fast()).unwrap();
        let ctx = TransformContext::new(&flow).unwrap();
        let mut state = flow.base_state().unwrap();
        let order = flow.netlist().comb_order();
        for cell in [order[order.len() / 2], order[0]] {
            state.placement.remove(cell);
        }
        let err = flow.score_state(&ctx, &mut state).unwrap_err();
        let geometry = PlacedGeometry::new(flow.netlist(), &state.floorplan, &state.placement);
        let tmap = state.thermal_map().unwrap();
        let timed =
            analyze_placed(flow.netlist(), &geometry, Some(tmap), &flow.config.timing).unwrap_err();
        assert!(matches!(err, FlowError::Timing(_)), "{err}");
        assert_eq!(err.to_string(), FlowError::from(timed).to_string());
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
