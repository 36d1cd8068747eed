//! The end-to-end evaluation flow of the paper's Fig. 2: synthesis
//! (benchmark generation) → logic simulation → power estimation →
//! placement → thermal simulation → **area management** → re-analysis.

use std::sync::{Arc, OnceLock};

use arithgen::{build_benchmark, BenchmarkConfig, UnitRole};
use geom::{Grid2d, Rect};
use logicsim::{Activity, Simulator, Workload};
use netlist::Netlist;
use placement::{total_hpwl, Floorplan, Placement, PlacementResult, Placer, PlacerConfig};
use powerest::{estimate_power, power_map, PowerConfig, PowerReport};
use thermalsim::{FactorizedThermalModel, ThermalConfig, ThermalMap};
use timan::{analyze, TimingConfig, TimingReport};

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

/// The benchmark netlist for `config`, built once per process and shared
/// by every [`Flow`] that names the same configuration.
/// [`build_benchmark`] is a pure function of its configuration and a
/// [`Netlist`] is immutable once built, so sharing cannot change an
/// answer.
fn shared_netlist(config: &BenchmarkConfig) -> Result<Arc<Netlist>, FlowError> {
    netlists().get_or_compute(config.clone(), || {
        build_benchmark(config).map_err(FlowError::from)
    })
}

fn netlists() -> &'static KeyedCache<BenchmarkConfig, Netlist> {
    static NETLISTS: OnceLock<KeyedCache<BenchmarkConfig, Netlist>> = OnceLock::new();
    NETLISTS.get_or_init(|| KeyedCache::with_capacity(NETLIST_CACHE_CAP))
}

/// Factorized models held per cache; a sweep touches a handful of die
/// geometries per mesh, so a small bound is plenty and keeps memory flat.
const MODEL_CACHE_CAP: usize = 64;

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
        // factorize concurrently; a rare double build of the same key
        // just means the loser's model is dropped in favour of the
        // cached one.
        self.models.get_or_compute(model_key(config, die), || {
            FactorizedThermalModel::build(config, die).map_err(FlowError::from)
        })
    }
}

/// The base placement's analysis — identical for every `Flow::run`, so
/// computed once and shared (including across sweep worker threads).
#[derive(Debug, Clone)]
struct BaselineAnalysis {
    power: PowerReport,
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
/// [`BenchmarkConfig`] holds one process-wide `Arc<Netlist>`, built on
/// first use and kept in a small bounded memo.
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
    netlist: Arc<Netlist>,
    activity: Activity,
    base: PlacementResult,
    /// Per-cell power computed once on the base placement and held fixed
    /// across transformations — the paper's premise: the techniques reduce
    /// power *density* "while keeping (cell) power consumption unchanged".
    power: PowerReport,
    models: ThermalModelCache,
    baseline: OnceLock<BaselineAnalysis>,
}

impl Flow {
    /// Fetches the shared benchmark netlist (building it on first use),
    /// simulates the workload and places the base design.
    ///
    /// # Errors
    ///
    /// Propagates netlist generation and placement errors.
    pub fn new(config: FlowConfig) -> Result<Self, FlowError> {
        let netlist = shared_netlist(&config.benchmark)?;
        let active: Vec<netlist::UnitId> =
            config.workload.active.iter().map(|r| r.unit_id()).collect();
        let workload =
            Workload::with_active_units(&netlist, &active, config.workload.toggle_probability);
        let mut sim = Simulator::new(&netlist);
        sim.run_workload(&workload, config.warmup_cycles, config.seed);
        sim.reset_activity();
        sim.run_workload(&workload, config.cycles, config.seed.wrapping_add(1));
        let activity = sim.activity();
        let base =
            Placer::new(PlacerConfig::with_utilization(config.base_utilization)).place(&netlist)?;
        let power = estimate_power(
            &netlist,
            &activity,
            Some((&base.floorplan, &base.placement)),
            None,
            &config.power,
        );
        Ok(Flow {
            config,
            netlist,
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
        &self.netlist
    }

    /// The base placement the overhead is measured against.
    pub fn base_placement(&self) -> &PlacementResult {
        &self.base
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
        let nx = self.config.thermal.grid.nx;
        let ny = self.config.thermal.grid.ny;
        let model = self.thermal_model(floorplan.core())?;
        let mut report = self.power.clone();
        let mut pmap = power_map(&self.netlist, floorplan, placement, &report, nx, ny);
        let mut tmap = model.solve(&pmap)?;
        for _ in 0..self.config.leakage_feedback_iters {
            let temps = self.cell_temps(floorplan, placement, &tmap);
            report = report.with_leakage_at(&self.netlist, &self.config.power, &temps);
            pmap = power_map(&self.netlist, floorplan, placement, &report, nx, ny);
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
        let fp = &self.base.floorplan;
        let pl = &self.base.placement;
        let (power, pmap, tmap) = self.analyze_placement(fp, pl)?;
        let hotspots = detect_hotspots(&tmap, &self.config.hotspot);
        let timing = analyze(&self.netlist, fp, pl, Some(&tmap), &self.config.timing)?;
        let hpwl_um = total_hpwl(&self.netlist, fp, pl);
        Ok(BaselineAnalysis {
            power,
            pmap,
            tmap,
            hotspots,
            timing,
            hpwl_um,
        })
    }

    /// Per-cell temperatures sampled from a thermal map.
    pub fn cell_temps(
        &self,
        floorplan: &Floorplan,
        placement: &Placement,
        map: &ThermalMap,
    ) -> Vec<f64> {
        self.netlist
            .cells()
            .map(|(id, _)| {
                placement
                    .cell_center(&self.netlist, floorplan, id)
                    .and_then(|c| map.grid().bin_of(c.x, c.y))
                    .map(|(ix, iy)| *map.grid().get(ix, iy))
                    .unwrap_or(map.ambient_c())
            })
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
        Ok(&self.baseline()?.power)
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
        let model = self.thermal_model(self.base.floorplan.core())?;
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

    /// The screening surrogate of an arbitrary transform — the open-set
    /// sibling of [`Flow::strategy_power_delta`].
    ///
    /// # Errors
    ///
    /// Propagates baseline failures and transform-parameter errors.
    pub fn transform_power_delta(
        &self,
        transform: &dyn PlacementTransform,
    ) -> Result<PowerDelta, FlowError> {
        transform.power_delta(self)
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
        let base_fp = &self.base.floorplan;
        let base_pl = &self.base.placement;
        let baseline = self.baseline()?;
        let power_before = &baseline.power;
        let tmap_before = &baseline.tmap;
        let hotspots = baseline.hotspots.clone();
        let timing_before = baseline.timing.clone();
        let hpwl_before = baseline.hpwl_um;

        // Apply the transform (pipeline stages included) on top of the
        // base state; the baseline's thermal analysis is handed over so
        // no stage re-solves what is already known.
        let ctx = TransformContext::new(self)?;
        let mut base_state = TransformState::with_thermal(
            base_fp.clone(),
            base_pl.clone(),
            self.base.regions.clone(),
            tmap_before.clone(),
            hotspots.clone(),
        );
        let next = transform.apply(&ctx, &mut base_state)?;
        let (new_fp, new_pl) = (next.floorplan, next.placement);

        let (_, _, tmap_after) = self.analyze_placement(&new_fp, &new_pl)?;
        let timing_after = analyze(
            &self.netlist,
            &new_fp,
            &new_pl,
            Some(&tmap_after),
            &self.config.timing,
        )?;
        let hpwl_after = total_hpwl(&self.netlist, &new_fp, &new_pl);
        let base_area = base_fp.core().area();
        let new_area = new_fp.core().area();
        Ok(FlowReport {
            strategy: transform.as_strategy().unwrap_or(Strategy::None),
            transform_id: transform.id(),
            base_area_um2: base_area,
            new_area_um2: new_area,
            area_overhead_pct: (new_area / base_area - 1.0) * 100.0,
            before: ThermalSummary::of(tmap_before),
            after: ThermalSummary::of(&tmap_after),
            hotspots,
            timing_before,
            timing_after,
            hpwl_before_um: hpwl_before,
            hpwl_after_um: hpwl_after,
            total_power_w: power_before.total_w(),
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
