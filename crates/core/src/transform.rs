//! The open strategy-transform engine.
//!
//! The paper compares three fixed area-for-temperature techniques; this
//! module turns that closed list into an open, composable space. A
//! [`PlacementTransform`] is anything that can
//!
//! * **apply** itself on top of a [`TransformState`] (a floorplan +
//!   placement, with lazily-computed thermal analysis), producing the
//!   next state;
//! * predict its fractional **area overhead** without being applied
//!   ([`PlacementTransform::planned_overhead`]), so optimization loops
//!   can discard over-budget candidates before paying an exact run;
//! * produce the **screening surrogate** used by
//!   [`crate::CandidateEvaluator`]s: a map→map power redistribution on
//!   the baseline mesh ([`PlacementTransform::surrogate_power`]), which
//!   composes through pipelines;
//! * name itself with a **stable id** that round-trips through
//!   [`TransformRegistry::parse`] — the serialization facade the bench
//!   JSON schema records.
//!
//! The paper's three techniques are ported onto the trait
//! ([`UniformSlackTransform`], [`EmptyRowInsertionTransform`],
//! [`HotspotWrapperTransform`]); the [`Strategy`](crate::Strategy) enum
//! remains as a thin compatibility facade over them
//! ([`crate::Strategy::to_transform`]). On top of the ported set:
//!
//! * [`CompositeTransform`] — an ordered pipeline of stages with an
//!   explicit per-stage budget split, generalizing HW's implicit
//!   "uniform-then-wrap" into arbitrary stacks (ERI→wrap, …);
//! * [`WrapHotspotsTransform`] / [`SpreadFillersTransform`] — the
//!   zero-overhead stages those stacks are built from;
//! * [`TargetedRowInsertionTransform`] — temperature-profile-driven row
//!   insertion: rows land on the hottest distinct row gaps of the whole
//!   map instead of interleaving uniformly through detected hotspots;
//! * [`HotBinSpreadTransform`] — uniform slack whose whitespace is then
//!   pulled laterally into the hot bins of each row (filler spreading on
//!   top of [`placement::fill_whitespace`]).
//!
//! [`TransformRegistry::standard`] bundles every built-in technique as a
//! budget-parameterized factory — the search space a frontier goal
//! ([`crate::OptimizeGoal::Frontier`]) screens.

use geom::{Grid2d, Rect};
use placement::{
    fill_whitespace, respread_row, weighted_row_gaps, Floorplan, Placement, PlacerConfig,
};
use powerest::PowerReport;
use thermalsim::ThermalMap;

use crate::{
    detect_hotspots, empty_row_insertion, eri_insertion_positions, eri_surrogate_map,
    hotspot_wrapper, split_hotspots_by_regions, targeted_insertion_positions,
    uniform_surrogate_map, wrap_regions, wrap_surrogate_map, Flow, FlowError, Hotspot, PowerDelta,
    Strategy,
};

/// The environment a transform applies in: the owning [`Flow`] and the
/// run's baseline power report (leakage-adjusted when the flow's
/// feedback loop is on — what cell-power-ranking stages must see).
#[derive(Debug)]
pub struct TransformContext<'a> {
    flow: &'a Flow,
    power: PowerReport,
}

impl<'a> TransformContext<'a> {
    /// A context over `flow` with the memoized baseline's power report.
    ///
    /// # Errors
    ///
    /// Propagates baseline-solve failures.
    pub fn new(flow: &'a Flow) -> Result<Self, FlowError> {
        let power = flow.baseline_power_report()?.clone();
        Ok(TransformContext { flow, power })
    }

    /// The flow the transforms run against.
    pub fn flow(&self) -> &'a Flow {
        self.flow
    }

    /// The run's baseline power report — leakage-adjusted when
    /// `leakage_feedback_iters > 0`, exactly what the enum-era HW arm
    /// ranked hot/cold cells by.
    pub fn power_report(&self) -> &PowerReport {
        &self.power
    }

    /// Solves the thermal field of an intermediate placement against the
    /// flow's cached factorization of its geometry.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn analyze(
        &self,
        floorplan: &Floorplan,
        placement: &Placement,
    ) -> Result<ThermalMap, FlowError> {
        let (_, _, tmap) = self.flow.analyze_placement(floorplan, placement)?;
        Ok(tmap)
    }
}

/// A placement with its (lazily computed) thermal analysis — what one
/// transform stage hands to the next.
#[derive(Debug, Clone)]
pub struct TransformState {
    /// The current floorplan.
    pub floorplan: Floorplan,
    /// The current placement.
    pub placement: Placement,
    /// Per-unit regions of the current geometry (approximate after
    /// row-insertion stages; used by the wrap stage to split merged
    /// thermal blobs per hotspot source).
    pub regions: Vec<Rect>,
    thermal: Option<(ThermalMap, Vec<Hotspot>)>,
}

impl TransformState {
    /// A state with no thermal analysis yet (computed on first use).
    pub fn new(floorplan: Floorplan, placement: Placement, regions: Vec<Rect>) -> Self {
        TransformState {
            floorplan,
            placement,
            regions,
            thermal: None,
        }
    }

    /// A state whose thermal analysis is already known (the flow's
    /// memoized baseline) — no solve will be spent on it.
    pub fn with_thermal(
        floorplan: Floorplan,
        placement: Placement,
        regions: Vec<Rect>,
        tmap: ThermalMap,
        hotspots: Vec<Hotspot>,
    ) -> Self {
        TransformState {
            floorplan,
            placement,
            regions,
            thermal: Some((tmap, hotspots)),
        }
    }

    /// Computes (and memoizes) the state's thermal map and hotspots if
    /// they are not known yet.
    ///
    /// # Errors
    ///
    /// Propagates thermal-solve failures.
    pub fn ensure_thermal(&mut self, ctx: &TransformContext) -> Result<(), FlowError> {
        if self.thermal.is_none() {
            let tmap = ctx.analyze(&self.floorplan, &self.placement)?;
            let hotspots = detect_hotspots(&tmap, &ctx.flow().config().hotspot);
            self.thermal = Some((tmap, hotspots));
        }
        Ok(())
    }

    /// The state's thermal map, if computed (see
    /// [`TransformState::ensure_thermal`]).
    pub fn tmap(&self) -> Option<&ThermalMap> {
        self.thermal.as_ref().map(|(t, _)| t)
    }

    /// The state's detected hotspots, if computed.
    pub fn hotspots(&self) -> Option<&[Hotspot]> {
        self.thermal.as_ref().map(|(_, h)| h.as_slice())
    }

    /// The memoized thermal analysis, as an error (not a panic) when a
    /// stage asks before [`TransformState::ensure_thermal`] ran — a bug
    /// in the transform, surfaced as [`FlowError::Internal`] so a batch
    /// degrades to one failed request instead of crashing the process.
    pub fn analysis(&self) -> Result<(&ThermalMap, &[Hotspot]), FlowError> {
        self.thermal
            .as_ref()
            .map(|(t, h)| (t, h.as_slice()))
            .ok_or_else(|| FlowError::Internal {
                detail: "transform stage read the thermal analysis before ensure_thermal"
                    .to_string(),
            })
    }
}

/// An open placement transform: the unit of the strategy engine.
///
/// Implementations must be cheap to construct (all heavy work happens in
/// [`PlacementTransform::apply`]) and deterministic — the optimization
/// loops rely on a re-run reproducing the reported numbers bit-exactly.
pub trait PlacementTransform: std::fmt::Debug + Send + Sync {
    /// Stable machine-readable id, round-tripping through
    /// [`TransformRegistry::parse`] (e.g. `eri:12`, `uniform:0.16`,
    /// `composite(eri:12+wrap)`).
    fn id(&self) -> String;

    /// The technique family (`"eri"`, `"uniform"`, `"composite"`, …) —
    /// what frontier reports group by.
    fn kind(&self) -> &'static str;

    /// The legacy [`Strategy`] this transform is the port of, if any —
    /// the compatibility facade [`crate::FlowReport`] keeps carrying.
    fn as_strategy(&self) -> Option<Strategy> {
        None
    }

    /// Predicted fractional area overhead vs the **base** placement
    /// (row-quantized where the technique is; composites compound their
    /// stages). This is what budget screening trusts to discard
    /// knowably-over-budget candidates before any exact run.
    ///
    /// # Errors
    ///
    /// Propagates flow/baseline failures.
    fn planned_overhead(&self, flow: &Flow) -> Result<f64, FlowError>;

    /// Applies the transform on top of `state`, returning the next
    /// state's geometry. `state` is mutable only so its lazily-computed
    /// thermal analysis can be memoized.
    ///
    /// # Errors
    ///
    /// Propagates placement, thermal and parameter errors.
    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError>;

    /// The screening surrogate as a map→map power redistribution **on
    /// the baseline mesh**: `power` is the current surrogate map (the
    /// baseline map, or an upstream stage's output inside a composite);
    /// the result is the map after this transform. Geometry inputs
    /// (rows, hotspots, wrap regions) always come from the flow's
    /// memoized baseline — surrogates drive candidate *screening* only,
    /// reported numbers come from exact runs.
    ///
    /// # Errors
    ///
    /// Propagates baseline failures and parameter errors.
    fn surrogate_power(&self, flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError>;

    /// The sparse [`PowerDelta`] between the flow's baseline power map
    /// and this transform's surrogate — what a
    /// [`crate::CandidateEvaluator`] prices.
    ///
    /// # Errors
    ///
    /// Propagates baseline failures and parameter errors.
    fn power_delta(&self, flow: &Flow) -> Result<PowerDelta, FlowError> {
        let base = flow.baseline_power_map()?;
        Ok(PowerDelta::between(
            base,
            &self.surrogate_power(flow, base)?,
            1e-15,
        ))
    }
}

/// Identity transform (the port of [`Strategy::None`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoneTransform;

impl PlacementTransform for NoneTransform {
    fn id(&self) -> String {
        "none".to_string()
    }

    fn kind(&self) -> &'static str {
        "none"
    }

    fn as_strategy(&self) -> Option<Strategy> {
        Some(Strategy::None)
    }

    fn planned_overhead(&self, _flow: &Flow) -> Result<f64, FlowError> {
        Ok(0.0)
    }

    fn apply(
        &self,
        _ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        Ok(state.clone())
    }

    fn surrogate_power(&self, _flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        Ok(power.clone())
    }

    fn power_delta(&self, _flow: &Flow) -> Result<PowerDelta, FlowError> {
        Ok(PowerDelta::default())
    }
}

/// Formats a fractional overhead the way transform ids spell it:
/// Rust's shortest-round-trip `Display` for `f64`, so
/// `parse(t.id())` reconstructs the transform *bit-exactly* — the
/// foundation of the frontier's "every point matches a direct run"
/// guarantee even for budgets like `1.0 / 3.0`.
fn fmt_overhead(area_overhead: f64) -> String {
    format!("{area_overhead}")
}

/// The paper's **Default** ported to the engine: re-place at a relaxed
/// utilization so `area_overhead` of extra core area spreads uniformly.
///
/// Mid-pipeline (the state is already grown) the relaxation compounds on
/// top of the state's existing overhead; note that re-placing discards
/// the incoming stage's cell arrangement, so uniform slack belongs at
/// the *head* of a composite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformSlackTransform {
    /// Extra core area as a fraction of the incoming state's area.
    pub area_overhead: f64,
}

impl PlacementTransform for UniformSlackTransform {
    fn id(&self) -> String {
        format!("uniform:{}", fmt_overhead(self.area_overhead))
    }

    fn kind(&self) -> &'static str {
        "uniform"
    }

    fn as_strategy(&self) -> Option<Strategy> {
        Some(Strategy::UniformSlack {
            area_overhead: self.area_overhead,
        })
    }

    fn planned_overhead(&self, _flow: &Flow) -> Result<f64, FlowError> {
        Ok(self.area_overhead)
    }

    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        let flow = ctx.flow();
        // Compound the state's existing growth so the relaxation is
        // relative to the incoming area; from the base state the factor
        // is exactly 1 and this reduces to the paper's formula.
        let base_area = flow.base_placement().floorplan.core().area();
        let factor = state.floorplan.core().area() / base_area;
        let combined = (1.0 + self.area_overhead) * factor - 1.0;
        let result = crate::uniform_slack(
            flow.netlist(),
            &PlacerConfig::with_utilization(flow.config().base_utilization),
            combined,
        )?;
        Ok(TransformState::new(
            result.floorplan,
            result.placement,
            result.regions,
        ))
    }

    fn surrogate_power(&self, _flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        Ok(uniform_surrogate_map(power, self.area_overhead))
    }
}

/// **ERI** ported to the engine: insert empty rows interleaved with the
/// state's hotspot rows (see [`empty_row_insertion`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyRowInsertionTransform {
    /// Number of empty rows to insert.
    pub rows: usize,
}

/// Shifts per-unit region rectangles through a row insertion: every y
/// above an inserted row moves up by one pitch per insertion below it.
/// Approximate (region edges need not be row-aligned), but the regions
/// are only used to split thermal blobs per hotspot source.
fn remap_regions_for_rows(
    regions: &[Rect],
    floorplan: &Floorplan,
    positions: &[usize],
) -> Vec<Rect> {
    let h = floorplan.row_height();
    let lly = floorplan.core().lly;
    let n = floorplan.num_rows();
    let map_y = |y: f64, top_edge: bool| {
        let rel = (y - lly) / h - if top_edge { 1e-9 } else { 0.0 };
        let row = (rel.floor().max(0.0) as usize).min(n.saturating_sub(1));
        let shift = positions.iter().filter(|&&p| p <= row).count();
        y + shift as f64 * h
    };
    regions
        .iter()
        .map(|g| Rect::new(g.llx, map_y(g.lly, false), g.urx, map_y(g.ury, true)))
        .collect()
}

impl PlacementTransform for EmptyRowInsertionTransform {
    fn id(&self) -> String {
        format!("eri:{}", self.rows)
    }

    fn kind(&self) -> &'static str {
        "eri"
    }

    fn as_strategy(&self) -> Option<Strategy> {
        Some(Strategy::EmptyRowInsertion { rows: self.rows })
    }

    fn planned_overhead(&self, flow: &Flow) -> Result<f64, FlowError> {
        let rows0 = flow.base_placement().floorplan.num_rows();
        Ok(self.rows as f64 / rows0.max(1) as f64)
    }

    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        state.ensure_thermal(ctx)?;
        let (tmap, hotspots) = state.analysis()?;
        let (fp, pl, report) = empty_row_insertion(
            ctx.flow().netlist(),
            &state.floorplan,
            &state.placement,
            tmap,
            hotspots,
            self.rows,
        )?;
        let regions = remap_regions_for_rows(
            &state.regions,
            &state.floorplan,
            &report.insertion_positions,
        );
        Ok(TransformState::new(fp, pl, regions))
    }

    fn surrogate_power(&self, flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        let (tmap, hotspots) = flow.baseline_thermal()?;
        let fp = &flow.base_placement().floorplan;
        let positions = eri_insertion_positions(fp, tmap, hotspots, self.rows)?;
        Ok(eri_surrogate_map(power, fp, &positions))
    }
}

/// *New technique*: temperature-profile-driven **targeted** row
/// insertion. Where ERI interleaves rows through detected hotspot bands
/// (wrapping around early), this ranks every row gap by the peak
/// temperature of its adjacent rows over the whole map and fills the
/// hottest *distinct* gaps first — no hotspot detection in the loop, so
/// it also works on diffuse profiles ERI rejects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetedRowInsertionTransform {
    /// Number of empty rows to insert.
    pub rows: usize,
}

impl PlacementTransform for TargetedRowInsertionTransform {
    fn id(&self) -> String {
        format!("targeted-eri:{}", self.rows)
    }

    fn kind(&self) -> &'static str {
        "targeted-eri"
    }

    fn planned_overhead(&self, flow: &Flow) -> Result<f64, FlowError> {
        let rows0 = flow.base_placement().floorplan.num_rows();
        Ok(self.rows as f64 / rows0.max(1) as f64)
    }

    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        state.ensure_thermal(ctx)?;
        let (tmap, _) = state.analysis()?;
        let positions = targeted_insertion_positions(&state.floorplan, tmap, self.rows)?;
        let (fp, mapping) = state.floorplan.with_rows_inserted(&positions);
        let mut placement = state.placement.remap_rows(&fp, &mapping);
        fill_whitespace(ctx.flow().netlist(), &fp, &mut placement)?;
        let regions = remap_regions_for_rows(&state.regions, &state.floorplan, &positions);
        Ok(TransformState::new(fp, placement, regions))
    }

    fn surrogate_power(&self, flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        let (tmap, _) = flow.baseline_thermal()?;
        let fp = &flow.base_placement().floorplan;
        let positions = targeted_insertion_positions(fp, tmap, self.rows)?;
        Ok(eri_surrogate_map(power, fp, &positions))
    }
}

/// The wrap *stage*: detect the hotspot cores of the incoming state,
/// ring them, evict cold cells and re-spread the hot ones — the second
/// half of the paper's HW, usable after any area-spending stage. Spends
/// no area itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrapHotspotsTransform;

impl WrapHotspotsTransform {
    /// The wrap regions the stage would target on the flow's baseline —
    /// the geometry its screening surrogate pools power over.
    fn baseline_regions(flow: &Flow) -> Result<Vec<Rect>, FlowError> {
        let (tmap, _) = flow.baseline_thermal()?;
        let hotspot_cfg = flow.wrapper_hotspot_config();
        let blobs = detect_hotspots(tmap, &hotspot_cfg);
        let spots = split_hotspots_by_regions(
            tmap,
            &blobs,
            &flow.base_placement().regions,
            hotspot_cfg.min_bins,
        );
        Ok(wrap_regions(
            &spots,
            &flow.base_placement().floorplan,
            &flow.config().wrapper,
        ))
    }
}

impl PlacementTransform for WrapHotspotsTransform {
    fn id(&self) -> String {
        "wrap".to_string()
    }

    fn kind(&self) -> &'static str {
        "wrap"
    }

    fn planned_overhead(&self, _flow: &Flow) -> Result<f64, FlowError> {
        Ok(0.0)
    }

    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        let flow = ctx.flow();
        state.ensure_thermal(ctx)?;
        let (tmap, _) = state.analysis()?;
        // Resolution-aware thresholds, as in the enum-era HW arm: a
        // fixed min_bins lets sliver hotspots through on fine meshes.
        let hotspot_cfg = flow.wrapper_hotspot_config();
        let blobs = detect_hotspots(tmap, &hotspot_cfg);
        let spots = split_hotspots_by_regions(tmap, &blobs, &state.regions, hotspot_cfg.min_bins);
        let regions = wrap_regions(&spots, &state.floorplan, &flow.config().wrapper);
        let mut placement = state.placement.clone();
        hotspot_wrapper(
            flow.netlist(),
            &state.floorplan,
            &mut placement,
            &regions,
            ctx.power_report(),
            &flow.config().wrapper,
        )?;
        Ok(TransformState::new(
            state.floorplan.clone(),
            placement,
            state.regions.clone(),
        ))
    }

    fn surrogate_power(&self, flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        Ok(wrap_surrogate_map(power, &Self::baseline_regions(flow)?))
    }
}

/// **HW** ported to the engine: the paper's hotspot wrapper — uniform
/// slack at the given overhead, then wrap the hotspots the relaxed
/// placement exhibits. Equivalent to
/// `composite(uniform:…+wrap)` but keeps its own id and [`Strategy`]
/// facade.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotWrapperTransform {
    /// Extra core area as a fraction of the base area, realized by
    /// utilization relaxation before wrapping.
    pub area_overhead: f64,
}

impl PlacementTransform for HotspotWrapperTransform {
    fn id(&self) -> String {
        format!("hw:{}", fmt_overhead(self.area_overhead))
    }

    fn kind(&self) -> &'static str {
        "hw"
    }

    fn as_strategy(&self) -> Option<Strategy> {
        Some(Strategy::HotspotWrapper {
            area_overhead: self.area_overhead,
        })
    }

    fn planned_overhead(&self, _flow: &Flow) -> Result<f64, FlowError> {
        Ok(self.area_overhead)
    }

    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        let mut relaxed = UniformSlackTransform {
            area_overhead: self.area_overhead,
        }
        .apply(ctx, state)?;
        WrapHotspotsTransform.apply(ctx, &mut relaxed)
    }

    fn surrogate_power(&self, flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        let diluted = uniform_surrogate_map(power, self.area_overhead);
        Ok(wrap_surrogate_map(
            &diluted,
            &WrapHotspotsTransform::baseline_regions(flow)?,
        ))
    }
}

/// The spread *stage*: pull each row's whitespace laterally into its hot
/// bins. Cells keep their row and order; the gaps between them are
/// re-allocated in proportion to the local temperature, so fillers
/// concentrate exactly where the profile peaks (whitespace shaping, not
/// blind dilution). Spends no area itself — stack it on an area-spending
/// stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpreadFillersTransform;

impl PlacementTransform for SpreadFillersTransform {
    fn id(&self) -> String {
        "spread".to_string()
    }

    fn kind(&self) -> &'static str {
        "spread"
    }

    fn planned_overhead(&self, _flow: &Flow) -> Result<f64, FlowError> {
        Ok(0.0)
    }

    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        let flow = ctx.flow();
        let netlist = flow.netlist();
        state.ensure_thermal(ctx)?;
        let (tmap, _) = state.analysis()?;
        let grid = tmap.grid();
        let (floor, peak) = (grid.min_bin(), grid.max_bin());
        let (tmin, tmax) = match (floor, peak) {
            (Some((_, lo)), Some((_, hi))) => (lo, hi),
            _ => (0.0, 0.0),
        };
        let span = (tmax - tmin).max(1e-9);
        let fp = state.floorplan.clone();
        let mut placement = state.placement.clone();
        for row in 0..fp.num_rows() as u32 {
            let cells = placement.row_cells(row);
            if cells.is_empty() {
                continue;
            }
            // Per-cell heat: the thermal bin under the cell's current
            // center, normalized to [~0.1, 1.1] so cold rows still get
            // a floor share and the allocation never degenerates.
            let heat: Vec<f64> = cells
                .iter()
                .map(|&(_, id, _)| {
                    placement
                        .cell_center(netlist, &fp, id)
                        .and_then(|c| grid.bin_of(c.x, c.y))
                        .map(|(ix, iy)| (*grid.get(ix, iy) - tmin) / span)
                        .unwrap_or(0.0)
                        + 0.1
                })
                .collect();
            // Gap weights: each of the n+1 gaps is as hot as its hotter
            // neighbour, so whitespace opens around the hot cells.
            let (first, last) = match (heat.first(), heat.last()) {
                (Some(&first), Some(&last)) => (first, last),
                _ => continue, // empty rows were skipped above
            };
            let mut gaps = Vec::with_capacity(heat.len() + 1);
            gaps.push(first);
            for pair in heat.windows(2) {
                gaps.push(pair[0].max(pair[1]));
            }
            gaps.push(last);
            let used: u32 = cells.iter().map(|&(_, _, w)| w).sum();
            let free = fp.row(row as usize).num_sites.saturating_sub(used);
            let alloc = weighted_row_gaps(free, &gaps);
            respread_row(netlist, &fp, &mut placement, row, &alloc);
        }
        fill_whitespace(netlist, &fp, &mut placement)?;
        Ok(TransformState::new(fp, placement, state.regions.clone()))
    }

    fn surrogate_power(&self, flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        let (tmap, _) = flow.baseline_thermal()?;
        Ok(spread_surrogate_map(power, tmap))
    }
}

/// The spread stage's screening surrogate: within each mesh row, bins
/// stretch laterally in proportion to their temperature (power mass
/// conserved per row), mimicking whitespace flowing toward the hot bins.
fn spread_surrogate_map(power: &Grid2d<f64>, tmap: &ThermalMap) -> Grid2d<f64> {
    let grid = tmap.grid();
    let nx = power.nx();
    let ny = power.ny();
    if nx == 0 || ny == 0 || grid.nx() != nx || grid.ny() != ny {
        return power.clone();
    }
    let (tmin, tmax) = match (grid.min_bin(), grid.max_bin()) {
        (Some((_, lo)), Some((_, hi))) => (lo, hi),
        _ => return power.clone(),
    };
    let span = (tmax - tmin).max(1e-9);
    let width = power.extent().width();
    let mut out = Grid2d::new(nx, ny, power.extent(), 0.0);
    for iy in 0..ny {
        // Stretched widths ∝ heat, renormalized to the die width.
        let weights: Vec<f64> = (0..nx)
            .map(|ix| (*grid.get(ix, iy) - tmin) / span + 0.1)
            .collect();
        let total: f64 = weights.iter().sum();
        let bin_w = width / nx as f64;
        let mut cursor = 0.0f64;
        for (ix, weight) in weights.iter().enumerate() {
            let w = weight / total * width;
            let (lo, hi) = (cursor, cursor + w);
            cursor = hi;
            let p = *power.get(ix, iy);
            if p <= 0.0 {
                continue;
            }
            // Deposit the stretched interval onto destination bins.
            let j0 = ((lo / bin_w).floor().max(0.0) as usize).min(nx - 1);
            let j1 = ((hi / bin_w).ceil() as usize).clamp(j0 + 1, nx);
            for jx in j0..j1 {
                let (d0, d1) = (jx as f64 * bin_w, (jx + 1) as f64 * bin_w);
                let overlap = (hi.min(d1) - lo.max(d0)).max(0.0);
                if overlap > 0.0 {
                    *out.get_mut(jx, iy) += p * overlap / w.max(1e-12);
                }
            }
        }
    }
    out
}

/// *New technique*: **hot-bin filler spreading** — uniform slack at the
/// given overhead, then each row's whitespace pulled into its hot bins
/// (see [`SpreadFillersTransform`]). Same area as the Default at the
/// same budget, but the fillers land where the temperature profile
/// peaks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotBinSpreadTransform {
    /// Extra core area as a fraction of the base area.
    pub area_overhead: f64,
}

impl PlacementTransform for HotBinSpreadTransform {
    fn id(&self) -> String {
        format!("hot-spread:{}", fmt_overhead(self.area_overhead))
    }

    fn kind(&self) -> &'static str {
        "hot-spread"
    }

    fn planned_overhead(&self, _flow: &Flow) -> Result<f64, FlowError> {
        Ok(self.area_overhead)
    }

    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        let mut relaxed = UniformSlackTransform {
            area_overhead: self.area_overhead,
        }
        .apply(ctx, state)?;
        SpreadFillersTransform.apply(ctx, &mut relaxed)
    }

    fn surrogate_power(&self, flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        let diluted = uniform_surrogate_map(power, self.area_overhead);
        SpreadFillersTransform.surrogate_power(flow, &diluted)
    }
}

/// An ordered pipeline of transforms with an explicit per-stage budget
/// split — the generalization of HW's implicit "uniform-then-wrap" into
/// arbitrary stacks (`eri→wrap`, `targeted→spread`, `uniform→eri`, …).
///
/// Each stage applies on the previous stage's output state; surrogates
/// compose the same way (stage N's surrogate transforms stage N−1's
/// surrogate map). Re-placing stages ([`UniformSlackTransform`]) belong
/// at the head of a pipeline — they rebuild the placement from scratch.
#[derive(Debug)]
pub struct CompositeTransform {
    stages: Vec<Box<dyn PlacementTransform>>,
}

impl CompositeTransform {
    /// Wraps an ordered stage list.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadStrategy`] for an empty pipeline.
    pub fn new(stages: Vec<Box<dyn PlacementTransform>>) -> Result<Self, FlowError> {
        if stages.is_empty() {
            return Err(FlowError::BadStrategy {
                detail: "composite transform needs at least one stage".to_string(),
            });
        }
        Ok(CompositeTransform { stages })
    }

    /// The pipeline's stages, in application order.
    pub fn stages(&self) -> &[Box<dyn PlacementTransform>] {
        &self.stages
    }
}

impl PlacementTransform for CompositeTransform {
    fn id(&self) -> String {
        let parts: Vec<String> = self.stages.iter().map(|s| s.id()).collect();
        format!("composite({})", parts.join("+"))
    }

    fn kind(&self) -> &'static str {
        "composite"
    }

    fn planned_overhead(&self, flow: &Flow) -> Result<f64, FlowError> {
        let mut growth = 1.0;
        for stage in &self.stages {
            growth *= 1.0 + stage.planned_overhead(flow)?;
        }
        Ok(growth - 1.0)
    }

    fn apply(
        &self,
        ctx: &TransformContext,
        state: &mut TransformState,
    ) -> Result<TransformState, FlowError> {
        let mut current: Option<TransformState> = None;
        for stage in &self.stages {
            let next = match current.as_mut() {
                None => stage.apply(ctx, state)?,
                Some(s) => stage.apply(ctx, s)?,
            };
            current = Some(next);
        }
        current.ok_or_else(|| FlowError::Internal {
            detail: "composite transform applied with an empty stage list".to_string(),
        })
    }

    fn surrogate_power(&self, flow: &Flow, power: &Grid2d<f64>) -> Result<Grid2d<f64>, FlowError> {
        let mut map = power.clone();
        for stage in &self.stages {
            map = stage.surrogate_power(flow, &map)?;
        }
        Ok(map)
    }
}

/// A budget-parameterized transform family: given a flow and a
/// fractional area budget, builds the concrete transform the family
/// realizes at that budget (row counts quantized *down*, so the planned
/// overhead never knowably exceeds the budget except through the
/// one-row minimum).
pub struct TransformFactory {
    kind: String,
    build: FactoryFn,
}

/// The boxed builder a [`TransformFactory`] wraps: flow + fractional
/// budget in, concrete transform out.
type FactoryFn =
    Box<dyn Fn(&Flow, f64) -> Result<Box<dyn PlacementTransform>, FlowError> + Send + Sync>;

impl std::fmt::Debug for TransformFactory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransformFactory")
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl TransformFactory {
    /// Wraps a builder closure under a family name.
    pub fn new(
        kind: impl Into<String>,
        build: impl Fn(&Flow, f64) -> Result<Box<dyn PlacementTransform>, FlowError>
            + Send
            + Sync
            + 'static,
    ) -> Self {
        TransformFactory {
            kind: kind.into(),
            build: Box::new(build),
        }
    }

    /// The family name (`"eri"`, `"uniform+eri"`, …).
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// Builds the family's transform at `budget` (a fraction of the base
    /// area, e.g. `0.16`).
    ///
    /// # Errors
    ///
    /// Propagates builder failures (e.g. a degenerate budget).
    pub fn at_budget(
        &self,
        flow: &Flow,
        budget: f64,
    ) -> Result<Box<dyn PlacementTransform>, FlowError> {
        (self.build)(flow, budget)
    }
}

/// The empty-row count a fractional budget buys, quantized down (always
/// at least one row — the technique's minimum grain).
pub fn rows_for_budget(flow: &Flow, budget: f64) -> usize {
    let rows0 = flow.base_placement().floorplan.num_rows();
    (((budget.max(0.0) * rows0 as f64).floor()) as usize).max(1)
}

/// An open set of [`TransformFactory`]s — the search space the Pareto
/// optimizer screens. Start from [`TransformRegistry::standard`] and
/// [`TransformRegistry::register`] your own families.
#[derive(Debug, Default)]
pub struct TransformRegistry {
    factories: Vec<TransformFactory>,
}

impl TransformRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        TransformRegistry::default()
    }

    /// Every built-in technique: the three ported paper techniques, the
    /// two new ones, and three composite pipelines (with a 50/50 budget
    /// split where both stages spend area).
    pub fn standard() -> Self {
        let mut registry = TransformRegistry::new();
        registry.register(TransformFactory::new("uniform", |_, b| {
            Ok(Box::new(UniformSlackTransform { area_overhead: b }))
        }));
        registry.register(TransformFactory::new("eri", |flow, b| {
            Ok(Box::new(EmptyRowInsertionTransform {
                rows: rows_for_budget(flow, b),
            }))
        }));
        registry.register(TransformFactory::new("hw", |_, b| {
            Ok(Box::new(HotspotWrapperTransform { area_overhead: b }))
        }));
        registry.register(TransformFactory::new("targeted-eri", |flow, b| {
            Ok(Box::new(TargetedRowInsertionTransform {
                rows: rows_for_budget(flow, b),
            }))
        }));
        registry.register(TransformFactory::new("hot-spread", |_, b| {
            Ok(Box::new(HotBinSpreadTransform { area_overhead: b }))
        }));
        registry.register(TransformFactory::new("eri+wrap", |flow, b| {
            Ok(Box::new(CompositeTransform::new(vec![
                Box::new(EmptyRowInsertionTransform {
                    rows: rows_for_budget(flow, b),
                }),
                Box::new(WrapHotspotsTransform),
            ])?))
        }));
        registry.register(TransformFactory::new("targeted-eri+spread", |flow, b| {
            Ok(Box::new(CompositeTransform::new(vec![
                Box::new(TargetedRowInsertionTransform {
                    rows: rows_for_budget(flow, b),
                }),
                Box::new(SpreadFillersTransform),
            ])?))
        }));
        registry.register(TransformFactory::new("uniform+eri", |flow, b| {
            Ok(Box::new(CompositeTransform::new(vec![
                Box::new(UniformSlackTransform {
                    area_overhead: b / 2.0,
                }),
                Box::new(EmptyRowInsertionTransform {
                    rows: rows_for_budget(flow, b / 2.0),
                }),
            ])?))
        }));
        registry
    }

    /// Adds a family to the registry.
    pub fn register(&mut self, factory: TransformFactory) {
        self.factories.push(factory);
    }

    /// The registered families, in registration order.
    pub fn factories(&self) -> &[TransformFactory] {
        &self.factories
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.factories.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.factories.is_empty()
    }

    /// Parses a stable transform id (see [`PlacementTransform::id`])
    /// back into the transform it names: the deserialization half of the
    /// engine's serde facade. Round-trip guarantee:
    /// `parse(t.id())?.id() == t.id()` for every built-in transform,
    /// composites included.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::BadStrategy`] for an unknown or malformed
    /// id.
    pub fn parse(id: &str) -> Result<Box<dyn PlacementTransform>, FlowError> {
        let bad = |detail: String| FlowError::BadStrategy { detail };
        let parse_f64 = |s: &str, what: &str| -> Result<f64, FlowError> {
            s.parse::<f64>()
                .map_err(|_| bad(format!("transform id `{what}`: bad number `{s}`")))
        };
        let parse_usize = |s: &str, what: &str| -> Result<usize, FlowError> {
            s.parse::<usize>()
                .map_err(|_| bad(format!("transform id `{what}`: bad count `{s}`")))
        };
        let id = id.trim();
        if let Some(inner) = id
            .strip_prefix("composite(")
            .and_then(|rest| rest.strip_suffix(')'))
        {
            // Split at top-level '+' only: stage ids may themselves be
            // composites carrying '+' inside their parentheses.
            let mut stages: Vec<Box<dyn PlacementTransform>> = Vec::new();
            let mut depth = 0usize;
            let mut start = 0usize;
            for (i, c) in inner.char_indices() {
                match c {
                    '(' => depth += 1,
                    ')' => depth = depth.saturating_sub(1),
                    '+' if depth == 0 => {
                        stages.push(Self::parse(&inner[start..i])?);
                        start = i + 1;
                    }
                    _ => {}
                }
            }
            stages.push(Self::parse(&inner[start..])?);
            return Ok(Box::new(CompositeTransform::new(stages)?));
        }
        match id {
            "none" => return Ok(Box::new(NoneTransform)),
            "wrap" => return Ok(Box::new(WrapHotspotsTransform)),
            "spread" => return Ok(Box::new(SpreadFillersTransform)),
            _ => {}
        }
        let (head, param) = id
            .split_once(':')
            .ok_or_else(|| bad(format!("unknown transform id `{id}`")))?;
        match head {
            "uniform" => Ok(Box::new(UniformSlackTransform {
                area_overhead: parse_f64(param, id)?,
            })),
            "hw" => Ok(Box::new(HotspotWrapperTransform {
                area_overhead: parse_f64(param, id)?,
            })),
            "hot-spread" => Ok(Box::new(HotBinSpreadTransform {
                area_overhead: parse_f64(param, id)?,
            })),
            "eri" => Ok(Box::new(EmptyRowInsertionTransform {
                rows: parse_usize(param, id)?,
            })),
            "targeted-eri" => Ok(Box::new(TargetedRowInsertionTransform {
                rows: parse_usize(param, id)?,
            })),
            _ => Err(bad(format!("unknown transform id `{id}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_round_trip_through_the_parser() {
        let ids = [
            "none",
            "wrap",
            "spread",
            "uniform:0.16",
            "hw:0.08",
            "hot-spread:0.25",
            "eri:12",
            "targeted-eri:7",
            "composite(eri:12+wrap)",
            "composite(uniform:0.08+eri:4)",
            "composite(targeted-eri:6+spread)",
            "composite(composite(eri:2+wrap)+spread)",
        ];
        for id in ids {
            let parsed = TransformRegistry::parse(id).unwrap();
            assert_eq!(parsed.id(), id, "round-trip failed");
        }
    }

    #[test]
    fn malformed_ids_are_rejected() {
        for id in [
            "",
            "frobnicate",
            "uniform",
            "eri:x",
            "uniform:?",
            "composite()",
        ] {
            assert!(TransformRegistry::parse(id).is_err(), "`{id}` should fail");
        }
    }

    #[test]
    fn strategy_facade_maps_both_ways() {
        let eri = EmptyRowInsertionTransform { rows: 9 };
        assert_eq!(
            eri.as_strategy(),
            Some(Strategy::EmptyRowInsertion { rows: 9 })
        );
        assert_eq!(
            Strategy::EmptyRowInsertion { rows: 9 }.to_transform().id(),
            "eri:9"
        );
        assert!(TargetedRowInsertionTransform { rows: 3 }
            .as_strategy()
            .is_none());
        assert!(WrapHotspotsTransform.as_strategy().is_none());
    }

    #[test]
    fn composite_rejects_empty_pipelines() {
        assert!(CompositeTransform::new(Vec::new()).is_err());
    }

    #[test]
    fn spread_surrogate_conserves_row_power_and_flattens_peaks() {
        let die = Rect::new(0.0, 0.0, 100.0, 100.0);
        let mut power = Grid2d::new(8, 8, die, 0.0);
        *power.get_mut(4, 2) = 8e-3;
        *power.get_mut(5, 2) = 2e-3;
        let mut heat = Grid2d::new(8, 8, die, 30.0);
        *heat.get_mut(4, 2) = 42.0;
        *heat.get_mut(5, 2) = 36.0;
        let tmap = ThermalMap::new(heat, 25.0);
        let out = spread_surrogate_map(&power, &tmap);
        let row_in: f64 = (0..8).map(|ix| *power.get(ix, 2)).sum();
        let row_out: f64 = (0..8).map(|ix| *out.get(ix, 2)).sum();
        assert!((row_in - row_out).abs() < 1e-12, "row power conserved");
        let peak_in = (0..8).map(|ix| *power.get(ix, 2)).fold(0.0, f64::max);
        let peak_out = (0..8).map(|ix| *out.get(ix, 2)).fold(0.0, f64::max);
        assert!(
            peak_out < peak_in,
            "hot bins must stretch: {peak_out} vs {peak_in}"
        );
    }
}
