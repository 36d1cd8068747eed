//! **`postplace`** — the contribution of *"Post-placement temperature
//! reduction techniques"* (Liu & Nannarelli et al., DATE 2010):
//! smart allocation of whitespace into thermal hotspots.
//!
//! Given a placed, power-annotated design and its thermal map, the crate
//! offers three ways to spend a user-specified area overhead:
//!
//! * [`Strategy::UniformSlack`] — the paper's **Default** baseline: relax
//!   the placement's row-utilization factor, spreading whitespace blindly
//!   and uniformly over the whole core;
//! * [`Strategy::EmptyRowInsertion`] — insert empty, filler-filled layout
//!   rows between the rows of the detected hotspots (coarse grain, best
//!   for wide or large hotspots);
//! * [`Strategy::HotspotWrapper`] — ring each hotspot with whitespace,
//!   evict the cells that do not contribute to it and spread the hot
//!   cells uniformly inside the wrapped region (fine grain, best for
//!   small concentrated hotspots).
//!
//! [`Flow`] wires up the whole evaluation pipeline of the paper — the
//! synthetic nine-unit benchmark, workload simulation, power estimation,
//! placement, RC thermal simulation and STA — so each experiment is a
//! single [`Flow::run`] call producing a [`FlowReport`] with before/after
//! peak temperature, area overhead and timing overhead.
//!
//! The three techniques are ports of an **open transform engine** (see
//! [`PlacementTransform`]): arbitrary techniques — composite pipelines
//! ([`CompositeTransform`]), targeted row insertion, hot-bin filler
//! spreading, or your own — plug into the same flow via
//! [`Flow::run_transform`], screen through the same power-delta
//! surrogates, and compete on the area-vs-temperature frontier
//! ([`OptimizeRequestBuilder::frontier`]). The [`Strategy`] enum remains as a thin
//! compatibility facade over the ported transforms.
//!
//! # Examples
//!
//! ```no_run
//! use postplace::{Flow, FlowConfig, Strategy};
//!
//! # fn main() -> Result<(), postplace::FlowError> {
//! let flow = Flow::new(FlowConfig::scattered_small())?;
//! let eri = flow.run(Strategy::EmptyRowInsertion { rows: 12 })?;
//! let def = flow.run(Strategy::UniformSlack {
//!     area_overhead: eri.area_overhead_pct / 100.0,
//! })?;
//! assert!(eri.reduction_pct() >= def.reduction_pct() - 1.0);
//! # Ok(())
//! # }
//! ```

mod cache;
mod eri;
mod error;
mod evaluate;
mod flow;
mod hotspot;
mod optimize;
mod request;
mod strategy;
mod sweep;
mod transform;
mod uniform;
mod wrapper;

pub use cache::{CacheStats, KeyedCache};

pub use eri::{
    empty_row_insertion, eri_insertion_positions, eri_power_delta, eri_surrogate_map,
    targeted_insertion_positions, EriReport,
};
pub use error::FlowError;
pub use evaluate::{CandidateEval, CandidateEvaluator, DeltaCandidateEvaluator, PowerDelta};
pub use flow::{Flow, FlowConfig, FlowReport, ThermalModelCache, ThermalSummary, WorkloadSpec};
pub use hotspot::{
    classify_hotspots, detect_hotspots, split_hotspots_by_regions, Hotspot, HotspotClass,
    HotspotConfig,
};
pub use optimize::{
    best_strategy_within_budget_with, minimize_rows_for_target, BudgetOptimum, OptimizeConfig,
    ParetoFrontier, ParetoPoint, RowOptimum,
};
pub use request::{
    config_fingerprint, CacheKey, JobId, OptimizeGoal, OptimizeOutcome, OptimizeRequest,
    OptimizeRequestBuilder, OptimizeResponse, StableHasher,
};
pub use strategy::Strategy;
pub use sweep::{default_threads, run_requests, RequestBatch, RequestOutcome, Scenario, SweepGrid};
/// Re-exported so request builders can name a solver backend without
/// depending on `thermalsim` directly.
pub use thermalsim::SolverKind;
pub use transform::{
    rows_for_budget, CompositeTransform, EmptyRowInsertionTransform, HotBinSpreadTransform,
    HotspotWrapperTransform, NoneTransform, PlacementTransform, SpreadFillersTransform,
    TargetedRowInsertionTransform, TransformContext, TransformFactory, TransformRegistry,
    TransformState, UniformSlackTransform, WrapHotspotsTransform,
};
pub use uniform::{uniform_power_delta, uniform_slack, uniform_surrogate_map};
pub use wrapper::{
    hotspot_wrapper, wrap_regions, wrap_surrogate_map, wrapper_power_delta, WrapperConfig,
    WrapperReport,
};
