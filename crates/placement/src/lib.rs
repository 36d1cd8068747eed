//! Row-based standard-cell placement: floorplanning, region-constrained
//! placement, legalization, filler (dummy-cell) insertion and wirelength /
//! congestion metrics — the workspace's substitute for the paper's
//! Synopsys IC Compiler flow.
//!
//! The post-placement techniques of the paper manipulate exactly the
//! objects modelled here:
//!
//! * a [`Floorplan`] of uniform layout rows made of placement sites
//!   (the paper's row pitch is 2.7 µm — Table I's geometry);
//! * a [`Placement`] binding each netlist cell to a `(row, site)` slot;
//! * [`Placement::fillers`], the zero-power filler cells tiling every
//!   gap so each row's power rails stay electrically continuous, derived
//!   from the row gaps when asked for;
//! * [`PlacedGeometry`], each cell's footprint and each net's
//!   wirelength on one placement, computed once for every consumer;
//! * [`Placer`], which produces an initial legal placement at a target
//!   row-utilization factor (the knob the paper's *Default* scheme
//!   relaxes), placing each unit into its own region of the core.
//!
//! # Examples
//!
//! ```
//! use arithgen::{build_benchmark, BenchmarkConfig};
//! use placement::{Placer, PlacerConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let nl = build_benchmark(&BenchmarkConfig::small())?;
//! let result = Placer::new(PlacerConfig::default()).place(&nl)?;
//! assert!(result.placement.is_fully_placed(&nl));
//! # Ok(())
//! # }
//! ```

mod congestion;
mod db;
mod error;
mod fillers;
mod floorplan;
mod geometry;
mod hpwl;
mod place;
mod regions;
mod search;
mod validate;

pub use congestion::{congestion_map, CongestionStats};
pub use db::{FillerInst, PlacedCell, Placement};
pub use error::PlaceError;
pub use fillers::{respread_row, weighted_row_gaps};
pub use floorplan::{Floorplan, Row};
pub use geometry::PlacedGeometry;
pub use hpwl::{net_hpwl, total_hpwl};
pub use place::{region_row_segments, PlacementResult, Placer, PlacerConfig};
pub use regions::assign_unit_regions;
pub use search::{squeeze_into_row, OutsideSlots, SlotSearchStats};
pub use validate::{validate, Violation};
