//! Geometry primitives and unit conventions shared by the `coolplace` stack.
//!
//! All layout coordinates in this workspace are **microns** (`f64`), with the
//! die origin at the lower-left corner, x growing right and y growing up —
//! the usual DEF/LEF convention. Discrete layout quantities (row indices,
//! site indices) are integers wrapped in newtypes created with [`define_id!`].
//!
//! # Examples
//!
//! ```
//! use geom::{Point, Rect};
//!
//! let core = Rect::new(0.0, 0.0, 335.0, 335.0);
//! assert!(core.contains(Point::new(100.0, 200.0)));
//! assert_eq!(core.area(), 335.0 * 335.0);
//! ```

mod grid;
mod point;
mod rect;

pub mod ids;

pub use grid::{Grid2d, GridBins};
pub use point::Point;
pub use rect::Rect;

/// Microns, the universal layout length unit of the workspace.
pub type Um = f64;

/// Returns `true` when `a` and `b` differ by at most `tol`.
///
/// Convenience used throughout the geometry tests; exposed because the
/// downstream crates compare layout coordinates with the same tolerance.
///
/// # Examples
///
/// ```
/// assert!(geom::approx_eq(1.0, 1.0 + 1e-12, 1e-9));
/// assert!(!geom::approx_eq(1.0, 1.1, 1e-9));
/// ```
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol
}
