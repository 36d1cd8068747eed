//! A linear DC circuit solver — the workspace's stand-in for SPICE.
//!
//! The thermal model of the paper (from Liu et al., PATMOS'09) converts the
//! steady-state heat equation into "a netlist of resistors, current sources
//! and voltage sources" and hands it to SPICE. This crate implements
//! exactly that feature set:
//!
//! * [`Circuit`] — build a netlist of **R** / **I** / **V** elements over
//!   named nodes plus an implicit ground;
//! * [`Circuit::solve`] — a DC operating-point analysis via modified nodal
//!   analysis (MNA). Circuits whose voltage sources are all ideal-to-ground
//!   (the thermal case: ambient-temperature boundaries) are reduced by
//!   Dirichlet elimination to a symmetric positive-definite system and
//!   solved with Jacobi-preconditioned conjugate gradients; everything
//!   else falls back to a dense LU factorization of the full MNA system;
//! * [`Circuit::factorize`] — the same reduction assembled and
//!   preconditioned (incomplete Cholesky) **once**, returning a
//!   [`FactorizedCircuit`] that is re-solved against many
//!   current-injection patterns at a fraction of the per-solve cost;
//! * [`SpectralSystem`] — the direct solver for regular 7-point meshes
//!   whose conductances are uniform within each layer, described
//!   matrix-free by a [`StencilSystem`] (one coefficient per layer):
//!   batched cosine transforms over both lateral axes plus one
//!   tridiagonal sweep per lateral mode, at any mesh size.
//!
//! # Examples
//!
//! A 10 V source across two 1 kΩ resistors in series (voltage divider):
//!
//! ```
//! use spicenet::{Circuit, NodeRef, SolveOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut c = Circuit::new();
//! let top = c.node("top");
//! let mid = c.node("mid");
//! c.voltage_source(NodeRef::Node(top), NodeRef::Ground, 10.0)?;
//! c.resistor(NodeRef::Node(top), NodeRef::Node(mid), 1000.0)?;
//! c.resistor(NodeRef::Node(mid), NodeRef::Ground, 1000.0)?;
//! let sol = c.solve(SolveOptions::default())?;
//! assert!((sol.voltage(NodeRef::Node(mid)) - 5.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

mod circuit;
mod dense;
mod error;
mod factor;
mod mna;
#[cfg(feature = "paranoid")]
pub mod paranoid;
pub mod pool;
mod solution;
mod sparse;
mod spectral;
mod stencil;

pub use circuit::{Circuit, NodeId, NodeRef};
pub use error::{CircuitError, SolveError};
pub use factor::FactorizedCircuit;
pub use mna::{Method, SolveOptions};
pub use solution::{DcSolution, SolveStats};
pub use sparse::CsrMatrix;
pub use spectral::{
    DctPlan, DctScratch, Planes, RhsPlane, SpectralField, SpectralRhs, SpectralSystem,
};
pub use stencil::{LayeredStencilSpec, StencilSystem};

/// Exact-zero test for the places where an exact `0.0` carries meaning:
/// a zero elimination factor and a zero right-hand side. `NaN` is never
/// zero.
pub(crate) fn exact_zero(v: f64) -> bool {
    // lint: allow(float-eq, reason = "an exact 0.0 here is a sentinel or a structural zero, never a rounded result")
    v == 0.0
}
