//! Steady-state RC thermal simulation of a placed die — the model of
//! Liu et al. (PATMOS'09) used by the DATE 2010 paper, rebuilt on the
//! [`spicenet`] DC solver.
//!
//! The die is meshed into thermal cells: the x/y plane into a
//! [`GridSpec`] (40×40 in the paper, 1600 surface cells) and the z axis
//! into the **9 layers** of a [`LayerStack`]. Each cell becomes a circuit
//! node with resistors to its six neighbours (`R = l / (k·A)` per
//! Fourier's law); boundary cells connect through package resistances to a
//! voltage source at ambient temperature, and the per-cell power —
//! aggregated from the standard cells each thermal cell covers — is
//! injected as a current source at the active layer. Because the thermal
//! time constant (tens of ms) dwarfs the 1 ns clock period, the paper
//! solves at steady state, dropping every capacitor; so does this crate.
//!
//! # Examples
//!
//! ```
//! use geom::{Grid2d, Rect};
//! use thermalsim::{ThermalConfig, ThermalSimulator};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let die = Rect::new(0.0, 0.0, 300.0, 300.0);
//! let config = ThermalConfig::with_resolution(8, 8); // paper default is 40×40
//! let sim = ThermalSimulator::new(config);
//! let mut power = Grid2d::new(8, 8, die, 0.0);
//! *power.get_mut(4, 4) = 1e-3; // 1 mW in one thermal cell
//! let map = sim.solve(die, &power)?;
//! assert!(map.peak_rise() > 0.0);
//! # Ok(())
//! # }
//! ```

mod map;
mod model;
mod network;
mod sim;
mod stack;

pub use map::ThermalMap;
pub use model::FactorizedThermalModel;
pub use sim::{GridSpec, SolverKind, ThermalConfig, ThermalError, ThermalSimulator};
pub use spicenet::SolveStats;
pub use stack::{Layer, LayerStack};
