//! Construction of the equivalent resistive network.
//!
//! The mesh follows the paper's Fig. 1: each thermal cell is a node with
//! resistances toward its six neighbours (`R = l/(k·A)`), capacitors
//! dropped at steady state. Node indexing is `(ix, iy, iz)` with `iz = 0`
//! the bottom layer.

use geom::{Grid2d, Rect};
use spicenet::{Circuit, LayeredStencilSpec, NodeId, NodeRef, SolveOptions, StencilSystem};

use crate::{Layer, LayerStack, ThermalError};

const UM_TO_M: f64 = 1e-6;

/// The assembled resistor netlist plus the node bookkeeping needed to
/// read back the active-layer temperatures.
///
/// Because the mesh is a pure 7-point stencil on a regular grid, the
/// geometry can be emitted in either representation: as this
/// [`Circuit`] (the general CSR path, kept as fallback and cross-check
/// oracle, see [`build_circuit`]) or as a [`StencilSystem`] (the
/// spectral path, see [`build_stencil`]). Both are assembled from the
/// *same* [`Resistances`], so the two representations agree
/// coefficient-for-coefficient — and since a 128×128×9 circuit means
/// ~150k interned node names and ~590k resistor insertions, callers
/// build exactly the representation their backend keeps.
pub(crate) struct ThermalNetwork {
    pub circuit: Circuit,
    /// Active-layer node ids (`iy·nx + ix` order).
    pub active_nodes: Vec<NodeId>,
}

/// Checks a power map's resolution and values against the mesh.
pub(crate) fn validate_power(
    nx: usize,
    ny: usize,
    power: &Grid2d<f64>,
) -> Result<(), ThermalError> {
    if power.nx() != nx || power.ny() != ny {
        return Err(ThermalError::PowerGridMismatch {
            expected: (nx, ny),
            got: (power.nx(), power.ny()),
        });
    }
    for iy in 0..ny {
        for ix in 0..nx {
            let watts = *power.get(ix, iy);
            if watts < 0.0 || !watts.is_finite() {
                return Err(ThermalError::InvalidPower {
                    bin: (ix, iy),
                    watts,
                });
            }
        }
    }
    Ok(())
}

/// Builds the full network for one power map: the geometry-only pattern
/// plus the per-bin current sources.
pub(crate) fn build_network(
    nx: usize,
    ny: usize,
    die: Rect,
    stack: &LayerStack,
    power: &Grid2d<f64>,
) -> Result<ThermalNetwork, ThermalError> {
    validate_power(nx, ny, power)?;
    let mut network = build_circuit(nx, ny, die, stack)?;
    for iy in 0..ny {
        for ix in 0..nx {
            let watts = *power.get(ix, iy);
            if watts > 0.0 {
                let node = network.active_nodes[iy * nx + ix];
                network
                    .circuit
                    .current_source(NodeRef::Ground, NodeRef::Node(node), watts)
                    .map_err(ThermalError::from_circuit)?;
            }
        }
    }
    Ok(network)
}

/// Every resistance of one die geometry, per layer or per interface,
/// computed once and shared by both system representations (circuit
/// resistors and stencil coefficients), so the spectral path can never
/// drift from the CSR oracle by construction.
struct Resistances {
    /// Lateral x-neighbour resistance per layer.
    x_layers: Vec<f64>,
    /// Lateral y-neighbour resistance per layer.
    y_layers: Vec<f64>,
    /// Vertical resistance per layer interface: series half-thicknesses
    /// of the adjacent layers.
    z_interfaces: Vec<f64>,
    /// Bottom cell to package: half-layer conduction plus the film.
    bottom: f64,
    /// Top cell to ambient: half-layer conduction plus the film.
    top: f64,
}

impl Resistances {
    fn new(nx: usize, ny: usize, die: Rect, stack: &LayerStack) -> Resistances {
        let dx = die.width() / nx as f64 * UM_TO_M;
        let dy = die.height() / ny as f64 * UM_TO_M;
        let area = dx * dy;
        let layers = stack.layers();
        let half = |l: &Layer| (l.thickness_um * UM_TO_M / 2.0) / (l.conductivity_w_mk * area);
        let film = |l: &Layer, h: f64| half(l) + 1.0 / (h * area);
        Resistances {
            x_layers: layers
                .iter()
                .map(|l| dx / (l.conductivity_w_mk * dy * (l.thickness_um * UM_TO_M)))
                .collect(),
            y_layers: layers
                .iter()
                .map(|l| dy / (l.conductivity_w_mk * dx * (l.thickness_um * UM_TO_M)))
                .collect(),
            z_interfaces: layers
                .windows(2)
                .map(|w| half(&w[0]) + half(&w[1]))
                .collect(),
            bottom: film(&layers[0], stack.h_bottom_w_m2k),
            top: film(&layers[layers.len() - 1], stack.h_top_w_m2k),
        }
    }
}

/// Builds the geometry-only network as a [`StencilSystem`] — the
/// source-free system a [`crate::FactorizedThermalModel`] factors once
/// and re-solves against many power maps.
pub(crate) fn build_stencil(nx: usize, ny: usize, die: Rect, stack: &LayerStack) -> StencilSystem {
    let r = Resistances::new(nx, ny, die, stack);
    let conductances = |rs: &[f64]| -> Vec<f64> { rs.iter().map(|r| 1.0 / r).collect() };
    StencilSystem::layered(&LayeredStencilSpec {
        nx,
        ny,
        gx_layers: &conductances(&r.x_layers),
        gy_layers: &conductances(&r.y_layers),
        gz_interfaces: &conductances(&r.z_interfaces),
        g_bottom: 1.0 / r.bottom,
        g_top: 1.0 / r.top,
        ambient: stack.ambient_c,
        package_resistance: stack.package_resistance_k_w,
    })
}

/// Builds the geometry-only network as a resistor [`Circuit`] —
/// resistors and boundary sources, no power injection.
pub(crate) fn build_circuit(
    nx: usize,
    ny: usize,
    die: Rect,
    stack: &LayerStack,
) -> Result<ThermalNetwork, ThermalError> {
    let nz = stack.layers().len();
    let r = Resistances::new(nx, ny, die, stack);
    let mut circuit = Circuit::new();

    // Node ids in (iy, ix, iz) order — z innermost. The z couplings are
    // by far the strongest (thin layers, full-cell areas), so keeping
    // each vertical column contiguous places them inside the zero-fill
    // band of the incomplete-Cholesky factor, which roughly halves the
    // preconditioned iteration count versus a z-outermost ordering.
    let mut nodes = Vec::with_capacity(nx * ny * nz);
    for iy in 0..ny {
        for ix in 0..nx {
            for iz in 0..nz {
                nodes.push(circuit.node(format!("t_{ix}_{iy}_{iz}")));
            }
        }
    }
    let node = |ix: usize, iy: usize, iz: usize| nodes[(iy * nx + ix) * nz + iz];

    // Ambient reference, pinned by a voltage source (the paper's boundary
    // condition: "cells on the boundary are connected to voltage sources
    // which model the ambient temperature"). The bottom boundary reaches
    // ambient through the shared, die-area-independent package resistance
    // (heat spreader + sink).
    let ambient = circuit.node("ambient");
    circuit
        .voltage_source(NodeRef::Node(ambient), NodeRef::Ground, stack.ambient_c)
        .map_err(ThermalError::from_circuit)?;
    let bottom_sink = if stack.package_resistance_k_w > 0.0 {
        let pkg = circuit.node("package");
        circuit
            .resistor(
                NodeRef::Node(pkg),
                NodeRef::Node(ambient),
                stack.package_resistance_k_w,
            )
            .map_err(ThermalError::from_circuit)?;
        pkg
    } else {
        ambient
    };

    for iz in 0..nz {
        // Lateral resistances: R = dx / (k · dy · tz) and symmetrically.
        let r_x = r.x_layers[iz];
        let r_y = r.y_layers[iz];
        for iy in 0..ny {
            for ix in 0..nx {
                let here = NodeRef::Node(node(ix, iy, iz));
                if ix + 1 < nx {
                    circuit
                        .resistor(here, NodeRef::Node(node(ix + 1, iy, iz)), r_x)
                        .map_err(ThermalError::from_circuit)?;
                }
                if iy + 1 < ny {
                    circuit
                        .resistor(here, NodeRef::Node(node(ix, iy + 1, iz)), r_y)
                        .map_err(ThermalError::from_circuit)?;
                }
            }
        }
    }

    for (iz, &r_z) in r.z_interfaces.iter().enumerate() {
        for iy in 0..ny {
            for ix in 0..nx {
                circuit
                    .resistor(
                        NodeRef::Node(node(ix, iy, iz)),
                        NodeRef::Node(node(ix, iy, iz + 1)),
                        r_z,
                    )
                    .map_err(ThermalError::from_circuit)?;
            }
        }
    }

    for iy in 0..ny {
        for ix in 0..nx {
            circuit
                .resistor(
                    NodeRef::Node(node(ix, iy, 0)),
                    NodeRef::Node(bottom_sink),
                    r.bottom,
                )
                .map_err(ThermalError::from_circuit)?;
            circuit
                .resistor(
                    NodeRef::Node(node(ix, iy, nz - 1)),
                    NodeRef::Node(ambient),
                    r.top,
                )
                .map_err(ThermalError::from_circuit)?;
        }
    }

    // Power is injected at the active layer (W → A, 1 W ≡ 1 A in the
    // thermal-electrical analogy) by `build_network`, or per solve by the
    // factorized model; either way these are the read-back nodes.
    let active = stack.active_layer();
    let active_nodes = (0..ny)
        .flat_map(|iy| (0..nx).map(move |ix| (ix, iy)))
        .map(|(ix, iy)| node(ix, iy, active))
        .collect();
    Ok(ThermalNetwork {
        circuit,
        active_nodes,
    })
}

impl ThermalNetwork {
    pub(crate) fn solve(&self, tolerance: f64) -> Result<Vec<f64>, ThermalError> {
        let sol = self
            .circuit
            .solve(SolveOptions {
                tolerance,
                ..Default::default()
            })
            .map_err(ThermalError::Solve)?;
        Ok(self
            .active_nodes
            .iter()
            .map(|&n| sol.voltage(NodeRef::Node(n)))
            .collect())
    }
}
