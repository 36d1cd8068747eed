//! Re-usable factorization of a circuit's resistive pattern.
//!
//! The conductance matrix of a Dirichlet-reducible circuit (every voltage
//! source ideal-to-ground) depends only on the resistors and the pinned
//! voltages — not on the current sources. [`Circuit::factorize`] performs
//! the reduction, assembles the sparse SPD system and computes an
//! incomplete-Cholesky preconditioner **once**; the resulting
//! [`FactorizedCircuit`] is then re-solved against many injection vectors
//! at a fraction of the per-solve cost. This is the engine behind
//! `thermalsim::FactorizedThermalModel`, which amortizes the thermal
//! network over every candidate placement sharing a die geometry.

use crate::circuit::{Circuit, NodeId};
use crate::mna::{dirichlet_map, reduce, ReducedSystem, SolveOptions};
use crate::sparse::{preconditioned_cg, Preconditioner};
use crate::{SolveError, SolveStats};

/// A circuit reduced, assembled and preconditioned once, ready to be
/// solved against many current-injection patterns.
///
/// The factorization captures the resistors, the pinned voltages and the
/// circuit's *own* current sources (as a static RHS), so
/// `factorize(c)?.solve_injections(&[])` matches `c.solve(...)` voltages
/// to within solver tolerance. Additional per-solve injections are passed
/// to [`FactorizedCircuit::solve_injections`].
///
/// The struct is plain data (`Send + Sync`), so one factorization can be
/// shared across worker threads.
///
/// # Examples
///
/// ```
/// use spicenet::{Circuit, NodeRef, SolveOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut c = Circuit::new();
/// let a = c.node("a");
/// c.resistor(NodeRef::Node(a), NodeRef::Ground, 100.0)?;
/// let f = c.factorize(SolveOptions::default())?;
/// // Re-solve the same pattern for two different injections.
/// let v1 = f.solve_injections(&[(a, 0.01)])?;
/// let v2 = f.solve_injections(&[(a, 0.03)])?;
/// assert!((v1[a.index()] - 1.0).abs() < 1e-9);
/// assert!((v2[a.index()] - 3.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FactorizedCircuit {
    sys: ReducedSystem,
    precond: Preconditioner,
    /// Fixed couplings plus the circuit's own current sources.
    static_rhs: Vec<f64>,
    tolerance: f64,
    max_iterations: usize,
}

impl Circuit {
    /// Reduces, assembles and preconditions the circuit once, for
    /// repeated solves against varying current injections.
    ///
    /// Only `tolerance` and `max_iterations` of `options` are honoured;
    /// the factorized path always uses the reduced sparse system.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::EmptyCircuit`] for an empty circuit and
    /// [`SolveError::Singular`] when a voltage source is not
    /// ideal-to-ground (no Dirichlet reduction exists) or a node has no
    /// resistive path.
    pub fn factorize(&self, options: SolveOptions) -> Result<FactorizedCircuit, SolveError> {
        if self.node_count() == 0 || self.element_count() == 0 {
            return Err(SolveError::EmptyCircuit);
        }
        let fixed = dirichlet_map(self)?.ok_or_else(|| SolveError::Singular {
            detail: "factorization requires all voltage sources grounded".to_string(),
        })?;
        let sys = reduce(self, fixed)?;
        let mut static_rhs = sys.fixed_rhs.clone();
        sys.isource_rhs_into(self, &mut static_rhs);
        let precond = Preconditioner::best(&sys.a);
        let n_red = sys.a.n();
        Ok(FactorizedCircuit {
            sys,
            precond,
            static_rhs,
            tolerance: options.tolerance,
            max_iterations: options.max_iterations.unwrap_or(20 * n_red + 100),
        })
    }
}

impl FactorizedCircuit {
    /// Dimension of the reduced (unknown-node) system.
    pub fn reduced_dim(&self) -> usize {
        self.sys.a.n()
    }

    /// Stored non-zeros of the reduced conductance matrix.
    pub fn nnz(&self) -> usize {
        self.sys.a.nnz()
    }

    /// Bytes the factorization holds on the heap: the reduced matrix, its
    /// preconditioner, the node maps and the static right-hand sides.
    pub fn heap_bytes(&self) -> usize {
        let sys = &self.sys;
        sys.a.heap_bytes()
            + self.precond.heap_bytes()
            + size_of_val(&sys.reduced[..])
            + sys.fixed.capacity() * (size_of::<(usize, f64)>() + 1)
            + size_of_val(&sys.fixed_rhs[..])
            + size_of_val(&self.static_rhs[..])
    }

    /// Solves for per-node voltages with `injections` added on top of the
    /// circuit's own sources. Each entry injects the given current (amps,
    /// positive into the node) from ground into `node`; injections into
    /// pinned nodes are absorbed by their voltage source and ignored.
    ///
    /// Returns the full voltage vector indexed by [`NodeId::index`].
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::NotConverged`] or [`SolveError::Singular`]
    /// from the iterative solve, and [`SolveError::UnknownNode`] if an
    /// injection names a node that does not belong to the factorized
    /// circuit.
    pub fn solve_injections(&self, injections: &[(NodeId, f64)]) -> Result<Vec<f64>, SolveError> {
        self.solve_injections_stats(injections).map(|(v, _)| v)
    }

    /// Like [`FactorizedCircuit::solve_injections`], additionally
    /// returning the [`SolveStats`] of the re-solve — diagnostics for
    /// preconditioner quality.
    ///
    /// # Errors
    ///
    /// Same as [`FactorizedCircuit::solve_injections`].
    pub fn solve_injections_stats(
        &self,
        injections: &[(NodeId, f64)],
    ) -> Result<(Vec<f64>, SolveStats), SolveError> {
        let mut rhs = self.static_rhs.clone();
        for &(node, amps) in injections {
            let slot = self
                .sys
                .reduced
                .get(node.index())
                .ok_or(SolveError::UnknownNode { node })?;
            if let Some(ri) = *slot {
                rhs[ri] += amps;
            }
        }
        if self.sys.a.n() == 0 {
            let stats = SolveStats {
                iterations: 0,
                relative_residual: 0.0,
            };
            return Ok((self.sys.expand(&[]), stats));
        }
        let (x, iterations, residual) = preconditioned_cg(
            &self.sys.a,
            &rhs,
            self.tolerance,
            self.max_iterations,
            &self.precond,
        )
        .map_err(|(iterations, residual)| {
            if residual.is_infinite() {
                SolveError::Singular {
                    detail: "conductance matrix is not positive definite \
                             (floating subcircuit?)"
                        .to_string(),
                }
            } else {
                SolveError::NotConverged {
                    iterations,
                    residual,
                }
            }
        })?;
        let stats = SolveStats {
            iterations,
            relative_residual: residual,
        };
        Ok((self.sys.expand(&x), stats))
    }
}

#[cfg(test)]
mod tests {
    use crate::{Circuit, NodeRef, SolveOptions};

    /// Pinned ladder with taps, mirroring the shape of the thermal mesh.
    fn ladder(n: usize) -> (Circuit, Vec<crate::NodeId>) {
        let mut c = Circuit::new();
        let nodes: Vec<_> = (0..n).map(|i| c.node(format!("n{i}"))).collect();
        c.voltage_source(NodeRef::Node(nodes[0]), NodeRef::Ground, 25.0)
            .unwrap();
        for w in nodes.windows(2) {
            c.resistor(NodeRef::Node(w[0]), NodeRef::Node(w[1]), 10.0)
                .unwrap();
        }
        (c, nodes)
    }

    #[test]
    fn factorized_matches_direct_solve_with_own_sources() {
        let (mut c, nodes) = ladder(12);
        c.current_source(NodeRef::Ground, NodeRef::Node(nodes[7]), 0.02)
            .unwrap();
        let direct = c.solve(SolveOptions::default()).unwrap();
        let f = c.factorize(SolveOptions::default()).unwrap();
        let v = f.solve_injections(&[]).unwrap();
        for (i, (a, b)) in v.iter().zip(direct.voltages()).enumerate() {
            assert!((a - b).abs() < 1e-8, "node {i}: {a} vs {b}");
        }
    }

    #[test]
    fn injections_add_onto_static_sources() {
        let (mut c, nodes) = ladder(8);
        c.current_source(NodeRef::Ground, NodeRef::Node(nodes[3]), 0.01)
            .unwrap();
        let f = c.factorize(SolveOptions::default()).unwrap();
        // Reference: a sibling circuit carrying both sources directly.
        let (mut c2, nodes2) = ladder(8);
        c2.current_source(NodeRef::Ground, NodeRef::Node(nodes2[3]), 0.01)
            .unwrap();
        c2.current_source(NodeRef::Ground, NodeRef::Node(nodes2[6]), 0.05)
            .unwrap();
        let direct = c2.solve(SolveOptions::default()).unwrap();
        let v = f.solve_injections(&[(nodes[6], 0.05)]).unwrap();
        for (a, b) in v.iter().zip(direct.voltages()) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn injection_into_pinned_node_is_absorbed() {
        let (c, nodes) = ladder(4);
        let f = c.factorize(SolveOptions::default()).unwrap();
        let base = f.solve_injections(&[]).unwrap();
        let with = f.solve_injections(&[(nodes[0], 1.0)]).unwrap();
        assert_eq!(base, with, "pinned node absorbs any injection");
    }

    #[test]
    fn non_grounded_source_is_rejected() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.resistor(NodeRef::Node(a), NodeRef::Ground, 1.0).unwrap();
        c.resistor(NodeRef::Node(b), NodeRef::Ground, 1.0).unwrap();
        c.voltage_source(NodeRef::Node(a), NodeRef::Node(b), 1.0)
            .unwrap();
        assert!(c.factorize(SolveOptions::default()).is_err());
    }

    #[test]
    fn empty_circuit_is_rejected() {
        assert!(Circuit::new().factorize(SolveOptions::default()).is_err());
    }

    #[test]
    fn factorization_is_reusable_and_linear() {
        let (c, nodes) = ladder(10);
        let f = c.factorize(SolveOptions::default()).unwrap();
        let v1 = f.solve_injections(&[(nodes[5], 0.01)]).unwrap();
        let v2 = f.solve_injections(&[(nodes[5], 0.02)]).unwrap();
        // Rise above the 25 V pin doubles with the injection.
        for (a, b) in v1.iter().zip(&v2) {
            assert!(((b - 25.0) - 2.0 * (a - 25.0)).abs() < 1e-7);
        }
    }
}
