//! Modified nodal analysis: system assembly, Dirichlet reduction and
//! solver dispatch.

use std::collections::HashMap;

use crate::circuit::{Circuit, NodeRef};
use crate::dense::lu_solve;
use crate::solution::DcSolution;
use crate::sparse::{conjugate_gradient, CsrMatrix};
use crate::SolveError;

/// Solver selection for [`Circuit::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Pick automatically: Dirichlet-reduced conjugate gradients when every
    /// voltage source is ideal-to-ground, dense LU otherwise.
    #[default]
    Auto,
    /// Force the sparse CG path (requires grounded voltage sources).
    ConjugateGradient,
    /// Force the dense full-MNA path (exact, O(n³) — small circuits only).
    DenseLu,
}

/// Options for [`Circuit::solve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveOptions {
    /// Solver selection.
    pub method: Method,
    /// Relative residual tolerance for the iterative path.
    pub tolerance: f64,
    /// Iteration cap for the iterative path (default `20·n + 100`).
    pub max_iterations: Option<usize>,
    /// Worker threads for the factorized solvers (`0` and `1` both mean
    /// single-threaded). Results are bit-identical at any thread count
    /// — see [`crate::pool`] — so this is purely a latency knob.
    pub threads: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            method: Method::Auto,
            tolerance: 1e-10,
            max_iterations: None,
            threads: 1,
        }
    }
}

/// Returns `Some(map)` of node-index → fixed voltage when every voltage
/// source is ideal-to-ground; `None` otherwise. Conflicting constraints
/// yield an error.
pub(crate) fn dirichlet_map(c: &Circuit) -> Result<Option<HashMap<usize, f64>>, SolveError> {
    let mut fixed: HashMap<usize, f64> = HashMap::new();
    for vs in &c.vsources {
        let (node, volts) = match (vs.pos, vs.neg) {
            (NodeRef::Node(n), NodeRef::Ground) => (n.index(), vs.volts),
            (NodeRef::Ground, NodeRef::Node(n)) => (n.index(), -vs.volts),
            _ => return Ok(None),
        };
        if let Some(&prev) = fixed.get(&node) {
            if (prev - volts).abs() > 1e-12 {
                return Err(SolveError::Singular {
                    detail: format!(
                        "node {} is pinned to both {prev} V and {volts} V",
                        c.node_name(crate::NodeId::new(node))
                    ),
                });
            }
        }
        fixed.insert(node, volts);
    }
    Ok(Some(fixed))
}

/// The Dirichlet-reduced SPD system of a circuit: the conductance matrix
/// over non-pinned nodes plus the constant right-hand-side contribution
/// of the pinned (voltage-source) couplings. Everything here depends only
/// on the resistor pattern and the source voltages — not on the current
/// sources — so it can be assembled once and re-solved against many
/// injection vectors (see [`crate::FactorizedCircuit`]).
#[derive(Debug)]
pub(crate) struct ReducedSystem {
    /// Node index → reduced index (`None` for pinned nodes).
    pub(crate) reduced: Vec<Option<usize>>,
    /// Node index → pinned voltage.
    pub(crate) fixed: HashMap<usize, f64>,
    /// Reduced conductance matrix (SPD).
    pub(crate) a: CsrMatrix,
    /// RHS contribution of resistor couplings into pinned nodes.
    pub(crate) fixed_rhs: Vec<f64>,
}

/// Assembles the reduced system, rejecting nodes with no resistive path.
pub(crate) fn reduce(c: &Circuit, fixed: HashMap<usize, f64>) -> Result<ReducedSystem, SolveError> {
    let n = c.node_count();
    // Map unknown nodes to a dense reduced index space.
    let mut reduced: Vec<Option<usize>> = vec![None; n];
    let mut n_red = 0;
    for (i, slot) in reduced.iter_mut().enumerate() {
        if !fixed.contains_key(&i) {
            *slot = Some(n_red);
            n_red += 1;
        }
    }
    let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(4 * c.resistors.len());
    let mut fixed_rhs = vec![0.0; n_red];
    for r in &c.resistors {
        let g = 1.0 / r.ohms;
        let ends = [r.a, r.b];
        for (this, other) in [(ends[0], ends[1]), (ends[1], ends[0])] {
            let NodeRef::Node(ti) = this else { continue };
            let Some(ri) = reduced[ti.index()] else {
                continue;
            };
            triplets.push((ri, ri, g));
            match other {
                NodeRef::Ground => {}
                NodeRef::Node(oi) => match reduced[oi.index()] {
                    Some(rj) => triplets.push((ri, rj, -g)),
                    None => fixed_rhs[ri] += g * fixed[&oi.index()],
                },
            }
        }
    }
    let a = CsrMatrix::from_triplets(n_red, &triplets);
    // A node with no resistive attachment has an empty row — singular.
    for (i, &d) in a.diagonal().iter().enumerate() {
        if d <= 0.0 {
            let name = (0..n)
                .find(|&k| reduced[k] == Some(i))
                .map(|k| c.node_name(crate::NodeId::new(k)).to_string())
                .unwrap_or_default();
            return Err(SolveError::Singular {
                detail: format!("node {name} has no resistive path"),
            });
        }
    }
    Ok(ReducedSystem {
        reduced,
        fixed,
        a,
        fixed_rhs,
    })
}

impl ReducedSystem {
    /// Adds the circuit's own current sources onto a reduced RHS.
    pub(crate) fn isource_rhs_into(&self, c: &Circuit, rhs: &mut [f64]) {
        for s in &c.isources {
            if let NodeRef::Node(t) = s.to {
                if let Some(ri) = self.reduced[t.index()] {
                    rhs[ri] += s.amps;
                }
            }
            if let NodeRef::Node(fr) = s.from {
                if let Some(ri) = self.reduced[fr.index()] {
                    rhs[ri] -= s.amps;
                }
            }
        }
    }

    /// Expands a reduced solution back to per-node voltages.
    pub(crate) fn expand(&self, x: &[f64]) -> Vec<f64> {
        self.reduced
            .iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(r) => x[*r],
                None => self.fixed[&i],
            })
            .collect()
    }
}

fn solve_reduced(
    c: &Circuit,
    fixed: HashMap<usize, f64>,
    options: &SolveOptions,
) -> Result<DcSolution, SolveError> {
    let sys = reduce(c, fixed)?;
    let n_red = sys.a.n();
    let mut rhs = sys.fixed_rhs.clone();
    sys.isource_rhs_into(c, &mut rhs);
    let max_iter = options.max_iterations.unwrap_or(20 * n_red + 100);
    let (x, iterations, residual) = if n_red == 0 {
        (Vec::new(), 0, 0.0)
    } else {
        conjugate_gradient(&sys.a, &rhs, options.tolerance, max_iter).map_err(
            |(iterations, residual)| {
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
            },
        )?
    };
    let voltages: Vec<f64> = sys.expand(&x);
    // Current delivered by each voltage source = KCL imbalance at its node.
    let volt_of = |r: NodeRef| -> f64 {
        match r {
            NodeRef::Ground => 0.0,
            NodeRef::Node(id) => voltages[id.index()],
        }
    };
    let vsource_currents: Vec<f64> = c
        .vsources
        .iter()
        .map(|vs| {
            let (node_ref, sign) = match (vs.pos, vs.neg) {
                (NodeRef::Node(_), NodeRef::Ground) => (vs.pos, 1.0),
                (NodeRef::Ground, NodeRef::Node(_)) => (vs.neg, -1.0),
                _ => unreachable!("reduced path requires grounded sources"),
            };
            let mut out = 0.0;
            for r in &c.resistors {
                if r.a == node_ref {
                    out += (volt_of(r.a) - volt_of(r.b)) / r.ohms;
                } else if r.b == node_ref {
                    out += (volt_of(r.b) - volt_of(r.a)) / r.ohms;
                }
            }
            for s in &c.isources {
                if s.to == node_ref {
                    out -= s.amps;
                }
                if s.from == node_ref {
                    out += s.amps;
                }
            }
            sign * out
        })
        .collect();
    Ok(DcSolution::new(
        voltages,
        vsource_currents,
        iterations,
        residual,
    ))
}

fn solve_dense(c: &Circuit, _options: &SolveOptions) -> Result<DcSolution, SolveError> {
    let n = c.node_count();
    let m = c.vsources.len();
    let dim = n + m;
    let mut a = vec![vec![0.0; dim]; dim];
    let mut b = vec![0.0; dim];
    let idx = |r: NodeRef| -> Option<usize> {
        match r {
            NodeRef::Ground => None,
            NodeRef::Node(id) => Some(id.index()),
        }
    };
    for r in &c.resistors {
        let g = 1.0 / r.ohms;
        let ia = idx(r.a);
        let ib = idx(r.b);
        if let Some(i) = ia {
            a[i][i] += g;
        }
        if let Some(j) = ib {
            a[j][j] += g;
        }
        if let (Some(i), Some(j)) = (ia, ib) {
            a[i][j] -= g;
            a[j][i] -= g;
        }
    }
    for s in &c.isources {
        if let Some(i) = idx(s.to) {
            b[i] += s.amps;
        }
        if let Some(i) = idx(s.from) {
            b[i] -= s.amps;
        }
    }
    for (k, vs) in c.vsources.iter().enumerate() {
        let row = n + k;
        if let Some(i) = idx(vs.pos) {
            a[i][row] += 1.0;
            a[row][i] += 1.0;
        }
        if let Some(i) = idx(vs.neg) {
            a[i][row] -= 1.0;
            a[row][i] -= 1.0;
        }
        b[row] = vs.volts;
    }
    let x = lu_solve(a, b).ok_or_else(|| SolveError::Singular {
        detail: "MNA matrix is singular (floating node or source loop)".to_string(),
    })?;
    let voltages = x[..n].to_vec();
    // MNA's extra unknowns are the currents *into* the positive terminal;
    // negate to report the current delivered by the source.
    let vsource_currents = x[n..].iter().map(|i| -i).collect();
    Ok(DcSolution::new(voltages, vsource_currents, 0, 0.0))
}

pub(crate) fn solve(c: &Circuit, options: SolveOptions) -> Result<DcSolution, SolveError> {
    if c.node_count() == 0 || c.element_count() == 0 {
        return Err(SolveError::EmptyCircuit);
    }
    match options.method {
        Method::DenseLu => solve_dense(c, &options),
        Method::ConjugateGradient => match dirichlet_map(c)? {
            Some(fixed) => solve_reduced(c, fixed, &options),
            None => Err(SolveError::Singular {
                detail: "CG path requires all voltage sources grounded".to_string(),
            }),
        },
        Method::Auto => match dirichlet_map(c)? {
            Some(fixed) => solve_reduced(c, fixed, &options),
            None => solve_dense(c, &options),
        },
    }
}
