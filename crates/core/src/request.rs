//! The typed request/response surface of the optimization engine.
//!
//! An [`OptimizeRequest`] names *what to evaluate* — workload, mesh,
//! and a goal (one transform, the budget search, a Pareto frontier, or
//! the minimal-row search) — and [`Flow::optimize`] dispatches it into
//! the existing machinery, returning an [`OptimizeResponse`] whose
//! [`OptimizeOutcome`] carries the report types of the engine behind
//! each goal.
//!
//! [`CacheKey`] is the stable (process-independent) request fingerprint
//! the `coolserved` job queue dedups on and its result cache persists
//! to disk; [`ENGINE_EPOCH`] is hashed into it first, so answers from
//! an older engine are never found.
//!
//! # Examples
//!
//! ```no_run
//! use postplace::{Flow, FlowConfig, OptimizeRequest, WorkloadSpec};
//!
//! # fn main() -> Result<(), postplace::FlowError> {
//! let config = FlowConfig::scattered_small().fast();
//! let request = OptimizeRequest::builder()
//!     .workload(config.workload.clone())
//!     .mesh(16, 16)
//!     .transform("eri:8")
//!     .build()?;
//! let flow = Flow::new(config)?;
//! let response = flow.optimize(&request)?;
//! let report = response.report().expect("a transform goal yields a report");
//! println!("{} -> {:.2}%", report.transform_id, report.reduction_pct());
//! # Ok(())
//! # }
//! ```

use crate::{
    BudgetOptimum, Flow, FlowConfig, FlowError, FlowReport, OptimizeConfig, ParetoFrontier,
    RowOptimum, Strategy, TransformRegistry, WorkloadSpec,
};
use serde::{Deserialize, Serialize};

/// A 128-bit stable content hasher: two FNV-1a lanes over the same byte
/// stream, seeded differently. Not cryptographic — it keys caches, it
/// does not authenticate them — but identical across processes and
/// releases, which `std`'s `DefaultHasher` does not promise.
#[derive(Debug, Clone, Copy)]
pub struct StableHasher {
    lo: u64,
    hi: u64,
}

impl StableHasher {
    const OFFSET_LO: u64 = 0xcbf2_9ce4_8422_2325;
    /// Second lane: the FNV offset perturbed by the golden-ratio
    /// constant, so the lanes decorrelate from the first byte on.
    const OFFSET_HI: u64 = 0xcbf2_9ce4_8422_2325 ^ 0x9e37_79b9_7f4a_7c15;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    #[expect(
        clippy::new_without_default,
        reason = "the seeded FNV offsets are no neutral default, so a hasher is built by name only"
    )]
    pub fn new() -> Self {
        StableHasher {
            lo: Self::OFFSET_LO,
            hi: Self::OFFSET_HI,
        }
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(Self::PRIME);
            self.hi = (self.hi ^ u64::from(b ^ 0xa5)).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize`.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Feeds an `f64` bit-exactly.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Feeds a string, length-prefixed so field boundaries cannot alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write_bytes(s.as_bytes());
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }
}

/// The numerics generation of the engine, hashed first into every
/// [`CacheKey::of_request`] — the key the result store and its disk
/// documents are found by — and written into every document. Keys hash
/// the request and its resolved configuration, not the answer, so a
/// change that moves answer bits on purpose must bump the epoch: that
/// makes documents computed by an older engine unreachable, and the
/// store rejects any it still finds, so they are recomputed instead of
/// served as current.
///
/// Epoch 1: odd lateral meshes are solved by the spectral tier (a
/// Bluestein DCT) instead of multigrid-preconditioned CG, moving their
/// answers within the old solver's tolerance.
///
/// Epoch 2: budget answers lose their always-zero `screened` count
/// (the budget search no longer screens); every winner is unchanged.
pub const ENGINE_EPOCH: u64 = 2;

/// A stable 128-bit content-hash key, printable as (and parsable from)
/// 32 hex digits, derived from a request and its resolved configuration
/// by [`CacheKey::of_request`]. The service dedups and caches results
/// on it, and every [`OptimizeResponse`] carries the key it answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CacheKey(u128);

impl CacheKey {
    /// Wraps a raw digest.
    pub fn from_raw(raw: u128) -> Self {
        CacheKey(raw)
    }

    /// The raw digest.
    pub fn raw(&self) -> u128 {
        self.0
    }

    /// The fingerprint of a request under a base configuration: a
    /// stable hash of the [`ENGINE_EPOCH`] and every knob that can
    /// change the answer (the request's workload, mesh and goal, plus
    /// the base config's benchmark, simulation, placement, thermal,
    /// power, timing, hotspot and wrapper parameters). The request's
    /// display tag is deliberately excluded.
    pub fn of_request(request: &OptimizeRequest, base: &FlowConfig) -> Self {
        let mut h = StableHasher::new();
        h.write_u64(ENGINE_EPOCH);
        h.write_u64(config_fingerprint(base));
        hash_workload(&mut h, &request.workload);
        h.write_usize(request.mesh.0);
        h.write_usize(request.mesh.1);
        hash_goal(&mut h, &request.goal);
        if let Some(solver) = request.solver {
            // Folded only when explicitly set so pre-existing keys (and
            // every request that inherits the base solver) are
            // unchanged. The marker keeps the conditional tail
            // prefix-free against the goal hash above.
            h.write_u64(0x536f_6c76_6572_4b64); // "SolverKd"
            h.write_u64(match solver {
                thermalsim::SolverKind::Auto => 0,
                thermalsim::SolverKind::Csr => 2,
            });
        }
        CacheKey(h.finish())
    }

    /// Hex form (32 digits) — also the on-disk cache file stem.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses the hex form back.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(CacheKey)
    }
}

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Identifier of a job submitted to the optimization service — a
/// newtype so job handles cannot be confused with cache keys or bare
/// counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct JobId(u64);

impl JobId {
    /// Wraps a raw job number.
    pub fn new(raw: u64) -> Self {
        JobId(raw)
    }

    /// The raw job number.
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{:06}", self.0)
    }
}

/// What an [`OptimizeRequest`] asks the engine to do.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OptimizeGoal {
    /// Run one legacy-facade strategy ([`Strategy`] stays the serde
    /// facade of the paper's techniques).
    Strategy(Strategy),
    /// Run one open-set transform by its stable id (parsed through
    /// [`TransformRegistry::parse`]).
    Transform {
        /// The transform id, e.g. `"composite(eri:8+wrap)"`.
        id: String,
    },
    /// Pick the best technique within an area budget
    /// (the typed form of [`crate::best_strategy_within_budget_with`]).
    BestWithinBudget {
        /// Extra core area as a fraction of the base area.
        budget: f64,
    },
    /// Sweep the registry × budget grid into an exact-verified Pareto
    /// frontier ([`crate::ParetoFrontier`]).
    Frontier {
        /// Area budgets, fractions of the base area.
        budgets: Vec<f64>,
    },
    /// Find the minimal empty-row count reaching a reduction target
    /// (the typed form of [`crate::minimize_rows_for_target`]).
    RowsForTarget {
        /// Required peak-reduction, percent.
        target_reduction_pct: f64,
        /// Largest acceptable row count.
        max_rows: usize,
    },
}

/// A typed optimization request: workload + mesh + goal, with an
/// optional display tag. Build one with [`OptimizeRequest::builder`];
/// evaluate it with [`Flow::optimize`] (single flow) or submit it to the
/// `coolserved` service (many requests over a worker pool).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizeRequest {
    /// The workload to simulate.
    pub workload: WorkloadSpec,
    /// Lateral thermal mesh `(nx, ny)`.
    pub mesh: (usize, usize),
    /// What to compute.
    pub goal: OptimizeGoal,
    /// Display label for logs and reports; never part of the cache key.
    pub tag: Option<String>,
    /// Solver worker threads for this request's thermal solves
    /// (`None` = inherit the base config / service default). Solves are
    /// bit-identical at any thread count, so this knob — like `tag` —
    /// is never part of the cache key; requests differing only in
    /// `solver_threads` dedup onto the same cached result.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub solver_threads: Option<usize>,
    /// Wall-clock budget for this job, milliseconds (`None` = no
    /// deadline). A service worker checks the budget at tier boundaries
    /// (flow build, cache lookup, before a cold solve) and fails the
    /// job with a typed timeout instead of running past it. Like
    /// `solver_threads` this is a latency/QoS knob: a *completed*
    /// answer is identical with or without it, so it is never part of
    /// the cache key.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub deadline_ms: Option<u64>,
    /// Linear-solver backend for this request's thermal solves (`None`
    /// = inherit the base config / service default, normally
    /// [`thermalsim::SolverKind::Auto`]). Unlike `solver_threads`, the
    /// backend **can** change result bits (spectral and CSR agree only
    /// to solver tolerance), so an explicitly set
    /// solver *is* folded into the cache key. It is folded only when
    /// set, so keys of requests that leave it `None` — including every
    /// request minted before this field existed — are unchanged.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub solver: Option<thermalsim::SolverKind>,
}

impl OptimizeRequest {
    /// A fresh builder.
    pub fn builder() -> OptimizeRequestBuilder {
        OptimizeRequestBuilder::default()
    }

    /// The request's display label: the tag if set, otherwise a compact
    /// rendering of the goal.
    pub fn label(&self) -> String {
        if let Some(tag) = &self.tag {
            return tag.clone();
        }
        match &self.goal {
            OptimizeGoal::Strategy(s) => s.to_string(),
            OptimizeGoal::Transform { id } => id.clone(),
            OptimizeGoal::BestWithinBudget { budget } => {
                format!("best(+{:.1}%)", budget * 100.0)
            }
            OptimizeGoal::Frontier { budgets } => format!("frontier({} budgets)", budgets.len()),
            OptimizeGoal::RowsForTarget {
                target_reduction_pct,
                ..
            } => format!("rows(≥{target_reduction_pct:.1}%)"),
        }
    }

    /// The full flow configuration this request resolves to on top of
    /// `base`: the base config with the request's workload and mesh
    /// applied, every other knob kept.
    pub fn resolve_config(&self, base: &FlowConfig) -> FlowConfig {
        let mut config = base.clone();
        config.workload = self.workload.clone();
        config.thermal.grid = thermalsim::GridSpec {
            nx: self.mesh.0,
            ny: self.mesh.1,
        };
        if let Some(threads) = self.solver_threads {
            config.thermal.threads = threads;
        }
        if let Some(solver) = self.solver {
            config.thermal.solver = solver;
        }
        config
    }

    /// Checks what a request needs before a flow is built for it: a
    /// mesh of at least 2x2 and at most [`MAX_MESH_BINS`] bins, a tag of
    /// at most [`MAX_TAG_BYTES`], a transform-goal id that parses, a
    /// frontier of at most [`MAX_FRONTIER_BUDGETS`] budgets and a row
    /// search of at most [`MAX_TARGET_ROWS`] rows. A refusal names the
    /// bound it breaks, not the input. [`OptimizeRequestBuilder::build`]
    /// runs it, and so does the service on every request it executes,
    /// because the fields are public and a hand-built request skips the
    /// builder.
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] naming the first check that fails.
    pub fn validate(&self) -> Result<(), FlowError> {
        let (nx, ny) = self.mesh;
        if nx < 2 || ny < 2 {
            return Err(FlowError::BadRequest {
                detail: format!("mesh {nx}x{ny} is degenerate (needs ≥ 2x2)"),
            });
        }
        if nx.checked_mul(ny).is_none_or(|bins| bins > MAX_MESH_BINS) {
            return Err(FlowError::BadRequest {
                detail: format!(
                    "mesh {nx}x{ny} exceeds the ceiling of {MAX_MESH_BINS} bins (1024x1024)"
                ),
            });
        }
        let refuse = |detail: String| Err(FlowError::BadRequest { detail });
        if let Some(tag) = self.tag.as_ref().filter(|t| t.len() > MAX_TAG_BYTES) {
            return refuse(format!(
                "tag is {} bytes, over the limit of {MAX_TAG_BYTES}",
                tag.len()
            ));
        }
        match &self.goal {
            OptimizeGoal::Transform { id } => {
                // An id past the parser's bounds is refused as it is,
                // without echoing it; any other parse failure names the id.
                TransformRegistry::parse(id).map_err(|e| match e {
                    FlowError::BadRequest { .. } => e,
                    e => FlowError::BadRequest {
                        detail: format!("transform id `{id}` does not parse: {e}"),
                    },
                })?;
            }
            OptimizeGoal::Frontier { budgets } if budgets.len() > MAX_FRONTIER_BUDGETS => {
                return refuse(format!(
                    "frontier names {} budgets, over the limit of {MAX_FRONTIER_BUDGETS}",
                    budgets.len()
                ));
            }
            OptimizeGoal::RowsForTarget { max_rows, .. } if *max_rows > MAX_TARGET_ROWS => {
                return refuse(format!(
                    "rows_for_target max_rows is over the limit of {MAX_TARGET_ROWS}"
                ));
            }
            _ => {}
        }
        Ok(())
    }
}

/// The largest lateral mesh a request may name, in bins (`nx·ny`):
/// 1024², four times the 512² the sweep bench's largest band solves. A
/// spectral model holds about one `f64` per bin and layer, so this
/// bounds one model near 80 MiB, where an unchecked wire request for
/// `[100000, 100000]` would ask for ~10¹¹ values and abort the process.
pub const MAX_MESH_BINS: usize = 1 << 20;

/// The longest tag a request may carry, in bytes. The tag is a display
/// label copied into every job record, so a wire request must not make
/// it arbitrarily large.
pub const MAX_TAG_BYTES: usize = 256;

/// The most budgets a frontier goal may name. The frontier runs the
/// registry × budgets grid, so its cost grows with this count; the sweep
/// bench's frontier names 8.
pub const MAX_FRONTIER_BUDGETS: usize = 64;

/// The largest `max_rows` a row-count search may name. Each candidate
/// lays out the die with that many empty rows added, so the bound is
/// tied to the die: the paper-scale die has 139 rows, and 1,024 more
/// would grow its area ~8-fold, far past the 32 % overhead the paper
/// stops at, while an unchecked wire request for 10⁹ rows would lay out
/// a floorplan of 10⁹ rows.
pub const MAX_TARGET_ROWS: usize = 1024;

/// Builder for [`OptimizeRequest`]. `workload`, `mesh` and exactly one
/// goal are required; setting a second goal replaces the first.
#[derive(Debug, Clone, Default)]
pub struct OptimizeRequestBuilder {
    workload: Option<WorkloadSpec>,
    mesh: Option<(usize, usize)>,
    goal: Option<OptimizeGoal>,
    tag: Option<String>,
    solver_threads: Option<usize>,
    deadline_ms: Option<u64>,
    solver: Option<thermalsim::SolverKind>,
}

impl OptimizeRequestBuilder {
    /// Sets the workload (required).
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// Sets the lateral thermal mesh (required).
    pub fn mesh(mut self, nx: usize, ny: usize) -> Self {
        self.mesh = Some((nx, ny));
        self
    }

    /// Sets the workload and mesh from an existing flow's configuration
    /// — the common case when dispatching more goals against a flow that
    /// is already built.
    pub fn for_flow(self, flow: &Flow) -> Self {
        let config = flow.config();
        self.workload(config.workload.clone())
            .mesh(config.thermal.grid.nx, config.thermal.grid.ny)
    }

    /// Goal: run one legacy-facade strategy.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.goal = Some(OptimizeGoal::Strategy(strategy));
        self
    }

    /// Goal: run one transform by stable id.
    pub fn transform(mut self, id: impl Into<String>) -> Self {
        self.goal = Some(OptimizeGoal::Transform { id: id.into() });
        self
    }

    /// Goal: best technique within an area budget (fraction).
    pub fn budget(mut self, budget: f64) -> Self {
        self.goal = Some(OptimizeGoal::BestWithinBudget { budget });
        self
    }

    /// Goal: exact-verified Pareto frontier over `budgets`.
    pub fn frontier(mut self, budgets: impl IntoIterator<Item = f64>) -> Self {
        self.goal = Some(OptimizeGoal::Frontier {
            budgets: budgets.into_iter().collect(),
        });
        self
    }

    /// Goal: minimal row count reaching `target_reduction_pct`.
    pub fn rows_for_target(mut self, target_reduction_pct: f64, max_rows: usize) -> Self {
        self.goal = Some(OptimizeGoal::RowsForTarget {
            target_reduction_pct,
            max_rows,
        });
        self
    }

    /// Optional display tag (logs and labels only, never the cache key).
    pub fn tag(mut self, tag: impl Into<String>) -> Self {
        self.tag = Some(tag.into());
        self
    }

    /// Optional solver thread count for this request's thermal solves
    /// (a latency knob — never the cache key; results are bit-identical
    /// at any thread count).
    pub fn solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = Some(threads);
        self
    }

    /// Optional wall-clock budget in milliseconds (a QoS knob — never
    /// the cache key; a completed answer is identical with or without
    /// it, a blown budget surfaces as a typed timeout).
    pub fn deadline_ms(mut self, deadline_ms: u64) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Optional linear-solver backend override (part of the cache key
    /// when set — see [`OptimizeRequest::solver`]).
    pub fn solver(mut self, solver: thermalsim::SolverKind) -> Self {
        self.solver = Some(solver);
        self
    }

    /// Validates and builds the request.
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] when workload, mesh or goal is missing,
    /// the mesh is degenerate or above [`MAX_MESH_BINS`], or a
    /// transform-goal id does not parse.
    pub fn build(self) -> Result<OptimizeRequest, FlowError> {
        let workload = self.workload.ok_or_else(|| FlowError::BadRequest {
            detail: "request needs a workload".to_string(),
        })?;
        let mesh = self.mesh.ok_or_else(|| FlowError::BadRequest {
            detail: "request needs a mesh".to_string(),
        })?;
        let goal = self.goal.ok_or_else(|| FlowError::BadRequest {
            detail: "request needs a goal (strategy / transform / budget / frontier / rows)"
                .to_string(),
        })?;
        let request = OptimizeRequest {
            workload,
            mesh,
            goal,
            tag: self.tag,
            solver_threads: self.solver_threads,
            deadline_ms: self.deadline_ms,
            solver: self.solver,
        };
        request.validate()?;
        Ok(request)
    }
}

/// What an [`OptimizeResponse`] carries, matching the request's goal.
#[derive(Debug, Clone)]
pub enum OptimizeOutcome {
    /// From a strategy or transform goal.
    Report(FlowReport),
    /// From a budget goal.
    Budget(BudgetOptimum),
    /// From a frontier goal.
    Frontier(ParetoFrontier),
    /// From a rows-for-target goal.
    Rows(RowOptimum),
}

/// The deterministic result of one [`Flow::optimize`] dispatch.
///
/// Deliberately carries **no** wall-clock or cache-hit metadata: a
/// response answered from a warm cache must be bit-identical to the
/// cold solve it stands in for, so per-call metadata lives on the
/// service's job envelope instead.
#[must_use = "an OptimizeResponse is the entire output of a request"]
#[derive(Debug, Clone)]
pub struct OptimizeResponse {
    /// The request fingerprint this response answers
    /// ([`CacheKey::of_request`] under the flow's config).
    pub key: CacheKey,
    /// The goal-shaped result.
    pub outcome: OptimizeOutcome,
}

impl OptimizeResponse {
    /// The single report of the outcome, if the goal produced one
    /// (transform/strategy goals directly; budget and rows goals via
    /// their winning report).
    pub fn report(&self) -> Option<&FlowReport> {
        match &self.outcome {
            OptimizeOutcome::Report(r) => Some(r),
            OptimizeOutcome::Budget(b) => Some(&b.report),
            OptimizeOutcome::Rows(r) => Some(&r.report),
            OptimizeOutcome::Frontier(_) => None,
        }
    }

    /// The frontier of the outcome, for frontier goals.
    pub fn frontier(&self) -> Option<&ParetoFrontier> {
        match &self.outcome {
            OptimizeOutcome::Frontier(f) => Some(f),
            _ => None,
        }
    }
}

fn hash_workload(h: &mut StableHasher, spec: &WorkloadSpec) {
    h.write_usize(spec.active.len());
    for role in &spec.active {
        h.write_usize(role.unit_id().index());
    }
    h.write_f64(spec.toggle_probability);
}

fn hash_goal(h: &mut StableHasher, goal: &OptimizeGoal) {
    match goal {
        OptimizeGoal::Strategy(s) => {
            h.write_u64(1);
            hash_strategy(h, *s);
        }
        OptimizeGoal::Transform { id } => {
            h.write_u64(2);
            h.write_str(id);
        }
        OptimizeGoal::BestWithinBudget { budget } => {
            h.write_u64(3);
            h.write_f64(*budget);
        }
        OptimizeGoal::Frontier { budgets } => {
            h.write_u64(4);
            h.write_usize(budgets.len());
            for &b in budgets {
                h.write_f64(b);
            }
        }
        OptimizeGoal::RowsForTarget {
            target_reduction_pct,
            max_rows,
        } => {
            h.write_u64(5);
            h.write_f64(*target_reduction_pct);
            h.write_usize(*max_rows);
        }
    }
}

fn hash_strategy(h: &mut StableHasher, strategy: Strategy) {
    match strategy {
        Strategy::None => h.write_u64(0),
        Strategy::UniformSlack { area_overhead } => {
            h.write_u64(1);
            h.write_f64(area_overhead);
        }
        Strategy::EmptyRowInsertion { rows } => {
            h.write_u64(2);
            h.write_usize(rows);
        }
        Strategy::HotspotWrapper { area_overhead } => {
            h.write_u64(3);
            h.write_f64(area_overhead);
        }
    }
}

/// A stable content hash of every [`FlowConfig`] knob that can change
/// an answer — the salt folded into request fingerprints and content
/// keys so configurations never share cache entries they should not.
pub fn config_fingerprint(config: &FlowConfig) -> u64 {
    let mut h = StableHasher::new();
    let b = &config.benchmark;
    h.write_str(&b.name);
    for w in [
        b.rca_width,
        b.cla_width,
        b.csel_width,
        b.array_mult_width,
        b.wallace_mult_width,
        b.booth_mult_width,
        b.mac_width,
        b.alu_width,
        b.divider_width,
    ] {
        h.write_usize(w);
    }
    hash_workload(&mut h, &config.workload);
    h.write_usize(config.warmup_cycles);
    h.write_usize(config.cycles);
    h.write_u64(config.seed);
    h.write_f64(config.base_utilization);
    h.write_u64(config.thermal.stable_fingerprint());
    h.write_f64(config.power.clock_hz);
    h.write_f64(config.power.wire_cap_ff_per_um);
    h.write_f64(config.power.leakage_doubling_c);
    h.write_f64(config.power.reference_temp_c);
    h.write_f64(config.timing.clock_period_ps);
    h.write_f64(config.timing.wire_res_ohm_per_um);
    h.write_f64(config.timing.wire_cap_ff_per_um);
    h.write_f64(config.timing.cell_derate_per_c);
    h.write_f64(config.timing.wire_derate_per_c);
    h.write_f64(config.timing.reference_temp_c);
    h.write_f64(config.hotspot.threshold_fraction);
    h.write_usize(config.hotspot.min_bins);
    h.write_f64(config.wrapper.ring_rows);
    h.write_f64(config.wrapper.hot_cell_factor);
    h.write_f64(config.wrapper.threshold_fraction);
    h.write_f64(config.wrapper.min_hot_share);
    h.write_usize(config.leakage_feedback_iters);
    let digest = h.finish();
    (digest >> 64) as u64 ^ digest as u64
}

impl Flow {
    /// Validates that `request` targets this flow's workload and mesh —
    /// a flow is built *for* one (workload, mesh); dispatching a
    /// mismatched request would silently answer a different question.
    fn check_request(&self, request: &OptimizeRequest) -> Result<(), FlowError> {
        let config = self.config();
        if request.workload != config.workload {
            return Err(FlowError::BadRequest {
                detail: format!(
                    "request workload does not match this flow (`{}`)",
                    request.label()
                ),
            });
        }
        let mesh = (config.thermal.grid.nx, config.thermal.grid.ny);
        if request.mesh != mesh {
            return Err(FlowError::BadRequest {
                detail: format!(
                    "request mesh {}x{} does not match this flow's {}x{}",
                    request.mesh.0, request.mesh.1, mesh.0, mesh.1
                ),
            });
        }
        Ok(())
    }

    /// Dispatches a typed request against this flow with the standard
    /// registry and default [`OptimizeConfig`].
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] when the request does not match this
    /// flow's workload/mesh; otherwise whatever the dispatched engine
    /// surface returns.
    pub fn optimize(&self, request: &OptimizeRequest) -> Result<OptimizeResponse, FlowError> {
        self.optimize_with(
            request,
            &TransformRegistry::standard(),
            &OptimizeConfig::default(),
        )
    }

    /// [`Flow::optimize`] with an explicit transform registry and optimizer
    /// knobs (custom registries, budget slack, frontier resolution).
    ///
    /// # Errors
    ///
    /// As [`Flow::optimize`].
    pub fn optimize_with(
        &self,
        request: &OptimizeRequest,
        registry: &TransformRegistry,
        config: &OptimizeConfig,
    ) -> Result<OptimizeResponse, FlowError> {
        self.check_request(request)?;
        let outcome = match &request.goal {
            OptimizeGoal::Strategy(strategy) => OptimizeOutcome::Report(self.run(*strategy)?),
            OptimizeGoal::Transform { id } => {
                let transform = TransformRegistry::parse(id)?;
                OptimizeOutcome::Report(self.run_transform(transform.as_ref())?)
            }
            OptimizeGoal::BestWithinBudget { budget } => OptimizeOutcome::Budget(
                crate::optimize::best_strategy_within_budget_with(self, *budget, config)?,
            ),
            OptimizeGoal::Frontier { budgets } => OptimizeOutcome::Frontier(
                crate::optimize::compute_pareto_frontier(self, budgets, registry, config)?,
            ),
            OptimizeGoal::RowsForTarget {
                target_reduction_pct,
                max_rows,
            } => OptimizeOutcome::Rows(crate::optimize::minimize_rows_for_target(
                self,
                *target_reduction_pct,
                *max_rows,
            )?),
        };
        Ok(OptimizeResponse {
            key: CacheKey::of_request(request, self.config()),
            outcome,
        })
    }

    /// The result-store key of a request against this flow:
    /// [`CacheKey::of_request`] under the flow's config, the same key
    /// [`Flow::optimize`] stamps on its response.
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] when the request does not match this
    /// flow's workload/mesh.
    pub fn content_key(&self, request: &OptimizeRequest) -> Result<CacheKey, FlowError> {
        self.check_request(request)?;
        Ok(CacheKey::of_request(request, self.config()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> OptimizeRequest {
        OptimizeRequest::builder()
            .workload(WorkloadSpec::checkerboard())
            .mesh(16, 16)
            .transform("eri:8")
            .tag("t")
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_workload_mesh_and_goal() {
        assert!(OptimizeRequest::builder().build().is_err());
        assert!(OptimizeRequest::builder()
            .workload(WorkloadSpec::checkerboard())
            .mesh(16, 16)
            .build()
            .is_err());
        assert!(OptimizeRequest::builder()
            .workload(WorkloadSpec::checkerboard())
            .transform("eri:8")
            .build()
            .is_err());
        assert!(request().tag.is_some());
    }

    #[test]
    fn builder_rejects_bad_transform_ids_and_degenerate_meshes() {
        let bad_id = OptimizeRequest::builder()
            .workload(WorkloadSpec::checkerboard())
            .mesh(16, 16)
            .transform("bogus:1")
            .build();
        assert!(matches!(bad_id, Err(FlowError::BadRequest { .. })));
        let bad_mesh = OptimizeRequest::builder()
            .workload(WorkloadSpec::checkerboard())
            .mesh(1, 16)
            .transform("eri:8")
            .build();
        assert!(matches!(bad_mesh, Err(FlowError::BadRequest { .. })));
    }

    #[test]
    fn fingerprints_are_stable_across_processes() {
        // Golden value of the key the result store and its disk
        // documents are found by. If it moves because `ENGINE_EPOCH`
        // was bumped, update the digest; any other move (a changed
        // hashing scheme, a randomized hasher) breaks persisted caches.
        let key = CacheKey::of_request(&request(), &FlowConfig::scattered_small().fast());
        assert_eq!(key, CacheKey::from_hex(&key.to_hex()).unwrap());
        assert_eq!(
            key.to_hex(),
            "ab082c51f4368866c1daad9b5d5a0d7a",
            "request fingerprint moved (epoch {ENGINE_EPOCH})"
        );
    }

    #[test]
    fn content_keys_are_request_fingerprints() {
        // The result store is keyed by the request fingerprint under
        // the resolved config, before any flow exists; a flow's content
        // key and its response's key must both be that same value, or
        // a stored answer would never be found again.
        let base = FlowConfig::scattered_small().fast();
        let request = request();
        let resolved = request.resolve_config(&base);
        let flow = Flow::new(resolved.clone()).unwrap();
        let key = flow.content_key(&request).unwrap();
        assert_eq!(key, CacheKey::of_request(&request, &resolved));
        assert_eq!(key, flow.optimize(&request).unwrap().key);
    }

    #[test]
    fn tag_does_not_perturb_the_key() {
        let base = FlowConfig::scattered_small().fast();
        let mut tagged = request();
        tagged.tag = Some("renamed".to_string());
        assert_eq!(
            CacheKey::of_request(&request(), &base),
            CacheKey::of_request(&tagged, &base)
        );
    }

    #[test]
    fn solver_threads_do_not_perturb_the_key() {
        // Solves are bit-identical at any thread count, so a request
        // differing only in thread count must dedup onto the same
        // cached result.
        let base = FlowConfig::scattered_small().fast();
        let mut threaded = request();
        threaded.solver_threads = Some(4);
        assert_eq!(
            CacheKey::of_request(&request(), &base),
            CacheKey::of_request(&threaded, &base)
        );
        assert_eq!(
            threaded.resolve_config(&base).thermal.threads,
            4,
            "resolve_config applies the knob"
        );
        assert_eq!(
            request().resolve_config(&base).thermal.threads,
            base.thermal.threads
        );
    }

    #[test]
    fn deadline_does_not_perturb_the_key() {
        // A deadline changes *whether* an answer arrives in time, never
        // what the answer is — so a deadlined request must share the
        // cached result of its unbounded twin.
        let base = FlowConfig::scattered_small().fast();
        let mut bounded = request();
        bounded.deadline_ms = Some(250);
        assert_eq!(
            CacheKey::of_request(&request(), &base),
            CacheKey::of_request(&bounded, &base)
        );
    }

    #[test]
    fn solver_perturbs_the_key_only_when_set() {
        // Backend selection can change result bits, so an explicit
        // solver must key a distinct cache slot — but an unset one
        // must leave the key exactly as it was before the field
        // existed (the golden digest above pins that).
        let base = FlowConfig::scattered_small().fast();
        let reference = CacheKey::of_request(&request(), &base);
        let mut forced = request();
        forced.solver = Some(thermalsim::SolverKind::Csr);
        assert_ne!(CacheKey::of_request(&forced, &base), reference);
        assert_eq!(
            forced.resolve_config(&base).thermal.solver,
            thermalsim::SolverKind::Csr,
            "resolve_config applies the override"
        );
        let mut oracle = request();
        oracle.solver = Some(thermalsim::SolverKind::Auto);
        assert_ne!(CacheKey::of_request(&oracle, &base), reference);
        assert_ne!(
            CacheKey::of_request(&oracle, &base),
            CacheKey::of_request(&forced, &base),
            "distinct backends key distinct slots"
        );
        assert_eq!(
            request().resolve_config(&base).thermal.solver,
            base.thermal.solver,
            "unset solver inherits the base config"
        );
        let built = OptimizeRequest::builder()
            .workload(WorkloadSpec::checkerboard())
            .mesh(16, 16)
            .transform("eri:8")
            .solver(thermalsim::SolverKind::Csr)
            .build()
            .unwrap();
        assert_eq!(built.solver, Some(thermalsim::SolverKind::Csr));
    }

    #[test]
    fn every_knob_perturbs_the_key() {
        let base = FlowConfig::scattered_small().fast();
        let reference = CacheKey::of_request(&request(), &base);
        let mut other = request();
        other.mesh = (16, 18);
        assert_ne!(CacheKey::of_request(&other, &base), reference);
        let mut other = request();
        other.goal = OptimizeGoal::Transform {
            id: "eri:9".to_string(),
        };
        assert_ne!(CacheKey::of_request(&other, &base), reference);
        let mut other = request();
        other.workload = WorkloadSpec::clustered_hotspot();
        assert_ne!(CacheKey::of_request(&other, &base), reference);
        let mut salted = base.clone();
        salted.seed ^= 1;
        assert_ne!(CacheKey::of_request(&request(), &salted), reference);
        let mut salted = base;
        salted.thermal.tolerance *= 0.5;
        assert_ne!(CacheKey::of_request(&request(), &salted), reference);
    }

    #[test]
    fn goal_variants_cannot_alias() {
        let base = FlowConfig::scattered_small().fast();
        let strategy = OptimizeRequest::builder()
            .workload(WorkloadSpec::checkerboard())
            .mesh(16, 16)
            .strategy(Strategy::EmptyRowInsertion { rows: 8 })
            .build()
            .unwrap();
        let transform = request(); // transform "eri:8" — same physics
        assert_ne!(
            CacheKey::of_request(&strategy, &base),
            CacheKey::of_request(&transform, &base),
            "request fingerprints key the *request*, not the physics"
        );
    }

    #[test]
    fn job_ids_display_compactly() {
        assert_eq!(JobId::new(42).to_string(), "job-000042");
        assert_eq!(JobId::new(42).value(), 42);
    }
}
