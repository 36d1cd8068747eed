//! Scenario grids: the (workload × mesh × strategy) axes of the
//! paper's comparisons, expanded into typed requests.
//!
//! A [`SweepGrid`] names the axes and [`SweepGrid::requests`] expands
//! them into one [`OptimizeRequest`] per [`Scenario`], in a fixed order.
//! Nothing here runs a flow: submit the requests to the `coolserved`
//! service, which builds one [`crate::Flow`] per (workload, mesh) and
//! answers them across its worker pool, or dispatch them one by one
//! with [`crate::Flow::optimize`].
//!
//! # Examples
//!
//! ```no_run
//! use postplace::{FlowConfig, Strategy, SweepGrid};
//!
//! # fn main() -> Result<(), postplace::FlowError> {
//! let grid = SweepGrid::new(FlowConfig::scattered_small().fast())
//!     .mesh(16, 16)
//!     .strategy(Strategy::UniformSlack { area_overhead: 0.16 })
//!     .row_counts([4, 8, 12]);
//! for (scenario, request) in grid.scenarios().iter().zip(grid.requests()?) {
//!     println!("{}: {:?} at {:?}", scenario.index, request.goal, request.mesh);
//! }
//! # Ok(())
//! # }
//! ```

use crate::{FlowConfig, FlowError, OptimizeRequest, Strategy, WorkloadSpec};

/// One cell of the sweep grid: which workload, mesh resolution and
/// transformation to evaluate.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Position in the expanded grid (stable across thread counts).
    pub index: usize,
    /// Label of the workload axis entry.
    pub workload: String,
    /// Lateral mesh resolution `(nx, ny)`.
    pub mesh: (usize, usize),
    /// The transformation under evaluation (the legacy facade;
    /// [`Strategy::None`] for open-set transform scenarios, whose
    /// [`Scenario::transform`] id is authoritative).
    pub strategy: Strategy,
    /// Stable transform id for scenarios from the grid's transform axis
    /// (parsed with [`crate::TransformRegistry::parse`] at evaluation
    /// time); `None` for strategy-axis scenarios.
    pub transform: Option<String>,
}

impl Scenario {
    /// The scenario's display label: the transform id when the scenario
    /// comes from the transform axis, the strategy's compact form
    /// otherwise.
    pub fn label(&self) -> String {
        match &self.transform {
            Some(id) => id.clone(),
            None => self.strategy.to_string(),
        }
    }
}

/// The axes of a scenario sweep. Scenarios are the cartesian product
/// `workloads × meshes × strategies`, expanded in that nesting order; an
/// empty workload or mesh axis falls back to the base config's own value
/// at expansion time.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Template configuration; each scenario overrides the workload and
    /// the lateral mesh resolution, keeping every other knob.
    pub base: FlowConfig,
    /// Labelled workloads (empty = sweep the base config's workload,
    /// labelled `"base"`).
    pub workloads: Vec<(String, WorkloadSpec)>,
    /// Lateral mesh resolutions (empty = the base config's mesh).
    pub meshes: Vec<(usize, usize)>,
    /// Strategies (including row-count variants) to evaluate per
    /// workload × mesh combination.
    pub strategies: Vec<Strategy>,
    /// Open-set transforms, by stable id (see
    /// [`crate::PlacementTransform::id`]), appended after the strategy
    /// axis in every workload × mesh combination.
    pub transforms: Vec<String>,
}

impl SweepGrid {
    /// A grid over `base` with empty axes; add strategies (required) and
    /// optionally workloads and meshes.
    pub fn new(base: FlowConfig) -> Self {
        SweepGrid {
            base,
            workloads: Vec::new(),
            meshes: Vec::new(),
            strategies: Vec::new(),
            transforms: Vec::new(),
        }
    }

    /// Adds a labelled workload to the workload axis.
    pub fn workload(mut self, label: impl Into<String>, spec: WorkloadSpec) -> Self {
        self.workloads.push((label.into(), spec));
        self
    }

    /// Adds a mesh resolution to the mesh axis.
    pub fn mesh(mut self, nx: usize, ny: usize) -> Self {
        self.meshes.push((nx, ny));
        self
    }

    /// Adds several mesh resolutions at once — the shape the large-mesh
    /// scenario band uses (`.meshes([(80, 80), (128, 128)])`), which the
    /// spectral direct solver makes practical.
    pub fn meshes(mut self, meshes: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.meshes.extend(meshes);
        self
    }

    /// Adds one strategy to the strategy axis.
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategies.push(strategy);
        self
    }

    /// Adds one [`Strategy::EmptyRowInsertion`] entry per row count.
    pub fn row_counts(mut self, rows: impl IntoIterator<Item = usize>) -> Self {
        self.strategies.extend(
            rows.into_iter()
                .map(|rows| Strategy::EmptyRowInsertion { rows }),
        );
        self
    }

    /// Adds an open-set transform to the grid by its stable id (e.g.
    /// `"composite(eri:8+wrap)"`). The id is checked when the grid is
    /// expanded: an unparsable one fails [`SweepGrid::requests`].
    pub fn transform(mut self, id: impl Into<String>) -> Self {
        self.transforms.push(id.into());
        self
    }

    fn effective_workloads(&self) -> Vec<(String, WorkloadSpec)> {
        if self.workloads.is_empty() {
            vec![("base".to_string(), self.base.workload.clone())]
        } else {
            self.workloads.clone()
        }
    }

    fn effective_meshes(&self) -> Vec<(usize, usize)> {
        if self.meshes.is_empty() {
            vec![(self.base.thermal.grid.nx, self.base.thermal.grid.ny)]
        } else {
            self.meshes.clone()
        }
    }

    /// The full flow configuration a scenario resolves to: its request
    /// resolved against the base config, exactly as the service resolves
    /// it. For replaying one scenario outside the service (e.g. a test
    /// building that scenario's flow directly).
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] when the scenario does not validate.
    pub fn scenario_config(&self, scenario: &Scenario) -> Result<FlowConfig, FlowError> {
        Ok(self.scenario_request(scenario)?.resolve_config(&self.base))
    }

    /// Number of scenarios the grid expands to.
    pub fn scenario_count(&self) -> usize {
        self.effective_workloads().len()
            * self.effective_meshes().len()
            * (self.strategies.len() + self.transforms.len())
    }

    /// Expands the axes into the full scenario list.
    pub fn scenarios(&self) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(self.scenario_count());
        for (label, _) in &self.effective_workloads() {
            for &mesh in &self.effective_meshes() {
                for &strategy in &self.strategies {
                    out.push(Scenario {
                        index: out.len(),
                        workload: label.clone(),
                        mesh,
                        strategy,
                        transform: None,
                    });
                }
                for id in &self.transforms {
                    out.push(Scenario {
                        index: out.len(),
                        workload: label.clone(),
                        mesh,
                        strategy: Strategy::None,
                        transform: Some(id.clone()),
                    });
                }
            }
        }
        out
    }

    /// Expands the grid into typed [`OptimizeRequest`]s (same order as
    /// [`SweepGrid::scenarios`]); each request is tagged with its
    /// workload label for display.
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] when a scenario does not validate (a
    /// transform id that does not parse, a degenerate or oversized mesh).
    pub fn requests(&self) -> Result<Vec<OptimizeRequest>, FlowError> {
        self.scenarios()
            .iter()
            .map(|scenario| self.scenario_request(scenario))
            .collect()
    }

    /// The typed request one scenario maps onto: strategy-axis
    /// scenarios become [`crate::OptimizeGoal::Strategy`] goals (the
    /// serde facade travels as-is — no float-through-string round
    /// trip), transform-axis scenarios become
    /// [`crate::OptimizeGoal::Transform`] goals.
    ///
    /// # Errors
    ///
    /// [`FlowError::BadRequest`] when the scenario does not validate.
    pub fn scenario_request(&self, scenario: &Scenario) -> Result<OptimizeRequest, FlowError> {
        let workload = self
            .workloads
            .iter()
            .find(|(label, _)| *label == scenario.workload)
            .map_or(&self.base.workload, |(_, spec)| spec);
        let builder = OptimizeRequest::builder()
            .workload(workload.clone())
            .mesh(scenario.mesh.0, scenario.mesh.1)
            .tag(&scenario.workload);
        match &scenario.transform {
            Some(id) => builder.transform(id.clone()),
            None => builder.strategy(scenario.strategy),
        }
        .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid() -> SweepGrid {
        SweepGrid::new(FlowConfig::scattered_small().fast())
            .mesh(8, 8)
            .mesh(10, 10)
            .strategy(Strategy::UniformSlack {
                area_overhead: 0.16,
            })
            .row_counts([4, 8])
    }

    #[test]
    fn grid_expansion_is_the_cartesian_product() {
        let grid = small_grid().workload(
            "booth",
            WorkloadSpec {
                active: vec![arithgen::UnitRole::BoothMult],
                toggle_probability: 0.5,
            },
        );
        // 1 workload × 2 meshes × 3 strategies.
        assert_eq!(grid.scenario_count(), 6);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 6);
        for (i, s) in scenarios.iter().enumerate() {
            assert_eq!(s.index, i);
            assert_eq!(s.workload, "booth");
        }
        // An empty workload axis falls back to the base workload.
        let implicit = small_grid();
        assert_eq!(implicit.scenario_count(), 6);
        assert_eq!(implicit.scenarios()[0].workload, "base");
    }

    /// Dispatches every request of `grid` one by one through
    /// [`crate::Flow::optimize`], building one flow per distinct scenario
    /// config with `threads` solver threads; returns the responses in
    /// grid order and the flows built.
    fn optimize_grid(grid: &SweepGrid, threads: usize) -> (Vec<crate::OptimizeResponse>, usize) {
        let mut flows: Vec<crate::Flow> = Vec::new();
        let mut responses = Vec::new();
        for (scenario, request) in grid.scenarios().iter().zip(grid.requests().unwrap()) {
            let mut config = grid.scenario_config(scenario).unwrap();
            config.thermal.threads = threads;
            let flow = match flows.iter().position(|f| *f.config() == config) {
                Some(i) => &flows[i],
                None => {
                    flows.push(crate::Flow::new(config).unwrap());
                    flows.last().unwrap()
                }
            };
            responses.push(flow.optimize(&request).unwrap());
        }
        (responses, flows.len())
    }

    #[test]
    fn sweep_matches_direct_runs_and_is_thread_invariant() {
        let grid = small_grid();
        let (one, one_flows) = optimize_grid(&grid, 1);
        let (four, four_flows) = optimize_grid(&grid, 4);
        assert_eq!(one.len(), grid.scenario_count());
        assert_eq!(four.len(), grid.scenario_count());
        assert_eq!(one_flows, 2, "two meshes share one workload");
        assert_eq!(four_flows, 2);
        for (a, b) in one.iter().zip(&four) {
            assert_eq!(a.key, b.key, "solver threads must not change the key");
            let (a, b) = (a.report().unwrap(), b.report().unwrap());
            assert_eq!(
                a.after.peak_c.to_bits(),
                b.after.peak_c.to_bits(),
                "thread count must not change results"
            );
        }
        // Spot-check scenario 0 against a direct Flow evaluation.
        let scenario = &grid.scenarios()[0];
        let flow = crate::Flow::new(grid.scenario_config(scenario).unwrap()).unwrap();
        let direct = flow.run(scenario.strategy).unwrap();
        assert_eq!(
            direct.after.peak_c.to_bits(),
            one[0].report().unwrap().after.peak_c.to_bits(),
            "sweep result must match a direct run"
        );
    }

    #[test]
    fn transform_axis_scenarios_match_direct_transform_runs() {
        let id = "composite(targeted-eri:4+spread)";
        let grid = SweepGrid::new(FlowConfig::scattered_small().fast())
            .mesh(10, 10)
            .row_counts([4])
            .transform(id)
            .transform("hot-spread:0.16");
        assert_eq!(grid.scenario_count(), 3);
        let (responses, flows_built) = optimize_grid(&grid, 2);
        assert_eq!(flows_built, 1, "transform scenarios share the mesh's flow");
        let scenario = &grid.scenarios()[1];
        assert_eq!(scenario.label(), id);
        assert_eq!(scenario.strategy, Strategy::None, "facade value");
        let report = responses[1].report().unwrap();
        assert_eq!(report.transform_id, id);
        // The sweep's transform evaluation must match a direct run.
        let flow = crate::Flow::new(grid.scenario_config(scenario).unwrap()).unwrap();
        let t = crate::TransformRegistry::parse(id).unwrap();
        let direct = flow.run_transform(t.as_ref()).unwrap();
        assert_eq!(direct.after.peak_c.to_bits(), report.after.peak_c.to_bits());
    }

    #[test]
    fn bundled_workload_profiles_cover_both_regimes() {
        // The sweep's bundled profiles must exercise the two strategy
        // regimes: a concentrated cluster (wrapper-friendly) and an
        // alternating spread (ERI-friendly).
        let clustered = WorkloadSpec::clustered_hotspot();
        assert_eq!(clustered.active.len(), 3, "the three multipliers");
        assert!(clustered.toggle_probability > 0.5, "driven hard");
        let checker = WorkloadSpec::checkerboard();
        assert_eq!(checker.active.len(), 5, "every other of the nine units");
        assert_eq!(checker.active[0], arithgen::UnitRole::ALL[0]);
        assert_eq!(checker.active[4], arithgen::UnitRole::ALL[8]);
        // Both slot into a sweep grid like any other workload.
        let grid = SweepGrid::new(FlowConfig::scattered_small().fast())
            .workload("clustered", clustered)
            .workload("checkerboard", checker)
            .row_counts([4]);
        assert_eq!(grid.scenario_count(), 2);
    }

    #[test]
    fn bad_transform_ids_fail_as_bad_requests() {
        let grid = SweepGrid::new(FlowConfig::scattered_small().fast())
            .row_counts([4])
            .transform("bogus:1");
        assert_eq!(grid.scenario_count(), 2, "the grid itself still expands");
        let err = grid.requests().unwrap_err();
        assert!(matches!(err, FlowError::BadRequest { .. }), "{err}");
        assert!(err.to_string().contains("bogus:1"), "{err}");
        let scenario = &grid.scenarios()[1];
        assert!(grid.scenario_config(scenario).is_err());
        assert!(grid.scenario_config(&grid.scenarios()[0]).is_ok());
    }

    #[test]
    fn empty_grid_returns_an_empty_report() {
        let grid = SweepGrid::new(FlowConfig::scattered_small().fast());
        assert_eq!(grid.scenario_count(), 0);
        assert!(grid.requests().unwrap().is_empty());
    }
}
