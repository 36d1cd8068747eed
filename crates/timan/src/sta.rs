use netlist::{CellId, Netlist};
use placement::{Floorplan, PlacedGeometry, Placement};
use thermalsim::ThermalMap;

use crate::{TimingConfig, TimingError, TimingReport};

/// Runs static timing analysis on a placement: [`analyze_placed`] over
/// the placement's [`PlacedGeometry`].
///
/// # Errors
///
/// Returns [`TimingError::UnplacedCell`] if any cell is unplaced.
pub fn analyze(
    netlist: &Netlist,
    floorplan: &Floorplan,
    placement: &Placement,
    temps: Option<&ThermalMap>,
    config: &TimingConfig,
) -> Result<TimingReport, TimingError> {
    let geometry = PlacedGeometry::new(netlist, floorplan, placement);
    analyze_placed(netlist, &geometry, temps, config)
}

/// Runs static timing analysis over the geometry of a placement.
///
/// Launch points are primary-input nets (arrival 0) and flip-flop `Q`
/// outputs (arrival = the flop's clk→Q intrinsic delay); capture points
/// are flip-flop `D` pins and primary outputs. When `temps` is given,
/// every cell and wire delay is derated at the driving cell's local
/// temperature.
///
/// One pass over the netlist's flat connectivity: each cell's fan-in
/// nets and their driver cells, and each output net's static sink
/// capacitance, come from tables built once per netlist
/// ([`Netlist::cell_input_nets`], [`Netlist::net_driver_cell`],
/// [`Netlist::net_sink_cap_ff`]).
///
/// # Errors
///
/// Returns [`TimingError::UnplacedCell`] if any cell is unplaced.
pub fn analyze_placed(
    netlist: &Netlist,
    geometry: &PlacedGeometry,
    temps: Option<&ThermalMap>,
    config: &TimingConfig,
) -> Result<TimingReport, TimingError> {
    let lib = netlist.library();
    let center = |cell: CellId| {
        geometry
            .cell_center(cell)
            .ok_or(TimingError::UnplacedCell { cell })
    };
    // Each cell's (cell, wire) delay derates at its local temperature,
    // or at the reference temperature without a map. Under a map an
    // unplaced cell has no temperature: its entry is unused, and reading
    // it is an error.
    let temp_at = temps.map(ThermalMap::sampler);
    let derates: Vec<(f64, f64)> = netlist
        .cells()
        .map(|(id, _)| {
            let t = match (&temp_at, geometry.cell_center(id)) {
                (Some(temp_at), Some(c)) => temp_at(c),
                // No map, or an unplaced cell whose entry is never read.
                _ => config.reference_temp_c,
            };
            (config.cell_derate(t), config.wire_derate(t))
        })
        .collect();
    let derate = |cell: CellId| match (temps, geometry.cell_center(cell)) {
        (Some(_), None) => Err(TimingError::UnplacedCell { cell }),
        _ => Ok(derates[cell.index()]),
    };

    // Arrival time at each net (at the driver output) and the driving
    // cell that realizes it (for path recovery).
    let mut arrival = vec![0.0f64; netlist.net_count()];
    let mut from_cell: Vec<Option<CellId>> = vec![None; netlist.net_count()];

    // Launch: flop outputs.
    let mut flops = Vec::new();
    let mut is_seq = vec![false; netlist.cell_count()];
    for (id, _) in netlist.cells() {
        let def = lib.cell(netlist.cell_master(id));
        if def.function().is_sequential() {
            is_seq[id.index()] = true;
            flops.push(id);
            let (cell_derate, _) = derate(id)?;
            let q_net = netlist.cell_output_nets(id)[0];
            arrival[q_net.index()] = def.intrinsic_delay_ps() * cell_derate;
            from_cell[q_net.index()] = Some(id);
        }
    }

    // Propagate through combinational cells in the topological order the
    // netlist kept from validation.
    let mut best_pred: Vec<Option<CellId>> = vec![None; netlist.cell_count()];
    for &cell_id in netlist.comb_order() {
        let def = lib.cell(netlist.cell_master(cell_id));
        let (cell_derate, _) = derate(cell_id)?;
        let my_center = center(cell_id)?;
        let c_sink = def.input_cap_ff();
        // Worst input arrival, including the wire from each fan-in driver.
        let mut worst_in = 0.0f64;
        let mut worst_pred = None;
        for &net in netlist.cell_input_nets(cell_id) {
            let driver = netlist.net_driver_cell(net);
            let wire = match driver {
                Some(driver) => {
                    let dist = center(driver)?.manhattan_to(my_center);
                    let r_wire = dist * config.wire_res_ohm_per_um / 1000.0; // kΩ
                    let c_wire = dist * config.wire_cap_ff_per_um;
                    let (_, wire_derate) = derate(driver)?;
                    (r_wire * (c_wire / 2.0 + c_sink)) * wire_derate
                }
                None => 0.0,
            };
            let a = arrival[net.index()] + wire;
            if a > worst_in {
                worst_in = a;
                worst_pred = driver;
            }
        }
        best_pred[cell_id.index()] = worst_pred;
        // Cell delay: intrinsic + R_drive × (pin caps + wire cap).
        for &net in netlist.cell_output_nets(cell_id) {
            let c_load =
                netlist.net_sink_cap_ff(net) + geometry.net_hpwl(net) * config.wire_cap_ff_per_um;
            let delay = (def.intrinsic_delay_ps() + def.drive_res_kohm() * c_load) * cell_derate;
            let a = worst_in + delay;
            if a > arrival[net.index()] {
                arrival[net.index()] = a;
                from_cell[net.index()] = Some(cell_id);
            }
        }
    }

    // Capture: flop D pins (+ setup, folded into intrinsic here) and
    // primary outputs.
    let mut critical = 0.0f64;
    let mut end_cell: Option<CellId> = None;
    let d_nets = flops.iter().map(|&id| netlist.cell_input_nets(id)[0]);
    let out_nets = netlist.output_ports().iter().map(|port| port.net());
    for net in d_nets.chain(out_nets) {
        let a = arrival[net.index()];
        if a > critical {
            critical = a;
            end_cell = from_cell[net.index()];
        }
    }
    // Recover the critical path by walking predecessors.
    let mut critical_cells = Vec::new();
    let mut cursor = end_cell;
    while let Some(c) = cursor {
        critical_cells.push(c);
        if is_seq[c.index()] {
            break;
        }
        cursor = best_pred[c.index()];
    }
    critical_cells.reverse();

    Ok(TimingReport {
        critical_path_ps: critical,
        slack_ps: config.clock_period_ps - critical,
        critical_cells: critical_cells.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use arithgen::{build_benchmark, ripple_carry_adder, BenchmarkConfig};
    use netlist::NetlistBuilder;
    use placement::{Placer, PlacerConfig};
    use stdcell::{CellFunction, Drive, Library};

    fn place_small() -> (Netlist, placement::PlacementResult) {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let placed = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        (nl, placed)
    }

    #[test]
    fn longer_chains_are_slower() {
        let build_chain = |n: usize| {
            let mut b = NetlistBuilder::new("t", Library::c65());
            let u = b.add_unit("u");
            let a = b.input_port("a", u);
            let mut prev = a;
            for i in 0..n {
                let net = b.net(format!("n{i}"));
                b.cell(u, CellFunction::Inv, Drive::X1, &[prev], &[net])
                    .unwrap();
                prev = net;
            }
            let q = b.net("q");
            b.cell(u, CellFunction::Dff, Drive::X1, &[prev], &[q])
                .unwrap();
            let nl = b.finish().unwrap();
            let placed = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
            analyze(
                &nl,
                &placed.floorplan,
                &placed.placement,
                None,
                &TimingConfig::default(),
            )
            .unwrap()
            .critical_path_ps
        };
        let d4 = build_chain(4);
        let d12 = build_chain(12);
        assert!(d12 > d4 * 2.0, "12-chain {d12} vs 4-chain {d4}");
    }

    #[test]
    fn rca_critical_path_grows_with_width() {
        let delay = |w: usize| {
            let mut b = NetlistBuilder::new("t", Library::c65());
            ripple_carry_adder(&mut b, "rca", w);
            let nl = b.finish().unwrap();
            let placed = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
            analyze(
                &nl,
                &placed.floorplan,
                &placed.placement,
                None,
                &TimingConfig::default(),
            )
            .unwrap()
            .critical_path_ps
        };
        let d8 = delay(8);
        let d32 = delay(32);
        assert!(d32 > 2.5 * d8, "32-bit {d32} vs 8-bit {d8}");
    }

    #[test]
    fn critical_path_ends_at_a_register_boundary() {
        let (nl, placed) = place_small();
        let report = analyze(
            &nl,
            &placed.floorplan,
            &placed.placement,
            None,
            &TimingConfig::default(),
        )
        .unwrap();
        assert!(!report.critical_cells.is_empty());
        // Path starts at a launch flop (or a port-fed cell).
        let first = report.critical_cells[0];
        let f = nl.library().cell(nl.cell(first).master()).function();
        assert!(
            f.is_sequential() || !report.critical_cells.is_empty(),
            "path should start at a register: starts at {f}"
        );
        assert!(report.critical_path_ps > 100.0);
    }

    #[test]
    fn uniform_heating_slows_the_design() {
        use geom::Grid2d;
        let (nl, placed) = place_small();
        let cfg = TimingConfig::default();
        let cold = analyze(&nl, &placed.floorplan, &placed.placement, None, &cfg).unwrap();
        let mut g = Grid2d::new(8, 8, placed.floorplan.core(), 50.0);
        g.values_mut().iter_mut().for_each(|v| *v = 50.0);
        let hot_map = ThermalMap::new(g, 25.0);
        let hot = analyze(
            &nl,
            &placed.floorplan,
            &placed.placement,
            Some(&hot_map),
            &cfg,
        )
        .unwrap();
        let overhead = cold.overhead_to(&hot);
        // +25 K → cells ≥ +10%, wires +12.5%; expect ≥ 9% overall.
        assert!(
            overhead > 9.0 && overhead < 13.0,
            "thermal derating overhead {overhead}%"
        );
    }

    #[test]
    fn an_unplaced_cell_is_an_error_not_a_panic() {
        use geom::Grid2d;
        let (nl, placed) = place_small();
        let fp = &placed.floorplan;
        let cfg = TimingConfig::default();
        let hot_map = ThermalMap::new(Grid2d::new(8, 8, fp.core(), 50.0), 25.0);
        let comb = *nl.comb_order().last().unwrap();
        let flop = nl
            .cells()
            .find(|(_, c)| nl.library().cell(c.master()).function().is_sequential())
            .unwrap()
            .0;
        for (removed, map) in [(comb, None), (comb, Some(&hot_map)), (flop, Some(&hot_map))] {
            let mut pl = placed.placement.clone();
            pl.remove(removed);
            let err = analyze(&nl, fp, &pl, map, &cfg).unwrap_err();
            assert!(
                matches!(err, TimingError::UnplacedCell { cell } if cell == removed),
                "{err}"
            );
        }
    }

    #[test]
    fn spreading_cells_apart_increases_wire_delay() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let tight = Placer::new(PlacerConfig::with_utilization(0.9))
            .place(&nl)
            .unwrap();
        let loose = Placer::new(PlacerConfig::with_utilization(0.25))
            .place(&nl)
            .unwrap();
        let cfg = TimingConfig::default();
        let dt = analyze(&nl, &tight.floorplan, &tight.placement, None, &cfg).unwrap();
        let dl = analyze(&nl, &loose.floorplan, &loose.placement, None, &cfg).unwrap();
        assert!(
            dl.critical_path_ps > dt.critical_path_ps,
            "loose {} vs tight {}",
            dl.critical_path_ps,
            dt.critical_path_ps
        );
    }
}
