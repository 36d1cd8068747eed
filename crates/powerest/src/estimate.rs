use logicsim::Activity;
use netlist::{NetId, Netlist};
use placement::{net_hpwl, Floorplan, PlacedGeometry, Placement};

use crate::{PowerConfig, PowerReport};

const FJ_TO_J: f64 = 1e-15;
const NW_TO_W: f64 = 1e-9;

/// Estimates per-cell power from annotated switching activity.
///
/// * `placed` — when given, net loads include HPWL-proportional wire
///   capacitance (post-layout power, as the paper's flow uses).
/// * `cell_temps_c` — when given (one value per cell), leakage is derated
///   exponentially per [`PowerConfig::leakage_factor`]; otherwise all
///   cells leak at the reference temperature.
///
/// Only switching nets need a wire length, so this measures each one on
/// the placement; [`estimate_power_placed`] reads them from a geometry
/// already built. Both give the same bits.
///
/// # Panics
///
/// Panics if `activity` or `cell_temps_c` do not match the netlist's net
/// and cell counts.
pub fn estimate_power(
    netlist: &Netlist,
    activity: &Activity,
    placed: Option<(&Floorplan, &Placement)>,
    cell_temps_c: Option<&[f64]>,
    config: &PowerConfig,
) -> PowerReport {
    let hpwl = placed.map(|(fp, pl)| move |net| net_hpwl(netlist, fp, pl, net));
    estimate(netlist, activity, hpwl, cell_temps_c, config)
}

/// [`estimate_power`] on a placement's [`PlacedGeometry`]: wire loads
/// read the geometry's per-net HPWL.
///
/// # Panics
///
/// Panics if `activity` or `cell_temps_c` do not match the netlist's net
/// and cell counts.
pub fn estimate_power_placed(
    netlist: &Netlist,
    activity: &Activity,
    geometry: &PlacedGeometry,
    cell_temps_c: Option<&[f64]>,
    config: &PowerConfig,
) -> PowerReport {
    let hpwls = geometry.net_hpwls(netlist);
    let hpwl = |net: NetId| hpwls[net.index()];
    estimate(netlist, activity, Some(hpwl), cell_temps_c, config)
}

/// The one estimation pass: per cell, leakage, clock power and the
/// switching power of each output net, whose load is the net's static
/// sink capacitance plus, given `hpwl`, its wire capacitance.
fn estimate(
    netlist: &Netlist,
    activity: &Activity,
    hpwl: Option<impl Fn(NetId) -> f64>,
    cell_temps_c: Option<&[f64]>,
    config: &PowerConfig,
) -> PowerReport {
    assert_eq!(
        activity.net_count(),
        netlist.net_count(),
        "activity does not cover this netlist"
    );
    if let Some(t) = cell_temps_c {
        assert_eq!(t.len(), netlist.cell_count(), "one temperature per cell");
    }
    let lib = netlist.library();
    let voltage = lib.voltage_v();
    let mut dynamic = vec![0.0f64; netlist.cell_count()];
    let mut leakage = vec![0.0f64; netlist.cell_count()];
    for (id, _) in netlist.cells() {
        let def = lib.cell(netlist.cell_master(id));
        // Leakage with optional temperature derating.
        let factor = cell_temps_c
            .map(|t| config.leakage_factor(t[id.index()]))
            .unwrap_or(1.0);
        leakage[id.index()] = def.leakage_nw() * NW_TO_W * factor;
        // Clock power for sequential cells: internal energy every cycle.
        dynamic[id.index()] += def.clock_energy_fj() * FJ_TO_J * config.clock_hz;
        // Switching power per output net.
        for &net in netlist.cell_output_nets(id) {
            let alpha = activity.switching_activity(net);
            // lint: allow(float-eq, reason = "a net that never toggles has exactly 0.0 activity and adds no switching power")
            if alpha == 0.0 {
                continue;
            }
            // Fan-out pin capacitance, plus wire capacitance from the
            // placement geometry.
            let mut c_load_ff = netlist.net_sink_cap_ff(net);
            if let Some(hpwl) = &hpwl {
                c_load_ff += hpwl(net) * config.wire_cap_ff_per_um;
            }
            let energy_j =
                (def.switching_energy_fj() + 0.5 * c_load_ff * voltage * voltage) * FJ_TO_J;
            dynamic[id.index()] += alpha * config.clock_hz * energy_j;
        }
    }
    PowerReport::new(dynamic, leakage)
}

#[cfg(test)]
mod tests {
    use super::*;
    use arithgen::{build_benchmark, BenchmarkConfig, UnitRole};
    use logicsim::{Simulator, Workload};
    use netlist::NetlistBuilder;
    use stdcell::{CellFunction, Drive, Library};

    /// INV driving two INV loads, 100% activity: hand-checked power.
    #[test]
    fn hand_computed_inverter_power() {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let y = b.net("y");
        let z0 = b.net("z0");
        let z1 = b.net("z1");
        b.cell(u, CellFunction::Inv, Drive::X1, &[a], &[y]).unwrap();
        b.cell(u, CellFunction::Inv, Drive::X1, &[y], &[z0])
            .unwrap();
        b.cell(u, CellFunction::Inv, Drive::X1, &[y], &[z1])
            .unwrap();
        let nl = b.finish().unwrap();
        // α = 1 on every net (input toggles each cycle).
        let toggles = vec![100u64; nl.net_count()];
        let activity = Activity::new(100, toggles);
        let report = estimate_power(&nl, &activity, None, None, &PowerConfig::default());
        // Driver: E_int 0.45 fJ + ½·(2×1.2 fF)·1V² = 0.45 + 1.2 = 1.65 fJ
        // at 1 GHz → 1.65 µW dynamic + 1.8 nW leakage.
        let driver = netlist::CellId::new(0);
        assert!((report.cell_dynamic_w(driver) - 1.65e-6).abs() < 1e-12);
        assert!((report.cell_leakage_w(driver) - 1.8e-9).abs() < 1e-15);
    }

    #[test]
    fn dynamic_power_scales_with_activity() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let run = |prob: f64| {
            let w = Workload::uniform(&nl, prob);
            let mut sim = Simulator::new(&nl);
            sim.run_workload(&w, 400, 9);
            let report = estimate_power(&nl, &sim.activity(), None, None, &PowerConfig::default());
            report.total_dynamic_w()
        };
        let low = run(0.1);
        let high = run(0.6);
        assert!(high > 1.5 * low, "high {high} vs low {low}");
    }

    #[test]
    fn idle_units_burn_only_clock_and_leakage() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let active = UnitRole::ArrayMult.unit_id();
        let w = Workload::with_active_units(&nl, &[active], 0.5);
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&w, 16, 5);
        sim.reset_activity();
        sim.run_workload(&w, 200, 6);
        let report = estimate_power(&nl, &sim.activity(), None, None, &PowerConfig::default());
        let stats = netlist::NetlistStats::of(&nl);
        for u in &stats.units {
            if u.unit == active {
                continue;
            }
            // Expected idle power: clock energy of its FFs + leakage.
            let expected: f64 = nl
                .cells()
                .filter(|(_, c)| c.unit() == u.unit)
                .map(|(_, c)| {
                    let def = nl.library().cell(c.master());
                    def.clock_energy_fj() * 1e-15 * 1e9 + def.leakage_nw() * 1e-9
                })
                .sum();
            let got = report.unit_w(&nl, u.unit);
            assert!(
                (got - expected).abs() < expected * 1e-9,
                "{}: {got} vs {expected}",
                u.name
            );
        }
        assert!(
            report.unit_w(&nl, active) > 2.0 * report.unit_w(&nl, UnitRole::RippleAdder.unit_id())
        );
    }

    #[test]
    fn wire_capacitance_increases_power_when_placed() {
        use placement::{Placer, PlacerConfig};
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let placed = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        let w = Workload::uniform(&nl, 0.4);
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&w, 200, 7);
        let act = sim.activity();
        let cfg = PowerConfig::default();
        let unplaced = estimate_power(&nl, &act, None, None, &cfg);
        let with_wires = estimate_power(
            &nl,
            &act,
            Some((&placed.floorplan, &placed.placement)),
            None,
            &cfg,
        );
        assert!(with_wires.total_dynamic_w() > unplaced.total_dynamic_w());
    }

    #[test]
    fn a_geometry_fed_estimate_equals_the_placement_form_bit_for_bit() {
        use placement::{Placer, PlacerConfig};
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let placed = Placer::new(PlacerConfig::default()).place(&nl).unwrap();
        let (fp, pl) = (&placed.floorplan, &placed.placement);
        let geometry = PlacedGeometry::new(&nl, fp, pl);
        let active = UnitRole::BoothMult.unit_id();
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&Workload::with_active_units(&nl, &[active], 0.6), 96, 3);
        let temps: Vec<f64> = (0..nl.cell_count())
            .map(|i| 25.0 + i as f64 * 1e-3)
            .collect();
        let cfg = PowerConfig::default();
        for t in [None, Some(&temps[..])] {
            let from_placement = estimate_power(&nl, &sim.activity(), Some((fp, pl)), t, &cfg);
            let from_geometry = estimate_power_placed(&nl, &sim.activity(), &geometry, t, &cfg);
            for (id, _) in nl.cells() {
                assert_eq!(
                    from_geometry.cell_dynamic_w(id).to_bits(),
                    from_placement.cell_dynamic_w(id).to_bits()
                );
                assert_eq!(
                    from_geometry.cell_leakage_w(id).to_bits(),
                    from_placement.cell_leakage_w(id).to_bits()
                );
            }
        }
    }

    #[test]
    fn hot_cells_leak_more() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let activity = Activity::new(0, vec![0; nl.net_count()]);
        let cfg = PowerConfig::default();
        let cold = vec![25.0; nl.cell_count()];
        let hot = vec![50.0; nl.cell_count()];
        let cold_report = estimate_power(&nl, &activity, None, Some(&cold), &cfg);
        let hot_report = estimate_power(&nl, &activity, None, Some(&hot), &cfg);
        let ratio = hot_report.total_leakage_w() / cold_report.total_leakage_w();
        assert!(
            (ratio - 2.0).abs() < 1e-9,
            "25 K above reference doubles leakage"
        );
    }

    #[test]
    fn benchmark_total_power_is_in_the_milliwatt_range() {
        // Sanity for the thermal calibration: the full benchmark under a
        // scattered workload lands at a few mW.
        let nl = build_benchmark(&BenchmarkConfig::paper()).unwrap();
        let w = Workload::uniform(&nl, 0.3);
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&w, 64, 11);
        let report = estimate_power(&nl, &sim.activity(), None, None, &PowerConfig::default());
        let mw = report.total_w() * 1e3;
        assert!((0.5..50.0).contains(&mw), "total power {mw} mW");
    }
}
