//! Property-based netlist invariants over randomly generated circuits,
//! and the flat connectivity tables checked on the paper's benchmark.

use netlist::{CellId, NetDriver, NetId, Netlist, NetlistBuilder};
use proptest::prelude::*;
use stdcell::{CellFunction, Drive, Library};

/// Builds a random DAG-shaped netlist: `n` gates, each consuming nets
/// chosen among the already-created ones (ports + previous outputs), so
/// the result is valid by construction.
fn random_netlist(gates: &[u8]) -> netlist::Netlist {
    let mut b = NetlistBuilder::new("prop", Library::c65());
    let u = b.add_unit("u");
    let mut nets = vec![
        b.input_port("a", u),
        b.input_port("b", u),
        b.input_port("c", u),
    ];
    for (i, &g) in gates.iter().enumerate() {
        let f = match g % 6 {
            0 => CellFunction::Inv,
            1 => CellFunction::Nand2,
            2 => CellFunction::Xor2,
            3 => CellFunction::Dff,
            4 => CellFunction::Mux2,
            _ => CellFunction::FullAdder,
        };
        let pick = |k: usize| nets[(g as usize + k * 7 + i) % nets.len()];
        let inputs: Vec<_> = (0..f.input_count()).map(pick).collect();
        let outputs: Vec<_> = (0..f.output_count()).map(|_| b.auto_net()).collect();
        b.cell(u, f, Drive::X1, &inputs, &outputs).unwrap();
        nets.extend(&outputs);
    }
    b.finish().expect("construction is valid by design")
}

/// Checks every flat table entry against the net → pin → cell walk it
/// replaces, bit for bit, and counts what the netlist exercised:
/// `(port-driven nets, sink-less nets, two-output cells)`.
fn assert_tables_match_the_pointer_walk(nl: &Netlist) -> (usize, usize, usize) {
    let lib = nl.library();
    let (mut port_driven, mut sinkless, mut two_output) = (0, 0, 0);
    for (id, net) in nl.nets() {
        let driver = match net.driver() {
            NetDriver::Pin(pin) => Some(nl.pin(pin).cell()),
            NetDriver::Port(_) => {
                port_driven += 1;
                None
            }
            NetDriver::None => None,
        };
        sinkless += usize::from(net.sinks().is_empty());
        let mut endpoints: Vec<CellId> = driver.into_iter().collect();
        let mut cap = 0.0f64;
        for &sink in net.sinks() {
            let cell = nl.pin(sink).cell();
            endpoints.push(cell);
            cap += lib.cell(nl.cell(cell).master()).input_cap_ff();
        }
        assert_eq!(nl.net_driver_cell(id), driver, "{id}");
        assert_eq!(nl.net_endpoints(id), &endpoints[..], "{id}");
        assert_eq!(nl.net_sink_cap_ff(id).to_bits(), cap.to_bits(), "{id}");
    }
    for (id, cell) in nl.cells() {
        let nets = |pins: &[netlist::PinId]| -> Vec<NetId> {
            pins.iter().map(|&pin| nl.pin(pin).net()).collect()
        };
        assert_eq!(nl.cell_input_nets(id), &nets(cell.input_pins())[..], "{id}");
        assert_eq!(
            nl.cell_output_nets(id),
            &nets(cell.output_pins())[..],
            "{id}"
        );
        assert_eq!(nl.cell_master(id), cell.master(), "{id}");
        let def = lib.cell(cell.master());
        assert_eq!(nl.cell_width_sites(id), def.width_sites(), "{id}");
        two_output += usize::from(cell.output_pins().len() == 2);
    }
    let stats = netlist::NetlistStats::of(nl);
    for (id, _) in nl.units() {
        assert_eq!(
            nl.unit_cell_area_um2(id).to_bits(),
            stats.units[id.index()].cell_area_um2.to_bits(),
            "{id}"
        );
    }
    (port_driven, sinkless, two_output)
}

#[test]
fn paper_tables_match_the_pointer_walk() {
    let nl = arithgen::build_benchmark(&arithgen::BenchmarkConfig::paper()).unwrap();
    let (port_driven, sinkless, two_output) = assert_tables_match_the_pointer_walk(&nl);
    assert!(port_driven > 0 && sinkless > 0 && two_output > 0);
}

#[test]
fn tables_cover_port_driven_sinkless_and_adder_nets() {
    // a, b, c → FA → (s, co); s → INV → y. `co` and `y` have no sink;
    // a, b, c are port-driven; the adder has two outputs, and its first
    // two inputs share net `a`.
    let mut b = NetlistBuilder::new("t", Library::c65());
    let u = b.add_unit("u");
    let a = b.input_port("a", u);
    let c = b.input_port("c", u);
    let (s, co, y) = (b.net("s"), b.net("co"), b.net("y"));
    let fa = b
        .cell(u, CellFunction::FullAdder, Drive::X1, &[a, a, c], &[s, co])
        .unwrap();
    let inv = b.cell(u, CellFunction::Inv, Drive::X1, &[s], &[y]).unwrap();
    let nl = b.finish().unwrap();
    assert_eq!(assert_tables_match_the_pointer_walk(&nl), (2, 2, 1));
    assert_eq!(nl.net_endpoints(a), &[fa, fa]);
    assert_eq!(nl.net_driver_cell(a), None);
    assert_eq!(nl.net_endpoints(s), &[fa, inv]);
    assert_eq!(nl.net_endpoints(co), &[fa]);
    assert_eq!(nl.net_sink_cap_ff(co), 0.0);
    assert_eq!(nl.cell_output_nets(fa), &[s, co]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tables_match_the_pointer_walk(gates in prop::collection::vec(any::<u8>(), 1..60)) {
        let nl = random_netlist(&gates);
        let (port_driven, _, _) = assert_tables_match_the_pointer_walk(&nl);
        prop_assert_eq!(port_driven, 3);
    }

    #[test]
    fn every_net_has_exactly_one_driver(gates in prop::collection::vec(any::<u8>(), 1..60)) {
        let nl = random_netlist(&gates);
        for (_, net) in nl.nets() {
            // Validation guarantees no floating driven nets.
            if !net.sinks().is_empty() {
                prop_assert!(!matches!(net.driver(), NetDriver::None));
            }
        }
    }

    #[test]
    fn topo_order_respects_dependencies(gates in prop::collection::vec(any::<u8>(), 1..60)) {
        let nl = random_netlist(&gates);
        let order = netlist::topo_order(&nl).unwrap();
        prop_assert_eq!(nl.comb_order(), &order[..], "finish keeps the order it validated");
        let mut position = vec![usize::MAX; nl.cell_count()];
        for (i, &c) in order.iter().enumerate() {
            position[c.index()] = i;
        }
        for &cell in &order {
            for &pin in nl.cell(cell).input_pins() {
                let net = nl.pin(pin).net();
                if let NetDriver::Pin(dpin) = nl.net(net).driver() {
                    let driver = nl.pin(dpin).cell();
                    let f = nl.library().cell(nl.cell(driver).master()).function();
                    if !f.is_sequential() {
                        prop_assert!(
                            position[driver.index()] < position[cell.index()],
                            "combinational driver must precede its sink"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stats_are_internally_consistent(gates in prop::collection::vec(any::<u8>(), 1..60)) {
        let nl = random_netlist(&gates);
        let stats = netlist::NetlistStats::of(&nl);
        prop_assert_eq!(stats.cell_count, nl.cell_count());
        let by_master_total: usize = stats.by_master.values().sum();
        prop_assert_eq!(by_master_total, stats.cell_count);
        prop_assert!(stats.cell_area_um2 > 0.0);
    }

    #[test]
    fn pin_connectivity_is_bidirectional(gates in prop::collection::vec(any::<u8>(), 1..40)) {
        let nl = random_netlist(&gates);
        // Every sink pin recorded on a net points back at that net.
        for (net_id, net) in nl.nets() {
            for &pin in net.sinks() {
                prop_assert_eq!(nl.pin(pin).net(), net_id);
            }
            if let NetDriver::Pin(dpin) = net.driver() {
                prop_assert_eq!(nl.pin(dpin).net(), net_id);
            }
        }
        // Every cell pin's net lists the pin.
        for (cell_id, cell) in nl.cells() {
            for &pin in cell.input_pins() {
                let net = nl.pin(pin).net();
                prop_assert!(nl.net(net).sinks().contains(&pin));
                prop_assert_eq!(nl.pin(pin).cell(), cell_id);
            }
        }
    }
}
