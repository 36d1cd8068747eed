//! Property-based netlist invariants over randomly generated circuits.

use netlist::{NetDriver, NetlistBuilder};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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
