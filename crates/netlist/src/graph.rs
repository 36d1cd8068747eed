//! Combinational-graph utilities: topological ordering and levelization.
//!
//! Flip-flop outputs act as graph sources and flip-flop inputs as sinks, so
//! a legal synchronous design always yields a valid order; a cycle not
//! broken by a register is a structural error.

use crate::{CellId, NetDriver, Netlist, NetlistError};

/// Computes a topological evaluation order of the **combinational** cells.
///
/// Sequential cells are excluded from the order (the simulator commits them
/// at clock edges); tie cells and cells fed only by ports/registers come
/// first.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] naming a cell on the cycle
/// when the combinational subgraph is cyclic.
pub fn topo_order(netlist: &Netlist) -> Result<Vec<CellId>, NetlistError> {
    let n = netlist.cell_count();
    // In-degree counts only combinational fan-in from other combinational cells.
    let mut indegree = vec![0u32; n];
    let mut is_comb = vec![false; n];
    for (id, cell) in netlist.cells() {
        let f = netlist.library().cell(cell.master()).function();
        is_comb[id.index()] = !f.is_sequential() && !f.is_physical_only();
    }
    for (id, cell) in netlist.cells() {
        if !is_comb[id.index()] {
            continue;
        }
        for &pin in cell.input_pins() {
            let net = netlist.pin(pin).net();
            if let NetDriver::Pin(dpin) = netlist.net(net).driver() {
                let driver_cell = netlist.pin(dpin).cell();
                if is_comb[driver_cell.index()] {
                    indegree[id.index()] += 1;
                }
            }
        }
    }
    let mut queue: Vec<CellId> = (0..n)
        .filter(|&i| is_comb[i] && indegree[i] == 0)
        .map(CellId::new)
        .collect();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let cell = queue[head];
        head += 1;
        order.push(cell);
        for &pin in netlist.cell(cell).output_pins() {
            let net = netlist.pin(pin).net();
            for &sink in netlist.net(net).sinks() {
                let sink_cell = netlist.pin(sink).cell();
                if is_comb[sink_cell.index()] {
                    indegree[sink_cell.index()] -= 1;
                    if indegree[sink_cell.index()] == 0 {
                        queue.push(sink_cell);
                    }
                }
            }
        }
    }
    // A combinational cell that never reached in-degree 0 sits on a cycle.
    if let Some(cell) = (0..n)
        .find(|&i| is_comb[i] && indegree[i] > 0)
        .map(CellId::new)
    {
        return Err(NetlistError::CombinationalCycle {
            cell,
            cell_name: netlist.cell(cell).name().to_string(),
        });
    }
    Ok(order)
}

/// Assigns each combinational cell its logic level: 1 + the maximum level
/// of its combinational fan-in (register/port-fed cells are level 0);
/// sequential and filler cells get `None`. Walks the order the netlist
/// kept from validation ([`Netlist::comb_order`]).
///
/// Used for depth statistics and as a sanity check on generated units.
pub fn combinational_levels(netlist: &Netlist) -> Vec<Option<u32>> {
    // One past the level of each net's combinational driver; 0 for nets
    // driven by ports and registers.
    let mut net_level = vec![0u32; netlist.net_count()];
    let mut levels: Vec<Option<u32>> = vec![None; netlist.cell_count()];
    for &cell in netlist.comb_order() {
        let pins = netlist.cell(cell);
        let level = pins
            .input_pins()
            .iter()
            .map(|&pin| net_level[netlist.pin(pin).net().index()])
            .fold(0, u32::max);
        for &pin in pins.output_pins() {
            net_level[netlist.pin(pin).net().index()] = level + 1;
        }
        levels[cell.index()] = Some(level);
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetlistBuilder;
    use stdcell::{CellFunction, Drive, Library};

    #[test]
    fn chain_orders_front_to_back() {
        let mut b = NetlistBuilder::new("chain", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        let c0 = b
            .cell(u, CellFunction::Inv, Drive::X1, &[a], &[n1])
            .unwrap();
        let c1 = b
            .cell(u, CellFunction::Inv, Drive::X1, &[n1], &[n2])
            .unwrap();
        let nl = b.finish().unwrap();
        let order = topo_order(&nl).unwrap();
        let p0 = order.iter().position(|&c| c == c0).unwrap();
        let p1 = order.iter().position(|&c| c == c1).unwrap();
        assert!(p0 < p1);
    }

    #[test]
    fn registers_break_cycles() {
        // inv -> dff -> inv -> (back to dff input via the first inv) is fine.
        let mut b = NetlistBuilder::new("loop", Library::c65());
        let u = b.add_unit("u");
        let q = b.net("q");
        let d = b.net("d");
        b.cell(u, CellFunction::Dff, Drive::X1, &[d], &[q]).unwrap();
        b.cell(u, CellFunction::Inv, Drive::X1, &[q], &[d]).unwrap();
        let nl = b.finish().expect("register breaks the loop");
        assert_eq!(topo_order(&nl).unwrap().len(), 1);
    }

    #[test]
    fn combinational_cycle_is_detected() {
        let mut b = NetlistBuilder::new("bad", Library::c65());
        let u = b.add_unit("u");
        let x = b.net("x");
        let y = b.net("y");
        b.cell(u, CellFunction::Inv, Drive::X1, &[x], &[y]).unwrap();
        b.cell(u, CellFunction::Inv, Drive::X1, &[y], &[x]).unwrap();
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle { .. }));
    }

    #[test]
    fn levels_increase_along_chain() {
        let mut b = NetlistBuilder::new("lv", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let b_in = b.input_port("b", u);
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        let c0 = b
            .cell(u, CellFunction::Nand2, Drive::X1, &[a, b_in], &[n1])
            .unwrap();
        let c1 = b
            .cell(u, CellFunction::Inv, Drive::X1, &[n1], &[n2])
            .unwrap();
        let nl = b.finish().unwrap();
        let levels = combinational_levels(&nl);
        assert_eq!(levels[c0.index()], Some(0));
        assert_eq!(levels[c1.index()], Some(1));
    }
}
