//! Flat connectivity tables, computed once per netlist by
//! [`NetlistBuilder::finish`](crate::NetlistBuilder::finish).
//!
//! The per-evaluation passes (placement geometry, static timing, power
//! estimation) read these contiguous arrays instead of walking
//! net → pin → cell → master for every net of every evaluated placement.
//! Every entry is exactly what that walk yields, in the same order.

use stdcell::LibCellId;

use crate::database::{NetDriver, Netlist};
use crate::{CellId, NetId, UnitId};

/// Connectivity derived from a netlist's cells, pins and nets.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tables {
    /// Net `n`'s endpoint cells are
    /// `net_endpoints[net_endpoint_at[n]..net_endpoint_at[n + 1]]`.
    net_endpoint_at: Vec<u32>,
    /// Per net: its driving cell (none for a port-driven net), then the
    /// cell of each sink pin in sink order.
    net_endpoints: Vec<CellId>,
    net_driver: Vec<Option<CellId>>,
    /// Per net: the input capacitance of its sink pins, fF, summed in
    /// sink order from `0.0`.
    net_sink_cap_ff: Vec<f64>,
    /// Cell `c`'s input nets are `cell_nets[cell_net_at[2c]..cell_net_at[2c + 1]]`
    /// and its output nets follow up to `cell_net_at[2c + 2]`.
    cell_net_at: Vec<u32>,
    /// Per cell: its input nets, then its output nets, in slot order.
    cell_nets: Vec<NetId>,
    /// Per cell: its library master…
    cell_masters: Vec<LibCellId>,
    /// …and that master's width in placement sites.
    cell_width_sites: Vec<u32>,
    /// Per unit: the area of its cells, µm², summed in cell order from
    /// `0.0` (the bits [`crate::NetlistStats::of`] adds up).
    unit_cell_area_um2: Vec<f64>,
}

/// A table offset; a netlist's pin count fits `u32` because its pin ids
/// do.
fn offset(len: usize) -> u32 {
    len as u32
}

impl Tables {
    /// Walks `netlist` once per net and once per cell.
    pub(crate) fn of(netlist: &Netlist) -> Self {
        let lib = netlist.library();
        let cell_of = |pin| netlist.pin(pin).cell();
        let nets = netlist.net_count();
        let mut t = Tables {
            net_endpoint_at: Vec::with_capacity(nets + 1),
            net_endpoints: Vec::with_capacity(netlist.pins.len()),
            net_driver: Vec::with_capacity(nets),
            net_sink_cap_ff: Vec::with_capacity(nets),
            cell_net_at: Vec::with_capacity(2 * netlist.cell_count() + 1),
            cell_nets: Vec::with_capacity(netlist.pins.len()),
            cell_masters: Vec::with_capacity(netlist.cell_count()),
            cell_width_sites: Vec::with_capacity(netlist.cell_count()),
            unit_cell_area_um2: vec![0.0; netlist.units.len()],
        };
        t.net_endpoint_at.push(0);
        for net in &netlist.nets {
            let driver = match net.driver() {
                NetDriver::Pin(pin) => Some(cell_of(pin)),
                _ => None,
            };
            t.net_endpoints.extend(driver);
            let mut cap = 0.0;
            for &sink in net.sinks() {
                let cell = cell_of(sink);
                t.net_endpoints.push(cell);
                cap += lib.cell(netlist.cell(cell).master()).input_cap_ff();
            }
            t.net_endpoint_at.push(offset(t.net_endpoints.len()));
            t.net_driver.push(driver);
            t.net_sink_cap_ff.push(cap);
        }
        t.cell_net_at.push(0);
        for cell in &netlist.cells {
            for pins in [cell.input_pins(), cell.output_pins()] {
                t.cell_nets
                    .extend(pins.iter().map(|&pin| netlist.pin(pin).net()));
                t.cell_net_at.push(offset(t.cell_nets.len()));
            }
            t.cell_masters.push(cell.master());
            t.cell_width_sites
                .push(lib.cell(cell.master()).width_sites());
            t.unit_cell_area_um2[cell.unit().index()] += lib.cell_area_um2(cell.master());
        }
        t
    }

    pub(crate) fn net_endpoints(&self, net: NetId) -> &[CellId] {
        let n = net.index();
        &self.net_endpoints[self.net_endpoint_at[n] as usize..self.net_endpoint_at[n + 1] as usize]
    }

    pub(crate) fn net_driver(&self, net: NetId) -> Option<CellId> {
        self.net_driver[net.index()]
    }

    pub(crate) fn net_sink_cap_ff(&self, net: NetId) -> f64 {
        self.net_sink_cap_ff[net.index()]
    }

    /// The nets between offsets `k` and `k + 1` of `cell_net_at`.
    fn cell_nets(&self, k: usize) -> &[NetId] {
        &self.cell_nets[self.cell_net_at[k] as usize..self.cell_net_at[k + 1] as usize]
    }

    pub(crate) fn cell_input_nets(&self, cell: CellId) -> &[NetId] {
        self.cell_nets(2 * cell.index())
    }

    pub(crate) fn cell_output_nets(&self, cell: CellId) -> &[NetId] {
        self.cell_nets(2 * cell.index() + 1)
    }

    pub(crate) fn cell_master(&self, cell: CellId) -> LibCellId {
        self.cell_masters[cell.index()]
    }

    pub(crate) fn cell_width_sites(&self, cell: CellId) -> u32 {
        self.cell_width_sites[cell.index()]
    }

    pub(crate) fn unit_cell_area_um2(&self, unit: UnitId) -> f64 {
        self.unit_cell_area_um2[unit.index()]
    }
}
