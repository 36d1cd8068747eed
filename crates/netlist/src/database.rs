use serde::{Deserialize, Serialize};
use stdcell::{LibCellId, Library};

use crate::tables::Tables;

geom::define_id!(
    /// Identifies a [`CellInst`] in a [`Netlist`].
    pub struct CellId
);
geom::define_id!(
    /// Identifies a [`Net`] in a [`Netlist`].
    pub struct NetId
);
geom::define_id!(
    /// Identifies a [`Pin`] in a [`Netlist`].
    pub struct PinId
);
geom::define_id!(
    /// Identifies a [`Unit`] (hierarchical block) in a [`Netlist`].
    pub struct UnitId
);
geom::define_id!(
    /// Identifies a primary [`Port`] in a [`Netlist`].
    pub struct PortId
);

/// Pin direction, from the cell's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PinDir {
    /// The pin consumes a value from its net.
    Input,
    /// The pin drives its net.
    Output,
}

/// A hierarchical block of the design; the paper's benchmark has nine
/// (the arithmetic units whose workloads control hotspot position).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Unit {
    name: String,
}

impl Unit {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Unit { name: name.into() }
    }

    /// The unit's instance name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A primary input or output of the design, owned by a unit so workloads
/// can drive or gate each unit independently.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Port {
    name: String,
    net: NetId,
    unit: UnitId,
}

impl Port {
    pub(crate) fn new(name: impl Into<String>, net: NetId, unit: UnitId) -> Self {
        Port {
            name: name.into(),
            net,
            unit,
        }
    }

    /// Port name, e.g. `mult16/a[3]`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The net attached to this port.
    pub fn net(&self) -> NetId {
        self.net
    }

    /// The unit this port belongs to.
    pub fn unit(&self) -> UnitId {
        self.unit
    }
}

/// A pin: the attachment of a cell to a net.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Pin {
    cell: CellId,
    dir: PinDir,
    /// Which logical input/output of the cell function this pin is.
    slot: u8,
    net: NetId,
}

impl Pin {
    pub(crate) fn new(cell: CellId, dir: PinDir, slot: u8, net: NetId) -> Self {
        Pin {
            cell,
            dir,
            slot,
            net,
        }
    }

    /// The owning cell.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// The pin direction.
    pub fn dir(&self) -> PinDir {
        self.dir
    }

    /// The logical input/output index within the cell's function.
    pub fn slot(&self) -> usize {
        self.slot as usize
    }

    /// The attached net.
    pub fn net(&self) -> NetId {
        self.net
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NetDriver {
    /// Driven by a cell output pin.
    Pin(PinId),
    /// Driven by a primary input port.
    Port(PortId),
    /// Not driven (only legal transiently during construction).
    None,
}

/// A net: one driver, any number of sink pins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Net {
    name: Box<str>,
    driver: NetDriver,
    sinks: Vec<PinId>,
}

impl Net {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Net {
            name: name.into().into_boxed_str(),
            driver: NetDriver::None,
            sinks: Vec::new(),
        }
    }

    pub(crate) fn set_driver(&mut self, driver: NetDriver) {
        self.driver = driver;
    }

    pub(crate) fn add_sink(&mut self, pin: PinId) {
        self.sinks.push(pin);
    }

    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The net's single driver.
    pub fn driver(&self) -> NetDriver {
        self.driver
    }

    /// Sink (input) pins on this net.
    pub fn sinks(&self) -> &[PinId] {
        &self.sinks
    }
}

/// A cell instance bound to a library master.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellInst {
    name: Box<str>,
    master: LibCellId,
    unit: UnitId,
    /// Input pins, then output pins, each in function slot order: one
    /// allocation per cell.
    pins: Box<[PinId]>,
    /// How many of `pins` are inputs.
    inputs: u8,
}

impl CellInst {
    /// A cell whose first `inputs` of `pins` are its inputs; the builder
    /// checked the arity, at most three inputs.
    pub(crate) fn new(
        name: impl Into<String>,
        master: LibCellId,
        unit: UnitId,
        pins: Vec<PinId>,
        inputs: usize,
    ) -> Self {
        CellInst {
            name: name.into().into_boxed_str(),
            master,
            unit,
            pins: pins.into_boxed_slice(),
            inputs: inputs as u8,
        }
    }

    /// Instance name, e.g. `mult16/fa_3_7`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library master this instance is bound to.
    pub fn master(&self) -> LibCellId {
        self.master
    }

    /// The unit the instance belongs to.
    pub fn unit(&self) -> UnitId {
        self.unit
    }

    /// Input pins in function slot order.
    pub fn input_pins(&self) -> &[PinId] {
        &self.pins[..usize::from(self.inputs)]
    }

    /// Output pins in function slot order.
    pub fn output_pins(&self) -> &[PinId] {
        &self.pins[usize::from(self.inputs)..]
    }
}

/// The immutable, validated netlist database.
///
/// Construct through [`NetlistBuilder`](crate::NetlistBuilder); see the
/// crate docs for an end-to-end example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) library: Library,
    pub(crate) cells: Vec<CellInst>,
    pub(crate) nets: Vec<Net>,
    pub(crate) pins: Vec<Pin>,
    pub(crate) units: Vec<Unit>,
    pub(crate) input_ports: Vec<Port>,
    pub(crate) output_ports: Vec<Port>,
    /// Topological order of the combinational cells, computed once by
    /// [`NetlistBuilder::finish`](crate::NetlistBuilder::finish).
    pub(crate) comb_order: Vec<CellId>,
    /// Flat connectivity, derived from the fields above by
    /// [`NetlistBuilder::finish`](crate::NetlistBuilder::finish).
    #[serde(skip)]
    pub(crate) tables: Tables,
}

impl Netlist {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The standard-cell library the netlist is mapped to.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of units.
    pub fn unit_count(&self) -> usize {
        self.units.len()
    }

    /// A topological evaluation order of the combinational cells — the
    /// [`topo_order`](crate::topo_order) that
    /// [`NetlistBuilder::finish`](crate::NetlistBuilder::finish) computed
    /// while validating the netlist, kept so the logic simulator and the
    /// timing analyzer never re-sort. Flip-flops and fillers are excluded.
    pub fn comb_order(&self) -> &[CellId] {
        &self.comb_order
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &CellInst {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The pin with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn pin(&self, id: PinId) -> &Pin {
        &self.pins[id.index()]
    }

    /// The unit with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn unit(&self, id: UnitId) -> &Unit {
        &self.units[id.index()]
    }

    /// Looks up a unit by name.
    pub fn find_unit(&self, name: &str) -> Option<UnitId> {
        self.units
            .iter()
            .position(|u| u.name() == name)
            .map(UnitId::new)
    }

    /// Primary input ports.
    pub fn input_ports(&self) -> &[Port] {
        &self.input_ports
    }

    /// Primary output ports.
    pub fn output_ports(&self) -> &[Port] {
        &self.output_ports
    }

    /// Iterates over `(CellId, &CellInst)`.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &CellInst)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::new(i), c))
    }

    /// Iterates over `(NetId, &Net)`.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::new(i), n))
    }

    /// Iterates over `(UnitId, &Unit)`.
    pub fn units(&self) -> impl Iterator<Item = (UnitId, &Unit)> {
        self.units
            .iter()
            .enumerate()
            .map(|(i, u)| (UnitId::new(i), u))
    }

    /// The cell ids belonging to `unit`.
    pub fn unit_cells(&self, unit: UnitId) -> Vec<CellId> {
        self.cells()
            .filter(|(_, c)| c.unit() == unit)
            .map(|(id, _)| id)
            .collect()
    }

    /// The input ports belonging to `unit`.
    pub fn unit_input_ports(&self, unit: UnitId) -> Vec<PortId> {
        self.input_ports
            .iter()
            .enumerate()
            .filter(|(_, p)| p.unit() == unit)
            .map(|(i, _)| PortId::new(i))
            .collect()
    }

    /// Total standard-cell area in µm² (excluding any fillers, which are a
    /// placement artefact, not netlist content).
    pub fn total_cell_area_um2(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| self.library.cell_area_um2(c.master()))
            .sum()
    }

    /// The driving cell of a net, if driven by a cell.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_driver_cell(&self, net: NetId) -> Option<CellId> {
        self.tables.net_driver(net)
    }

    /// The cells a net connects: its driving cell first (a port driver
    /// is skipped), then the cell of each sink pin in
    /// [`Net::sinks`] order. A cell with two pins on the net appears
    /// twice. Read from a table built once per netlist.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_endpoints(&self, net: NetId) -> &[CellId] {
        self.tables.net_endpoints(net)
    }

    /// The summed input capacitance of a net's sink pins, fF — each
    /// sink cell's master input capacitance, added in [`Net::sinks`]
    /// order starting from `0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_sink_cap_ff(&self, net: NetId) -> f64 {
        self.tables.net_sink_cap_ff(net)
    }

    /// The nets on a cell's input pins, in function slot order.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_input_nets(&self, cell: CellId) -> &[NetId] {
        self.tables.cell_input_nets(cell)
    }

    /// The nets on a cell's output pins, in function slot order.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_output_nets(&self, cell: CellId) -> &[NetId] {
        self.tables.cell_output_nets(cell)
    }

    /// A cell's library master ([`CellInst::master`]), read from a flat
    /// per-cell table.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_master(&self, cell: CellId) -> LibCellId {
        self.tables.cell_master(cell)
    }

    /// The width of a cell's master in placement sites.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell_width_sites(&self, cell: CellId) -> u32 {
        self.tables.cell_width_sites(cell)
    }
}
