use stdcell::{CellFunction, Drive, Library};

use crate::database::{CellInst, Net, NetDriver, Pin, PinDir, Port, Unit};
use crate::tables::Tables;
use crate::{topo_order, CellId, NetId, Netlist, NetlistError, PinId, PortId, UnitId};

/// Incrementally constructs a validated [`Netlist`].
///
/// The builder enforces single-driver nets at connection time and performs
/// full validation (floating nets, combinational cycles) in
/// [`NetlistBuilder::finish`].
///
/// # Examples
///
/// ```
/// use netlist::NetlistBuilder;
/// use stdcell::{CellFunction, Drive, Library};
///
/// # fn main() -> Result<(), netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("pair", Library::c65());
/// let u = b.add_unit("u");
/// let a = b.input_port("a", u);
/// let b_in = b.input_port("b", u);
/// let mid = b.net("mid");
/// let y = b.net("y");
/// b.cell(u, CellFunction::Nand2, Drive::X1, &[a, b_in], &[mid])?;
/// b.cell(u, CellFunction::Inv, Drive::X1, &[mid], &[y])?;
/// b.output_port("y", u, y);
/// let nl = b.finish()?;
/// assert_eq!(nl.net_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct NetlistBuilder {
    name: String,
    library: Library,
    cells: Vec<CellInst>,
    nets: Vec<Net>,
    pins: Vec<Pin>,
    units: Vec<Unit>,
    input_ports: Vec<Port>,
    output_ports: Vec<Port>,
    auto_name_counter: u64,
}

impl NetlistBuilder {
    /// Creates an empty builder for a design mapped to `library`.
    pub fn new(name: impl Into<String>, library: Library) -> Self {
        NetlistBuilder {
            name: name.into(),
            library,
            cells: Vec::new(),
            nets: Vec::new(),
            pins: Vec::new(),
            units: Vec::new(),
            input_ports: Vec::new(),
            output_ports: Vec::new(),
            auto_name_counter: 0,
        }
    }

    /// The library the design is being mapped to.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Declares a new unit (hierarchical block).
    pub fn add_unit(&mut self, name: impl Into<String>) -> UnitId {
        let id = UnitId::new(self.units.len());
        self.units.push(Unit::new(name));
        id
    }

    /// Creates a named net.
    pub fn net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId::new(self.nets.len());
        self.nets.push(Net::new(name));
        id
    }

    /// Creates an automatically named net (`_n<k>`).
    pub fn auto_net(&mut self) -> NetId {
        let n = self.auto_name_counter;
        self.auto_name_counter += 1;
        self.net(format!("_n{n}"))
    }

    /// Creates a bus of `width` automatically named nets, LSB first.
    pub fn bus(&mut self, prefix: &str, width: usize) -> Vec<NetId> {
        (0..width)
            .map(|i| self.net(format!("{prefix}[{i}]")))
            .collect()
    }

    /// Declares a primary input port for `unit`: creates the net, registers
    /// the port as its driver and returns the net.
    pub fn input_port(&mut self, name: impl Into<String>, unit: UnitId) -> NetId {
        let name = name.into();
        let net = self.net(format!("{name}__net"));
        let port = PortId::new(self.input_ports.len());
        self.input_ports.push(Port::new(name, net, unit));
        self.nets[net.index()].set_driver(NetDriver::Port(port));
        net
    }

    /// Declares a bus of `width` primary input ports, LSB first.
    pub fn input_bus(&mut self, prefix: &str, width: usize, unit: UnitId) -> Vec<NetId> {
        (0..width)
            .map(|i| self.input_port(format!("{prefix}[{i}]"), unit))
            .collect()
    }

    /// Declares a primary output port observing `net`.
    pub fn output_port(&mut self, name: impl Into<String>, unit: UnitId, net: NetId) -> PortId {
        let port = PortId::new(self.output_ports.len());
        self.output_ports.push(Port::new(name, net, unit));
        port
    }

    /// Instantiates a cell of `function` at drive `drive`, picking the
    /// master from the library, with an auto-generated instance name.
    ///
    /// Inputs/outputs are given as nets in function slot order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MissingMaster`] if the library lacks the
    /// function/drive pair, [`NetlistError::ArityMismatch`] on wrong net
    /// counts, or [`NetlistError::MultipleDrivers`] when an output net is
    /// already driven.
    pub fn cell(
        &mut self,
        unit: UnitId,
        function: CellFunction,
        drive: Drive,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> Result<CellId, NetlistError> {
        let name = format!("{}_{}", function, self.cells.len());
        self.cell_named(name, unit, function, drive, inputs, outputs)
    }

    /// Like [`NetlistBuilder::cell`] but with an explicit instance name.
    ///
    /// # Errors
    ///
    /// Same as [`NetlistBuilder::cell`].
    pub fn cell_named(
        &mut self,
        name: impl Into<String>,
        unit: UnitId,
        function: CellFunction,
        drive: Drive,
        inputs: &[NetId],
        outputs: &[NetId],
    ) -> Result<CellId, NetlistError> {
        let master = self
            .library
            .cell_for(function, drive)
            .or_else(|| self.library.any_cell_for(function))
            .ok_or_else(|| NetlistError::MissingMaster {
                wanted: format!("{function} {drive}"),
            })?;
        if inputs.len() != function.input_count() || outputs.len() != function.output_count() {
            return Err(NetlistError::ArityMismatch {
                function: function.to_string(),
                expected: (function.input_count(), function.output_count()),
                got: (inputs.len(), outputs.len()),
            });
        }
        let cell_id = CellId::new(self.cells.len());
        let mut pins = Vec::with_capacity(inputs.len() + outputs.len());
        for (slot, &net) in inputs.iter().enumerate() {
            let pin_id = PinId::new(self.pins.len());
            self.pins
                .push(Pin::new(cell_id, PinDir::Input, slot as u8, net));
            self.nets[net.index()].add_sink(pin_id);
            pins.push(pin_id);
        }
        for (slot, &net) in outputs.iter().enumerate() {
            let pin_id = PinId::new(self.pins.len());
            self.pins
                .push(Pin::new(cell_id, PinDir::Output, slot as u8, net));
            let net_entry = &mut self.nets[net.index()];
            if !matches!(net_entry.driver(), NetDriver::None) {
                return Err(NetlistError::MultipleDrivers {
                    net,
                    net_name: net_entry.name().to_string(),
                });
            }
            net_entry.set_driver(NetDriver::Pin(pin_id));
            pins.push(pin_id);
        }
        self.cells
            .push(CellInst::new(name, master, unit, pins, inputs.len()));
        Ok(cell_id)
    }

    /// Number of cells added so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FloatingNet`] for nets with sinks but no
    /// driver, or [`NetlistError::CombinationalCycle`] when the gate graph
    /// contains a loop not broken by a flip-flop.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        for (i, net) in self.nets.iter().enumerate() {
            if matches!(net.driver(), NetDriver::None) && !net.sinks().is_empty() {
                return Err(NetlistError::FloatingNet {
                    net: NetId::new(i),
                    net_name: net.name().to_string(),
                });
            }
        }
        let mut netlist = Netlist {
            name: self.name,
            library: self.library,
            cells: self.cells,
            nets: self.nets,
            pins: self.pins,
            units: self.units,
            input_ports: self.input_ports,
            output_ports: self.output_ports,
            comb_order: Vec::new(),
            tables: Tables::default(),
        };
        // Cycle check via topological sort of the combinational graph;
        // the order is kept for the simulator and the timing analyzer,
        // next to the flat connectivity every per-placement pass reads.
        netlist.comb_order = topo_order(&netlist)?;
        netlist.tables = Tables::of(&netlist);
        Ok(netlist)
    }
}
