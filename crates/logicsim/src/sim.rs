use netlist::{combinational_levels, CellId, NetDriver, NetId, Netlist, PinId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stdcell::CellFunction;

use crate::{Activity, Workload};

/// One combinational cell compiled onto the tape: its function and the
/// net slots it reads and writes.
///
/// Unused input slots repeat a slot the cell already touches
/// ([`CellFunction::eval_bits`] ignores inputs beyond the cell's arity);
/// a single-output cell's second output slot equals its first, and the
/// carry is written before `Y`, so `Y` is the value that stays.
#[derive(Debug, Clone, Copy)]
struct Op {
    function: CellFunction,
    inputs: [u32; 3],
    outputs: [u32; 2],
}

/// Two-valued, cycle-based simulator over a validated [`Netlist`].
///
/// Construction compiles the netlist into a flat, levelized *tape*: one
/// op per combinational cell ([`Netlist::comb_order`]), ordered by logic
/// level and then by function, each holding its [`CellFunction`] and the
/// net indices it reads and writes. Flip-flops become a D/Q index pair
/// gathered into a reused capture buffer and scattered back on the clock
/// edge. Net values are bytes (0 or 1), and toggles are counted by XOR
/// against the previous settled state, so a cycle never touches the
/// netlist's cell → pin → net structure.
///
/// See the [crate docs](crate) for the simulation semantics and an
/// end-to-end example.
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    tape: Vec<Op>,
    /// Net index of every flip-flop's `D` input…
    ff_d: Vec<u32>,
    /// …and of its `Q` output, in the same order.
    ff_q: Vec<u32>,
    /// `D` values captured on the clock edge before any `Q` commits.
    captured: Vec<u8>,
    values: Vec<u8>,
    prev_values: Vec<u8>,
    toggles: Vec<u64>,
    cycles: u64,
}

impl<'a> Simulator<'a> {
    /// Compiles `netlist` onto the tape and creates a simulator with all
    /// state initialized to logic 0 and the combinational logic settled.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` nets (the tape's
    /// index width).
    pub fn new(netlist: &'a Netlist) -> Self {
        assert!(
            u32::try_from(netlist.net_count()).is_ok(),
            "netlist too large for 32-bit net indices"
        );
        let lib = netlist.library();
        let slot = |pin: PinId| netlist.pin(pin).net().index() as u32;
        // Levelize: cells of one logic level never feed each other, so a
        // stable sort of the topological order by (level, function) keeps
        // the tape topological while running each function's ops back to
        // back.
        let levels = combinational_levels(netlist);
        let function = |id: CellId| lib.cell(netlist.cell(id).master()).function();
        let mut levelled: Vec<(Option<u32>, Op)> = netlist
            .comb_order()
            .iter()
            .map(|&id| {
                let cell = netlist.cell(id);
                let mut outputs = [0; 2];
                for (s, &pin) in outputs.iter_mut().zip(cell.output_pins().iter().cycle()) {
                    *s = slot(pin);
                }
                let mut inputs = [outputs[0]; 3];
                for (s, &pin) in inputs.iter_mut().zip(cell.input_pins().iter().cycle()) {
                    *s = slot(pin);
                }
                let op = Op {
                    function: function(id),
                    inputs,
                    outputs,
                };
                (levels[id.index()], op)
            })
            .collect();
        levelled.sort_by_key(|&(level, op)| (level, op.function as u8));
        let tape = levelled.into_iter().map(|(_, op)| op).collect();
        let (ff_d, ff_q): (Vec<u32>, Vec<u32>) = netlist
            .cells()
            .filter(|&(id, _)| function(id).is_sequential())
            .map(|(_, c)| (slot(c.input_pins()[0]), slot(c.output_pins()[0])))
            .unzip();
        let n = netlist.net_count();
        let mut sim = Simulator {
            netlist,
            tape,
            captured: vec![0; ff_d.len()],
            ff_d,
            ff_q,
            values: vec![0; n],
            prev_values: vec![0; n],
            toggles: vec![0; n],
            cycles: 0,
        };
        sim.settle();
        sim.prev_values.copy_from_slice(&sim.values);
        sim
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of clock cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Current logic value of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_value(&self, net: NetId) -> bool {
        self.values[net.index()] == 1
    }

    /// Drives a primary-input net. The value takes effect at the next
    /// [`Simulator::step`].
    ///
    /// # Panics
    ///
    /// Panics if `net` is not driven by an input port.
    pub fn set_input(&mut self, net: NetId, value: bool) {
        assert!(
            matches!(self.netlist.net(net).driver(), NetDriver::Port(_)),
            "net {net} is not a primary input"
        );
        self.values[net.index()] = u8::from(value);
    }

    /// Drives a bus of primary-input nets (LSB first) from an integer.
    ///
    /// # Panics
    ///
    /// Panics if any net is not a primary input.
    pub fn set_input_bus(&mut self, nets: &[NetId], value: u128) {
        for (i, &net) in nets.iter().enumerate() {
            self.set_input(net, (value >> i) & 1 == 1);
        }
    }

    /// Reads a bus of nets (LSB first) as an integer.
    ///
    /// # Panics
    ///
    /// Panics if the bus is wider than 128 bits.
    pub fn read_bus(&self, nets: &[NetId]) -> u128 {
        assert!(nets.len() <= 128, "bus too wide for u128");
        nets.iter().enumerate().fold(0u128, |acc, (i, &n)| {
            acc | ((self.net_value(n) as u128) << i)
        })
    }

    /// Runs the tape once: every combinational cell in topological order.
    fn settle(&mut self) {
        let v = &mut self.values;
        for op in &self.tape {
            let [a, b, c] = op.inputs;
            let (y, co) = op
                .function
                .eval_bits(v[a as usize], v[b as usize], v[c as usize]);
            v[op.outputs[1] as usize] = co;
            v[op.outputs[0] as usize] = y;
        }
    }

    /// Advances one clock cycle: commits every flip-flop (`Q ← D`),
    /// re-settles the combinational logic, and accumulates per-net toggle
    /// counts against the previous settled state.
    pub fn step(&mut self) {
        // Capture all D inputs simultaneously…
        for (c, &d) in self.captured.iter_mut().zip(&self.ff_d) {
            *c = self.values[d as usize];
        }
        // …then commit to the Q outputs.
        for (&q, &c) in self.ff_q.iter().zip(&self.captured) {
            self.values[q as usize] = c;
        }
        self.settle();
        for ((t, p), &v) in self
            .toggles
            .iter_mut()
            .zip(&mut self.prev_values)
            .zip(&self.values)
        {
            *t += u64::from(*p ^ v);
            *p = v;
        }
        self.cycles += 1;
    }

    /// Runs `cycles` clock cycles driving primary inputs per `workload`
    /// with a deterministic RNG seeded by `seed`.
    ///
    /// Inputs of *active* units receive fresh random bits each cycle with
    /// the unit's toggle probability; inputs of *idle* units are held at
    /// their current value, so after one cycle an idle unit's data path is
    /// completely quiet (only its flip-flops' internal clock energy
    /// remains — exactly the paper's workload-controlled hotspots).
    ///
    /// Each cycle draws one random bit per active-unit input port, in
    /// [`Netlist::input_ports`] order, before the clock edge — so a given
    /// seed always yields the same [`Activity`].
    pub fn run_workload(&mut self, workload: &Workload, cycles: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let active: Vec<(usize, f64)> = self
            .netlist
            .input_ports()
            .iter()
            .filter_map(|port| {
                workload
                    .toggle_probability(port.unit())
                    .map(|p| (port.net().index(), p))
            })
            .collect();
        for _ in 0..cycles {
            for &(net, p) in &active {
                self.values[net] ^= u8::from(rng.gen_bool(p));
            }
            self.step();
        }
    }

    /// The per-net switching activity accumulated so far.
    pub fn activity(&self) -> Activity {
        Activity::new(self.cycles, self.toggles.clone())
    }

    /// Resets toggle counters and the cycle count (state is kept).
    pub fn reset_activity(&mut self) {
        self.toggles.iter_mut().for_each(|t| *t = 0);
        self.cycles = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistBuilder;
    use stdcell::{CellFunction, Drive, Library};

    fn inv_chain() -> (Netlist, Vec<NetId>) {
        let mut b = NetlistBuilder::new("chain", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_port("a", u);
        let n1 = b.net("n1");
        let n2 = b.net("n2");
        b.cell(u, CellFunction::Inv, Drive::X1, &[a], &[n1])
            .unwrap();
        b.cell(u, CellFunction::Inv, Drive::X1, &[n1], &[n2])
            .unwrap();
        let nl = b.finish().unwrap();
        (nl, vec![a, n1, n2])
    }

    #[test]
    fn combinational_settles_on_construction() {
        let (nl, nets) = inv_chain();
        let sim = Simulator::new(&nl);
        assert!(!sim.net_value(nets[0]));
        assert!(sim.net_value(nets[1]));
        assert!(!sim.net_value(nets[2]));
    }

    #[test]
    fn input_propagates_on_step() {
        let (nl, nets) = inv_chain();
        let mut sim = Simulator::new(&nl);
        sim.set_input(nets[0], true);
        sim.step();
        assert!(!sim.net_value(nets[1]));
        assert!(sim.net_value(nets[2]));
        // Toggle counts: all three nets flipped exactly once.
        let act = sim.activity();
        for &n in &nets {
            assert_eq!(act.toggles(n), 1, "net {n}");
        }
    }

    #[test]
    fn dff_delays_by_one_cycle() {
        let mut b = NetlistBuilder::new("ff", Library::c65());
        let u = b.add_unit("u");
        let d = b.input_port("d", u);
        let q = b.net("q");
        b.cell(u, CellFunction::Dff, Drive::X1, &[d], &[q]).unwrap();
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.set_input(d, true);
        assert!(!sim.net_value(q), "not yet clocked");
        sim.step();
        assert!(sim.net_value(q), "captured on the edge");
        sim.set_input(d, false);
        sim.step();
        assert!(!sim.net_value(q));
    }

    #[test]
    fn held_inputs_mean_zero_toggles_after_settling() {
        let (nl, nets) = inv_chain();
        let mut sim = Simulator::new(&nl);
        sim.set_input(nets[0], true);
        sim.step();
        sim.reset_activity();
        for _ in 0..10 {
            sim.step();
        }
        let act = sim.activity();
        for &n in &nets {
            assert_eq!(act.toggles(n), 0);
        }
    }

    #[test]
    #[should_panic(expected = "not a primary input")]
    fn driving_internal_net_panics() {
        let (nl, nets) = inv_chain();
        let mut sim = Simulator::new(&nl);
        sim.set_input(nets[1], true);
    }

    #[test]
    fn bus_roundtrip() {
        let mut b = NetlistBuilder::new("bus", Library::c65());
        let u = b.add_unit("u");
        let a = b.input_bus("a", 8, u);
        let y: Vec<NetId> = a.iter().map(|_| b.auto_net()).collect();
        for i in 0..8 {
            b.cell(u, CellFunction::Buf, Drive::X1, &[a[i]], &[y[i]])
                .unwrap();
        }
        let nl = b.finish().unwrap();
        let mut sim = Simulator::new(&nl);
        sim.set_input_bus(&a, 0xA5);
        sim.step();
        assert_eq!(sim.read_bus(&y), 0xA5);
    }
}
