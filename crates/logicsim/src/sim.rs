use std::borrow::Cow;
use std::ops::Range;

use netlist::{CellId, NetDriver, NetId, Netlist};
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

/// A connected component of units: no net joins it to any other
/// segment, so it settles on its own. Its ops, flip-flops and net slots
/// are contiguous ranges of the program's arrays.
#[derive(Debug, Clone)]
struct Segment {
    ops: Range<usize>,
    flops: Range<usize>,
    nets: Range<usize>,
}

/// What a simulator knows about one [`Segment`] between cycles.
#[derive(Debug, Clone, Copy)]
struct SegmentState {
    /// A primary input of the segment changed since it last ran.
    inputs_changed: bool,
    /// The segment ran last cycle, so its `D`s may differ from its `Q`s.
    ran: bool,
}

/// Cycles a `u16` pending toggle counter can absorb (one toggle per
/// cycle at most) before it must drain into the `u64` totals.
const DRAIN_CYCLES: u32 = u16::MAX as u32;

/// A [`Netlist`] compiled for simulation: the immutable half of a
/// [`Simulator`], built once per netlist and shared by every simulator
/// started from it ([`Simulator::with_program`]).
///
/// Compiling splits the netlist into *segments*, the connected
/// components of its units (two units join when a net connects them),
/// and lays each onto a flat, levelized *tape*: one op per
/// combinational cell ([`Netlist::comb_order`]), ordered by segment,
/// logic level and then function, each holding its [`CellFunction`] and
/// the net slots it reads and writes. Net slots are renumbered so each
/// segment's nets are contiguous. Flip-flops become a D/Q slot pair,
/// grouped by segment. The program also keeps each primary input's slot
/// and segment and the settled all-zero start state, so starting a
/// simulator copies values instead of compiling.
///
/// # Examples
///
/// ```
/// use logicsim::{SimProgram, Simulator, Workload};
/// use arithgen::{build_benchmark, BenchmarkConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let nl = build_benchmark(&BenchmarkConfig::small())?;
/// let program = SimProgram::compile(&nl);
/// let workload = Workload::uniform(&nl, 0.3);
/// let mut shared = Simulator::with_program(&nl, &program);
/// shared.run_workload(&workload, 64, 7);
/// let mut own = Simulator::new(&nl);
/// own.run_workload(&workload, 64, 7);
/// assert_eq!(shared.activity(), own.activity());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimProgram {
    /// Value slot of every net, in [`NetId`] order.
    slot: Vec<u32>,
    segments: Vec<Segment>,
    tape: Vec<Op>,
    /// Slot of every flip-flop's `D` input…
    ff_d: Vec<u32>,
    /// …and of its `Q` output, in the same order.
    ff_q: Vec<u32>,
    /// Value slot and segment of every primary input, in
    /// [`Netlist::input_ports`] order.
    inputs: Vec<(u32, u32)>,
    /// Net values after settling the all-zero state, by slot.
    settled: Vec<u8>,
    /// Flip-flops of the segment with the most.
    widest: usize,
}

/// Two-valued, cycle-based simulator over a validated [`Netlist`].
///
/// The netlist is compiled into a [`SimProgram`]; the simulator holds
/// only the state. Net values are bytes (0 or 1); on the clock edge a
/// segment's `D` values are gathered into a reused capture buffer and
/// scattered to its `Q`s. Toggles are counted by XOR against the
/// previous settled state into 16-bit counters that drain into 64-bit
/// totals, so a cycle never touches the netlist's cell → pin → net
/// structure.
///
/// A segment runs its ops and its toggle pass in a cycle only if one of
/// its primary inputs changed since it last ran or one of its `Q`s
/// changed at the edge. Otherwise its values equal last cycle's and its
/// toggles are exactly 0, so skipping it changes no bit.
///
/// See the [crate docs](crate) for the simulation semantics and an
/// end-to-end example.
#[derive(Debug)]
pub struct Simulator<'a> {
    netlist: &'a Netlist,
    program: Cow<'a, SimProgram>,
    segments: Vec<SegmentState>,
    /// One segment's `D` values, captured on the clock edge before any
    /// of its `Q`s commit.
    captured: Vec<u8>,
    values: Vec<u8>,
    prev_values: Vec<u8>,
    /// Toggles since the last drain, per slot…
    pending: Vec<u16>,
    /// …and the drained totals.
    totals: Vec<u64>,
    /// Cycles since the last drain.
    undrained: u32,
    cycles: u64,
    evaluated: u64,
}

impl SimProgram {
    /// Compiles `netlist` onto the tape and settles the all-zero state.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` nets (the tape's
    /// index width).
    pub fn compile(netlist: &Netlist) -> Self {
        assert!(
            u32::try_from(netlist.net_count()).is_ok(),
            "netlist too large for 32-bit net indices"
        );
        let lib = netlist.library();
        let function = |id: CellId| lib.cell(netlist.cell(id).master()).function();
        let net = |net: &NetId| net.index() as u32;
        let unit = |id: CellId| netlist.cell(id).unit().index() as u32;
        let n = netlist.net_count();
        // Compile every cell against raw net indices, levelizing the
        // combinational ones in topological order and joining the unit of
        // each net's driver with the units of its sinks. Per net: one past
        // the level of its combinational driver (0 for nets driven by
        // ports and flip-flops) and its driver's unit, recorded before any
        // sink reads it.
        let mut units = UnitJoin::new(netlist.unit_count());
        let mut driver = vec![(0u32, UnitJoin::NONE); n];
        for port in netlist.input_ports() {
            driver[port.net().index()].1 = port.unit().index() as u32;
        }
        let flops: Vec<(u32, u32, u32)> = netlist
            .cells()
            .filter(|&(id, _)| function(id).is_sequential())
            .map(|(id, _)| {
                let q = net(&netlist.cell_output_nets(id)[0]);
                driver[q as usize].1 = unit(id);
                (unit(id), net(&netlist.cell_input_nets(id)[0]), q)
            })
            .collect();
        let comb: Vec<(u32, u32, Op)> = netlist
            .comb_order()
            .iter()
            .map(|&id| {
                let (ins, outs) = (netlist.cell_input_nets(id), netlist.cell_output_nets(id));
                let mut outputs = [0; 2];
                for (s, n) in outputs.iter_mut().zip(outs.iter().cycle()) {
                    *s = net(n);
                }
                let mut inputs = [outputs[0]; 3];
                for (s, n) in inputs.iter_mut().zip(ins.iter().cycle()) {
                    *s = net(n);
                }
                let u = unit(id);
                let mut level = 0;
                for &i in &inputs[..ins.len().min(3)] {
                    let (l, from) = &mut driver[i as usize];
                    level = level.max(*l);
                    units.sink(from, u);
                }
                for &o in &outputs {
                    driver[o as usize] = (level + 1, u);
                }
                let op = Op {
                    function: function(id),
                    inputs,
                    outputs,
                };
                (u, level, op)
            })
            .collect();
        for &(u, d, _) in &flops {
            units.sink(&mut driver[d as usize].1, u);
        }
        let unit_segment = units.segments();
        let segment_count = unit_segment.iter().max().map_or(0, |&s| s as usize + 1);
        // Number the nets segment by segment, in net order within each;
        // nets no unit touches (segment `segment_count`) take the tail
        // and never change.
        let net_segment = |i: usize| match driver[i].1 {
            UnitJoin::NONE => segment_count,
            u => unit_segment[u as usize] as usize,
        };
        let mut net_starts = vec![0; segment_count + 2];
        for i in 0..n {
            net_starts[net_segment(i) + 1] += 1;
        }
        for s in 1..net_starts.len() {
            net_starts[s] += net_starts[s - 1];
        }
        let mut next = net_starts.clone();
        let slot: Vec<u32> = (0..n)
            .map(|i| {
                let k = &mut next[net_segment(i)];
                *k += 1;
                (*k - 1) as u32
            })
            .collect();
        // Netlists built unit by unit already number their nets segment by
        // segment; then the ops keep their net indices.
        let renumbered = slot.iter().enumerate().any(|(k, &s)| s as usize != k);
        // Levelize within each segment: cells of one logic level never
        // feed each other and segments never feed each other, so ordering
        // by (segment, level, function) keeps every segment's tape
        // topological while running each function's ops back to back.
        // Two stable counting sorts: by function, then by (segment,
        // level), with each segment's levels numbered from `level_base`.
        let segment_of = |i: u32| unit_segment[comb[i as usize].0 as usize] as usize;
        let mut level_base = vec![0; segment_count + 1];
        for (i, &(_, level, _)) in comb.iter().enumerate() {
            let s = segment_of(i as u32);
            level_base[s + 1] = level_base[s + 1].max(level as usize + 1);
        }
        for s in 1..level_base.len() {
            level_base[s] += level_base[s - 1];
        }
        let (by_function, _) = bucket_sort(0..comb.len() as u32, 1 << 8, |i| {
            usize::from(comb[i as usize].2.function as u8)
        });
        let (order, level_starts) = bucket_sort(
            by_function.iter().copied(),
            level_base[segment_count],
            |i| level_base[segment_of(i)] + comb[i as usize].1 as usize,
        );
        let tape: Vec<Op> = order
            .iter()
            .map(|&i| {
                let mut op = comb[i as usize].2;
                if renumbered {
                    for n in op.inputs.iter_mut().chain(&mut op.outputs) {
                        *n = slot[*n as usize];
                    }
                }
                op
            })
            .collect();
        let (by_segment, flop_starts) = bucket_sort(0..flops.len() as u32, segment_count, |i| {
            unit_segment[flops[i as usize].0 as usize] as usize
        });
        let (ff_d, ff_q) = by_segment
            .iter()
            .map(|&i| {
                let (_, d, q) = flops[i as usize];
                (slot[d as usize], slot[q as usize])
            })
            .unzip();
        let segments: Vec<Segment> = (0..segment_count)
            .map(|s| Segment {
                ops: level_starts[level_base[s]]..level_starts[level_base[s + 1]],
                flops: flop_starts[s]..flop_starts[s + 1],
                nets: net_starts[s]..net_starts[s + 1],
            })
            .collect();
        let widest = segments.iter().map(|s| s.flops.len()).max().unwrap_or(0);
        let mut settled = vec![0; n];
        run_ops(&tape, &mut settled);
        let mut program = SimProgram {
            slot,
            segments,
            tape,
            ff_d,
            ff_q,
            inputs: Vec::new(),
            settled,
            widest,
        };
        program.inputs = netlist
            .input_ports()
            .iter()
            .map(|port| {
                let slot = program.slot[port.net().index()];
                (slot, program.segment_of(slot as usize) as u32)
            })
            .collect();
        program
    }

    /// Number of segments: connected components of the netlist's units.
    /// Units that share no net simulate independently.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The segment holding value slot `slot`. Only segment nets are
    /// driven, so `slot` is never one of the untouched tail.
    fn segment_of(&self, slot: usize) -> usize {
        self.segments.partition_point(|s| s.nets.end <= slot)
    }
}

impl<'a> Simulator<'a> {
    /// Compiles `netlist` ([`SimProgram::compile`]) and creates a
    /// simulator with all state initialized to logic 0 and the
    /// combinational logic settled.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` nets (the tape's
    /// index width).
    pub fn new(netlist: &'a Netlist) -> Self {
        Simulator::start(netlist, Cow::Owned(SimProgram::compile(netlist)))
    }

    /// A simulator of `netlist` running `program`, which must have been
    /// compiled from it, in the state [`Simulator::new`] starts in — the
    /// same values, so the same [`Activity`] bit for bit — without
    /// compiling again.
    ///
    /// # Panics
    ///
    /// Panics if `program` has a different net or primary-input count
    /// than `netlist`.
    pub fn with_program(netlist: &'a Netlist, program: &'a SimProgram) -> Self {
        assert!(
            program.slot.len() == netlist.net_count()
                && program.inputs.len() == netlist.input_ports().len(),
            "program was compiled from another netlist"
        );
        Simulator::start(netlist, Cow::Borrowed(program))
    }

    fn start(netlist: &'a Netlist, program: Cow<'a, SimProgram>) -> Self {
        let n = program.settled.len();
        let state = SegmentState {
            inputs_changed: false,
            // The settled start state has not been clocked yet.
            ran: true,
        };
        Simulator {
            netlist,
            segments: vec![state; program.segments.len()],
            captured: vec![0; program.widest],
            values: program.settled.clone(),
            prev_values: program.settled.clone(),
            pending: vec![0; n],
            totals: vec![0; n],
            undrained: 0,
            cycles: 0,
            evaluated: 0,
            program,
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of segments: connected components of the netlist's units.
    /// Units that share no net simulate independently.
    pub fn segment_count(&self) -> usize {
        self.program.segment_count()
    }

    /// Number of clock cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cells evaluated over the [`Simulator::cycles`] counted so far: each
    /// cycle a segment runs adds its combinational cells and flip-flops.
    /// At most the netlist's cell count times the cycles.
    pub fn evaluated_cells(&self) -> u64 {
        self.evaluated
    }

    /// Current logic value of a net.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of range.
    pub fn net_value(&self, net: NetId) -> bool {
        self.values[self.program.slot[net.index()] as usize] == 1
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
        let slot = self.program.slot[net.index()] as usize;
        let value = u8::from(value);
        if self.values[slot] != value {
            self.values[slot] = value;
            let segment = self.program.segment_of(slot);
            self.segments[segment].inputs_changed = true;
        }
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

    /// Advances one clock cycle: commits every flip-flop (`Q ← D`),
    /// re-settles the combinational logic, and accumulates per-net toggle
    /// counts against the previous settled state.
    ///
    /// A segment that did not run last cycle and whose inputs held has
    /// `Q = D` already, so its edge is skipped; one whose inputs held
    /// and whose `Q`s did not change is not re-settled.
    pub fn step(&mut self) {
        let program = &*self.program;
        for (seg, state) in program.segments.iter().zip(&mut self.segments) {
            let mut run = state.inputs_changed;
            if state.ran || run {
                let q = &program.ff_q[seg.flops.clone()];
                let captured = &mut self.captured[..q.len()];
                // Capture the segment's D inputs simultaneously…
                for (c, &d) in captured.iter_mut().zip(&program.ff_d[seg.flops.clone()]) {
                    *c = self.values[d as usize];
                }
                // …then commit to its Q outputs.
                for (&q, &c) in q.iter().zip(captured.iter()) {
                    let v = &mut self.values[q as usize];
                    run |= *v != c;
                    *v = c;
                }
            }
            if run {
                run_ops(&program.tape[seg.ops.clone()], &mut self.values);
                let nets = seg.nets.clone();
                for ((t, p), &v) in self.pending[nets.clone()]
                    .iter_mut()
                    .zip(&mut self.prev_values[nets.clone()])
                    .zip(&self.values[nets])
                {
                    *t += u16::from(*p ^ v);
                    *p = v;
                }
                self.evaluated += (seg.ops.len() + seg.flops.len()) as u64;
            }
            state.ran = run;
            state.inputs_changed = false;
        }
        self.cycles += 1;
        self.undrained += 1;
        if self.undrained == DRAIN_CYCLES {
            for (total, t) in self.totals.iter_mut().zip(&mut self.pending) {
                *total += u64::from(*t);
                *t = 0;
            }
            self.undrained = 0;
        }
    }

    /// Runs `cycles` clock cycles driving primary inputs per `workload`
    /// with a deterministic RNG seeded by `seed`.
    ///
    /// Inputs of *active* units receive fresh random bits each cycle with
    /// the unit's toggle probability; inputs of *idle* units are held at
    /// their current value, so after one cycle an idle unit's data path is
    /// completely quiet (only its flip-flops' internal clock energy
    /// remains — exactly the paper's workload-controlled hotspots), and
    /// its segment stops running unless it shares one with an active
    /// unit.
    ///
    /// Each cycle draws one random bit per active-unit input port, in
    /// [`Netlist::input_ports`] order, before the clock edge — so a given
    /// seed always yields the same [`Activity`].
    pub fn run_workload(&mut self, workload: &Workload, cycles: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let active: Vec<(usize, usize, f64)> = self
            .netlist
            .input_ports()
            .iter()
            .zip(&self.program.inputs)
            .filter_map(|(port, &(slot, segment))| {
                workload
                    .toggle_probability(port.unit())
                    .map(|p| (slot as usize, segment as usize, p))
            })
            .collect();
        for _ in 0..cycles {
            for &(slot, segment, p) in &active {
                let flip = rng.gen_bool(p);
                self.values[slot] ^= u8::from(flip);
                self.segments[segment].inputs_changed |= flip;
            }
            self.step();
        }
    }

    /// The per-net switching activity accumulated so far.
    pub fn activity(&self) -> Activity {
        let toggles = self
            .program
            .slot
            .iter()
            .map(|&s| self.totals[s as usize] + u64::from(self.pending[s as usize]))
            .collect();
        Activity::new(self.cycles, toggles)
    }

    /// Resets toggle counters, the cycle count and the evaluated-cell
    /// count (state is kept).
    pub fn reset_activity(&mut self) {
        self.pending.iter_mut().for_each(|t| *t = 0);
        self.totals.iter_mut().for_each(|t| *t = 0);
        self.undrained = 0;
        self.cycles = 0;
        self.evaluated = 0;
    }
}

/// Runs `tape` once over `values`: every op in order.
fn run_ops(tape: &[Op], values: &mut [u8]) {
    for op in tape {
        let [a, b, c] = op.inputs;
        let (y, co) =
            op.function
                .eval_bits(values[a as usize], values[b as usize], values[c as usize]);
        values[op.outputs[1] as usize] = co;
        values[op.outputs[0] as usize] = y;
    }
}

/// A stable counting sort: `items` reordered by `key`, whose values are
/// below `buckets`, plus where each bucket starts (and, last, the end).
fn bucket_sort(
    items: impl Iterator<Item = u32> + Clone,
    buckets: usize,
    key: impl Fn(u32) -> usize,
) -> (Vec<u32>, Vec<usize>) {
    let mut starts = vec![0; buckets + 1];
    for i in items.clone() {
        starts[key(i) + 1] += 1;
    }
    for b in 1..starts.len() {
        starts[b] += starts[b - 1];
    }
    let mut next = starts.clone();
    let mut sorted = vec![0; starts[buckets]];
    for i in items {
        let b = &mut next[key(i)];
        sorted[*b] = i;
        *b += 1;
    }
    (sorted, starts)
}

/// Union-find over a netlist's units: a net joins the unit of its
/// driver with the units of its sinks.
struct UnitJoin {
    parent: Vec<u32>,
}

impl UnitJoin {
    /// No unit: the driver of a net nothing drives.
    const NONE: u32 = u32::MAX;

    fn new(units: usize) -> Self {
        UnitJoin {
            parent: (0..units as u32).collect(),
        }
    }

    fn root(&mut self, mut unit: u32) -> u32 {
        while self.parent[unit as usize] != unit {
            let up = self.parent[self.parent[unit as usize] as usize];
            self.parent[unit as usize] = up;
            unit = up;
        }
        unit
    }

    /// A cell of `unit` reads a net whose driver is in unit `driver`. An
    /// undriven net goes to its first reader.
    fn sink(&mut self, driver: &mut u32, unit: u32) {
        if *driver == Self::NONE {
            *driver = unit;
        } else if *driver != unit {
            let (a, b) = (self.root(*driver), self.root(unit));
            self.parent[a.max(b) as usize] = a.min(b);
        }
    }

    /// The segment of every unit: segments are the connected components,
    /// numbered in order of each component's first unit.
    fn segments(mut self) -> Vec<u32> {
        let mut count = 0;
        let mut root_segment = vec![Self::NONE; self.parent.len()];
        (0..self.parent.len() as u32)
            .map(|unit| {
                let r = self.root(unit) as usize;
                if root_segment[r] == Self::NONE {
                    root_segment[r] = count;
                    count += 1;
                }
                root_segment[r]
            })
            .collect()
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
    fn a_segment_runs_only_when_an_input_or_its_state_changes() {
        let (nl, nets) = inv_chain();
        let mut sim = Simulator::new(&nl);
        sim.step();
        assert_eq!(sim.evaluated_cells(), 0, "held inputs, no flip-flops");
        sim.set_input(nets[0], true);
        sim.set_input(nets[0], true);
        sim.step();
        assert_eq!(sim.evaluated_cells(), 2);
        sim.set_input(nets[0], true);
        sim.step();
        assert_eq!(sim.evaluated_cells(), 2, "re-driving the same value");
        assert_eq!(sim.cycles(), 3);
    }

    #[test]
    fn benchmark_units_are_separate_segments() {
        let nl = arithgen::build_benchmark(&arithgen::BenchmarkConfig::small()).unwrap();
        assert_eq!(Simulator::new(&nl).segment_count(), nl.unit_count());
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
