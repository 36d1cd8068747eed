//! Differential test: the compiled simulator tape against a direct
//! interpreter of `CellFunction::eval` on random small netlists that use
//! every cell function, DFF chains and DFF→DFF feedback.

use logicsim::{Activity, Simulator};
use netlist::{topo_order, NetId, Netlist, NetlistBuilder, PinId};
use proptest::prelude::*;
use stdcell::{CellFunction, Drive, Library};

/// The reference semantics, written out directly: settle the
/// combinational cells in topological order with `CellFunction::eval`.
fn settle(nl: &Netlist, values: &mut [bool]) {
    let net = |pin: &PinId| nl.pin(*pin).net().index();
    for cell in topo_order(nl).expect("acyclic") {
        let c = nl.cell(cell);
        let ins: Vec<bool> = c.input_pins().iter().map(|p| values[net(p)]).collect();
        let mut outs = vec![false; c.output_pins().len()];
        nl.library()
            .cell(c.master())
            .function()
            .eval(&ins, &mut outs);
        for (p, v) in c.output_pins().iter().zip(outs) {
            values[net(p)] = v;
        }
    }
}

/// One clock edge: every flip-flop samples `D` before any `Q` commits,
/// then the logic settles.
fn clock(nl: &Netlist, values: &mut [bool]) {
    let net = |pin: PinId| nl.pin(pin).net().index();
    let flops: Vec<(usize, bool)> = nl
        .cells()
        .filter(|(_, c)| nl.library().cell(c.master()).function().is_sequential())
        .map(|(_, c)| (net(c.output_pins()[0]), values[net(c.input_pins()[0])]))
        .collect();
    flops.into_iter().for_each(|(q, d)| values[q] = d);
    settle(nl, values);
}

/// Builds a random netlist from `gates`: four input ports and three
/// flip-flop outputs are usable from the start; the first cells run
/// through every `CellFunction` once, the rest pick functions from their
/// byte; each cell's inputs are drawn among the nets created so far. The
/// flip-flops close last: `q0 ← q1` and `q1 ← q0` form a DFF→DFF ring,
/// and `q2` samples the newest net.
fn random_netlist(gates: &[u8]) -> (Netlist, Vec<NetId>) {
    let mut b = NetlistBuilder::new("diff", Library::c65());
    let u = b.add_unit("u");
    let inputs = b.input_bus("in", 4, u);
    let flops: Vec<NetId> = (0..3).map(|_| b.auto_net()).collect();
    let mut nets: Vec<NetId> = inputs.iter().chain(&flops).copied().collect();
    for (i, &g) in gates.iter().enumerate() {
        let all = CellFunction::ALL;
        let f = all[if i < all.len() {
            i
        } else {
            g as usize % all.len()
        }];
        let pick = |k: usize| nets[(g as usize * 31 + k * 7 + i) % nets.len()];
        let ins: Vec<NetId> = (0..f.input_count()).map(pick).collect();
        let outs: Vec<NetId> = (0..f.output_count()).map(|_| b.auto_net()).collect();
        b.cell(u, f, Drive::X1, &ins, &outs)
            .expect("valid by construction");
        nets.extend(&outs);
    }
    let newest = nets[nets.len() - 1];
    for (d, q) in [
        (flops[1], flops[0]),
        (flops[0], flops[1]),
        (newest, flops[2]),
    ] {
        b.cell(u, CellFunction::Dff, Drive::X1, &[d], &[q])
            .expect("flip-flops break every loop");
    }
    (b.finish().expect("valid by construction"), inputs)
}

fn assert_same(sim: &Simulator<'_>, values: &[bool], expected: &Activity) {
    prop_assert_eq!(&sim.activity(), expected);
    let nl = sim.netlist();
    for (id, _) in nl.nets() {
        prop_assert_eq!(sim.net_value(id), values[id.index()], "net {}", id);
    }
    let all: Vec<NetId> = nl.nets().map(|(id, _)| id).collect();
    for bus in all.chunks(128) {
        let want = bus.iter().enumerate().fold(0u128, |acc, (i, n)| {
            acc | (u128::from(values[n.index()]) << i)
        });
        prop_assert_eq!(sim.read_bus(bus), want);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tape_matches_reference_interpreter(
        gates in prop::collection::vec(any::<u8>(), 19..80),
        stimulus in prop::collection::vec(any::<u8>(), 1..24),
    ) {
        let (nl, inputs) = random_netlist(&gates);
        let mut sim = Simulator::new(&nl);
        let mut values = vec![false; nl.net_count()];
        settle(&nl, &mut values);
        let mut toggles = vec![0u64; nl.net_count()];
        assert_same(&sim, &values, &Activity::new(0, toggles.clone()));
        for (cycle, &s) in stimulus.iter().enumerate() {
            let prev = values.clone();
            for (k, &net) in inputs.iter().enumerate() {
                let v = (s >> k) & 1 == 1;
                sim.set_input(net, v);
                values[net.index()] = v;
            }
            sim.step();
            clock(&nl, &mut values);
            for (t, (v, p)) in toggles.iter_mut().zip(values.iter().zip(&prev)) {
                *t += u64::from(v != p);
            }
            let expected = Activity::new(cycle as u64 + 1, toggles.clone());
            assert_same(&sim, &values, &expected);
        }
    }
}
