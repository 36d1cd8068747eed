//! Differential test: the compiled simulator tape against a direct
//! interpreter of `CellFunction::eval` on random small netlists that use
//! every cell function, DFF chains and DFF→DFF feedback; on random
//! multi-unit netlists whose units idle, wake up and share a net; and
//! over more cycles than a 16-bit toggle counter holds.

use logicsim::{Activity, Simulator, UnitMode, Workload};
use netlist::{topo_order, NetId, Netlist, NetlistBuilder, PinId, UnitId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

/// Builds a random netlist of `units` units from `gates`. Cell `i` goes
/// to unit `i % units` and reads nets of that unit only, so the units'
/// nets interleave in net order. Each unit has two input ports and two
/// flip-flops: `q0` samples the unit's newest net and `q1 ← q0`. With
/// `cross`, one buffer in the last unit reads a net of unit 0 and feeds
/// the last unit's `q0`, which joins the two units. Returns the netlist
/// and each unit's input nets.
fn random_units(gates: &[u8], units: usize, cross: bool) -> (Netlist, Vec<Vec<NetId>>) {
    let mut b = NetlistBuilder::new("units", Library::c65());
    let ids: Vec<UnitId> = (0..units).map(|u| b.add_unit(format!("u{u}"))).collect();
    let inputs: Vec<Vec<NetId>> = ids
        .iter()
        .enumerate()
        .map(|(u, &id)| b.input_bus(&format!("in{u}"), 2, id))
        .collect();
    let flops: Vec<[NetId; 2]> = ids.iter().map(|_| [b.auto_net(), b.auto_net()]).collect();
    let mut nets: Vec<Vec<NetId>> = (0..units)
        .map(|u| inputs[u].iter().chain(&flops[u]).copied().collect())
        .collect();
    let all = CellFunction::ALL;
    for (i, &g) in gates.iter().enumerate() {
        let u = i % units;
        let f = all[g as usize % all.len()];
        let pool = &nets[u];
        let ins: Vec<NetId> = (0..f.input_count())
            .map(|k| pool[(g as usize * 31 + k * 7 + i) % pool.len()])
            .collect();
        let outs: Vec<NetId> = (0..f.output_count()).map(|_| b.auto_net()).collect();
        b.cell(ids[u], f, Drive::X1, &ins, &outs)
            .expect("valid by construction");
        nets[u].extend(&outs);
    }
    if cross {
        let last = units - 1;
        let out = b.auto_net();
        b.cell(
            ids[last],
            CellFunction::Buf,
            Drive::X1,
            &[nets[0][nets[0].len() - 1]],
            &[out],
        )
        .expect("valid by construction");
        nets[last].push(out);
    }
    for (u, &id) in ids.iter().enumerate() {
        let newest = nets[u][nets[u].len() - 1];
        for (d, q) in [(newest, flops[u][0]), (flops[u][0], flops[u][1])] {
            b.cell(id, CellFunction::Dff, Drive::X1, &[d], &[q])
                .expect("flip-flops break every loop");
        }
    }
    (b.finish().expect("valid by construction"), inputs)
}

/// One reference clock edge after the inputs moved from `prev`'s
/// values, counting each net's toggles against `prev`.
fn clock_counting(nl: &Netlist, prev: &[bool], values: &mut [bool], toggles: &mut [u64]) {
    clock(nl, values);
    for (t, (v, p)) in toggles.iter_mut().zip(values.iter().zip(prev)) {
        *t += u64::from(v != p);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn idle_and_joined_units_match_reference_interpreter(
        gates in prop::collection::vec(any::<u8>(), 12..90),
        units in 2usize..5,
        cross in any::<bool>(),
        stimulus in prop::collection::vec((any::<u8>(), any::<u16>()), 2..40),
    ) {
        let (nl, inputs) = random_units(&gates, units, cross);
        let mut sim = Simulator::new(&nl);
        prop_assert_eq!(sim.segment_count(), units - usize::from(cross));
        let mut values = vec![false; nl.net_count()];
        settle(&nl, &mut values);
        let mut toggles = vec![0u64; nl.net_count()];
        let wake = stimulus.len() / 2;
        for (cycle, &(mask, bits)) in stimulus.iter().enumerate() {
            // Unit 0 idles except for one `set_input` halfway through,
            // which flips its first input; the others are driven on the
            // cycles `mask` picks.
            let prev = values.clone();
            let first = inputs[0][0];
            let flipped = !values[first.index()];
            let mut drive = |net: NetId, v: bool| {
                sim.set_input(net, v);
                values[net.index()] = v;
            };
            if cycle == wake {
                drive(first, flipped);
            }
            for (u, nets) in inputs.iter().enumerate().skip(1) {
                if (mask >> u) & 1 == 1 {
                    for (k, &net) in nets.iter().enumerate() {
                        drive(net, (bits >> (2 * u + k)) & 1 == 1);
                    }
                }
            }
            sim.step();
            clock_counting(&nl, &prev, &mut values, &mut toggles);
            assert_same(&sim, &values, &Activity::new(cycle as u64 + 1, toggles.clone()));
        }
        prop_assert!(sim.evaluated_cells() <= nl.cell_count() as u64 * sim.cycles());
    }

    #[test]
    fn workload_runs_match_reference_interpreter(
        gates in prop::collection::vec(any::<u8>(), 12..90),
        units in 2usize..5,
        cross in any::<bool>(),
        active in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let (nl, _) = random_units(&gates, units, cross);
        let mut workload = Workload::all_idle(&nl);
        for u in (0..units).filter(|u| (active >> u) & 1 == 1) {
            let p = 0.25 + 0.25 * (u % 3) as f64;
            workload.set_mode(UnitId::new(u), UnitMode::Active { toggle_probability: p });
        }
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&workload, 24, seed);
        // The reference draws the same bits: one per active-unit input
        // port per cycle, in port order, before the edge.
        let mut values = vec![false; nl.net_count()];
        settle(&nl, &mut values);
        let mut toggles = vec![0u64; nl.net_count()];
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..24 {
            let prev = values.clone();
            for port in nl.input_ports() {
                if let Some(p) = workload.toggle_probability(port.unit()) {
                    values[port.net().index()] ^= rng.gen_bool(p);
                }
            }
            clock_counting(&nl, &prev, &mut values, &mut toggles);
        }
        assert_same(&sim, &values, &Activity::new(24, toggles));
    }
}

/// A toggle flip-flop (`q ← !q`) flips every cycle, so its nets overflow
/// a 16-bit counter unless the counters drain on time; the reference
/// counts in `u64`s throughout.
#[test]
fn toggle_counts_survive_more_cycles_than_a_u16_holds() {
    let mut b = NetlistBuilder::new("toggle", Library::c65());
    let u = b.add_unit("u");
    let a = b.input_port("a", u);
    let (q, nq, y) = (b.net("q"), b.net("nq"), b.net("y"));
    b.cell(u, CellFunction::Inv, Drive::X1, &[q], &[nq])
        .unwrap();
    b.cell(u, CellFunction::Dff, Drive::X1, &[nq], &[q])
        .unwrap();
    b.cell(u, CellFunction::Xor2, Drive::X1, &[a, q], &[y])
        .unwrap();
    let nl = b.finish().unwrap();
    let mut sim = Simulator::new(&nl);
    let mut values = vec![false; nl.net_count()];
    settle(&nl, &mut values);
    let mut toggles = vec![0u64; nl.net_count()];
    let checkpoints = [1, 65_534, 65_535, 65_536, 131_070, 131_071, 140_000];
    for cycle in 1..=140_000u64 {
        let prev = values.clone();
        if cycle == 100_000 {
            sim.set_input(a, true);
            values[a.index()] = true;
        }
        sim.step();
        clock_counting(&nl, &prev, &mut values, &mut toggles);
        if checkpoints.contains(&cycle) {
            assert_same(&sim, &values, &Activity::new(cycle, toggles.clone()));
        }
    }
    assert_eq!(sim.activity().toggles(q), 140_000);
    sim.reset_activity();
    sim.step();
    assert_eq!(
        sim.activity(),
        Activity::new(1, {
            let mut one = vec![0; nl.net_count()];
            for net in [q, nq, y] {
                one[net.index()] = 1;
            }
            one
        })
    );
}
