//! Property-based simulation invariants on the small benchmark.

use arithgen::{build_benchmark, BenchmarkConfig, UnitRole};
use logicsim::{SimProgram, Simulator, Workload};
use proptest::prelude::*;

fn netlist() -> netlist::Netlist {
    build_benchmark(&BenchmarkConfig::small()).expect("benchmark")
}

/// One compiled program drives several simulators in turn, each through
/// a warm-up, a reset and a measured run as a flow does; every one
/// matches a freshly compiled simulator bit for bit, so running a
/// program never changes it.
#[test]
fn simulators_sharing_one_program_match_fresh_ones() {
    let nl = netlist();
    let program = SimProgram::compile(&nl);
    let unit = |role: UnitRole| role.unit_id();
    let workloads = [
        Workload::uniform(&nl, 0.3),
        Workload::with_active_units(&nl, &[unit(UnitRole::ArrayMult)], 0.5),
        Workload::with_active_units(
            &nl,
            &[
                unit(UnitRole::RippleAdder),
                unit(UnitRole::Alu),
                unit(UnitRole::Mac),
            ],
            0.7,
        ),
        Workload::with_active_units(&nl, &[], 0.5),
    ];
    for (i, w) in workloads.iter().enumerate() {
        let seed = 11 + i as u64;
        let run = |mut sim: Simulator<'_>| {
            sim.run_workload(w, 16, seed);
            sim.reset_activity();
            sim.run_workload(w, 96, seed + 1);
            let values: Vec<bool> = nl.nets().map(|(id, _)| sim.net_value(id)).collect();
            (sim.activity(), sim.evaluated_cells(), values)
        };
        let shared = run(Simulator::with_program(&nl, &program));
        assert!(shared == run(Simulator::new(&nl)), "workload {i}");
    }
    assert_eq!(program.segment_count(), nl.unit_count());
}

#[test]
#[should_panic(expected = "compiled from another netlist")]
fn a_program_runs_only_its_own_netlist() {
    let small = netlist();
    let mut b = netlist::NetlistBuilder::new("one", stdcell::Library::c65());
    let u = b.add_unit("u");
    let a = b.input_port("a", u);
    let y = b.net("y");
    b.cell(
        u,
        stdcell::CellFunction::Inv,
        stdcell::Drive::X1,
        &[a],
        &[y],
    )
    .unwrap();
    let other = b.finish().unwrap();
    let program = SimProgram::compile(&other);
    let _ = Simulator::with_program(&small, &program);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn same_seed_same_activity(seed in any::<u64>(), prob in 0.05f64..0.95) {
        let nl = netlist();
        let w = Workload::uniform(&nl, prob);
        let run = |nl: &netlist::Netlist| {
            let mut sim = Simulator::new(nl);
            sim.run_workload(&w, 64, seed);
            sim.activity()
        };
        prop_assert_eq!(run(&nl), run(&nl));
    }

    #[test]
    fn switching_activity_is_bounded(seed in any::<u64>(), prob in 0.05f64..0.95) {
        let nl = netlist();
        let w = Workload::uniform(&nl, prob);
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&w, 64, seed);
        let act = sim.activity();
        for (id, _) in nl.nets() {
            let a = act.switching_activity(id);
            prop_assert!((0.0..=1.0).contains(&a), "net {id}: activity {a}");
        }
    }

    #[test]
    fn idle_units_never_toggle(
        seed in any::<u64>(),
        active_idx in 0usize..9,
    ) {
        let nl = netlist();
        let active = UnitRole::ALL[active_idx].unit_id();
        let w = Workload::with_active_units(&nl, &[active], 0.5);
        let mut sim = Simulator::new(&nl);
        sim.run_workload(&w, 8, seed);     // settle
        sim.reset_activity();
        sim.run_workload(&w, 48, seed.wrapping_add(1));
        let act = sim.activity();
        for (_, cell) in nl.cells() {
            if cell.unit() == active {
                continue;
            }
            for &pin in cell.output_pins() {
                prop_assert_eq!(
                    act.toggles(nl.pin(pin).net()),
                    0,
                    "idle unit {} toggled",
                    cell.unit()
                );
            }
        }
    }

    #[test]
    fn higher_toggle_probability_means_more_activity(seed in any::<u64>()) {
        let nl = netlist();
        let run = |prob: f64| {
            let w = Workload::uniform(&nl, prob);
            let mut sim = Simulator::new(&nl);
            sim.run_workload(&w, 128, seed);
            sim.activity().mean_activity()
        };
        let low = run(0.05);
        let high = run(0.8);
        prop_assert!(high > low, "high {high} vs low {low}");
    }
}
