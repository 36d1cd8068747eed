//! The nine-unit synthetic benchmark of the paper.

use netlist::{Netlist, NetlistBuilder, NetlistError, UnitId};
use stdcell::Library;

use crate::{
    alu_unit, array_divider, array_multiplier, booth_multiplier, carry_lookahead_adder,
    carry_select_adder, mac_unit, ripple_carry_adder, wallace_multiplier, GeneratedUnit,
};

/// The nine arithmetic units of the benchmark, in fixed instantiation
/// order — `UnitRole::ALL[i]` always becomes `UnitId(i)`.
///
/// The order is chosen together with the paper widths so the placer's
/// area-balanced region assignment puts the four *small* units (ripple
/// adder, lookahead adder, ALU, MAC) at the four corners of the die:
/// the workload that activates them then produces the paper's
/// "four scattered small hotspots" (test set 1), while the Booth
/// multiplier — the largest unit — sits mid-die for test set 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnitRole {
    /// Ripple-carry adder (`rca`).
    RippleAdder,
    /// Carry-lookahead adder (`cla`).
    LookaheadAdder,
    /// Carry-select adder (`csel`).
    SelectAdder,
    /// Braun-style array multiplier (`mul_array`).
    ArrayMult,
    /// Wallace-tree multiplier (`mul_wallace`).
    WallaceMult,
    /// Radix-4 Booth multiplier (`mul_booth`).
    BoothMult,
    /// Multiply-accumulate unit (`mac`).
    Mac,
    /// Four-function ALU (`alu`).
    Alu,
    /// Restoring array divider (`div`).
    Divider,
}

impl UnitRole {
    /// All roles in instantiation order.
    pub const ALL: [UnitRole; 9] = [
        UnitRole::RippleAdder,
        UnitRole::LookaheadAdder,
        UnitRole::SelectAdder,
        UnitRole::ArrayMult,
        UnitRole::WallaceMult,
        UnitRole::BoothMult,
        UnitRole::Mac,
        UnitRole::Divider,
        UnitRole::Alu,
    ];

    /// The unit instance name used in the benchmark netlist.
    pub fn unit_name(self) -> &'static str {
        match self {
            UnitRole::RippleAdder => "rca",
            UnitRole::LookaheadAdder => "cla",
            UnitRole::SelectAdder => "csel",
            UnitRole::ArrayMult => "mul_array",
            UnitRole::WallaceMult => "mul_wallace",
            UnitRole::BoothMult => "mul_booth",
            UnitRole::Mac => "mac",
            UnitRole::Alu => "alu",
            UnitRole::Divider => "div",
        }
    }

    /// The [`UnitId`] this role receives in a netlist built by
    /// [`build_benchmark`].
    pub fn unit_id(self) -> UnitId {
        // The role's position in `ALL`.
        let idx = match self {
            UnitRole::RippleAdder => 0,
            UnitRole::LookaheadAdder => 1,
            UnitRole::SelectAdder => 2,
            UnitRole::ArrayMult => 3,
            UnitRole::WallaceMult => 4,
            UnitRole::BoothMult => 5,
            UnitRole::Mac => 6,
            UnitRole::Divider => 7,
            UnitRole::Alu => 8,
        };
        UnitId::new(idx)
    }
}

impl std::fmt::Display for UnitRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.unit_name())
    }
}

/// Bit widths of the nine benchmark units.
///
/// [`BenchmarkConfig::paper`] is tuned so the full design lands at the
/// paper's "about 12 000 standard cells"; [`BenchmarkConfig::small`] is a
/// fast variant for tests.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BenchmarkConfig {
    /// Design name.
    pub name: String,
    /// Ripple-carry adder width.
    pub rca_width: usize,
    /// Carry-lookahead adder width.
    pub cla_width: usize,
    /// Carry-select adder width.
    pub csel_width: usize,
    /// Array multiplier width.
    pub array_mult_width: usize,
    /// Wallace multiplier width.
    pub wallace_mult_width: usize,
    /// Booth multiplier width.
    pub booth_mult_width: usize,
    /// MAC width.
    pub mac_width: usize,
    /// ALU width.
    pub alu_width: usize,
    /// Divider width.
    pub divider_width: usize,
}

impl BenchmarkConfig {
    /// The paper-scale configuration (~12 000 cells).
    pub fn paper() -> Self {
        BenchmarkConfig {
            name: "bench12k".to_string(),
            rca_width: 96,
            cla_width: 64,
            csel_width: 96,
            array_mult_width: 28,
            wallace_mult_width: 20,
            booth_mult_width: 24,
            mac_width: 22,
            alu_width: 96,
            divider_width: 28,
        }
    }

    /// A reduced configuration for fast tests (~1 500 cells).
    pub fn small() -> Self {
        BenchmarkConfig {
            name: "bench_small".to_string(),
            rca_width: 16,
            cla_width: 16,
            csel_width: 16,
            array_mult_width: 8,
            wallace_mult_width: 8,
            booth_mult_width: 8,
            mac_width: 8,
            alu_width: 16,
            divider_width: 8,
        }
    }

    /// The width configured for `role`.
    pub fn width_of(&self, role: UnitRole) -> usize {
        match role {
            UnitRole::RippleAdder => self.rca_width,
            UnitRole::LookaheadAdder => self.cla_width,
            UnitRole::SelectAdder => self.csel_width,
            UnitRole::ArrayMult => self.array_mult_width,
            UnitRole::WallaceMult => self.wallace_mult_width,
            UnitRole::BoothMult => self.booth_mult_width,
            UnitRole::Mac => self.mac_width,
            UnitRole::Alu => self.alu_width,
            UnitRole::Divider => self.divider_width,
        }
    }
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        BenchmarkConfig::paper()
    }
}

fn generate(b: &mut NetlistBuilder, role: UnitRole, width: usize) -> GeneratedUnit {
    let name = role.unit_name();
    match role {
        UnitRole::RippleAdder => ripple_carry_adder(b, name, width),
        UnitRole::LookaheadAdder => carry_lookahead_adder(b, name, width),
        UnitRole::SelectAdder => carry_select_adder(b, name, width),
        UnitRole::ArrayMult => array_multiplier(b, name, width),
        UnitRole::WallaceMult => wallace_multiplier(b, name, width),
        UnitRole::BoothMult => booth_multiplier(b, name, width),
        UnitRole::Mac => mac_unit(b, name, width),
        UnitRole::Alu => alu_unit(b, name, width),
        UnitRole::Divider => array_divider(b, name, width),
    }
}

/// Builds the nine-unit benchmark netlist on the `c65` library.
///
/// Units are instantiated in [`UnitRole::ALL`] order, so
/// [`UnitRole::unit_id`] is valid on the result.
///
/// # Errors
///
/// Propagates [`NetlistError`] from validation; a correct generator never
/// triggers this in practice.
pub fn build_benchmark(config: &BenchmarkConfig) -> Result<Netlist, NetlistError> {
    let mut b = NetlistBuilder::new(config.name.clone(), Library::c65());
    for role in UnitRole::ALL {
        generate(&mut b, role, config.width_of(role));
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistStats;

    #[test]
    fn paper_benchmark_is_about_12000_cells() {
        let nl = build_benchmark(&BenchmarkConfig::paper()).unwrap();
        let n = nl.cell_count();
        assert!(
            (10_500..=13_500).contains(&n),
            "paper benchmark should be ~12k cells, got {n}"
        );
        assert_eq!(nl.unit_count(), 9);
    }

    #[test]
    fn roles_map_to_unit_ids_in_order() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        for (i, role) in UnitRole::ALL.into_iter().enumerate() {
            let id = nl.find_unit(role.unit_name()).expect("unit exists");
            assert_eq!(id, role.unit_id());
            assert_eq!(id.index(), i);
        }
    }

    #[test]
    fn every_unit_has_cells_and_ports() {
        let nl = build_benchmark(&BenchmarkConfig::small()).unwrap();
        let stats = NetlistStats::of(&nl);
        for u in &stats.units {
            assert!(u.cell_count > 0, "{} is empty", u.name);
            assert!(u.sequential_count > 0, "{} has no registers", u.name);
        }
        for role in UnitRole::ALL {
            assert!(
                !nl.unit_input_ports(role.unit_id()).is_empty(),
                "{role} has no input ports"
            );
        }
    }
}
