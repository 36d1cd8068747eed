//! The `c65cool` cell catalogue: a synthetic 65 nm-class low-power library.
//!
//! Values are representative of published 65 nm LP figures: input pin caps
//! of 1–3 fF, per-toggle internal energies of a fraction of a fJ to a few
//! fJ, leakage of a few nW per gate, and FO4-class delays of tens of ps.
//! They are internally consistent (X2 drives are wider, burn more energy,
//! present more input cap and drive with half the resistance), which is all
//! the relative-temperature study needs.

use crate::{CellDef, CellFunction, Drive};

#[expect(clippy::too_many_arguments, reason = "positional datasheet columns")]
fn combi(
    name: &str,
    f: CellFunction,
    d: Drive,
    w: u32,
    cap: f64,
    energy: f64,
    leak: f64,
    d0: f64,
    r: f64,
) -> CellDef {
    CellDef::new(name, f, d, w)
        .with_electrical(cap, energy, leak)
        .with_timing(d0, r)
}

/// Builds the full `c65cool` catalogue.
///
/// # Examples
///
/// ```
/// let cells = stdcell::c65_cells();
/// assert!(cells.iter().any(|c| c.name() == "ND2LL_X1"));
/// ```
pub fn c65_cells() -> Vec<CellDef> {
    use CellFunction::*;
    let mut cells = vec![
        // name, function, drive, width(sites), cap(fF), E(fJ), leak(nW), d0(ps), R(kΩ)
        combi("IVLL_X1", Inv, Drive::X1, 2, 1.2, 0.45, 1.8, 10.0, 6.0),
        combi("IVLL_X2", Inv, Drive::X2, 3, 2.3, 0.80, 3.4, 9.0, 3.0),
        combi("IVLL_X4", Inv, Drive::X4, 5, 4.5, 1.50, 6.5, 8.0, 1.5),
        combi("BFLL_X1", Buf, Drive::X1, 4, 1.3, 0.90, 2.6, 22.0, 5.5),
        combi("BFLL_X2", Buf, Drive::X2, 6, 1.4, 1.40, 4.8, 20.0, 2.8),
        combi("BFLL_X4", Buf, Drive::X4, 9, 1.6, 2.40, 8.9, 18.0, 1.4),
        combi("ND2LL_X1", Nand2, Drive::X1, 4, 1.4, 0.75, 2.8, 14.0, 7.0),
        combi("ND2LL_X2", Nand2, Drive::X2, 6, 2.7, 1.30, 5.2, 13.0, 3.5),
        combi("ND3LL_X1", Nand3, Drive::X1, 6, 1.6, 1.05, 4.0, 18.0, 8.0),
        combi("ND3LL_X2", Nand3, Drive::X2, 9, 3.1, 1.80, 7.4, 17.0, 4.0),
        combi("NR2LL_X1", Nor2, Drive::X1, 4, 1.5, 0.80, 2.9, 16.0, 8.0),
        combi("NR2LL_X2", Nor2, Drive::X2, 6, 2.9, 1.40, 5.4, 15.0, 4.0),
        combi("NR3LL_X1", Nor3, Drive::X1, 6, 1.7, 1.15, 4.2, 21.0, 9.5),
        combi("AD2LL_X1", And2, Drive::X1, 5, 1.3, 1.05, 3.4, 26.0, 6.0),
        combi("AD2LL_X2", And2, Drive::X2, 7, 2.5, 1.70, 6.1, 24.0, 3.0),
        combi("OR2LL_X1", Or2, Drive::X1, 5, 1.4, 1.10, 3.5, 28.0, 6.0),
        combi("OR2LL_X2", Or2, Drive::X2, 7, 2.7, 1.80, 6.3, 26.0, 3.0),
        combi("EO2LL_X1", Xor2, Drive::X1, 10, 2.3, 2.10, 5.8, 36.0, 8.5),
        combi("EO2LL_X2", Xor2, Drive::X2, 14, 4.4, 3.40, 10.6, 33.0, 4.2),
        combi("EN2LL_X1", Xnor2, Drive::X1, 10, 2.3, 2.10, 5.8, 36.0, 8.5),
        combi("AOI21LL_X1", Aoi21, Drive::X1, 6, 1.6, 1.00, 3.8, 19.0, 8.0),
        combi("OAI21LL_X1", Oai21, Drive::X1, 6, 1.6, 1.00, 3.8, 19.0, 8.0),
        combi("MX2LL_X1", Mux2, Drive::X1, 9, 2.0, 1.80, 5.2, 30.0, 7.5),
        combi("MX2LL_X2", Mux2, Drive::X2, 13, 3.8, 2.90, 9.6, 28.0, 3.7),
        combi(
            "HALL_X1",
            HalfAdder,
            Drive::X1,
            13,
            2.4,
            2.80,
            7.6,
            38.0,
            8.0,
        ),
        combi(
            "FALL_X1",
            FullAdder,
            Drive::X1,
            24,
            2.6,
            4.60,
            12.5,
            52.0,
            8.5,
        ),
        combi(
            "FALL_X2",
            FullAdder,
            Drive::X2,
            33,
            4.9,
            7.20,
            22.8,
            48.0,
            4.2,
        ),
        combi("TIE0LL", TieLo, Drive::X1, 3, 0.0, 0.0, 0.6, 0.0, 50.0),
        combi("TIE1LL", TieHi, Drive::X1, 3, 0.0, 0.0, 0.6, 0.0, 50.0),
    ];
    // Flip-flops burn internal clock energy every cycle even when the data
    // input is quiet — this is what makes gated-off units measurably cooler
    // but not stone cold, as in the paper's workload-controlled benchmark.
    cells.push(
        CellDef::new("DFLL_X1", Dff, Drive::X1, 18)
            .with_electrical(1.9, 3.6, 9.8)
            .with_timing(85.0, 7.0)
            .with_clock_energy(1.1),
    );
    cells.push(
        CellDef::new("DFLL_X2", Dff, Drive::X2, 24)
            .with_electrical(3.6, 5.4, 17.5)
            .with_timing(78.0, 3.5)
            .with_clock_energy(1.8),
    );
    // Dummy / filler cells: zero power, power-rail continuity only.
    for w in [1u32, 2, 4, 8, 16, 32, 64] {
        cells.push(CellDef::new(format!("FILLERLL_{w}"), Filler, Drive::X1, w));
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_size_is_stable() {
        // 29 combinational/tie + 2 DFF + 7 fillers.
        assert_eq!(c65_cells().len(), 38);
    }

    #[test]
    fn all_logic_cells_have_positive_power_data() {
        for c in c65_cells() {
            if c.function().is_physical_only() {
                continue;
            }
            assert!(c.leakage_nw() > 0.0, "{}: zero leakage", c.name());
            if c.function().input_count() > 0 {
                assert!(c.input_cap_ff() > 0.0, "{}: zero input cap", c.name());
                assert!(
                    c.switching_energy_fj() > 0.0,
                    "{}: zero switching energy",
                    c.name()
                );
                assert!(c.intrinsic_delay_ps() > 0.0, "{}: zero delay", c.name());
            }
            assert!(c.drive_res_kohm() > 0.0, "{}: zero drive", c.name());
        }
    }

    #[test]
    fn filler_widths_are_powers_of_two_up_to_64() {
        let widths: Vec<u32> = c65_cells()
            .iter()
            .filter(|c| c.function() == CellFunction::Filler)
            .map(|c| c.width_sites())
            .collect();
        assert_eq!(widths, vec![1, 2, 4, 8, 16, 32, 64]);
    }
}
