//! A registered multiply-accumulate unit.

use netlist::NetlistBuilder;
use stdcell::CellFunction;

use crate::unit::GeneratedUnit;
use crate::util::Ctx;

/// Number of guard bits on the MAC accumulator beyond the product width.
pub(crate) const MAC_GUARD_BITS: usize = 4;

/// Generates a registered `width`×`width` MAC: an array-style multiplier
/// feeding a `2·width + 4`-bit accumulator register
/// (`acc ← acc + a·b` every cycle, wrap-around on overflow).
///
/// Ports: inputs `a[width]`, `b[width]`; outputs `acc[2·width+4]`.
/// The accumulator register doubles as the output register.
///
/// # Panics
///
/// Panics if `width < 2` or the library lacks a required function.
pub fn mac_unit(b: &mut NetlistBuilder, name: &str, width: usize) -> GeneratedUnit {
    assert!(width >= 2, "MAC width must be at least 2");
    let unit = b.add_unit(name);
    let a_in = b.input_bus(&format!("{name}/a"), width, unit);
    let b_in = b.input_bus(&format!("{name}/b"), width, unit);
    let acc_width = 2 * width + MAC_GUARD_BITS;

    let mut cx = Ctx::new(b, unit);
    let a_reg = cx.register_bus(&a_in);
    let b_reg = cx.register_bus(&b_in);

    // Accumulator feedback: declare the D nets up-front, create the
    // register, then drive the D nets from the adder through buffers.
    let acc_d: Vec<_> = (0..acc_width).map(|_| cx.b.auto_net()).collect();
    let acc_q: Vec<_> = acc_d.iter().map(|&d| cx.dff(d)).collect();

    // Product columns, with the accumulator bits merged in as extra
    // addends; a single carry-save reduction produces acc + a*b.
    let mut columns: Vec<Vec<netlist::NetId>> = vec![Vec::new(); acc_width];
    for (j, &bj) in b_reg.iter().enumerate() {
        for (i, &ai) in a_reg.iter().enumerate() {
            let pp = cx.g2(CellFunction::And2, ai, bj);
            columns[i + j].push(pp);
        }
    }
    for (k, &q) in acc_q.iter().enumerate() {
        columns[k].push(q);
    }
    let mut sum = cx.reduce_columns(columns);
    sum.truncate(acc_width);
    // Close the loop: next accumulator state.
    for (d, s) in acc_d.iter().zip(&sum) {
        cx.emit(CellFunction::Buf, &[*s], &[*d]);
    }

    for (i, &q) in acc_q.iter().enumerate() {
        b.output_port(format!("{name}/acc[{i}]"), unit, q);
    }
    GeneratedUnit {
        unit,
        inputs: [a_in, b_in].concat(),
        outputs: acc_q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistStats;
    use stdcell::Library;

    #[test]
    fn mac_shape() {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = mac_unit(&mut b, "mac8", 8);
        let nl = b.finish().expect("feedback through DFFs is legal");
        assert_eq!(u.input_width(), 16);
        assert_eq!(u.output_width(), 20);
        let stats = NetlistStats::of(&nl);
        // input regs (16) + accumulator (20).
        assert_eq!(stats.sequential_count, 36);
        // Feedback buffers close the accumulator loop.
        assert_eq!(stats.by_master.get("BFLL_X1"), Some(&20));
    }
}
