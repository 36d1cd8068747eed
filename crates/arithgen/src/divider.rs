//! A registered restoring array divider.

use netlist::NetlistBuilder;
use stdcell::CellFunction;

use crate::unit::GeneratedUnit;
use crate::util::Ctx;

/// Generates a registered `width`-bit restoring array divider computing
/// `a / d` and `a % d` for unsigned operands.
///
/// Ports: inputs `a[width]` (dividend), `d[width]` (divisor); outputs
/// `q[width]` (quotient) then `r[width]` (remainder), concatenated in
/// [`GeneratedUnit::outputs`].
///
/// Division by zero follows the hardware convention of this array: every
/// trial subtraction succeeds, so `q = all ones`.
///
/// # Panics
///
/// Panics if `width == 0` or the library lacks a required function.
pub fn array_divider(b: &mut NetlistBuilder, name: &str, width: usize) -> GeneratedUnit {
    assert!(width > 0, "divider width must be positive");
    let unit = b.add_unit(name);
    let a_in = b.input_bus(&format!("{name}/a"), width, unit);
    let d_in = b.input_bus(&format!("{name}/d"), width, unit);
    let n = width;

    let mut cx = Ctx::new(b, unit);
    let a_reg = cx.register_bus(&a_in);
    let d_reg = cx.register_bus(&d_in);

    // Shared inverted divisor for the two's-complement trial subtraction,
    // zero-extended to n+1 bits (~0 = 1 at the top).
    let mut d_inv: Vec<_> = d_reg.iter().map(|&d| cx.g1(CellFunction::Inv, d)).collect();
    d_inv.push(cx.tie1());

    // Remainder register file through the array, n+1 bits, starts at 0.
    let zero = cx.tie0();
    let mut r: Vec<_> = vec![zero; n + 1];
    let mut q_bits = vec![zero; n];

    for step in 0..n {
        let bit = a_reg[n - 1 - step];
        // Shift left by one, inserting the next dividend bit. The restoring
        // invariant keeps r < divisor <= 2^n, so the dropped top bit is 0.
        let mut r_shift = Vec::with_capacity(n + 1);
        r_shift.push(bit);
        r_shift.extend_from_slice(&r[..n]);
        // Trial subtraction r_shift - d  ==  r_shift + ~d + 1.
        let one = cx.tie1();
        let mut carry = one;
        let mut diff = Vec::with_capacity(n + 1);
        for j in 0..=n {
            let (s, co) = cx.fa(r_shift[j], d_inv[j], carry);
            diff.push(s);
            carry = co;
        }
        // carry == 1  ⇔  r_shift >= d: accept the subtraction.
        let q = carry;
        q_bits[n - 1 - step] = q;
        r = (0..=n).map(|j| cx.mux(r_shift[j], diff[j], q)).collect();
    }

    let mut out_nets = cx.register_bus(&q_bits);
    out_nets.extend(cx.register_bus(&r[..n]));
    for (i, &nnet) in out_nets.iter().enumerate() {
        let label = if i < n {
            format!("{name}/q[{i}]")
        } else {
            format!("{name}/r[{}]", i - n)
        };
        b.output_port(label, unit, nnet);
    }
    GeneratedUnit {
        unit,
        inputs: [a_in, d_in].concat(),
        outputs: out_nets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistStats;
    use stdcell::Library;

    #[test]
    fn divider_shape() {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = array_divider(&mut b, "div8", 8);
        let nl = b.finish().unwrap();
        assert_eq!(u.input_width(), 16);
        assert_eq!(u.output_width(), 16);
        let stats = NetlistStats::of(&nl);
        // n rows of n+1 trial-subtraction FAs.
        assert_eq!(stats.by_master.get("FALL_X1"), Some(&72));
        // n rows of n+1 restore muxes.
        assert_eq!(stats.by_master.get("MX2LL_X1"), Some(&72));
        // 16 input + 16 output registers.
        assert_eq!(stats.sequential_count, 32);
    }

    #[test]
    fn divider_depth_grows_linearly() {
        let d = |w: usize| {
            let mut b = NetlistBuilder::new("t", Library::c65());
            array_divider(&mut b, "div", w);
            let nl = b.finish().unwrap();
            netlist::combinational_levels(&nl)
                .into_iter()
                .flatten()
                .max()
                .unwrap()
        };
        assert!(
            d(8) > 2 * d(4) - 4,
            "array divider depth is ~quadratic in rows"
        );
    }
}
