//! The three adder units: ripple-carry, carry-lookahead and carry-select.

use netlist::NetlistBuilder;

use crate::unit::GeneratedUnit;
use crate::util::Ctx;

/// Generates a registered `width`-bit ripple-carry adder unit.
///
/// Ports: inputs `a[width]`, `b[width]`; outputs `sum[width]`, `cout`.
/// The returned [`GeneratedUnit::inputs`] concatenates `a` then `b`.
///
/// # Panics
///
/// Panics if `width == 0` or the library lacks a required function.
pub fn ripple_carry_adder(b: &mut NetlistBuilder, name: &str, width: usize) -> GeneratedUnit {
    assert!(width > 0, "adder width must be positive");
    let unit = b.add_unit(name);
    let a_in = b.input_bus(&format!("{name}/a"), width, unit);
    let b_in = b.input_bus(&format!("{name}/b"), width, unit);
    let mut cx = Ctx::new(b, unit);
    let a_reg = cx.register_bus(&a_in);
    let b_reg = cx.register_bus(&b_in);
    let (sums, cout) = cx.ripple_add(&a_reg, &b_reg, None);
    let mut out_nets = cx.register_bus(&sums);
    out_nets.push(cx.dff(cout));
    for (i, &n) in out_nets.iter().enumerate() {
        b.output_port(format!("{name}/y[{i}]"), unit, n);
    }
    GeneratedUnit {
        unit,
        inputs: [a_in, b_in].concat(),
        outputs: out_nets,
    }
}

/// Generates a registered `width`-bit carry-lookahead adder (4-bit blocks
/// with expanded in-block lookahead, block-level carry ripple).
///
/// Ports as in [`ripple_carry_adder`].
///
/// # Panics
///
/// Panics if `width == 0` or the library lacks a required function.
pub fn carry_lookahead_adder(b: &mut NetlistBuilder, name: &str, width: usize) -> GeneratedUnit {
    assert!(width > 0, "adder width must be positive");
    let unit = b.add_unit(name);
    let a_in = b.input_bus(&format!("{name}/a"), width, unit);
    let b_in = b.input_bus(&format!("{name}/b"), width, unit);
    let mut cx = Ctx::new(b, unit);
    let a_reg = cx.register_bus(&a_in);
    let b_reg = cx.register_bus(&b_in);
    let (sums, carry) = cx.cla_add(&a_reg, &b_reg, None);
    let mut out_nets = cx.register_bus(&sums);
    out_nets.push(cx.dff(carry));
    for (i, &n) in out_nets.iter().enumerate() {
        b.output_port(format!("{name}/y[{i}]"), unit, n);
    }
    GeneratedUnit {
        unit,
        inputs: [a_in, b_in].concat(),
        outputs: out_nets,
    }
}

/// Generates a registered `width`-bit carry-select adder (4-bit blocks,
/// duplicated per-block ripple adders for carry-in 0/1, mux selection).
///
/// Ports as in [`ripple_carry_adder`].
///
/// # Panics
///
/// Panics if `width == 0` or the library lacks a required function.
pub fn carry_select_adder(b: &mut NetlistBuilder, name: &str, width: usize) -> GeneratedUnit {
    assert!(width > 0, "adder width must be positive");
    let unit = b.add_unit(name);
    let a_in = b.input_bus(&format!("{name}/a"), width, unit);
    let b_in = b.input_bus(&format!("{name}/b"), width, unit);
    let mut cx = Ctx::new(b, unit);
    let a_reg = cx.register_bus(&a_in);
    let b_reg = cx.register_bus(&b_in);

    let mut sums = Vec::with_capacity(width);
    let mut carry: Option<netlist::NetId> = None;
    let mut offset = 0;
    while offset < width {
        let len = (width - offset).min(4);
        let ab = &a_reg[offset..offset + len];
        let bb = &b_reg[offset..offset + len];
        match carry {
            None => {
                // First block: a single ripple chain, no speculation needed.
                let (s, co) = cx.ripple_add(ab, bb, None);
                sums.extend(s);
                carry = Some(co);
            }
            Some(c_in) => {
                let zero = cx.tie0();
                let one = cx.tie1();
                let (s0, c0) = cx.ripple_add(ab, bb, Some(zero));
                let (s1, c1) = cx.ripple_add(ab, bb, Some(one));
                for i in 0..len {
                    sums.push(cx.mux(s0[i], s1[i], c_in));
                }
                carry = Some(cx.mux(c0, c1, c_in));
            }
        }
        offset += len;
    }

    let mut out_nets = cx.register_bus(&sums);
    out_nets.push(cx.dff(carry.expect("non-empty adder")));
    for (i, &n) in out_nets.iter().enumerate() {
        b.output_port(format!("{name}/y[{i}]"), unit, n);
    }
    GeneratedUnit {
        unit,
        inputs: [a_in, b_in].concat(),
        outputs: out_nets,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::NetlistStats;
    use stdcell::Library;

    fn build<F: FnOnce(&mut NetlistBuilder) -> GeneratedUnit>(
        f: F,
    ) -> (netlist::Netlist, GeneratedUnit) {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = f(&mut b);
        (b.finish().expect("valid netlist"), u)
    }

    #[test]
    fn rca_has_expected_shape() {
        let (nl, u) = build(|b| ripple_carry_adder(b, "rca8", 8));
        assert_eq!(u.input_width(), 16);
        assert_eq!(u.output_width(), 9);
        let stats = NetlistStats::of(&nl);
        // 16 input FFs + 9 output FFs.
        assert_eq!(stats.sequential_count, 25);
        // 1 HA + 7 FA.
        assert_eq!(stats.by_master.get("FALL_X1"), Some(&7));
        assert_eq!(stats.by_master.get("HALL_X1"), Some(&1));
    }

    #[test]
    fn cla_is_larger_but_shallower_than_rca() {
        let (nl_r, _) = build(|b| ripple_carry_adder(b, "rca16", 16));
        let (nl_c, _) = build(|b| carry_lookahead_adder(b, "cla16", 16));
        let depth = |nl: &netlist::Netlist| {
            netlist::combinational_levels(nl)
                .into_iter()
                .flatten()
                .max()
                .unwrap()
        };
        assert!(nl_c.cell_count() > nl_r.cell_count(), "CLA trades area…");
        assert!(depth(&nl_c) < depth(&nl_r), "…for logic depth");
    }

    #[test]
    fn carry_select_uses_muxes() {
        let (nl, u) = build(|b| carry_select_adder(b, "csel16", 16));
        assert_eq!(u.output_width(), 17);
        let stats = NetlistStats::of(&nl);
        assert!(stats.by_master.get("MX2LL_X1").copied().unwrap_or(0) >= 12);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        let mut b = NetlistBuilder::new("t", Library::c65());
        ripple_carry_adder(&mut b, "bad", 0);
    }
}
