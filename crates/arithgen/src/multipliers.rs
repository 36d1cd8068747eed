//! The three multiplier units: array, Wallace tree and radix-4 Booth.

use netlist::{NetId, NetlistBuilder};
use stdcell::CellFunction;

use crate::unit::GeneratedUnit;
use crate::util::Ctx;

/// Builds the unsigned AND-gate partial-product matrix: `columns[k]` holds
/// `a_i & b_j` for all `i + j == k`.
fn partial_products(cx: &mut Ctx<'_>, a: &[NetId], b: &[NetId]) -> Vec<Vec<NetId>> {
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); a.len() + b.len()];
    for (j, &bj) in b.iter().enumerate() {
        for (i, &ai) in a.iter().enumerate() {
            let pp = cx.g2(CellFunction::And2, ai, bj);
            columns[i + j].push(pp);
        }
    }
    columns
}

fn finish_multiplier(
    b: &mut NetlistBuilder,
    name: &str,
    unit: netlist::UnitId,
    a_in: Vec<NetId>,
    b_in: Vec<NetId>,
    product: Vec<NetId>,
) -> GeneratedUnit {
    let mut cx = Ctx::new(b, unit);
    let out_nets = cx.register_bus(&product);
    for (i, &n) in out_nets.iter().enumerate() {
        b.output_port(format!("{name}/p[{i}]"), unit, n);
    }
    GeneratedUnit {
        unit,
        inputs: [a_in, b_in].concat(),
        outputs: out_nets,
    }
}

/// Generates a registered `width`×`width` unsigned array multiplier:
/// partial-product rows accumulated one at a time with ripple adders —
/// the classic linear-depth carry-propagate array structure.
///
/// Ports: inputs `a[width]`, `b[width]`; outputs `p[2·width]`.
///
/// # Panics
///
/// Panics if `width < 2` or the library lacks a required function.
pub fn array_multiplier(b: &mut NetlistBuilder, name: &str, width: usize) -> GeneratedUnit {
    assert!(width >= 2, "multiplier width must be at least 2");
    let unit = b.add_unit(name);
    let a_in = b.input_bus(&format!("{name}/a"), width, unit);
    let b_in = b.input_bus(&format!("{name}/b"), width, unit);
    let mut cx = Ctx::new(b, unit);
    let a_reg = cx.register_bus(&a_in);
    let b_reg = cx.register_bus(&b_in);

    // Row-by-row accumulation: acc += (a & b_i) << i, one adder per row.
    let row = |cx: &mut Ctx<'_>, bi: netlist::NetId| -> Vec<netlist::NetId> {
        a_reg
            .iter()
            .map(|&aj| cx.g2(CellFunction::And2, aj, bi))
            .collect()
    };
    let mut acc = row(&mut cx, b_reg[0]);
    for (i, &bi) in b_reg.iter().enumerate().take(width).skip(1) {
        let pp = row(&mut cx, bi);
        // Bits below weight i are already final; add the overlap.
        let hi = acc.split_off(i);
        let sum = cx.add_vec(&hi, &pp);
        acc.extend(sum);
    }
    let mut product = acc;
    product.truncate(2 * width);
    finish_multiplier(b, name, unit, a_in, b_in, product)
}

/// Generates a registered `width`×`width` unsigned Wallace-tree multiplier:
/// the same partial products as [`array_multiplier`] but reduced with
/// balanced 3:2 compressor levels (logarithmic depth).
///
/// Ports as in [`array_multiplier`].
///
/// # Panics
///
/// Panics if `width < 2` or the library lacks a required function.
pub fn wallace_multiplier(b: &mut NetlistBuilder, name: &str, width: usize) -> GeneratedUnit {
    assert!(width >= 2, "multiplier width must be at least 2");
    let unit = b.add_unit(name);
    let a_in = b.input_bus(&format!("{name}/a"), width, unit);
    let b_in = b.input_bus(&format!("{name}/b"), width, unit);
    let mut cx = Ctx::new(b, unit);
    let a_reg = cx.register_bus(&a_in);
    let b_reg = cx.register_bus(&b_in);
    let columns = partial_products(&mut cx, &a_reg, &b_reg);
    let mut product = cx.reduce_columns(columns);
    product.truncate(2 * width);
    finish_multiplier(b, name, unit, a_in, b_in, product)
}

/// Generates a registered `width`×`width` unsigned radix-4 Booth
/// multiplier: ⌈width/2⌉+1 recoded digits selecting {0, ±a, ±2a}, partial
/// products merged with a Wallace reduction.
///
/// Ports as in [`array_multiplier`].
///
/// # Panics
///
/// Panics if `width < 2` or the library lacks a required function.
pub fn booth_multiplier(b: &mut NetlistBuilder, name: &str, width: usize) -> GeneratedUnit {
    assert!(width >= 2, "multiplier width must be at least 2");
    let unit = b.add_unit(name);
    let a_in = b.input_bus(&format!("{name}/a"), width, unit);
    let b_in = b.input_bus(&format!("{name}/b"), width, unit);
    let mut cx = Ctx::new(b, unit);
    let a_reg = cx.register_bus(&a_in);
    let b_reg = cx.register_bus(&b_in);

    let n = width;
    // Working width: product of a signed digit needs two guard bits beyond 2n.
    let w = 2 * n + 2;
    let ndigits = n / 2 + 1;
    let mut columns: Vec<Vec<NetId>> = vec![Vec::new(); w];
    let zero = cx.tie0();
    // b bit with zero padding outside [0, n).
    let bbit = |i: isize| -> NetId {
        if i < 0 || i as usize >= n {
            zero
        } else {
            b_reg[i as usize]
        }
    };
    for d in 0..ndigits {
        let b2 = bbit(2 * d as isize + 1);
        let b1 = bbit(2 * d as isize);
        let b0 = bbit(2 * d as isize - 1);
        // Digit decode: one = |digit|==1, two = |digit|==2, neg = digit<0.
        let one = cx.g2(CellFunction::Xor2, b1, b0);
        let nor_b1b0 = cx.g2(CellFunction::Nor2, b1, b0);
        let and_b1b0 = cx.g2(CellFunction::And2, b1, b0);
        let t1 = cx.g2(CellFunction::And2, b2, nor_b1b0);
        let inv_b2 = cx.g1(CellFunction::Inv, b2);
        let t2 = cx.g2(CellFunction::And2, inv_b2, and_b1b0);
        let two = cx.g2(CellFunction::Or2, t1, t2);
        let inv_and = cx.g1(CellFunction::Inv, and_b1b0);
        let neg = cx.g2(CellFunction::And2, b2, inv_and);

        // Partial product bits occupy columns 2d .. w-1 (inverted below 2d
        // cancels against the +neg correction, so those columns are empty).
        for (col, column) in columns.iter_mut().enumerate().take(w).skip(2 * d) {
            let k = col - 2 * d;
            let x1 = if k < n { Some(a_reg[k]) } else { None };
            let x2 = if (1..=n).contains(&k) {
                Some(a_reg[k - 1])
            } else {
                None
            };
            let bit = match (x1, x2) {
                (Some(x1), Some(x2)) => {
                    let u = cx.g2(CellFunction::And2, one, x1);
                    let v = cx.g2(CellFunction::And2, two, x2);
                    let t = cx.g2(CellFunction::Or2, u, v);
                    cx.g2(CellFunction::Xor2, t, neg)
                }
                (Some(x1), None) => {
                    let u = cx.g2(CellFunction::And2, one, x1);
                    cx.g2(CellFunction::Xor2, u, neg)
                }
                (None, Some(x2)) => {
                    let v = cx.g2(CellFunction::And2, two, x2);
                    cx.g2(CellFunction::Xor2, v, neg)
                }
                // Above both operands: pure sign extension of the negated
                // value — the `neg` net itself, no gate needed.
                (None, None) => neg,
            };
            column.push(bit);
        }
        // Two's complement correction: +neg at the digit's base column.
        columns[2 * d].push(neg);
    }

    let mut product = cx.reduce_columns(columns);
    product.truncate(2 * n);
    finish_multiplier(b, name, unit, a_in, b_in, product)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{combinational_levels, Netlist, NetlistStats};
    use stdcell::Library;

    fn build<F: FnOnce(&mut NetlistBuilder) -> GeneratedUnit>(f: F) -> (Netlist, GeneratedUnit) {
        let mut b = NetlistBuilder::new("t", Library::c65());
        let u = f(&mut b);
        (b.finish().expect("valid netlist"), u)
    }

    fn depth(nl: &Netlist) -> u32 {
        combinational_levels(nl)
            .into_iter()
            .flatten()
            .max()
            .unwrap()
    }

    #[test]
    fn array_multiplier_shape() {
        let (nl, u) = build(|b| array_multiplier(b, "m8", 8));
        assert_eq!(u.input_width(), 16);
        assert_eq!(u.output_width(), 16);
        let stats = NetlistStats::of(&nl);
        // 64 partial-product AND gates.
        assert!(stats.by_master.get("AD2LL_X1").copied().unwrap_or(0) >= 64);
        assert_eq!(stats.sequential_count, 32);
    }

    #[test]
    fn wallace_is_shallower_than_array() {
        let (nl_a, _) = build(|b| array_multiplier(b, "a12", 12));
        let (nl_w, _) = build(|b| wallace_multiplier(b, "w12", 12));
        assert!(depth(&nl_w) < depth(&nl_a));
    }

    #[test]
    fn booth_has_fewer_partial_product_rows() {
        // Booth's recoding roughly halves the number of addend rows; with
        // the mux-like selection gates the FA count in the reduction
        // should drop relative to the plain Wallace tree.
        let (nl_w, _) = build(|b| wallace_multiplier(b, "w16", 16));
        let (nl_b, _) = build(|b| booth_multiplier(b, "b16", 16));
        let fas = |nl: &Netlist| {
            NetlistStats::of(nl)
                .by_master
                .get("FALL_X1")
                .copied()
                .unwrap_or(0)
        };
        assert!(fas(&nl_b) < fas(&nl_w));
    }

    #[test]
    fn all_multipliers_validate_at_odd_widths() {
        for w in [3, 5, 7] {
            build(|b| array_multiplier(b, "a", w));
            build(|b| wallace_multiplier(b, "w", w));
            build(|b| booth_multiplier(b, "b", w));
        }
    }
}
