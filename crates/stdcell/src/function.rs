use serde::{Deserialize, Serialize};

/// The logic function implemented by a standard cell.
///
/// Pin conventions (used consistently by the netlist builder, the logic
/// simulator and the timing analyzer):
///
/// * combinational inputs are ordered `A, B, C, …`; [`CellFunction::Mux2`]
///   uses `A, B, S` (select last);
/// * single-output cells drive `Y`;
/// * [`CellFunction::HalfAdder`] / [`CellFunction::FullAdder`] drive
///   `S` (output 0) and `CO` (output 1);
/// * [`CellFunction::Dff`] has input `D` and output `Q` (the clock is
///   implicit: the whole design is a single synchronous domain at 1 GHz);
/// * [`CellFunction::Filler`] has no pins at all — it exists purely to keep
///   power rails continuous through whitespace, exactly the "dummy cells" of
///   the paper.
///
/// # Examples
///
/// ```
/// use stdcell::CellFunction;
///
/// let mut out = [false; 2];
/// CellFunction::FullAdder.eval(&[true, true, false], &mut out);
/// assert_eq!(out, [false, true]); // S = 0, CO = 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellFunction {
    /// Inverter: `Y = !A`.
    Inv,
    /// Buffer: `Y = A`.
    Buf,
    /// 2-input NAND: `Y = !(A & B)`.
    Nand2,
    /// 3-input NAND.
    Nand3,
    /// 2-input NOR: `Y = !(A | B)`.
    Nor2,
    /// 3-input NOR.
    Nor3,
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2-input XNOR.
    Xnor2,
    /// AND-OR-invert: `Y = !((A & B) | C)`.
    Aoi21,
    /// OR-AND-invert: `Y = !((A | B) & C)`.
    Oai21,
    /// 2:1 multiplexer: `Y = S ? B : A` (inputs `A, B, S`).
    Mux2,
    /// Half adder: `S = A ^ B`, `CO = A & B`.
    HalfAdder,
    /// Full adder: `S = A ^ B ^ C`, `CO = majority(A, B, C)`.
    FullAdder,
    /// Rising-edge D flip-flop (`D` → `Q`), implicit single clock.
    Dff,
    /// Constant logic 0 generator.
    TieLo,
    /// Constant logic 1 generator.
    TieHi,
    /// Zero-power dummy cell for whitespace (no pins).
    Filler,
}

impl CellFunction {
    /// All functions, in a stable order (useful for exhaustive library
    /// construction and tests).
    pub const ALL: [CellFunction; 19] = [
        CellFunction::Inv,
        CellFunction::Buf,
        CellFunction::Nand2,
        CellFunction::Nand3,
        CellFunction::Nor2,
        CellFunction::Nor3,
        CellFunction::And2,
        CellFunction::Or2,
        CellFunction::Xor2,
        CellFunction::Xnor2,
        CellFunction::Aoi21,
        CellFunction::Oai21,
        CellFunction::Mux2,
        CellFunction::HalfAdder,
        CellFunction::FullAdder,
        CellFunction::Dff,
        CellFunction::TieLo,
        CellFunction::TieHi,
        CellFunction::Filler,
    ];

    /// Number of logical input pins.
    pub fn input_count(self) -> usize {
        match self {
            CellFunction::Inv | CellFunction::Buf | CellFunction::Dff => 1,
            CellFunction::Nand2
            | CellFunction::Nor2
            | CellFunction::And2
            | CellFunction::Or2
            | CellFunction::Xor2
            | CellFunction::Xnor2
            | CellFunction::HalfAdder => 2,
            CellFunction::Nand3
            | CellFunction::Nor3
            | CellFunction::Aoi21
            | CellFunction::Oai21
            | CellFunction::Mux2
            | CellFunction::FullAdder => 3,
            CellFunction::TieLo | CellFunction::TieHi | CellFunction::Filler => 0,
        }
    }

    /// Number of output pins.
    pub fn output_count(self) -> usize {
        match self {
            CellFunction::Filler => 0,
            CellFunction::HalfAdder | CellFunction::FullAdder => 2,
            _ => 1,
        }
    }

    /// Whether the cell is a state element (evaluated on clock edges only).
    pub fn is_sequential(self) -> bool {
        matches!(self, CellFunction::Dff)
    }

    /// Whether the cell is physical-only (takes space, no logic).
    pub fn is_physical_only(self) -> bool {
        matches!(self, CellFunction::Filler)
    }

    /// The conventional name of input pin `i` (`A`, `B`, `C`, `D`, `S`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= input_count()`.
    pub fn input_name(self, i: usize) -> &'static str {
        assert!(i < self.input_count(), "input pin index out of range");
        match self {
            CellFunction::Dff => "D",
            CellFunction::Mux2 => ["A", "B", "S"][i],
            _ => ["A", "B", "C"][i],
        }
    }

    /// The conventional name of output pin `i` (`Y`, `S`/`CO`, `Q`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= output_count()`.
    pub fn output_name(self, i: usize) -> &'static str {
        assert!(i < self.output_count(), "output pin index out of range");
        match self {
            CellFunction::Dff => "Q",
            CellFunction::HalfAdder | CellFunction::FullAdder => ["S", "CO"][i],
            _ => "Y",
        }
    }

    /// Evaluates the logic function on bit values (`0` or `1`) — the one
    /// truth table of every gate, inlined into the logic simulator's hot
    /// loop.
    ///
    /// Inputs are `A, B, C` in pin order; inputs beyond
    /// [`CellFunction::input_count`] are ignored. Returns `(y, co)`:
    /// output 0 (`Y`, `S` or `Q`) and output 1 (`CO` of the adders, `0`
    /// for every other cell). For the sequential [`CellFunction::Dff`]
    /// `y` is the *next* state (`Q := D`); [`CellFunction::Filler`] has no
    /// logic and yields `(0, 0)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use stdcell::CellFunction;
    ///
    /// assert_eq!(CellFunction::FullAdder.eval_bits(1, 1, 0), (0, 1));
    /// assert_eq!(CellFunction::Mux2.eval_bits(0, 1, 1), (1, 0));
    /// ```
    #[inline]
    pub fn eval_bits(self, a: u8, b: u8, c: u8) -> (u8, u8) {
        match self {
            CellFunction::Inv => (a ^ 1, 0),
            CellFunction::Buf | CellFunction::Dff => (a, 0),
            CellFunction::Nand2 => ((a & b) ^ 1, 0),
            CellFunction::Nand3 => ((a & b & c) ^ 1, 0),
            CellFunction::Nor2 => ((a | b) ^ 1, 0),
            CellFunction::Nor3 => ((a | b | c) ^ 1, 0),
            CellFunction::And2 => (a & b, 0),
            CellFunction::Or2 => (a | b, 0),
            CellFunction::Xor2 => (a ^ b, 0),
            CellFunction::Xnor2 => (a ^ b ^ 1, 0),
            CellFunction::Aoi21 => (((a & b) | c) ^ 1, 0),
            CellFunction::Oai21 => (((a | b) & c) ^ 1, 0),
            CellFunction::Mux2 => ((a & (c ^ 1)) | (b & c), 0),
            CellFunction::HalfAdder => (a ^ b, a & b),
            // Majority carry: a·b + cin·(a ⊕ b).
            CellFunction::FullAdder => (a ^ b ^ c, (a & b) | (c & (a ^ b))),
            CellFunction::TieLo | CellFunction::Filler => (0, 0),
            CellFunction::TieHi => (1, 0),
        }
    }

    /// Evaluates the combinational function on slices — a checked
    /// wrapper over [`CellFunction::eval_bits`].
    ///
    /// For the sequential [`CellFunction::Dff`] this computes the *next*
    /// state (`Q := D`); the simulator decides when to commit it.
    ///
    /// # Panics
    ///
    /// Panics if the slices do not match [`CellFunction::input_count`] /
    /// [`CellFunction::output_count`], or for [`CellFunction::Filler`]
    /// which has no logic function.
    pub fn eval(self, inputs: &[bool], outputs: &mut [bool]) {
        assert_eq!(inputs.len(), self.input_count(), "wrong input arity");
        assert_eq!(outputs.len(), self.output_count(), "wrong output arity");
        if self.is_physical_only() {
            panic!("filler cells have no logic function");
        }
        let bit = |i: usize| inputs.get(i).map_or(0, |&v| u8::from(v));
        let (y, co) = self.eval_bits(bit(0), bit(1), bit(2));
        for (out, v) in outputs.iter_mut().zip([y, co]) {
            *out = v == 1;
        }
    }
}

impl std::fmt::Display for CellFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval1(f: CellFunction, inputs: &[bool]) -> bool {
        let mut out = [false];
        f.eval(inputs, &mut out);
        out[0]
    }

    #[test]
    fn basic_gates_truth_tables() {
        assert!(eval1(CellFunction::Inv, &[false]));
        assert!(!eval1(CellFunction::Inv, &[true]));
        for a in [false, true] {
            for b in [false, true] {
                assert_eq!(eval1(CellFunction::Nand2, &[a, b]), !(a && b));
                assert_eq!(eval1(CellFunction::Nor2, &[a, b]), !(a || b));
                assert_eq!(eval1(CellFunction::Xor2, &[a, b]), a ^ b);
                assert_eq!(eval1(CellFunction::Xnor2, &[a, b]), !(a ^ b));
                assert_eq!(eval1(CellFunction::And2, &[a, b]), a && b);
                assert_eq!(eval1(CellFunction::Or2, &[a, b]), a || b);
            }
        }
    }

    #[test]
    fn complex_gates_truth_tables() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    assert_eq!(eval1(CellFunction::Aoi21, &[a, b, c]), !((a && b) || c));
                    assert_eq!(eval1(CellFunction::Oai21, &[a, b, c]), !((a || b) && c));
                    assert_eq!(eval1(CellFunction::Mux2, &[a, b, c]), if c { b } else { a });
                    assert_eq!(eval1(CellFunction::Nand3, &[a, b, c]), !(a && b && c));
                }
            }
        }
    }

    #[test]
    fn full_adder_matches_arithmetic() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let mut out = [false; 2];
                    CellFunction::FullAdder.eval(&[a, b, c], &mut out);
                    let total = a as u8 + b as u8 + c as u8;
                    assert_eq!(out[0], total & 1 == 1, "sum bit");
                    assert_eq!(out[1], total >= 2, "carry bit");
                }
            }
        }
    }

    #[test]
    fn half_adder_matches_arithmetic() {
        for a in [false, true] {
            for b in [false, true] {
                let mut out = [false; 2];
                CellFunction::HalfAdder.eval(&[a, b], &mut out);
                assert_eq!(out[0], a ^ b);
                assert_eq!(out[1], a && b);
            }
        }
    }

    #[test]
    fn eval_bits_stays_binary_and_only_adders_carry() {
        for f in CellFunction::ALL {
            for idx in 0u8..8 {
                let (y, co) = f.eval_bits(idx & 1, (idx >> 1) & 1, idx >> 2);
                assert!(y <= 1 && co <= 1, "{f}: non-binary output");
                if f.output_count() < 2 {
                    assert_eq!(co, 0, "{f}: carry from a single-output cell");
                }
            }
        }
    }

    #[test]
    fn tie_cells_are_constant() {
        assert!(!eval1(CellFunction::TieLo, &[]));
        assert!(eval1(CellFunction::TieHi, &[]));
    }

    #[test]
    fn pin_names_are_distinct_per_cell() {
        for f in CellFunction::ALL {
            let ins: Vec<_> = (0..f.input_count()).map(|i| f.input_name(i)).collect();
            let outs: Vec<_> = (0..f.output_count()).map(|i| f.output_name(i)).collect();
            for (i, a) in ins.iter().enumerate() {
                for b in &ins[i + 1..] {
                    assert_ne!(a, b, "{f}: duplicate input name");
                }
            }
            for (i, a) in outs.iter().enumerate() {
                for b in &outs[i + 1..] {
                    assert_ne!(a, b, "{f}: duplicate output name");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "no logic function")]
    fn filler_eval_panics() {
        CellFunction::Filler.eval(&[], &mut []);
    }

    #[test]
    fn arity_is_consistent() {
        for f in CellFunction::ALL {
            if f.is_physical_only() {
                continue;
            }
            let ins = vec![false; f.input_count()];
            let mut outs = vec![false; f.output_count()];
            f.eval(&ins, &mut outs); // must not panic
        }
    }
}
