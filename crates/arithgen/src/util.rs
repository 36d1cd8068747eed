//! Shared gate-level construction helpers.
//!
//! All helpers panic on netlist-construction errors: the generators are
//! only ever invoked with the complete `c65` library, where every function
//! exists and arities are correct by construction, so an error here is a
//! programming bug, not a runtime condition.

use netlist::{NetId, NetlistBuilder, UnitId};
use stdcell::{CellFunction, Drive};

/// Construction context: a builder plus the unit receiving the cells.
pub(crate) struct Ctx<'a> {
    pub b: &'a mut NetlistBuilder,
    pub unit: UnitId,
    tie0: Option<NetId>,
    tie1: Option<NetId>,
}

impl<'a> Ctx<'a> {
    pub fn new(b: &'a mut NetlistBuilder, unit: UnitId) -> Self {
        Ctx {
            b,
            unit,
            tie0: None,
            tie1: None,
        }
    }

    /// Instantiates one `f` cell of the unit on the given nets.
    #[expect(
        clippy::expect_used,
        reason = "generators run only with the complete c65 library, whose functions and arities are correct by construction"
    )]
    pub fn emit(&mut self, f: CellFunction, inputs: &[NetId], outputs: &[NetId]) {
        self.b
            .cell(self.unit, f, Drive::X1, inputs, outputs)
            .expect("generator uses a complete library with correct arity");
    }

    /// One-input gate producing a fresh net.
    pub fn g1(&mut self, f: CellFunction, a: NetId) -> NetId {
        let y = self.b.auto_net();
        self.emit(f, &[a], &[y]);
        y
    }

    /// Two-input gate producing a fresh net.
    pub fn g2(&mut self, f: CellFunction, a: NetId, b: NetId) -> NetId {
        let y = self.b.auto_net();
        self.emit(f, &[a, b], &[y]);
        y
    }

    /// Three-input gate producing a fresh net.
    pub fn g3(&mut self, f: CellFunction, a: NetId, b: NetId, c: NetId) -> NetId {
        let y = self.b.auto_net();
        self.emit(f, &[a, b, c], &[y]);
        y
    }

    /// Full adder; returns `(sum, carry)`.
    pub fn fa(&mut self, a: NetId, b: NetId, c: NetId) -> (NetId, NetId) {
        let s = self.b.auto_net();
        let co = self.b.auto_net();
        self.emit(CellFunction::FullAdder, &[a, b, c], &[s, co]);
        (s, co)
    }

    /// Half adder; returns `(sum, carry)`.
    pub fn ha(&mut self, a: NetId, b: NetId) -> (NetId, NetId) {
        let s = self.b.auto_net();
        let co = self.b.auto_net();
        self.emit(CellFunction::HalfAdder, &[a, b], &[s, co]);
        (s, co)
    }

    /// 2:1 mux (`s ? b : a`).
    pub fn mux(&mut self, a: NetId, b: NetId, s: NetId) -> NetId {
        self.g3(CellFunction::Mux2, a, b, s)
    }

    /// D flip-flop; returns the `Q` net.
    pub fn dff(&mut self, d: NetId) -> NetId {
        let q = self.b.auto_net();
        self.emit(CellFunction::Dff, &[d], &[q]);
        q
    }

    /// Registers every net of a bus; returns the `Q` nets.
    pub fn register_bus(&mut self, bus: &[NetId]) -> Vec<NetId> {
        bus.iter().map(|&n| self.dff(n)).collect()
    }

    /// The unit's shared constant-0 net (one tie cell per unit).
    pub fn tie0(&mut self) -> NetId {
        if let Some(n) = self.tie0 {
            return n;
        }
        let y = self.b.auto_net();
        self.emit(CellFunction::TieLo, &[], &[y]);
        self.tie0 = Some(y);
        y
    }

    /// The unit's shared constant-1 net.
    pub fn tie1(&mut self) -> NetId {
        if let Some(n) = self.tie1 {
            return n;
        }
        let y = self.b.auto_net();
        self.emit(CellFunction::TieHi, &[], &[y]);
        self.tie1 = Some(y);
        y
    }

    /// Ripple chain adding buses `a + b + cin`; returns `(sums, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width or are empty.
    pub fn ripple_add(
        &mut self,
        a: &[NetId],
        b: &[NetId],
        cin: Option<NetId>,
    ) -> (Vec<NetId>, NetId) {
        assert_eq!(a.len(), b.len(), "adder bus width mismatch");
        assert!(!a.is_empty(), "adder needs at least one bit");
        let (s0, mut carry) = match cin {
            Some(c) => self.fa(a[0], b[0], c),
            None => self.ha(a[0], b[0]),
        };
        let mut sums = Vec::with_capacity(a.len());
        sums.push(s0);
        for (&ai, &bi) in a[1..].iter().zip(&b[1..]) {
            let (s, co) = self.fa(ai, bi, carry);
            sums.push(s);
            carry = co;
        }
        (sums, carry)
    }

    /// Adds two bit vectors of possibly different lengths with a ripple
    /// chain; returns `len = max(a, b) + 1` sum bits (the top bit is the
    /// final carry; it is omitted when provably zero, i.e. when one
    /// operand ran out and no carry remains).
    pub fn add_vec(&mut self, a: &[NetId], b: &[NetId]) -> Vec<NetId> {
        let len = a.len().max(b.len());
        let mut out = Vec::with_capacity(len + 1);
        let mut carry: Option<NetId> = None;
        for j in 0..len {
            let bits: Vec<NetId> = [a.get(j), b.get(j), carry.take().as_ref()]
                .into_iter()
                .flatten()
                .copied()
                .collect();
            match bits.len() {
                0 => unreachable!("j < max(len)"),
                1 => out.push(bits[0]),
                2 => {
                    let (s, c) = self.ha(bits[0], bits[1]);
                    out.push(s);
                    carry = Some(c);
                }
                _ => {
                    let (s, c) = self.fa(bits[0], bits[1], bits[2]);
                    out.push(s);
                    carry = Some(c);
                }
            }
        }
        if let Some(c) = carry {
            out.push(c);
        }
        out
    }

    /// Carry-lookahead addition with 4-bit blocks and fully expanded
    /// in-block carries; returns `(sums, carry_out)`. This is the fast
    /// final adder used by the tree multipliers and the CLA unit itself.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width or are empty.
    pub fn cla_add(&mut self, a: &[NetId], b: &[NetId], cin: Option<NetId>) -> (Vec<NetId>, NetId) {
        use CellFunction::{And2, Or2, Xor2};
        assert_eq!(a.len(), b.len(), "adder bus width mismatch");
        assert!(!a.is_empty(), "adder needs at least one bit");
        let n = a.len();
        let p: Vec<_> = (0..n).map(|i| self.g2(Xor2, a[i], b[i])).collect();
        let g: Vec<_> = (0..n).map(|i| self.g2(And2, a[i], b[i])).collect();
        let mut sums = Vec::with_capacity(n);
        let mut carry = cin.unwrap_or_else(|| self.tie0());
        for (pb, gb) in p.chunks(4).zip(g.chunks(4)) {
            let k = pb.len();
            // Propagate prefixes: pp[i] = p_{i} & … & p_0 (within block).
            let mut pp = Vec::with_capacity(k);
            pp.push(pb[0]);
            for i in 1..k {
                let prev = pp[i - 1];
                pp.push(self.g2(And2, pb[i], prev));
            }
            // Expanded carries: c_{i+1} = g_i | p_i·g_{i-1} | … | pp_i·cin,
            // each an OR tree over terms independent of each other.
            let mut carries = Vec::with_capacity(k + 1);
            carries.push(carry);
            for i in 0..k {
                let mut terms = vec![gb[i]];
                for j in 0..i {
                    // p_i · p_{i-1} · … · p_{j+1} · g_j  — reuse prefix
                    // products of the *suffix* by building them on the fly.
                    let mut t = gb[j];
                    for &pm in &pb[j + 1..=i] {
                        t = self.g2(And2, pm, t);
                    }
                    terms.push(t);
                }
                let cin_term = self.g2(And2, pp[i], carry);
                terms.push(cin_term);
                // Balanced OR tree.
                while terms.len() > 1 {
                    let mut next = Vec::with_capacity(terms.len() / 2 + 1);
                    for pair in terms.chunks(2) {
                        next.push(if pair.len() == 2 {
                            self.g2(Or2, pair[0], pair[1])
                        } else {
                            pair[0]
                        });
                    }
                    terms = next;
                }
                carries.push(terms[0]);
            }
            for i in 0..k {
                sums.push(self.g2(Xor2, pb[i], carries[i]));
            }
            carry = carries[k];
        }
        (sums, carry)
    }

    /// Reduces a partial-product column matrix to two rows with 3:2 (FA)
    /// and 2:2 (HA) compressors (Wallace-style balanced passes), then
    /// resolves the two rows with the fast [`Ctx::cla_add`] adder.
    /// `columns[k]` holds the bits of weight `2^k`; returns sum bits
    /// LSB-first.
    pub fn reduce_columns(&mut self, mut columns: Vec<Vec<NetId>>) -> Vec<NetId> {
        loop {
            let max_height = columns.iter().map(Vec::len).max().unwrap_or(0);
            if max_height <= 2 {
                break;
            }
            let mut next: Vec<Vec<NetId>> = vec![Vec::new(); columns.len() + 1];
            for (k, col) in columns.iter().enumerate() {
                let mut i = 0;
                while col.len() - i >= 3 {
                    let (s, c) = self.fa(col[i], col[i + 1], col[i + 2]);
                    next[k].push(s);
                    next[k + 1].push(c);
                    i += 3;
                }
                if col.len() - i == 2 && col.len() > 2 {
                    let (s, c) = self.ha(col[i], col[i + 1]);
                    next[k].push(s);
                    next[k + 1].push(c);
                    i += 2;
                }
                for &bit in &col[i..] {
                    next[k].push(bit);
                }
            }
            while next.last().is_some_and(Vec::is_empty) {
                next.pop();
            }
            columns = next;
        }
        // Two rows remain: split into operand vectors and add fast.
        let zero = self.tie0();
        let row0: Vec<NetId> = columns
            .iter()
            .map(|c| c.first().copied().unwrap_or(zero))
            .collect();
        let row1: Vec<NetId> = columns
            .iter()
            .map(|c| c.get(1).copied().unwrap_or(zero))
            .collect();
        let (mut sums, cout) = self.cla_add(&row0, &row1, None);
        sums.push(cout);
        sums
    }
}
