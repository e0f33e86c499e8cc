//! Forward-mode differentiation and sparsity extraction over the value DAG.
//!
//! The [`ProgramBuilder`] hash-conses every expression of a design into one
//! DAG before fusion; this module walks that DAG twice:
//!
//! * [`ProgramBuilder::sparsity`] — a structural pass that propagates, per
//!   value, the set of input slots reachable through its dependency cone.
//!   Nothing is evaluated; the result is a **superset** of the numerically
//!   nonzero Jacobian entries by construction (guards and flat regions can
//!   only remove dependence at run time, never add it).
//! * [`Differentiator`] — forward-mode derivative rules per opcode that
//!   lower `d out / d slot` into *new values of the same DAG*. The caller
//!   then emits them through the ordinary [`ProgramBuilder::finish`] pass,
//!   so the derivative program gets the full optimization pipeline (CSE
//!   against the primal values, constant pooling, fusion into the
//!   MulAdd/AddMul/MulSub/SubMul/NegLoad family) for free.
//!
//! Derivatives are pruned structurally: a rule returns `None` when the
//! derivative is identically zero, and product/sum rules drop absent terms,
//! so `d(x + c)/dx` is the constant `1`, not `1 + 0`.
//!
//! # Almost-everywhere semantics
//!
//! Piecewise-defined primitives (`abs`, `sgn`, `sat`, `min`/`max`,
//! comparisons, `if`) differentiate to their almost-everywhere derivative:
//! kink points take the one-sided value selected by the same branch the
//! primal takes, and `sgn` (flat a.e.) differentiates to zero. The pulse
//! builtins (`pulse`, `square_pulse`) are treated as external drives —
//! their derivative with respect to any argument is structurally zero,
//! which is exact whenever the arguments are time/constants (the only use
//! in practice). The sparsity walk still reports such dependencies.
//!
//! # Examples
//!
//! ```
//! use ark_expr::{parse_expr, Differentiator, ProgramBuilder, SlotResolver};
//! let mut pb = ProgramBuilder::new();
//! let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
//! let f = pb.add_expr(&parse_expr("sin(var(x)) * var(x)")?, &resolve)?;
//! let mut diff = Differentiator::new(&mut pb);
//! let df = diff.derive(f, 0).expect("depends on x");
//! let prog = pb.finish(&[f, df], 0);
//! let mut scratch = ark_expr::LaneScratch::<1>::default();
//! let mut out = [0.0; 2];
//! prog.eval_into(&mut scratch, &[2.0], 0.0, &[], &mut out);
//! let x = 2.0_f64;
//! assert_eq!(out[0], x.sin() * x);
//! assert_eq!(out[1], x.cos() * x + x.sin());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::ast::{BinaryOp, CmpOp, UnaryOp};
use crate::builtins::Builtin3;
use crate::program::{ProgramBuilder, VNode, ValueId};
use std::collections::HashMap;

impl ProgramBuilder {
    /// Which input slots can reach each output: one sorted slot list per
    /// entry of `outputs`.
    ///
    /// This is the ODE sparsity pattern when the outputs are the right-hand
    /// sides and the slots are the state variables. The walk is purely
    /// structural (a bitset union per DAG node, in interning order, which is
    /// topological), so it costs O(values × slots/64) and never evaluates
    /// anything. Slots ≥ `n_slots` are ignored.
    pub fn sparsity(&self, outputs: &[ValueId], n_slots: usize) -> Vec<Vec<usize>> {
        let words = n_slots.div_ceil(64).max(1);
        let n = self.nodes.len();
        let mut bits = vec![0u64; n * words];
        for i in 0..n {
            if let VNode::Load(s) = self.nodes[i] {
                let s = s as usize;
                if s < n_slots {
                    bits[i * words + s / 64] |= 1u64 << (s % 64);
                }
                continue;
            }
            let (ops, cnt) = self.nodes[i].operands();
            for &o in &ops[..cnt] {
                for w in 0..words {
                    let src = bits[o as usize * words + w];
                    bits[i * words + w] |= src;
                }
            }
        }
        outputs
            .iter()
            .map(|out| {
                let base = out.index() as usize * words;
                (0..n_slots)
                    .filter(|s| bits[base + s / 64] >> (s % 64) & 1 != 0)
                    .collect()
            })
            .collect()
    }
}

/// Forward-mode differentiator over a [`ProgramBuilder`]'s value DAG.
///
/// Derivatives are interned into the *same* builder as the primal values, so
/// common subexpressions (e.g. `exp(x)` and its own derivative) share nodes,
/// and one `finish(..)` call emits primal and derivative outputs together or
/// separately as the caller chooses. Results are memoized per
/// `(value, slot)` pair, so differentiating a full Jacobian shares work
/// across rows and columns.
///
/// See the [module docs](self) for the almost-everywhere conventions.
pub struct Differentiator<'a> {
    pb: &'a mut ProgramBuilder,
    memo: HashMap<(u32, u32), Option<ValueId>>,
}

impl<'a> Differentiator<'a> {
    /// Differentiate values of `pb`, interning derivative nodes into it.
    pub fn new(pb: &'a mut ProgramBuilder) -> Self {
        Self {
            pb,
            memo: HashMap::new(),
        }
    }

    /// `d v / d slot` as a value of the underlying builder, or `None` when
    /// the derivative is structurally zero.
    pub fn derive(&mut self, v: ValueId, slot: usize) -> Option<ValueId> {
        let key = (v.index(), slot as u32);
        if let Some(&d) = self.memo.get(&key) {
            return d;
        }
        let d = self.derive_uncached(v, slot);
        self.memo.insert(key, d);
        d
    }

    fn node(&self, v: ValueId) -> VNode {
        self.pb.nodes[v.index() as usize]
    }

    fn is_one(&self, v: ValueId) -> bool {
        matches!(self.node(v), VNode::Const(bits) if bits == 1.0_f64.to_bits())
    }

    fn un(&mut self, op: UnaryOp, a: ValueId) -> ValueId {
        self.pb.intern(VNode::Un(op, a.index()))
    }

    fn bin(&mut self, op: BinaryOp, a: ValueId, b: ValueId) -> ValueId {
        self.pb.intern(VNode::Bin(op, a.index(), b.index()))
    }

    fn neg(&mut self, a: ValueId) -> ValueId {
        self.un(UnaryOp::Neg, a)
    }

    /// `a * b` with multiply-by-one pruning (the seed `d slot / d slot = 1`
    /// would otherwise leave `1 *` husks all over the derivative program).
    fn mul(&mut self, a: ValueId, b: ValueId) -> ValueId {
        if self.is_one(a) {
            return b;
        }
        if self.is_one(b) {
            return a;
        }
        self.bin(BinaryOp::Mul, a, b)
    }

    /// `a + b` over optional (structurally-zero-pruned) terms.
    fn add_terms(&mut self, a: Option<ValueId>, b: Option<ValueId>) -> Option<ValueId> {
        match (a, b) {
            (Some(a), Some(b)) => Some(self.bin(BinaryOp::Add, a, b)),
            (Some(a), None) => Some(a),
            (None, b) => b,
        }
    }

    /// `a - b` over optional (structurally-zero-pruned) terms.
    fn sub_terms(&mut self, a: Option<ValueId>, b: Option<ValueId>) -> Option<ValueId> {
        match (a, b) {
            (Some(a), Some(b)) => Some(self.bin(BinaryOp::Sub, a, b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(self.neg(b)),
            (None, None) => None,
        }
    }

    /// Derivative of `min`/`max`: follow whichever branch the primal takes.
    fn select_branch(
        &mut self,
        cmp: CmpOp,
        a: ValueId,
        b: ValueId,
        da: Option<ValueId>,
        db: Option<ValueId>,
    ) -> Option<ValueId> {
        if da.is_none() && db.is_none() {
            return None;
        }
        let zero = self.pb.constant(0.0);
        let dt = da.unwrap_or(zero);
        let de = db.unwrap_or(zero);
        let cond = self.pb.intern(VNode::Cmp(cmp, a.index(), b.index()));
        Some(
            self.pb
                .intern(VNode::Select(cond.index(), dt.index(), de.index())),
        )
    }

    fn derive_uncached(&mut self, v: ValueId, slot: usize) -> Option<ValueId> {
        match self.node(v) {
            VNode::Const(_) | VNode::Time | VNode::Param(_) => None,
            // Comparisons and logic are piecewise constant: zero a.e.
            VNode::Cmp(..) | VNode::And(..) | VNode::Or(..) | VNode::Not(..) => None,
            VNode::Load(s) => (s as usize == slot).then(|| self.pb.constant(1.0)),
            VNode::Un(op, ai) => {
                let a = ValueId::from_index(ai);
                if matches!(op, UnaryOp::Sgn) {
                    return None; // flat a.e.
                }
                let da = self.derive(a, slot)?;
                Some(match op {
                    UnaryOp::Neg => self.neg(da),
                    UnaryOp::Sin => {
                        let c = self.un(UnaryOp::Cos, a);
                        self.mul(c, da)
                    }
                    UnaryOp::Cos => {
                        let s = self.un(UnaryOp::Sin, a);
                        let m = self.mul(s, da);
                        self.neg(m)
                    }
                    UnaryOp::Tan => {
                        let c = self.un(UnaryOp::Cos, a);
                        let c2 = self.mul(c, c);
                        self.bin(BinaryOp::Div, da, c2)
                    }
                    UnaryOp::Tanh => {
                        // v is the primal tanh node; reuse it for CSE.
                        let t2 = self.mul(v, v);
                        let one = self.pb.constant(1.0);
                        let g = self.bin(BinaryOp::Sub, one, t2);
                        self.mul(g, da)
                    }
                    UnaryOp::Exp => self.mul(v, da),
                    UnaryOp::Ln => self.bin(BinaryOp::Div, da, a),
                    UnaryOp::Sqrt => {
                        let two = self.pb.constant(2.0);
                        let d = self.mul(two, v);
                        self.bin(BinaryOp::Div, da, d)
                    }
                    UnaryOp::Abs => {
                        let s = self.un(UnaryOp::Sgn, a);
                        self.mul(s, da)
                    }
                    UnaryOp::Sat => {
                        // sat(x) = 0.5 (|x+1| - |x-1|): slope 1 in the linear
                        // band, 0 at the rails → 0.5 (sgn(x+1) - sgn(x-1)).
                        let one = self.pb.constant(1.0);
                        let ap = self.bin(BinaryOp::Add, a, one);
                        let am = self.bin(BinaryOp::Sub, a, one);
                        let sp = self.un(UnaryOp::Sgn, ap);
                        let sm = self.un(UnaryOp::Sgn, am);
                        let d = self.bin(BinaryOp::Sub, sp, sm);
                        let half = self.pb.constant(0.5);
                        let g = self.mul(half, d);
                        self.mul(g, da)
                    }
                    UnaryOp::SatNi => {
                        // sat_ni(x) = tanh(2x) → 2 (1 - sat_ni(x)^2).
                        let t2 = self.mul(v, v);
                        let one = self.pb.constant(1.0);
                        let g = self.bin(BinaryOp::Sub, one, t2);
                        let two = self.pb.constant(2.0);
                        let g2 = self.mul(two, g);
                        self.mul(g2, da)
                    }
                    UnaryOp::Sgn => unreachable!("handled above"),
                })
            }
            VNode::Bin(op, ai, bi) => {
                let a = ValueId::from_index(ai);
                let b = ValueId::from_index(bi);
                let da = self.derive(a, slot);
                let db = self.derive(b, slot);
                match op {
                    BinaryOp::Add => self.add_terms(da, db),
                    BinaryOp::Sub => self.sub_terms(da, db),
                    BinaryOp::Mul => {
                        let ta = da.map(|da| self.mul(da, b));
                        let tb = db.map(|db| self.mul(a, db));
                        self.add_terms(ta, tb)
                    }
                    BinaryOp::Div => {
                        // d(a/b) = (da - (a/b) db) / b, reusing the primal
                        // quotient v = a/b (one division, not a/b²).
                        let vdb = db.map(|db| self.mul(v, db));
                        let num = self.sub_terms(da, vdb)?;
                        Some(self.bin(BinaryOp::Div, num, b))
                    }
                    BinaryOp::Pow => match (da, db) {
                        (None, None) => None,
                        (Some(da), None) => {
                            // b a^(b-1) da
                            let one = self.pb.constant(1.0);
                            let bm1 = self.bin(BinaryOp::Sub, b, one);
                            let p = self.bin(BinaryOp::Pow, a, bm1);
                            let t = self.mul(b, p);
                            Some(self.mul(t, da))
                        }
                        (None, Some(db)) => {
                            // a^b ln(a) db
                            let ln = self.un(UnaryOp::Ln, a);
                            let t = self.mul(v, ln);
                            Some(self.mul(t, db))
                        }
                        (Some(da), Some(db)) => {
                            // a^b (db ln(a) + b da / a)
                            let ln = self.un(UnaryOp::Ln, a);
                            let t1 = self.mul(db, ln);
                            let bda = self.mul(b, da);
                            let t2 = self.bin(BinaryOp::Div, bda, a);
                            let sum = self.bin(BinaryOp::Add, t1, t2);
                            Some(self.mul(v, sum))
                        }
                    },
                    BinaryOp::Min => self.select_branch(CmpOp::Le, a, b, da, db),
                    BinaryOp::Max => self.select_branch(CmpOp::Ge, a, b, da, db),
                }
            }
            VNode::Select(ci, ti, ei) => {
                let dt = self.derive(ValueId::from_index(ti), slot);
                let de = self.derive(ValueId::from_index(ei), slot);
                if dt.is_none() && de.is_none() {
                    return None;
                }
                let zero = self.pb.constant(0.0);
                let dt = dt.unwrap_or(zero);
                let de = de.unwrap_or(zero);
                Some(self.pb.intern(VNode::Select(ci, dt.index(), de.index())))
            }
            VNode::Call3(b3, ai, bi, ci) => match b3 {
                // External drives: piecewise-linear in time only; their
                // arguments are time/constants in every shipped design, so
                // the a.e. derivative w.r.t. a state slot is zero.
                Builtin3::Pulse | Builtin3::SquarePulse => None,
                Builtin3::Smoothstep => {
                    // s(t, t0, τ) = σ((t - t0)/τ); ds = s(1-s) ·
                    // (dt/τ - dt0/τ - (t - t0) dτ/τ²).
                    let a = ValueId::from_index(ai);
                    let b = ValueId::from_index(bi);
                    let c = ValueId::from_index(ci);
                    let da = self.derive(a, slot);
                    let db = self.derive(b, slot);
                    let dc = self.derive(c, slot);
                    if da.is_none() && db.is_none() && dc.is_none() {
                        return None;
                    }
                    let one = self.pb.constant(1.0);
                    let oms = self.bin(BinaryOp::Sub, one, v);
                    let g = self.mul(v, oms);
                    let ta = da.map(|d| self.bin(BinaryOp::Div, d, c));
                    let tb = db.map(|d| self.bin(BinaryOp::Div, d, c));
                    let tc = dc.map(|d| {
                        let amb = self.bin(BinaryOp::Sub, a, b);
                        let tau2 = self.mul(c, c);
                        let r = self.bin(BinaryOp::Div, amb, tau2);
                        self.mul(r, d)
                    });
                    let i1 = self.sub_terms(ta, tb);
                    let inner = self.sub_terms(i1, tc)?;
                    Some(self.mul(g, inner))
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_expr, LaneScratch, SlotResolver};

    /// Resolver mapping `x`→0, `y`→1, `z`→2.
    fn xyz() -> SlotResolver<impl Fn(&str) -> Option<usize>> {
        SlotResolver(|n: &str| match n {
            "x" => Some(0),
            "y" => Some(1),
            "z" => Some(2),
            _ => None,
        })
    }

    /// Differentiate `src` w.r.t. all three slots and compare against
    /// central finite differences at each point.
    fn check_grad(src: &str, points: &[[f64; 3]]) {
        let mut pb = ProgramBuilder::new();
        let f = pb
            .add_expr(&parse_expr(src).expect("parse"), &xyz())
            .expect("lower");
        let mut diff = Differentiator::new(&mut pb);
        let grads: Vec<Option<ValueId>> = (0..3).map(|s| diff.derive(f, s)).collect();
        let mut outs = vec![f];
        outs.extend(grads.iter().flatten());
        let prog = pb.finish(&outs, 0);
        let mut scratch = LaneScratch::<1>::default();
        let mut out = vec![0.0; outs.len()];
        let mut eval = |slots: &[f64]| {
            prog.eval_into(&mut scratch, slots, 0.25, &[], &mut out);
            out.clone()
        };
        for p in points {
            let vals = eval(p);
            let mut k = 1;
            for s in 0..3 {
                let analytic = match grads[s] {
                    Some(_) => {
                        let a = vals[k];
                        k += 1;
                        a
                    }
                    None => 0.0,
                };
                let h = 1e-6 * p[s].abs().max(1.0);
                let mut hi = *p;
                let mut lo = *p;
                hi[s] += h;
                lo[s] -= h;
                let fd = (eval(&hi)[0] - eval(&lo)[0]) / (2.0 * h);
                let tol = 1e-5 * (1.0 + analytic.abs().max(fd.abs()));
                assert!(
                    (analytic - fd).abs() <= tol,
                    "{src}: d/d{s} at {p:?}: analytic {analytic} vs fd {fd}"
                );
            }
        }
    }

    #[test]
    fn smooth_unary_rules_match_finite_differences() {
        let pts = [[0.3, -0.7, 1.1], [1.7, 0.4, -0.2], [-1.2, 2.3, 0.6]];
        for src in [
            "sin(var(x)) + cos(var(y)) * tan(var(z))",
            "tanh(var(x) * var(y))",
            "exp(var(x) - var(y))",
            "sat_ni(var(x) + 0.3 * var(y))",
        ] {
            check_grad(src, &pts);
        }
        // Positive-domain ops.
        let pos = [[0.5, 1.5, 2.5], [2.0, 0.25, 1.0]];
        for src in ["ln(var(x)) * sqrt(var(y))", "var(x) ^ var(y)"] {
            check_grad(src, &pos);
        }
    }

    #[test]
    fn binary_rules_match_finite_differences() {
        let pts = [[0.3, -0.7, 1.1], [1.7, 0.4, -0.2]];
        for src in [
            "var(x) * var(y) + var(z)",
            "var(x) / (1 + var(y) * var(y))",
            "(var(x) + var(y)) * (var(x) - var(z))",
            "2 * var(x) ^ 3",
        ] {
            check_grad(src, &pts);
        }
    }

    #[test]
    fn piecewise_rules_match_away_from_kinks() {
        // Points chosen well away from |·|, sat, min/max kinks.
        let pts = [[0.3, -0.7, 1.4], [1.6, 0.45, -0.9]];
        for src in [
            "abs(var(x)) * var(y)",
            "sat(var(x)) + sat(3 * var(y))",
            "min(var(x), var(y)) + max(var(y), var(z))",
            "if var(x) > 0 then var(y) * var(y) else -var(z)",
        ] {
            check_grad(src, &pts);
        }
    }

    #[test]
    fn smoothstep_rule_matches_finite_differences() {
        check_grad(
            "smoothstep(var(x), var(y), 0.7 + var(z) * var(z))",
            &[[0.3, -0.2, 0.9], [1.1, 0.8, -1.2]],
        );
    }

    #[test]
    fn structural_zeros_are_pruned() {
        let mut pb = ProgramBuilder::new();
        let f = pb
            .add_expr(&parse_expr("var(x) + 2 * var(y)").expect("parse"), &xyz())
            .expect("lower");
        let mut diff = Differentiator::new(&mut pb);
        // d/dz is structurally zero; d/dx is the pruned constant 1.
        assert_eq!(diff.derive(f, 2), None);
        let dx = diff.derive(f, 0).expect("depends on x");
        assert!(matches!(
            pb.nodes[dx.index() as usize],
            VNode::Const(bits) if bits == 1.0_f64.to_bits()
        ));
        // sgn and pulse are flat a.e.
        let g = pb
            .add_expr(&parse_expr("sgn(var(x))").expect("parse"), &xyz())
            .expect("lower");
        let h = pb
            .add_expr(&parse_expr("pulse(var(x), 0, 2)").expect("parse"), &xyz())
            .expect("lower");
        let mut diff = Differentiator::new(&mut pb);
        assert_eq!(diff.derive(g, 0), None);
        assert_eq!(diff.derive(h, 0), None);
    }

    #[test]
    fn derivatives_share_nodes_with_the_primal() {
        // d exp(x)/dx is exp(x) itself: no new node beyond the memo entry.
        let mut pb = ProgramBuilder::new();
        let f = pb
            .add_expr(&parse_expr("exp(var(x))").expect("parse"), &xyz())
            .expect("lower");
        let before = pb.len();
        let mut diff = Differentiator::new(&mut pb);
        let df = diff.derive(f, 0).expect("depends on x");
        assert_eq!(df, f);
        // Only the (pruned) constant-1 seed was interned; no arithmetic.
        assert!(pb.len() <= before + 1);
    }

    #[test]
    fn sparsity_tracks_reachable_slots() {
        let mut pb = ProgramBuilder::new();
        let r = xyz();
        let f0 = pb
            .add_expr(&parse_expr("var(x) * var(y)").expect("parse"), &r)
            .expect("lower");
        let f1 = pb
            .add_expr(&parse_expr("sin(var(z)) + 1").expect("parse"), &r)
            .expect("lower");
        let f2 = pb
            .add_expr(&parse_expr("2 + time").expect("parse"), &r)
            .expect("lower");
        let pat = pb.sparsity(&[f0, f1, f2], 3);
        assert_eq!(pat, vec![vec![0, 1], vec![2], vec![]]);
    }

    #[test]
    fn sparsity_spans_word_boundaries() {
        // Slots 0, 63, 64, 100 force the multi-word bitset path.
        let mut pb = ProgramBuilder::new();
        let a = pb.load(0);
        let b = pb.load(63);
        let c = pb.load(64);
        let d = pb.load(100);
        let ab = pb.intern(VNode::Bin(BinaryOp::Add, a.index(), b.index()));
        let cd = pb.intern(VNode::Bin(BinaryOp::Mul, c.index(), d.index()));
        let all = pb.intern(VNode::Bin(BinaryOp::Sub, ab.index(), cd.index()));
        let pat = pb.sparsity(&[all, cd], 101);
        assert_eq!(pat[0], vec![0, 63, 64, 100]);
        assert_eq!(pat[1], vec![64, 100]);
    }

    #[test]
    fn sparsity_is_superset_of_derivative_support() {
        // Guarded expressions keep the structural dependency even where the
        // analytic derivative prunes to zero.
        let mut pb = ProgramBuilder::new();
        let f = pb
            .add_expr(&parse_expr("sgn(var(x)) + var(y)").expect("parse"), &xyz())
            .expect("lower");
        let pat = pb.sparsity(&[f], 3);
        assert_eq!(pat[0], vec![0, 1]);
        let mut diff = Differentiator::new(&mut pb);
        assert_eq!(diff.derive(f, 0), None); // pruned …
        assert!(diff.derive(f, 1).is_some()); // … but pattern kept slot 0.
    }
}
