//! Fused whole-system programs: many expressions, one instruction stream.
//!
//! An Ark dynamical system has hundreds of expressions (one per node).
//! Compiling each on its own would waste work three ways: shared
//! subexpressions would be recomputed per node, every constant would cost
//! an interpreted instruction on every call, and each expression would pay
//! its own dispatch setup. [`ProgramBuilder`] instead lowers
//! *all* of a system's expressions into one hash-consed value DAG and
//! [`SystemProgram`] executes the whole right-hand side as a single fused
//! instruction stream, optimized by a five-stage pipeline:
//!
//! 1. **CSE / hash-consing** — structurally identical subexpressions across
//!    *all* nodes become one value (CNN neighbor terms, shared waveforms);
//! 2. **constant pool** — constants live in a register segment initialized
//!    once per scratch, so they cost *zero* interpreted instructions per
//!    evaluation (folding of constant operators happens at intern time with
//!    the same `f64` ops the interpreter would use, so results are
//!    bit-identical);
//! 3. **parameter slots** — designated leaves compile to loads from a
//!    per-instance parameter segment (resolved via
//!    [`ProgramResolver::attr`]), so one compiled program serves a whole
//!    mismatch ensemble: bind a new parameter vector instead of recompiling;
//! 4. **prologue hoisting** — state-independent values (functions of `time`,
//!    constants, and parameters only) are scheduled in a prologue that is
//!    skipped whenever `time` and the parameters are unchanged since the
//!    last call (RK4 evaluates two of its four stages at the same `t`);
//! 5. **fusion + liveness register allocation** — single-use multiplies
//!    feeding adds/subtracts fuse into `MulAdd`-family opcodes (computed as
//!    separate multiply-then-add so results stay bit-identical to the
//!    unfused form), negated loads fuse into `NegLoad`, and body registers
//!    are reused as soon as their value dies, so the register file stays
//!    cache-sized instead of growing one register per instruction.
//!
//! One interpreter runs the result, generic over the lane width `L`: a
//! [`LaneScratch<L>`] holds `L` instances' registers side by side, and each
//! instruction is dispatched once and applied to all `L` lanes.
//! [`SystemProgram::eval_into`] and [`SystemProgram::eval_bound`] are the
//! `L = 1` case (a `&[f64]` viewed as one-lane registers), and lane-parallel
//! ensembles use [`SystemProgram::eval_lanes_bound`] at `L` = 4 or 8. The
//! native kernels of [`codegen`](crate::codegen) have the same shape: each
//! segment emitted once, generic over `L`.
//!
//! Evaluation semantics are *bit-identical* to evaluating each expression
//! with the tree-walking [`eval()`](crate::eval()): every transformation
//! either shares or fuses identical arithmetic, never reassociates or
//! changes it. Property tests here and in `ark-core` pin this down against
//! `eval`.

use crate::ast::{BinaryOp, BoolExpr, CmpOp, Expr, UnaryOp};
use crate::builtins::Builtin3;
use crate::codegen::{
    Backend, CodegenCache, CodegenError, KernelSegment, NativeKernel, NativeStatus,
};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An error produced while lowering an expression into a
/// [`SystemProgram`] (see [`ProgramBuilder::add_expr`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// `var(.)` reference that the resolver could not map to a slot.
    UnresolvedVar(String),
    /// Attribute reference that survived constant folding.
    UnresolvedAttr(String, String),
    /// Argument reference that survived substitution.
    UnresolvedArg(String),
    /// A call that is not a program-representable builtin.
    UnsupportedCall(String),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnresolvedVar(n) => write!(f, "unresolved variable var({n})"),
            LowerError::UnresolvedAttr(n, a) => {
                write!(
                    f,
                    "attribute {n}.{a} not folded before system-program lowering"
                )
            }
            LowerError::UnresolvedArg(n) => {
                write!(
                    f,
                    "argument {n} not substituted before system-program lowering"
                )
            }
            LowerError::UnsupportedCall(n) => write!(
                f,
                "call to `{n}` not supported by system-program lowering \
                 (supported calls: one-argument functions, pulse, square_pulse, \
                 smoothstep, min, max, pow)"
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// A value in the program builder's hash-consed DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(u32);

impl ValueId {
    /// Raw index into the builder's node table.
    pub(crate) fn index(self) -> u32 {
        self.0
    }

    /// Wrap a raw node-table index.
    pub(crate) fn from_index(i: u32) -> Self {
        ValueId(i)
    }
}

/// What a `var(.)` reference resolves to inside a fused program.
#[derive(Debug, Clone, Copy)]
pub enum VarRef {
    /// A dynamic input slot (read from the state vector on every call).
    Slot(usize),
    /// A value already built in this program (e.g. an algebraic node's
    /// expression) — the reference is inlined into the DAG, no load needed.
    Value(ValueId),
}

/// Resolves the dynamic leaves of an expression while lowering it into a
/// [`ProgramBuilder`].
pub trait ProgramResolver {
    /// Resolve a `var(name)` reference.
    fn var(&self, name: &str) -> Option<VarRef>;

    /// Resolve an attribute reference `entity.attr` to a parameter slot.
    /// The default (no parameters) rejects all attribute references, which
    /// makes unfolded attributes a compile error.
    fn attr(&self, _entity: &str, _attr: &str) -> Option<usize> {
        None
    }
}

/// Hash-consed DAG node. Constants are stored as raw bits so `-0.0`, NaN
/// payloads, etc. dedupe exactly (value semantics must be bit-faithful).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum VNode {
    Const(u64),
    Time,
    Load(u32),
    Param(u32),
    Un(UnaryOp, u32),
    Bin(BinaryOp, u32, u32),
    Cmp(CmpOp, u32, u32),
    And(u32, u32),
    Or(u32, u32),
    Not(u32),
    Select(u32, u32, u32),
    Call3(Builtin3, u32, u32, u32),
}

impl VNode {
    /// Operand value ids (up to 3).
    pub(crate) fn operands(&self) -> ([u32; 3], usize) {
        match *self {
            VNode::Const(_) | VNode::Time | VNode::Load(_) | VNode::Param(_) => ([0; 3], 0),
            VNode::Un(_, a) | VNode::Not(a) => ([a, 0, 0], 1),
            VNode::Bin(_, a, b) | VNode::Cmp(_, a, b) | VNode::And(a, b) | VNode::Or(a, b) => {
                ([a, b, 0], 2)
            }
            VNode::Select(a, b, c) | VNode::Call3(_, a, b, c) => ([a, b, c], 3),
        }
    }
}

/// Builds one value DAG for a whole system of expressions, then lowers it
/// into optimized [`SystemProgram`]s (one per output set).
///
/// # Examples
///
/// ```
/// use ark_expr::{parse_expr, ProgramBuilder, SlotResolver};
/// let mut pb = ProgramBuilder::new();
/// let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
/// let a = pb.add_expr(&parse_expr("2*var(x) + 1")?, &resolve)?;
/// let b = pb.add_expr(&parse_expr("1 + 2*var(x)")?, &resolve)?;
/// let prog = pb.finish(&[a, b], 0);
/// let mut scratch = ark_expr::LaneScratch::<1>::default();
/// let mut out = [0.0; 2];
/// prog.eval_into(&mut scratch, &[3.0], 0.0, &[], &mut out);
/// assert_eq!(out, [7.0, 7.0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default, Clone)]
pub struct ProgramBuilder {
    pub(crate) nodes: Vec<VNode>,
    dedup: HashMap<VNode, u32>,
    /// Per-value: state-independent (no `Load` in its dependency cone)?
    is_static: Vec<bool>,
    /// Per-value: does `Time` appear in its dependency cone?
    uses_time: Vec<bool>,
}

impl ProgramBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct values interned so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Intern a constant value.
    pub fn constant(&mut self, x: f64) -> ValueId {
        self.intern(VNode::Const(x.to_bits()))
    }

    /// Intern a load from input slot `slot`.
    pub fn load(&mut self, slot: usize) -> ValueId {
        self.intern(VNode::Load(slot as u32))
    }

    /// Intern a load from parameter slot `slot`.
    pub fn param(&mut self, slot: usize) -> ValueId {
        self.intern(VNode::Param(slot as u32))
    }

    pub(crate) fn intern(&mut self, node: VNode) -> ValueId {
        // Constant folding at intern time uses the *same* f64 operations the
        // interpreter would run, so folded results are bit-identical.
        let node = match node {
            VNode::Un(op, a) => match self.nodes[a as usize] {
                VNode::Const(x) => VNode::Const(op.apply(f64::from_bits(x)).to_bits()),
                _ => node,
            },
            VNode::Bin(op, a, b) => match (self.nodes[a as usize], self.nodes[b as usize]) {
                (VNode::Const(x), VNode::Const(y)) => {
                    VNode::Const(op.apply(f64::from_bits(x), f64::from_bits(y)).to_bits())
                }
                _ => node,
            },
            n => n,
        };
        if let Some(&id) = self.dedup.get(&node) {
            return ValueId(id);
        }
        let id = self.nodes.len() as u32;
        let (is_static, uses_time) = match node {
            VNode::Load(_) => (false, false),
            VNode::Time => (true, true),
            VNode::Const(_) | VNode::Param(_) => (true, false),
            _ => {
                let (ops, n) = node.operands();
                (
                    ops[..n].iter().all(|&o| self.is_static[o as usize]),
                    ops[..n].iter().any(|&o| self.uses_time[o as usize]),
                )
            }
        };
        self.nodes.push(node);
        self.is_static.push(is_static);
        self.uses_time.push(uses_time);
        self.dedup.insert(node, id);
        ValueId(id)
    }

    /// Lower an expression into the DAG, returning its value. Structurally
    /// identical subexpressions (across *all* `add_expr` calls) are shared.
    ///
    /// # Errors
    ///
    /// A [`LowerError`] for any leaf that cannot be lowered: unresolved
    /// variables, attributes without a parameter slot, arguments, and
    /// unsupported calls.
    pub fn add_expr(
        &mut self,
        expr: &Expr,
        resolve: &impl ProgramResolver,
    ) -> Result<ValueId, LowerError> {
        Ok(match expr {
            Expr::Const(x) => self.constant(*x),
            Expr::Time => self.intern(VNode::Time),
            Expr::Var(n) => match resolve.var(n) {
                Some(VarRef::Slot(s)) => self.load(s),
                Some(VarRef::Value(v)) => v,
                None => return Err(LowerError::UnresolvedVar(n.clone())),
            },
            Expr::Attr(n, a) => match resolve.attr(n, a) {
                Some(slot) => self.param(slot),
                None => return Err(LowerError::UnresolvedAttr(n.clone(), a.clone())),
            },
            Expr::Arg(n) => return Err(LowerError::UnresolvedArg(n.clone())),
            Expr::CallAttr(n, a, _) => {
                return Err(LowerError::UnresolvedAttr(n.clone(), a.clone()))
            }
            Expr::Unary(op, a) => {
                let ra = self.add_expr(a, resolve)?.0;
                self.intern(VNode::Un(*op, ra))
            }
            Expr::Binary(op, a, b) => {
                let ra = self.add_expr(a, resolve)?.0;
                let rb = self.add_expr(b, resolve)?.0;
                self.intern(VNode::Bin(*op, ra, rb))
            }
            Expr::Call(name, args) => {
                let builtin = match name.as_str() {
                    "pulse" => Some(Builtin3::Pulse),
                    "square_pulse" => Some(Builtin3::SquarePulse),
                    "smoothstep" => Some(Builtin3::Smoothstep),
                    _ => None,
                };
                if let Some(b3) = builtin {
                    if args.len() != 3 {
                        return Err(LowerError::UnsupportedCall(name.clone()));
                    }
                    let ra = self.add_expr(&args[0], resolve)?.0;
                    let rb = self.add_expr(&args[1], resolve)?.0;
                    let rc = self.add_expr(&args[2], resolve)?.0;
                    self.intern(VNode::Call3(b3, ra, rb, rc))
                } else {
                    let op = match name.as_str() {
                        "min" => Some(BinaryOp::Min),
                        "max" => Some(BinaryOp::Max),
                        "pow" => Some(BinaryOp::Pow),
                        _ => None,
                    };
                    match op {
                        Some(op) if args.len() == 2 => {
                            let ra = self.add_expr(&args[0], resolve)?.0;
                            let rb = self.add_expr(&args[1], resolve)?.0;
                            self.intern(VNode::Bin(op, ra, rb))
                        }
                        _ => return Err(LowerError::UnsupportedCall(name.clone())),
                    }
                }
            }
            Expr::If(c, t, e) => {
                let rc = self.add_bool(c, resolve)?.0;
                let rt = self.add_expr(t, resolve)?.0;
                let re = self.add_expr(e, resolve)?.0;
                self.intern(VNode::Select(rc, rt, re))
            }
        })
    }

    fn add_bool(
        &mut self,
        expr: &BoolExpr,
        resolve: &impl ProgramResolver,
    ) -> Result<ValueId, LowerError> {
        Ok(match expr {
            BoolExpr::Lit(b) => self.constant(if *b { 1.0 } else { 0.0 }),
            BoolExpr::Cmp(op, a, b) => {
                let ra = self.add_expr(a, resolve)?.0;
                let rb = self.add_expr(b, resolve)?.0;
                self.intern(VNode::Cmp(*op, ra, rb))
            }
            BoolExpr::And(a, b) => {
                let ra = self.add_bool(a, resolve)?.0;
                let rb = self.add_bool(b, resolve)?.0;
                self.intern(VNode::And(ra, rb))
            }
            BoolExpr::Or(a, b) => {
                let ra = self.add_bool(a, resolve)?.0;
                let rb = self.add_bool(b, resolve)?.0;
                self.intern(VNode::Or(ra, rb))
            }
            BoolExpr::Not(a) => {
                let ra = self.add_bool(a, resolve)?.0;
                self.intern(VNode::Not(ra))
            }
            BoolExpr::Pred(e) => {
                let re = self.add_expr(e, resolve)?.0;
                let zero = self.constant(0.0);
                self.intern(VNode::Cmp(CmpOp::Ne, re, zero.0))
            }
        })
    }

    /// Lower the DAG into an optimized [`SystemProgram`] computing the given
    /// outputs. Only values reachable from `outputs` are emitted (dead code
    /// eliminated); the builder is untouched, so several programs with
    /// different output sets can be finished from one DAG.
    ///
    /// `n_params` sizes the parameter segment; every slot returned by the
    /// resolver during `add_expr` must be `< n_params`.
    pub fn finish(&self, outputs: &[ValueId], n_params: usize) -> SystemProgram {
        let n = self.nodes.len();
        // --- Reachability from the outputs (dead-code elimination). ---
        let mut reachable = vec![false; n];
        let mut stack: Vec<u32> = outputs.iter().map(|v| v.0).collect();
        while let Some(v) = stack.pop() {
            if reachable[v as usize] {
                continue;
            }
            reachable[v as usize] = true;
            let (ops, k) = self.nodes[v as usize].operands();
            stack.extend_from_slice(&ops[..k]);
        }
        // --- Use counts among reachable values (outputs count as uses). ---
        let mut uses = vec![0u32; n];
        for (i, node) in self.nodes.iter().enumerate() {
            if !reachable[i] {
                continue;
            }
            let (ops, k) = node.operands();
            for &o in &ops[..k] {
                uses[o as usize] += 1;
            }
        }
        let mut is_output = vec![false; n];
        for v in outputs {
            uses[v.0 as usize] += 1;
            is_output[v.0 as usize] = true;
        }
        // --- Segment classification. ---
        // 0 = pool (consts + params: registers filled outside evaluation),
        // 1 = parameter prologue (static, time-free: recomputed only when
        //     the parameter vector changes — once per fabricated instance),
        // 2 = time prologue (static but time-dependent: recomputed when
        //     `time` or the parameters change),
        // 3 = body (state-dependent: every call).
        let seg = |i: usize| -> u8 {
            match self.nodes[i] {
                VNode::Const(_) | VNode::Param(_) => 0,
                _ if self.is_static[i] && !self.uses_time[i] => 1,
                _ if self.is_static[i] => 2,
                _ => 3,
            }
        };
        // --- Fusion selection. ---
        // A single-use multiply feeding an add/sub fuses into the consumer;
        // a single-use load feeding a negation fuses into `NegLoad`. The
        // fused arithmetic is performed in the same order as the unfused
        // form, so results are bit-identical. Fusing across segments would
        // move work out of its cache tier, so both sides must match.
        let fusible = |i: usize, consumer_seg: u8| -> bool {
            reachable[i] && uses[i] == 1 && !is_output[i] && seg(i) == consumer_seg
        };
        #[derive(Clone, Copy)]
        enum FOp {
            Plain(VNode),
            MulAdd(u32, u32, u32), // a*b + c
            AddMul(u32, u32, u32), // a + b*c
            MulSub(u32, u32, u32), // a*b - c
            SubMul(u32, u32, u32), // a - b*c
            NegLoad(u32),          // -slots[s]
        }
        let mut fused = vec![false; n];
        // Schedule of (dest value, op). Ascending id is a topological order
        // (operands intern before their consumers); prologue tiers first,
        // then body, preserves dependencies because static values only
        // depend on static values and time-free values only on time-free
        // values.
        let mut schedule: Vec<(u32, FOp)> = Vec::new();
        for pass_seg in [1u8, 2u8, 3u8] {
            #[allow(clippy::needless_range_loop)]
            for i in 0..n {
                if !reachable[i] || seg(i) != pass_seg {
                    continue;
                }
                let op = match self.nodes[i] {
                    VNode::Bin(BinaryOp::Add, a, b) => {
                        if let VNode::Bin(BinaryOp::Mul, x, y) = self.nodes[a as usize] {
                            if fusible(a as usize, pass_seg) {
                                fused[a as usize] = true;
                                schedule.push((i as u32, FOp::MulAdd(x, y, b)));
                                continue;
                            }
                        }
                        if let VNode::Bin(BinaryOp::Mul, x, y) = self.nodes[b as usize] {
                            if fusible(b as usize, pass_seg) {
                                fused[b as usize] = true;
                                schedule.push((i as u32, FOp::AddMul(a, x, y)));
                                continue;
                            }
                        }
                        FOp::Plain(self.nodes[i])
                    }
                    VNode::Bin(BinaryOp::Sub, a, b) => {
                        if let VNode::Bin(BinaryOp::Mul, x, y) = self.nodes[a as usize] {
                            if fusible(a as usize, pass_seg) {
                                fused[a as usize] = true;
                                schedule.push((i as u32, FOp::MulSub(x, y, b)));
                                continue;
                            }
                        }
                        if let VNode::Bin(BinaryOp::Mul, x, y) = self.nodes[b as usize] {
                            if fusible(b as usize, pass_seg) {
                                fused[b as usize] = true;
                                schedule.push((i as u32, FOp::SubMul(a, x, y)));
                                continue;
                            }
                        }
                        FOp::Plain(self.nodes[i])
                    }
                    VNode::Un(UnaryOp::Neg, a) => {
                        if let VNode::Load(s) = self.nodes[a as usize] {
                            if fusible(a as usize, pass_seg) {
                                fused[a as usize] = true;
                                schedule.push((i as u32, FOp::NegLoad(s)));
                                continue;
                            }
                        }
                        FOp::Plain(self.nodes[i])
                    }
                    node => FOp::Plain(node),
                };
                schedule.push((i as u32, op));
            }
        }
        // Fused values were scheduled before their consumer marked them;
        // drop their standalone entries.
        schedule.retain(|&(v, _)| !fused[v as usize]);
        let n_pprologue = schedule
            .iter()
            .filter(|&&(v, _)| seg(v as usize) == 1)
            .count();
        let n_tprologue = schedule
            .iter()
            .filter(|&&(v, _)| seg(v as usize) == 2)
            .count();
        let n_prologue = n_pprologue + n_tprologue;
        // --- Constant pool and register layout. ---
        let mut reg_of: Vec<u32> = vec![u32::MAX; n];
        let mut consts: Vec<f64> = Vec::new();
        for i in 0..n {
            if reachable[i] && !fused[i] {
                if let VNode::Const(bits) = self.nodes[i] {
                    reg_of[i] = consts.len() as u32;
                    consts.push(f64::from_bits(bits));
                }
            }
        }
        let n_consts = consts.len() as u32;
        for i in 0..n {
            if reachable[i] && !fused[i] {
                if let VNode::Param(p) = self.nodes[i] {
                    debug_assert!((p as usize) < n_params, "parameter slot out of range");
                    reg_of[i] = n_consts + p;
                }
            }
        }
        let mut next_reg = n_consts + n_params as u32;
        // Prologue registers are permanent (they must survive body runs that
        // skip the prologue), so they are allocated without reuse.
        for &(v, _) in schedule.iter().take(n_prologue) {
            reg_of[v as usize] = next_reg;
            next_reg += 1;
        }
        // --- Liveness for body registers. ---
        let fop_operands = |op: &FOp| -> ([u32; 3], usize) {
            match *op {
                FOp::Plain(node) => node.operands(),
                FOp::MulAdd(a, b, c)
                | FOp::AddMul(a, b, c)
                | FOp::MulSub(a, b, c)
                | FOp::SubMul(a, b, c) => ([a, b, c], 3),
                FOp::NegLoad(_) => ([0; 3], 0),
            }
        };
        let mut last_use = vec![0usize; n];
        for (pos, (_, op)) in schedule.iter().enumerate() {
            let (ops, k) = fop_operands(op);
            for &o in &ops[..k] {
                last_use[o as usize] = pos;
            }
        }
        for v in outputs {
            last_use[v.0 as usize] = usize::MAX;
        }
        let mut free: Vec<u32> = Vec::new();
        let body_base = next_reg;
        for (pos, &(v, op)) in schedule.iter().enumerate().skip(n_prologue) {
            // Release operand registers whose value dies here (body-allocated
            // registers only; pool/prologue registers are permanent). The
            // interpreter reads all operands before writing the destination,
            // so the destination may reuse an operand's register.
            let (ops, k) = fop_operands(&op);
            for &o in &ops[..k] {
                let r = reg_of[o as usize];
                if r >= body_base && last_use[o as usize] == pos && !free.contains(&r) {
                    free.push(r);
                }
            }
            reg_of[v as usize] = free.pop().unwrap_or_else(|| {
                let r = next_reg;
                next_reg += 1;
                r
            });
        }
        // --- Emit the final instruction stream with resolved registers. ---
        let emit = |&(v, ref op): &(u32, FOp)| -> PInstr {
            let r = |o: u32| reg_of[o as usize];
            let pop = match *op {
                FOp::MulAdd(a, b, c) => POp::MulAdd(r(a), r(b), r(c)),
                FOp::AddMul(a, b, c) => POp::AddMul(r(a), r(b), r(c)),
                FOp::MulSub(a, b, c) => POp::MulSub(r(a), r(b), r(c)),
                FOp::SubMul(a, b, c) => POp::SubMul(r(a), r(b), r(c)),
                FOp::NegLoad(s) => POp::NegLoad(s),
                FOp::Plain(node) => match node {
                    VNode::Const(_) | VNode::Param(_) => unreachable!("pool values not scheduled"),
                    VNode::Time => POp::Time,
                    VNode::Load(s) => POp::Load(s),
                    VNode::Un(op, a) => POp::Un(op, r(a)),
                    VNode::Bin(op, a, b) => POp::Bin(op, r(a), r(b)),
                    VNode::Cmp(op, a, b) => POp::Cmp(op, r(a), r(b)),
                    VNode::And(a, b) => POp::And(r(a), r(b)),
                    VNode::Or(a, b) => POp::Or(r(a), r(b)),
                    VNode::Not(a) => POp::Not(r(a)),
                    VNode::Select(a, b, c) => POp::Select(r(a), r(b), r(c)),
                    VNode::Call3(b3, a, b, c) => POp::Call3(b3, r(a), r(b), r(c)),
                },
            };
            PInstr {
                dest: reg_of[v as usize],
                op: pop,
            }
        };
        let pprologue: Vec<PInstr> = schedule[..n_pprologue].iter().map(emit).collect();
        let tprologue: Vec<PInstr> = schedule[n_pprologue..n_prologue].iter().map(emit).collect();
        let body: Vec<PInstr> = schedule[n_prologue..].iter().map(emit).collect();
        // The interpreter loop reads and writes registers unchecked, so
        // this range check runs in every build profile: it is what makes
        // that loop sound. The segments stay `pub(crate)` for the analysis
        // tests, which corrupt `body`/`pprologue` of a finished program to
        // exercise the verifier; such a program must never be evaluated.
        let mut min_slots = 0;
        for instr in pprologue.iter().chain(&tprologue).chain(&body) {
            let (ops, k) = instr.op.operands();
            assert!(
                instr.dest < next_reg && ops[..k].iter().all(|&r| r < next_reg),
                "ProgramBuilder::finish emitted a register out of range: {instr:?}"
            );
            if let Some(s) = instr.op.state_slot() {
                min_slots = min_slots.max(s as usize + 1);
            }
        }
        static NEXT_ID: AtomicU64 = AtomicU64::new(1);
        let prog = SystemProgram {
            consts,
            n_params: n_params as u32,
            pprologue,
            tprologue,
            body,
            outputs: outputs.iter().map(|v| reg_of[v.0 as usize]).collect(),
            n_regs: next_reg,
            min_slots,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            backend: Backend::from_env(),
            native: OnceLock::new(),
            native_other: Default::default(),
        };
        // Every builder-emitted program must satisfy the structural
        // invariants the downstream passes (interpreter caching, codegen,
        // differentiation) rely on. Debug builds pay for the check on
        // every compile; release builds keep `verify()` available but
        // opt-in.
        #[cfg(debug_assertions)]
        if let Err(e) = prog.verify() {
            panic!("ProgramBuilder::finish emitted an invalid program: {e}");
        }
        prog
    }
}

/// Adapter implementing [`ProgramResolver`] from a slot-lookup closure
/// (parameterless programs).
pub struct SlotResolver<F>(pub F);

impl<F: Fn(&str) -> Option<usize>> ProgramResolver for SlotResolver<F> {
    fn var(&self, name: &str) -> Option<VarRef> {
        (self.0)(name).map(VarRef::Slot)
    }
}

/// A fused-program instruction: compute `op`, store into register `dest`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PInstr {
    pub(crate) dest: u32,
    pub(crate) op: POp,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum POp {
    Time,
    Load(u32),
    NegLoad(u32),
    Un(UnaryOp, u32),
    Bin(BinaryOp, u32, u32),
    MulAdd(u32, u32, u32),
    AddMul(u32, u32, u32),
    MulSub(u32, u32, u32),
    SubMul(u32, u32, u32),
    Cmp(CmpOp, u32, u32),
    And(u32, u32),
    Or(u32, u32),
    Not(u32),
    Select(u32, u32, u32),
    Call3(Builtin3, u32, u32, u32),
}

impl POp {
    /// Register operands (`Load`/`NegLoad` slot indices are state-vector
    /// indices, not registers, and are excluded).
    pub(crate) fn operands(&self) -> ([u32; 3], usize) {
        match *self {
            POp::Time | POp::Load(_) | POp::NegLoad(_) => ([0; 3], 0),
            POp::Un(_, a) | POp::Not(a) => ([a, 0, 0], 1),
            POp::Bin(_, a, b) | POp::Cmp(_, a, b) | POp::And(a, b) | POp::Or(a, b) => {
                ([a, b, 0], 2)
            }
            POp::MulAdd(a, b, c)
            | POp::AddMul(a, b, c)
            | POp::MulSub(a, b, c)
            | POp::SubMul(a, b, c)
            | POp::Select(a, b, c)
            | POp::Call3(_, a, b, c) => ([a, b, c], 3),
        }
    }

    /// The state slot the instruction loads, if any.
    pub(crate) fn state_slot(&self) -> Option<u32> {
        match *self {
            POp::Load(s) | POp::NegLoad(s) => Some(s),
            _ => None,
        }
    }
}

/// The lane widths evaluation supports — **the** authoritative set: `1`
/// (the scalar case) plus the widths lane-parallel ensembles group
/// instances by. Every width here runs natively under
/// [`Backend::Native`]: the default set of [`default_lanes`] is built
/// with the program's kernel library, any other width in its own
/// one-width library the first time it runs. `ark_sim` checks every lane
/// width it is given against this set.
pub const SUPPORTED_LANES: [usize; 3] = [1, 4, 8];

/// The lane width lane-parallel ensembles use unless `ARK_LANES` or an
/// explicit width says otherwise.
pub const DEFAULT_LANES: usize = 4;

/// The process's default lane width: `ARK_LANES` if set, else
/// [`DEFAULT_LANES`]. Read once per process; `ark_sim`'s `Ensemble::new`
/// groups by it, and native kernel libraries are built for widths `1` and
/// this one.
///
/// # Panics
///
/// Panics when `ARK_LANES` is not one of [`SUPPORTED_LANES`] — silently
/// coercing a typo'd width to the default would make e.g. a CI lane-matrix
/// entry pass while testing a width it never ran.
pub fn default_lanes() -> usize {
    static LANES: OnceLock<usize> = OnceLock::new();
    *LANES.get_or_init(|| match std::env::var("ARK_LANES") {
        Err(_) => DEFAULT_LANES,
        Ok(v) => match v.parse::<usize>() {
            Ok(l) if SUPPORTED_LANES.contains(&l) => l,
            Ok(l) => panic!(
                "ARK_LANES={v:?}: unsupported lane width {l}: the laned interpreter is \
                 compiled for widths {SUPPORTED_LANES:?}"
            ),
            Err(e) => panic!("ARK_LANES={v:?}: {e}"),
        },
    })
}

/// Per-worker struct-of-arrays register file for [`SystemProgram`]
/// evaluation: register `r` holds `L` values, one per ensemble instance.
///
/// There is one interpreter, generic over the lane width: it executes the
/// program's instruction stream once and applies every operation
/// elementwise across the `L` lanes — plain `[f64; L]` loops the compiler
/// auto-vectorizes — so one instruction dispatch serves `L` fabricated
/// instances. `LaneScratch<1>` is the scalar case, behind
/// [`SystemProgram::eval_into`] and [`SystemProgram::eval_bound`]; wider
/// scratches serve lane-parallel ensembles through
/// [`SystemProgram::eval_lanes_bound`]. Per-lane results are bit-identical
/// across widths because each lane performs exactly the same operation
/// sequence.
///
/// One scratch serves programs of any size (buffers grow on demand) and is
/// automatically re-primed when handed to a different program; keeping one
/// scratch per program avoids re-priming the constant pool.
#[derive(Debug, Clone)]
pub struct LaneScratch<const L: usize> {
    regs: Vec<[f64; L]>,
    /// The program this scratch is currently primed for.
    ready_for: Option<u64>,
    params_set: bool,
    /// Parameter-prologue results are valid for the bound parameters.
    pprologue_run: bool,
    has_time: bool,
    last_time: u64,
    /// Caller promise: the next evaluation repeats the previous `time` bit
    /// for bit, so the time-prologue cache needs no revalidation.
    hint_same_time: bool,
}

impl<const L: usize> Default for LaneScratch<L> {
    fn default() -> Self {
        LaneScratch {
            regs: Vec::new(),
            ready_for: None,
            params_set: false,
            pprologue_run: false,
            has_time: false,
            last_time: 0,
            hint_same_time: false,
        }
    }
}

impl<const L: usize> LaneScratch<L> {
    /// The program id this scratch is currently primed for, if any.
    pub fn program_id(&self) -> Option<u64> {
        self.ready_for
    }

    /// Promise that the next evaluation through this scratch uses the same
    /// `time` (same bit pattern) as the previous one — the solver-side
    /// stage hint (RK4 stages 2/3, Dormand–Prince stages 6/7). The next
    /// evaluation then skips even the revalidation of the time-prologue
    /// cache. Consumed by exactly one evaluation. A *broken* promise makes
    /// that evaluation read stale time-prologue values (well-defined but
    /// wrong numbers — debug builds assert the time matched), so only issue
    /// it when the repeated `t` is computed bit-identically.
    pub fn hint_same_time(&mut self) {
        self.hint_same_time = true;
    }
}

/// A whole-system register program: optimized instruction stream plus
/// constant pool, parameter segment, and output map. Immutable and
/// `Send + Sync`; per-thread mutable state lives in a [`LaneScratch`].
///
/// Built by [`ProgramBuilder::finish`]; see the [module docs](self) for the
/// optimization pipeline and the bit-identity guarantee.
#[derive(Debug, Clone)]
pub struct SystemProgram {
    consts: Vec<f64>,
    n_params: u32,
    /// Static, time-free instructions: run once per parameter binding.
    pub(crate) pprologue: Vec<PInstr>,
    /// Static, time-dependent instructions: run when `time` changes.
    pub(crate) tprologue: Vec<PInstr>,
    pub(crate) body: Vec<PInstr>,
    /// Register of each output, in output order.
    outputs: Vec<u32>,
    n_regs: u32,
    /// One past the highest `Load`/`NegLoad` slot: the shortest `slots`
    /// an evaluation accepts.
    min_slots: usize,
    /// Unique id used to key scratch priming.
    id: u64,
    /// Which engine runs the instruction stream ([`Backend::Native`] falls
    /// back to the interpreter when codegen is unavailable).
    backend: Backend,
    /// Lazily prepared native kernel library at the default width set
    /// (`1` and [`default_lanes`]): unset until first requested, then
    /// `Ok(kernel)` or `Err(reason)` (codegen failed — interpret forever,
    /// with the cached reason observable via
    /// [`SystemProgram::native_status`]). Clones share the prepared slot.
    native: KernelSlot,
    /// One-width libraries for the widths outside the default set, by
    /// position in [`SUPPORTED_LANES`], each prepared the first time its
    /// width runs.
    native_other: [KernelSlot; SUPPORTED_LANES.len()],
}

/// A lazily prepared native kernel library, or why preparing it failed.
type KernelSlot = OnceLock<Result<Arc<NativeKernel>, CodegenError>>;

impl SystemProgram {
    /// Unique identity of this program (scratch priming key). Clones share
    /// the id — they have identical constant pools and layouts.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of pooled constants (zero interpreted instructions each).
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Size of the parameter segment.
    pub fn param_count(&self) -> usize {
        self.n_params as usize
    }

    /// Instructions run only when `time` or the parameters change
    /// (both prologue tiers).
    pub fn prologue_len(&self) -> usize {
        self.pprologue.len() + self.tprologue.len()
    }

    /// Instructions run only when the *parameter binding* changes — once
    /// per fabricated instance in an ensemble.
    pub fn param_prologue_len(&self) -> usize {
        self.pprologue.len()
    }

    /// Instructions run on every evaluation.
    pub fn body_len(&self) -> usize {
        self.body.len()
    }

    /// Total interpreted instructions for a cold evaluation
    /// (prologue tiers + body).
    pub fn len(&self) -> usize {
        self.pprologue.len() + self.tprologue.len() + self.body.len()
    }

    /// True when the program computes its outputs without any instructions
    /// (all outputs are pooled constants or parameters).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of outputs.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Size of the register file (constant pool + parameters + prologue +
    /// reused body registers).
    pub fn register_count(&self) -> usize {
        self.n_regs as usize
    }

    /// The constant pool, for the analysis passes (registers `[0, n)` are
    /// primed with these values).
    pub(crate) fn const_pool(&self) -> &[f64] {
        &self.consts
    }

    /// The output register map, for the analysis passes.
    pub(crate) fn output_regs(&self) -> &[u32] {
        &self.outputs
    }

    /// The requested execution backend for this program (defaulted from
    /// `ARK_BACKEND` at build time; see [`Backend::from_env`]).
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// Request an execution backend. Evaluation semantics are unchanged —
    /// [`Backend::Native`] is bit-identical to the interpreter and falls
    /// back to it silently when codegen is unavailable.
    pub fn set_backend(&mut self, backend: Backend) {
        if self.backend != backend {
            self.backend = backend;
            self.native = OnceLock::new();
            self.native_other = Default::default();
        }
    }

    /// Whether evaluations actually run native code: the backend is
    /// [`Backend::Native`] *and* the default-width-set kernel library
    /// could be prepared. Triggers (and waits for) its one-time
    /// preparation if needed.
    pub fn native_active(&self) -> bool {
        self.native_kernel().is_some()
    }

    /// Observable state of the default-width-set kernel library: not
    /// requested, active, or fallen back to the interpreter with the cached
    /// [`FallbackReason`](crate::FallbackReason). Triggers (and waits for)
    /// the one-time kernel preparation if needed, like
    /// [`SystemProgram::native_active`].
    pub fn native_status(&self) -> NativeStatus {
        if self.backend != Backend::Native {
            return NativeStatus::NotRequested;
        }
        match self.prepared() {
            Ok(_) => NativeStatus::Active,
            Err(e) => NativeStatus::Fallback(e.clone()),
        }
    }

    /// The default-width-set kernel library, prepared at most once per
    /// program (failure is cached as "interpret forever" together with its
    /// reason, so a missing toolchain costs one probe).
    fn prepared(&self) -> &Result<Arc<NativeKernel>, CodegenError> {
        self.native
            .get_or_init(|| CodegenCache::shared().prepare(self).map(|(k, _)| k))
    }

    /// The native kernel to use, if the backend requests one and codegen
    /// succeeded.
    fn native_kernel(&self) -> Option<&NativeKernel> {
        if self.backend != Backend::Native {
            return None;
        }
        self.prepared().as_ref().ok().map(|k| &**k)
    }

    /// The native kernel library for a width-`L` evaluation over `n_slots`
    /// input slots: the default-width-set library when it holds `L`, else
    /// the one-width library for `L`, built the first time `L` runs. None
    /// (interpret, still bit-identical — that is the spec) when the default
    /// set failed to prepare, `L` is not one of [`SUPPORTED_LANES`], its
    /// library failed, or the kernel reads input slots past `n_slots`.
    fn native_for<const L: usize>(&self, n_slots: usize) -> Option<&NativeKernel> {
        let lib = self.native_kernel()?;
        let k = if lib.has_width(L) {
            lib
        } else {
            let w = SUPPORTED_LANES.iter().position(|&w| w == L)?;
            self.native_other[w]
                .get_or_init(|| {
                    CodegenCache::shared()
                        .prepare_widths(self, &[L])
                        .map(|(k, _)| k)
                })
                .as_ref()
                .ok()?
        };
        Some(k).filter(|k| n_slots >= k.min_slots())
    }

    /// Prime `scratch` for this program if it is not already (constant
    /// pool splatted across all lanes).
    fn ensure_lanes<const L: usize>(&self, scratch: &mut LaneScratch<L>) {
        if scratch.ready_for == Some(self.id) {
            return;
        }
        if scratch.regs.len() < self.n_regs as usize {
            scratch.regs.resize(self.n_regs as usize, [0.0; L]);
        }
        for (r, &c) in scratch.regs.iter_mut().zip(&self.consts) {
            *r = [c; L];
        }
        scratch.ready_for = Some(self.id);
        scratch.params_set = false;
        scratch.pprologue_run = false;
        scratch.has_time = false;
        scratch.hint_same_time = false;
    }

    /// Bind a parameter vector for subsequent evaluations through `scratch`
    /// — the one-lane case of [`SystemProgram::set_params_lanes`]. A no-op
    /// when the exact same parameter bits are already bound, so the
    /// prologue cache survives repeated binds within one instance.
    ///
    /// # Panics
    ///
    /// Panics if `params.len()` differs from [`SystemProgram::param_count`].
    pub fn set_params(&self, scratch: &mut LaneScratch<1>, params: &[f64]) {
        self.set_params_lanes(scratch, &[params]);
    }

    /// Evaluate the program: `slots` is the dynamic input vector (the state),
    /// `time` the simulation time, and `out` receives one value per output.
    /// Parametric programs (re)bind `params` first (a bitwise no-op check
    /// when unchanged).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the output count, a `Load` slot is out
    /// of bounds of `slots`, or `params` has the wrong length.
    pub fn eval_into(
        &self,
        scratch: &mut LaneScratch<1>,
        slots: &[f64],
        time: f64,
        params: &[f64],
        out: &mut [f64],
    ) {
        if self.n_params > 0 {
            self.set_params(scratch, params);
        }
        self.eval_bound(scratch, slots, time, out);
    }

    /// Evaluate without touching the parameter binding — the hot-loop form
    /// behind an exclusive binding (the caller guarantees, typically via
    /// Rust's borrow rules, that [`SystemProgram::set_params`] was called on
    /// this scratch and the parameters have not changed since). Skips the
    /// per-call O(params) re-validation of [`SystemProgram::eval_into`].
    /// The one-lane case of [`SystemProgram::eval_lanes_bound`].
    ///
    /// # Panics
    ///
    /// As [`SystemProgram::eval_into`], plus if parameters are required but
    /// unbound.
    pub fn eval_bound(
        &self,
        scratch: &mut LaneScratch<1>,
        slots: &[f64],
        time: f64,
        out: &mut [f64],
    ) {
        self.eval_lanes_bound(scratch, one_lane(slots), time, one_lane_mut(out));
    }

    /// Bind one parameter vector per lane for subsequent evaluations. A
    /// no-op when the exact same parameter bits are already bound in every
    /// lane, so the prologue cache survives repeated binds of one group.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != L` or any lane's vector length differs
    /// from [`SystemProgram::param_count`].
    pub fn set_params_lanes<const L: usize>(
        &self,
        scratch: &mut LaneScratch<L>,
        params: &[&[f64]],
    ) {
        assert_eq!(params.len(), L, "one parameter vector per lane");
        for p in params {
            assert_eq!(
                p.len(),
                self.n_params as usize,
                "parameter vector length mismatch"
            );
        }
        self.ensure_lanes(scratch);
        let base = self.consts.len();
        let seg = &mut scratch.regs[base..base + self.n_params as usize];
        let unchanged = scratch.params_set
            && params.iter().enumerate().all(|(l, p)| {
                seg.iter()
                    .zip(*p)
                    .all(|(r, v)| r[l].to_bits() == v.to_bits())
            });
        if !unchanged {
            for (l, p) in params.iter().enumerate() {
                for (r, &v) in seg.iter_mut().zip(*p) {
                    r[l] = v;
                }
            }
            scratch.params_set = true;
            scratch.pprologue_run = false;
            scratch.has_time = false;
            scratch.hint_same_time = false;
        }
    }

    /// Evaluate `L` instances at once: `slots` is the struct-of-arrays
    /// state (`slots[slot][lane]`), `out` receives one `[f64; L]` per
    /// output. Parameters must have been bound with
    /// [`SystemProgram::set_params_lanes`] (the caller guarantees, typically
    /// via Rust's borrow rules, that they have not changed since).
    ///
    /// Lane `l`'s outputs are bit-identical to a one-lane evaluation with
    /// lane `l`'s parameters and state: both prologue tiers and the body
    /// run the same operations in the same order per lane, only batched
    /// `L` instances wide.
    ///
    /// # Panics
    ///
    /// Panics on unbound parameters, an out-of-range `Load` slot, or an
    /// undersized output buffer.
    pub fn eval_lanes_bound<const L: usize>(
        &self,
        scratch: &mut LaneScratch<L>,
        slots: &[[f64; L]],
        time: f64,
        out: &mut [[f64; L]],
    ) {
        if self.n_params > 0 {
            assert!(
                scratch.ready_for == Some(self.id) && scratch.params_set,
                "parameters must be bound with set_params or set_params_lanes before evaluation"
            );
        } else {
            self.ensure_lanes(scratch);
        }
        // With `finish`'s range check, these bound every register and slot
        // the interpreter loop touches, so it runs unchecked.
        assert!(scratch.regs.len() >= self.n_regs as usize);
        assert!(
            slots.len() >= self.min_slots,
            "Load slot {} out of range of {} slots",
            self.min_slots - 1,
            slots.len()
        );
        // Bit-identical either way: the generated kernels perform
        // `exec_lanes`'s operation sequence per lane, so which engine runs
        // is unobservable in the results (only in the ns).
        let native = self.native_for::<L>(slots.len());
        if !scratch.pprologue_run {
            // Parameter-dependent, time-free values: once per binding, so
            // always interpreted; the kernel holds only the segments that
            // run per evaluation.
            // SAFETY: `finish` range-checked the segment's registers
            // against `n_regs`; the asserts above cover `regs` and `slots`.
            unsafe { run_instrs(&self.pprologue, &mut scratch.regs, slots, time) };
            scratch.pprologue_run = true;
            scratch.has_time = false;
            scratch.hint_same_time = false;
        }
        // A solver stage hint certifies the repeated time, skipping even
        // the bit-pattern revalidation of the time-prologue cache.
        let hinted = scratch.hint_same_time && scratch.has_time;
        scratch.hint_same_time = false;
        if hinted {
            debug_assert_eq!(
                scratch.last_time,
                time.to_bits(),
                "stage hint promised an identical time"
            );
        } else if !(scratch.has_time && scratch.last_time == time.to_bits()) {
            // Static, time-dependent values: one pass serves all lanes.
            self.run_segment(
                KernelSegment::TimePrologue,
                native,
                &mut scratch.regs,
                slots,
                time,
            );
            scratch.last_time = time.to_bits();
            scratch.has_time = true;
        }
        assert!(out.len() >= self.outputs.len(), "output buffer too short");
        self.run_segment(KernelSegment::Body, native, &mut scratch.regs, slots, time);
        for (o, &r) in out.iter_mut().zip(&self.outputs) {
            *o = scratch.regs[r as usize];
        }
    }

    /// Run segment `seg` over `regs`: through the native kernel when there
    /// is one, else through [`run_instrs`]. Only for
    /// [`SystemProgram::eval_lanes_bound`], after its asserts on `regs` and
    /// `slots`.
    #[inline(always)]
    fn run_segment<const L: usize>(
        &self,
        seg: KernelSegment,
        native: Option<&NativeKernel>,
        regs: &mut [[f64; L]],
        slots: &[[f64; L]],
        time: f64,
    ) {
        if let Some(k) = native {
            return k.run_lanes::<L>(seg, regs, slots, time);
        }
        let instrs = match seg {
            KernelSegment::TimePrologue => &self.tprologue,
            KernelSegment::Body => &self.body,
        };
        // SAFETY: as for the parameter prologue in `eval_lanes_bound`.
        unsafe { run_instrs(instrs, regs, slots, time) };
    }
}

/// `xs` as one-lane registers, for the scalar entry points.
fn one_lane(xs: &[f64]) -> &[[f64; 1]] {
    // SAFETY: `[f64; 1]` has the size and alignment of `f64`, and a slice
    // of `[f64; L]` is one contiguous buffer of `len * L` values — the
    // layout `NativeKernel::run_lanes` already relies on — so `xs` is
    // exactly `xs.len()` one-lane registers, borrowed for the same lifetime.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), xs.len()) }
}

/// Mutable twin of [`one_lane`].
fn one_lane_mut(xs: &mut [f64]) -> &mut [[f64; 1]] {
    // SAFETY: as in `one_lane`; the exclusive borrow of `xs` moves into
    // the result, so no alias outlives it.
    unsafe { std::slice::from_raw_parts_mut(xs.as_mut_ptr().cast(), xs.len()) }
}

/// Run `instrs` over `regs`, one [`exec_lanes`] per instruction, on the
/// build of the loop the CPU runs best: the AVX2 one where
/// `is_x86_feature_detected!` finds AVX2 (std caches the answer), else the
/// portable one. Nothing else selects a build.
///
/// # Safety
///
/// Every register an instruction names is `< regs.len()` and every
/// `Load`/`NegLoad` slot is `< slots.len()`.
#[inline(always)]
unsafe fn run_instrs<const L: usize>(
    instrs: &[PInstr],
    regs: &mut [[f64; L]],
    slots: &[[f64; L]],
    time: f64,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return run_instrs_avx2(instrs, regs, slots, time);
    }
    run_instrs_portable(instrs, regs, slots, time)
}

/// The interpreter loop, portable build. All operands of an instruction
/// are read before its `dest` is written.
///
/// # Safety
///
/// As [`run_instrs`].
#[inline(always)]
unsafe fn run_instrs_portable<const L: usize>(
    instrs: &[PInstr],
    regs: &mut [[f64; L]],
    slots: &[[f64; L]],
    time: f64,
) {
    for instr in instrs {
        let v = exec_lanes(&instr.op, regs, slots, time);
        *regs.get_unchecked_mut(instr.dest as usize) = v;
    }
}

/// The same loop compiled with AVX2, so a `[f64; 4]` lane operation is one
/// 256-bit instruction. It runs the same IEEE operations in the same order
/// with the same libm calls as the portable build, so the two agree bit
/// for bit, up to which NaN a `+` or `*` of two different NaNs returns
/// (IEEE 754 leaves that open, and LLVM may commute the operands). Never
/// add `fma` here: it would let LLVM fuse a multiply-then-add into one
/// rounding.
///
/// # Safety
///
/// As [`run_instrs`], on a CPU with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn run_instrs_avx2<const L: usize>(
    instrs: &[PInstr],
    regs: &mut [[f64; L]],
    slots: &[[f64; L]],
    time: f64,
) {
    run_instrs_portable(instrs, regs, slots, time)
}

/// Execute one instruction across `L` lanes: every lane performs exactly
/// the same arithmetic, in the same order, so lanes are bit-identical to
/// each other and to the native kernels. The explicit `for l in 0..L`
/// loops (rather than `std::array::from_fn`) plus `inline(always)` make
/// `L = 1` compile to plain scalar code and wider `L` to SIMD.
///
/// Registers and slots are read without bounds checks: this runs once per
/// instruction per evaluation, and [`ProgramBuilder::finish`]'s range
/// check with the once-per-call asserts of
/// [`SystemProgram::eval_lanes_bound`] already prove every index in range.
/// It is compiled twice, portable and AVX2 ([`run_instrs`] picks one by
/// CPU detection); `fma` must never be enabled for either build.
///
/// # Safety
///
/// Every register `op` reads is `< regs.len()`, and its `Load`/`NegLoad`
/// slot is `< slots.len()`.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn exec_lanes<const L: usize>(
    op: &POp,
    regs: &[[f64; L]],
    slots: &[[f64; L]],
    time: f64,
) -> [f64; L] {
    let reg = |r: u32| regs.get_unchecked(r as usize);
    let slot = |s: u32| slots.get_unchecked(s as usize);
    let bit = |b: bool| if b { 1.0 } else { 0.0 };
    let mut out = [0.0; L];
    match *op {
        POp::Time => out = [time; L],
        POp::Load(s) => out = *slot(s),
        POp::NegLoad(s) => {
            let a = slot(s);
            for l in 0..L {
                out[l] = -a[l];
            }
        }
        POp::Un(op, a) => {
            let a = reg(a);
            for l in 0..L {
                out[l] = op.apply(a[l]);
            }
        }
        POp::Bin(op, a, b) => {
            let (a, b) = (reg(a), reg(b));
            for l in 0..L {
                out[l] = op.apply(a[l], b[l]);
            }
        }
        POp::MulAdd(a, b, c) => {
            let (a, b, c) = (reg(a), reg(b), reg(c));
            for l in 0..L {
                out[l] = a[l] * b[l] + c[l];
            }
        }
        POp::AddMul(a, b, c) => {
            let (a, b, c) = (reg(a), reg(b), reg(c));
            for l in 0..L {
                out[l] = a[l] + b[l] * c[l];
            }
        }
        POp::MulSub(a, b, c) => {
            let (a, b, c) = (reg(a), reg(b), reg(c));
            for l in 0..L {
                out[l] = a[l] * b[l] - c[l];
            }
        }
        POp::SubMul(a, b, c) => {
            let (a, b, c) = (reg(a), reg(b), reg(c));
            for l in 0..L {
                out[l] = a[l] - b[l] * c[l];
            }
        }
        POp::Cmp(op, a, b) => {
            let (a, b) = (reg(a), reg(b));
            for l in 0..L {
                out[l] = bit(op.apply(a[l], b[l]));
            }
        }
        POp::And(a, b) => {
            let (a, b) = (reg(a), reg(b));
            for l in 0..L {
                out[l] = bit(a[l] > 0.5 && b[l] > 0.5);
            }
        }
        POp::Or(a, b) => {
            let (a, b) = (reg(a), reg(b));
            for l in 0..L {
                out[l] = bit(a[l] > 0.5 || b[l] > 0.5);
            }
        }
        POp::Not(a) => {
            let a = reg(a);
            for l in 0..L {
                out[l] = if a[l] > 0.5 { 0.0 } else { 1.0 };
            }
        }
        POp::Select(c, t, e) => {
            let (c, t, e) = (reg(c), reg(t), reg(e));
            for l in 0..L {
                out[l] = if c[l] > 0.5 { t[l] } else { e[l] };
            }
        }
        POp::Call3(b3, a, b, c) => {
            let (a, b, c) = (reg(a), reg(b), reg(c));
            for l in 0..L {
                out[l] = b3.apply(a[l], b[l], c[l]);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval, MapContext};
    use crate::parse::parse_expr;

    fn eval_program(srcs: &[&str], vars: &[(&str, f64)], time: f64) -> Vec<f64> {
        let mut pb = ProgramBuilder::new();
        let names: Vec<&str> = vars.iter().map(|(n, _)| *n).collect();
        let resolve = SlotResolver(|n: &str| names.iter().position(|m| *m == n));
        let outs: Vec<ValueId> = srcs
            .iter()
            .map(|s| pb.add_expr(&parse_expr(s).unwrap(), &resolve).unwrap())
            .collect();
        let prog = pb.finish(&outs, 0);
        let slots: Vec<f64> = vars.iter().map(|(_, v)| *v).collect();
        let mut scratch = LaneScratch::<1>::default();
        let mut out = vec![0.0; outs.len()];
        prog.eval_into(&mut scratch, &slots, time, &[], &mut out);
        out
    }

    #[test]
    fn program_matches_eval() {
        let srcs = [
            "1 + 2*var(x) - var(y)/4",
            "sin(var(x)) + cos(var(x)) * tanh(var(y))",
            "if var(x) > 0 and not (var(x) > 10) then 7 else 0",
            "pulse(time, 0, 2e-8)",
            "min(var(x), 2) + max(var(y), 5) + pow(2, 3)",
        ];
        let vars = [("x", 3.0), ("y", 8.0)];
        let t = 1e-8;
        let got = eval_program(&srcs, &vars, t);
        for (src, g) in srcs.iter().zip(&got) {
            let e = parse_expr(src).unwrap();
            let mut ctx = MapContext::new().at_time(t);
            for (n, v) in vars {
                ctx.vars.insert(n.into(), v);
            }
            let reference = eval(&e, &ctx).unwrap();
            assert_eq!(reference.to_bits(), g.to_bits(), "{src}");
        }
    }

    #[test]
    fn cse_shares_identical_subexpressions() {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let a = pb
            .add_expr(&parse_expr("sin(var(x)) * 2").unwrap(), &resolve)
            .unwrap();
        let b = pb
            .add_expr(&parse_expr("sin(var(x)) + 1").unwrap(), &resolve)
            .unwrap();
        let prog = pb.finish(&[a, b], 0);
        // Load, Sin, Mul(or fused), Add: sin/load computed once, not twice.
        assert!(prog.len() <= 4, "got {} instructions", prog.len());
    }

    #[test]
    fn constants_cost_no_instructions() {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb
            .add_expr(&parse_expr("var(x) + 3.5").unwrap(), &resolve)
            .unwrap();
        let prog = pb.finish(&[v], 0);
        assert_eq!(prog.const_count(), 1);
        // Load + Add only; the constant lives in the pool.
        assert_eq!(prog.len(), 2);
        let mut s = LaneScratch::<1>::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[1.0], 0.0, &[], &mut out);
        assert_eq!(out[0], 4.5);
    }

    #[test]
    fn constant_output_needs_no_instructions() {
        let mut pb = ProgramBuilder::new();
        let v = pb.constant(2.5);
        let prog = pb.finish(&[v], 0);
        assert!(prog.is_empty());
        let mut s = LaneScratch::<1>::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[], 0.0, &[], &mut out);
        assert_eq!(out[0], 2.5);
    }

    #[test]
    fn time_only_values_hoist_to_prologue() {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb
            .add_expr(&parse_expr("sin(time) + var(x)").unwrap(), &resolve)
            .unwrap();
        let prog = pb.finish(&[v], 0);
        // Time + Sin in the prologue; Load + Add in the body.
        assert_eq!(prog.prologue_len(), 2);
        assert_eq!(prog.body_len(), 2);
        let mut s = LaneScratch::<1>::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[1.0], 0.5, &[], &mut out);
        assert_eq!(out[0], 0.5f64.sin() + 1.0);
        // Same time, different state: prologue result is reused.
        prog.eval_into(&mut s, &[2.0], 0.5, &[], &mut out);
        assert_eq!(out[0], 0.5f64.sin() + 2.0);
        // New time invalidates the cache.
        prog.eval_into(&mut s, &[2.0], 0.75, &[], &mut out);
        assert_eq!(out[0], 0.75f64.sin() + 2.0);
    }

    #[test]
    fn register_reuse_keeps_file_small() {
        // A long chain of independent adds: without liveness reuse the file
        // would grow by one register per instruction.
        let src = "((var(x)+1) + (var(x)+2)) + ((var(x)+3) + (var(x)+4))";
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb.add_expr(&parse_expr(src).unwrap(), &resolve).unwrap();
        let prog = pb.finish(&[v], 0);
        assert!(
            prog.register_count() < prog.const_count() + prog.len(),
            "registers {} not reused over {} instructions",
            prog.register_count(),
            prog.len()
        );
        let mut s = LaneScratch::<1>::default();
        let mut out = [0.0];
        prog.eval_into(&mut s, &[1.0], 0.0, &[], &mut out);
        assert_eq!(out[0], 14.0);
    }

    #[test]
    fn params_feed_evaluation_and_invalidate_prologue() {
        params_feed_evaluation_and_invalidate_prologue_at::<1>();
        params_feed_evaluation_and_invalidate_prologue_at::<4>();
    }

    fn params_feed_evaluation_and_invalidate_prologue_at<const L: usize>() {
        struct R;
        impl ProgramResolver for R {
            fn var(&self, _: &str) -> Option<VarRef> {
                Some(VarRef::Slot(0))
            }
            fn attr(&self, _: &str, attr: &str) -> Option<usize> {
                match attr {
                    "a" => Some(0),
                    "b" => Some(1),
                    _ => None,
                }
            }
        }
        let build = |src: &str, n_params: usize| {
            let mut pb = ProgramBuilder::new();
            let v = pb.add_expr(&parse_expr(src).unwrap(), &R).unwrap();
            pb.finish(&[v], n_params)
        };
        let mut s = LaneScratch::<L>::default();
        let mut out = [[0.0; L]];
        let affine = build("n.a * var(x) + n.b", 2);
        assert_eq!(affine.param_count(), 2);
        for (params, want) in [([2.0, 1.0], 7.0), ([-1.0, 0.5], -2.5)] {
            affine.set_params_lanes(&mut s, &[&params[..]; L]);
            affine.eval_lanes_bound(&mut s, &[[3.0; L]], 0.0, &mut out);
            assert_eq!(out[0], [want; L]);
        }
        // exp(n.a) is a param-only prologue value: rebinding different
        // lane params (here, neighbouring lanes swap) must rerun it.
        let expo = build("exp(n.a) + var(x)", 1);
        let x: [f64; L] = std::array::from_fn(|l| l as f64 + 1.0);
        let first: [f64; L] = std::array::from_fn(|l| (l % 2) as f64);
        for a in [first, first.map(|a| 1.0 - a)] {
            let lanes = a.map(|a| [a]);
            let params: Vec<&[f64]> = lanes.iter().map(|p| &p[..]).collect();
            expo.set_params_lanes(&mut s, &params);
            expo.eval_lanes_bound(&mut s, &[x], 0.0, &mut out);
            assert_eq!(out[0], std::array::from_fn(|l| a[l].exp() + x[l]));
        }
    }

    #[test]
    fn scratch_reprimed_when_switching_programs() {
        scratch_reprimed_when_switching_programs_at::<1>();
        scratch_reprimed_when_switching_programs_at::<4>();
    }

    fn scratch_reprimed_when_switching_programs_at<const L: usize>() {
        let build = |src: &str| {
            let mut pb = ProgramBuilder::new();
            let resolve = SlotResolver(|_: &str| Some(0));
            let v = pb.add_expr(&parse_expr(src).unwrap(), &resolve).unwrap();
            pb.finish(&[v], 0)
        };
        let (ca, cb) = (build("1.25"), build("4.5"));
        let (pa, pb) = (build("var(x) + 1.5"), build("var(x) * 3.0"));
        let x: [f64; L] = std::array::from_fn(|l| l as f64 + 1.0);
        let (xa, xb) = (x.map(|x| x + 1.5), x.map(|x| x * 3.0));
        let mut s = LaneScratch::<L>::default();
        let mut out = [[0.0; L]];
        for (prog, slots, want) in [
            (&ca, &[][..], [1.25; L]),
            (&cb, &[], [4.5; L]),
            (&ca, &[], [1.25; L]),
            (&pa, &[x], xa),
            (&pb, &[x], xb),
            (&pa, &[x], xa),
        ] {
            prog.eval_lanes_bound(&mut s, slots, 0.0, &mut out);
            assert_eq!(out[0], want);
        }
    }

    #[test]
    fn unresolved_leaves_error() {
        let mut pb = ProgramBuilder::new();
        let none = SlotResolver(|_: &str| None);
        assert_eq!(
            pb.add_expr(&parse_expr("var(ghost)").unwrap(), &none),
            Err(LowerError::UnresolvedVar("ghost".into()))
        );
        assert!(matches!(
            pb.add_expr(&parse_expr("s.c").unwrap(), &none),
            Err(LowerError::UnresolvedAttr(_, _))
        ));
        assert!(matches!(
            pb.add_expr(&parse_expr("mystery(1)").unwrap(), &none),
            Err(LowerError::UnsupportedCall(_))
        ));
    }

    #[test]
    fn laned_eval_is_bit_identical_to_scalar_per_lane() {
        // A program exercising every segment: pooled consts, a param-only
        // prologue value, a time-only prologue value, and a state body.
        struct R;
        impl ProgramResolver for R {
            fn var(&self, _: &str) -> Option<VarRef> {
                Some(VarRef::Slot(0))
            }
            fn attr(&self, _: &str, attr: &str) -> Option<usize> {
                (attr == "a").then_some(0)
            }
        }
        let mut pb = ProgramBuilder::new();
        let v = pb
            .add_expr(
                &parse_expr("sin(n.a) + cos(time)*var(x) + n.a*var(x) - 0.25").unwrap(),
                &R,
            )
            .unwrap();
        let prog = pb.finish(&[v], 1);
        const L: usize = 4;
        let lane_params = [[0.5], [-1.25], [3.0], [0.0625]];
        let states = [1.0f64, -2.5, 0.3333333333333333, 1e-8];
        for time in [0.0, 0.5, 0.5, 0.75] {
            // Scalar reference, one fresh bind per lane (prologue caching
            // exercised identically via repeated times).
            let mut want = [0.0f64; L];
            for l in 0..L {
                let mut s = LaneScratch::<1>::default();
                let mut out = [0.0];
                prog.eval_into(&mut s, &[states[l]], time, &lane_params[l], &mut out);
                want[l] = out[0];
            }
            let mut ls = LaneScratch::<L>::default();
            let prefs: Vec<&[f64]> = lane_params.iter().map(|p| &p[..]).collect();
            prog.set_params_lanes(&mut ls, &prefs);
            let slots = [states];
            let mut out = [[0.0; L]];
            prog.eval_lanes_bound(&mut ls, &slots, time, &mut out);
            for l in 0..L {
                assert_eq!(want[l].to_bits(), out[0][l].to_bits(), "lane {l} t={time}");
            }
        }
    }

    #[test]
    fn fused_opcodes_are_bit_identical_to_unfused() {
        // a*b + c, c + a*b, a*b - c, c - a*b with awkward magnitudes.
        let vars = [("x", 1.0000000000000002), ("y", 3.000000000000001)];
        for src in [
            "var(x)*var(y) + 0.1",
            "0.1 + var(x)*var(y)",
            "var(x)*var(y) - 0.1",
            "0.1 - var(x)*var(y)",
            "-var(x)",
        ] {
            let got = eval_program(&[src], &vars, 0.0)[0];
            let ctx = vars
                .iter()
                .fold(MapContext::new(), |ctx, &(n, v)| ctx.with_var(n, v));
            let want = eval(&parse_expr(src).unwrap(), &ctx).unwrap();
            assert_eq!(want.to_bits(), got.to_bits(), "{src}");
        }
    }

    /// A one-`Load` program reading slot 2, evaluated with two slots: the
    /// once-per-call guard must panic before the unchecked loop runs.
    fn short_slots_panic<const L: usize>() {
        let mut pb = ProgramBuilder::new();
        let x = pb.load(2);
        let v = pb.intern(VNode::Un(UnaryOp::Sin, x.0));
        let prog = pb.finish(&[v], 0);
        let mut scratch = LaneScratch::<L>::default();
        prog.eval_lanes_bound(&mut scratch, &[[0.5; L]; 2], 0.0, &mut [[0.0; L]]);
    }

    #[test]
    #[should_panic(expected = "Load slot 2 out of range of 2 slots")]
    fn short_slots_panic_l1() {
        short_slots_panic::<1>();
    }

    #[test]
    #[should_panic(expected = "Load slot 2 out of range of 2 slots")]
    fn short_slots_panic_l4() {
        short_slots_panic::<4>();
    }

    #[test]
    #[should_panic(expected = "Load slot 2 out of range of 2 slots")]
    fn short_slots_panic_l8() {
        short_slots_panic::<8>();
    }

    /// Every `POp` variant, with every unary, binary, comparison and
    /// three-argument operator (register operands are filled in later).
    fn every_op() -> Vec<POp> {
        use UnaryOp as U;
        let mut ops = vec![POp::Time, POp::Load(0), POp::NegLoad(0)];
        for u in [
            U::Neg,
            U::Sin,
            U::Cos,
            U::Tan,
            U::Tanh,
            U::Exp,
            U::Ln,
            U::Sqrt,
            U::Abs,
            U::Sgn,
            U::Sat,
            U::SatNi,
        ] {
            ops.push(POp::Un(u, 0));
        }
        for b in [
            BinaryOp::Add,
            BinaryOp::Sub,
            BinaryOp::Mul,
            BinaryOp::Div,
            BinaryOp::Pow,
            BinaryOp::Min,
            BinaryOp::Max,
        ] {
            ops.push(POp::Bin(b, 0, 0));
        }
        for c in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            ops.push(POp::Cmp(c, 0, 0));
        }
        for b3 in [Builtin3::Pulse, Builtin3::SquarePulse, Builtin3::Smoothstep] {
            ops.push(POp::Call3(b3, 0, 0, 0));
        }
        ops.extend([
            POp::MulAdd(0, 0, 0),
            POp::AddMul(0, 0, 0),
            POp::MulSub(0, 0, 0),
            POp::SubMul(0, 0, 0),
            POp::And(0, 0),
            POp::Or(0, 0),
            POp::Not(0),
            POp::Select(0, 0, 0),
        ]);
        ops
    }

    /// `op` with its register operands and slot drawn from `next`.
    fn with_operands(op: POp, n_regs: u32, n_slots: u32, next: &mut impl FnMut() -> u64) -> POp {
        let mut r = || (next() % n_regs as u64) as u32;
        match op {
            POp::Time => POp::Time,
            POp::Load(_) => POp::Load((next() % n_slots as u64) as u32),
            POp::NegLoad(_) => POp::NegLoad((next() % n_slots as u64) as u32),
            POp::Un(u, _) => POp::Un(u, r()),
            POp::Bin(b, _, _) => POp::Bin(b, r(), r()),
            POp::MulAdd(..) => POp::MulAdd(r(), r(), r()),
            POp::AddMul(..) => POp::AddMul(r(), r(), r()),
            POp::MulSub(..) => POp::MulSub(r(), r(), r()),
            POp::SubMul(..) => POp::SubMul(r(), r(), r()),
            POp::Cmp(c, _, _) => POp::Cmp(c, r(), r()),
            POp::And(..) => POp::And(r(), r()),
            POp::Or(..) => POp::Or(r(), r()),
            POp::Not(_) => POp::Not(r()),
            POp::Select(..) => POp::Select(r(), r(), r()),
            POp::Call3(b3, ..) => POp::Call3(b3, r(), r(), r()),
        }
    }

    /// Random programs over every `POp` variant on IEEE edge values, run
    /// through the portable and the AVX2 build of the interpreter loop:
    /// every register must agree bit for bit, except that a NaN only has
    /// to be a NaN. When two NaNs of different bits meet in `+` or `*`,
    /// x86 returns the first operand's and LLVM may commute the operands
    /// (IEEE 754 leaves the choice open), so a NaN's sign and payload are
    /// unspecified in either build — as across lane widths and against
    /// the native kernels.
    fn portable_and_avx2_agree<const L: usize>() {
        const N_REGS: u32 = 24;
        const N_SLOTS: u32 = 5;
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff0_0000_0000_0001), // signaling NaN
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with a payload
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 3.0, // subnormal
            -f64::from_bits(1),      // smallest negative subnormal
            f64::MAX,
            0.5,
            1.0,
            -1.0,
            1e-300,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ L as u64;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let avx2 = avx2_detected();
        if !avx2 {
            eprintln!("no AVX2 on this CPU: checking the portable interpreter loop alone");
        }
        let ops = every_op();
        for round in 0..64 {
            let value = |next: &mut dyn FnMut() -> u64| {
                let k = next();
                if k % 3 == 0 {
                    (k >> 11) as f64 / (1u64 << 50) as f64 - 4.0
                } else {
                    specials[(k >> 8) as usize % specials.len()]
                }
            };
            let regs: Vec<[f64; L]> = (0..N_REGS)
                .map(|_| std::array::from_fn(|_| value(&mut next)))
                .collect();
            let slots: Vec<[f64; L]> = (0..N_SLOTS)
                .map(|_| std::array::from_fn(|_| value(&mut next)))
                .collect();
            let time = value(&mut next);
            // Every variant once, then random ones, in a shuffled order.
            let mut kinds: Vec<POp> = ops.clone();
            kinds.extend((0..ops.len()).map(|_| ops[next() as usize % ops.len()]));
            for i in (1..kinds.len()).rev() {
                kinds.swap(i, next() as usize % (i + 1));
            }
            let instrs: Vec<PInstr> = kinds
                .into_iter()
                .map(|op| PInstr {
                    dest: (next() % N_REGS as u64) as u32,
                    op: with_operands(op, N_REGS, N_SLOTS, &mut next),
                })
                .collect();
            let mut portable = regs.clone();
            // SAFETY: every register is `< N_REGS` and every slot
            // `< N_SLOTS`, by construction.
            unsafe { run_instrs_portable(&instrs, &mut portable, &slots, time) };
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                let mut wide = regs.clone();
                // SAFETY: as above, and the CPU has AVX2.
                unsafe { run_instrs_avx2(&instrs, &mut wide, &slots, time) };
                let bits = |x: f64| {
                    if x.is_nan() {
                        f64::NAN.to_bits()
                    } else {
                        x.to_bits()
                    }
                };
                for (r, (p, w)) in portable.iter().zip(&wide).enumerate() {
                    for l in 0..L {
                        assert_eq!(
                            bits(p[l]),
                            bits(w[l]),
                            "L={L} round {round}: r{r} lane {l}: portable {} vs avx2 {}",
                            p[l],
                            w[l]
                        );
                    }
                }
            }
        }
    }

    fn avx2_detected() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn portable_and_avx2_loops_agree_bit_for_bit() {
        portable_and_avx2_agree::<1>();
        portable_and_avx2_agree::<4>();
        portable_and_avx2_agree::<8>();
    }
}
