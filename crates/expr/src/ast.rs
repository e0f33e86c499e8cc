//! Abstract syntax for Ark math and boolean expressions.
//!
//! Expressions appear in three places in the Ark language (paper §4):
//! production-rule bodies (`prod(e:E,s:V->t:I) s <= -var(t)/s.c`), attribute
//! assignments (`set-attr n.fn = lambd(t): ...`), and switch conditions
//! (`set-switch e when b`). The same [`Expr`] type represents all of them.
//!
//! Leaves reference simulation state:
//! * [`Expr::Var`] — the state variable associated with a node (`var(n)`),
//! * [`Expr::Attr`] — a node/edge attribute (`s.c`), fixed at simulation time,
//! * [`Expr::Arg`] — a function argument or lambda parameter,
//! * [`Expr::Time`] — the simulation time `time`.

use std::fmt;

/// Single-argument math operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Tangent.
    Tan,
    /// Hyperbolic tangent.
    Tanh,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Ln,
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Sign function (-1, 0, +1).
    Sgn,
    /// Ideal CNN saturation: `0.5 * (|x + 1| - |x - 1|)` (paper Fig. 11a, blue).
    Sat,
    /// Non-ideal MOS-differential-pair saturation: `tanh(2 x)` (Fig. 11a,
    /// orange) — steeper near the origin, smooth near the rails, the large-
    /// signal behavior of a MOS differential pair.
    SatNi,
}

impl UnaryOp {
    /// Apply the operator to a value.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::Neg => -x,
            UnaryOp::Sin => x.sin(),
            UnaryOp::Cos => x.cos(),
            UnaryOp::Tan => x.tan(),
            UnaryOp::Tanh => x.tanh(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Ln => x.ln(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Abs => x.abs(),
            UnaryOp::Sgn => {
                if x > 0.0 {
                    1.0
                } else if x < 0.0 {
                    -1.0
                } else {
                    0.0
                }
            }
            UnaryOp::Sat => 0.5 * ((x + 1.0).abs() - (x - 1.0).abs()),
            UnaryOp::SatNi => (2.0 * x).tanh(),
        }
    }

    /// The surface-syntax name of the operator.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Neg => "-",
            UnaryOp::Sin => "sin",
            UnaryOp::Cos => "cos",
            UnaryOp::Tan => "tan",
            UnaryOp::Tanh => "tanh",
            UnaryOp::Exp => "exp",
            UnaryOp::Ln => "ln",
            UnaryOp::Sqrt => "sqrt",
            UnaryOp::Abs => "abs",
            UnaryOp::Sgn => "sgn",
            UnaryOp::Sat => "sat",
            UnaryOp::SatNi => "sat_ni",
        }
    }
}

/// Two-argument math operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Exponentiation.
    Pow,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinaryOp {
    /// Apply the operator to two values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => a / b,
            BinaryOp::Pow => a.powf(b),
            BinaryOp::Min => a.min(b),
            BinaryOp::Max => a.max(b),
        }
    }

    /// The surface-syntax name of the operator.
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Pow => "^",
            BinaryOp::Min => "min",
            BinaryOp::Max => "max",
        }
    }
}

/// Comparison operators used in boolean expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Apply the comparison to two values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// The surface-syntax name of the operator.
    pub fn name(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// A real-valued math expression.
///
/// # Examples
///
/// ```
/// use ark_expr::{Expr, BinaryOp};
///
/// // -var(t) / s.c
/// let e = Expr::var("t").neg().div(Expr::attr("s", "c"));
/// assert_eq!(e.to_string(), "(-var(t)) / s.c");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A real literal.
    Const(f64),
    /// The simulation time `time`.
    Time,
    /// `var(n)`: the dynamical-system variable associated with node `n`.
    Var(String),
    /// `v.a`: attribute `a` of node or edge `v` (fixed at simulation time).
    Attr(String, String),
    /// A function argument or lambda parameter.
    Arg(String),
    /// A unary operator application.
    Unary(UnaryOp, Box<Expr>),
    /// A binary operator application.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// A call to a named builtin function (e.g. `pulse(time, 0, 2e-8)`).
    Call(String, Vec<Expr>),
    /// `v.f(args)`: invoke the lambda stored in attribute `f` of `v`.
    CallAttr(String, String, Vec<Expr>),
    /// `if b then e1 else e2`.
    If(Box<BoolExpr>, Box<Expr>, Box<Expr>),
}

/// A boolean expression over real-valued subexpressions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolExpr {
    /// A boolean literal.
    Lit(bool),
    /// A comparison between two math expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<BoolExpr>, Box<BoolExpr>),
    /// Logical disjunction.
    Or(Box<BoolExpr>, Box<BoolExpr>),
    /// Logical negation.
    Not(Box<BoolExpr>),
    /// Truthiness of a math expression (`e != 0`); used for integer switch bits.
    Pred(Box<Expr>),
}

/// A lambda value: `lambd(a0, a1): body`, assignable to `lambd(...)`-typed
/// attributes (e.g. the input waveform of a TLN `InpI` node).
#[derive(Debug, Clone, PartialEq)]
pub struct Lambda {
    /// Formal parameter names.
    pub params: Vec<String>,
    /// The body expression; may reference the parameters as [`Expr::Arg`].
    pub body: Expr,
}

impl Lambda {
    /// Create a lambda from parameter names and a body.
    pub fn new<S: Into<String>>(params: Vec<S>, body: Expr) -> Self {
        Lambda {
            params: params.into_iter().map(Into::into).collect(),
            body,
        }
    }

    /// Beta-reduce: substitute `args` for the formal parameters in the body.
    ///
    /// # Errors
    ///
    /// Returns `None` when the argument count does not match the arity.
    pub fn apply(&self, args: &[Expr]) -> Option<Expr> {
        if args.len() != self.params.len() {
            return None;
        }
        let mut body = self.body.clone();
        for (p, a) in self.params.iter().zip(args) {
            body = body.substitute_arg(p, a);
        }
        Some(body)
    }
}

// `add`/`sub`/`mul`/`div`/`neg` are consuming AST constructors, not
// arithmetic on evaluated values, so the std ops traits don't apply.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// A real literal.
    pub fn constant(x: f64) -> Expr {
        Expr::Const(x)
    }

    /// `var(n)` for the named node.
    pub fn var<S: Into<String>>(name: S) -> Expr {
        Expr::Var(name.into())
    }

    /// `v.a` attribute reference.
    pub fn attr<S: Into<String>, T: Into<String>>(entity: S, attr: T) -> Expr {
        Expr::Attr(entity.into(), attr.into())
    }

    /// A function-argument reference.
    pub fn arg<S: Into<String>>(name: S) -> Expr {
        Expr::Arg(name.into())
    }

    /// Arithmetic negation.
    pub fn neg(self) -> Expr {
        Expr::Unary(UnaryOp::Neg, Box::new(self))
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Add, Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Sub, Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Mul, Box::new(self), Box::new(rhs))
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::Binary(BinaryOp::Div, Box::new(self), Box::new(rhs))
    }

    /// `sin(self)`.
    pub fn sin(self) -> Expr {
        Expr::Unary(UnaryOp::Sin, Box::new(self))
    }

    /// `cos(self)`.
    pub fn cos(self) -> Expr {
        Expr::Unary(UnaryOp::Cos, Box::new(self))
    }

    /// Apply a unary operator.
    pub fn unary(self, op: UnaryOp) -> Expr {
        Expr::Unary(op, Box::new(self))
    }

    /// Apply a binary operator.
    pub fn binary(self, op: BinaryOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// Substitute every [`Expr::Arg`] named `name` with `value`.
    pub fn substitute_arg(&self, name: &str, value: &Expr) -> Expr {
        self.transform(&|e| match e {
            Expr::Arg(n) if n == name => Some(value.clone()),
            _ => None,
        })
    }

    /// Rename entity references (`Var`, `Attr`, `CallAttr`) according to `map`.
    ///
    /// Used by the compiler's `Rewrite` step (paper Alg. 1) to instantiate a
    /// production-rule template with the concrete node and edge names.
    pub fn rename_entities(&self, map: &impl Fn(&str) -> Option<String>) -> Expr {
        self.transform(&|e| match e {
            Expr::Var(n) => map(n).map(Expr::Var),
            Expr::Attr(n, a) => map(n).map(|m| Expr::Attr(m, a.clone())),
            Expr::CallAttr(n, a, args) => {
                // Arguments are rewritten by the surrounding traversal only if
                // the head is untouched, so rewrite them here explicitly.
                let new_args: Vec<Expr> = args.iter().map(|x| x.rename_entities(map)).collect();
                match map(n) {
                    Some(m) => Some(Expr::CallAttr(m, a.clone(), new_args)),
                    None if new_args != *args => {
                        Some(Expr::CallAttr(n.clone(), a.clone(), new_args))
                    }
                    None => None,
                }
            }
            _ => None,
        })
    }

    /// Bottom-up rewrite: `f` is offered every node after its children have
    /// been transformed; returning `Some` replaces the node.
    pub fn transform(&self, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
        let rebuilt = match self {
            Expr::Const(_) | Expr::Time | Expr::Var(_) | Expr::Attr(_, _) | Expr::Arg(_) => {
                self.clone()
            }
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(a.transform(f))),
            Expr::Binary(op, a, b) => {
                Expr::Binary(*op, Box::new(a.transform(f)), Box::new(b.transform(f)))
            }
            Expr::Call(name, args) => {
                Expr::Call(name.clone(), args.iter().map(|a| a.transform(f)).collect())
            }
            Expr::CallAttr(n, a, args) => Expr::CallAttr(
                n.clone(),
                a.clone(),
                args.iter().map(|x| x.transform(f)).collect(),
            ),
            Expr::If(c, t, e) => Expr::If(
                Box::new(c.transform(f)),
                Box::new(t.transform(f)),
                Box::new(e.transform(f)),
            ),
        };
        f(&rebuilt).unwrap_or(rebuilt)
    }

    /// Visit every subexpression (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Const(_) | Expr::Time | Expr::Var(_) | Expr::Attr(_, _) | Expr::Arg(_) => {}
            Expr::Unary(_, a) => a.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::CallAttr(_, _, args) => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::If(c, t, e) => {
                c.visit_exprs(f);
                t.visit(f);
                e.visit(f);
            }
        }
    }

    /// Names of all `var(.)` references in the expression.
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit(&mut |e| {
            if let Expr::Var(n) = e {
                if !out.contains(n) {
                    out.push(n.clone());
                }
            }
        });
        out
    }

    /// Names of all entities referenced by `Var`, `Attr`, or `CallAttr` leaves.
    pub fn referenced_entities(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut push = |n: &String| {
            if !out.contains(n) {
                out.push(n.clone());
            }
        };
        self.visit(&mut |e| match e {
            Expr::Var(n) => push(n),
            Expr::Attr(n, _) | Expr::CallAttr(n, _, _) => push(n),
            _ => {}
        });
        out
    }

    /// True when the expression contains no `Var`, `Arg`, `Attr`, `CallAttr`,
    /// or `Time` leaves, i.e. it folds to a constant.
    pub fn is_constant(&self) -> bool {
        let mut constant = true;
        self.visit(&mut |e| match e {
            Expr::Time | Expr::Var(_) | Expr::Attr(_, _) | Expr::Arg(_) | Expr::CallAttr(..) => {
                constant = false;
            }
            _ => {}
        });
        constant
    }

    /// Constant-fold the expression where possible.
    pub fn simplify(&self) -> Expr {
        self.transform(&|e| match e {
            Expr::Unary(op, a) => match a.as_ref() {
                Expr::Const(x) => Some(Expr::Const(op.apply(*x))),
                _ => None,
            },
            Expr::Binary(op, a, b) => match (a.as_ref(), b.as_ref()) {
                (Expr::Const(x), Expr::Const(y)) => Some(Expr::Const(op.apply(*x, *y))),
                (Expr::Const(x), other) if *x == 0.0 && *op == BinaryOp::Add => Some(other.clone()),
                (other, Expr::Const(y)) if *y == 0.0 && *op == BinaryOp::Add => Some(other.clone()),
                (other, Expr::Const(y)) if *y == 1.0 && *op == BinaryOp::Mul => Some(other.clone()),
                (Expr::Const(x), other) if *x == 1.0 && *op == BinaryOp::Mul => Some(other.clone()),
                (Expr::Const(x), _) if *x == 0.0 && *op == BinaryOp::Mul => Some(Expr::Const(0.0)),
                (_, Expr::Const(y)) if *y == 0.0 && *op == BinaryOp::Mul => Some(Expr::Const(0.0)),
                _ => None,
            },
            Expr::If(c, t, e) => match c.as_ref() {
                BoolExpr::Lit(true) => Some(t.as_ref().clone()),
                BoolExpr::Lit(false) => Some(e.as_ref().clone()),
                _ => None,
            },
            _ => None,
        })
    }
}

// `not` is a consuming AST constructor; see the note on `impl Expr`.
#[allow(clippy::should_implement_trait)]
impl BoolExpr {
    /// Comparison constructor.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> BoolExpr {
        BoolExpr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// Conjunction constructor.
    pub fn and(self, rhs: BoolExpr) -> BoolExpr {
        BoolExpr::And(Box::new(self), Box::new(rhs))
    }

    /// Disjunction constructor.
    pub fn or(self, rhs: BoolExpr) -> BoolExpr {
        BoolExpr::Or(Box::new(self), Box::new(rhs))
    }

    /// Negation constructor.
    pub fn not(self) -> BoolExpr {
        BoolExpr::Not(Box::new(self))
    }

    /// Bottom-up rewrite of the math subexpressions.
    pub fn transform(&self, f: &impl Fn(&Expr) -> Option<Expr>) -> BoolExpr {
        match self {
            BoolExpr::Lit(b) => BoolExpr::Lit(*b),
            BoolExpr::Cmp(op, a, b) => {
                BoolExpr::Cmp(*op, Box::new(a.transform(f)), Box::new(b.transform(f)))
            }
            BoolExpr::And(a, b) => {
                BoolExpr::And(Box::new(a.transform(f)), Box::new(b.transform(f)))
            }
            BoolExpr::Or(a, b) => BoolExpr::Or(Box::new(a.transform(f)), Box::new(b.transform(f))),
            BoolExpr::Not(a) => BoolExpr::Not(Box::new(a.transform(f))),
            BoolExpr::Pred(e) => BoolExpr::Pred(Box::new(e.transform(f))),
        }
    }

    /// Visit the math subexpressions.
    pub fn visit_exprs(&self, f: &mut impl FnMut(&Expr)) {
        match self {
            BoolExpr::Lit(_) => {}
            BoolExpr::Cmp(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            BoolExpr::And(a, b) | BoolExpr::Or(a, b) => {
                a.visit_exprs(f);
                b.visit_exprs(f);
            }
            BoolExpr::Not(a) => a.visit_exprs(f),
            BoolExpr::Pred(e) => e.visit(f),
        }
    }
}

fn fmt_paren(e: &Expr, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    match e {
        Expr::Const(_)
        | Expr::Time
        | Expr::Var(_)
        | Expr::Attr(_, _)
        | Expr::Arg(_)
        | Expr::Call(_, _)
        | Expr::CallAttr(_, _, _) => write!(f, "{e}"),
        _ => write!(f, "({e})"),
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(x) => write!(f, "{x}"),
            Expr::Time => write!(f, "time"),
            Expr::Var(n) => write!(f, "var({n})"),
            Expr::Attr(n, a) => write!(f, "{n}.{a}"),
            Expr::Arg(n) => write!(f, "{n}"),
            Expr::Unary(UnaryOp::Neg, a) => {
                write!(f, "-")?;
                fmt_paren(a, f)
            }
            Expr::Unary(op, a) => write!(f, "{}({a})", op.name()),
            Expr::Binary(op, a, b) => {
                fmt_paren(a, f)?;
                write!(f, " {} ", op.name())?;
                fmt_paren(b, f)
            }
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::CallAttr(n, attr, args) => {
                write!(f, "{n}.{attr}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::If(c, t, e) => write!(f, "if {c} then {t} else {e}"),
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Lit(b) => write!(f, "{b}"),
            BoolExpr::Cmp(op, a, b) => write!(f, "{a} {} {b}", op.name()),
            BoolExpr::And(a, b) => write!(f, "({a}) and ({b})"),
            BoolExpr::Or(a, b) => write!(f, "({a}) or ({b})"),
            BoolExpr::Not(a) => write!(f, "not ({a})"),
            BoolExpr::Pred(e) => write!(f, "{e} != 0"),
        }
    }
}

impl fmt::Display for Lambda {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lambd(")?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "): {}", self.body)
    }
}

impl From<f64> for Expr {
    fn from(x: f64) -> Expr {
        Expr::Const(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_ops_apply() {
        assert_eq!(UnaryOp::Neg.apply(2.0), -2.0);
        assert_eq!(UnaryOp::Abs.apply(-3.0), 3.0);
        assert_eq!(UnaryOp::Sgn.apply(-3.0), -1.0);
        assert_eq!(UnaryOp::Sgn.apply(0.0), 0.0);
        assert_eq!(UnaryOp::Sgn.apply(9.0), 1.0);
        assert!((UnaryOp::Sin.apply(std::f64::consts::FRAC_PI_2) - 1.0).abs() < 1e-12);
        assert!((UnaryOp::Exp.apply(0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn sat_is_piecewise_linear() {
        assert_eq!(UnaryOp::Sat.apply(0.5), 0.5);
        assert_eq!(UnaryOp::Sat.apply(2.0), 1.0);
        assert_eq!(UnaryOp::Sat.apply(-2.0), -1.0);
        assert_eq!(UnaryOp::Sat.apply(0.0), 0.0);
    }

    #[test]
    fn sat_ni_is_smooth_and_bounded() {
        let y = UnaryOp::SatNi.apply(10.0);
        assert!(y > 0.99 && y <= 1.0);
        assert!(UnaryOp::SatNi.apply(-10.0) < -0.99);
        // Steeper than ideal near the origin but bounded by 1.
        assert!(UnaryOp::SatNi.apply(0.25) > 0.25);
    }

    #[test]
    fn binary_ops_apply() {
        assert_eq!(BinaryOp::Add.apply(1.0, 2.0), 3.0);
        assert_eq!(BinaryOp::Sub.apply(1.0, 2.0), -1.0);
        assert_eq!(BinaryOp::Mul.apply(3.0, 4.0), 12.0);
        assert_eq!(BinaryOp::Div.apply(1.0, 4.0), 0.25);
        assert_eq!(BinaryOp::Pow.apply(2.0, 10.0), 1024.0);
        assert_eq!(BinaryOp::Min.apply(1.0, 2.0), 1.0);
        assert_eq!(BinaryOp::Max.apply(1.0, 2.0), 2.0);
    }

    #[test]
    fn display_production_rule_expr() {
        // -var(t)/s.c from the TLN language definition.
        let e = Expr::var("t").neg().div(Expr::attr("s", "c"));
        assert_eq!(e.to_string(), "(-var(t)) / s.c");
    }

    #[test]
    fn substitute_arg_replaces_all_occurrences() {
        let e = Expr::arg("x").add(Expr::arg("x").mul(Expr::constant(2.0)));
        let s = e.substitute_arg("x", &Expr::constant(3.0));
        assert_eq!(s.simplify(), Expr::Const(9.0));
    }

    #[test]
    fn lambda_apply_beta_reduces() {
        let lam = Lambda::new(vec!["t"], Expr::arg("t").mul(Expr::constant(2.0)));
        let body = lam.apply(&[Expr::Time]).unwrap();
        assert_eq!(body, Expr::Time.mul(Expr::constant(2.0)));
        assert!(lam.apply(&[]).is_none());
    }

    #[test]
    fn rename_entities_rewrites_vars_attrs_and_calls() {
        let e = Expr::var("s").mul(Expr::attr("s", "c")).add(Expr::CallAttr(
            "s".into(),
            "fn".into(),
            vec![Expr::Time],
        ));
        let r = e.rename_entities(&|n| (n == "s").then(|| "IN_V".to_string()));
        assert_eq!(r.to_string(), "(var(IN_V) * IN_V.c) + IN_V.fn(time)");
    }

    #[test]
    fn free_vars_are_deduplicated() {
        let e = Expr::var("a").add(Expr::var("b").mul(Expr::var("a")));
        assert_eq!(e.free_vars(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn simplify_folds_constants() {
        let e = Expr::constant(2.0)
            .mul(Expr::constant(3.0))
            .add(Expr::constant(0.0));
        assert_eq!(e.simplify(), Expr::Const(6.0));
        let e = Expr::var("x").add(Expr::constant(0.0));
        assert_eq!(e.simplify(), Expr::var("x"));
        let e = Expr::var("x").mul(Expr::constant(0.0));
        assert_eq!(e.simplify(), Expr::Const(0.0));
    }

    #[test]
    fn simplify_selects_constant_if_branches() {
        let e = Expr::If(
            Box::new(BoolExpr::Lit(true)),
            Box::new(Expr::constant(1.0)),
            Box::new(Expr::constant(2.0)),
        );
        assert_eq!(e.simplify(), Expr::Const(1.0));
    }

    #[test]
    fn is_constant_detects_leaves() {
        assert!(Expr::constant(1.0).add(Expr::constant(2.0)).is_constant());
        assert!(!Expr::var("x").is_constant());
        assert!(!Expr::Time.is_constant());
        assert!(!Expr::attr("n", "c").is_constant());
    }

    #[test]
    fn bool_display() {
        let b = BoolExpr::cmp(CmpOp::Ge, Expr::Time, Expr::constant(0.0)).and(BoolExpr::Lit(true));
        assert_eq!(b.to_string(), "(time >= 0) and (true)");
    }
}
