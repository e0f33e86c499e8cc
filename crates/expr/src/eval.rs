//! Tree-walking evaluation of expressions against an [`EvalContext`].
//!
//! This is the one reference semantics: simple, allocation-free for
//! scalars, and the oracle the fused [`SystemProgram`](crate::SystemProgram)
//! path is property-tested against, here and in `ark-core`. Hot simulation
//! loops run the fused program instead.

use crate::ast::{BoolExpr, Expr, Lambda};
use crate::builtins::eval_builtin;
use crate::error::EvalError;

/// Resolution environment for expression leaves.
///
/// Implementations map `var(.)`, attribute, and argument references onto the
/// current simulation state. The compiler in `ark-core` implements this for
/// dynamical graphs; tests use [`MapContext`].
pub trait EvalContext {
    /// Current simulation time, `time`.
    fn time(&self) -> f64;

    /// Value of the state variable associated with node `name`.
    fn var(&self, name: &str) -> Result<f64, EvalError>;

    /// Value of scalar attribute `attr` on entity `entity`.
    fn attr(&self, entity: &str, attr: &str) -> Result<f64, EvalError>;

    /// Value of a function argument.
    fn arg(&self, name: &str) -> Result<f64, EvalError>;

    /// The lambda stored in attribute `attr` of `entity`, if any.
    fn lambda_attr(&self, entity: &str, attr: &str) -> Result<Lambda, EvalError>;
}

/// A simple [`EvalContext`] backed by name→value maps; intended for tests
/// and small interactive use.
#[derive(Debug, Clone, Default)]
pub struct MapContext {
    /// Current simulation time.
    pub time: f64,
    /// `var(.)` bindings.
    pub vars: std::collections::BTreeMap<String, f64>,
    /// `(entity, attr)` scalar bindings.
    pub attrs: std::collections::BTreeMap<(String, String), f64>,
    /// Argument bindings.
    pub args: std::collections::BTreeMap<String, f64>,
    /// `(entity, attr)` lambda bindings.
    pub lambdas: std::collections::BTreeMap<(String, String), Lambda>,
}

impl MapContext {
    /// Empty context at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind a `var(.)` value (builder style).
    pub fn with_var(mut self, name: &str, value: f64) -> Self {
        self.vars.insert(name.into(), value);
        self
    }

    /// Bind an attribute value (builder style).
    pub fn with_attr(mut self, entity: &str, attr: &str, value: f64) -> Self {
        self.attrs.insert((entity.into(), attr.into()), value);
        self
    }

    /// Bind a function argument (builder style).
    pub fn with_arg(mut self, name: &str, value: f64) -> Self {
        self.args.insert(name.into(), value);
        self
    }

    /// Bind a lambda attribute (builder style).
    pub fn with_lambda(mut self, entity: &str, attr: &str, lambda: Lambda) -> Self {
        self.lambdas.insert((entity.into(), attr.into()), lambda);
        self
    }

    /// Set the simulation time (builder style).
    pub fn at_time(mut self, t: f64) -> Self {
        self.time = t;
        self
    }
}

impl EvalContext for MapContext {
    fn time(&self) -> f64 {
        self.time
    }

    fn var(&self, name: &str) -> Result<f64, EvalError> {
        self.vars
            .get(name)
            .copied()
            .ok_or_else(|| EvalError::UnknownVar(name.into()))
    }

    fn attr(&self, entity: &str, attr: &str) -> Result<f64, EvalError> {
        self.attrs
            .get(&(entity.to_string(), attr.to_string()))
            .copied()
            .ok_or_else(|| EvalError::UnknownAttr(entity.into(), attr.into()))
    }

    fn arg(&self, name: &str) -> Result<f64, EvalError> {
        self.args
            .get(name)
            .copied()
            .ok_or_else(|| EvalError::UnknownArg(name.into()))
    }

    fn lambda_attr(&self, entity: &str, attr: &str) -> Result<Lambda, EvalError> {
        self.lambdas
            .get(&(entity.to_string(), attr.to_string()))
            .cloned()
            .ok_or_else(|| EvalError::NotALambda(entity.into(), attr.into()))
    }
}

/// Evaluate a math expression in a context.
///
/// # Errors
///
/// Propagates any unresolved reference as an [`EvalError`].
///
/// # Examples
///
/// ```
/// use ark_expr::{eval, Expr, MapContext};
/// let ctx = MapContext::new().with_var("x", 3.0);
/// let e = Expr::var("x").mul(Expr::constant(2.0));
/// assert_eq!(eval(&e, &ctx)?, 6.0);
/// # Ok::<(), ark_expr::EvalError>(())
/// ```
pub fn eval(expr: &Expr, ctx: &impl EvalContext) -> Result<f64, EvalError> {
    eval_dyn(expr, ctx)
}

/// Object-safe form of [`eval`]; lambda frames recurse through this to avoid
/// unbounded generic instantiation.
fn eval_dyn(expr: &Expr, ctx: &dyn EvalContext) -> Result<f64, EvalError> {
    match expr {
        Expr::Const(x) => Ok(*x),
        Expr::Time => Ok(ctx.time()),
        Expr::Var(n) => ctx.var(n),
        Expr::Attr(n, a) => ctx.attr(n, a),
        Expr::Arg(n) => ctx.arg(n),
        Expr::Unary(op, a) => Ok(op.apply(eval_dyn(a, ctx)?)),
        Expr::Binary(op, a, b) => Ok(op.apply(eval_dyn(a, ctx)?, eval_dyn(b, ctx)?)),
        Expr::Call(name, args) => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_dyn(a, ctx)?);
            }
            eval_builtin(name, &vals)
        }
        Expr::CallAttr(n, a, args) => {
            let lambda = ctx.lambda_attr(n, a)?;
            if lambda.params.len() != args.len() {
                return Err(EvalError::ArityMismatch {
                    name: format!("{n}.{a}"),
                    expected: lambda.params.len(),
                    got: args.len(),
                });
            }
            // Evaluate arguments, then the body under an extended context.
            let mut vals = Vec::with_capacity(args.len());
            for x in args {
                vals.push(eval_dyn(x, ctx)?);
            }
            let inner = LambdaFrame {
                base: ctx,
                params: &lambda.params,
                values: &vals,
            };
            eval_dyn(&lambda.body, &inner)
        }
        Expr::If(c, t, e) => {
            if eval_bool_dyn(c, ctx)? {
                eval_dyn(t, ctx)
            } else {
                eval_dyn(e, ctx)
            }
        }
    }
}

/// Evaluate a boolean expression in a context.
///
/// # Errors
///
/// Propagates any unresolved reference as an [`EvalError`].
pub fn eval_bool(expr: &BoolExpr, ctx: &impl EvalContext) -> Result<bool, EvalError> {
    eval_bool_dyn(expr, ctx)
}

fn eval_bool_dyn(expr: &BoolExpr, ctx: &dyn EvalContext) -> Result<bool, EvalError> {
    match expr {
        BoolExpr::Lit(b) => Ok(*b),
        BoolExpr::Cmp(op, a, b) => Ok(op.apply(eval_dyn(a, ctx)?, eval_dyn(b, ctx)?)),
        BoolExpr::And(a, b) => Ok(eval_bool_dyn(a, ctx)? && eval_bool_dyn(b, ctx)?),
        BoolExpr::Or(a, b) => Ok(eval_bool_dyn(a, ctx)? || eval_bool_dyn(b, ctx)?),
        BoolExpr::Not(a) => Ok(!eval_bool_dyn(a, ctx)?),
        BoolExpr::Pred(e) => Ok(eval_dyn(e, ctx)? != 0.0),
    }
}

/// Context that shadows lambda parameters over a base context.
struct LambdaFrame<'a> {
    base: &'a dyn EvalContext,
    params: &'a [String],
    values: &'a [f64],
}

impl EvalContext for LambdaFrame<'_> {
    fn time(&self) -> f64 {
        self.base.time()
    }

    fn var(&self, name: &str) -> Result<f64, EvalError> {
        self.base.var(name)
    }

    fn attr(&self, entity: &str, attr: &str) -> Result<f64, EvalError> {
        self.base.attr(entity, attr)
    }

    fn arg(&self, name: &str) -> Result<f64, EvalError> {
        if let Some(i) = self.params.iter().position(|p| p == name) {
            Ok(self.values[i])
        } else {
            self.base.arg(name)
        }
    }

    fn lambda_attr(&self, entity: &str, attr: &str) -> Result<Lambda, EvalError> {
        self.base.lambda_attr(entity, attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CmpOp, UnaryOp};

    #[test]
    fn eval_leaves() {
        let ctx = MapContext::new()
            .at_time(2.5)
            .with_var("v", 1.0)
            .with_attr("n", "c", 4.0)
            .with_arg("br", 1.0);
        assert_eq!(eval(&Expr::Time, &ctx).unwrap(), 2.5);
        assert_eq!(eval(&Expr::var("v"), &ctx).unwrap(), 1.0);
        assert_eq!(eval(&Expr::attr("n", "c"), &ctx).unwrap(), 4.0);
        assert_eq!(eval(&Expr::arg("br"), &ctx).unwrap(), 1.0);
    }

    #[test]
    fn eval_unknown_references_error() {
        let ctx = MapContext::new();
        assert_eq!(
            eval(&Expr::var("x"), &ctx),
            Err(EvalError::UnknownVar("x".into()))
        );
        assert_eq!(
            eval(&Expr::attr("a", "b"), &ctx),
            Err(EvalError::UnknownAttr("a".into(), "b".into()))
        );
        assert_eq!(
            eval(&Expr::arg("q"), &ctx),
            Err(EvalError::UnknownArg("q".into()))
        );
    }

    #[test]
    fn eval_telegrapher_term() {
        // -var(t)/s.c with var(t)=0.2, s.c=1e-9 => -2e8
        let ctx = MapContext::new()
            .with_var("t", 0.2)
            .with_attr("s", "c", 1e-9);
        let e = Expr::var("t").neg().div(Expr::attr("s", "c"));
        assert!((eval(&e, &ctx).unwrap() + 2e8).abs() < 1.0);
    }

    #[test]
    fn eval_if_then_else() {
        let ctx = MapContext::new().at_time(5.0);
        let e = Expr::If(
            Box::new(BoolExpr::cmp(CmpOp::Ge, Expr::Time, Expr::constant(3.0))),
            Box::new(Expr::constant(1.0)),
            Box::new(Expr::constant(-1.0)),
        );
        assert_eq!(eval(&e, &ctx).unwrap(), 1.0);
    }

    #[test]
    fn eval_lambda_attr_call() {
        // InpI_0.fn(time) with fn = lambd(t): pulse(t, 0, 2e-8)
        let lam = Lambda::new(
            vec!["t"],
            Expr::Call(
                "pulse".into(),
                vec![Expr::arg("t"), Expr::constant(0.0), Expr::constant(2e-8)],
            ),
        );
        let ctx = MapContext::new()
            .at_time(1e-8)
            .with_lambda("InpI_0", "fn", lam);
        let e = Expr::CallAttr("InpI_0".into(), "fn".into(), vec![Expr::Time]);
        assert_eq!(eval(&e, &ctx).unwrap(), 1.0);
    }

    #[test]
    fn lambda_params_shadow_outer_args() {
        let lam = Lambda::new(vec!["t"], Expr::arg("t"));
        let ctx = MapContext::new()
            .with_arg("t", 99.0)
            .with_lambda("n", "f", lam);
        let e = Expr::CallAttr("n".into(), "f".into(), vec![Expr::constant(7.0)]);
        assert_eq!(eval(&e, &ctx).unwrap(), 7.0);
    }

    #[test]
    fn lambda_arity_mismatch_errors() {
        let lam = Lambda::new(vec!["t"], Expr::arg("t"));
        let ctx = MapContext::new().with_lambda("n", "f", lam);
        let e = Expr::CallAttr("n".into(), "f".into(), vec![]);
        assert!(matches!(
            eval(&e, &ctx),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn eval_bool_ops() {
        let ctx = MapContext::new().with_var("x", 2.0);
        let b = BoolExpr::cmp(CmpOp::Gt, Expr::var("x"), Expr::constant(1.0)).and(BoolExpr::cmp(
            CmpOp::Lt,
            Expr::var("x"),
            Expr::constant(3.0),
        ));
        assert!(eval_bool(&b, &ctx).unwrap());
        assert!(!eval_bool(&b.clone().not(), &ctx).unwrap());
        let p = BoolExpr::Pred(Box::new(Expr::var("x")));
        assert!(eval_bool(&p, &ctx).unwrap());
    }

    #[test]
    fn eval_nested_unary() {
        let ctx = MapContext::new().with_var("phi", std::f64::consts::PI / 4.0);
        let e = Expr::var("phi")
            .mul(Expr::constant(2.0))
            .unary(UnaryOp::Sin);
        assert!((eval(&e, &ctx).unwrap() - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::ast::UnaryOp;
    use crate::program::{LaneScratch, ProgramBuilder, SlotResolver};
    use proptest::prelude::*;

    /// Strategy for random expressions over vars x (slot 0) and y (slot 1).
    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![
            (-10.0..10.0f64).prop_map(Expr::Const),
            Just(Expr::Time),
            Just(Expr::var("x")),
            Just(Expr::var("y")),
        ];
        leaf.prop_recursive(4, 64, 3, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.add(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.sub(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.mul(b)),
                inner.clone().prop_map(|a| a.neg()),
                inner.clone().prop_map(|a| a.sin()),
                inner.clone().prop_map(|a| a.unary(UnaryOp::Tanh)),
                inner.prop_map(|a| a.unary(UnaryOp::Sat)),
            ]
        })
    }

    proptest! {
        /// A one-output fused program agrees with the tree-walking
        /// evaluator bit for bit.
        #[test]
        fn fused_program_bit_identical_to_eval(e in arb_expr(), x in -5.0..5.0f64, y in -5.0..5.0f64, t in 0.0..10.0f64) {
            let ctx = MapContext::new().at_time(t).with_var("x", x).with_var("y", y);
            let reference = eval(&e, &ctx).unwrap();
            let mut pb = ProgramBuilder::new();
            let resolve = SlotResolver(|n: &str| match n { "x" => Some(0), "y" => Some(1), _ => None });
            let v = pb.add_expr(&e, &resolve).unwrap();
            let prog = pb.finish(&[v], 0);
            let mut out = [0.0];
            prog.eval_into(&mut LaneScratch::<1>::default(), &[x, y], t, &[], &mut out);
            if reference.is_nan() {
                prop_assert!(out[0].is_nan());
            } else {
                prop_assert_eq!(reference.to_bits(), out[0].to_bits(),
                    "expr {} gave {} vs {}", e, reference, out[0]);
            }
        }

        /// Simplification preserves semantics.
        #[test]
        fn simplify_preserves_semantics(e in arb_expr(), x in -5.0..5.0f64, y in -5.0..5.0f64, t in 0.0..10.0f64) {
            let ctx = MapContext::new().at_time(t).with_var("x", x).with_var("y", y);
            let reference = eval(&e, &ctx).unwrap();
            let simplified = eval(&e.simplify(), &ctx).unwrap();
            if reference.is_nan() {
                prop_assert!(simplified.is_nan());
            } else {
                let scale = reference.abs().max(1.0);
                prop_assert!((reference - simplified).abs() <= 1e-12 * scale);
            }
        }

        /// Display → parse round-trips semantics for generated expressions.
        #[test]
        fn display_parse_roundtrip(e in arb_expr(), x in -5.0..5.0f64, y in -5.0..5.0f64) {
            let printed = e.to_string();
            let reparsed = crate::parse::parse_expr(&printed).unwrap();
            let ctx = MapContext::new().with_var("x", x).with_var("y", y);
            let a = eval(&e, &ctx).unwrap();
            let b = eval(&reparsed, &ctx).unwrap();
            if a.is_nan() {
                prop_assert!(b.is_nan());
            } else {
                let scale = a.abs().max(1.0);
                prop_assert!((a - b).abs() <= 1e-12 * scale, "printed: {}", printed);
            }
        }
    }
}
