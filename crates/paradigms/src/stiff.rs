//! Stiff benchmark paradigms: dynamical-graph encodings of the two
//! classic stiff ODE benchmarks, used to exercise the implicit
//! [`ark_ode::TrBdf2`] solver and the compiled Jacobian path end to end.
//!
//! * **Van der Pol** at large damping μ ([`vdp_language`] /
//!   [`vdp_oscillator`]): a two-node graph (position `x`, velocity `y`)
//!   whose single coupling edge carries the entire oscillator,
//!
//!   ```text
//!   dx/dt = y
//!   dy/dt = μ·(1 − x²)·y − x
//!   ```
//!
//!   At μ = 1000 the relaxation oscillation has boundary layers ~10⁶×
//!   faster than the slow manifold — the standard stress test where
//!   explicit steppers need millions of steps per period.
//!
//! * **Robertson kinetics** ([`robertson_language`] /
//!   [`robertson_network`]): the three-species autocatalytic reaction
//!
//!   ```text
//!   dA/dt = −0.04·A + 10⁴·B·C
//!   dB/dt =  0.04·A − 10⁴·B·C − 3·10⁷·B²
//!   dC/dt =                     3·10⁷·B²
//!   ```
//!
//!   encoded with a *product node* (`Reduction::Mul`, order 0) computing
//!   the algebraic `B·C` term — so differentiating the compiled system
//!   also exercises algebraic-node inlining in the value DAG. Rate
//!   constants spanning nine orders of magnitude make the problem stiff
//!   from `t ≈ 10⁻⁵` on. Mass (`A+B+C`) is conserved exactly by
//!   construction.

use crate::DynError;
use ark_core::func::GraphBuilder;
use ark_core::lang::{EdgeType, Language, LanguageBuilder, NodeType, ProdRule, Reduction};
use ark_core::types::SigType;
use ark_core::{Graph, LangError};
use ark_expr::parse_expr;

fn e(src: &str) -> ark_expr::Expr {
    parse_expr(src).expect("static rule expression")
}

/// Build the Van der Pol language: position node `X`, velocity node `Y`,
/// and a coupling edge `C` carrying the damping strength `mu`.
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn vdp_language() -> Language {
    try_vdp_language().expect("VdP language definition is valid")
}

fn try_vdp_language() -> Result<Language, LangError> {
    LanguageBuilder::new("vdp")
        .node_type(
            NodeType::new("X", 1, Reduction::Sum).init_default(SigType::real(-10.0, 10.0), 2.0),
        )
        .node_type(
            NodeType::new("Y", 1, Reduction::Sum).init_default(SigType::real(-1e4, 1e4), 0.0),
        )
        .edge_type(EdgeType::new("C").attr_default("mu", SigType::real(0.0, 1e7), 1000.0))
        // dx/dt = y.
        .prod(ProdRule::new(
            ("e", "C"),
            ("s", "X"),
            ("t", "Y"),
            "s",
            e("var(t)"),
        ))
        // dy/dt = mu·(1 − x²)·y − x.
        .prod(ProdRule::new(
            ("e", "C"),
            ("s", "X"),
            ("t", "Y"),
            "t",
            e("e.mu*(1 - var(s)*var(s))*var(t) - var(s)"),
        ))
        .finish()
}

/// Build a Van der Pol oscillator graph with damping `mu` and the classic
/// initial state `(x, y) = (2, 0)`. Nodes are named `x` and `y`.
///
/// # Errors
///
/// Propagates graph-construction errors (none for valid `mu`).
pub fn vdp_oscillator(lang: &Language, mu: f64) -> Result<Graph, DynError> {
    let mut b = GraphBuilder::new(lang, 0);
    b.node("x", "X")?;
    b.node("y", "Y")?;
    b.edge("c", "C", "x", "y")?;
    b.set_attr("c", "mu", mu)?;
    Ok(b.finish()?)
}

/// Build the Robertson kinetics language: species node `Sp` (order 1,
/// sum-reduced) and product node `Prod` (order 0, **product**-reduced,
/// collecting the `B·C` cross term), with one edge type per reaction
/// channel.
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn robertson_language() -> Language {
    try_robertson_language().expect("Robertson language definition is valid")
}

fn try_robertson_language() -> Result<Language, LangError> {
    LanguageBuilder::new("robertson")
        .node_type(
            NodeType::new("Sp", 1, Reduction::Sum).init_default(SigType::real(0.0, 1.0), 0.0),
        )
        .node_type(NodeType::new("Prod", 0, Reduction::Mul))
        // First-order channel `T` (A → B at rate k): linear transfer.
        .edge_type(EdgeType::new("T").attr_default("k", SigType::real(0.0, 1e8), 0.04))
        .prod(ProdRule::new(
            ("e", "T"),
            ("s", "Sp"),
            ("t", "Sp"),
            "s",
            e("-e.k*var(s)"),
        ))
        .prod(ProdRule::new(
            ("e", "T"),
            ("s", "Sp"),
            ("t", "Sp"),
            "t",
            e("e.k*var(s)"),
        ))
        // Quadratic channel `Q` (B → C at rate k·B²): autocatalytic decay.
        .edge_type(EdgeType::new("Q").attr_default("k", SigType::real(0.0, 1e8), 3e7))
        .prod(ProdRule::new(
            ("e", "Q"),
            ("s", "Sp"),
            ("t", "Sp"),
            "s",
            e("-e.k*var(s)*var(s)"),
        ))
        .prod(ProdRule::new(
            ("e", "Q"),
            ("s", "Sp"),
            ("t", "Sp"),
            "t",
            e("e.k*var(s)*var(s)"),
        ))
        // Factor feed `F` (species → product node): the product node
        // multiplies its incoming `var(s)` factors.
        .edge_type(EdgeType::new("F"))
        .prod(ProdRule::new(
            ("e", "F"),
            ("s", "Sp"),
            ("t", "Prod"),
            "t",
            e("var(s)"),
        ))
        // Gain feed `G` (product node → species at signed rate k): routes
        // the algebraic cross term back into the species derivatives.
        .edge_type(EdgeType::new("G").attr_default("k", SigType::real(-1e8, 1e8), 1e4))
        .prod(ProdRule::new(
            ("e", "G"),
            ("s", "Prod"),
            ("t", "Sp"),
            "t",
            e("e.k*var(s)"),
        ))
        .finish()
}

/// Build the Robertson reaction network with the standard rates
/// (`k1 = 0.04`, `k2 = 3·10⁷`, `k3 = 10⁴`) and initial state
/// `(A, B, C) = (1, 0, 0)`. Species nodes are named `a`, `b`, `c`; the
/// `B·C` product node is `bc`.
///
/// # Errors
///
/// Propagates graph-construction errors (none for the standard network).
pub fn robertson_network(lang: &Language) -> Result<Graph, DynError> {
    let mut b = GraphBuilder::new(lang, 0);
    b.node("a", "Sp")?;
    b.node("b", "Sp")?;
    b.node("c", "Sp")?;
    b.node("bc", "Prod")?;
    b.set_init("a", 0, 1.0)?;
    // A → B at k1.
    b.edge("r1", "T", "a", "b")?;
    b.set_attr("r1", "k", 0.04)?;
    // B → C at k2·B².
    b.edge("r2", "Q", "b", "c")?;
    b.set_attr("r2", "k", 3e7)?;
    // bc = B·C.
    b.edge("f1", "F", "b", "bc")?;
    b.edge("f2", "F", "c", "bc")?;
    // B·C recombination: +k3·B·C into A, −k3·B·C into B.
    b.edge("g1", "G", "bc", "a")?;
    b.set_attr("g1", "k", 1e4)?;
    b.edge("g2", "G", "bc", "b")?;
    b.set_attr("g2", "k", -1e4)?;
    Ok(b.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_core::CompiledSystem;

    #[test]
    fn vdp_rhs_matches_hand_formula() {
        let lang = vdp_language();
        let g = vdp_oscillator(&lang, 1000.0).unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        assert_eq!(sys.num_states(), 2);
        let (ix, iy) = (sys.state_index("x").unwrap(), sys.state_index("y").unwrap());
        let init = sys.initial_state();
        assert_eq!(init[ix], 2.0);
        assert_eq!(init[iy], 0.0);
        let mut y = vec![0.0; 2];
        y[ix] = 1.5;
        y[iy] = -0.25;
        let mut d = vec![0.0; 2];
        sys.rhs_with_params(0.0, &y, &mut d, &[], &mut sys.scratch());
        assert_eq!(d[ix], -0.25);
        let want = 1000.0 * (1.0 - 1.5 * 1.5) * (-0.25) - 1.5;
        assert!((d[iy] - want).abs() < 1e-9 * want.abs());
    }

    #[test]
    fn vdp_jacobian_matches_hand_formula() {
        let lang = vdp_language();
        let g = vdp_oscillator(&lang, 1000.0).unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let (ix, iy) = (sys.state_index("x").unwrap(), sys.state_index("y").unwrap());
        let n = 2;
        let mut state = vec![0.0; n];
        state[ix] = 1.5;
        state[iy] = -0.25;
        let mut jac = vec![f64::NAN; n * n];
        sys.eval_jacobian_with(0.0, &state, &[], &mut jac, &mut sys.scratch());
        // ∂(dx)/∂x = 0, ∂(dx)/∂y = 1.
        assert_eq!(jac[ix * n + ix], 0.0);
        assert_eq!(jac[ix * n + iy], 1.0);
        // ∂(dy)/∂x = −2μxy − 1, ∂(dy)/∂y = μ(1 − x²).
        let dyx = -2.0 * 1000.0 * 1.5 * (-0.25) - 1.0;
        let dyy = 1000.0 * (1.0 - 1.5 * 1.5);
        assert!((jac[iy * n + ix] - dyx).abs() < 1e-9 * dyx.abs());
        assert!((jac[iy * n + iy] - dyy).abs() < 1e-9 * dyy.abs());
    }

    #[test]
    fn robertson_rhs_matches_hand_formula_and_conserves_mass() {
        let lang = robertson_language();
        let g = robertson_network(&lang).unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        assert_eq!(sys.num_states(), 3);
        assert!(sys.is_algebraic("bc"));
        let (ia, ib, ic) = (
            sys.state_index("a").unwrap(),
            sys.state_index("b").unwrap(),
            sys.state_index("c").unwrap(),
        );
        let init = sys.initial_state();
        assert_eq!(init[ia], 1.0);
        assert_eq!(init[ib], 0.0);
        assert_eq!(init[ic], 0.0);
        let (a, b, c) = (0.7, 2e-5, 0.3);
        let mut y = vec![0.0; 3];
        y[ia] = a;
        y[ib] = b;
        y[ic] = c;
        let mut d = vec![0.0; 3];
        sys.rhs_with_params(0.0, &y, &mut d, &[], &mut sys.scratch());
        let da = -0.04 * a + 1e4 * b * c;
        let db = 0.04 * a - 3e7 * b * b - 1e4 * b * c;
        let dc = 3e7 * b * b;
        assert!((d[ia] - da).abs() < 1e-12 * da.abs().max(1.0));
        assert!((d[ib] - db).abs() < 1e-12 * db.abs().max(1.0));
        assert!((d[ic] - dc).abs() < 1e-12 * dc.abs().max(1.0));
        // Mass conservation: the derivatives sum to zero exactly in the
        // reaction algebra (and to roundoff in floating point).
        assert!((d[ia] + d[ib] + d[ic]).abs() < 1e-12);
    }

    #[test]
    fn robertson_jacobian_includes_the_algebraic_cross_term() {
        let lang = robertson_language();
        let g = robertson_network(&lang).unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let (ia, ib, ic) = (
            sys.state_index("a").unwrap(),
            sys.state_index("b").unwrap(),
            sys.state_index("c").unwrap(),
        );
        let n = 3;
        let (a, b, c) = (0.6, 3e-5, 0.4);
        let mut y = vec![0.0; n];
        y[ia] = a;
        y[ib] = b;
        y[ic] = c;
        let mut jac = vec![f64::NAN; n * n];
        sys.eval_jacobian_with(0.0, &y, &[], &mut jac, &mut sys.scratch());
        let close = |got: f64, want: f64| (got - want).abs() <= 1e-9 * want.abs().max(1.0);
        // Differentiating through the inlined algebraic product node
        // produces the ∂(B·C) terms.
        assert!(close(jac[ia * n + ia], -0.04));
        assert!(close(jac[ia * n + ib], 1e4 * c));
        assert!(close(jac[ia * n + ic], 1e4 * b));
        assert!(close(jac[ib * n + ia], 0.04));
        assert!(close(jac[ib * n + ib], -6e7 * b - 1e4 * c));
        assert!(close(jac[ib * n + ic], -1e4 * b));
        assert!(close(jac[ic * n + ia], 0.0));
        assert!(close(jac[ic * n + ib], 6e7 * b));
        assert!(close(jac[ic * n + ic], 0.0));
        // Sparsity: row C depends on B only.
        let pattern = sys.sparsity();
        assert_eq!(pattern[ic], vec![ib]);
    }
}
