//! The transmission-line-network (TLN) compute paradigm (paper §2, §4.4)
//! and its GmC hardware extension (§2.3–2.4, §4.5).
//!
//! A transmission line is segmented into alternating `V`/`I` nodes whose
//! dynamics follow the discretized Telegrapher's equations (paper Eq. 1):
//!
//! ```text
//! dVᵢ/dt = (Iᵢ − Iᵢ₊₁ − G·Vᵢ) / Cᵢ
//! dIᵢ/dt = (Vᵢ₋₁ − Vᵢ − R·Iᵢ) / Lᵢ
//! ```
//!
//! The GmC-TLN extension models device mismatch in a GmC-integrator
//! realization: `Vm`/`Im` node types override `c`/`l` with 10% mismatch
//! (the `Cint` device parameter), and the `Em` edge type adds mismatched
//! `ws`/`wt` gain attributes (the `Gm` device parameters), implementing the
//! modified Telegrapher's equations (paper Eq. 3).

use ark_core::func::{GraphBuilder, ParametricGraph};
use ark_core::lang::{
    EdgeType, Language, LanguageBuilder, MatchClause, NodeType, Pattern, ProdRule, Reduction,
    ValidityRule,
};
use ark_core::types::SigType;
use ark_core::{FuncError, Graph, LangError};
use ark_expr::{parse_expr, Expr, Lambda};

/// Default per-segment inductance/capacitance (1 ns delay per segment).
pub const SEGMENT_LC: f64 = 1e-9;
/// Default input pulse width (paper: `pulse(t, 0, 2e-8)`).
pub const PULSE_WIDTH: f64 = 2e-8;

fn e(src: &str) -> Expr {
    parse_expr(src).expect("static rule expression")
}

/// Build the base TLN language (paper Figure 7).
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn tln_language() -> Language {
    try_tln_language().expect("TLN language definition is valid")
}

fn try_tln_language() -> Result<Language, LangError> {
    LanguageBuilder::new("tln")
        .node_type(
            NodeType::new("V", 1, Reduction::Sum)
                .attr("c", SigType::real(1e-10, 1e-8))
                .attr_default("g", SigType::real(0.0, f64::INFINITY), 0.0)
                .init_default(SigType::real(-100.0, 100.0), 0.0),
        )
        .node_type(
            NodeType::new("I", 1, Reduction::Sum)
                .attr("l", SigType::real(1e-10, 1e-8))
                .attr_default("r", SigType::real(0.0, f64::INFINITY), 0.0)
                .init_default(SigType::real(-100.0, 100.0), 0.0),
        )
        .node_type(
            NodeType::new("InpV", 0, Reduction::Sum)
                .attr("fn", SigType::lambda(1))
                .attr_default("r", SigType::real(0.0, f64::INFINITY), 1.0),
        )
        .node_type(
            NodeType::new("InpI", 0, Reduction::Sum)
                .attr("fn", SigType::lambda(1))
                .attr_default("g", SigType::real(0.0, f64::INFINITY), 1.0),
        )
        .edge_type(EdgeType::new("E"))
        // Telegrapher couplings (paper Eq. 1 / Figure 7).
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "V"),
            ("t", "I"),
            "s",
            e("-var(t)/s.c"),
        ))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "V"),
            ("t", "I"),
            "t",
            e("var(s)/t.l"),
        ))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "I"),
            ("t", "V"),
            "s",
            e("-var(t)/s.l"),
        ))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "I"),
            ("t", "V"),
            "t",
            e("var(s)/t.c"),
        ))
        // Loss terms on self edges.
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "V"),
            ("s", "V"),
            "s",
            e("-s.g*var(s)/s.c"),
        ))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "I"),
            ("s", "I"),
            "s",
            e("-s.r*var(s)/s.l"),
        ))
        // Source couplings (resistive/conductive sources, cf. Figure 14).
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "InpV"),
            ("t", "V"),
            "t",
            e("(-var(t)+s.fn(time))/(s.r*t.c)"),
        ))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "InpV"),
            ("t", "I"),
            "t",
            e("(-s.r*var(t)+s.fn(time))/t.l"),
        ))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "InpI"),
            ("t", "V"),
            "t",
            e("(-s.g*var(t)+s.fn(time))/t.c"),
        ))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "InpI"),
            ("t", "I"),
            "t",
            e("(-var(t)+s.fn(time))/(s.g*t.l)"),
        ))
        // Validity: V and I alternate; each V/I carries exactly one self
        // edge; inputs feed V or I nodes (Figure 7).
        .cstr(ValidityRule::new("V").accept(Pattern::new(vec![
            MatchClause::outgoing(0, None, "E", &["I"]),
            MatchClause::incoming(0, None, "E", &["I"]),
            MatchClause::incoming(0, None, "E", &["InpV"]),
            MatchClause::incoming(0, None, "E", &["InpI"]),
            MatchClause::self_loop(1, Some(1), "E"),
        ])))
        .cstr(ValidityRule::new("I").accept(Pattern::new(vec![
            MatchClause::outgoing(0, Some(1), "E", &["V"]),
            MatchClause::incoming(0, Some(1), "E", &["V", "InpV", "InpI"]),
            MatchClause::self_loop(1, Some(1), "E"),
        ])))
        .cstr(
            ValidityRule::new("InpV").accept(Pattern::new(vec![MatchClause::outgoing(
                1,
                None,
                "E",
                &["V", "I"],
            )])),
        )
        .cstr(
            ValidityRule::new("InpI").accept(Pattern::new(vec![MatchClause::outgoing(
                1,
                None,
                "E",
                &["V", "I"],
            )])),
        )
        .finish()
}

/// Build the GmC-TLN extension (paper Figure 9): `Vm`/`Im` with mismatched
/// `c`/`l` (the `Cint` device) and `Em` with mismatched `ws`/`wt` gains
/// (the `Gm` devices), implementing the modified Telegrapher's equations.
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn gmc_tln_language(base: &Language) -> Language {
    try_gmc_tln_language(base).expect("GmC-TLN language definition is valid")
}

fn try_gmc_tln_language(base: &Language) -> Result<Language, LangError> {
    LanguageBuilder::derive("gmc_tln", base)
        .node_type(
            NodeType::new("Vm", 1, Reduction::Sum)
                .inherit("V")
                .attr("c", SigType::real(1e-10, 1e-8).with_mismatch(0.0, 0.1)),
        )
        .node_type(
            NodeType::new("Im", 1, Reduction::Sum)
                .inherit("I")
                .attr("l", SigType::real(1e-10, 1e-8).with_mismatch(0.0, 0.1)),
        )
        .edge_type(
            EdgeType::new("Em")
                .inherit("E")
                .attr_default("ws", SigType::real(0.5, 2.0).with_mismatch(0.0, 0.1), 1.0)
                .attr_default("wt", SigType::real(0.5, 2.0).with_mismatch(0.0, 0.1), 1.0),
        )
        // Modified Telegrapher's equations (paper Eq. 3 / Figure 14).
        .prod(ProdRule::new(
            ("e", "Em"),
            ("s", "V"),
            ("t", "I"),
            "s",
            e("-e.ws*var(t)/s.c"),
        ))
        .prod(ProdRule::new(
            ("e", "Em"),
            ("s", "V"),
            ("t", "I"),
            "t",
            e("e.wt*var(s)/t.l"),
        ))
        .prod(ProdRule::new(
            ("e", "Em"),
            ("s", "I"),
            ("t", "V"),
            "s",
            e("-e.ws*var(t)/s.l"),
        ))
        .prod(ProdRule::new(
            ("e", "Em"),
            ("s", "I"),
            ("t", "V"),
            "t",
            e("e.wt*var(s)/t.c"),
        ))
        .prod(ProdRule::new(
            ("e", "Em"),
            ("s", "InpV"),
            ("t", "V"),
            "t",
            e("e.wt*(-var(t)+s.fn(time))/(s.r*t.c)"),
        ))
        .prod(ProdRule::new(
            ("e", "Em"),
            ("s", "InpV"),
            ("t", "I"),
            "t",
            e("e.wt*(-s.r*var(t)+s.fn(time))/t.l"),
        ))
        .prod(ProdRule::new(
            ("e", "Em"),
            ("s", "InpI"),
            ("t", "V"),
            "t",
            e("e.wt*(-s.g*var(t)+s.fn(time))/t.c"),
        ))
        .prod(ProdRule::new(
            ("e", "Em"),
            ("s", "InpI"),
            ("t", "I"),
            "t",
            e("e.wt*(-var(t)+s.fn(time))/(s.g*t.l)"),
        ))
        .finish()
}

/// Which analog nonideality to model when instantiating a t-line in the
/// GmC-TLN language (paper Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MismatchKind {
    /// Ideal devices (base TLN types).
    None,
    /// `Cint` mismatch: substitute `Vm`/`Im` node types (Figure 5-i).
    Cint,
    /// `Gm` mismatch: substitute `Em` edge types (Figure 5-ii).
    Gm,
    /// Both substitutions at once.
    Both,
}

impl MismatchKind {
    fn v_ty(self) -> &'static str {
        match self {
            MismatchKind::Cint | MismatchKind::Both => "Vm",
            _ => "V",
        }
    }

    fn i_ty(self) -> &'static str {
        match self {
            MismatchKind::Cint | MismatchKind::Both => "Im",
            _ => "I",
        }
    }

    fn e_ty(self) -> &'static str {
        match self {
            MismatchKind::Gm | MismatchKind::Both => "Em",
            _ => "E",
        }
    }
}

/// Configuration for t-line generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TlineConfig {
    /// Per-segment inductance and capacitance (sets 1-segment delay √(LC)).
    pub lc: f64,
    /// Termination conductance at `OUT_V` (1.0 = matched for L = C).
    pub load_g: f64,
    /// Source conductance of the input current source.
    pub source_g: f64,
    /// Input pulse width in seconds.
    pub pulse_width: f64,
    /// Which device mismatch to model (requires the GmC-TLN language for
    /// anything but [`MismatchKind::None`]).
    pub mismatch: MismatchKind,
}

impl Default for TlineConfig {
    fn default() -> Self {
        TlineConfig {
            lc: SEGMENT_LC,
            load_g: 1.0,
            source_g: 1.0,
            pulse_width: PULSE_WIDTH,
            mismatch: MismatchKind::None,
        }
    }
}

/// The input pulse lambda `pulse(t, 0, width)`.
pub fn pulse_fn(width: f64) -> Lambda {
    Lambda::new(
        vec!["t"],
        Expr::Call(
            "pulse".into(),
            vec![Expr::arg("t"), Expr::constant(0.0), Expr::constant(width)],
        ),
    )
}

/// Internal helper laying down one chain of alternating I/V segments
/// starting from the node named `from`, returning the name of the last V.
#[allow(clippy::too_many_arguments)]
fn lay_segments(
    b: &mut GraphBuilder<'_>,
    cfg: &TlineConfig,
    prefix: &str,
    from: &str,
    count: usize,
    last_g: f64,
) -> Result<String, FuncError> {
    let (vt, it, et) = (
        cfg.mismatch.v_ty(),
        cfg.mismatch.i_ty(),
        cfg.mismatch.e_ty(),
    );
    let mut prev_v = from.to_string();
    for k in 0..count {
        let iname = format!("{prefix}I_{k}");
        let vname = format!("{prefix}V_{k}");
        b.node(&iname, it)?;
        b.set_attr(&iname, "l", cfg.lc)?;
        b.set_attr(&iname, "r", 0.0)?;
        b.edge(&format!("{prefix}eIs_{k}"), et, &iname, &iname)?;
        b.node(&vname, vt)?;
        b.set_attr(&vname, "c", cfg.lc)?;
        b.set_attr(&vname, "g", if k + 1 == count { last_g } else { 0.0 })?;
        b.edge(&format!("{prefix}eVs_{k}"), et, &vname, &vname)?;
        b.edge(&format!("{prefix}eA_{k}"), et, &prev_v, &iname)?;
        b.edge(&format!("{prefix}eB_{k}"), et, &iname, &vname)?;
        prev_v = vname;
    }
    Ok(prev_v)
}

/// Build a linear (non-branched) t-line with `segments` LC segments
/// (Figure 2-ii). The graph contains one `InpI` source, `IN_V`, and then
/// `segments` I/V pairs ending in the terminated `OUT_V` — 53 nodes for the
/// paper's 26-segment line. The node to observe is `OUT_V`.
///
/// # Errors
///
/// Propagates construction errors (e.g. mismatch kinds unavailable in the
/// base language).
pub fn linear_tline(
    lang: &Language,
    segments: usize,
    cfg: &TlineConfig,
    seed: u64,
) -> Result<Graph, FuncError> {
    let mut b = GraphBuilder::new(lang, seed);
    build_linear_tline(&mut b, segments, cfg)?;
    b.finish()
}

/// [`linear_tline`] as a *parametric* graph: the mismatch-annotated device
/// attributes (`Cint`, `Gm`) become parameter slots, so one
/// [`ark_core::CompiledSystem::compile_parametric`] serves every fabricated
/// instance of the §2.4 Monte Carlo without recompiling.
///
/// # Errors
///
/// Propagates construction errors.
pub fn linear_tline_parametric(
    lang: &Language,
    segments: usize,
    cfg: &TlineConfig,
) -> Result<ParametricGraph, FuncError> {
    let mut b = GraphBuilder::new_parametric(lang);
    build_linear_tline(&mut b, segments, cfg)?;
    b.finish_parametric()
}

/// Shared statement body of [`linear_tline`]/[`linear_tline_parametric`]
/// (identical statement order is what keeps parametric replay exact).
fn build_linear_tline(
    b: &mut GraphBuilder<'_>,
    segments: usize,
    cfg: &TlineConfig,
) -> Result<(), FuncError> {
    let (vt, et) = (cfg.mismatch.v_ty(), cfg.mismatch.e_ty());
    b.node("InpI_0", "InpI")?;
    b.set_attr("InpI_0", "fn", pulse_fn(cfg.pulse_width))?;
    b.set_attr("InpI_0", "g", cfg.source_g)?;
    b.node("IN_V", vt)?;
    b.set_attr("IN_V", "c", cfg.lc)?;
    b.set_attr("IN_V", "g", 0.0)?;
    b.edge("eInp", et, "InpI_0", "IN_V")?;
    b.edge("eInVs", et, "IN_V", "IN_V")?;
    lay_segments(b, cfg, "", "IN_V", segments, cfg.load_g)?;
    Ok(())
}

/// Name of the observation node for a line built with [`linear_tline`].
pub fn linear_out_v(segments: usize) -> String {
    format!("V_{}", segments - 1)
}

/// Build a branched t-line (Figure 2-i): a trunk of `before` segments to the
/// junction, a stub of `branch` segments hanging off it (open-ended), and
/// `after` more trunk segments to the terminated output. With
/// `before=8, branch=10, after=8` the graph has 53 nodes like the paper's.
///
/// # Errors
///
/// Propagates construction errors.
pub fn branched_tline(
    lang: &Language,
    before: usize,
    branch: usize,
    after: usize,
    cfg: &TlineConfig,
    seed: u64,
) -> Result<Graph, FuncError> {
    let mut b = GraphBuilder::new(lang, seed);
    let (vt, et) = (cfg.mismatch.v_ty(), cfg.mismatch.e_ty());
    b.node("InpI_0", "InpI")?;
    b.set_attr("InpI_0", "fn", pulse_fn(cfg.pulse_width))?;
    b.set_attr("InpI_0", "g", cfg.source_g)?;
    b.node("IN_V", vt)?;
    b.set_attr("IN_V", "c", cfg.lc)?;
    b.set_attr("IN_V", "g", 0.0)?;
    b.edge("eInp", et, "InpI_0", "IN_V")?;
    b.edge("eInVs", et, "IN_V", "IN_V")?;
    let junction = lay_segments(&mut b, cfg, "t_", "IN_V", before, 0.0)?;
    // Open-ended branch stub off the junction.
    lay_segments(&mut b, cfg, "b_", &junction, branch, 0.0)?;
    // Trunk continues to the terminated output.
    lay_segments(&mut b, cfg, "o_", &junction, after, cfg.load_g)?;
    b.finish()
}

/// Name of the observation node for a line built with [`branched_tline`].
pub fn branched_out_v(after: usize) -> String {
    format!("o_V_{}", after - 1)
}

/// The §2.4 mismatch Monte Carlo (Figure 4c/4d envelopes) on the `ark-sim`
/// engine, compile-once edition: the design is built and compiled
/// **one time** ([`linear_tline_parametric`]); each fabricated instance is
/// just a parameter vector sampled from its seed, integrated (RK4,
/// recording every `stride`-th step) across the ensemble's worker pool.
/// Trajectories come back in `seeds` order, bit-identical for any worker
/// count *and* to the historical rebuild-per-seed path.
///
/// # Errors
///
/// The build/compile failure of the design, or the first (by seed order)
/// integration failure.
#[allow(clippy::too_many_arguments)]
pub fn tline_mismatch_ensemble(
    lang: &Language,
    segments: usize,
    cfg: &TlineConfig,
    t_end: f64,
    dt: f64,
    stride: usize,
    seeds: &[u64],
    ens: &ark_sim::Ensemble,
) -> Result<Vec<ark_ode::Trajectory>, crate::DynError> {
    let pg = linear_tline_parametric(lang, segments, cfg)?;
    let sys = ark_core::CompiledSystem::compile_parametric(lang, &pg)?;
    Ok(ens
        .run(&sys, &ark_ode::Rk4 { dt }, seeds, 0.0, t_end)
        .stride(stride)
        .trajectories()?)
}

/// The paper's `br_func` (Figure 8) expressed in Ark source text: a
/// programmable 2-segment line with a switchable branch stub.
pub const BR_FUNC_SRC: &str = r#"
lang tln_demo {
    ntyp(1, sum) V {
        attr c = real[1e-10, 1e-08];
        attr g = real[0, inf] default 0;
        init(0) = real[-100, 100] default 0;
    };
    ntyp(1, sum) I {
        attr l = real[1e-10, 1e-08];
        attr r = real[0, inf] default 0;
        init(0) = real[-100, 100] default 0;
    };
    ntyp(0, sum) InpI { attr fn = fn(a0); attr g = real[0, inf] default 1; };
    etyp E {};
    prod(e:E, s:V -> t:I) s <= -var(t)/s.c;
    prod(e:E, s:V -> t:I) t <= var(s)/t.l;
    prod(e:E, s:I -> t:V) s <= -var(t)/s.l;
    prod(e:E, s:I -> t:V) t <= var(s)/t.c;
    prod(e:E, s:V -> s:V) s <= -s.g*var(s)/s.c;
    prod(e:E, s:I -> s:I) s <= -s.r*var(s)/s.l;
    prod(e:E, s:InpI -> t:V) t <= (-s.g*var(t)+s.fn(time))/t.c;
}

func br_func(br: int[0, 1]) uses tln_demo {
    node InpI_0 : InpI;
    node IN_V : V;
    node I_0 : I;
    node V_0 : V;
    node I_1 : I;
    node OUT_V : V;
    node I_2 : I;
    node BR_V : V;
    edge <InpI_0, IN_V> eInp : E;
    edge <IN_V, IN_V> s0 : E;
    edge <IN_V, I_0> e0 : E;
    edge <I_0, I_0> s1 : E;
    edge <I_0, V_0> e1 : E;
    edge <V_0, V_0> s2 : E;
    edge <V_0, I_1> e2 : E;
    edge <I_1, I_1> s3 : E;
    edge <I_1, OUT_V> e3 : E;
    edge <OUT_V, OUT_V> s4 : E;
    edge <V_0, I_2> e4 : E;
    edge <I_2, I_2> s5 : E;
    edge <I_2, BR_V> e5 : E;
    edge <BR_V, BR_V> s6 : E;
    set-attr InpI_0.fn = lambd(t): pulse(t, 0, 2e-8);
    set-attr InpI_0.g = 1.0;
    set-attr IN_V.c = 1e-9;
    set-attr I_0.l = 1e-9;
    set-attr V_0.c = 1e-9;
    set-attr I_1.l = 1e-9;
    set-attr OUT_V.c = 1e-9;
    set-attr OUT_V.g = 1.0;
    set-attr I_2.l = 1e-9;
    set-attr BR_V.c = 1e-9;
    set-switch e4 when br;
    set-switch e5 when br;
}
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use ark_core::compile::CompiledSystem;
    use ark_core::program::Program;
    use ark_core::validate::{validate, ExternRegistry};
    use ark_core::Value;
    use ark_ode::{integrate, Rk4};

    fn simulate(
        lang: &Language,
        graph: &Graph,
        t_end: f64,
        dt: f64,
    ) -> (CompiledSystem, ark_ode::Trajectory) {
        let sys = CompiledSystem::compile(lang, graph).unwrap();
        let y0 = sys.initial_state();
        let tr = integrate(&Rk4 { dt }, &sys.bind(), 0.0, &y0, t_end, 8).unwrap();
        (sys, tr)
    }

    #[test]
    fn tln_language_builds() {
        let lang = tln_language();
        assert_eq!(lang.name(), "tln");
        assert!(lang.node_type("V").is_some());
        assert!(lang.node_type("InpI").is_some());
        assert_eq!(lang.prod_rules().len(), 10);
    }

    #[test]
    fn gmc_language_extends_tln() {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        assert_eq!(gmc.parent_name(), Some("tln"));
        assert!(gmc.node_is_a("Vm", "V"));
        assert!(gmc.node_is_a("Im", "I"));
        assert!(gmc.edge_is_a("Em", "E"));
        // Em attributes carry 10% relative mismatch.
        let em = gmc.edge_type("Em").unwrap();
        assert_eq!(em.attrs["ws"].ty.mismatch.unwrap().rel, 0.1);
    }

    #[test]
    fn linear_line_is_valid() {
        let lang = tln_language();
        let g = linear_tline(&lang, 26, &TlineConfig::default(), 0).unwrap();
        // 53 line nodes (IN_V + 26 I + 26 V) plus the InpI source.
        assert_eq!(g.num_nodes(), 54);
        let report = validate(&lang, &g, &ExternRegistry::new()).unwrap();
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn branched_line_is_valid_and_53_nodes() {
        let lang = tln_language();
        let g = branched_tline(&lang, 8, 10, 8, &TlineConfig::default(), 0).unwrap();
        // InpI + IN_V + 2*(8+10+8) segments + junction bookkeeping:
        // 2 + 2*26 = 54? Count: InpI, IN_V, then (8+10+8)=26 I/V pairs.
        assert_eq!(g.num_nodes(), 2 + 2 * 26);
        let report = validate(&lang, &g, &ExternRegistry::new()).unwrap();
        assert!(report.is_valid(), "{report}");
    }

    #[test]
    fn malformed_v_v_line_is_invalid() {
        // Figure 2-(iii): a V–V connection violates the alternation rule.
        let lang = tln_language();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("InpI_0", "InpI").unwrap();
        b.set_attr("InpI_0", "fn", pulse_fn(PULSE_WIDTH)).unwrap();
        b.node("IN_V", "V").unwrap();
        b.set_attr("IN_V", "c", 1e-9).unwrap();
        b.node("V_0", "V").unwrap();
        b.set_attr("V_0", "c", 1e-9).unwrap();
        b.node("OUT_V", "V").unwrap();
        b.set_attr("OUT_V", "c", 1e-9).unwrap();
        b.edge("eInp", "E", "InpI_0", "IN_V").unwrap();
        b.edge("s0", "E", "IN_V", "IN_V").unwrap();
        b.edge("bad0", "E", "IN_V", "V_0").unwrap();
        b.edge("s1", "E", "V_0", "V_0").unwrap();
        b.edge("bad1", "E", "V_0", "OUT_V").unwrap();
        b.edge("s2", "E", "OUT_V", "OUT_V").unwrap();
        let g = b.finish().unwrap();
        let report = validate(&lang, &g, &ExternRegistry::new()).unwrap();
        assert!(!report.is_valid());
    }

    #[test]
    fn linear_line_pulse_propagates() {
        // Figure 4b: a single clean pulse of ≈0.5 at OUT_V, no echo.
        let lang = tln_language();
        let segments = 26;
        let g = linear_tline(&lang, segments, &TlineConfig::default(), 0).unwrap();
        let (sys, tr) = simulate(&lang, &g, 8e-8, 2e-11);
        let out = sys.state_index(&linear_out_v(segments)).unwrap();
        // Peak near 0.5 after the line delay (26 ns one way).
        let (t_peak, v_peak) = tr.peak_in_window(out, 0.0, 8e-8);
        assert!((v_peak - 0.5).abs() < 0.08, "peak {v_peak}");
        assert!(t_peak > 2.0e-8 && t_peak < 5.5e-8, "t_peak {t_peak}");
        // No echo: after the pulse passes, the line stays quiet.
        let (_, v_late) = tr.peak_in_window(out, 6.5e-8, 8e-8);
        assert!(v_late < 0.1 * v_peak, "late energy {v_late}");
    }

    #[test]
    fn branched_line_shows_echo() {
        // Figure 4a: attenuated first pulse plus an echo from the stub.
        let lang = tln_language();
        let g = branched_tline(&lang, 8, 10, 8, &TlineConfig::default(), 0).unwrap();
        let (sys, tr) = simulate(&lang, &g, 1.2e-7, 2e-11);
        let out = sys.state_index(&branched_out_v(8)).unwrap();
        let (t_main, v_main) = tr.peak_in_window(out, 0.0, 4.5e-8);
        // Junction splits the wave: main peak noticeably below 0.5.
        assert!(v_main < 0.45 && v_main > 0.2, "main peak {v_main}");
        // Echo: energy in a window after the main pulse has passed.
        let (t_echo, v_echo) = tr.peak_in_window(out, t_main + 2.2e-8, 1.2e-7);
        assert!(v_echo > 0.3 * v_main, "echo {v_echo} vs main {v_main}");
        assert!(t_echo > t_main + 1.5e-8);
    }

    #[test]
    fn ideal_line_runs_identically_in_gmc_language() {
        // §4.1.1 guarantee: the TLN program simulates identically under the
        // derived GmC-TLN language.
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let g1 = linear_tline(&base, 8, &TlineConfig::default(), 0).unwrap();
        let g2 = linear_tline(&gmc, 8, &TlineConfig::default(), 0).unwrap();
        let (sys1, tr1) = simulate(&base, &g1, 2e-8, 5e-11);
        let (_sys2, tr2) = simulate(&gmc, &g2, 2e-8, 5e-11);
        let out = sys1.state_index(&linear_out_v(8)).unwrap();
        for (a, b) in tr1.series(out).iter().zip(tr2.series(out)) {
            assert_eq!(a.1, b.1);
        }
    }

    #[test]
    fn mismatched_lines_vary_across_seeds() {
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let cfg = TlineConfig {
            mismatch: MismatchKind::Gm,
            ..TlineConfig::default()
        };
        let g1 = linear_tline(&gmc, 8, &cfg, 1).unwrap();
        let g2 = linear_tline(&gmc, 8, &cfg, 2).unwrap();
        let report = validate(&gmc, &g1, &ExternRegistry::new()).unwrap();
        assert!(report.is_valid(), "{report}");
        let (sys1, tr1) = simulate(&gmc, &g1, 2e-8, 5e-11);
        let (_s, tr2) = simulate(&gmc, &g2, 2e-8, 5e-11);
        let out = sys1.state_index(&linear_out_v(8)).unwrap();
        let a = tr1.value_at(1.5e-8, out);
        let b = tr2.value_at(1.5e-8, out);
        assert_ne!(a, b);
    }

    #[test]
    fn gm_mismatch_spreads_more_than_cint() {
        // The headline Figure 4c/4d observation, at reduced scale: the
        // per-time std-dev envelope under Gm mismatch dominates Cint's.
        let base = tln_language();
        let gmc = gmc_tln_language(&base);
        let ens = ark_sim::Ensemble::new(2);
        let run = |kind: MismatchKind, trials: usize| {
            let cfg = TlineConfig {
                mismatch: kind,
                ..TlineConfig::default()
            };
            let seeds: Vec<u64> = (0..trials as u64).collect();
            tline_mismatch_ensemble(&gmc, 8, &cfg, 3e-8, 5e-11, 8, &seeds, &ens).unwrap()
        };
        let sys_idx = {
            let g = linear_tline(&gmc, 8, &TlineConfig::default(), 0).unwrap();
            let sys = CompiledSystem::compile(&gmc, &g).unwrap();
            sys.state_index(&linear_out_v(8)).unwrap()
        };
        let cint = run(MismatchKind::Cint, 12);
        let gm = run(MismatchKind::Gm, 12);
        let cint_stats = ark_ode::ensemble_stats(&cint, sys_idx, 0.5e-8, 3e-8, 40);
        let gm_stats = ark_ode::ensemble_stats(&gm, sys_idx, 0.5e-8, 3e-8, 40);
        assert!(
            gm_stats.mean_std() > 1.5 * cint_stats.mean_std(),
            "gm {} vs cint {}",
            gm_stats.mean_std(),
            cint_stats.mean_std()
        );
    }

    #[test]
    fn br_func_textual_program_switches_branch() {
        let prog = Program::parse(BR_FUNC_SRC).unwrap();
        let g0 = prog.invoke("br_func", &[Value::Int(0)], 0).unwrap();
        let g1 = prog.invoke("br_func", &[Value::Int(1)], 0).unwrap();
        assert!(!g0.edge(g0.edge_id("e4").unwrap()).on);
        assert!(g1.edge(g1.edge_id("e4").unwrap()).on);
        // Both compile and simulate; the branched variant differs at OUT_V.
        let lang = prog.language("tln_demo").unwrap();
        let (s0, t0) = simulate(lang, &g0, 1.5e-8, 1e-11);
        let (_s1, t1) = simulate(lang, &g1, 1.5e-8, 1e-11);
        let out = s0.state_index("OUT_V").unwrap();
        let d: f64 = (0..10)
            .map(|k| {
                let t = 2e-9 + k as f64 * 1e-9;
                (t0.value_at(t, out) - t1.value_at(t, out)).abs()
            })
            .sum();
        assert!(d > 1e-3, "branch switch must change the dynamics, d={d}");
    }
}
