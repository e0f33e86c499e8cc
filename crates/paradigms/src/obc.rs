//! The oscillator-based computing (OBC) paradigm (paper §7.2).
//!
//! A network of coupled oscillators evolves under the modified Kuramoto
//! model (paper Eq. 6):
//!
//! ```text
//! dφᵢ/dt = −C1·Σⱼ Kᵢⱼ·sin(φᵢ − φⱼ) − C2·sin(2φᵢ)
//! ```
//!
//! with `C1 = 1.6e9`, `C2 = 1e9` as in the paper's evaluation. The
//! second-harmonic self term binarizes phases to `{0, π}`, which encodes a
//! graph partition (max-cut solving).
//!
//! Extensions:
//!
//! * `ofs_obc` (Fig. 12b) — integrator-offset nonideality on the coupling:
//!   `Cpl_ofs` adds a `mm(0.02, 0)` sampled `offset` inside the sine terms;
//! * `intercon_obc` (Fig. 13) — local/global interconnect: `Cpl_l` edges
//!   (cost 1) may only couple oscillators of the same group, `Cpl_g` edges
//!   (cost 10) may cross groups; validity rules enforce this at compile
//!   time and [`interconnect_cost`] accounts for routing area.

use ark_core::lang::{
    EdgeType, Language, LanguageBuilder, MatchClause, NodeType, Pattern, ProdRule, Reduction,
    ValidityRule,
};
use ark_core::types::SigType;
use ark_core::{Graph, LangError};
use ark_expr::parse_expr;

/// Coupling gain constant `C1` used throughout the evaluation.
pub const C1: f64 = 1.6e9;
/// Second-harmonic injection constant `C2`.
pub const C2: f64 = 1e9;

fn e(src: &str) -> ark_expr::Expr {
    parse_expr(src).expect("static rule expression")
}

/// Build the base OBC language (paper Figure 12a).
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn obc_language() -> Language {
    try_obc_language().expect("OBC language definition is valid")
}

fn try_obc_language() -> Result<Language, LangError> {
    LanguageBuilder::new("obc")
        .node_type(
            NodeType::new("Osc", 1, Reduction::Sum).init_default(SigType::real(-100.0, 100.0), 0.0),
        )
        .edge_type(EdgeType::new("Cpl").attr_default("k", SigType::real(-8.0, 8.0), 1.0))
        .prod(ProdRule::new(
            ("e", "Cpl"),
            ("s", "Osc"),
            ("t", "Osc"),
            "s",
            e("-1.6e9*e.k*sin(var(s)-var(t))"),
        ))
        .prod(ProdRule::new(
            ("e", "Cpl"),
            ("s", "Osc"),
            ("t", "Osc"),
            "t",
            e("-1.6e9*e.k*sin(-var(s)+var(t))"),
        ))
        // Second-harmonic injection locking (self edge).
        .prod(ProdRule::new(
            ("e", "Cpl"),
            ("s", "Osc"),
            ("s", "Osc"),
            "s",
            e("-1e9*sin(2*var(s))"),
        ))
        .finish()
}

/// Build the `ofs_obc` extension (paper Figure 12b): coupling edges with a
/// sampled integrator offset inside the sine terms.
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn ofs_obc_language(base: &Language) -> Language {
    LanguageBuilder::derive("ofs_obc", base)
        .edge_type(
            EdgeType::new("Cpl_ofs")
                .inherit("Cpl")
                // Nominal 0, absolute σ = 0.02 (paper `mm(0.02, 0)`).
                .attr_default(
                    "offset",
                    SigType::real(0.0, 0.0).with_mismatch(0.02, 0.0),
                    0.0,
                ),
        )
        .prod(ProdRule::new(
            ("e", "Cpl_ofs"),
            ("s", "Osc"),
            ("t", "Osc"),
            "s",
            e("-1.6e9*e.k*(e.offset+sin(var(s)-var(t)))"),
        ))
        .prod(ProdRule::new(
            ("e", "Cpl_ofs"),
            ("s", "Osc"),
            ("t", "Osc"),
            "t",
            e("-1.6e9*e.k*(e.offset+sin(-var(s)+var(t)))"),
        ))
        .finish()
        .expect("ofs-obc language definition is valid")
}

/// Build the `intercon_obc` extension (paper Figure 13): grouped
/// oscillators with cheap local couplings and expensive global ones.
///
/// # Panics
///
/// Panics only on an internal definition error (covered by tests).
pub fn intercon_obc_language(base: &Language) -> Language {
    let group_cstr = |g: &str| {
        ValidityRule::new(g).accept(Pattern::new(vec![
            MatchClause::self_loop(1, Some(1), "Cpl_l"),
            MatchClause::outgoing(0, None, "Cpl_l", &[g]),
            MatchClause::incoming(0, None, "Cpl_l", &[g]),
            MatchClause::outgoing(0, None, "Cpl_g", &["Osc"]),
            MatchClause::incoming(0, None, "Cpl_g", &["Osc"]),
        ]))
    };
    LanguageBuilder::derive("intercon_obc", base)
        .node_type(NodeType::new("Osc_G0", 1, Reduction::Sum).inherit("Osc"))
        .node_type(NodeType::new("Osc_G1", 1, Reduction::Sum).inherit("Osc"))
        .edge_type(EdgeType::new("Cpl_l").inherit("Cpl").attr_default(
            "cost",
            SigType::int(1, 1),
            1i64,
        ))
        .edge_type(EdgeType::new("Cpl_g").inherit("Cpl").attr_default(
            "cost",
            SigType::int(10, 10),
            10i64,
        ))
        .cstr(group_cstr("Osc_G0"))
        .cstr(group_cstr("Osc_G1"))
        .finish()
        .expect("intercon-obc language definition is valid")
}

/// The OBC language of Figure 12a (plus the Figure 12b offset extension)
/// in Ark source text; tests assert equivalence with the programmatic
/// definitions.
pub const OBC_SRC: &str = r#"
lang obc {
    ntyp(1, sum) Osc { init(0) = real[-100, 100] default 0; };
    etyp Cpl { attr k = real[-8, 8] default 1; };
    prod(e:Cpl, s:Osc -> t:Osc) s <= -1.6e9*e.k*sin(var(s)-var(t));
    prod(e:Cpl, s:Osc -> t:Osc) t <= -1.6e9*e.k*sin(-var(s)+var(t));
    prod(e:Cpl, s:Osc -> s:Osc) s <= -1e9*sin(2*var(s));
}

lang ofs_obc inherits obc {
    etyp Cpl_ofs inherit Cpl {
        attr offset = real[0, 0] mm(0.02, 0);
    };
    prod(e:Cpl_ofs, s:Osc -> t:Osc) s <= -1.6e9*e.k*(e.offset+sin(var(s)-var(t)));
    prod(e:Cpl_ofs, s:Osc -> t:Osc) t <= -1.6e9*e.k*(e.offset+sin(-var(s)+var(t)));
}
"#;

/// Total interconnect cost of a graph: the sum of all edge `cost`
/// attributes (edges without one are free). Formalizes the
/// programmability/area trade-off of §7.2.
pub fn interconnect_cost(graph: &Graph) -> i64 {
    graph
        .edges()
        .filter_map(|(_, e)| e.attrs.get("cost"))
        .filter_map(|v| v.as_real())
        .map(|x| x as i64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_core::func::GraphBuilder;
    use ark_core::validate::{validate, ExternRegistry};
    use ark_core::CompiledSystem;
    use ark_ode::{integrate, wrap_phase, Rk4, Trajectory};

    /// RK4 from the system's own initial state, keeping every `stride`-th step.
    fn simulate(sys: &CompiledSystem, dt: f64, t1: f64, stride: usize) -> Trajectory {
        let y0 = sys.initial_state();
        integrate(&Rk4 { dt }, &sys.bind(), 0.0, &y0, t1, stride).unwrap()
    }
    use std::f64::consts::PI;

    #[test]
    fn obc_language_builds() {
        let lang = obc_language();
        assert_eq!(lang.prod_rules().len(), 3);
        assert!(lang.node_type("Osc").is_some());
    }

    #[test]
    fn two_antiferromagnetic_oscillators_antiphase() {
        // K = -1 coupling drives a pair to opposite phases under SHIL.
        let lang = obc_language();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "Osc").unwrap();
        b.node("b", "Osc").unwrap();
        b.set_init("a", 0, 0.3).unwrap();
        b.set_init("b", 0, 0.4).unwrap();
        b.edge("sa", "Cpl", "a", "a").unwrap();
        b.edge("sb", "Cpl", "b", "b").unwrap();
        b.edge("c", "Cpl", "a", "b").unwrap();
        b.set_attr("c", "k", -1.0).unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let tr = simulate(&sys, 1e-11, 3e-8, 100);
        let yf = tr.last().unwrap().1;
        let pa = wrap_phase(yf[sys.state_index("a").unwrap()]);
        let pb = wrap_phase(yf[sys.state_index("b").unwrap()]);
        let diff = ark_ode::phase_distance(pa, pb);
        assert!((diff - PI).abs() < 0.01, "phase difference {diff}");
        // And each binarized to a multiple of pi.
        for p in [pa, pb] {
            let d0 = ark_ode::phase_distance(p, 0.0);
            let dpi = ark_ode::phase_distance(p, PI);
            assert!(d0.min(dpi) < 0.01, "phase {p} not binarized");
        }
    }

    #[test]
    fn ferromagnetic_pair_synchronizes_in_phase() {
        let lang = obc_language();
        let mut b = GraphBuilder::new(&lang, 0);
        b.node("a", "Osc").unwrap();
        b.node("b", "Osc").unwrap();
        b.set_init("a", 0, 0.3).unwrap();
        b.set_init("b", 0, 2.6).unwrap();
        b.edge("sa", "Cpl", "a", "a").unwrap();
        b.edge("sb", "Cpl", "b", "b").unwrap();
        b.edge("c", "Cpl", "a", "b").unwrap();
        b.set_attr("c", "k", 1.0).unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&lang, &g).unwrap();
        let tr = simulate(&sys, 1e-11, 3e-8, 100);
        let yf = tr.last().unwrap().1;
        let pa = wrap_phase(yf[0]);
        let pb = wrap_phase(yf[1]);
        assert!(ark_ode::phase_distance(pa, pb) < 0.01);
    }

    #[test]
    fn offset_extension_shifts_equilibrium() {
        let base = obc_language();
        let ofs = ofs_obc_language(&base);
        // Same topology once with Cpl, once with Cpl_ofs (seeded).
        let build = |ety: &str, seed| {
            let mut b = GraphBuilder::new(&ofs, seed);
            b.node("a", "Osc").unwrap();
            b.node("b", "Osc").unwrap();
            b.set_init("a", 0, 0.3).unwrap();
            b.set_init("b", 0, 0.4).unwrap();
            b.edge("sa", "Cpl", "a", "a").unwrap();
            b.edge("sb", "Cpl", "b", "b").unwrap();
            b.edge("c", ety, "a", "b").unwrap();
            b.set_attr("c", "k", -1.0).unwrap();
            b.finish().unwrap()
        };
        let ideal = build("Cpl", 3);
        let noisy = build("Cpl_ofs", 3);
        let run = |g: &Graph| {
            let sys = CompiledSystem::compile(&ofs, g).unwrap();
            let tr = simulate(&sys, 1e-11, 3e-8, 100);
            wrap_phase(tr.last().unwrap().1[0])
        };
        let p_ideal = run(&ideal);
        let p_noisy = run(&noisy);
        // Ideal lands essentially exactly on a lattice point; the offset
        // variant is measurably displaced.
        let dev = |p: f64| ark_ode::phase_distance(p, 0.0).min(ark_ode::phase_distance(p, PI));
        assert!(dev(p_ideal) < 1e-4, "ideal deviation {}", dev(p_ideal));
        assert!(dev(p_noisy) > 1e-3, "offset deviation {}", dev(p_noisy));
    }

    #[test]
    fn offset_is_sampled_per_instance() {
        let base = obc_language();
        let ofs = ofs_obc_language(&base);
        let mut offsets = Vec::new();
        for seed in 0..5 {
            let mut b = GraphBuilder::new(&ofs, seed);
            b.node("a", "Osc").unwrap();
            b.node("b", "Osc").unwrap();
            b.edge("c", "Cpl_ofs", "a", "b").unwrap();
            b.set_attr("c", "k", -1.0).unwrap();
            let g = b.finish().unwrap();
            offsets.push(g.attr_value("c", "offset").unwrap().as_real().unwrap());
        }
        // Nonzero, distinct across seeds, plausibly sd 0.02.
        assert!(offsets.iter().all(|&o| o != 0.0));
        assert!(offsets.windows(2).any(|w| w[0] != w[1]));
        assert!(offsets.iter().all(|&o| o.abs() < 0.1));
    }

    #[test]
    fn intercon_enforces_group_locality() {
        let base = obc_language();
        let ic = intercon_obc_language(&base);
        let build = |cross_ty: &str| {
            let mut b = GraphBuilder::new(&ic, 0);
            b.node("a0", "Osc_G0").unwrap();
            b.node("a1", "Osc_G0").unwrap();
            b.node("b0", "Osc_G1").unwrap();
            for n in ["a0", "a1", "b0"] {
                b.edge(&format!("s_{n}"), "Cpl_l", n, n).unwrap();
            }
            // Local edge within group 0 is fine.
            b.edge("l0", "Cpl_l", "a0", "a1").unwrap();
            // Cross-group edge of the given type.
            b.edge("x0", cross_ty, "a1", "b0").unwrap();
            b.finish().unwrap()
        };
        let ok = build("Cpl_g");
        let report = validate(&ic, &ok, &ExternRegistry::new()).unwrap();
        assert!(report.is_valid(), "{report}");
        // A local edge crossing groups violates the rules.
        let bad = build("Cpl_l");
        let report = validate(&ic, &bad, &ExternRegistry::new()).unwrap();
        assert!(!report.is_valid());
    }

    #[test]
    fn interconnect_cost_accounts_local_vs_global() {
        let base = obc_language();
        let ic = intercon_obc_language(&base);
        let mut b = GraphBuilder::new(&ic, 0);
        b.node("a0", "Osc_G0").unwrap();
        b.node("a1", "Osc_G0").unwrap();
        b.node("b0", "Osc_G1").unwrap();
        for n in ["a0", "a1", "b0"] {
            b.edge(&format!("s_{n}"), "Cpl_l", n, n).unwrap();
        }
        b.edge("l0", "Cpl_l", "a0", "a1").unwrap();
        b.edge("x0", "Cpl_g", "a1", "b0").unwrap();
        let g = b.finish().unwrap();
        // 4 local edges (3 self + 1) cost 1 each, 1 global costs 10.
        assert_eq!(interconnect_cost(&g), 14);
    }

    #[test]
    fn groups_still_run_base_dynamics() {
        // Derived oscillator types inherit the Kuramoto rules.
        let base = obc_language();
        let ic = intercon_obc_language(&base);
        let mut b = GraphBuilder::new(&ic, 0);
        b.node("a", "Osc_G0").unwrap();
        b.node("b", "Osc_G0").unwrap();
        b.set_init("a", 0, 0.3).unwrap();
        b.set_init("b", 0, 0.4).unwrap();
        b.edge("sa", "Cpl_l", "a", "a").unwrap();
        b.edge("sb", "Cpl_l", "b", "b").unwrap();
        b.edge("c", "Cpl_l", "a", "b").unwrap();
        b.set_attr("c", "k", -1.0).unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&ic, &g).unwrap();
        let tr = simulate(&sys, 1e-11, 3e-8, 100);
        let yf = tr.last().unwrap().1;
        let d = ark_ode::phase_distance(wrap_phase(yf[0]), wrap_phase(yf[1]));
        assert!((d - PI).abs() < 0.01);
    }

    #[test]
    fn textual_obc_equivalent_to_programmatic() {
        use crate::maxcut::{solve, CouplingKind, MaxCutProblem};
        use ark_core::program::Program;
        let prog = Program::parse(OBC_SRC).unwrap();
        let text_ofs = prog.language("ofs_obc").unwrap();
        let code_ofs = ofs_obc_language(&obc_language());
        let problem = MaxCutProblem::random(4, 3);
        let a = solve(text_ofs, &problem, CouplingKind::Offset, 0.01 * PI, 3).unwrap();
        let b = solve(&code_ofs, &problem, CouplingKind::Offset, 0.01 * PI, 3).unwrap();
        assert_eq!(a, b, "textual and programmatic ofs-obc must agree exactly");
    }
}
