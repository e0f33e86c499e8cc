//! Cross-crate integration tests: the full Ark pipeline from source text or
//! builder API through validation, compilation, simulation, and the
//! circuit-level substrate.

use ark::core::program::Program;
use ark::core::validate::{validate, ExternRegistry};
use ark::core::{CompiledSystem, Value};
use ark::ode::{integrate, relative_rmse, Rk4, Trajectory};
use ark::paradigms::tln::{
    gmc_tln_language, linear_out_v, linear_tline, tln_language, MismatchKind, TlineConfig,
    BR_FUNC_SRC,
};
use ark::spice::synthesize;

/// RK4 from the system's own initial state, keeping every `stride`-th step.
fn simulate(sys: &CompiledSystem, dt: f64, t1: f64, stride: usize) -> Trajectory {
    let y0 = sys.initial_state();
    integrate(&Rk4 { dt }, &sys.bind(), 0.0, &y0, t1, stride).unwrap()
}

/// Text → program → graph → validator → compiler → ODE → trajectory.
#[test]
fn textual_program_end_to_end() {
    let prog = Program::parse(BR_FUNC_SRC).unwrap();
    let lang = prog.language("tln_demo").unwrap();
    for br in [0i64, 1] {
        let graph = prog.invoke("br_func", &[Value::Int(br)], 0).unwrap();
        let sys = CompiledSystem::compile(lang, &graph).unwrap();
        let tr = simulate(&sys, 2e-11, 2e-8, 16);
        // Signal reaches OUT_V in both configurations.
        let out = sys.state_index("OUT_V").unwrap();
        let (_, peak) = tr.peak_in_window(out, 0.0, 2e-8);
        assert!(peak > 0.05, "br={br}: peak {peak}");
    }
}

/// The same physical design must match between the dynamical-graph
/// simulation (ark-core + ark-ode) and the circuit-level netlist
/// (ark-spice), across crates and integrators.
#[test]
fn dg_and_netlist_agree_across_crates() {
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let cfg = TlineConfig {
        mismatch: MismatchKind::Both,
        ..TlineConfig::default()
    };
    let graph = linear_tline(&gmc, 6, &cfg, 99).unwrap();
    assert!(validate(&gmc, &graph, &ExternRegistry::new())
        .unwrap()
        .is_valid());

    let sys = CompiledSystem::compile(&gmc, &graph).unwrap();
    let dg = simulate(&sys, 2e-11, 2e-8, 4);
    let nl = synthesize(&gmc, &graph).unwrap();
    let nt = nl.transient(2e-8, 2e-11, 4).unwrap();

    let out = linear_out_v(6);
    let e = relative_rmse(
        &dg,
        sys.state_index(&out).unwrap(),
        &nt,
        nl.node_index(&out).unwrap(),
        0.0,
        2e-8,
        100,
    );
    assert!(e < 0.01, "rmse {e}");
}

/// §4.1.1: a graph written with base types simulates identically under the
/// derived hardware language (checked across the full pipeline).
#[test]
fn inheritance_preserves_dynamics_end_to_end() {
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let cfg = TlineConfig::default();
    let g_base = linear_tline(&base, 6, &cfg, 0).unwrap();
    let g_gmc = linear_tline(&gmc, 6, &cfg, 0).unwrap();

    let s_base = CompiledSystem::compile(&base, &g_base).unwrap();
    let s_gmc = CompiledSystem::compile(&gmc, &g_gmc).unwrap();
    let t_base = simulate(&s_base, 5e-11, 1e-8, 8);
    let t_gmc = simulate(&s_gmc, 5e-11, 1e-8, 8);
    // Bit-identical: the derived language falls back to exactly the parent
    // rules for base-type graphs.
    assert_eq!(t_base.last().unwrap().1, t_gmc.last().unwrap().1);
}

/// Derived-type substitution (paper Fig. 5): swapping base types for
/// mismatch types keeps the graph valid but changes the dynamics.
#[test]
fn substitution_changes_dynamics_but_stays_valid() {
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let ideal = linear_tline(&gmc, 6, &TlineConfig::default(), 5).unwrap();
    let cfg = TlineConfig {
        mismatch: MismatchKind::Gm,
        ..TlineConfig::default()
    };
    let noisy = linear_tline(&gmc, 6, &cfg, 5).unwrap();

    assert!(validate(&gmc, &noisy, &ExternRegistry::new())
        .unwrap()
        .is_valid());

    let si = CompiledSystem::compile(&gmc, &ideal).unwrap();
    let sn = CompiledSystem::compile(&gmc, &noisy).unwrap();
    let ti = simulate(&si, 5e-11, 2e-8, 8);
    let tn = simulate(&sn, 5e-11, 2e-8, 8);
    let out = si.state_index(&linear_out_v(6)).unwrap();
    let diff: f64 = (1..20)
        .map(|k| {
            let t = k as f64 * 1e-9;
            (ti.value_at(t, out) - tn.value_at(t, out)).abs()
        })
        .sum();
    assert!(
        diff > 1e-3,
        "mismatch must perturb the trajectory, diff {diff}"
    );
}

/// The compiler's pretty-printed equations are themselves parseable Ark
/// expressions (round-trip between crates).
#[test]
fn generated_equations_reparse() {
    let lang = tln_language();
    let graph = linear_tline(&lang, 3, &TlineConfig::default(), 0).unwrap();
    let sys = CompiledSystem::compile(&lang, &graph).unwrap();
    assert!(!sys.equations().is_empty());
    for eq in sys.equations() {
        let rhs = eq.split_once('=').expect("lhs = rhs").1.trim();
        ark::expr::parse_expr(rhs).unwrap_or_else(|e| panic!("cannot reparse `{rhs}`: {e}"));
    }
}

/// The pretty-printer round-trips the real case-study languages: printing
/// the TLN + GmC-TLN chain and re-parsing reconstructs identical languages.
#[test]
fn case_study_languages_roundtrip_through_source() {
    use ark::core::language_to_source;
    use ark::core::program::Program;

    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let src = format!(
        "{}\n{}",
        language_to_source(&base),
        language_to_source(&gmc)
    );
    let prog = Program::parse(&src).unwrap_or_else(|e| panic!("reparse failed: {e}\n{src}"));
    assert_eq!(prog.language("tln").unwrap(), &base);
    assert_eq!(prog.language("gmc_tln").unwrap(), &gmc);

    // Same for OBC and its offset extension.
    use ark::paradigms::obc::{obc_language, ofs_obc_language};
    let obc = obc_language();
    let ofs = ofs_obc_language(&obc);
    let src = format!("{}\n{}", language_to_source(&obc), language_to_source(&ofs));
    let prog = Program::parse(&src).unwrap();
    assert_eq!(prog.language("obc").unwrap(), &obc);
    assert_eq!(prog.language("ofs_obc").unwrap(), &ofs);
}
