//! Program-size ledger: the fused programs of the three RHS-benchmark
//! workloads (`ark_bench::rhs_workloads` — Figure 11 CNN, Figure 4
//! GmC-TLN, Table 1 OBC) are pinned exactly. Every count here is a pure
//! function of the compiler, so a lost CSE, a broken fusion rule or a
//! prologue-hoisting regression fails this suite the moment it lands;
//! a count that *improves* is re-pinned in the same change.
//!
//! The static-analysis gate runs here too: every program of every paper
//! design (and the two stiff benchmarks) verifies, has no dead
//! instruction and has no guaranteed-undefined operation, and its native
//! kernel evaluates it bit for bit like the interpreter. Under
//! `ARK_REQUIRE_NATIVE=1` a kernel that fell back to the interpreter fails
//! the gate, so the comparison is known to have run generated code. Into
//! an empty `ARK_CODEGEN_DIR` the suite builds 16 kernels (235 KiB of
//! source) and runs in ~3.7 s on two cores, against ~6.8 s (315 KiB)
//! when every emitted statement was a loop of its own and the parameter
//! prologue was emitted too.

use ark::core::func::GraphBuilder;
use ark::core::{Backend, CompiledSystem, Graph, Language};
use ark::expr::analyze;
use ark::paradigms::obc::{intercon_obc_language, obc_language};
use ark::paradigms::stiff::{robertson_language, robertson_network, vdp_language, vdp_oscillator};
use ark::paradigms::tln::{branched_tline, gmc_tln_language, tln_language, TlineConfig};
use ark::spice::validate::random_gmc_tline;
use ark_bench::rhs_workloads;

/// Instructions per RHS evaluation, per workload.
const RHS_INSTRS: [(&str, usize); 3] = [("cnn_fig11", 430), ("tln_fig4", 321), ("obc_table1", 97)];

#[test]
fn rhs_instruction_counts_are_pinned() {
    let got: Vec<(&str, usize)> = rhs_workloads()
        .iter()
        .map(|w| (w.name, w.sys.rhs_instruction_count()))
        .collect();
    assert_eq!(got, RHS_INSTRS);
}

/// The native backend lowers exactly the interpreter's instruction stream:
/// selecting it never changes the program it reports.
#[test]
fn native_backend_reports_the_same_counts() {
    for (w, copy) in rhs_workloads().into_iter().zip(rhs_workloads()) {
        let native = copy.sys.with_backend(Backend::Native);
        assert_eq!(
            native.rhs_instruction_count(),
            w.sys.rhs_instruction_count(),
            "{}",
            w.name
        );
    }
}

/// The §7.2 all-to-all interconnect network at `n` oscillators (the
/// grouped-local variant lowers to the same dynamics, so one topology
/// covers the program analysis).
fn intercon_all_to_all(lang: &Language, n: usize) -> Graph {
    let mut b = GraphBuilder::new(lang, 0);
    for i in 0..n {
        let g = if i < n / 2 { "Osc_G0" } else { "Osc_G1" };
        b.node(&format!("o{i}"), g).unwrap();
        let o = format!("o{i}");
        b.edge(&format!("s{i}"), "Cpl_l", &o, &o).unwrap();
    }
    for i in 0..n {
        for j in (i + 1)..n {
            let (a, c) = (format!("o{i}"), format!("o{j}"));
            b.edge(&format!("g{i}_{j}"), "Cpl_g", &a, &c).unwrap();
        }
    }
    b.finish().unwrap()
}

/// Every paper design plus the stiff benchmarks: the three RHS-benchmark
/// workloads, the Figure 2 branched line, a §4.5 generator design, the
/// §7.2 interconnect network, Van der Pol at μ = 1000 and Robertson.
fn lint_designs() -> Vec<(&'static str, CompiledSystem)> {
    let mut out: Vec<_> = rhs_workloads()
        .into_iter()
        .map(|w| (w.name, w.sys))
        .collect();
    let compile = |lang: &Language, graph: &Graph| CompiledSystem::compile(lang, graph).unwrap();
    let tbase = tln_language();
    let branched = branched_tline(&tbase, 8, 10, 8, &TlineConfig::default(), 0).unwrap();
    out.push(("tln_fig2_branched", compile(&tbase, &branched)));
    let gmc = gmc_tln_language(&tbase);
    out.push((
        "spice_s45_gmc",
        compile(&gmc, &random_gmc_tline(&gmc, 0).unwrap()),
    ));
    let ic = intercon_obc_language(&obc_language());
    out.push(("intercon_s72", compile(&ic, &intercon_all_to_all(&ic, 8))));
    let vlang = vdp_language();
    out.push((
        "stiff_vdp",
        compile(&vlang, &vdp_oscillator(&vlang, 1000.0).unwrap()),
    ));
    let rlang = robertson_language();
    out.push((
        "stiff_robertson",
        compile(&rlang, &robertson_network(&rlang).unwrap()),
    ));
    out
}

/// RHS, observables and dense Jacobian of `sys` at one fixed point: a
/// state off the initial condition, `t = 0.37` and the nominal parameters.
fn evaluate(sys: &CompiledSystem) -> [Vec<f64>; 3] {
    let (n, params, t) = (sys.num_states(), sys.nominal_params(), 0.37);
    let y: Vec<f64> = sys
        .initial_state()
        .iter()
        .enumerate()
        .map(|(k, y0)| y0 + 0.25 * ((k + 1) as f64).sin())
        .collect();
    let mut scratch = sys.scratch();
    let mut dydt = vec![0.0; n];
    sys.rhs_with_params(t, &y, &mut dydt, &params, &mut scratch);
    let obs = sys
        .eval_algebraics_with_params(t, &y, &params, &mut scratch)
        .to_vec();
    let mut jac = vec![0.0; n * n];
    sys.eval_jacobian_with(t, &y, &params, &mut jac, &mut scratch);
    [dydt, obs, jac]
}

/// Every emitted program — RHS, observables and the derived Jacobian — of
/// every lint design verifies with no structural error, no dead
/// instruction and no domain warning, and a second compile of the design
/// on [`Backend::Native`] evaluates it bit for bit like the interpreter.
#[test]
fn emitted_programs_verify_with_no_dead_instructions() {
    let require_native = std::env::var("ARK_REQUIRE_NATIVE").is_ok_and(|v| v == "1");
    let mut linted = 0;
    for ((name, sys), (_, native)) in lint_designs().into_iter().zip(lint_designs()) {
        let sys = sys.with_backend(Backend::Interp);
        let native = native.with_backend(Backend::Native);
        let programs = [
            ("rhs", sys.rhs_program(), native.rhs_program()),
            ("obs", sys.obs_program(), native.obs_program()),
            (
                "jacobian",
                sys.jacobian().program(),
                native.jacobian().program(),
            ),
        ];
        let outputs = evaluate(&sys).into_iter().zip(evaluate(&native));
        for ((kind, prog, native_prog), (want, got)) in programs.into_iter().zip(outputs) {
            let report = analyze(prog);
            assert_eq!(report.dead_instrs(), 0, "{name} {kind}");
            assert_eq!(
                report.hard_errors(),
                0,
                "{name} {kind}: {:?}",
                report.errors
            );
            assert!(
                report.domain.is_empty(),
                "{name} {kind}: {:?}",
                report.domain
            );
            assert!(
                !require_native || native_prog.native_active(),
                "{name} {kind}: ARK_REQUIRE_NATIVE=1 but {}",
                native_prog.native_status()
            );
            assert_eq!(want.len(), got.len(), "{name} {kind}");
            for (i, (a, b)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{name} {kind}[{i}]: interp {a} vs native {b}"
                );
            }
            linted += 1;
        }
    }
    assert_eq!(linted, 24);
}
