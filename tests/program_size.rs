//! Program-size ledger: the fused programs of the three RHS-benchmark
//! workloads (`ark_bench::rhs_workloads` — Figure 11 CNN, Figure 4
//! GmC-TLN, Table 1 OBC) are pinned exactly. Every count here is a pure
//! function of the compiler, so a lost CSE, a broken fusion rule or a
//! prologue-hoisting regression fails this suite the moment it lands;
//! a count that *improves* is re-pinned in the same change.

use ark::core::Backend;
use ark::expr::analyze;
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

/// Every emitted program — RHS, observables and the derived Jacobian —
/// verifies with no structural error and no dead instruction.
#[test]
fn emitted_programs_verify_with_no_dead_instructions() {
    for w in rhs_workloads() {
        let jac = w.sys.jacobian();
        let programs = [
            ("rhs", w.sys.rhs_program()),
            ("obs", w.sys.obs_program()),
            ("jacobian", jac.program()),
        ];
        for (kind, prog) in programs {
            let report = analyze(prog);
            assert_eq!(report.dead_instrs(), 0, "{} {kind}", w.name);
            assert_eq!(report.hard_errors(), 0, "{} {kind}", w.name);
        }
    }
}
