//! Integration tests pinning the paper's headline experimental claims at
//! reduced scale (the full-scale runs live in the `ark-bench` binaries and
//! are recorded in EXPERIMENTS.md).

use ark::core::validate::validate;
use ark::core::CompiledSystem;
use ark::ode::{ensemble_stats, integrate, Rk4, Trajectory};
use ark::paradigms::cnn::{
    build_cnn, cnn_language, grid_extern_registry, hw_cnn_language, run_cnn, NonIdeality,
    EDGE_TEMPLATE,
};
use ark::paradigms::image::Image;
use ark::paradigms::maxcut::{classify_phases, solve, CouplingKind, MaxCutProblem};
use ark::paradigms::obc::{obc_language, ofs_obc_language};
use ark::paradigms::tln::{
    branched_out_v, branched_tline, gmc_tln_language, linear_out_v, linear_tline, tln_language,
    MismatchKind, TlineConfig,
};
use std::f64::consts::PI;

/// RK4 from the system's own initial state, keeping every `stride`-th step.
fn simulate(sys: &CompiledSystem, dt: f64, t1: f64, stride: usize) -> Trajectory {
    let y0 = sys.initial_state();
    integrate(&Rk4 { dt }, &sys.bind(), 0.0, &y0, t1, stride).unwrap()
}

/// Figure 4a/4b: branched line shows an attenuated pulse plus an echo; the
/// linear line shows a single clean pulse.
#[test]
fn fig4_linear_vs_branched_shapes() {
    let lang = tln_language();
    let cfg = TlineConfig::default();

    let linear = linear_tline(&lang, 12, &cfg, 0).unwrap();
    let sys = CompiledSystem::compile(&lang, &linear).unwrap();
    let tr = simulate(&sys, 2e-11, 6e-8, 8);
    let out = sys.state_index(&linear_out_v(12)).unwrap();
    let (t_main, v_main) = tr.peak_in_window(out, 0.0, 6e-8);
    assert!(v_main > 0.4 && v_main < 0.65, "linear peak {v_main}");
    // Quiet after the pulse (no echo).
    let (_, v_late) = tr.peak_in_window(out, t_main + 2.5e-8, 6e-8);
    assert!(v_late < 0.15 * v_main, "linear echo energy {v_late}");

    // Paper-scale branch dimensions so the echo separates cleanly from the
    // main pulse (trunk delay 16 ns, echo +20 ns).
    let branched = branched_tline(&lang, 8, 10, 8, &cfg, 0).unwrap();
    let sys = CompiledSystem::compile(&lang, &branched).unwrap();
    let tr = simulate(&sys, 2e-11, 1.2e-7, 8);
    let out = sys.state_index(&branched_out_v(8)).unwrap();
    let (tb, vb) = tr.peak_in_window(out, 0.0, 4.5e-8);
    assert!(
        vb < v_main,
        "branched peak {vb} must be attenuated vs {v_main}"
    );
    let (_, ve) = tr.peak_in_window(out, tb + 2.2e-8, 1.2e-7);
    assert!(ve > 0.25 * vb, "branched echo {ve} vs main {vb}");
}

/// Figure 4c/4d: Gm mismatch spreads the ensemble far more than Cint.
#[test]
fn fig4_gm_variation_dominates_cint() {
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let run = |kind: MismatchKind| {
        let cfg = TlineConfig {
            mismatch: kind,
            ..TlineConfig::default()
        };
        (0..10u64)
            .map(|seed| {
                let g = linear_tline(&gmc, 10, &cfg, seed).unwrap();
                let sys = CompiledSystem::compile(&gmc, &g).unwrap();
                simulate(&sys, 5e-11, 4e-8, 8)
            })
            .collect::<Vec<_>>()
    };
    let idx = {
        let g = linear_tline(&gmc, 10, &TlineConfig::default(), 0).unwrap();
        CompiledSystem::compile(&gmc, &g)
            .unwrap()
            .state_index(&linear_out_v(10))
            .unwrap()
    };
    let cint = ensemble_stats(&run(MismatchKind::Cint), idx, 0.5e-8, 4e-8, 40);
    let gm = ensemble_stats(&run(MismatchKind::Gm), idx, 0.5e-8, 4e-8, 40);
    assert!(
        gm.mean_std() > 2.0 * cint.mean_std(),
        "gm {} vs cint {}",
        gm.mean_std(),
        cint.mean_std()
    );
}

/// Figure 11: the four nonideality columns behave as the paper reports.
#[test]
fn fig11_nonideality_shapes() {
    let base = cnn_language();
    let hw = hw_cnn_language(&base);
    let input = Image::test_blob(10, 10);
    let expected = input.digital_edge_map();

    let run = |kind: NonIdeality, seed: u64| {
        let inst = build_cnn(&hw, &input, &EDGE_TEMPLATE, kind, seed).unwrap();
        let report = validate(&hw, &inst.graph, &grid_extern_registry()).unwrap();
        assert!(report.is_valid(), "{report}");
        run_cnn(&hw, &inst, 5.0, &[]).unwrap()
    };

    let ideal = run(NonIdeality::Ideal, 3);
    assert_eq!(
        ideal.final_output.diff_count(&expected),
        0,
        "A must be correct"
    );
    let t_ideal = ideal.convergence_time.unwrap();

    let zmm = run(NonIdeality::ZMismatch, 3);
    assert_eq!(zmm.final_output.diff_count(&expected), 0, "B stays correct");
    assert!(
        zmm.convergence_time.unwrap() >= t_ideal,
        "B must converge no faster than A"
    );

    // C corrupts the output for at least one fabricated instance.
    let wrong: usize = (0..3)
        .map(|s| {
            run(NonIdeality::GMismatch, s)
                .final_output
                .diff_count(&expected)
        })
        .sum();
    assert!(wrong > 0, "C must corrupt some output");

    let satni = run(NonIdeality::NonIdealSat, 3);
    assert_eq!(
        satni.final_output.diff_count(&expected),
        0,
        "D stays correct"
    );
    assert!(
        satni.convergence_time.unwrap() <= t_ideal,
        "D must converge at least as fast as A ({:?} vs {t_ideal})",
        satni.convergence_time
    );
}

/// Table 1 shape: the offset variant collapses at d = 0.01π and recovers at
/// d = 0.1π, while the ideal solver is high throughout.
#[test]
fn table1_shape() {
    let base = obc_language();
    let ofs = ofs_obc_language(&base);
    let trials = 40u64;
    let mut sync = [[0u32; 2]; 2]; // [variant][d]
    for t in 0..trials {
        let problem = MaxCutProblem::random(4, 1000 + t);
        for (vi, kind) in [CouplingKind::Ideal, CouplingKind::Offset]
            .into_iter()
            .enumerate()
        {
            let outcome = solve(&ofs, &problem, kind, 0.1 * PI, 1000 + t).unwrap();
            for (di, d) in [0.01 * PI, 0.1 * PI].into_iter().enumerate() {
                if classify_phases(&outcome.phases, d).is_some() {
                    sync[vi][di] += 1;
                }
            }
        }
    }
    let pct = |x: u32| f64::from(x) * 100.0 / trials as f64;
    assert!(
        pct(sync[0][0]) > 80.0,
        "ideal tight sync {}",
        pct(sync[0][0])
    );
    assert!(
        pct(sync[1][0]) < pct(sync[0][0]) - 15.0,
        "offset must collapse: {} vs {}",
        pct(sync[1][0]),
        pct(sync[0][0])
    );
    assert!(
        pct(sync[1][1]) > 85.0,
        "offset must recover at loose d: {}",
        pct(sync[1][1])
    );
}
