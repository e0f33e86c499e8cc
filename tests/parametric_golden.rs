//! Golden equivalence suite for the compile-once parametric ensembles: one
//! `compile_parametric` plus per-seed parameter vectors must reproduce the
//! historical rebuild-and-recompile-per-instance results **bit for bit**,
//! independent of worker count.

use ark::core::CompiledSystem;
use ark::ode::{integrate, Rk4};
use ark::paradigms::cnn::{
    build_cnn, cnn_language, hw_cnn_language, run_cnn, run_cnn_ensemble, CnnRun, NonIdeality,
    EDGE_TEMPLATE,
};
use ark::paradigms::image::Image;
use ark::paradigms::tln::{
    gmc_tln_language, linear_tline, tline_mismatch_ensemble, tln_language, MismatchKind,
    TlineConfig,
};
use ark::sim::{seed_range, Ensemble};

fn cnn_input() -> Image {
    Image::from_ascii(&["....", ".##.", ".#..", "...."])
}

/// Bit-exact comparison of two CNN runs (images, snapshots, convergence).
fn assert_runs_bit_identical(seed: u64, a: &CnnRun, b: &CnnRun) {
    for (r, c, v) in a.final_output.iter() {
        assert_eq!(
            v.to_bits(),
            b.final_output.get(r, c).to_bits(),
            "seed {seed}: final output cell ({r},{c})"
        );
    }
    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for ((ta, ia), (tb, ib)) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(ta, tb);
        for (r, c, v) in ia.iter() {
            assert_eq!(
                v.to_bits(),
                ib.get(r, c).to_bits(),
                "seed {seed}: snapshot t={ta} cell ({r},{c})"
            );
        }
    }
    assert_eq!(a.convergence_time, b.convergence_time, "seed {seed}");
}

/// The parametric CNN ensemble is bit-identical to the per-seed
/// rebuild+recompile path for every hardware nonideality column and for
/// worker counts 1, 2, and 8.
#[test]
fn parametric_cnn_ensemble_matches_recompile_path_exactly() {
    let base = cnn_language();
    let hw = hw_cnn_language(&base);
    let input = cnn_input();
    let seeds = seed_range(0, 6);
    let snap_times = [0.5];
    for nonideality in [
        NonIdeality::Ideal,
        NonIdeality::ZMismatch,
        NonIdeality::GMismatch,
        NonIdeality::NonIdealSat,
    ] {
        // Historical path: one build + one compile per fabricated instance.
        let reference: Vec<CnnRun> = seeds
            .iter()
            .map(|&seed| {
                let inst = build_cnn(&hw, &input, &EDGE_TEMPLATE, nonideality, seed).unwrap();
                run_cnn(&hw, &inst, 1.0, &snap_times).unwrap()
            })
            .collect();
        // Compile-once parametric path, across worker counts.
        for workers in [1usize, 2, 8] {
            let runs = run_cnn_ensemble(
                &hw,
                &input,
                &EDGE_TEMPLATE,
                nonideality,
                1.0,
                &snap_times,
                &seeds,
                &Ensemble::new(workers),
            )
            .unwrap();
            assert_eq!(runs.len(), reference.len());
            for ((serial, parallel), &seed) in reference.iter().zip(&runs).zip(&seeds) {
                assert_runs_bit_identical(seed, serial, parallel);
            }
        }
    }
}

/// The parametric GmC-TLN Monte Carlo reproduces the rebuild-per-seed
/// trajectories exactly (both mismatch entry points of §2.4).
#[test]
fn parametric_tline_ensemble_matches_recompile_path_exactly() {
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let seeds = seed_range(0, 5);
    let (segments, t_end, dt, stride) = (6, 1.5e-8, 5e-11, 8);
    for kind in [MismatchKind::Cint, MismatchKind::Gm, MismatchKind::Both] {
        let cfg = TlineConfig {
            mismatch: kind,
            ..TlineConfig::default()
        };
        let parametric = tline_mismatch_ensemble(
            &gmc,
            segments,
            &cfg,
            t_end,
            dt,
            stride,
            &seeds,
            &Ensemble::new(2),
        )
        .unwrap();
        for (&seed, tr) in seeds.iter().zip(&parametric) {
            let graph = linear_tline(&gmc, segments, &cfg, seed).unwrap();
            let sys = CompiledSystem::compile(&gmc, &graph).unwrap();
            let y0 = sys.initial_state();
            let reference = integrate(&Rk4 { dt }, &sys.bind(), 0.0, &y0, t_end, stride).unwrap();
            assert_eq!(&reference, tr, "seed {seed} ({kind:?})");
        }
    }
}
