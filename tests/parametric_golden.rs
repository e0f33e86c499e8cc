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
use ark::puf::{challenge_bits, evaluate_with, hamming, EvalConfig, PufDesign};
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

/// The compile-once PUF metrics reproduce a serial loop over the
/// rebuild-per-instance path (`PufDesign::reference` + `respond`) bit for
/// bit — clean responses and noisy re-measurements alike — for every
/// worker count and lane width.
#[test]
fn puf_metrics_match_rebuild_path_exactly() {
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let design = PufDesign {
        spacing: 1,
        sites: 2,
        stub_len: 2,
        window_start: 0.5e-8,
        window_end: 3e-8,
        response_bits: 16,
        ..PufDesign::default()
    };
    let cfg = EvalConfig {
        instances: 5,
        challenges: 2,
        remeasures: 2,
        noise_sigma: 2e-2,
    };
    // Serial reference, aggregated in `evaluate_with`'s order: instance
    // `k` is mismatch seed `k + 1`, clean responses use noise seed 0 at
    // σ = 0, re-measurement `m` uses noise seed `1 + m`.
    let (mut inter_sum, mut inter_n, mut intra_sum, mut intra_n) = (0.0, 0usize, 0.0, 0usize);
    let (mut ones, mut bits_total) = (0usize, 0usize);
    for ch in 0..cfg.challenges as u64 {
        let challenge = challenge_bits(ch, design.sites);
        let (reference, idx) = design.reference(&gmc, &challenge).unwrap();
        let respond = |inst: usize, sigma: f64, noise_seed: u64| {
            design
                .respond(
                    &gmc,
                    &reference,
                    idx,
                    &challenge,
                    inst as u64 + 1,
                    sigma,
                    noise_seed,
                )
                .unwrap()
        };
        let clean: Vec<Vec<bool>> = (0..cfg.instances).map(|k| respond(k, 0.0, 0)).collect();
        for r in &clean {
            ones += r.iter().filter(|&&b| b).count();
            bits_total += r.len();
        }
        for i in 0..clean.len() {
            for j in (i + 1)..clean.len() {
                inter_sum += hamming(&clean[i], &clean[j]) as f64 / clean[i].len() as f64;
                inter_n += 1;
            }
        }
        for (k, r) in clean.iter().enumerate() {
            for m in 0..cfg.remeasures as u64 {
                let noisy = respond(k, cfg.noise_sigma, 1 + m);
                intra_sum += hamming(r, &noisy) as f64 / r.len() as f64;
                intra_n += 1;
            }
        }
    }
    let uniqueness = inter_sum / inter_n as f64;
    let intra_distance = intra_sum / intra_n as f64;
    let uniformity = ones as f64 / bits_total as f64;
    assert!(intra_distance > 0.0, "noise must flip some bits");
    for workers in [1usize, 2] {
        for lanes in [1usize, 4] {
            let ens = Ensemble::new(workers).with_lanes(lanes);
            let m = evaluate_with(&gmc, &design, &cfg, &ens).unwrap();
            let ctx = format!("workers {workers} lanes {lanes}: {m:?}");
            assert_eq!(m.uniqueness.to_bits(), uniqueness.to_bits(), "{ctx}");
            assert_eq!(
                m.intra_distance.to_bits(),
                intra_distance.to_bits(),
                "{ctx}"
            );
            assert_eq!(m.uniformity.to_bits(), uniformity.to_bits(), "{ctx}");
        }
    }
}
