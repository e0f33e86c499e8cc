//! Figure 4 reproduction: `OUT_V` transients of (a) the branched t-line,
//! (b) the linear t-line, and the mismatch envelopes of (c) the
//! Cint-mismatched and (d) the Gm-mismatched lines over 100 sampled
//! devices.
//!
//! Run: `cargo run --release -p ark-bench --bin fig4_tline [trials]`

use ark_bench::{print_series, sparkline, trials_arg, TLINE_DT as DT, TLINE_T_END as T_END};
use ark_core::CompiledSystem;
use ark_ode::{ensemble_stats, integrate, Rk4, Trajectory};
use ark_paradigms::tln::{
    branched_out_v, branched_tline, gmc_tln_language, linear_out_v, linear_tline,
    tline_mismatch_ensemble, tln_language, MismatchKind, TlineConfig,
};
use ark_sim::{seed_range, Ensemble};

fn simulate(
    lang: &ark_core::Language,
    graph: &ark_core::Graph,
    out: &str,
) -> Result<(usize, Trajectory), Box<dyn std::error::Error + Send + Sync>> {
    let sys = CompiledSystem::compile(lang, graph)?;
    let idx = sys.state_index(out).expect("observation node is stateful");
    let y0 = sys.initial_state();
    let tr = integrate(&Rk4 { dt: DT }, &sys.bind(), 0.0, &y0, T_END, 8)?;
    Ok((idx, tr))
}

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let trials = trials_arg(100);
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let cfg = TlineConfig::default();

    println!("== Figure 4: t-line transients at OUT_V ==\n");

    // (b) Linear 53-node line.
    let linear = linear_tline(&base, 26, &cfg, 0)?;
    let (li, ltr) = simulate(&base, &linear, &linear_out_v(26))?;
    let (t_peak, v_peak) = ltr.peak_in_window(li, 0.0, T_END);
    println!("(b) linear: peak {v_peak:.3} V at {t_peak:.2e} s");
    println!("    {}", sparkline(&ltr.resample(li, 0.0, T_END, 80)));
    print_series("linear_out_v", &ltr, li, 0.0, T_END, 160);

    // (a) Branched 53-node line: attenuated pulse + echo.
    let branched = branched_tline(&base, 8, 10, 8, &cfg, 0)?;
    let (bi, btr) = simulate(&base, &branched, &branched_out_v(8))?;
    let (tb, vb) = btr.peak_in_window(bi, 0.0, 4.5e-8);
    let (te, ve) = btr.peak_in_window(bi, tb + 2.2e-8, T_END);
    println!("\n(a) branched: main peak {vb:.3} V at {tb:.2e} s; echo {ve:.3} V at {te:.2e} s");
    println!("    {}", sparkline(&btr.resample(bi, 0.0, T_END, 80)));
    print_series("branched_out_v", &btr, bi, 0.0, T_END, 160);

    // (c)/(d) Mismatch ensembles over the linear line: compiled once, one
    // parameter vector per seed, on the ensemble engine.
    let segments = 26;
    let seeds = seed_range(0, trials);
    let ens = Ensemble::default();
    let run_ensemble = |mismatch: MismatchKind| {
        let cfg = TlineConfig {
            mismatch,
            ..TlineConfig::default()
        };
        tline_mismatch_ensemble(&gmc, segments, &cfg, T_END, DT, 8, &seeds, &ens)
    };
    let cint = run_ensemble(MismatchKind::Cint)?;
    let gm = run_ensemble(MismatchKind::Gm)?;
    // Observation window of the linear line (paper: 1e-8..3e-8; our lumped
    // line carries the pulse slightly later, so measure around the peak).
    let (w0, w1) = (t_peak - 1e-8, t_peak + 1e-8);
    let cint_stats = ensemble_stats(&cint, li, w0, w1, 60);
    let gm_stats = ensemble_stats(&gm, li, w0, w1, 60);
    println!(
        "\n(c) Cint mismatch ({trials} devices): mean std {:.4e} V, max std {:.4e} V",
        cint_stats.mean_std(),
        cint_stats.max_std()
    );
    println!(
        "(d) Gm   mismatch ({trials} devices): mean std {:.4e} V, max std {:.4e} V",
        gm_stats.mean_std(),
        gm_stats.max_std()
    );
    let ratio = gm_stats.mean_std() / cint_stats.mean_std();
    println!("\nGm/Cint variation ratio in the observation window: {ratio:.1}x");
    println!(
        "paper shape: Gm-mismatched line varies much more than Cint-mismatched -> {}",
        if ratio > 1.5 {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
    Ok(())
}
