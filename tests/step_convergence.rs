//! Step-convergence tier: each figure's fixed RK4 step against a tight
//! Dormand–Prince reference (rtol 1e-10, atol 1e-12).
//!
//! Every row integrates a fixed seed subset on a step ladder around the
//! step the figure ships with (dt/2, dt, 2dt, 4dt) and checks two kinds of
//! observable: discrete ones (the CNN's wrong-pixel count) must equal the
//! reference exactly, continuous ones (the CNN's settled state, the
//! Figure 4 waveform) must stay within a stated tolerance. Each row prints
//! its per-rung error, the observed order between successive rungs and
//! the cliff (the coarsest rung still within tolerance):
//!
//! ```sh
//! cargo test --release --test step_convergence -- --nocapture
//! ```
//!
//! The §4.5 row has no Dormand–Prince reference: it measures the RMSE
//! between the RK4 transient and the trapezoidal netlist transient, which
//! shrinks with the step only if both simulate the same equations.
//!
//! The max-cut and PUF rows sit next to their crate-private readouts, in
//! the unit tests of `ark_paradigms::maxcut` and `ark_puf::metrics`.

use ark::core::{CompiledSystem, EvalScratch};
use ark::ode::{integrate, DormandPrince, FinalState, OdeWorkspace, Rk4, Solver};
use ark::paradigms::cnn::{
    build_cnn_parametric, cnn_language, hw_cnn_language_sigma, NonIdeality, CNN_SOLVER_DT,
    EDGE_TEMPLATE,
};
use ark::paradigms::image::Image;
use ark::paradigms::tln::{
    branched_out_v, branched_tline, gmc_tln_language, linear_out_v, linear_tline, tln_language,
    TlineConfig,
};
use ark::sim::{seed_range, Ensemble};
use ark::spice::validate::{dg_vs_netlist_rmse, random_gmc_tline};
use ark_bench::{SPICE_DT, SPICE_T_END, TLINE_DT, TLINE_T_END};

/// The reference every ladder is measured against.
fn reference() -> DormandPrince {
    DormandPrince {
        rtol: 1e-10,
        atol: 1e-12,
        ..DormandPrince::default()
    }
}

/// The step ladder around a shipped step `dt`.
fn ladder(dt: f64) -> [f64; 4] {
    [dt / 2.0, dt, 2.0 * dt, 4.0 * dt]
}

/// Print one row — per-rung error, observed order between successive
/// rungs, cliff — and assert the shipped step and twice it (rungs 1 and 2
/// of [`ladder`]) are within `tol`.
fn report(row: &str, steps: &[f64], errs: &[f64], tol: f64) {
    println!("{row} (tolerance {tol:.1e}):");
    for (k, (&h, &e)) in steps.iter().zip(errs).enumerate() {
        let order = match k {
            0 => "-".to_string(),
            _ => format!(
                "{:.2}",
                (e / errs[k - 1]).log2() / (h / steps[k - 1]).log2()
            ),
        };
        println!("  dt {h:.3e}  max error {e:.3e}  order {order}");
    }
    let passing = steps
        .iter()
        .zip(errs)
        .take_while(|&(_, &e)| e <= tol)
        .count();
    match passing {
        0 => println!("  cliff: below dt {:.3e}", steps[0]),
        n if n == steps.len() => println!("  cliff: at or above dt {:.3e}", steps[n - 1]),
        n => println!("  cliff: dt {:.3e}", steps[n - 1]),
    }
    for (&h, &e) in steps.iter().zip(errs).skip(1).take(2) {
        assert!(e <= tol, "{row}: error {e:e} at dt {h:e} exceeds {tol:e}");
    }
}

/// Settled-state bound of the CNN row: a twentieth of the 0.02 envelope
/// the analog convergence probe of `run_cnn` uses.
const CNN_STATE_TOL: f64 = 1e-3;

/// Settle every seed's chip under `solver`: its final state and its
/// wrong-pixel count against `expected` (read off the `Out` cells, whose
/// algebraic slots are `out_idx`, row-major).
fn settle<S: Solver + Sync>(
    sys: &CompiledSystem,
    solver: &S,
    seeds: &[u64],
    out_idx: &[usize],
    expected: &Image,
) -> Vec<(Vec<f64>, usize)> {
    let t_end = 2.0;
    let (w, h) = (expected.width(), expected.height());
    Ensemble::default()
        .run(sys, solver, seeds, 0.0, t_end)
        // Endpoints only: the readout needs nothing but the settled state.
        .stride(usize::MAX)
        .map(|_seed, params, tr, scratch: &mut EvalScratch| {
            let (t, y) = tr.last().expect("nonempty trajectory");
            let algs = sys.eval_algebraics_with_params(t, y, params, scratch);
            let out = Image::from_fn(w, h, |r, c| algs[out_idx[r * w + c]]);
            Ok::<_, ark::sim::EnsembleError>((y.to_vec(), out.diff_count(expected)))
        })
        .expect("CNN chips integrate")
}

/// Figure 11 row: the yield is blind to the step (no chip's wrong-pixel
/// count changes at any step up to 0.64), so the continuous gate is the
/// settled state, and the discrete gate is every chip's exact wrong-pixel
/// count at every rung. Measured worst case (σ = 0.8): 2.4e-4 at
/// `CNN_SOLVER_DT`, 8.2e-4 at 4e-2, 1.1e-3 at 5e-2, so the cliff is 4e-2
/// (2 · dt). The observed order is ≈ 2 rather than RK4's 4: the output
/// saturation's kinks cap the smoothness.
#[test]
fn cnn_settled_state_converges_at_the_solver_step() {
    let base = cnn_language();
    let input = Image::test_blob(6, 6);
    let expected = input.digital_edge_map();
    let seeds = seed_range(1, 64);
    let steps = ladder(CNN_SOLVER_DT);
    for sigma in [0.02, 0.2, 0.8] {
        let hw = hw_cnn_language_sigma(&base, sigma);
        let pcnn =
            build_cnn_parametric(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch).unwrap();
        let sys = CompiledSystem::compile_parametric(&hw, &pcnn.pgraph).unwrap();
        let out_idx: Vec<usize> = (0..input.height())
            .flat_map(|r| (0..input.width()).map(move |c| (r, c)))
            .map(|(r, c)| sys.algebraic_index(&format!("Out_{r}_{c}")).unwrap())
            .collect();
        let reference = settle(&sys, &reference(), &seeds, &out_idx, &expected);
        let mut errs = Vec::with_capacity(steps.len());
        for &h in &steps {
            let run = settle(&sys, &Rk4 { dt: h }, &seeds, &out_idx, &expected);
            let mut err = 0.0f64;
            for ((seed, (y, wrong)), (y_ref, wrong_ref)) in seeds.iter().zip(run).zip(&reference) {
                assert_eq!(
                    wrong, *wrong_ref,
                    "sigma {sigma}, seed {seed}, dt {h:e}: wrong-pixel count"
                );
                for (a, b) in y.iter().zip(y_ref) {
                    err = err.max((a - b).abs());
                }
            }
            errs.push(err);
        }
        let wrong: usize = reference.iter().map(|(_, w)| w).sum();
        let row = format!(
            "CNN sigma {sigma} ({} chips, {wrong} wrong pixels)",
            seeds.len()
        );
        report(&row, &steps, &errs, CNN_STATE_TOL);
    }
}

/// Waveform bound of the Figure 4 row (volts, on a pulse peaking near
/// 0.5 V).
const TLINE_WAVE_TOL: f64 = 1e-3;
/// Sample points of the Figure 4 waveform comparison. Every rung's RK4
/// grid lands on them (the rungs take 8000, 4000, 2000 and 1000 steps).
const TLINE_SAMPLES: usize = 100;

/// The Figure 4 sample times, evenly spaced over `[0, TLINE_T_END]`.
fn tline_times() -> impl Iterator<Item = f64> {
    (0..=TLINE_SAMPLES).map(|k| TLINE_T_END * k as f64 / TLINE_SAMPLES as f64)
}

/// `OUT_V` (state `out`) at the sample times, RK4 at step `dt`.
fn rk4_wave(sys: &CompiledSystem, out: usize, dt: f64) -> Vec<f64> {
    let tr = integrate(
        &Rk4 { dt },
        &sys.bind(),
        0.0,
        &sys.initial_state(),
        TLINE_T_END,
        1,
    )
    .expect("every rung is inside RK4's stability limit");
    tline_times().map(|t| tr.value_at(t, out)).collect()
}

/// `OUT_V` at the sample times under the reference, which is restarted at
/// every sample time so no value is interpolated.
fn reference_wave(sys: &CompiledSystem, out: usize) -> Vec<f64> {
    let bound = sys.bind();
    let mut y = sys.initial_state();
    let mut ws = OdeWorkspace::new(y.len());
    let mut fin = FinalState::new();
    let mut wave = vec![y[out]];
    let times: Vec<f64> = tline_times().collect();
    for span in times.windows(2) {
        reference()
            .solve(&bound, span[0], &y, span[1], &mut fin, &mut ws)
            .expect("reference integrates");
        y.copy_from_slice(fin.state());
        wave.push(y[out]);
    }
    wave
}

/// Figure 4 row: the linear and the branched 53-node lines of panels
/// (a)/(b) at `fig4_tline`'s step. The continuous gate is the `OUT_V`
/// waveform at 101 points; there is no discrete observable. Measured:
/// 3.3e-6 V at `TLINE_DT`, order 2 (the input pulse's corners cap it),
/// cliff 3.2e-10 = 16 · `TLINE_DT` (8.2e-4 V; 3.6e-3 V at 6.4e-10).
#[test]
fn tline_waveform_converges_at_the_figure_step() {
    let lang = tln_language();
    let cfg = TlineConfig::default();
    let lines = [
        (
            "linear",
            linear_tline(&lang, 26, &cfg, 0).unwrap(),
            linear_out_v(26),
        ),
        (
            "branched",
            branched_tline(&lang, 8, 10, 8, &cfg, 0).unwrap(),
            branched_out_v(8),
        ),
    ];
    let steps = ladder(TLINE_DT);
    for (name, graph, out_node) in lines {
        let sys = CompiledSystem::compile(&lang, &graph).unwrap();
        let out = sys.state_index(&out_node).unwrap();
        let reference = reference_wave(&sys, out);
        let errs: Vec<f64> = steps
            .iter()
            .map(|&h| {
                rk4_wave(&sys, out, h)
                    .iter()
                    .zip(&reference)
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0, f64::max)
            })
            .collect();
        report(
            &format!("Fig. 4 {name} t-line OUT_V"),
            &steps,
            &errs,
            TLINE_WAVE_TOL,
        );
    }
}

/// The §4.5 bound: DG and netlist transients agree within 1% RMSE.
const SPICE_RMSE_TOL: f64 = 1e-2;
/// The fixed design set of the §4.5 row: `random_gmc_tline` seeds.
const SPICE_SEEDS: std::ops::Range<u64> = 0..16;

/// §4.5 row: the worst `dg_vs_netlist_rmse` over 16 random GmC-TLN designs
/// on the ladder around `SPICE_DT / 2` (dt/4, dt/2, dt, 2dt). Both
/// transients share the step, so the RMSE is the step error of the
/// second-order trapezoidal rule against RK4: it must fall at order ≈ 2
/// toward zero rather than settle on a floor, which is what a mismatch
/// between the graph's dynamics and the synthesized netlist would leave.
/// The 1% of the campaign is that step budget. Measured: 3.3e-3 at
/// `SPICE_DT`, order 1.93 / 1.98 / 1.99, cliff `SPICE_DT` (1.2e-2 at 2dt).
#[test]
fn spice_rmse_falls_at_second_order_in_the_step() {
    let gmc = gmc_tln_language(&tln_language());
    let designs: Vec<_> = SPICE_SEEDS
        .map(|seed| random_gmc_tline(&gmc, seed).unwrap())
        .collect();
    let steps = ladder(SPICE_DT / 2.0);
    let errs: Vec<f64> = steps
        .iter()
        .map(|&h| {
            designs
                .iter()
                .map(|g| dg_vs_netlist_rmse(&gmc, g, SPICE_T_END, h).unwrap())
                .fold(0.0, f64::max)
        })
        .collect();
    report(
        &format!("§4.5 worst DG-vs-netlist RMSE ({} designs)", designs.len()),
        &steps,
        &errs,
        SPICE_RMSE_TOL,
    );
    for k in 1..steps.len() {
        let order = (errs[k] / errs[k - 1]).log2() / (steps[k] / steps[k - 1]).log2();
        assert!(
            (1.8..=2.2).contains(&order),
            "order {order:.2} between dt {:e} and {:e}",
            steps[k - 1],
            steps[k]
        );
    }
}
