//! Stiff-solver demonstration: the implicit TR-BDF2 solver vs the explicit
//! Dormand–Prince pair on the Van der Pol oscillator as the stiffness
//! parameter μ grows, plus the Robertson kinetics checkpoint.
//!
//! The point of the figure: the explicit solver's step count grows linearly
//! with μ (stability-limited, h ≲ 1/μ on the slow manifold) while the
//! implicit solver's stays flat (accuracy-limited) — the compiled sparse
//! Jacobian from the fused value DAG is what makes each Newton step cheap.
//!
//! Run: `cargo run --release -p ark-bench --bin fig_stiff [decades]`

use ark_bench::trials_arg;
use ark_core::CompiledSystem;
use ark_ode::{integrate, DormandPrince, TrBdf2};
use ark_paradigms::stiff::{robertson_language, robertson_network, vdp_language, vdp_oscillator};
use ark_paradigms::DynError;

fn main() -> Result<(), DynError> {
    // μ = 10, 100, 1000, ... — one decade per "trial".
    let decades = trials_arg(3).clamp(1, 6);
    let (rtol, atol) = (1e-6, 1e-9);

    println!("== Van der Pol: implicit vs explicit step counts, t in [0, 3] ==\n");
    println!(
        "{:>8} {:>14} {:>14} {:>10} {:>10} {:>14}",
        "mu", "trbdf2 steps", "dp45 steps", "advantage", "newton", "|x_tr - x_dp|"
    );
    let lang = vdp_language();
    for d in 1..=decades {
        let mu = 10f64.powi(d as i32);
        let g = vdp_oscillator(&lang, mu)?;
        let sys = CompiledSystem::compile(&lang, &g)?;
        let ix = sys.state_index("x").expect("x is a state");
        let y0 = sys.initial_state();
        let bound = sys.bind();
        let tr = integrate(&TrBdf2::new(rtol, atol), &bound, 0.0, &y0, 3.0, usize::MAX)?;
        let dp = integrate(&DormandPrince::new(rtol, atol), &bound, 0.0, &y0, 3.0, 1)?;
        let (tr_steps, dp_steps) = (
            tr.stats().accepted + tr.stats().rejected,
            dp.stats().accepted + dp.stats().rejected,
        );
        println!(
            "{:>8.0} {:>14} {:>14} {:>9.1}x {:>10} {:>14.2e}",
            mu,
            tr_steps,
            dp_steps,
            dp_steps as f64 / tr_steps.max(1) as f64,
            tr.stats().newton_iters,
            (tr.last().unwrap().1[ix] - dp.last().unwrap().1[ix]).abs(),
        );
    }

    // The derived Jacobian the Newton loop runs on (largest-μ instance).
    let g = vdp_oscillator(&lang, 10f64.powi(decades as i32))?;
    let sys = CompiledSystem::compile(&lang, &g)?;
    let jac = sys.jacobian();
    println!(
        "\njacobian program: {} instructions, {} structural nonzeros of {} entries \
         (rhs program: {} instructions)",
        jac.instrs(),
        jac.nnz(),
        sys.num_states() * sys.num_states(),
        sys.rhs_instruction_count(),
    );

    println!("\n== Robertson kinetics to t = 40 (literature: 0.7158271, 9.186e-6, 0.2841637) ==\n");
    let rlang = robertson_language();
    let rg = robertson_network(&rlang)?;
    let rsys = CompiledSystem::compile(&rlang, &rg)?;
    let (ia, ib, ic) = (
        rsys.state_index("a").expect("a"),
        rsys.state_index("b").expect("b"),
        rsys.state_index("c").expect("c"),
    );
    let y0 = rsys.initial_state();
    let tr = integrate(
        &TrBdf2::new(1e-8, 1e-12),
        &rsys.bind(),
        0.0,
        &y0,
        40.0,
        usize::MAX,
    )?;
    let end = tr.last().unwrap().1;
    println!(
        "trbdf2: A = {:.7}  B = {:.3e}  C = {:.7}  (mass drift {:.1e}, {} steps, {} newton iters)",
        end[ia],
        end[ib],
        end[ic],
        (end[ia] + end[ib] + end[ic] - 1.0).abs(),
        tr.stats().accepted + tr.stats().rejected,
        tr.stats().newton_iters,
    );
    Ok(())
}
