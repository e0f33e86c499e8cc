//! The parameter prologue always runs on the interpreter and the time
//! prologue and body on the native kernel, over one register file. This
//! suite pins that split where it matters most: the parametric Figure 11
//! CNN, whose parameter prologue is pure per-instance work. Bind parameter
//! vector A, evaluate, rebind B on the same scratch, evaluate again, and
//! every RHS output (and every observable, whose program has no parameter
//! prologue) must match an interpreter copy bit for
//! bit, at lane widths 1, 4 and 8. Under `ARK_REQUIRE_NATIVE=1` a kernel
//! that fell back to the interpreter fails the suite.

use ark::core::CompiledSystem;
use ark::expr::{Backend, LaneScratch, SystemProgram};
use ark::paradigms::cnn::{
    build_cnn_parametric, cnn_language, hw_cnn_language, NonIdeality, EDGE_TEMPLATE,
};
use ark::paradigms::image::Image;

/// The parametric CNN on `backend`: the Figure 11 yield sweep's 6×6
/// edge-detection input with per-instance `g` mismatch.
fn cnn(backend: Backend) -> CompiledSystem {
    let hw = hw_cnn_language(&cnn_language());
    let input = Image::test_blob(6, 6);
    let pcnn = build_cnn_parametric(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch).unwrap();
    CompiledSystem::compile_parametric(&hw, &pcnn.pgraph)
        .unwrap()
        .with_backend(backend)
}

/// One width-`L` evaluation sequence on `prog`: bind the parameters of
/// seeds `first..first + L` (one per lane), evaluate at two times, rebind
/// the next `L` seeds on the same scratch and evaluate at the second time
/// again. Returns every output's bits, in order.
fn rebinding_run<const L: usize>(
    sys: &CompiledSystem,
    prog: &SystemProgram,
    first: u64,
) -> Vec<u64> {
    let n = sys.num_states();
    let y: Vec<[f64; L]> = (0..n)
        .map(|k| std::array::from_fn(|l| 0.3 * ((k * 7 + l * 3 + 1) as f64).sin()))
        .collect();
    let mut scratch = LaneScratch::<L>::default();
    let mut out = vec![[0.0; L]; prog.output_count()];
    let mut bits = Vec::new();
    for (bind, times) in [(first, &[0.0, 0.37][..]), (first + L as u64, &[0.37])] {
        let params: Vec<Vec<f64>> = (0..L as u64).map(|l| sys.sample_params(bind + l)).collect();
        let params: Vec<&[f64]> = params.iter().map(Vec::as_slice).collect();
        prog.set_params_lanes(&mut scratch, &params);
        for &t in times {
            prog.eval_lanes_bound(&mut scratch, &y, t, &mut out);
            bits.extend(out.iter().flatten().map(|v| v.to_bits()));
        }
    }
    bits
}

fn rebinding_parity<const L: usize>() {
    let require_native = std::env::var("ARK_REQUIRE_NATIVE").is_ok_and(|v| v == "1");
    let (interp, native) = (cnn(Backend::Interp), cnn(Backend::Native));
    assert_eq!(
        interp.rhs_program().param_prologue_len(),
        157,
        "the RHS parameter prologue the interpreter runs per binding"
    );
    for (kind, want, got) in [
        ("rhs", interp.rhs_program(), native.rhs_program()),
        ("obs", interp.obs_program(), native.obs_program()),
    ] {
        let a = rebinding_run::<L>(&interp, want, 11);
        let b = rebinding_run::<L>(&native, got, 11);
        assert!(
            !require_native || got.native_active(),
            "{kind}: ARK_REQUIRE_NATIVE=1 but {}",
            got.native_status()
        );
        assert_eq!(a.len(), b.len(), "{kind}");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                x,
                y,
                "{kind} width {L}, output bit pattern {i}: interp {} vs native {}",
                f64::from_bits(*x),
                f64::from_bits(*y)
            );
        }
    }
}

#[test]
fn native_rebinding_matches_interpreter_scalar() {
    rebinding_parity::<1>();
}

#[test]
fn native_rebinding_matches_interpreter_lanes4() {
    rebinding_parity::<4>();
}

#[test]
fn native_rebinding_matches_interpreter_lanes8() {
    rebinding_parity::<8>();
}
