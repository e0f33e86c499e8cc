//! Property tests pinning the native-codegen contract: on randomized
//! dynamical graphs (the `program_equivalence.rs` generator family), a
//! system running [`Backend::Native`] produces **bit-identical** results to
//! the interpreter on the right-hand side, the algebraic observables, and
//! the derived Jacobian program — scalar and laned.
//!
//! The native backend is allowed to fall back to the interpreter (no
//! toolchain, unusable cache), in which case these tests compare the
//! interpreter with itself and still hold. CI's `codegen-parity` job sets
//! `ARK_REQUIRE_NATIVE=1`, which makes any silent fallback a failure there
//! — so the suite is known to have exercised real generated code.

mod common;

use ark_core::{Backend, CompiledSystem};
use ark_expr::LaneScratch;
use ark_ode::LanedOdeSystem;
use common::{arb_spec, compile_spec, compile_spec_parametric, ptest_language, state_vector};
use proptest::prelude::*;

/// Under `ARK_REQUIRE_NATIVE=1` (the CI codegen-parity job), a native
/// system that silently fell back to the interpreter fails the test — the
/// equivalence runs must be known to have exercised generated code.
fn require_native(sys: &CompiledSystem) {
    if std::env::var("ARK_REQUIRE_NATIVE").is_ok_and(|v| v == "1") {
        assert!(
            sys.native_active(),
            "ARK_REQUIRE_NATIVE=1 but the native kernel was not prepared"
        );
    }
}

/// Compile the same spec twice, once per backend, so the two systems share
/// nothing but the design (the codegen cache will still hand both compiles
/// the same kernel — identical streams hash identically).
fn compile_pair(spec: &common::GraphSpec, parametric: bool) -> (CompiledSystem, CompiledSystem) {
    let lang = ptest_language();
    let compile = |l: &_, s: &_| {
        if parametric {
            compile_spec_parametric(l, s)
        } else {
            compile_spec(l, s)
        }
    };
    let interp = compile(&lang, spec).with_backend(Backend::Interp);
    let native = compile(&lang, spec).with_backend(Backend::Native);
    require_native(&native);
    (interp, native)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Native rhs and algebraic observables == interpreter, bit for bit,
    /// including a second evaluation through the warm prologue cache.
    #[test]
    fn native_rhs_and_algebraics_bit_identical(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
    ) {
        let (interp, native) = compile_pair(&spec, false);
        let n = interp.num_states();
        let y = state_vector(n, scale, 0.3);
        let (mut si, mut sn) = (interp.scratch(), native.scratch());
        let (mut fi, mut fn_) = (vec![0.0; n], vec![0.0; n]);
        for round in 0..2 {
            interp.rhs_with_params(t, &y, &mut fi, &[], &mut si);
            native.rhs_with_params(t, &y, &mut fn_, &[], &mut sn);
            for (i, (a, b)) in fi.iter().zip(&fn_).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "round {} dydt[{}] interp {} vs native {}", round, i, a, b);
            }
            let ai: Vec<f64> = interp.eval_algebraics_with_params(t, &y, &[], &mut si).to_vec();
            let an: Vec<f64> = native.eval_algebraics_with_params(t, &y, &[], &mut sn).to_vec();
            prop_assert_eq!(ai.len(), an.len());
            for (i, (a, b)) in ai.iter().zip(&an).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "round {} alg[{}] interp {} vs native {}", round, i, a, b);
            }
        }
    }

    /// Native == interpreter on *parametric* systems across instances:
    /// rebinding parameter vectors (nominal and perturbed) must agree at
    /// every point, exercising the interpreted parameter prologue that
    /// feeds the native time prologue and body.
    #[test]
    fn native_parametric_rhs_bit_identical(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
        wobble in -0.5..0.5f64,
    ) {
        let (interp, native) = compile_pair(&spec, true);
        let n = interp.num_states();
        let y = state_vector(n, scale, 0.7);
        let nominal = interp.nominal_params();
        let perturbed: Vec<f64> = nominal.iter().map(|w| w + wobble).collect();
        let (mut si, mut sn) = (interp.scratch(), native.scratch());
        let (mut fi, mut fn_) = (vec![0.0; n], vec![0.0; n]);
        for params in [&nominal, &perturbed, &nominal] {
            interp.rhs_with_params(t, &y, &mut fi, params, &mut si);
            native.rhs_with_params(t, &y, &mut fn_, params, &mut sn);
            for (i, (a, b)) in fi.iter().zip(&fn_).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(),
                    "dydt[{}] interp {} vs native {}", i, a, b);
            }
        }
    }

    /// The derived Jacobian program inherits the backend and stays
    /// bit-identical entry for entry.
    #[test]
    fn native_jacobian_bit_identical(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
    ) {
        let (interp, native) = compile_pair(&spec, false);
        let n = interp.num_states();
        let y = state_vector(n, scale, 0.5);
        let (mut si, mut sn) = (interp.scratch(), native.scratch());
        let mut ji = vec![f64::NAN; n * n];
        let mut jn = vec![f64::NAN; n * n];
        interp.eval_jacobian_with(t, &y, &[], &mut ji, &mut si);
        native.eval_jacobian_with(t, &y, &[], &mut jn, &mut sn);
        for (k, (a, b)) in ji.iter().zip(&jn).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(),
                "J[{},{}] interp {} vs native {}", k / n, k % n, a, b);
        }
    }

    /// Laned native kernels (L = 4, a generated width) and the laned
    /// interpreter agree per lane, bit for bit, across parameter rebinds.
    #[test]
    fn native_laned_rhs_bit_identical(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
    ) {
        const L: usize = 4;
        let (interp, native) = compile_pair(&spec, true);
        let n = interp.num_states();
        let nominal = interp.nominal_params();
        let lane_params: Vec<Vec<f64>> = (0..L)
            .map(|l| nominal.iter().map(|w| w + 0.125 * l as f64).collect())
            .collect();
        let prefs: Vec<&[f64]> = lane_params.iter().map(|p| &p[..]).collect();
        let y: Vec<[f64; L]> = (0..n)
            .map(|k| std::array::from_fn(|l| state_vector(n, scale, 0.2 + 0.3 * l as f64)[k]))
            .collect();
        let mut lsi = LaneScratch::<L>::default();
        let mut lsn = LaneScratch::<L>::default();
        let bi = interp.bind_lanes(&prefs, &mut lsi);
        let bn = native.bind_lanes(&prefs, &mut lsn);
        let mut fi = vec![[0.0; L]; n];
        let mut fn_ = vec![[0.0; L]; n];
        bi.rhs(t, &y, &mut fi);
        bn.rhs(t, &y, &mut fn_);
        for i in 0..n {
            for l in 0..L {
                prop_assert_eq!(fi[i][l].to_bits(), fn_[i][l].to_bits(),
                    "dydt[{}] lane {} interp {} vs native {}", i, l, fi[i][l], fn_[i][l]);
            }
        }
    }
}
