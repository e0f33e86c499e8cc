//! Property tests pinning the bit-identity guarantee of the fused
//! [`SystemProgram`](ark_expr::SystemProgram) path: on randomized dynamical
//! graphs — mixed node orders (0/1/2), sum and product reductions,
//! algebraic dependency chains, switched-off edges with `off` rules — the
//! fused right-hand side and observation program agree *bit for bit* with
//! the tree-walking reference evaluator
//! ([`CompiledSystem::eval_reference`](ark_core::CompiledSystem::eval_reference))
//! at arbitrary states, times and parameter vectors, one lane at a time
//! and four lanes at once.
//!
//! The graph generators live in [`common`] and are shared with the
//! Jacobian differential tests (`jacobian_differential.rs`).

mod common;

use ark_core::LaneScratch;
use ark_ode::LanedOdeSystem;
use common::{arb_spec, compile_spec, compile_spec_parametric, ptest_language};
use proptest::prelude::*;

proptest! {
    /// Fused rhs == tree-walking reference rhs, bit for bit.
    #[test]
    fn fused_rhs_bit_identical_to_reference(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
    ) {
        let lang = ptest_language();
        let sys = compile_spec(&lang, &spec);
        let n = sys.num_states();
        let y: Vec<f64> = (0..n).map(|k| scale * (0.3 + 0.37 * k as f64).sin()).collect();
        let mut scratch = sys.scratch();
        let mut fused = vec![0.0; n];
        sys.rhs_with_params(t, &y, &mut fused, &[], &mut scratch);
        let (reference, _) = sys.eval_reference(t, &y, &[]);
        for (i, (a, b)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(),
                "dydt[{}] fused {} vs reference {}", i, a, b);
        }
    }

    /// Fused observation program == reference algebraics, bit for bit,
    /// and repeated evaluation through one scratch (prologue cache warm)
    /// stays stable.
    #[test]
    fn fused_algebraics_bit_identical_to_reference(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
    ) {
        let lang = ptest_language();
        let sys = compile_spec(&lang, &spec);
        let n = sys.num_states();
        let y: Vec<f64> = (0..n).map(|k| scale * (0.7 + 0.11 * k as f64).cos()).collect();
        let mut scratch = sys.scratch();
        let (_, reference) = sys.eval_reference(t, &y, &[]);
        let fused: Vec<f64> = sys.eval_algebraics_with_params(t, &y, &[], &mut scratch).to_vec();
        prop_assert_eq!(reference.len(), fused.len());
        for (i, (a, b)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(),
                "alg[{}] fused {} vs reference {}", i, a, b);
        }
        // Second call through the same scratch (warm prologue/time cache).
        let again: Vec<f64> = sys.eval_algebraics_with_params(t, &y, &[], &mut scratch).to_vec();
        prop_assert_eq!(fused, again);
    }

    /// Parametric compiles at perturbed parameters: the fused rhs and
    /// observation program read the same parameter slots the reference
    /// resolves `attr` leaves to, bit for bit.
    #[test]
    fn parametric_fused_bit_identical_to_reference(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
        wobble in -0.5..0.5f64,
    ) {
        let lang = ptest_language();
        let sys = compile_spec_parametric(&lang, &spec);
        let n = sys.num_states();
        let y: Vec<f64> = (0..n).map(|k| scale * (0.5 + 0.23 * k as f64).sin()).collect();
        let params: Vec<f64> = sys
            .nominal_params()
            .iter()
            .enumerate()
            .map(|(k, w)| w + wobble * (1.0 + k as f64).cos())
            .collect();
        let mut scratch = sys.scratch();
        let mut fused = vec![0.0; n];
        sys.rhs_with_params(t, &y, &mut fused, &params, &mut scratch);
        let (reference, reference_algs) = sys.eval_reference(t, &y, &params);
        for (i, (a, b)) in fused.iter().zip(&reference).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(),
                "dydt[{}] fused {} vs reference {}", i, a, b);
        }
        let algs: Vec<f64> = sys
            .eval_algebraics_with_params(t, &y, &params, &mut scratch)
            .to_vec();
        prop_assert_eq!(reference_algs.len(), algs.len());
        for (i, (a, b)) in algs.iter().zip(&reference_algs).enumerate() {
            prop_assert_eq!(a.to_bits(), b.to_bits(),
                "alg[{}] fused {} vs reference {}", i, a, b);
        }
    }

    /// Four lanes at once: four perturbed parameter vectors bound with
    /// `bind_lanes::<4>`, each lane at its own state. Every lane's rhs and
    /// observation output equal the reference at that lane's parameters
    /// and state, bit for bit.
    #[test]
    fn laned_fused_bit_identical_to_reference(
        spec in arb_spec(),
        t in 0.0..10.0f64,
        scale in -2.0..2.0f64,
        wobbles in (-0.5..0.5f64, -0.5..0.5f64, -0.5..0.5f64, -0.5..0.5f64),
    ) {
        const L: usize = 4;
        let lang = ptest_language();
        let sys = compile_spec_parametric(&lang, &spec);
        let n = sys.num_states();
        let params: Vec<Vec<f64>> = [wobbles.0, wobbles.1, wobbles.2, wobbles.3]
            .iter()
            .map(|wobble| {
                sys.nominal_params()
                    .iter()
                    .enumerate()
                    .map(|(k, w)| w + wobble * (1.0 + k as f64).cos())
                    .collect()
            })
            .collect();
        let prefs: Vec<&[f64]> = params.iter().map(|p| &p[..]).collect();
        let states: Vec<Vec<f64>> = (0..L)
            .map(|l| {
                (0..n)
                    .map(|k| scale * (0.5 + 0.23 * k as f64 + 0.61 * l as f64).sin())
                    .collect()
            })
            .collect();
        let y: Vec<[f64; L]> = (0..n).map(|i| std::array::from_fn(|l| states[l][i])).collect();
        let mut dydt = vec![[0.0; L]; n];
        let mut rhs_scratch = LaneScratch::<L>::default();
        sys.bind_lanes::<L>(&prefs, &mut rhs_scratch).rhs(t, &y, &mut dydt);
        let mut algs = vec![[0.0; L]; sys.num_algebraics()];
        let mut obs_scratch = LaneScratch::<L>::default();
        sys.eval_algebraics_lanes(t, &y, &prefs, &mut obs_scratch, &mut algs);
        for l in 0..L {
            let (reference, reference_algs) = sys.eval_reference(t, &states[l], &params[l]);
            for (i, (a, b)) in dydt.iter().zip(&reference).enumerate() {
                prop_assert_eq!(a[l].to_bits(), b.to_bits(),
                    "lane {} dydt[{}] fused {} vs reference {}", l, i, a[l], b);
            }
            prop_assert_eq!(reference_algs.len(), algs.len());
            for (i, (a, b)) in algs.iter().zip(&reference_algs).enumerate() {
                prop_assert_eq!(a[l].to_bits(), b.to_bits(),
                    "lane {} alg[{}] fused {} vs reference {}", l, i, a[l], b);
            }
        }
    }
}
