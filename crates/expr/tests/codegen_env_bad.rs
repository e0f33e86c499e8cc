//! Graceful degradation when `ARK_CODEGEN_DIR` is unusable: evaluation
//! under [`Backend::Native`] must fall back to the interpreter silently
//! (correct results, no panic) and report `native_active() == false`.
//! One test, alone in its own binary — the shared cache reads the variable
//! exactly once per process (see `codegen_env.rs`).
//!
//! The unusable directory is a path *under a regular file*, which no
//! process can create regardless of privileges (chmod-based read-only
//! setups are ineffective when tests run as root).

use ark_expr::{parse_expr, Backend, LaneScratch, ProgramBuilder, SlotResolver};

#[test]
fn unusable_codegen_dir_falls_back_to_interpreter() {
    let blocker = std::env::temp_dir().join(format!("ark-codegen-blocker-{}", std::process::id()));
    std::fs::write(&blocker, b"a regular file, not a directory").unwrap();
    std::env::set_var("ARK_CODEGEN_DIR", blocker.join("sub"));

    let mut pb = ProgramBuilder::new();
    let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
    let v = pb
        .add_expr(&parse_expr("tanh(var(x)) + 0.25").unwrap(), &resolve)
        .unwrap();
    let mut native = pb.finish(&[v], 0);
    let interp = native.clone();
    native.set_backend(Backend::Native);

    let mut sn = LaneScratch::<1>::default();
    let mut si = LaneScratch::<1>::default();
    let mut on = [0.0];
    let mut oi = [0.0];
    // Evaluation succeeds through the interpreter fallback...
    native.eval_into(&mut sn, &[0.5], 0.0, &[], &mut on);
    interp.eval_into(&mut si, &[0.5], 0.0, &[], &mut oi);
    assert_eq!(on[0].to_bits(), oi[0].to_bits());
    // ...and honestly reports that no native code is running.
    assert!(!native.native_active(), "codegen must have failed");
    assert_eq!(native.backend(), Backend::Native, "the *request* stands");

    let _ = std::fs::remove_file(&blocker);
}
