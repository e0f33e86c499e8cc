//! `ARK_CODEGEN_DIR` steers the shared cache used by [`Backend::Native`]
//! evaluation. One test, alone in its own binary: the shared cache reads
//! the variable exactly once (process-wide `OnceLock`), so it must be set
//! before anything touches codegen — impossible to guarantee in a binary
//! running other tests in parallel.

use ark_expr::{parse_expr, Backend, LaneScratch, ProgramBuilder, SlotResolver};

#[test]
fn codegen_dir_env_override_is_honored() {
    let dir = std::env::temp_dir().join(format!("ark-codegen-envtest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("ARK_CODEGEN_DIR", &dir);

    let mut pb = ProgramBuilder::new();
    let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
    let v = pb
        .add_expr(&parse_expr("sin(var(x)) * var(x) + 0.5").unwrap(), &resolve)
        .unwrap();
    let mut prog = pb.finish(&[v], 0);
    prog.set_backend(Backend::Native);

    let mut scratch = LaneScratch::<1>::default();
    let mut out = [0.0];
    prog.eval_into(&mut scratch, &[0.75], 0.0, &[], &mut out);
    assert_eq!(out[0], 0.75f64.sin() * 0.75 + 0.5);
    assert!(prog.native_active(), "kernel prepared through the env dir");

    let artifacts: Vec<_> = std::fs::read_dir(&dir)
        .expect("ARK_CODEGEN_DIR was created")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "so"))
        .collect();
    assert!(
        !artifacts.is_empty(),
        "compiled kernel landed in the overridden directory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
