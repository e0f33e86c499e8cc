//! `ARK_CODEGEN_DIR` steers the shared cache used by [`Backend::Native`]
//! evaluation, and what lands there is exactly the widths a run uses: one
//! library at the default width set (`1` and [`default_lanes`]), plus one
//! one-width library per other width the first time it runs. One test,
//! alone in its own binary: the shared cache reads the variable exactly
//! once (process-wide `OnceLock`), so it must be set before anything
//! touches codegen — impossible to guarantee in a binary running other
//! tests in parallel.

use ark_expr::{
    default_lanes, parse_expr, Backend, LaneScratch, ProgramBuilder, SlotResolver, SystemProgram,
    SUPPORTED_LANES,
};
use std::path::{Path, PathBuf};

fn program(backend: Backend) -> SystemProgram {
    let mut pb = ProgramBuilder::new();
    let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
    let v = pb
        .add_expr(&parse_expr("sin(var(x)) * var(x) + 0.5").unwrap(), &resolve)
        .unwrap();
    let mut prog = pb.finish(&[v], 0);
    prog.set_backend(backend);
    prog
}

/// The files in `dir` with extension `ext`, sorted.
fn artifacts(dir: &Path, ext: &str) -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("ARK_CODEGEN_DIR was created")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == ext))
        .collect();
    v.sort();
    v
}

/// The exported kernel symbols of the library `so`, read from the source
/// the cache keeps beside it.
fn exports(so: &Path) -> Vec<String> {
    let src = std::fs::read_to_string(so.with_extension("rs")).expect("source kept beside .so");
    let mut names: Vec<String> = src
        .lines()
        .filter_map(|l| l.strip_prefix("pub unsafe extern \"C\" fn "))
        .map(|l| l[..l.find('(').expect("signature")].to_string())
        .collect();
    names.sort();
    names
}

/// The symbols a library built for `widths` must export, sorted.
fn expected(widths: &[usize]) -> Vec<String> {
    let mut names: Vec<String> = ["tp", "body"]
        .iter()
        .flat_map(|seg| {
            widths.iter().map(move |&w| match w {
                1 => format!("ark_{seg}"),
                w => format!("ark_{seg}{w}"),
            })
        })
        .collect();
    names.sort();
    names
}

/// One width-`W` evaluation at `time` 0 with lane `l` reading `xs[l]`.
fn eval_at<const W: usize>(prog: &SystemProgram, xs: &[f64]) -> Vec<u64> {
    let mut scratch = LaneScratch::<W>::default();
    let slots = [std::array::from_fn::<f64, W, _>(|l| xs[l])];
    let mut out = [[0.0; W]];
    prog.eval_lanes_bound(&mut scratch, &slots, 0.0, &mut out);
    out[0].iter().map(|v| v.to_bits()).collect()
}

fn eval_width(prog: &SystemProgram, width: usize, xs: &[f64]) -> Vec<u64> {
    match width {
        4 => eval_at::<4>(prog, xs),
        8 => eval_at::<8>(prog, xs),
        w => unreachable!("no laned width {w} in SUPPORTED_LANES"),
    }
}

#[test]
fn codegen_dir_env_override_is_honored() {
    let dir = std::env::temp_dir().join(format!("ark-codegen-envtest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("ARK_CODEGEN_DIR", &dir);

    let prog = program(Backend::Native);
    let mut scratch = LaneScratch::<1>::default();
    let mut out = [0.0];
    prog.eval_into(&mut scratch, &[0.75], 0.0, &[], &mut out);
    assert_eq!(out[0], 0.75f64.sin() * 0.75 + 0.5);
    assert!(prog.native_active(), "kernel prepared through the env dir");

    // Preparing builds one library, holding the default widths only.
    let lanes = default_lanes();
    let mut defaults = vec![1, lanes];
    defaults.dedup();
    let so = artifacts(&dir, "so");
    assert_eq!(so.len(), 1, "one library at the default width set: {so:?}");
    assert_eq!(exports(&so[0]), expected(&defaults));

    // A width outside the default set builds one more library, for that
    // width alone, and matches the interpreter bit for bit.
    let other = SUPPORTED_LANES
        .into_iter()
        .find(|w| !defaults.contains(w))
        .expect("SUPPORTED_LANES has a width outside {1, default}");
    let xs: Vec<f64> = (0..other).map(|l| 0.25 + 0.5 * l as f64).collect();
    let interp = program(Backend::Interp);
    assert_eq!(
        eval_width(&prog, other, &xs),
        eval_width(&interp, other, &xs)
    );
    let after = artifacts(&dir, "so");
    assert_eq!(
        after.len(),
        2,
        "one more library for width {other}: {after:?}"
    );
    let added: Vec<&PathBuf> = after.iter().filter(|p| !so.contains(p)).collect();
    assert_eq!(exports(added[0]), expected(&[other]));

    // Running that width again — on this program or on a fresh build of
    // the same stream — builds nothing.
    let fresh = program(Backend::Native);
    for p in [&prog, &fresh] {
        assert_eq!(eval_width(p, other, &xs), eval_width(&interp, other, &xs));
    }
    assert_eq!(artifacts(&dir, "so"), after, "no rebuild at width {other}");
    assert_eq!(artifacts(&dir, "rs").len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
