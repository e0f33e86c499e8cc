//! Right-hand-side microbenchmark: the fused `SystemProgram` path, on the
//! interpreter (one lane, `fused`, and four lanes per call, `fused4`) and
//! as a native kernel (`native`, and its four-lane twin `native4`), on the
//! three paper workloads
//! (`ark_bench::rhs_workloads`: Figure 11 CNN, Figure 4 GmC-TLN, Table 1
//! OBC max-cut).
//!
//! The bench is also the native backend's timing floor: on the CNN, the
//! generated kernel must have actually run and its median per-RHS time
//! over repeated timings must be no slower than the interpreter's, or the
//! bench panics. A silent interpreter
//! fallback (no `rustc`, unusable `ARK_CODEGEN_DIR`) therefore fails
//! `cargo bench` instead of timing the interpreter twice. The programs'
//! deterministic sizes are pinned by `tests/program_size.rs`.

use ark_bench::rhs_workloads;
use ark_core::{Backend, CompiledSystem, LaneScratch};
use ark_ode::LanedOdeSystem;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// Timed evaluations per `time_rhs` call for the floor.
const FLOOR_EVALS: usize = 4_000;
/// `time_rhs` calls per backend for the floor, alternating between the
/// backends; the floor compares their medians.
const FLOOR_REPS: usize = 11;

/// Mean ns per RHS evaluation. The time grid cycles, so the fused path's
/// prologue cache almost never hits — this is its *conservative* cost.
fn time_rhs(sys: &CompiledSystem, evals: usize) -> f64 {
    let n = sys.num_states();
    let mut y = sys.initial_state();
    let mut dydt = vec![0.0; n];
    let mut scratch = sys.scratch();
    for k in 0..32 {
        // Warm caches and buffers.
        sys.rhs_with_params(k as f64 * 1e-3, &y, &mut dydt, &[], &mut scratch);
    }
    let start = Instant::now();
    for k in 0..evals {
        let t = (k % 1024) as f64 * 1e-3;
        sys.rhs_with_params(t, &y, &mut dydt, &[], &mut scratch);
        // Keep the state moving so values are not trivially constant.
        y[k % n] += dydt[k % n] * 1e-6;
    }
    black_box(&dydt);
    start.elapsed().as_nanos() as f64 / evals as f64
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn bench_rhs(c: &mut Criterion) {
    // A second, independently compiled copy of each workload carries the
    // native backend (`CompiledSystem` deliberately isn't `Clone`; the
    // builders are deterministic, so the programs are identical).
    for (w, copy) in rhs_workloads().into_iter().zip(rhs_workloads()) {
        let native = copy.sys.with_backend(Backend::Native);
        let (mut fused, mut natives) = (Vec::new(), Vec::new());
        for _ in 0..FLOOR_REPS {
            fused.push(time_rhs(&w.sys, FLOOR_EVALS));
            natives.push(time_rhs(&native, FLOOR_EVALS));
        }
        let (fused_ns, native_ns) = (median(fused), median(natives));
        println!(
            "{}: {} fused instrs ({} prologue), median {fused_ns:.0} ns -> {native_ns:.0} ns \
             native per rhs ({:?})",
            w.name,
            w.sys.rhs_instruction_count(),
            w.sys.rhs_prologue_len(),
            native.native_status(),
        );
        if w.name == "cnn_fig11" {
            assert!(
                native.native_active() && fused_ns >= native_ns,
                "native floor: cnn_fig11 native {native_ns:.0} ns/RHS vs interpreter \
                 {fused_ns:.0} ns/RHS, native status {:?}",
                native.native_status()
            );
        }
        let mut group = c.benchmark_group(format!("rhs/{}", w.name));
        for (label, sys) in [("fused", &w.sys), ("native", &native)] {
            group.bench_function(label, |b| {
                let y = sys.initial_state();
                let mut dydt = vec![0.0; sys.num_states()];
                let mut scratch = sys.scratch();
                b.iter(|| {
                    sys.rhs_with_params(black_box(0.5), &y, &mut dydt, &[], &mut scratch);
                    black_box(dydt[0])
                })
            });
        }
        for (label, sys) in [("fused4", &w.sys), ("native4", &native)] {
            group.bench_function(label, |b| {
                let y: Vec<[f64; 4]> = sys.initial_state().iter().map(|&v| [v; 4]).collect();
                let mut dydt = vec![[0.0; 4]; sys.num_states()];
                let mut scratch = LaneScratch::<4>::default();
                let bound = sys.bind_lanes::<4>(&[&[][..]; 4], &mut scratch);
                b.iter(|| {
                    bound.rhs(black_box(0.5), &y, &mut dydt);
                    black_box(dydt[0])
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_rhs);
criterion_main!(benches);
