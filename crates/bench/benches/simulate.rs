//! Simulation benchmark: RK4 throughput on the 53-node t-line.

use ark_core::CompiledSystem;
use ark_ode::{integrate, DormandPrince, OdeSystem, Rk4};
use ark_paradigms::tln::{linear_tline, tln_language, TlineConfig};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_simulate(c: &mut Criterion) {
    let lang = tln_language();
    let graph = linear_tline(&lang, 26, &TlineConfig::default(), 0).unwrap();
    let sys = CompiledSystem::compile(&lang, &graph).unwrap();
    let y0 = sys.initial_state();

    let mut group = c.benchmark_group("simulate_tline_53");
    group.bench_function("rk4_1000_steps", |b| {
        b.iter(|| integrate(&Rk4 { dt: 2e-11 }, &sys.bind(), 0.0, &y0, 2e-8, usize::MAX).unwrap())
    });
    let dp = DormandPrince::new(1e-6, 1e-9);
    group.bench_function("dp45_adaptive", |b| {
        b.iter(|| integrate(&dp, &sys.bind(), 0.0, &y0, 2e-8, 1).unwrap())
    });
    group.bench_function("rhs_only", |b| {
        let mut dydt = vec![0.0; sys.num_states()];
        let mut scratch = sys.scratch();
        b.iter(|| sys.rhs_with_params(1e-9, &y0, &mut dydt, &[], &mut scratch))
    });
    group.bench_function("rhs_only_bound", |b| {
        let bound = sys.bind();
        let mut dydt = vec![0.0; bound.dim()];
        b.iter(|| bound.rhs(1e-9, &y0, &mut dydt))
    });
    group.finish();
}

criterion_group!(benches, bench_simulate);
criterion_main!(benches);
