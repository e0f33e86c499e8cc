//! Circuit-substrate benchmark: netlist synthesis and trapezoidal transient
//! vs the compiled-DG RK4 transient on the same design.

use ark_core::CompiledSystem;
use ark_ode::{integrate, Rk4};
use ark_paradigms::tln::{linear_tline, tln_language, TlineConfig};
use ark_spice::synth::synthesize;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_spice(c: &mut Criterion) {
    let lang = tln_language();
    let graph = linear_tline(&lang, 10, &TlineConfig::default(), 0).unwrap();
    let netlist = synthesize(&lang, &graph).unwrap();
    let sys = CompiledSystem::compile(&lang, &graph).unwrap();
    let y0 = sys.initial_state();

    let mut group = c.benchmark_group("spice_vs_dg");
    group.bench_function("synthesize", |b| {
        b.iter(|| synthesize(&lang, &graph).unwrap())
    });
    group.bench_function("netlist_trapezoidal", |b| {
        b.iter(|| netlist.transient(2e-8, 4e-11, 10).unwrap())
    });
    group.bench_function("dg_rk4", |b| {
        b.iter(|| integrate(&Rk4 { dt: 4e-11 }, &sys.bind(), 0.0, &y0, 2e-8, 10).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_spice);
criterion_main!(benches);
