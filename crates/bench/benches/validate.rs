//! Validation benchmark: ILP-based described-check vs brute-force
//! enumeration (an ablation of the §6 local-topology check), and
//! whole-graph validation time.

use ark_core::validate::{is_described, is_described_brute, validate, ExternRegistry};
use ark_paradigms::tln::{linear_tline, tln_language, TlineConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_validate(c: &mut Criterion) {
    let lang = tln_language();
    let mut group = c.benchmark_group("validate_tline");
    for segments in [6usize, 26] {
        let graph = linear_tline(&lang, segments, &TlineConfig::default(), 0).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(segments), &graph, |b, g| {
            b.iter(|| validate(&lang, g, &ExternRegistry::new()).unwrap())
        });
    }
    group.finish();

    // Ablation: ILP vs brute force on one node's accept pattern.
    let graph = linear_tline(&lang, 26, &TlineConfig::default(), 0).unwrap();
    let node = graph.node_id("V_10").unwrap();
    let pattern = &lang.validity_rules_for("V")[0].accept[0];
    let mut group = c.benchmark_group("described_check");
    group.bench_function("ilp", |b| {
        b.iter(|| is_described(&lang, &graph, node, pattern))
    });
    group.bench_function("brute_force", |b| {
        b.iter(|| is_described_brute(&lang, &graph, node, pattern))
    });
    group.finish();
}

criterion_group!(benches, bench_validate);
criterion_main!(benches);
