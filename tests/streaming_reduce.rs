//! Streaming-reduction determinism suite: every online accumulator in
//! `ark_sim::reduce`, driven through the full `Ensemble::run(..).reduce`
//! pipeline, must match the materialize-then-reduce reference
//! (`reduce_materialized`) **bit for bit** — for every worker count and
//! lane width. The block-structured merge (one accumulator per
//! `STREAM_BLOCK`-seed block, merged serially in block order) is what makes
//! this hold; these properties pin it.

use ark::core::CompiledSystem;
use ark::ode::{Rk4, SolveError};
use ark::sim::reduce::{
    premap, reduce_materialized, Extrema, Histogram, MinMax, MomentStats, Moments, Quantiles,
    Reducer, Yield, YieldCounter,
};
use ark::sim::{seed_range, Ensemble};
use proptest::prelude::*;

/// One compiled parametric decay design shared by all cases.
fn decay_system() -> (ark::core::lang::Language, CompiledSystem) {
    use ark::core::func::GraphBuilder;
    use ark::core::lang::{EdgeType, LanguageBuilder, NodeType, ProdRule, Reduction};
    use ark::core::types::SigType;
    use ark::expr::parse_expr;
    let lang = LanguageBuilder::new("rc")
        .node_type(
            NodeType::new("V", 1, Reduction::Sum)
                .attr("tau", SigType::real(0.0, 100.0))
                .init_default(SigType::real(-100.0, 100.0), 1.0),
        )
        .edge_type(EdgeType::new("E"))
        .prod(ProdRule::new(
            ("e", "E"),
            ("s", "V"),
            ("s", "V"),
            "s",
            parse_expr("-var(s)/s.tau").unwrap(),
        ))
        .finish()
        .unwrap();
    let mut b = GraphBuilder::new_parametric(&lang);
    b.node("v", "V").unwrap();
    b.set_attr_param("v", "tau", 1.0).unwrap();
    b.set_init_param("v", 0, 1.0).unwrap();
    b.edge("self", "E", "v", "v").unwrap();
    let pg = b.finish_parametric().unwrap();
    let sys = CompiledSystem::compile_parametric(&lang, &pg).unwrap();
    (lang, sys)
}

fn params_for(sys: &CompiledSystem, seed: u64) -> Vec<f64> {
    let mut p = sys.nominal_params();
    p[sys.param_index("v", "tau").unwrap()] = 0.25 + 0.0625 * (seed % 31) as f64;
    p[sys.param_index_init("v", 0).unwrap()] = 1.0 + 0.5 * (seed % 7) as f64;
    p
}

fn assert_moments_bits(a: &MomentStats, b: &MomentStats, cx: &str) {
    assert_eq!(a.count, b.count, "{cx}: count");
    assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{cx}: mean");
    assert_eq!(a.m2.to_bits(), b.m2.to_bits(), "{cx}: m2");
}

fn assert_extrema_bits(a: &Extrema, b: &Extrema, cx: &str) {
    assert_eq!(a.count, b.count, "{cx}: count");
    assert_eq!(a.min.to_bits(), b.min.to_bits(), "{cx}: min");
    assert_eq!(a.max.to_bits(), b.max.to_bits(), "{cx}: max");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full accumulator suite (moments, extrema, quantile sketch, and
    /// a premapped yield counter, composed as one tuple reducer) streams to
    /// exactly the bits the materialized reference produces, for every
    /// worker count x lane width combination — including ensemble sizes
    /// with scalar tails and N < L.
    #[test]
    fn streaming_matches_materialized_bit_for_bit(
        n in 1usize..40,
        base in 0u64..256,
    ) {
        let (_lang, sys) = decay_system();
        let solver = Rk4 { dt: 2e-2 };
        let seeds = seed_range(base, n);
        // Materialized reference: endpoints in seed order, then the
        // canonical blocked reduction.
        let endpoints: Vec<f64> = Ensemble::serial()
            .with_lanes(1)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .params(|s| params_for(&sys, s))
            .map(|_, _, tr, _| Ok::<_, SolveError>(tr.last().unwrap().1[0]))
            .unwrap();
        let reducer = (
            Moments,
            MinMax,
            (
                Quantiles::new(0.0, 5.0, 32),
                premap(|v: f64| v > 1.0, YieldCounter),
            ),
        );
        let want: (MomentStats, Extrema, (Histogram, Yield)) =
            reduce_materialized(&reducer, &endpoints);
        for workers in [1usize, 2, 8] {
            for lanes in [1usize, 4, 8] {
                let got = Ensemble::new(workers)
                    .with_lanes(lanes)
                    .run(&sys, &solver, &seeds, 0.0, 1.0)
                    .params(|s| params_for(&sys, s))
                    .reduce(
                        |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
                        &reducer,
                    )
                    .unwrap();
                let cx = format!("n={n} base={base} workers={workers} lanes={lanes}");
                assert_moments_bits(&got.0, &want.0, &cx);
                assert_extrema_bits(&got.1, &want.1, &cx);
                assert_eq!(got.2 .0, want.2 .0, "{cx}: histogram");
                assert_eq!(got.2 .1, want.2 .1, "{cx}: yield");
            }
        }
    }
}

/// Ensembles larger than one merge block keep the guarantee: the serial
/// streaming result equals both the materialized reference and every
/// multi-worker / laned streaming run, bit for bit.
#[test]
fn multi_block_ensembles_merge_deterministically() {
    let (_lang, sys) = decay_system();
    let solver = Rk4 { dt: 5e-2 };
    // > 2 * STREAM_BLOCK (1024) seeds, deliberately not block-aligned.
    let seeds = seed_range(7, 2500);
    let endpoints: Vec<f64> = Ensemble::serial()
        .with_lanes(1)
        .run(&sys, &solver, &seeds, 0.0, 0.5)
        .params(|s| params_for(&sys, s))
        .map(|_, _, tr, _| Ok::<_, SolveError>(tr.last().unwrap().1[0]))
        .unwrap();
    let want = reduce_materialized(&(Moments, MinMax), &endpoints);
    for workers in [1usize, 3, 8] {
        for lanes in [1usize, 4, 8] {
            let got = Ensemble::new(workers)
                .with_lanes(lanes)
                .run(&sys, &solver, &seeds, 0.0, 0.5)
                .params(|s| params_for(&sys, s))
                .reduce(
                    |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
                    &(Moments, MinMax),
                )
                .unwrap();
            let cx = format!("workers={workers} lanes={lanes}");
            assert_moments_bits(&got.0, &want.0, &cx);
            assert_extrema_bits(&got.1, &want.1, &cx);
        }
    }
}

/// The streaming path's memory contract: one accumulator per block, of a
/// fixed size that does not grow with the number of items folded in. For
/// the moments + 64-bin quantile sketch + yield tuple that is 616 bytes,
/// the histogram's bin payload included; an accumulator gaining a field or
/// a per-item buffer changes the count.
#[test]
fn streaming_accumulator_footprint_is_pinned() {
    let bins = 64;
    let reducer = (
        Moments,
        Quantiles::new(-2.0, 2.0, bins),
        premap(|v: f64| v > 0.0, YieldCounter),
    );
    let footprint = |acc: &(MomentStats, Histogram, Yield)| {
        std::mem::size_of_val(&acc.0)
            + std::mem::size_of_val(&acc.1)
            + std::mem::size_of_val(acc.1.counts())
            + std::mem::size_of_val(&acc.2)
    };
    let mut acc = reducer.new_acc();
    assert_eq!(footprint(&acc), 616);
    for k in 0..10_000 {
        reducer.push(&mut acc, (k as f64 * 0.37).sin() * 3.0);
    }
    assert_eq!(footprint(&acc), 616, "footprint after 10 000 items");
}
