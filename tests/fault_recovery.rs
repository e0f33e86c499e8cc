//! Fault-tolerance suite: per-instance failure isolation, deterministic
//! recovery, and seeded fault injection on the streaming ensemble path.
//!
//! The properties pinned here are the fault-tolerance layer's contract:
//!
//! * a failing instance is *data* (an [`InstanceOutcome`]), not a run
//!   abort — the surviving population's accumulators are untouched;
//! * which instances fault, which recover, and every accumulator bit are
//!   pure functions of the seeds — identical for worker counts 1/2/8 and
//!   (via the CI lane matrix re-running this file under `ARK_LANES`
//!   1/4/8) for every lane width;
//! * when one lane of a laned group fails, the group demotes to scalar
//!   and the surviving L−1 instances reproduce a `lanes = 1` run of the
//!   same seeds bit for bit;
//! * the non-recovering terminals attribute their first error to the
//!   failing instance's seed ([`EnsembleError`]).

use ark::core::CompiledSystem;
use ark::ode::{Rk4, SolveError};
use ark::paradigms::cnn::{
    cnn_language, hw_cnn_language_sigma, run_cnn_yield_with, NonIdeality, EDGE_TEMPLATE,
};
use ark::paradigms::image::Image;
use ark::sim::reduce::{MomentStats, Moments, Reducer};
use ark::sim::{
    seed_range, Ensemble, EnsembleError, FailureLog, FaultMode, FaultPlan, InstanceOutcome,
    RecoveryPolicy, RecoveryReport,
};
use proptest::prelude::*;

/// One compiled parametric RC-decay design: `dv/dt = -v / tau` with `tau`
/// and the initial value as per-seed parameters. Unlike the saturating
/// CNN, its rate is parameter-controlled, so a [`FaultMode::Stiffen`]
/// plan genuinely destabilizes the fixed-step primary solver (and the
/// adaptive fallback chain genuinely rescues it).
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

fn decay_params(sys: &CompiledSystem, seed: u64) -> Vec<f64> {
    let mut p = sys.nominal_params();
    p[sys.param_index("v", "tau").unwrap()] = 0.25 + 0.0625 * (seed % 31) as f64;
    p[sys.param_index_init("v", 0).unwrap()] = 1.0 + 0.5 * (seed % 7) as f64;
    p
}

/// Run the faulted decay ensemble under `workers`/`lanes` and reduce the
/// final states through [`Moments`]. `lanes == 0` keeps the ensemble's
/// default (env-driven) lane width so the CI lane matrix varies it.
fn faulted_decay_run(
    sys: &CompiledSystem,
    seeds: &[u64],
    plans: &[FaultPlan],
    policy: &RecoveryPolicy,
    workers: usize,
    lanes: usize,
) -> (MomentStats, RecoveryReport) {
    let ens = Ensemble::new(workers);
    let ens = if lanes == 0 {
        ens
    } else {
        ens.with_lanes(lanes)
    };
    ens.run(sys, &Rk4 { dt: 1e-2 }, seeds, 0.0, 1.0)
        .prep(|seed| {
            let mut params = decay_params(sys, seed);
            ark::sim::faultpoint::corrupt_all(plans, seed, &mut params, &mut []);
            let y0 = sys.initial_state_for(&params);
            (params, y0)
        })
        .with_recovery(policy)
        .reduce(
            |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
            &Moments,
        )
        .unwrap()
}

fn assert_moments_bits(a: &MomentStats, b: &MomentStats, cx: &str) {
    assert_eq!(a.count, b.count, "{cx}: count");
    assert_eq!(a.mean.to_bits(), b.mean.to_bits(), "{cx}: mean");
    assert_eq!(a.m2.to_bits(), b.m2.to_bits(), "{cx}: m2");
}

/// A blowup-faulted instance aborts every *non*-recovering terminal
/// (`reduce`, `map`, `trajectories`) with the faulty instance's seed
/// attached — on the scalar path and when the instance sits mid-group on
/// the laned path.
#[test]
fn non_recovering_terminal_attributes_the_failing_seed() {
    let (_lang, sys) = decay_system();
    let sys = &sys;
    let seeds = seed_range(0, 64);
    // Hit exactly one seed, away from a group boundary.
    let faulty = 13u64;
    let prep = move |seed| {
        let mut params = decay_params(sys, seed);
        if seed == faulty {
            params[0] = f64::NAN;
        }
        let y0 = sys.initial_state_for(&params);
        (params, y0)
    };
    for lanes in [1usize, 4, 8] {
        let run = || {
            Ensemble::new(2)
                .with_lanes(lanes)
                .run(sys, &Rk4 { dt: 1e-2 }, &seeds, 0.0, 1.0)
                .prep(prep)
        };
        let errs = [
            (
                "reduce",
                run()
                    .reduce(|snap, _| Ok::<_, EnsembleError>(snap.state[0]), &Moments)
                    .unwrap_err(),
            ),
            (
                "map",
                run()
                    .map(|_, _, tr, _| Ok::<_, EnsembleError>(tr.len()))
                    .unwrap_err(),
            ),
            ("trajectories", run().trajectories().unwrap_err()),
        ];
        for (terminal, err) in errs {
            assert_eq!(err.seed, faulty, "{terminal} at lanes={lanes}");
            assert!(
                err.source.time().is_some(),
                "a NaN-parameter instance fails inside the drive loop: {:?}",
                err.source
            );
            // The typed error chains to its SolveError source.
            let dyn_err: &dyn std::error::Error = &err;
            assert!(dyn_err.source().is_some());
        }
    }
}

/// A full lane group whose initial states are malformed (one seed's `y0`
/// has the wrong length) runs on the scalar path: the malformed instance
/// fails alone with a pre-flight `BadConfig` attributed to its own seed,
/// and its group-mates still produce exactly the `lanes = 1` results.
#[test]
fn malformed_initial_state_runs_scalar_and_is_attributed() {
    let (_lang, sys) = decay_system();
    let sys = &sys;
    let seeds = seed_range(0, 64);
    // Mid-group at lanes 4 and 8.
    let malformed = 13u64;
    let prep = move |seed| {
        let params = decay_params(sys, seed);
        let mut y0 = sys.initial_state_for(&params);
        if seed == malformed {
            y0.push(0.0);
        }
        (params, y0)
    };
    let policy = RecoveryPolicy::default();
    let mut reference: Option<MomentStats> = None;
    for lanes in [1usize, 4, 8] {
        let run = || {
            Ensemble::new(2)
                .with_lanes(lanes)
                .run(sys, &Rk4 { dt: 1e-2 }, &seeds, 0.0, 1.0)
                .prep(prep)
        };
        let errs = [
            (
                "reduce",
                run()
                    .reduce(|snap, _| Ok::<_, EnsembleError>(snap.state[0]), &Moments)
                    .unwrap_err(),
            ),
            (
                "map",
                run()
                    .map(|_, _, tr, _| Ok::<_, EnsembleError>(tr.len()))
                    .unwrap_err(),
            ),
        ];
        for (terminal, err) in errs {
            assert_eq!(err.seed, malformed, "{terminal} at lanes={lanes}");
            assert!(
                matches!(err.source, SolveError::BadConfig(_)),
                "{terminal} at lanes={lanes}: {:?}",
                err.source
            );
        }
        let (stats, report) = run()
            .with_recovery(&policy)
            .reduce(|snap, _| Ok::<_, SolveError>(snap.state[0]), &Moments)
            .unwrap();
        assert_eq!(
            (report.completed, report.recovered, report.failed),
            (63, 0, 1),
            "lanes={lanes}"
        );
        assert_eq!(report.by_kind["bad_config"].first_seed, malformed);
        match &reference {
            None => reference = Some(stats),
            Some(r) => assert_moments_bits(&stats, r, &format!("lanes={lanes}")),
        }
    }
}

/// Stiffened instances blow up the fixed-step primary, recover under the
/// fallback chain, and the whole faulted run — accumulator bits and
/// outcome counts — is identical for worker counts 1, 2, and 8.
#[test]
fn faulted_ensembles_are_bit_identical_across_worker_counts() {
    let (_lang, sys) = decay_system();
    let seeds = seed_range(0, 512);
    let plans = [
        FaultPlan::one_in(16, FaultMode::Stiffen { factor: 1e-4 }),
        FaultPlan::one_in(64, FaultMode::Blowup).with_salt(7),
    ];
    let policy = RecoveryPolicy::default();
    let reference = faulted_decay_run(&sys, &seeds, &plans, &policy, 1, 0);
    // Blowup seeds that also get stiffened still carry the NaN, so the
    // failed count can only shrink by overlap, never grow.
    assert!(
        reference.1.recovered > 0,
        "stiffen plan must trigger retries"
    );
    assert!(reference.1.failed > 0, "blowup plan must defeat the chain");
    assert!(reference.1.retry_attempts >= reference.1.recovered);
    assert_eq!(reference.1.total(), seeds.len() as u64);
    assert_eq!(reference.0.count, seeds.len() as u64 - reference.1.failed);
    for workers in [2, 8] {
        let run = faulted_decay_run(&sys, &seeds, &plans, &policy, workers, 0);
        assert_moments_bits(&run.0, &reference.0, &format!("workers={workers}"));
        assert_eq!(run.1, reference.1, "workers={workers}");
    }
}

/// Lane-group demotion: a NaN lane fails its whole laned group, the group
/// re-runs scalar, and the surviving instances (plus all outcome
/// accounting) reproduce the `lanes = 1` engine bit for bit.
#[test]
fn lane_demotion_matches_the_scalar_engine_bit_for_bit() {
    let (_lang, sys) = decay_system();
    let seeds = seed_range(0, 128);
    let plans = [
        FaultPlan::one_in(16, FaultMode::Blowup),
        FaultPlan::one_in(16, FaultMode::Stiffen { factor: 1e-4 }).with_salt(3),
    ];
    let policy = RecoveryPolicy::default();
    let scalar = faulted_decay_run(&sys, &seeds, &plans, &policy, 2, 1);
    assert!(scalar.1.failed > 0 && scalar.1.recovered > 0);
    for lanes in [4, 8] {
        let laned = faulted_decay_run(&sys, &seeds, &plans, &policy, 2, lanes);
        assert_moments_bits(&laned.0, &scalar.0, &format!("lanes={lanes}"));
        assert_eq!(laned.1, scalar.1, "lanes={lanes}");
    }
}

/// Retry budgets are real: under `RecoveryPolicy::none()` every stiffened
/// instance that the chain would have rescued is a hard failure instead,
/// with per-kind provenance pointing at the first faulty seed.
#[test]
fn recovery_policy_budgets_decide_the_outcome() {
    let (_lang, sys) = decay_system();
    let seeds = seed_range(0, 256);
    let plans = [FaultPlan::one_in(16, FaultMode::Stiffen { factor: 1e-4 })];
    let faulty = plans[0].count_faulty(&seeds) as u64;
    assert!(faulty > 0);

    let with_chain = faulted_decay_run(&sys, &seeds, &plans, &RecoveryPolicy::default(), 2, 0);
    assert_eq!(with_chain.1.recovered, faulty);
    assert_eq!(with_chain.1.failed, 0);

    let no_retries = faulted_decay_run(&sys, &seeds, &plans, &RecoveryPolicy::none(), 2, 0);
    assert_eq!(no_retries.1.recovered, 0);
    assert_eq!(no_retries.1.failed, faulty);
    assert_eq!(no_retries.1.retry_attempts, 0);
    let first_faulty = *seeds.iter().find(|&&s| plans[0].is_faulty(s)).unwrap();
    let (kind, stats) = no_retries.1.by_kind.iter().next().unwrap();
    assert_eq!(*kind, "non_finite", "fixed-step blowup is a NonFinite");
    assert_eq!(stats.count, faulty);
    assert_eq!(stats.first_seed, first_faulty);

    // Healthy instances are identical under both policies: recovery only
    // ever touches instances whose primary solve failed.
    assert_eq!(with_chain.0.count - faulty, no_retries.0.count);
}

/// The acceptance run: a fig11-style CNN yield ensemble with ≥ 1% of
/// seeds deterministically faulted completes without aborting, reports
/// exact per-kind counts, and is bit-identical across worker counts
/// (and, via the CI matrix, lane widths).
#[test]
fn cnn_yield_with_injected_faults_completes_and_accounts_exactly() {
    let base = cnn_language();
    let hw = hw_cnn_language_sigma(&base, 0.05);
    let input = Image::test_blob(6, 6);
    let seeds = seed_range(11, 256);
    let plans = [FaultPlan::one_in(16, FaultMode::Blowup)];
    let faulty = plans[0].count_faulty(&seeds) as u64;
    assert!(
        faulty as f64 >= seeds.len() as f64 * 0.01,
        "fault plan must hit at least 1% of seeds"
    );
    let policy = RecoveryPolicy::default();
    let mut reference: Option<ark::paradigms::cnn::CnnYield> = None;
    for workers in [1usize, 2, 8] {
        let y = run_cnn_yield_with(
            &hw,
            &input,
            &EDGE_TEMPLATE,
            NonIdeality::GMismatch,
            2.0,
            &seeds,
            &Ensemble::new(workers),
            &policy,
            &plans,
        )
        .unwrap();
        // Exact accounting: every instance has a verdict, NaN parameters
        // defeat every solver in the chain, and nothing else fails.
        assert_eq!(y.recovery.total(), seeds.len() as u64, "workers={workers}");
        assert_eq!(y.recovery.failed, faulty, "workers={workers}");
        assert_eq!(
            (
                y.recovery.completed,
                y.recovery.recovered,
                y.recovery.failed,
                y.recovery.retry_attempts
            ),
            (244, 0, 12, 0),
            "workers={workers}: (completed, recovered, failed, retry_attempts)"
        );
        assert_eq!(
            y.counts.total,
            seeds.len() as u64 - faulty,
            "workers={workers}: failed instances contribute no sample"
        );
        let first_faulty = *seeds.iter().find(|&&s| plans[0].is_faulty(s)).unwrap();
        assert_eq!(y.recovery.by_kind.len(), 1);
        let stats = y.recovery.by_kind.values().next().unwrap();
        assert_eq!(
            (stats.count, stats.first_seed),
            (faulty, first_faulty),
            "workers={workers}"
        );
        match &reference {
            None => reference = Some(y),
            Some(r) => {
                assert_moments_bits(&y.wrong_pixels, &r.wrong_pixels, &format!("w={workers}"));
                assert_eq!(y.counts, r.counts, "workers={workers}");
                assert_eq!(y.recovery, r.recovery, "workers={workers}");
                assert_eq!(
                    y.wrong_histogram.counts(),
                    r.wrong_histogram.counts(),
                    "workers={workers}"
                );
            }
        }
    }
}

/// A GmC t-line ensemble with stiffened (finite) faulty instances: the
/// fixed-step primary blows up on every hit and the adaptive fallback
/// chain rescues each one. The outcome counts are pinned exactly, and they
/// and the accumulator bits are identical at lanes 1/4/8 × workers 1/2.
/// `min_dt` is scaled to the line's ~30 ns span (see the `RecoveryPolicy`
/// docs).
#[test]
fn tline_stiffen_faults_recover_identically_across_lanes_and_workers() {
    use ark::paradigms::tln::{
        gmc_tln_language, linear_tline_parametric, tln_language, MismatchKind, TlineConfig,
    };
    let gmc = gmc_tln_language(&tln_language());
    let cfg = TlineConfig {
        mismatch: MismatchKind::Cint,
        ..TlineConfig::default()
    };
    let pg = linear_tline_parametric(&gmc, 6, &cfg).unwrap();
    let sys = CompiledSystem::compile_parametric(&gmc, &pg).unwrap();
    let seeds = seed_range(0, 256);
    let plans = [FaultPlan::one_in(16, FaultMode::Stiffen { factor: 1e-2 })];
    let policy = RecoveryPolicy {
        min_dt: 1e-16,
        ..RecoveryPolicy::default()
    };
    let mut reference: Option<(MomentStats, RecoveryReport)> = None;
    for lanes in [1usize, 4, 8] {
        for workers in [1usize, 2] {
            let (stats, report) = Ensemble::new(workers)
                .with_lanes(lanes)
                .run(&sys, &Rk4 { dt: 5e-11 }, &seeds, 0.0, 3e-8)
                .prep(|seed| {
                    let mut params = sys.sample_params(seed);
                    ark::sim::faultpoint::corrupt_all(&plans, seed, &mut params, &mut []);
                    let y0 = sys.initial_state_for(&params);
                    (params, y0)
                })
                .with_recovery(&policy)
                .reduce(
                    |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
                    &Moments,
                )
                .unwrap();
            let cx = format!("lanes={lanes} workers={workers}");
            assert_eq!(
                (
                    report.completed,
                    report.recovered,
                    report.failed,
                    report.retry_attempts
                ),
                (243, 13, 0, 13),
                "{cx}: (completed, recovered, failed, retry_attempts)"
            );
            match &reference {
                None => reference = Some((stats, report)),
                Some((r_stats, r_report)) => {
                    assert_moments_bits(&stats, r_stats, &cx);
                    assert_eq!(&report, r_report, "{cx}");
                }
            }
        }
    }
}

/// Outcome taxonomy sanity on the public enum: recovered instances name
/// the chain entry that rescued them.
#[test]
fn recovered_outcomes_name_the_final_solver() {
    let (_lang, sys) = decay_system();
    let seeds = seed_range(0, 64);
    let plan = FaultPlan::one_in(8, FaultMode::Stiffen { factor: 1e-4 });
    let policy = RecoveryPolicy::default();
    let (outcomes, report) = Ensemble::new(1)
        .run(&sys, &Rk4 { dt: 1e-2 }, &seeds, 0.0, 1.0)
        .prep(|seed| {
            let mut params = decay_params(&sys, seed);
            plan.corrupt(seed, &mut params, &mut []);
            let y0 = sys.initial_state_for(&params);
            (params, y0)
        })
        .with_recovery(&policy)
        .reduce(
            |snap, _| Ok::<_, SolveError>(snap.state[0].is_finite()),
            &ark::sim::reduce::YieldCounter,
        )
        .unwrap();
    // YieldCounter sees every surviving instance exactly once.
    assert_eq!(outcomes.total, report.total());
    assert_eq!(report.recovered, plan.count_faulty(&seeds) as u64);
    // The default chain's first entry (scalar DP45) rescues a merely
    // stiff instance. `FailureLog` — the reducer the recovering terminal
    // runs implicitly — folds such an outcome stream to the same report.
    let log = FailureLog;
    let mut acc = log.new_acc();
    log.push(
        &mut acc,
        InstanceOutcome::Recovered {
            attempts: 1,
            final_solver: "dp45",
        },
    );
    log.push(&mut acc, InstanceOutcome::Completed);
    let folded = log.finish(acc);
    assert_eq!((folded.recovered, folded.retry_attempts), (1, 1));
    assert_eq!(folded.completed, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized fault plans over randomized seed windows: the injected
    /// faults, every recovery outcome, and every accumulator bit are pure
    /// functions of the seeds — identical for workers 1/2/8 × lanes 1/4/8,
    /// including ensembles with scalar tails and N < L.
    #[test]
    fn injected_fault_ensembles_are_worker_and_lane_invariant(
        n in 1usize..80,
        base in 0u64..512,
        one_in in 3u64..24,
        salt in 0u64..8,
    ) {
        let (_lang, sys) = decay_system();
        let seeds = seed_range(base, n);
        let plans = [
            FaultPlan::one_in(one_in, FaultMode::Stiffen { factor: 1e-3 }).with_salt(salt),
            FaultPlan::one_in(one_in * 2, FaultMode::Blowup).with_salt(salt ^ 5),
        ];
        let policy = RecoveryPolicy::default();
        let reference = faulted_decay_run(&sys, &seeds, &plans, &policy, 1, 1);
        prop_assert_eq!(reference.1.total(), n as u64);
        for workers in [2usize, 8] {
            for lanes in [1usize, 4, 8] {
                let run = faulted_decay_run(&sys, &seeds, &plans, &policy, workers, lanes);
                let cx =
                    format!("n={n} base={base} one_in={one_in} workers={workers} lanes={lanes}");
                assert_moments_bits(&run.0, &reference.0, &cx);
                prop_assert_eq!(&run.1, &reference.1, "{}", cx);
            }
        }
    }
}
