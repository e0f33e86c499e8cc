//! Stiff golden suite: the Van der Pol (μ = 1000) and Robertson kinetics
//! benchmarks compiled from their dynamical-graph encodings
//! ([`ark::paradigms::stiff`]), integrated with the implicit TR-BDF2
//! solver against pinned end states, with the step-count advantage over
//! the explicit adaptive pair and worker-count determinism locked in.

use ark::core::CompiledSystem;
use ark::ode::{integrate, DormandPrince, TrBdf2};
use ark::paradigms::stiff::{robertson_language, robertson_network, vdp_language, vdp_oscillator};
use ark::sim::{seed_range, Ensemble};

fn vdp_system(mu: f64) -> CompiledSystem {
    let lang = vdp_language();
    let g = vdp_oscillator(&lang, mu).unwrap();
    CompiledSystem::compile(&lang, &g).unwrap()
}

/// Van der Pol at μ = 1000 over t ∈ [0, 3]: the trajectory rides the slow
/// manifold (x ≈ 2, y ≈ −x/(μ(x²−1))), but the fast eigenvalue
/// λ ≈ μ(1−x²) ≈ −3000 forces any explicit stepper to resolve ~1/3000
/// time scales the whole way. TR-BDF2's step count is set by accuracy
/// alone — the ≥10× advantage pinned here.
#[test]
fn vdp_mu1000_golden_end_state_and_step_advantage() {
    let sys = vdp_system(1000.0);
    let (ix, iy) = (sys.state_index("x").unwrap(), sys.state_index("y").unwrap());
    let y0 = sys.initial_state();
    let bound = sys.bind();

    let tr = integrate(&TrBdf2::new(1e-6, 1e-9), &bound, 0.0, &y0, 3.0, usize::MAX).unwrap();
    let implicit_steps = tr.stats().accepted + tr.stats().rejected;
    let end = tr.last().unwrap().1;
    eprintln!(
        "vdp trbdf2: x={:.10} y={:.10e} accepted={} rejected={} newton={} rhs={}",
        end[ix],
        end[iy],
        tr.stats().accepted,
        tr.stats().rejected,
        tr.stats().newton_iters,
        tr.stats().rhs_evals
    );

    let dp = integrate(&DormandPrince::new(1e-6, 1e-9), &bound, 0.0, &y0, 3.0, 1).unwrap();
    let dp_end = dp.last().unwrap().1;
    eprintln!(
        "vdp dp45:   x={:.10} y={:.10e} accepted={} rejected={} rhs={}",
        dp_end[ix],
        dp_end[iy],
        dp.stats().accepted,
        dp.stats().rejected,
        dp.stats().rhs_evals
    );

    // Pinned golden end state (independently reproduced by DP45 below):
    // x(3) ≈ 1.9979985531, y(3) ≈ −6.6778e-4 on the slow manifold.
    assert!((end[ix] - 1.9979985531).abs() < 1e-6, "x = {}", end[ix]);
    assert!((end[iy] + 6.6778e-4).abs() < 1e-7, "y = {}", end[iy]);
    // Both solvers at equal tolerance converge to the same point.
    assert!((end[ix] - dp_end[ix]).abs() < 1e-6);
    assert!((end[iy] - dp_end[iy]).abs() < 1e-8);

    // Equal-tolerance step-count advantage (the reason implicit solvers
    // exist): ≥10× fewer total steps, rejections included.
    assert!(
        10 * implicit_steps <= dp.stats().accepted + dp.stats().rejected,
        "TR-BDF2 {} steps vs DP45 {}",
        implicit_steps,
        dp.stats().accepted + dp.stats().rejected
    );
    // The Newton/Jacobian machinery really ran.
    assert!(tr.stats().newton_iters >= 2 * tr.stats().accepted);

    // Exact work counts: the derived Jacobian program's size and the
    // TR-BDF2 controller's accepted steps, Newton iterations and RHS
    // evaluations are deterministic, so AD-lowering bloat or a
    // step-controller regression shows up here as a changed count.
    assert_eq!(sys.jacobian().instrs(), 8, "jacobian instructions");
    assert_eq!(
        (
            tr.stats().accepted,
            tr.stats().newton_iters,
            tr.stats().rhs_evals
        ),
        (87, 362, 545),
        "TR-BDF2 (accepted, newton_iters, rhs_evals)"
    );
}

/// Robertson kinetics to t = 40 (the classic checkpoint): pinned end
/// state, exact mass conservation, and agreement with the literature
/// values A ≈ 0.7158, C ≈ 0.2842.
#[test]
fn robertson_golden_end_state() {
    let lang = robertson_language();
    let g = robertson_network(&lang).unwrap();
    let sys = CompiledSystem::compile(&lang, &g).unwrap();
    let (ia, ib, ic) = (
        sys.state_index("a").unwrap(),
        sys.state_index("b").unwrap(),
        sys.state_index("c").unwrap(),
    );
    let y0 = sys.initial_state();
    let bound = sys.bind();
    let tr = integrate(
        &TrBdf2::new(1e-8, 1e-12),
        &bound,
        0.0,
        &y0,
        40.0,
        usize::MAX,
    )
    .unwrap();
    let end = tr.last().unwrap().1;
    eprintln!(
        "robertson trbdf2: A={:.10} B={:.10e} C={:.10} accepted={} rejected={} newton={}",
        end[ia],
        end[ib],
        end[ic],
        tr.stats().accepted,
        tr.stats().rejected,
        tr.stats().newton_iters
    );
    // Literature reference (e.g. Hairer & Wanner): y(40) ≈
    // (0.7158271, 9.186e-6, 0.2841637).
    assert!((end[ia] - 0.7158271).abs() < 1e-4, "A = {}", end[ia]);
    assert!((end[ib] - 9.186e-6).abs() < 1e-7, "B = {}", end[ib]);
    assert!((end[ic] - 0.2841637).abs() < 1e-4, "C = {}", end[ic]);
    // Mass conservation is structural (the reaction terms cancel exactly).
    assert!(
        (end[ia] + end[ib] + end[ic] - 1.0).abs() < 1e-7,
        "mass {}",
        end[ia] + end[ib] + end[ic]
    );
}

/// The implicit solver under the ensemble engine: TR-BDF2 is scalar-only
/// (`supports_lanes() == false`), so the engine dispatches it per
/// instance — and the results stay bit-identical for 1, 2, and 8 workers
/// on both the materializing and the streaming paths.
#[test]
fn vdp_ensemble_bit_identical_across_worker_counts() {
    let sys = vdp_system(1000.0);
    let solver = TrBdf2::new(1e-6, 1e-9);
    let seeds = seed_range(0, 12);
    // Vary the initial position per instance.
    let prep = |seed: u64| (Vec::new(), vec![1.8 + 0.05 * seed as f64, 0.0]);

    let reference = Ensemble::new(1)
        .run(&sys, &solver, &seeds, 0.0, 1.0)
        .stride(1)
        .prep(prep)
        .trajectories()
        .unwrap();
    assert_eq!(reference.len(), seeds.len());
    for workers in [2usize, 8] {
        let runs = Ensemble::new(workers)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .stride(1)
            .prep(prep)
            .trajectories()
            .unwrap();
        assert_eq!(
            reference, runs,
            "trajectories must be bit-identical at {workers} workers"
        );
    }

    // Streaming path: fold every instance's final position through the
    // online moments accumulator; the merged result is keyed only by seed
    // order, never by worker count.
    use ark::sim::reduce::Moments;
    let stream = |workers: usize| {
        Ensemble::new(workers)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .prep(prep)
            .reduce(
                |snap, _scratch| Ok::<_, ark::ode::SolveError>(snap.state[0]),
                &Moments,
            )
            .unwrap()
    };
    let first = stream(1);
    assert_eq!(first.count, seeds.len() as u64);
    for workers in [2usize, 8] {
        let got = stream(workers);
        assert_eq!(first.mean.to_bits(), got.mean.to_bits());
        assert_eq!(first.m2.to_bits(), got.m2.to_bits());
    }

    // Cross-check the ensemble path against direct serial integration.
    for (seed, tr) in seeds.iter().zip(&reference) {
        let (_, y0) = prep(*seed);
        let bound = sys.bind();
        let direct = integrate(&solver, &bound, 0.0, &y0, 1.0, 1).unwrap();
        assert_eq!(&direct, tr, "seed {seed} ensemble vs direct");
    }
}
