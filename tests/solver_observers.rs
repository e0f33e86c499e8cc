//! Bit-identity suite for the solver/observer redesign: the observer-driven
//! drive loops must reproduce the **pre-redesign** integrator arithmetic
//! exactly. The reference implementations below are verbatim copies of the
//! historical hand-rolled loops (Euler, RK4, Dormand–Prince with PI
//! control); the proptests pin the `Strided` output — and therefore the
//! allocating `integrate` convenience — to them bit for bit on randomized
//! systems.

use ark::ode::{
    integrate, DormandPrince, Euler, FinalState, FnSystem, OdeWorkspace, Probe, Rk4, SolveStats,
    Solver, Strided, Trajectory,
};
use proptest::prelude::*;

/// A borrowed right-hand-side function, as the reference loops consume it.
type Rhs<'a> = &'a dyn Fn(f64, &[f64], &mut [f64]);

/// The pre-redesign fixed-step RK4 loop, verbatim.
fn reference_rk4(
    dt: f64,
    rhs: Rhs<'_>,
    n: usize,
    t0: f64,
    y0: &[f64],
    t1: f64,
    stride: usize,
) -> Trajectory {
    let stride = stride.max(1);
    let mut y = y0.to_vec();
    let (mut tmp, mut k1, mut k2, mut k3, mut k4) = (
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
    );
    let steps = ((t1 - t0) / dt).ceil() as usize;
    let mut tr = Trajectory::new();
    tr.push_slice(t0, &y);
    let dt = (t1 - t0) / steps as f64;
    let mut t = t0;
    for step in 0..steps {
        rhs(t, &y, &mut k1);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * dt * k1[i];
        }
        rhs(t + 0.5 * dt, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * dt * k2[i];
        }
        rhs(t + 0.5 * dt, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = y[i] + dt * k3[i];
        }
        rhs(t + dt, &tmp, &mut k4);
        for i in 0..n {
            y[i] += dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t = t0 + (step + 1) as f64 * dt;
        if (step + 1) % stride == 0 || step + 1 == steps {
            tr.push_slice(t, &y);
        }
    }
    tr.set_stats(SolveStats {
        accepted: steps,
        rejected: 0,
        rhs_evals: 4 * steps,
        newton_iters: 0,
    });
    tr
}

/// The pre-redesign fixed-step Euler loop, verbatim.
fn reference_euler(
    dt: f64,
    rhs: Rhs<'_>,
    n: usize,
    t0: f64,
    y0: &[f64],
    t1: f64,
    stride: usize,
) -> Trajectory {
    let stride = stride.max(1);
    let mut y = y0.to_vec();
    let mut dydt = vec![0.0; n];
    let steps = ((t1 - t0) / dt).ceil() as usize;
    let mut tr = Trajectory::new();
    tr.push_slice(t0, &y);
    let dt = (t1 - t0) / steps as f64;
    let mut t = t0;
    for k in 0..steps {
        rhs(t, &y, &mut dydt);
        for (yi, di) in y.iter_mut().zip(dydt.iter()) {
            *yi += dt * di;
        }
        t = t0 + (k + 1) as f64 * dt;
        if (k + 1) % stride == 0 || k + 1 == steps {
            tr.push_slice(t, &y);
        }
    }
    tr.set_stats(SolveStats {
        accepted: steps,
        rejected: 0,
        rhs_evals: steps,
        newton_iters: 0,
    });
    tr
}

/// The pre-redesign adaptive Dormand–Prince loop (PI control, FSAL),
/// verbatim.
#[allow(clippy::needless_range_loop)]
fn reference_dp45(
    cfg: &DormandPrince,
    rhs: Rhs<'_>,
    n: usize,
    t0: f64,
    y0: &[f64],
    t1: f64,
) -> Trajectory {
    const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
    const A: [[f64; 6]; 7] = [
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
        [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
        [
            19372.0 / 6561.0,
            -25360.0 / 2187.0,
            64448.0 / 6561.0,
            -212.0 / 729.0,
            0.0,
            0.0,
        ],
        [
            9017.0 / 3168.0,
            -355.0 / 33.0,
            46732.0 / 5247.0,
            49.0 / 176.0,
            -5103.0 / 18656.0,
            0.0,
        ],
        [
            35.0 / 384.0,
            0.0,
            500.0 / 1113.0,
            125.0 / 192.0,
            -2187.0 / 6784.0,
            11.0 / 84.0,
        ],
    ];
    const B5: [f64; 7] = [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
        0.0,
    ];
    const B4: [f64; 7] = [
        5179.0 / 57600.0,
        0.0,
        7571.0 / 16695.0,
        393.0 / 640.0,
        -92097.0 / 339200.0,
        187.0 / 2100.0,
        1.0 / 40.0,
    ];
    let mut y = y0.to_vec();
    let mut ytmp = vec![0.0; n];
    let mut k = vec![vec![0.0; n]; 7];
    let mut t = t0;
    let mut h = cfg.h0.unwrap_or((t1 - t0) / 100.0).min(cfg.h_max);
    let mut tr = Trajectory::new();
    tr.push_slice(t0, &y);
    let mut stats = SolveStats::default();
    rhs(t, &y, &mut k[0]);
    stats.rhs_evals += 1;
    let mut err_prev: f64 = 1.0;
    while t < t1 {
        assert!(h >= cfg.h_min, "reference underflow");
        if t + h > t1 {
            h = t1 - t;
        }
        for s in 1..7 {
            for i in 0..n {
                let mut acc = 0.0;
                for (j, kj) in k.iter().enumerate().take(s) {
                    let a = A[s][j];
                    if a != 0.0 {
                        acc += a * kj[i];
                    }
                }
                ytmp[i] = y[i] + h * acc;
            }
            let (head, tail) = k.split_at_mut(s);
            let _ = head;
            rhs(t + C[s] * h, &ytmp, &mut tail[0]);
            stats.rhs_evals += 1;
        }
        let mut err: f64 = 0.0;
        for i in 0..n {
            let mut y5 = y[i];
            let mut e = 0.0;
            for s in 0..7 {
                y5 += h * B5[s] * k[s][i];
                e += h * (B5[s] - B4[s]) * k[s][i];
            }
            ytmp[i] = y5;
            let scale = cfg.atol + cfg.rtol * y[i].abs().max(y5.abs());
            let r = e / scale;
            err += r * r;
        }
        err = (err / n as f64).sqrt();
        if err <= 1.0 || h <= cfg.h_min * 2.0 {
            t += h;
            y.copy_from_slice(&ytmp);
            assert!(y.iter().all(|x| x.is_finite()), "reference blow-up");
            tr.push_slice(t, &y);
            stats.accepted += 1;
            k.swap(0, 6);
            let e = err.max(1e-10);
            let fac = 0.9 * e.powf(-0.7 / 5.0) * err_prev.powf(0.4 / 5.0);
            h = (h * fac.clamp(0.2, 5.0)).min(cfg.h_max);
            err_prev = e;
        } else {
            stats.rejected += 1;
            h *= (0.9 * err.powf(-0.2)).clamp(0.1, 1.0);
        }
    }
    tr.set_stats(stats);
    tr
}

/// A randomized 3-state nonlinear system shared by the proptests.
fn test_rhs(a: [f64; 9], f: f64) -> impl Fn(f64, &[f64], &mut [f64]) {
    move |t: f64, y: &[f64], d: &mut [f64]| {
        d[0] = a[0] * y[0] + a[1] * y[1] + a[2] * (y[2] * t).sin() + f;
        d[1] = a[3] * y[1] + a[4] * y[2] + a[5] * y[0] * y[0] * 0.1;
        d[2] = a[6] * y[2] + a[7] * y[0] + a[8] * (2.0 * t).cos();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `Strided` recordings under the redesigned drive loops are
    /// bit-identical to the pre-redesign Euler and RK4 loops on randomized
    /// systems, strides, and intervals.
    #[test]
    fn fixed_step_recorders_match_pre_redesign_loops(
        a in proptest::collection::vec(-1.5..1.5f64, 9),
        y0 in proptest::collection::vec(-1.0..1.0f64, 3),
        f in -1.0..1.0f64,
        t1 in 0.2..1.5f64,
        stride in 1usize..7,
        dt in 0.005..0.06f64,
    ) {
        let a: [f64; 9] = a.try_into().unwrap();
        let rhs = test_rhs(a, f);
        let sys = FnSystem::new(3, test_rhs(a, f));
        let rk_ref = reference_rk4(dt, &rhs, 3, 0.0, &y0, t1, stride);
        let rk_new = integrate(&Rk4 { dt }, &sys, 0.0, &y0, t1, stride).unwrap();
        prop_assert_eq!(&rk_ref, &rk_new);
        let eu_ref = reference_euler(dt, &rhs, 3, 0.0, &y0, t1, stride);
        let eu_new = integrate(&Euler { dt }, &sys, 0.0, &y0, t1, stride).unwrap();
        prop_assert_eq!(&eu_ref, &eu_new);
    }

    /// The adaptive drive loop (PI control, FSAL, rejection accounting) is
    /// bit-identical to the pre-redesign Dormand–Prince loop.
    #[test]
    fn adaptive_recorder_matches_pre_redesign_loop(
        a in proptest::collection::vec(-1.5..1.5f64, 9),
        y0 in proptest::collection::vec(-1.0..1.0f64, 3),
        f in -1.0..1.0f64,
        t1 in 0.2..1.5f64,
        h0 in proptest::option::of(0.01..0.5f64),
    ) {
        let a: [f64; 9] = a.try_into().unwrap();
        let rhs = test_rhs(a, f);
        let sys = FnSystem::new(3, test_rhs(a, f));
        let cfg = DormandPrince { h0, ..DormandPrince::new(1e-7, 1e-10) };
        let reference = reference_dp45(&cfg, &rhs, 3, 0.0, &y0, t1);
        let new = integrate(&cfg, &sys, 0.0, &y0, t1, 1).unwrap();
        prop_assert_eq!(&reference, &new);
    }

    /// `FinalState` captures exactly the last sample of the recorded
    /// trajectory (no trajectory allocation needed to get the endpoint).
    #[test]
    fn final_state_matches_trajectory_endpoint(
        a in proptest::collection::vec(-1.5..1.5f64, 9),
        y0 in proptest::collection::vec(-1.0..1.0f64, 3),
        dt in 0.005..0.05f64,
    ) {
        let a: [f64; 9] = a.try_into().unwrap();
        let sys = FnSystem::new(3, test_rhs(a, 0.3));
        let tr = integrate(&Rk4 { dt }, &sys, 0.0, &y0, 1.0, 1).unwrap();
        let mut end = FinalState::new();
        let stats = Rk4 { dt }
            .solve(&sys, 0.0, &y0, 1.0, &mut end, &mut OdeWorkspace::new(3))
            .unwrap();
        let (t_last, y_last) = tr.last().unwrap();
        prop_assert_eq!(end.time().to_bits(), t_last.to_bits());
        for (got, want) in end.state().iter().zip(y_last) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
        prop_assert_eq!(end.stats(), stats);
        prop_assert_eq!(stats, tr.stats());
    }
}

/// A probe sees every accepted step, and composing observers in a tuple
/// feeds both.
#[test]
fn probe_and_tuple_observers_see_every_step() {
    let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
    let mut seen = Vec::new();
    let probe = Probe::new(|t: f64, y: &[f64], _info, _alive: &[bool]| {
        seen.push((t, y[0]));
        true
    });
    let mut obs = (Strided::every(1), probe);
    let stats = Rk4 { dt: 0.1 }
        .solve(&sys, 0.0, &[1.0], 1.0, &mut obs, &mut OdeWorkspace::new(1))
        .unwrap();
    assert_eq!(stats.accepted, 10);
    let tr = obs.0.into_trajectory();
    assert_eq!(seen.len(), 10);
    // The probe saw exactly the recorded samples (minus the initial one).
    for (k, (t, v)) in seen.iter().enumerate() {
        let (tt, ss) = (tr.times()[k + 1], tr.state(k + 1)[0]);
        assert_eq!(t.to_bits(), tt.to_bits());
        assert_eq!(v.to_bits(), ss.to_bits());
    }
}

/// An observer returning `false` stops the run early; stats cover only the
/// steps actually taken.
#[test]
fn observer_early_exit_stops_the_run() {
    let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
    let mut probe = Probe::new(|_t, y: &[f64], _info, _alive: &[bool]| y[0] > 0.5);
    let stats = Rk4 { dt: 1e-2 }
        .solve(
            &sys,
            0.0,
            &[1.0],
            5.0,
            &mut probe,
            &mut OdeWorkspace::new(1),
        )
        .unwrap();
    // ln 2 ≈ 0.693 → ~70 steps, far short of the 500-step full run.
    assert!(stats.accepted < 100, "stats {stats:?}");
    assert_eq!(stats.rhs_evals, 4 * stats.accepted);
}
