//! The solver configurations: fixed-step and adaptive integrators.
//!
//! The Ark compiler produces an [`OdeSystem`]; these solvers run the
//! transient simulations behind every figure in the paper. They are thin
//! configurations of the unified [`Solver`] trait — a
//! [`Stepper`](crate::Stepper) composed with a [`StepControl`] policy (see
//! [`crate::solver`]):
//!
//! * [`Rk4`] (and [`Euler`]) — fixed-step explicit methods
//!   ([`Fixed`] control), predictable cost, used for the TLN/OBC
//!   simulations where the step is set by the signal bandwidth;
//! * [`DormandPrince`] — adaptive 5(4) embedded Runge–Kutta with PI step
//!   control ([`Adaptive`], scalar-only), the accuracy reference of the
//!   step-convergence tests and the explicit baseline of the stiff
//!   comparison.
//!
//! Every solver runs through [`Solver::solve`] with an
//! [`Observer`](crate::Observer). [`integrate()`] is the one allocating
//! convenience: it pairs `solve` with a fresh [`OdeWorkspace`] and a
//! [`Strided`] recorder and returns the [`Trajectory`]. Callers that reuse
//! a workspace, step lanes, or read out in the loop call `solve` directly.

use crate::observe::Strided;
use crate::solver::{
    Adaptive, Dp45Stages, Elem, EulerStages, Fixed, OdeWorkspace, Rk4Stages, Solver, StepControl,
    SystemOver, Workspace,
};
use crate::system::OdeSystem;
use crate::trajectory::Trajectory;
use std::fmt;

/// A lane-width validation error: the requested SIMD-style lane width is
/// not one the engine (or the selected step-control policy) can run.
///
/// Produced by `ark-sim`'s width checks (`Ensemble::try_with_lanes`, the
/// `ARK_LANES` environment override) and by scalar-only step-control
/// policies driven at `WIDTH > 1`; convertible into [`SolveError`] via
/// `From` so solver entry points can propagate it with `?`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaneError {
    /// The width is not in the engine's supported set (the laned
    /// interpreter is only monomorphized for `supported`).
    UnsupportedWidth {
        /// The rejected lane width.
        requested: usize,
        /// The authoritative supported set (owned by the caller — for the
        /// ensemble engine, `ark_sim::SUPPORTED_LANES`).
        supported: &'static [usize],
    },
    /// The step-control policy has no laned form but was driven at a lane
    /// width above 1 (the PI-adaptive controller and TR-BDF2 are
    /// scalar-only; ensembles run them per instance).
    ScalarOnlyPolicy {
        /// Name of the scalar-only policy.
        policy: &'static str,
        /// The lane width it was driven at.
        width: usize,
    },
}

impl fmt::Display for LaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaneError::UnsupportedWidth {
                requested,
                supported,
            } => write!(
                f,
                "unsupported lane width {requested}: the laned interpreter is \
                 compiled for widths {supported:?}"
            ),
            LaneError::ScalarOnlyPolicy { policy, width } => write!(
                f,
                "the {policy} has no laned form but was driven at lane width \
                 {width}; run it at width 1"
            ),
        }
    }
}

impl std::error::Error for LaneError {}

/// An error produced during integration.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The state or derivative became non-finite at time `t`.
    NonFinite {
        /// Time at which the failure was detected.
        t: f64,
    },
    /// The adaptive controller reduced the step below its minimum at time `t`.
    StepSizeUnderflow {
        /// Time at which the step underflowed.
        t: f64,
    },
    /// Invalid solver configuration.
    BadConfig(String),
    /// A lane-width validation failure (see [`LaneError`]).
    UnsupportedLanes(LaneError),
    /// The damped-Newton iteration of an implicit stepper failed to
    /// converge (or its iteration matrix was singular) at time `t`, and the
    /// step policy had no way to shrink the step. Produced by
    /// [`TrBdf2`](crate::TrBdf2) under [`Fixed`] control; adaptive control
    /// retries with a smaller step instead.
    NewtonDivergence {
        /// Time of the failed step attempt.
        t: f64,
    },
    /// The solver's step budget (`max_steps` on [`Fixed`] /
    /// [`Adaptive`]) was exhausted before reaching `t1`.
    /// The adaptive controllers count step *attempts* (accepted +
    /// rejected), so a pathological system can neither spin the PI loop
    /// unbounded nor dodge the budget by rejecting forever.
    MaxStepsExceeded {
        /// Time reached when the budget ran out.
        t: f64,
        /// The configured budget.
        budget: u64,
    },
}

impl SolveError {
    /// A stable machine-readable name for this error's variant (without
    /// its payload): `"non_finite"`, `"step_size_underflow"`,
    /// `"bad_config"`, `"unsupported_lanes"`, `"newton_divergence"`, or
    /// `"max_steps_exceeded"`. Failure accounting (the `FailureLog`
    /// reducer in `ark-sim`) keys its per-kind counts on this.
    pub fn kind(&self) -> &'static str {
        match self {
            SolveError::NonFinite { .. } => "non_finite",
            SolveError::StepSizeUnderflow { .. } => "step_size_underflow",
            SolveError::BadConfig(_) => "bad_config",
            SolveError::UnsupportedLanes(_) => "unsupported_lanes",
            SolveError::NewtonDivergence { .. } => "newton_divergence",
            SolveError::MaxStepsExceeded { .. } => "max_steps_exceeded",
        }
    }

    /// The time at which the failure was detected, when the variant
    /// carries one (`BadConfig`/`UnsupportedLanes` are pre-flight checks
    /// and do not).
    pub fn time(&self) -> Option<f64> {
        match self {
            SolveError::NonFinite { t }
            | SolveError::StepSizeUnderflow { t }
            | SolveError::NewtonDivergence { t }
            | SolveError::MaxStepsExceeded { t, .. } => Some(*t),
            SolveError::BadConfig(_) | SolveError::UnsupportedLanes(_) => None,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NonFinite { t } => write!(f, "non-finite state at t={t}"),
            SolveError::StepSizeUnderflow { t } => write!(f, "step size underflow at t={t}"),
            SolveError::BadConfig(m) => write!(f, "bad solver configuration: {m}"),
            SolveError::UnsupportedLanes(e) => write!(f, "bad solver configuration: {e}"),
            SolveError::NewtonDivergence { t } => {
                write!(f, "Newton iteration failed to converge at t={t}")
            }
            SolveError::MaxStepsExceeded { t, budget } => {
                write!(f, "step budget of {budget} exhausted at t={t}")
            }
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::UnsupportedLanes(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LaneError> for SolveError {
    fn from(e: LaneError) -> Self {
        SolveError::UnsupportedLanes(e)
    }
}

/// Integrate `sys` from `(t0, y0)` to `t1` under `solver`, recording every
/// `stride`-th accepted step plus the initial and final states (`stride`
/// 0 is treated as 1; adaptive solvers usually pass 1).
///
/// The one allocating convenience over [`Solver::solve`]: it runs with a
/// fresh [`OdeWorkspace`] and a [`Strided`] recorder. Hot loops that
/// integrate many times call `solve` with a reused workspace instead.
///
/// # Examples
///
/// ```
/// use ark_ode::{integrate, DormandPrince, FnSystem, Rk4};
///
/// let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
/// let fixed = integrate(&Rk4 { dt: 1e-3 }, &sys, 0.0, &[1.0], 1.0, 10)?;
/// let adaptive = integrate(&DormandPrince::new(1e-9, 1e-12), &sys, 0.0, &[1.0], 1.0, 1)?;
/// let (f, a) = (fixed.last().unwrap().1[0], adaptive.last().unwrap().1[0]);
/// assert!((f - a).abs() < 1e-8);
/// # Ok::<(), ark_ode::SolveError>(())
/// ```
///
/// # Errors
///
/// See [`Solver::solve`]: [`SolveError::BadConfig`] for an invalid step,
/// interval or initial state, [`SolveError::NonFinite`] if the state
/// blows up, and the adaptive and implicit failures of the chosen solver.
pub fn integrate<V: Solver, S: OdeSystem + ?Sized>(
    solver: &V,
    sys: &S,
    t0: f64,
    y0: &[f64],
    t1: f64,
    stride: usize,
) -> Result<Trajectory, SolveError> {
    let mut rec = Strided::every(stride);
    solver.solve(sys, t0, y0, t1, &mut rec, &mut OdeWorkspace::new(y0.len()))?;
    Ok(rec.into_trajectory())
}

/// Forward Euler with a fixed step. Mostly a baseline for convergence tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Euler {
    /// Step size.
    pub dt: f64,
}

impl Solver for Euler {
    fn solve<E: Elem, S: SystemOver<E> + ?Sized, O: crate::Observer<E>>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<crate::SolveStats, SolveError> {
        Fixed::new(self.dt).drive(&EulerStages, sys, t0, y0, t1, obs, ws)
    }
}

/// Classical fourth-order Runge–Kutta with a fixed step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rk4 {
    /// Step size.
    pub dt: f64,
}

impl Solver for Rk4 {
    fn solve<E: Elem, S: SystemOver<E> + ?Sized, O: crate::Observer<E>>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<crate::SolveStats, SolveError> {
        Fixed::new(self.dt).drive(&Rk4Stages, sys, t0, y0, t1, obs, ws)
    }
}

/// Adaptive Dormand–Prince 5(4) embedded Runge–Kutta pair.
///
/// Recorded samples land on the accepted (possibly large) steps: bound
/// `h_max` when a trajectory must be interpolated densely.
///
/// # No laned form (lockstep fixed-step-only policy)
///
/// The lane-batched ensemble path deliberately does **not** extend to this
/// solver. Lockstep lanes must share one step sequence, but the PI
/// controller derives each step from the error norm of *one* instance:
/// any shared policy (min/vote across lanes) changes the accepted-step grid
/// and therefore breaks the bit-identity guarantee against the scalar
/// path, while per-lane step sequences are no longer lanes at all.
/// Adaptive ensembles in `ark-sim` run the scalar path per instance
/// ([`Solver::supports_lanes`] returns `false` here).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DormandPrince {
    /// Relative error tolerance.
    pub rtol: f64,
    /// Absolute error tolerance.
    pub atol: f64,
    /// Initial step (guessed from the interval when `None`); finite and
    /// positive when set.
    pub h0: Option<f64>,
    /// Smallest step before declaring failure (`≥ 0`).
    pub h_min: f64,
    /// Largest allowed step (`> 0`; `∞` for no bound).
    pub h_max: f64,
    /// Hard budget on step attempts (accepted + rejected); `0` means
    /// unlimited. See [`Adaptive`]'s `max_steps`.
    pub max_steps: u64,
}

impl Default for DormandPrince {
    fn default() -> Self {
        DormandPrince {
            rtol: 1e-6,
            atol: 1e-9,
            h0: None,
            h_min: 1e-14,
            h_max: f64::INFINITY,
            max_steps: 0,
        }
    }
}

impl Solver for DormandPrince {
    fn solve<E: Elem, S: SystemOver<E> + ?Sized, O: crate::Observer<E>>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<crate::SolveStats, SolveError> {
        self.control().drive(&Dp45Stages, sys, t0, y0, t1, obs, ws)
    }

    fn supports_lanes(&self) -> bool {
        false
    }
}

impl DormandPrince {
    /// Construct with tolerances and defaults for the step bounds.
    pub fn new(rtol: f64, atol: f64) -> Self {
        DormandPrince {
            rtol,
            atol,
            ..Default::default()
        }
    }

    /// This configuration as an [`Adaptive`] step-control policy.
    pub fn control(&self) -> Adaptive {
        Adaptive {
            rtol: self.rtol,
            atol: self.atol,
            h0: self.h0,
            h_min: self.h_min,
            h_max: self.h_max,
            max_steps: self.max_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::FnSystem;
    use crate::LaneWorkspace;

    /// `solve` + [`Strided`] through a caller-provided, possibly dirty
    /// workspace — what [`integrate()`] must match bit for bit.
    pub(super) fn solve_in<V: Solver>(
        solver: &V,
        sys: &(impl OdeSystem + ?Sized),
        y0: &[f64],
        t1: f64,
        stride: usize,
        ws: &mut OdeWorkspace,
    ) -> Result<Trajectory, SolveError> {
        let mut rec = Strided::every(stride);
        solver.solve(sys, 0.0, y0, t1, &mut rec, ws)?;
        Ok(rec.into_trajectory())
    }

    fn decay() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
        FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0])
    }

    #[test]
    fn euler_decay_first_order() {
        let sys = decay();
        let tr = integrate(&Euler { dt: 1e-3 }, &sys, 0.0, &[1.0], 1.0, 100).unwrap();
        let (_, yf) = tr.last().unwrap();
        assert!((yf[0] - (-1.0f64).exp()).abs() < 1e-3);
    }

    #[test]
    fn euler_first_order_convergence() {
        // Halving dt halves the global error on y' = -y.
        let sys = decay();
        let err = |dt: f64| {
            let tr = integrate(&Euler { dt }, &sys, 0.0, &[1.0], 1.0, usize::MAX).unwrap();
            (tr.last().unwrap().1[0] - (-1.0f64).exp()).abs()
        };
        let ratio = err(0.01) / err(0.005);
        assert!(ratio > 1.8 && ratio < 2.2, "ratio {ratio}");
    }

    #[test]
    fn rk4_decay_high_accuracy() {
        let sys = decay();
        let tr = integrate(&Rk4 { dt: 1e-2 }, &sys, 0.0, &[1.0], 1.0, 10).unwrap();
        let (_, yf) = tr.last().unwrap();
        assert!((yf[0] - (-1.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn rk4_fourth_order_convergence() {
        let sys = decay();
        let err = |dt: f64| {
            let tr = integrate(&Rk4 { dt }, &sys, 0.0, &[1.0], 1.0, usize::MAX).unwrap();
            (tr.last().unwrap().1[0] - (-1.0f64).exp()).abs()
        };
        let e1 = err(0.1);
        let e2 = err(0.05);
        let ratio = e1 / e2;
        // Fourth order: halving dt divides error by ~16.
        assert!(ratio > 12.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn rk4_harmonic_oscillator_conserves_energy() {
        let sys = FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        let tr = integrate(
            &Rk4 { dt: 1e-3 },
            &sys,
            0.0,
            &[1.0, 0.0],
            2.0 * std::f64::consts::PI,
            100,
        )
        .unwrap();
        let (_, yf) = tr.last().unwrap();
        // One full period returns to the initial condition.
        assert!((yf[0] - 1.0).abs() < 1e-8);
        assert!(yf[1].abs() < 1e-8);
        let energy = yf[0] * yf[0] + yf[1] * yf[1];
        assert!((energy - 1.0).abs() < 1e-10);
    }

    #[test]
    fn dp45_decay_meets_tolerance() {
        let sys = decay();
        let tr = integrate(&DormandPrince::new(1e-9, 1e-12), &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let (_, yf) = tr.last().unwrap();
        assert!((yf[0] - (-1.0f64).exp()).abs() < 1e-8);
    }

    #[test]
    fn dp45_forced_system() {
        // dy/dt = cos(t), y(0)=0 => y(t)=sin(t).
        let sys = FnSystem::new(1, |t: f64, _y: &[f64], d: &mut [f64]| d[0] = t.cos());
        // Bound the step so linear interpolation between accepted samples is
        // accurate at the probe points.
        let solver = DormandPrince {
            h_max: 1e-2,
            ..DormandPrince::new(1e-8, 1e-11)
        };
        let tr = integrate(&solver, &sys, 0.0, &[0.0], 3.0, 1).unwrap();
        for t in [0.5, 1.0, 2.0, 3.0] {
            assert!((tr.value_at(t, 0) - t.sin()).abs() < 1e-5, "t={t}");
        }
    }

    #[test]
    fn dp45_adapts_step_count() {
        // A stiff-ish decay needs more steps at tight tolerance.
        let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -50.0 * y[0]);
        let loose = integrate(&DormandPrince::new(1e-3, 1e-6), &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let tight =
            integrate(&DormandPrince::new(1e-10, 1e-13), &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        assert!(tight.len() > loose.len());
    }

    #[test]
    fn dp45_reports_rejected_steps() {
        // Force the controller to overreach: a stiff decay attacked with a
        // huge initial step must reject at least once before settling.
        let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -50.0 * y[0]);
        let solver = DormandPrince {
            h0: Some(0.5),
            ..DormandPrince::new(1e-8, 1e-11)
        };
        let tr = integrate(&solver, &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let stats = tr.stats();
        assert!(stats.rejected >= 1, "stats {stats:?}");
        assert_eq!(stats.accepted, tr.len() - 1);
        // 6 fresh stages per attempt (FSAL) plus the priming evaluation.
        assert_eq!(
            stats.rhs_evals,
            1 + 6 * (stats.accepted + stats.rejected),
            "stats {stats:?}"
        );
    }

    #[test]
    fn fixed_step_stats_count_steps() {
        let sys = decay();
        let tr = integrate(&Rk4 { dt: 0.1 }, &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let stats = tr.stats();
        assert_eq!(stats.accepted, 10);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.rhs_evals, 40);
        let tr = integrate(&Euler { dt: 0.1 }, &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        assert_eq!(tr.stats().rhs_evals, 10);
    }

    #[test]
    fn workspace_is_reusable_across_dims_and_solvers() {
        let mut ws = OdeWorkspace::new(1);
        let sys1 = decay();
        let a = solve_in(&Rk4 { dt: 1e-2 }, &sys1, &[1.0], 1.0, 10, &mut ws).unwrap();
        // Same workspace, larger system.
        let sys2 = FnSystem::new(2, |_t, y: &[f64], d: &mut [f64]| {
            d[0] = y[1];
            d[1] = -y[0];
        });
        let b = solve_in(
            &DormandPrince::default(),
            &sys2,
            &[1.0, 0.0],
            1.0,
            1,
            &mut ws,
        )
        .unwrap();
        // And back down again, matching the fresh-buffer path exactly.
        let c = solve_in(&Rk4 { dt: 1e-2 }, &sys1, &[1.0], 1.0, 10, &mut ws).unwrap();
        assert_eq!(a, c);
        assert_eq!(
            a,
            integrate(&Rk4 { dt: 1e-2 }, &sys1, 0.0, &[1.0], 1.0, 10).unwrap()
        );
        assert_eq!(b.dim(), 2);
    }

    #[test]
    fn fixed_step_hits_end_exactly() {
        let sys = decay();
        // dt that does not divide the interval.
        let tr = integrate(&Rk4 { dt: 0.3 }, &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        assert!((tr.last().unwrap().0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bad_config_errors() {
        let sys = decay();
        assert!(matches!(
            integrate(&Rk4 { dt: 0.0 }, &sys, 0.0, &[1.0], 1.0, 1),
            Err(SolveError::BadConfig(_))
        ));
        assert!(matches!(
            integrate(&Rk4 { dt: 0.1 }, &sys, 1.0, &[1.0], 0.0, 1),
            Err(SolveError::BadConfig(_))
        ));
        assert!(matches!(
            integrate(&Rk4 { dt: 0.1 }, &sys, 0.0, &[1.0, 2.0], 1.0, 1),
            Err(SolveError::BadConfig(_))
        ));
        assert!(matches!(
            integrate(&DormandPrince::new(-1.0, 0.0), &sys, 0.0, &[1.0], 1.0, 1),
            Err(SolveError::BadConfig(_))
        ));
        // Non-finite steps and endpoints are rejected up front, not run to
        // a trajectory that ends at t0 or fails mid-flight.
        assert!(matches!(
            integrate(&Rk4 { dt: f64::INFINITY }, &sys, 0.0, &[1.0], 1.0, 1),
            Err(SolveError::BadConfig(_))
        ));
        for (t0, t1) in [(0.0, f64::INFINITY), (f64::NEG_INFINITY, 1.0)] {
            assert!(matches!(
                integrate(&Rk4 { dt: 0.1 }, &sys, t0, &[1.0], t1, 1),
                Err(SolveError::BadConfig(_))
            ));
            assert!(matches!(
                integrate(&DormandPrince::default(), &sys, t0, &[1.0], t1, 1),
                Err(SolveError::BadConfig(_))
            ));
            assert!(matches!(
                integrate(&crate::TrBdf2::fixed(0.1), &sys, t0, &[1.0], t1, 1),
                Err(SolveError::BadConfig(_))
            ));
        }
        // Explicit and implicit fixed grids share one step check.
        for dt in [0.0, -0.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                integrate(&Rk4 { dt }, &sys, 0.0, &[1.0], 1.0, 1),
                Err(SolveError::BadConfig(_))
            ));
            assert!(matches!(
                integrate(&crate::TrBdf2::fixed(dt), &sys, 0.0, &[1.0], 1.0, 1),
                Err(SolveError::BadConfig(_))
            ));
        }
        // Unusable adaptive step bounds are configuration errors, not
        // run-time step failures, for DP and TR-BDF2 alike.
        let base = DormandPrince::new(1e-6, 1e-9);
        let bad_bounds = [
            DormandPrince {
                h0: Some(-1.0),
                ..base
            },
            DormandPrince {
                h0: Some(0.0),
                ..base
            },
            DormandPrince {
                h0: Some(f64::NAN),
                ..base
            },
            DormandPrince {
                h0: Some(f64::INFINITY),
                ..base
            },
            DormandPrince {
                h_min: f64::NAN,
                ..base
            },
            DormandPrince {
                h_min: -1e-14,
                ..base
            },
            DormandPrince { h_max: 0.0, ..base },
            DormandPrince {
                h_max: -1.0,
                ..base
            },
            DormandPrince {
                h_max: f64::NAN,
                ..base
            },
        ];
        for dp in bad_bounds {
            assert!(
                matches!(
                    integrate(&dp, &sys, 0.0, &[1.0], 1.0, 1),
                    Err(SolveError::BadConfig(_))
                ),
                "{dp:?}"
            );
            let implicit = crate::TrBdf2 {
                control: dp.control(),
                ..crate::TrBdf2::new(dp.rtol, dp.atol)
            };
            assert!(
                matches!(
                    integrate(&implicit, &sys, 0.0, &[1.0], 1.0, 1),
                    Err(SolveError::BadConfig(_))
                ),
                "{dp:?}"
            );
        }
    }

    #[test]
    fn strided_capacity_hint_is_bounded() {
        // 1e15 planned steps at stride 1: reserving the full plan up front
        // would abort the process. A probe stops the run after 10 steps.
        let sys = decay();
        let mut obs = (
            Strided::every(1),
            crate::Probe::new(|_t, _y: &[f64], info: crate::StepInfo, _alive: &[bool]| {
                info.index < 10
            }),
        );
        let stats = Rk4 { dt: 1e-15 }
            .solve(&sys, 0.0, &[1.0], 1.0, &mut obs, &mut OdeWorkspace::new(1))
            .unwrap();
        assert_eq!(stats.accepted, 10);
        assert_eq!(obs.0.into_trajectory().len(), 11);
    }

    #[test]
    fn nonfinite_detected() {
        // dy/dt = y^2 blows up at t=1 for y0=1.
        let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = y[0] * y[0]);
        let res = integrate(&Rk4 { dt: 1e-3 }, &sys, 0.0, &[1.0], 2.0, 1);
        assert!(matches!(res, Err(SolveError::NonFinite { .. })));
    }

    #[test]
    fn fixed_step_budget_is_preflight() {
        use crate::observe::FinalState;
        use crate::solver::{Method, OdeWorkspace, Rk4Stages};
        let sys = decay();
        // 1000 planned steps against a budget of 10: fail before stepping.
        let control = Fixed {
            dt: 1e-3,
            max_steps: 10,
        };
        let solver = Method {
            stepper: Rk4Stages,
            control,
        };
        let mut obs = FinalState::new();
        let res = solver.solve(&sys, 0.0, &[1.0], 1.0, &mut obs, &mut OdeWorkspace::new(1));
        assert_eq!(
            res,
            Err(SolveError::MaxStepsExceeded { t: 0.0, budget: 10 })
        );
        // A sufficient budget is untouched by the check.
        let solver = Method {
            stepper: Rk4Stages,
            control: Fixed {
                dt: 1e-3,
                max_steps: 1000,
            },
        };
        let stats = solver
            .solve(&sys, 0.0, &[1.0], 1.0, &mut obs, &mut OdeWorkspace::new(1))
            .unwrap();
        assert_eq!(stats.accepted, 1000);
    }

    #[test]
    fn adaptive_step_budget_counts_attempts() {
        let sys = decay();
        let tight = DormandPrince {
            max_steps: 3,
            ..DormandPrince::new(1e-12, 1e-14)
        };
        let res = integrate(&tight, &sys, 0.0, &[1.0], 1.0, 1);
        let Err(SolveError::MaxStepsExceeded { t, budget: 3 }) = res else {
            panic!("expected MaxStepsExceeded, got {res:?}");
        };
        assert!(t < 1.0);
        // The same run with an ample budget is bit-identical to the
        // unbudgeted solver: the budget check reads counters only.
        let ample = DormandPrince {
            max_steps: 100_000,
            ..DormandPrince::new(1e-12, 1e-14)
        };
        let a = integrate(&ample, &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let b = integrate(&DormandPrince::new(1e-12, 1e-14), &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        assert_eq!(a.last(), b.last());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn error_kinds_are_stable_names() {
        assert_eq!(SolveError::NonFinite { t: 0.0 }.kind(), "non_finite");
        assert_eq!(
            SolveError::MaxStepsExceeded { t: 0.5, budget: 9 }.kind(),
            "max_steps_exceeded"
        );
        assert_eq!(SolveError::BadConfig("x".into()).kind(), "bad_config");
        assert_eq!(SolveError::NonFinite { t: 2.0 }.time(), Some(2.0));
        assert_eq!(SolveError::BadConfig("x".into()).time(), None);
    }

    /// A laned wrapper around independent per-lane scalar closures.
    #[allow(clippy::type_complexity)]
    fn laned_decay<const L: usize>(
        rates: [f64; L],
    ) -> crate::system::FnLanedSystem<L, impl Fn(f64, &[[f64; L]], &mut [[f64; L]])> {
        crate::system::FnLanedSystem::new(1, move |_t, y: &[[f64; L]], d: &mut [[f64; L]]| {
            for l in 0..L {
                d[0][l] = -rates[l] * y[0][l];
            }
        })
    }

    #[test]
    fn laned_rk4_matches_scalar_bit_for_bit() {
        const L: usize = 4;
        let rates = [0.5, 1.0, 2.0, 3.25];
        let y0s = [1.0, -2.0, 0.125, 7.5];
        let mut rec = Strided::every(7);
        Rk4 { dt: 1e-2 }
            .solve(
                &laned_decay(rates),
                0.0,
                &[y0s],
                1.0,
                &mut rec,
                &mut LaneWorkspace::new(1),
            )
            .unwrap();
        let laned = rec.into_trajectories();
        for l in 0..L {
            let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| {
                d[0] = -rates[l] * y[0]
            });
            let scalar = integrate(&Rk4 { dt: 1e-2 }, &sys, 0.0, &[y0s[l]], 1.0, 7).unwrap();
            assert_eq!(scalar, laned[l], "lane {l}");
        }
    }

    #[test]
    fn laned_euler_matches_scalar_bit_for_bit() {
        const L: usize = 2;
        let rates = [0.5, 4.0];
        let mut rec = Strided::every(3);
        Euler { dt: 1e-2 }
            .solve(
                &laned_decay(rates),
                0.0,
                &[[1.0; L]],
                1.0,
                &mut rec,
                &mut LaneWorkspace::new(1),
            )
            .unwrap();
        let laned = rec.into_trajectories();
        for l in 0..L {
            let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| {
                d[0] = -rates[l] * y[0]
            });
            let scalar = integrate(&Euler { dt: 1e-2 }, &sys, 0.0, &[1.0], 1.0, 3).unwrap();
            assert_eq!(scalar, laned[l], "lane {l}");
        }
    }

    #[test]
    fn laned_failure_reports_lowest_lane_at_scalar_time() {
        // Lane 1 blows up (dy/dt = y², y0 = 1 → blow-up at t = 1); lane 0 is
        // a benign decay. The group reports lane 1's NonFinite at the same t
        // a scalar run of lane 1 alone detects it.
        const L: usize = 2;
        let sys = crate::system::FnLanedSystem::new(1, |_t, y: &[[f64; L]], d: &mut [[f64; L]]| {
            d[0][0] = -y[0][0];
            d[0][1] = y[0][1] * y[0][1];
        });
        let got = Rk4 { dt: 1e-3 }
            .solve(
                &sys,
                0.0,
                &[[1.0, 1.0]],
                2.0,
                &mut Strided::every(1),
                &mut LaneWorkspace::new(1),
            )
            .unwrap_err();
        let scalar_sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = y[0] * y[0]);
        let want = integrate(&Rk4 { dt: 1e-3 }, &scalar_sys, 0.0, &[1.0], 2.0, 1).unwrap_err();
        assert_eq!(got, want);
    }

    #[test]
    fn laned_workspace_is_reusable_across_dims() {
        let mut ws = LaneWorkspace::<2>::new(1);
        let mut a = Strided::every(5);
        Rk4 { dt: 1e-2 }
            .solve(
                &laned_decay([1.0, 2.0]),
                0.0,
                &[[1.0, 1.0]],
                1.0,
                &mut a,
                &mut ws,
            )
            .unwrap();
        // Same workspace, larger system (two state components).
        let sys2 =
            crate::system::FnLanedSystem::new(2, |_t, y: &[[f64; 2]], d: &mut [[f64; 2]]| {
                for l in 0..2 {
                    d[0][l] = y[1][l];
                    d[1][l] = -y[0][l];
                }
            });
        let mut b = Strided::every(5);
        Rk4 { dt: 1e-2 }
            .solve(&sys2, 0.0, &[[1.0, 1.0], [0.0, 0.0]], 1.0, &mut b, &mut ws)
            .unwrap();
        // And back down, matching the fresh-buffer path exactly.
        let mut c = Strided::every(5);
        Rk4 { dt: 1e-2 }
            .solve(
                &laned_decay([1.0, 2.0]),
                0.0,
                &[[1.0, 1.0]],
                1.0,
                &mut c,
                &mut LaneWorkspace::new(1),
            )
            .unwrap();
        let (a, b, c) = (
            a.into_trajectories(),
            b.into_trajectories(),
            c.into_trajectories(),
        );
        assert_eq!(a, c);
        assert_eq!(b[0].dim(), 2);
    }

    #[test]
    fn stride_reduces_samples() {
        let sys = decay();
        let dense = integrate(&Rk4 { dt: 1e-3 }, &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let sparse = integrate(&Rk4 { dt: 1e-3 }, &sys, 0.0, &[1.0], 1.0, 100).unwrap();
        assert!(dense.len() > 900);
        assert!(sparse.len() < 20);
        // Endpoint recorded in both.
        assert_eq!(dense.last().unwrap().0, sparse.last().unwrap().0);
    }

    #[test]
    fn dp45_underflows_on_a_finite_blowup() {
        // dy/dt = y² keeps its error estimate finite while diverging toward
        // the pole at t = 1, so the controller shrinks the step into
        // underflow there.
        let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = y[0] * y[0]);
        let res = integrate(&DormandPrince::new(1e-8, 1e-11), &sys, 0.0, &[1.0], 2.0, 1);
        let Err(SolveError::StepSizeUnderflow { t }) = res else {
            panic!("expected StepSizeUnderflow, got {res:?}");
        };
        assert!((t - 1.0).abs() < 1e-3, "underflow at t={t}");
    }

    #[test]
    fn dp45_nan_derivative_fails_non_finite_and_is_never_recorded() {
        // The derivative turns NaN past t = 0.5: the run fails NonFinite
        // there, and no sample the observer saw is non-finite.
        let sys = FnSystem::new(1, |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = if t > 0.5 { f64::NAN } else { -y[0] }
        });
        let (mut samples, mut t_seen) = (0usize, 0.0f64);
        let mut probe = crate::Probe::new(|t: f64, y: &[f64], _info, _alive: &[bool]| {
            assert!(y.iter().all(|v| v.is_finite()), "recorded {y:?} at t={t}");
            samples += 1;
            t_seen = t;
            true
        });
        let mut ws = OdeWorkspace::new(1);
        let dp = DormandPrince::new(1e-8, 1e-11);
        let err = dp
            .solve(&sys, 0.0, &[1.0], 2.0, &mut probe, &mut ws)
            .unwrap_err();
        let SolveError::NonFinite { t } = err else {
            panic!("expected NonFinite, got {err}");
        };
        assert!(
            t <= 0.5 && t_seen <= t,
            "failed at t={t}, last sample {t_seen}"
        );
        assert!(samples > 0, "the run recorded its steps before t = 0.5");
    }

    #[test]
    fn plain_adaptive_rejects_lanes() {
        const L: usize = 2;
        let sys = laned_decay([1.0, 2.0]);
        let mut rec = Strided::every(1);
        let err = DormandPrince::default()
            .solve(
                &sys,
                0.0,
                &[[1.0; L]],
                1.0,
                &mut rec,
                &mut LaneWorkspace::new(1),
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                SolveError::UnsupportedLanes(LaneError::ScalarOnlyPolicy { width: L, .. })
            ),
            "{err}"
        );
        assert!(!DormandPrince::default().supports_lanes());
        assert!(Rk4 { dt: 1.0 }.supports_lanes());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::solve_in;
    use super::*;
    use crate::system::{FnSystem, LinearSystem};
    use crate::LaneWorkspace;
    use proptest::prelude::*;

    proptest! {
        /// Constant derivative integrates to a straight line under all solvers.
        #[test]
        fn constant_rhs_linear(c in -5.0..5.0f64, t1 in 0.1..3.0f64) {
            let sys = FnSystem::new(1, move |_t, _y: &[f64], d: &mut [f64]| d[0] = c);
            let rk = integrate(&Rk4 { dt: 0.01 }, &sys, 0.0, &[0.0], t1, 1).unwrap();
            prop_assert!((rk.last().unwrap().1[0] - c * t1).abs() < 1e-9);
            let dp = integrate(&DormandPrince::default(), &sys, 0.0, &[0.0], t1, 1).unwrap();
            prop_assert!((dp.last().unwrap().1[0] - c * t1).abs() < 1e-6);
        }

        /// Linear decay stays positive and monotone under RK4.
        #[test]
        fn decay_monotone(y0 in 0.1..10.0f64, rate in 0.1..5.0f64) {
            let sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| d[0] = -rate * y[0]);
            let tr = integrate(&Rk4 { dt: 1e-3 }, &sys, 0.0, &[y0], 1.0, 10).unwrap();
            let mut prev = f64::INFINITY;
            for (_, s) in tr.iter() {
                prop_assert!(s[0] > 0.0);
                prop_assert!(s[0] <= prev + 1e-12);
                prev = s[0];
            }
        }

        /// RK4 and Dormand–Prince agree on a smooth nonlinear system.
        #[test]
        fn solvers_agree(a in 0.5..2.0f64) {
            let sys = FnSystem::new(1, move |t: f64, y: &[f64], d: &mut [f64]| {
                d[0] = -a * y[0] + (3.0 * t).sin()
            });
            let rk = integrate(&Rk4 { dt: 1e-3 }, &sys, 0.0, &[1.0], 2.0, 1).unwrap();
            let solver = DormandPrince { h_max: 1e-2, ..DormandPrince::new(1e-9, 1e-12) };
            let dp = integrate(&solver, &sys, 0.0, &[1.0], 2.0, 1).unwrap();
            // Endpoint: both solvers land exactly on t=2, so only solver
            // error shows up.
            let (r_end, d_end) = (rk.last().unwrap().1[0], dp.last().unwrap().1[0]);
            prop_assert!((r_end - d_end).abs() < 1e-8, "end rk={} dp={}", r_end, d_end);
            // Interior points additionally carry the linear-interpolation
            // error of the adaptive trace (O(h_max^2) ≈ 1e-4 worst case).
            for t in [0.5, 1.0, 1.5] {
                let (r, d) = (rk.value_at(t, 0), dp.value_at(t, 0));
                prop_assert!((r - d).abs() < 1e-4, "t={} rk={} dp={}", t, r, d);
            }
        }

        /// Lane-batched RK4/Euler over random linear-decay lanes is
        /// bit-identical to integrating each lane through the scalar path,
        /// for awkward strides and intervals.
        #[test]
        fn laned_matches_scalar_on_random_decays(
            rates in proptest::collection::vec(0.05..4.0f64, 4),
            y0 in proptest::collection::vec(-2.0..2.0f64, 4),
            t1 in 0.3..1.5f64,
            stride in 1usize..9,
        ) {
            const L: usize = 4;
            let rs: [f64; L] = [rates[0], rates[1], rates[2], rates[3]];
            let sys = crate::system::FnLanedSystem::new(1, move |_t, y: &[[f64; L]], d: &mut [[f64; L]]| {
                for l in 0..L {
                    d[0][l] = -rs[l] * y[0][l] + (2.0 * y[0][l]).sin() * 0.1;
                }
            });
            let y0s = [[y0[0], y0[1], y0[2], y0[3]]];
            for dt in [0.05, 0.013] {
                let mut rec = Strided::every(stride);
                Rk4 { dt }.solve(&sys, 0.0, &y0s, t1, &mut rec, &mut LaneWorkspace::new(1)).unwrap();
                let laned = rec.into_trajectories();
                let mut rec = Strided::every(stride);
                Euler { dt }.solve(&sys, 0.0, &y0s, t1, &mut rec, &mut LaneWorkspace::new(1)).unwrap();
                let laned_e = rec.into_trajectories();
                for l in 0..L {
                    let scalar_sys = FnSystem::new(1, move |_t, y: &[f64], d: &mut [f64]| {
                        d[0] = -rs[l] * y[0] + (2.0 * y[0]).sin() * 0.1;
                    });
                    let rk = integrate(&Rk4 { dt }, &scalar_sys, 0.0, &[y0[l]], t1, stride).unwrap();
                    prop_assert_eq!(&rk, &laned[l]);
                    let eu = integrate(&Euler { dt }, &scalar_sys, 0.0, &[y0[l]], t1, stride).unwrap();
                    prop_assert_eq!(&eu, &laned_e[l]);
                }
            }
        }

        /// `solve` through a reused workspace is bit-identical to the
        /// allocating [`integrate()`] on random linear systems, for every
        /// solver — including when the workspace is dirty from a previous
        /// run.
        #[test]
        fn inplace_matches_allocating(
            a in proptest::collection::vec(-2.0..2.0f64, 9),
            y0 in proptest::collection::vec(-1.0..1.0f64, 3),
            f in -1.0..1.0f64,
        ) {
            let sys = LinearSystem::new(3, a, move |t: f64, b: &mut [f64]| {
                b[0] = f * t.sin();
                b[1] = 0.0;
                b[2] = -f;
            });
            let mut ws = OdeWorkspace::new(1); // deliberately undersized
            for dt in [0.05, 0.01] {
                let fresh = integrate(&Euler { dt }, &sys, 0.0, &y0, 1.0, 3);
                let inplace = solve_in(&Euler { dt }, &sys, &y0, 1.0, 3, &mut ws);
                prop_assert_eq!(fresh, inplace);
                let fresh = integrate(&Rk4 { dt }, &sys, 0.0, &y0, 1.0, 3);
                let inplace = solve_in(&Rk4 { dt }, &sys, &y0, 1.0, 3, &mut ws);
                prop_assert_eq!(fresh, inplace);
            }
            let dp = DormandPrince::new(1e-7, 1e-10);
            let fresh = integrate(&dp, &sys, 0.0, &y0, 1.0, 1);
            let inplace = solve_in(&dp, &sys, &y0, 1.0, 1, &mut ws);
            prop_assert_eq!(fresh, inplace);
        }

        /// TR-BDF2 converges at its design order on forced linear decay:
        /// halving the fixed step divides the endpoint error by ~4
        /// (observed order ≈ 2) across random rates and initial states.
        #[test]
        fn trbdf2_second_order_convergence(a in 0.3..2.0f64, y0 in -2.0..2.0f64) {
            // y' = -a·y + sin t has the exact solution
            //   y = (y0 + 1/(1+a²))·e^{-a t} + (a·sin t − cos t)/(1+a²).
            let sys = LinearSystem::new(1, vec![-a], |t: f64, b: &mut [f64]| b[0] = t.sin());
            let exact = |t: f64| {
                let d = 1.0 + a * a;
                (y0 + 1.0 / d) * (-a * t).exp() + (a * t.sin() - t.cos()) / d
            };
            let err = |dt: f64| {
                let tr = integrate(&crate::TrBdf2::fixed(dt), &sys, 0.0, &[y0], 1.0, usize::MAX)
                    .unwrap();
                (tr.last().unwrap().1[0] - exact(1.0)).abs()
            };
            let ratio = err(0.1) / err(0.05);
            prop_assert!(ratio > 3.0 && ratio < 5.2, "observed ratio {} (order {})",
                ratio, ratio.log2());
        }

        /// A-stability smoke test: on y' = -λy with λ·h ≥ 100 — far outside
        /// every explicit stability region — TR-BDF2 decays monotonically
        /// toward zero while RK4 at the same coarse step blows up.
        #[test]
        fn trbdf2_stable_where_rk4_explodes(lam in 1e3..1e5f64) {
            let sys = LinearSystem::new(1, vec![-lam], |_t, b: &mut [f64]| b[0] = 0.0);
            let h = 0.1;
            let tr = integrate(&crate::TrBdf2::fixed(h), &sys, 0.0, &[1.0], 1.0, 1)
                .unwrap();
            let mut prev = 1.0;
            for (_, s) in tr.iter() {
                prop_assert!(s[0].abs() <= prev, "implicit iterates must contract");
                prev = s[0].abs();
            }
            prop_assert!(prev < 1e-6, "implicit end {prev}");
            // RK4's growth factor per step at λh ≥ 100 is ≈ (λh)⁴/24.
            match integrate(&(Rk4 { dt: h }), &sys, 0.0, &[1.0], 1.0, 1) {
                Ok(tr) => {
                    let end = tr.last().unwrap().1[0].abs();
                    prop_assert!(end > 1e3, "rk4 should explode, got {end}");
                }
                Err(SolveError::NonFinite { .. }) => {} // overflowed
                Err(e) => prop_assert!(false, "unexpected rk4 failure {}", e),
            }
        }
    }
}
