//! The unified solver core: one [`Solver`] trait over scalar *and*
//! lane-batched integration.
//!
//! A solver is two orthogonal pieces:
//!
//! * a [`Stepper`] — the Butcher-tableau stage arithmetic of one method
//!   (forward Euler, classical RK4, the Dormand–Prince 5(4) embedded pair),
//!   written **once** over the [`Elem`] abstraction so the scalar (`f64`)
//!   and laned (`[f64; L]`) forms are literally the same code. Per lane,
//!   every operation matches the historical scalar loops exactly, which is
//!   what keeps the laned paths bit-identical to the scalar ones;
//! * a [`StepControl`] policy — [`Fixed`] (lockstep grid, any width) or
//!   [`Adaptive`] (the PI controller, scalar-only by the bit-identity
//!   policy).
//!
//! Integration is *observer-driven*: instead of baking `Trajectory`
//! recording into the loop, the drive loops report every accepted step to
//! an [`Observer`] — dense/strided trajectory
//! recording, final-state-only capture, or in-loop probes (readout programs
//! evaluating inside the laned hot loop). [`Solver::solve`] is the only
//! way to integrate; [`integrate()`](crate::integrate()) is its one
//! allocating convenience, pairing it with a fresh workspace and a
//! [`Strided`](crate::observe::Strided) recorder.
//!
//! # Examples
//!
//! One solver type drives scalar and laned systems through the same trait:
//!
//! ```
//! use ark_ode::{FnSystem, OdeWorkspace, Rk4, Solver, Strided};
//!
//! let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
//! let mut rec = Strided::every(10);
//! let stats = Rk4 { dt: 1e-3 }.solve(&sys, 0.0, &[1.0], 1.0, &mut rec, &mut OdeWorkspace::new(1))?;
//! assert_eq!(stats.accepted, 1000);
//! let tr = rec.into_trajectory();
//! assert!((tr.last().unwrap().1[0] - (-1.0f64).exp()).abs() < 1e-9);
//! # Ok::<(), ark_ode::SolveError>(())
//! ```

use crate::integrate::{LaneError, SolveError};
use crate::observe::{Observer, StepInfo};
use crate::system::StageHint;
use crate::trajectory::SolveStats;
use crate::{LanedOdeSystem, OdeSystem};

/// One element of a state vector: a plain scalar (`f64`, one instance) or a
/// lane bundle (`[f64; L]`, `L` independent ensemble instances advancing in
/// lockstep).
///
/// The steppers express their stage arithmetic through [`Elem::from_fn`]
/// and [`Elem::get`] so a single implementation serves both widths. For
/// `f64` these inline to the plain expression; for `[f64; L]` they become
/// the elementwise loops the compiler auto-vectorizes. Per lane the
/// operations (and their order) are identical, so laned results are
/// bit-identical to scalar ones.
pub trait Elem: Copy + 'static {
    /// Lanes carried per element (1 for `f64`).
    const WIDTH: usize;

    /// Broadcast one value across all lanes.
    fn splat(x: f64) -> Self;

    /// Lane `l`'s value.
    fn get(self, lane: usize) -> f64;

    /// Build an element lane by lane.
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self;
}

impl Elem for f64 {
    const WIDTH: usize = 1;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        x
    }

    #[inline(always)]
    fn get(self, _lane: usize) -> f64 {
        self
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f64) -> Self {
        f(0)
    }
}

impl<const L: usize> Elem for [f64; L] {
    const WIDTH: usize = L;

    #[inline(always)]
    fn splat(x: f64) -> Self {
        [x; L]
    }

    #[inline(always)]
    fn get(self, lane: usize) -> f64 {
        self[lane]
    }

    #[inline(always)]
    fn from_fn(f: impl FnMut(usize) -> f64) -> Self {
        std::array::from_fn(f)
    }
}

/// A first-order ODE system over element type `E` — the width-generic view
/// the drive loops integrate against.
///
/// Never implement this directly: it is blanket-implemented for every
/// [`OdeSystem`] (at `E = f64`) and every [`LanedOdeSystem<L>`] (at
/// `E = [f64; L]`), so anything the integrators accepted before the
/// redesign still works here.
pub trait SystemOver<E: Elem> {
    /// Dimension of the state vector (per lane).
    fn dim(&self) -> usize;

    /// Evaluate the right-hand side `f(t, y)` into `dydt`.
    fn rhs(&self, t: f64, y: &[E], dydt: &mut [E]);

    /// Receive a stepper scheduling hint (see [`StageHint`]).
    fn stage_hint(&self, hint: StageHint);

    /// Scalar analytic Jacobian at `(t, y)` into row-major `jac`
    /// (see [`OdeSystem::jacobian`]); `false` when unavailable.
    ///
    /// The signature is plain `f64` regardless of `E` because the implicit
    /// steppers run scalar-only (width 1); the laned blanket impl keeps the
    /// default `false`.
    fn jacobian_scalar(&self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        let _ = (t, y, jac);
        false
    }
}

impl<S: OdeSystem + ?Sized> SystemOver<f64> for S {
    fn dim(&self) -> usize {
        OdeSystem::dim(self)
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        OdeSystem::rhs(self, t, y, dydt)
    }

    fn stage_hint(&self, hint: StageHint) {
        OdeSystem::stage_hint(self, hint)
    }

    fn jacobian_scalar(&self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        OdeSystem::jacobian(self, t, y, jac)
    }
}

impl<const L: usize, S: LanedOdeSystem<L> + ?Sized> SystemOver<[f64; L]> for S {
    fn dim(&self) -> usize {
        LanedOdeSystem::dim(self)
    }

    fn rhs(&self, t: f64, y: &[[f64; L]], dydt: &mut [[f64; L]]) {
        LanedOdeSystem::rhs(self, t, y, dydt)
    }

    fn stage_hint(&self, hint: StageHint) {
        LanedOdeSystem::stage_hint(self, hint)
    }
}

/// Reusable integration buffers over element type `E`: the current state, a
/// stage scratch vector, stage-derivative vectors (up to seven for the
/// Dormand–Prince tableau), and the per-lane failure masks of the
/// fixed-step loop.
///
/// Create one per worker/thread and pass it to any number of solve calls;
/// buffers grow on demand (never shrink), so one workspace serves systems
/// of different dimensions. Contents are fully overwritten by each call.
///
/// The historical names survive as aliases: [`OdeWorkspace`] is
/// `Workspace<f64>`, [`LaneWorkspace<L>`] is `Workspace<[f64; L]>`.
#[derive(Debug, Clone)]
pub struct Workspace<E> {
    pub(crate) y: Vec<E>,
    pub(crate) tmp: Vec<E>,
    pub(crate) k: Vec<Vec<E>>,
    /// Per-lane liveness of the current run (failed lanes stop recording
    /// but keep stepping so live lanes are unaffected).
    pub(crate) alive: Vec<bool>,
    /// Per-lane first failure, reported at the same `t` the scalar path
    /// would have detected it.
    pub(crate) failed: Vec<Option<SolveError>>,
}

impl<E> Default for Workspace<E> {
    fn default() -> Self {
        Workspace {
            y: Vec::new(),
            tmp: Vec::new(),
            k: Vec::new(),
            alive: Vec::new(),
            failed: Vec::new(),
        }
    }
}

/// Reusable work buffers for the scalar integrators (`Workspace<f64>`).
pub type OdeWorkspace = Workspace<f64>;

/// Reusable work buffers for the lane-batched integrators — the
/// struct-of-arrays twin of [`OdeWorkspace`].
pub type LaneWorkspace<const L: usize> = Workspace<[f64; L]>;

impl<E: Elem> Workspace<E> {
    /// A workspace pre-sized for systems of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        let mut ws = Workspace::default();
        ws.ensure(dim, 7);
        ws
    }

    /// Grow (never shrink) to dimension `dim` with at least `stages`
    /// stage-derivative vectors.
    fn ensure(&mut self, dim: usize, stages: usize) {
        self.y.resize(dim, E::splat(0.0));
        self.tmp.resize(dim, E::splat(0.0));
        if self.k.len() < stages {
            self.k.resize_with(stages, Vec::new);
        }
        for k in &mut self.k {
            k.resize(dim, E::splat(0.0));
        }
    }

    /// Reset the per-lane failure tracking for a fresh run.
    fn reset_masks(&mut self) {
        self.alive.clear();
        self.alive.resize(E::WIDTH, true);
        self.failed.clear();
        self.failed.resize(E::WIDTH, None);
    }

    /// Lane index of the lowest lane that failed in the last [`Fixed`]
    /// run — the lane whose error the drive loop returned. `None` when
    /// every lane survived. Only meaningful right after a failed
    /// fixed-step [`Solver::solve`] whose error carries a time
    /// ([`SolveError::time`] is `Some`): pre-flight errors
    /// (`BadConfig`/`UnsupportedLanes`) return before the masks are reset,
    /// and the scalar-only policies never touch them, so the masks may
    /// still describe an earlier run. Ensemble engines use this to
    /// attribute a lane-group failure to the instance (seed) that caused
    /// it.
    pub fn first_failed_lane(&self) -> Option<usize> {
        self.alive.iter().position(|a| !a)
    }
}

/// The stage arithmetic of one explicit Runge–Kutta method, written once
/// over [`Elem`] so the scalar and laned forms share an implementation.
///
/// A `Stepper` advances the state by one *fixed* step; embedded
/// error-estimating methods additionally implement [`EmbeddedStepper`] for
/// the adaptive controllers.
pub trait Stepper {
    /// Stage-derivative buffers required from the workspace.
    const STAGES: usize;

    /// RHS evaluations performed per step.
    const RHS_EVALS: usize;

    /// Advance `y` in place from `t` by `dt`. `tmp` and `k` come from the
    /// workspace (dimension-sized; `k` holds at least [`Stepper::STAGES`]
    /// vectors).
    fn step<E: Elem, S: SystemOver<E> + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        dt: f64,
        y: &mut [E],
        tmp: &mut [E],
        k: &mut [Vec<E>],
    );
}

/// An embedded Runge–Kutta pair: trial steps with a built-in error
/// estimate, the raw material of the adaptive step controllers.
pub trait EmbeddedStepper {
    /// Stage-derivative buffers required from the workspace.
    const STAGES: usize;

    /// Fresh RHS evaluations per attempted step (FSAL reuse excluded).
    const RHS_EVALS_PER_ATTEMPT: usize;

    /// Evaluate the first stage at `(t, y)` — the FSAL priming call.
    fn prime<E: Elem, S: SystemOver<E> + ?Sized>(&self, sys: &S, t: f64, y: &[E], k: &mut [Vec<E>]);

    /// One trial step of size `h`: the higher-order candidate lands in
    /// `ytmp`, and the per-lane *sum of squared scaled error components*
    /// is returned (the controller divides by `dim` and takes the root).
    #[allow(clippy::too_many_arguments)]
    fn attempt<E: Elem, S: SystemOver<E> + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        h: f64,
        y: &[E],
        ytmp: &mut [E],
        k: &mut [Vec<E>],
        atol: f64,
        rtol: f64,
    ) -> E;

    /// Rotate stage storage after an accepted step (the FSAL swap).
    fn accept<E: Elem>(&self, k: &mut [Vec<E>]);
}

/// Forward-Euler stages (one RHS evaluation per step).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EulerStages;

impl Stepper for EulerStages {
    const STAGES: usize = 1;
    const RHS_EVALS: usize = 1;

    fn step<E: Elem, S: SystemOver<E> + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        dt: f64,
        y: &mut [E],
        _tmp: &mut [E],
        k: &mut [Vec<E>],
    ) {
        let n = y.len();
        let dydt = &mut k[0][..n];
        sys.rhs(t, y, dydt);
        for (yi, di) in y.iter_mut().zip(dydt.iter()) {
            let (a, d) = (*yi, *di);
            *yi = E::from_fn(|l| a.get(l) + dt * d.get(l));
        }
    }
}

/// Classical fourth-order Runge–Kutta stages.
///
/// Stages 2 and 3 evaluate at the same `t + dt/2`, which the stepper
/// reports to the system via [`StageHint::SameTimeNext`] — the fused
/// interpreter then skips even the revalidation of its time-prologue cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rk4Stages;

impl Stepper for Rk4Stages {
    const STAGES: usize = 4;
    const RHS_EVALS: usize = 4;

    fn step<E: Elem, S: SystemOver<E> + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        dt: f64,
        y: &mut [E],
        tmp: &mut [E],
        k: &mut [Vec<E>],
    ) {
        let n = y.len();
        let (ka, rest) = k.split_at_mut(1);
        let (kb, rest) = rest.split_at_mut(1);
        let (kc, rest) = rest.split_at_mut(1);
        let (k1, k2, k3, k4) = (
            &mut ka[0][..n],
            &mut kb[0][..n],
            &mut kc[0][..n],
            &mut rest[0][..n],
        );
        sys.rhs(t, y, k1);
        for i in 0..n {
            let (yi, ki) = (y[i], k1[i]);
            tmp[i] = E::from_fn(|l| yi.get(l) + 0.5 * dt * ki.get(l));
        }
        sys.rhs(t + 0.5 * dt, tmp, k2);
        for i in 0..n {
            let (yi, ki) = (y[i], k2[i]);
            tmp[i] = E::from_fn(|l| yi.get(l) + 0.5 * dt * ki.get(l));
        }
        // Stage 3 reuses stage 2's evaluation time bit for bit.
        sys.stage_hint(StageHint::SameTimeNext);
        sys.rhs(t + 0.5 * dt, tmp, k3);
        for i in 0..n {
            let (yi, ki) = (y[i], k3[i]);
            tmp[i] = E::from_fn(|l| yi.get(l) + dt * ki.get(l));
        }
        sys.rhs(t + dt, tmp, k4);
        for i in 0..n {
            let (yi, k1i, k2i, k3i, k4i) = (y[i], k1[i], k2[i], k3[i], k4[i]);
            y[i] = E::from_fn(|l| {
                yi.get(l)
                    + dt / 6.0 * (k1i.get(l) + 2.0 * k2i.get(l) + 2.0 * k3i.get(l) + k4i.get(l))
            });
        }
    }
}

// Dormand–Prince coefficients.
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
// 5th-order solution weights (same as A[6]).
const B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
// 4th-order embedded weights.
const B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

/// Dormand–Prince 5(4) embedded stages (FSAL: the accepted step's last
/// stage becomes the next step's first).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dp45Stages;

impl EmbeddedStepper for Dp45Stages {
    const STAGES: usize = 7;
    const RHS_EVALS_PER_ATTEMPT: usize = 6;

    fn prime<E: Elem, S: SystemOver<E> + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        y: &[E],
        k: &mut [Vec<E>],
    ) {
        let n = y.len();
        sys.rhs(t, y, &mut k[0][..n]);
    }

    fn attempt<E: Elem, S: SystemOver<E> + ?Sized>(
        &self,
        sys: &S,
        t: f64,
        h: f64,
        y: &[E],
        ytmp: &mut [E],
        k: &mut [Vec<E>],
        atol: f64,
        rtol: f64,
    ) -> E {
        let n = y.len();
        for s in 1..7 {
            for i in 0..n {
                let mut acc = E::splat(0.0);
                for (j, kj) in k.iter().enumerate().take(s) {
                    let a = A[s][j];
                    if a != 0.0 {
                        let kji = kj[i];
                        acc = E::from_fn(|l| acc.get(l) + a * kji.get(l));
                    }
                }
                let yi = y[i];
                ytmp[i] = E::from_fn(|l| yi.get(l) + h * acc.get(l));
            }
            if C[s] == C[s - 1] {
                // Stages 6 and 7 share their evaluation time.
                sys.stage_hint(StageHint::SameTimeNext);
            }
            let (_, tail) = k.split_at_mut(s);
            sys.rhs(t + C[s] * h, ytmp, &mut tail[0][..n]);
        }
        // 5th-order candidate and embedded error estimate.
        let mut err = E::splat(0.0);
        for i in 0..n {
            let yi = y[i];
            let mut y5 = yi;
            let mut e = E::splat(0.0);
            for (s, ks) in k.iter().enumerate().take(7) {
                let ksi = ks[i];
                y5 = E::from_fn(|l| y5.get(l) + h * B5[s] * ksi.get(l));
                e = E::from_fn(|l| e.get(l) + h * (B5[s] - B4[s]) * ksi.get(l));
            }
            ytmp[i] = y5;
            err = E::from_fn(|l| {
                let scale = atol + rtol * yi.get(l).abs().max(y5.get(l).abs());
                let r = e.get(l) / scale;
                err.get(l) + r * r
            });
        }
        err
    }

    fn accept<E: Elem>(&self, k: &mut [Vec<E>]) {
        // FSAL: the last stage was evaluated at (t + h, y_new).
        k.swap(0, 6);
    }
}

/// A step-size policy composed with a stepper into a full solver (see
/// [`Method`]). Implementations own the drive loop: validation, the step
/// sequence, finiteness masking, and observer notification.
///
/// # Examples
///
/// Two policies over their steppers — a fixed RK4 grid and the adaptive
/// PI controller over the Dormand–Prince pair:
///
/// ```
/// use ark_ode::{
///     Adaptive, Dp45Stages, Fixed, FnSystem, OdeWorkspace, Rk4Stages, StepControl, Strided,
/// };
///
/// let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
/// let mut ws = OdeWorkspace::new(1);
/// let mut fixed = Strided::every(1);
/// Fixed::new(1e-3).drive(&Rk4Stages, &sys, 0.0, &[1.0], 1.0, &mut fixed, &mut ws)?;
/// let control = Adaptive {
///     rtol: 1e-9,
///     atol: 1e-12,
///     h0: None,
///     h_min: 1e-14,
///     h_max: f64::INFINITY,
///     max_steps: 0,
/// };
/// let mut adaptive = Strided::every(1);
/// control.drive(&Dp45Stages, &sys, 0.0, &[1.0], 1.0, &mut adaptive, &mut ws)?;
/// let (f, a) = (fixed.into_trajectory(), adaptive.into_trajectory());
/// assert!((f.last().unwrap().1[0] - a.last().unwrap().1[0]).abs() < 1e-8);
/// assert!(a.len() < f.len(), "the controller takes far fewer steps");
/// # Ok::<(), ark_ode::SolveError>(())
/// ```
pub trait StepControl<St> {
    /// True when the drive loop supports `E::WIDTH > 1`.
    fn supports_lanes(&self) -> bool;

    /// Integrate `sys` from `(t0, y0)` to `t1`, reporting accepted steps to
    /// `obs`.
    ///
    /// # Errors
    ///
    /// [`SolveError::BadConfig`] for invalid configuration,
    /// [`SolveError::UnsupportedLanes`] when a scalar-only policy is driven
    /// at `E::WIDTH > 1`,
    /// [`SolveError::NonFinite`] when a lane's state leaves ℝ (for laned
    /// runs, the lowest failed lane is reported), and
    /// [`SolveError::StepSizeUnderflow`] from the adaptive controllers.
    #[allow(clippy::too_many_arguments)]
    fn drive<E: Elem, S: SystemOver<E> + ?Sized, O: Observer<E>>(
        &self,
        stepper: &St,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<SolveStats, SolveError>;
}

/// Fixed-step control: a lockstep `ceil((t1 - t0) / dt)`-step grid shared
/// by every lane, exactly the historical `Euler`/`Rk4` loops.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fixed {
    /// Step size (the effective step is shrunk so the grid lands on `t1`).
    pub dt: f64,
    /// Hard step budget; `0` means unlimited. The grid size is known up
    /// front, so a plan exceeding the budget fails with
    /// [`SolveError::MaxStepsExceeded`] before the first step.
    pub max_steps: u64,
}

impl Fixed {
    /// Fixed-step control with an unlimited step budget.
    pub fn new(dt: f64) -> Self {
        Fixed { dt, max_steps: 0 }
    }

    /// Pre-flight checks shared by every fixed-grid drive loop (explicit
    /// and implicit): a finite positive step, a finite non-empty interval
    /// and an initial state of the system's dimension.
    pub(crate) fn validate(
        &self,
        t0: f64,
        t1: f64,
        y_len: usize,
        dim: usize,
    ) -> Result<(), SolveError> {
        if !self.dt.is_finite() || self.dt <= 0.0 {
            return Err(SolveError::BadConfig(format!(
                "step dt={} must be positive and finite",
                self.dt
            )));
        }
        validate_span(t0, t1)?;
        validate_dim(y_len, dim)
    }
}

/// Adaptive PI step control — the policy of the historical
/// [`DormandPrince`](crate::DormandPrince) loop.
///
/// Scalar-only by design: lockstep lanes must share one step sequence, but
/// the PI controller derives each step from the error norm of *one*
/// instance, so any shared policy would change the accepted-step grid and
/// break the bit-identity guarantee against the scalar path. Ensembles run
/// it per instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Adaptive {
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
    /// Hard budget on step *attempts* (accepted + rejected); `0` means
    /// unlimited. Exceeding it fails the run with
    /// [`SolveError::MaxStepsExceeded`] — the third terminal condition of
    /// the adaptive loop, next to `NonFinite` and `StepSizeUnderflow`, so
    /// a pathological system cannot spin the controller forever.
    pub max_steps: u64,
}

/// Reject lane widths above 1 for a scalar-only `policy`.
pub(crate) fn scalar_only<E: Elem>(policy: &'static str) -> Result<(), SolveError> {
    if E::WIDTH > 1 {
        return Err(LaneError::ScalarOnlyPolicy {
            policy,
            width: E::WIDTH,
        }
        .into());
    }
    Ok(())
}

fn validate_span(t0: f64, t1: f64) -> Result<(), SolveError> {
    if !t0.is_finite() || !t1.is_finite() {
        return Err(SolveError::BadConfig(format!(
            "interval [{t0}, {t1}] must have finite endpoints"
        )));
    }
    if t1 <= t0 {
        return Err(SolveError::BadConfig(format!(
            "empty interval [{t0}, {t1}]"
        )));
    }
    Ok(())
}

fn validate_dim(y_len: usize, dim: usize) -> Result<(), SolveError> {
    if y_len != dim {
        return Err(SolveError::BadConfig(format!(
            "initial state has {y_len} entries but the system dimension is {dim}"
        )));
    }
    Ok(())
}

impl<St: Stepper> StepControl<St> for Fixed {
    fn supports_lanes(&self) -> bool {
        true
    }

    fn drive<E: Elem, S: SystemOver<E> + ?Sized, O: Observer<E>>(
        &self,
        stepper: &St,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<SolveStats, SolveError> {
        self.validate(t0, t1, y0.len(), sys.dim())?;
        let n = y0.len();
        ws.ensure(n, St::STAGES);
        ws.reset_masks();
        let steps = ((t1 - t0) / self.dt).ceil() as usize;
        // The grid is fully known here, so the budget check is pre-flight:
        // an over-budget plan fails before any work (and before the
        // observer sees a start).
        if self.max_steps > 0 && steps as u64 > self.max_steps {
            return Err(SolveError::MaxStepsExceeded {
                t: t0,
                budget: self.max_steps,
            });
        }
        obs.start(t0, y0, Some(steps));
        let Workspace {
            y,
            tmp,
            k,
            alive,
            failed,
        } = ws;
        let y = &mut y[..n];
        y.copy_from_slice(y0);
        let dt = (t1 - t0) / steps as f64;
        let mut t = t0;
        let mut done = 0usize;
        for step in 0..steps {
            stepper.step(sys, t, dt, y, &mut tmp[..n], k);
            t = t0 + (step + 1) as f64 * dt;
            done = step + 1;
            let mut live = false;
            for l in 0..E::WIDTH {
                if !alive[l] {
                    continue;
                }
                if y.iter().all(|yi| yi.get(l).is_finite()) {
                    live = true;
                } else {
                    alive[l] = false;
                    failed[l] = Some(SolveError::NonFinite { t });
                }
            }
            if !live {
                break;
            }
            let info = StepInfo {
                index: step + 1,
                last: step + 1 == steps,
            };
            if !obs.record(t, y, info, alive) {
                break;
            }
        }
        for f in failed.iter_mut() {
            if let Some(e) = f.take() {
                return Err(e);
            }
        }
        let stats = SolveStats {
            accepted: done,
            rejected: 0,
            rhs_evals: St::RHS_EVALS * done,
            newton_iters: 0,
        };
        obs.finish(stats);
        Ok(stats)
    }
}

impl Adaptive {
    /// Pre-flight checks shared by every adaptive drive loop (explicit and
    /// implicit): a finite non-empty interval, an initial state of the
    /// system's dimension, positive tolerances and usable step bounds.
    pub(crate) fn validate(
        &self,
        t0: f64,
        t1: f64,
        y_len: usize,
        dim: usize,
    ) -> Result<(), SolveError> {
        validate_span(t0, t1)?;
        validate_dim(y_len, dim)?;
        if self.rtol.is_nan() || self.rtol <= 0.0 || self.atol.is_nan() || self.atol < 0.0 {
            return Err(SolveError::BadConfig("tolerances must be positive".into()));
        }
        if let Some(h0) = self.h0 {
            if !h0.is_finite() || h0 <= 0.0 {
                return Err(SolveError::BadConfig(format!(
                    "initial step h0={h0} must be positive and finite"
                )));
            }
        }
        if self.h_min.is_nan() || self.h_min < 0.0 {
            return Err(SolveError::BadConfig(format!(
                "minimum step h_min={} must be non-negative",
                self.h_min
            )));
        }
        if self.h_max.is_nan() || self.h_max <= 0.0 {
            return Err(SolveError::BadConfig(format!(
                "maximum step h_max={} must be positive",
                self.h_max
            )));
        }
        Ok(())
    }
}

impl<St: EmbeddedStepper> StepControl<St> for Adaptive {
    fn supports_lanes(&self) -> bool {
        false
    }

    fn drive<E: Elem, S: SystemOver<E> + ?Sized, O: Observer<E>>(
        &self,
        stepper: &St,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<SolveStats, SolveError> {
        scalar_only::<E>("adaptive PI controller (lockstep fixed-step-only policy)")?;
        self.validate(t0, t1, y0.len(), sys.dim())?;
        let n = y0.len();
        ws.ensure(n, St::STAGES);
        obs.start(t0, y0, None);
        let Workspace { y, tmp, k, .. } = ws;
        let y = &mut y[..n];
        y.copy_from_slice(y0);
        let ytmp = &mut tmp[..n];
        let mut t = t0;
        let mut h = self.h0.unwrap_or((t1 - t0) / 100.0).min(self.h_max);
        let mut stats = SolveStats::default();
        stepper.prime(sys, t, y, k);
        stats.rhs_evals += 1;
        let mut err_prev: f64 = 1.0;

        while t < t1 {
            if h < self.h_min {
                return Err(SolveError::StepSizeUnderflow { t });
            }
            // Budget counts attempts, so rejected steps burn it too — a
            // system that keeps rejecting cannot dodge the budget.
            if self.max_steps > 0 && (stats.accepted + stats.rejected) as u64 >= self.max_steps {
                return Err(SolveError::MaxStepsExceeded {
                    t,
                    budget: self.max_steps,
                });
            }
            if t + h > t1 {
                h = t1 - t;
            }
            let err_sq = stepper.attempt(sys, t, h, y, ytmp, k, self.atol, self.rtol);
            stats.rhs_evals += St::RHS_EVALS_PER_ATTEMPT;
            let err = (err_sq.get(0) / n as f64).sqrt();
            // A NaN estimate can never be stepped into tolerance.
            if err.is_nan() {
                return Err(SolveError::NonFinite { t });
            }

            if err <= 1.0 || h <= self.h_min * 2.0 {
                t += h;
                y.copy_from_slice(ytmp);
                stats.accepted += 1;
                if !y.iter().all(|yi| yi.get(0).is_finite()) {
                    return Err(SolveError::NonFinite { t });
                }
                let info = StepInfo {
                    index: stats.accepted,
                    last: t >= t1,
                };
                let go_on = obs.record(t, y, info, &[true]);
                stepper.accept(k);
                let e = err.max(1e-10);
                let fac = 0.9 * e.powf(-0.7 / 5.0) * err_prev.powf(0.4 / 5.0);
                h = (h * fac.clamp(0.2, 5.0)).min(self.h_max);
                err_prev = e;
                if !go_on {
                    break;
                }
            } else {
                stats.rejected += 1;
                h *= (0.9 * err.powf(-0.2)).clamp(0.1, 1.0);
            }
        }
        obs.finish(stats);
        Ok(stats)
    }
}

/// The unified solver interface: one trait for scalar and lane-batched,
/// fixed-step and adaptive integration.
///
/// Implementations drive an [`Observer`] over the accepted steps. To get a
/// [`Trajectory`](crate::Trajectory) back without managing a workspace,
/// use [`integrate()`](crate::integrate()), which pairs `solve` with a
/// [`Strided`](crate::observe::Strided) trajectory recorder.
///
/// # Examples
///
/// Observing only the final state (no trajectory allocation at all):
///
/// ```
/// use ark_ode::{FinalState, FnSystem, OdeWorkspace, Rk4, Solver};
///
/// let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
/// let mut end = FinalState::new();
/// Rk4 { dt: 1e-3 }.solve(&sys, 0.0, &[1.0], 1.0, &mut end, &mut OdeWorkspace::new(1))?;
/// assert!((end.state()[0] - (-1.0f64).exp()).abs() < 1e-9);
/// # Ok::<(), ark_ode::SolveError>(())
/// ```
pub trait Solver {
    /// Integrate `sys` from `(t0, y0)` to `t1`, reporting every accepted
    /// step to `obs` and returning the run's statistics.
    ///
    /// `E` selects the width: `f64` for one instance, `[f64; L]` for `L`
    /// lockstep instances (one trajectory per lane, each bit-identical to a
    /// scalar run of that lane alone).
    ///
    /// # Errors
    ///
    /// See [`StepControl::drive`]. Solvers whose policy is scalar-only
    /// (PI-adaptive) return [`SolveError::UnsupportedLanes`] when
    /// `E::WIDTH > 1`; probe with [`Solver::supports_lanes`].
    fn solve<E: Elem, S: SystemOver<E> + ?Sized, O: Observer<E>>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<SolveStats, SolveError>;

    /// True when [`Solver::solve`] supports `E::WIDTH > 1`. Ensemble
    /// engines use this to fall back to scalar dispatch for lane-incapable
    /// solvers instead of failing.
    fn supports_lanes(&self) -> bool {
        true
    }
}

/// A [`Stepper`] composed with a [`StepControl`] policy — the generic
/// solver assembly. [`Euler`](crate::Euler), [`Rk4`](crate::Rk4), and
/// [`DormandPrince`](crate::DormandPrince) are ergonomic configurations of
/// this composition.
///
/// # Examples
///
/// ```
/// use ark_ode::{Fixed, FnSystem, Method, OdeWorkspace, Rk4Stages, Solver, Strided};
///
/// // Identical to `Rk4 { dt: 1e-2 }`, assembled from its parts.
/// let solver = Method { stepper: Rk4Stages, control: Fixed::new(1e-2) };
/// let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
/// let mut rec = Strided::every(1);
/// solver.solve(&sys, 0.0, &[1.0], 1.0, &mut rec, &mut OdeWorkspace::new(1))?;
/// # Ok::<(), ark_ode::SolveError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Method<St, Ctl> {
    /// The stage arithmetic.
    pub stepper: St,
    /// The step-size policy.
    pub control: Ctl,
}

impl<St, Ctl: StepControl<St>> Solver for Method<St, Ctl> {
    fn solve<E: Elem, S: SystemOver<E> + ?Sized, O: Observer<E>>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<SolveStats, SolveError> {
        self.control.drive(&self.stepper, sys, t0, y0, t1, obs, ws)
    }

    fn supports_lanes(&self) -> bool {
        self.control.supports_lanes()
    }
}
