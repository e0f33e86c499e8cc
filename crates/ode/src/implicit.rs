//! The implicit TR-BDF2 solver: one trapezoidal half-stage chained with a
//! BDF2 half-stage, both solved by a damped Newton iteration over a shared
//! LU-factored iteration matrix.
//!
//! TR-BDF2 (Bank et al., the method behind SPICE-class transient engines;
//! embedded-error form after Hosea & Shampine) is L-stable, second order,
//! and one-leg: both stages solve a system with the *same* matrix
//! `M = I − d·h·J`, so each step attempt factors once
//! ([`crate::linalg::Lu::refactor`]) and back-substitutes many times —
//! Newton corrections for both stages plus the stiffness filter on the
//! embedded error estimate.
//!
//! Where the explicit steppers ([`crate::Rk4`], [`crate::DormandPrince`])
//! need `h ≲ 1/λ` for the fastest eigenvalue λ no matter how slowly the
//! solution moves, [`TrBdf2`] picks its step from the solution's *accuracy*
//! alone — the decisive difference on stiff designs (Van der Pol at
//! μ = 1000, Robertson kinetics, charge-transfer dynamics) where λ·(span)
//! is 10⁶ and up.
//!
//! The Jacobian comes from
//! [`OdeSystem::jacobian`](crate::OdeSystem::jacobian) when the system
//! provides one (`ark-core` compiled systems lower it from the value DAG by
//! forward-mode differentiation) and from internal forward finite
//! differences otherwise. Either way the solver composes like every other
//! one: it implements [`Solver`], streams to observers, and runs under
//! `Ensemble::run(..)` — scalar-only (`supports_lanes() == false`), so the
//! ensemble engine dispatches it per instance.
//!
//! # Examples
//!
//! A stiff linear decay that RK4 at the same step count would send to
//! infinity:
//!
//! ```
//! use ark_ode::{integrate, LinearSystem, TrBdf2};
//!
//! // dy/dt = -1e4 y, h = 0.05 → RK4's growth factor per step is huge;
//! // TR-BDF2 is L-stable and damps it monotonically.
//! let sys = LinearSystem::new(1, vec![-1e4], |_t, b: &mut [f64]| b[0] = 0.0);
//! let tr = integrate(&TrBdf2::fixed(0.05), &sys, 0.0, &[1.0], 1.0, 1)?;
//! let end = tr.last().unwrap().1[0];
//! assert!(end.abs() < 1e-6, "L-stable decay, got {end}");
//! # Ok::<(), ark_ode::SolveError>(())
//! ```

use crate::integrate::SolveError;
use crate::linalg::{Lu, Matrix};
use crate::observe::{Observer, StepInfo};
use crate::solver::{scalar_only, Adaptive, Elem, Fixed, Solver, SystemOver, Workspace};
use crate::trajectory::SolveStats;

/// γ = 2 − √2: the trapezoidal sub-step fraction that makes both TR-BDF2
/// stages share one iteration matrix (and the method L-stable).
const GAMMA: f64 = 2.0 - std::f64::consts::SQRT_2;
/// d = γ/2: the implicit weight of both stages; the iteration matrix is
/// `M = I − d·h·J`.
const D: f64 = GAMMA / 2.0;

/// Configuration of the damped Newton iteration inside [`TrBdf2`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NewtonCfg {
    /// Maximum Newton iterations per stage before the step attempt is
    /// declared failed (adaptive control then retries with `h/4`).
    pub max_iters: usize,
    /// Convergence threshold on the scaled correction norm
    /// `rms(Δᵢ / (atol + rtol·|uᵢ|))` — the iteration stops once the last
    /// correction moved the iterate by less than `tol` tolerance units.
    pub tol: f64,
    /// Maximum step-halvings of the line search within one iteration when
    /// the full Newton step increases the residual norm.
    pub max_halvings: usize,
}

impl Default for NewtonCfg {
    fn default() -> Self {
        NewtonCfg {
            max_iters: 8,
            tol: 0.03,
            max_halvings: 4,
        }
    }
}

/// The TR-BDF2 implicit solver, composed with a step-control policy `C`
/// ([`Adaptive`] embedded-error control or a [`Fixed`] grid).
///
/// Construct with [`TrBdf2::new`] (adaptive) or [`TrBdf2::fixed`]; both
/// fields are public for finer control (initial step, step bounds, Newton
/// budget). See the [module docs](self) for the method and when to prefer
/// it over the explicit solvers.
///
/// # Examples
///
/// Van der Pol at μ = 1000 — the classic stiff benchmark:
///
/// ```
/// use ark_ode::{integrate, FnSystem, TrBdf2};
///
/// let mu = 1000.0;
/// let vdp = FnSystem::new(2, move |_t, y: &[f64], d: &mut [f64]| {
///     d[0] = y[1];
///     d[1] = mu * ((1.0 - y[0] * y[0]) * y[1]) - y[0];
/// });
/// let tr = integrate(&TrBdf2::new(1e-6, 1e-9), &vdp, 0.0, &[2.0, 0.0], 1.0, 1)?;
/// let stats = tr.stats();
/// assert!(stats.accepted < 500, "stiffness-insensitive step count");
/// # Ok::<(), ark_ode::SolveError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrBdf2<C = Adaptive> {
    /// The step-size policy.
    pub control: C,
    /// The inner Newton iteration's budget and tolerances.
    pub newton: NewtonCfg,
}

impl TrBdf2<Adaptive> {
    /// Adaptive TR-BDF2 with the given tolerances (same controller bounds
    /// as [`crate::DormandPrince::new`]).
    pub fn new(rtol: f64, atol: f64) -> Self {
        TrBdf2 {
            control: Adaptive {
                rtol,
                atol,
                h0: None,
                h_min: 1e-14,
                h_max: f64::INFINITY,
                max_steps: 0,
            },
            newton: NewtonCfg::default(),
        }
    }
}

impl TrBdf2<Fixed> {
    /// Fixed-grid TR-BDF2 with step `dt` (shrunk to land exactly on `t1`).
    ///
    /// There is no error control: every step must converge or the solve
    /// fails with [`SolveError::NewtonDivergence`]. Newton corrections are
    /// scaled with rtol `1e-6` / atol `1e-9`.
    pub fn fixed(dt: f64) -> Self {
        TrBdf2 {
            control: Fixed::new(dt),
            newton: NewtonCfg::default(),
        }
    }
}

/// Why a step attempt failed (internally recoverable under adaptive
/// control: reject and retry with a smaller step).
enum AttemptFail {
    /// The iteration matrix `I − d·h·J` had no usable pivot.
    Singular,
    /// Newton ran out of iterations or line-search halvings, or produced a
    /// non-finite residual.
    Diverged,
}

/// The per-solve engine: all buffers, the factored iteration matrix, and
/// the Newton/stage arithmetic. Scalar state (`Vec<f64>`) regardless of
/// `E` — the solver only runs at `E::WIDTH == 1`, and converts exactly via
/// `splat`/`get(0)` around the width-generic `rhs` calls.
struct Core<'a, E: Elem, S: SystemOver<E> + ?Sized> {
    sys: &'a S,
    n: usize,
    newton: NewtonCfg,
    /// Newton/error scaling tolerances.
    atol: f64,
    rtol: f64,
    rhs_evals: usize,
    newton_iters: usize,
    /// Width-generic conversion buffers for `rhs` calls.
    ye: Vec<E>,
    ke: Vec<E>,
    jac: Vec<f64>,
    m: Matrix,
    lu: Option<Lu>,
    /// `f(t, yₙ)` — FSAL: reused from the previous step's last stage.
    f_n: Vec<f64>,
    f_g: Vec<f64>,
    /// `f(t+h, yₙ₊₁)` of the accepted step; becomes the next `f_n`.
    f_new: Vec<f64>,
    y_g: Vec<f64>,
    y_new: Vec<f64>,
    /// Constant part of the current stage's residual.
    base: Vec<f64>,
    /// Newton iterate and trial iterate.
    u: Vec<f64>,
    u_try: Vec<f64>,
    /// Current residual / RHS buffer for the linear solve.
    r: Vec<f64>,
    delta: Vec<f64>,
    ftmp: Vec<f64>,
    err_vec: Vec<f64>,
}

/// Evaluate `f(t, y)` through the width-generic system (exact at width 1).
fn eval_rhs<E: Elem, S: SystemOver<E> + ?Sized>(
    sys: &S,
    t: f64,
    y: &[f64],
    out: &mut [f64],
    ye: &mut [E],
    ke: &mut [E],
    evals: &mut usize,
) {
    for (e, &v) in ye.iter_mut().zip(y) {
        *e = E::splat(v);
    }
    sys.rhs(t, ye, ke);
    for (o, k) in out.iter_mut().zip(ke.iter()) {
        *o = k.get(0);
    }
    *evals += 1;
}

impl<'a, E: Elem, S: SystemOver<E> + ?Sized> Core<'a, E, S> {
    fn new(sys: &'a S, n: usize, newton: NewtonCfg, atol: f64, rtol: f64) -> Self {
        Core {
            sys,
            n,
            newton,
            atol,
            rtol,
            rhs_evals: 0,
            newton_iters: 0,
            ye: vec![E::splat(0.0); n],
            ke: vec![E::splat(0.0); n],
            jac: vec![0.0; n * n],
            m: Matrix::zeros(n),
            lu: None,
            f_n: vec![0.0; n],
            f_g: vec![0.0; n],
            f_new: vec![0.0; n],
            y_g: vec![0.0; n],
            y_new: vec![0.0; n],
            base: vec![0.0; n],
            u: vec![0.0; n],
            u_try: vec![0.0; n],
            r: vec![0.0; n],
            delta: vec![0.0; n],
            ftmp: vec![0.0; n],
            err_vec: vec![0.0; n],
        }
    }

    /// Evaluate `f(t, y)` into `f_n` (the priming / FSAL seed eval).
    fn prime(&mut self, t: f64, y: &[f64]) {
        eval_rhs(
            self.sys,
            t,
            y,
            &mut self.f_n,
            &mut self.ye,
            &mut self.ke,
            &mut self.rhs_evals,
        );
    }

    /// Fill `self.jac` at `(t, y)`: analytic when the system provides one,
    /// forward finite differences over the already-computed `f_n = f(t, y)`
    /// otherwise (deterministic; `n` extra rhs evaluations).
    fn jacobian_at(&mut self, t: f64, y: &[f64]) {
        if self.sys.jacobian_scalar(t, y, &mut self.jac) {
            return;
        }
        let n = self.n;
        let sqrt_eps = f64::EPSILON.sqrt();
        self.u_try.copy_from_slice(y);
        for (j, &yj) in y.iter().enumerate() {
            let delta = sqrt_eps * yj.abs().max(1.0);
            self.u_try[j] = yj + delta;
            eval_rhs(
                self.sys,
                t,
                &self.u_try,
                &mut self.ftmp,
                &mut self.ye,
                &mut self.ke,
                &mut self.rhs_evals,
            );
            self.u_try[j] = y[j];
            for i in 0..n {
                self.jac[i * n + j] = (self.ftmp[i] - self.f_n[i]) / delta;
            }
        }
    }

    /// Factor `M = I − d·h·J` (Jacobian already in `self.jac`).
    fn factor(&mut self, dh: f64) -> Result<(), AttemptFail> {
        let n = self.n;
        let data = self.m.data_mut();
        for i in 0..n {
            for j in 0..n {
                let idn = if i == j { 1.0 } else { 0.0 };
                data[i * n + j] = idn - dh * self.jac[i * n + j];
            }
        }
        let ok = match &mut self.lu {
            Some(lu) => lu.refactor(&self.m).is_ok(),
            None => match Lu::factor(&self.m) {
                Ok(lu) => {
                    self.lu = Some(lu);
                    true
                }
                Err(_) => false,
            },
        };
        if ok {
            Ok(())
        } else {
            Err(AttemptFail::Singular)
        }
    }

    /// Scaled rms norm `sqrt(mean((vᵢ/(atol + rtol·|refᵢ|))²))`.
    fn scaled_rms(&self, v: &[f64], reference: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (vi, ri) in v.iter().zip(reference) {
            let s = self.atol + self.rtol * ri.abs();
            let e = vi / s;
            acc += e * e;
        }
        (acc / self.n as f64).sqrt()
    }

    /// Residual `r(u) = u − d·h·f(t, u) − base` given `f(t, u)` in `f_u`.
    fn residual_into(u: &[f64], dh: f64, f_u: &[f64], base: &[f64], r: &mut [f64]) {
        for i in 0..u.len() {
            r[i] = u[i] - dh * f_u[i] - base[i];
        }
    }

    /// Damped Newton for one stage: solve `u = base + d·h·f(t_s, u)`
    /// starting from the predictor already in `self.u`; on success `self.u`
    /// holds the root and `self.ftmp` holds `f(t_s, u)` at the root.
    fn newton_solve(&mut self, t_s: f64, dh: f64) -> Result<(), AttemptFail> {
        eval_rhs(
            self.sys,
            t_s,
            &self.u,
            &mut self.ftmp,
            &mut self.ye,
            &mut self.ke,
            &mut self.rhs_evals,
        );
        Self::residual_into(&self.u, dh, &self.ftmp, &self.base, &mut self.r);
        let mut rnorm = self.scaled_rms(&self.r, &self.u);
        if !rnorm.is_finite() {
            return Err(AttemptFail::Diverged);
        }
        let lu = self.lu.as_ref().expect("factored before newton_solve");
        for _ in 0..self.newton.max_iters {
            self.newton_iters += 1;
            // Solve M·Δ = −r.
            for ri in self.r.iter_mut() {
                *ri = -*ri;
            }
            if lu.solve_into(&self.r, &mut self.delta).is_err() {
                return Err(AttemptFail::Diverged);
            }
            // Line search: halve the update until the residual norm drops.
            let mut lambda = 1.0;
            let mut accepted = false;
            for _ in 0..=self.newton.max_halvings {
                for i in 0..self.n {
                    self.u_try[i] = self.u[i] + lambda * self.delta[i];
                }
                eval_rhs(
                    self.sys,
                    t_s,
                    &self.u_try,
                    &mut self.ftmp,
                    &mut self.ye,
                    &mut self.ke,
                    &mut self.rhs_evals,
                );
                Self::residual_into(&self.u_try, dh, &self.ftmp, &self.base, &mut self.r);
                let rnorm_try = self.scaled_rms(&self.r, &self.u_try);
                // Accept any finite decrease — or any finite residual once
                // we are inside the convergence basin (tiny corrections).
                if rnorm_try.is_finite() && (rnorm_try < rnorm || rnorm < self.newton.tol) {
                    self.u.copy_from_slice(&self.u_try);
                    rnorm = rnorm_try;
                    accepted = true;
                    break;
                }
                lambda *= 0.5;
            }
            if !accepted {
                return Err(AttemptFail::Diverged);
            }
            // Converged when the applied correction is small in tolerance
            // units.
            let mut acc = 0.0;
            for (di, ui) in self.delta.iter().zip(&self.u) {
                let s = self.atol + self.rtol * ui.abs();
                let e = lambda * di / s;
                acc += e * e;
            }
            let dnorm = (acc / self.n as f64).sqrt();
            if dnorm.is_finite() && dnorm < self.newton.tol {
                return Ok(());
            }
        }
        Err(AttemptFail::Diverged)
    }

    /// One TR-BDF2 step attempt from `(t, y)` with step `h`. On success
    /// `y_new`/`f_new` hold the candidate state and its derivative, and the
    /// returned value is the stiffness-filtered scaled error norm
    /// (`err ≤ 1` means within tolerance).
    fn attempt(&mut self, t: f64, h: f64, y: &[f64]) -> Result<f64, AttemptFail> {
        let n = self.n;
        let dh = D * h;
        self.jacobian_at(t, y);
        self.factor(dh)?;

        // Stage 1 — trapezoidal to t + γh:
        //   u − d·h·f(t+γh, u) = yₙ + d·h·fₙ, predictor u₀ = yₙ + γh·fₙ.
        for (i, &yi) in y.iter().enumerate() {
            self.base[i] = yi + dh * self.f_n[i];
            self.u[i] = yi + GAMMA * h * self.f_n[i];
        }
        self.newton_solve(t + GAMMA * h, dh)?;
        self.y_g.copy_from_slice(&self.u);
        self.f_g.copy_from_slice(&self.ftmp);

        // Stage 2 — BDF2 to t + h over {yₙ, y_γ}:
        //   u − d·h·f(t+h, u) = c₁·y_γ − c₂·yₙ,
        // with c₁ = 1/(γ(2−γ)), c₂ = (1−γ)²/(γ(2−γ)); the implicit weight
        // (1−γ)/(2−γ) equals d exactly at γ = 2−√2, so M is reused.
        let denom = GAMMA * (2.0 - GAMMA);
        let c1 = 1.0 / denom;
        let c2 = (1.0 - GAMMA) * (1.0 - GAMMA) / denom;
        for (i, &yi) in y.iter().enumerate() {
            self.base[i] = c1 * self.y_g[i] - c2 * yi;
            self.u[i] = self.y_g[i] + (1.0 - GAMMA) * h * self.f_g[i];
        }
        self.newton_solve(t + h, dh)?;
        self.y_new.copy_from_slice(&self.u);
        self.f_new.copy_from_slice(&self.ftmp);

        // Embedded error: e = h·Σ(bᵢ−b̂ᵢ)fᵢ against the 3rd-order weights,
        // passed through M⁻¹ (Hosea–Shampine) so stiff components are not
        // overestimated.
        let b1 = std::f64::consts::SQRT_2 / 4.0;
        let bh2 = 1.0 / (6.0 * GAMMA * (1.0 - GAMMA));
        let bh3 = 0.5 - GAMMA * bh2;
        let bh1 = 1.0 - bh2 - bh3;
        let (w1, w2, w3) = (b1 - bh1, b1 - bh2, D - bh3);
        for i in 0..n {
            self.r[i] = h * (w1 * self.f_n[i] + w2 * self.f_g[i] + w3 * self.f_new[i]);
        }
        let lu = self.lu.as_ref().expect("factored above");
        if lu.solve_into(&self.r, &mut self.err_vec).is_err() {
            return Err(AttemptFail::Diverged);
        }
        let mut acc = 0.0;
        for (i, &yi) in y.iter().enumerate() {
            let s = self.atol + self.rtol * yi.abs().max(self.y_new[i].abs());
            let e = self.err_vec[i] / s;
            acc += e * e;
        }
        let err = (acc / n as f64).sqrt();
        if err.is_finite() {
            Ok(err)
        } else {
            Err(AttemptFail::Diverged)
        }
    }

    /// Commit the attempted step: the candidate state becomes current and
    /// its derivative seeds the next step (FSAL).
    fn advance(&mut self, y: &mut [f64]) {
        y.copy_from_slice(&self.y_new);
        std::mem::swap(&mut self.f_n, &mut self.f_new);
    }
}

/// The scalar-only policy name TR-BDF2 reports at lane widths above 1
/// (Newton/LU has no laned form).
const POLICY: &str = "TR-BDF2 implicit stepper (Newton/LU is scalar-only)";

/// Copy a scalar state into the width-generic observer buffer.
fn to_elems<E: Elem>(y: &[f64], ye: &mut [E]) {
    for (e, &v) in ye.iter_mut().zip(y) {
        *e = E::splat(v);
    }
}

impl Solver for TrBdf2<Adaptive> {
    fn solve<E: Elem, S: SystemOver<E> + ?Sized, O: Observer<E>>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        _ws: &mut Workspace<E>,
    ) -> Result<SolveStats, SolveError> {
        scalar_only::<E>(POLICY)?;
        let cfg = &self.control;
        cfg.validate(t0, t1, y0.len(), sys.dim())?;
        let n = y0.len();
        let mut y: Vec<f64> = y0.iter().map(|e| e.get(0)).collect();
        let mut ye: Vec<E> = y0.to_vec();
        let alive = vec![true; E::WIDTH];
        let mut core = Core::new(sys, n, self.newton, cfg.atol, cfg.rtol);
        obs.start(t0, y0, None);
        let mut t = t0;
        let mut h = cfg.h0.unwrap_or((t1 - t0) / 100.0).min(cfg.h_max);
        let mut stats = SolveStats::default();
        core.prime(t, &y);

        while t < t1 {
            if h < cfg.h_min {
                return Err(SolveError::StepSizeUnderflow { t });
            }
            // Same attempt-counting budget as the explicit adaptive loop
            // (`Adaptive::drive`): rejected steps burn it too.
            if cfg.max_steps > 0 && (stats.accepted + stats.rejected) as u64 >= cfg.max_steps {
                return Err(SolveError::MaxStepsExceeded {
                    t,
                    budget: cfg.max_steps,
                });
            }
            if t + h > t1 {
                h = t1 - t;
            }
            match core.attempt(t, h, &y) {
                Err(_) => {
                    // Singular iteration matrix or Newton divergence: both
                    // are step-size problems for an L-stable method.
                    stats.rejected += 1;
                    h *= 0.25;
                }
                Ok(err) if err <= 1.0 || h <= cfg.h_min * 2.0 => {
                    t += h;
                    core.advance(&mut y);
                    stats.accepted += 1;
                    if !y.iter().all(|v| v.is_finite()) {
                        return Err(SolveError::NonFinite { t });
                    }
                    to_elems(&y, &mut ye);
                    let info = StepInfo {
                        index: stats.accepted,
                        last: t >= t1,
                    };
                    let go_on = obs.record(t, &ye, info, &alive);
                    let e = err.max(1e-10);
                    let fac = 0.9 * e.powf(-1.0 / 3.0);
                    h = (h * fac.clamp(0.2, 5.0)).min(cfg.h_max);
                    if !go_on {
                        break;
                    }
                }
                Ok(err) => {
                    stats.rejected += 1;
                    h *= (0.9 * err.powf(-1.0 / 3.0)).clamp(0.1, 1.0);
                }
            }
        }
        stats.rhs_evals = core.rhs_evals;
        stats.newton_iters = core.newton_iters;
        obs.finish(stats);
        Ok(stats)
    }

    fn supports_lanes(&self) -> bool {
        false
    }
}

impl Solver for TrBdf2<Fixed> {
    fn solve<E: Elem, S: SystemOver<E> + ?Sized, O: Observer<E>>(
        &self,
        sys: &S,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        _ws: &mut Workspace<E>,
    ) -> Result<SolveStats, SolveError> {
        scalar_only::<E>(POLICY)?;
        self.control.validate(t0, t1, y0.len(), sys.dim())?;
        let dt = self.control.dt;
        let n = y0.len();
        let mut y: Vec<f64> = y0.iter().map(|e| e.get(0)).collect();
        let mut ye: Vec<E> = y0.to_vec();
        let alive = vec![true; E::WIDTH];
        // Fixed control has no user tolerances; scale Newton with defaults.
        let mut core = Core::new(sys, n, self.newton, 1e-9, 1e-6);
        let steps = ((t1 - t0) / dt).ceil() as usize;
        if self.control.max_steps > 0 && steps as u64 > self.control.max_steps {
            return Err(SolveError::MaxStepsExceeded {
                t: t0,
                budget: self.control.max_steps,
            });
        }
        obs.start(t0, y0, Some(steps));
        let dt = (t1 - t0) / steps as f64;
        let mut t = t0;
        core.prime(t, &y);
        let mut done = 0usize;
        for step in 0..steps {
            if core.attempt(t, dt, &y).is_err() {
                return Err(SolveError::NewtonDivergence { t });
            }
            t = t0 + (step + 1) as f64 * dt;
            core.advance(&mut y);
            done = step + 1;
            if !y.iter().all(|v| v.is_finite()) {
                return Err(SolveError::NonFinite { t });
            }
            to_elems(&y, &mut ye);
            let info = StepInfo {
                index: step + 1,
                last: step + 1 == steps,
            };
            if !obs.record(t, &ye, info, &alive) {
                break;
            }
        }
        let stats = SolveStats {
            accepted: done,
            rejected: 0,
            rhs_evals: core.rhs_evals,
            newton_iters: core.newton_iters,
        };
        obs.finish(stats);
        Ok(stats)
    }

    fn supports_lanes(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrate::{integrate, Rk4};
    use crate::observe::FinalState;
    use crate::solver::OdeWorkspace;
    use crate::system::{FnSystem, LinearSystem};

    fn decay(lambda: f64) -> LinearSystem<impl Fn(f64, &mut [f64])> {
        LinearSystem::new(1, vec![-lambda], |_t, b: &mut [f64]| b[0] = 0.0)
    }

    #[test]
    fn matches_exponential_decay() {
        let sys = decay(1.0);
        let tr = integrate(&TrBdf2::new(1e-8, 1e-11), &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let end = tr.last().unwrap().1[0];
        assert!(
            (end - (-1.0_f64).exp()).abs() < 1e-6,
            "end {end} vs {}",
            (-1.0_f64).exp()
        );
    }

    #[test]
    fn fixed_grid_is_deterministic_and_orders_match() {
        let sys = decay(2.0);
        let a = integrate(&TrBdf2::fixed(1e-3), &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let b = integrate(&TrBdf2::fixed(1e-3), &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        assert_eq!(a, b, "same grid, same bits");
        assert_eq!(a.stats().rejected, 0);
        assert!(a.stats().newton_iters >= a.stats().accepted);
    }

    #[test]
    fn analytic_jacobian_reduces_rhs_evals() {
        // LinearSystem provides an analytic Jacobian; wrapping the same
        // dynamics in FnSystem forces the finite-difference fallback, which
        // costs dim extra rhs evals per step attempt.
        let sys = decay(3.0);
        let fd = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -3.0 * y[0]);
        let solver = TrBdf2::fixed(1e-2);
        let a = integrate(&solver, &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let b = integrate(&solver, &fd, 0.0, &[1.0], 1.0, 1).unwrap();
        assert_eq!(a.stats().accepted, b.stats().accepted);
        assert!(
            a.stats().rhs_evals < b.stats().rhs_evals,
            "analytic {} vs fd {}",
            a.stats().rhs_evals,
            b.stats().rhs_evals
        );
        // Same trajectory to within the Newton tolerance.
        let (ea, eb) = (a.last().unwrap().1[0], b.last().unwrap().1[0]);
        assert!((ea - eb).abs() < 1e-8);
    }

    #[test]
    fn l_stable_where_rk4_explodes() {
        // y' = -λ y with λ·h = 500: far outside every explicit stability
        // region, deep inside TR-BDF2's.
        let sys = decay(1e4);
        let h = 0.05;
        let implicit = integrate(&TrBdf2::fixed(h), &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let end = implicit.last().unwrap().1[0];
        assert!(end.is_finite() && end.abs() < 1e-6, "implicit end {end}");
        let explicit = integrate(&Rk4 { dt: h }, &sys, 0.0, &[1.0], 1.0, 1);
        match explicit {
            Ok(tr) => {
                let e = tr.last().unwrap().1[0];
                assert!(e.abs() > 1.0, "rk4 should blow up, got {e}");
            }
            Err(SolveError::NonFinite { .. }) => {} // overflowed to inf
            Err(e) => panic!("unexpected rk4 failure {e}"),
        }
    }

    #[test]
    fn rejects_lanes_and_reports_scalar_only() {
        let sys = crate::system::FnLanedSystem::<4, _>::new(
            1,
            |_t, y: &[[f64; 4]], d: &mut [[f64; 4]]| {
                for l in 0..4 {
                    d[0][l] = -y[0][l];
                }
            },
        );
        let solver = TrBdf2::new(1e-6, 1e-9);
        assert!(!solver.supports_lanes());
        let mut obs = FinalState::new();
        let mut ws = Workspace::<[f64; 4]>::new(1);
        let err = solver
            .solve(&sys, 0.0, &[[1.0; 4]], 1.0, &mut obs, &mut ws)
            .unwrap_err();
        assert!(matches!(err, SolveError::UnsupportedLanes(_)));
    }

    #[test]
    fn fixed_newton_divergence_is_typed() {
        // An rhs whose Jacobian FD sees as huge and whose dynamics explode
        // faster than Newton can track at a coarse fixed step.
        let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = (y[0] * 50.0).exp());
        let res = integrate(&TrBdf2::fixed(10.0), &sys, 0.0, &[1.0], 100.0, 1);
        assert!(
            matches!(
                res,
                Err(SolveError::NewtonDivergence { .. }) | Err(SolveError::NonFinite { .. })
            ),
            "got {res:?}"
        );
    }

    #[test]
    fn streams_to_observers_and_respects_early_stop() {
        use crate::observe::Observer;
        struct StopAfter(usize, usize);
        impl Observer<f64> for StopAfter {
            fn start(&mut self, _t0: f64, _y0: &[f64], _planned: Option<usize>) {}
            fn record(&mut self, _t: f64, _y: &[f64], _i: StepInfo, _a: &[bool]) -> bool {
                self.1 += 1;
                self.1 < self.0
            }
            fn finish(&mut self, _stats: SolveStats) {}
        }
        let sys = decay(1.0);
        let mut obs = StopAfter(3, 0);
        let mut ws = OdeWorkspace::new(1);
        TrBdf2::fixed(1e-2)
            .solve(&sys, 0.0, &[1.0], 1.0, &mut obs, &mut ws)
            .unwrap();
        assert_eq!(obs.1, 3, "early stop honored");
    }

    #[test]
    fn adaptive_step_count_is_stiffness_insensitive() {
        // On y' = -λ(y - cos t) the explicit adaptive pair needs O(λ) steps;
        // TR-BDF2's count is set by cos t alone.
        let lambda = 1e5;
        let sys = FnSystem::new(1, move |t: f64, y: &[f64], d: &mut [f64]| {
            d[0] = -lambda * (y[0] - t.cos())
        });
        let tr = integrate(&TrBdf2::new(1e-6, 1e-9), &sys, 0.0, &[0.0], 2.0, 1).unwrap();
        let stats = tr.stats();
        assert!(stats.accepted + stats.rejected < 400, "steps {:?}", stats);
        // The solution rides the slow manifold y ≈ cos t.
        let end = tr.last().unwrap().1[0];
        assert!((end - 2.0_f64.cos()).abs() < 1e-3, "end {end}");
    }
}
