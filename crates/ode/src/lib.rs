//! # ark-ode: transient simulation substrate for Ark
//!
//! The Ark dynamical-system compiler (paper §5) lowers a dynamical graph to
//! a system of differential equations; this crate integrates those systems.
//! It provides:
//!
//! * [`Solver`] — the unified solver trait: one `solve` entry point over
//!   scalar (`f64`) and lane-batched (`[f64; L]`) integration, assembled
//!   from a [`Stepper`] (Butcher-stage arithmetic written once over both
//!   widths) and a [`StepControl`] policy ([`Fixed`] grid or scalar
//!   [`Adaptive`] PI control) — see [`solver`];
//! * [`integrate()`] — the one allocating convenience: `solve` with a
//!   fresh workspace and a [`Strided`] recorder, returning a
//!   [`Trajectory`];
//! * [`Observer`] — streaming readout of a run: [`Strided`] trajectory
//!   recording, allocation-free [`FinalState`], and in-loop [`Probe`]s —
//!   see [`observe`];
//! * [`OdeSystem`] — the system interface ([`FnSystem`] and [`LinearSystem`]
//!   adapters included);
//! * [`Rk4`], [`Euler`] — fixed-step explicit solver configurations;
//! * [`DormandPrince`] — adaptive 5(4) embedded pair with PI step control
//!   and rejected-step accounting ([`SolveStats`]);
//! * [`TrBdf2`] — L-stable implicit TR-BDF2 with a damped-Newton inner loop
//!   over a factor-once LU ([`linalg`]), adaptive via its embedded error
//!   estimate or fixed-grid, consuming analytic Jacobians through
//!   [`OdeSystem::jacobian`] (finite-difference fallback) — the stepper for
//!   stiff designs where explicit methods need `h ≲ 1/λ` — see [`implicit`];
//! * [`OdeWorkspace`] — reusable integration buffers: [`Solver::solve`]
//!   through a caller-owned workspace performs zero per-step allocations,
//!   the form the `ark-sim` ensemble engine runs per worker;
//! * [`LanedOdeSystem`] / [`LaneWorkspace`] — the lane-batched
//!   (struct-of-arrays) siblings: `solve` over `[f64; L]` steps `L`
//!   ensemble instances of [`Rk4`] or [`Euler`] in lockstep, bit-identical
//!   per lane to the scalar path (the PI-adaptive solver deliberately has
//!   no laned form — see [`DormandPrince`]);
//! * [`Trajectory`] — recorded solutions (flat sample storage) with
//!   interpolation, windows, and resampling (observation windows for PUF
//!   responses, §2.2);
//! * analysis helpers: [`convergence_time`], [`ensemble_stats`] (mismatch
//!   envelopes, Fig. 4c/4d), [`relative_rmse`] (SPICE validation, §4.5),
//!   and phase utilities for oscillator readout (§7.2).
//!
//! # Examples
//!
//! ```
//! use ark_ode::{integrate, FnSystem, Rk4};
//!
//! // dV/dt = -V/RC with RC = 1.
//! let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
//! let tr = integrate(&Rk4 { dt: 1e-3 }, &sys, 0.0, &[1.0], 1.0, 10)?;
//! let v_end = tr.last().unwrap().1[0];
//! assert!((v_end - (-1.0f64).exp()).abs() < 1e-9);
//! # Ok::<(), ark_ode::SolveError>(())
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr.
#![forbid(unsafe_code)]

pub mod analysis;
pub mod implicit;
pub mod integrate;
pub mod linalg;
pub mod observe;
pub mod solver;
pub mod system;
pub mod trajectory;

pub use analysis::{
    convergence_time, convergence_time_all, ensemble_stats, is_steady, phase_distance, wrap_phase,
    EnsembleStats,
};
pub use implicit::{NewtonCfg, TrBdf2};
pub use integrate::{integrate, DormandPrince, Euler, LaneError, Rk4, SolveError};
pub use observe::{FinalState, Observer, Probe, StepInfo, Strided};
pub use solver::{
    Adaptive, Dp45Stages, Elem, EmbeddedStepper, EulerStages, Fixed, LaneWorkspace, Method,
    OdeWorkspace, Rk4Stages, Solver, StepControl, Stepper, SystemOver, Workspace,
};
pub use system::{FnLanedSystem, FnSystem, LanedOdeSystem, LinearSystem, OdeSystem, StageHint};
pub use trajectory::{relative_rmse, relative_rmse_and_rms, SolveStats, Trajectory};
