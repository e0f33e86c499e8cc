//! Observers: streaming readout of an integration run.
//!
//! The drive loops in [`crate::solver`] report every accepted step to an
//! [`Observer`] instead of hard-coding trajectory recording. One observer
//! type serves both the scalar and laned paths (the [`Elem`] parameter),
//! which is what lets ensemble readout run *inside* the laned hot loop
//! instead of per instance afterwards:
//!
//! * [`Strided`] — record every `stride`-th accepted step (plus the initial
//!   and final states) into one [`Trajectory`] per lane, bit-identical to
//!   the pre-redesign recording;
//! * [`FinalState`] — keep only the last state, no trajectory allocation;
//! * [`Probe`] — run a closure on every accepted step (in-loop readout,
//!   convergence tests, early exit).
//!
//! Observers compose: a tuple `(A, B)` is an observer that feeds both.

use crate::solver::Elem;
use crate::trajectory::{SolveStats, Trajectory};

/// Position of one accepted step within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepInfo {
    /// 1-based index of the accepted step.
    pub index: usize,
    /// True on the final step of the run (for fixed-step methods, the step
    /// landing on `t1`; for adaptive methods, the step reaching it).
    pub last: bool,
}

/// A streaming consumer of integration output over element type `E`
/// (`f64` = one instance, `[f64; L]` = a lane group).
///
/// The drive loop calls [`Observer::start`] once, [`Observer::record`]
/// after every accepted step, and [`Observer::finish`] with the run's
/// statistics on success. `alive[l]` is false once lane `l` has failed
/// (non-finite state): its values are garbage from that point on and must
/// not be read. Scalar runs always pass `[true]`.
///
/// # Examples
///
/// A custom observer accumulating the peak of one state component in the
/// hot loop (no trajectory is ever materialized):
///
/// ```
/// use ark_ode::{FnSystem, Observer, OdeWorkspace, Rk4, Solver, SolveStats, StepInfo};
///
/// struct Peak(f64);
/// impl Observer<f64> for Peak {
///     fn start(&mut self, _t0: f64, y0: &[f64], _steps: Option<usize>) {
///         self.0 = y0[0];
///     }
///     fn record(&mut self, _t: f64, y: &[f64], _info: StepInfo, _alive: &[bool]) -> bool {
///         self.0 = self.0.max(y[0]);
///         true
///     }
///     fn finish(&mut self, _stats: SolveStats) {}
/// }
///
/// // Pure decay: the peak is the initial condition.
/// let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
/// let mut peak = Peak(f64::NEG_INFINITY);
/// Rk4 { dt: 1e-2 }.solve(&sys, 0.0, &[1.0], 1.0, &mut peak, &mut OdeWorkspace::new(1))?;
/// assert_eq!(peak.0, 1.0);
/// # Ok::<(), ark_ode::SolveError>(())
/// ```
pub trait Observer<E: Elem> {
    /// The run begins at `t0` with state `y0`. For fixed-step solvers
    /// `planned_steps` carries the exact step count (a capacity hint);
    /// adaptive solvers pass `None`.
    fn start(&mut self, t0: f64, y0: &[E], planned_steps: Option<usize>);

    /// One accepted step: state `y` at time `t`. Return `false` to stop
    /// the run early (the solver still reports success, with stats covering
    /// the steps actually taken).
    fn record(&mut self, t: f64, y: &[E], info: StepInfo, alive: &[bool]) -> bool;

    /// The run finished; `stats` summarizes it. Not called when the solver
    /// returns an error.
    fn finish(&mut self, stats: SolveStats);
}

/// Upper bound on the samples [`Strided`] reserves up front from a
/// fixed-step plan; longer recordings grow by amortized doubling. Keeps a
/// tiny `dt` (or a probe that stops the run early) from reserving memory
/// for steps that may never be recorded.
const MAX_PREALLOCATED_SAMPLES: usize = 1 << 16;

/// Record every `stride`-th accepted step — plus the initial state and the
/// final step — into one [`Trajectory`] per lane.
///
/// This reproduces the pre-redesign recording **bit for bit**: the same
/// samples at the same times with the same [`SolveStats`], for both the
/// scalar path and each lane of a laned run.
#[derive(Debug, Clone, Default)]
pub struct Strided {
    stride: usize,
    dim: usize,
    trs: Vec<Trajectory>,
    row: Vec<f64>,
}

impl Strided {
    /// Record every `stride`-th step (`stride` 0 is treated as 1).
    pub fn every(stride: usize) -> Self {
        Strided {
            stride: stride.max(1),
            ..Strided::default()
        }
    }

    /// The recorded trajectory of a scalar run.
    ///
    /// # Panics
    ///
    /// Panics if the run was laned (more than one trajectory) or never
    /// started.
    pub fn into_trajectory(mut self) -> Trajectory {
        assert_eq!(
            self.trs.len(),
            1,
            "into_trajectory on a {}-lane recording",
            self.trs.len()
        );
        self.trs.pop().expect("length checked")
    }

    /// The recorded trajectories, one per lane (lane order).
    pub fn into_trajectories(self) -> Vec<Trajectory> {
        self.trs
    }

    fn push_lane(&mut self, lane: usize, t: f64, y: &[impl Elem]) {
        for (r, yi) in self.row.iter_mut().zip(y) {
            *r = yi.get(lane);
        }
        self.trs[lane].push_slice(t, &self.row[..self.dim]);
    }
}

impl<E: Elem> Observer<E> for Strided {
    fn start(&mut self, t0: f64, y0: &[E], planned_steps: Option<usize>) {
        self.dim = y0.len();
        self.row.resize(self.dim, 0.0);
        self.trs.clear();
        let capacity = planned_steps
            .map_or(128, |s| (s / self.stride).saturating_add(2))
            .min(MAX_PREALLOCATED_SAMPLES);
        for lane in 0..E::WIDTH {
            self.trs.push(Trajectory::with_capacity(self.dim, capacity));
            self.push_lane(lane, t0, y0);
        }
    }

    fn record(&mut self, t: f64, y: &[E], info: StepInfo, alive: &[bool]) -> bool {
        if info.index % self.stride == 0 || info.last {
            for (lane, &live) in alive.iter().enumerate().take(E::WIDTH) {
                if live {
                    self.push_lane(lane, t, y);
                }
            }
        }
        true
    }

    fn finish(&mut self, stats: SolveStats) {
        for tr in &mut self.trs {
            tr.set_stats(stats);
        }
    }
}

/// Keep only the most recent state — the observer for runs whose readout
/// needs nothing but the endpoint (max-cut partitions, steady states). No
/// per-step allocation, no trajectory storage.
#[derive(Debug, Clone, Default)]
pub struct FinalState {
    t: f64,
    dim: usize,
    width: usize,
    /// Lane-major storage: lane `l`'s state is `states[l*dim .. (l+1)*dim]`.
    states: Vec<f64>,
    stats: SolveStats,
}

impl FinalState {
    /// An empty final-state observer.
    pub fn new() -> Self {
        FinalState::default()
    }

    /// Time of the captured state.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// The captured state of lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is out of range or the observer never ran.
    pub fn lane_state(&self, lane: usize) -> &[f64] {
        assert!(lane < self.width, "lane {lane} of {}", self.width);
        &self.states[lane * self.dim..(lane + 1) * self.dim]
    }

    /// The captured state of a scalar run (lane 0).
    pub fn state(&self) -> &[f64] {
        self.lane_state(0)
    }

    /// Statistics of the finished run.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }
}

impl<E: Elem> Observer<E> for FinalState {
    fn start(&mut self, t0: f64, y0: &[E], _planned_steps: Option<usize>) {
        self.dim = y0.len();
        self.width = E::WIDTH;
        self.states.resize(self.dim * E::WIDTH, 0.0);
        self.t = t0;
        for (i, yi) in y0.iter().enumerate() {
            for l in 0..E::WIDTH {
                self.states[l * self.dim + i] = yi.get(l);
            }
        }
    }

    fn record(&mut self, t: f64, y: &[E], _info: StepInfo, alive: &[bool]) -> bool {
        self.t = t;
        for (i, yi) in y.iter().enumerate() {
            for (l, &live) in alive.iter().enumerate().take(E::WIDTH) {
                if live {
                    self.states[l * self.dim + i] = yi.get(l);
                }
            }
        }
        true
    }

    fn finish(&mut self, stats: SolveStats) {
        self.stats = stats;
    }
}

/// Run a closure on every accepted step — in-loop readout. The closure
/// sees the whole lane bundle (evaluate laned readout programs directly on
/// it) plus the per-lane liveness mask — a masked lane's values are
/// garbage and must be skipped — and returns `false` to stop the run
/// early, e.g. once a convergence criterion holds.
///
/// # Examples
///
/// Early exit once the state has decayed:
///
/// ```
/// use ark_ode::{FnSystem, OdeWorkspace, Probe, Rk4, Solver};
///
/// let sys = FnSystem::new(1, |_t, y, dydt| dydt[0] = -y[0]);
/// let mut probe = Probe::new(|_t, y: &[f64], _info, _alive: &[bool]| y[0] > 0.5);
/// let stats = Rk4 { dt: 1e-3 }.solve(&sys, 0.0, &[1.0], 5.0, &mut probe, &mut OdeWorkspace::new(1))?;
/// // Stopped near t = ln 2, far before t1 = 5.
/// assert!(stats.accepted < 1000, "stats {stats:?}");
/// # Ok::<(), ark_ode::SolveError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Probe<F> {
    f: F,
}

impl<F> Probe<F> {
    /// A probe calling `f(t, y, info, alive)` on every accepted step.
    pub fn new(f: F) -> Self {
        Probe { f }
    }
}

impl<E: Elem, F: FnMut(f64, &[E], StepInfo, &[bool]) -> bool> Observer<E> for Probe<F> {
    fn start(&mut self, _t0: f64, _y0: &[E], _planned_steps: Option<usize>) {}

    fn record(&mut self, t: f64, y: &[E], info: StepInfo, alive: &[bool]) -> bool {
        (self.f)(t, y, info, alive)
    }

    fn finish(&mut self, _stats: SolveStats) {}
}

/// Two observers run side by side; the run stops early if either asks to.
impl<E: Elem, A: Observer<E>, B: Observer<E>> Observer<E> for (A, B) {
    fn start(&mut self, t0: f64, y0: &[E], planned_steps: Option<usize>) {
        self.0.start(t0, y0, planned_steps);
        self.1.start(t0, y0, planned_steps);
    }

    fn record(&mut self, t: f64, y: &[E], info: StepInfo, alive: &[bool]) -> bool {
        let a = self.0.record(t, y, info, alive);
        let b = self.1.record(t, y, info, alive);
        a && b
    }

    fn finish(&mut self, stats: SolveStats) {
        self.0.finish(stats);
        self.1.finish(stats);
    }
}
