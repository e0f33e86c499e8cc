//! Fault tolerance for ensembles: deterministic per-instance recovery
//! policies, outcome accounting, and typed instance-attributed errors.
//!
//! A 10⁵-instance Monte Carlo sweep (the fig11 yield methodology) only
//! works if one pathological sample cannot take the whole run down. This
//! module turns per-instance simulation failure into *data*:
//!
//! * [`RecoveryPolicy`] — what to do when an instance's primary solve
//!   fails: retry under an ordered [`FallbackSolver`] chain with
//!   progressively tightened tolerances and reduced initial steps, under
//!   hard budgets (max retries, per-attempt step budget, minimum step).
//!   Every knob is a pure function of the retry index, so outcomes depend
//!   only on the seeds — never the worker count, and (on the default
//!   solvers) never the lane width.
//! * [`InstanceOutcome`] — the per-instance verdict
//!   ([`Completed`](InstanceOutcome::Completed) /
//!   [`Recovered`](InstanceOutcome::Recovered) /
//!   [`Failed`](InstanceOutcome::Failed)) threaded through the recovering
//!   streaming terminal
//!   ([`EnsembleRun::with_recovery`](crate::EnsembleRun::with_recovery)).
//! * [`FailureLog`] — a [`Reducer`] over outcomes producing a
//!   [`RecoveryReport`]: completed/recovered/failed counts, retry totals,
//!   and per-[`SolveError::kind`] failure counts with first-failure seeds
//!   and times.
//! * [`EnsembleError`] — a [`SolveError`] with the seed of the instance
//!   that produced it, surfaced by the *non*-recovering terminals so a
//!   failing run finally reports which instance died.
//!
//! # Determinism contract
//!
//! Recovery retries run inside the streaming block that owns the
//! instance, so the block merge order — and therefore every accumulator
//! bit — is unchanged by failures for any worker count. Lane-group
//! demotion re-runs a failed group's instances scalar under the *primary*
//! solver first, which is exactly what a `lanes = 1` engine would have
//! run, so outcomes and accumulators are bit-identical across worker
//! counts and lane widths for every solver.

use crate::reduce::Reducer;
use ark_ode::{
    Adaptive, Dp45Stages, Fixed, Method, NewtonCfg, Observer, OdeSystem, OdeWorkspace, Rk4Stages,
    SolveError, SolveStats, Solver, TrBdf2,
};
use std::collections::BTreeMap;
use std::fmt;

/// A [`SolveError`] attributed to the ensemble instance (seed) that
/// produced it. The ensemble terminals surface this instead of a bare
/// [`SolveError`]: in a 10⁵-instance sweep, "which instance died" is the
/// difference between a reproducible bug report and a shrug.
///
/// For a laned group failure the error is attributed to the lowest failed
/// lane — the same instance whose error a scalar run of the group's seeds
/// would have reported first.
#[derive(Debug, Clone, PartialEq)]
pub struct EnsembleError {
    /// Seed of the instance whose solve failed.
    pub seed: u64,
    /// The underlying solver error.
    pub source: SolveError,
}

impl fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance seed {}: {}", self.seed, self.source)
    }
}

impl std::error::Error for EnsembleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Dropping the seed recovers the historical error type, so call sites
/// (and closures) that name `SolveError` as their error keep compiling.
impl From<EnsembleError> for SolveError {
    fn from(e: EnsembleError) -> Self {
        e.source
    }
}

/// One entry of a [`RecoveryPolicy`] fallback chain: a solver
/// configuration to retry a failed instance under, always run scalar.
/// The policy derives the attempt's effective tolerances and initial step
/// from these base values (see [`RecoveryPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FallbackSolver {
    /// Fixed-step RK4 with base step `dt` (shrunk per retry).
    Rk4 {
        /// Base step size before the per-retry shrink.
        dt: f64,
    },
    /// Scalar adaptive Dormand–Prince 5(4) with base tolerances
    /// (tightened per retry).
    DormandPrince {
        /// Base relative tolerance.
        rtol: f64,
        /// Base absolute tolerance.
        atol: f64,
    },
    /// L-stable implicit TR-BDF2 with base tolerances (tightened per
    /// retry) — the terminal fallback for stiff pathologies that defeat
    /// every explicit method.
    TrBdf2 {
        /// Base relative tolerance.
        rtol: f64,
        /// Base absolute tolerance.
        atol: f64,
    },
}

impl FallbackSolver {
    /// Stable solver name recorded in
    /// [`InstanceOutcome::Recovered::final_solver`].
    pub fn name(&self) -> &'static str {
        match self {
            FallbackSolver::Rk4 { .. } => "rk4",
            FallbackSolver::DormandPrince { .. } => "dp45",
            FallbackSolver::TrBdf2 { .. } => "trbdf2",
        }
    }
}

/// A deterministic per-instance recovery policy: how many retries a
/// failed instance gets, under which solvers, and at what cost ceiling.
///
/// Retry `k` (1-based, `k ≤ max_retries`) runs
/// `chain[min(k - 1, chain.len() - 1)]` with its tolerances multiplied by
/// `tol_tighten.powi(k)` (floored at machine-level minimums) and its
/// initial step multiplied by `dt_shrink.powi(k)` (floored at `min_dt`,
/// which is also the adaptive attempts' `h_min`). Every attempt carries
/// the hard `max_steps` budget, so no retry can spin unbounded. The
/// schedule is a pure function of the retry index — no wall clock, no
/// worker identity — which is what keeps recovered ensembles bit-identical
/// for any worker count and lane width.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Maximum retry attempts per instance after the primary solve fails
    /// (0 disables retries: failures go straight to
    /// [`InstanceOutcome::Failed`]).
    pub max_retries: u32,
    /// Per-retry tolerance multiplier (< 1 tightens).
    pub tol_tighten: f64,
    /// Per-retry initial-step multiplier (< 1 shrinks).
    pub dt_shrink: f64,
    /// Floor for fixed steps and initial/minimum adaptive steps.
    pub min_dt: f64,
    /// Hard per-attempt step budget (accepted + rejected attempts for the
    /// adaptive chain entries); `0` means unlimited.
    pub max_steps: u64,
    /// The ordered solver fallback chain; retries beyond its length stay
    /// on the last entry (with ever-tighter tolerances). Must not be
    /// empty when `max_retries > 0`.
    pub chain: Vec<FallbackSolver>,
}

impl Default for RecoveryPolicy {
    /// Three retries: scalar DP45, then TR-BDF2 twice, tolerances ×0.1
    /// per retry, initial steps ×0.25 per retry, 2 × 10⁶ step-attempt
    /// budget per attempt.
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            tol_tighten: 0.1,
            dt_shrink: 0.25,
            min_dt: 1e-12,
            max_steps: 2_000_000,
            chain: vec![
                FallbackSolver::DormandPrince {
                    rtol: 1e-6,
                    atol: 1e-9,
                },
                FallbackSolver::TrBdf2 {
                    rtol: 1e-6,
                    atol: 1e-9,
                },
            ],
        }
    }
}

impl RecoveryPolicy {
    /// A policy with no retries: failures are recorded (isolation and
    /// accounting still apply) but never retried.
    pub fn none() -> Self {
        RecoveryPolicy {
            max_retries: 0,
            chain: Vec::new(),
            ..RecoveryPolicy::default()
        }
    }

    /// The chain entry used by 1-based retry `attempt`.
    fn entry(&self, attempt: u32) -> &FallbackSolver {
        let i = (attempt as usize - 1).min(self.chain.len() - 1);
        &self.chain[i]
    }

    /// Run 1-based retry `attempt` of one instance, scalar, into `obs`.
    /// Returns the attempt's stats and the solver name on success.
    ///
    /// # Errors
    ///
    /// The attempt's own [`SolveError`] — the caller walks the chain.
    #[allow(clippy::too_many_arguments)]
    pub fn run_attempt<S: OdeSystem, O: Observer<f64>>(
        &self,
        attempt: u32,
        sys: &S,
        t0: f64,
        y0: &[f64],
        t1: f64,
        obs: &mut O,
        ws: &mut OdeWorkspace,
    ) -> Result<(SolveStats, &'static str), SolveError> {
        debug_assert!(attempt >= 1 && attempt <= self.max_retries);
        let entry = self.entry(attempt);
        let tighten = self.tol_tighten.powi(attempt as i32);
        let shrink = self.dt_shrink.powi(attempt as i32);
        let stats = match *entry {
            FallbackSolver::Rk4 { dt } => {
                let control = Fixed {
                    dt: (dt * shrink).max(self.min_dt),
                    max_steps: self.max_steps,
                };
                Method {
                    stepper: Rk4Stages,
                    control,
                }
                .solve(sys, t0, y0, t1, obs, ws)?
            }
            FallbackSolver::DormandPrince { rtol, atol } => {
                let control = self.adaptive(rtol, atol, tighten, shrink, t0, t1);
                Method {
                    stepper: Dp45Stages,
                    control,
                }
                .solve(sys, t0, y0, t1, obs, ws)?
            }
            FallbackSolver::TrBdf2 { rtol, atol } => {
                let solver = TrBdf2 {
                    control: self.adaptive(rtol, atol, tighten, shrink, t0, t1),
                    newton: NewtonCfg::default(),
                };
                solver.solve(sys, t0, y0, t1, obs, ws)?
            }
        };
        Ok((stats, entry.name()))
    }

    /// The adaptive control for one attempt: tightened tolerances, a
    /// shrunk explicit initial step, `h_min = min_dt`, and the hard step
    /// budget.
    fn adaptive(
        &self,
        rtol: f64,
        atol: f64,
        tighten: f64,
        shrink: f64,
        t0: f64,
        t1: f64,
    ) -> Adaptive {
        Adaptive {
            rtol: (rtol * tighten).max(1e-14),
            atol: (atol * tighten).max(1e-16),
            h0: Some(((t1 - t0) / 100.0 * shrink).max(self.min_dt)),
            h_min: self.min_dt,
            h_max: f64::INFINITY,
            max_steps: self.max_steps,
        }
    }
}

/// The per-instance verdict of a recovering ensemble run.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceOutcome {
    /// The primary solve succeeded (for a demoted lane group: the scalar
    /// re-run under the primary solver succeeded first try — what a
    /// `lanes = 1` engine would have run).
    Completed,
    /// A retry under the fallback chain succeeded.
    Recovered {
        /// 1-based index of the successful retry.
        attempts: u32,
        /// [`FallbackSolver::name`] of the solver that succeeded.
        final_solver: &'static str,
    },
    /// The primary solve and every retry failed; the instance contributes
    /// no item to the run's reducer.
    Failed {
        /// The *last* attempt's error.
        error: SolveError,
        /// Failure time of the last attempt (`-1.0` for pre-flight errors
        /// that carry no time, so outcomes stay `PartialEq`-comparable).
        t: f64,
        /// The instance's seed.
        seed: u64,
    },
}

/// Per-[`SolveError::kind`] failure statistics inside a
/// [`RecoveryReport`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KindStats {
    /// Number of unrecovered instances whose final error had this kind.
    pub count: u64,
    /// Seed of the first such instance (seed order).
    pub first_seed: u64,
    /// Failure time of the first such instance (`-1.0` when the error
    /// carried no time).
    pub first_t: f64,
}

/// The aggregate outcome accounting of a recovering ensemble run:
/// deterministic counts (bit-identical for any worker count and any lane
/// width) plus first-failure provenance per error kind.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Instances whose primary solve succeeded.
    pub completed: u64,
    /// Instances rescued by the fallback chain.
    pub recovered: u64,
    /// Instances that exhausted the chain.
    pub failed: u64,
    /// Total retry attempts spent by *recovered* instances (failed
    /// instances always burn the policy's full `max_retries`).
    pub retry_attempts: u64,
    /// Unrecovered failures grouped by [`SolveError::kind`], with the
    /// first failing seed/time of each kind.
    pub by_kind: BTreeMap<&'static str, KindStats>,
    /// Static domain warnings for the system this report describes
    /// (`CompiledSystem::domain_warnings`): operations the interval
    /// analysis proves undefined for every input, one line each. Attached
    /// by the recovering terminals so a design whose failures stem from a
    /// statically-doomed operation (a guaranteed division by zero, a
    /// provably-negative `sqrt` argument) is recognizable from the report
    /// alone, before blaming solvers or tolerances.
    pub domain_warnings: Vec<String>,
}

impl RecoveryReport {
    /// Total instances accounted for.
    pub fn total(&self) -> u64 {
        self.completed + self.recovered + self.failed
    }

    /// Fold one outcome in (seed order within a block).
    pub fn push(&mut self, outcome: &InstanceOutcome) {
        match outcome {
            InstanceOutcome::Completed => self.completed += 1,
            InstanceOutcome::Recovered { attempts, .. } => {
                self.recovered += 1;
                self.retry_attempts += u64::from(*attempts);
            }
            InstanceOutcome::Failed { error, t, seed } => {
                self.failed += 1;
                self.by_kind
                    .entry(error.kind())
                    .and_modify(|k| k.count += 1)
                    .or_insert(KindStats {
                        count: 1,
                        first_seed: *seed,
                        first_t: *t,
                    });
            }
        }
    }

    /// Merge a later block's report into this one (block order, so the
    /// first-failure provenance is the first in *seed* order).
    pub fn merge(&mut self, later: RecoveryReport) {
        self.completed += later.completed;
        self.recovered += later.recovered;
        self.failed += later.failed;
        self.retry_attempts += later.retry_attempts;
        for (kind, stats) in later.by_kind {
            self.by_kind
                .entry(kind)
                .and_modify(|k| k.count += stats.count)
                .or_insert(stats);
        }
        // Domain warnings are per-system, not per-block: deduplicate so
        // merging reports of the same system never repeats a line.
        for w in later.domain_warnings {
            if !self.domain_warnings.contains(&w) {
                self.domain_warnings.push(w);
            }
        }
    }
}

/// A [`Reducer`] folding [`InstanceOutcome`]s into a [`RecoveryReport`].
/// The recovering terminal runs one implicitly; it is public so bespoke
/// pipelines can fold outcome streams themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureLog;

impl Reducer<InstanceOutcome> for FailureLog {
    type Acc = RecoveryReport;
    type Output = RecoveryReport;

    fn new_acc(&self) -> RecoveryReport {
        RecoveryReport::default()
    }

    fn push(&self, acc: &mut RecoveryReport, item: InstanceOutcome) {
        acc.push(&item);
    }

    fn merge(&self, into: &mut RecoveryReport, from: RecoveryReport) {
        into.merge(from);
    }

    fn finish(&self, acc: RecoveryReport) -> RecoveryReport {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ode::{FinalState, FnSystem};

    #[test]
    fn policy_schedule_is_pure_in_the_attempt_index() {
        let p = RecoveryPolicy::default();
        // Chain walk: attempt 1 = dp45, attempts 2.. stay on trbdf2.
        assert_eq!(p.entry(1).name(), "dp45");
        assert_eq!(p.entry(2).name(), "trbdf2");
        assert_eq!(p.entry(3).name(), "trbdf2");
        // Attempt configs depend on the index only.
        let a2 = p.adaptive(1e-6, 1e-9, 0.01, 0.0625, 0.0, 2.0);
        let b2 = p.adaptive(1e-6, 1e-9, 0.01, 0.0625, 0.0, 2.0);
        assert_eq!(a2, b2);
        assert!(a2.rtol < 1e-6 && a2.h0.unwrap() < 2.0 / 100.0);
        assert_eq!(a2.max_steps, p.max_steps);
    }

    #[test]
    fn run_attempt_recovers_a_decay() {
        let p = RecoveryPolicy::default();
        let sys = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let mut ws = OdeWorkspace::new(1);
        for attempt in 1..=p.max_retries {
            let mut obs = FinalState::new();
            let (_, name) = p
                .run_attempt(attempt, &sys, 0.0, &[1.0], 1.0, &mut obs, &mut ws)
                .unwrap();
            assert!(!name.is_empty());
            assert!((obs.state()[0] - (-1.0f64).exp()).abs() < 1e-6);
        }
    }

    #[test]
    fn failure_log_counts_and_first_failure_provenance() {
        let log = FailureLog;
        let mut a = log.new_acc();
        log.push(&mut a, InstanceOutcome::Completed);
        log.push(
            &mut a,
            InstanceOutcome::Failed {
                error: SolveError::NonFinite { t: 0.5 },
                t: 0.5,
                seed: 7,
            },
        );
        let mut b = log.new_acc();
        log.push(
            &mut b,
            InstanceOutcome::Recovered {
                attempts: 2,
                final_solver: "trbdf2",
            },
        );
        log.push(
            &mut b,
            InstanceOutcome::Failed {
                error: SolveError::NonFinite { t: 0.25 },
                t: 0.25,
                seed: 9,
            },
        );
        log.merge(&mut a, b);
        let report = log.finish(a);
        assert_eq!(
            (report.completed, report.recovered, report.failed),
            (1, 1, 2)
        );
        assert_eq!(report.retry_attempts, 2);
        assert_eq!(report.total(), 4);
        let nf = &report.by_kind["non_finite"];
        // First-failure provenance follows block (= seed) order, not time.
        assert_eq!((nf.count, nf.first_seed, nf.first_t), (2, 7, 0.5));
    }

    #[test]
    fn ensemble_error_sources_and_converts() {
        use std::error::Error;
        let e = EnsembleError {
            seed: 42,
            source: SolveError::NonFinite { t: 1.5 },
        };
        assert!(e.to_string().contains("seed 42"));
        assert!(e.source().is_some());
        let s: SolveError = e.into();
        assert_eq!(s, SolveError::NonFinite { t: 1.5 });
    }
}
