//! Seeded fault injection for ensembles and solvers — the test harness
//! behind the fault-tolerance layer ([`crate::resilience`]).
//!
//! Two levels of injection, both *deterministic in the seed* so injected
//! runs inherit the engine's bit-identity guarantees:
//!
//! * [`FaultPlan`] — ensemble-level: a seeded selector that corrupts the
//!   `(params, y0)` prep of chosen instances (a NaN parameter, or a rate
//!   scaling that destabilizes the primary fixed-step solver while
//!   adaptive fallbacks still succeed). Compose it into any
//!   [`EnsembleRun::prep`](crate::EnsembleRun::prep) — it needs no hook
//!   inside the compiled system.
//! * [`FaultSystem`] — solver-level: an [`OdeSystem`] wrapper that
//!   injects a NaN at the k-th RHS call, perturbs the RHS from call k on,
//!   or reports a poisoned (NaN) Jacobian to an implicit solver. Used by
//!   the `ark-ode`-facing tests to exercise each error path of the retry
//!   chain.
//!
//! Fault *selection* uses a SplitMix64-style bit mix of `seed ^ salt`, so
//! which instances are faulty is a pure function of the seed — never the
//! worker count, lane width, or iteration order.

use ark_ode::OdeSystem;
use std::cell::Cell;

/// SplitMix64 finalizer: a high-quality 64-bit mix, the same construction
/// the engine's samplers use for seed decorrelation.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What a [`FaultPlan`] does to a selected instance's prep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Poison the first parameter to NaN: the instance's RHS is NaN from
    /// the first step under *every* solver, so the fallback chain cannot
    /// rescue it — the instance ends
    /// [`Failed`](crate::resilience::InstanceOutcome::Failed).
    Blowup,
    /// Scale every parameter by `factor`, speeding the dynamics up until
    /// the primary fixed-step solver is unstable (state overflow →
    /// `NonFinite`) while the adaptive fallback chain, which shrinks its
    /// step to match, still integrates the instance — it ends
    /// [`Recovered`](crate::resilience::InstanceOutcome::Recovered).
    Stiffen {
        /// Parameter scale factor (≫ 1 destabilizes explicit fixed-step
        /// solvers).
        factor: f64,
    },
}

/// A deterministic, seeded fault-injection plan: instance `seed` is
/// faulty iff `mix64(seed ^ salt) % one_in == 0` (≈ `1/one_in` of all
/// seeds, pseudo-uniformly), and faulty instances get their prep
/// corrupted per [`FaultMode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Selection rate denominator: about one in this many seeds is hit.
    pub one_in: u64,
    /// Selection salt — two plans with different salts hit (mostly)
    /// disjoint seed sets, so plans compose.
    pub salt: u64,
    /// The corruption applied to selected instances.
    pub mode: FaultMode,
}

impl FaultPlan {
    /// A plan hitting about one in `one_in` seeds (salt 0).
    pub fn one_in(one_in: u64, mode: FaultMode) -> Self {
        FaultPlan {
            one_in,
            salt: 0,
            mode,
        }
    }

    /// The same plan under a different selection salt.
    pub fn with_salt(mut self, salt: u64) -> Self {
        self.salt = salt;
        self
    }

    /// Whether this plan corrupts instance `seed`.
    pub fn is_faulty(&self, seed: u64) -> bool {
        self.one_in != 0 && mix64(seed ^ self.salt) % self.one_in == 0
    }

    /// Apply the plan to one instance's prep result, in place. No-op for
    /// non-selected seeds.
    pub fn corrupt(&self, seed: u64, params: &mut [f64], y0: &mut [f64]) {
        let _ = &y0;
        if !self.is_faulty(seed) {
            return;
        }
        match self.mode {
            FaultMode::Blowup => {
                if let Some(p) = params.first_mut() {
                    *p = f64::NAN;
                } else if let Some(v) = y0.first_mut() {
                    *v = f64::NAN;
                }
            }
            FaultMode::Stiffen { factor } => {
                for p in params.iter_mut() {
                    *p *= factor;
                }
            }
        }
    }

    /// The number of seeds in `seeds` this plan selects (deterministic —
    /// tests and the bench gate pin it).
    pub fn count_faulty(&self, seeds: &[u64]) -> usize {
        seeds.iter().filter(|&&s| self.is_faulty(s)).count()
    }
}

/// Apply a sequence of plans to one prep result (later plans see earlier
/// corruption; a NaN from [`FaultMode::Blowup`] survives any scaling).
pub fn corrupt_all(plans: &[FaultPlan], seed: u64, params: &mut [f64], y0: &mut [f64]) {
    for plan in plans {
        plan.corrupt(seed, params, y0);
    }
}

/// The solver-level fault injected by a [`FaultSystem`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RhsFault {
    /// Write NaN into the first derivative component on RHS call `call`
    /// (0-based) and every call after it.
    NanAtCall {
        /// First poisoned call index.
        call: u64,
    },
    /// Add `magnitude` to the first derivative component from RHS call
    /// `call` on — a systematic perturbation that degrades accuracy
    /// without leaving ℝ.
    Perturb {
        /// First perturbed call index.
        call: u64,
        /// Additive perturbation.
        magnitude: f64,
    },
    /// Report an analytic Jacobian full of NaN: an implicit solver's LU
    /// factorization finds no usable pivot, so every Newton step fails
    /// (`NewtonDivergence` under fixed control, step-shrink-to-underflow
    /// under adaptive control). The RHS itself is untouched.
    SingularJacobian,
}

/// An [`OdeSystem`] wrapper that deterministically injects a [`RhsFault`]
/// — the harness the solver-level fault tests integrate. Call counting
/// uses interior mutability, so a `FaultSystem` is deliberately not
/// `Sync`: it wraps one scalar instance on one thread (ensemble-level
/// injection goes through [`FaultPlan`] instead).
pub struct FaultSystem<S> {
    inner: S,
    fault: RhsFault,
    calls: Cell<u64>,
}

impl<S: OdeSystem> FaultSystem<S> {
    /// Wrap `inner`, injecting `fault`.
    pub fn new(inner: S, fault: RhsFault) -> Self {
        FaultSystem {
            inner,
            fault,
            calls: Cell::new(0),
        }
    }

    /// RHS calls made so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

impl<S: OdeSystem> OdeSystem for FaultSystem<S> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn rhs(&self, t: f64, y: &[f64], dydt: &mut [f64]) {
        self.inner.rhs(t, y, dydt);
        let call = self.calls.get();
        self.calls.set(call + 1);
        match self.fault {
            RhsFault::NanAtCall { call: at } if call >= at => {
                if let Some(d) = dydt.first_mut() {
                    *d = f64::NAN;
                }
            }
            RhsFault::Perturb {
                call: at,
                magnitude,
            } if call >= at => {
                if let Some(d) = dydt.first_mut() {
                    *d += magnitude;
                }
            }
            _ => {}
        }
    }

    fn jacobian(&self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        match self.fault {
            RhsFault::SingularJacobian => {
                jac.fill(f64::NAN);
                true
            }
            _ => self.inner.jacobian(t, y, jac),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ode::{integrate, FnSystem, Rk4, SolveError, TrBdf2};

    #[test]
    fn selection_is_seed_pure_and_near_rate() {
        let plan = FaultPlan::one_in(16, FaultMode::Blowup);
        let seeds: Vec<u64> = (0..4096).collect();
        let hits = plan.count_faulty(&seeds);
        // Pseudo-uniform: around 256 of 4096, and exactly reproducible.
        assert!((150..400).contains(&hits), "hits {hits}");
        assert_eq!(hits, plan.count_faulty(&seeds));
        // Salted plans select (mostly) different seeds.
        let salted = plan.with_salt(1);
        assert!(seeds
            .iter()
            .any(|&s| plan.is_faulty(s) != salted.is_faulty(s)));
    }

    #[test]
    fn blowup_poisons_params_only_for_selected_seeds() {
        let plan = FaultPlan::one_in(1, FaultMode::Blowup);
        let mut params = vec![1.0, 2.0];
        let mut y0 = vec![3.0];
        plan.corrupt(5, &mut params, &mut y0);
        assert!(params[0].is_nan() && params[1] == 2.0 && y0[0] == 3.0);
        let never = FaultPlan::one_in(0, FaultMode::Blowup);
        let mut params = vec![1.0];
        never.corrupt(5, &mut params, &mut y0);
        assert_eq!(params[0], 1.0);
    }

    #[test]
    fn nan_at_call_fails_the_fixed_solver_at_a_deterministic_time() {
        let sys = FaultSystem::new(
            FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]),
            RhsFault::NanAtCall { call: 40 },
        );
        // Rk4 makes 4 calls per step: call 40 lands in step 11 (0-based
        // step 10), so the failure time is pinned.
        let err = integrate(&Rk4 { dt: 0.01 }, &sys, 0.0, &[1.0], 1.0, 1).unwrap_err();
        let SolveError::NonFinite { t } = err else {
            panic!("expected NonFinite, got {err:?}");
        };
        assert!((t - 0.11).abs() < 1e-12, "t = {t}");
    }

    #[test]
    fn perturbation_shifts_the_solution_without_failing() {
        let clean = FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]);
        let tr0 = integrate(&Rk4 { dt: 0.01 }, &clean, 0.0, &[1.0], 1.0, 1).unwrap();
        let sys = FaultSystem::new(
            FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]),
            RhsFault::Perturb {
                call: 0,
                magnitude: 0.5,
            },
        );
        let tr = integrate(&Rk4 { dt: 0.01 }, &sys, 0.0, &[1.0], 1.0, 1).unwrap();
        let (end, end0) = (tr.last().unwrap().1[0], tr0.last().unwrap().1[0]);
        assert!(end.is_finite() && (end - end0).abs() > 0.1);
    }

    #[test]
    fn singular_jacobian_breaks_the_implicit_solver() {
        let sys = FaultSystem::new(
            FnSystem::new(1, |_t, y: &[f64], d: &mut [f64]| d[0] = -y[0]),
            RhsFault::SingularJacobian,
        );
        let err = integrate(&TrBdf2::fixed(0.1), &sys, 0.0, &[1.0], 1.0, 1).unwrap_err();
        assert!(
            matches!(err, SolveError::NewtonDivergence { .. }),
            "{err:?}"
        );
        let err = integrate(&TrBdf2::new(1e-6, 1e-9), &sys, 0.0, &[1.0], 1.0, 1).unwrap_err();
        assert!(
            matches!(err, SolveError::StepSizeUnderflow { .. }),
            "{err:?}"
        );
    }
}
