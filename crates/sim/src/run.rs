//! The builder-style ensemble entry point: [`Ensemble::run`] returns an
//! [`EnsembleRun`] whose terminal methods either materialize results in
//! seed order or stream them through an online [`Reducer`].

use crate::reduce::{Reducer, STREAM_BLOCK};
use crate::resilience::{
    EnsembleError, FailureLog, InstanceOutcome, RecoveryPolicy, RecoveryReport,
};
use crate::{ClosureReadout, Ensemble, LaneReadout};
use ark_core::{BoundSystem, CompiledSystem, EvalScratch, LaneScratch};
use ark_ode::{
    FinalState, Observer, OdeWorkspace, SolveError, SolveStats, Solver, Strided, Trajectory,
    Workspace,
};
use std::marker::PhantomData;

/// One finished instance as seen by an [`EnsembleRun::reduce`] extractor:
/// the final state captured by the built-in [`FinalState`] observer,
/// already sliced down to this instance's lane.
#[derive(Debug)]
pub struct FinalSnapshot<'r> {
    /// The instance's seed.
    pub seed: u64,
    /// The instance's parameter vector.
    pub params: &'r [f64],
    /// Time of the final state (the run's `t1` on success).
    pub t: f64,
    /// The instance's final state vector.
    pub state: &'r [f64],
    /// Solver statistics of the run (shared by the whole lane group).
    pub stats: SolveStats,
}

/// A configured ensemble integration, created by [`Ensemble::run`] —
/// compile-once/simulate-many over one shared [`CompiledSystem`], every
/// instance keyed by its seed.
///
/// Builder methods refine the run ([`EnsembleRun::stride`],
/// [`EnsembleRun::params`], [`EnsembleRun::prep`]); terminal methods
/// execute it. **Materializing** terminals return one value per seed, in
/// seed order:
///
/// * [`EnsembleRun::trajectories`] — recorded [`Trajectory`] per instance;
/// * [`EnsembleRun::map`] — per-instance readout of the trajectory;
/// * [`EnsembleRun::map_grouped`] — group-aware [`LaneReadout`], for
///   observation programs that evaluate through the laned interpreter.
///
/// **Streaming** terminals never materialize per-instance results: each
/// instance runs under the allocation-free [`FinalState`] observer and
/// folds one item into an online [`Reducer`] — memory stays
/// O(accumulator) at any N. They differ only in what a failure does:
///
/// * [`EnsembleRun::reduce`] — abort with an [`EnsembleError`];
/// * [`RecoveringRun::reduce`] (via [`EnsembleRun::with_recovery`]) —
///   retry the instance under a [`RecoveryPolicy`] and account for it.
///
/// All terminals run through one group runner: seeds are cut into lane
/// groups, full groups integrate through the laned interpreter, and
/// everything else (the `N % L` tail, malformed initial states, demoted
/// groups, `lanes = 1`, lane-incapable solvers) runs scalar.
///
/// Every terminal inherits the engine's determinism guarantee: results
/// depend only on the seeds, never on the worker count or the lane width
/// (see [`Ensemble`]).
#[derive(Debug, Clone, Copy)]
pub struct EnsembleRun<'a, S, P> {
    ens: Ensemble,
    sys: &'a CompiledSystem,
    solver: &'a S,
    seeds: &'a [u64],
    prep: P,
    t0: f64,
    t1: f64,
    stride: usize,
}

impl Ensemble {
    /// Configure an ensemble run of `sys` under `solver` over `[t0, t1]`,
    /// one instance per seed. Defaults: the canonical mismatch sampler
    /// ([`CompiledSystem::sample_params`] per seed, initial state derived
    /// from the sampled parameters) and stride 1; refine with the builder
    /// methods, then execute with a terminal method.
    pub fn run<'a, S: Solver + Sync>(
        &self,
        sys: &'a CompiledSystem,
        solver: &'a S,
        seeds: &'a [u64],
        t0: f64,
        t1: f64,
    ) -> EnsembleRun<'a, S, impl Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync + 'a> {
        EnsembleRun {
            ens: *self,
            sys,
            solver,
            seeds,
            prep: move |seed| {
                let params = sys.sample_params(seed);
                let y0 = sys.initial_state_for(&params);
                (params, y0)
            },
            t0,
            t1,
            stride: 1,
        }
    }
}

impl<'a, S, P> EnsembleRun<'a, S, P>
where
    S: Solver + Sync,
    P: Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync,
{
    /// Record every `stride`-th accepted step (plus the initial and final
    /// states) on the materializing terminals. Streaming terminals ignore
    /// the stride — their observers see every accepted step.
    pub fn stride(mut self, stride: usize) -> Self {
        self.stride = stride;
        self
    }

    /// Supply each instance's parameter vector explicitly; the initial
    /// state is derived from it
    /// ([`CompiledSystem::initial_state_for`]). Replaces the default
    /// sampled-mismatch prep.
    pub fn params<F>(
        self,
        params_for: F,
    ) -> EnsembleRun<'a, S, impl Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync + 'a>
    where
        F: Fn(u64) -> Vec<f64> + Sync + 'a,
    {
        let sys = self.sys;
        self.prep(move |seed| {
            let params = params_for(seed);
            let y0 = sys.initial_state_for(&params);
            (params, y0)
        })
    }

    /// Full control over per-instance setup: `prep(seed)` returns the
    /// `(params, y0)` pair the instance integrates with (`params` empty
    /// for non-parametric systems). Replaces the default sampled-mismatch
    /// prep. The engine's determinism guarantee assumes the result depends
    /// only on the seed.
    pub fn prep<Q>(self, prep: Q) -> EnsembleRun<'a, S, Q>
    where
        Q: Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync,
    {
        EnsembleRun {
            ens: self.ens,
            sys: self.sys,
            solver: self.solver,
            seeds: self.seeds,
            prep,
            t0: self.t0,
            t1: self.t1,
            stride: self.stride,
        }
    }

    /// Turn solver failures into per-instance *data* instead of aborts:
    /// the returned [`RecoveringRun`]'s terminal isolates each failing
    /// instance, retries it under `policy`'s deterministic fallback chain,
    /// and accounts for every instance in a [`RecoveryReport`] — see
    /// [`RecoveringRun::reduce`].
    pub fn with_recovery(self, policy: &'a RecoveryPolicy) -> RecoveringRun<'a, S, P> {
        RecoveringRun { run: self, policy }
    }

    /// Materialize one recorded [`Trajectory`] per instance, in seed
    /// order.
    ///
    /// # Errors
    ///
    /// The first (by seed order) solver error, attributed to the failing
    /// instance's seed.
    pub fn trajectories(self) -> Result<Vec<Trajectory>, EnsembleError> {
        fn keep(
            _seed: u64,
            _params: &[f64],
            tr: Trajectory,
            _scratch: &mut EvalScratch,
        ) -> Result<Trajectory, EnsembleError> {
            Ok(tr)
        }
        self.map(keep)
    }

    /// Materialize one readout per instance, in seed order:
    /// `finish(seed, params, trajectory, scratch)` runs once per lane on
    /// the worker that integrated the instance, with a worker-private
    /// [`EvalScratch`] for observation-program evaluation.
    ///
    /// # Errors
    ///
    /// The first (by seed order) integration or `finish` error. (When one
    /// lane group contains both a later-lane integration failure and an
    /// earlier-lane `finish` failure, the integration error wins —
    /// `finish` never runs for a group whose integration failed.)
    pub fn map<T, E, G>(self, finish: G) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send + From<EnsembleError>,
        G: Fn(u64, &[f64], Trajectory, &mut EvalScratch) -> Result<T, E> + Sync,
    {
        self.map_grouped(&ClosureReadout(finish))
    }

    /// Materialize through a group-aware [`LaneReadout`], in seed order:
    /// every finished group is handed to [`LaneReadout::finish_group`],
    /// which can evaluate observation programs through the laned
    /// interpreter — amortizing readout the same way integration already
    /// is. Scalar runs (tails, lane-incapable solvers, `lanes = 1`
    /// engines) arrive as one-lane groups.
    ///
    /// # Errors
    ///
    /// The first (by seed order) integration or readout error.
    pub fn map_grouped<T, E, R>(self, readout: &R) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send + From<EnsembleError>,
        R: LaneReadout<T, E>,
    {
        let nested = self.dispatch(
            &Materialize {
                readout,
                stride: self.stride,
                out: PhantomData,
            },
            OnFailure::Abort(E::from),
        )?;
        Ok(nested.into_iter().flat_map(|(out, _)| out).collect())
    }

    /// Stream final states through an online [`Reducer`]: each instance
    /// runs under the allocation-free [`FinalState`] observer,
    /// `extract(snapshot, scratch)` turns its endpoint into one item
    /// (evaluate observation programs via
    /// [`CompiledSystem::eval_algebraics_with_params`] with the provided
    /// worker-private scratch), and the items fold into `reducer`.
    ///
    /// No trajectory is ever materialized: memory is
    /// O(workers · accumulator), independent of the seed count — the
    /// 10⁵⁺-instance yield sweeps run through here. Results are
    /// bit-identical for any worker count and lane width (see
    /// [`crate::reduce`] for the merge-order contract).
    ///
    /// # Errors
    ///
    /// The first (by seed order) integration or `extract` error.
    pub fn reduce<I, E, X, R>(self, extract: X, reducer: &R) -> Result<R::Output, E>
    where
        E: Send + From<EnsembleError>,
        X: Fn(&FinalSnapshot<'_>, &mut EvalScratch) -> Result<I, E> + Sync,
        R: Reducer<I>,
    {
        let stream = Stream {
            extract: &extract,
            reducer,
        };
        let partials = self.dispatch(&stream, OnFailure::Abort(E::from))?;
        let mut total = reducer.new_acc();
        for (partial, _) in partials {
            reducer.merge(&mut total, partial);
        }
        Ok(reducer.finish(total))
    }

    /// Run `terminal` at the engine's lane width — the one place a width
    /// is picked. Solvers without a laned form run at `L = 1`. The arms
    /// must cover [`crate::SUPPORTED_LANES`].
    fn dispatch<T: Terminal>(
        &self,
        terminal: &T,
        on_failure: OnFailure<'_, T::Err>,
    ) -> Result<Vec<(T::Acc, RecoveryReport)>, T::Err> {
        let lanes = if self.solver.supports_lanes() {
            self.ens.lanes()
        } else {
            1
        };
        match lanes {
            4 => self.run_groups::<4, T>(terminal, on_failure),
            8 => self.run_groups::<8, T>(terminal, on_failure),
            _ => self.run_groups::<1, T>(terminal, on_failure),
        }
    }

    /// The group runner behind every terminal: one accumulator and one
    /// outcome report per job, in seed order.
    ///
    /// Seeds are cut into jobs of [`Terminal::job_len`] *before* they are
    /// distributed to workers, so the partition never depends on the
    /// worker count. Within a job, each full lane group of `L` with
    /// well-formed initial states integrates through the laned
    /// interpreter; a failure is blamed on the lowest failed lane and
    /// either aborts the run or demotes the group. Every other instance
    /// runs scalar: the `N % L` tail, a group with a malformed initial
    /// state, a demoted group, and every instance when `L = 1`.
    fn run_groups<const L: usize, T>(
        &self,
        terminal: &T,
        on_failure: OnFailure<'_, T::Err>,
    ) -> Result<Vec<(T::Acc, RecoveryReport)>, T::Err>
    where
        T: Terminal,
        T::Obs: Observer<[f64; L]>,
    {
        let n = self.sys.num_states();
        let jobs: Vec<&[u64]> = self.seeds.chunks(terminal.job_len(L)).collect();
        let idx: Vec<u64> = (0..jobs.len() as u64).collect();
        let job = |bufs: &mut LaneBufs<L>, ji: u64| {
            let mut acc = terminal.new_acc();
            let mut report = FailureLog.new_acc();
            for group in jobs[ji as usize].chunks(L) {
                let prepped: Vec<(Vec<f64>, Vec<f64>)> =
                    group.iter().map(|&s| (self.prep)(s)).collect();
                if L > 1 && group.len() == L && prepped.iter().all(|(_, y0)| y0.len() == n) {
                    // Struct-of-arrays initial state, laned bind.
                    bufs.y0.clear();
                    bufs.y0.resize(n, [0.0; L]);
                    for (l, (_, y0)) in prepped.iter().enumerate() {
                        for (i, &v) in y0.iter().enumerate() {
                            bufs.y0[i][l] = v;
                        }
                    }
                    let params: Vec<&[f64]> = prepped.iter().map(|(p, _)| p.as_slice()).collect();
                    let mut obs = terminal.observer();
                    let solved = {
                        let bound = self.sys.bind_lanes::<L>(&params, &mut bufs.lscratch);
                        self.solver.solve(
                            &bound,
                            self.t0,
                            &bufs.y0[..n],
                            self.t1,
                            &mut obs,
                            &mut bufs.lws,
                        )
                    };
                    match (solved, &on_failure) {
                        (Ok(_), _) => {
                            terminal.group(
                                &mut acc,
                                group,
                                &params,
                                obs,
                                &mut bufs.obs_lscratch,
                                &mut bufs.scratch,
                            )?;
                            for _ in group {
                                FailureLog.push(&mut report, InstanceOutcome::Completed);
                            }
                            continue;
                        }
                        (Err(e), OnFailure::Abort(abort)) => {
                            // The lowest failed lane is the instance whose
                            // error the drive loop reported. Pre-flight
                            // errors carry no time and leave the lane
                            // masks stale: blame the group's first seed.
                            let lane = if e.time().is_some() {
                                bufs.lws.first_failed_lane().unwrap_or(0)
                            } else {
                                0
                            };
                            return Err(abort(EnsembleError {
                                seed: group[lane.min(L - 1)],
                                source: e,
                            }));
                        }
                        // Demote: every lane re-runs scalar below, so the
                        // healthy lanes produce exactly what a `lanes = 1`
                        // engine would have.
                        (Err(_), OnFailure::Recover(_)) => {}
                    }
                }
                for (&seed, (params, y0)) in group.iter().zip(&prepped) {
                    let mut obs = terminal.observer();
                    let outcome = {
                        let bound = self.sys.bind_ref(params, &mut bufs.scratch);
                        match self.solver.solve(
                            &bound,
                            self.t0,
                            y0,
                            self.t1,
                            &mut obs,
                            &mut bufs.ws,
                        ) {
                            Ok(_) => InstanceOutcome::Completed,
                            Err(e) => match &on_failure {
                                OnFailure::Abort(abort) => {
                                    return Err(abort(EnsembleError { seed, source: e }))
                                }
                                OnFailure::Recover(policy) => self.retry(
                                    policy,
                                    seed,
                                    e,
                                    &bound,
                                    y0,
                                    || terminal.observer(),
                                    &mut obs,
                                    &mut bufs.ws,
                                ),
                            },
                        }
                    };
                    if !matches!(outcome, InstanceOutcome::Failed { .. }) {
                        terminal.group::<1>(
                            &mut acc,
                            &[seed],
                            &[params],
                            obs,
                            &mut bufs.scalar_obs_lscratch,
                            &mut bufs.scratch,
                        )?;
                    }
                    FailureLog.push(&mut report, outcome);
                }
            }
            Ok((acc, report))
        };
        self.ens.try_map_init(&idx, LaneBufs::<L>::default, job)
    }

    /// Walk `policy`'s retry ladder for one instance whose primary solve
    /// (attempt 0) failed with `err`. On success `obs` holds the observer
    /// of the successful attempt.
    #[allow(clippy::too_many_arguments)]
    fn retry<O: Observer<f64>>(
        &self,
        policy: &RecoveryPolicy,
        seed: u64,
        err: SolveError,
        bound: &BoundSystem<'_>,
        y0: &[f64],
        fresh: impl Fn() -> O,
        obs: &mut O,
        ws: &mut OdeWorkspace,
    ) -> InstanceOutcome {
        let mut last = err;
        for attempt in 1..=policy.max_retries {
            *obs = fresh();
            match policy.run_attempt(attempt, bound, self.t0, y0, self.t1, obs, ws) {
                Ok((_, final_solver)) => {
                    return InstanceOutcome::Recovered {
                        attempts: attempt,
                        final_solver,
                    }
                }
                Err(e) => last = e,
            }
        }
        InstanceOutcome::Failed {
            t: last.time().unwrap_or(-1.0),
            error: last,
            seed,
        }
    }
}

/// What a failed run does to the ensemble.
enum OnFailure<'p, E> {
    /// Abort the run with the error, attributed to its instance.
    Abort(fn(EnsembleError) -> E),
    /// Demote a failed lane group to scalar and walk the policy's retry
    /// ladder for a failed instance, accounting for every outcome.
    Recover(&'p RecoveryPolicy),
}

/// A fault-tolerant ensemble run, created by
/// [`EnsembleRun::with_recovery`]: per-instance failure isolation plus
/// deterministic recovery under a [`RecoveryPolicy`].
///
/// Where the plain streaming terminals abort the whole run on the first
/// solver error, the recovering terminal gives every instance a verdict
/// ([`InstanceOutcome`]): `Completed` on a clean primary solve,
/// `Recovered` when a retry under the policy's fallback chain succeeds,
/// `Failed` when the chain is exhausted — failed instances contribute no
/// item to the reducer but are counted (with first-failure provenance per
/// error kind) in the returned [`RecoveryReport`].
///
/// # Determinism
///
/// Retries run inside the streaming block that owns the instance, so the
/// block merge order — and every accumulator bit — is unchanged by
/// failures for any worker count. When one lane of an `L`-wide group
/// fails, the whole group is *demoted*: each of its instances re-runs
/// scalar under the primary solver first (exactly what a `lanes = 1`
/// engine runs), then walks the fallback chain if still failing — so
/// outcomes and accumulators are bit-identical across lane widths for
/// every solver.
#[derive(Debug, Clone, Copy)]
pub struct RecoveringRun<'a, S, P> {
    run: EnsembleRun<'a, S, P>,
    policy: &'a RecoveryPolicy,
}

impl<'a, S, P> RecoveringRun<'a, S, P>
where
    S: Solver + Sync,
    P: Fn(u64) -> (Vec<f64>, Vec<f64>) + Sync,
{
    /// Stream final states through an online [`Reducer`] with failure
    /// isolation: like [`EnsembleRun::reduce`], but a failing instance is
    /// retried under the policy instead of aborting the run, and the
    /// output is paired with the run's [`RecoveryReport`].
    ///
    /// `extract` sees only instances that produced a final state
    /// (`Completed` or `Recovered`); failed instances are accounted for in
    /// the report alone, so yield-style reducers should take their
    /// denominator from [`RecoveryReport::total`] (or add
    /// [`RecoveryReport::failed`] to the reduced count).
    ///
    /// # Errors
    ///
    /// Only `extract` errors abort (first in seed order) — solver errors
    /// are recovery work, not run failures. `E` therefore only needs
    /// `Send`.
    pub fn reduce<I, E, X, R>(
        self,
        extract: X,
        reducer: &R,
    ) -> Result<(R::Output, RecoveryReport), E>
    where
        E: Send,
        X: Fn(&FinalSnapshot<'_>, &mut EvalScratch) -> Result<I, E> + Sync,
        R: Reducer<I>,
    {
        let stream = Stream {
            extract: &extract,
            reducer,
        };
        let partials = self
            .run
            .dispatch(&stream, OnFailure::Recover(self.policy))?;
        let mut total = reducer.new_acc();
        let mut report = FailureLog.new_acc();
        for (partial, rep) in partials {
            reducer.merge(&mut total, partial);
            FailureLog.merge(&mut report, rep);
        }
        // Static provenance rides along with the dynamic counts: if the
        // interval analysis proves an operation undefined for every input,
        // the report says so next to the failures it likely caused.
        report.domain_warnings = self.run.sys.domain_warnings();
        Ok((reducer.finish(total), FailureLog.finish(report)))
    }
}

/// What one terminal makes of the runs the group runner integrates: the
/// observer every run reports to and the per-job accumulator the finished
/// runs fold into.
trait Terminal: Sync {
    /// The observer of one run, at every dispatch width.
    type Obs: Observer<f64> + Observer<[f64; 1]> + Observer<[f64; 4]> + Observer<[f64; 8]>;
    /// The results of one job, in seed order.
    type Acc: Send;
    /// The error a readout or extractor aborts the run with.
    type Err: Send;

    /// Seeds per job at lane width `lanes`: the unit of work distribution.
    fn job_len(&self, lanes: usize) -> usize;

    /// A fresh observer for one run.
    fn observer(&self) -> Self::Obs;

    /// A fresh, empty job accumulator.
    fn new_acc(&self) -> Self::Acc;

    /// A lane group finished: `seeds[l]` and `params[l]` belong to lane
    /// `l` of `obs`. A scalar run is the one-lane group `L = 1`.
    fn group<const L: usize>(
        &self,
        acc: &mut Self::Acc,
        seeds: &[u64],
        params: &[&[f64]],
        obs: Self::Obs,
        lscratch: &mut LaneScratch<L>,
        scratch: &mut EvalScratch,
    ) -> Result<(), Self::Err>;
}

/// The materializing terminals: one lane group per job, trajectories
/// recorded at `stride` and handed to a [`LaneReadout`].
struct Materialize<'r, R, T, E> {
    readout: &'r R,
    stride: usize,
    out: PhantomData<fn() -> (T, E)>,
}

impl<R, T, E> Terminal for Materialize<'_, R, T, E>
where
    T: Send,
    E: Send,
    R: LaneReadout<T, E>,
{
    type Obs = Strided;
    type Acc = Vec<T>;
    type Err = E;

    fn job_len(&self, lanes: usize) -> usize {
        lanes
    }

    fn observer(&self) -> Strided {
        Strided::every(self.stride)
    }

    fn new_acc(&self) -> Vec<T> {
        Vec::new()
    }

    fn group<const L: usize>(
        &self,
        acc: &mut Vec<T>,
        seeds: &[u64],
        params: &[&[f64]],
        obs: Strided,
        lscratch: &mut LaneScratch<L>,
        scratch: &mut EvalScratch,
    ) -> Result<(), E> {
        let trs = obs.into_trajectories();
        self.readout
            .finish_group::<L>(seeds, params, trs, lscratch, scratch, acc)
    }
}

/// The streaming terminals: one [`STREAM_BLOCK`] per job, each final state
/// extracted into one item and folded into a [`Reducer`].
struct Stream<'r, X, R> {
    extract: &'r X,
    reducer: &'r R,
}

impl<I, E, X, R> Terminal for Stream<'_, X, R>
where
    E: Send,
    X: Fn(&FinalSnapshot<'_>, &mut EvalScratch) -> Result<I, E> + Sync,
    R: Reducer<I>,
{
    type Obs = FinalState;
    type Acc = R::Acc;
    type Err = E;

    fn job_len(&self, _lanes: usize) -> usize {
        STREAM_BLOCK
    }

    fn observer(&self) -> FinalState {
        FinalState::new()
    }

    fn new_acc(&self) -> R::Acc {
        self.reducer.new_acc()
    }

    fn group<const L: usize>(
        &self,
        acc: &mut R::Acc,
        seeds: &[u64],
        params: &[&[f64]],
        obs: FinalState,
        _lscratch: &mut LaneScratch<L>,
        scratch: &mut EvalScratch,
    ) -> Result<(), E> {
        for (l, (&seed, &params)) in seeds.iter().zip(params).enumerate() {
            let snap = FinalSnapshot {
                seed,
                params,
                t: obs.time(),
                state: obs.lane_state(l),
                stats: obs.stats(),
            };
            self.reducer.push(acc, (self.extract)(&snap, scratch)?);
        }
        Ok(())
    }
}

/// Per-worker buffers of the group runner: scalar scratches for the
/// scalar path and readout, plus the lane scratch and workspace for full
/// groups. The observation programs get lane scratches of their own
/// (`obs_lscratch` for full groups, `scalar_obs_lscratch` for one-lane
/// readouts) so the RHS and observation constant pools all stay primed
/// across a worker's groups. All grow on demand.
struct LaneBufs<const L: usize> {
    scratch: EvalScratch,
    ws: OdeWorkspace,
    lscratch: LaneScratch<L>,
    obs_lscratch: LaneScratch<L>,
    scalar_obs_lscratch: LaneScratch<1>,
    lws: Workspace<[f64; L]>,
    /// Struct-of-arrays staging for the group's initial states.
    y0: Vec<[f64; L]>,
}

impl<const L: usize> Default for LaneBufs<L> {
    fn default() -> Self {
        LaneBufs {
            scratch: EvalScratch::default(),
            ws: OdeWorkspace::default(),
            lscratch: LaneScratch::default(),
            obs_lscratch: LaneScratch::default(),
            scalar_obs_lscratch: LaneScratch::default(),
            lws: Workspace::default(),
            y0: Vec::new(),
        }
    }
}
