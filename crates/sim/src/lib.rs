//! # ark-sim: the parallel mismatch-ensemble engine
//!
//! Every headline result in the Ark paper is an *ensemble*: the CNN
//! mismatch studies (§7.1), the TLN PUF metrics (§2.2/§6), and the OBC
//! max-cut Monte Carlo (Table 1) all simulate many fabricated instances of
//! one design, differing only in their mismatch seed. This crate turns that
//! pattern into a first-class engine:
//!
//! * [`Ensemble`] — a `std::thread` worker pool that fans seeded jobs out
//!   and returns results **in seed order**, so the output is deterministic
//!   and *independent of the worker count*;
//! * [`Ensemble::run`] / [`EnsembleRun`] — the one ensemble entry point:
//!   compile once, share the [`CompiledSystem`](ark_core::CompiledSystem)
//!   (which is `Send + Sync`) by reference across the pool, each worker
//!   reusing its own [`EvalScratch`] and
//!   [`OdeWorkspace`](ark_ode::OdeWorkspace) so the hot loop allocates
//!   nothing per step. Terminal methods either *materialize*
//!   ([`EnsembleRun::trajectories`], [`EnsembleRun::map`],
//!   [`EnsembleRun::map_grouped`]) or *stream* ([`EnsembleRun::reduce`],
//!   and its fault-tolerant form [`RecoveringRun::reduce`]) — the
//!   streaming path folds one item per instance into a [`reduce::Reducer`]
//!   as instances finish, so a 10⁵–10⁶-instance Monte Carlo costs
//!   O(accumulator) memory instead of O(N · trajectory). All of them run
//!   through one group runner, generic over the lane width;
//! * [`reduce`] — the online accumulators: [`reduce::Moments`],
//!   [`reduce::MinMax`], the deterministic [`reduce::Quantiles`] sketch,
//!   and [`reduce::YieldCounter`], all merging block partials in fixed
//!   seed order (see the module docs for the determinism contract);
//! * any [`ark_ode::Solver`] drives the integration — `Rk4`, `Euler`,
//!   `DormandPrince` or `TrBdf2`. Solvers whose policy is scalar-only
//!   ([`ark_ode::Solver::supports_lanes`] is false: the PI-adaptive
//!   `DormandPrince` and `TrBdf2`) automatically dispatch through the
//!   scalar path;
//! * [`LaneReadout`] / [`EnsembleRun::map_grouped`] — readout that sees a
//!   whole *lane group* at once (a scalar run is the one-lane group), so
//!   observation programs (CNN snapshot images, convergence probes)
//!   evaluate through the laned interpreter instead of once per instance.
//!
//! # Determinism guarantee
//!
//! Results depend **only on the seeds** (and the job closure), never on the
//! number of workers, the lane width or OS scheduling: jobs are
//! self-contained, workers only pick *which* job to run next from a shared
//! counter, results are written back by job index, and every solver gives
//! each lane exactly the scalar operation sequence. Running the same
//! ensemble with 1, 2, or 64 workers at lane width 1, 4 or 8 produces
//! bit-identical output — the property the determinism suite in
//! `tests/ensemble_determinism.rs` locks in.
//!
//! # Examples
//!
//! Fan a seeded computation across the pool; output order follows the seed
//! slice, not completion order:
//!
//! ```
//! use ark_sim::Ensemble;
//!
//! let ens = Ensemble::new(4);
//! let squares = ens.map(&[1, 2, 3, 4, 5], |seed| seed * seed);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```
//!
//! Compile an Ark design once and simulate many instances in parallel:
//!
//! ```
//! use ark_core::func::GraphBuilder;
//! use ark_core::lang::{EdgeType, LanguageBuilder, NodeType, ProdRule, Reduction};
//! use ark_core::types::SigType;
//! use ark_core::CompiledSystem;
//! use ark_expr::parse_expr;
//! use ark_ode::Rk4;
//! use ark_sim::Ensemble;
//!
//! // dV/dt = -V/tau, compiled once...
//! let lang = LanguageBuilder::new("rc")
//!     .node_type(
//!         NodeType::new("V", 1, Reduction::Sum)
//!             .attr("tau", SigType::real(0.0, 10.0))
//!             .init_default(SigType::real(-10.0, 10.0), 1.0),
//!     )
//!     .edge_type(EdgeType::new("E"))
//!     .prod(ProdRule::new(("e", "E"), ("s", "V"), ("s", "V"), "s",
//!         parse_expr("-var(s)/s.tau")?))
//!     .finish()?;
//! let mut b = GraphBuilder::new(&lang, 0);
//! b.node("v", "V")?;
//! b.set_attr("v", "tau", 1.0)?;
//! b.edge("self", "E", "v", "v")?;
//! let graph = b.finish()?;
//! let sys = CompiledSystem::compile(&lang, &graph)?;
//!
//! // ...then shared by reference across the pool for many initial states.
//! let inits: Vec<Vec<f64>> = (1..=8).map(|i| vec![i as f64]).collect();
//! let ens = Ensemble::new(4);
//! let idx: Vec<u64> = (0..inits.len() as u64).collect();
//! let runs = ens
//!     .run(&sys, &Rk4 { dt: 1e-3 }, &idx, 0.0, 1.0)
//!     .stride(10)
//!     .prep(|i| (Vec::new(), inits[i as usize].clone()))
//!     .trajectories()?;
//! for (y0, tr) in inits.iter().zip(&runs) {
//!     let expect = y0[0] * (-1.0f64).exp();
//!     assert!((tr.last().unwrap().1[0] - expect).abs() < 1e-8);
//! }
//!
//! // Population-scale runs stream instead: one item per instance folds
//! // into an online reducer as instances finish — no Vec<Trajectory>,
//! // memory stays O(accumulator) no matter how many seeds.
//! use ark_sim::reduce::Moments;
//! use ark_sim::seed_range;
//! let stats = ens
//!     .run(&sys, &Rk4 { dt: 1e-3 }, &seed_range(0, 100), 0.0, 1.0)
//!     .prep(|seed| (Vec::new(), vec![1.0 + 0.01 * seed as f64]))
//!     .reduce(|snap, _scratch| Ok::<_, ark_ode::SolveError>(snap.state[0]), &Moments)?;
//! assert_eq!(stats.count, 100);
//! assert!(stats.mean > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr.
#![forbid(unsafe_code)]

pub mod faultpoint;
pub mod reduce;
pub mod resilience;
mod run;

pub use ark_ode::LaneError;
pub use faultpoint::{FaultMode, FaultPlan, FaultSystem, RhsFault};
pub use resilience::{
    EnsembleError, FailureLog, FallbackSolver, InstanceOutcome, RecoveryPolicy, RecoveryReport,
};
pub use run::{EnsembleRun, FinalSnapshot, RecoveringRun};

use ark_core::{default_lanes, EvalScratch, LaneScratch};
use ark_ode::Trajectory;
use std::sync::atomic::{AtomicUsize, Ordering};

pub use ark_core::{DEFAULT_LANES, SUPPORTED_LANES};

/// Validate a lane width against [`SUPPORTED_LANES`].
///
/// # Errors
///
/// [`LaneError::UnsupportedWidth`] naming the supported set.
fn check_lanes(lanes: usize) -> Result<usize, LaneError> {
    if SUPPORTED_LANES.contains(&lanes) {
        Ok(lanes)
    } else {
        Err(LaneError::UnsupportedWidth {
            requested: lanes,
            supported: &SUPPORTED_LANES,
        })
    }
}

/// Group-aware ensemble readout: how integrated trajectories become
/// results.
///
/// The engine integrates instances in lane groups and hands every finished
/// group to [`LaneReadout::finish_group`]; a scalar run (the `N % L` tail,
/// a demoted group, a lane-incapable solver, `lanes = 1`) is the one-lane
/// group `L = 1`. Implementations evaluate their observation programs
/// through the laned interpreter — `L` instances per interpreted
/// instruction — which is what lifts the per-instance readout tail off
/// ensembles like the CNN Monte Carlo. Group trajectories come from
/// lockstep fixed-step runs, so all lanes share one time grid.
///
/// Per-lane results must not depend on `L` — the engine's "results never
/// depend on worker count or lane width" guarantee extends through the
/// readout.
pub trait LaneReadout<T, E>: Sync {
    /// Readout for a lane group: `trs[l]` is lane `l`'s trajectory,
    /// `params[l]` its parameter vector. Push one result per lane (in lane
    /// order) onto `out`. `lscratch` is a worker-private lane scratch
    /// dedicated to observation programs.
    ///
    /// # Errors
    ///
    /// The first (by lane order) readout error.
    fn finish_group<const L: usize>(
        &self,
        seeds: &[u64],
        params: &[&[f64]],
        trs: Vec<Trajectory>,
        lscratch: &mut LaneScratch<L>,
        scratch: &mut EvalScratch,
        out: &mut Vec<T>,
    ) -> Result<(), E>;
}

/// A [`LaneReadout`] from a plain per-instance closure, run once per lane —
/// the adapter behind [`EnsembleRun::map`].
struct ClosureReadout<G>(G);

impl<T, E, G> LaneReadout<T, E> for ClosureReadout<G>
where
    G: Fn(u64, &[f64], Trajectory, &mut EvalScratch) -> Result<T, E> + Sync,
{
    fn finish_group<const L: usize>(
        &self,
        seeds: &[u64],
        params: &[&[f64]],
        trs: Vec<Trajectory>,
        _lscratch: &mut LaneScratch<L>,
        scratch: &mut EvalScratch,
        out: &mut Vec<T>,
    ) -> Result<(), E> {
        for ((&seed, p), tr) in seeds.iter().zip(params).zip(trs) {
            out.push((self.0)(seed, p, tr, scratch)?);
        }
        Ok(())
    }
}

/// A deterministic worker pool for seeded ensemble jobs.
///
/// See the [crate docs](crate) for the determinism guarantee. The pool is
/// created per call (`std::thread::scope`), so an `Ensemble` is just a
/// worker-count + lane-width configuration — cheap to copy around and embed
/// in APIs.
///
/// # Lane width
///
/// The integration terminals of [`Ensemble::run`] ([`EnsembleRun::map`]
/// and friends) batch instances into *lane groups* of `lanes` (one of
/// [`SUPPORTED_LANES`]) and step each group through the lane-parallel
/// interpreter
/// ([`CompiledSystem::bind_lanes`](ark_core::CompiledSystem::bind_lanes)):
/// one interpreted instruction advances the whole group, which is a
/// single-core ensemble speedup on top of the worker-pool parallelism.
/// Per-instance results are **bit-identical for every lane width** under
/// every solver (each lane performs exactly the scalar operation sequence),
/// so the width is purely a throughput knob; CI's lane-matrix job pins
/// this. The default is [`DEFAULT_LANES`], overridable with the `ARK_LANES`
/// environment variable or explicitly with [`Ensemble::with_lanes`].
/// Solvers without a laned form (the PI-adaptive `DormandPrince`,
/// `TrBdf2`) always run the scalar path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ensemble {
    workers: usize,
    lanes: usize,
}

impl Default for Ensemble {
    /// One worker per available CPU.
    fn default() -> Self {
        Ensemble::new(0)
    }
}

impl Ensemble {
    /// An ensemble engine with the given worker count; `0` means one worker
    /// per available CPU. The lane width is the process default
    /// ([`default_lanes`]: `ARK_LANES`, else [`DEFAULT_LANES`]), the width
    /// native kernel libraries are built for; see [`Ensemble::with_lanes`].
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            workers
        };
        Ensemble {
            workers,
            lanes: default_lanes(),
        }
    }

    /// A single-worker engine: runs jobs inline on the calling thread — the
    /// serial baseline the parallel paths are benchmarked (and tested for
    /// bit-identity) against. Lane width still applies (set it to 1 via
    /// [`Ensemble::with_lanes`] or `ARK_LANES=1` for the fully scalar
    /// baseline).
    pub fn serial() -> Self {
        Ensemble {
            workers: 1,
            lanes: default_lanes(),
        }
    }

    /// This engine with an explicit lane width for the integration entry
    /// points (one of [`SUPPORTED_LANES`]). Results are bit-identical
    /// across widths; wider lanes amortize
    /// interpreter dispatch over more instances per instruction.
    ///
    /// # Panics
    ///
    /// Panics on an unsupported width ([`Ensemble::try_with_lanes`] is the
    /// non-panicking form).
    pub fn with_lanes(self, lanes: usize) -> Self {
        match self.try_with_lanes(lanes) {
            Ok(ens) => ens,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Ensemble::with_lanes`].
    ///
    /// # Errors
    ///
    /// [`LaneError::UnsupportedWidth`] when `lanes` is not in
    /// [`SUPPORTED_LANES`].
    pub fn try_with_lanes(self, lanes: usize) -> Result<Self, LaneError> {
        check_lanes(lanes).map(|lanes| Ensemble { lanes, ..self })
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The configured lane width (1 = scalar integration).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Run `job` once per seed across the pool, returning results in seed
    /// order.
    pub fn map<T, F>(&self, seeds: &[u64], job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        match self.try_map(seeds, |seed| Ok::<T, Unreachable>(job(seed))) {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }

    /// Run a fallible `job` once per seed. On failure, the error of the
    /// *lowest-indexed* failing seed is returned (again independent of the
    /// worker count); jobs above an already-failed index are skipped, so a
    /// failure early in a large ensemble does not pay for the whole run.
    ///
    /// # Errors
    ///
    /// The first (by seed order) job error.
    pub fn try_map<T, E, F>(&self, seeds: &[u64], job: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(u64) -> Result<T, E> + Sync,
    {
        self.try_map_init(seeds, || (), |(), seed| job(seed))
    }

    /// Like [`Ensemble::try_map`], but each worker first builds a private
    /// state with `init` and threads it through its jobs — the hook the
    /// group runner uses to reuse its per-worker scratches and workspaces
    /// across many instances.
    ///
    /// Worker state must not influence results (buffers, caches): the
    /// engine's determinism guarantee assumes `job(state, seed)` depends
    /// only on `seed`.
    ///
    /// # Errors
    ///
    /// The first (by seed order) job error.
    pub(crate) fn try_map_init<S, T, E, I, F>(
        &self,
        seeds: &[u64],
        init: I,
        job: F,
    ) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, u64) -> Result<T, E> + Sync,
    {
        let n = seeds.len();
        if self.workers <= 1 || n <= 1 {
            // Inline serial path: no threads, short-circuits on the first
            // error like the historical per-experiment loops did.
            let mut state = init();
            let mut out = Vec::with_capacity(n);
            for &seed in seeds {
                out.push(job(&mut state, seed)?);
            }
            return Ok(out);
        }
        let next = AtomicUsize::new(0);
        // Lowest failing index seen so far; jobs above it are skipped.
        // Indices *below* it are always still run, so the final value is the
        // true lowest failure regardless of scheduling.
        let failed_at = AtomicUsize::new(usize::MAX);
        let parts: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.workers.min(n))
                .map(|_| {
                    scope.spawn(|| {
                        let mut state = init();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            if i >= failed_at.load(Ordering::Relaxed) {
                                continue;
                            }
                            let r = job(&mut state, seeds[i]);
                            if r.is_err() {
                                failed_at.fetch_min(i, Ordering::Relaxed);
                            }
                            done.push((i, r));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(part) => part,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut slots: Vec<Option<Result<T, E>>> = Vec::new();
        slots.resize_with(n, || None);
        for part in parts {
            for (i, r) in part {
                slots[i] = Some(r);
            }
        }
        // Everything below the lowest failing index ran to completion, so
        // in-order assembly hits that error (if any) before any skipped
        // `None` slot.
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            match slot {
                Some(r) => out.push(r?),
                None => unreachable!("job skipped below the lowest failing index"),
            }
        }
        Ok(out)
    }
}

/// A local stand-in for the unstable `!` type, so [`Ensemble::map`] can
/// reuse the fallible plumbing without an error branch at runtime.
enum Unreachable {}

/// Consecutive seeds `base, base + 1, …, base + n − 1` — the conventional
/// way the paper's experiments enumerate fabricated instances.
///
/// # Seed-ordering contract
///
/// The returned seeds are strictly increasing by exactly 1, with no wrap
/// and no duplicates. Every ensemble entry point treats **seed order as
/// result order** (materializing paths return results in this order;
/// streaming paths push items into their accumulators in this order), so
/// two runs over the same `seed_range` are directly comparable element by
/// element — and extending a study is as simple as running
/// `seed_range(base + n, more)` next.
///
/// # Panics
///
/// Panics if `base + n - 1` exceeds `u64::MAX` — checked arithmetic in
/// debug *and* release builds, so a near-`u64::MAX` base fails loudly
/// instead of silently wrapping to low seeds already used by another
/// study.
pub fn seed_range(base: u64, n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|k| {
            base.checked_add(k)
                .expect("seed_range overflows u64::MAX: pick a lower base or fewer seeds")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_core::CompiledSystem;
    use ark_ode::{DormandPrince, Rk4, SolveError};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_seed_order() {
        let ens = Ensemble::new(4);
        let out = ens.map(&seed_range(10, 100), |s| s * 2);
        assert_eq!(out.len(), 100);
        for (k, v) in out.iter().enumerate() {
            assert_eq!(*v, (10 + k as u64) * 2);
        }
    }

    #[test]
    fn results_independent_of_worker_count() {
        let seeds = seed_range(0, 57);
        let job = |s: u64| {
            // A little arithmetic noise so bugs in ordering show up.
            let mut x = s.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^= x >> 31;
            x
        };
        let one = Ensemble::serial().map(&seeds, job);
        for workers in [2, 3, 8, 64] {
            assert_eq!(Ensemble::new(workers).map(&seeds, job), one);
        }
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let ens = Ensemble::new(8);
        let seeds = seed_range(0, 64);
        let r: Result<Vec<u64>, u64> =
            ens.try_map(&seeds, |s| if s % 7 == 3 { Err(s) } else { Ok(s) });
        // Failing seeds are 3, 10, 17, ... — the report must be seed 3
        // regardless of which worker hit which seed first.
        assert_eq!(r.unwrap_err(), 3);
    }

    #[test]
    fn failure_skips_remaining_jobs() {
        let executed = AtomicUsize::new(0);
        let ens = Ensemble::new(2);
        let seeds = seed_range(0, 64);
        let r: Result<Vec<u64>, &'static str> = ens.try_map(&seeds, |s| {
            executed.fetch_add(1, Ordering::Relaxed);
            if s == 0 {
                Err("boom")
            } else {
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(s)
            }
        });
        assert_eq!(r.unwrap_err(), "boom");
        // Seed 0 fails almost instantly, so the pool must abandon most of
        // the remaining (slower) jobs instead of running all 64.
        assert!(
            executed.load(Ordering::Relaxed) < 32,
            "executed {} of 64 jobs after an index-0 failure",
            executed.load(Ordering::Relaxed)
        );
    }

    #[test]
    fn empty_and_single_seed_inputs() {
        let ens = Ensemble::new(4);
        assert_eq!(ens.map(&[], |s| s), Vec::<u64>::new());
        assert_eq!(ens.map(&[9], |s| s + 1), vec![10]);
    }

    #[test]
    fn worker_state_is_reused_within_a_worker() {
        let created = AtomicUsize::new(0);
        let ens = Ensemble::new(2);
        let out: Result<Vec<u64>, Unreachable2> = ens.try_map_init(
            &seed_range(0, 32),
            || {
                created.fetch_add(1, Ordering::Relaxed);
            },
            |_state, s| Ok(s),
        );
        assert_eq!(out.unwrap().len(), 32);
        // At most one state per worker, not one per job.
        assert!(created.load(Ordering::Relaxed) <= 2);
    }

    enum Unreachable2 {}
    impl std::fmt::Debug for Unreachable2 {
        fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match *self {}
        }
    }

    #[test]
    fn zero_workers_resolves_to_cpu_count() {
        assert!(Ensemble::new(0).workers() >= 1);
        assert_eq!(Ensemble::serial().workers(), 1);
    }

    #[test]
    fn with_lanes_configures_width() {
        assert_eq!(Ensemble::serial().with_lanes(8).lanes(), 8);
        assert_eq!(Ensemble::new(2).with_lanes(1).lanes(), 1);
        assert!(SUPPORTED_LANES.contains(&Ensemble::serial().lanes()));
    }

    #[test]
    #[should_panic(expected = "unsupported lane width 3")]
    fn with_lanes_rejects_unsupported_widths() {
        let _ = Ensemble::serial().with_lanes(3);
    }

    #[test]
    fn try_with_lanes_reports_the_supported_set() {
        let err = Ensemble::serial().try_with_lanes(5).unwrap_err();
        assert!(
            matches!(err, LaneError::UnsupportedWidth { requested: 5, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("[1, 4, 8]"), "{err}");
        assert_eq!(Ensemble::serial().try_with_lanes(8).unwrap().lanes(), 8);
    }

    #[test]
    #[should_panic(expected = "seed_range overflows u64::MAX")]
    fn seed_range_panics_instead_of_wrapping() {
        let _ = seed_range(u64::MAX - 2, 8);
    }

    #[test]
    fn seed_range_allows_the_top_of_the_space() {
        let seeds = seed_range(u64::MAX - 3, 4);
        assert_eq!(
            seeds,
            vec![u64::MAX - 3, u64::MAX - 2, u64::MAX - 1, u64::MAX]
        );
    }

    /// One small parametric design for the lane tests below.
    fn decay_parametric() -> (ark_core::lang::Language, CompiledSystem) {
        use ark_core::func::GraphBuilder;
        use ark_core::lang::{EdgeType, LanguageBuilder, NodeType, ProdRule, Reduction};
        use ark_core::types::SigType;
        use ark_expr::parse_expr;
        let lang = LanguageBuilder::new("rc")
            .node_type(
                NodeType::new("V", 1, Reduction::Sum)
                    .attr("tau", SigType::real(0.0, 100.0))
                    .init_default(SigType::real(-100.0, 100.0), 1.0),
            )
            .edge_type(EdgeType::new("E"))
            .prod(ProdRule::new(
                ("e", "E"),
                ("s", "V"),
                ("s", "V"),
                "s",
                parse_expr("-var(s)/s.tau").unwrap(),
            ))
            .finish()
            .unwrap();
        let mut b = GraphBuilder::new_parametric(&lang);
        b.node("v", "V").unwrap();
        b.set_attr_param("v", "tau", 1.0).unwrap();
        b.set_init_param("v", 0, 1.0).unwrap();
        b.edge("self", "E", "v", "v").unwrap();
        let pg = b.finish_parametric().unwrap();
        let sys = CompiledSystem::compile_parametric(&lang, &pg).unwrap();
        (lang, sys)
    }

    fn lane_test_params(sys: &CompiledSystem, seed: u64) -> Vec<f64> {
        let mut p = sys.nominal_params();
        p[sys.param_index("v", "tau").unwrap()] = 0.5 + 0.125 * seed as f64;
        p[sys.param_index_init("v", 0).unwrap()] = 1.0 + 0.25 * seed as f64;
        p
    }

    /// Laned ensembles are bit-identical to the scalar path for every lane
    /// width, every worker count, and ensemble sizes exercising full
    /// groups, tails, and N < L.
    #[test]
    fn lane_widths_are_bit_identical() {
        let (_lang, sys) = decay_parametric();
        let solver = Rk4 { dt: 1e-3 };
        for n in [1usize, 3, 4, 5, 8, 11] {
            let seeds = seed_range(0, n);
            let reference = Ensemble::serial()
                .with_lanes(1)
                .run(&sys, &solver, &seeds, 0.0, 1.0)
                .stride(10)
                .params(|s| lane_test_params(&sys, s))
                .trajectories()
                .unwrap();
            for lanes in [4usize, 8] {
                for workers in [1usize, 3] {
                    let got = Ensemble::new(workers)
                        .with_lanes(lanes)
                        .run(&sys, &solver, &seeds, 0.0, 1.0)
                        .stride(10)
                        .params(|s| lane_test_params(&sys, s))
                        .trajectories()
                        .unwrap();
                    assert_eq!(reference, got, "n={n} lanes={lanes} workers={workers}");
                }
            }
        }
    }

    /// The PI-adaptive solver has no laned form: the engine silently runs
    /// the scalar path, still bit-identical across lane settings.
    #[test]
    fn adaptive_solver_falls_back_to_scalar() {
        let (_lang, sys) = decay_parametric();
        let solver = DormandPrince::new(1e-8, 1e-11);
        let seeds = seed_range(0, 5);
        let scalar = Ensemble::serial()
            .with_lanes(1)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .params(|s| lane_test_params(&sys, s))
            .trajectories()
            .unwrap();
        let laned = Ensemble::serial()
            .with_lanes(4)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .params(|s| lane_test_params(&sys, s))
            .trajectories()
            .unwrap();
        assert_eq!(scalar, laned);
    }

    /// `map` runs the readout closure once per lane with results in seed
    /// order.
    #[test]
    fn map_preserves_seed_order_and_params() {
        let (_lang, sys) = decay_parametric();
        let solver = Rk4 { dt: 1e-2 };
        let seeds = seed_range(0, 7);
        let got: Vec<(u64, f64, f64)> = Ensemble::new(2)
            .with_lanes(4)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .stride(10)
            .params(|s| lane_test_params(&sys, s))
            .map(|seed, params, tr, _scratch| {
                Ok::<_, SolveError>((seed, params[0], tr.last().unwrap().1[0]))
            })
            .unwrap();
        for (k, (seed, tau, v_end)) in got.iter().enumerate() {
            assert_eq!(*seed, k as u64);
            let p = lane_test_params(&sys, *seed);
            assert_eq!(*tau, p[0]);
            assert!(v_end.is_finite());
        }
    }

    /// A group-aware readout sees full groups as groups and the tail as
    /// one-lane groups, and produces the same results as the per-instance
    /// path.
    #[test]
    fn map_readout_group_override_matches_scalar_readout() {
        struct EndState;
        impl LaneReadout<f64, SolveError> for EndState {
            fn finish_group<const L: usize>(
                &self,
                _seeds: &[u64],
                _params: &[&[f64]],
                trs: Vec<Trajectory>,
                _lscratch: &mut LaneScratch<L>,
                _scratch: &mut EvalScratch,
                out: &mut Vec<f64>,
            ) -> Result<(), SolveError> {
                // Group trajectories share one grid; read all lanes at once.
                for tr in &trs {
                    out.push(tr.last().unwrap().1[0]);
                }
                Ok(())
            }
        }
        let (_lang, sys) = decay_parametric();
        let solver = Rk4 { dt: 1e-2 };
        let seeds = seed_range(0, 11); // 2 full groups + tail of 3
        let grouped = Ensemble::new(2)
            .with_lanes(4)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .stride(10)
            .params(|s| lane_test_params(&sys, s))
            .map_grouped(&EndState)
            .unwrap();
        let scalar = Ensemble::serial()
            .with_lanes(1)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .stride(10)
            .params(|s| lane_test_params(&sys, s))
            .map(|_, _, tr, _| Ok::<_, SolveError>(tr.last().unwrap().1[0]))
            .unwrap();
        assert_eq!(grouped, scalar);
    }

    /// Streaming reduction matches the materialize-then-reduce path
    /// bit-for-bit, across worker counts and lane widths.
    #[test]
    fn reduce_matches_materialized_reference() {
        use crate::reduce::{reduce_materialized, MinMax, Moments};
        let (_lang, sys) = decay_parametric();
        let solver = Rk4 { dt: 1e-2 };
        let seeds = seed_range(0, 37);
        let items: Vec<f64> = Ensemble::serial()
            .with_lanes(1)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .params(|s| lane_test_params(&sys, s))
            .map(|_, _, tr, _| Ok::<_, SolveError>(tr.last().unwrap().1[0]))
            .unwrap();
        let want = reduce_materialized(&(Moments, MinMax), &items);
        for workers in [1usize, 2, 8] {
            for lanes in [1usize, 4, 8] {
                let (stats, extrema) = Ensemble::new(workers)
                    .with_lanes(lanes)
                    .run(&sys, &solver, &seeds, 0.0, 1.0)
                    .params(|s| lane_test_params(&sys, s))
                    .reduce(
                        |snap, _scratch| Ok::<_, SolveError>(snap.state[0]),
                        &(Moments, MinMax),
                    )
                    .unwrap();
                assert_eq!(stats.count, want.0.count, "w={workers} l={lanes}");
                assert_eq!(
                    stats.mean.to_bits(),
                    want.0.mean.to_bits(),
                    "w={workers} l={lanes}"
                );
                assert_eq!(
                    stats.m2.to_bits(),
                    want.0.m2.to_bits(),
                    "w={workers} l={lanes}"
                );
                assert_eq!(extrema.min.to_bits(), want.1.min.to_bits());
                assert_eq!(extrema.max.to_bits(), want.1.max.to_bits());
            }
        }
    }

    /// The streaming path surfaces the first error by seed order, like the
    /// materializing path.
    #[test]
    fn reduce_reports_first_error_by_seed_order() {
        use crate::reduce::YieldCounter;
        #[derive(Debug, PartialEq)]
        enum TestErr {
            Solve(SolveError),
            Seed(u64),
        }
        impl From<EnsembleError> for TestErr {
            fn from(e: EnsembleError) -> Self {
                TestErr::Solve(e.source)
            }
        }
        let (_lang, sys) = decay_parametric();
        let solver = Rk4 { dt: 1e-2 };
        let seeds = seed_range(0, 12);
        let err = Ensemble::new(3)
            .with_lanes(4)
            .run(&sys, &solver, &seeds, 0.0, 1.0)
            .params(|s| lane_test_params(&sys, s))
            .reduce(
                |snap, _scratch| {
                    if snap.seed >= 5 {
                        Err(TestErr::Seed(snap.seed))
                    } else {
                        Ok(true)
                    }
                },
                &YieldCounter,
            )
            .unwrap_err();
        assert_eq!(err, TestErr::Seed(5));
    }

    #[test]
    fn seed_range_is_consecutive() {
        assert_eq!(seed_range(5, 3), vec![5, 6, 7]);
        assert!(seed_range(0, 0).is_empty());
    }
}
