//! Max-cut solving on oscillator networks (paper §7.2, Table 1).
//!
//! Graph edges map to antiferromagnetic couplings (`k = −1`); after the
//! second-harmonic term binarizes the phases, oscillators near phase 0 form
//! partition 0 and oscillators near π form partition 1. The deviation
//! tolerance `d` is external to the analog circuit — widening it from
//! `0.01π` to `0.1π` is the paper's compensation technique that recovers
//! the offset-afflicted solver without touching the hardware.

use ark_core::func::{GraphBuilder, ParametricGraph};
use ark_core::{CompiledSystem, FuncError, Graph, Language};
use ark_ode::{phase_distance, wrap_phase, Rk4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// An unweighted max-cut instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaxCutProblem {
    /// Number of vertices.
    pub n: usize,
    /// Undirected edges as `(u, v)` with `u < v`.
    pub edges: Vec<(usize, usize)>,
}

impl MaxCutProblem {
    /// A random unweighted graph: each of the `n(n-1)/2` candidate edges is
    /// present with probability 1/2 (re-sampled until at least one edge
    /// exists, matching the paper's 1000 random 4-vertex graphs).
    pub fn random(n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        loop {
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.5) {
                        edges.push((u, v));
                    }
                }
            }
            if !edges.is_empty() {
                return MaxCutProblem { n, edges };
            }
        }
    }

    /// Cut value of the partition given as a bitmask (bit `i` = vertex `i`
    /// in partition 1).
    pub fn cut_value(&self, partition: u64) -> u32 {
        self.edges
            .iter()
            .filter(|(u, v)| (partition >> u & 1) != (partition >> v & 1))
            .count() as u32
    }

    /// Exact maximum cut by enumeration (the baseline the analog solver is
    /// judged against).
    ///
    /// # Panics
    ///
    /// Panics for more than 24 vertices.
    pub fn max_cut_value(&self) -> u32 {
        assert!(self.n <= 24, "brute force limited to 24 vertices");
        (0..(1u64 << self.n))
            .map(|p| self.cut_value(p))
            .max()
            .unwrap_or(0)
    }
}

/// Which coupling edge type instantiates the problem edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CouplingKind {
    /// Ideal `Cpl` edges (the `obc` column of Table 1).
    Ideal,
    /// Offset-afflicted `Cpl_ofs` edges (the `offset-obc` column).
    Offset,
}

impl CouplingKind {
    fn edge_ty(self) -> &'static str {
        match self {
            CouplingKind::Ideal => "Cpl",
            CouplingKind::Offset => "Cpl_ofs",
        }
    }
}

/// Build the oscillator network for a max-cut instance. Oscillators get
/// seeded random initial phases in `(0, 2π)`; graph edges become `k = −1`
/// couplings of the requested kind; every oscillator carries its SHIL self
/// edge.
///
/// # Errors
///
/// Propagates construction errors (e.g. `Cpl_ofs` without the ofs-obc
/// language).
pub fn build_maxcut_network(
    lang: &Language,
    problem: &MaxCutProblem,
    coupling: CouplingKind,
    seed: u64,
) -> Result<Graph, FuncError> {
    let mut b = GraphBuilder::new(lang, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for i in 0..problem.n {
        let name = format!("osc{i}");
        b.node(&name, "Osc")?;
        b.set_init(&name, 0, rng.gen_range(0.0..(2.0 * PI)))?;
        b.edge(&format!("shil{i}"), "Cpl", &name, &name)?;
    }
    for (idx, (u, v)) in problem.edges.iter().enumerate() {
        let ename = format!("cpl{idx}");
        b.edge(
            &ename,
            coupling.edge_ty(),
            &format!("osc{u}"),
            &format!("osc{v}"),
        )?;
        b.set_attr(&ename, "k", -1.0)?;
    }
    b.finish()
}

/// Build the dense *parametric solver template* for `n`-vertex max-cut
/// instances: the complete graph `K_n` with every candidate coupling weight
/// `k` and every initial phase left as an explicit parameter slot (plus the
/// mismatch slots of `Cpl_ofs` offsets, when the offset coupling is
/// selected). One compile serves any `n`-vertex instance as a parameter
/// vector — `k = -1` on its edges, `k = 0` on the rest.
///
/// The Monte Carlo entry points no longer use this: absent edges still cost
/// instructions at `k = 0`, which made the dense template *slower* per step
/// than a rebuilt sparse instance (0.74× the rebuild path's speed on
/// sparse Table 1 cells). [`build_maxcut_sparse_template`] + per-topology-class
/// memoization replaced it; the dense form remains for workloads that
/// genuinely sweep over *all* topologies with one compile.
///
/// # Errors
///
/// Propagates construction errors (e.g. `Cpl_ofs` without the ofs-obc
/// language).
pub fn build_maxcut_template(
    lang: &Language,
    n: usize,
    coupling: CouplingKind,
) -> Result<ParametricGraph, FuncError> {
    let mut b = GraphBuilder::new_parametric(lang);
    for i in 0..n {
        let name = format!("osc{i}");
        b.node(&name, "Osc")?;
        b.set_init_param(&name, 0, 0.0)?;
        b.edge(&format!("shil{i}"), "Cpl", &name, &name)?;
    }
    for u in 0..n {
        for v in (u + 1)..n {
            let ename = format!("cpl_{u}_{v}");
            b.edge(
                &ename,
                coupling.edge_ty(),
                &format!("osc{u}"),
                &format!("osc{v}"),
            )?;
            b.set_attr_param(&ename, "k", 0.0)?;
        }
    }
    b.finish_parametric()
}

/// Build the *sparse* parametric solver template for one **topology
/// class** — a fixed edge set over `n` oscillators. Only the class's edges
/// exist (couplings baked in at `k = -1`, so they constant-fold like a
/// seeded build); the per-instance parameters are the `n` initial phases
/// plus the `Cpl_ofs` offset mismatch slots. Statement order matches
/// [`build_maxcut_network`] exactly, so
/// [`CompiledSystem::sample_params`]`(seed)` replays the same offset draws
/// and the compiled system reproduces the rebuild-per-seed solver **bit
/// for bit** — absent edges cost nothing.
///
/// # Errors
///
/// Propagates construction errors (e.g. `Cpl_ofs` without the ofs-obc
/// language).
pub fn build_maxcut_sparse_template(
    lang: &Language,
    n: usize,
    edges: &[(usize, usize)],
    coupling: CouplingKind,
) -> Result<ParametricGraph, FuncError> {
    let mut b = GraphBuilder::new_parametric(lang);
    for i in 0..n {
        let name = format!("osc{i}");
        b.node(&name, "Osc")?;
        b.set_init_param(&name, 0, 0.0)?;
        b.edge(&format!("shil{i}"), "Cpl", &name, &name)?;
    }
    for (idx, (u, v)) in edges.iter().enumerate() {
        let ename = format!("cpl{idx}");
        b.edge(
            &ename,
            coupling.edge_ty(),
            &format!("osc{u}"),
            &format!("osc{v}"),
        )?;
        b.set_attr(&ename, "k", -1.0)?;
    }
    b.finish_parametric()
}

/// One instance's parameter vector on a sparse class template: the seed's
/// mismatch (offset) draws with the initial-phase slots overwritten by the
/// same seeded rng stream [`build_maxcut_network`] uses — identical draws,
/// identical instance.
fn sparse_template_params(sys: &CompiledSystem, init_slots: &[usize], seed: u64) -> Vec<f64> {
    let mut params = sys.sample_params(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for &slot in init_slots {
        params[slot] = rng.gen_range(0.0..(2.0 * PI));
    }
    params
}

/// Read a solve outcome (phases → partition → cut) off a finished
/// trajectory at tolerance `d`.
fn read_outcome(
    sys: &CompiledSystem,
    problem: &MaxCutProblem,
    d: f64,
    tr: &ark_ode::Trajectory,
) -> MaxCutOutcome {
    let yf = tr.last().expect("nonempty trajectory").1;
    let phases: Vec<f64> = (0..problem.n)
        .map(|i| {
            wrap_phase(
                yf[sys
                    .state_index(&format!("osc{i}"))
                    .expect("oscillator state")],
            )
        })
        .collect();
    let partition = classify_phases(&phases, d);
    let optimum = problem.max_cut_value();
    let cut = partition.map(|p| problem.cut_value(p));
    MaxCutOutcome {
        phases,
        partition,
        cut,
        optimum,
    }
}

/// Outcome of one max-cut solve.
#[derive(Debug, Clone, PartialEq)]
pub struct MaxCutOutcome {
    /// Final oscillator phases, wrapped to `[0, 2π)`.
    pub phases: Vec<f64>,
    /// Partition read out at tolerance `d`, if every oscillator binarized.
    pub partition: Option<u64>,
    /// Cut value of the partition, when synchronized.
    pub cut: Option<u32>,
    /// The instance's true max-cut value.
    pub optimum: u32,
}

impl MaxCutOutcome {
    /// Did every oscillator land within the tolerance of 0 or π?
    pub fn synchronized(&self) -> bool {
        self.partition.is_some()
    }

    /// Did the readout achieve the optimal cut?
    pub fn solved(&self) -> bool {
        self.cut == Some(self.optimum)
    }
}

/// Classify final phases into a partition with deviation tolerance `d`
/// (radians): phase within `d` of 0 → partition 0, within `d` of π →
/// partition 1, otherwise unknown (readout fails).
pub fn classify_phases(phases: &[f64], d: f64) -> Option<u64> {
    let mut partition = 0u64;
    for (i, &p) in phases.iter().enumerate() {
        let p = wrap_phase(p);
        if phase_distance(p, PI) <= d {
            partition |= 1 << i;
        } else if phase_distance(p, 0.0) > d {
            return None;
        }
    }
    Some(partition)
}

/// Simulation length for the solver (several SHIL relaxation constants).
pub const SOLVE_TIME: f64 = 5e-8;
/// Fixed integration step (stable for the `C1`, `C2` constants and small
/// degrees).
pub const SOLVE_DT: f64 = 1e-10;

/// Solve one instance: build, simulate, and read out at tolerance `d`.
///
/// # Errors
///
/// Propagates build/compile/integration failures.
pub fn solve(
    lang: &Language,
    problem: &MaxCutProblem,
    coupling: CouplingKind,
    d: f64,
    seed: u64,
) -> Result<MaxCutOutcome, crate::DynError> {
    let graph = build_maxcut_network(lang, problem, coupling, seed)?;
    let sys = CompiledSystem::compile(lang, &graph)?;
    let tr =
        Rk4 { dt: SOLVE_DT }.integrate(&sys.bind(), 0.0, &sys.initial_state(), SOLVE_TIME, 50)?;
    let yf = tr.last().expect("nonempty trajectory").1;
    let phases: Vec<f64> = (0..problem.n)
        .map(|i| {
            wrap_phase(
                yf[sys
                    .state_index(&format!("osc{i}"))
                    .expect("oscillator state")],
            )
        })
        .collect();
    let partition = classify_phases(&phases, d);
    let optimum = problem.max_cut_value();
    let cut = partition.map(|p| problem.cut_value(p));
    Ok(MaxCutOutcome {
        phases,
        partition,
        cut,
        optimum,
    })
}

/// One row of Table 1: synchronization and solve probabilities over
/// `trials` random `n`-vertex graphs at tolerance `d`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Fraction of trials whose phases all binarized (percent).
    pub sync_pct: f64,
    /// Fraction of trials that returned an optimal cut (percent).
    pub solved_pct: f64,
}

/// Run a Table 1 cell: `trials` random `n`-vertex instances of the solver,
/// serially. Thin wrapper over [`table1_cell_with`] — results are identical
/// for any worker count.
///
/// # Errors
///
/// Propagates any solve failure.
pub fn table1_cell(
    lang: &Language,
    coupling: CouplingKind,
    d: f64,
    n: usize,
    trials: usize,
    base_seed: u64,
) -> Result<Table1Row, crate::DynError> {
    table1_cell_with(
        lang,
        coupling,
        d,
        n,
        trials,
        base_seed,
        &ark_sim::Ensemble::serial(),
    )
}

/// The full per-trial outcomes behind a Table 1 cell, on the `ark-sim`
/// engine with **per-topology-class sparse templates**: trials are grouped
/// by their random graph's edge set, one sparse solver template
/// ([`build_maxcut_sparse_template`]) is compiled and memoized per distinct
/// class (at most `min(trials, 2^(n(n-1)/2))` compiles for a whole Monte
/// Carlo), and each class's trials run as a lane-batched compile-once
/// sub-ensemble. Absent edges therefore cost no instructions — closing the
/// dense-`K_n` 0.74× gap — and every trial is **bit-identical to the
/// rebuild-per-seed [`solve`] path** (same mismatch draws, same initial
/// phases, same folded couplings).
///
/// Outcomes come back in trial (seed) order, independent of the worker
/// count and lane width.
///
/// # Errors
///
/// A template build/compile failure, or the first solve failure (by trial
/// order within the first failing topology class; classes are processed in
/// deterministic edge-set order).
pub fn table1_outcomes(
    lang: &Language,
    coupling: CouplingKind,
    d: f64,
    n: usize,
    trials: usize,
    base_seed: u64,
    ens: &ark_sim::Ensemble,
) -> Result<Vec<MaxCutOutcome>, crate::DynError> {
    let seeds = ark_sim::seed_range(base_seed, trials);
    let problems: Vec<MaxCutProblem> = seeds
        .iter()
        .map(|&seed| MaxCutProblem::random(n, seed))
        .collect();
    // Topology classes: trials keyed by their edge set. BTreeMap gives a
    // deterministic class order for compilation and error reporting.
    let mut classes: std::collections::BTreeMap<&[(usize, usize)], Vec<usize>> =
        std::collections::BTreeMap::new();
    for (i, p) in problems.iter().enumerate() {
        classes.entry(&p.edges).or_default().push(i);
    }
    let mut results: Vec<Option<MaxCutOutcome>> = (0..trials).map(|_| None).collect();
    for (edges, trial_idxs) in &classes {
        // Compile once per class, reused by every trial in it.
        let pg = build_maxcut_sparse_template(lang, n, edges, coupling)?;
        let sys = CompiledSystem::compile_parametric(lang, &pg)?;
        let init_slots: Vec<usize> = (0..n)
            .map(|i| {
                sys.param_index_init(&format!("osc{i}"), 0)
                    .expect("template records an init slot per oscillator")
            })
            .collect();
        let class_problem = MaxCutProblem {
            n,
            edges: edges.to_vec(),
        };
        let class_seeds: Vec<u64> = trial_idxs.iter().map(|&i| seeds[i]).collect();
        let outcomes = ens
            .run(&sys, &Rk4 { dt: SOLVE_DT }, &class_seeds, 0.0, SOLVE_TIME)
            .stride(50)
            .params(|seed| sparse_template_params(&sys, &init_slots, seed))
            .map(|_seed, _params, tr, _scratch| {
                Ok::<_, crate::DynError>(read_outcome(&sys, &class_problem, d, &tr))
            })?;
        for (&i, outcome) in trial_idxs.iter().zip(outcomes) {
            results[i] = Some(outcome);
        }
    }
    Ok(results
        .into_iter()
        .map(|o| o.expect("every trial belongs to exactly one class"))
        .collect())
}

/// The Table 1 Monte Carlo on the `ark-sim` engine: aggregate
/// synchronization/solve probabilities over [`table1_outcomes`] (see there
/// for the per-topology-class compile memoization). Bit-identical for any
/// worker count and lane width.
///
/// # Errors
///
/// As [`table1_outcomes`].
pub fn table1_cell_with(
    lang: &Language,
    coupling: CouplingKind,
    d: f64,
    n: usize,
    trials: usize,
    base_seed: u64,
    ens: &ark_sim::Ensemble,
) -> Result<Table1Row, crate::DynError> {
    let outcomes = table1_outcomes(lang, coupling, d, n, trials, base_seed, ens)?;
    let synced = outcomes.iter().filter(|o| o.synchronized()).count();
    let solved = outcomes.iter().filter(|o| o.solved()).count();
    Ok(Table1Row {
        sync_pct: 100.0 * synced as f64 / trials as f64,
        solved_pct: 100.0 * solved as f64 / trials as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obc::{obc_language, ofs_obc_language};

    #[test]
    fn random_graphs_are_seeded_and_nonempty() {
        let a = MaxCutProblem::random(4, 1);
        let b = MaxCutProblem::random(4, 1);
        assert_eq!(a, b);
        assert!(!a.edges.is_empty());
        let c = MaxCutProblem::random(4, 2);
        // Different seeds generally differ (this pair does).
        assert_ne!(a, c);
    }

    #[test]
    fn cut_value_and_brute_force() {
        // Path 0-1-2: max cut = 2 (middle vs ends).
        let p = MaxCutProblem {
            n: 3,
            edges: vec![(0, 1), (1, 2)],
        };
        assert_eq!(p.cut_value(0b010), 2);
        assert_eq!(p.cut_value(0b001), 1);
        assert_eq!(p.max_cut_value(), 2);
        // Triangle: max cut = 2.
        let t = MaxCutProblem {
            n: 3,
            edges: vec![(0, 1), (1, 2), (0, 2)],
        };
        assert_eq!(t.max_cut_value(), 2);
        // K4: max cut = 4.
        let k4 = MaxCutProblem {
            n: 4,
            edges: vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        };
        assert_eq!(k4.max_cut_value(), 4);
    }

    #[test]
    fn classify_phases_tolerances() {
        let d = 0.01 * PI;
        assert_eq!(classify_phases(&[0.0, PI], d), Some(0b10));
        assert_eq!(classify_phases(&[0.005, PI - 0.005], d), Some(0b10));
        // 0.1 rad off at d = 0.01π (≈0.031) → unknown.
        assert_eq!(classify_phases(&[0.1, PI], d), None);
        // ...but fine at d = 0.1π.
        assert_eq!(classify_phases(&[0.1, PI], 0.1 * PI), Some(0b10));
        // Wrap-around near 2π counts as partition 0.
        assert_eq!(classify_phases(&[2.0 * PI - 0.005], d), Some(0));
    }

    #[test]
    fn solver_solves_a_path_graph() {
        let lang = obc_language();
        let p = MaxCutProblem {
            n: 3,
            edges: vec![(0, 1), (1, 2)],
        };
        let out = solve(&lang, &p, CouplingKind::Ideal, 0.01 * PI, 42).unwrap();
        assert!(out.synchronized(), "phases {:?}", out.phases);
        assert!(out.solved(), "cut {:?} vs optimum {}", out.cut, out.optimum);
    }

    #[test]
    fn ideal_solver_mostly_syncs_and_solves() {
        let lang = obc_language();
        let row = table1_cell(&lang, CouplingKind::Ideal, 0.01 * PI, 4, 30, 100).unwrap();
        assert!(row.sync_pct >= 80.0, "sync {}", row.sync_pct);
        assert!(row.solved_pct >= 70.0, "solved {}", row.solved_pct);
        assert!(row.solved_pct <= row.sync_pct + 1e-9);
    }

    #[test]
    fn offset_hurts_at_tight_tolerance_and_recovers_at_loose() {
        // The Table 1 shape, at reduced trial count.
        let base = obc_language();
        let ofs = ofs_obc_language(&base);
        let tight_ideal = table1_cell(&ofs, CouplingKind::Ideal, 0.01 * PI, 4, 30, 500).unwrap();
        let tight_ofs = table1_cell(&ofs, CouplingKind::Offset, 0.01 * PI, 4, 30, 500).unwrap();
        let loose_ofs = table1_cell(&ofs, CouplingKind::Offset, 0.1 * PI, 4, 30, 500).unwrap();
        assert!(
            tight_ofs.sync_pct < tight_ideal.sync_pct - 15.0,
            "offset should hurt: ideal {} vs offset {}",
            tight_ideal.sync_pct,
            tight_ofs.sync_pct
        );
        assert!(
            loose_ofs.sync_pct > tight_ofs.sync_pct + 15.0,
            "wider d should recover: {} -> {}",
            tight_ofs.sync_pct,
            loose_ofs.sync_pct
        );
    }

    /// The sparse per-class templates reproduce the rebuild-per-seed
    /// [`solve`] path bit for bit: same mismatch draws, same initial
    /// phases, same folded couplings — for both coupling kinds.
    #[test]
    fn sparse_class_templates_match_rebuild_path_exactly() {
        let base = obc_language();
        let ofs = ofs_obc_language(&base);
        let d = 0.1 * PI;
        for coupling in [CouplingKind::Ideal, CouplingKind::Offset] {
            let outcomes =
                table1_outcomes(&ofs, coupling, d, 4, 10, 300, &ark_sim::Ensemble::new(2)).unwrap();
            for (k, outcome) in outcomes.iter().enumerate() {
                let seed = 300 + k as u64;
                let problem = MaxCutProblem::random(4, seed);
                let reference = solve(&ofs, &problem, coupling, d, seed).unwrap();
                assert_eq!(outcome, &reference, "{coupling:?} seed {seed}");
            }
        }
    }

    #[test]
    fn parallel_cell_matches_serial() {
        let lang = obc_language();
        let serial = table1_cell(&lang, CouplingKind::Ideal, 0.01 * PI, 4, 12, 77).unwrap();
        for workers in [2, 4] {
            let par = table1_cell_with(
                &lang,
                CouplingKind::Ideal,
                0.01 * PI,
                4,
                12,
                77,
                &ark_sim::Ensemble::new(workers),
            )
            .unwrap();
            assert_eq!(serial, par, "workers {workers}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let lang = obc_language();
        let p = MaxCutProblem::random(4, 9);
        let a = solve(&lang, &p, CouplingKind::Ideal, 0.01 * PI, 9).unwrap();
        let b = solve(&lang, &p, CouplingKind::Ideal, 0.01 * PI, 9).unwrap();
        assert_eq!(a, b);
    }
}
