//! # ark-ilp: 0/1 integer linear programming for the Ark validator
//!
//! The Ark dynamical-graph validator (paper §6, Algorithm 2) decides whether
//! a node is *described* by a validity pattern by solving a small 0/1 ILP:
//! binary variables assign each incident edge to a pattern clause, row sums
//! force every edge onto exactly one clause, and column sums enforce each
//! clause's cardinality bounds. This crate is the solver behind that check —
//! an exact branch-and-bound feasibility/optimization engine with unit
//! propagation, adequate for the small instances the validator produces and
//! cross-checked against brute-force enumeration by property tests.
//!
//! # Examples
//!
//! Assign 3 edges to 2 clauses, each edge to exactly one clause, clause 0
//! taking between 1 and 2 edges:
//!
//! ```
//! use ark_ilp::{Model, Cmp};
//!
//! let mut m = Model::new();
//! let vars: Vec<Vec<_>> = (0..3).map(|_| (0..2).map(|_| m.add_var()).collect()).collect();
//! for row in &vars {
//!     m.constrain(row.iter().map(|&v| (v, 1)), Cmp::Eq, 1); // one clause per edge
//! }
//! m.constrain(vars.iter().map(|r| (r[0], 1)), Cmp::Ge, 1);
//! m.constrain(vars.iter().map(|r| (r[0], 1)), Cmp::Le, 2);
//! assert!(m.solve().is_some());
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr.
#![forbid(unsafe_code)]

use std::fmt;

/// Identifier of a 0/1 variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `Σ aᵢxᵢ ≤ b`
    Le,
    /// `Σ aᵢxᵢ ≥ b`
    Ge,
    /// `Σ aᵢxᵢ = b`
    Eq,
}

#[derive(Debug, Clone)]
struct Constraint {
    terms: Vec<(usize, i64)>,
    cmp: Cmp,
    rhs: i64,
}

impl Constraint {
    /// Bounds of the achievable sum given a partial assignment
    /// (`None` = unfixed).
    fn sum_bounds(&self, assign: &[Option<bool>]) -> (i64, i64) {
        let mut lo = 0;
        let mut hi = 0;
        for &(v, a) in &self.terms {
            match assign[v] {
                Some(true) => {
                    lo += a;
                    hi += a;
                }
                Some(false) => {}
                None => {
                    if a > 0 {
                        hi += a;
                    } else {
                        lo += a;
                    }
                }
            }
        }
        (lo, hi)
    }

    /// Check whether the constraint can still be satisfied.
    fn feasible(&self, assign: &[Option<bool>]) -> bool {
        let (lo, hi) = self.sum_bounds(assign);
        match self.cmp {
            Cmp::Le => lo <= self.rhs,
            Cmp::Ge => hi >= self.rhs,
            Cmp::Eq => lo <= self.rhs && hi >= self.rhs,
        }
    }

    fn satisfied(&self, values: &[bool]) -> bool {
        let sum: i64 = self
            .terms
            .iter()
            .map(|&(v, a)| if values[v] { a } else { 0 })
            .sum();
        match self.cmp {
            Cmp::Le => sum <= self.rhs,
            Cmp::Ge => sum >= self.rhs,
            Cmp::Eq => sum == self.rhs,
        }
    }
}

/// A 0/1 integer linear program.
#[derive(Debug, Clone, Default)]
pub struct Model {
    n_vars: usize,
    constraints: Vec<Constraint>,
}

/// Solver statistics returned alongside solutions by [`Model::solve_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of branch-and-bound nodes explored.
    pub nodes: u64,
    /// Number of assignments forced by unit propagation.
    pub propagations: u64,
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} propagations",
            self.nodes, self.propagations
        )
    }
}

impl Model {
    /// An empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Add a fresh 0/1 variable.
    pub fn add_var(&mut self) -> VarId {
        self.n_vars += 1;
        VarId(self.n_vars - 1)
    }

    /// Add `n` fresh variables, returned in order.
    pub fn add_vars(&mut self, n: usize) -> Vec<VarId> {
        (0..n).map(|_| self.add_var()).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.n_vars
    }

    /// Add a linear constraint `Σ aᵢxᵢ cmp rhs`.
    ///
    /// # Panics
    ///
    /// Panics if a term references an unknown variable.
    pub fn constrain<I: IntoIterator<Item = (VarId, i64)>>(
        &mut self,
        terms: I,
        cmp: Cmp,
        rhs: i64,
    ) {
        let terms: Vec<(usize, i64)> = terms
            .into_iter()
            .map(|(v, a)| {
                assert!(
                    v.0 < self.n_vars,
                    "constraint references unknown variable {v:?}"
                );
                (v.0, a)
            })
            .collect();
        self.constraints.push(Constraint { terms, cmp, rhs });
    }

    /// Fix a variable to a constant.
    pub fn fix(&mut self, var: VarId, value: bool) {
        self.constrain([(var, 1)], Cmp::Eq, i64::from(value));
    }

    /// Find any feasible assignment.
    pub fn solve(&self) -> Option<Vec<bool>> {
        self.solve_stats().0
    }

    /// Find any feasible assignment, returning solver statistics.
    pub fn solve_stats(&self) -> (Option<Vec<bool>>, Stats) {
        let mut assign = vec![None; self.n_vars];
        let mut stats = Stats::default();
        let sol = self.search(&mut assign, &mut stats);
        (sol, stats)
    }

    /// True when the model has at least one feasible assignment.
    pub fn is_feasible(&self) -> bool {
        self.solve().is_some()
    }

    /// Maximize `Σ cᵢxᵢ` over feasible assignments. Returns the optimum and
    /// one optimal assignment, or `None` when infeasible.
    pub fn maximize(&self, objective: &[(VarId, i64)]) -> Option<(i64, Vec<bool>)> {
        // Solve a sequence of feasibility problems with an improving
        // objective cut; terminates because the objective is integral and
        // bounded on {0,1}^n.
        let mut best: Option<(i64, Vec<bool>)> = None;
        let mut work = self.clone();
        loop {
            match work.solve() {
                None => return best,
                Some(sol) => {
                    let value: i64 = objective
                        .iter()
                        .map(|&(v, c)| if sol[v.0] { c } else { 0 })
                        .sum();
                    let improved = best.as_ref().map_or(true, |(b, _)| value > *b);
                    if improved {
                        best = Some((value, sol));
                    }
                    work.constrain(
                        objective.iter().copied(),
                        Cmp::Ge,
                        best.as_ref().expect("just set").0 + 1,
                    );
                }
            }
        }
    }

    /// Minimize `Σ cᵢxᵢ` over feasible assignments.
    pub fn minimize(&self, objective: &[(VarId, i64)]) -> Option<(i64, Vec<bool>)> {
        let negated: Vec<(VarId, i64)> = objective.iter().map(|&(v, c)| (v, -c)).collect();
        self.maximize(&negated).map(|(v, sol)| (-v, sol))
    }

    /// Verify a complete assignment against all constraints.
    pub fn check(&self, values: &[bool]) -> bool {
        values.len() == self.n_vars && self.constraints.iter().all(|c| c.satisfied(values))
    }

    fn search(&self, assign: &mut [Option<bool>], stats: &mut Stats) -> Option<Vec<bool>> {
        stats.nodes += 1;
        // Propagate forced assignments to a fixed point.
        let mut trail: Vec<usize> = Vec::new();
        loop {
            let mut changed = false;
            for c in &self.constraints {
                if !c.feasible(assign) {
                    for v in trail {
                        assign[v] = None;
                    }
                    return None;
                }
                for &(v, _) in &c.terms {
                    if assign[v].is_some() {
                        continue;
                    }
                    let mut can = [false, false];
                    for (i, b) in [false, true].into_iter().enumerate() {
                        assign[v] = Some(b);
                        can[i] = c.feasible(assign);
                        assign[v] = None;
                    }
                    match can {
                        [false, false] => {
                            for v in trail {
                                assign[v] = None;
                            }
                            return None;
                        }
                        [true, true] => {}
                        _ => {
                            assign[v] = Some(can[1]);
                            trail.push(v);
                            stats.propagations += 1;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Branch on the first unfixed variable (input order mirrors the
        // edge-major layout of validator instances, which branches well).
        match assign.iter().position(Option::is_none) {
            None => {
                let values: Vec<bool> = assign.iter().map(|x| x.expect("complete")).collect();
                if self.constraints.iter().all(|c| c.satisfied(&values)) {
                    Some(values)
                } else {
                    for v in trail {
                        assign[v] = None;
                    }
                    None
                }
            }
            Some(v) => {
                for b in [true, false] {
                    assign[v] = Some(b);
                    if let Some(sol) = self.search(assign, stats) {
                        return Some(sol);
                    }
                }
                assign[v] = None;
                for v in trail {
                    assign[v] = None;
                }
                None
            }
        }
    }

    /// Brute-force feasibility by enumerating all `2^n` assignments.
    /// Exposed for differential testing and the validator ablation bench.
    ///
    /// # Panics
    ///
    /// Panics if the model has more than 24 variables.
    pub fn solve_brute_force(&self) -> Option<Vec<bool>> {
        assert!(self.n_vars <= 24, "brute force limited to 24 variables");
        for mask in 0u64..(1u64 << self.n_vars) {
            let values: Vec<bool> = (0..self.n_vars).map(|i| mask >> i & 1 == 1).collect();
            if self.check(&values) {
                return Some(values);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_feasible() {
        let m = Model::new();
        assert!(m.is_feasible());
        assert_eq!(m.solve().unwrap(), Vec::<bool>::new());
    }

    #[test]
    fn single_var_eq() {
        let mut m = Model::new();
        let x = m.add_var();
        m.fix(x, true);
        assert_eq!(m.solve().unwrap(), vec![true]);
        let mut m2 = Model::new();
        let y = m2.add_var();
        m2.fix(y, false);
        assert_eq!(m2.solve().unwrap(), vec![false]);
    }

    #[test]
    fn contradiction_infeasible() {
        let mut m = Model::new();
        let x = m.add_var();
        m.fix(x, true);
        m.fix(x, false);
        assert!(m.solve().is_none());
    }

    #[test]
    fn exactly_one_of_three() {
        let mut m = Model::new();
        let vs = m.add_vars(3);
        m.constrain(vs.iter().map(|&v| (v, 1)), Cmp::Eq, 1);
        let sol = m.solve().unwrap();
        assert_eq!(sol.iter().filter(|&&b| b).count(), 1);
    }

    #[test]
    fn cardinality_window() {
        let mut m = Model::new();
        let vs = m.add_vars(5);
        m.constrain(vs.iter().map(|&v| (v, 1)), Cmp::Ge, 2);
        m.constrain(vs.iter().map(|&v| (v, 1)), Cmp::Le, 3);
        let sol = m.solve().unwrap();
        let k = sol.iter().filter(|&&b| b).count();
        assert!((2..=3).contains(&k));
    }

    #[test]
    fn negative_coefficients() {
        // x - y >= 1 forces x=1, y=0.
        let mut m = Model::new();
        let x = m.add_var();
        let y = m.add_var();
        m.constrain([(x, 1), (y, -1)], Cmp::Ge, 1);
        let sol = m.solve().unwrap();
        assert_eq!(sol, vec![true, false]);
    }

    #[test]
    fn assignment_matrix_like_validator() {
        // 4 edges × 2 clauses; each edge to exactly one clause; clause 0
        // takes exactly 1 edge; clause 1 takes between 2 and 3.
        let mut m = Model::new();
        let grid: Vec<Vec<VarId>> = (0..4).map(|_| m.add_vars(2)).collect();
        for row in &grid {
            m.constrain(row.iter().map(|&v| (v, 1)), Cmp::Eq, 1);
        }
        m.constrain(grid.iter().map(|r| (r[0], 1)), Cmp::Eq, 1);
        m.constrain(grid.iter().map(|r| (r[1], 1)), Cmp::Ge, 2);
        m.constrain(grid.iter().map(|r| (r[1], 1)), Cmp::Le, 3);
        let sol = m.solve().unwrap();
        assert!(m.check(&sol));
        // Infeasible variant: clause 1 capped at 2 → 1 + 2 < 4 edges.
        let mut m2 = Model::new();
        let grid: Vec<Vec<VarId>> = (0..4).map(|_| m2.add_vars(2)).collect();
        for row in &grid {
            m2.constrain(row.iter().map(|&v| (v, 1)), Cmp::Eq, 1);
        }
        m2.constrain(grid.iter().map(|r| (r[0], 1)), Cmp::Eq, 1);
        m2.constrain(grid.iter().map(|r| (r[1], 1)), Cmp::Le, 2);
        assert!(m2.solve().is_none());
    }

    #[test]
    fn maximize_knapsack() {
        // max 3x + 2y + 2z  s.t.  x + y + z <= 2
        let mut m = Model::new();
        let (x, y, z) = (m.add_var(), m.add_var(), m.add_var());
        m.constrain([(x, 1), (y, 1), (z, 1)], Cmp::Le, 2);
        let (best, sol) = m.maximize(&[(x, 3), (y, 2), (z, 2)]).unwrap();
        assert_eq!(best, 5);
        assert!(sol[x.0]);
        assert_eq!(sol.iter().filter(|&&b| b).count(), 2);
    }

    #[test]
    fn minimize_cover() {
        let mut m = Model::new();
        let (x, y) = (m.add_var(), m.add_var());
        m.constrain([(x, 1), (y, 1)], Cmp::Ge, 1);
        let (best, _) = m.minimize(&[(x, 1), (y, 1)]).unwrap();
        assert_eq!(best, 1);
    }

    #[test]
    fn maximize_infeasible_is_none() {
        let mut m = Model::new();
        let x = m.add_var();
        m.fix(x, true);
        m.fix(x, false);
        assert!(m.maximize(&[(x, 1)]).is_none());
    }

    #[test]
    fn stats_reported() {
        let mut m = Model::new();
        let vs = m.add_vars(6);
        m.constrain(vs.iter().map(|&v| (v, 1)), Cmp::Eq, 3);
        let (sol, stats) = m.solve_stats();
        assert!(sol.is_some());
        assert!(stats.nodes >= 1);
        assert!(format!("{stats}").contains("nodes"));
    }

    #[test]
    #[should_panic(expected = "unknown variable")]
    fn constraint_validates_vars() {
        let mut m = Model::new();
        m.constrain([(VarId(5), 1)], Cmp::Le, 1);
    }

    #[test]
    fn check_rejects_wrong_length() {
        let mut m = Model::new();
        m.add_var();
        assert!(!m.check(&[]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_model() -> impl Strategy<Value = Model> {
        (1usize..=8).prop_flat_map(|n| {
            let constraint = (
                proptest::collection::vec((0..n, -2i64..=2), 1..=n),
                prop_oneof![Just(Cmp::Le), Just(Cmp::Ge), Just(Cmp::Eq)],
                -3i64..=5,
            );
            proptest::collection::vec(constraint, 0..=6).prop_map(move |cs| {
                let mut m = Model::new();
                let vars = m.add_vars(n);
                for (terms, cmp, rhs) in cs {
                    m.constrain(terms.into_iter().map(|(i, a)| (vars[i], a)), cmp, rhs);
                }
                m
            })
        })
    }

    proptest! {
        /// Branch-and-bound agrees with brute force on feasibility, and any
        /// returned solution actually satisfies the model.
        #[test]
        fn solver_matches_brute_force(m in arb_model()) {
            let fast = m.solve();
            let slow = m.solve_brute_force();
            prop_assert_eq!(fast.is_some(), slow.is_some());
            if let Some(sol) = fast {
                prop_assert!(m.check(&sol));
            }
        }

        /// maximize() returns the true optimum (checked by enumeration).
        #[test]
        fn maximize_is_optimal(m in arb_model(), coeffs in proptest::collection::vec(-3i64..=3, 8)) {
            let objective: Vec<(VarId, i64)> =
                (0..m.num_vars()).map(|i| (VarId(i), coeffs[i])).collect();
            let fast = m.maximize(&objective);
            let mut best: Option<i64> = None;
            for mask in 0u64..(1u64 << m.num_vars()) {
                let values: Vec<bool> = (0..m.num_vars()).map(|i| mask >> i & 1 == 1).collect();
                if m.check(&values) {
                    let v: i64 = objective.iter().map(|&(v, c)| if values[v.0] { c } else { 0 }).sum();
                    best = Some(best.map_or(v, |b: i64| b.max(v)));
                }
            }
            match (fast, best) {
                (None, None) => {}
                (Some((v, sol)), Some(b)) => {
                    prop_assert_eq!(v, b);
                    prop_assert!(m.check(&sol));
                }
                (f, b) => prop_assert!(false, "solver {:?} vs brute {:?}", f.map(|x| x.0), b),
            }
        }
    }
}
