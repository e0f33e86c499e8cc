//! Graph coloring on oscillator networks — the second OBC application the
//! paper cites (§7.2 references Mallick et al., "Graph coloring using
//! coupled oscillator-based dynamical systems").
//!
//! For k-coloring, the second-harmonic injection of the max-cut solver is
//! replaced by a k-th-harmonic term `−C2·sin(k·φ)` that locks phases to
//! the k-th roots of unity `{0, 2π/k, ...}`; antiferromagnetic couplings
//! push adjacent vertices to *different* lattice points. This module
//! defines the `korder_obc` derived language (a new oscillator type with a
//! k-th-harmonic self rule) and the coloring workload with its
//! verification baseline — exercising Ark's claim that new compute
//! paradigm variants are cheap to codify.

use crate::maxcut::MaxCutProblem;
use ark_core::func::GraphBuilder;
use ark_core::lang::{Language, LanguageBuilder, NodeType, ProdRule, Reduction};
use ark_core::types::SigType;
use ark_core::{CompiledSystem, Graph};
use ark_expr::parse_expr;
use ark_ode::{integrate, phase_distance, wrap_phase, Rk4};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::{PI, TAU};

/// Build the `korder_obc` language: derives from the base OBC language and
/// adds an `OscK` oscillator whose self rule injects the `k`-th harmonic,
/// locking phases to `k` lattice points.
///
/// # Panics
///
/// Panics for `k < 2` or on an internal definition error.
pub fn korder_obc_language(base: &Language, k: usize) -> Language {
    assert!(k >= 2, "need at least two lattice points");
    LanguageBuilder::derive(format!("korder{k}_obc"), base)
        .node_type(
            NodeType::new("OscK", 1, Reduction::Sum)
                .inherit("Osc")
                .init_default(SigType::real(-100.0, 100.0), 0.0),
        )
        // k-th harmonic injection locking; replaces (and dominates) the
        // parent's 2nd-harmonic rule for OscK self edges.
        .prod(ProdRule::new(
            ("e", "Cpl"),
            ("s", "OscK"),
            ("s", "OscK"),
            "s",
            parse_expr(&format!("-1e9*sin({k}*var(s))")).expect("static rule"),
        ))
        .finish()
        .expect("korder-obc language definition is valid")
}

/// Outcome of a coloring attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoringOutcome {
    /// Color index per vertex (nearest phase lattice point).
    pub colors: Vec<usize>,
    /// Number of monochromatic ("conflict") edges.
    pub conflicts: usize,
}

impl ColoringOutcome {
    /// A proper coloring has no conflicting edge.
    pub fn is_proper(&self) -> bool {
        self.conflicts == 0
    }
}

/// Attempt to k-color `problem`'s graph with the oscillator network.
///
/// # Errors
///
/// Propagates build/compile/simulation failures.
pub fn color_graph(
    lang: &Language,
    problem: &MaxCutProblem,
    k: usize,
    seed: u64,
) -> Result<ColoringOutcome, Box<dyn std::error::Error>> {
    let graph = build_coloring_network(lang, problem, seed)?;
    let sys = CompiledSystem::compile(lang, &graph)?;
    let y0 = sys.initial_state();
    let tr = integrate(&Rk4 { dt: 1e-10 }, &sys.bind(), 0.0, &y0, 8e-8, 100)?;
    let yf = tr.last().expect("nonempty").1;
    let colors: Vec<usize> = (0..problem.n)
        .map(|i| {
            let phi = wrap_phase(yf[sys.state_index(&format!("osc{i}")).expect("state")]);
            // Nearest k-th root of unity.
            (0..k)
                .min_by(|&a, &b| {
                    let da = phase_distance(phi, TAU * a as f64 / k as f64);
                    let db = phase_distance(phi, TAU * b as f64 / k as f64);
                    da.partial_cmp(&db).expect("finite")
                })
                .expect("k >= 2")
        })
        .collect();
    let conflicts = problem
        .edges
        .iter()
        .filter(|(u, v)| colors[*u] == colors[*v])
        .count();
    Ok(ColoringOutcome { colors, conflicts })
}

fn build_coloring_network(
    lang: &Language,
    problem: &MaxCutProblem,
    seed: u64,
) -> Result<Graph, ark_core::FuncError> {
    let mut b = GraphBuilder::new(lang, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc01_0e11);
    for i in 0..problem.n {
        let name = format!("osc{i}");
        b.node(&name, "OscK")?;
        b.set_init(&name, 0, rng.gen_range(0.0..(2.0 * PI)))?;
        b.edge(&format!("shil{i}"), "Cpl", &name, &name)?;
    }
    for (idx, (u, v)) in problem.edges.iter().enumerate() {
        let e = format!("cpl{idx}");
        b.edge(&e, "Cpl", &format!("osc{u}"), &format!("osc{v}"))?;
        b.set_attr(&e, "k", -1.0)?;
    }
    b.finish()
}

/// Exact chromatic-number check by enumeration: is the graph k-colorable?
///
/// # Panics
///
/// Panics for graphs with more than 16 vertices.
pub fn is_k_colorable(problem: &MaxCutProblem, k: usize) -> bool {
    assert!(problem.n <= 16, "brute force limited to 16 vertices");
    let mut assign = vec![0usize; problem.n];
    fn rec(i: usize, assign: &mut [usize], problem: &MaxCutProblem, k: usize) -> bool {
        if i == assign.len() {
            return true;
        }
        'next: for c in 0..k {
            for &(u, v) in &problem.edges {
                let (a, b) = (u.min(v), u.max(v));
                if b == i && assign[a] == c {
                    continue 'next;
                }
            }
            assign[i] = c;
            if rec(i + 1, assign, problem, k) {
                return true;
            }
        }
        false
    }
    rec(0, &mut assign, problem, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obc::obc_language;

    #[test]
    fn korder_language_locks_to_k_lattice_points() {
        let base = obc_language();
        let l3 = korder_obc_language(&base, 3);
        assert!(l3.node_is_a("OscK", "Osc"));
        // A single free oscillator settles on a multiple of 2π/3.
        let mut b = GraphBuilder::new(&l3, 0);
        b.node("a", "OscK").unwrap();
        b.set_init("a", 0, 1.3).unwrap();
        b.edge("sa", "Cpl", "a", "a").unwrap();
        let g = b.finish().unwrap();
        let sys = CompiledSystem::compile(&l3, &g).unwrap();
        let y0 = sys.initial_state();
        let tr = integrate(&Rk4 { dt: 1e-11 }, &sys.bind(), 0.0, &y0, 2e-8, 100).unwrap();
        let phi = wrap_phase(tr.last().unwrap().1[0]);
        let nearest = (0..3)
            .map(|a| phase_distance(phi, TAU * a as f64 / 3.0))
            .fold(f64::INFINITY, f64::min);
        assert!(nearest < 1e-3, "phase {phi} not on the 3-lattice");
    }

    #[test]
    fn triangle_gets_three_colors() {
        // K3 needs exactly 3 colors; the 3-harmonic solver finds them.
        let base = obc_language();
        let l3 = korder_obc_language(&base, 3);
        let triangle = MaxCutProblem {
            n: 3,
            edges: vec![(0, 1), (1, 2), (0, 2)],
        };
        assert!(is_k_colorable(&triangle, 3));
        assert!(!is_k_colorable(&triangle, 2));
        let mut successes = 0;
        for seed in 0..5 {
            let out = color_graph(&l3, &triangle, 3, seed).unwrap();
            if out.is_proper() {
                successes += 1;
                let unique: std::collections::BTreeSet<_> = out.colors.iter().collect();
                assert_eq!(unique.len(), 3);
            }
        }
        assert!(
            successes >= 3,
            "triangle should usually 3-color ({successes}/5)"
        );
    }

    #[test]
    fn ring_of_four_two_colorable_graph_colors_with_three() {
        let base = obc_language();
        let l3 = korder_obc_language(&base, 3);
        let ring = MaxCutProblem {
            n: 4,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        };
        let mut best = usize::MAX;
        for seed in 0..5 {
            let out = color_graph(&l3, &ring, 3, seed).unwrap();
            best = best.min(out.conflicts);
        }
        assert_eq!(best, 0, "C4 should find a proper 3-coloring");
    }

    #[test]
    fn brute_force_colorability() {
        // K4 is 4-chromatic.
        let k4 = MaxCutProblem {
            n: 4,
            edges: vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        };
        assert!(!is_k_colorable(&k4, 3));
        assert!(is_k_colorable(&k4, 4));
        // Empty-ish graph is 1-colorable... but MaxCutProblem requires an
        // edge; a single edge is 2-colorable.
        let e = MaxCutProblem {
            n: 2,
            edges: vec![(0, 1)],
        };
        assert!(is_k_colorable(&e, 2));
        assert!(!is_k_colorable(&e, 1));
    }
}
