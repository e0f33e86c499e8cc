//! `maxcut_table1`: Table 1 — both couplings × T random 4-vertex graphs,
//! classified at d = 0.01π and d = 0.1π. Trials are grouped into topology
//! classes (63 per coupling), one compile and one small lane-batched
//! ensemble on the materializing `.map` terminal per class.

use crate::env::Stopwatch;
use crate::stats::Digest;
use crate::trace::{Layer, Recorder, Timed};
use crate::{reference, Config, DynError, Pass, Pipeline, Setup};
use ark_core::{CompiledSystem, Language};
use ark_ode::{wrap_phase, Rk4, Trajectory};
use ark_paradigms::maxcut::{
    build_maxcut_sparse_template, classify_phases, table1_outcomes, CouplingKind, MaxCutOutcome,
    MaxCutProblem, SOLVE_DT, SOLVE_TIME,
};
use ark_paradigms::obc::{obc_language, ofs_obc_language};
use ark_sim::{seed_range, Ensemble};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::f64::consts::PI;

/// Vertices per random graph.
const VERTICES: usize = 4;
/// Readout tolerances of Table 1's two rows.
const TOLERANCES: [f64; 2] = [0.01 * PI, 0.1 * PI];
/// Both columns of Table 1.
const COUPLINGS: [CouplingKind; 2] = [CouplingKind::Ideal, CouplingKind::Offset];
/// Trajectory stride of `table1_outcomes`.
const STRIDE: usize = 50;
/// Salt of the initial-phase stream (`build_maxcut_network`'s).
const PHASE_SALT: u64 = 0x9e37_79b9_7f4a_7c15;
/// Setups per untraced run (each about a millisecond).
const SETUPS: usize = 51;

/// The Table 1 pipeline.
pub struct Maxcut {
    ens: Ensemble,
    trials: usize,
    base_seed: u64,
}

/// `[coupling][tolerance] -> (synchronized, solved)` counts.
type Cells = [[(u64, u64); 2]; 2];

impl Maxcut {
    /// The pipeline for `cfg`.
    pub fn new(cfg: &Config) -> Self {
        Maxcut {
            ens: cfg.ensemble(),
            trials: cfg.scale.maxcut_trials,
            base_seed: cfg.seed_base(),
        }
    }

    fn language() -> Language {
        ofs_obc_language(&obc_language())
    }

    fn problems(&self) -> Vec<MaxCutProblem> {
        seed_range(self.base_seed, self.trials)
            .into_iter()
            .map(|seed| MaxCutProblem::random(VERTICES, seed))
            .collect()
    }

    /// Classify every outcome at both tolerances, digest the outcomes and
    /// the counts, and check the paper's shape.
    fn check(&self, outcomes: &[Vec<MaxCutOutcome>; 2]) -> (u64, Vec<String>, String) {
        let problems = self.problems();
        let mut cells: Cells = [[(0, 0); 2]; 2];
        let mut d = Digest::default();
        for (ci, per_coupling) in outcomes.iter().enumerate() {
            for (o, problem) in per_coupling.iter().zip(&problems) {
                for &phase in &o.phases {
                    d.f64(phase);
                }
                for (di, &tol) in TOLERANCES.iter().enumerate() {
                    if let Some(p) = classify_phases(&o.phases, tol) {
                        cells[ci][di].0 += 1;
                        cells[ci][di].1 += (problem.cut_value(p) == o.optimum) as u64;
                    }
                }
            }
        }
        for row in &cells {
            for &(synced, solved) in row {
                d.u64(synced);
                d.u64(solved);
            }
        }
        let pct = |x: u64| 100.0 * x as f64 / self.trials.max(1) as f64;
        let gap = pct(cells[0][0].0) - pct(cells[1][0].0);
        let recovered = pct(cells[1][1].0);
        let mut violations = Vec::new();
        if gap <= 15.0 {
            violations.push(format!(
                "offset coupling loses {gap:.1} points at d = 0.01π, not more than 15"
            ));
        }
        if recovered <= 85.0 {
            violations.push(format!(
                "offset coupling syncs {recovered:.1}% at d = 0.1π, not above 85%"
            ));
        }
        let summary = format!(
            "{{\"sync_pct\":[[{},{}],[{},{}]],\"solved_pct\":[[{},{}],[{},{}]]}}",
            pct(cells[0][0].0),
            pct(cells[0][1].0),
            pct(cells[1][0].0),
            pct(cells[1][1].0),
            pct(cells[0][0].1),
            pct(cells[0][1].1),
            pct(cells[1][0].1),
            pct(cells[1][1].1),
        );
        (d.finish(), violations, summary)
    }

    /// `table1_outcomes` rebuilt from public pieces, every layer recorded.
    fn outcomes_traced(
        &self,
        rec: &Recorder,
        lang: &Language,
        coupling: CouplingKind,
        parent: usize,
    ) -> Result<Vec<MaxCutOutcome>, DynError> {
        let seeds = seed_range(self.base_seed, self.trials);
        let (problems, classes) =
            rec.span("problems", Some(Layer::Graph), Some(parent), None, |_| {
                let problems = self.problems();
                let mut classes: BTreeMap<Vec<(usize, usize)>, Vec<usize>> = BTreeMap::new();
                for (i, p) in problems.iter().enumerate() {
                    classes.entry(p.edges.clone()).or_default().push(i);
                }
                (problems, classes)
            });
        let mut results: Vec<Option<MaxCutOutcome>> = vec![None; self.trials];
        for (edges, idxs) in &classes {
            let pg = rec.span(
                "build_maxcut_sparse_template",
                Some(Layer::Graph),
                Some(parent),
                None,
                |_| build_maxcut_sparse_template(lang, VERTICES, edges, coupling),
            )?;
            let (sys, init_slots) = rec.span(
                "compile_parametric",
                Some(Layer::Compile),
                Some(parent),
                None,
                |_| {
                    let sys = CompiledSystem::compile_parametric(lang, &pg)?;
                    let slots: Vec<usize> = (0..VERTICES)
                        .map(|i| {
                            sys.param_index_init(&format!("osc{i}"), 0)
                                .expect("template records an init slot per oscillator")
                        })
                        .collect();
                    Ok::<_, DynError>((sys, slots))
                },
            )?;
            rec.count(|c| {
                c.compiles += 1;
                c.rhs_instrs += sys.rhs_instruction_count() as u64;
                c.obs_instrs += sys.obs_program().len() as u64;
                c.rhs_regs += sys.rhs_register_count() as u64;
            });
            let class_problem = &problems[idxs[0]];
            let class_seeds: Vec<u64> = idxs.iter().map(|&i| seeds[i]).collect();
            let solver = Timed {
                inner: Rk4 { dt: SOLVE_DT },
                rec,
            };
            let outcomes = rec.region("ensemble", Some(parent), None, |_| {
                self.ens
                    .run(&sys, &solver, &class_seeds, 0.0, SOLVE_TIME)
                    .stride(STRIDE)
                    .params(|seed| rec.time(Layer::Prep, || class_params(&sys, &init_slots, seed)))
                    .map(|_seed, _params, tr, _scratch| {
                        rec.time(Layer::Readout, || {
                            Ok::<_, DynError>(read_outcome(&sys, class_problem, TOLERANCES[0], &tr))
                        })
                    })
            })?;
            rec.reduce_serial(outcomes.len() as u64, || {
                for (&i, o) in idxs.iter().zip(outcomes) {
                    results[i] = Some(o);
                }
            });
        }
        Ok(results
            .into_iter()
            .map(|o| o.expect("every trial belongs to exactly one class"))
            .collect())
    }
}

/// One trial's parameters on its class template: the seed's mismatch
/// draws with the initial phases from the network builder's stream.
fn class_params(sys: &CompiledSystem, init_slots: &[usize], seed: u64) -> Vec<f64> {
    let mut params = sys.sample_params(seed);
    let mut rng = StdRng::seed_from_u64(seed ^ PHASE_SALT);
    for &slot in init_slots {
        params[slot] = rng.gen_range(0.0..(2.0 * PI));
    }
    params
}

/// Phases → partition → cut at tolerance `d`, off a finished trajectory.
fn read_outcome(
    sys: &CompiledSystem,
    problem: &MaxCutProblem,
    d: f64,
    tr: &Trajectory,
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

impl Pipeline for Maxcut {
    fn setup_reps(&self) -> usize {
        SETUPS
    }

    fn setup(&mut self, _rep: usize) -> Result<Setup, DynError> {
        let start = Stopwatch::start();
        let lang = Self::language();
        let problems = self.problems();
        let first = problems
            .iter()
            .map(|p| &p.edges)
            .min()
            .expect("at least one trial");
        let pg = build_maxcut_sparse_template(&lang, VERTICES, first, COUPLINGS[0])?;
        CompiledSystem::compile_parametric(&lang, &pg)?;
        Ok(Setup {
            total: start.lap(),
            codegen_s: 0.0,
        })
    }

    fn pass(&mut self) -> Result<Pass, DynError> {
        let start = Stopwatch::start();
        let lang = Self::language();
        let mut inst_ms = Vec::new();
        let mut outcomes = [Vec::new(), Vec::new()];
        for (slot, coupling) in outcomes.iter_mut().zip(COUPLINGS) {
            let call = Stopwatch::start();
            *slot = table1_outcomes(
                &lang,
                coupling,
                TOLERANCES[0],
                VERTICES,
                self.trials,
                self.base_seed,
                &self.ens,
            )?;
            inst_ms.push(call.lap().s * 1e3 * self.ens.workers() as f64 / self.trials as f64);
        }
        let (digest, violations, summary) = self.check(&outcomes);
        Ok(Pass {
            wall: start.lap(),
            instances: (COUPLINGS.len() * self.trials) as u64,
            failed: 0,
            inst_ms,
            digest,
            violations,
            summary,
        })
    }

    fn traced(&mut self, rec: &Recorder) -> Result<Pass, DynError> {
        let start = Stopwatch::start();
        let outcomes = rec.span("table1", None, None, None, |root| {
            let lang = rec.span("languages", Some(Layer::Lang), Some(root), None, |_| {
                Self::language()
            });
            let mut outcomes = [Vec::new(), Vec::new()];
            for (slot, coupling) in outcomes.iter_mut().zip(COUPLINGS) {
                *slot = rec.span("table1_outcomes", None, Some(root), None, |id| {
                    self.outcomes_traced(rec, &lang, coupling, id)
                })?;
            }
            Ok::<_, DynError>(outcomes)
        })?;
        let (digest, violations, summary) =
            rec.span("check", Some(Layer::Check), None, None, |_| {
                self.check(&outcomes)
            });
        Ok(Pass {
            wall: start.lap(),
            instances: (COUPLINGS.len() * self.trials) as u64,
            failed: 0,
            inst_ms: Vec::new(),
            digest,
            violations,
            summary,
        })
    }

    fn reference(&self) -> u64 {
        reference::MAXCUT_TABLE1
    }
}
