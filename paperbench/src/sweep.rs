//! `design_sweep`: the §4.5 campaign — M random GmC-TLN designs, one design
//! per ensemble job: generate → validate → compile → RK4 → synthesize →
//! transient → RMSE.

use crate::env::{thread_cpu_ns, Stopwatch};
use crate::stats::Digest;
use crate::trace::{Layer, Recorder, Timed};
use crate::{reference, Config, DynError, Pass, Pipeline, Setup};
use ark_core::{validate, CompiledSystem, ExternRegistry, Graph, Language};
use ark_ode::{relative_rmse, OdeWorkspace, Rk4, Solver, Strided};
use ark_paradigms::tln::{gmc_tln_language, tln_language};
use ark_sim::{seed_range, Ensemble};
use ark_spice::synth::synthesize;
use ark_spice::validate::{dg_vs_netlist_rmse, random_gmc_tline};
use std::time::Instant;

/// Simulated time per design (the `spice_validation` campaign's).
const T_END: f64 = 2e-8;
/// Step of both the RK4 and the trapezoidal transient.
const DT: f64 = 4e-11;
/// Trajectory stride of `dg_vs_netlist_rmse`.
const STRIDE: usize = 4;
/// Samples per state of the RMSE comparison.
const RMSE_SAMPLES: usize = 200;
/// Setups per untraced run (each well under a millisecond).
const SETUPS: usize = 51;

/// One design's result.
#[derive(Debug, Clone, Copy)]
struct Design {
    valid: bool,
    rmse: f64,
    ms: f64,
}

/// The design-sweep pipeline.
pub struct Sweep {
    ens: Ensemble,
    seeds: Vec<u64>,
}

impl Sweep {
    /// The pipeline for `cfg`.
    pub fn new(cfg: &Config) -> Self {
        Sweep {
            ens: cfg.ensemble(),
            seeds: seed_range(cfg.seed_base(), cfg.scale.designs),
        }
    }

    fn languages() -> Language {
        gmc_tln_language(&tln_language())
    }

    fn check(&self, designs: &[Design]) -> (u64, Vec<String>, String) {
        let mut d = Digest::default();
        let mut violations = Vec::new();
        let mut worst: f64 = 0.0;
        for (&seed, r) in self.seeds.iter().zip(designs) {
            d.u64(r.valid as u64);
            d.f64(r.rmse);
            if !r.valid {
                violations.push(format!("design {seed} is not a valid Ark graph"));
            }
            if r.rmse.is_nan() || r.rmse >= 0.01 {
                violations.push(format!("design {seed}: RMSE {} is not under 1%", r.rmse));
            }
            worst = worst.max(r.rmse);
        }
        let mean = designs.iter().map(|r| r.rmse).sum::<f64>() / designs.len().max(1) as f64;
        let summary = format!(
            "{{\"designs\":{},\"worst_rmse\":{worst},\"mean_rmse\":{mean}}}",
            designs.len()
        );
        (d.finish(), violations, summary)
    }

    /// One design through `dg_vs_netlist_rmse`'s pieces, each layer recorded.
    fn design_traced(
        rec: &Recorder,
        lang: &Language,
        seed: u64,
        parent: usize,
    ) -> Result<Design, DynError> {
        rec.span("design", None, Some(parent), Some(seed), |id| {
            let graph = rec.span(
                "random_gmc_tline",
                Some(Layer::Graph),
                Some(id),
                Some(seed),
                |_| random_gmc_tline(lang, seed),
            )?;
            let valid = rec
                .span(
                    "validate",
                    Some(Layer::Validate),
                    Some(id),
                    Some(seed),
                    |_| validate(lang, &graph, &ExternRegistry::new()),
                )?
                .is_valid();
            let sys = rec.span(
                "compile",
                Some(Layer::Compile),
                Some(id),
                Some(seed),
                |_| CompiledSystem::compile(lang, &graph),
            )?;
            rec.count(|c| {
                c.compiles += 1;
                c.rhs_instrs += sys.rhs_instruction_count() as u64;
                c.obs_instrs += sys.obs_program().len() as u64;
                c.rhs_regs += sys.rhs_register_count() as u64;
            });
            let dg = rec.span("integrate", None, Some(id), Some(seed), |_| {
                let y0 = rec.time(Layer::Prep, || sys.initial_state());
                let mut obs = Strided::every(STRIDE);
                Timed {
                    inner: Rk4 { dt: DT },
                    rec,
                }
                .solve(
                    &sys.bind(),
                    0.0,
                    &y0,
                    T_END,
                    &mut obs,
                    &mut OdeWorkspace::new(y0.len()),
                )
                .map(|_| obs.into_trajectory())
            })?;
            let nl = rec.span(
                "synthesize",
                Some(Layer::SpiceSynth),
                Some(id),
                Some(seed),
                |_| synthesize(lang, &graph),
            )?;
            let tr = rec.span(
                "transient",
                Some(Layer::SpiceTransient),
                Some(id),
                Some(seed),
                |_| nl.transient(T_END, DT, STRIDE),
            )?;
            let rmse = rec.time(Layer::Readout, || worst_rmse(&graph, &sys, &dg, &nl, &tr));
            Ok(Design {
                valid,
                rmse,
                ms: 0.0,
            })
        })
    }
}

/// `dg_vs_netlist_rmse`'s comparison: the worst per-state relative RMSE,
/// skipping states that never carry signal.
fn worst_rmse(
    graph: &Graph,
    sys: &CompiledSystem,
    dg: &ark_ode::Trajectory,
    nl: &ark_spice::netlist::Netlist,
    nl_tr: &ark_ode::Trajectory,
) -> f64 {
    let mut worst: f64 = 0.0;
    for (_, node) in graph.nodes() {
        let (Some(dg_idx), Some(nl_idx)) = (sys.state_index(&node.name), nl.node_index(&node.name))
        else {
            continue;
        };
        let s = dg.resample(dg_idx, 0.0, T_END, RMSE_SAMPLES);
        let ref_rms = (s.iter().map(|x| x * x).sum::<f64>() / s.len() as f64).sqrt();
        if ref_rms < 1e-6 {
            continue;
        }
        worst = worst.max(relative_rmse(
            dg,
            dg_idx,
            nl_tr,
            nl_idx,
            0.0,
            T_END,
            RMSE_SAMPLES,
        ));
    }
    worst
}

impl Pipeline for Sweep {
    fn setup_reps(&self) -> usize {
        SETUPS
    }

    /// Each setup takes a different first design, so the median does not
    /// hinge on one random design's size.
    fn setup(&mut self, rep: usize) -> Result<Setup, DynError> {
        let start = Stopwatch::start();
        let lang = Self::languages();
        let graph = random_gmc_tline(&lang, self.seeds[rep % self.seeds.len()])?;
        validate(&lang, &graph, &ExternRegistry::new())?;
        CompiledSystem::compile(&lang, &graph)?;
        Ok(Setup {
            total: start.lap(),
            codegen_s: 0.0,
        })
    }

    fn pass(&mut self) -> Result<Pass, DynError> {
        let start = Stopwatch::start();
        let lang = Self::languages();
        let designs = self.ens.try_map(&self.seeds, |seed| {
            // A design is one job on one worker thread: its latency on a CPU
            // of its own is the thread's CPU time, which hypervisor steal —
            // bursts far shorter than a pass, landing in the tail — leaves
            // out. Wall time stands in where that clock is missing.
            let (wall, cpu) = (Instant::now(), thread_cpu_ns());
            let graph = random_gmc_tline(&lang, seed)?;
            let valid = validate(&lang, &graph, &ExternRegistry::new())?.is_valid();
            let rmse = dg_vs_netlist_rmse(&lang, &graph, T_END, DT)?;
            let ms = match (cpu, thread_cpu_ns()) {
                (Some(a), Some(b)) => (b - a) as f64 / 1e6,
                _ => wall.elapsed().as_secs_f64() * 1e3,
            };
            Ok::<_, DynError>(Design { valid, rmse, ms })
        })?;
        let (digest, violations, summary) = self.check(&designs);
        Ok(Pass {
            wall: start.lap(),
            instances: designs.len() as u64,
            failed: 0,
            inst_ms: designs.iter().map(|r| r.ms).collect(),
            digest,
            violations,
            summary,
        })
    }

    fn traced(&mut self, rec: &Recorder) -> Result<Pass, DynError> {
        let start = Stopwatch::start();
        let designs = rec.span("design_sweep", None, None, None, |root| {
            let lang = rec.span("languages", Some(Layer::Lang), Some(root), None, |_| {
                Self::languages()
            });
            let results = rec.region("ensemble", Some(root), None, |region| {
                self.ens.try_map(&self.seeds, |seed| {
                    Self::design_traced(rec, &lang, seed, region)
                })
            })?;
            Ok::<_, DynError>(rec.reduce_serial(results.len() as u64, || results))
        })?;
        let (digest, violations, summary) =
            rec.span("check", Some(Layer::Check), None, None, |_| {
                self.check(&designs)
            });
        Ok(Pass {
            wall: start.lap(),
            instances: designs.len() as u64,
            failed: 0,
            inst_ms: Vec::new(),
            digest,
            violations,
            summary,
        })
    }

    fn reference(&self) -> u64 {
        reference::DESIGN_SWEEP
    }
}
