//! `cnn_yield` and `cnn_yield_native`: the Fig. 11 yield sweep — six
//! template-weight mismatch sigmas (`GMismatch`) × N fabricated 6×6 CNN
//! instances, one compile per sigma, streaming reduce.

use crate::env::Stopwatch;
use crate::stats::Digest;
use crate::trace::{Layer, Recorder, Timed, TimedReducer};
use crate::{reference, Config, DynError, Pass, Pipeline, Setup};
use ark_core::{Backend, CompiledSystem, Language};
use ark_expr::{CodegenCache, NativeStatus, Provenance, SystemProgram};
use ark_paradigms::cnn::{
    build_cnn_parametric, cnn_language, hw_cnn_language_sigma, run_cnn_yield, CnnYield,
    NonIdeality, EDGE_TEMPLATE,
};
use ark_paradigms::image::Image;
use ark_sim::reduce::{premap, Moments, Quantiles, YieldCounter, STREAM_BLOCK};
use ark_sim::{seed_range, Ensemble, RecoveryPolicy};
use std::path::{Path, PathBuf};

/// Template-weight mismatch sigmas of the sweep (the `fig11_yield` grid).
pub const SIGMAS: [f64; 6] = [0.02, 0.05, 0.10, 0.20, 0.40, 0.80];
/// Grid size of the CNN.
const SIZE: usize = 6;
/// Simulated time per instance.
const T_END: f64 = 2.0;
/// The fixed RK4 step `run_cnn_yield` integrates with.
const DT: f64 = 2e-3;
/// Seeds per sigma that the native run re-checks against the interpreter
/// on any seed.
const CROSS_CHECK_SEEDS: usize = 64;
/// Cold native setups per untraced run (each pays a full `rustc` build of
/// about 13 s, so two keep a run well inside its time budget).
const NATIVE_SETUPS: usize = 2;
/// Interpreter setups per untraced run.
const INTERP_SETUPS: usize = 51;

/// The CNN yield pipeline on one backend.
pub struct Cnn {
    backend: Backend,
    ens: Ensemble,
    seeds: Vec<u64>,
    input: Image,
    expected: Image,
    codegen_dir: PathBuf,
    work: PathBuf,
}

impl Cnn {
    /// The pipeline for `cfg`, with kernels built under `work`.
    pub fn new(cfg: &Config, work: &crate::env::WorkDir) -> Self {
        let input = Image::test_blob(SIZE, SIZE);
        Cnn {
            backend: cfg.workload.backend(),
            ens: cfg.ensemble(),
            seeds: seed_range(cfg.seed_base() + 11, cfg.scale.cnn_instances),
            expected: input.digital_edge_map(),
            input,
            codegen_dir: work.codegen_dir(),
            work: work.path().to_path_buf(),
        }
    }

    fn native(&self) -> bool {
        self.backend == Backend::Native
    }

    /// Threads one `run_cnn_yield` call keeps busy: one streaming block of
    /// seeds per job.
    fn threads_used(&self) -> f64 {
        self.ens
            .workers()
            .min(self.seeds.len().div_ceil(STREAM_BLOCK))
            .max(1) as f64
    }

    fn check(&self, curve: &[CnnYield]) -> (u64, u64, Vec<String>, String) {
        let mut violations = Vec::new();
        let mut failed = 0;
        let mut rows = Vec::new();
        for (sigma, y) in SIGMAS.iter().zip(curve) {
            failed += y.recovery.failed;
            let total = y.recovery.total();
            if total != self.seeds.len() as u64 {
                violations.push(format!(
                    "sigma {sigma}: {total} instances accounted for, {} attempted",
                    self.seeds.len()
                ));
            }
            let frac = y.counts.pass as f64 / total.max(1) as f64;
            rows.push(format!(
                "{{\"sigma\":{sigma},\"yield\":{frac},\"failed\":{},\"recovered\":{}}}",
                y.recovery.failed, y.recovery.recovered
            ));
        }
        let first = curve[0].counts.pass as f64 / curve[0].recovery.total().max(1) as f64;
        let last = curve[5].counts.pass as f64 / curve[5].recovery.total().max(1) as f64;
        if first < 0.99 {
            violations.push(format!("yield {first} at sigma 0.02 is below 0.99"));
        }
        if last > 0.01 {
            violations.push(format!("yield {last} at sigma 0.8 is above 0.01"));
        }
        let summary = format!("{{\"yield_curve\":[{}]}}", rows.join(","));
        (curve_digest(curve), failed, violations, summary)
    }

    /// The sweep composed from the crates' pieces on `backend`, every layer
    /// boundary recorded in `rec`; `cold` builds the first sigma's kernels
    /// from scratch and loads them through the programs' own status probe.
    fn sweep_pieces(
        &self,
        rec: &Recorder,
        backend: Backend,
        seeds: &[u64],
        cold: bool,
    ) -> Result<Vec<CnnYield>, DynError> {
        rec.span("cnn_yield", None, None, None, |root| {
            let base = rec.span("cnn_language", Some(Layer::Lang), Some(root), None, |_| {
                cnn_language()
            });
            let mut curve = Vec::new();
            for (i, &sigma) in SIGMAS.iter().enumerate() {
                let y = rec.span("sigma", None, Some(root), None, |parent| {
                    let hw = rec.span(
                        "hw_cnn_language_sigma",
                        Some(Layer::Lang),
                        Some(parent),
                        None,
                        |_| hw_cnn_language_sigma(&base, sigma),
                    );
                    let sys = self.compile_traced(rec, parent, &hw, backend)?;
                    if backend == Backend::Native {
                        if cold && i == 0 {
                            rec.span(
                                "codegen_prepare",
                                Some(Layer::CodegenBuild),
                                Some(parent),
                                None,
                                |_| cold_build(rec, &self.codegen_dir, &sys),
                            )?;
                        }
                        rec.span(
                            "native_status",
                            Some(Layer::CodegenLoad),
                            Some(parent),
                            None,
                            |_| require_native(&sys),
                        )?;
                    }
                    rec.region("ensemble", Some(parent), None, |_| {
                        self.yield_pieces(rec, &sys, seeds)
                    })
                })?;
                curve.push(y);
            }
            Ok(curve)
        })
    }

    fn compile_traced(
        &self,
        rec: &Recorder,
        parent: usize,
        hw: &Language,
        backend: Backend,
    ) -> Result<CompiledSystem, DynError> {
        let pcnn = rec.span(
            "build_cnn_parametric",
            Some(Layer::Graph),
            Some(parent),
            None,
            |_| build_cnn_parametric(hw, &self.input, &EDGE_TEMPLATE, NonIdeality::GMismatch),
        )?;
        let sys = rec.span(
            "compile_parametric",
            Some(Layer::Compile),
            Some(parent),
            None,
            |_| {
                CompiledSystem::compile_parametric(hw, &pcnn.pgraph)
                    .map(|s| s.with_backend(backend))
            },
        )?;
        rec.count(|c| {
            c.compiles += 1;
            c.rhs_instrs += sys.rhs_instruction_count() as u64;
            c.obs_instrs += sys.obs_program().len() as u64;
            c.rhs_regs += sys.rhs_register_count() as u64;
        });
        Ok(sys)
    }

    /// `run_cnn_yield_with`'s ensemble, rebuilt from public pieces with the
    /// solver, prep, extract and reducer instrumented.
    fn yield_pieces(
        &self,
        rec: &Recorder,
        sys: &CompiledSystem,
        seeds: &[u64],
    ) -> Result<CnnYield, DynError> {
        let pixels = SIZE * SIZE;
        let reducer = TimedReducer {
            inner: (
                Moments,
                Quantiles::new(-0.5, pixels as f64 + 0.5, pixels + 1),
                premap(|wrong: f64| wrong == 0.0, YieldCounter),
            ),
            rec,
        };
        let solver = Timed {
            inner: ark_ode::Rk4 { dt: DT },
            rec,
        };
        let policy = RecoveryPolicy::default();
        let ((wrong_pixels, wrong_histogram, counts), recovery) = self
            .ens
            .run(sys, &solver, seeds, 0.0, T_END)
            .prep(|seed| {
                rec.time(Layer::Prep, || {
                    let params = sys.sample_params(seed);
                    let y0 = sys.initial_state_for(&params);
                    (params, y0)
                })
            })
            .with_recovery(&policy)
            .reduce(
                |snap, scratch| {
                    rec.time(Layer::Readout, || {
                        let algs = sys.eval_algebraics_with_params(
                            snap.t,
                            snap.state,
                            snap.params,
                            scratch,
                        );
                        let out = Image::from_fn(SIZE, SIZE, |r, c| {
                            algs[sys
                                .algebraic_index(&format!("Out_{r}_{c}"))
                                .expect("Out node is algebraic")]
                        });
                        Ok::<_, DynError>(out.diff_count(&self.expected) as f64)
                    })
                },
                &reducer,
            )?;
        rec.count(|c| {
            c.recovered += recovery.recovered;
            c.failed += recovery.failed;
        });
        Ok(CnnYield {
            wrong_pixels,
            wrong_histogram,
            counts,
            recovery,
        })
    }
}

/// Digest of a yield curve: every accumulator bit of every sigma.
fn curve_digest(curve: &[CnnYield]) -> u64 {
    let mut d = Digest::default();
    for y in curve {
        digest_yield(&mut d, y);
    }
    d.finish()
}

fn digest_yield(d: &mut Digest, y: &CnnYield) {
    d.u64(y.counts.pass);
    d.u64(y.counts.total);
    d.u64(y.recovery.completed);
    d.u64(y.recovery.recovered);
    d.u64(y.recovery.failed);
    d.u64(y.wrong_pixels.count);
    d.f64(y.wrong_pixels.mean);
    d.f64(y.wrong_pixels.m2);
    for &c in y.wrong_histogram.counts() {
        d.u64(c);
    }
    d.u64(y.wrong_histogram.count_below());
    d.u64(y.wrong_histogram.count_above());
    d.u64(y.wrong_histogram.nan_count());
}

/// Fail unless both of `sys`'s programs run native code.
fn require_native(sys: &CompiledSystem) -> Result<(), DynError> {
    for (name, prog) in [("rhs", sys.rhs_program()), ("obs", sys.obs_program())] {
        match prog.native_status() {
            NativeStatus::Active => {}
            status => return Err(format!("{name} program is not native: {status}").into()),
        }
    }
    Ok(())
}

/// Build both programs' kernels in `dir`, which must be cold; counts the
/// kernels and their source size.
fn cold_build(rec: &Recorder, dir: &Path, sys: &CompiledSystem) -> Result<(), DynError> {
    let cache = CodegenCache::new(dir);
    let progs: [&SystemProgram; 2] = [sys.rhs_program(), sys.obs_program()];
    for prog in progs {
        let (_, provenance) = cache.prepare(prog)?;
        if provenance != Provenance::Compiled {
            return Err(format!(
                "codegen directory {} was not cold: {provenance:?}",
                dir.display()
            )
            .into());
        }
    }
    let mut kernels = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)?.flatten() {
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "rs") {
            kernels += 1;
            bytes += entry.metadata()?.len();
        }
    }
    rec.count(|c| {
        c.kernels_built += kernels;
        c.source_bytes += bytes;
    });
    Ok(())
}

impl Pipeline for Cnn {
    fn setup_reps(&self) -> usize {
        if self.native() {
            NATIVE_SETUPS
        } else {
            INTERP_SETUPS
        }
    }

    fn setup(&mut self, rep: usize) -> Result<Setup, DynError> {
        let start = Stopwatch::start();
        let base = cnn_language();
        let hw = hw_cnn_language_sigma(&base, SIGMAS[0]);
        let pcnn = build_cnn_parametric(&hw, &self.input, &EDGE_TEMPLATE, NonIdeality::GMismatch)?;
        let sys = CompiledSystem::compile_parametric(&hw, &pcnn.pgraph)?;
        let mut codegen_s = 0.0;
        if self.native() {
            let codegen = Stopwatch::start();
            // The first setup builds into the process-wide cache directory
            // the sweep loads from; later ones into fresh directories of
            // their own, so every setup pays the whole cold build.
            let dir = if rep == 0 {
                self.codegen_dir.clone()
            } else {
                self.work.join(format!("cold-{rep}"))
            };
            let scratch = Recorder::new(1);
            cold_build(&scratch, &dir, &sys)?;
            if rep == 0 {
                require_native(&sys)?;
            } else {
                let disk = CodegenCache::new(&dir);
                for prog in [sys.rhs_program(), sys.obs_program()] {
                    let (_, provenance) = disk.prepare(prog)?;
                    if provenance != Provenance::DiskCache {
                        return Err(format!("expected a disk load, got {provenance:?}").into());
                    }
                }
            }
            codegen_s = codegen.lap().s;
        }
        Ok(Setup {
            total: start.lap(),
            codegen_s,
        })
    }

    fn pass(&mut self) -> Result<Pass, DynError> {
        let start = Stopwatch::start();
        let base = cnn_language();
        let mut curve = Vec::with_capacity(SIGMAS.len());
        let mut inst_ms = Vec::with_capacity(SIGMAS.len());
        let per_instance = self.threads_used() / self.seeds.len() as f64;
        for sigma in SIGMAS {
            let hw = hw_cnn_language_sigma(&base, sigma);
            let call = Stopwatch::start();
            curve.push(run_cnn_yield(
                &hw,
                &self.input,
                &EDGE_TEMPLATE,
                NonIdeality::GMismatch,
                T_END,
                &self.seeds,
                &self.ens,
            )?);
            inst_ms.push(call.lap().s * 1e3 * per_instance);
        }
        let (digest, failed, violations, summary) = self.check(&curve);
        Ok(Pass {
            wall: start.lap(),
            instances: (SIGMAS.len() * self.seeds.len()) as u64,
            failed,
            inst_ms,
            digest,
            violations,
            summary,
        })
    }

    fn traced(&mut self, rec: &Recorder) -> Result<Pass, DynError> {
        let start = Stopwatch::start();
        let curve = self.sweep_pieces(rec, self.backend, &self.seeds, true)?;
        let (digest, failed, violations, summary) =
            rec.span("check", Some(Layer::Check), None, None, |_| {
                self.check(&curve)
            });
        Ok(Pass {
            wall: start.lap(),
            instances: (SIGMAS.len() * self.seeds.len()) as u64,
            failed,
            inst_ms: Vec::new(),
            digest,
            violations,
            summary,
        })
    }

    /// Native results must equal the interpreter's bit for bit: on the
    /// default seed the committed digest (shared with `cnn_yield`) checks the
    /// whole sweep; on every seed the first seeds of each sigma are re-run
    /// on both backends here.
    fn extra_checks(&mut self) -> Result<Vec<String>, DynError> {
        if !self.native() {
            return Ok(Vec::new());
        }
        let seeds = &self.seeds[..CROSS_CHECK_SEEDS.min(self.seeds.len())];
        let scratch = Recorder::new(self.ens.workers());
        let native = self.sweep_pieces(&scratch, Backend::Native, seeds, false)?;
        let interp = self.sweep_pieces(&scratch, Backend::Interp, seeds, false)?;
        let (dn, di) = (curve_digest(&native), curve_digest(&interp));
        Ok(if dn == di {
            Vec::new()
        } else {
            vec![format!(
                "native digest {dn:016x} differs from the interpreter's {di:016x} on {} seeds per sigma",
                seeds.len()
            )]
        })
    }

    fn reference(&self) -> u64 {
        reference::CNN_YIELD
    }
}
