//! Paper-figure benchmark for the Ark workspace.
//!
//! Four workloads, each a closed loop of one ensemble call at a time on
//! `Ensemble::new(2).with_lanes(4)`:
//!
//! * `cnn_yield` — the Fig. 11 yield sweep on the interpreter, through
//!   `run_cnn_yield`;
//! * `cnn_yield_native` — the same sweep on `Backend::Native`, every setup
//!   building its kernels cold in a fresh run-private directory;
//! * `design_sweep` — the §4.5 campaign: random GmC-TLN designs through
//!   generate → validate → compile → RK4 → synthesize → transient → RMSE;
//! * `maxcut_table1` — Table 1 through `table1_outcomes`, both couplings,
//!   classified at d = 0.01π and 0.1π.
//!
//! An untraced run (`--trace 0`) times the library's own entry points and
//! reports the end-to-end metrics. A traced run (`--trace 1`) composes the
//! same pipelines from the crates' public pieces, records spans at each layer
//! boundary ([`trace`]), checks that the pieces reproduce the bundled call
//! bit for bit, and reports the per-layer metrics. Every run checks its
//! outputs ([`reference`]).

pub mod cnn;
pub mod env;
pub mod maxcut;
pub mod reference;
pub mod report;
pub mod stats;
pub mod sweep;
pub mod trace;

use ark_core::Backend;
use ark_sim::Ensemble;
use report::{json_num, json_obj, json_str, Metric};
use stats::{high_percentile, median};
use std::time::Instant;
use trace::{Breakdown, Layer, Recorder, LAYERS};

/// Error type of the pipelines.
pub type DynError = Box<dyn std::error::Error + Send + Sync>;

/// Worker threads of the load generator (the benchmark machine has two
/// CPUs).
pub const WORKERS: usize = 2;
/// Lane width of the load generator (the engine's default).
pub const LANES: usize = 4;
/// Rounds the setups of an untraced run are spread over.
const SETUP_ROUNDS: usize = 6;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 11 yield sweep on the interpreter.
    CnnYield,
    /// Fig. 11 yield sweep on cold native codegen.
    CnnYieldNative,
    /// §4.5 random-design validation campaign.
    DesignSweep,
    /// Table 1 max-cut.
    MaxcutTable1,
}

impl Workload {
    /// All workloads, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::CnnYield,
        Workload::CnnYieldNative,
        Workload::DesignSweep,
        Workload::MaxcutTable1,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CnnYield => "cnn_yield",
            Workload::CnnYieldNative => "cnn_yield_native",
            Workload::DesignSweep => "design_sweep",
            Workload::MaxcutTable1 => "maxcut_table1",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The execution backend the workload pins.
    pub fn backend(self) -> Backend {
        match self {
            Workload::CnnYieldNative => Backend::Native,
            _ => Backend::Interp,
        }
    }
}

/// Problem sizes. The committed output digests hold for [`Scale::FULL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Fabricated CNN instances per sigma.
    pub cnn_instances: usize,
    /// Random designs per sweep.
    pub designs: usize,
    /// Random graphs per coupling.
    pub maxcut_trials: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        cnn_instances: 2048,
        designs: 1000,
        maxcut_trials: 4000,
    };
}

/// One invocation's configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// How long to keep measuring, setups included (at least one pass
    /// runs).
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end) run.
    pub trace: bool,
    /// Worker threads.
    pub workers: usize,
    /// Problem sizes.
    pub scale: Scale,
}

impl Config {
    /// The load generator.
    pub fn ensemble(&self) -> Ensemble {
        Ensemble::new(self.workers).with_lanes(LANES)
    }

    /// Base of the seed range the inputs are drawn from.
    pub fn seed_base(&self) -> u64 {
        (self.seed % (1 << 32)) << 20
    }
}

/// One checked run of a pipeline, from workload start to checked output.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Wall time.
    pub wall: env::Lap,
    /// Instances attempted.
    pub instances: u64,
    /// Instances still failed after the recovery policy.
    pub failed: u64,
    /// Per-instance latency samples, milliseconds.
    pub inst_ms: Vec<f64>,
    /// Digest of the outputs.
    pub digest: u64,
    /// Shape invariants the outputs broke.
    pub violations: Vec<String>,
    /// The outputs, summarized as a JSON object.
    pub summary: String,
}

/// Timing of one setup: from workload start until the first compiled
/// system can run.
#[derive(Debug, Clone, Copy)]
pub struct Setup {
    /// Whole setup.
    pub total: env::Lap,
    /// The part spent building and loading native kernels, seconds (steal
    /// corrected like [`env::Lap::s`]).
    pub codegen_s: f64,
}

/// A workload's pipeline in its two forms.
pub trait Pipeline {
    /// How many setups an untraced run measures.
    fn setup_reps(&self) -> usize;
    /// One setup; `rep` numbers them from 0.
    ///
    /// # Errors
    ///
    /// Any failure of the pipeline.
    fn setup(&mut self, rep: usize) -> Result<Setup, DynError>;
    /// One pass through the library's own entry points.
    ///
    /// # Errors
    ///
    /// Any failure of the pipeline.
    fn pass(&mut self) -> Result<Pass, DynError>;
    /// One pass composed from the crates' pieces, recorded in `rec`.
    ///
    /// # Errors
    ///
    /// Any failure of the pipeline.
    fn traced(&mut self, rec: &Recorder) -> Result<Pass, DynError>;
    /// Output checks beyond the pass's own (returned as violations).
    ///
    /// # Errors
    ///
    /// Any failure of the pipeline.
    fn extra_checks(&mut self) -> Result<Vec<String>, DynError> {
        Ok(Vec::new())
    }
    /// The committed digest of [`Scale::FULL`] at [`reference::DEFAULT_SEED`].
    fn reference(&self) -> u64;
}

/// What one invocation produced.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Every output check passed.
    pub correct: bool,
    /// Instances attempted.
    pub attempted: u64,
    /// Instances failed after recovery.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// Failed output checks, described.
    pub mismatches: Vec<String>,
    /// Details: environment, distributions, outputs, layer shares (JSON
    /// fields).
    pub report: Vec<(&'static str, String)>,
    /// The traced run's span file (traced runs only).
    pub trace_json: Option<String>,
    /// The traced run's breakdown and counters (traced runs only).
    pub breakdown: Option<Breakdown>,
}

fn pipeline(cfg: &Config, work: &env::WorkDir) -> Box<dyn Pipeline> {
    match cfg.workload {
        Workload::CnnYield | Workload::CnnYieldNative => Box::new(cnn::Cnn::new(cfg, work)),
        Workload::DesignSweep => Box::new(sweep::Sweep::new(cfg)),
        Workload::MaxcutTable1 => Box::new(maxcut::Maxcut::new(cfg)),
    }
}

/// Compare a pass's outputs against the references; returns the failed
/// checks.
fn check_pass(cfg: &Config, pass: &Pass, first_digest: u64, reference: u64) -> Vec<String> {
    let mut out = pass.violations.clone();
    if pass.digest != first_digest {
        out.push(format!(
            "output digest {:016x} differs from the first pass's {first_digest:016x}",
            pass.digest
        ));
    }
    if cfg.seed == reference::DEFAULT_SEED && cfg.scale == Scale::FULL && pass.digest != reference {
        out.push(format!(
            "output digest {:016x} differs from the committed reference {reference:016x}",
            pass.digest
        ));
    }
    out
}

/// A timing distribution: median, the highest percentile with at least ten
/// samples beyond it, the sample count, and the samples themselves when
/// there are few.
fn timing_json(xs: &[f64]) -> String {
    let (p, hi) = high_percentile(xs, 999);
    let mut fields = vec![
        ("median", json_num(median(xs))),
        ("high_percentile", json_num(p)),
        ("high", json_num(hi)),
        ("samples", xs.len().to_string()),
    ];
    if xs.len() <= 64 {
        let values: Vec<String> = xs.iter().map(|&x| json_num(x)).collect();
        fields.push(("values", format!("[{}]", values.join(","))));
    }
    json_obj(&fields)
}

/// Run one invocation. Must be called once per process, before anything
/// else touches the crates (it pins their environment).
///
/// # Errors
///
/// Environment pinning or any pipeline failure.
pub fn run(cfg: &Config, work: &env::WorkDir) -> Result<RunOutput, DynError> {
    env::pin(cfg.workload.backend(), LANES, work)?;
    let mut pipe = pipeline(cfg, work);
    let mut report = vec![
        ("workload", json_str(cfg.workload.name())),
        ("seed", cfg.seed.to_string()),
        ("trace", cfg.trace.to_string()),
    ];
    report.extend(env::record(cfg.workers, LANES, cfg.workload.backend()));
    if cfg.trace {
        run_traced(cfg, pipe.as_mut(), report)
    } else {
        run_untraced(cfg, pipe.as_mut(), report)
    }
}

fn run_untraced(
    cfg: &Config,
    pipe: &mut dyn Pipeline,
    mut report: Vec<(&'static str, String)>,
) -> Result<RunOutput, DynError> {
    // Setups interleave with passes, a round before each, so their median
    // covers the whole window rather than one burst at its start. The
    // window includes them: a workload whose setups fill it (cold native
    // builds) measures one pass.
    let start = Instant::now();
    let reps = pipe.setup_reps();
    let round = reps.div_ceil(SETUP_ROUNDS);
    let mut setups: Vec<Setup> = Vec::with_capacity(reps);
    let mut passes = Vec::new();
    loop {
        for _ in 0..round.min(reps - setups.len()) {
            setups.push(pipe.setup(setups.len())?);
        }
        if !passes.is_empty() && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        passes.push(pipe.pass()?);
    }
    while setups.len() < reps {
        setups.push(pipe.setup(setups.len())?);
    }
    let mut mismatches = pipe.extra_checks()?;
    for pass in &passes {
        mismatches.extend(check_pass(cfg, pass, passes[0].digest, pipe.reference()));
    }

    let setup_total: Vec<f64> = setups.iter().map(|s| s.total.s).collect();
    let setup_codegen: Vec<f64> = setups.iter().map(|s| s.codegen_s).collect();
    let setup_frontend: Vec<f64> = setups.iter().map(|s| s.total.s - s.codegen_s).collect();
    let pass_wall: Vec<f64> = passes.iter().map(|p| p.wall.s).collect();
    let pass_raw: Vec<f64> = passes.iter().map(|p| p.wall.raw_s).collect();
    let inst_ms: Vec<f64> = passes.iter().flat_map(|p| p.inst_ms.clone()).collect();
    let instances = passes[0].instances as f64;
    // A pass starts at workload start; the cold codegen build of a native
    // run happens once, in setup, so it is added back to the pass.
    let wall_s = median(&pass_wall) + median(&setup_codegen);
    let steady_s = median(&pass_wall) - median(&setup_frontend);
    let metrics = vec![
        Metric::new("setup_s", median(&setup_total), "s"),
        Metric::new("wall_s", wall_s, "s"),
        Metric::new("instances_per_s", instances / steady_s, "1/s"),
        Metric::new("instance_ms_p50", median(&inst_ms), "ms"),
        // p99 once a run has the samples for it (design_sweep); fewer
        // samples fall back to the highest percentile they support.
        Metric::new("instance_ms_p99", high_percentile(&inst_ms, 990).1, "ms"),
        Metric::new("peak_rss_mb", env::peak_rss_mb(), "MiB"),
    ];

    let attempted: u64 = passes.iter().map(|p| p.instances).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    report.extend([
        ("setup_s", timing_json(&setup_total)),
        ("codegen_s", timing_json(&setup_codegen)),
        ("pass_s", timing_json(&pass_wall)),
        ("pass_raw_s", timing_json(&pass_raw)),
        ("instance_ms", timing_json(&inst_ms)),
        ("instances_per_pass", passes[0].instances.to_string()),
        (
            "failed_frac",
            json_num(failed as f64 / attempted.max(1) as f64),
        ),
        ("output_mismatches", mismatches.len().to_string()),
        (
            "output_digest",
            json_str(&format!("{:016x}", passes[0].digest)),
        ),
        ("output", passes[0].summary.clone()),
    ]);
    Ok(RunOutput {
        correct: mismatches.is_empty(),
        attempted,
        failed,
        metrics,
        mismatches,
        report,
        trace_json: None,
        breakdown: None,
    })
}

fn run_traced(
    cfg: &Config,
    pipe: &mut dyn Pipeline,
    mut report: Vec<(&'static str, String)>,
) -> Result<RunOutput, DynError> {
    let rec = Recorder::new(cfg.workers);
    let traced = pipe.traced(&rec)?;
    // The bundled entry points on the same inputs: the pieces must
    // reproduce them bit for bit, and their untraced wall time is the base
    // of the tracing overhead.
    let plain = pipe.pass()?;
    let mut mismatches = pipe.extra_checks()?;
    mismatches.extend(check_pass(cfg, &traced, traced.digest, pipe.reference()));
    mismatches.extend(check_pass(cfg, &plain, traced.digest, pipe.reference()));

    let b = rec.breakdown();
    let ns = |l: Layer| b.layer_ns[LAYERS.iter().position(|&x| x == l).expect("listed")] as f64;
    let wall_ns = traced.wall.raw_s * 1e9;
    let codegen_ns = ns(Layer::CodegenBuild) + ns(Layer::CodegenLoad);
    let c = &b.counters;
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let attempted = traced.instances + plain.instances;
    let failed = traced.failed + plain.failed;
    let metrics = vec![
        Metric::new("core.lang_ms", ns(Layer::Lang) / 1e6, "ms"),
        Metric::new("core.graph_ms", ns(Layer::Graph) / 1e6, "ms"),
        Metric::new("core.validate_ms", ns(Layer::Validate) / 1e6, "ms"),
        Metric::new("core.compile_ms", ns(Layer::Compile) / 1e6, "ms"),
        Metric::new("core.compiles", c.compiles as f64, "count"),
        Metric::new("expr.rhs_instrs", c.rhs_instrs as f64, "count"),
        Metric::new("expr.obs_instrs", c.obs_instrs as f64, "count"),
        Metric::new("expr.rhs_regs", c.rhs_regs as f64, "count"),
        Metric::new("codegen.build_s", ns(Layer::CodegenBuild) / 1e9, "s"),
        Metric::new("codegen.load_ms", ns(Layer::CodegenLoad) / 1e6, "ms"),
        Metric::new("codegen.source_kb", c.source_bytes as f64 / 1024.0, "KiB"),
        Metric::new("codegen.kernels_built", c.kernels_built as f64, "count"),
        Metric::new("expr.rhs_calls_l1", c.rhs_calls_l1 as f64, "count"),
        Metric::new("expr.rhs_calls_l4", c.rhs_calls_laned as f64, "count"),
        Metric::new(
            "expr.rhs_ns_per_call",
            per(b.rhs_ns as f64, c.rhs_calls_l1 + c.rhs_calls_laned),
            "ns",
        ),
        Metric::new("expr.rhs_share", ns(Layer::Rhs) / wall_ns, "frac"),
        Metric::new("ode.steps", c.steps as f64, "count"),
        Metric::new("ode.rejected", c.rejected as f64, "count"),
        Metric::new(
            "ode.stepper_ns_per_step",
            per((b.solve_ns - b.rhs_ns) as f64, c.steps),
            "ns",
        ),
        Metric::new("ode.stepper_share", ns(Layer::Stepper) / wall_ns, "frac"),
        Metric::new(
            "sim.prep_us",
            per(b.prep_ns as f64, c.prep_calls) / 1e3,
            "us",
        ),
        Metric::new(
            "sim.readout_us",
            per(b.readout_ns as f64, c.readout_calls) / 1e3,
            "us",
        ),
        Metric::new(
            "sim.reduce_us",
            per(b.reduce_ns as f64, c.reduce_items) / 1e3,
            "us",
        ),
        Metric::new("sim.dispatch_ms", ns(Layer::Dispatch) / 1e6, "ms"),
        Metric::new("sim.worker_busy_frac", b.worker_busy_frac, "frac"),
        Metric::new("sim.lane_instances", c.lane_instances as f64, "count"),
        Metric::new("sim.tail_instances", c.tail_instances as f64, "count"),
        Metric::new("sim.recovered", c.recovered as f64, "count"),
        Metric::new("sim.failed", c.failed as f64, "count"),
        Metric::new("spice.synth_ms", ns(Layer::SpiceSynth) / 1e6, "ms"),
        Metric::new("spice.transient_ms", ns(Layer::SpiceTransient) / 1e6, "ms"),
        Metric::new("bench.check_ms", ns(Layer::Check) / 1e6, "ms"),
        // Steal-corrected walls on both sides; the traced pass's one-off
        // cold build is taken out in proportion.
        Metric::new(
            "trace.overhead_frac",
            traced.wall.s * (1.0 - codegen_ns / wall_ns) / plain.wall.s - 1.0,
            "frac",
        ),
        Metric::new("trace.coverage", b.covered_ns as f64 / wall_ns, "frac"),
        Metric::new(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "frac",
        ),
        Metric::new("output_mismatches", mismatches.len() as f64, "count"),
    ];

    let shares: Vec<(&str, String)> = LAYERS
        .iter()
        .map(|&l| (l.name(), json_num(ns(l) / wall_ns)))
        .collect();
    // The exact counters get a section of their own, apart from timings.
    let counters: Vec<(&str, String)> = c
        .fields()
        .iter()
        .map(|&(name, n)| (name, n.to_string()))
        .collect();
    report.extend([
        ("counters", json_obj(&counters)),
        ("traced_wall_s", json_num(traced.wall.raw_s)),
        ("traced_wall_steal_corrected_s", json_num(traced.wall.s)),
        ("untraced_wall_steal_corrected_s", json_num(plain.wall.s)),
        ("layer_shares", json_obj(&shares)),
        (
            "uncovered_share",
            json_num(1.0 - b.covered_ns as f64 / wall_ns),
        ),
        (
            "output_digest",
            json_str(&format!("{:016x}", traced.digest)),
        ),
        ("output", traced.summary.clone()),
    ]);
    Ok(RunOutput {
        correct: mismatches.is_empty(),
        attempted,
        failed,
        metrics,
        mismatches,
        report,
        trace_json: Some(rec.to_json()),
        breakdown: Some(b),
    })
}
