//! The traced run's recorder: coarse spans at each layer boundary, per-thread
//! aggregates (count + nanoseconds) for the hot per-RHS and per-instance
//! boundaries, and the exact counters that must repeat bit for bit.
//!
//! Everything is held in memory and written out once at the end. The
//! wrappers here sit *outside* the crates: [`Timed`] wraps the solver handed
//! to `Ensemble::run` (and times every `rhs` of the system it integrates),
//! [`TimedReducer`] wraps the streaming reducer, and the workloads time
//! their own `prep` and extract closures through [`Recorder::add`].

use ark_ode::{Elem, Observer, SolveError, SolveStats, Solver, StageHint, SystemOver, Workspace};
use ark_sim::reduce::Reducer;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One layer of the breakdown. Every nanosecond a traced pass spends is
/// attributed to at most one layer; what no layer claims is uncovered
/// (the benchmark's glue between spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ark-core` language construction (and the paradigm language builders).
    Lang,
    /// Graph construction: `ark-core::func` through the paradigm builders.
    Graph,
    /// `ark-core::validate` (with `ark-ilp`).
    Validate,
    /// `ark-core::compile` with `ark-expr::program`.
    Compile,
    /// Cold `ark-expr::codegen` build (`rustc`).
    CodegenBuild,
    /// Loading a built kernel from disk (`dlopen` + signature check).
    CodegenLoad,
    /// RHS evaluation (interpreter or native kernel).
    Rhs,
    /// `ark-ode` stepper arithmetic: solve time minus RHS time.
    Stepper,
    /// Per-instance parameter sampling and initial state (`prep`).
    Prep,
    /// Per-instance readout (extract / map closures).
    Readout,
    /// Folding results: the streaming reducer or the serial assembly.
    Reduce,
    /// `ark-sim` dispatch: the self time of an ensemble call — partitioning,
    /// thread spawn and join, lane binding and packing, and workers waiting
    /// for the slowest job.
    Dispatch,
    /// `ark-spice` netlist synthesis.
    SpiceSynth,
    /// `ark-spice` trapezoidal transient.
    SpiceTransient,
    /// The benchmark's own output check.
    Check,
}

/// Number of [`Layer`]s.
pub const N_LAYERS: usize = 15;

/// All layers, in report order.
pub const LAYERS: [Layer; N_LAYERS] = [
    Layer::Lang,
    Layer::Graph,
    Layer::Validate,
    Layer::Compile,
    Layer::CodegenBuild,
    Layer::CodegenLoad,
    Layer::Rhs,
    Layer::Stepper,
    Layer::Prep,
    Layer::Readout,
    Layer::Reduce,
    Layer::Dispatch,
    Layer::SpiceSynth,
    Layer::SpiceTransient,
    Layer::Check,
];

impl Layer {
    /// Stable name used in the trace file and the share table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Lang => "core.lang",
            Layer::Graph => "core.graph",
            Layer::Validate => "core.validate",
            Layer::Compile => "core.compile",
            Layer::CodegenBuild => "codegen.build",
            Layer::CodegenLoad => "codegen.load",
            Layer::Rhs => "expr.rhs",
            Layer::Stepper => "ode.stepper",
            Layer::Prep => "sim.prep",
            Layer::Readout => "sim.readout",
            Layer::Reduce => "sim.reduce",
            Layer::Dispatch => "sim.dispatch",
            Layer::SpiceSynth => "spice.synth",
            Layer::SpiceTransient => "spice.transient",
            Layer::Check => "bench.check",
        }
    }

    fn idx(self) -> usize {
        LAYERS
            .iter()
            .position(|&l| l == self)
            .expect("every layer is listed")
    }
}

/// Nanoseconds per layer.
pub type LayerNs = [u64; N_LAYERS];

/// Exact counters of a traced pass. They depend only on the inputs, never
/// on timing or the worker count; the benchmark's test pins that.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    /// `CompiledSystem` compilations.
    pub compiles: u64,
    /// RHS instructions, summed over the compiled systems.
    pub rhs_instrs: u64,
    /// Observation-program instructions, summed over the compiled systems.
    pub obs_instrs: u64,
    /// RHS register-file sizes, summed over the compiled systems.
    pub rhs_regs: u64,
    /// Native kernels compiled from scratch.
    pub kernels_built: u64,
    /// Bytes of generated kernel source.
    pub source_bytes: u64,
    /// Scalar RHS evaluations.
    pub rhs_calls_l1: u64,
    /// Lane-batched RHS evaluations (one per group of lanes).
    pub rhs_calls_laned: u64,
    /// Accepted steps, one per solve call (a lane group counts once).
    pub steps: u64,
    /// Rejected steps.
    pub rejected: u64,
    /// Instances integrated in full lane groups.
    pub lane_instances: u64,
    /// Instances integrated scalar (tails and demoted groups).
    pub tail_instances: u64,
    /// Instances rescued by the recovery policy.
    pub recovered: u64,
    /// Instances still failed after the recovery policy.
    pub failed: u64,
    /// `prep` calls.
    pub prep_calls: u64,
    /// Readout calls.
    pub readout_calls: u64,
    /// Reducer pushes (or serially assembled results).
    pub reduce_items: u64,
}

impl Counters {
    /// Every counter by name, for the report's counter section.
    pub fn fields(&self) -> [(&'static str, u64); 17] {
        [
            ("compiles", self.compiles),
            ("rhs_instrs", self.rhs_instrs),
            ("obs_instrs", self.obs_instrs),
            ("rhs_regs", self.rhs_regs),
            ("kernels_built", self.kernels_built),
            ("source_bytes", self.source_bytes),
            ("rhs_calls_l1", self.rhs_calls_l1),
            ("rhs_calls_laned", self.rhs_calls_laned),
            ("steps", self.steps),
            ("rejected", self.rejected),
            ("lane_instances", self.lane_instances),
            ("tail_instances", self.tail_instances),
            ("recovered", self.recovered),
            ("failed", self.failed),
            ("prep_calls", self.prep_calls),
            ("readout_calls", self.readout_calls),
            ("reduce_items", self.reduce_items),
        ]
    }
}

/// One coarse span, kept whole.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    layer: Option<Layer>,
    parent: Option<usize>,
    seed: Option<u64>,
    thread: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// Self time of layers recorded outside any parallel region.
    serial: LayerNs,
    /// Per-thread busy time of the open parallel region, if any.
    region: Option<BTreeMap<u64, LayerNs>>,
    /// Wall-equivalent time of layers recorded inside parallel regions.
    parallel: LayerNs,
    /// Whole-run per-thread totals (for the trace file).
    threads: BTreeMap<u64, LayerNs>,
    region_wall_ns: u64,
    region_busy_ns: u64,
    region_capacity_ns: u64,
    solve_ns: u64,
    rhs_ns: u64,
    prep_ns: u64,
    readout_ns: u64,
    reduce_ns: u64,
    counters: Counters,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_index() -> u64 {
    THREAD.with(|t| *t)
}

/// The in-memory trace of one traced pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    workers: usize,
    inner: Mutex<Inner>,
}

/// Summary of a finished traced pass.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Self time per layer, wall-equivalent (parallel busy time divided by
    /// the threads that shared the region).
    pub layer_ns: LayerNs,
    /// Sum of `layer_ns`.
    pub covered_ns: u64,
    /// Busy thread-time over `workers × wall` of the parallel regions.
    pub worker_busy_frac: f64,
    /// Total solve time (RHS + stepper), thread time.
    pub solve_ns: u64,
    /// Total RHS time, thread time.
    pub rhs_ns: u64,
    /// Total prep time, thread time.
    pub prep_ns: u64,
    /// Total readout time, thread time.
    pub readout_ns: u64,
    /// Total reduce time, thread time.
    pub reduce_ns: u64,
    /// Exact counters.
    pub counters: Counters,
}

impl Recorder {
    /// An empty recorder for an engine of `workers` threads.
    pub fn new(workers: usize) -> Self {
        Recorder {
            origin: Instant::now(),
            workers,
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a worker panicked while tracing")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` as one coarse span. A span with a `layer` is a leaf whose
    /// duration is that layer's self time; a span without one only groups
    /// children (its self time stays uncovered). `f` receives the span's id
    /// to pass as the parent of nested spans.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: Option<Layer>,
        parent: Option<usize>,
        seed: Option<u64>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut g = self.lock();
            g.spans.push(Span {
                name,
                layer,
                parent,
                seed,
                thread: thread_index(),
                start_ns,
                end_ns: start_ns,
            });
            g.spans.len() - 1
        };
        let out = f(id);
        let end_ns = self.now_ns();
        let mut g = self.lock();
        g.spans[id].end_ns = end_ns;
        if let Some(layer) = layer {
            add_locked(&mut g, layer, end_ns - start_ns);
        }
        out
    }

    /// Run `f` as a parallel region (one ensemble call): layer time that
    /// worker threads record inside it is busy time, converted to wall time
    /// by dividing by the number of workers that did work in the region.
    /// Time the calling thread records there (an inline serial run, the
    /// merge after the workers joined) is wall time as it stands. The rest
    /// of the region's wall time is its own self time: [`Layer::Dispatch`].
    pub fn region<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        seed: Option<u64>,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        self.lock().region = Some(BTreeMap::new());
        let start = Instant::now();
        let out = self.span(name, None, parent, seed, f);
        let wall = start.elapsed().as_nanos() as u64;
        let caller = thread_index();
        let mut g = self.lock();
        let threads = g.region.take().expect("region opened above");
        let workers = threads.keys().filter(|&&t| t != caller).count().max(1) as u64;
        let mut busy = 0u64;
        let mut attributed = 0u64;
        for (&t, per) in &threads {
            let share = if t == caller { 1 } else { workers };
            for (i, ns) in per.iter().enumerate() {
                g.parallel[i] += ns / share;
                attributed += ns / share;
                busy += ns;
            }
        }
        g.parallel[Layer::Dispatch.idx()] += wall.saturating_sub(attributed);
        g.region_wall_ns += wall;
        g.region_busy_ns += busy;
        g.region_capacity_ns += wall * self.workers as u64;
        out
    }

    /// Attribute `ns` of `layer` time measured on the calling thread.
    pub fn add(&self, layer: Layer, ns: u64) {
        let mut g = self.lock();
        add_locked(&mut g, layer, ns);
        match layer {
            Layer::Prep => {
                g.prep_ns += ns;
                g.counters.prep_calls += 1;
            }
            Layer::Readout => {
                g.readout_ns += ns;
                g.counters.readout_calls += 1;
            }
            _ => {}
        }
    }

    /// Time `f` as per-instance `layer` work (aggregated, not a span).
    pub fn time<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed().as_nanos() as u64);
        out
    }

    /// Update the exact counters.
    pub fn count(&self, f: impl FnOnce(&mut Counters)) {
        f(&mut self.lock().counters);
    }

    fn solve_done(
        &self,
        width: usize,
        calls: u64,
        rhs_ns: u64,
        total_ns: u64,
        stats: Option<&SolveStats>,
    ) {
        let mut g = self.lock();
        add_locked(&mut g, Layer::Rhs, rhs_ns);
        add_locked(&mut g, Layer::Stepper, total_ns.saturating_sub(rhs_ns));
        g.solve_ns += total_ns;
        g.rhs_ns += rhs_ns;
        let c = &mut g.counters;
        if width == 1 {
            c.rhs_calls_l1 += calls;
            c.tail_instances += 1;
        } else {
            c.rhs_calls_laned += calls;
            c.lane_instances += width as u64;
        }
        if let Some(s) = stats {
            c.steps += s.accepted as u64;
            c.rejected += s.rejected as u64;
        }
    }

    fn reduce_done(&self, ns: u64, items: u64) {
        let mut g = self.lock();
        add_locked(&mut g, Layer::Reduce, ns);
        g.reduce_ns += ns;
        g.counters.reduce_items += items;
    }

    /// Attribute serial result assembly (a materializing terminal's fold)
    /// to the reduce layer.
    pub fn reduce_serial<T>(&self, items: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.reduce_done(start.elapsed().as_nanos() as u64, items);
        out
    }

    /// The layer breakdown and counters.
    pub fn breakdown(&self) -> Breakdown {
        let g = self.lock();
        let mut layer_ns = [0u64; N_LAYERS];
        for (i, ns) in layer_ns.iter_mut().enumerate() {
            *ns = g.serial[i] + g.parallel[i];
        }
        Breakdown {
            layer_ns,
            covered_ns: layer_ns.iter().sum(),
            worker_busy_frac: if g.region_capacity_ns == 0 {
                0.0
            } else {
                g.region_busy_ns as f64 / g.region_capacity_ns as f64
            },
            solve_ns: g.solve_ns,
            rhs_ns: g.rhs_ns,
            prep_ns: g.prep_ns,
            readout_ns: g.readout_ns,
            reduce_ns: g.reduce_ns,
            counters: g.counters.clone(),
        }
    }

    /// The trace as JSON: every coarse span and the per-thread layer totals.
    pub fn to_json(&self) -> String {
        let g = self.lock();
        let mut s = String::from("{\"spans\":[");
        for (i, sp) in g.spans.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":{},\"parent\":{},\"seed\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                sp.name,
                sp.layer.map_or("null".to_string(), |l| format!("\"{}\"", l.name())),
                sp.parent.map_or("null".to_string(), |p| p.to_string()),
                sp.seed.map_or("null".to_string(), |p| p.to_string()),
                sp.thread,
                sp.start_ns,
                sp.end_ns
            );
        }
        s.push_str("],\"threads\":{");
        for (i, (t, per)) in g.threads.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\"{t}\":{{");
            for (j, layer) in LAYERS.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":{}", layer.name(), per[layer.idx()]);
            }
            s.push('}');
        }
        s.push_str("}}");
        s
    }
}

fn add_locked(g: &mut Inner, layer: Layer, ns: u64) {
    let tid = thread_index();
    let i = layer.idx();
    g.threads.entry(tid).or_default()[i] += ns;
    match g.region.as_mut() {
        Some(region) => region.entry(tid).or_default()[i] += ns,
        None => g.serial[i] += ns,
    }
}

/// A solver wrapper that times every RHS evaluation of the system it
/// integrates and attributes the rest of the solve to the stepper.
#[derive(Debug)]
pub struct Timed<'r, S> {
    /// The wrapped solver.
    pub inner: S,
    /// Where the timings go.
    pub rec: &'r Recorder,
}

impl<S: Solver> Solver for Timed<'_, S> {
    fn solve<E: Elem, Sys: SystemOver<E> + ?Sized, O: Observer<E>>(
        &self,
        sys: &Sys,
        t0: f64,
        y0: &[E],
        t1: f64,
        obs: &mut O,
        ws: &mut Workspace<E>,
    ) -> Result<SolveStats, SolveError> {
        let timed = TimedSys {
            sys,
            calls: Cell::new(0),
            ns: Cell::new(0),
        };
        let start = Instant::now();
        let result = self.inner.solve(&timed, t0, y0, t1, obs, ws);
        let total = start.elapsed().as_nanos() as u64;
        self.rec.solve_done(
            E::WIDTH,
            timed.calls.get(),
            timed.ns.get(),
            total,
            result.as_ref().ok(),
        );
        result
    }

    fn supports_lanes(&self) -> bool {
        self.inner.supports_lanes()
    }
}

/// The system seen by a [`Timed`] solver: forwards everything, timing
/// `rhs` into thread-local cells that the solve flushes once at its end.
struct TimedSys<'a, S: ?Sized> {
    sys: &'a S,
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl<E: Elem, S: SystemOver<E> + ?Sized> SystemOver<E> for TimedSys<'_, S> {
    fn dim(&self) -> usize {
        self.sys.dim()
    }

    fn rhs(&self, t: f64, y: &[E], dydt: &mut [E]) {
        let start = Instant::now();
        self.sys.rhs(t, y, dydt);
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
    }

    fn stage_hint(&self, hint: StageHint) {
        self.sys.stage_hint(hint)
    }

    fn jacobian_scalar(&self, t: f64, y: &[f64], jac: &mut [f64]) -> bool {
        self.sys.jacobian_scalar(t, y, jac)
    }
}

/// A reducer wrapper that times every push, merge and finish.
#[derive(Debug)]
pub struct TimedReducer<'r, R> {
    /// The wrapped reducer.
    pub inner: R,
    /// Where the timings go.
    pub rec: &'r Recorder,
}

impl<I, R: Reducer<I>> Reducer<I> for TimedReducer<'_, R> {
    type Acc = R::Acc;
    type Output = R::Output;

    fn new_acc(&self) -> Self::Acc {
        self.inner.new_acc()
    }

    fn push(&self, acc: &mut Self::Acc, item: I) {
        let start = Instant::now();
        self.inner.push(acc, item);
        self.rec.reduce_done(start.elapsed().as_nanos() as u64, 1);
    }

    fn merge(&self, into: &mut Self::Acc, from: Self::Acc) {
        let start = Instant::now();
        self.inner.merge(into, from);
        self.rec.reduce_done(start.elapsed().as_nanos() as u64, 0);
    }

    fn finish(&self, acc: Self::Acc) -> Self::Output {
        let start = Instant::now();
        let out = self.inner.finish(acc);
        self.rec.reduce_done(start.elapsed().as_nanos() as u64, 0);
        out
    }
}
