//! Native code generation for [`SystemProgram`]: compile the fused
//! instruction stream to a shared library once per design, then call it
//! instead of the interpreter dispatch loop.
//!
//! Ark's compile-once discipline makes ahead-of-time codegen cheap to
//! amortize: one design is replayed across ~10⁵ fabricated instances and
//! millions of RHS evaluations, so a one-time `rustc` invocation trades for
//! the interpreter's dispatch on every one of them. On the Figure 11 CNN
//! (`cargo bench -p ark-bench --bench rhs`, two vCPUs with AVX2) the
//! interpreter costs about 2.6–3.1 ns per instruction at one lane and
//! 0.7 ns per instruction and instance at four, the kernel 0.3–0.45 and
//! 0.15 ns. The interpreter loop reads and writes registers without bounds
//! checks: `ProgramBuilder::finish` checks every register once, in every
//! build profile, and each evaluation checks once that the register file
//! and the input slots are large enough. The loop is compiled twice,
//! portable and with AVX2, and CPU detection picks one per call; both run
//! the same IEEE operations in the same order, and `fma` must never be
//! enabled for either, as it would fuse a multiply-then-add into one
//! rounding.
//!
//! The lowering is deliberately boring: each instruction becomes one
//! statement that mirrors the interpreter's opcode execution *exactly* —
//! same operations, same order, no FMA contraction, separate
//! multiply-then-add — so native results are **bit-identical** to
//! interpreted ones.
//!
//! # Emitted layout
//!
//! A kernel library holds two of a program's three segments: the time
//! prologue and the body, the ones that run per evaluation. The parameter
//! prologue runs once per parameter binding (once per fabricated instance,
//! against hundreds of body runs), so it always runs on the interpreter,
//! on the same register file the kernel then reads; `KernelSegment` has
//! no variant for it.
//!
//! Each emitted segment is lowered **once**, generic over the lane width
//! `const L: usize`, over `*r.add(reg * L + l)` operands: the
//! struct-of-arrays layout of [`LaneScratch`](crate::LaneScratch), with
//! `L = 1` the scalar kernel. The statements are split into
//! `#[inline(never)]` chunk functions of at most 128 instructions, each in
//! its own module, and each chunk body is a single `for l in 0..L` loop
//! holding the chunk's statements in program order. A generic per-segment
//! driver views the register file and the input slots as two slices (so
//! the chunks know they never alias, and LLVM may vectorize a chunk's lane
//! loop) and calls the chunks in order. Bounded chunks keep LLVM's
//! superlinear per-function passes cheap, separate modules let `rustc`
//! build chunks in parallel codegen units, and one loop per chunk instead
//! of one per statement keeps `rustc`'s front end (type and borrow check,
//! monomorphization) proportional to the chunk count rather than the
//! instruction count. The exported `unsafe extern "C" fn(regs, slots,
//! time)` symbols are one-line wrappers that instantiate the driver at
//! their width: `ark_tp` and `ark_body` at width 1, and `ark_tp<L>` and
//! `ark_body<L>` at a laned width `L`.
//!
//! # One library per width set
//!
//! Each instantiated width costs a full monomorphization of every chunk,
//! so a library holds only the widths a run uses. The library
//! [`CodegenCache::prepare`] builds holds the *default set*: width 1
//! (scalar evaluation, ensemble tails, demoted groups, scalar readouts) and
//! the process's default lane width [`default_lanes`] (full lane groups).
//! An evaluation at any other width of [`SUPPORTED_LANES`] builds and
//! loads a one-width library for it the first time that width runs. The
//! Figure 11 CNN's two kernels (the 620 time-prologue and body
//! instructions of its 777-instruction RHS, and the observables) emit
//! ~67 KiB of source at widths 1 and 4. A hand `rustc` of the RHS kernel
//! takes 0.66–0.98 s on two cores, against 2.0–2.5 s when every statement
//! was a loop of its own and the parameter prologue was emitted too.
//!
//! # Cache layout and concurrency
//!
//! Kernels are keyed by a content hash of the generated source plus the
//! `rustc` version (so toolchain upgrades rebuild). The source names the
//! widths it exports, so each width set of a program is its own entry.
//! The on-disk cache — `$ARK_CODEGEN_DIR`, defaulting to
//! `<tmp>/ark-codegen` — holds `<hash>.rs` (the generated source, kept for
//! inspection) and `<hash>.so`.
//! Artifacts are published with a write-to-temp-then-rename so readers never
//! observe partial files, and concurrent builders (two processes compiling
//! the same design) serialize on a `<hash>.lock` sentinel: one compiles,
//! the others wait for the `.so` to appear. A stale lock left by a crashed
//! builder is stolen after a timeout. A corrupt or foreign cache entry
//! (truncated file, or a library whose embedded `ARK_SIG` does not match
//! the expected hash) is deleted and rebuilt, never trusted.
//!
//! # Fallback rules
//!
//! Codegen is an optimization, never a requirement: any failure — no
//! `rustc` on `PATH`, an unwritable cache directory, a failed compile or
//! load — makes [`SystemProgram`] fall back to the interpreter silently
//! (the error is available via [`CodegenCache::prepare`] for callers that
//! want to require native execution). The selected [`Backend`] is a
//! *request*, not a guarantee;
//! [`SystemProgram::native_active`](crate::SystemProgram::native_active)
//! reports what actually runs.

use crate::ast::{BinaryOp, CmpOp, UnaryOp};
use crate::builtins::Builtin3;
use crate::program::{default_lanes, PInstr, POp, SystemProgram, SUPPORTED_LANES};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Which engine executes a [`SystemProgram`]'s instruction stream.
///
/// The backend is a *request*: `Native` transparently falls back to the
/// interpreter when code generation is unavailable (no toolchain, unusable
/// cache directory, unsupported platform), preserving results bit for bit
/// either way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The in-process register interpreter (always available).
    Interp,
    /// Per-design machine code compiled through [`CodegenCache`], with
    /// transparent interpreter fallback.
    Native,
}

impl Backend {
    /// The process-wide default backend, read once from `ARK_BACKEND`:
    /// unset or empty selects [`Backend::Interp`], and `interp` / `native`
    /// (in any case) select their backend.
    ///
    /// # Panics
    ///
    /// Panics on any other value, naming the accepted ones, so a mistyped
    /// value never silently runs the interpreter.
    pub fn from_env() -> Backend {
        static DEFAULT: OnceLock<Backend> = OnceLock::new();
        *DEFAULT.get_or_init(|| {
            let v = std::env::var_os("ARK_BACKEND");
            Backend::parse_env(v.as_ref().map(|v| v.to_string_lossy()).as_deref())
        })
    }

    /// The backend an `ARK_BACKEND` value selects ([`Backend::from_env`]).
    fn parse_env(value: Option<&str>) -> Backend {
        match value.unwrap_or("") {
            "" => Backend::Interp,
            v if v.eq_ignore_ascii_case("interp") => Backend::Interp,
            v if v.eq_ignore_ascii_case("native") => Backend::Native,
            v => panic!("ARK_BACKEND={v:?}: expected `interp` or `native` (any case), or unset"),
        }
    }
}

/// Where [`CodegenCache::prepare`] found the kernel it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Compiled by this call (cache miss, or a corrupt entry was rebuilt).
    Compiled,
    /// Loaded from an existing on-disk cache entry.
    DiskCache,
    /// Reused from this cache handle's in-memory registry (no file I/O).
    MemoryCache,
}

/// Why native code generation was unavailable or failed.
///
/// Every variant is survivable: [`SystemProgram`] evaluation falls back to
/// the interpreter (bit-identical results) whenever `prepare` errors.
#[derive(Debug, Clone)]
pub enum CodegenError {
    /// `rustc` (or the platform's dynamic loader) is not usable here.
    Toolchain(String),
    /// The cache directory could not be created or written.
    Cache(String),
    /// The generated source failed to compile.
    Compile(String),
    /// The compiled library could not be loaded or verified.
    Load(String),
}

impl fmt::Display for CodegenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodegenError::Toolchain(m) => write!(f, "codegen toolchain unavailable: {m}"),
            CodegenError::Cache(m) => write!(f, "codegen cache unusable: {m}"),
            CodegenError::Compile(m) => write!(f, "generated kernel failed to compile: {m}"),
            CodegenError::Load(m) => write!(f, "compiled kernel failed to load: {m}"),
        }
    }
}

impl std::error::Error for CodegenError {}

/// Why a program that requested [`Backend::Native`] runs on the
/// interpreter instead. The first preparation failure is cached in the
/// program's kernel slot, so the reason survives for later diagnosis.
pub type FallbackReason = CodegenError;

/// Observable state of a program's native-kernel slot, from
/// [`SystemProgram::native_status`](crate::SystemProgram::native_status).
///
/// The fallback to the interpreter is *silent* by design (results are
/// bit-identical either way); this makes it diagnosable without setting
/// `ARK_REQUIRE_NATIVE`.
#[derive(Debug, Clone)]
pub enum NativeStatus {
    /// The backend is [`Backend::Interp`]: no native kernel was requested.
    NotRequested,
    /// A native kernel is prepared and runs the evaluations.
    Active,
    /// [`Backend::Native`] was requested but preparation failed; every
    /// evaluation interprets. The cached reason explains why.
    Fallback(FallbackReason),
}

impl fmt::Display for NativeStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeStatus::NotRequested => f.write_str("interpreter (native not requested)"),
            NativeStatus::Active => f.write_str("native kernel active"),
            NativeStatus::Fallback(e) => write!(f, "interpreter fallback: {e}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Source emission
// ---------------------------------------------------------------------------

/// The width set a program's kernel library is built for: `1` (scalar
/// evaluation, ensemble tails, demoted groups, scalar readouts) and the
/// process's default lane width [`default_lanes`] (full lane groups).
/// Every other width of [`SUPPORTED_LANES`] gets a one-width library of
/// its own the first time it runs.
fn default_widths() -> Vec<usize> {
    let mut widths = vec![1, default_lanes()];
    widths.dedup();
    widths
}

/// A segment the kernel library holds: the time prologue and the body.
///
/// The parameter prologue is not one. It runs once per parameter binding
/// while the body runs on every evaluation, so it always interprets, and
/// no value of this type can ask a kernel to run it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum KernelSegment {
    /// Static, time-dependent instructions (run when `time` changes).
    TimePrologue,
    /// Instructions run on every evaluation.
    Body,
}

/// Each kernel segment's name in the emitted source, in [`KernelSegment`]
/// order: the generic driver is `<name>::<L>`, its chunks are modules
/// `<name>_<k>`.
const SEGMENT_NAMES: [&str; 2] = ["tp", "body"];

/// The exported symbol of segment `seg` at `width`: `ark_<seg>` for the
/// scalar kernel, `ark_<seg><width>` for a laned one.
fn export_name(seg: &str, width: usize) -> String {
    if width == 1 {
        format!("ark_{seg}")
    } else {
        format!("ark_{seg}{width}")
    }
}

/// Generated source plus the bounds the kernel may touch, used for the
/// safety checks before handing it raw pointers.
struct Emitted {
    source: String,
    /// The lane widths the source exports wrappers for.
    widths: Vec<usize>,
    /// Exclusive upper bound on register indices read or written.
    min_regs: usize,
    /// Exclusive upper bound on input-slot indices read.
    min_slots: usize,
}

/// Register operand `r` at lane `l` of a width-`L` register file (`L = 1`
/// is the scalar layout).
fn reg(r: u32) -> String {
    format!("(*r.add({r} * L + l))")
}

/// Input slot `s` at lane `l`, in the same lane-major layout.
fn slot(s: u32) -> String {
    format!("(*s.add({s} * L + l))")
}

/// The right-hand-side expression computing one instruction, mirroring
/// the interpreter's `exec_lanes` ([`program`](crate::program)) operation
/// for operation. Uses the same `f64` operations in the same order as the
/// interpreter, so the compiled result is bit-identical (no FMA
/// contraction: `rustc` does not enable floating-point contraction, and the
/// multiply and add are separate expressions here just as they are
/// separate ops in `exec_lanes`).
fn pop_expr(op: &POp) -> String {
    match *op {
        POp::Time => "t".to_string(),
        POp::Load(s) => slot(s),
        POp::NegLoad(s) => format!("-{}", slot(s)),
        POp::Un(op, a) => {
            let a = reg(a);
            match op {
                UnaryOp::Neg => format!("-{a}"),
                UnaryOp::Sin => format!("sin({a})"),
                UnaryOp::Cos => format!("cos({a})"),
                UnaryOp::Tan => format!("tan({a})"),
                UnaryOp::Tanh => format!("tanh({a})"),
                UnaryOp::Exp => format!("exp({a})"),
                UnaryOp::Ln => format!("log({a})"),
                UnaryOp::Sqrt => format!("sqrt({a})"),
                UnaryOp::Abs => format!("{a}.abs()"),
                UnaryOp::Sgn => format!(
                    "{{ let x = {a}; if x > 0.0 {{ 1.0 }} else if x < 0.0 {{ -1.0 }} else {{ 0.0 }} }}"
                ),
                UnaryOp::Sat => {
                    format!("{{ let x = {a}; 0.5 * ((x + 1.0).abs() - (x - 1.0).abs()) }}")
                }
                UnaryOp::SatNi => format!("tanh(2.0 * {a})"),
            }
        }
        POp::Bin(op, a, b) => {
            let (a, b) = (reg(a), reg(b));
            match op {
                BinaryOp::Add => format!("{a} + {b}"),
                BinaryOp::Sub => format!("{a} - {b}"),
                BinaryOp::Mul => format!("{a} * {b}"),
                BinaryOp::Div => format!("{a} / {b}"),
                BinaryOp::Pow => format!("pow({a}, {b})"),
                BinaryOp::Min => format!("{a}.min({b})"),
                BinaryOp::Max => format!("{a}.max({b})"),
            }
        }
        POp::MulAdd(a, b, c) => format!("{} * {} + {}", reg(a), reg(b), reg(c)),
        POp::AddMul(a, b, c) => format!("{} + {} * {}", reg(a), reg(b), reg(c)),
        POp::MulSub(a, b, c) => format!("{} * {} - {}", reg(a), reg(b), reg(c)),
        POp::SubMul(a, b, c) => format!("{} - {} * {}", reg(a), reg(b), reg(c)),
        POp::Cmp(op, a, b) => {
            let sym = match op {
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
                CmpOp::Eq => "==",
                CmpOp::Ne => "!=",
            };
            format!("if {} {sym} {} {{ 1.0 }} else {{ 0.0 }}", reg(a), reg(b))
        }
        POp::And(a, b) => format!(
            "if {} > 0.5 && {} > 0.5 {{ 1.0 }} else {{ 0.0 }}",
            reg(a),
            reg(b)
        ),
        POp::Or(a, b) => format!(
            "if {} > 0.5 || {} > 0.5 {{ 1.0 }} else {{ 0.0 }}",
            reg(a),
            reg(b)
        ),
        POp::Not(a) => format!("if {} > 0.5 {{ 0.0 }} else {{ 1.0 }}", reg(a)),
        POp::Select(c, t, e) => {
            format!("if {} > 0.5 {{ {} }} else {{ {} }}", reg(c), reg(t), reg(e))
        }
        POp::Call3(b3, a, b, c) => {
            let name = match b3 {
                Builtin3::Pulse => "ark_pulse",
                Builtin3::SquarePulse => "ark_square_pulse",
                Builtin3::Smoothstep => "ark_smoothstep",
            };
            format!("{name}({}, {}, {})", reg(a), reg(b), reg(c))
        }
    }
}

/// Instructions per emitted chunk function. LLVM's per-function passes are
/// superlinear in function size, so bounded chunks compile far faster than
/// one straight-line segment, and chunks in separate modules land in
/// separate codegen units that `rustc` builds in parallel. Re-swept with
/// one lane loop per chunk on the Figure 11 CNN (2 vCPUs, a noisy box):
/// a hand `rustc` of the yield sweep's RHS kernel at widths {1, 4} takes
/// 0.64–0.71 s at 64, 0.68–0.80 s at 128 and 0.63–1.04 s at 256, so the
/// build no longer picks the size; the `rhs` bench's CNN `native4` row
/// reads medians of 469, 496 and 807 ns (3 runs each). 128 stays: 64
/// gains nothing outside the noise, and 256 runs slower.
const CHUNK: usize = 128;

/// Emit one segment, lowering each instruction once: `const L: usize`
/// generic chunk functions (each `#[inline(never)]`, in its own module), a
/// generic driver calling them in order, and one exported `extern "C"`
/// wrapper per width in `widths`. `L = 1` is the scalar kernel. The driver
/// views the register file and the slots as two slices of `min_regs` and
/// `min_slots` lane rows, so the chunks know the two never alias.
fn emit_segment(
    out: &mut String,
    seg: &str,
    instrs: &[PInstr],
    widths: &[usize],
    (min_regs, min_slots): (usize, usize),
) {
    let sig = "(r: *mut f64, s: *const f64, t: f64)";
    for (k, chunk) in instrs.chunks(CHUNK).enumerate() {
        let _ = writeln!(out, "mod {seg}_{k} {{");
        let _ = writeln!(out, "    use super::*;");
        let _ = writeln!(out, "    #[inline(never)]");
        let _ = writeln!(
            out,
            "    pub unsafe fn run<const L: usize>(r: &mut [f64], s: &[f64], t: f64) {{"
        );
        let _ = writeln!(out, "        let (r, s) = (r.as_mut_ptr(), s.as_ptr());");
        // One lane loop per chunk: every statement reads and writes lane
        // `l` only, so lane `l` performs exactly the scalar operation
        // sequence on its own values, and per-lane results match the
        // scalar kernel (and the laned interpreter) bit for bit.
        let _ = writeln!(out, "        for l in 0..L {{");
        for i in chunk {
            let _ = writeln!(
                out,
                "            *r.add({} * L + l) = {};",
                i.dest,
                pop_expr(&i.op)
            );
        }
        let _ = writeln!(out, "        }}");
        let _ = writeln!(out, "    }}");
        let _ = writeln!(out, "}}");
    }
    let _ = writeln!(out, "unsafe fn {seg}<const L: usize>{sig} {{");
    let _ = writeln!(
        out,
        "    let r = core::slice::from_raw_parts_mut(r, {min_regs} * L);"
    );
    let _ = writeln!(
        out,
        "    let s = core::slice::from_raw_parts(s, {min_slots} * L);"
    );
    for k in 0..instrs.len().div_ceil(CHUNK) {
        let _ = writeln!(out, "    {seg}_{k}::run::<L>(r, s, t);");
    }
    let _ = writeln!(out, "}}");
    for &width in widths {
        let _ = writeln!(out, "#[no_mangle]");
        let _ = writeln!(
            out,
            "pub unsafe extern \"C\" fn {}{sig} {{ {seg}::<{width}>(r, s, t) }}",
            export_name(seg, width)
        );
    }
}

/// Fixed prelude of every generated kernel: freestanding (`no_std`, so the
/// artifact stays a few KB), with the math functions bound to the process's
/// own `libm` symbols — the very functions `std`'s `f64` methods lower to,
/// which is what keeps transcendentals bit-identical to the interpreter.
const PRELUDE: &str = r#"// Generated by ark-expr native codegen; keyed by content hash. Do not edit.
#![no_std]
#![allow(unused)]
#[panic_handler]
fn panic(_: &core::panic::PanicInfo) -> ! {
    loop {}
}
mod lm {
    extern "C" {
        pub fn sin(x: f64) -> f64;
        pub fn cos(x: f64) -> f64;
        pub fn tan(x: f64) -> f64;
        pub fn tanh(x: f64) -> f64;
        pub fn exp(x: f64) -> f64;
        pub fn log(x: f64) -> f64;
        pub fn sqrt(x: f64) -> f64;
        pub fn pow(x: f64, y: f64) -> f64;
    }
}
#[inline(always)] fn sin(x: f64) -> f64 { unsafe { lm::sin(x) } }
#[inline(always)] fn cos(x: f64) -> f64 { unsafe { lm::cos(x) } }
#[inline(always)] fn tan(x: f64) -> f64 { unsafe { lm::tan(x) } }
#[inline(always)] fn tanh(x: f64) -> f64 { unsafe { lm::tanh(x) } }
#[inline(always)] fn exp(x: f64) -> f64 { unsafe { lm::exp(x) } }
#[inline(always)] fn log(x: f64) -> f64 { unsafe { lm::log(x) } }
#[inline(always)] fn sqrt(x: f64) -> f64 { unsafe { lm::sqrt(x) } }
#[inline(always)] fn pow(x: f64, y: f64) -> f64 { unsafe { lm::pow(x, y) } }
// Builtin waveforms, body-for-body copies of ark_expr::builtins (same
// operations, same order, bit-identical results).
fn ark_pulse(t: f64, t0: f64, width: f64) -> f64 {
    if width <= 0.0 {
        return 0.0;
    }
    let ramp = 0.2 * width;
    let x = t - t0;
    if x <= 0.0 || x >= width {
        0.0
    } else if x < ramp {
        x / ramp
    } else if x > width - ramp {
        (width - x) / ramp
    } else {
        1.0
    }
}
fn ark_square_pulse(t: f64, t0: f64, width: f64) -> f64 {
    if t >= t0 && t < t0 + width {
        1.0
    } else {
        0.0
    }
}
fn ark_smoothstep(t: f64, t0: f64, tau: f64) -> f64 {
    1.0 / (1.0 + exp(-(t - t0) / tau))
}
"#;

/// Lower a program's time prologue and body to Rust source, each segment
/// once, exported at every width of `widths` (each one of
/// [`SUPPORTED_LANES`], no repeats). Only those two instruction streams and
/// the widths matter: the constant pool, parameter segment, parameter
/// prologue and output map stay on the interpreter side, so two programs
/// with identical streams share one kernel per width set.
fn emit(prog: &SystemProgram, widths: &[usize]) -> Emitted {
    let segs: [&[PInstr]; 2] = [&prog.tprologue, &prog.body];
    let mut min_regs = 0usize;
    let mut min_slots = 0usize;
    for i in segs.into_iter().flatten() {
        let (ops, k) = i.op.operands();
        for &r in ops[..k].iter().chain([&i.dest]) {
            min_regs = min_regs.max(r as usize + 1);
        }
        if let Some(s) = i.op.state_slot() {
            min_slots = min_slots.max(s as usize + 1);
        }
    }
    let mut source = String::from(PRELUDE);
    for (name, instrs) in SEGMENT_NAMES.into_iter().zip(segs) {
        emit_segment(&mut source, name, instrs, widths, (min_regs, min_slots));
    }
    Emitted {
        source,
        widths: widths.to_vec(),
        min_regs,
        min_slots,
    }
}

// ---------------------------------------------------------------------------
// Hashing and toolchain discovery
// ---------------------------------------------------------------------------

/// FNV-1a over the generated source: small, dependency-free, and stable
/// across processes (the cache key must mean the same thing to every
/// builder racing on one directory).
fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn rustc_path() -> String {
    std::env::var("ARK_RUSTC").unwrap_or_else(|_| "rustc".to_string())
}

/// `rustc --version` output, probed once per process. `None` when no
/// usable compiler is on `PATH` — the fallback-to-interpreter case.
fn rustc_version() -> Option<&'static str> {
    static VERSION: OnceLock<Option<String>> = OnceLock::new();
    VERSION
        .get_or_init(|| {
            let out = std::process::Command::new(rustc_path())
                .arg("--version")
                .output()
                .ok()?;
            out.status
                .success()
                .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        })
        .as_deref()
}

// ---------------------------------------------------------------------------
// Dynamic loading (dlopen shim — no build script, no external crate)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod dl {
    use std::ffi::{c_char, c_int, c_void, CStr, CString};
    use std::path::Path;

    // On every glibc ≥ 2.34 (and musl) these live in libc itself, which
    // every Rust binary already links — no `-ldl`, no build script.
    extern "C" {
        fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
        fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
        fn dlerror() -> *mut c_char;
    }

    const RTLD_NOW: c_int = 2;

    fn last_error(context: &str) -> String {
        // SAFETY: `dlerror` takes no arguments and returns either null or a
        // pointer to a NUL-terminated string owned by the loader; it is read
        // immediately (before any other dl* call from this thread could
        // invalidate it) and copied into an owned String.
        let msg = unsafe {
            let e = dlerror();
            if e.is_null() {
                "unknown dlerror".to_string()
            } else {
                CStr::from_ptr(e).to_string_lossy().into_owned()
            }
        };
        format!("{context}: {msg}")
    }

    /// `dlopen` the library. The handle is never closed: kernels are cached
    /// for the process lifetime, and unloading code that live function
    /// pointers reference would be unsound.
    pub fn open(path: &Path) -> Result<*mut c_void, String> {
        let c = CString::new(path.as_os_str().as_encoded_bytes())
            .map_err(|_| "path contains NUL".to_string())?;
        // SAFETY: `c` is a valid NUL-terminated path that outlives the call;
        // RTLD_NOW is a valid flag. Library constructors are trusted because
        // only kernels this process generated (and signature-verified) are
        // opened.
        let h = unsafe { dlopen(c.as_ptr(), RTLD_NOW) };
        if h.is_null() {
            Err(last_error("dlopen"))
        } else {
            Ok(h)
        }
    }

    pub fn sym(handle: *mut c_void, name: &str) -> Result<*mut c_void, String> {
        let c = CString::new(name).expect("static symbol names");
        // SAFETY: `handle` came from a successful `dlopen` (never closed, so
        // it stays valid for the process lifetime) and `c` is a valid
        // NUL-terminated symbol name that outlives the call.
        let p = unsafe { dlsym(handle, c.as_ptr()) };
        if p.is_null() {
            Err(last_error(name))
        } else {
            Ok(p)
        }
    }
}

// ---------------------------------------------------------------------------
// The loaded kernel
// ---------------------------------------------------------------------------

type SegFn = unsafe extern "C" fn(*mut f64, *const f64, f64);

/// A loaded native kernel library: one function pointer per
/// `KernelSegment` at each lane width it was built for, with the register
/// and slot bounds the generated code may touch.
///
/// Obtained from [`CodegenCache::prepare`]; consumed internally by
/// [`SystemProgram`] evaluation. The backing library stays mapped for the
/// process lifetime (function pointers into it are cached), so kernels are
/// deliberately leaked, never unloaded.
pub struct NativeKernel {
    /// `fns[w][seg]`: width index `w` into [`SUPPORTED_LANES`] (`None` for
    /// a width the library was not built for), segment in
    /// [`KernelSegment`] order.
    fns: [Option<[SegFn; 2]>; SUPPORTED_LANES.len()],
    min_regs: usize,
    min_slots: usize,
}

// SAFETY: the function pointers reference immutable executable mappings that
// live for the whole process (handles are never dlclosed); calling them from
// any thread is as safe as calling them from the loading thread.
unsafe impl Send for NativeKernel {}
// SAFETY: same argument as `Send` — the kernel holds only immortal,
// immutable function pointers, so shared references are thread-safe.
unsafe impl Sync for NativeKernel {}

impl fmt::Debug for NativeKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeKernel")
            .field("min_regs", &self.min_regs)
            .field("min_slots", &self.min_slots)
            .finish_non_exhaustive()
    }
}

impl NativeKernel {
    /// Exclusive upper bound on input-slot indices the kernel reads.
    pub(crate) fn min_slots(&self) -> usize {
        self.min_slots
    }

    /// The library's segment functions at `width`, if it was built for it.
    fn segs(&self, width: usize) -> Option<&[SegFn; 2]> {
        let w = SUPPORTED_LANES.iter().position(|&s| s == width)?;
        self.fns[w].as_ref()
    }

    /// Whether the library exports kernels at lane width `width`.
    pub(crate) fn has_width(&self, width: usize) -> bool {
        self.segs(width).is_some()
    }

    /// Run `seg` over a width-`L` register file; the library must have been
    /// built for `L` ([`NativeKernel::has_width`]; `L = 1` is the scalar
    /// kernel).
    pub(crate) fn run_lanes<const L: usize>(
        &self,
        seg: KernelSegment,
        regs: &mut [[f64; L]],
        slots: &[[f64; L]],
        t: f64,
    ) {
        assert!(
            regs.len() >= self.min_regs && slots.len() >= self.min_slots,
            "native kernel bounds exceed caller buffers"
        );
        let f = self
            .segs(L)
            .unwrap_or_else(|| panic!("native kernel library has no width-{L} kernels"))
            [seg as usize];
        // SAFETY: `[[f64; L]]` is a contiguous lane-major f64 buffer of
        // len()*L elements, the layout the width-`L` kernel indexes; bounds
        // checked in lane units above. The kernel views the first
        // `min_regs * L` and `min_slots * L` elements as a mutable and a
        // shared slice: both lie inside the buffers, and the buffers come
        // from an exclusive and a shared borrow, so they never overlap.
        unsafe { f(regs.as_mut_ptr().cast(), slots.as_ptr().cast(), t) }
    }
}

// ---------------------------------------------------------------------------
// The on-disk cache
// ---------------------------------------------------------------------------

/// A content-hash-keyed kernel cache over one directory.
///
/// The shared process-wide instance ([`CodegenCache::shared`], configured
/// by `ARK_CODEGEN_DIR`) is what [`SystemProgram`] uses implicitly under
/// [`Backend::Native`]; explicit instances over other directories are for
/// tests and embedders. See the [module docs](self) for the cache layout,
/// locking protocol, and corruption recovery.
#[derive(Debug)]
pub struct CodegenCache {
    dir: PathBuf,
    /// How long to wait on another builder's `.lock` before stealing it.
    lock_wait: Duration,
    /// Kernels already loaded through *this* handle, by content hash.
    registry: Mutex<HashMap<u64, Arc<NativeKernel>>>,
}

impl CodegenCache {
    /// A cache over an explicit directory (created on first use).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CodegenCache {
            dir: dir.into(),
            lock_wait: Duration::from_secs(60),
            registry: Mutex::new(HashMap::new()),
        }
    }

    /// Adjust how long [`CodegenCache::prepare`] waits on a concurrent
    /// builder's lock before treating it as stale and stealing it.
    pub fn with_lock_wait(mut self, wait: Duration) -> Self {
        self.lock_wait = wait;
        self
    }

    /// The directory this cache stores artifacts in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The process-wide cache used by [`Backend::Native`] evaluation:
    /// `$ARK_CODEGEN_DIR` if set (read once), else `<tmp>/ark-codegen`.
    pub fn shared() -> &'static CodegenCache {
        static SHARED: OnceLock<CodegenCache> = OnceLock::new();
        SHARED.get_or_init(|| {
            let dir = std::env::var_os("ARK_CODEGEN_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| std::env::temp_dir().join("ark-codegen"));
            CodegenCache::new(dir)
        })
    }

    /// Compile (or fetch) the native kernel library for `prog`'s
    /// instruction stream at the default width set: `1` and the process's
    /// default lane width ([`default_lanes`]). Returns the library plus
    /// where it came from.
    ///
    /// Concurrent calls — across threads or processes — for the same
    /// content hash produce a single compilation; the rest load the
    /// published artifact. Corrupt or foreign entries are rebuilt.
    ///
    /// # Errors
    ///
    /// [`CodegenError`] when the toolchain, cache directory, compilation,
    /// or loading is unavailable — callers treat this as "use the
    /// interpreter", which is always bit-identical.
    pub fn prepare(
        &self,
        prog: &SystemProgram,
    ) -> Result<(Arc<NativeKernel>, Provenance), CodegenError> {
        self.prepare_widths(prog, &default_widths())
    }

    /// [`CodegenCache::prepare`] for an explicit width set (each one of
    /// [`SUPPORTED_LANES`], no repeats). Each width set is its own library
    /// and cache entry.
    pub(crate) fn prepare_widths(
        &self,
        prog: &SystemProgram,
        widths: &[usize],
    ) -> Result<(Arc<NativeKernel>, Provenance), CodegenError> {
        if !cfg!(unix) {
            return Err(CodegenError::Toolchain(
                "native codegen requires a unix dynamic loader".into(),
            ));
        }
        let ver = rustc_version().ok_or_else(|| {
            CodegenError::Toolchain(format!("`{} --version` failed", rustc_path()))
        })?;
        let emitted = emit(prog, widths);
        let sig = fnv1a(fnv1a(0, ver.as_bytes()), emitted.source.as_bytes());
        if let Some(k) = self.registry.lock().unwrap().get(&sig) {
            return Ok((k.clone(), Provenance::MemoryCache));
        }
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| CodegenError::Cache(format!("create {}: {e}", self.dir.display())))?;
        let so = self.dir.join(format!("{sig:016x}.so"));
        let (kernel, provenance) = self.obtain(&so, &emitted, sig)?;
        self.registry.lock().unwrap().insert(sig, kernel.clone());
        Ok((kernel, provenance))
    }

    fn obtain(
        &self,
        so: &Path,
        emitted: &Emitted,
        sig: u64,
    ) -> Result<(Arc<NativeKernel>, Provenance), CodegenError> {
        if so.exists() {
            match load_kernel(so, sig, emitted) {
                Ok(k) => return Ok((k, Provenance::DiskCache)),
                // Corrupt, truncated, or foreign entry: drop and rebuild.
                Err(_) => {
                    let _ = std::fs::remove_file(so);
                }
            }
        }
        let provenance = self.build(so, emitted, sig)?;
        let kernel = load_kernel(so, sig, emitted)?;
        Ok((kernel, provenance))
    }

    /// Ensure `so` exists: compile it here, or wait for a concurrent
    /// builder holding the lock to publish it.
    fn build(&self, so: &Path, emitted: &Emitted, sig: u64) -> Result<Provenance, CodegenError> {
        let lock = self.dir.join(format!("{sig:016x}.lock"));
        let deadline = Instant::now() + self.lock_wait;
        loop {
            if so.exists() {
                return Ok(Provenance::DiskCache);
            }
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock)
            {
                Ok(_) => {
                    let res = self.compile(so, emitted, sig);
                    let _ = std::fs::remove_file(&lock);
                    return res.map(|()| Provenance::Compiled);
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    if Instant::now() >= deadline {
                        // A crashed builder left the lock behind; steal it
                        // and race for it again on the next iteration.
                        let _ = std::fs::remove_file(&lock);
                    } else {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
                Err(e) => return Err(CodegenError::Cache(format!("lock {}: {e}", lock.display()))),
            }
        }
    }

    /// Compile the generated source and atomically publish `<sig>.rs` and
    /// `<sig>.so` (write-to-temp + rename, so readers never observe a
    /// partial artifact).
    fn compile(&self, so: &Path, emitted: &Emitted, sig: u64) -> Result<(), CodegenError> {
        let pid = std::process::id();
        let rs = self.dir.join(format!("{sig:016x}.rs"));
        let rs_tmp = self.dir.join(format!("{sig:016x}.{pid}.rs.tmp"));
        let so_tmp = self.dir.join(format!("{sig:016x}.{pid}.so.tmp"));
        // The kernel exports its own content hash; the loader verifies it,
        // so a cache entry can never be silently substituted.
        let src = format!(
            "{}#[no_mangle]\npub static ARK_SIG: u64 = {sig}u64;\n",
            emitted.source
        );
        let io_err = |what: &str, e: std::io::Error| CodegenError::Cache(format!("{what}: {e}"));
        std::fs::write(&rs_tmp, src).map_err(|e| io_err("write source", e))?;
        std::fs::rename(&rs_tmp, &rs).map_err(|e| io_err("publish source", e))?;
        let out = std::process::Command::new(rustc_path())
            .args([
                "--edition",
                "2021",
                "--crate-type",
                "cdylib",
                "-C",
                "opt-level=3",
                "-C",
                "panic=abort",
                // Nothing to inline across the `inline(never)` chunk
                // boundaries, so local ThinLTO would only cost build time.
                "-C",
                "lto=off",
                "-C",
                "strip=symbols",
                "-C",
                "link-arg=-lm",
                "-o",
            ])
            .arg(&so_tmp)
            .arg(&rs)
            .output()
            .map_err(|e| CodegenError::Toolchain(format!("spawn {}: {e}", rustc_path())))?;
        if !out.status.success() {
            let _ = std::fs::remove_file(&so_tmp);
            return Err(CodegenError::Compile(
                String::from_utf8_lossy(&out.stderr).into_owned(),
            ));
        }
        std::fs::rename(&so_tmp, so).map_err(|e| io_err("publish kernel", e))
    }
}

/// Load and verify one compiled kernel.
#[cfg(unix)]
fn load_kernel(so: &Path, sig: u64, emitted: &Emitted) -> Result<Arc<NativeKernel>, CodegenError> {
    // The dynamic loader caches loaded objects *by pathname*: re-loading
    // `<hash>.so` after an in-process rebuild (corrupt entry replaced)
    // would silently return the stale mapping. Loading through a
    // unique-pathname hard link defeats the name cache while the loader's
    // inode check still dedupes genuinely identical files; the link is
    // removed right after `dlopen` (the mapping keeps the inode alive).
    static LOAD_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = LOAD_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let link = so.with_extension(format!("{}.{seq}.load.so", std::process::id()));
    let linked = std::fs::hard_link(so, &link).is_ok();
    let h = dl::open(if linked { &link } else { so }).map_err(CodegenError::Load);
    if linked {
        let _ = std::fs::remove_file(&link);
    }
    let h = h?;
    let sig_ptr = dl::sym(h, "ARK_SIG").map_err(CodegenError::Load)? as *const u64;
    // SAFETY: ARK_SIG is an exported u64 static in the generated library.
    let got = unsafe { *sig_ptr };
    if got != sig {
        return Err(CodegenError::Load(format!(
            "signature mismatch in {}: expected {sig:#x}, found {got:#x} (stale or foreign entry)",
            so.display()
        )));
    }
    let f = |seg: &str, width: usize| -> Result<SegFn, CodegenError> {
        let p = dl::sym(h, &export_name(seg, width)).map_err(CodegenError::Load)?;
        // SAFETY: the generated library exports this symbol with exactly
        // the SegFn ABI (unsafe extern "C" fn(*mut f64, *const f64, f64)).
        Ok(unsafe { std::mem::transmute::<*mut std::ffi::c_void, SegFn>(p) })
    };
    let mut fns = [None; SUPPORTED_LANES.len()];
    for (slot, width) in fns.iter_mut().zip(SUPPORTED_LANES) {
        if emitted.widths.contains(&width) {
            let [tp, body] = SEGMENT_NAMES;
            *slot = Some([f(tp, width)?, f(body, width)?]);
        }
    }
    Ok(Arc::new(NativeKernel {
        fns,
        min_regs: emitted.min_regs,
        min_slots: emitted.min_slots,
    }))
}

#[cfg(not(unix))]
fn load_kernel(_: &Path, _: u64, _: &Emitted) -> Result<Arc<NativeKernel>, CodegenError> {
    Err(CodegenError::Toolchain(
        "native codegen requires a unix dynamic loader".into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_expr;
    use crate::program::{ProgramBuilder, ProgramResolver, SlotResolver, VarRef};

    fn sample_program() -> SystemProgram {
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
        let v = pb
            .add_expr(
                &parse_expr("sin(var(x)) * 2 + cos(time)").unwrap(),
                &resolve,
            )
            .unwrap();
        pb.finish(&[v], 0)
    }

    /// Register stores in emitted source: one per lowered instruction.
    fn stores(source: &str) -> usize {
        source
            .lines()
            .filter(|l| l.trim_start().starts_with("*r.add("))
            .count()
    }

    /// The exported wrappers in emitted source, in order.
    fn exports(source: &str) -> Vec<&str> {
        source
            .lines()
            .filter_map(|l| l.strip_prefix("pub unsafe extern \"C\" fn "))
            .map(|l| &l[..l.find('(').expect("signature")])
            .collect()
    }

    #[test]
    fn emission_is_deterministic_and_covers_all_segments() {
        let prog = sample_program();
        let a = emit(&prog, &SUPPORTED_LANES);
        let b = emit(&prog, &SUPPORTED_LANES);
        assert_eq!(a.source, b.source);
        assert_eq!(
            exports(&a.source),
            [
                "ark_tp",
                "ark_tp4",
                "ark_tp8",
                "ark_body",
                "ark_body4",
                "ark_body8"
            ]
        );
        // A width set exports its widths and no others.
        let narrow = emit(&prog, &[1, 4]).source;
        assert_eq!(
            exports(&narrow),
            ["ark_tp", "ark_tp4", "ark_body", "ark_body4"]
        );
        for name in ["ark_tp8", "ark_body8"] {
            assert!(!narrow.contains(name), "{{1, 4}} emits no {name}");
        }
        let wide = emit(&prog, &[8]).source;
        assert_eq!(exports(&wide), ["ark_tp8", "ark_body8"]);
        assert!(a.min_slots >= 1, "program loads slot 0");
        assert!(a.min_regs >= prog.body_len());

        // Each instruction of these parameter-free programs is lowered once,
        // whatever the number of kernel widths, and no chunk exceeds CHUNK
        // instructions or holds more than one lane loop.
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|n: &str| (n == "x").then_some(0));
        let terms: Vec<String> = (1..=150).map(|k| format!("sin(var(x) * {k}.5)")).collect();
        let v = pb
            .add_expr(&parse_expr(&terms.join(" + ")).unwrap(), &resolve)
            .unwrap();
        let long = pb.finish(&[v], 0);
        assert!(long.body_len() > 2 * CHUNK, "body spans 3+ chunks");
        let e = emit(&long, &SUPPORTED_LANES);
        assert_eq!(stores(&a.source), prog.len());
        assert_eq!(stores(&e.source), long.len());
        // Every module after the prelude's `lm` is a chunk.
        let chunks: Vec<&str> = e.source.split("\nmod ").skip(2).collect();
        let segs = [&long.tprologue, &long.body];
        let expect: usize = segs.iter().map(|s| s.len().div_ceil(CHUNK)).sum();
        assert_eq!(chunks.len(), expect);
        for chunk in chunks {
            let chunk = &chunk[..chunk.find("\n}").expect("closed module")];
            assert!((1..=CHUNK).contains(&stores(chunk)), "{chunk}");
            assert_eq!(chunk.matches("for l in 0..L").count(), 1, "{chunk}");
        }
    }

    #[test]
    fn parameter_prologue_is_not_emitted() {
        struct R;
        impl ProgramResolver for R {
            fn var(&self, _: &str) -> Option<VarRef> {
                Some(VarRef::Slot(0))
            }
            fn attr(&self, _: &str, attr: &str) -> Option<usize> {
                (attr == "a").then_some(0)
            }
        }
        let mut pb = ProgramBuilder::new();
        let v = pb
            .add_expr(&parse_expr("exp(p.a) * var(x) + sin(time)").unwrap(), &R)
            .unwrap();
        let prog = pb.finish(&[v], 1);
        assert!(prog.param_prologue_len() > 0, "exp(p.a) is prologue work");
        let e = emit(&prog, &[1]);
        assert_eq!(stores(&e.source), prog.len() - prog.param_prologue_len());
        assert!(!e.source.contains("= exp("), "{}", e.source);
        assert!(!e.source.contains("mod pp_"), "{}", e.source);
    }

    #[test]
    fn identical_streams_share_a_hash_and_different_streams_do_not() {
        let a = emit(&sample_program(), &[1, 4]);
        let b = emit(&sample_program(), &[1, 4]);
        assert_eq!(fnv1a(0, a.source.as_bytes()), fnv1a(0, b.source.as_bytes()));
        // Each width set is its own library.
        let wide = emit(&sample_program(), &[1, 8]);
        assert_ne!(
            fnv1a(0, a.source.as_bytes()),
            fnv1a(0, wide.source.as_bytes())
        );
        let mut pb = ProgramBuilder::new();
        let resolve = SlotResolver(|_: &str| Some(0));
        let v = pb
            .add_expr(&parse_expr("tanh(var(x))").unwrap(), &resolve)
            .unwrap();
        let other = emit(&pb.finish(&[v], 0), &[1, 4]);
        assert_ne!(
            fnv1a(0, a.source.as_bytes()),
            fnv1a(0, other.source.as_bytes())
        );
    }

    #[test]
    fn backend_env_parsing_defaults_to_interp() {
        for (value, backend) in [
            (None, Backend::Interp),
            (Some(""), Backend::Interp),
            (Some("interp"), Backend::Interp),
            (Some("INTERP"), Backend::Interp),
            (Some("native"), Backend::Native),
            (Some("Native"), Backend::Native),
        ] {
            assert_eq!(Backend::parse_env(value), backend, "{value:?}");
        }
        let typo = std::panic::catch_unwind(|| Backend::parse_env(Some("nativ")))
            .expect_err("a mistyped backend must not fall back to the interpreter");
        let msg = typo
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(
            msg.contains("\"nativ\"") && msg.contains("`native`"),
            "{msg}"
        );
    }
}
