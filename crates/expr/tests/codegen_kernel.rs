//! Opcode-complete native-vs-interpreter parity for generated kernels:
//! one program exercising every `POp` the emitter can see (loads, negated
//! loads, all unary/binary/comparison/boolean operators, the fused
//! mul-add family, select, and the three builtin waveforms), evaluated at
//! awkward points, must agree **bit for bit** between the interpreter and
//! the native backend — scalar and at every generated lane width, plus
//! the interpreter fallback at a width codegen does not generate. A second,
//! long program pins the same parity across the emitter's chunk boundaries.

use ark_expr::{
    parse_expr, Backend, LaneScratch, ProgramBuilder, ProgramResolver, SlotResolver, SystemProgram,
    ValueId, VarRef,
};

/// Every expression form that lowers to a distinct opcode. Operand slots
/// are varied so CSE cannot collapse the fusion candidates.
const EXPRS: &[&str] = &[
    "time",
    "var(x)",
    "-var(y)",
    "-(var(x) + var(y))",
    "sin(var(x))",
    "cos(var(y))",
    "tan(0.25*var(x))",
    "tanh(var(z))",
    "exp(0.5*var(y))",
    "ln(abs(var(x)) + 1.5)",
    "sqrt(abs(var(z)) + 0.25)",
    "abs(var(y))",
    "sgn(var(x))",
    "sat(var(z))",
    "sat_ni(var(y))",
    "var(x) + var(y)",
    "var(x) - var(z)",
    "var(y) * var(z)",
    "var(x) / (abs(var(y)) + 2.0)",
    "pow(abs(var(x)) + 0.5, var(y))",
    "min(var(x), var(y))",
    "max(var(y), var(z))",
    "var(x)*var(y) + var(z)",
    "var(z) + var(y)*var(x)",
    "var(z)*var(x) - var(y)",
    "var(y) - var(x)*var(z)",
    "if var(x) < var(y) then var(z) else -var(z)",
    "if var(x) <= var(y) then 1 else 0",
    "if var(x) > var(z) then 1 else 0",
    "if var(x) >= var(z) then 1 else 0",
    "if var(x) == var(y) then 1 else 0",
    "if var(x) != var(y) then 1 else 0",
    "if var(x) > 0 and var(y) > 0 then var(x) else var(y)",
    "if var(x) > 0 or var(z) > 0 then var(z) else var(x)",
    "if not (var(y) > 0) then 2 else 3",
    "pulse(time, 0.1, var(x)*var(x))",
    "square_pulse(time, 0.2, abs(var(y)))",
    "smoothstep(time, 0.5, abs(var(z)) + 0.1)",
    // Time-prologue content (static, time-dependent) and param-free
    // prologue hoisting ride along via `time`-only subtrees.
    "sin(time) * var(x) + cos(time)",
];

const SLOTS: [&str; 3] = ["x", "y", "z"];

fn build() -> SystemProgram {
    let mut pb = ProgramBuilder::new();
    let resolve = SlotResolver(|n: &str| SLOTS.iter().position(|s| *s == n));
    let outs: Vec<_> = EXPRS
        .iter()
        .map(|s| {
            pb.add_expr(&parse_expr(s).unwrap(), &resolve)
                .unwrap_or_else(|e| panic!("{s}: {e:?}"))
        })
        .collect();
    pb.finish(&outs, 0)
}

/// Awkward evaluation points: negatives, zero, subnormal-adjacent, values
/// that land exactly on comparison boundaries.
const POINTS: [([f64; 3], f64); 5] = [
    ([1.0, 2.0, 3.0], 0.15),
    ([-1.5, -1.5, 0.0], 0.5),
    ([0.3333333333333333, -2.5, 1e-8], 0.2),
    ([1.0000000000000002, 1.0, -0.75], 0.9),
    ([0.0, -0.0, 5.0], 0.35),
];

#[test]
fn native_scalar_bit_identical_to_interpreter() {
    let interp = build();
    let mut native = build();
    native.set_backend(Backend::Native);
    assert_eq!(native.backend(), Backend::Native);
    assert!(
        native.native_active(),
        "kernel must compile in this environment (rustc is on PATH)"
    );
    let mut si = LaneScratch::<1>::default();
    let mut sn = LaneScratch::<1>::default();
    let mut oi = vec![0.0; EXPRS.len()];
    let mut on = vec![0.0; EXPRS.len()];
    for (slots, t) in POINTS {
        // Twice per point: cold, then through the warm time-prologue cache.
        for round in 0..2 {
            interp.eval_into(&mut si, &slots, t, &[], &mut oi);
            native.eval_into(&mut sn, &slots, t, &[], &mut on);
            for (k, (a, b)) in oi.iter().zip(&on).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {round} expr `{}` at {slots:?} t={t}: interp {a} vs native {b}",
                    EXPRS[k]
                );
            }
        }
    }
}

fn laned_parity<const L: usize>() {
    let interp = build();
    let mut native = build();
    native.set_backend(Backend::Native);
    let mut si = LaneScratch::<L>::default();
    let mut sn = LaneScratch::<L>::default();
    let mut oi = vec![[0.0; L]; EXPRS.len()];
    let mut on = vec![[0.0; L]; EXPRS.len()];
    for (base, t) in POINTS {
        let slots: Vec<[f64; L]> = base
            .iter()
            .map(|&v| std::array::from_fn(|l| v + 0.0625 * l as f64))
            .collect();
        interp.eval_lanes_bound(&mut si, &slots, t, &mut oi);
        native.eval_lanes_bound(&mut sn, &slots, t, &mut on);
        for (k, (a, b)) in oi.iter().zip(&on).enumerate() {
            for l in 0..L {
                assert_eq!(
                    a[l].to_bits(),
                    b[l].to_bits(),
                    "expr `{}` lane {l}/{L} t={t}: interp {} vs native {}",
                    EXPRS[k],
                    a[l],
                    b[l]
                );
            }
        }
    }
}

#[test]
fn native_lanes4_bit_identical_to_interpreter() {
    laned_parity::<4>();
}

#[test]
fn native_lanes8_bit_identical_to_interpreter() {
    laned_parity::<8>();
}

/// A width with no generated kernel (L = 2) must transparently interpret —
/// same results, no panic, native stays active for the scalar path.
#[test]
fn unsupported_lane_width_falls_back_to_interpreter() {
    laned_parity::<2>();
    let mut native = build();
    native.set_backend(Backend::Native);
    assert!(native.native_active(), "scalar kernel still available");
}

/// Switching a program back to the interpreter must fully disable the
/// kernel (and stay bit-identical, trivially).
#[test]
fn backend_switch_roundtrip() {
    let mut prog = build();
    prog.set_backend(Backend::Native);
    assert!(prog.native_active());
    prog.set_backend(Backend::Interp);
    assert!(!prog.native_active());
    assert_eq!(prog.backend(), Backend::Interp);
}

/// Resolves `x`/`y`/`z` to state slots, `p.g<k>` to parameter slot `k`,
/// and `var(v<i>)` to the `i`-th value built so far — so long chains can be
/// grown one small expression at a time.
struct ChainResolver<'a>(&'a [ValueId]);

impl ProgramResolver for ChainResolver<'_> {
    fn var(&self, name: &str) -> Option<VarRef> {
        match SLOTS.iter().position(|s| *s == name) {
            Some(slot) => Some(VarRef::Slot(slot)),
            None => Some(VarRef::Value(
                self.0[name.strip_prefix('v')?.parse::<usize>().ok()?],
            )),
        }
    }

    fn attr(&self, entity: &str, attr: &str) -> Option<usize> {
        (entity == "p").then(|| attr.strip_prefix('g')?.parse().ok())?
    }
}

const CHAIN_PARAMS: usize = 4;

/// A program whose parameter prologue and body each span more than three
/// 128-instruction chunks. Every step reads its predecessor and a value
/// defined about half the chain earlier, so registers defined in one chunk
/// are read in later ones; the body's last values are outputs, written in
/// its last chunk. The parameter prologue always interprets, so the native
/// body reads registers the interpreter wrote.
fn build_chunked() -> SystemProgram {
    let mut pb = ProgramBuilder::new();
    let mut values: Vec<ValueId> = Vec::new();
    let add = |pb: &mut ProgramBuilder, values: &mut Vec<ValueId>, src: String| {
        let v = pb
            .add_expr(&parse_expr(&src).unwrap(), &ChainResolver(values))
            .unwrap_or_else(|e| panic!("{src}: {e:?}"));
        values.push(v);
    };
    // Parameter prologue: w_k = sin(w_{k-1} * g + w_{k/2}), time- and
    // state-free, two instructions per step.
    add(&mut pb, &mut values, "p.g0".into());
    add(&mut pb, &mut values, "p.g1".into());
    for k in 2..300 {
        let src = format!(
            "sin(var(v{}) * p.g{} + var(v{}))",
            k - 1,
            k % CHAIN_PARAMS,
            k / 2
        );
        add(&mut pb, &mut values, src);
    }
    add(&mut pb, &mut values, "sin(time * p.g2)".into());
    let s = values.len() - 1;
    // Body: u_k = tanh(u_{k-1} * w_j + u_{k/2}), with a time-prologue term
    // folded in every fifth step.
    let u0 = values.len();
    add(&mut pb, &mut values, "var(x)".into());
    add(&mut pb, &mut values, "var(y)".into());
    for k in 2..250 {
        let (prev, half, w) = (u0 + k - 1, u0 + k / 2, (k * 7) % 300);
        let mut src = format!("tanh(var(v{prev}) * var(v{w}) + var(v{half}))");
        if k % 5 == 0 {
            src = format!("{src} - var(z) * var(v{s})");
        }
        add(&mut pb, &mut values, src);
    }
    let outs: Vec<ValueId> = (u0..values.len())
        .filter(|i| (i - u0) % 50 == 0 || i + 3 >= values.len())
        .chain([299])
        .map(|i| values[i])
        .collect();
    let prog = pb.finish(&outs, CHAIN_PARAMS);
    // Three full chunks and then some, in both long segments.
    assert!(
        prog.param_prologue_len() > 3 * 128,
        "{}",
        prog.param_prologue_len()
    );
    assert!(prog.body_len() > 3 * 128, "{}", prog.body_len());
    prog
}

fn chunk_params(k: usize) -> [f64; CHAIN_PARAMS] {
    std::array::from_fn(|i| 0.7 + 0.11 * i as f64 - 0.03 * k as f64)
}

#[test]
fn multi_chunk_scalar_bit_identical_to_interpreter() {
    let interp = build_chunked();
    let mut native = build_chunked();
    native.set_backend(Backend::Native);
    assert!(
        native.native_active(),
        "kernel must compile in this environment"
    );
    let n_out = interp.output_count();
    let (mut si, mut sn) = (LaneScratch::<1>::default(), LaneScratch::<1>::default());
    let (mut oi, mut on) = (vec![0.0; n_out], vec![0.0; n_out]);
    for (k, (slots, t)) in POINTS.into_iter().enumerate() {
        let params = chunk_params(k);
        interp.eval_into(&mut si, &slots, t, &params, &mut oi);
        native.eval_into(&mut sn, &slots, t, &params, &mut on);
        for (j, (a, b)) in oi.iter().zip(&on).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "output {j} point {k}: {a} vs {b}");
        }
    }
}

fn multi_chunk_laned_parity<const L: usize>() {
    let interp = build_chunked();
    let mut native = build_chunked();
    native.set_backend(Backend::Native);
    assert!(
        native.native_active(),
        "kernel must compile in this environment"
    );
    let n_out = interp.output_count();
    let (mut si, mut sn) = (LaneScratch::<L>::default(), LaneScratch::<L>::default());
    let (mut oi, mut on) = (vec![[0.0; L]; n_out], vec![[0.0; L]; n_out]);
    for (k, (base, t)) in POINTS.into_iter().enumerate() {
        let lane_params: Vec<[f64; CHAIN_PARAMS]> = (0..L).map(|l| chunk_params(k + l)).collect();
        let params: Vec<&[f64]> = lane_params.iter().map(|p| &p[..]).collect();
        let slots: Vec<[f64; L]> = base
            .iter()
            .map(|&v| std::array::from_fn(|l| v - 0.125 * l as f64))
            .collect();
        interp.set_params_lanes(&mut si, &params);
        native.set_params_lanes(&mut sn, &params);
        interp.eval_lanes_bound(&mut si, &slots, t, &mut oi);
        native.eval_lanes_bound(&mut sn, &slots, t, &mut on);
        for (j, (a, b)) in oi.iter().zip(&on).enumerate() {
            for l in 0..L {
                assert_eq!(
                    a[l].to_bits(),
                    b[l].to_bits(),
                    "output {j} lane {l}/{L} point {k}: {} vs {}",
                    a[l],
                    b[l]
                );
            }
        }
    }
}

#[test]
fn multi_chunk_lanes4_bit_identical_to_interpreter() {
    multi_chunk_laned_parity::<4>();
}

#[test]
fn multi_chunk_lanes8_bit_identical_to_interpreter() {
    multi_chunk_laned_parity::<8>();
}
