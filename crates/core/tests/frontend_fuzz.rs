//! No-panic fuzz of the textual frontend: 20 000 randomly edited copies of
//! the seed program — the quickstart program plus one language derived
//! from its `diffuse` — go through [`Program::parse`] and
//! [`Program::build`]. Every edit may make the program invalid, and a
//! typed error is the expected answer; a panic anywhere in parse, invoke,
//! validate or compile fails the test and prints the offending source.
//! A second property prints every language of each edited program that
//! parses, parses the printout again and prints that: both printouts must
//! agree. Because the seed already derives a language, the round trip
//! takes the `inherits` branch in every case that still parses, not only
//! when an edit happens to create one. One directed edit pins the typed
//! error of a call that parses and validates but has no program opcode.

use ark_core::program::{Program, ProgramError};
use ark_core::validate::ExternRegistry;
use ark_core::{language_to_source, CompileError, Value};
use proptest::prelude::*;
use std::panic;

/// The quickstart example's program: the raw-string literal in
/// `examples/quickstart.rs`, so the fuzz follows the README's first run.
fn quickstart_source() -> &'static str {
    let file = include_str!("../../../examples/quickstart.rs");
    let start = file.find("r#\"").expect("quickstart embeds its program") + 3;
    let len = file[start..].find("\"#").expect("raw string is terminated");
    &file[start..start + len]
}

/// A language deriving from `diffuse`: a narrowed, mismatched subtype of
/// each of its types and a production over them.
const DERIVED: &str = r#"
lang leaky inherits diffuse {
    ntyp(1, sum) Leaky inherit Cell {
        attr tau = real[0.1, 10] mm(0, 0.1);
    };
    etyp Pipe inherit Link { attr w = real[0, 1]; };
    prod(e:Pipe, s:Leaky -> t:Leaky) t <= e.w*(var(s)-var(t));
}
"#;

/// The fuzz seed: the quickstart program with [`DERIVED`] right after
/// its language.
fn seed_source() -> String {
    let src = quickstart_source();
    let at = src.find("\n}\n").expect("quickstart defines a language") + 3;
    format!("{}{DERIVED}{}", &src[..at], &src[at..])
}

/// Replacement tokens: keywords, names from the program, punctuation and
/// numeric edge cases.
#[rustfmt::skip]
const TOKENS: &[&str] = &[
    "", " ", "\n", "0", "1", "-1", "1e308", "-1e308", "1e-320", "inf", "-inf", "nan", "NaN",
    "(", ")", "[", "]", "{", "}", "<", ">", ";", ",", ":", ".", "->", "<=", "=", "+", "-", "*",
    "/", "//", "\"", "lang", "func", "uses", "ntyp", "etyp", "prod", "cstr", "acc", "rej",
    "match", "attr", "init", "default", "real", "int", "sum", "mul", "node", "edge",
    "set-attr", "set-init", "var", "Cell", "Link", "diffuse", "chain", "s", "t", "e", "w",
    "tau", "a", "b", "c", "a(0)", "a(1)", "s.tau", "e.w", "var(s)", "var(t)", "sin(", "exp(",
    "real[0, 10]", "real[10, 0]", "match(0, inf, Link, Cell)", "ntyp(0, sum)", "ntyp(3, mul)",
    "inherits", "inherit",
];

/// One edit: `(kind, position, length, token/byte selector)`. Positions
/// and lengths are reduced modulo the current source length.
type Edit = (u8, usize, usize, usize);

fn is_word(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b == b'.'
}

fn apply(src: &mut Vec<u8>, (kind, pos, len, pick): Edit) {
    let n = src.len();
    if n == 0 {
        src.extend_from_slice(TOKENS[pick % TOKENS.len()].as_bytes());
        return;
    }
    let at = pos % n;
    let end = (at + len).min(n);
    match kind {
        // Delete a byte span.
        0 => {
            src.drain(at..end);
        }
        // Insert one printable ASCII byte (or a newline).
        1 => src.insert(
            at,
            if pick % 96 == 95 {
                b'\n'
            } else {
                b' ' + (pick % 95) as u8
            },
        ),
        // Overwrite one byte with printable ASCII.
        2 => src[at] = b' ' + (pick % 95) as u8,
        // Duplicate a span somewhere else.
        3 => {
            let span = src[at..end].to_vec();
            let to = pick % (n + 1);
            src.splice(to..to, span);
        }
        // Replace the word (or punctuation byte) under `at` with a token.
        _ => {
            let (mut lo, mut hi) = (at, at + 1);
            if is_word(src[at]) {
                while lo > 0 && is_word(src[lo - 1]) {
                    lo -= 1;
                }
                while hi < n && is_word(src[hi]) {
                    hi += 1;
                }
            }
            src.splice(lo..hi, TOKENS[pick % TOKENS.len()].bytes());
        }
    }
}

/// The seed program with `edits` applied in order.
fn edited_seed(edits: &[Edit]) -> String {
    let mut bytes = seed_source().into_bytes();
    for &edit in edits {
        apply(&mut bytes, edit);
    }
    String::from_utf8(bytes).expect("edits insert ASCII only")
}

/// `lang`'s printout after a print → parse round trip. A derived language
/// is printed after its parents (root first), so the printout parses on
/// its own.
fn reprint(program: &Program, lang: &str) -> Result<String, ProgramError> {
    let chain = program.language(lang).expect("listed language").chain();
    let src: Vec<String> = chain
        .iter()
        .map(|name| language_to_source(program.language(name).expect("parent is defined")))
        .collect();
    let back = Program::parse(&src.join("\n"))?;
    Ok(language_to_source(
        back.language(lang).expect("reparsed language"),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn edited_seed_never_panics(
        edits in proptest::collection::vec((0u8..5, 0usize..4096, 1usize..16, 0usize..4096), 1..=4),
    ) {
        let src = edited_seed(&edits);
        let outcome = panic::catch_unwind(|| {
            Program::parse(&src).and_then(|program| {
                program.build("chain", &[Value::Real(2.0)], 0, &ExternRegistry::new())
            })
        });
        prop_assert!(outcome.is_ok(), "frontend panicked on edits {:?}:\n{}", edits, src);
    }

    #[test]
    fn edited_seed_prints_and_reparses_identically(
        edits in proptest::collection::vec((0u8..5, 0usize..4096, 1usize..16, 0usize..4096), 1..=4),
    ) {
        let src = edited_seed(&edits);
        if let Ok(program) = Program::parse(&src) {
            for lang in program.lang_names() {
                let printed = language_to_source(program.language(lang).expect("listed language"));
                let reprinted = reprint(&program, lang);
                prop_assert!(
                    matches!(&reprinted, Ok(r) if *r == printed),
                    "language {} of edits {:?} does not round-trip:\n{}\nprinted:\n{}\nreprinted: {:?}",
                    lang, edits, src, printed, reprinted
                );
            }
        }
    }
}

/// The unedited seed parses, derives `leaky` from `diffuse`, builds the
/// quickstart's `chain` and round-trips every language.
#[test]
fn seed_program_derives_a_language() {
    let program = Program::parse(&seed_source()).expect("seed parses");
    let leaky = program.language("leaky").expect("derived language");
    assert_eq!(leaky.parent_name(), Some("diffuse"));
    program
        .build("chain", &[Value::Real(2.0)], 0, &ExternRegistry::new())
        .expect("chain builds");
    for lang in program.lang_names() {
        let printed = language_to_source(program.language(lang).expect("listed language"));
        assert_eq!(reprint(&program, lang).expect("printout parses"), printed);
    }
}

/// `atan2` passes parse and validation (it is a tree-walk builtin) but has
/// no program opcode: `build` must return a typed lowering error that
/// names the call, in terms of the system program.
#[test]
fn unsupported_call_is_a_typed_lowering_error() {
    let src = quickstart_source().replace("s <= -var(s)/s.tau;", "s <= -atan2(var(s), s.tau);");
    assert_ne!(src, quickstart_source(), "quickstart leak rule not found");
    let program = Program::parse(&src).expect("atan2 parses");
    let err = program
        .build("chain", &[Value::Real(2.0)], 0, &ExternRegistry::new())
        .expect_err("atan2 cannot be lowered");
    let ProgramError::Compile(CompileError::Lowering(msg)) = &err else {
        panic!("expected a lowering error, got {err:?}");
    };
    assert!(msg.contains("`atan2`"), "{msg}");
    assert!(!err.to_string().contains("tape"), "{err}");
}
