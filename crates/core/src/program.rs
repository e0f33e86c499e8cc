//! Whole-program handling (paper §4.6): collect language and function
//! definitions, then invoke functions with arguments to produce dynamical
//! graphs.
//!
//! `Ark executes the function with the provided arguments to build the
//! associated dynamic graph and then validates that the dynamic graph
//! satisfies the local and global validation rules in the associated
//! language` — [`Program::build`] is exactly that pipeline, and
//! [`Program::invoke_in`] additionally supports running a function written
//! in a parent language under a derived language (sound by the inheritance
//! rules of §4.1.1, and the mechanism behind the paper's progressive
//! nonideality studies).

use crate::compile::{CompileError, CompiledSystem};
use crate::dg::Graph;
use crate::func::{FuncError, GraphBuilder};
use crate::lang::{LangError, Language, LanguageBuilder};
use crate::parse::{parse_program, FuncDef, FuncStmt, FuncVal};
use crate::types::{SigKind, SigType, Value};
use crate::validate::{validate, ExternRegistry, ValidateError, ValidationReport};
use ark_expr::eval::MapContext;
use ark_expr::{eval_bool, ParseError};
use std::collections::BTreeMap;
use std::fmt;

/// An error from parsing, checking, or invoking an Ark program.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramError {
    /// Source text failed to parse.
    Parse(ParseError),
    /// A language definition failed its semantic checks.
    Lang(LangError),
    /// A function references an unknown language.
    UnknownLanguage(String),
    /// Invocation of an unknown function.
    UnknownFunction(String),
    /// Wrong number of arguments in an invocation.
    ArgCount {
        /// Function name.
        func: String,
        /// Declared parameter count.
        expected: usize,
        /// Provided argument count.
        got: usize,
    },
    /// An argument value does not inhabit its declared type.
    ArgType {
        /// Function name.
        func: String,
        /// Parameter name.
        arg: String,
        /// Declared type, rendered.
        expected: String,
    },
    /// A function-body statement failed.
    Func(FuncError),
    /// A switch condition failed to evaluate.
    BadSwitchCond(String),
    /// The produced graph failed validation.
    Invalid(ValidationReport),
    /// Validation could not run (unknown types / missing externs).
    Validate(ValidateError),
    /// Compilation failed.
    Compile(CompileError),
    /// `invoke_in` target language does not derive from the function's
    /// language.
    NotDerivedFrom {
        /// The language requested.
        requested: String,
        /// The language the function declares.
        declared: String,
    },
    /// Duplicate top-level definition.
    Duplicate(String),
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::Parse(e) => write!(f, "{e}"),
            ProgramError::Lang(e) => write!(f, "{e}"),
            ProgramError::UnknownLanguage(l) => write!(f, "unknown language `{l}`"),
            ProgramError::UnknownFunction(x) => write!(f, "unknown function `{x}`"),
            ProgramError::ArgCount {
                func,
                expected,
                got,
            } => {
                write!(f, "function `{func}` takes {expected} arguments, got {got}")
            }
            ProgramError::ArgType {
                func,
                arg,
                expected,
            } => {
                write!(f, "argument `{arg}` of `{func}` must inhabit {expected}")
            }
            ProgramError::Func(e) => write!(f, "{e}"),
            ProgramError::BadSwitchCond(m) => write!(f, "bad switch condition: {m}"),
            ProgramError::Invalid(r) => write!(f, "graph failed validation: {r}"),
            ProgramError::Validate(e) => write!(f, "{e}"),
            ProgramError::Compile(e) => write!(f, "{e}"),
            ProgramError::NotDerivedFrom {
                requested,
                declared,
            } => {
                write!(
                    f,
                    "language `{requested}` does not derive from `{declared}`"
                )
            }
            ProgramError::Duplicate(n) => write!(f, "duplicate definition `{n}`"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<ParseError> for ProgramError {
    fn from(e: ParseError) -> Self {
        ProgramError::Parse(e)
    }
}

impl From<LangError> for ProgramError {
    fn from(e: LangError) -> Self {
        ProgramError::Lang(e)
    }
}

impl From<FuncError> for ProgramError {
    fn from(e: FuncError) -> Self {
        ProgramError::Func(e)
    }
}

impl From<ValidateError> for ProgramError {
    fn from(e: ValidateError) -> Self {
        ProgramError::Validate(e)
    }
}

impl From<CompileError> for ProgramError {
    fn from(e: CompileError) -> Self {
        ProgramError::Compile(e)
    }
}

/// A checked Ark program: languages (with inheritance resolved) and
/// function definitions.
#[derive(Debug, Clone, Default)]
pub struct Program {
    langs: BTreeMap<String, Language>,
    funcs: BTreeMap<String, FuncDef>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Parse and check Ark source text. Languages must be defined before
    /// they are inherited from or used.
    ///
    /// # Errors
    ///
    /// [`ProgramError::Parse`] / [`ProgramError::Lang`] on malformed input.
    pub fn parse(src: &str) -> Result<Program, ProgramError> {
        let ast = parse_program(src)?;
        let mut prog = Program::new();
        for l in ast.langs {
            let mut builder = match &l.inherits {
                None => LanguageBuilder::new(&l.name),
                Some(p) => {
                    let parent = prog
                        .langs
                        .get(p)
                        .ok_or_else(|| ProgramError::UnknownLanguage(p.clone()))?;
                    LanguageBuilder::derive(&l.name, parent)
                }
            };
            for nt in l.node_types {
                builder = builder.node_type(nt);
            }
            for et in l.edge_types {
                builder = builder.edge_type(et);
            }
            for p in l.prods {
                builder = builder.prod(p);
            }
            for c in l.cstrs {
                builder = builder.cstr(c);
            }
            for x in l.externs {
                builder = builder.extern_check(x);
            }
            let lang = builder.finish()?;
            if prog.langs.insert(l.name.clone(), lang).is_some() {
                return Err(ProgramError::Duplicate(l.name));
            }
        }
        for f in ast.funcs {
            if !prog.langs.contains_key(&f.lang) {
                return Err(ProgramError::UnknownLanguage(f.lang.clone()));
            }
            let name = f.name.clone();
            if prog.funcs.insert(name.clone(), f).is_some() {
                return Err(ProgramError::Duplicate(name));
            }
        }
        Ok(prog)
    }

    /// Register a programmatically built language.
    ///
    /// # Errors
    ///
    /// [`ProgramError::Duplicate`] if the name is taken.
    pub fn add_language(&mut self, lang: Language) -> Result<(), ProgramError> {
        let name = lang.name().to_string();
        if self.langs.insert(name.clone(), lang).is_some() {
            return Err(ProgramError::Duplicate(name));
        }
        Ok(())
    }

    /// Look up a language by name.
    pub fn language(&self, name: &str) -> Option<&Language> {
        self.langs.get(name)
    }

    /// Look up a function definition by name.
    pub fn func(&self, name: &str) -> Option<&FuncDef> {
        self.funcs.get(name)
    }

    /// Names of all defined functions.
    pub fn func_names(&self) -> impl Iterator<Item = &str> {
        self.funcs.keys().map(String::as_str)
    }

    /// Names of all defined languages.
    pub fn lang_names(&self) -> impl Iterator<Item = &str> {
        self.langs.keys().map(String::as_str)
    }

    /// Invoke a function to build a dynamical graph (unvalidated). `seed`
    /// selects the fabricated instance for mismatch sampling.
    ///
    /// # Errors
    ///
    /// Argument-binding errors and any function-statement failure.
    pub fn invoke(&self, func: &str, args: &[Value], seed: u64) -> Result<Graph, ProgramError> {
        let f = self
            .funcs
            .get(func)
            .ok_or_else(|| ProgramError::UnknownFunction(func.into()))?;
        let lang = self
            .langs
            .get(&f.lang)
            .ok_or_else(|| ProgramError::UnknownLanguage(f.lang.clone()))?;
        self.run_func(f, lang, args, seed)
    }

    /// Invoke a function, executing it *in a derived language*. The paper's
    /// inheritance rules guarantee that a computation written in the parent
    /// language runs unchanged in the derived language with identical
    /// dynamics; this method is how that guarantee is exercised.
    ///
    /// # Errors
    ///
    /// [`ProgramError::NotDerivedFrom`] when `lang` does not derive from the
    /// function's declared language.
    pub fn invoke_in(
        &self,
        func: &str,
        lang: &str,
        args: &[Value],
        seed: u64,
    ) -> Result<Graph, ProgramError> {
        let f = self
            .funcs
            .get(func)
            .ok_or_else(|| ProgramError::UnknownFunction(func.into()))?;
        let target = self
            .langs
            .get(lang)
            .ok_or_else(|| ProgramError::UnknownLanguage(lang.into()))?;
        if !target.chain().iter().any(|l| l == &f.lang) {
            return Err(ProgramError::NotDerivedFrom {
                requested: lang.into(),
                declared: f.lang.clone(),
            });
        }
        self.run_func(f, target, args, seed)
    }

    /// Invoke, validate, and compile in one step — the paper's end-user flow
    /// (§4.6).
    ///
    /// # Errors
    ///
    /// Any invocation error, [`ProgramError::Invalid`] when validation finds
    /// violations, or a compilation failure.
    pub fn build(
        &self,
        func: &str,
        args: &[Value],
        seed: u64,
        externs: &ExternRegistry,
    ) -> Result<(Graph, CompiledSystem), ProgramError> {
        let f = self
            .funcs
            .get(func)
            .ok_or_else(|| ProgramError::UnknownFunction(func.into()))?;
        let lang = self
            .langs
            .get(&f.lang)
            .ok_or_else(|| ProgramError::UnknownLanguage(f.lang.clone()))?;
        let graph = self.run_func(f, lang, args, seed)?;
        let report = validate(lang, &graph, externs)?;
        if !report.is_valid() {
            return Err(ProgramError::Invalid(report));
        }
        let sys = CompiledSystem::compile(lang, &graph)?;
        Ok((graph, sys))
    }

    fn run_func(
        &self,
        f: &FuncDef,
        lang: &Language,
        args: &[Value],
        seed: u64,
    ) -> Result<Graph, ProgramError> {
        if args.len() != f.args.len() {
            return Err(ProgramError::ArgCount {
                func: f.name.clone(),
                expected: f.args.len(),
                got: args.len(),
            });
        }
        let mut bound: BTreeMap<String, Value> = BTreeMap::new();
        for ((name, ty), value) in f.args.iter().zip(args) {
            let coerced = coerce(value.clone(), ty);
            if !ty.admits(&coerced) {
                return Err(ProgramError::ArgType {
                    func: f.name.clone(),
                    arg: name.clone(),
                    expected: ty.to_string(),
                });
            }
            bound.insert(name.clone(), coerced);
        }
        let mut b = GraphBuilder::new(lang, seed);
        for stmt in &f.body {
            match stmt {
                FuncStmt::Node { name, ty } => {
                    b.node(name, ty)?;
                }
                FuncStmt::Edge { name, ty, src, dst } => {
                    b.edge(name, ty, src, dst)?;
                }
                FuncStmt::SetAttr {
                    entity,
                    attr,
                    value,
                } => match value {
                    FuncVal::Lit(v) => b.set_attr(entity, attr, v.clone())?,
                    FuncVal::Arg(a) => {
                        let v = bound
                            .get(a)
                            .ok_or_else(|| {
                                ProgramError::BadSwitchCond(format!("unknown argument `{a}`"))
                            })?
                            .clone();
                        b.set_attr_from_arg(entity, attr, v)?;
                    }
                },
                FuncStmt::SetInit { node, index, value } => {
                    let v = match value {
                        FuncVal::Lit(v) => v.clone(),
                        FuncVal::Arg(a) => bound
                            .get(a)
                            .ok_or_else(|| {
                                ProgramError::BadSwitchCond(format!("unknown argument `{a}`"))
                            })?
                            .clone(),
                    };
                    let x = v.as_real().ok_or_else(|| {
                        ProgramError::BadSwitchCond("initial value must be numeric".into())
                    })?;
                    b.set_init(node, *index, x)?;
                }
                FuncStmt::SetSwitch { edge, cond } => {
                    let mut ctx = MapContext::new();
                    for (k, v) in &bound {
                        if let Some(x) = v.as_real() {
                            ctx.args.insert(k.clone(), x);
                        }
                    }
                    let on = eval_bool(cond, &ctx)
                        .map_err(|e| ProgramError::BadSwitchCond(e.to_string()))?;
                    b.set_switch(edge, on)?;
                }
            }
        }
        Ok(b.finish()?)
    }
}

/// Coerce a numeric value to the declared argument kind (`Real(2.0)` passed
/// for an `int[..]` parameter becomes `Int(2)` when integral).
fn coerce(value: Value, ty: &SigType) -> Value {
    match (ty.kind, &value) {
        (SigKind::Int, Value::Real(x)) if x.fract() == 0.0 => Value::Int(*x as i64),
        (SigKind::Real, Value::Int(i)) => Value::Real(*i as f64),
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ode::{integrate, Rk4, Trajectory};

    /// RK4 from the system's own initial state, keeping every `stride`-th step.
    fn simulate(sys: &CompiledSystem, dt: f64, t1: f64, stride: usize) -> Trajectory {
        let y0 = sys.initial_state();
        integrate(&Rk4 { dt }, &sys.bind(), 0.0, &y0, t1, stride).unwrap()
    }

    /// An RC-pair program exercising the whole pipeline end to end.
    const SRC: &str = r#"
lang rc {
    ntyp(1, sum) V {
        attr tau = real[0.1, 10];
        init(0) = real[-10, 10] default 0;
    };
    etyp E {};
    prod(e:E, s:V -> s:V) s <= -var(s)/s.tau;
    prod(e:E, s:V -> t:V) t <= var(s)/t.tau;
    cstr V {
        acc [ match(0, inf, E, V->[V]), match(0, inf, E, [V]->V), match(1, 1, E, V) ]
    };
}

lang rc_mm inherits rc {
    ntyp(1, sum) Vm inherit V {
        attr tau = real[0.1, 10] mm(0, 0.1);
    };
}

func pair(couple: int[0, 1], tau: real[0.1, 10]) uses rc {
    node a : V;
    node b : V;
    edge <a, a> sa : E;
    edge <b, b> sb : E;
    edge <a, b> c : E;
    set-attr a.tau = tau;
    set-attr b.tau = tau;
    set-init a(0) = 1.0;
    set-switch c when couple;
}
"#;

    #[test]
    fn parse_invoke_validate_compile() {
        let prog = Program::parse(SRC).unwrap();
        assert_eq!(prog.lang_names().count(), 2);
        assert_eq!(prog.func_names().count(), 1);
        let (graph, sys) = prog
            .build(
                "pair",
                &[Value::Int(0), Value::Real(1.0)],
                0,
                &ExternRegistry::new(),
            )
            .unwrap();
        assert_eq!(graph.num_nodes(), 2);
        assert_eq!(sys.num_states(), 2);
        // Uncoupled: a decays like e^-t, b stays 0.
        let tr = simulate(&sys, 1e-3, 1.0, 10);
        let a = tr.last().unwrap().1[sys.state_index("a").unwrap()];
        let bb = tr.last().unwrap().1[sys.state_index("b").unwrap()];
        assert!((a - (-1.0f64).exp()).abs() < 1e-8);
        assert_eq!(bb, 0.0);
    }

    #[test]
    fn switch_argument_changes_topology() {
        let prog = Program::parse(SRC).unwrap();
        let g0 = prog
            .invoke("pair", &[Value::Int(0), Value::Real(1.0)], 0)
            .unwrap();
        let g1 = prog
            .invoke("pair", &[Value::Int(1), Value::Real(1.0)], 0)
            .unwrap();
        let c0 = g0.edge(g0.edge_id("c").unwrap()).on;
        let c1 = g1.edge(g1.edge_id("c").unwrap()).on;
        assert!(!c0);
        assert!(c1);
    }

    #[test]
    fn coupled_pair_transfers_charge() {
        let prog = Program::parse(SRC).unwrap();
        let (_, sys) = prog
            .build(
                "pair",
                &[Value::Int(1), Value::Real(1.0)],
                0,
                &ExternRegistry::new(),
            )
            .unwrap();
        let tr = simulate(&sys, 1e-3, 1.0, 10);
        let b = tr.last().unwrap().1[sys.state_index("b").unwrap()];
        assert!(b > 0.1, "b should accumulate charge, got {b}");
    }

    #[test]
    fn arg_checking() {
        let prog = Program::parse(SRC).unwrap();
        assert!(matches!(
            prog.invoke("pair", &[Value::Int(0)], 0),
            Err(ProgramError::ArgCount { .. })
        ));
        assert!(matches!(
            prog.invoke("pair", &[Value::Int(7), Value::Real(1.0)], 0),
            Err(ProgramError::ArgType { .. })
        ));
        assert!(matches!(
            prog.invoke("pair", &[Value::Int(0), Value::Real(99.0)], 0),
            Err(ProgramError::ArgType { .. })
        ));
        assert!(matches!(
            prog.invoke("nope", &[], 0),
            Err(ProgramError::UnknownFunction(_))
        ));
    }

    #[test]
    fn int_coercion_accepts_real_literals() {
        let prog = Program::parse(SRC).unwrap();
        // 1.0 coerces to Int(1) for the int[0,1] parameter.
        assert!(prog
            .invoke("pair", &[Value::Real(1.0), Value::Real(1.0)], 0)
            .is_ok());
        // 0.5 does not.
        assert!(prog
            .invoke("pair", &[Value::Real(0.5), Value::Real(1.0)], 0)
            .is_err());
    }

    #[test]
    fn invoke_in_derived_language_same_dynamics() {
        // The §4.1.1 guarantee: running the parent-language function in the
        // derived language yields identical dynamics.
        let prog = Program::parse(SRC).unwrap();
        let g_parent = prog
            .invoke("pair", &[Value::Int(1), Value::Real(1.0)], 0)
            .unwrap();
        let g_derived = prog
            .invoke_in("pair", "rc_mm", &[Value::Int(1), Value::Real(1.0)], 0)
            .unwrap();
        let lang_parent = prog.language("rc").unwrap();
        let lang_derived = prog.language("rc_mm").unwrap();
        let sys_p = CompiledSystem::compile(lang_parent, &g_parent).unwrap();
        let sys_d = CompiledSystem::compile(lang_derived, &g_derived).unwrap();
        let tp = simulate(&sys_p, 1e-3, 1.0, 10);
        let td = simulate(&sys_d, 1e-3, 1.0, 10);
        assert_eq!(tp.last().unwrap().1, td.last().unwrap().1);
    }

    #[test]
    fn invoke_in_requires_derivation() {
        let prog = Program::parse(SRC).unwrap();
        assert!(prog
            .invoke_in("pair", "rc", &[Value::Int(0), Value::Real(1.0)], 0)
            .is_ok());
        // rc does not derive from rc_mm... but the function declares rc, so
        // asking for an unrelated language fails.
        let mut prog2 = Program::parse(SRC).unwrap();
        prog2
            .add_language(
                crate::lang::LanguageBuilder::new("unrelated")
                    .finish()
                    .unwrap(),
            )
            .unwrap();
        assert!(matches!(
            prog2.invoke_in("pair", "unrelated", &[Value::Int(0), Value::Real(1.0)], 0),
            Err(ProgramError::NotDerivedFrom { .. })
        ));
    }

    #[test]
    fn validation_failure_surfaces() {
        // A variant whose function omits the mandatory self edges.
        let src = SRC
            .replace("edge <a, a> sa : E;", "")
            .replace("edge <b, b> sb : E;", "");
        let prog = Program::parse(&src).unwrap();
        let res = prog.build(
            "pair",
            &[Value::Int(1), Value::Real(1.0)],
            0,
            &ExternRegistry::new(),
        );
        assert!(matches!(res, Err(ProgramError::Invalid(_))));
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let src = "lang a {} lang a {}";
        assert!(matches!(
            Program::parse(src),
            Err(ProgramError::Duplicate(_))
        ));
        let src = "lang a {} func f() uses a {} func f() uses a {}";
        assert!(matches!(
            Program::parse(src),
            Err(ProgramError::Duplicate(_))
        ));
    }

    #[test]
    fn unknown_parent_language_rejected() {
        let src = "lang d inherits ghost {}";
        assert!(matches!(
            Program::parse(src),
            Err(ProgramError::UnknownLanguage(_))
        ));
    }

    #[test]
    fn mismatch_instances_vary_by_seed_via_text_pipeline() {
        let src = r#"
lang mm {
    ntyp(1, sum) Vm {
        attr tau = real[0.1, 10] mm(0, 0.1);
        init(0) = real[-10, 10] default 1;
    };
    etyp E {};
    prod(e:E, s:Vm -> s:Vm) s <= -var(s)/s.tau;
}
func cell() uses mm {
    node v : Vm;
    edge <v, v> sv : E;
    set-attr v.tau = 1.0;
}
"#;
        let prog = Program::parse(src).unwrap();
        let g1 = prog.invoke("cell", &[], 1).unwrap();
        let g2 = prog.invoke("cell", &[], 2).unwrap();
        let tau1 = g1.attr_value("v", "tau").unwrap().as_real().unwrap();
        let tau2 = g2.attr_value("v", "tau").unwrap().as_real().unwrap();
        assert_ne!(tau1, tau2);
        assert!((tau1 - 1.0).abs() < 0.5);
    }
}
