//! # ark-core: the Ark language
//!
//! Implementation of "Design of Novel Analog Compute Paradigms with Ark"
//! (ASPLOS 2024). Ark lets analog designers and domain specialists codify
//! *analog compute paradigms* (transmission-line networks, cellular
//! nonlinear networks, oscillator-based computing, ...) as domain-specific
//! languages, write reconfigurable analog computations in them, and
//! progressively layer hardware nonidealities on top via language
//! inheritance.
//!
//! The crate provides, mirroring the paper's structure:
//!
//! * [`dg`] — the **dynamical graph** intermediate representation (§3);
//! * [`lang`] — **language definitions**: typed nodes/edges, production
//!   rules, validity rules, inheritance (§4.1), and the hardware extensions
//!   (`mm`, `const`, `fixed`, `off` — §4.3) via [`types`];
//! * [`func`] — the **function layer** that procedurally builds graphs with
//!   full semantic checking and seeded mismatch sampling (§4.2);
//! * [`compile`] — the **dynamical-system compiler** lowering a graph to an
//!   executable ODE system (§5, Algorithm 1);
//! * [`validate()`](validate()) — the **validator** checking local (ILP-encoded) and
//!   global topology rules (§6, Algorithm 2);
//! * [`parse`] / [`program`] — the **textual frontend** for the grammar of
//!   Figure 6, and whole-program invocation (§4.6).
//!
//! # Examples
//!
//! Define a one-type RC language, build a graph, validate, compile, and
//! simulate:
//!
//! ```
//! use ark_core::lang::{LanguageBuilder, NodeType, EdgeType, ProdRule, Reduction};
//! use ark_core::func::GraphBuilder;
//! use ark_core::compile::CompiledSystem;
//! use ark_core::types::SigType;
//! use ark_expr::parse_expr;
//! use ark_ode::{integrate, Rk4};
//!
//! let lang = LanguageBuilder::new("rc")
//!     .node_type(
//!         NodeType::new("V", 1, Reduction::Sum)
//!             .attr("tau", SigType::real(0.0, 10.0))
//!             .init_default(SigType::real(-10.0, 10.0), 1.0),
//!     )
//!     .edge_type(EdgeType::new("E"))
//!     .prod(ProdRule::new(("e", "E"), ("s", "V"), ("s", "V"), "s",
//!         parse_expr("-var(s)/s.tau")?))
//!     .finish()?;
//!
//! let mut b = GraphBuilder::new(&lang, 0);
//! b.node("v", "V")?;
//! b.set_attr("v", "tau", 1.0)?;
//! b.edge("self", "E", "v", "v")?;
//! let graph = b.finish()?;
//!
//! let sys = CompiledSystem::compile(&lang, &graph)?;
//! let tr = integrate(&Rk4 { dt: 1e-3 }, &sys.bind(), 0.0, &sys.initial_state(), 1.0, 10)?;
//! assert!((tr.last().unwrap().1[0] - (-1.0f64).exp()).abs() < 1e-8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr.
#![forbid(unsafe_code)]

pub mod compile;
pub mod dg;
pub mod func;
pub mod lang;
pub mod mismatch;
pub mod parse;
pub mod print;
pub mod program;
pub mod types;
pub mod validate;

pub use compile::{
    BoundSystem, CompileError, CompiledSystem, EvalScratch, JacobianProgram, LanedBoundSystem,
    StateVar,
};
// Re-exported so `CompiledSystem::bind_lanes` callers (notably `ark-sim`)
// can name the lane scratch without depending on `ark-expr` directly.
pub use ark_expr::LaneScratch;
// Re-exported so `ark-sim` checks and defaults its lane width against the
// one set the interpreter and the native kernels are built for.
pub use ark_expr::{default_lanes, DEFAULT_LANES, SUPPORTED_LANES};
// Re-exported so `CompiledSystem::with_backend` callers can pick the
// execution engine without depending on `ark-expr` directly.
pub use ark_expr::Backend;
pub use dg::{Edge, EdgeId, Graph, GraphError, Node, NodeId};
pub use func::{FuncError, GraphBuilder, ParametricGraph};
pub use lang::{
    AttrDef, EdgeType, LangError, Language, LanguageBuilder, MatchClause, MatchDir, NodeType,
    Pattern, ProdRule, Reduction, RuleTarget, ValidityRule,
};
pub use mismatch::{sample_param_vector, MismatchSampler, ParamKind, ParamSite, ParamTarget};
pub use print::language_to_source;
pub use program::{Program, ProgramError};
pub use types::{Mismatch, SigKind, SigType, Value};
pub use validate::{
    is_described, validate, ExternRegistry, ValidateError, ValidationReport, Violation,
};
