//! # Ark: design of novel analog compute paradigms
//!
//! Facade crate for the Ark workspace — a Rust implementation of
//! "Design of Novel Analog Compute Paradigms with Ark" (ASPLOS 2024).
//!
//! Start with [`core`] (the language, validator, and compiler), then
//! [`paradigms`] for the paper's case-study DSLs. See the repository
//! README for a tour and `examples/` for runnable entry points.
//!
//! ```
//! use ark::core::program::Program;
//! use ark::core::validate::ExternRegistry;
//! use ark::ode::{integrate, Rk4};
//!
//! let program = Program::parse(r#"
//! lang rc {
//!     ntyp(1, sum) V { attr tau = real[0.1, 10]; init(0) = real[-10, 10] default 1; };
//!     etyp E {};
//!     prod(e:E, s:V -> s:V) s <= -var(s)/s.tau;
//! }
//! func cell() uses rc { node v : V; edge <v, v> sv : E; set-attr v.tau = 1.0; }
//! "#)?;
//! let (_graph, system) = program.build("cell", &[], 0, &ExternRegistry::new())?;
//! let tr = integrate(&Rk4 { dt: 1e-3 }, &system.bind(), 0.0, &system.initial_state(), 1.0, 10)?;
//! assert!((tr.last().unwrap().1[0] - (-1.0f64).exp()).abs() < 1e-8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr.
#![forbid(unsafe_code)]

pub use ark_core as core;
pub use ark_expr as expr;
pub use ark_ilp as ilp;
pub use ark_ode as ode;
pub use ark_paradigms as paradigms;
pub use ark_puf as puf;
pub use ark_sim as sim;
pub use ark_spice as spice;
