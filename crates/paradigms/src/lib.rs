//! # ark-paradigms: analog compute paradigms codified with Ark
//!
//! The paper's three case studies, each expressed as an Ark DSL plus its
//! hardware extension and workload generators:
//!
//! * [`tln`] — **transmission-line networks** (Telegrapher's equations),
//!   the PUF substrate of §2, with the GmC-TLN mismatch extension (§4.5)
//!   and linear/branched t-line generators (Figures 2 and 4);
//! * [`cnn`] — **cellular nonlinear networks** (§7.1) with the `hw_cnn`
//!   nonideality extension and the edge-detection workload (Figure 11),
//!   plus [`image`] utilities and the digital reference edge detector;
//! * [`obc`] — **oscillator-based computing** (§7.2, modified Kuramoto)
//!   with the integrator-offset (`ofs_obc`) and interconnect
//!   (`intercon_obc`) extensions, and [`maxcut`] — the Table 1 max-cut
//!   workload with its brute-force baseline.
//!
//! Beyond the paper's case studies, [`stiff`] encodes the classic stiff
//! benchmarks (Van der Pol at large μ, Robertson kinetics) as dynamical
//! graphs, exercising the implicit `TrBdf2` solver and the compiled
//! Jacobian path.
//!
//! # Examples
//!
//! Build and validate the paper's 53-node linear t-line:
//!
//! ```
//! use ark_paradigms::tln::{tln_language, linear_tline, TlineConfig};
//! use ark_core::validate::{validate, ExternRegistry};
//!
//! let lang = tln_language();
//! let line = linear_tline(&lang, 26, &TlineConfig::default(), 0)?;
//! assert_eq!(line.num_nodes(), 54); // 53 line nodes + the InpI source
//! assert!(validate(&lang, &line, &ExternRegistry::new())?.is_valid());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr.
#![forbid(unsafe_code)]

/// Thread-safe boxed error used by the workload entry points, so whole runs
/// can fan out across the `ark-sim` ensemble engine (whose jobs must be
/// `Send`). Converts into `Box<dyn Error>` at `main`-level `?` as before.
pub type DynError = Box<dyn std::error::Error + Send + Sync>;

pub mod cnn;
pub mod image;
pub mod maxcut;
pub mod obc;
pub mod stiff;
pub mod tln;
