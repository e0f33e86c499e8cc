//! # ark-spice: circuit-level substrate for the Ark reproduction
//!
//! The paper validates the GmC-TLN language empirically (§4.5): 1000 random
//! valid dynamical graphs are lowered to SPICE netlists whose transient
//! dynamics match the DG simulation within 1% RMSE. The authors used a
//! commercial SPICE; this crate provides the equivalent substrate:
//!
//! * [`netlist`] — GmC-class netlists (grounded capacitors, conductances,
//!   VCCS transconductors, current sources) with trapezoidal MNA transient
//!   simulation, the discretization SPICE applies to linear circuits;
//! * [`synth`] — the "simple algorithm" mapping TLN-family dynamical graphs
//!   to netlists;
//! * [`validate`] — the random-design campaign comparing DG and netlist
//!   transients.
//!
//! # Examples
//!
//! ```
//! use ark_paradigms::tln::{tln_language, linear_tline, TlineConfig};
//! use ark_spice::synth::synthesize;
//!
//! let lang = tln_language();
//! let line = linear_tline(&lang, 4, &TlineConfig::default(), 0)?;
//! let netlist = synthesize(&lang, &line)?;
//! let tr = netlist.transient(2e-8, 1e-10, 10)?;
//! assert!(tr.len() > 10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr.
#![forbid(unsafe_code)]

pub mod netlist;
pub mod synth;
pub mod validate;

pub use netlist::{Element, Netlist, NetlistError, Waveform};
pub use synth::{synthesize, SynthError};
pub use validate::{dg_vs_netlist_rmse, random_gmc_tline, validation_campaign, InstanceReport};
