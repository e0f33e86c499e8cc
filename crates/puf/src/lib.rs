//! # ark-puf: PUF analysis over Ark transmission-line networks
//!
//! The paper's motivating case study (§2) designs a physical unclonable
//! function from a transmission-line network: a challenge bitvector
//! switches branch stubs in and out, and the response is read from the
//! voltage trajectory at `OUT_V` within an observation window. This crate
//! turns that study into a toolkit:
//!
//! * [`design`] — reconfigurable branched-TLN PUFs (challenge → switch
//!   configuration → dynamical graph), response extraction against the
//!   nominal reference trajectory, and measurement-noise injection;
//! * [`metrics`] — uniqueness / reliability / uniformity evaluation, used
//!   to quantify the paper's conclusion that `Gm` mismatch is the better
//!   entropy source than `Cint` mismatch (§2.4).
//!
//! # Examples
//!
//! ```
//! use ark_paradigms::tln::{tln_language, gmc_tln_language};
//! use ark_puf::design::{PufDesign, challenge_bits};
//!
//! let base = tln_language();
//! let gmc = gmc_tln_language(&base);
//! let design = PufDesign::default();
//! let challenge = challenge_bits(0b1010, design.sites);
//! let (reference, idx) = design.reference(&gmc, &challenge)?;
//! let response = design.respond(&gmc, &reference, idx, &challenge, 1, 0.0, 0)?;
//! assert_eq!(response.len(), design.response_bits);
//! # Ok::<(), ark_puf::design::PufError>(())
//! ```

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr.
#![forbid(unsafe_code)]

pub mod design;
pub mod metrics;

pub use design::{challenge_bits, hamming, Challenge, PufDesign, PufError, Response};
pub use metrics::{
    bit_aliasing, challenge_sensitivity, evaluate, evaluate_with, EvalConfig, PufMetrics,
};
