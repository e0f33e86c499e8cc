//! Committed output references.
//!
//! On [`DEFAULT_SEED`] at [`crate::Scale::FULL`], every pass's output digest
//! must equal the value here. The digests fold every output bit: the yield
//! curve's accumulators, each design's validity and RMSE, and every
//! max-cut trial's final phases plus the Table 1 counts. `cnn_yield_native`
//! checks against the interpreter's digest, because native code must match
//! the interpreter bit for bit. A change that alters outputs on purpose
//! updates these values (they are printed as `output_digest`).

/// The seed the references hold for.
pub const DEFAULT_SEED: u64 = 1;
/// Yield curve of `cnn_yield` and `cnn_yield_native`.
pub const CNN_YIELD: u64 = 0x67e7_a279_51ff_6d33;
/// Per-design validity and RMSE of `design_sweep`.
pub const DESIGN_SWEEP: u64 = 0xa339_8d70_ac27_3bbc;
/// Final phases and Table 1 counts of `maxcut_table1`.
pub const MAXCUT_TABLE1: u64 = 0x0d78_f48e_634a_4593;
