//! # ark-bench: benchmark harness and paper-figure regeneration
//!
//! One binary per table/figure of the paper's evaluation, plus the
//! static-analysis CLI:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `fig2_validation` | Figure 2 — branched/linear valid, malformed rejected |
//! | `fig4_tline` | Figure 4a–d — t-line transients and mismatch envelopes |
//! | `fig11_cnn` | Figure 11 — CNN edge detection under nonidealities |
//! | `fig11_yield` | Figure 11 — CNN yield vs template-weight mismatch sigma (streaming Monte Carlo) |
//! | `table1_maxcut` | Table 1 — max-cut sync/solve probabilities |
//! | `spice_validation` | §4.5 — 1000 random DGs vs SPICE netlists |
//! | `fig_intercon_cost` | §7.2 — local/global interconnect cost trade-off |
//! | `fig_stiff` | TR-BDF2 vs Dormand–Prince step counts on Van der Pol and Robertson |
//! | `ark_lint` | Verifier, domain analysis and determinism lint over every paper design |
//!
//! Run with `cargo run --release -p ark-bench --bin <target>`; pass a
//! number as the first argument to scale trial counts down for quick runs.
//! Criterion performance benchmarks live under `benches/`.

#![warn(missing_docs)]
// Unsafe code lives only in ark-expr's codegen dlopen path.
#![forbid(unsafe_code)]

use ark_core::CompiledSystem;
use ark_ode::Trajectory;
use ark_paradigms::cnn::{build_cnn, cnn_language, hw_cnn_language, NonIdeality, EDGE_TEMPLATE};
use ark_paradigms::image::Image;
use ark_paradigms::maxcut::{build_maxcut_network, CouplingKind, MaxCutProblem};
use ark_paradigms::obc::{obc_language, ofs_obc_language};
use ark_paradigms::tln::{gmc_tln_language, linear_tline, tln_language, MismatchKind, TlineConfig};

/// Parse an optional non-negative count argument. An absent argument is
/// `default`; one that does not parse as a `usize` is an error naming the
/// argument, never a silent fallback to the default.
///
/// # Errors
///
/// A message naming `name` and the offending text.
fn parse_count(arg: Option<&str>, name: &str, default: usize) -> Result<usize, String> {
    match arg {
        None => Ok(default),
        Some(s) => s
            .parse()
            .map_err(|_| format!("{name} must be a non-negative integer, got `{s}`")),
    }
}

/// Read the optional count argument at CLI `position` (1-based); exit with
/// status 2 and a usage message if it is present but not a count.
pub fn count_arg(position: usize, name: &str, default: usize) -> usize {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    match parse_count(args.nth(position - 1).as_deref(), name, default) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("usage: {bin}: argument {position} is the {name} count (default {default})");
            std::process::exit(2);
        }
    }
}

/// Read an optional trial-count override from the first CLI argument.
pub fn trials_arg(default: usize) -> usize {
    count_arg(1, "trials", default)
}

/// One paper workload of the RHS benchmark and the program-size tests.
pub struct RhsWorkload {
    /// Stable name (`cnn_fig11`, `tln_fig4`, `obc_table1`).
    pub name: &'static str,
    /// The compiled system, on the default backend.
    pub sys: CompiledSystem,
}

/// The three paper workloads whose RHS programs are benchmarked and whose
/// instruction counts are pinned: the Figure 11 CNN (8×6, g-mismatch), the
/// Figure 4 GmC t-line (26 segments) and a Table 1 OBC max-cut instance.
/// Deterministic, so every call compiles the same programs.
pub fn rhs_workloads() -> Vec<RhsWorkload> {
    let hw = hw_cnn_language(&cnn_language());
    let input = Image::test_blob(8, 6);
    let cnn = build_cnn(&hw, &input, &EDGE_TEMPLATE, NonIdeality::GMismatch, 1).unwrap();
    let cnn_sys = CompiledSystem::compile(&hw, &cnn.graph).unwrap();

    let gmc = gmc_tln_language(&tln_language());
    let cfg = TlineConfig {
        mismatch: MismatchKind::Gm,
        ..TlineConfig::default()
    };
    let tln = linear_tline(&gmc, 26, &cfg, 1).unwrap();
    let tln_sys = CompiledSystem::compile(&gmc, &tln).unwrap();

    let ofs = ofs_obc_language(&obc_language());
    let problem = MaxCutProblem::random(6, 3);
    let obc = build_maxcut_network(&ofs, &problem, CouplingKind::Offset, 3).unwrap();
    let obc_sys = CompiledSystem::compile(&ofs, &obc).unwrap();

    vec![
        RhsWorkload {
            name: "cnn_fig11",
            sys: cnn_sys,
        },
        RhsWorkload {
            name: "tln_fig4",
            sys: tln_sys,
        },
        RhsWorkload {
            name: "obc_table1",
            sys: obc_sys,
        },
    ]
}

/// Print a `(t, value)` series as CSV under a header comment.
pub fn print_series(label: &str, tr: &Trajectory, var: usize, t0: f64, t1: f64, n: usize) {
    println!("# series: {label}");
    println!("t,{label}");
    for i in 0..n {
        let t = t0 + (t1 - t0) * i as f64 / (n - 1) as f64;
        println!("{t:.4e},{:.6e}", tr.value_at(t, var));
    }
}

/// A compact text sparkline of a series (for eyeballing pulse shapes in the
/// terminal; the CSV output is the real artifact).
pub fn sparkline(values: &[f64]) -> String {
    const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1e-300);
    values
        .iter()
        .map(|v| RAMP[(((v - lo) / span) * 7.0).round().clamp(0.0, 7.0) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_maps_extremes() {
        let s = sparkline(&[0.0, 1.0, 0.5]);
        let chars: Vec<char> = s.chars().collect();
        assert_eq!(chars[0], '▁');
        assert_eq!(chars[1], '█');
    }

    #[test]
    fn trials_arg_default() {
        assert_eq!(parse_count(None, "trials", 42), Ok(42));
    }

    #[test]
    fn count_args_parse_or_name_the_bad_argument() {
        assert_eq!(parse_count(Some("256"), "trials", 42), Ok(256));
        assert_eq!(parse_count(Some("0"), "workers", 3), Ok(0));
        for bad in ["1e3", "-1", "", "ten", "2.5"] {
            let err = parse_count(Some(bad), "trials", 42).unwrap_err();
            assert!(
                err.contains("trials") && err.contains(&format!("`{bad}`")),
                "{err}"
            );
        }
    }
}
