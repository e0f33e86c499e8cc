//! §4.5 empirical validation: generate random valid GmC-TLN dynamical
//! graphs, lower each to a SPICE-level netlist, and compare transients.
//! Paper claims: (1) all valid DGs map to a netlist, (2) DG and netlist
//! dynamics agree within 1% RMSE.
//!
//! Run: `cargo run --release -p ark-bench --bin spice_validation [trials] [workers]`
//! (defaults: 1000 trials, the paper's scale, and one worker per CPU). The
//! output is the same for any worker count; the worst and mean RMSE print
//! in `{:e}`, which round-trips the `f64` exactly, so CI diffs
//! `spice_validation 200 2` against `crates/bench/tests/spice_validation_200.txt`.

use ark_bench::{count_arg, trials_arg, SPICE_DT, SPICE_T_END};
use ark_core::validate::{validate, ExternRegistry};
use ark_paradigms::tln::{gmc_tln_language, tln_language};
use ark_sim::{seed_range, Ensemble};
use ark_spice::validate::{dg_vs_netlist_rmse, random_gmc_tline};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let trials = trials_arg(1000);
    let workers = count_arg(2, "workers", 0);
    let base = tln_language();
    let gmc = gmc_tln_language(&base);
    let ens = Ensemble::new(workers);

    println!("== §4.5: {trials} random GmC-TLN designs vs SPICE netlists ==");
    println!("ensemble engine: {} workers", ens.workers());
    println!(
        "the 1% bound is the step budget of RK4 vs the trapezoidal rule at dt 4e-11 \
         on this substrate, not a model discrepancy: both simulate the same equations\n"
    );

    // Each random design is one seeded `ark-sim` job: generate, validate,
    // synthesize, and cross-simulate in parallel, deterministically.
    let results = ens.try_map(&seed_range(0, trials), |seed| {
        let externs = ExternRegistry::new();
        let graph = random_gmc_tline(&gmc, seed)?;
        let report = validate(&gmc, &graph, &externs)?;
        assert!(
            report.is_valid(),
            "generator must produce valid DGs: {report}"
        );
        let rmse = dg_vs_netlist_rmse(&gmc, &graph, SPICE_T_END, SPICE_DT)?;
        Ok::<_, ark_paradigms::DynError>((graph.num_nodes(), rmse))
    })?;

    let mut synthesized = 0usize;
    let mut under_1pct = 0usize;
    let mut worst: f64 = 0.0;
    let mut sum = 0.0;
    for (seed, (nodes, rmse)) in results.iter().enumerate() {
        synthesized += 1;
        if *rmse < 0.01 {
            under_1pct += 1;
        }
        worst = worst.max(*rmse);
        sum += rmse;
        if seed < 5 {
            println!("instance {seed:>4}: {nodes} nodes, rmse {rmse:.3e}");
        }
    }
    println!("  ...");
    println!("\nsynthesized: {synthesized}/{trials} (paper: all valid DGs map to netlists)");
    println!("under 1% RMSE: {under_1pct}/{trials}");
    println!(
        "worst RMSE: {worst:e}, mean RMSE: {:e}",
        sum / trials as f64
    );
    println!(
        "\npaper shape (100% synthesis, RMSE < 1%): {}",
        if synthesized == trials && under_1pct == trials {
            "REPRODUCED"
        } else {
            "NOT reproduced"
        }
    );
    Ok(())
}
