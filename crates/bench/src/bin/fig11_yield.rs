//! Figure 11 yield sweep: population-scale Monte Carlo over fabricated CNN
//! instances, sweeping the fabrication-mismatch standard deviation of the
//! template weights (the paper's column-C nonideality, the one that
//! actually breaks edge detection — integrator-bias mismatch binarizes
//! away until far larger sigma).
//!
//! For each sigma the hardware CNN language is rederived with
//! `hw_cnn_language_sigma` (every mismatch attribute carries `N(0, sigma)`
//! variation), the design is compiled **once**, and `trials` fabricated
//! instances run on the `ark-sim` **streaming** ensemble path: each
//! instance integrates under an allocation-free final-state observer and
//! its wrong-pixel count folds directly into online accumulators
//! (mean/variance, an exact per-count histogram, and a pass/fail yield
//! counter). No trajectory or per-instance result is ever materialized, so
//! the 10⁵-instance default runs in O(workers · histogram) memory, and the
//! emitted curve is bit-identical for any worker count and lane width.
//!
//! Output: one CSV row per sigma — yield (fraction of instances with a
//! pixel-perfect edge map), wrong-pixel moments, tail quantiles, and the
//! count of instances whose solve failed even after the default recovery
//! policy's fallback chain. Failed instances don't abort the sweep; they
//! count against yield (a chip whose simulation can't complete is not a
//! passing chip), so the denominator is always the full trial count.
//!
//! Run: `cargo run --release -p ark-bench --bin fig11_yield [trials] [workers]`
//! (defaults: 100000 trials, one worker per CPU; CI smoke uses 256). The
//! CSV is bit-identical for any worker count — pass an explicit worker
//! count to check that on your machine.

use ark_bench::{count_arg, trials_arg};
use ark_paradigms::cnn::{
    cnn_language, hw_cnn_language_sigma, run_cnn_yield, NonIdeality, EDGE_TEMPLATE,
};
use ark_paradigms::image::Image;
use ark_sim::{seed_range, Ensemble};

fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
    let trials = trials_arg(100_000);
    let size = 6;
    let t_end = 2.0;
    let sigmas = [0.02, 0.05, 0.10, 0.20, 0.40, 0.80];
    let base = cnn_language();
    let input = Image::test_blob(size, size);
    let seeds = seed_range(11, trials);
    let workers = count_arg(2, "workers", 0);
    let ens = Ensemble::new(workers);

    println!("== Figure 11 yield sweep: {size}x{size} CNN edge detection ==");
    println!(
        "{} instances per sigma, streaming reduction on {} workers x {} lanes\n",
        trials,
        ens.workers(),
        ens.lanes()
    );
    println!("sigma,instances,failed,yield,mean_wrong,std_wrong,p50_wrong,p95_wrong,max_nonzero_bin,ns_per_instance");
    for sigma in sigmas {
        let hw = hw_cnn_language_sigma(&base, sigma);
        let start = std::time::Instant::now();
        let y = run_cnn_yield(
            &hw,
            &input,
            &EDGE_TEMPLATE,
            NonIdeality::GMismatch,
            t_end,
            &seeds,
            &ens,
        )?;
        let ns_per_instance = start.elapsed().as_nanos() as f64 / trials as f64;
        let max_bin = y
            .wrong_histogram
            .counts()
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map_or(0.0, |(i, _)| y.wrong_histogram.bin_center(i));
        // Yield over the *full* population: unrecovered instances are
        // non-yield, not excluded.
        let yield_frac = y.counts.pass as f64 / y.recovery.total().max(1) as f64;
        println!(
            "{sigma},{trials},{},{yield_frac:.6},{:.4},{:.4},{:.1},{:.1},{max_bin:.1},{ns_per_instance:.0}",
            y.recovery.failed,
            y.wrong_pixels.mean,
            y.wrong_pixels.std_dev(),
            y.wrong_histogram.quantile(0.5),
            y.wrong_histogram.quantile(0.95),
        );
    }
    Ok(())
}
