//! §7.2 interconnect trade-off: the `intercon_obc` language formalizes the
//! programmability/area trade-off between all-to-all (global) and
//! neighboring (local) oscillator coupling. This harness builds both
//! topology styles at several sizes, checks them against the language's
//! validity rules, and reports routing cost — mirroring the paper's
//! comparison of the 30-oscillator all-to-all chip against the
//! 560-oscillator locally-coupled chip.
//!
//! Run: `cargo run --release -p ark-bench --bin fig_intercon_cost`

use ark_core::func::GraphBuilder;
use ark_core::validate::{validate, ExternRegistry};
use ark_paradigms::obc::{intercon_obc_language, interconnect_cost, obc_language};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    ark_bench::resolve_engine_env();
    let base = obc_language();
    let ic = intercon_obc_language(&base);
    let externs = ExternRegistry::new();

    println!("== §7.2: interconnect cost, all-to-all vs grouped-local ==\n");
    println!(
        "{:>6} {:>16} {:>16} {:>8}",
        "oscs", "all-to-all cost", "grouped cost", "ratio"
    );

    for &n in &[8usize, 16, 24, 32] {
        // All-to-all: every pair coupled globally, split into two groups so
        // the types are exercised (group membership is arbitrary here).
        let mut b = GraphBuilder::new(&ic, 0);
        for i in 0..n {
            let g = if i < n / 2 { "Osc_G0" } else { "Osc_G1" };
            b.node(&format!("o{i}"), g)?;
            b.edge(
                &format!("s{i}"),
                "Cpl_l",
                &format!("o{i}"),
                &format!("o{i}"),
            )?;
        }
        for i in 0..n {
            for j in (i + 1)..n {
                b.edge(
                    &format!("g{i}_{j}"),
                    "Cpl_g",
                    &format!("o{i}"),
                    &format!("o{j}"),
                )?;
            }
        }
        let all_to_all = b.finish()?;
        let report = validate(&ic, &all_to_all, &externs)?;
        assert!(report.is_valid(), "{report}");
        let cost_global = interconnect_cost(&all_to_all);

        // Grouped: ring coupling inside each of the two groups, one global
        // bridge between groups.
        let mut b = GraphBuilder::new(&ic, 0);
        let half = n / 2;
        for i in 0..n {
            let g = if i < half { "Osc_G0" } else { "Osc_G1" };
            b.node(&format!("o{i}"), g)?;
            b.edge(
                &format!("s{i}"),
                "Cpl_l",
                &format!("o{i}"),
                &format!("o{i}"),
            )?;
        }
        for grp in 0..2usize {
            let base_i = grp * half;
            for k in 0..half {
                let a = base_i + k;
                let c = base_i + (k + 1) % half;
                if a != c {
                    b.edge(
                        &format!("l{a}_{c}"),
                        "Cpl_l",
                        &format!("o{a}"),
                        &format!("o{c}"),
                    )?;
                }
            }
        }
        b.edge("bridge", "Cpl_g", "o0", &format!("o{half}"))?;
        let grouped = b.finish()?;
        let report = validate(&ic, &grouped, &externs)?;
        assert!(report.is_valid(), "{report}");
        let cost_local = interconnect_cost(&grouped);

        println!(
            "{n:>6} {cost_global:>16} {cost_local:>16} {:>8.1}",
            cost_global as f64 / cost_local as f64
        );
    }

    println!("\nA local Cpl_l edge crossing groups is rejected at compile time:");
    let mut b = GraphBuilder::new(&ic, 0);
    b.node("a", "Osc_G0")?;
    b.node("z", "Osc_G1")?;
    b.edge("sa", "Cpl_l", "a", "a")?;
    b.edge("sz", "Cpl_l", "z", "z")?;
    b.edge("bad", "Cpl_l", "a", "z")?;
    let bad = b.finish()?;
    let report = validate(&ic, &bad, &externs)?;
    println!("{report}");
    assert!(!report.is_valid());
    Ok(())
}
