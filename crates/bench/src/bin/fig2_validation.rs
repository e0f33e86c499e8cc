//! Figure 2 reproduction: the branched and linear t-lines validate, the
//! malformed t-line (V–V connection) is rejected by the TLN language.
//!
//! Run: `cargo run --release -p ark-bench --bin fig2_validation`

use ark_core::func::GraphBuilder;
use ark_core::validate::{validate, ExternRegistry};
use ark_paradigms::tln::{branched_tline, linear_tline, pulse_fn, tln_language, TlineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    ark_bench::resolve_engine_env();
    let lang = tln_language();
    let externs = ExternRegistry::new();
    let cfg = TlineConfig::default();

    println!("== Figure 2: TLN dynamical graphs and validation ==\n");

    let linear = linear_tline(&lang, 26, &cfg, 0)?;
    let report = validate(&lang, &linear, &externs)?;
    println!(
        "(ii) linear t-line: {} nodes, {} edges -> {}",
        linear.num_nodes(),
        linear.num_edges(),
        report
    );

    let branched = branched_tline(&lang, 8, 10, 8, &cfg, 0)?;
    let report = validate(&lang, &branched, &externs)?;
    println!(
        "(i) branched t-line: {} nodes, {} edges -> {}",
        branched.num_nodes(),
        branched.num_edges(),
        report
    );

    // Malformed: V connected directly to V (Figure 2-iii).
    let mut b = GraphBuilder::new(&lang, 0);
    b.node("InpI_0", "InpI")?;
    b.set_attr("InpI_0", "fn", pulse_fn(2e-8))?;
    b.node("IN_V", "V")?;
    b.set_attr("IN_V", "c", 1e-9)?;
    b.node("V_0", "V")?;
    b.set_attr("V_0", "c", 1e-9)?;
    b.node("OUT_V", "V")?;
    b.set_attr("OUT_V", "c", 1e-9)?;
    b.edge("eInp", "E", "InpI_0", "IN_V")?;
    b.edge("s0", "E", "IN_V", "IN_V")?;
    b.edge("bad0", "E", "IN_V", "V_0")?;
    b.edge("s1", "E", "V_0", "V_0")?;
    b.edge("bad1", "E", "V_0", "OUT_V")?;
    b.edge("s2", "E", "OUT_V", "OUT_V")?;
    let malformed = b.finish()?;
    let report = validate(&lang, &malformed, &externs)?;
    println!(
        "(iii) malformed t-line: {} nodes -> {}",
        malformed.num_nodes(),
        report
    );
    assert!(!report.is_valid(), "the malformed line must be rejected");

    println!("\nbranched t-line topology (graphviz):\n");
    // Print just the head of the dot output to keep the log readable.
    for line in branched.to_dot().lines().take(12) {
        println!("{line}");
    }
    println!("  ...");
    Ok(())
}
