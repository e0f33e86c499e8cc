//! Quickstart: define an analog compute paradigm as an Ark language, write
//! a computation in it, validate, compile to ODEs, and simulate.
//!
//! Run: `cargo run --release --example quickstart`
//!
//! The paradigm here is a toy "leaky diffusion network": cells hold a
//! charge that leaks to ground and diffuses along coupling edges — a
//! two-type language that exercises every stage of the Ark pipeline.

use ark::core::program::Program;
use ark::core::validate::ExternRegistry;
use ark::core::Value;
use ark::ode::{integrate, Rk4};

const SRC: &str = r#"
lang diffuse {
    // Cells integrate charge; `tau` is the leak time constant and `c` the
    // coupling capacitance ratio.
    ntyp(1, sum) Cell {
        attr tau = real[0.01, 100];
        init(0) = real[-10, 10] default 0;
    };
    etyp Link { attr w = real[0, 10]; };

    // Leak on the mandatory self edge.
    prod(e:Link, s:Cell -> s:Cell) s <= -var(s)/s.tau;
    // Diffusion: charge flows down the gradient, symmetrically.
    prod(e:Link, s:Cell -> t:Cell) s <= e.w*(var(t)-var(s));
    prod(e:Link, s:Cell -> t:Cell) t <= e.w*(var(s)-var(t));

    // Every cell needs exactly one self edge; any number of couplings.
    cstr Cell {
        acc [ match(1, 1, Link, Cell),
              match(0, inf, Link, Cell->[Cell]),
              match(0, inf, Link, [Cell]->Cell) ]
    };
}

// A 3-cell chain with the first cell charged.
func chain(w: real[0, 10]) uses diffuse {
    node a : Cell;  node b : Cell;  node c : Cell;
    edge <a, a> sa : Link;  edge <b, b> sb : Link;  edge <c, c> sc : Link;
    edge <a, b> ab : Link;  edge <b, c> bc : Link;
    set-attr a.tau = 10.0;  set-attr b.tau = 10.0;  set-attr c.tau = 10.0;
    set-attr sa.w = 0.0;    set-attr sb.w = 0.0;    set-attr sc.w = 0.0;
    set-attr ab.w = w;      set-attr bc.w = w;
    set-init a(0) = 1.0;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Parse the program: language + function definitions.
    let program = Program::parse(SRC)?;

    // Invoke the function, validate the graph, compile to ODEs.
    let (graph, system) = program.build(
        "chain",
        &[Value::Real(2.0)],
        /*seed*/ 0,
        &ExternRegistry::new(),
    )?;
    println!(
        "built `{}` graph: {} nodes, {} edges",
        graph.lang_name(),
        graph.num_nodes(),
        graph.num_edges()
    );
    println!("\ngenerated differential equations:");
    for eq in system.equations() {
        println!("  {eq}");
    }

    // Transient simulation.
    let y0 = system.initial_state();
    let tr = integrate(&Rk4 { dt: 1e-3 }, &system.bind(), 0.0, &y0, 2.0, 100)?;
    println!("\n t      a       b       c");
    for &t in &[0.0, 0.5, 1.0, 1.5, 2.0] {
        let y = tr.at(t);
        println!(
            "{t:4.1}  {:.4}  {:.4}  {:.4}",
            y[system.state_index("a").unwrap()],
            y[system.state_index("b").unwrap()],
            y[system.state_index("c").unwrap()],
        );
    }
    println!("\ncharge diffuses from `a` toward `c` while slowly leaking away.");
    Ok(())
}
