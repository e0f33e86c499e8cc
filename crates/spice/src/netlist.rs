//! GmC-class circuit netlists and their transient simulation.
//!
//! The netlists cover exactly the element classes a GmC emulation of a
//! transmission-line network needs (paper §2.3, Figure 3): grounded
//! capacitors (`Cint`), grounded conductances (`Gint`), voltage-controlled
//! current sources (the transconductors `Gm1`/`Gm2`), and independent
//! current sources with arbitrary waveforms. Every node carries a capacitor,
//! so modified nodal analysis reduces to the linear ODE
//! `C·dv/dt = −G·v + i(t)`, integrated with the trapezoidal rule and a
//! one-time LU factorization — the same discretization SPICE applies to
//! linear circuits.

use ark_expr::{eval, Expr, LowerError, MapContext, ProgramBuilder, SlotResolver};
use ark_ode::linalg::{Lu, Matrix, SingularMatrix};
use ark_ode::Trajectory;
use std::collections::BTreeMap;
use std::fmt;

/// Assembled MNA system: per-node capacitances, conductance matrix, and
/// `(node, waveform)` current sources.
type AssembledSystem = (Vec<f64>, Matrix, Vec<(usize, Waveform)>);

/// A time-dependent source waveform: a closed expression over `time`.
#[derive(Debug, Clone)]
pub struct Waveform {
    expr: Expr,
}

impl Waveform {
    /// A constant current.
    pub fn constant(amp: f64) -> Self {
        Waveform {
            expr: Expr::Const(amp),
        }
    }

    /// Check an expression over `time` (no other free variables) and keep
    /// it for evaluation.
    ///
    /// # Errors
    ///
    /// Returns the lowering error for expressions with unresolved
    /// references or calls a compiled program cannot represent.
    pub fn from_expr(expr: &Expr) -> Result<Self, LowerError> {
        ProgramBuilder::new().add_expr(expr, &SlotResolver(|_: &str| None::<usize>))?;
        Ok(Waveform { expr: expr.clone() })
    }

    /// Evaluate at time `t`.
    pub fn at(&self, t: f64) -> f64 {
        eval(&self.expr, &MapContext::new().at_time(t)).expect("checked closed over `time`")
    }
}

/// A circuit element.
#[derive(Debug, Clone)]
pub enum Element {
    /// Grounded capacitor at `node` with capacitance `c`.
    Capacitor {
        /// Node index.
        node: usize,
        /// Capacitance in farads.
        c: f64,
    },
    /// Grounded conductance at `node`.
    Conductance {
        /// Node index.
        node: usize,
        /// Conductance in siemens.
        g: f64,
    },
    /// Voltage-controlled current source: injects `gm · v(ctrl)` *into*
    /// `out`.
    Vccs {
        /// Output node receiving the current.
        out: usize,
        /// Controlling node.
        ctrl: usize,
        /// Transconductance in siemens.
        gm: f64,
    },
    /// Independent current source injecting `waveform(t)` into `node`.
    CurrentSource {
        /// Node index.
        node: usize,
        /// Source waveform.
        waveform: Waveform,
    },
}

/// An error in netlist construction or simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A node lacks a capacitor (the GmC formulation requires one per node).
    NodeWithoutCapacitor(String),
    /// An element references a node index out of range.
    BadNode(usize),
    /// The conductance matrix assembly produced a singular system.
    Singular(SingularMatrix),
    /// Invalid solver configuration.
    BadConfig(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::NodeWithoutCapacitor(n) => {
                write!(
                    f,
                    "node `{n}` has no capacitor; GmC netlists require one per node"
                )
            }
            NetlistError::BadNode(i) => write!(f, "element references unknown node {i}"),
            NetlistError::Singular(e) => write!(f, "{e}"),
            NetlistError::BadConfig(m) => write!(f, "bad transient configuration: {m}"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A GmC-class netlist.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    names: Vec<String>,
    index: BTreeMap<String, usize>,
    elements: Vec<Element>,
    initial: Vec<f64>,
}

impl Netlist {
    /// An empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Add (or look up) a named node, returning its index. New nodes start
    /// at 0 V.
    pub fn node(&mut self, name: &str) -> usize {
        if let Some(&i) = self.index.get(name) {
            return i;
        }
        let i = self.names.len();
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), i);
        self.initial.push(0.0);
        i
    }

    /// Index of an existing node.
    pub fn node_index(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// Set a node's initial voltage.
    ///
    /// # Panics
    ///
    /// Panics on an out-of-range node.
    pub fn set_initial(&mut self, node: usize, v0: f64) {
        self.initial[node] = v0;
    }

    /// Add an element.
    pub fn add(&mut self, element: Element) {
        self.elements.push(element);
    }

    /// Render in a SPICE-like card format (for inspection and tests).
    pub fn to_spice(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("* GmC netlist generated by ark-spice\n");
        for (k, e) in self.elements.iter().enumerate() {
            match e {
                Element::Capacitor { node, c } => {
                    let _ = writeln!(s, "C{k} {} 0 {c:e}", self.names[*node]);
                }
                Element::Conductance { node, g } => {
                    if *g != 0.0 {
                        let _ = writeln!(s, "R{k} {} 0 {:e}", self.names[*node], 1.0 / g);
                    }
                }
                Element::Vccs { out, ctrl, gm } => {
                    let _ = writeln!(
                        s,
                        "G{k} {} 0 {} 0 {gm:e}",
                        self.names[*out], self.names[*ctrl]
                    );
                }
                Element::CurrentSource { node, .. } => {
                    let _ = writeln!(s, "I{k} 0 {} PULSE", self.names[*node]);
                }
            }
        }
        s.push_str(".end\n");
        s
    }

    fn assemble(&self) -> Result<AssembledSystem, NetlistError> {
        let n = self.num_nodes();
        let mut cap = vec![0.0; n];
        let mut g = Matrix::zeros(n);
        let mut sources = Vec::new();
        let check = |i: usize| {
            if i < n {
                Ok(i)
            } else {
                Err(NetlistError::BadNode(i))
            }
        };
        for e in &self.elements {
            match e {
                Element::Capacitor { node, c } => cap[check(*node)?] += c,
                Element::Conductance { node, g: gv } => {
                    let i = check(*node)?;
                    g[(i, i)] += gv;
                }
                Element::Vccs { out, ctrl, gm } => {
                    let (o, c) = (check(*out)?, check(*ctrl)?);
                    // Current gm·v(ctrl) into `out`: C dv_o/dt = ... + gm·v_c,
                    // so it lands with a minus sign in G (C v' = -G v + i).
                    g[(o, c)] -= gm;
                }
                Element::CurrentSource { node, waveform } => {
                    sources.push((check(*node)?, waveform.clone()));
                }
            }
        }
        for (i, &c) in cap.iter().enumerate() {
            if c <= 0.0 {
                return Err(NetlistError::NodeWithoutCapacitor(self.names[i].clone()));
            }
        }
        Ok((cap, g, sources))
    }

    /// Trapezoidal transient simulation from `0` to `t_end` with fixed step
    /// `dt`, recording every `stride`-th step.
    ///
    /// # Errors
    ///
    /// [`NetlistError`] for malformed netlists or configuration.
    pub fn transient(
        &self,
        t_end: f64,
        dt: f64,
        stride: usize,
    ) -> Result<Trajectory, NetlistError> {
        if dt.is_nan() || dt <= 0.0 || t_end.is_nan() || t_end <= 0.0 {
            return Err(NetlistError::BadConfig(format!("dt={dt}, t_end={t_end}")));
        }
        let stride = stride.max(1);
        let n = self.num_nodes();
        let (cap, g, sources) = self.assemble()?;
        // (C/dt + G/2) v_{k+1} = (C/dt - G/2) v_k + (i_k + i_{k+1})/2
        let steps = (t_end / dt).ceil() as usize;
        let dt = t_end / steps as f64;
        let mut lhs = g.add_scaled(&Matrix::identity(n), 0.0);
        let mut rhs_m = g.add_scaled(&Matrix::identity(n), 0.0);
        for i in 0..n {
            for j in 0..n {
                lhs[(i, j)] = g[(i, j)] * 0.5;
                rhs_m[(i, j)] = -g[(i, j)] * 0.5;
            }
            lhs[(i, i)] += cap[i] / dt;
            rhs_m[(i, i)] += cap[i] / dt;
        }
        let lu = Lu::factor(&lhs).map_err(NetlistError::Singular)?;
        let mut v = self.initial.clone();
        let mut tr = Trajectory::with_capacity(n, steps / stride + 2);
        tr.push_slice(0.0, &v);
        let src_at = |t: f64, out: &mut Vec<f64>| {
            out.iter_mut().for_each(|x| *x = 0.0);
            for (node, w) in &sources {
                out[*node] += w.at(t);
            }
        };
        let mut i_now = vec![0.0; n];
        let mut i_next = vec![0.0; n];
        let mut b = vec![0.0; n];
        src_at(0.0, &mut i_now);
        for k in 0..steps {
            let t_next = (k + 1) as f64 * dt;
            src_at(t_next, &mut i_next);
            rhs_m.matvec_into(&v, &mut b);
            for i in 0..n {
                b[i] += 0.5 * (i_now[i] + i_next[i]);
            }
            lu.solve_into(&b, &mut v).expect("b sized by assemble");
            std::mem::swap(&mut i_now, &mut i_next);
            if (k + 1) % stride == 0 || k + 1 == steps {
                tr.push_slice(t_next, &v);
            }
        }
        Ok(tr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_expr::parse_expr;

    #[test]
    fn rc_discharge_matches_analytic() {
        // 1 F capacitor, 1 S conductance, v(0)=1 → e^{-t}.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add(Element::Capacitor { node: a, c: 1.0 });
        nl.add(Element::Conductance { node: a, g: 1.0 });
        nl.set_initial(a, 1.0);
        let tr = nl.transient(1.0, 1e-4, 100).unwrap();
        let v = tr.last().unwrap().1[0];
        assert!((v - (-1.0f64).exp()).abs() < 1e-7, "v {v}");
    }

    #[test]
    fn driven_rc_charges_to_source_level() {
        // i = 1 A into (1 F ‖ 1 S): v → 1.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add(Element::Capacitor { node: a, c: 1.0 });
        nl.add(Element::Conductance { node: a, g: 1.0 });
        nl.add(Element::CurrentSource {
            node: a,
            waveform: Waveform::constant(1.0),
        });
        let tr = nl.transient(10.0, 1e-3, 100).unwrap();
        let v = tr.last().unwrap().1[0];
        assert!((v - 1.0).abs() < 1e-4, "v {v}");
    }

    #[test]
    fn vccs_oscillator() {
        // Two integrators in a gyrator loop: dv1 = +v2, dv2 = -v1 → cosine.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b = nl.node("b");
        nl.add(Element::Capacitor { node: a, c: 1.0 });
        nl.add(Element::Capacitor { node: b, c: 1.0 });
        nl.add(Element::Vccs {
            out: a,
            ctrl: b,
            gm: 1.0,
        });
        nl.add(Element::Vccs {
            out: b,
            ctrl: a,
            gm: -1.0,
        });
        nl.set_initial(a, 1.0);
        let tr = nl.transient(std::f64::consts::TAU, 1e-4, 1000).unwrap();
        let yf = tr.last().unwrap().1;
        assert!((yf[0] - 1.0).abs() < 1e-5, "a {}", yf[0]);
        assert!(yf[1].abs() < 1e-5, "b {}", yf[1]);
    }

    #[test]
    fn pulse_waveform_from_expr() {
        let expr = parse_expr("pulse(time, 0, 2e-8)").unwrap();
        let w = Waveform::from_expr(&expr).unwrap();
        assert_eq!(w.at(1e-8), 1.0);
        assert_eq!(w.at(5e-8), 0.0);
    }

    #[test]
    fn waveform_from_expr_rejects_non_closed_expressions() {
        let err = |src: &str| Waveform::from_expr(&parse_expr(src).unwrap()).unwrap_err();
        assert_eq!(err("var(x)"), LowerError::UnresolvedVar("x".into()));
        assert_eq!(
            err("n.a"),
            LowerError::UnresolvedAttr("n".into(), "a".into())
        );
        assert_eq!(
            err("atan2(time, 1)"),
            LowerError::UnsupportedCall("atan2".into())
        );
    }

    #[test]
    fn missing_capacitor_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add(Element::Conductance { node: a, g: 1.0 });
        assert!(matches!(
            nl.transient(1.0, 1e-3, 1),
            Err(NetlistError::NodeWithoutCapacitor(_))
        ));
    }

    #[test]
    fn bad_config_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.add(Element::Capacitor { node: a, c: 1.0 });
        assert!(matches!(
            nl.transient(1.0, 0.0, 1),
            Err(NetlistError::BadConfig(_))
        ));
        assert!(matches!(
            nl.transient(-1.0, 1e-3, 1),
            Err(NetlistError::BadConfig(_))
        ));
    }

    #[test]
    fn node_dedup_and_spice_render() {
        let mut nl = Netlist::new();
        let a = nl.node("vin");
        let a2 = nl.node("vin");
        assert_eq!(a, a2);
        nl.add(Element::Capacitor { node: a, c: 1e-9 });
        nl.add(Element::Vccs {
            out: a,
            ctrl: a,
            gm: 1e-3,
        });
        let card = nl.to_spice();
        assert!(card.contains("C0 vin 0"));
        assert!(card.contains("G1 vin 0 vin 0"));
        assert!(card.ends_with(".end\n"));
    }
}
