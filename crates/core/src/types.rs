//! Datatypes of the Ark language (paper §4, grammar lines 1–4).
//!
//! Attributes and initial values are declared with *signal types*:
//! `real[x0,x1]`, `int[i0,i1]`, or `lambd(v*)`, optionally marked `const`
//! (non-programmable) and, for the hardware extensions (§4.3), annotated
//! with a mismatch model `mm(s0,s1)`.

use ark_expr::Lambda;
use std::fmt;

/// Mismatch annotation `mm(s0, s1)` on a process-variation-sensitive type.
///
/// A nominal value `x` is replaced by a sample from `N(x, σ)` with
/// `σ = s0 + |x|·s1` (`s0` absolute, `s1` relative). The paper's prose
/// writes `N(x, x·s0+s1)`, but its own examples — `mm(0,0.1)` described as
/// "10% relative standard deviation" and `mm(0.02,0)` used on a nominal-zero
/// offset — are only consistent with the absolute-then-relative reading
/// implemented here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mismatch {
    /// Absolute standard-deviation contribution (`s0`).
    pub abs: f64,
    /// Relative standard-deviation contribution (`s1`, per unit of `|x|`).
    pub rel: f64,
}

impl Mismatch {
    /// Standard deviation applied to nominal value `x`.
    pub fn sigma(&self, x: f64) -> f64 {
        self.abs + x.abs() * self.rel
    }
}

/// The kind of a signal type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigKind {
    /// Bounded real `real[x0,x1]`.
    Real,
    /// Bounded integer `int[i0,i1]`.
    Int,
    /// Function `lambd(v*)` with the given arity.
    Lambda(usize),
}

/// A signal type: datatype, value range, optional mismatch model, and
/// programmability (`const`).
#[derive(Debug, Clone, PartialEq)]
pub struct SigType {
    /// The datatype kind.
    pub kind: SigKind,
    /// Lower bound (reals/ints; `-inf` allowed).
    pub lo: f64,
    /// Upper bound (reals/ints; `inf` allowed).
    pub hi: f64,
    /// Mismatch model for process-variation-sensitive values (§4.3).
    pub mismatch: Option<Mismatch>,
    /// `const`: non-programmable; must be fixed at declaration or to a
    /// constant at instantiation, never to a function argument.
    pub is_const: bool,
}

impl SigType {
    /// `real[lo, hi]`.
    pub fn real(lo: f64, hi: f64) -> SigType {
        SigType {
            kind: SigKind::Real,
            lo,
            hi,
            mismatch: None,
            is_const: false,
        }
    }

    /// `int[lo, hi]`.
    pub fn int(lo: i64, hi: i64) -> SigType {
        SigType {
            kind: SigKind::Int,
            lo: lo as f64,
            hi: hi as f64,
            mismatch: None,
            is_const: false,
        }
    }

    /// `lambd(..)` with `arity` parameters.
    pub fn lambda(arity: usize) -> SigType {
        SigType {
            kind: SigKind::Lambda(arity),
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            mismatch: None,
            is_const: false,
        }
    }

    /// Attach a mismatch model `mm(abs, rel)` (builder style).
    pub fn with_mismatch(mut self, abs: f64, rel: f64) -> SigType {
        self.mismatch = Some(Mismatch { abs, rel });
        self
    }

    /// Mark as `const` (builder style).
    pub fn constant(mut self) -> SigType {
        self.is_const = true;
        self
    }

    /// Check that a value inhabits this type (kind and range).
    pub fn admits(&self, value: &Value) -> bool {
        match (self.kind, value) {
            (SigKind::Real, Value::Real(x)) => *x >= self.lo && *x <= self.hi,
            // Integer range: accept an integer-valued literal within range.
            (SigKind::Int, Value::Int(i)) => (*i as f64) >= self.lo && (*i as f64) <= self.hi,
            (SigKind::Lambda(arity), Value::Lambda(l)) => l.params.len() == arity,
            _ => false,
        }
    }

    /// True when `self` is a valid *refinement* of `parent` under the
    /// inheritance rules of §4.1.1: same datatype kind and a value range no
    /// wider than the parent's.
    pub fn refines(&self, parent: &SigType) -> bool {
        let kind_ok = match (self.kind, parent.kind) {
            (SigKind::Real, SigKind::Real) | (SigKind::Int, SigKind::Int) => true,
            (SigKind::Lambda(a), SigKind::Lambda(b)) => a == b,
            _ => false,
        };
        kind_ok && self.lo >= parent.lo && self.hi <= parent.hi
    }
}

impl fmt::Display for SigType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            SigKind::Real => write!(f, "real[{},{}]", self.lo, self.hi)?,
            SigKind::Int => write!(f, "int[{},{}]", self.lo, self.hi)?,
            SigKind::Lambda(n) => {
                write!(f, "lambd(")?;
                for i in 0..n {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "a{i}")?;
                }
                write!(f, ")")?;
            }
        }
        if let Some(mm) = &self.mismatch {
            write!(f, " mm({},{})", mm.abs, mm.rel)?;
        }
        if self.is_const {
            write!(f, " const")?;
        }
        Ok(())
    }
}

/// A runtime value assignable to an attribute or initial value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A real number.
    Real(f64),
    /// An integer.
    Int(i64),
    /// A lambda (e.g. an input waveform).
    Lambda(Lambda),
}

impl Value {
    /// The value as a real number, if numeric.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            Value::Lambda(_) => None,
        }
    }

    /// The value as a lambda, if it is one.
    pub fn as_lambda(&self) -> Option<&Lambda> {
        match self {
            Value::Lambda(l) => Some(l),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Real(x) => write!(f, "{x}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Lambda(l) => write!(f, "{l}"),
        }
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Value {
        Value::Real(x)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Value {
        Value::Int(i)
    }
}

impl From<Lambda> for Value {
    fn from(l: Lambda) -> Value {
        Value::Lambda(l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_expr::Expr;

    #[test]
    fn mismatch_sigma() {
        let mm = Mismatch { abs: 0.0, rel: 0.1 };
        assert!((mm.sigma(1e-9) - 1e-10).abs() < 1e-24);
        let mm = Mismatch {
            abs: 0.02,
            rel: 0.0,
        };
        assert_eq!(mm.sigma(0.0), 0.02);
        // Negative nominal uses |x|.
        let mm = Mismatch { abs: 0.0, rel: 0.5 };
        assert_eq!(mm.sigma(-2.0), 1.0);
    }

    #[test]
    fn admits_checks_kind_and_range() {
        let t = SigType::real(0.0, 1.0);
        assert!(t.admits(&Value::Real(0.5)));
        assert!(t.admits(&Value::Real(1.0)));
        assert!(!t.admits(&Value::Real(1.5)));
        assert!(!t.admits(&Value::Int(0)));

        let t = SigType::int(0, 1);
        assert!(t.admits(&Value::Int(1)));
        assert!(!t.admits(&Value::Int(2)));
        assert!(!t.admits(&Value::Real(0.5)));

        let t = SigType::lambda(1);
        let l = Lambda::new(vec!["t"], Expr::arg("t"));
        assert!(t.admits(&Value::Lambda(l.clone())));
        let l2 = Lambda::new(Vec::<String>::new(), Expr::constant(1.0));
        assert!(!t.admits(&Value::Lambda(l2)));
    }

    #[test]
    fn infinite_ranges() {
        let t = SigType::real(0.0, f64::INFINITY);
        assert!(t.admits(&Value::Real(1e300)));
        assert!(!t.admits(&Value::Real(-1.0)));
    }

    #[test]
    fn refinement_rules() {
        let parent = SigType::real(0.0, 10.0);
        assert!(SigType::real(1.0, 5.0).refines(&parent));
        assert!(SigType::real(0.0, 10.0).refines(&parent));
        // Wider range is not a refinement.
        assert!(!SigType::real(-1.0, 5.0).refines(&parent));
        assert!(!SigType::real(0.0, 11.0).refines(&parent));
        // Kind change is not a refinement.
        assert!(!SigType::int(0, 5).refines(&parent));
        // Mismatch annotations are allowed to differ (GmC-TLN overrides c
        // with a mismatched version of the same range).
        assert!(SigType::real(0.0, 10.0)
            .with_mismatch(0.0, 0.1)
            .refines(&parent));
        // Lambda arity must match.
        assert!(SigType::lambda(2).refines(&SigType::lambda(2)));
        assert!(!SigType::lambda(1).refines(&SigType::lambda(2)));
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(1.5).as_real(), Some(1.5));
        assert_eq!(Value::from(3i64).as_real(), Some(3.0));
        let l = Lambda::new(vec!["t"], Expr::arg("t"));
        assert!(Value::from(l.clone()).as_lambda().is_some());
        assert_eq!(Value::Lambda(l).as_real(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(SigType::real(0.0, 1.0).to_string(), "real[0,1]");
        assert_eq!(
            SigType::real(0.0, 1.0).with_mismatch(0.0, 0.1).to_string(),
            "real[0,1] mm(0,0.1)"
        );
        assert_eq!(SigType::int(0, 1).constant().to_string(), "int[0,1] const");
        assert_eq!(SigType::lambda(2).to_string(), "lambd(a0,a1)");
        assert_eq!(Value::Real(2.5).to_string(), "2.5");
    }
}
