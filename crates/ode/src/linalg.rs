//! Dense linear algebra shared by the implicit steppers and the SPICE
//! backend: LU decomposition with partial pivoting, with a
//! factor-once/solve-many API shaped for Newton iterations.
//!
//! The implicit TR-BDF2 stepper factors one iteration matrix per step
//! attempt and back-substitutes it many times (Newton corrections for both
//! stages plus the error filter), so [`Lu`] separates the two costs:
//! [`Lu::factor`]/[`Lu::refactor`] do the O(n³) elimination (`refactor`
//! reuses the allocation), and [`Lu::solve_into`] does O(n²)
//! back-substitution into a caller-owned buffer. `ark-spice`'s trapezoidal
//! transient solver uses the same type through its `linalg` re-export.
//!
//! All fallible operations return typed errors ([`SingularMatrix`],
//! [`DimensionMismatch`]) — there are no panicking code paths in the solve
//! API.

use std::fmt;

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The entries in row-major order (`n·n` values).
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the row-major entries (for bulk fills).
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dim()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.matvec_into(x, &mut y);
        y
    }

    /// [`Matrix::matvec`] into a caller-provided buffer, bit for bit: the
    /// allocation-free form for loops that multiply once per step.
    ///
    /// # Panics
    ///
    /// Panics when `x.len()` or `y.len()` is not `dim()`.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert_eq!(y.len(), self.n, "dimension mismatch");
        for (row, yi) in self.data.chunks_exact(self.n.max(1)).zip(y) {
            *yi = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// `self + alpha * other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn add_scaled(&self, other: &Matrix, alpha: f64) -> Matrix {
        assert_eq!(self.n, other.n, "dimension mismatch");
        Matrix {
            n: self.n,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + alpha * b)
                .collect(),
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

/// An error from LU factorization: no usable pivot in some column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SingularMatrix {
    /// Pivot column at which factorization failed.
    pub column: usize,
}

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

/// A right-hand side or solution buffer of the wrong length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionMismatch {
    /// The factored dimension.
    pub expected: usize,
    /// The length actually supplied.
    pub got: usize,
}

impl fmt::Display for DimensionMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimension mismatch: factorization is {}×{0}, got length {}",
            self.expected, self.got
        )
    }
}

impl std::error::Error for DimensionMismatch {}

/// LU factorization with partial pivoting (`PA = LU`).
///
/// Factor once, solve many: after [`Lu::factor`] (or an allocation-reusing
/// [`Lu::refactor`]), every [`Lu::solve_into`] is a cheap O(n²)
/// back-substitution.
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

/// The elimination kernel shared by `factor` and `refactor`; `lu` holds the
/// matrix entries on input and the packed L/U factors on output.
fn factor_in_place(n: usize, lu: &mut [f64], perm: &mut [usize]) -> Result<(), SingularMatrix> {
    for (i, p) in perm.iter_mut().enumerate() {
        *p = i;
    }
    for k in 0..n {
        // Partial pivot.
        let mut p = k;
        let mut best = lu[k * n + k].abs();
        for i in (k + 1)..n {
            let v = lu[i * n + k].abs();
            if v > best {
                best = v;
                p = i;
            }
        }
        if best < 1e-300 {
            return Err(SingularMatrix { column: k });
        }
        if p != k {
            for j in 0..n {
                lu.swap(k * n + j, p * n + j);
            }
            perm.swap(k, p);
        }
        let pivot = lu[k * n + k];
        for i in (k + 1)..n {
            let f = lu[i * n + k] / pivot;
            lu[i * n + k] = f;
            for j in (k + 1)..n {
                lu[i * n + j] -= f * lu[k * n + j];
            }
        }
    }
    Ok(())
}

impl Lu {
    /// Factor a matrix.
    ///
    /// # Errors
    ///
    /// [`SingularMatrix`] when no usable pivot remains in some column.
    pub fn factor(m: &Matrix) -> Result<Lu, SingularMatrix> {
        let n = m.n;
        let mut lu = m.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        factor_in_place(n, &mut lu, &mut perm)?;
        Ok(Lu { n, lu, perm })
    }

    /// Re-factor in place, reusing this factorization's allocations (the
    /// per-step path of a Newton iteration: same structure, new entries).
    /// The dimension may differ from the previous factorization.
    ///
    /// # Errors
    ///
    /// [`SingularMatrix`] when no usable pivot remains in some column; the
    /// factorization contents are unspecified afterwards (but safe to
    /// `refactor` again).
    pub fn refactor(&mut self, m: &Matrix) -> Result<(), SingularMatrix> {
        self.n = m.n;
        self.lu.clear();
        self.lu.extend_from_slice(&m.data);
        self.perm.resize(m.n, 0);
        factor_in_place(self.n, &mut self.lu, &mut self.perm)
    }

    /// The factored dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solve `A·x = b` into a caller-owned buffer (no allocation).
    ///
    /// # Errors
    ///
    /// [`DimensionMismatch`] when `b` or `x` do not match the factored
    /// dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), DimensionMismatch> {
        let n = self.n;
        for len in [b.len(), x.len()] {
            if len != n {
                return Err(DimensionMismatch {
                    expected: n,
                    got: len,
                });
            }
        }
        // Apply permutation, then forward/back substitution.
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for i in 1..n {
            let dot: f64 = self.lu[i * n..i * n + i]
                .iter()
                .zip(&*x)
                .map(|(l, xj)| l * xj)
                .sum();
            x[i] -= dot;
        }
        for i in (0..n).rev() {
            let dot: f64 = self.lu[i * n + i + 1..(i + 1) * n]
                .iter()
                .zip(&x[i + 1..])
                .map(|(l, xj)| l * xj)
                .sum();
            x[i] = (x[i] - dot) / self.lu[i * n + i];
        }
        Ok(())
    }

    /// Solve `A·x = b`, allocating the solution vector.
    ///
    /// # Errors
    ///
    /// [`DimensionMismatch`] when `b.len()` does not match the factored
    /// dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, DimensionMismatch> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let m = Matrix::identity(3);
        let lu = Lu::factor(&m).unwrap();
        assert_eq!(lu.solve(&[1.0, 2.0, 3.0]).unwrap(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_system() {
        // [[2,1],[1,3]] x = [3,5] → x = [0.8, 1.4]
        let mut m = Matrix::zeros(2);
        m[(0, 0)] = 2.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 3.0;
        let lu = Lu::factor(&m).unwrap();
        let x = lu.solve(&[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // [[0,1],[1,0]] requires a row swap.
        let mut m = Matrix::zeros(2);
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        let lu = Lu::factor(&m).unwrap();
        let x = lu.solve(&[7.0, 9.0]).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-12);
        assert!((x[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let mut m = Matrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        assert_eq!(Lu::factor(&m).unwrap_err(), SingularMatrix { column: 1 });
    }

    #[test]
    fn near_singular_pivot_is_an_error_not_garbage() {
        // After eliminating column 0 the remaining pivot is ~1e-320 —
        // far below any representable conditioning. The factorization must
        // report SingularMatrix instead of dividing through and returning
        // inf/NaN solutions. Regression test for the Newton reuse path,
        // where the iteration matrix I - d·h·J can pass through singular as
        // h grows.
        let mut m = Matrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 1.0 + 1e-320;
        assert_eq!(Lu::factor(&m).unwrap_err(), SingularMatrix { column: 1 });
        // refactor must report the same error, and recover on good input.
        let mut lu = Lu::factor(&Matrix::identity(2)).unwrap();
        assert_eq!(lu.refactor(&m).unwrap_err(), SingularMatrix { column: 1 });
        lu.refactor(&Matrix::identity(2)).unwrap();
        assert_eq!(lu.solve(&[5.0, 6.0]).unwrap(), vec![5.0, 6.0]);
    }

    #[test]
    fn solve_rejects_wrong_dimension() {
        let lu = Lu::factor(&Matrix::identity(3)).unwrap();
        assert_eq!(
            lu.solve(&[1.0, 2.0]).unwrap_err(),
            DimensionMismatch {
                expected: 3,
                got: 2
            }
        );
        let mut short = [0.0; 2];
        assert!(lu.solve_into(&[1.0, 2.0, 3.0], &mut short).is_err());
    }

    #[test]
    fn refactor_matches_factor_and_reuses_allocation() {
        let mut a = Matrix::zeros(2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let mut b = Matrix::zeros(2);
        b[(0, 0)] = 4.0;
        b[(0, 1)] = -1.0;
        b[(1, 0)] = 0.5;
        b[(1, 1)] = 2.0;
        let mut lu = Lu::factor(&a).unwrap();
        lu.refactor(&b).unwrap();
        let fresh = Lu::factor(&b).unwrap();
        let rhs = [1.0, -2.0];
        assert_eq!(lu.solve(&rhs).unwrap(), fresh.solve(&rhs).unwrap());
    }

    #[test]
    fn matvec_and_add_scaled() {
        let mut m = Matrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 1)] = 3.0;
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 3.0]);
        let s = m.add_scaled(&Matrix::identity(2), 10.0);
        assert_eq!(s[(0, 0)], 11.0);
        assert_eq!(s[(1, 1)], 13.0);
        assert_eq!(s[(0, 1)], 2.0);
    }

    #[test]
    fn random_roundtrip() {
        // Deterministic pseudo-random matrix; verify A·solve(b) == b.
        let n = 12;
        let mut m = Matrix::zeros(n);
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            m[(i, i)] += 4.0; // diagonally dominant → nonsingular
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let lu = Lu::factor(&m).unwrap();
        let x = lu.solve(&b).unwrap();
        let back = m.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }
}
