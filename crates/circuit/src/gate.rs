//! The gate set of the circuit IR: the `{CNOT, U3}` basis the paper
//! compiles to (§V-B.3), plus the named Clifford and rotation gates that
//! Trotter synthesis emits before optimization.

use std::fmt;

use hatt_pauli::Complex64;

/// A 2×2 complex matrix in row-major order.
pub type Mat2 = [[Complex64; 2]; 2];

/// Multiplies two 2×2 matrices.
pub fn mat2_mul(a: &Mat2, b: &Mat2) -> Mat2 {
    let mut out = [[Complex64::ZERO; 2]; 2];
    for (i, row) in out.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = a[i][0] * b[0][j] + a[i][1] * b[1][j];
        }
    }
    out
}

/// The 2×2 identity.
pub const MAT2_ID: Mat2 = [
    [Complex64::ONE, Complex64::ZERO],
    [Complex64::ZERO, Complex64::ONE],
];

/// A quantum gate instance (gate kind + the qubits it acts on).
///
/// # Examples
///
/// ```
/// use hatt_circuit::Gate;
///
/// let g = Gate::Cnot { control: 0, target: 2 };
/// assert_eq!(g.qubits(), vec![0, 2]);
/// assert!(g.is_two_qubit());
/// assert_eq!(Gate::H(1).inverse(), Gate::H(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Gate {
    /// Hadamard.
    H(usize),
    /// Pauli X.
    X(usize),
    /// Pauli Y.
    Y(usize),
    /// Pauli Z.
    Z(usize),
    /// Phase gate `S = diag(1, i)`.
    S(usize),
    /// Inverse phase gate.
    Sdg(usize),
    /// Z rotation by the given angle.
    Rz(usize, f64),
    /// X rotation by the given angle.
    Rx(usize, f64),
    /// Y rotation by the given angle.
    Ry(usize, f64),
    /// Generic single-qubit gate `U3(θ, φ, λ)` (the merged-run basis gate).
    U3 {
        /// Target qubit.
        q: usize,
        /// Polar angle θ.
        theta: f64,
        /// Phase angle φ.
        phi: f64,
        /// Phase angle λ.
        lambda: f64,
    },
    /// Controlled-NOT.
    Cnot {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// SWAP (decomposes to three CNOTs for metric purposes).
    Swap(usize, usize),
}

impl Gate {
    /// The qubits the gate touches, in a stable order.
    pub fn qubits(&self) -> Vec<usize> {
        let (slots, len) = self.qubit_slots();
        slots[..len].to_vec()
    }

    /// The qubits of [`Gate::qubits`] without the allocation: the first
    /// `len` entries of the array, the rest zero. Hot loops (bounds
    /// checks, metrics, the optimization passes) read this per gate.
    #[inline]
    pub(crate) fn qubit_slots(&self) -> ([usize; 2], usize) {
        match *self {
            Gate::H(q)
            | Gate::X(q)
            | Gate::Y(q)
            | Gate::Z(q)
            | Gate::S(q)
            | Gate::Sdg(q)
            | Gate::Rz(q, _)
            | Gate::Rx(q, _)
            | Gate::Ry(q, _)
            | Gate::U3 { q, .. } => ([q, 0], 1),
            Gate::Cnot { control, target } => ([control, target], 2),
            Gate::Swap(a, b) => ([a, b], 2),
        }
    }

    /// Returns `true` for two-qubit gates.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cnot { .. } | Gate::Swap(..))
    }

    /// The inverse gate.
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::S(q) => Gate::Sdg(q),
            Gate::Sdg(q) => Gate::S(q),
            Gate::Rz(q, a) => Gate::Rz(q, -a),
            Gate::Rx(q, a) => Gate::Rx(q, -a),
            Gate::Ry(q, a) => Gate::Ry(q, -a),
            Gate::U3 {
                q,
                theta,
                phi,
                lambda,
            } => Gate::U3 {
                q,
                theta: -theta,
                phi: -lambda,
                lambda: -phi,
            },
            ref g => g.clone(), // H, X, Y, Z, CNOT, SWAP are involutions
        }
    }

    /// The 2×2 matrix of a single-qubit gate (`None` for two-qubit gates).
    pub fn matrix1q(&self) -> Option<Mat2> {
        use Complex64 as C;
        let inv_sqrt2 = C::real(1.0 / std::f64::consts::SQRT_2);
        Some(match *self {
            Gate::H(_) => [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]],
            Gate::X(_) => [[C::ZERO, C::ONE], [C::ONE, C::ZERO]],
            Gate::Y(_) => [[C::ZERO, -C::I], [C::I, C::ZERO]],
            Gate::Z(_) => [[C::ONE, C::ZERO], [C::ZERO, -C::ONE]],
            Gate::S(_) => [[C::ONE, C::ZERO], [C::ZERO, C::I]],
            Gate::Sdg(_) => [[C::ONE, C::ZERO], [C::ZERO, -C::I]],
            Gate::Rz(_, a) => [[C::cis(-a / 2.0), C::ZERO], [C::ZERO, C::cis(a / 2.0)]],
            Gate::Rx(_, a) => {
                let (c, s) = ((a / 2.0).cos(), (a / 2.0).sin());
                [[C::real(c), C::new(0.0, -s)], [C::new(0.0, -s), C::real(c)]]
            }
            Gate::Ry(_, a) => {
                let (c, s) = ((a / 2.0).cos(), (a / 2.0).sin());
                [[C::real(c), C::real(-s)], [C::real(s), C::real(c)]]
            }
            Gate::U3 {
                theta, phi, lambda, ..
            } => {
                let (c, s) = ((theta / 2.0).cos(), (theta / 2.0).sin());
                [
                    [C::real(c), -C::cis(lambda) * s],
                    [C::cis(phi) * s, C::cis(phi + lambda) * c],
                ]
            }
            Gate::Cnot { .. } | Gate::Swap(..) => return None,
        })
    }

    /// Decomposes a 2×2 unitary into `U3(θ, φ, λ)` parameters, dropping
    /// the global phase. Returns `None` when the matrix is (a phase times)
    /// the identity.
    pub fn u3_params(u: &Mat2) -> Option<(f64, f64, f64)> {
        let eps = 1e-12;
        let n00 = u[0][0].abs();
        if n00 > eps {
            // Strip global phase so u00 becomes real nonnegative.
            let g = Complex64::new(u[0][0].re / n00, -u[0][0].im / n00);
            let w10 = g * u[1][0];
            let w01 = g * u[0][1];
            let w11 = g * u[1][1];
            let theta = 2.0 * w10.abs().atan2(n00);
            if w10.abs() > eps {
                let phi = w10.im.atan2(w10.re);
                let lambda = (-w01).im.atan2((-w01).re);
                Some((theta, phi, lambda))
            } else {
                // Diagonal: U = diag(1, e^{i(φ+λ)}) up to phase.
                let total = w11.im.atan2(w11.re);
                if total.abs() < eps {
                    None // identity
                } else {
                    Some((0.0, 0.0, total))
                }
            }
        } else {
            // Anti-diagonal: θ = π.
            let n10 = u[1][0].abs();
            let g = Complex64::new(u[1][0].re / n10, -u[1][0].im / n10);
            let w01 = g * u[0][1];
            let lambda = (-w01).im.atan2((-w01).re);
            Some((std::f64::consts::PI, 0.0, lambda))
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::H(q) => write!(f, "h q{q}"),
            Gate::X(q) => write!(f, "x q{q}"),
            Gate::Y(q) => write!(f, "y q{q}"),
            Gate::Z(q) => write!(f, "z q{q}"),
            Gate::S(q) => write!(f, "s q{q}"),
            Gate::Sdg(q) => write!(f, "sdg q{q}"),
            Gate::Rz(q, a) => write!(f, "rz({a:.6}) q{q}"),
            Gate::Rx(q, a) => write!(f, "rx({a:.6}) q{q}"),
            Gate::Ry(q, a) => write!(f, "ry({a:.6}) q{q}"),
            Gate::U3 {
                q,
                theta,
                phi,
                lambda,
            } => write!(f, "u3({theta:.6},{phi:.6},{lambda:.6}) q{q}"),
            Gate::Cnot { control, target } => write!(f, "cx q{control},q{target}"),
            Gate::Swap(a, b) => write!(f, "swap q{a},q{b}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mats_close(a: &Mat2, b: &Mat2, eps: f64) -> bool {
        (0..2).all(|i| (0..2).all(|j| a[i][j].approx_eq(b[i][j], eps)))
    }

    fn scale(m: &Mat2, c: Complex64) -> Mat2 {
        let mut out = *m;
        for row in &mut out {
            for v in row.iter_mut() {
                *v *= c;
            }
        }
        out
    }

    /// Equality up to global phase.
    fn equal_up_to_phase(a: &Mat2, b: &Mat2) -> bool {
        for i in 0..2 {
            for j in 0..2 {
                if b[i][j].abs() > 1e-9 {
                    let g = a[i][j] * b[i][j].recip();
                    return mats_close(a, &scale(b, g), 1e-9);
                }
            }
        }
        false
    }

    #[test]
    fn qubit_lists() {
        assert_eq!(Gate::Rz(3, 0.5).qubits(), vec![3]);
        assert_eq!(Gate::Swap(1, 4).qubits(), vec![1, 4]);
        assert_eq!(Gate::Swap(1, 4).qubit_slots(), ([1, 4], 2));
        assert_eq!(Gate::H(3).qubit_slots(), ([3, 0], 1));
        assert!(!Gate::H(0).is_two_qubit());
        assert!(Gate::Cnot {
            control: 0,
            target: 1
        }
        .is_two_qubit());
    }

    #[test]
    fn inverses_multiply_to_identity() {
        let gates = vec![
            Gate::H(0),
            Gate::S(0),
            Gate::Sdg(0),
            Gate::X(0),
            Gate::Rz(0, 0.7),
            Gate::Rx(0, -1.1),
            Gate::Ry(0, 2.3),
            Gate::U3 {
                q: 0,
                theta: 0.3,
                phi: 1.0,
                lambda: -0.4,
            },
        ];
        for g in gates {
            let m = g.matrix1q().unwrap();
            let mi = g.inverse().matrix1q().unwrap();
            let prod = mat2_mul(&m, &mi);
            assert!(
                equal_up_to_phase(&prod, &MAT2_ID),
                "{g} inverse fails: {prod:?}"
            );
        }
    }

    #[test]
    fn s_squared_is_z() {
        let s = Gate::S(0).matrix1q().unwrap();
        let z = Gate::Z(0).matrix1q().unwrap();
        assert!(mats_close(&mat2_mul(&s, &s), &z, 1e-12));
    }

    #[test]
    fn hadamard_conjugates_x_to_z() {
        let h = Gate::H(0).matrix1q().unwrap();
        let x = Gate::X(0).matrix1q().unwrap();
        let z = Gate::Z(0).matrix1q().unwrap();
        assert!(mats_close(&mat2_mul(&mat2_mul(&h, &x), &h), &z, 1e-12));
    }

    #[test]
    fn u3_roundtrip_for_random_products() {
        // Compose a few gates, decompose to U3, and compare matrices.
        let seq = [
            Gate::H(0),
            Gate::Rz(0, 0.3),
            Gate::Ry(0, -1.2),
            Gate::S(0),
            Gate::Rx(0, 0.9),
        ];
        let mut acc = MAT2_ID;
        for g in &seq {
            acc = mat2_mul(&g.matrix1q().unwrap(), &acc);
        }
        let (theta, phi, lambda) = Gate::u3_params(&acc).expect("non-identity");
        let rebuilt = Gate::U3 {
            q: 0,
            theta,
            phi,
            lambda,
        }
        .matrix1q()
        .unwrap();
        assert!(
            equal_up_to_phase(&rebuilt, &acc),
            "U3 decomposition mismatch"
        );
    }

    #[test]
    fn u3_params_detects_identity() {
        assert_eq!(Gate::u3_params(&MAT2_ID), None);
        let phased = scale(&MAT2_ID, Complex64::cis(0.8));
        assert_eq!(Gate::u3_params(&phased), None);
    }

    #[test]
    fn u3_params_handles_antidiagonal() {
        let x = Gate::X(0).matrix1q().unwrap();
        let (theta, _, _) = Gate::u3_params(&x).unwrap();
        assert!((theta - std::f64::consts::PI).abs() < 1e-12);
        let rebuilt = Gate::U3 {
            q: 0,
            theta,
            phi: 0.0,
            lambda: Gate::u3_params(&x).unwrap().2,
        }
        .matrix1q()
        .unwrap();
        assert!(equal_up_to_phase(&rebuilt, &x));
    }

    #[test]
    fn u3_params_handles_diagonal_rz() {
        let rz = Gate::Rz(0, 1.3).matrix1q().unwrap();
        let (theta, phi, lambda) = Gate::u3_params(&rz).unwrap();
        assert!(theta.abs() < 1e-12);
        let rebuilt = Gate::U3 {
            q: 0,
            theta,
            phi,
            lambda,
        }
        .matrix1q()
        .unwrap();
        assert!(equal_up_to_phase(&rebuilt, &rz));
    }

    #[test]
    fn display_smoke() {
        assert_eq!(
            Gate::Cnot {
                control: 1,
                target: 0
            }
            .to_string(),
            "cx q1,q0"
        );
        assert!(Gate::Rz(2, 0.5).to_string().starts_with("rz(0.5"));
    }
}
