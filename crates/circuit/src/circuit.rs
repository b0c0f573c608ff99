//! The circuit container and its cost metrics (CNOT count, single-qubit
//! count, depth) — the quantities reported in the paper's Tables I–V.

use std::fmt;

use crate::gate::Gate;

/// Cost metrics of a circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitMetrics {
    /// CNOT count (SWAPs count as three).
    pub cnot: usize,
    /// Single-qubit gate count.
    pub single_qubit: usize,
    /// Circuit depth (each gate costs one time step on its qubits).
    pub depth: usize,
    /// Total gate count.
    pub total: usize,
}

/// A gate-list quantum circuit on a fixed number of qubits.
///
/// # Examples
///
/// ```
/// use hatt_circuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(3);
/// c.h(0).cnot(0, 1).cnot(1, 2).rz(2, 0.5);
/// assert_eq!(c.n_qubits(), 3);
/// assert_eq!(c.metrics().cnot, 2);
/// assert_eq!(c.metrics().depth, 4);
/// # let _ = Gate::H(0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    n_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit on `n_qubits`.
    pub fn new(n_qubits: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::new(),
        }
    }

    /// An empty circuit on `n_qubits` with room for `capacity` gates.
    pub(crate) fn with_capacity(n_qubits: usize, capacity: usize) -> Self {
        Circuit {
            n_qubits,
            gates: Vec::with_capacity(capacity),
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The gate list.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` when the circuit has no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches a qubit outside the register.
    pub fn push(&mut self, gate: Gate) -> &mut Self {
        self.check_register(&gate);
        self.gates.push(gate);
        self
    }

    fn check_register(&self, gate: &Gate) {
        let (slots, len) = gate.qubit_slots();
        for &q in &slots[..len] {
            assert!(
                q < self.n_qubits,
                "gate {gate} touches qubit {q}, register has {}",
                self.n_qubits
            );
        }
    }

    /// Appends a Hadamard.
    pub fn h(&mut self, q: usize) -> &mut Self {
        self.push(Gate::H(q))
    }

    /// Appends an S gate.
    pub fn s(&mut self, q: usize) -> &mut Self {
        self.push(Gate::S(q))
    }

    /// Appends an S† gate.
    pub fn sdg(&mut self, q: usize) -> &mut Self {
        self.push(Gate::Sdg(q))
    }

    /// Appends an X gate.
    pub fn x(&mut self, q: usize) -> &mut Self {
        self.push(Gate::X(q))
    }

    /// Appends a Z rotation.
    pub fn rz(&mut self, q: usize, angle: f64) -> &mut Self {
        self.push(Gate::Rz(q, angle))
    }

    /// Appends a CNOT.
    pub fn cnot(&mut self, control: usize, target: usize) -> &mut Self {
        self.push(Gate::Cnot { control, target })
    }

    /// Appends a SWAP.
    pub fn swap(&mut self, a: usize, b: usize) -> &mut Self {
        self.push(Gate::Swap(a, b))
    }

    /// Appends all gates of another circuit.
    ///
    /// # Panics
    ///
    /// Panics if the other circuit uses more qubits.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.n_qubits <= self.n_qubits,
            "cannot append a {}-qubit circuit to {} qubits",
            other.n_qubits,
            self.n_qubits
        );
        self.gates.extend(other.gates.iter().cloned());
        self
    }

    /// The inverse circuit (reversed gate order, every gate inverted).
    pub fn inverse(&self) -> Circuit {
        Circuit {
            n_qubits: self.n_qubits,
            gates: self.gates.iter().rev().map(|g| g.inverse()).collect(),
        }
    }

    /// Replaces every SWAP with its three-CNOT decomposition.
    pub fn decompose_swaps(&mut self) {
        let mut out = Vec::with_capacity(self.gates.len());
        for g in self.gates.drain(..) {
            if let Gate::Swap(a, b) = g {
                out.push(Gate::Cnot {
                    control: a,
                    target: b,
                });
                out.push(Gate::Cnot {
                    control: b,
                    target: a,
                });
                out.push(Gate::Cnot {
                    control: a,
                    target: b,
                });
            } else {
                out.push(g);
            }
        }
        self.gates = out;
    }

    /// Computes the cost metrics: CNOT count (SWAP = 3), single-qubit
    /// count, ASAP depth, total gates.
    pub fn metrics(&self) -> CircuitMetrics {
        let mut cnot = 0;
        let mut single = 0;
        let mut busy_until = vec![0usize; self.n_qubits];
        let mut depth = 0;
        for g in &self.gates {
            match g {
                Gate::Cnot { .. } => cnot += 1,
                Gate::Swap(..) => cnot += 3,
                _ => single += 1,
            }
            let (slots, len) = g.qubit_slots();
            let qs = &slots[..len];
            let start = qs.iter().map(|&q| busy_until[q]).max().unwrap_or(0);
            let steps = if matches!(g, Gate::Swap(..)) { 3 } else { 1 };
            for &q in qs {
                busy_until[q] = start + steps;
            }
            depth = depth.max(start + steps);
        }
        CircuitMetrics {
            cnot,
            single_qubit: single,
            depth,
            total: self.gates.len(),
        }
    }

    /// Consumes the circuit, returning the raw gate list.
    pub fn into_gates(self) -> Vec<Gate> {
        self.gates
    }

    /// Builds a circuit from a gate list.
    ///
    /// # Panics
    ///
    /// Panics if any gate exceeds the register.
    pub fn from_gates(n_qubits: usize, gates: Vec<Gate>) -> Self {
        let c = Circuit { n_qubits, gates };
        for g in &c.gates {
            c.check_register(g);
        }
        c
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} gates)",
            self.n_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_count_gates_and_depth() {
        let mut c = Circuit::new(3);
        c.h(0).h(1).cnot(0, 1).cnot(1, 2).rz(2, 0.3);
        let m = c.metrics();
        assert_eq!(m.cnot, 2);
        assert_eq!(m.single_qubit, 3);
        assert_eq!(m.total, 5);
        // h0 | h1 in parallel (depth 1), cx01 (2), cx12 (3), rz2 (4).
        assert_eq!(m.depth, 4);
    }

    #[test]
    fn parallel_gates_share_depth() {
        let mut c = Circuit::new(4);
        c.h(0).h(1).h(2).h(3);
        assert_eq!(c.metrics().depth, 1);
    }

    #[test]
    fn swap_counts_as_three_cnots() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        assert_eq!(c.metrics().cnot, 3);
        assert_eq!(c.metrics().depth, 3);
        c.decompose_swaps();
        assert_eq!(c.len(), 3);
        assert_eq!(c.metrics().cnot, 3);
    }

    #[test]
    fn inverse_reverses_and_inverts() {
        let mut c = Circuit::new(2);
        c.h(0).s(1).cnot(0, 1).rz(1, 0.5);
        let inv = c.inverse();
        assert_eq!(inv.gates()[0], Gate::Rz(1, -0.5));
        assert_eq!(inv.gates()[3], Gate::H(0));
        assert_eq!(
            inv.gates()[1],
            Gate::Cnot {
                control: 0,
                target: 1
            }
        );
        assert_eq!(inv.gates()[2], Gate::Sdg(1));
    }

    #[test]
    #[should_panic(expected = "register has 2")]
    fn out_of_range_gate_rejected() {
        Circuit::new(2).h(2);
    }

    #[test]
    fn append_and_from_gates() {
        let mut a = Circuit::new(3);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cnot(0, 1);
        a.append(&b);
        assert_eq!(a.len(), 2);
        let c = Circuit::from_gates(3, a.clone().into_gates());
        assert_eq!(c, a);
        assert!(!c.is_empty());
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let s = c.to_string();
        assert!(s.contains("h q0"));
        assert!(s.contains("cx q0,q1"));
    }
}
