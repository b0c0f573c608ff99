//! Circuit optimization passes — the "Qiskit L3" stand-in applied after
//! Trotter synthesis in the paper's compilation pipeline (§V-B.3):
//! single-qubit-run merging into `U3`, adjacent-inverse cancellation
//! (including CNOT pairs), and RZ fusion.
//!
//! Both passes are one linear sweep. [`optimize`] alternates them until
//! the circuit stops changing, and that fixpoint is reached: a merged
//! circuit holds at most one `U3` per single-qubit run, and a run that is
//! one lone `U3` is already in normal form, so merging re-emits it bit for
//! bit instead of re-rounding its angles through its matrix.
//!
//! Both passes rewrite a gate list in place, writing their output over
//! the front of their input, so [`optimize`] works on a single copy of
//! the circuit: its memory is one gate list plus a few words per gate,
//! the same for every call on the same circuit.
use hatt_pauli::Complex64;

use crate::circuit::Circuit;
use crate::gate::{mat2_mul, Gate, Mat2, MAT2_ID};

/// An open single-qubit run: its accumulated matrix, and the run's only
/// gate while the run is one lone `U3` (re-emitted unchanged).
#[derive(Clone)]
struct Run {
    matrix: Mat2,
    lone_u3: Option<Gate>,
}

/// Writes a pass's output over the front of the buffer it reads. The
/// passes never write a slot they have not read yet (each output gate is
/// paid for by at least one input gate already read), so the slot being
/// written still holds the input gate of the same index, and comparing
/// the two tells whether the output differs from the input.
struct Compactor {
    len: usize,
    changed: bool,
}

impl Compactor {
    fn new() -> Compactor {
        Compactor {
            len: 0,
            changed: false,
        }
    }

    fn write(&mut self, gates: &mut [Gate], g: Gate) {
        let slot = &mut gates[self.len];
        self.changed |= *slot != g;
        *slot = g;
        self.len += 1;
    }

    /// Drops the unwritten tail; whether the output differs from the input.
    fn finish(self, gates: &mut Vec<Gate>) -> bool {
        let changed = self.changed || self.len != gates.len();
        gates.truncate(self.len);
        changed
    }
}

/// Merges maximal runs of single-qubit gates into at most one `U3` per
/// run (runs are delimited by two-qubit gates). Identity runs vanish, and
/// a run that is one lone `U3` is kept as it is.
pub fn merge_single_qubit_runs(c: &Circuit) -> Circuit {
    let mut gates = c.gates().to_vec();
    merge_runs_in_place(c.n_qubits(), &mut gates);
    Circuit::from_gates(c.n_qubits(), gates)
}

/// [`merge_single_qubit_runs`] over `gates` in place; whether it changed them.
fn merge_runs_in_place(n: usize, gates: &mut Vec<Gate>) -> bool {
    let mut pending: Vec<Option<Run>> = vec![None; n];
    let mut out = Compactor::new();

    let flush = |run: Option<Run>, q: usize, gates: &mut [Gate], out: &mut Compactor| {
        if let Some(run) = run {
            match (Gate::u3_params(&run.matrix), run.lone_u3) {
                (None, _) => {}
                (Some(_), Some(u3)) => out.write(gates, u3),
                (Some((theta, phi, lambda)), None) => out.write(
                    gates,
                    Gate::U3 {
                        q,
                        theta,
                        phi,
                        lambda,
                    },
                ),
            }
        }
    };

    for read in 0..gates.len() {
        let g = gates[read].clone();
        let (slots, len) = g.qubit_slots();
        if let Some(m) = g.matrix1q() {
            let q = slots[0];
            pending[q] = Some(match pending[q].take() {
                // `m · I` rather than `m`: every run's matrix is then an
                // accumulated product, signed zeros included.
                None => Run {
                    matrix: mat2_mul(&m, &MAT2_ID),
                    lone_u3: matches!(g, Gate::U3 { .. }).then_some(g),
                },
                Some(run) => Run {
                    matrix: mat2_mul(&m, &run.matrix),
                    lone_u3: None,
                },
            });
        } else {
            for &q in &slots[..len] {
                flush(pending[q].take(), q, gates, &mut out);
            }
            out.write(gates, g);
        }
    }
    for (q, run) in pending.into_iter().enumerate() {
        flush(run, q, gates, &mut out);
    }
    out.finish(gates)
}

/// Cancels adjacent inverse pairs: identical CNOTs, H·H, S·S†, X·X, and
/// fuses adjacent RZ rotations on the same qubit (dropping rotations that
/// sum to zero). "Adjacent" means no intervening gate touches any shared
/// qubit. Returns the rewritten circuit.
///
/// Linear time: each qubit keeps a stack of the live output slots that
/// touch it. A removed gate is the last live gate on every one of its
/// qubits, so it is on top of each of its stacks, and popping it exposes
/// the gate it was adjacent to.
pub fn cancel_adjacent_pairs(c: &Circuit) -> Circuit {
    let mut gates = c.gates().to_vec();
    cancel_pairs_in_place(c.n_qubits(), &mut gates);
    Circuit::from_gates(c.n_qubits(), gates)
}

/// No slot: the bottom of a qubit's stack.
const NO_SLOT: usize = usize::MAX;
/// Marks an output slot whose gate was removed.
const DEAD: usize = usize::MAX - 1;

/// [`cancel_adjacent_pairs`] over `gates` in place; whether it changed them.
///
/// The per-qubit stacks are linked through the output slots: `top[q]` is
/// the last live slot on qubit `q`, and `below[slot][i]` the slot under
/// `slot` on its `i`-th qubit. A slot under a live one is never removed
/// (it is not on top), so popping a slot restores a live top.
fn cancel_pairs_in_place(n: usize, gates: &mut Vec<Gate>) -> bool {
    let mut top = vec![NO_SLOT; n];
    let mut below: Vec<[usize; 2]> = Vec::with_capacity(gates.len());
    let mut changed = false;

    for read in 0..gates.len() {
        let g = gates[read].clone();
        let (slots, len) = g.qubit_slots();
        let qs = &slots[..len];
        // The candidate predecessor must be the last gate on *all* qubits
        // of g.
        let pred = qs
            .iter()
            .map(|&q| top[q])
            .reduce(|a, b| if a == b { a } else { NO_SLOT })
            .unwrap_or(NO_SLOT);
        if pred != NO_SLOT {
            let prev = &gates[pred];
            let (prev_slots, prev_len) = prev.qubit_slots();
            if &prev_slots[..prev_len] == qs {
                // Exact inverse pair?
                if prev.inverse() == g {
                    // Pop in the reverse order of the pushes, so a gate
                    // naming one qubit twice unwinds like a stack.
                    for (i, &q) in qs.iter().enumerate().rev() {
                        top[q] = below[pred][i];
                    }
                    below[pred] = [DEAD; 2];
                    changed = true;
                    continue;
                }
                // RZ fusion.
                if let (&Gate::Rz(q, a), &Gate::Rz(_, b)) = (prev, &g) {
                    let sum = a + b;
                    if sum.abs() < 1e-12 {
                        top[q] = below[pred][0];
                        below[pred] = [DEAD; 2];
                    } else {
                        gates[pred] = Gate::Rz(q, sum);
                    }
                    changed = true;
                    continue;
                }
            }
        }
        // Output slots never outrun the input: `slot <= read`.
        let slot = below.len();
        gates[slot] = g;
        let mut under = [NO_SLOT; 2];
        for (i, &q) in qs.iter().enumerate() {
            under[i] = top[q];
            top[q] = slot;
        }
        below.push(under);
    }

    gates.truncate(below.len());
    let mut slot = 0;
    gates.retain(|_| {
        slot += 1;
        below[slot - 1] != [DEAD; 2]
    });
    changed
}

/// The full optimization pipeline: alternate CNOT/inverse cancellation and
/// single-qubit-run merging until a round changes nothing.
///
/// The loop terminates without a round bound. After the first round every
/// single-qubit run is one `U3`, and merging re-emits such a run unchanged
/// (or drops it when it is the identity). From then on a round either
/// returns its input bit for bit or removes at least one gate. Trotter
/// circuits (every Table I and neutrino case) reach the fixpoint in one
/// round and confirm it in a second, so there `optimize` is linear time.
/// It is idempotent: `optimize(&optimize(c)) == optimize(c)`.
///
/// Every round rewrites one copy of the input's gate list in place, so
/// the passes allocate no second circuit-sized buffer.
pub fn optimize(c: &Circuit) -> Circuit {
    let n = c.n_qubits();
    let mut gates = c.gates().to_vec();
    let round = |gates: &mut Vec<Gate>| {
        // Cancellation only removes gates and merging never adds any, so
        // a round whose cancellation changed something changed the circuit.
        let cancelled = cancel_pairs_in_place(n, gates);
        merge_runs_in_place(n, gates) || cancelled
    };
    round(&mut gates);
    while round(&mut gates) {}
    gates.shrink_to_fit();
    Circuit::from_gates(n, gates)
}

/// Convenience: fidelity-preserving unitary of a 1-qubit circuit segment
/// (used by tests and the router's metrics sanity checks).
pub fn accumulate_1q(c: &Circuit, q: usize) -> Mat2 {
    let mut acc = MAT2_ID;
    for g in c.gates() {
        if g.qubit_slots() == ([q, 0], 1) {
            if let Some(m) = g.matrix1q() {
                acc = mat2_mul(&m, &acc);
            }
        }
    }
    acc
}

/// Frobenius distance between two 2×2 matrices up to global phase.
pub fn dist_up_to_phase(a: &Mat2, b: &Mat2) -> f64 {
    // Align the phases on the largest entry of b.
    let mut best = (0, 0);
    let mut mag = -1.0;
    for (i, row) in b.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            if v.abs() > mag {
                mag = v.abs();
                best = (i, j);
            }
        }
    }
    if mag < 1e-12 {
        return f64::INFINITY;
    }
    let g = a[best.0][best.1] * b[best.0][best.1].recip();
    let g = if g.abs() < 1e-12 {
        Complex64::ONE
    } else {
        g * (1.0 / g.abs())
    };
    let mut d = 0.0;
    for i in 0..2 {
        for j in 0..2 {
            let diff = a[i][j] - b[i][j] * g;
            d += diff.norm_sqr();
        }
    }
    d.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_cnot_cancels() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(0, 1);
        let opt = cancel_adjacent_pairs(&c);
        assert!(opt.is_empty());
    }

    #[test]
    fn interleaved_cnots_do_not_cancel() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1).h(1).cnot(0, 1);
        let opt = cancel_adjacent_pairs(&c);
        assert_eq!(opt.metrics().cnot, 2);
    }

    #[test]
    fn spectator_gates_do_not_block_cancellation() {
        let mut c = Circuit::new(3);
        c.cnot(0, 1).h(2).cnot(0, 1);
        let opt = cancel_adjacent_pairs(&c);
        assert_eq!(opt.metrics().cnot, 0);
        assert_eq!(opt.metrics().single_qubit, 1);
    }

    #[test]
    fn gates_naming_one_qubit_twice_cancel_like_a_stack() {
        let mut c = Circuit::new(2);
        c.h(1).cnot(1, 1).cnot(1, 1).h(1);
        assert!(cancel_adjacent_pairs(&c).is_empty());
    }

    #[test]
    fn rz_fusion_sums_angles() {
        let mut c = Circuit::new(1);
        c.rz(0, 0.3).rz(0, 0.4);
        let opt = cancel_adjacent_pairs(&c);
        assert_eq!(opt.gates(), &[Gate::Rz(0, 0.7)]);
        let mut c2 = Circuit::new(1);
        c2.rz(0, 0.3).rz(0, -0.3);
        assert!(cancel_adjacent_pairs(&c2).is_empty());
    }

    #[test]
    fn h_h_and_s_sdg_cancel() {
        let mut c = Circuit::new(1);
        c.h(0).h(0).s(0).sdg(0);
        assert!(cancel_adjacent_pairs(&c).is_empty());
    }

    #[test]
    fn cascaded_cancellation_via_fixpoint() {
        // cx, (h h), cx: one cancellation exposes the next.
        let mut c = Circuit::new(2);
        c.cnot(0, 1).h(1).h(1).cnot(0, 1);
        let opt = optimize(&c);
        assert!(opt.is_empty(), "got {opt}");
    }

    #[test]
    fn merge_runs_to_single_u3() {
        let mut c = Circuit::new(1);
        c.h(0).s(0).rz(0, 0.4).h(0);
        let merged = merge_single_qubit_runs(&c);
        assert_eq!(merged.len(), 1);
        assert!(matches!(merged.gates()[0], Gate::U3 { .. }));
        // Matrix equivalence up to global phase.
        let d = dist_up_to_phase(&accumulate_1q(&merged, 0), &accumulate_1q(&c, 0));
        assert!(d < 1e-9, "distance {d}");
    }

    #[test]
    fn identity_runs_vanish() {
        let mut c = Circuit::new(1);
        c.h(0).h(0);
        assert!(merge_single_qubit_runs(&c).is_empty());
        let mut c2 = Circuit::new(1);
        c2.s(0).s(0).push(Gate::Z(0));
        let merged = merge_single_qubit_runs(&c2);
        assert!(merged.is_empty(), "S·S·Z = Z·Z = I, got {merged}");
    }

    #[test]
    fn lone_u3_is_kept_bit_for_bit_and_identity_u3_dropped() {
        let u = Gate::U3 {
            q: 0,
            theta: 0.3,
            phi: 1.1,
            lambda: -0.7,
        };
        let mut c = Circuit::new(2);
        c.push(u.clone()).cnot(0, 1).push(Gate::U3 {
            q: 0,
            theta: 0.0,
            phi: 0.4,
            lambda: -0.4,
        });
        let merged = merge_single_qubit_runs(&c);
        assert_eq!(
            merged.gates(),
            &[
                u,
                Gate::Cnot {
                    control: 0,
                    target: 1
                }
            ]
        );
    }

    #[test]
    fn optimize_is_idempotent() {
        let mut c = Circuit::new(2);
        c.h(0)
            .rz(0, 0.3)
            .cnot(0, 1)
            .h(1)
            .s(1)
            .cnot(0, 1)
            .sdg(1)
            .h(1);
        let once = optimize(&c);
        assert_eq!(optimize(&once), once);
    }

    #[test]
    fn merging_respects_two_qubit_barriers() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1).h(0);
        let merged = merge_single_qubit_runs(&c);
        // Two separate U3s around the CNOT.
        assert_eq!(merged.metrics().single_qubit, 2);
        assert_eq!(merged.metrics().cnot, 1);
    }

    #[test]
    fn optimize_preserves_1q_unitary() {
        let mut c = Circuit::new(1);
        c.h(0).s(0).h(0).sdg(0).rz(0, 1.1).h(0).h(0).rz(0, -0.1);
        let opt = optimize(&c);
        let d = dist_up_to_phase(&accumulate_1q(&opt, 0), &accumulate_1q(&c, 0));
        assert!(d < 1e-9, "distance {d}");
        assert!(opt.len() <= 2);
    }
}
