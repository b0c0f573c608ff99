//! Trotterized time-evolution synthesis (paper §II-B.2, Figure 2): each
//! Hamiltonian term `exp(i·t·c_j·S_j/n)` becomes a basis-change /
//! CNOT-ladder / RZ / un-ladder snippet, and the full first-order Trotter
//! step is the product over terms.

use hatt_pauli::{Pauli, PauliString, PauliSum, Phase};

use crate::circuit::Circuit;

/// Term-ordering policies for Trotter synthesis. Ordering changes no
/// physics at first order but decides how many CNOTs the optimizer can
/// cancel between adjacent snippets — this is the Paulihedral-style
/// scheduling knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TermOrder {
    /// Use the deterministic order stored in the [`PauliSum`].
    Given,
    /// Sort terms lexicographically by letter sequence so neighbouring
    /// snippets share basis changes and ladder segments (default).
    #[default]
    Lexicographic,
    /// Greedy chaining by support overlap (O(T²); small Hamiltonians).
    GreedyOverlap,
}

/// Synthesizes `exp(-i·(angle/2)·P)` for a Hermitian Pauli string `P`.
///
/// The string's ±1 coefficient is folded into the rotation angle; identity
/// strings produce an empty circuit (global phase).
///
/// # Panics
///
/// Panics when the string is not Hermitian (an `i`-phased string does not
/// generate a unitary rotation of this form).
///
/// # Examples
///
/// ```
/// use hatt_circuit::pauli_evolution;
/// use hatt_pauli::PauliString;
///
/// let p: PauliString = "XZ".parse()?;
/// let c = pauli_evolution(&p, 0.7);
/// // basis change on q1, ladder, rz, unladder, basis undo
/// assert_eq!(c.metrics().cnot, 2);
/// # Ok::<(), hatt_pauli::ParsePauliStringError>(())
/// ```
pub fn pauli_evolution(p: &PauliString, angle: f64) -> Circuit {
    let mut c = Circuit::with_capacity(p.n_qubits(), snippet_len(p));
    emit_pauli_evolution(&mut c, &mut Vec::new(), p, angle);
    c
}

/// Appends the [`pauli_evolution`] snippet of `p` to `c`. `support` is
/// scratch space reused across calls, so a Trotter step emits every
/// snippet into one gate buffer without a per-term allocation.
fn emit_pauli_evolution(c: &mut Circuit, support: &mut Vec<usize>, p: &PauliString, angle: f64) {
    assert!(
        p.is_hermitian(),
        "cannot exponentiate non-Hermitian string {p}"
    );
    support.clear();
    let blocks = p.x_bits().blocks().iter().zip(p.z_bits().blocks());
    for (i, (&x, &z)) in blocks.enumerate() {
        let mut word = x | z;
        while word != 0 {
            support.push(64 * i + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
    let Some(&target) = support.last() else {
        return; // identity: global phase only
    };
    let sign = if p.coefficient_phase() == Phase::MINUS_ONE {
        -1.0
    } else {
        1.0
    };
    // Basis changes: X → H, Y → S† then H.
    for &q in support.iter() {
        match p.op(q) {
            Pauli::X => {
                c.h(q);
            }
            Pauli::Y => {
                c.sdg(q);
                c.h(q);
            }
            _ => {}
        }
    }
    // CNOT ladder onto the last support qubit.
    for w in support.windows(2) {
        c.cnot(w[0], w[1]);
    }
    c.rz(target, sign * angle);
    // Un-ladder and undo basis changes.
    for w in support.windows(2).rev() {
        c.cnot(w[0], w[1]);
    }
    for &q in support.iter() {
        match p.op(q) {
            Pauli::X => {
                c.h(q);
            }
            Pauli::Y => {
                c.h(q);
                c.s(q);
            }
            _ => {}
        }
    }
}

/// Number of gates [`emit_pauli_evolution`] emits for `p`: a basis change
/// and its undo per `X` (one gate each) and `Y` (two each), the CNOT
/// ladder and un-ladder, and the RZ; none for the identity.
fn snippet_len(p: &PauliString) -> usize {
    let blocks = p.x_bits().blocks().iter().zip(p.z_bits().blocks());
    let (mut support, mut basis) = (0, 0);
    for (&x, &z) in blocks {
        support += (x | z).count_ones() as usize;
        basis += (x.count_ones() + (x & z).count_ones()) as usize;
    }
    if support == 0 {
        0
    } else {
        2 * basis + 2 * support - 1
    }
}

/// An empty circuit with room for exactly `snippets` times the snippets
/// of `terms`, so a Trotter step fills one allocation without regrowing.
fn trotter_buffer(
    n_qubits: usize,
    terms: &[(hatt_pauli::Complex64, PauliString)],
    snippets: usize,
) -> Circuit {
    let per_pass: usize = terms.iter().map(|(_, s)| snippet_len(s)).sum();
    Circuit::with_capacity(n_qubits, per_pass.saturating_mul(snippets))
}

/// Orders the terms of a Hamiltonian according to `order`, returning
/// `(coefficient, string)` pairs.
pub fn order_terms(h: &PauliSum, order: TermOrder) -> Vec<(hatt_pauli::Complex64, PauliString)> {
    let mut terms: Vec<(hatt_pauli::Complex64, PauliString)> = h.iter().collect();
    match order {
        TermOrder::Given => {}
        TermOrder::Lexicographic => {
            terms.sort_by_cached_key(|(_, s)| letter_key(s));
        }
        TermOrder::GreedyOverlap => {
            if terms.len() > 1 {
                let mut chained: Vec<(hatt_pauli::Complex64, PauliString)> =
                    Vec::with_capacity(terms.len());
                chained.push(terms.remove(0));
                while !terms.is_empty() {
                    #[allow(clippy::expect_used)]
                    // hatt-lint: allow(panic) -- `chained` is seeded with one term before this loop
                    let prev = &chained.last().expect("non-empty").1;
                    #[allow(clippy::expect_used)]
                    let (best_idx, _) = terms
                        .iter()
                        .enumerate()
                        .map(|(i, (_, s))| (i, same_letter_overlap(prev, s)))
                        .max_by_key(|&(_, o)| o)
                        // hatt-lint: allow(panic) -- the `while !terms.is_empty()` guard holds here
                        .expect("non-empty");
                    chained.push(terms.remove(best_idx));
                }
                terms = chained;
            }
        }
    }
    terms
}

/// The letters of `s`, most significant qubit first: with `Pauli`'s
/// `I < X < Y < Z` this orders strings as their string forms do (`"XZ"`
/// is `X` on qubit 1), since a [`PauliSum`]'s strings carry no phase prefix.
fn letter_key(s: &PauliString) -> Vec<Pauli> {
    (0..s.n_qubits()).rev().map(|q| s.op(q)).collect()
}

/// Number of qubits where both strings carry the same non-identity letter
/// (shared basis changes / ladder steps for the optimizer to cancel):
/// per 64-qubit block, the popcount of `x_a == x_b ∧ z_a == z_b ∧ (x_a ∨ z_a)`.
fn same_letter_overlap(a: &PauliString, b: &PauliString) -> usize {
    let a_blocks = a.x_bits().blocks().iter().zip(a.z_bits().blocks());
    let b_blocks = b.x_bits().blocks().iter().zip(b.z_bits().blocks());
    a_blocks
        .zip(b_blocks)
        .map(|((&xa, &za), (&xb, &zb))| (!(xa ^ xb) & !(za ^ zb) & (xa | za)).count_ones() as usize)
        .sum()
}

/// Synthesizes the first-order Trotterization of `exp(-i·H·t)` with the
/// given number of steps: `∏_j exp(-i·c_j·t·S_j/steps)` repeated `steps`
/// times.
///
/// # Panics
///
/// Panics when `steps == 0` or the Hamiltonian is not Hermitian (complex
/// coefficients).
///
/// # Examples
///
/// ```
/// use hatt_circuit::{trotter_circuit, TermOrder};
/// use hatt_pauli::{Complex64, PauliSum};
///
/// let mut h = PauliSum::new(2);
/// h.add(Complex64::real(0.5), "ZZ".parse()?);
/// h.add(Complex64::real(0.2), "XI".parse()?);
/// let c = trotter_circuit(&h, 1.0, 2, TermOrder::Lexicographic);
/// assert!(c.metrics().cnot >= 4); // two ZZ snippets
/// # Ok::<(), hatt_pauli::ParsePauliStringError>(())
/// ```
pub fn trotter_circuit(h: &PauliSum, time: f64, steps: usize, order: TermOrder) -> Circuit {
    assert!(steps > 0, "need at least one Trotter step");
    assert!(
        h.is_hermitian(1e-8),
        "cannot Trotterize a non-Hermitian Hamiltonian"
    );
    let terms = order_terms(h, order);
    let mut c = trotter_buffer(h.n_qubits(), &terms, steps);
    let mut support = Vec::new();
    let dt = time / steps as f64;
    for _ in 0..steps {
        for (coeff, s) in &terms {
            // exp(-i c t/n S) = exp(-i (2 c t / n)/2 S)
            emit_pauli_evolution(&mut c, &mut support, s, 2.0 * coeff.re * dt);
        }
    }
    c
}

/// Synthesizes the *second-order* (Suzuki) Trotterization: each step is
/// the palindrome `∏_j e^{-iθ_j/2 S_j} · ∏_j^{rev} e^{-iθ_j/2 S_j}`,
/// halving the per-step error order at roughly double the gate count
/// (the adjacent mirrored snippets cancel well under [`crate::optimize`]).
///
/// # Panics
///
/// Panics when `steps == 0` or the Hamiltonian is not Hermitian.
pub fn trotter_circuit_order2(h: &PauliSum, time: f64, steps: usize, order: TermOrder) -> Circuit {
    assert!(steps > 0, "need at least one Trotter step");
    assert!(
        h.is_hermitian(1e-8),
        "cannot Trotterize a non-Hermitian Hamiltonian"
    );
    let terms = order_terms(h, order);
    let mut c = trotter_buffer(h.n_qubits(), &terms, steps.saturating_mul(2));
    let mut support = Vec::new();
    let dt = time / steps as f64;
    for _ in 0..steps {
        for (coeff, s) in terms.iter().chain(terms.iter().rev()) {
            emit_pauli_evolution(&mut c, &mut support, s, coeff.re * dt);
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use hatt_pauli::Complex64;

    fn ps(s: &str) -> PauliString {
        s.parse().expect("valid string")
    }

    #[test]
    fn single_z_is_a_bare_rz() {
        let c = pauli_evolution(&ps("IZ"), 0.4);
        assert_eq!(c.len(), 1);
        assert_eq!(c.metrics().cnot, 0);
    }

    #[test]
    fn figure_2_snippet_structure() {
        // exp(itc·XYIZ): basis changes on q3 (H) and q2 (S†,H), ladder
        // over support {0, 2, 3}, rz, then mirrors.
        let c = pauli_evolution(&ps("XYIZ"), 1.0);
        let m = c.metrics();
        assert_eq!(m.cnot, 4); // 2 ladder + 2 unladder
                               // 1 H + 2 (S†,H) before, mirrored after, plus rz = 7 singles.
        assert_eq!(m.single_qubit, 7);
    }

    #[test]
    fn identity_gives_empty_circuit() {
        let c = pauli_evolution(&PauliString::identity(3), 0.5);
        assert!(c.is_empty());
    }

    #[test]
    fn negative_coefficient_flips_angle() {
        use crate::gate::Gate;
        let minus_z = PauliString::single(1, 0, Pauli::Z).times_phase(Phase::MINUS_ONE);
        let c = pauli_evolution(&minus_z, 0.8);
        assert_eq!(c.gates()[0], Gate::Rz(0, -0.8));
    }

    #[test]
    #[should_panic(expected = "non-Hermitian")]
    fn phased_string_rejected() {
        let i_z = PauliString::single(1, 0, Pauli::Z).times_phase(Phase::I);
        let _ = pauli_evolution(&i_z, 1.0);
    }

    #[test]
    fn trotter_repeats_steps() {
        let mut h = PauliSum::new(1);
        h.add(Complex64::real(1.0), ps("Z"));
        let one = trotter_circuit(&h, 1.0, 1, TermOrder::Given);
        let four = trotter_circuit(&h, 1.0, 4, TermOrder::Given);
        assert_eq!(four.len(), 4 * one.len());
    }

    #[test]
    fn lexicographic_ordering_groups_similar_terms() {
        let mut h = PauliSum::new(2);
        h.add(Complex64::real(1.0), ps("XX"));
        h.add(Complex64::real(1.0), ps("ZZ"));
        h.add(Complex64::real(1.0), ps("XY"));
        let terms = order_terms(&h, TermOrder::Lexicographic);
        let names: Vec<String> = terms.iter().map(|(_, s)| s.to_string()).collect();
        assert_eq!(names, vec!["XX", "XY", "ZZ"]);
    }

    #[test]
    fn greedy_overlap_chains_by_shared_letters() {
        let mut h = PauliSum::new(3);
        h.add(Complex64::real(1.0), ps("XXI"));
        h.add(Complex64::real(1.0), ps("ZZZ"));
        h.add(Complex64::real(1.0), ps("XXZ"));
        let terms = order_terms(&h, TermOrder::GreedyOverlap);
        let names: Vec<String> = terms.iter().map(|(_, s)| s.to_string()).collect();
        // The deterministic first term is ZZZ (symplectic key order); its
        // best overlap is XXZ (shared Z on qubit 0), leaving XXI last.
        assert_eq!(names, vec!["ZZZ", "XXZ", "XXI"]);
    }

    #[test]
    fn snippet_len_counts_the_emitted_gates() {
        for text in ["IIII", "Z", "X", "Y", "XYZI", "YYYY", "ZIIX", "IYIZX"] {
            let p: PauliString = text.parse().expect("valid string");
            assert_eq!(snippet_len(&p), pauli_evolution(&p, 0.3).len(), "{text}");
        }
        // Strings spanning several 64-bit blocks.
        let ops = [
            (0, Pauli::Y),
            (63, Pauli::X),
            (64, Pauli::Z),
            (129, Pauli::Y),
        ];
        let p = PauliString::from_ops(130, &ops);
        assert_eq!(snippet_len(&p), pauli_evolution(&p, 0.3).len());
    }

    #[test]
    fn greedy_overlap_matches_per_qubit_overlap_on_random_sums() {
        // The per-qubit definition the block popcount replaces.
        fn per_qubit(a: &PauliString, b: &PauliString) -> usize {
            (0..a.n_qubits())
                .filter(|&q| a.op(q) != Pauli::I && a.op(q) == b.op(q))
                .count()
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for case in 0..40 {
            // Up to 130 qubits, so strings span three 64-bit blocks.
            let n = 1 + next(130) as usize;
            let mut h = PauliSum::new(n);
            for _ in 0..1 + next(24) {
                let ops: Vec<(usize, Pauli)> = (0..n)
                    .filter_map(|q| match next(8) {
                        k @ 1..=3 => Some((q, Pauli::ALL[k as usize])),
                        _ => None,
                    })
                    .collect();
                let coeff = next(1000) as f64 / 500.0 - 1.0;
                h.add(Complex64::real(coeff), PauliString::from_ops(n, &ops));
            }
            let terms: Vec<PauliString> = h.iter().map(|(_, s)| s).collect();
            for a in &terms {
                for b in &terms {
                    assert_eq!(same_letter_overlap(a, b), per_qubit(a, b), "case {case}");
                }
            }
            // The greedy chain, rebuilt with the per-qubit overlap.
            let mut rest: Vec<PauliString> = terms;
            let mut expected = vec![rest.remove(0)];
            while !rest.is_empty() {
                let prev = expected.last().expect("seeded");
                let (best, _) = rest
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, per_qubit(prev, s)))
                    .max_by_key(|&(_, o)| o)
                    .expect("non-empty");
                expected.push(rest.remove(best));
            }
            let got: Vec<PauliString> = order_terms(&h, TermOrder::GreedyOverlap)
                .into_iter()
                .map(|(_, s)| s)
                .collect();
            assert_eq!(got, expected, "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one Trotter step")]
    fn zero_steps_rejected() {
        let h = PauliSum::new(1);
        let _ = trotter_circuit(&h, 1.0, 0, TermOrder::Given);
    }

    #[test]
    fn order2_is_a_palindrome_of_half_steps() {
        let mut h = PauliSum::new(2);
        h.add(Complex64::real(0.4), ps("ZZ"));
        h.add(Complex64::real(0.3), ps("XI"));
        let c2 = trotter_circuit_order2(&h, 1.0, 1, TermOrder::Given);
        // Two mirrored half-step sweeps: twice the snippets of one sweep.
        let c1 = trotter_circuit(&h, 1.0, 1, TermOrder::Given);
        assert_eq!(c2.len(), 2 * c1.len());
    }

    #[test]
    fn order2_on_commuting_terms_equals_order1() {
        use crate::passes::optimize;
        // For mutually commuting terms both orders realize exactly e^{-iHt};
        // the optimized circuits must implement the same rotations in total.
        let mut h = PauliSum::new(2);
        h.add(Complex64::real(0.4), ps("ZZ"));
        h.add(Complex64::real(0.3), ps("ZI"));
        let c1 = optimize(&trotter_circuit(&h, 1.0, 1, TermOrder::Given));
        let c2 = optimize(&trotter_circuit_order2(&h, 1.0, 1, TermOrder::Given));
        // After optimization the mirrored half rotations fuse.
        assert_eq!(c1.metrics().cnot, c2.metrics().cnot);
    }
}
