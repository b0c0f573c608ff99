//! The selection-kernel differential suite: greedy Algorithm 3
//! (`Variant::Cached`, which keeps scored candidates in an incremental
//! heap and re-scores only what each merge creates) must build the
//! **bit-identical** tree, with the same per-step settled weights, as the
//! literal Algorithm 2 full scan (`Variant::Paired`, the reference path).
//!
//! Covered: the `Greedy` and `Vanilla` policies with the `naive_weight`
//! ablation on and off, over the Table I catalog, the neutrino 3x2F–5x2F
//! models, 200+ random Hamiltonians at N = 2..31, and the tie-heavy
//! `uniform_singles` chain at N = 1..64 — plus `Mapper::remap` chains,
//! which run on the same heap scoped to the delta, diverging both at
//! step 0 and mid-construction.

// Test-harness code unwraps freely; the no-panic contract covers library code only.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use hatt::core::{HattMapping, HattOptions, Mapper, Variant};
use hatt::fermion::models::{molecule_catalog, random_hermitian, NeutrinoModel};
use hatt::fermion::{FermionOperator, HamiltonianDelta, MajoranaSum};
use hatt::mappings::{NodeId, SelectionPolicy};
use hatt::pauli::Complex64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const POLICIES: [SelectionPolicy; 2] = [SelectionPolicy::Greedy, SelectionPolicy::Vanilla];

fn preprocess(h: &FermionOperator) -> MajoranaSum {
    let mut m = MajoranaSum::from_fermion(h);
    let _ = m.take_identity();
    m.prune(1e-10);
    m
}

fn options(variant: Variant, policy: SelectionPolicy, naive_weight: bool) -> HattOptions {
    HattOptions {
        variant,
        naive_weight,
        policy,
        threads: Some(1),
    }
}

fn build(h: &MajoranaSum, opts: HattOptions) -> HattMapping {
    Mapper::with_options(opts)
        .map(h)
        .expect("valid Hamiltonian")
}

fn settled_weights(m: &HattMapping) -> Vec<usize> {
    m.stats()
        .iterations
        .iter()
        .map(|it| it.settled_weight)
        .collect()
}

/// The merge sequence: step `q`'s `[X, Y, Z]` children.
fn merge_sequence(m: &HattMapping) -> Vec<[NodeId; 3]> {
    let tree = m.tree();
    (0..tree.n_modes())
        .map(|q| tree.children(tree.internal_of(q)).expect("internal node"))
        .collect()
}

fn assert_same(ctx: &str, reference: &HattMapping, subject: &HattMapping) {
    assert_eq!(subject.tree(), reference.tree(), "{ctx}: tree differs");
    assert_eq!(
        settled_weights(subject),
        settled_weights(reference),
        "{ctx}: per-step settled weights differ"
    );
}

/// Heap kernel ≡ full scan on `h` for both greedy policies, with the
/// per-term ablation on and off (the reference is the fast-weight scan;
/// the ablation is pinned equal to it elsewhere).
fn check_kernel(label: &str, h: &MajoranaSum) {
    for policy in POLICIES {
        let reference = build(h, options(Variant::Paired, policy, false));
        for naive in [false, true] {
            let subject = build(h, options(Variant::Cached, policy, naive));
            assert_same(
                &format!("{label}/{policy}/naive={naive}"),
                &reference,
                &subject,
            );
        }
    }
}

#[test]
fn heap_matches_full_scan_on_the_table1_catalog() {
    for spec in molecule_catalog() {
        check_kernel(spec.name, &preprocess(&spec.hamiltonian()));
    }
}

#[test]
fn heap_matches_full_scan_on_neutrino_models() {
    for sites in 3..=5 {
        let model = NeutrinoModel::new(sites, 2);
        check_kernel(
            &format!("neutrino {}", model.label()),
            &preprocess(&model.hamiltonian()),
        );
    }
}

#[test]
fn heap_matches_full_scan_on_random_hamiltonians() {
    for seed in 0..210u64 {
        let n = 2 + (seed as usize % 30);
        let h = preprocess(&random_hermitian(n, n + 2, n, seed));
        check_kernel(&format!("random n={n} seed={seed}"), &h);
    }
}

#[test]
fn heap_matches_full_scan_on_tie_heavy_singles() {
    // Every candidate of the H_F = Σ M_i chain ties with many others, so
    // this pins the heap's (key, residual, O_X, O_Z) tie-break against
    // the scan's first-wins order.
    for n in 1..=64 {
        check_kernel(
            &format!("uniform_singles({n})"),
            &MajoranaSum::uniform_singles(n),
        );
    }
}

/// A coefficient keeping the edited Hamiltonian Hermitian (a length-`k`
/// Majorana monomial is self-adjoint up to `(−1)^{k(k−1)/2}`).
fn hermitian_coeff(k: usize, magnitude: f64) -> Complex64 {
    if (k * (k - 1) / 2) % 2 == 0 {
        Complex64::real(magnitude)
    } else {
        Complex64::new(0.0, magnitude)
    }
}

/// One random applicable edit: remove an existing term or add an absent
/// one on 2–4 distinct Majoranas.
fn random_delta(rng: &mut StdRng, h: &MajoranaSum) -> HamiltonianDelta {
    let mut delta = HamiltonianDelta::new(h.n_modes());
    if h.n_terms() > 1 && rng.gen_bool(0.4) {
        let terms: Vec<(Vec<u32>, Complex64)> = h.iter().map(|(s, c)| (s.to_vec(), c)).collect();
        let (support, coeff) = terms[rng.gen_range(0..terms.len())].clone();
        delta.push_remove(coeff, &support).expect("removal applies");
        return delta;
    }
    let n_majoranas = 2 * h.n_modes();
    loop {
        let k = rng.gen_range(2..=4usize).min(n_majoranas);
        let mut support: Vec<u32> = Vec::with_capacity(k);
        while support.len() < k {
            let i = rng.gen_range(0..n_majoranas) as u32;
            if !support.contains(&i) {
                support.push(i);
            }
        }
        support.sort_unstable();
        if h.coefficient_of(&support).is_zero(1e-12) {
            let coeff = hermitian_coeff(k, 0.1 + 0.9 * rng.gen_range(0.0..1.0f64));
            delta.push_add(coeff, &support).expect("insertion applies");
            return delta;
        }
    }
}

#[test]
fn remap_tail_on_the_heap_matches_full_scan() {
    // Where each remap first leaves the previous merge sequence: the
    // suite must see both a step-0 and a mid-construction divergence.
    let (mut at_step0, mut mid_build) = (0usize, 0usize);
    for policy in POLICIES {
        for seed in 0..12u64 {
            let n = 6 + (seed as usize % 7);
            let mut current = preprocess(&random_hermitian(n, n + 2, n, 100 + seed));
            let mapper = Mapper::with_options(options(Variant::Cached, policy, false));
            let mut prev = mapper.map(&current).expect("base maps");
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..6 {
                let ctx = format!("{policy}/seed={seed}/step={step}");
                let delta = random_delta(&mut rng, &current);
                let next = delta.apply(&current).expect("delta applies");
                let remaps = mapper.cache().remaps();
                let remapped = mapper.remap(&current, &delta).expect("remap");
                assert_eq!(mapper.cache().remaps(), remaps + 1, "{ctx}: not a remap");
                let reference = build(&next, options(Variant::Paired, policy, false));
                assert_same(&ctx, &reference, &remapped);
                let (old, new) = (merge_sequence(&prev), merge_sequence(&remapped));
                match old.iter().zip(&new).position(|(a, b)| a != b) {
                    Some(0) => at_step0 += 1,
                    Some(_) => mid_build += 1,
                    None => {}
                }
                prev = remapped;
                current = next;
            }
        }
    }
    assert!(at_step0 > 0, "no remap diverged at step 0");
    assert!(mid_build > 0, "no remap diverged mid-construction");
}
