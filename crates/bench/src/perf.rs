//! The scalability/perf sweep behind `fig12` and the `perf` harness:
//! timed HATT constructions on the paper's `H_F = Σ_i M_i` workload
//! (§V-E) across N, with summary statistics per point and least-squares
//! log-log slope fits against the paper's complexity claims
//! (Algorithm 1 `O(N⁴)`, Algorithm 3 `O(N³)`) — plus the
//! quality-vs-time study of the [`SelectionPolicy`] ladder
//! ([`policy_tradeoff`]) and the parallel-engine study
//! ([`parallel_study`]: threaded `restarts` vs sequential, and batched
//! `map_many` sweeps with the structure-keyed cache), so
//! `BENCH_perf.json` records how fast the kernel is, what each extra
//! millisecond of search buys, *and* what threads/batching buy on this
//! host. Since hatt-perf/3 the document also carries a dense-molecule
//! sweep (two-body interaction structure, not the uniform-singles
//! chain) and the [`remap_study`] — incremental [`Mapper::remap`]
//! throughput on a one-term-delta stream vs cold rebuilds. hatt-perf/4
//! adds the `"load"` section: the open-loop service study from
//! [`crate::load::load_study`] (sustained mappings/sec and tail latency
//! against a single daemon and a two-shard router). hatt-perf/5 adds
//! the `"trace"` section from [`crate::load::trace_study`]: the routed
//! run with the span collector off and on — tracing's throughput
//! overhead plus the per-stage latency breakdown (queue wait, cache
//! probe, construction, forward hop, write drain) mined from the
//! daemons' `trace_dump` replies.

use std::time::Instant;

use criterion::{summarize, Stats};
use hatt_core::{HattMapping, Mapper, Variant};
use hatt_fermion::models::{molecule_catalog, random_hermitian, FermiHubbard, NeutrinoModel};
use hatt_fermion::{HamiltonianDelta, MajoranaSum};
use hatt_mappings::{jordan_wigner, FermionMapping, SelectionPolicy};
use hatt_pauli::Complex64;

use crate::json::Json;

/// Sweep configuration shared by `fig12` and `perf`.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Mode counts to visit, ascending.
    pub ns: Vec<usize>,
    /// Timed construction samples per (variant, N) point.
    pub samples: usize,
    /// Per-point wall-clock budget in seconds: once a point's *first*
    /// sample exceeds it, the variant stops at that N (the point is
    /// still recorded from that single sample).
    pub budget_per_point: f64,
    /// Smallest N included in the slope fit (asymptotics need the tail).
    pub slope_min_n: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            ns: vec![8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 100],
            samples: 3,
            budget_per_point: 10.0,
            slope_min_n: 32,
        }
    }
}

impl SweepConfig {
    /// The quick configuration used by `perf --smoke` and CI.
    pub fn smoke() -> Self {
        SweepConfig {
            ns: vec![8, 12, 16, 20, 24],
            samples: 3,
            budget_per_point: 2.0,
            slope_min_n: 12,
        }
    }
}

/// One timed (variant, N) sweep point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Mode count.
    pub n: usize,
    /// Wall-clock statistics over the samples, in seconds.
    pub stats: Stats,
    /// Total settled Pauli weight (the construction objective) —
    /// golden-checked so perf work cannot silently change results.
    pub pauli_weight: usize,
    /// Candidate triples evaluated across the construction.
    pub candidates: u64,
    /// Pairwise-memo hits inside the selection kernel.
    pub memo_hits: u64,
    /// Pairwise-memo misses.
    pub memo_misses: u64,
}

/// A completed per-variant sweep.
#[derive(Debug, Clone)]
pub struct VariantSweep {
    /// The algorithm variant swept.
    pub variant: Variant,
    /// Points actually completed (the budget may truncate the tail).
    pub points: Vec<SweepPoint>,
    /// Fitted log-log slope over points with `n ≥ slope_min_n`
    /// (`None` with fewer than two such points).
    pub slope: Option<f64>,
}

/// The paper's complexity claim for a variant, for reports.
pub fn paper_complexity(variant: Variant) -> &'static str {
    match variant {
        Variant::Unopt => "O(N^4)",
        Variant::Paired => "O(N^4) worst-case traversals",
        Variant::Cached => "O(N^3)",
    }
}

/// Short machine-readable variant key (`unopt` / `paired` / `cached`).
pub fn variant_key(variant: Variant) -> &'static str {
    match variant {
        Variant::Unopt => "unopt",
        Variant::Paired => "paired",
        Variant::Cached => "cached",
    }
}

/// A mapper with caching disabled — every call is a cold construction,
/// which is what a timing harness must measure.
fn uncached_mapper(
    configure: impl FnOnce(hatt_core::MapperBuilder) -> hatt_core::MapperBuilder,
) -> Mapper {
    configure(Mapper::builder().cache_capacity(0))
        .build()
        .expect("static mapper configuration")
}

/// Runs one timed construction, returning `(seconds, mapping)`.
pub fn time_construction(h: &MajoranaSum, variant: Variant) -> (f64, HattMapping) {
    let mapper = uncached_mapper(|b| b.variant(variant));
    let t0 = Instant::now();
    let m = mapper.map(h).expect("sweep Hamiltonians are non-empty");
    let dt = t0.elapsed().as_secs_f64();
    (dt, m)
}

/// The Hamiltonian family a scalability sweep times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepWorkload {
    /// The paper's `H_F = Σ_i M_i` chain (§V-E): every term is one
    /// Majorana pair — the sparsest possible structure.
    UniformSingles,
    /// A dense molecule-like instance: `2N` one-body hops plus `4N`
    /// two-body interactions (quartic Majorana supports), deterministic
    /// in `N`. This is the structure shape of the Table I
    /// electronic-structure cases, where candidate scans touch far more
    /// terms per triple than the singles chain.
    DenseMolecule,
}

impl SweepWorkload {
    /// Machine-readable key used in `BENCH_perf.json`.
    pub fn key(self) -> &'static str {
        match self {
            SweepWorkload::UniformSingles => "uniform_singles",
            SweepWorkload::DenseMolecule => "dense_molecule",
        }
    }

    /// The workload instance at `n` modes (pure function of `n`).
    pub fn hamiltonian(self, n: usize) -> MajoranaSum {
        match self {
            SweepWorkload::UniformSingles => MajoranaSum::uniform_singles(n),
            SweepWorkload::DenseMolecule => {
                crate::preprocess(&random_hermitian(n, 2 * n, 4 * n, 0xDE5E + n as u64))
            }
        }
    }
}

/// Sweeps one variant over the configured Ns on `H_F = Σ_i M_i`,
/// stopping early when a point blows the per-point budget.
pub fn sweep_variant(cfg: &SweepConfig, variant: Variant) -> VariantSweep {
    sweep_variant_on(cfg, variant, SweepWorkload::UniformSingles)
}

/// Sweeps one variant over the configured Ns on the given workload,
/// stopping early when a point blows the per-point budget.
pub fn sweep_variant_on(
    cfg: &SweepConfig,
    variant: Variant,
    workload: SweepWorkload,
) -> VariantSweep {
    let mut points = Vec::new();
    for &n in &cfg.ns {
        let h = workload.hamiltonian(n);
        let (first, mapping) = time_construction(&h, variant);
        let mut samples = vec![first];
        let over_budget = first > cfg.budget_per_point;
        if !over_budget {
            for _ in 1..cfg.samples {
                samples.push(time_construction(&h, variant).0);
            }
        }
        let stats = mapping.stats();
        points.push(SweepPoint {
            n,
            stats: summarize(&samples),
            pauli_weight: stats.total_weight(),
            candidates: stats.total_candidates(),
            memo_hits: stats.memo_hits,
            memo_misses: stats.memo_misses,
        });
        if over_budget {
            break;
        }
    }
    let slope = loglog_slope(
        &points
            .iter()
            .filter(|p| p.n >= cfg.slope_min_n)
            .map(|p| (p.n, p.stats.median))
            .collect::<Vec<_>>(),
    );
    VariantSweep {
        variant,
        points,
        slope,
    }
}

/// One (case, policy) cell of the quality-vs-time study.
#[derive(Debug, Clone)]
pub struct PolicyPoint {
    /// Benchmark case name.
    pub case: String,
    /// Mode count of the case.
    pub n_modes: usize,
    /// The selection policy measured.
    pub policy: SelectionPolicy,
    /// Mapped Pauli weight under this policy.
    pub pauli_weight: usize,
    /// Jordan-Wigner Pauli weight on the same case (the quality bar).
    pub jw_weight: usize,
    /// Construction wall time in seconds (single run — quality, not
    /// timing noise, is the signal here).
    pub seconds: f64,
}

/// The policy ladder measured by the perf harness.
pub fn policy_ladder() -> Vec<SelectionPolicy> {
    vec![
        SelectionPolicy::Vanilla,
        SelectionPolicy::Greedy,
        SelectionPolicy::Lookahead { width: 8 },
        SelectionPolicy::Beam { width: 8 },
        SelectionPolicy::Restarts,
    ]
}

/// Measures the policy ladder on a fixed set of tie-heavy benchmark
/// cases (the neutrino family — the workload where the myopic objective
/// used to lose to Jordan-Wigner). `smoke` keeps only the smallest case.
pub fn policy_tradeoff(smoke: bool) -> Vec<PolicyPoint> {
    let mut cases: Vec<(String, MajoranaSum)> = Vec::new();
    let sizes: &[(usize, usize)] = if smoke {
        &[(3, 2)]
    } else {
        &[(3, 2), (4, 2), (5, 2)]
    };
    for &(sites, flavors) in sizes {
        let model = NeutrinoModel::new(sites, flavors);
        let mut h = MajoranaSum::from_fermion(&model.hamiltonian());
        let _ = h.take_identity();
        cases.push((format!("neutrino {}", model.label()), h));
    }
    let mut points = Vec::new();
    for (case, h) in &cases {
        let n = h.n_modes();
        let jw_weight = jordan_wigner(n).map_majorana_sum(h).weight();
        for policy in policy_ladder() {
            let mapper = uncached_mapper(|b| b.policy(policy));
            let t0 = Instant::now();
            let m = mapper.map(h).expect("policy cases are non-empty");
            let seconds = t0.elapsed().as_secs_f64();
            points.push(PolicyPoint {
                case: case.clone(),
                n_modes: n,
                policy,
                pauli_weight: m.map_majorana_sum(h).weight(),
                jw_weight,
                seconds,
            });
        }
    }
    points
}

/// One case of the threaded-`restarts` study: the quality portfolio
/// built sequentially (1 worker) and with the study's worker count.
#[derive(Debug, Clone)]
pub struct ParallelCase {
    /// Benchmark case name.
    pub case: String,
    /// Mode count of the case.
    pub n_modes: usize,
    /// Best-of-samples wall time with 1 worker, seconds.
    pub seq_s: f64,
    /// Best-of-samples wall time with [`ParallelReport::workers`]
    /// workers, seconds.
    pub threaded_s: f64,
}

impl ParallelCase {
    /// Sequential / threaded wall-time ratio (> 1 means threads won).
    pub fn speedup(&self) -> f64 {
        if self.threaded_s > 0.0 {
            self.seq_s / self.threaded_s
        } else {
            0.0
        }
    }
}

/// The batched-sweep study: `batch_size` Hamiltonians spanning
/// `distinct_structures` term structures (a coefficient sweep, the
/// service workload), mapped one-by-one sequentially vs through
/// `Mapper::map_batch` — so the speedup combines thread fan-out *and*
/// structure-cache hits.
#[derive(Debug, Clone)]
pub struct BatchStudy {
    /// Total Hamiltonians in the batch.
    pub batch_size: usize,
    /// Distinct term structures in the batch.
    pub distinct_structures: usize,
    /// Sequential per-element loop wall time, seconds (best of samples).
    pub seq_s: f64,
    /// `map_many_cached` wall time with the study's workers, seconds.
    pub threaded_s: f64,
    /// Structure-cache hits during the batched run.
    pub cache_hits: u64,
    /// Structure-cache misses (full constructions) during the batch.
    pub cache_misses: u64,
}

impl BatchStudy {
    /// Sequential / batched wall-time ratio.
    pub fn speedup(&self) -> f64 {
        if self.threaded_s > 0.0 {
            self.seq_s / self.threaded_s
        } else {
            0.0
        }
    }

    /// Mappings per second through the batched path — the headline
    /// throughput bin.
    pub fn throughput_per_s(&self) -> f64 {
        if self.threaded_s > 0.0 {
            self.batch_size as f64 / self.threaded_s
        } else {
            0.0
        }
    }
}

/// The parallel-engine study serialized under `"parallel"` in
/// `BENCH_perf.json` (schema `hatt-perf/2`).
#[derive(Debug, Clone)]
pub struct ParallelReport {
    /// Workers the threaded runs used (`HATT_THREADS` or hardware).
    pub workers: usize,
    /// Hardware parallelism of the measuring host. Speedups are only
    /// meaningful when this is > 1 — on a single-core container the
    /// threaded engine can at best tie sequential, and consumers (CI)
    /// must gate wall-time assertions on this field.
    pub available_workers: usize,
    /// Per-case threaded-`restarts` rows.
    pub restarts: Vec<ParallelCase>,
    /// The batched neutrino sweep.
    pub batch: BatchStudy,
}

impl ParallelReport {
    /// Total sequential restarts wall time over the roster.
    pub fn restarts_seq_total_s(&self) -> f64 {
        self.restarts.iter().map(|c| c.seq_s).sum()
    }

    /// Total threaded restarts wall time over the roster.
    pub fn restarts_threaded_total_s(&self) -> f64 {
        self.restarts.iter().map(|c| c.threaded_s).sum()
    }

    /// Roster-level speedup of the threaded portfolio.
    pub fn restarts_speedup(&self) -> f64 {
        let threaded = self.restarts_threaded_total_s();
        if threaded > 0.0 {
            self.restarts_seq_total_s() / threaded
        } else {
            0.0
        }
    }
}

/// The roster the threaded-`restarts` study times: the Table I
/// molecules (full), or a medium-sized subset where thread fan-out
/// clearly dominates spawn overhead (smoke — this is what the CI
/// wall-time gate runs).
pub fn parallel_roster(smoke: bool) -> Vec<(String, MajoranaSum)> {
    let mut cases = Vec::new();
    if smoke {
        let name = "LiH sto3g frz";
        let spec = molecule_catalog()
            .into_iter()
            .find(|m| m.name == name)
            .expect("catalog molecule");
        cases.push((name.to_string(), crate::preprocess(&spec.hamiltonian())));
        cases.push((
            "Hubbard 2x2".to_string(),
            crate::preprocess(&FermiHubbard::new(2, 2).hamiltonian()),
        ));
        cases.push((
            "neutrino 3x2F".to_string(),
            crate::preprocess(&NeutrinoModel::new(3, 2).hamiltonian()),
        ));
    } else {
        for spec in molecule_catalog() {
            cases.push((
                spec.name.to_string(),
                crate::preprocess(&spec.hamiltonian()),
            ));
        }
    }
    cases
}

/// Best-of-`samples` wall time of one restarts construction at the
/// given worker cap.
fn time_restarts(h: &MajoranaSum, workers: usize, samples: usize) -> f64 {
    let mapper = uncached_mapper(|b| b.policy(SelectionPolicy::Restarts).threads(workers));
    (0..samples.max(1))
        .map(|_| {
            let t0 = Instant::now();
            let m = mapper.map(h).expect("roster cases are non-empty");
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(m.stats().total_weight());
            dt
        })
        .fold(f64::INFINITY, f64::min)
}

/// Measures the parallel engine: threaded `restarts` vs 1 worker on the
/// [`parallel_roster`], and a batched neutrino coefficient sweep
/// (`map_many_cached` vs a sequential loop). Worker count comes from
/// [`parallel::max_threads`] (so `HATT_THREADS` steers CI runs); all
/// constructions are result-identical, only wall time differs.
pub fn parallel_study(smoke: bool) -> ParallelReport {
    let workers = parallel::max_threads();
    let samples = 3;
    let restarts = parallel_roster(smoke)
        .into_iter()
        .map(|(case, h)| ParallelCase {
            n_modes: h.n_modes(),
            seq_s: time_restarts(&h, 1, samples),
            threaded_s: time_restarts(&h, workers, samples),
            case,
        })
        .collect();

    // Batched sweep: `reps` coefficient-rescaled instances per neutrino
    // structure, under the quality policy (the service configuration).
    let sizes: &[(usize, usize)] = if smoke { &[(3, 2)] } else { &[(3, 2), (4, 2)] };
    let reps = if smoke { 8 } else { 12 };
    let mut batch: Vec<MajoranaSum> = Vec::new();
    for &(sites, flavors) in sizes {
        let base = crate::preprocess(&NeutrinoModel::new(sites, flavors).hamiltonian());
        for r in 0..reps {
            batch.push(base.scaled(1.0 + 0.125 * r as f64));
        }
    }
    let seq_s = {
        let solo = uncached_mapper(|b| b.policy(SelectionPolicy::Restarts).threads(1));
        let t0 = Instant::now();
        for h in &batch {
            let m = solo.map(h).expect("sweep Hamiltonians are non-empty");
            std::hint::black_box(m.stats().total_weight());
        }
        t0.elapsed().as_secs_f64()
    };
    let batched = Mapper::builder()
        .policy(SelectionPolicy::Restarts)
        .threads(workers)
        .build()
        .expect("static mapper configuration");
    let t0 = Instant::now();
    let maps = batched.map_batch(&batch).expect("sweep batch maps");
    let threaded_s = t0.elapsed().as_secs_f64();
    std::hint::black_box(maps.len());

    ParallelReport {
        workers,
        available_workers: parallel::available_workers(),
        restarts,
        batch: BatchStudy {
            batch_size: batch.len(),
            distinct_structures: sizes.len(),
            seq_s,
            threaded_s,
            cache_hits: batched.cache().hits(),
            cache_misses: batched.cache().misses(),
        },
    }
}

/// One point of the [`RemapStudy`] curve: a stream of one-term deltas
/// on the `n_modes`-mode dense molecule, each served by
/// [`Mapper::remap`] and, for the baseline, cold-constructed from
/// scratch.
#[derive(Debug, Clone, Default)]
pub struct RemapPoint {
    /// Mode count of the base Hamiltonian.
    pub n_modes: usize,
    /// One-term deltas in the stream.
    pub steps: usize,
    /// Total wall time of the incremental chain (base construction
    /// excluded), seconds.
    pub incremental_s: f64,
    /// Total wall time of cold-constructing every edited Hamiltonian,
    /// seconds.
    pub fresh_s: f64,
    /// Incremental rebuilds served (must equal `steps`).
    pub remaps: u64,
    /// Cold constructions on the incremental path **after** the base
    /// (must be 0 — every step rode the ancestor).
    pub constructions_after_base: u64,
    /// Candidates the remaps scored, summed over the stream.
    pub remap_candidates: u64,
    /// Candidates the cold rebuilds scored, summed over the stream.
    pub fresh_candidates: u64,
    /// The published allowance over a cold build, summed over the
    /// stream: `|touched| · (3N + 1)` per edit. Every point must have
    /// `remap_candidates <= fresh_candidates + touched_bound`, and the
    /// kernel keeps the tighter `remap_candidates <= fresh_candidates +
    /// steps` (at most one extra score per edit).
    pub touched_bound: u64,
}

impl RemapPoint {
    /// Cold / incremental wall-time ratio (> 1 means remap won).
    pub fn speedup(&self) -> f64 {
        if self.incremental_s > 0.0 {
            self.fresh_s / self.incremental_s
        } else {
            0.0
        }
    }

    /// Remapped mappings per second through the incremental path.
    pub fn remaps_per_s(&self) -> f64 {
        if self.incremental_s > 0.0 {
            self.steps as f64 / self.incremental_s
        } else {
            0.0
        }
    }
}

/// The incremental-remapping study serialized under `"remap"` in
/// `BENCH_perf.json`: one-term-delta streams served by
/// [`Mapper::remap`] vs cold rebuilds of every edited Hamiltonian — the
/// adaptive-ansatz workload the `map_delta` verb exists for — as a
/// curve over N on the dense-molecule workload.
#[derive(Debug, Clone)]
pub struct RemapStudy {
    /// Workload name.
    pub workload: String,
    /// One point per mode count, ascending.
    pub points: Vec<RemapPoint>,
}

impl RemapStudy {
    /// The smallest N from which on remap wins at every point (speedup
    /// ≥ 1), or `None` when it loses at the largest N.
    pub fn crossover_n(&self) -> Option<usize> {
        let losing = self.points.iter().rposition(|p| p.speedup() < 1.0);
        let from = losing.map_or(0, |i| i + 1);
        self.points.get(from).map(|p| p.n_modes)
    }
}

/// A quartic support absent from `h`, scanned deterministically from
/// `salt` — the one-term edit of the remap stream. Evenly spaced quads
/// `a, a+s, a+2s, a+3s` are tried stride by stride, consecutive ones
/// (`s = 1`) first, so a long stream does not run out when the
/// consecutive quads are all present.
fn absent_quad(h: &MajoranaSum, salt: usize) -> Vec<u32> {
    let m = 2 * h.n_modes() as u32;
    assert!(m >= 4, "remap study needs at least two modes");
    for stride in 1..=(m - 1) / 3 {
        let starts = m - 3 * stride;
        for off in 0..starts {
            let a = (salt as u32 + off) % starts;
            let support: Vec<u32> = (0..4).map(|k| a + k * stride).collect();
            if h.coefficient_of(&support).is_zero(1e-12) {
                return support;
            }
        }
    }
    // hatt-lint: allow(panic) -- bench harness; the streams insert far fewer quads than the ~m²/6 evenly spaced ones
    panic!("no absent quad found");
}

/// Step `step` of the remap stream: adds `0.5` on an absent quad of
/// `current`. Returns the delta and the edited Hamiltonian.
fn remap_stream_edit(current: &MajoranaSum, step: usize) -> (HamiltonianDelta, MajoranaSum) {
    let mut delta = HamiltonianDelta::new(current.n_modes());
    delta
        .push_add(Complex64::real(0.5), &absent_quad(current, 7 * step + 1))
        .expect("absent support inserts");
    let next = delta.apply(current).expect("one-term delta applies");
    (delta, next)
}

/// The `(N, steps)` points of the remap study.
fn remap_points(smoke: bool) -> &'static [(usize, usize)] {
    if smoke {
        &[(8, 8), (32, 8)]
    } else {
        &[(8, 16), (32, 16), (128, 8)]
    }
}

/// Times one-term-delta streams on the dense-molecule workload at
/// N = 8, 32 and 128 (smoke: 8 and 32): per point, 8 or 16 edits, each
/// served incrementally through [`Mapper::remap`] (one warm base
/// construction, then ancestor rebuilds only) and, for the baseline,
/// cold-constructed from scratch on an uncached mapper. Both paths produce bit-identical
/// trees (`tests/remap_differential.rs` pins this); the study records
/// what the incremental path saves, in time and in scored candidates.
pub fn remap_study(smoke: bool) -> RemapStudy {
    RemapStudy {
        workload: "dense_molecule".into(),
        points: remap_points(smoke)
            .iter()
            .map(|&(n, steps)| remap_point(n, steps))
            .collect(),
    }
}

fn remap_point(n: usize, steps: usize) -> RemapPoint {
    let base = SweepWorkload::DenseMolecule.hamiltonian(n);
    let mapper = Mapper::new();
    mapper.map(&base).expect("base maps");
    let base_constructions = mapper.cache().constructions();
    let cold = uncached_mapper(|b| b);

    let mut point = RemapPoint {
        n_modes: n,
        steps,
        ..RemapPoint::default()
    };
    let mut current = base;
    for step in 0..steps {
        let (delta, next) = remap_stream_edit(&current, step);

        let t0 = Instant::now();
        let m = mapper
            .remap(&current, &delta)
            .expect("remap serves the edit");
        point.incremental_s += t0.elapsed().as_secs_f64();
        point.remap_candidates += m.stats().total_candidates();

        let t0 = Instant::now();
        let m = cold.map(&next).expect("cold rebuild");
        point.fresh_s += t0.elapsed().as_secs_f64();
        point.fresh_candidates += m.stats().total_candidates();
        point.touched_bound += delta.support_touched().len() as u64 * (3 * n as u64 + 1);

        current = next;
    }
    point.remaps = mapper.cache().remaps();
    point.constructions_after_base = mapper.cache().constructions() - base_constructions;
    point
}

/// Least-squares slope of `ln t` against `ln n`; `None` with fewer than
/// two usable (positive-time) points.
pub fn loglog_slope(points: &[(usize, f64)]) -> Option<f64> {
    let pts: Vec<(f64, f64)> = points
        .iter()
        .filter(|&&(_, t)| t > 0.0)
        .map(|&(n, t)| ((n as f64).ln(), t.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        return None;
    }
    Some((n * sxy - sx * sy) / denom)
}

/// Serializes a sweep set to the `BENCH_perf.json` document
/// (`schema: "hatt-perf/5"`; see README "Perf harness" and
/// docs/REPRODUCTION.md for the schema). `policies` is the
/// quality-vs-time study from [`policy_tradeoff`]; `parallel` is the
/// parallel-engine study from [`parallel_study`]; `dense` is the
/// [`SweepWorkload::DenseMolecule`] scalability sweep, `remap` the
/// one-term-delta stream from [`remap_study`], `load` the open-loop
/// service study from [`crate::load::load_study`], and `trace` the
/// tracing-overhead study from [`crate::load::trace_study`]. Every
/// section is additive over the previous schema version — older
/// documents simply lack the newer keys.
#[allow(clippy::too_many_arguments)] // one argument per schema section
pub fn sweeps_to_json(
    cfg: &SweepConfig,
    smoke: bool,
    sweeps: &[VariantSweep],
    policies: &[PolicyPoint],
    parallel: &ParallelReport,
    dense: &[VariantSweep],
    remap: &RemapStudy,
    load: &crate::load::LoadStudy,
    trace: &crate::load::TraceStudy,
) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::str("hatt-perf/5")),
        ("workload".into(), Json::str("uniform_singles")),
        ("smoke".into(), Json::Bool(smoke)),
        ("samples_per_point".into(), Json::int(cfg.samples as u64)),
        ("budget_per_point_s".into(), Json::Num(cfg.budget_per_point)),
        ("slope_fit_min_n".into(), Json::int(cfg.slope_min_n as u64)),
        (
            "variants".into(),
            Json::Arr(sweeps.iter().map(sweep_to_json).collect()),
        ),
        (
            "policies".into(),
            Json::Arr(policies.iter().map(policy_point_to_json).collect()),
        ),
        ("parallel".into(), parallel_to_json(parallel)),
        (
            "dense".into(),
            Json::Obj(vec![
                (
                    "workload".into(),
                    Json::str(SweepWorkload::DenseMolecule.key()),
                ),
                (
                    "variants".into(),
                    Json::Arr(dense.iter().map(sweep_to_json).collect()),
                ),
            ]),
        ),
        ("remap".into(), remap_to_json(remap)),
        ("load".into(), load_to_json(load)),
        ("trace".into(), trace_to_json(trace)),
    ])
}

/// The `"trace"` section of the hatt-perf/5 document.
fn trace_to_json(study: &crate::load::TraceStudy) -> Json {
    Json::Obj(vec![
        ("generator".into(), Json::str("open_loop")),
        ("rate_hz".into(), Json::Num(study.config.rate_hz)),
        ("requests".into(), Json::int(study.config.requests as u64)),
        (
            "connections".into(),
            Json::int(study.config.connections as u64),
        ),
        ("shards".into(), Json::int(study.shards as u64)),
        ("untraced".into(), load_report_to_json(&study.untraced)),
        ("traced".into(), load_report_to_json(&study.traced)),
        ("overhead_pct".into(), Json::Num(study.overhead_pct)),
        ("spans_recorded".into(), Json::int(study.spans_recorded)),
        ("spans_dropped".into(), Json::int(study.spans_dropped)),
        (
            "stages".into(),
            Json::Arr(
                study
                    .stages
                    .iter()
                    .map(|s| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(&s.name)),
                            ("count".into(), Json::int(s.count as u64)),
                            ("p50_ms".into(), Json::Num(s.p50_ms)),
                            ("p99_ms".into(), Json::Num(s.p99_ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The `"load"` section of the hatt-perf/4 document.
fn load_to_json(study: &crate::load::LoadStudy) -> Json {
    Json::Obj(vec![
        ("generator".into(), Json::str("open_loop")),
        ("rate_hz".into(), Json::Num(study.config.rate_hz)),
        ("requests".into(), Json::int(study.config.requests as u64)),
        (
            "connections".into(),
            Json::int(study.config.connections as u64),
        ),
        (
            "sizes".into(),
            Json::Arr(
                study
                    .config
                    .sizes
                    .iter()
                    .map(|&s| Json::int(s as u64))
                    .collect(),
            ),
        ),
        ("shards".into(), Json::int(study.shards as u64)),
        ("single".into(), load_report_to_json(&study.single)),
        ("routed".into(), load_report_to_json(&study.routed)),
    ])
}

fn load_report_to_json(r: &crate::load::LoadReport) -> Json {
    Json::Obj(vec![
        ("offered".into(), Json::int(r.offered as u64)),
        ("completed".into(), Json::int(r.completed as u64)),
        ("errors".into(), Json::int(r.errors as u64)),
        ("elapsed_s".into(), Json::Num(r.elapsed_s)),
        ("sustained_per_s".into(), Json::Num(r.sustained_per_s)),
        ("p50_ms".into(), Json::Num(r.p50_ms)),
        ("p99_ms".into(), Json::Num(r.p99_ms)),
        ("max_ms".into(), Json::Num(r.max_ms)),
    ])
}

/// The `"remap"` section: the per-point curve under `"points"`, with the
/// largest-N point's stream at the top level — the single stream
/// hatt-perf/3 readers find there.
fn remap_to_json(r: &RemapStudy) -> Json {
    let largest = r.points.last().cloned().unwrap_or_default();
    let mut fields = vec![
        (
            "case".into(),
            Json::str(format!("{} n={}", r.workload, largest.n_modes)),
        ),
        ("workload".into(), Json::str(&r.workload)),
        (
            "crossover_n".into(),
            r.crossover_n().map_or(Json::Null, |n| Json::int(n as u64)),
        ),
        (
            "points".into(),
            Json::Arr(
                r.points
                    .iter()
                    .map(|p| Json::Obj(remap_point_fields(p)))
                    .collect(),
            ),
        ),
    ];
    fields.extend(remap_point_fields(&largest));
    Json::Obj(fields)
}

fn remap_point_fields(p: &RemapPoint) -> Vec<(String, Json)> {
    vec![
        ("n_modes".into(), Json::int(p.n_modes as u64)),
        ("steps".into(), Json::int(p.steps as u64)),
        ("incremental_s".into(), Json::Num(p.incremental_s)),
        ("fresh_s".into(), Json::Num(p.fresh_s)),
        ("speedup".into(), Json::Num(p.speedup())),
        ("remaps_per_s".into(), Json::Num(p.remaps_per_s())),
        ("remaps".into(), Json::int(p.remaps)),
        (
            "constructions_after_base".into(),
            Json::int(p.constructions_after_base),
        ),
        ("remap_candidates".into(), Json::int(p.remap_candidates)),
        ("fresh_candidates".into(), Json::int(p.fresh_candidates)),
        ("touched_bound".into(), Json::int(p.touched_bound)),
    ]
}

/// The `"parallel"` section of the hatt-perf/2 document.
fn parallel_to_json(report: &ParallelReport) -> Json {
    Json::Obj(vec![
        ("workers".into(), Json::int(report.workers as u64)),
        (
            "available_workers".into(),
            Json::int(report.available_workers as u64),
        ),
        (
            "restarts".into(),
            Json::Arr(
                report
                    .restarts
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("case".into(), Json::str(&c.case)),
                            ("n_modes".into(), Json::int(c.n_modes as u64)),
                            ("seq_s".into(), Json::Num(c.seq_s)),
                            ("threaded_s".into(), Json::Num(c.threaded_s)),
                            ("speedup".into(), Json::Num(c.speedup())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "restarts_seq_total_s".into(),
            Json::Num(report.restarts_seq_total_s()),
        ),
        (
            "restarts_threaded_total_s".into(),
            Json::Num(report.restarts_threaded_total_s()),
        ),
        (
            "restarts_speedup".into(),
            Json::Num(report.restarts_speedup()),
        ),
        (
            "throughput".into(),
            Json::Obj(vec![
                (
                    "batch_size".into(),
                    Json::int(report.batch.batch_size as u64),
                ),
                (
                    "distinct_structures".into(),
                    Json::int(report.batch.distinct_structures as u64),
                ),
                ("seq_s".into(), Json::Num(report.batch.seq_s)),
                ("threaded_s".into(), Json::Num(report.batch.threaded_s)),
                ("speedup".into(), Json::Num(report.batch.speedup())),
                (
                    "mappings_per_s".into(),
                    Json::Num(report.batch.throughput_per_s()),
                ),
                ("cache_hits".into(), Json::int(report.batch.cache_hits)),
                ("cache_misses".into(), Json::int(report.batch.cache_misses)),
            ]),
        ),
    ])
}

fn policy_point_to_json(p: &PolicyPoint) -> Json {
    Json::Obj(vec![
        ("case".into(), Json::str(&p.case)),
        ("n_modes".into(), Json::int(p.n_modes as u64)),
        ("policy".into(), Json::str(p.policy.label())),
        ("pauli_weight".into(), Json::int(p.pauli_weight as u64)),
        ("jw_weight".into(), Json::int(p.jw_weight as u64)),
        ("seconds".into(), Json::Num(p.seconds)),
    ])
}

fn sweep_to_json(sweep: &VariantSweep) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::str(variant_key(sweep.variant))),
        ("label".into(), Json::str(sweep.variant.label())),
        (
            "paper_complexity".into(),
            Json::str(paper_complexity(sweep.variant)),
        ),
        (
            "loglog_slope".into(),
            sweep.slope.map_or(Json::Null, Json::Num),
        ),
        (
            "points".into(),
            Json::Arr(sweep.points.iter().map(point_to_json).collect()),
        ),
    ])
}

fn point_to_json(p: &SweepPoint) -> Json {
    Json::Obj(vec![
        ("n".into(), Json::int(p.n as u64)),
        ("mean_s".into(), Json::Num(p.stats.mean)),
        ("median_s".into(), Json::Num(p.stats.median)),
        ("stddev_s".into(), Json::Num(p.stats.stddev)),
        ("min_s".into(), Json::Num(p.stats.min)),
        ("max_s".into(), Json::Num(p.stats.max)),
        ("samples".into(), Json::int(p.stats.n as u64)),
        ("pauli_weight".into(), Json::int(p.pauli_weight as u64)),
        ("candidates".into(), Json::int(p.candidates)),
        ("memo_hits".into(), Json::int(p.memo_hits)),
        ("memo_misses".into(), Json::int(p.memo_misses)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slope_of_perfect_cubic_is_three() {
        let pts: Vec<(usize, f64)> = [8usize, 16, 32, 64]
            .iter()
            .map(|&n| (n, (n as f64).powi(3)))
            .collect();
        let s = loglog_slope(&pts).unwrap();
        assert!((s - 3.0).abs() < 1e-9, "got {s}");
    }

    #[test]
    fn slope_needs_two_points() {
        assert!(loglog_slope(&[]).is_none());
        assert!(loglog_slope(&[(8, 1.0)]).is_none());
        assert!(loglog_slope(&[(8, 0.0), (16, 0.0)]).is_none());
    }

    #[test]
    fn smoke_sweep_produces_points_and_json() {
        let cfg = SweepConfig {
            ns: vec![4, 6, 8],
            samples: 2,
            budget_per_point: 5.0,
            slope_min_n: 4,
        };
        let sweeps: Vec<VariantSweep> = [Variant::Cached, Variant::Unopt]
            .iter()
            .map(|&v| sweep_variant(&cfg, v))
            .collect();
        assert_eq!(sweeps[0].points.len(), 3);
        for p in &sweeps[0].points {
            assert!(p.pauli_weight > 0);
            assert!(p.candidates > 0);
            assert_eq!(p.stats.n, 2);
        }
        // The cached variant's selection loop must actually hit the memo.
        assert!(sweeps[0].points[0].memo_hits > 0);
        let policies = policy_tradeoff(true);
        assert_eq!(policies.len(), policy_ladder().len());
        for p in &policies {
            assert!(p.pauli_weight > 0);
            if p.policy == SelectionPolicy::Restarts {
                assert!(
                    p.pauli_weight <= p.jw_weight,
                    "restarts must not lose to JW"
                );
            }
        }
        let report = tiny_parallel_report();
        let dense = vec![sweep_variant_on(
            &cfg,
            Variant::Cached,
            SweepWorkload::DenseMolecule,
        )];
        let remap = tiny_remap_study();
        let load = tiny_load_study();
        let trace = tiny_trace_study();
        let doc = sweeps_to_json(
            &cfg, true, &sweeps, &policies, &report, &dense, &remap, &load, &trace,
        )
        .render();
        assert!(doc.starts_with(r#"{"schema":"hatt-perf/5""#));
        assert!(doc.contains(r#""name":"cached""#));
        assert!(doc.contains(r#""pauli_weight":"#));
        assert!(doc.contains(r#""policy":"restarts""#));
        assert!(doc.contains(r#""parallel":{"workers":"#));
        assert!(doc.contains(r#""throughput":{"batch_size":"#));
        assert!(doc.contains(r#""cache_hits":"#));
        assert!(doc.contains(r#""dense":{"workload":"dense_molecule""#));
        assert!(doc.contains(
            r#""remap":{"case":"t n=8","workload":"t","crossover_n":8,"points":[{"n_modes":4"#
        ));
        // The top level is the largest point itself, not a sum.
        assert!(doc.contains(
            r#""remap_candidates":90,"fresh_candidates":100,"touched_bound":400},"load":"#
        ));
        assert!(doc.contains(r#""remap":{"case":"#));
        assert!(doc.contains(r#""remaps_per_s":"#));
        assert!(doc.contains(r#""load":{"generator":"open_loop""#));
        assert!(doc.contains(r#""sustained_per_s":"#));
        assert!(doc.contains(r#""p99_ms":"#));
        assert!(doc.contains(r#""routed":{"offered":"#));
        assert!(doc.contains(r#""trace":{"generator":"open_loop""#));
        assert!(doc.contains(r#""overhead_pct":"#));
        assert!(doc.contains(r#""spans_recorded":"#));
        assert!(doc.contains(r#""stages":[{"name":"construct""#));
        assert!(doc.contains(r#""untraced":{"offered":"#));
        assert!(doc.contains(r#""traced":{"offered":"#));
    }

    fn tiny_load_report() -> crate::load::LoadReport {
        crate::load::LoadReport {
            offered: 8,
            completed: 8,
            errors: 0,
            elapsed_s: 0.5,
            sustained_per_s: 16.0,
            p50_ms: 1.0,
            p99_ms: 2.0,
            max_ms: 3.0,
        }
    }

    fn tiny_load_study() -> crate::load::LoadStudy {
        let report = tiny_load_report();
        crate::load::LoadStudy {
            config: crate::load::LoadConfig::smoke(),
            shards: 2,
            single: report.clone(),
            routed: report,
        }
    }

    fn tiny_trace_study() -> crate::load::TraceStudy {
        crate::load::TraceStudy {
            config: crate::load::LoadConfig::smoke(),
            shards: 2,
            untraced: tiny_load_report(),
            traced: tiny_load_report(),
            overhead_pct: 1.5,
            spans_recorded: 64,
            spans_dropped: 0,
            stages: vec![crate::load::TraceStageStats {
                name: "construct".into(),
                count: 8,
                p50_ms: 0.4,
                p99_ms: 0.9,
            }],
        }
    }

    fn tiny_remap_point() -> RemapPoint {
        RemapPoint {
            n_modes: 8,
            steps: 4,
            incremental_s: 0.5,
            fresh_s: 2.0,
            remaps: 4,
            constructions_after_base: 0,
            remap_candidates: 90,
            fresh_candidates: 100,
            touched_bound: 400,
        }
    }

    fn tiny_remap_study() -> RemapStudy {
        RemapStudy {
            workload: "t".into(),
            points: vec![
                RemapPoint {
                    n_modes: 4,
                    incremental_s: 4.0,
                    remap_candidates: 30,
                    ..tiny_remap_point()
                },
                tiny_remap_point(),
            ],
        }
    }

    fn tiny_parallel_report() -> ParallelReport {
        ParallelReport {
            workers: 4,
            available_workers: 4,
            restarts: vec![ParallelCase {
                case: "t".into(),
                n_modes: 4,
                seq_s: 0.4,
                threaded_s: 0.1,
            }],
            batch: BatchStudy {
                batch_size: 8,
                distinct_structures: 1,
                seq_s: 2.0,
                threaded_s: 0.5,
                cache_hits: 7,
                cache_misses: 1,
            },
        }
    }

    #[test]
    fn parallel_report_arithmetic() {
        let r = tiny_parallel_report();
        assert!((r.restarts[0].speedup() - 4.0).abs() < 1e-12);
        assert!((r.restarts_speedup() - 4.0).abs() < 1e-12);
        assert!((r.batch.speedup() - 4.0).abs() < 1e-12);
        assert!((r.batch.throughput_per_s() - 16.0).abs() < 1e-12);
        // Division-by-zero guards.
        let zero = ParallelCase {
            case: "z".into(),
            n_modes: 1,
            seq_s: 1.0,
            threaded_s: 0.0,
        };
        assert_eq!(zero.speedup(), 0.0);
    }

    #[test]
    fn parallel_study_smoke_is_result_identical_and_counts_cache() {
        let report = parallel_study(true);
        assert!(report.workers >= 1);
        assert!(report.available_workers >= 1);
        assert_eq!(report.restarts.len(), 3, "smoke roster size");
        for c in &report.restarts {
            assert!(c.seq_s > 0.0 && c.threaded_s > 0.0, "{}: timed", c.case);
        }
        // One distinct structure, 8 instances: exactly one construction.
        assert_eq!(report.batch.batch_size, 8);
        assert_eq!(report.batch.distinct_structures, 1);
        assert_eq!(report.batch.cache_misses, 1);
        assert_eq!(report.batch.cache_hits, 7);
        assert!(report.batch.throughput_per_s() > 0.0);
    }

    #[test]
    fn remap_study_arithmetic_and_counters() {
        let p = tiny_remap_point();
        assert!((p.speedup() - 4.0).abs() < 1e-12);
        assert!((p.remaps_per_s() - 8.0).abs() < 1e-12);
        let zero = RemapPoint {
            incremental_s: 0.0,
            ..tiny_remap_point()
        };
        assert_eq!(zero.speedup(), 0.0);
        assert_eq!(zero.remaps_per_s(), 0.0);

        // Remap loses at N = 4 (×0.5) and wins from N = 8 on.
        let r = tiny_remap_study();
        assert_eq!(r.crossover_n(), Some(8));
        let losing = RemapStudy {
            points: vec![zero],
            ..tiny_remap_study()
        };
        assert_eq!(losing.crossover_n(), None);
    }

    #[test]
    fn remap_study_smoke_rides_the_ancestor_every_step() {
        let r = remap_study(true);
        let ns: Vec<usize> = r.points.iter().map(|p| p.n_modes).collect();
        assert_eq!(ns, [8, 32]);
        for p in &r.points {
            let n = p.n_modes;
            assert_eq!(p.steps, 8);
            assert_eq!(p.remaps, 8, "N = {n}: every edit must remap incrementally");
            assert_eq!(
                p.constructions_after_base, 0,
                "N = {n}: one-term deltas must never construct cold"
            );
            assert!(p.incremental_s > 0.0 && p.fresh_s > 0.0);
            // A remap scores at most one candidate more than the cold
            // build of the same edit; the touched allowance is the
            // looser published bound.
            assert!(
                p.remap_candidates <= p.fresh_candidates + p.steps as u64,
                "N = {n}: remap scored more than a cold build plus one per edit: {p:?}"
            );
            assert!(
                p.remap_candidates <= p.fresh_candidates + p.touched_bound,
                "N = {n}: remap outscored its bound: {p:?}"
            );
        }
    }

    #[test]
    fn full_remap_stream_finds_an_absent_quad_every_step() {
        // Every point of the non-smoke curve: the 8-mode base has only
        // 13 consecutive quads for its 16 insertions.
        for &(n, steps) in remap_points(false) {
            let mut current = SweepWorkload::DenseMolecule.hamiltonian(n);
            for step in 0..steps {
                let (_, next) = remap_stream_edit(&current, step);
                assert_eq!(next.n_terms(), current.n_terms() + 1, "N = {n} step {step}");
                current = next;
            }
        }
    }

    #[test]
    fn dense_workload_is_deterministic_and_not_singles_shaped() {
        let a = SweepWorkload::DenseMolecule.hamiltonian(8);
        let b = SweepWorkload::DenseMolecule.hamiltonian(8);
        assert_eq!(a, b, "the sweep must time a pure function of N");
        // A dense instance must contain quartic supports — the shape
        // uniform_singles never has.
        assert!(
            a.iter().any(|(support, _)| support.len() == 4),
            "no two-body structure in the dense workload"
        );
        assert!(a.n_terms() > 8, "denser than the singles chain");
    }

    #[test]
    fn budget_truncates_the_tail() {
        let cfg = SweepConfig {
            ns: vec![4, 8, 12],
            samples: 2,
            budget_per_point: 0.0, // everything is over budget
            slope_min_n: 4,
        };
        let sweep = sweep_variant(&cfg, Variant::Cached);
        assert_eq!(sweep.points.len(), 1, "must stop after the first point");
        assert_eq!(sweep.points[0].stats.n, 1, "no extra samples when over");
    }
}
