//! The library side: the paper's compile pipeline timed call by call
//! through the public API, plus the in-process probes (warm cache hit,
//! one-term remap, wire codec) every workload runs on its own inputs.

use std::time::Instant;

use hatt_circuit::{optimize, trotter_circuit, TermOrder};
use hatt_core::{structure_key, HattMapping, Mapper};
use hatt_fermion::{FermionOperator, HamiltonianDelta, MajoranaSum};
use hatt_mappings::{FermionMapping, SelectionPolicy};
use hatt_pauli::Complex64;
use hatt_service::MapRequest;

use crate::host::HostClock;
use crate::trace::{SpanLog, SpanRec};
use crate::util::{median, ms_since, Rng};

/// `MajoranaSum::from_fermion` plus dropping the constant and pruning,
/// the preprocessing every table of the paper applies.
pub fn preprocess(op: &FermionOperator) -> MajoranaSum {
    let mut m = MajoranaSum::from_fermion(op);
    let _ = m.take_identity();
    m.prune(1e-10);
    m
}

/// A cold (uncached) single-threaded mapper: every `map` constructs.
pub fn cold_mapper(policy: SelectionPolicy) -> Mapper {
    Mapper::builder()
        .policy(policy)
        .threads(1)
        .cache_capacity(0)
        .build()
        .expect("static mapper configuration is valid")
}

/// A cached single-threaded mapper under the default (greedy) policy,
/// the configuration `hattd` serves with, holding at most `capacity`
/// structures.
pub fn cached_mapper(capacity: usize) -> Mapper {
    Mapper::builder()
        .threads(1)
        .cache_capacity(capacity)
        .build()
        .expect("static mapper configuration is valid")
}

/// Exact outputs and work counters of one compiled Hamiltonian.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub pauli_weight: u64,
    pub cnot: u64,
    pub depth: u64,
    pub gates_before: u64,
    pub gates_after: u64,
    pub qubit_terms: u64,
    pub candidates: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub traversal_steps: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.pauli_weight += o.pauli_weight;
        self.cnot += o.cnot;
        self.depth += o.depth;
        self.gates_before += o.gates_before;
        self.gates_after += o.gates_after;
        self.qubit_terms += o.qubit_terms;
        self.candidates += o.candidates;
        self.memo_hits += o.memo_hits;
        self.memo_misses += o.memo_misses;
        self.traversal_steps += o.traversal_steps;
    }

    fn construction(m: &HattMapping) -> Counts {
        let s = m.stats();
        Counts {
            candidates: s.total_candidates(),
            memo_hits: s.memo_hits,
            memo_misses: s.memo_misses,
            traversal_steps: s.total_traversal_steps(),
            ..Counts::default()
        }
    }
}

/// Times one library call into `stages`; records it as a leaf span
/// when tracing.
fn stage<T>(
    log: &mut SpanLog,
    stages: &mut Vec<(&'static str, f64)>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t = Instant::now();
    let out = f();
    let ms = ms_since(t);
    log.leaf(name, ms);
    stages.push((name, ms));
    out
}

/// Result of pushing one Hamiltonian through the pipeline.
pub struct Compiled {
    pub mapping: HattMapping,
    pub counts: Counts,
    /// Wall time of each library call, ms, in call order.
    pub stages: Vec<(&'static str, f64)>,
    pub total_ms: f64,
}

impl Compiled {
    /// Divides every time by the host's slowdown during the call (see
    /// [`crate::host`]).
    pub fn rescale(&mut self, slowdown: f64) {
        for (_, ms) in &mut self.stages {
            *ms /= slowdown;
        }
        self.total_ms /= slowdown;
    }

    pub fn stage_ms(&self, name: &str) -> f64 {
        self.stages
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, ms)| ms)
            .sum()
    }
}

/// Construct → map → Trotter step → optimize, each stage a span under
/// a `compile` span. `circuit: false` stops after the map (the
/// construction workload's loop).
pub fn compile(
    mapper: &Mapper,
    h: &MajoranaSum,
    circuit: bool,
    log: &mut SpanLog,
) -> Result<Compiled, String> {
    let t0 = Instant::now();
    log.enter();
    let mut stages = Vec::new();
    let mapping =
        stage(log, &mut stages, CONSTRUCT, || mapper.map(h)).map_err(|e| format!("map: {e}"))?;
    let hq = stage(log, &mut stages, "pauli.map", || {
        mapping.map_majorana_sum(h)
    });
    let mut counts = Counts::construction(&mapping);
    counts.pauli_weight = hq.weight() as u64;
    counts.qubit_terms = hq.n_terms() as u64;
    if circuit {
        let c = stage(log, &mut stages, "circuit.trotter", || {
            trotter_circuit(&hq, 1.0, 1, TermOrder::Lexicographic)
        });
        let o = stage(log, &mut stages, "circuit.optimize", || optimize(&c));
        let m = o.metrics();
        counts.cnot = m.cnot as u64;
        counts.depth = m.depth as u64;
        counts.gates_before = c.len() as u64;
        counts.gates_after = o.len() as u64;
    }
    let total_ms = ms_since(t0);
    log.exit("compile", total_ms);
    Ok(Compiled {
        mapping,
        counts,
        stages,
        total_ms,
    })
}

/// The construction stage's name, as spans and stage lists carry it.
pub const CONSTRUCT: &str = "core.construct";

/// Preprocess (`from_fermion`) then [`compile`], under one `case` span.
pub fn compile_fermion(
    mapper: &Mapper,
    op: &FermionOperator,
    log: &mut SpanLog,
) -> Result<Compiled, String> {
    let t0 = Instant::now();
    log.enter();
    let mut stages = Vec::new();
    let h = stage(log, &mut stages, "fermion.from_fermion", || preprocess(op));
    let mut c = compile(mapper, &h, true, log)?;
    stages.append(&mut c.stages);
    c.stages = stages;
    c.total_ms = ms_since(t0);
    log.exit("case", c.total_ms);
    Ok(c)
}

/// Sum over cases and stages of each call's median time across
/// repetitions, s: `runs[r][case]` holds one repetition's stage times.
/// Medians per call, rather than the median of whole passes, keep one
/// slow moment of a noisy host from moving the total.
pub fn sum_of_medians(runs: &[Vec<Vec<(&'static str, f64)>>], only: Option<&str>) -> f64 {
    let Some(first) = runs.first() else {
        return 0.0;
    };
    let mut total_ms = 0.0;
    for (case, stages) in first.iter().enumerate() {
        for (k, (name, _)) in stages.iter().enumerate() {
            if only.is_some_and(|o| o != *name) {
                continue;
            }
            let samples: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get(case)?.get(k))
                .map(|(_, ms)| *ms)
                .collect();
            total_ms += median(&samples);
        }
    }
    total_ms / 1e3
}

/// Exact counters and mappings from one cold full-pipeline pass per
/// repetition over a Hamiltonian set, with the per-call stage times of
/// every repetition.
pub struct ReferencePass {
    pub counts: Counts,
    pub per_case: Vec<Counts>,
    pub mappings: Vec<HattMapping>,
    pub runs: Vec<Vec<Vec<(&'static str, f64)>>>,
    pub spans: Vec<SpanRec>,
}

impl ReferencePass {
    pub fn compile_s(&self) -> f64 {
        sum_of_medians(&self.runs, None)
    }

    pub fn construct_s(&self) -> f64 {
        sum_of_medians(&self.runs, Some(CONSTRUCT))
    }
}

pub fn reference_pass(
    hs: &[MajoranaSum],
    policy: SelectionPolicy,
    repeats: usize,
    traced: bool,
    host_exponent: f64,
) -> Result<ReferencePass, String> {
    let mapper = cold_mapper(policy);
    let mut log = SpanLog::new(traced);
    let mut clock = HostClock::new(host_exponent);
    let mut pass = ReferencePass {
        counts: Counts::default(),
        per_case: Vec::new(),
        mappings: Vec::new(),
        runs: Vec::new(),
        spans: Vec::new(),
    };
    for r in 0..repeats.max(1) {
        let mut run = Vec::new();
        for h in hs {
            let mut c = compile(&mapper, h, true, &mut log)?;
            c.rescale(clock.slowdown());
            if r == 0 {
                pass.counts.add(&c.counts);
                pass.per_case.push(c.counts.clone());
                pass.mappings.push(c.mapping);
            } else if pass.per_case[run.len()] != c.counts {
                return Err("a repeated cold compile changed its exact counters".into());
            }
            run.push(c.stages);
        }
        pass.runs.push(run);
    }
    pass.spans = log.finish();
    Ok(pass)
}

/// A one-term edit: a random quartic Majorana monomial is added when
/// absent from `h` and removed when present, so edit chains never run
/// out of terms on small Hamiltonians.
pub fn one_term_delta(h: &MajoranaSum, rng: &mut Rng) -> HamiltonianDelta {
    let m = 2 * h.n_modes();
    let mut idx: Vec<u32> = Vec::with_capacity(4);
    while idx.len() < 4 {
        let i = rng.range(0, m) as u32;
        if !idx.contains(&i) {
            idx.push(i);
        }
    }
    idx.sort_unstable();
    let mut d = HamiltonianDelta::new(h.n_modes());
    let present = h.coefficient_of(&idx);
    let edit = if present == Complex64::ZERO {
        d.push_add(Complex64::real(0.25), &idx)
    } else {
        d.push_remove(present, &idx)
    };
    edit.expect("a canonical quartic with a non-zero coefficient is a valid edit");
    d
}

/// The edit streams of the cache probes are fixed, not seeded: a remap's
/// cost depends on where its edit lands, and with the few remaps a run
/// affords at large N the seed, not the code, would decide the metric.
/// Each Hamiltonian's stream derives from its structure, so it does not
/// depend on the order the workload visits them in either.
const PROBE_EDITS_SEED: u64 = 0x5EED_ED17;

/// In-process cache probes on a set of Hamiltonians: one warm-cache hit
/// each, then rounds of one one-term edit each, remapped from the
/// previous (cached) state. Every round covers every Hamiltonian once,
/// so the mix of sizes behind the percentiles is the same however many
/// rounds a run fits; callers run a fixed number of rounds, spread over
/// the run so one slow moment of the host does not set the result.
pub struct CacheProbe {
    mapper: Mapper,
    cold: Mapper,
    clock: HostClock,
    rngs: Vec<Rng>,
    current: Vec<MajoranaSum>,
    rounds: usize,
    remaps_before: u64,
    pub warm_ms: Vec<f64>,
    pub remap_ms: Vec<f64>,
    pub mismatches: u64,
}

impl CacheProbe {
    /// A probe whose remaps slow by the host kernel's slowdown raised
    /// to `host_exponent` (see [`crate::host`]).
    pub fn new(hs: &[MajoranaSum], host_exponent: f64) -> Result<CacheProbe, String> {
        // Room for two rounds of states: a remap finds its predecessor
        // (inserted one round earlier), and memory stays the same however
        // many rounds a run fits, so `peak_rss_mb` does not track speed.
        let mapper = cached_mapper(2 * hs.len().max(1));
        let mut warm_ms = Vec::new();
        for h in hs {
            mapper.map(h).map_err(|e| format!("warm: {e}"))?;
            let t = Instant::now();
            let hit = mapper.map(h).map_err(|e| format!("warm: {e}"))?;
            warm_ms.push(ms_since(t));
            std::hint::black_box(hit);
        }
        let remaps_before = mapper.cache().remaps();
        Ok(CacheProbe {
            mapper,
            cold: cold_mapper(SelectionPolicy::default()),
            clock: HostClock::new(host_exponent),
            rngs: hs
                .iter()
                .map(|h| Rng::new(PROBE_EDITS_SEED ^ structure_key(h)))
                .collect(),
            current: hs.to_vec(),
            rounds: 0,
            remaps_before,
            warm_ms,
            remap_ms: Vec::new(),
            mismatches: 0,
        })
    }

    /// One edit per Hamiltonian; the first round is checked against
    /// cold builds. Remap times are at the reference host speed, with
    /// the host's slowdown taken over the whole round: a reference
    /// sample between two sub-millisecond remaps would evict their
    /// working set and time cold-cache remaps instead.
    pub fn round(&mut self) -> Result<(), String> {
        let first = self.remap_ms.len();
        self.clock.mark();
        for k in 0..self.current.len() {
            let delta = one_term_delta(&self.current[k], &mut self.rngs[k]);
            let next = delta
                .apply(&self.current[k])
                .map_err(|e| format!("delta: {e}"))?;
            let t = Instant::now();
            let remapped = self
                .mapper
                .remap(&self.current[k], &delta)
                .map_err(|e| format!("remap: {e}"))?;
            self.remap_ms.push(ms_since(t));
            if self.rounds == 0 {
                let fresh = self.cold.map(&next).map_err(|e| format!("map: {e}"))?;
                if !same_mapping(&remapped, &fresh) {
                    self.mismatches += 1;
                }
            }
            self.current[k] = next;
        }
        let slowdown = self.clock.slowdown();
        for ms in &mut self.remap_ms[first..] {
            *ms /= slowdown;
        }
        self.rounds += 1;
        Ok(())
    }

    /// Runs rounds until `rounds` have run in all.
    pub fn run_to(&mut self, rounds: usize) -> Result<(), String> {
        while self.rounds < rounds {
            self.round()?;
        }
        Ok(())
    }

    /// The remap latencies of each round, ms.
    pub fn rounds_ms(&self) -> std::slice::Chunks<'_, f64> {
        self.remap_ms.chunks(self.current.len().max(1))
    }

    /// Remaps that took the incremental path.
    pub fn remaps(&self) -> u64 {
        self.mapper.cache().remaps() - self.remaps_before
    }
}

/// A probe that runs `rounds` rounds back to back.
pub fn cache_probes(
    hs: &[MajoranaSum],
    rounds: usize,
    host_exponent: f64,
) -> Result<CacheProbe, String> {
    let mut probe = CacheProbe::new(hs, host_exponent)?;
    probe.run_to(rounds.max(1))?;
    Ok(probe)
}

/// Bit-identity of two constructions: tree and per-step settled weights.
pub fn same_mapping(a: &HattMapping, b: &HattMapping) -> bool {
    let weights = |m: &HattMapping| -> Vec<usize> {
        m.stats()
            .iterations
            .iter()
            .map(|it| it.settled_weight)
            .collect()
    };
    a.tree() == b.tree() && weights(a) == weights(b)
}

/// Client-side codec timing on request lines: encode, decode, size.
#[derive(Debug, Default)]
pub struct CodecTimes {
    pub encode_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub bytes: Vec<f64>,
}

/// Lines above this size are encoded and measured but not decoded: the
/// wire parser's cost grows quadratically with line length, and a
/// 1 MB line would take the whole run.
pub const DECODE_LIMIT_BYTES: usize = 256 * 1024;

pub fn codec_probe(hs: &[MajoranaSum]) -> Result<CodecTimes, String> {
    let mut out = CodecTimes::default();
    for (i, h) in hs.iter().enumerate() {
        let req = MapRequest::new(format!("g{i}"), vec![h.clone()]);
        let t = Instant::now();
        let line = req.to_line();
        out.encode_ms.push(ms_since(t));
        out.bytes.push(line.len() as f64);
        if line.len() <= DECODE_LIMIT_BYTES {
            let t = Instant::now();
            let back = MapRequest::from_line(&line).map_err(|e| format!("decode: {e}"))?;
            out.decode_ms.push(ms_since(t));
            if back.hamiltonians.first() != Some(h) {
                return Err("request line did not round-trip".into());
            }
        }
    }
    Ok(out)
}
