//! The two in-process workloads: the paper's compile pipeline over the
//! Table I / neutrino catalog, and cold constructions at large N.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use hatt_fermion::models::{molecule_catalog, random_hermitian, NeutrinoModel};
use hatt_fermion::{FermionOperator, MajoranaSum};
use hatt_mappings::{jordan_wigner, FermionMapping, SelectionPolicy};

use crate::host::{HostClock, LARGE_CONSTRUCTIONS_EXPONENT, SMALL_CALLS_EXPONENT};
use crate::pipeline::{self, compile, compile_fermion, CacheProbe, Compiled, Counts};
use crate::trace::{self_totals, SpanLog, SpanRec};
use crate::util::{median, percentile, Metrics, Rng};
use crate::{serve, Ctx, RunOut};

/// HATT Pauli weights pinned by the golden suite (restart portfolio).
const GOLDEN_WEIGHTS: &[(&str, u64)] = &[
    ("H2 sto3g", 32),
    ("LiH sto3g frz", 264),
    ("LiH sto3g", 3800),
    ("H2O sto3g", 7276),
    ("CH4 sto3g", 18531),
    ("neutrino 3x2F", 234),
    ("neutrino 4x2F", 1020),
    ("neutrino 5x2F", 2484),
];

/// One pass of a closed loop over the workload's cases.
struct Pass {
    total_s: f64,
    /// Latency of each case's operation, ms.
    op_ms: Vec<f64>,
    /// Per case, the wall time of each library call, ms.
    stages: Vec<Vec<(&'static str, f64)>>,
    per_case: Vec<Counts>,
    spans: Vec<SpanRec>,
}

impl Pass {
    fn new() -> Pass {
        Pass {
            total_s: 0.0,
            op_ms: Vec::new(),
            stages: Vec::new(),
            per_case: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn push(&mut self, op_ms: f64, c: Compiled) {
        self.total_s += c.total_ms / 1e3;
        self.op_ms.push(op_ms);
        self.stages.push(c.stages);
        self.per_case.push(c.counts);
    }

    fn counts(&self) -> Counts {
        let mut c = Counts::default();
        for k in &self.per_case {
            c.add(k);
        }
        c
    }
}

/// Runs whole passes until `seconds` have elapsed (at least one),
/// calling `between` after each pass, outside its timing. A pass's
/// time is the sum of its calls' times at the reference host speed.
fn loop_passes(
    seconds: f64,
    traced: bool,
    host_exponent: f64,
    one: &mut dyn FnMut(&mut SpanLog, &mut HostClock) -> Result<Pass, String>,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Vec<Pass>, String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    let mut clock = HostClock::new(host_exponent);
    let mut wall_s = Vec::new();
    while passes.is_empty() || Instant::now() < deadline {
        let mut log = SpanLog::new(traced);
        let t = Instant::now();
        clock.mark();
        let mut pass = one(&mut log, &mut clock)?;
        wall_s.push(t.elapsed().as_secs_f64());
        pass.spans = log.finish();
        passes.push(pass);
        between()?;
    }
    eprintln!(
        "perfbench: {} passes, median {:.4} s wall (with reference samples), {:.4} s at reference speed; \
         reference kernel median {:.3} ms of {} samples, {} ms at reference speed",
        passes.len(),
        median(&wall_s),
        median(&passes.iter().map(|p| p.total_s).collect::<Vec<_>>()),
        median(&clock.samples),
        clock.samples.len(),
        crate::host::REFERENCE_MS
    );
    Ok(passes)
}

/// Spreads a fixed number of cache-probe rounds evenly over a loop of
/// `seconds`: every run times the same rounds, and so the same edits,
/// however many passes the host fits.
struct RoundSchedule {
    start: Instant,
    seconds: f64,
    total: usize,
}

impl RoundSchedule {
    fn new(seconds: f64, total: usize) -> RoundSchedule {
        RoundSchedule {
            start: Instant::now(),
            seconds,
            total,
        }
    }

    /// Rounds that should have run by now.
    fn due(&self) -> usize {
        let share = self.start.elapsed().as_secs_f64() / self.seconds;
        ((share * self.total as f64).ceil() as usize).min(self.total)
    }
}

/// The untraced loop for `seconds`, or, traced, an untraced half and a
/// traced half whose pass times give `trace.overhead_pct`.
fn measure(
    ctx: &Ctx,
    m: &mut Metrics,
    host_exponent: f64,
    mut one: impl FnMut(&mut SpanLog, &mut HostClock) -> Result<Pass, String>,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<Pass>, Vec<Pass>), String> {
    if !ctx.trace {
        let passes = loop_passes(ctx.seconds, false, host_exponent, &mut one, &mut between)?;
        return Ok((passes, Vec::new()));
    }
    let half = ctx.seconds / 2.0;
    let plain = loop_passes(half, false, host_exponent, &mut one, &mut between)?;
    let traced = loop_passes(half, true, host_exponent, &mut one, &mut between)?;
    let t0 = median(&plain.iter().map(|p| p.total_s).collect::<Vec<_>>());
    let t1 = median(&traced.iter().map(|p| p.total_s).collect::<Vec<_>>());
    m.set("trace.overhead_pct", (t1 / t0 - 1.0) * 100.0, "%");
    Ok((plain, traced))
}

/// Checks that every pass produced identical exact counters.
fn check_deterministic(passes: &[&Pass], out: &mut RunOut) {
    for (k, p) in passes.iter().enumerate().skip(1) {
        if p.per_case != passes[0].per_case {
            out.fail(format!("pass {k}: exact counters differ from pass 0"));
        }
    }
}

fn stage_runs(passes: &[&Pass]) -> Vec<Vec<Vec<(&'static str, f64)>>> {
    passes.iter().map(|p| p.stages.clone()).collect()
}

/// The median over windows (passes, probe rounds) of each window's `q`
/// quantile: with a few dozen samples a run, a pooled p99 is the single
/// slowest sample, which one stall of the host sets.
fn median_of<'a>(windows: impl Iterator<Item = &'a [f64]>, q: f64) -> f64 {
    median(&windows.map(|w| percentile(w, q)).collect::<Vec<_>>())
}

/// Latency percentiles and closed-loop throughput of the passes.
fn loop_metrics(passes: &[&Pass], m: &mut Metrics) {
    let ops: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.op_ms.iter().copied())
        .collect();
    let wall: f64 = passes.iter().map(|p| p.total_s).sum();
    m.set("p50_ms", median(&ops), "ms");
    m.set(
        "p99_ms",
        median_of(passes.iter().map(|p| p.op_ms.as_slice()), 0.99),
        "ms",
    );
    m.set("knee_rps", ops.len() as f64 / wall, "1/s");
    m.set(
        "construct_s",
        pipeline::sum_of_medians(&stage_runs(passes), Some(pipeline::CONSTRUCT)),
        "s",
    );
}

/// Span names of the compile pipeline's calls and their per-layer metrics.
pub const COMPILE_STAGES: [(&str, &str); 4] = [
    (pipeline::CONSTRUCT, "core.construct_ms"),
    ("pauli.map", "pauli.map_ms"),
    ("circuit.trotter", "circuit.trotter_ms"),
    ("circuit.optimize", "circuit.optimize_ms"),
];

/// Per-layer self times of the named spans, ms per pass (median over
/// passes); names no pass recorded are left unset.
pub fn span_metrics(spans_per_pass: &[&[SpanRec]], names: &[(&str, &str)], m: &mut Metrics) {
    let per_pass: Vec<BTreeMap<String, f64>> =
        spans_per_pass.iter().map(|s| self_totals(s)).collect();
    for (span, metric) in names {
        let v: Vec<f64> = per_pass
            .iter()
            .filter_map(|p| p.get(*span).copied())
            .collect();
        if !v.is_empty() {
            m.set(metric, median(&v), "ms");
        }
    }
}

pub fn counter_metrics(c: &Counts, m: &mut Metrics) {
    m.count("core.candidates", c.candidates);
    m.count("core.memo_hits", c.memo_hits);
    m.count("core.memo_misses", c.memo_misses);
    let probes = (c.memo_hits + c.memo_misses).max(1);
    m.set(
        "core.memo_hit_ratio",
        c.memo_hits as f64 / probes as f64,
        "ratio",
    );
    m.count("core.traversal_steps", c.traversal_steps);
    m.count("pauli.qubit_terms", c.qubit_terms);
    m.count("circuit.gates_before", c.gates_before);
    m.count("circuit.gates_after", c.gates_after);
}

pub fn quality_metrics(c: &Counts, m: &mut Metrics) {
    m.count("pauli_weight", c.pauli_weight);
    m.count("cnot_count", c.cnot);
    m.count("circuit_depth", c.depth);
}

/// HATT must never lose to Jordan–Wigner on the workload's inputs.
fn check_vs_jw(names: &[String], hs: &[MajoranaSum], per_case: &[Counts], out: &mut RunOut) {
    for ((name, h), c) in names.iter().zip(hs).zip(per_case) {
        let jw = jordan_wigner(h.n_modes()).map_majorana_sum(h).weight() as u64;
        if c.pauli_weight > jw {
            out.fail(format!(
                "{name}: HATT weight {} loses to JW {jw}",
                c.pauli_weight
            ));
        }
    }
}

/// Checks a cache probe and reports its `core.*` per-layer times and,
/// for a workload without a `map_delta` stream of its own, the delta
/// metrics.
pub fn probe_metrics(probe: &CacheProbe, m: &mut Metrics, out: &mut RunOut) {
    if probe.mismatches > 0 {
        out.fail(format!(
            "{} remaps differ from a fresh build",
            probe.mismatches
        ));
    }
    if probe.remaps() == 0 {
        out.fail("no remap took the incremental path".into());
    }
    out.attempted += probe.remap_ms.len() as u64;
    m.set("core.warm_map_ms", median(&probe.warm_ms), "ms");
    m.set("core.remap_ms", median(&probe.remap_ms), "ms");
    m.set("delta_p50_ms", median(&probe.remap_ms), "ms");
    m.set("delta_p99_ms", median_of(probe.rounds_ms(), 0.99), "ms");
}

pub fn codec_metrics(hs: &[MajoranaSum], m: &mut Metrics) -> Result<(), String> {
    let codec = pipeline::codec_probe(hs)?;
    m.set("proto.encode_ms", median(&codec.encode_ms), "ms");
    m.set("proto.decode_ms", median(&codec.decode_ms), "ms");
    m.set("proto.request_bytes", median(&codec.bytes), "bytes");
    Ok(())
}

/// Per-layer metrics shared by the in-process workloads' traced runs.
fn traced_tail(
    ctx: &Ctx,
    hs: &[MajoranaSum],
    counts: &Counts,
    rng: &mut Rng,
    m: &mut Metrics,
    out: &mut RunOut,
) -> Result<(), String> {
    counter_metrics(counts, m);
    codec_metrics(hs, m)?;
    serve::probe(ctx, hs, rng, m, out, serve::ProbeLayers::All)
}

/// Remap rounds of a compile_molecules run (one edit per case, ~1 ms a
/// remap) and of a construct_scale run (one edit per instance, ~0.2 s).
/// The median remap is an order statistic of a wide mix of sizes and
/// edits: with 24 and 12 rounds it moved by 0.13–0.17 and 0.04–0.10 of
/// itself between runs of ten seeds, with 72 and 12 by 0.09 and 0.10.
const COMPILE_PROBE_ROUNDS: usize = 120;
const SCALE_PROBE_ROUNDS: usize = 18;

/// `compile_molecules`: the Table I catalog plus neutrino 3x2F–5x2F
/// through preprocess → cold restarts construction → map → one
/// optimized Trotter step, in a closed loop. The seed orders the cases.
pub fn compile_molecules(ctx: &Ctx) -> Result<RunOut, String> {
    let mut out = RunOut::default();
    let (cases, setup_s) = HostClock::new(SMALL_CALLS_EXPONENT).timed_setup(|| {
        let mut cases: Vec<(String, FermionOperator)> = molecule_catalog()
            .into_iter()
            .map(|spec| (spec.name.to_string(), spec.hamiltonian()))
            .collect();
        for sites in 3..=5 {
            let model = NeutrinoModel::new(sites, 2);
            cases.push((format!("neutrino {sites}x2F"), model.hamiltonian()));
        }
        Rng::new(ctx.seed).shuffle(&mut cases);
        Ok(cases)
    })?;
    let names: Vec<String> = cases.iter().map(|(n, _)| n.clone()).collect();
    let hs: Vec<MajoranaSum> = cases
        .iter()
        .map(|(_, op)| pipeline::preprocess(op))
        .collect();
    let mapper = pipeline::cold_mapper(SelectionPolicy::quality());
    let mut probe = CacheProbe::new(&hs, SMALL_CALLS_EXPONENT)?;
    let rounds = RoundSchedule::new(ctx.seconds, COMPILE_PROBE_ROUNDS);
    let mut m = Metrics::default();
    let (plain, traced) = measure(
        ctx,
        &mut m,
        SMALL_CALLS_EXPONENT,
        |log, clock| {
            let mut pass = Pass::new();
            for (_, op) in &cases {
                let mut c = compile_fermion(&mapper, op, log)?;
                c.rescale(clock.slowdown());
                pass.push(c.total_ms, c);
            }
            Ok(pass)
        },
        || probe.run_to(rounds.due()),
    )?;
    probe.run_to(rounds.total)?;
    probe_metrics(&probe, &mut m, &mut out);
    let passes: Vec<&Pass> = plain.iter().chain(&traced).collect();
    out.attempted += passes.iter().map(|p| p.op_ms.len() as u64).sum::<u64>();
    check_deterministic(&passes, &mut out);
    for (name, c) in names.iter().zip(&passes[0].per_case) {
        if let Some((_, want)) = GOLDEN_WEIGHTS.iter().find(|(n, _)| n == name) {
            if c.pauli_weight != *want {
                out.fail(format!(
                    "{name}: pauli_weight {} != golden {want}",
                    c.pauli_weight
                ));
            }
        }
    }
    check_vs_jw(&names, &hs, &passes[0].per_case, &mut out);

    let counts = passes[0].counts();
    let mut rng = Rng::new(ctx.seed ^ 0xDE17A);
    if ctx.trace {
        let spans: Vec<&[SpanRec]> = traced.iter().map(|p| p.spans.as_slice()).collect();
        span_metrics(
            &spans,
            &[("fermion.from_fermion", "fermion.from_fermion_ms")],
            &mut m,
        );
        span_metrics(&spans, &COMPILE_STAGES, &mut m);
        traced_tail(ctx, &hs, &counts, &mut rng, &mut m, &mut out)?;
    } else {
        m.set(
            "compile_s",
            pipeline::sum_of_medians(&stage_runs(&passes), None),
            "s",
        );
        loop_metrics(&passes, &mut m);
        quality_metrics(&counts, &mut m);
        m.set("setup_s", setup_s, "s");
        m.set("peak_rss_mb", crate::util::peak_rss_mb("self"), "MB");
    }
    out.metrics = m;
    Ok(out)
}

/// `construct_scale`: cold greedy constructions of the §V-E chain
/// `H_F = Σ M_i` at N = 192 and 256 plus the dense molecule-shaped
/// instance at N = 128 of the perf harness's `dense_molecule` sweep, in
/// a closed loop. The seed orders the cases; the instances are fixed
/// because the loop fits few constructions, and a seeded instance's
/// cost would move the percentiles more than the code does.
pub fn construct_scale(ctx: &Ctx) -> Result<RunOut, String> {
    let mut out = RunOut::default();
    let mut from_fermion_ms = Vec::new();
    let (cases, setup_s) = HostClock::new(SMALL_CALLS_EXPONENT).timed_setup(|| {
        let op = random_hermitian(128, 256, 512, 0xDE5E + 128);
        let t = Instant::now();
        let dense = pipeline::preprocess(&op);
        from_fermion_ms.push(crate::util::ms_since(t));
        let mut cases = vec![
            ("chain 192".to_string(), MajoranaSum::uniform_singles(192)),
            ("chain 256".to_string(), MajoranaSum::uniform_singles(256)),
            ("dense 128".to_string(), dense),
        ];
        Rng::new(ctx.seed).shuffle(&mut cases);
        Ok(cases)
    })?;
    let hs: Vec<MajoranaSum> = cases.iter().map(|(_, h)| h.clone()).collect();
    let names: Vec<String> = cases.iter().map(|(n, _)| n.clone()).collect();
    let mapper = pipeline::cold_mapper(SelectionPolicy::default());
    let mut probe = CacheProbe::new(&hs, LARGE_CONSTRUCTIONS_EXPONENT)?;
    let rounds = RoundSchedule::new(ctx.seconds, SCALE_PROBE_ROUNDS);
    let mut m = Metrics::default();
    let (plain, traced) = measure(
        ctx,
        &mut m,
        LARGE_CONSTRUCTIONS_EXPONENT,
        |log, clock| {
            let mut pass = Pass::new();
            for h in &hs {
                let mut c = compile(&mapper, h, false, log)?;
                c.rescale(clock.slowdown());
                pass.push(c.stage_ms(pipeline::CONSTRUCT), c);
            }
            Ok(pass)
        },
        || probe.run_to(rounds.due()),
    )?;
    probe.run_to(rounds.total)?;
    probe_metrics(&probe, &mut m, &mut out);
    let passes: Vec<&Pass> = plain.iter().chain(&traced).collect();
    out.attempted += passes.iter().map(|p| p.op_ms.len() as u64).sum::<u64>();
    check_deterministic(&passes, &mut out);
    check_vs_jw(&names, &hs, &passes[0].per_case, &mut out);

    // Full-pipeline passes add the circuit stages and their counts.
    let reference = pipeline::reference_pass(
        &hs,
        SelectionPolicy::default(),
        5,
        ctx.trace,
        LARGE_CONSTRUCTIONS_EXPONENT,
    )?;
    for ((name, loop_counts), ref_counts) in names
        .iter()
        .zip(&passes[0].per_case)
        .zip(&reference.per_case)
    {
        if loop_counts.pauli_weight != ref_counts.pauli_weight
            || loop_counts.candidates != ref_counts.candidates
        {
            out.fail(format!("{name}: reference pass disagrees with the loop"));
        }
    }
    let mut counts = passes[0].counts();
    counts.cnot = reference.counts.cnot;
    counts.depth = reference.counts.depth;
    counts.gates_before = reference.counts.gates_before;
    counts.gates_after = reference.counts.gates_after;
    let mut rng = Rng::new(ctx.seed ^ 0x5CA1E);
    if ctx.trace {
        // Construct and map from the loop; the circuit stages from the
        // reference passes, the only ones that build circuits.
        let spans: Vec<&[SpanRec]> = traced.iter().map(|p| p.spans.as_slice()).collect();
        span_metrics(&spans, &COMPILE_STAGES[..2], &mut m);
        span_metrics(&[reference.spans.as_slice()], &COMPILE_STAGES[2..], &mut m);
        m.set("fermion.from_fermion_ms", median(&from_fermion_ms), "ms");
        traced_tail(ctx, &hs, &counts, &mut rng, &mut m, &mut out)?;
    } else {
        let circuits = pipeline::sum_of_medians(&reference.runs, Some("circuit.trotter"))
            + pipeline::sum_of_medians(&reference.runs, Some("circuit.optimize"));
        m.set(
            "compile_s",
            pipeline::sum_of_medians(&stage_runs(&passes), None) + circuits,
            "s",
        );
        loop_metrics(&passes, &mut m);
        quality_metrics(&counts, &mut m);
        m.set("setup_s", setup_s, "s");
        m.set("peak_rss_mb", crate::util::peak_rss_mb("self"), "MB");
    }
    out.metrics = m;
    Ok(out)
}
