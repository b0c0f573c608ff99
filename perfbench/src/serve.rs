//! The two serving workloads, driven over TCP against release `hattd`
//! child processes, and the routed probe that gives the in-process
//! workloads their service-layer numbers on their own inputs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hatt_core::HattMapping;
use hatt_fermion::models::random_hermitian;
use hatt_fermion::{FermionOperator, HamiltonianDelta, MajoranaSum};
use hatt_mappings::SelectionPolicy;
use hatt_service::{ItemPayload, MapDeltaRequest, MapRequest, ResponseLine, StatsReply};

use crate::daemon::{base_flags, Cluster, Daemon};
use crate::gen::{self, Outcome, Req, Verb};
use crate::host::SMALL_CALLS_EXPONENT;
use crate::library;
use crate::pipeline::{self, one_term_delta, preprocess, same_mapping};
use crate::trace::{from_dumps, stage_median, SpanRec};
use crate::util::{median, ms_since, percentile, timed_setup, Metrics, Rng};
use crate::{Ctx, RunOut};

/// Replies later than this after the last send count as failed.
const GRACE: Duration = Duration::from_secs(3);

/// One request before scheduling: its line, verb, and what it maps.
struct Line {
    bytes: Vec<u8>,
    verb: Verb,
    /// The Hamiltonian the reply must be the mapping of.
    target: MajoranaSum,
}

fn map_line(i: usize, h: &MajoranaSum) -> Line {
    let mut bytes = MapRequest::new(format!("g{i}"), vec![h.clone()])
        .to_line()
        .into_bytes();
    bytes.push(b'\n');
    Line {
        bytes,
        verb: Verb::Map,
        target: h.clone(),
    }
}

fn delta_line(i: usize, h: &MajoranaSum, d: &HamiltonianDelta) -> Line {
    let mut bytes = MapDeltaRequest::new(format!("g{i}"), h.clone(), d.clone())
        .to_line()
        .into_bytes();
    bytes.push(b'\n');
    let target = d.apply(h).expect("generated deltas apply");
    Line {
        bytes,
        verb: Verb::Delta,
        target,
    }
}

/// Evenly spaced sends at `rate` per second.
fn schedule(lines: &[Line], rate: f64) -> Arc<Vec<Req>> {
    Arc::new(
        lines
            .iter()
            .enumerate()
            .map(|(i, l)| Req {
                line: l.bytes.clone(),
                verb: l.verb,
                due: Duration::from_secs_f64(i as f64 / rate),
            })
            .collect(),
    )
}

/// Decodes a kept `map_item` line into its mapping and served weight;
/// `None` for a typed error item (counted as a failed request instead).
fn served(line: &str) -> Result<Option<(HattMapping, usize)>, String> {
    match ResponseLine::from_line(line).map_err(|e| format!("reply decode: {e}"))? {
        ResponseLine::Item(item) => match item.payload {
            ItemPayload::Ok {
                mapping,
                pauli_weight,
            } => Ok(Some((mapping, pauli_weight))),
            ItemPayload::Err(_) => Ok(None),
        },
        ResponseLine::Done(_) => Err("kept a map_done line".into()),
    }
}

/// Checks every kept reply bit-identical to a cold in-process build of
/// the Hamiltonian its request targeted.
fn verify_replies(lines: &[Line], outcome: &Outcome, out: &mut RunOut) {
    let cold = pipeline::cold_mapper(SelectionPolicy::default());
    for (i, line) in &outcome.kept {
        let decoded = match served(line) {
            Ok(None) => continue,
            Ok(Some(d)) => Ok(d),
            Err(e) => Err(e),
        };
        let target = &lines[*i].target;
        match (decoded, cold.map(target).map_err(|e| e.to_string())) {
            (Ok((got, weight)), Ok(want)) => {
                use hatt_mappings::FermionMapping;
                if !same_mapping(&got, &want) {
                    out.fail(format!(
                        "request {i}: served tree differs from an in-process build"
                    ));
                } else if weight != want.map_majorana_sum(target).weight() {
                    out.fail(format!(
                        "request {i}: served pauli_weight {weight} is wrong"
                    ));
                }
            }
            (Err(e), _) | (_, Err(e)) => out.fail(format!("request {i}: {e}")),
        }
    }
}

/// A step of the rate ladder and how it went.
struct Step {
    rate: f64,
    p99: f64,
    /// Completions per second over the step, drain included.
    achieved: f64,
    keeps_up: bool,
    ok: bool,
}

/// Windowed percentile robust to host stalls: the samples (in send
/// order) are cut into as many equal windows of at least `window`
/// samples as they fill, and the median of the windows' `q` quantiles
/// is returned; fewer than two windows' worth is one window.
fn windowed(samples: &[f64], window: usize, q: f64) -> f64 {
    let k = (samples.len() / window.max(1)).max(1);
    let size = samples.len().div_ceil(k).max(1);
    let per_window: Vec<f64> = samples.chunks(size).map(|c| percentile(c, q)).collect();
    median(&per_window)
}

/// A step passes when every request succeeded but a twentieth, the
/// daemon completed at least 95% of the offered rate, and the windowed
/// p99 met the SLO.
fn judge(rate: f64, o: &Outcome, slo_ms: f64) -> Step {
    let all: Vec<f64> = o.map_ms.iter().chain(&o.delta_ms).copied().collect();
    let p99 = windowed(&all, ((rate / 4.0) as usize).max(100), 0.99);
    let keeps_up =
        o.sent > 0 && o.ok as f64 >= 0.95 * o.sent as f64 && o.completed_per_s >= 0.95 * rate;
    Step {
        rate,
        p99,
        achieved: o.completed_per_s,
        keeps_up,
        ok: keeps_up && p99 <= slo_ms,
    }
}

/// The knee: the highest passing rate. When the next step failed for
/// lack of throughput, the throughput it did sustain (between the two
/// rates) is the knee; when it failed on latency alone, the rate is
/// interpolated log-linearly to where p99 crosses the SLO.
fn knee(steps: &[Step], slo_ms: f64) -> f64 {
    let Some(first_fail) = steps.iter().position(|s| !s.ok) else {
        return steps.last().map_or(0.0, |s| s.rate);
    };
    let b = &steps[first_fail];
    if first_fail == 0 {
        return b.achieved.min(b.rate);
    }
    let a = &steps[first_fail - 1];
    if !b.keeps_up {
        return b.achieved.clamp(a.rate, b.rate);
    }
    if b.p99 <= a.p99 {
        return a.rate;
    }
    let f = ((slo_ms / a.p99.max(1e-6)).ln() / (b.p99 / a.p99.max(1e-6)).ln()).clamp(0.0, 1.0);
    a.rate * (b.rate / a.rate).powf(f)
}

/// Sum of counters over daemons; shard and router probes merged.
#[derive(Debug, Default)]
struct ServiceCounters {
    cache_hits: u64,
    cache_misses: u64,
    constructions: u64,
    remaps: u64,
    store_hits: u64,
    store_writes: u64,
    store_write_errors: u64,
    store_file_bytes: u64,
    cancelled: u64,
    wakeups: u64,
    requests: u64,
    spans_recorded: u64,
    spans_dropped: u64,
}

fn counters(stats: &[StatsReply]) -> ServiceCounters {
    let mut c = ServiceCounters::default();
    for s in stats {
        c.cache_hits += s.cache.hits;
        c.cache_misses += s.cache.misses;
        c.constructions += s.constructions;
        c.remaps += s.remaps;
        if let Some(st) = &s.store {
            c.store_hits += st.hits;
            c.store_writes += st.writes;
            c.store_write_errors += st.write_errors;
            c.store_file_bytes += st.file_bytes;
        }
        c.cancelled += s.cancelled_items;
        c.wakeups += s.event_loop_wakeups;
        c.requests += s.verbs.map + s.verbs.map_delta;
        if let Some(t) = &s.trace {
            c.spans_recorded += t.recorded;
            c.spans_dropped += t.dropped;
        }
    }
    c
}

/// Reconciles a router's counters with what the generator sent, and
/// the shards' with what the router forwarded.
fn reconcile_cluster(router: &StatsReply, shards: &[StatsReply], sent: u64, out: &mut RunOut) {
    let verbs = router.verbs.map + router.verbs.map_delta;
    if verbs != sent {
        out.fail(format!(
            "router verbs.map + verbs.map_delta = {verbs}, generator sent {sent}"
        ));
    }
    let routed: u64 = router
        .shards
        .iter()
        .map(|s| s.forwarded + s.errors + s.shed)
        .sum();
    if routed != sent {
        out.fail(format!(
            "router forwarded + errors + shed = {routed}, items routed {sent}"
        ));
    }
    let forwarded: u64 = router.shards.iter().map(|s| s.forwarded).sum();
    let served: u64 = shards.iter().map(|s| s.verbs.map + s.verbs.map_delta).sum();
    if served != forwarded {
        out.fail(format!(
            "shards served {served} items, router forwarded {forwarded}"
        ));
    }
    for s in shards {
        match &s.store {
            Some(st) if st.write_errors == 0 => {}
            Some(st) => out.fail(format!("store.write_errors = {}", st.write_errors)),
            None => out.fail("shard booted without its store".into()),
        }
    }
}

fn reconcile_single(stats: &StatsReply, sent: u64, out: &mut RunOut) {
    let verbs = stats.verbs.map + stats.verbs.map_delta;
    if verbs != sent {
        out.fail(format!(
            "verbs.map + verbs.map_delta = {verbs}, generator sent {sent}"
        ));
    }
}

/// Which service layers a probe reports (the rest come from the
/// workload's own serving run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeLayers {
    All,
    RouterAndStore,
}

fn router_metrics(spans: &[SpanRec], router: &StatsReply, m: &mut Metrics) {
    m.set("router.hash_ms", stage_median(spans, &["route.hash"]), "ms");
    m.set(
        "router.forward_ms",
        stage_median(spans, &["route.forward"]),
        "ms",
    );
    m.count(
        "router.retries",
        spans.iter().filter(|s| s.name == "route.retry").count() as u64,
    );
    m.count(
        "router.forwarded",
        router.shards.iter().map(|s| s.forwarded).sum(),
    );
    m.count(
        "router.errors",
        router.shards.iter().map(|s| s.errors).sum(),
    );
    m.count("router.shed", router.shards.iter().map(|s| s.shed).sum());
}

fn store_metrics(c: &ServiceCounters, m: &mut Metrics) {
    m.count("store.hits", c.store_hits);
    m.count("store.writes", c.store_writes);
    m.count("store.write_errors", c.store_write_errors);
    m.set("store.file_bytes", c.store_file_bytes as f64, "bytes");
}

/// Reactor, scheduler, cache, trace and generator layers of one traced run.
fn serving_layer_metrics(spans: &[SpanRec], c: &ServiceCounters, o: &Outcome, m: &mut Metrics) {
    m.set(
        "reactor.frame_parse_ms",
        stage_median(spans, &["frame.parse"]),
        "ms",
    );
    m.set(
        "reactor.write_drain_ms",
        stage_median(spans, &["write.drain"]),
        "ms",
    );
    m.set(
        "reactor.wakeups_per_req",
        c.wakeups as f64 / c.requests.max(1) as f64,
        "ratio",
    );
    m.set(
        "scheduler.queue_wait_ms",
        stage_median(spans, &["queue.wait", "sched.wait"]),
        "ms",
    );
    m.set(
        "scheduler.dispatch_ms",
        stage_median(spans, &["sched.dispatch"]),
        "ms",
    );
    m.count("scheduler.cancelled", c.cancelled);
    m.count("core.cache_hits", c.cache_hits);
    m.count("core.cache_misses", c.cache_misses);
    m.count("core.constructions", c.constructions);
    m.count("core.remaps", c.remaps);
    m.count("trace.spans_recorded", c.spans_recorded);
    m.count("trace.spans_dropped", c.spans_dropped);
    m.set("gen.late_ms", percentile(&o.late_ms, 0.99), "ms");
    m.count("gen.sent", o.sent);
    m.count("gen.ok", o.ok);
    m.count("gen.failed", o.failed);
    m.set(
        "proto.reply_bytes",
        o.reply_bytes as f64 / o.sent.max(1) as f64,
        "bytes",
    );
}

/// Boots a traced router over two traced store-backed shards, sends
/// each Hamiltonian (whose line the wire parser can take within the
/// run) as a `map` and then a one-term `map_delta` at 50/s, checks and
/// reconciles the replies, and reports the service layers.
pub fn probe(
    ctx: &Ctx,
    hs: &[MajoranaSum],
    rng: &mut Rng,
    m: &mut Metrics,
    out: &mut RunOut,
    layers: ProbeLayers,
) -> Result<(), String> {
    let mut lines = Vec::new();
    for h in hs {
        let i = lines.len();
        let line = map_line(i, h);
        if line.bytes.len() > pipeline::DECODE_LIMIT_BYTES {
            continue;
        }
        lines.push(line);
        let d = one_term_delta(h, rng);
        lines.push(delta_line(i + 1, h, &d));
    }
    if lines.is_empty() {
        return Err("probe: no request line fits the decode limit".into());
    }
    let cluster = Cluster::spawn(&ctx.hattd, &ctx.work.join("probe"), true)?;
    let outcome = gen::run(
        &cluster.router.addr,
        schedule(&lines, 50.0),
        2,
        |_| true,
        GRACE,
    )?;
    out.attempted += outcome.sent;
    out.failed += outcome.failed;
    verify_replies(&lines, &outcome, out);
    let router = cluster.router.stats()?;
    let shards: Vec<StatsReply> = cluster
        .shards
        .iter()
        .map(Daemon::stats)
        .collect::<Result<_, _>>()?;
    reconcile_cluster(&router, &shards, outcome.sent, out);
    let dumps: Vec<_> = cluster
        .daemons()
        .map(Daemon::trace_dump)
        .collect::<Result<_, _>>()?;
    let spans = from_dumps(&dumps);
    let mut all = shards.clone();
    all.push(router.clone());
    let c = counters(&all);
    router_metrics(&spans, &router, m);
    store_metrics(&c, m);
    if layers == ProbeLayers::All {
        serving_layer_metrics(&spans, &c, &outcome, m);
    }
    Ok(())
}

/// Workload shape of a serving run.
struct ServeSpec {
    /// Fixed sub-knee rate the latency metrics are measured at.
    rate: f64,
    /// Rate ladder for the knee, ascending.
    ladder: &'static [f64],
    /// p99 latency limit of the knee, ms.
    slo_ms: f64,
}

const WARM: ServeSpec = ServeSpec {
    rate: 1000.0,
    ladder: &[
        1500.0, 2000.0, 2500.0, 3200.0, 4000.0, 5000.0, 6300.0, 8000.0,
    ],
    slo_ms: 50.0,
};

const EVOLVE: ServeSpec = ServeSpec {
    rate: 12.0,
    ladder: &[14.0, 17.0, 20.0, 24.0, 29.0, 35.0],
    slo_ms: 250.0,
};

/// Share of the run spent at the fixed rate; the ladder gets the rest.
const FIXED_SHARE: f64 = 0.6;

/// The serve_warm roster: 24 small fixed structures (≤ ~100 terms,
/// lines under 2 KB), three at each N = 4..=11. The seed drives the
/// traffic over them, not the structures, so the roster's exact
/// counters are the same for every seed.
fn warm_roster() -> Vec<FermionOperator> {
    (0..24)
        .map(|i| random_hermitian(4 + i / 3, 4 + i / 3, 1, 0x0A11 + i as u64))
        .collect()
}

/// The fixed molecule-shaped instances serve_evolve reports its exact
/// counters and `compile_s` on: one per N = 12, 14, …, 22.
fn evolve_reference() -> Vec<FermionOperator> {
    (0..6)
        .map(|i| {
            let n = 12 + 2 * i;
            random_hermitian(n, 2 * n, 4 * n, 0xE701 + i as u64)
        })
        .collect()
}

/// `n` warm requests drawn uniformly from the roster.
fn warm_lines(roster: &[MajoranaSum], n: usize, rng: &mut Rng) -> Vec<Line> {
    (0..n)
        .map(|i| map_line(i, &roster[rng.range(0, roster.len())]))
        .collect()
}

/// A dense molecule-shaped Hamiltonian, N in 12..=24.
fn session_base(rng: &mut Rng) -> FermionOperator {
    let n = rng.range(12, 25);
    random_hermitian(n, 2 * n, 4 * n, rng.next_u64())
}

/// Edit steps per evolve session after its cold `map`.
const EDITS: usize = 2;

/// `n` evolve requests: sessions of one cold `map` then `EDITS`
/// one-term `map_delta`s, `width` sessions interleaved so consecutive
/// requests of one session are `width` sends apart.
fn evolve_lines(n: usize, rng: &mut Rng) -> Vec<Line> {
    let width = 8;
    let mut lines = Vec::with_capacity(n);
    while lines.len() < n {
        let mut current: Vec<MajoranaSum> =
            (0..width).map(|_| preprocess(&session_base(rng))).collect();
        for step in 0..=EDITS {
            for h in current.iter_mut() {
                if lines.len() == n {
                    return lines;
                }
                let i = lines.len();
                if step == 0 {
                    lines.push(map_line(i, h));
                } else {
                    let d = one_term_delta(h, rng);
                    let line = delta_line(i, h, &d);
                    *h = line.target.clone();
                    lines.push(line);
                }
            }
        }
    }
    lines
}

enum Target {
    Single(Daemon),
    Cluster(Cluster),
}

impl Target {
    fn addr(&self) -> &str {
        match self {
            Target::Single(d) => &d.addr,
            Target::Cluster(c) => &c.router.addr,
        }
    }

    fn daemons(&self) -> Vec<&Daemon> {
        match self {
            Target::Single(d) => vec![d],
            Target::Cluster(c) => c.daemons().collect(),
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        self.daemons().iter().map(|d| d.peak_rss_mb()).sum()
    }

    fn stats(&self) -> Result<Vec<StatsReply>, String> {
        self.daemons().iter().map(|d| d.stats()).collect()
    }

    /// Checks the counters against `sent`, the requests this target got.
    fn reconcile(&self, sent: u64, out: &mut RunOut) -> Result<Vec<StatsReply>, String> {
        let stats = self.stats()?;
        match self {
            Target::Single(_) => reconcile_single(&stats[0], sent, out),
            Target::Cluster(_) => reconcile_cluster(&stats[0], &stats[1..], sent, out),
        }
        Ok(stats)
    }
}

/// Boots the workload's daemons and warms them; returns the target and
/// the number of requests warm-up sent.
fn boot(
    ctx: &Ctx,
    evolve: bool,
    traced: bool,
    roster: &[MajoranaSum],
) -> Result<(Target, u64), String> {
    if evolve {
        let cluster = Cluster::spawn(
            &ctx.hattd,
            &ctx.work.join(if traced { "traced" } else { "plain" }),
            traced,
        )?;
        // One small map per shard-bound key opens the router's forward connections.
        let warm = [
            MajoranaSum::uniform_singles(4),
            MajoranaSum::uniform_singles(5),
        ];
        for h in &warm {
            hatt_service::client::request(
                cluster.router.addr.as_str(),
                &MapRequest::new("warm", vec![h.clone()]),
            )
            .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok((Target::Cluster(cluster), warm.len() as u64))
    } else {
        let daemon = Daemon::spawn(&ctx.hattd, &base_flags(traced))?;
        for h in roster {
            hatt_service::client::request(
                daemon.addr.as_str(),
                &MapRequest::new("warm", vec![h.clone()]),
            )
            .map_err(|e| format!("warm-up: {e}"))?;
        }
        Ok((Target::Single(daemon), roster.len() as u64))
    }
}

/// Runs one open-loop phase and checks its replies: every `map_delta`
/// reply and every `keep_every`-th request's reply.
fn phase(
    target: &Target,
    lines: &[Line],
    rate: f64,
    keep_every: usize,
    out: &mut RunOut,
) -> Result<Outcome, String> {
    let keep_delta: Vec<bool> = lines.iter().map(|l| l.verb == Verb::Delta).collect();
    let outcome = gen::run(
        target.addr(),
        schedule(lines, rate),
        2,
        move |i| keep_delta[i] || i % keep_every == 0,
        GRACE,
    )?;
    out.attempted += outcome.sent;
    out.failed += outcome.failed;
    verify_replies(lines, &outcome, out);
    Ok(outcome)
}

fn serve(ctx: &Ctx, evolve: bool) -> Result<RunOut, String> {
    let spec = if evolve { &EVOLVE } else { &WARM };
    let mut out = RunOut::default();
    let mut m = Metrics::default();
    // The traced run splits the time between an untraced and a traced phase.
    let phase_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds * FIXED_SHARE
    };
    let n_phase = (spec.rate * phase_s).round() as usize;
    let roster_ops = warm_roster();
    let roster: Vec<MajoranaSum> = roster_ops.iter().map(preprocess).collect();
    let make_lines = |rng: &mut Rng, n: usize| -> Vec<Line> {
        if evolve {
            evolve_lines(n, rng)
        } else {
            warm_lines(&roster, n, rng)
        }
    };

    // Set-up: generate the phase's requests, boot, warm up.
    let ((target, warm_sent, lines), setup_s) = timed_setup(|| {
        let mut rng = Rng::new(ctx.seed);
        let lines = make_lines(&mut rng, n_phase);
        let (target, warm_sent) = boot(ctx, evolve, false, &roster)?;
        Ok((target, warm_sent, lines))
    })?;
    let mut rng = Rng::new(ctx.seed ^ 0x1ADD3);
    let keep_every = 1 + n_phase / 64;
    let plain = phase(&target, &lines, spec.rate, keep_every, &mut out)?;
    let mut sent = warm_sent + plain.sent;

    // The in-process reference pass over the workload's fixed family.
    let reference_ops = if evolve {
        evolve_reference()
    } else {
        roster_ops
    };
    let reference_set: Vec<MajoranaSum> = reference_ops.iter().map(preprocess).collect();
    let reference = pipeline::reference_pass(
        &reference_set,
        SelectionPolicy::default(),
        10,
        ctx.trace,
        SMALL_CALLS_EXPONENT,
    )?;

    if ctx.trace {
        target.reconcile(sent, &mut out)?;
        drop(target);
        let (traced_target, warm_sent) = boot(ctx, evolve, true, &roster)?;
        let traced = phase(&traced_target, &lines, spec.rate, keep_every, &mut out)?;
        let stats = traced_target.reconcile(warm_sent + traced.sent, &mut out)?;
        let dumps: Vec<_> = traced_target
            .daemons()
            .iter()
            .map(|d| d.trace_dump())
            .collect::<Result<_, _>>()?;
        let spans = from_dumps(&dumps);
        let c = counters(&stats);
        serving_layer_metrics(&spans, &c, &traced, &mut m);
        m.set(
            "trace.overhead_pct",
            (median(&traced.map_ms) / median(&plain.map_ms) - 1.0) * 100.0,
            "%",
        );
        if evolve {
            router_metrics(&spans, &stats[0], &mut m);
            store_metrics(&c, &mut m);
        } else {
            probe(
                ctx,
                &roster,
                &mut rng,
                &mut m,
                &mut out,
                ProbeLayers::RouterAndStore,
            )?;
        }
        library::span_metrics(
            &[reference.spans.as_slice()],
            &library::COMPILE_STAGES,
            &mut m,
        );
        let t = Instant::now();
        for op in &reference_ops {
            std::hint::black_box(preprocess(op));
        }
        m.set("fermion.from_fermion_ms", ms_since(t), "ms");
        library::counter_metrics(&reference.counts, &mut m);
        library::probe_metrics(
            &pipeline::cache_probes(&reference_set, 2, SMALL_CALLS_EXPONENT)?,
            &mut m,
            &mut out,
        );
        library::codec_metrics(&reference_set, &mut m)?;
    } else {
        // One-second windows, never under a hundred samples.
        let window = (spec.rate as usize).max(100);
        m.set("p50_ms", windowed(&plain.map_ms, window, 0.5), "ms");
        m.set("p99_ms", windowed(&plain.map_ms, window, 0.99), "ms");
        let mut steps = Vec::new();
        let step_s = ctx.seconds * (1.0 - FIXED_SHARE) / spec.ladder.len() as f64;
        for &rate in spec.ladder {
            let n = (rate * step_s).round() as usize;
            let lines = make_lines(&mut rng, n);
            let o = phase(&target, &lines, rate, 1 + n / 16, &mut out)?;
            sent += o.sent;
            let step = judge(rate, &o, spec.slo_ms);
            let pass = step.ok;
            steps.push(step);
            if !pass {
                break;
            }
        }
        m.set("knee_rps", knee(&steps, spec.slo_ms), "1/s");
        target.reconcile(sent, &mut out)?;
        m.set("peak_rss_mb", target.peak_rss_mb(), "MB");
        if evolve {
            m.set("delta_p50_ms", windowed(&plain.delta_ms, window, 0.5), "ms");
            m.set(
                "delta_p99_ms",
                windowed(&plain.delta_ms, window, 0.99),
                "ms",
            );
        } else {
            library::probe_metrics(
                &pipeline::cache_probes(&roster, 10, SMALL_CALLS_EXPONENT)?,
                &mut m,
                &mut out,
            );
        }
        m.set("compile_s", reference.compile_s(), "s");
        m.set("construct_s", reference.construct_s(), "s");
        library::quality_metrics(&reference.counts, &mut m);
        m.set("setup_s", setup_s, "s");
    }
    out.metrics = m;
    Ok(out)
}

pub fn serve_warm(ctx: &Ctx) -> Result<RunOut, String> {
    serve(ctx, false)
}

pub fn serve_evolve(ctx: &Ctx) -> Result<RunOut, String> {
    serve(ctx, true)
}
