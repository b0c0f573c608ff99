//! The HATT benchmark: runs one named workload with a seed, checks the
//! outputs, and prints one JSON result line.
//!
//! ```sh
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
//!           --hattd <path to release hattd> [--work <work dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `perfbench/README.md`). Exits 1 when any output or counter
//! check fails.

mod daemon;
mod gen;
mod host;
mod library;
mod pipeline;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use util::Metrics;

/// What one run is asked to do.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub hattd: PathBuf,
    pub work: PathBuf,
}

/// What one run observed: metrics, operation counts, failed checks.
#[derive(Default)]
pub struct RunOut {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl RunOut {
    pub fn fail(&mut self, msg: String) {
        self.errors.push(msg);
    }
}

/// End-to-end metrics, reported with tracing off.
const END_TO_END: &[&str] = &[
    "compile_s",
    "construct_s",
    "pauli_weight",
    "cnot_count",
    "circuit_depth",
    "p50_ms",
    "p99_ms",
    "delta_p50_ms",
    "delta_p99_ms",
    "knee_rps",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by the traced run.
const PER_LAYER: &[&str] = &[
    "fermion.from_fermion_ms",
    "core.construct_ms",
    "core.candidates",
    "core.memo_hits",
    "core.memo_misses",
    "core.memo_hit_ratio",
    "core.traversal_steps",
    "core.cache_hits",
    "core.cache_misses",
    "core.constructions",
    "core.remaps",
    "core.warm_map_ms",
    "core.remap_ms",
    "store.hits",
    "store.writes",
    "store.write_errors",
    "store.file_bytes",
    "pauli.map_ms",
    "pauli.qubit_terms",
    "circuit.trotter_ms",
    "circuit.optimize_ms",
    "circuit.gates_before",
    "circuit.gates_after",
    "proto.encode_ms",
    "proto.decode_ms",
    "proto.request_bytes",
    "proto.reply_bytes",
    "reactor.frame_parse_ms",
    "reactor.write_drain_ms",
    "reactor.wakeups_per_req",
    "scheduler.queue_wait_ms",
    "scheduler.dispatch_ms",
    "scheduler.cancelled",
    "router.hash_ms",
    "router.forward_ms",
    "router.retries",
    "router.forwarded",
    "router.errors",
    "router.shed",
    "trace.spans_recorded",
    "trace.spans_dropped",
    "trace.overhead_pct",
    "gen.late_ms",
    "gen.sent",
    "gen.ok",
    "gen.failed",
];

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 1,
        seconds: 10.0,
        trace: false,
        hattd: PathBuf::new(),
        work: PathBuf::from(".bench_work"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => ctx.trace = value == "1",
            "--hattd" => ctx.hattd = value.into(),
            "--work" => ctx.work = value.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if ctx.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, ctx))
}

fn run() -> Result<bool, String> {
    let (workload, ctx) = parse_args()?;
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let result = match workload.as_str() {
        "compile_molecules" => library::compile_molecules(&ctx),
        "construct_scale" => library::construct_scale(&ctx),
        "serve_warm" => serve::serve_warm(&ctx),
        "serve_evolve" => serve::serve_evolve(&ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut out = result?;
    let names = if ctx.trace { PER_LAYER } else { END_TO_END };
    for name in names {
        if !out.metrics.0.contains_key(*name) {
            out.fail(format!("metric {name} was not measured"));
        }
    }
    out.metrics.0.retain(|k, _| names.contains(&k.as_str()));
    for e in &out.errors {
        eprintln!("check failed: {e}");
    }
    let correct = out.errors.is_empty();
    println!(
        "{}",
        util::result_line(correct, out.attempted.max(1), out.failed, &out.metrics)
    );
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
