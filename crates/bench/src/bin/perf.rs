//! Machine-readable perf harness: sweeps the three HATT variants on the
//! paper's scalability workload (plus a dense-molecule structure), the
//! policy quality-vs-time ladder, the parallel engine (threaded
//! `restarts`, batched `map_many`), the incremental-remap stream and
//! the open-loop service load study (single daemon vs two-shard
//! router) and the tracing-overhead study (the routed run with the
//! span collector off vs on, with a per-stage latency breakdown), then
//! writes `BENCH_perf.json` (schema `hatt-perf/5`) so successive PRs
//! can compare perf trajectories.
//!
//! `cargo run --release -p hatt-bench --bin perf -- [--smoke]
//!     [--out PATH] [--budget SECONDS] [--samples K] [--max-n N]`
//!
//! * `--smoke` — quick CI configuration (N ≤ 24, tight budget).
//! * `--out PATH` — output path (default `BENCH_perf.json`).
//! * `--budget SECONDS` — per-point budget; a variant stops at the
//!   first N whose construction exceeds it (default 10, smoke 2).
//! * `--samples K` — timed samples per point (default 3).
//! * `--max-n N` — drop sweep points above N.
//!
//! See the README "Perf harness" section for the JSON schema.

use std::process::ExitCode;

use hatt_bench::load::{load_study, trace_study};
use hatt_bench::perf::{
    paper_complexity, parallel_study, policy_tradeoff, remap_study, sweep_variant,
    sweep_variant_on, sweeps_to_json, SweepConfig, SweepWorkload, VariantSweep,
};
use hatt_core::Variant;

struct Args {
    smoke: bool,
    out: String,
    budget: Option<f64>,
    samples: Option<usize>,
    max_n: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: "BENCH_perf.json".to_string(),
        budget: None,
        samples: None,
        max_n: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = value("--out")?,
            "--budget" => {
                args.budget = Some(
                    value("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?,
                )
            }
            "--samples" => {
                args.samples = Some(
                    value("--samples")?
                        .parse()
                        .map_err(|e| format!("--samples: {e}"))?,
                )
            }
            "--max-n" => {
                args.max_n = Some(
                    value("--max-n")?
                        .parse()
                        .map_err(|e| format!("--max-n: {e}"))?,
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = if args.smoke {
        SweepConfig::smoke()
    } else {
        SweepConfig::default()
    };
    if let Some(b) = args.budget {
        cfg.budget_per_point = b;
    }
    if let Some(k) = args.samples {
        cfg.samples = k.max(1);
    }
    if let Some(cap) = args.max_n {
        cfg.ns.retain(|&n| n <= cap);
    }
    if cfg.ns.is_empty() {
        eprintln!("perf: no sweep points left (check --max-n)");
        return ExitCode::FAILURE;
    }

    println!(
        "== perf harness: H_F = Σ M_i, N ∈ {:?}, {} samples/point, budget {} s ==",
        cfg.ns, cfg.samples, cfg.budget_per_point
    );
    let sweeps: Vec<VariantSweep> = [Variant::Unopt, Variant::Paired, Variant::Cached]
        .iter()
        .map(|&v| {
            let sweep = sweep_variant(&cfg, v);
            let slope = sweep
                .slope
                .map_or_else(|| "n/a".to_string(), |s| format!("{s:.2}"));
            let last = sweep.points.last().expect("ns is non-empty");
            println!(
                "  {:<24} reached N={:<4} median {:.4} s  slope ~ N^{slope}  ({})",
                sweep.variant.label(),
                last.n,
                last.stats.median,
                paper_complexity(v),
            );
            sweep
        })
        .collect();

    println!("\n== selection-policy quality vs time (neutrino family) ==");
    let policies = policy_tradeoff(args.smoke);
    for p in &policies {
        let marker = if p.pauli_weight > p.jw_weight {
            "  (worse than JW)"
        } else {
            ""
        };
        println!(
            "  {:<16} {:<12} weight {:>6} (JW {:>6})  {:>8.2} ms{marker}",
            p.case,
            p.policy.label(),
            p.pauli_weight,
            p.jw_weight,
            p.seconds * 1e3,
        );
    }

    println!("\n== parallel engine: threaded restarts & batched map_many ==");
    let parallel = parallel_study(args.smoke);
    println!(
        "  workers: {} (hardware: {})",
        parallel.workers, parallel.available_workers
    );
    for c in &parallel.restarts {
        println!(
            "  restarts {:<16} ({:>2} modes)  seq {:>8.2} ms  threaded {:>8.2} ms  ×{:.2}",
            c.case,
            c.n_modes,
            c.seq_s * 1e3,
            c.threaded_s * 1e3,
            c.speedup(),
        );
    }
    println!(
        "  restarts roster total: seq {:.2} ms, threaded {:.2} ms (×{:.2})",
        parallel.restarts_seq_total_s() * 1e3,
        parallel.restarts_threaded_total_s() * 1e3,
        parallel.restarts_speedup(),
    );
    let b = &parallel.batch;
    println!(
        "  batch sweep: {} Hamiltonians / {} structures  seq {:.2} ms  map_many {:.2} ms (×{:.2}, {:.1} mappings/s, {} hits / {} misses)",
        b.batch_size,
        b.distinct_structures,
        b.seq_s * 1e3,
        b.threaded_s * 1e3,
        b.speedup(),
        b.throughput_per_s(),
        b.cache_hits,
        b.cache_misses,
    );

    println!("\n== dense-molecule structure (2N hops + 4N interactions) ==");
    let dense: Vec<VariantSweep> = [Variant::Cached]
        .iter()
        .map(|&v| {
            let sweep = sweep_variant_on(&cfg, v, SweepWorkload::DenseMolecule);
            let last = sweep.points.last().expect("ns is non-empty");
            println!(
                "  {:<24} reached N={:<4} median {:.4} s",
                sweep.variant.label(),
                last.n,
                last.stats.median,
            );
            sweep
        })
        .collect();

    println!("\n== incremental remap: one-term-delta stream vs cold rebuilds ==");
    let remap = remap_study(args.smoke);
    for p in &remap.points {
        println!(
            "  {} N={:<4} {} steps  incremental {:.2} ms  fresh {:.2} ms  ×{:.2}  candidates {} vs {} (+{} allowed)  ({} cold after base)",
            remap.workload,
            p.n_modes,
            p.steps,
            p.incremental_s * 1e3,
            p.fresh_s * 1e3,
            p.speedup(),
            p.remap_candidates,
            p.fresh_candidates,
            p.touched_bound,
            p.constructions_after_base,
        );
    }
    match remap.crossover_n() {
        Some(n) => println!("  remap wins from N={n} on"),
        None => println!("  remap loses at the largest N"),
    }

    println!("\n== open-loop service load: single daemon vs 2-shard router ==");
    let load = load_study(args.smoke);
    for (topology, report) in [("single", &load.single), ("routed", &load.routed)] {
        println!(
            "  {topology:<8} {}/{} ok  {:.1} mappings/s  p50 {:.2} ms  p99 {:.2} ms  max {:.2} ms",
            report.completed,
            report.offered,
            report.sustained_per_s,
            report.p50_ms,
            report.p99_ms,
            report.max_ms,
        );
    }

    println!("\n== tracing overhead: routed load with the span collector off vs on ==");
    let trace = trace_study(args.smoke);
    for (label, report) in [("untraced", &trace.untraced), ("traced", &trace.traced)] {
        println!(
            "  {label:<8} {}/{} ok  {:.1} mappings/s  p50 {:.2} ms  p99 {:.2} ms",
            report.completed, report.offered, report.sustained_per_s, report.p50_ms, report.p99_ms,
        );
    }
    println!(
        "  overhead {:.2}%  ({} spans recorded, {} dropped)",
        trace.overhead_pct, trace.spans_recorded, trace.spans_dropped,
    );
    for s in &trace.stages {
        println!(
            "  stage {:<16} ×{:<5} p50 {:.3} ms  p99 {:.3} ms",
            s.name, s.count, s.p50_ms, s.p99_ms,
        );
    }

    let doc = sweeps_to_json(
        &cfg, args.smoke, &sweeps, &policies, &parallel, &dense, &remap, &load, &trace,
    );
    if let Err(e) = std::fs::write(&args.out, doc.render_pretty()) {
        eprintln!("perf: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);
    ExitCode::SUCCESS
}
