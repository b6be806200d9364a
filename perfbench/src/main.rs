//! The repository's benchmark: one workload per invocation.
//!
//! ```text
//! perfbench --workload <grid-cycle|attack-functional|serve-mix|cluster-grid>
//!           --seed N --seconds S --trace 0|1
//!           [--root DIR] [--serve-bin PATH] [--out-dir DIR]
//! ```
//!
//! Prints each metric as `name = value unit`, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics for `--trace 0`, the per-layer metrics for
//! `--trace 1`. Writes the full result (sample counts, percentiles,
//! failures) and, when traced, every span under `--out-dir`. Exits 1 when
//! any output fails verification and 2 when the run cannot start.

mod cluster;
mod golden;
mod inproc;
mod metrics;
mod mix;
mod outcome;
mod procfs;
mod serve;
mod stats;
mod trace;

use csd_telemetry::{write_atomic, Json};
use outcome::Outcome;
use std::path::PathBuf;

/// Command-line arguments.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: PathBuf,
    serve_bin: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        root: PathBuf::from("."),
        serve_bin: PathBuf::from(target).join("release").join("csd-serve"),
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            "--root" => a.root = PathBuf::from(val()?),
            "--serve-bin" => a.serve_bin = PathBuf::from(val()?),
            "--out-dir" => a.out_dir = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run(a: &Args) -> Result<Outcome, String> {
    match a.workload.as_str() {
        "grid-cycle" => inproc::run(
            inproc::Which::GridCycle,
            a.seed,
            a.seconds,
            a.trace,
            &a.root,
        ),
        "attack-functional" => inproc::run(
            inproc::Which::AttackFunctional,
            a.seed,
            a.seconds,
            a.trace,
            &a.root,
        ),
        "serve-mix" => serve::run(a.seed, a.seconds, a.trace, &a.serve_bin),
        "cluster-grid" => cluster::run(a.seed, a.seconds, a.trace, &a.root, &a.out_dir),
        w => Err(format!(
            "unknown workload {w:?} (grid-cycle, attack-functional, serve-mix, cluster-grid)"
        )),
    }
}

/// The metrics to print: end-to-end for an untraced run, per-layer for a
/// traced one.
fn metrics_of(o: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        let overhead = o.traced_wall_s - o.wall_s;
        metrics::PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "trace.overhead_s" => overhead,
                    "fail_frac" => o.failed as f64 / o.attempted.max(1) as f64,
                    _ => o.layers.get(name).copied().unwrap_or(0.0),
                };
                (name, unit, v)
            })
            .collect()
    } else {
        metrics::END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "setup_s" => o.setup_s,
                    "wall_s" => o.wall_s,
                    "cpu_s" => o.cpu_s,
                    "peak_rss_mb" => o.peak_rss_mb,
                    "req_per_s" => o.req_per_s,
                    _ => unreachable!("every end-to-end metric is computed"),
                };
                (name, unit, v)
            })
            .collect()
    }
}

/// The full result document written beside the printed line.
fn result_doc(a: &Args, o: &Outcome, metrics: &Json) -> Json {
    let pct = |p: f64| match stats::percentile(&o.lat_ms, p) {
        Some(q) => Json::obj([
            ("ms", Json::from(q.value)),
            ("samples", Json::from(q.count)),
            ("beyond", Json::from(q.beyond)),
        ]),
        None => Json::Null,
    };
    let secs = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::from(*x)).collect());
    let mut doc = Json::obj([
        ("workload", Json::from(a.workload.as_str())),
        ("seed", Json::from(a.seed)),
        ("seconds", Json::from(a.seconds)),
        ("trace", Json::Bool(a.trace)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        ("metrics", metrics.clone()),
        ("setup_reps", secs(&o.setup_reps)),
        ("pass_s", secs(&o.pass_s)),
        ("traced_pass_s", secs(&o.traced_pass_s)),
        ("op_latency_samples", Json::from(o.lat_ms.len())),
        ("op_latency_p50", pct(50.0)),
        ("op_latency_p95", pct(95.0)),
    ]);
    for (k, v) in &o.notes {
        doc.push_member(k.as_str(), v.clone());
    }
    doc
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(2);
        }
    };
    let list = metrics_of(&outcome, args.trace);
    let mut metrics = Json::Obj(Vec::new());
    for &(name, unit, value) in &list {
        println!("{name} = {value} {unit}");
        metrics.push_member(
            name,
            Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))]),
        );
    }
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| e.to_string())
        .and_then(|()| {
            let doc = result_doc(&args, &outcome, &metrics);
            write_atomic(
                &args.out_dir.join(format!("{stem}.json")),
                doc.pretty().as_bytes(),
            )
            .map_err(|e| e.to_string())?;
            if args.trace {
                let spans = trace::to_json(&outcome.spans).dump();
                write_atomic(
                    &args.out_dir.join(format!("{stem}.trace.json")),
                    spans.as_bytes(),
                )
                .map_err(|e| e.to_string())?;
            }
            Ok(())
        });
    if let Err(e) = written {
        eprintln!("perfbench: writing results: {e}");
        std::process::exit(2);
    }
    if let Some(q) = stats::percentile(&outcome.lat_ms, 95.0) {
        println!(
            "op latency p95 = {} ms over {} samples ({} beyond)",
            q.value, q.count, q.beyond
        );
    }
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::from(outcome.attempted)),
            ("failed", Json::from(outcome.failed)),
            ("metrics", metrics),
        ])
        .dump()
    );
    std::process::exit(if correct { 0 } else { 1 });
}
