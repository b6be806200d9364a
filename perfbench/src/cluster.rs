//! The `cluster-grid` workload: the quick-profile grid through
//! `run_suite_distributed_resumable` over two local workers.
//!
//! Set-up spawns `WorkerPool::spawn_local(2, 1)` and waits until both
//! workers answer `/v1/health`. Each pass runs the whole 61-task grid with
//! a one-request window per worker (two connections), no hedging, and a
//! fresh write-ahead journal; its report must equal the committed quick
//! golden byte for byte. The grid is fixed by that golden: the workload
//! seed only seeds the scheduler's retry jitter and names the journals.

use crate::golden::Golden;
use crate::outcome::{run_passes, traced_pass, Outcome, SETUP_REPS};
use crate::procfs::{cpu_seconds, peak_rss_mib, reset_peak_rss, Proc};
use crate::serve::MetricsSnap;
use crate::stats::median;
use crate::trace::{summarize, Tracer};
use csd_bench::suite::{assemble_report, journal_meta};
use csd_cluster::pool::probe_health;
use csd_cluster::{run_suite_distributed_resumable, ClusterConfig, WorkerPool};
use csd_telemetry::{derive_seed, Json, RunJournal};
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Local workers, one simulation thread each.
const WORKERS: usize = 2;

fn spawn_pool() -> Result<WorkerPool, String> {
    let pool = WorkerPool::spawn_local(WORKERS, 1).map_err(|e| format!("spawning workers: {e}"))?;
    for w in pool.workers() {
        let t0 = Instant::now();
        while !probe_health(w, Duration::from_secs(2)) {
            if t0.elapsed() > Duration::from_secs(10) {
                return Err(format!("worker {} never became healthy", w.addr));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok(pool)
}

/// The fleet-latency totals `(count, sum µs)` and 503 retries of a
/// cluster telemetry document (cumulative over the pool's lifetime).
fn fleet_totals(telemetry: &Json) -> (u64, u64, u64) {
    let h = telemetry.get("fleet_latency_us");
    let f = |k: &str| h.and_then(|h| h.get(k)).and_then(Json::as_u64).unwrap_or(0);
    let retries_503 = telemetry
        .get("counters")
        .and_then(|c| c.get("retries_503"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    (f("count"), f("sum"), retries_503)
}

fn counter(telemetry: &Json, k: &str) -> u64 {
    telemetry
        .get("counters")
        .and_then(|c| c.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

fn fetch_all(pool: &WorkerPool) -> Result<MetricsSnap, String> {
    let mut total = MetricsSnap::default();
    for w in pool.workers() {
        total.add(&MetricsSnap::fetch(&w.addr)?);
    }
    Ok(total)
}

/// Runs `cluster-grid`.
///
/// # Errors
///
/// The golden is missing, a worker never becomes healthy, the journal
/// directory cannot be made, or a pass fails outright.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    root: &Path,
    out_dir: &Path,
) -> Result<Outcome, String> {
    let golden = Golden::load(
        &root.join("crates/bench/tests/golden/quick_suite.json"),
        "quick",
    )?;
    let mut out = Outcome::default();
    let mut pool = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut p = spawn_pool()?;
        out.setup_reps.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            let clean = p.shutdown_local();
            if clean != WORKERS {
                return Err(format!("{} of {WORKERS} workers drained cleanly", clean));
            }
        } else {
            pool = Some(p);
        }
    }
    let mut pool = pool.expect("at least one set-up");
    out.setup_s = median(&out.setup_reps);

    let cfg = golden.cfg.clone();
    let meta = journal_meta(&cfg, None);
    let cluster = ClusterConfig {
        seed: derive_seed(seed, "cluster-grid"),
        window: 1,
        hedge_ms: 0,
        ..ClusterConfig::default()
    };
    let journals = out_dir.join("journals");
    std::fs::create_dir_all(&journals).map_err(|e| format!("{}: {e}", journals.display()))?;

    let mut tracer = Tracer::new(Instant::now());
    // Serialized reports, checked after the timed phase (kept as text: the
    // parsed trees would swell the resident set the passes are measured by).
    let mut reports: Vec<String> = Vec::new();
    let mut prev = (0u64, 0u64, 0u64);
    let mut traced = TracedTotals::default();
    let mut pass_cpu = Vec::new();
    reset_peak_rss(&[Proc::SelfProc])?;
    run_passes(seconds, if trace { 2 } else { 1 }, |k| {
        let path = journals.join(format!("{seed}-{k}.journal"));
        let _ = std::fs::remove_file(&path);
        let journal = Mutex::new(RunJournal::open(&path, &meta).map_err(|e| e.to_string())?);
        let is_traced = traced_pass(trace, k);
        let before = if is_traced {
            Some(fetch_all(&pool)?)
        } else {
            None
        };
        let cpu0 = cpu_seconds(&[Proc::SelfProc])?;
        let t0 = Instant::now();
        tracer.begin_trace(k as u64);
        let span = is_traced.then(|| tracer.enter("cluster.run"));
        let result = run_suite_distributed_resumable(&pool, &cfg, None, &cluster, Some(&journal));
        if let Some(id) = span {
            tracer.exit(id, golden.labels.len() as u64);
        }
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds(&[Proc::SelfProc])? - cpu0;
        drop(journal);
        let appended = RunJournal::open(&path, &meta)
            .map(|j| j.replayed().len() as u64)
            .map_err(|e| e.to_string())?;
        let _ = std::fs::remove_file(&path);
        let (report, telemetry) = match result {
            Ok((output, telemetry)) => (Some(output.json().pretty()), Some(telemetry)),
            Err(e) => {
                out.fail(format!("pass {k}: {e}"));
                (None, None)
            }
        };
        let totals = telemetry.as_ref().map(fleet_totals).unwrap_or(prev);
        if is_traced {
            out.traced_pass_s.push(wall);
            let d = fetch_all(&pool)?.since(&before.expect("fetched when traced"));
            traced.daemon.add(&d);
            traced.passes += 1;
            traced.rtt = (
                traced.rtt.0 + totals.0 - prev.0,
                traced.rtt.1 + totals.1 - prev.1,
            );
            traced.appends += appended;
            if let Some(t) = &telemetry {
                traced.dispatched += counter(t, "dispatched");
                traced.hedge_discards += counter(t, "hedge_discards");
                traced.retries += counter(t, "transport_retries") + totals.2 - prev.2;
            }
        } else {
            out.pass_s.push(wall);
            pass_cpu.push(cpu);
        }
        prev = totals;
        reports.extend(report);
        Ok(())
    })?;
    out.peak_rss_mb = peak_rss_mib(&[Proc::SelfProc])?;
    // A pass waits mostly on transport timers and spreads its CPU over
    // polling and dispatch threads, so its jitter goes both ways: report the
    // median pass.
    out.wall_s = median(&out.pass_s);
    out.cpu_s = median(&pass_cpu);
    out.traced_wall_s = if trace {
        median(&out.traced_pass_s)
    } else {
        0.0
    };
    out.req_per_s = golden.labels.len() as f64 / out.wall_s;
    let clean = pool.shutdown_local();
    if clean != WORKERS {
        out.fail(format!("{} of {WORKERS} workers drained cleanly", clean));
    }

    // Verification, after the timed phase: every pass's report is the
    // committed quick golden, byte for byte.
    for (i, r) in reports.iter().enumerate() {
        out.attempted += 1;
        if r.as_bytes() != golden.bytes.as_slice() {
            out.fail(format!("pass {i}: report differs from the quick golden"));
        }
    }

    if trace {
        layer_metrics(&mut out, &mut tracer, &traced, &golden, &reports, &journals)?;
        out.spans = tracer.spans().to_vec();
    }
    Ok(out)
}

/// Sums over the traced passes.
#[derive(Debug, Default)]
struct TracedTotals {
    passes: u64,
    daemon: MetricsSnap,
    /// Coordinator-observed task round trips: (count, sum µs).
    rtt: (u64, u64),
    appends: u64,
    dispatched: u64,
    hedge_discards: u64,
    retries: u64,
}

fn layer_metrics(
    out: &mut Outcome,
    tracer: &mut Tracer,
    t: &TracedTotals,
    golden: &Golden,
    reports: &[String],
    journals: &Path,
) -> Result<(), String> {
    // Merge: the report assembly the coordinator runs after the last
    // answer, over the golden's values.
    let values = golden.parsed_values();
    for i in 0..20 {
        tracer.begin_trace(1000 + i);
        tracer.span(
            "cluster.merge",
            |_| black_box(assemble_report(&golden.cfg, values.clone())),
            |_| 1,
        );
    }
    // Journal append + fsync, one record per grid task.
    let path = journals.join("append-probe.journal");
    let _ = std::fs::remove_file(&path);
    let mut j =
        RunJournal::open(&path, &journal_meta(&golden.cfg, None)).map_err(|e| e.to_string())?;
    for (label, value) in golden.labels.iter().zip(&golden.values) {
        tracer
            .span(
                "journal.append",
                |_| j.record(label, 0, value.as_bytes()),
                |_| value.len() as u64,
            )
            .map_err(|e| e.to_string())?;
    }
    drop(j);
    let _ = std::fs::remove_file(&path);
    for r in reports {
        let doc = tracer
            .span("telemetry.parse", |_| Json::parse(r), |_| r.len() as u64)
            .map_err(|e| e.to_string())?;
        tracer.span("telemetry.serialize", |_| doc.pretty(), |s| s.len() as u64);
    }

    let sum = summarize(tracer.spans());
    let agg = |n: &str| sum.get(n).copied().unwrap_or_default();
    let passes = t.passes.max(1) as f64;
    let rtt = if t.rtt.0 == 0 {
        0.0
    } else {
        t.rtt.1 as f64 / t.rtt.0 as f64 / 1e3
    };
    let l = &mut out.layers;
    l.insert("cluster.task_rtt_ms", rtt);
    l.insert("cluster.worker_run_ms", t.daemon.run_ms());
    l.insert(
        "cluster.transport_ms",
        rtt - t.daemon.run_ms() - t.daemon.queue_ms(),
    );
    l.insert("cluster.merge_ms", agg("cluster.merge").mean_ms());
    l.insert("cluster.dispatched", t.dispatched as f64 / passes);
    l.insert(
        "cluster.hedge_waste_ratio",
        t.hedge_discards as f64 / t.dispatched.max(1) as f64,
    );
    l.insert("cluster.retries", t.retries as f64 / passes);
    l.insert("serve.queue_wait_ms", t.daemon.queue_ms());
    l.insert("serve.run_ms", t.daemon.run_ms());
    l.insert("exp.warms", t.daemon.cold_runs as f64 / passes);
    l.insert("exp.forks", t.daemon.plan_legs as f64 / passes);
    l.insert("journal.appends", t.appends as f64 / passes);
    l.insert("journal.append_ms", agg("journal.append").mean_ms());
    l.insert(
        "telemetry.serialize_ms",
        agg("telemetry.serialize").mean_ms(),
    );
    l.insert("telemetry.parse_ms", agg("telemetry.parse").mean_ms());
    Ok(())
}
