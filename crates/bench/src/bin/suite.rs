//! The parallel experiment suite: every `EXPERIMENTS.md` figure/table in
//! one run, one JSON report, and a tolerance-band verdict.
//!
//! ```text
//! cargo run --release -p csd-bench --bin suite -- \
//!     [--jobs N] [--seed S] [--quick] [--out PATH] [--list] [--filter SUBSTR] \
//!     [--journal] [--resume ID] [--journal-dir DIR]
//! ```
//!
//! Exits non-zero if any headline metric drifts outside its declared
//! band (full profile only). `--list` prints the task grid without
//! running anything; `--filter` runs only label-matched tasks and writes
//! a reduced report (no figure summaries or checks) — the same document
//! the `csd-serve` daemon returns for a task request.
//!
//! Durability: `--journal` records every completed task in a
//! write-ahead journal under `--journal-dir` (default `runs/`), and
//! `--resume ID` reopens `runs/ID.journal` — creating it if absent —
//! replays the completed prefix, runs only the remainder, and writes a
//! report byte-identical to an uninterrupted run. Crash it anywhere
//! (even mid-append; the torn tail is truncated on reopen), rerun the
//! same `--resume` command, and only the missing work repeats.

use csd_bench::suite::{local_backend, open_journal, run_grid, SuiteConfig};
use csd_bench::tasks::{build_tasks, filter_tasks};
use csd_exp::resolve_jobs;
use csd_telemetry::write_atomic;
use std::time::Instant;

fn main() {
    // 0 means "auto": one worker per available hardware thread. The same
    // convention applies when --jobs is omitted entirely.
    let mut jobs = 0;
    let mut seed = 0xC5D_2018;
    let mut quick = false;
    let mut list = false;
    let mut filter: Option<String> = None;
    let mut out_path = "BENCH_suite.json".to_string();
    let mut journal = false;
    let mut resume: Option<String> = None;
    let mut journal_dir = "runs".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--jobs needs a non-negative integer (0 = auto)"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out_path = args.next().unwrap_or_else(|| die("--out needs a path"));
            }
            "--quick" => quick = true,
            "--list" => list = true,
            "--filter" => {
                filter = Some(
                    args.next()
                        .unwrap_or_else(|| die("--filter needs a substring")),
                );
            }
            "--journal" => journal = true,
            "--resume" => {
                resume = Some(
                    args.next()
                        .unwrap_or_else(|| die("--resume needs a run id")),
                );
            }
            "--journal-dir" => {
                journal_dir = args
                    .next()
                    .unwrap_or_else(|| die("--journal-dir needs a path"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: suite [--jobs N] [--seed S] [--quick] [--out PATH]\n\
                     \x20            [--list] [--filter SUBSTR]\n\
                     \x20            [--journal] [--resume ID] [--journal-dir DIR]\n\
                     Runs the full figure grid and writes the JSON report (default\n\
                     BENCH_suite.json). --jobs 0 (or omitted) uses one worker per\n\
                     available hardware thread. --quick runs a down-scaled smoke grid\n\
                     without tolerance checks. --list prints the task labels without\n\
                     running; --filter runs only tasks whose label contains SUBSTR and\n\
                     writes a reduced report. --journal write-ahead-journals every\n\
                     completed task under --journal-dir (default runs/); --resume ID\n\
                     reopens runs/ID.journal (creating it if absent), skips the\n\
                     completed prefix, and produces a report byte-identical to an\n\
                     uninterrupted run."
                );
                return;
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }

    let cfg = if quick {
        SuiteConfig::quick(seed, jobs)
    } else {
        SuiteConfig::full(seed, jobs)
    };

    if list {
        let tasks = match &filter {
            Some(f) => filter_tasks(&cfg, f),
            None => build_tasks(&cfg),
        };
        for t in &tasks {
            println!("{}", t.label());
        }
        eprintln!("suite: {} task(s)", tasks.len());
        return;
    }

    let run_journal = open_journal(
        "suite",
        journal,
        resume,
        &journal_dir,
        &cfg,
        filter.as_deref(),
    )
    .unwrap_or_else(|e| die(&e));

    eprintln!(
        "suite: profile={} root_seed={:#x} jobs={}{}",
        cfg.profile,
        cfg.root_seed,
        resolve_jobs(cfg.jobs),
        filter
            .as_deref()
            .map(|f| format!(" filter={f:?}"))
            .unwrap_or_default()
    );
    let t0 = Instant::now();
    let output = run_grid(
        &cfg,
        filter.as_deref(),
        run_journal.as_ref(),
        local_backend(&cfg),
    )
    .unwrap_or_else(|e| die(&e));
    // Atomic write: a failure (`ENOSPC` included) exits non-zero with the
    // path and cause instead of leaving a torn file.
    write_atomic(
        std::path::Path::new(&out_path),
        output.json().pretty().as_bytes(),
    )
    .unwrap_or_else(|e| die(&e.to_string()));
    eprintln!(
        "suite: wrote {out_path} in {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    if !output.print_checks("suite") {
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("suite: {msg}");
    std::process::exit(2);
}
