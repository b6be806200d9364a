//! The parallel experiment-suite runner behind `--bin suite`.
//!
//! The task grid itself lives in [`crate::tasks`] (shared with the
//! `csd-serve` daemon). This module holds the one grid driver,
//! [`run_grid`]: it selects tasks, replays and appends the write-ahead
//! journal, hands the pending tasks to a backend (in-process threads via
//! [`local_backend`], or `csd-cluster`'s workers), and assembles one
//! deterministic JSON report (`BENCH_suite.json`).
//!
//! Determinism contract: each task derives its own input seed from the
//! suite's root seed and the task's *label* (never from scheduling
//! order), results are re-assembled in grid order, and the report
//! carries no timestamps or host details — so the same root seed
//! produces a byte-identical report at any `--jobs` setting.

use crate::mean;
use crate::tasks::{build_tasks, filter_tasks, pipelines, victim_names, TaskDef};
use csd_exp::{resolve_jobs, run_ordered};
use csd_telemetry::{Json, RunJournal, ToJson};
use csd_workloads::specs;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

/// Knobs for one suite invocation.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Root seed every per-task seed is derived from.
    pub root_seed: u64,
    /// Worker threads; `0` means one per available hardware thread
    /// (see [`resolve_jobs`]).
    pub jobs: usize,
    /// Measured operations per security datapoint (figures 8–10).
    pub sec_blocks: usize,
    /// Measured operations per watchdog-sweep datapoint (figure 11).
    pub wd_blocks: usize,
    /// Watchdog periods swept by figure 11, in cycles.
    pub wd_periods: Vec<u64>,
    /// PRIME+PROBE encryptions per candidate nibble (figure 7a).
    pub aes_trials: usize,
    /// Workload scale for the devectorization family (figures 12–16).
    pub devec_scale: f64,
    /// Evaluate tolerance bands (`checks` section; off for smoke runs).
    pub checks: bool,
    /// Profile name echoed into the report (`full` / `quick`).
    pub profile: &'static str,
}

impl SuiteConfig {
    /// The full figure grid at publication fidelity.
    pub fn full(root_seed: u64, jobs: usize) -> SuiteConfig {
        SuiteConfig {
            root_seed,
            jobs,
            sec_blocks: 48,
            wd_blocks: 24,
            wd_periods: vec![1000, 2000, 4000, 6000, 8000, 10_000],
            aes_trials: 80,
            devec_scale: 0.5,
            checks: true,
            profile: "full",
        }
    }

    /// A down-scaled grid for CI smoke tests and the determinism
    /// property test; tolerance checks are disabled (the bands assume
    /// full-fidelity runs).
    pub fn quick(root_seed: u64, jobs: usize) -> SuiteConfig {
        SuiteConfig {
            root_seed,
            jobs,
            sec_blocks: 2,
            wd_blocks: 2,
            wd_periods: vec![1000, 4000],
            aes_trials: 3,
            devec_scale: 0.05,
            checks: false,
            profile: "quick",
        }
    }

    /// Builds the profile by name (`"full"` / `"quick"`) — the
    /// convention shared by `suite` CLI flags and server requests.
    pub fn named(profile: &str, root_seed: u64, jobs: usize) -> Option<SuiteConfig> {
        match profile {
            "full" => Some(SuiteConfig::full(root_seed, jobs)),
            "quick" => Some(SuiteConfig::quick(root_seed, jobs)),
            _ => None,
        }
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("profile", Json::from(self.profile)),
            ("root_seed", Json::from(self.root_seed)),
            ("sec_blocks", Json::from(self.sec_blocks as u64)),
            ("wd_blocks", Json::from(self.wd_blocks as u64)),
            (
                "wd_periods",
                Json::Arr(self.wd_periods.iter().map(|p| Json::from(*p)).collect()),
            ),
            ("aes_trials", Json::from(self.aes_trials as u64)),
            ("devec_scale", Json::from(self.devec_scale)),
        ])
    }
}

/// One tolerance-band evaluation over a headline metric.
#[derive(Debug, Clone)]
pub struct Check {
    /// Stable identifier, e.g. `fig08_opt_avg_slowdown`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Inclusive lower bound.
    pub lo: f64,
    /// Inclusive upper bound.
    pub hi: f64,
}

impl Check {
    /// Whether the value sits inside the band.
    pub fn pass(&self) -> bool {
        self.value >= self.lo && self.value <= self.hi
    }
}

impl ToJson for Check {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name)),
            ("value", Json::from(self.value)),
            ("lo", Json::from(self.lo)),
            ("hi", Json::from(self.hi)),
            ("pass", Json::from(self.pass())),
        ])
    }
}

/// Everything one suite run produced.
#[derive(Debug, Clone)]
pub struct SuiteReport {
    /// The full nested report (serialize with [`Json::pretty`]).
    pub json: Json,
    /// Tolerance checks evaluated (empty when `checks` was off).
    pub checks: Vec<Check>,
}

/// What a grid run produced.
#[derive(Debug, Clone)]
pub enum GridOutput {
    /// The full-grid report (figure summaries, checks).
    Full(SuiteReport),
    /// The reduced document of a filtered run (see [`filtered_report`]).
    Filtered(Json),
}

impl GridOutput {
    /// The report JSON, whichever shape it is.
    pub fn json(&self) -> &Json {
        match self {
            GridOutput::Full(r) => &r.json,
            GridOutput::Filtered(j) => j,
        }
    }

    /// Prints every tolerance check to stderr, then a summary line
    /// prefixed with `tool` if any failed. Returns whether all passed; a
    /// filtered run has no checks and always passes.
    pub fn print_checks(&self, tool: &str) -> bool {
        let GridOutput::Full(report) = self else {
            return true;
        };
        for c in &report.checks {
            eprintln!(
                "  [{}] {:<42} {:>12.5}  in [{}, {}]",
                if c.pass() { "ok" } else { "FAIL" },
                c.name,
                c.value,
                c.lo,
                c.hi
            );
        }
        let failed: Vec<&str> = report
            .checks
            .iter()
            .filter(|c| !c.pass())
            .map(|c| c.name)
            .collect();
        if !failed.is_empty() {
            eprintln!(
                "{tool}: {} check(s) outside tolerance: {}",
                failed.len(),
                failed.join(", ")
            );
        }
        failed.is_empty()
    }
}

/// The completion callback [`run_grid`] hands its backend: call it with
/// `(grid index, result)` for every task the backend finishes. It
/// journals the result, then publishes it. A second call for the same
/// task (a hedged duplicate) must carry identical bytes. An `Err` means
/// the run must stop: the backend claims no further work and returns
/// the error.
pub type Complete<'a> = dyn Fn(usize, Json) -> Result<(), String> + Sync + 'a;

/// Runs the grid, or the tasks whose label contains `filter`, and
/// assembles its report. This is the one grid driver: the `suite` CLI,
/// the `csd-serve` task endpoint and `csd-cluster` all go through it,
/// and only `backend` differs between them.
///
/// The driver owns everything but the running:
///
/// - task selection, refusing a filter that matches nothing;
/// - journal replay (`replay_into_slots`): replayed tasks are never
///   handed to the backend;
/// - journal before publish: the [`Complete`] callback appends each
///   result to `journal` before it stores it, so a result the run has
///   counted is one a crash cannot lose;
/// - the grid-order merge, and the full report ([`assemble_report`])
///   or, under a filter, the reduced one ([`filtered_report`]).
///
/// `backend` receives the selected tasks, the indices still to run and
/// the callback, and must have called the callback for every pending
/// index when it returns `Ok`. [`local_backend`] runs tasks in this
/// process; `csd-cluster` posts them to `csd-serve` workers. The output
/// bytes are a pure function of `(cfg, filter)`: no backend, worker
/// count or resume point changes them.
///
/// # Errors
///
/// A filter matching no task, an untrustworthy journal, a failed
/// journal append, a backend failure, or a task left without a result.
pub fn run_grid<B>(
    cfg: &SuiteConfig,
    filter: Option<&str>,
    journal: Option<&Mutex<RunJournal>>,
    backend: B,
) -> Result<GridOutput, String>
where
    B: FnOnce(&[TaskDef], &[usize], &Complete<'_>) -> Result<(), String>,
{
    let tasks = match filter {
        Some(f) => filter_tasks(cfg, f),
        None => build_tasks(cfg),
    };
    if tasks.is_empty() {
        return Err(format!("filter {:?} matches no task", filter.unwrap_or("")));
    }
    let slots = match journal {
        Some(j) => replay_into_slots(&tasks, cfg.root_seed, &relock(j))?,
        None => vec![None; tasks.len()],
    };
    let pending: Vec<usize> = (0..tasks.len()).filter(|&i| slots[i].is_none()).collect();
    let slots = Mutex::new(slots);
    let complete = |i: usize, value: Json| -> Result<(), String> {
        let t = &tasks[i];
        if let Some(j) = journal {
            relock(j)
                .record(t.label(), t.seed(cfg.root_seed), value.dump().as_bytes())
                .map_err(|e| format!("journal append for {:?}: {e}", t.label()))?;
        }
        let mut slots = relock(&slots);
        if slots[i]
            .as_ref()
            .is_some_and(|prev| prev.dump() != value.dump())
        {
            return Err(format!(
                "task {:?} completed twice with different results",
                t.label()
            ));
        }
        slots[i] = Some(value);
        Ok(())
    };
    backend(&tasks, &pending, &complete)?;
    let values = slots
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .zip(&tasks)
        .map(|(slot, t)| slot.ok_or_else(|| format!("task {:?} has no result", t.label())))
        .collect::<Result<Vec<Json>, String>>()?;
    Ok(match filter {
        Some(f) => GridOutput::Filtered(filtered_report(cfg, f, values)),
        None => GridOutput::Full(assemble_report(cfg, values)),
    })
}

/// The in-process [`run_grid`] backend: runs the pending tasks on
/// `cfg.jobs` threads ([`resolve_jobs`]) through the ordered executor,
/// each seeded from `cfg.root_seed` by label.
pub fn local_backend(
    cfg: &SuiteConfig,
) -> impl FnOnce(&[TaskDef], &[usize], &Complete<'_>) -> Result<(), String> + '_ {
    move |tasks, pending, complete| {
        run_ordered(pending.len(), resolve_jobs(cfg.jobs), |k| {
            let t = &tasks[pending[k]];
            complete(pending[k], t.run(t.seed(cfg.root_seed)))
        })
        .map(drop)
    }
}

/// Runs the whole grid in this process and assembles the report.
/// Deterministic for a fixed config (any job count).
///
/// # Panics
///
/// Panics if a task panics (the underlying experiment faulted).
pub fn run_suite(cfg: &SuiteConfig) -> SuiteReport {
    match run_grid(cfg, None, None, local_backend(cfg)) {
        Ok(GridOutput::Full(report)) => report,
        other => unreachable!("an unjournaled full-grid run yields its report: {other:?}"),
    }
}

/// Runs the label-matched subset of the grid in this process and returns
/// the reduced report: no figure summaries or tolerance checks, just each
/// task's label, seed, and result in grid order. The `csd-serve` daemon
/// emits the identical document for a single-task request, which is what
/// lets CI byte-compare a served experiment against `suite --filter`.
///
/// # Panics
///
/// Panics if `filter` matches no task, or a task panics.
pub fn run_filtered(cfg: &SuiteConfig, filter: &str) -> Json {
    match run_grid(cfg, Some(filter), None, local_backend(cfg)) {
        Ok(out) => out.json().clone(),
        Err(e) => panic!("{e}"),
    }
}

/// Opens (or creates) the run journal of a `suite` or `cluster`
/// invocation, when `--journal` or `--resume` asked for one. `resume`
/// names the journal explicitly; bare `--journal` derives a fresh id
/// from the config and pid. The notices go to stderr under `tool`'s
/// prefix and print the `--resume` id, so the resume command after a
/// crash is copy-pasteable from the log.
///
/// # Errors
///
/// The journal cannot be created or read, or belongs to a different run.
pub fn open_journal(
    tool: &str,
    journal: bool,
    resume: Option<String>,
    journal_dir: &str,
    cfg: &SuiteConfig,
    filter: Option<&str>,
) -> Result<Option<Mutex<RunJournal>>, String> {
    if !journal && resume.is_none() {
        return Ok(None);
    }
    let id = resume.unwrap_or_else(|| {
        let t = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_secs());
        let pid = std::process::id();
        format!("{}-{:x}-{t}-{pid}", cfg.profile, cfg.root_seed)
    });
    let path = std::path::Path::new(journal_dir).join(format!("{id}.journal"));
    let rj = RunJournal::open(&path, &journal_meta(cfg, filter)).map_err(|e| e.to_string())?;
    if rj.truncated() > 0 {
        eprintln!(
            "{tool}: journal {} had a torn tail; truncated {} byte(s)",
            path.display(),
            rj.truncated()
        );
    }
    eprintln!(
        "{tool}: journaling to {} ({} completed task(s) replayed; resume with --resume {id})",
        path.display(),
        rj.replayed().len()
    );
    Ok(Some(Mutex::new(rj)))
}

/// Locks `m`, recovering a poisoned guard: the journal and the result
/// slots hold no invariant a panicking task could break halfway.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The journal meta document pinning a grid run's determinism domain:
/// `(profile, root seed, filter)` are exactly the inputs the artifact
/// bytes are a pure function of, so a journal opened under a different
/// meta is a different run and must be refused. Scheduling knobs
/// (`jobs`, worker count) are deliberately absent — they cannot change
/// the bytes, so a run may crash under `--jobs 8` and resume under
/// `--jobs 1`, or crash under `suite` and resume under `cluster`.
pub fn journal_meta(cfg: &SuiteConfig, filter: Option<&str>) -> Json {
    Json::obj([
        ("kind", Json::from("suite-grid")),
        ("profile", Json::from(cfg.profile)),
        ("root_seed", Json::from(cfg.root_seed)),
        ("filter", filter.map_or(Json::Null, Json::from)),
    ])
}

/// Splits `tasks` against a resumed journal: returns one slot per task
/// (`Some` for tasks whose result was replayed — label, seed, and
/// digest verified — `None` for tasks still to run). The journal's meta
/// frame was already matched by [`RunJournal::open`], so any replay
/// mismatch here means the file was tampered with, not misused.
///
/// # Errors
///
/// A record naming an unknown label, the wrong seed, or unparseable
/// result bytes — the journal cannot be trusted and the caller should
/// delete it and rerun.
fn replay_into_slots(
    tasks: &[TaskDef],
    root_seed: u64,
    journal: &RunJournal,
) -> Result<Vec<Option<Json>>, String> {
    let mut slots: Vec<Option<Json>> = vec![None; tasks.len()];
    for rec in journal.replayed() {
        let bad = |what: String| {
            let path = journal.path().display();
            format!("journal {path}: task {:?} {what}", rec.label)
        };
        let Some(i) = tasks.iter().position(|t| t.label() == rec.label) else {
            return Err(bad("is not in this grid".into()));
        };
        let expected = tasks[i].seed(root_seed);
        if rec.seed != expected {
            let seed = rec.seed;
            return Err(bad(format!(
                "recorded seed {seed:#x} != expected {expected:#x}"
            )));
        }
        let text =
            std::str::from_utf8(&rec.bytes).map_err(|_| bad("result is not UTF-8".into()))?;
        let value = Json::parse(text).map_err(|e| bad(format!("result is not JSON: {e}")))?;
        if slots[i]
            .as_ref()
            .is_some_and(|prev| prev.dump() != value.dump())
        {
            return Err(bad("recorded twice with different results".into()));
        }
        slots[i] = Some(value);
    }
    Ok(slots)
}

/// Assembles the full suite report from per-task result values in grid
/// order (what [`run_grid`] collects for [`build_tasks`]). Split out
/// from [`run_grid`] so a distributed runner — `csd-cluster` collects
/// the same values over HTTP from many daemons — reassembles the exact
/// CLI artifact: the report is a pure function of `(cfg, values)`.
///
/// # Panics
///
/// Panics if `values` does not line up with the grid (`build_tasks`
/// length mismatch).
pub fn assemble_report(cfg: &SuiteConfig, values: Vec<Json>) -> SuiteReport {
    let tasks = build_tasks(cfg);
    assert_eq!(
        tasks.len(),
        values.len(),
        "assemble_report needs one value per grid task"
    );
    let results = Results {
        labels: tasks.iter().map(|t| t.label().to_string()).collect(),
        values,
    };
    assemble(cfg, &results)
}

/// Builds the reduced `--filter` document from result values in
/// filtered-grid order (what [`run_grid`] collects for
/// [`filter_tasks`]). Like [`assemble_report`], this is the merge point
/// a distributed runner shares with the CLI: same values in, same bytes
/// out.
///
/// # Panics
///
/// Panics if `values` does not line up with the filtered grid.
pub fn filtered_report(cfg: &SuiteConfig, filter: &str, values: Vec<Json>) -> Json {
    let tasks = filter_tasks(cfg, filter);
    assert_eq!(
        tasks.len(),
        values.len(),
        "filtered_report needs one value per matched task"
    );
    let rows: Vec<Json> = tasks
        .iter()
        .zip(values)
        .map(|(t, v)| {
            Json::obj([
                ("label", Json::from(t.label())),
                ("seed", Json::from(t.seed(cfg.root_seed))),
                ("result", v),
            ])
        })
        .collect();
    Json::obj([
        ("suite", cfg.to_json()),
        ("filter", Json::from(filter)),
        ("tasks", Json::Arr(rows)),
    ])
}

struct Results {
    labels: Vec<String>,
    values: Vec<Json>,
}

impl Results {
    fn get(&self, label: &str) -> &Json {
        let i = self
            .labels
            .iter()
            .position(|l| l == label)
            .unwrap_or_else(|| panic!("no task labelled {label}"));
        &self.values[i]
    }
}

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing member {key} on path {path:?}"));
    }
    cur.as_f64()
        .unwrap_or_else(|| panic!("non-numeric member at path {path:?}"))
}

fn assemble(cfg: &SuiteConfig, results: &Results) -> SuiteReport {
    let names = victim_names();

    // Family sections, in grid order.
    let mut security = Json::Obj(Vec::new());
    for (cfg_name, _) in pipelines() {
        let rows: Vec<Json> = names
            .iter()
            .map(|n| results.get(&format!("sec/{cfg_name}/{n}")).clone())
            .collect();
        security.push_member(cfg_name, Json::Arr(rows));
    }
    let watchdog = Json::Arr(
        names
            .iter()
            .map(|n| results.get(&format!("wd/{n}")).clone())
            .collect(),
    );
    let mut attacks = Json::Obj(Vec::new());
    for (key, fam) in [
        ("aes_prime_probe", "aes-pp"),
        ("rsa_flush_reload", "rsa-fr"),
        ("rsa_prime_probe", "rsa-pp"),
    ] {
        attacks.push_member(
            key,
            Json::obj([
                (
                    "undefended",
                    results.get(&format!("attack/{fam}/undefended")).clone(),
                ),
                (
                    "stealth",
                    results.get(&format!("attack/{fam}/stealth")).clone(),
                ),
            ]),
        );
    }
    let workload_names: Vec<&'static str> = specs().iter().map(|s| s.name).collect();
    let mut devec = Json::Obj(Vec::new());
    for w in &workload_names {
        let mut per = Json::Obj(Vec::new());
        for (pname, _) in crate::policies() {
            per.push_member(
                pname,
                results
                    .get(&format!("devec/{w}/{pname}"))
                    .get("run")
                    .unwrap()
                    .clone(),
            );
        }
        devec.push_member(*w, per);
    }

    // Figure summaries.
    let sec_avgs = |cfg_name: &str, metric: &str| -> (Vec<Json>, f64) {
        let per: Vec<Json> = names
            .iter()
            .map(|n| {
                let r = results.get(&format!("sec/{cfg_name}/{n}"));
                Json::obj([
                    ("name", Json::from(n.as_str())),
                    (metric, Json::from(num(r, &[metric]))),
                ])
            })
            .collect();
        let avg = mean(
            names
                .iter()
                .map(|n| num(results.get(&format!("sec/{cfg_name}/{n}")), &[metric])),
        );
        (per, avg)
    };

    let mut figures = Json::Obj(Vec::new());

    let aes_und = results.get("attack/aes-pp/undefended");
    let aes_ste = results.get("attack/aes-pp/stealth");
    figures.push_member(
        "fig07a",
        Json::obj([
            ("undefended", aes_und.clone()),
            ("stealth", aes_ste.clone()),
        ]),
    );
    figures.push_member(
        "fig07b",
        Json::obj([
            (
                "flush_reload",
                attacks.get("rsa_flush_reload").unwrap().clone(),
            ),
            (
                "prime_probe",
                attacks.get("rsa_prime_probe").unwrap().clone(),
            ),
        ]),
    );

    let mut fig08 = Json::Obj(Vec::new());
    let mut fig09 = Json::Obj(Vec::new());
    for (cfg_name, _) in pipelines() {
        let (per_s, avg_s) = sec_avgs(cfg_name, "slowdown");
        fig08.push_member(
            cfg_name,
            Json::obj([
                ("per", Json::Arr(per_s)),
                ("avg_slowdown", Json::from(avg_s)),
            ]),
        );
        let (per_e, avg_e) = sec_avgs(cfg_name, "uop_expansion");
        fig09.push_member(
            cfg_name,
            Json::obj([
                ("per", Json::Arr(per_e)),
                ("avg_uop_expansion", Json::from(avg_e)),
            ]),
        );
    }
    figures.push_member("fig08", fig08);
    figures.push_member("fig09", fig09);

    let fig10_per: Vec<Json> = names
        .iter()
        .map(|n| {
            let r = results.get(&format!("sec/opt/{n}"));
            Json::obj([
                ("name", Json::from(n.as_str())),
                ("base_l1d_mpki", Json::from(num(r, &["base", "l1d_mpki"]))),
                (
                    "stealth_l1d_mpki",
                    Json::from(num(r, &["stealth", "l1d_mpki"])),
                ),
            ])
        })
        .collect();
    figures.push_member(
        "fig10",
        Json::obj([
            (
                "avg_base_l1d_mpki",
                Json::from(mean(names.iter().map(|n| {
                    num(results.get(&format!("sec/opt/{n}")), &["base", "l1d_mpki"])
                }))),
            ),
            (
                "avg_stealth_l1d_mpki",
                Json::from(mean(names.iter().map(|n| {
                    num(
                        results.get(&format!("sec/opt/{n}")),
                        &["stealth", "l1d_mpki"],
                    )
                }))),
            ),
            ("per", Json::Arr(fig10_per)),
        ]),
    );

    let fig11_series: Vec<Json> = cfg
        .wd_periods
        .iter()
        .enumerate()
        .map(|(pi, period)| {
            let avg = mean(names.iter().map(|n| {
                let r = results.get(&format!("wd/{n}"));
                let periods = r.get("periods").unwrap().as_arr().unwrap();
                num(&periods[pi], &["slowdown"])
            }));
            Json::obj([
                ("period", Json::from(*period)),
                ("avg_slowdown", Json::from(avg)),
            ])
        })
        .collect();
    figures.push_member("fig11", Json::Arr(fig11_series));

    let run_of = |w: &str, p: &str| results.get(&format!("devec/{w}/{p}")).get("run").unwrap();
    let fig12_per: Vec<Json> = workload_names
        .iter()
        .map(|w| {
            let conv = num(run_of(w, "conventional"), &["total_pj"]);
            let csd = num(run_of(w, "csd-devec"), &["total_pj"]);
            Json::obj([
                ("name", Json::from(*w)),
                (
                    "always_on_pj",
                    Json::from(num(run_of(w, "always-on"), &["total_pj"])),
                ),
                ("conventional_pj", Json::from(conv)),
                ("csd_pj", Json::from(csd)),
                ("saving_vs_conventional", Json::from(1.0 - csd / conv)),
            ])
        })
        .collect();
    let savings: Vec<f64> = workload_names
        .iter()
        .map(|w| {
            1.0 - num(run_of(w, "csd-devec"), &["total_pj"])
                / num(run_of(w, "conventional"), &["total_pj"])
        })
        .collect();
    figures.push_member(
        "fig12",
        Json::obj([
            (
                "avg_saving_vs_conventional",
                Json::from(mean(savings.iter().copied())),
            ),
            (
                "workloads_with_positive_saving",
                Json::from(savings.iter().filter(|s| **s > 0.0).count() as u64),
            ),
            ("per", Json::Arr(fig12_per)),
        ]),
    );

    let cycle_ratio = |w: &str, p: &str, q: &str| {
        num(run_of(w, p), &["stats", "cycles"]) / num(run_of(w, q), &["stats", "cycles"])
    };
    figures.push_member(
        "fig13",
        Json::obj([
            (
                "avg_csd_over_always_on",
                Json::from(mean(
                    workload_names
                        .iter()
                        .map(|w| cycle_ratio(w, "csd-devec", "always-on")),
                )),
            ),
            (
                "avg_csd_over_conventional",
                Json::from(mean(
                    workload_names
                        .iter()
                        .map(|w| cycle_ratio(w, "csd-devec", "conventional")),
                )),
            ),
        ]),
    );
    figures.push_member(
        "fig14",
        Json::obj([(
            "avg_uop_expansion_csd_over_always_on",
            Json::from(
                mean(workload_names.iter().map(|w| {
                    num(run_of(w, "csd-devec"), &["stats", "uops"])
                        / num(run_of(w, "always-on"), &["stats", "uops"])
                })) - 1.0,
            ),
        )]),
    );

    let gated_fraction = |w: &str| num(run_of(w, "csd-devec"), &["gate", "gated_fraction"]);
    let fig15_per: Vec<Json> = workload_names
        .iter()
        .map(|w| {
            Json::obj([
                ("name", Json::from(*w)),
                ("gated_fraction", Json::from(gated_fraction(w))),
            ])
        })
        .collect();
    figures.push_member(
        "fig15",
        Json::obj([
            (
                "avg_gated_fraction",
                Json::from(mean(workload_names.iter().map(|w| gated_fraction(w)))),
            ),
            ("per", Json::Arr(fig15_per)),
        ]),
    );

    let fig16_per: Vec<Json> = workload_names
        .iter()
        .map(|w| {
            let g = run_of(w, "csd-devec").get("gate").unwrap();
            let total =
                num(g, &["on_cycles"]) + num(g, &["waking_cycles"]) + num(g, &["gated_cycles"]);
            let frac = |k: &str| {
                if total > 0.0 {
                    num(g, &[k]) / total
                } else {
                    0.0
                }
            };
            Json::obj([
                ("name", Json::from(*w)),
                ("on_fraction", Json::from(frac("on_cycles"))),
                ("waking_fraction", Json::from(frac("waking_cycles"))),
                ("gated_fraction", Json::from(frac("gated_cycles"))),
            ])
        })
        .collect();
    figures.push_member("fig16", Json::Arr(fig16_per));
    figures.push_member("table1", results.get("table1").clone());

    // Tolerance bands over the headline metrics (EXPERIMENTS.md).
    let checks = if cfg.checks {
        let first = cfg.wd_periods.first().copied().unwrap_or(0);
        let last = cfg.wd_periods.last().copied().unwrap_or(0);
        let wd_slowdown = |period: u64| {
            let pi = cfg.wd_periods.iter().position(|p| *p == period).unwrap();
            mean(names.iter().map(|n| {
                let r = results.get(&format!("wd/{n}"));
                num(
                    &r.get("periods").unwrap().as_arr().unwrap()[pi],
                    &["slowdown"],
                )
            }))
        };
        vec![
            Check {
                name: "fig07a_undefended_bits",
                value: num(aes_und, &["bits_recovered"]),
                lo: 56.0,
                hi: 128.0,
            },
            Check {
                name: "fig07a_stealth_bits",
                value: num(aes_ste, &["bits_recovered"]),
                lo: 0.0,
                hi: 0.0,
            },
            Check {
                name: "fig07b_fr_undefended_bits",
                value: num(results.get("attack/rsa-fr/undefended"), &["correct_bits"]),
                lo: 60.0,
                hi: 64.0,
            },
            Check {
                name: "fig07b_fr_stealth_bits",
                value: num(results.get("attack/rsa-fr/stealth"), &["correct_bits"]),
                lo: 0.0,
                hi: 45.0,
            },
            Check {
                name: "fig08_opt_avg_slowdown",
                value: mean(
                    names
                        .iter()
                        .map(|n| num(results.get(&format!("sec/opt/{n}")), &["slowdown"])),
                ),
                lo: 1.0,
                hi: 1.15,
            },
            Check {
                name: "fig09_opt_avg_uop_expansion",
                value: mean(
                    names
                        .iter()
                        .map(|n| num(results.get(&format!("sec/opt/{n}")), &["uop_expansion"])),
                ),
                lo: 0.0,
                hi: 0.35,
            },
            Check {
                name: "fig11_slowdown_longest_minus_shortest",
                value: wd_slowdown(last) - wd_slowdown(first),
                lo: -0.5,
                hi: 0.005,
            },
            Check {
                name: "fig12_avg_saving_vs_conventional",
                value: mean(savings.iter().copied()),
                lo: 0.005,
                hi: 0.20,
            },
            Check {
                name: "fig13_avg_csd_over_conventional_cycles",
                value: mean(
                    workload_names
                        .iter()
                        .map(|w| cycle_ratio(w, "csd-devec", "conventional")),
                ),
                lo: 0.90,
                hi: 1.05,
            },
            Check {
                name: "fig15_avg_gated_fraction",
                value: mean(workload_names.iter().map(|w| gated_fraction(w))),
                lo: 0.5,
                hi: 1.0,
            },
        ]
    } else {
        Vec::new()
    };

    let json = Json::obj([
        ("suite", cfg.to_json()),
        ("security", security),
        ("watchdog", watchdog),
        ("attacks", attacks),
        ("devec", devec),
        ("figures", figures),
        (
            "checks",
            Json::Arr(checks.iter().map(|c| c.to_json()).collect()),
        ),
    ]);
    SuiteReport { json, checks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{security_row, DEFAULT_WATCHDOG};
    use csd_exp::{run_plan_with, ExperimentSpec, NoCache};
    use csd_pipeline::CoreConfig;
    use csd_telemetry::derive_seed;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn grid_covers_every_family() {
        let cfg = SuiteConfig::quick(1, 1);
        let tasks = build_tasks(&cfg);
        assert_eq!(tasks.len(), 16 + 8 + 2 + 4 + 30 + 1);
        let labels: Vec<&str> = tasks.iter().map(|t| t.label()).collect();
        assert!(labels.contains(&"sec/opt/aes-enc"));
        assert!(labels.contains(&"sec/noopt/rijndael-dec"));
        assert!(labels.contains(&"wd/rsa-dec"));
        assert!(labels.contains(&"attack/aes-pp/stealth"));
        assert!(labels.contains(&"attack/rsa-pp/undefended"));
        assert!(labels.contains(&"devec/namd/csd-devec"));
        assert!(labels.contains(&"table1"));
        // Labels are unique: each is a distinct seed-derivation domain.
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    #[test]
    fn memoization_is_transparent_to_a_suite_task() {
        // A fig08 datapoint — the exact closure body of `sec/opt/aes-enc`
        // — must serialize to byte-identical JSON with decode memoization
        // force-disabled, enabled memo being pure simulator bookkeeping.
        let seed = derive_seed(0xC5D_2018, "sec/opt/aes-enc");
        let spec = ExperimentSpec::pair("aes-enc", "opt", seed, 2, DEFAULT_WATCHDOG);
        let run = |cfg: CoreConfig| {
            let result = run_plan_with(&spec, cfg, &NoCache, 1).unwrap();
            security_row(&result).to_json().pretty()
        };
        let on = run(CoreConfig::opt());
        let off = run(CoreConfig {
            decode_memo_enabled: false,
            ..CoreConfig::opt()
        });
        assert_eq!(on, off, "memoization must not perturb suite output");
    }

    #[test]
    fn a_failed_completion_ends_the_run_with_no_report() {
        // A journal append that fails (disk full) surfaces as an `Err`
        // from the completion callback. No unprivileged test can make a
        // real append fail, so the callback is wrapped to fail on its
        // third call: the run must end in that error with no report,
        // claim no further task, and leave the two published results in
        // the journal.
        let cfg = SuiteConfig::quick(7, 1);
        let meta = journal_meta(&cfg, Some("wd/"));
        let path = std::env::temp_dir().join(format!("csd-append-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let journal = Mutex::new(RunJournal::open(&path, &meta).unwrap());
        let calls = AtomicUsize::new(0);
        let out = run_grid(
            &cfg,
            Some("wd/"),
            Some(&journal),
            |tasks, pending, complete| {
                local_backend(&cfg)(tasks, pending, &|i, v| {
                    if calls.fetch_add(1, Ordering::SeqCst) == 2 {
                        return Err("journal append: disk full".to_string());
                    }
                    complete(i, v)
                })
            },
        );
        assert_eq!(out.unwrap_err(), "journal append: disk full");
        assert_eq!(
            calls.load(Ordering::SeqCst),
            3,
            "no task ran after the error"
        );
        drop(journal);
        assert_eq!(RunJournal::open(&path, &meta).unwrap().replayed().len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn an_empty_filter_is_an_error() {
        let cfg = SuiteConfig::quick(7, 1);
        let out = run_grid(&cfg, Some("no-such-task"), None, |_, _, _| {
            panic!("nothing to hand the backend")
        });
        assert_eq!(out.unwrap_err(), "filter \"no-such-task\" matches no task");
    }

    #[test]
    fn a_backend_that_skips_a_task_is_an_error() {
        let cfg = SuiteConfig::quick(7, 1);
        let out = run_grid(&cfg, Some("table1"), None, |_, _, _| Ok(()));
        assert_eq!(out.unwrap_err(), "task \"table1\" has no result");
    }

    #[test]
    fn duplicate_completions_must_agree() {
        // A hedged task completes twice; identical bytes are one result,
        // different bytes are an error.
        let cfg = SuiteConfig::quick(7, 1);
        let twice = |second: Json| {
            run_grid(&cfg, Some("table1"), None, |tasks, _, complete| {
                let t = &tasks[0];
                complete(0, t.run(t.seed(cfg.root_seed)))?;
                complete(0, second)
            })
        };
        let t = crate::tasks::find_task(&cfg, "table1").unwrap();
        let same = twice(t.run(t.seed(cfg.root_seed))).unwrap();
        assert_eq!(same.json().pretty(), run_filtered(&cfg, "table1").pretty());
        let err = twice(Json::from(0u64)).unwrap_err();
        assert!(
            err.contains("completed twice with different results"),
            "{err}"
        );
    }

    #[test]
    fn filtered_run_matches_full_grid_task() {
        // `run_filtered` must reproduce the exact bytes the same task
        // produces inside the full grid: same label-derived seed, same
        // closure — only the report wrapper differs.
        let cfg = SuiteConfig::quick(0xC5D, 1);
        let doc = run_filtered(&cfg, "table1");
        let rows = doc.get("tasks").unwrap().as_arr().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("label").and_then(Json::as_str), Some("table1"));
        let t = crate::tasks::find_task(&cfg, "table1").unwrap();
        let direct = t.run(t.seed(cfg.root_seed));
        assert_eq!(
            rows[0].get("result").unwrap().pretty(),
            direct.pretty(),
            "filtered run must serve the grid's bytes"
        );
        // And the whole filtered document is deterministic.
        assert_eq!(doc.pretty(), run_filtered(&cfg, "table1").pretty());
    }

    #[test]
    fn check_band_logic() {
        let c = Check {
            name: "x",
            value: 1.0,
            lo: 0.5,
            hi: 1.0,
        };
        assert!(c.pass());
        let c = Check {
            name: "x",
            value: 1.01,
            lo: 0.5,
            hi: 1.0,
        };
        assert!(!c.pass());
    }

    #[test]
    fn table1_reports_the_default_machine() {
        let t = crate::tasks::table1_json();
        assert_eq!(t.get("rob_entries").and_then(Json::as_u64), Some(168));
        assert!(t.get("l1d").and_then(|l| l.get("size_bytes")).is_some());
    }
}
