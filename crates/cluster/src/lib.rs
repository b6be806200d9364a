//! # csd-cluster — distributed suite execution over sharded `csd-serve` workers
//!
//! A coordinator that shards the experiment grid (and ad-hoc
//! [`ExperimentSpec`] plans) across a pool of `csd-serve` daemons over
//! HTTP and merges the per-task answers into an artifact **byte-identical**
//! to a single-node `suite` run. The determinism contract the rest of
//! the repository maintains — per-task seeds derived from labels, no
//! timestamps in reports, number-identity-preserving JSON — is exactly
//! what makes a distributed run `cmp`-equal to the CLI at any worker
//! count, under retries, hedges, and mid-run worker deaths.
//!
//! Three layers:
//!
//! - [`pool`] — who the workers are: a static address list or
//!   coordinator-spawned local daemons, plus per-worker liveness,
//!   health, and latency state.
//! - [`sched`] — how work reaches them: a FIFO board dispatched over
//!   bounded per-worker windows on keep-alive connections, with seeded
//!   exponential backoff (shared `csd_serve::RetryClient`), `503`
//!   re-queueing, straggler hedging with first-result-wins dedup, and
//!   reassignment of everything a dead worker held.
//! - [`merge`] — how answers become the artifact: per-task documents
//!   are verified (label + seed) and their `result` subtrees handed to
//!   the same grid driver (`csd_bench::suite::run_grid`) the `suite`
//!   CLI uses, which journals them and assembles the report.
//!
//! See `DESIGN.md` ("Cluster architecture") and the README's
//! "Distributed execution" section.

#![warn(missing_docs)]

pub mod merge;
pub mod pool;
pub mod sched;

pub use merge::{task_result_from_doc, unit_for_task, verify_exact_labels};
pub use pool::{WorkerPool, WorkerState};
pub use sched::{run_units_with, Board, Claim, ClusterConfig, Completion, WorkUnit};

use csd_bench::suite::{run_grid, Complete, SuiteConfig};
use csd_bench::tasks::TaskDef;
use csd_exp::ExperimentSpec;
use csd_telemetry::{Json, RunJournal, ToJson};
use std::sync::Mutex;

/// A cluster-level failure: every worker died, a task exhausted its
/// failure budget, or a worker answered something that fails
/// verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterError(pub String);

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ClusterError {}

/// What a distributed suite run produced: the same type, and the same
/// bytes, as a single-node run.
pub use csd_bench::suite::GridOutput as DistributedOutput;

/// Runs the suite grid (optionally `--filter`-reduced) across the pool
/// under an optional write-ahead journal, and reassembles the
/// single-node artifact. `cfg` must be a stock profile
/// (`SuiteConfig::named`): workers reconstruct it from `(profile, seed)`
/// alone, so a locally mutated config cannot be shipped. Returns the
/// output plus the cluster telemetry document.
///
/// This is [`run_grid`] over [`remote_backend`]: tasks already journaled
/// are not dispatched at all, and every fresh completion is journaled
/// the moment its response is verified. The journal format is shared
/// with the single-node `suite`, so a run can crash under one runner and
/// resume under the other; either way the final artifact is
/// byte-identical to an uninterrupted run.
pub fn run_suite_distributed_resumable(
    pool: &WorkerPool,
    cfg: &SuiteConfig,
    filter: Option<&str>,
    cluster: &ClusterConfig,
    journal: Option<&Mutex<RunJournal>>,
) -> Result<(DistributedOutput, Json), ClusterError> {
    let mut telemetry = Json::Null;
    let output = run_grid(
        cfg,
        filter,
        journal,
        remote_backend(pool, cfg, cluster, &mut telemetry),
    )
    .map_err(ClusterError)?;
    Ok((output, telemetry))
}

/// The [`run_grid`] backend that shards the pending tasks over the
/// pool's `csd-serve` workers. Each task goes out as one
/// [`unit_for_task`] request. Every `200`, hedge copies included, is
/// verified against the question asked ([`task_result_from_doc`]) and
/// handed to the driver's completion callback before the board counts
/// it, so a journaled result is always in place before the win is.
/// The cluster telemetry document, with a `replayed` count of the tasks
/// the journal already held, is left in `telemetry`.
pub fn remote_backend<'a>(
    pool: &'a WorkerPool,
    cfg: &'a SuiteConfig,
    cluster: &'a ClusterConfig,
    telemetry: &'a mut Json,
) -> impl FnOnce(&[TaskDef], &[usize], &Complete<'_>) -> Result<(), String> + 'a {
    move |tasks, pending, complete| {
        verify_exact_labels(cfg, tasks).map_err(|e| e.0)?;
        let units: Vec<WorkUnit> = pending
            .iter()
            .map(|&i| unit_for_task(tasks[i].label(), cfg.profile, cfg.root_seed))
            .collect();
        let (_, mut t) = run_units_with(pool, &units, cluster, &|u, body| {
            let task = &tasks[pending[u]];
            let result = task_result_from_doc(body, task.label(), task.seed(cfg.root_seed))
                .map_err(|e| e.0)?;
            complete(pending[u], result)
        })
        .map_err(|e| e.0)?;
        t.push_member("replayed", Json::from((tasks.len() - pending.len()) as u64));
        *telemetry = t;
        Ok(())
    }
}

/// Runs ad-hoc experiment plans across the pool, preserving input
/// order. Each spec is validated locally, posted in its canonical JSON
/// serialization, and the plan results come back as
/// `{"specs": [ {spec, result}, ... ]}`.
pub fn run_specs_distributed(
    pool: &WorkerPool,
    specs: &[ExperimentSpec],
    cluster: &ClusterConfig,
) -> Result<(Json, Json), ClusterError> {
    for (i, spec) in specs.iter().enumerate() {
        spec.validate()
            .map_err(|e| ClusterError(format!("spec {i}: {e}")))?;
    }
    let units: Vec<WorkUnit> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| WorkUnit {
            label: format!("spec/{i}/{}/{}", spec.victim, spec.pipeline),
            body: Json::obj([("experiment", spec.to_json())]).dump(),
        })
        .collect();
    let (bodies, telemetry) = run_units_with(pool, &units, cluster, &|_, _| Ok(()))?;
    let mut rows = Vec::with_capacity(bodies.len());
    for ((spec, unit), body) in specs.iter().zip(&units).zip(&bodies) {
        let text = std::str::from_utf8(body)
            .map_err(|_| ClusterError(format!("{}: response is not UTF-8", unit.label)))?;
        let result = Json::parse(text)
            .map_err(|e| ClusterError(format!("{}: response is not JSON: {e}", unit.label)))?;
        rows.push(Json::obj([("spec", spec.to_json()), ("result", result)]));
    }
    Ok((Json::obj([("specs", Json::Arr(rows))]), telemetry))
}
