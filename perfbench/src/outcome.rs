//! What one workload run measured, and the time-bounded pass loop all
//! workloads share.

use crate::trace::Span;
use csd_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions before the timed phase.
pub const SETUP_REPS: usize = 5;

/// Everything a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (tasks run, requests sent).
    pub attempted: u64,
    /// Operations that failed: non-200 after retries, transport error,
    /// panic, or output that fails byte verification.
    pub failed: u64,
    /// Duration of each set-up repetition, seconds.
    pub setup_reps: Vec<f64>,
    /// `setup_s`: the set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of each untraced pass (one fixed unit of work), seconds.
    pub pass_s: Vec<f64>,
    /// Wall time of each traced pass, seconds.
    pub traced_pass_s: Vec<f64>,
    /// `wall_s`: the time of one pass, seconds.
    pub wall_s: f64,
    /// The same figure over the traced passes.
    pub traced_wall_s: f64,
    /// `cpu_s`: user+system CPU seconds of this process and its daemons
    /// for one pass.
    pub cpu_s: f64,
    /// `req_per_s`: operations completed per second.
    pub req_per_s: f64,
    /// The largest `VmHWM` among this process and its daemons over the
    /// timed phase (counted from its start), MiB.
    pub peak_rss_mb: f64,
    /// Client-observed latency of every untraced operation, ms.
    pub lat_ms: Vec<f64>,
    /// Per-layer metrics from the traced passes, by metric name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Spans of the traced passes.
    pub spans: Vec<Span>,
    /// Free-form facts for the run's result file.
    pub notes: Vec<(String, Json)>,
}

impl Outcome {
    /// Records a failed operation with a reason for the result file.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.iter().filter(|(k, _)| k == "failure").count() < 20 {
            self.notes.push(("failure".to_string(), Json::from(why)));
        }
    }
}

/// Whether pass `k` of a run is traced: in a traced run, passes alternate
/// untraced/traced so both see the same conditions; otherwise none is.
pub fn traced_pass(trace: bool, k: usize) -> bool {
    trace && k % 2 == 1
}

/// Runs `pass(k)` for k = 0, 1, ... until `seconds` would be exceeded by
/// one more pass (estimated from the last one), and at least `min` times.
/// Returns how many passes ran.
///
/// # Errors
///
/// The first error a pass returns.
pub fn run_passes(
    seconds: f64,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<usize, String> {
    let t0 = Instant::now();
    let mut k = 0;
    loop {
        let p0 = Instant::now();
        pass(k)?;
        k += 1;
        let last = p0.elapsed().as_secs_f64();
        if k >= min && t0.elapsed().as_secs_f64() + last > seconds {
            return Ok(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_stop_at_the_budget_but_not_before_min() {
        let n = run_passes(0.0, 3, |_| Ok(())).unwrap();
        assert_eq!(n, 3);
        let n = run_passes(0.05, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(10));
            Ok(())
        })
        .unwrap();
        assert!((3..=5).contains(&n), "{n}");
        assert!(run_passes(1.0, 1, |_| Err("boom".to_string())).is_err());
    }

    #[test]
    fn traced_runs_alternate() {
        assert!(!traced_pass(false, 1));
        assert_eq!(
            (0..4).map(|k| traced_pass(true, k)).collect::<Vec<_>>(),
            [false, true, false, true]
        );
    }
}
