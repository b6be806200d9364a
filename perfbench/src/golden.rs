//! Expected task bytes, read back out of a committed suite report.
//!
//! A report (`BENCH_suite.json`, or the quick-profile golden) holds every
//! task's result value. [`Golden::load`] recovers the value of each grid
//! task from it and proves the recovery exact: re-assembling the report
//! from the recovered values through `assemble_report` must reproduce the
//! file byte for byte. A measured task is then correct when its
//! serialization equals its recovered value's.

use csd_bench::suite::{assemble_report, SuiteConfig};
use csd_bench::tasks::{build_tasks, victim_names};
use csd_telemetry::Json;
use std::path::Path;

/// The committed report of one suite profile.
#[derive(Debug, Clone)]
pub struct Golden {
    /// The suite configuration the report was made with.
    pub cfg: SuiteConfig,
    /// The file's bytes.
    pub bytes: Vec<u8>,
    /// Task labels in grid order.
    pub labels: Vec<String>,
    /// Each task's serialized result value, in grid order.
    pub values: Vec<String>,
}

impl Golden {
    /// Reads the report at `path`, made with profile `profile`.
    ///
    /// # Errors
    ///
    /// An unreadable or unparsable file, an unknown profile, a report
    /// missing a task, or values that do not re-assemble into the file.
    pub fn load(path: &Path, profile: &str) -> Result<Golden, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Golden::from_bytes(bytes, profile).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// [`Golden::load`] over bytes already read.
    ///
    /// # Errors
    ///
    /// As for [`Golden::load`].
    pub fn from_bytes(bytes: Vec<u8>, profile: &str) -> Result<Golden, String> {
        let text = std::str::from_utf8(&bytes).map_err(|_| "report is not UTF-8".to_string())?;
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let root_seed = doc
            .get("suite")
            .and_then(|s| s.get("root_seed"))
            .and_then(Json::as_u64)
            .ok_or("report has no suite.root_seed")?;
        let cfg = SuiteConfig::named(profile, root_seed, 1)
            .ok_or_else(|| format!("unknown profile {profile:?}"))?;
        let labels: Vec<String> = build_tasks(&cfg)
            .iter()
            .map(|t| t.label().to_string())
            .collect();
        let values = labels
            .iter()
            .map(|l| task_value(&doc, l))
            .collect::<Result<Vec<Json>, String>>()?;
        let rebuilt = assemble_report(&cfg, values.clone()).json.pretty();
        if rebuilt.as_bytes() != bytes.as_slice() {
            return Err("the task values read back do not re-assemble into the file".to_string());
        }
        Ok(Golden {
            cfg,
            bytes,
            labels,
            values: values.iter().map(Json::dump).collect(),
        })
    }

    /// The expected serialization of task `label`.
    pub fn expected(&self, label: &str) -> Option<&str> {
        let i = self.labels.iter().position(|l| l == label)?;
        Some(&self.values[i])
    }

    /// Every expected value parsed, in grid order (what
    /// `assemble_report` takes).
    pub fn parsed_values(&self) -> Vec<Json> {
        self.values
            .iter()
            .map(|v| Json::parse(v).expect("values were serialized from parsed JSON"))
            .collect()
    }
}

/// The result value of grid task `label` inside a full report: the
/// inverse of the report assembly in `csd_bench::suite`.
fn task_value(doc: &Json, label: &str) -> Result<Json, String> {
    let missing = || format!("report has no value for task {label:?}");
    let parts: Vec<&str> = label.split('/').collect();
    let victim_index = |name: &str| victim_names().iter().position(|n| n == name);
    let found = match parts.as_slice() {
        ["sec", pipeline, victim] => doc
            .get("security")
            .and_then(|s| s.get(pipeline))
            .and_then(Json::as_arr)
            .and_then(|rows| rows.get(victim_index(victim)?))
            .cloned(),
        ["wd", victim] => doc
            .get("watchdog")
            .and_then(Json::as_arr)
            .and_then(|rows| rows.get(victim_index(victim)?))
            .cloned(),
        ["attack", family, leg] => {
            let key = match *family {
                "aes-pp" => "aes_prime_probe",
                "rsa-fr" => "rsa_flush_reload",
                "rsa-pp" => "rsa_prime_probe",
                _ => return Err(missing()),
            };
            doc.get("attacks")
                .and_then(|a| a.get(key))
                .and_then(|a| a.get(leg))
                .cloned()
        }
        ["devec", workload, policy] => doc
            .get("devec")
            .and_then(|d| d.get(workload))
            .and_then(|d| d.get(policy))
            .map(|run| {
                Json::obj([
                    ("workload", Json::from(*workload)),
                    ("policy", Json::from(*policy)),
                    ("run", run.clone()),
                ])
            }),
        ["table1"] => doc.get("figures").and_then(|f| f.get("table1")).cloned(),
        _ => None,
    };
    found.ok_or_else(missing)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo(rel: &str) -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel)
    }

    #[test]
    fn committed_reports_round_trip() {
        let full = Golden::load(&repo("BENCH_suite.json"), "full").expect("full report");
        assert_eq!(full.labels.len(), 61);
        assert!(full.expected("attack/aes-pp/stealth").is_some());
        assert!(full.expected("devec/astar/csd-devec").is_some());
        let quick = Golden::load(&repo("crates/bench/tests/golden/quick_suite.json"), "quick")
            .expect("quick golden");
        assert_eq!(quick.cfg.profile, "quick");
        assert_eq!(quick.parsed_values().len(), 61);
    }

    #[test]
    fn a_report_missing_a_task_is_refused() {
        let text =
            std::fs::read_to_string(repo("crates/bench/tests/golden/quick_suite.json")).unwrap();
        let bad = text.replacen("\"table1\"", "\"table_one\"", 1);
        let err = Golden::from_bytes(bad.into_bytes(), "quick").unwrap_err();
        assert!(err.contains("table1"), "{err}");
    }

    #[test]
    fn a_report_whose_summaries_disagree_is_refused() {
        let text =
            std::fs::read_to_string(repo("crates/bench/tests/golden/quick_suite.json")).unwrap();
        // A figure summary no longer computed from the task values.
        let at = text.find("\"avg_slowdown\": ").unwrap() + "\"avg_slowdown\": ".len();
        let mut bad = text.clone();
        bad.insert(at, '9');
        let err = Golden::from_bytes(bad.into_bytes(), "quick").unwrap_err();
        assert!(err.contains("re-assemble"), "{err}");
    }
}
