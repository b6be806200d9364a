//! The `serve-mix` request catalogue and its seeded generator.
//!
//! Requests come in batches of [`BATCH`]: every batch holds exactly
//! [`WEIGHTS`] requests of each kind, in a seeded order. Warm and devec
//! requests are dealt from seeded decks over their catalogue entries, so
//! each entry is drawn equally often; each cold request gets a fresh seed.

use csd_bench::run_devec;
use csd_bench::suite::{run_filtered, SuiteConfig};
use csd_exp::{pipelines, policies, run_plan, victim_names, ExperimentSpec, LegMode, NoCache};
use csd_telemetry::{derive_seed, Json, SplitMix64, ToJson};
use csd_workloads::{specs, Workload};

/// Measured operations per experiment request (each takes a few ms).
pub const BLOCKS: usize = 4;
/// Workload scale of the devec requests.
pub const DEVEC_SCALE: f64 = 0.02;
/// Requests of each kind per batch: warm fork, cold run, devec job,
/// `table1` task.
pub const WEIGHTS: [(Kind, usize); 4] = [
    (Kind::Warm, 7),
    (Kind::Cold, 1),
    (Kind::Devec, 1),
    (Kind::Table1, 1),
];
/// Requests per batch.
pub const BATCH: usize = 10;
/// The seed the daemon uses for a `task` request without one.
const TASK_DEFAULT_SEED: u64 = 0xC5D_2018;

/// Request kinds of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A single-leg fork of one of the parked sessions.
    Warm,
    /// A run on a fresh seed: warms and parks a new session.
    Cold,
    /// One workload under one VPU policy.
    Devec,
    /// The `table1` grid task.
    Table1,
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    /// An experiment plan (warm or cold).
    Experiment(Kind, ExperimentSpec),
    /// A devec job.
    Devec {
        /// Workload name.
        workload: &'static str,
        /// VPU policy name.
        policy: &'static str,
    },
    /// The `table1` task.
    Table1,
}

impl Req {
    /// The request's kind.
    #[cfg(test)]
    pub fn kind(&self) -> Kind {
        match self {
            Req::Experiment(k, _) => *k,
            Req::Devec { .. } => Kind::Devec,
            Req::Table1 => Kind::Table1,
        }
    }

    /// The `POST /v1/experiments` body.
    pub fn body(&self) -> String {
        match self {
            Req::Experiment(_, spec) => Json::obj([("experiment", spec.to_json())]).dump(),
            Req::Devec { workload, policy } => Json::obj([(
                "devec",
                Json::obj([
                    ("workload", Json::from(*workload)),
                    ("policy", Json::from(*policy)),
                    ("scale", Json::from(DEVEC_SCALE)),
                ]),
            )])
            .dump(),
            Req::Table1 => r#"{"task":"table1","profile":"quick"}"#.to_string(),
        }
    }

    /// The response body the daemon must send, computed in-process.
    pub fn expected(&self) -> Result<Vec<u8>, String> {
        Ok(match self {
            Req::Experiment(_, spec) => run_plan(spec, &NoCache, 1)
                .map_err(|e| e.0)?
                .to_json()
                .pretty()
                .into_bytes(),
            Req::Devec { workload, policy } => {
                let spec = specs()
                    .into_iter()
                    .find(|s| s.name == *workload)
                    .ok_or_else(|| format!("no workload {workload}"))?;
                let (_, vpu) = *policies()
                    .iter()
                    .find(|(n, _)| n == policy)
                    .ok_or_else(|| format!("no policy {policy}"))?;
                let run = run_devec(&Workload::with_scale(spec, DEVEC_SCALE), vpu);
                Json::obj([
                    ("workload", Json::from(*workload)),
                    ("policy", Json::from(*policy)),
                    ("scale", Json::from(DEVEC_SCALE)),
                    ("run", run.to_json()),
                ])
                .pretty()
                .into_bytes()
            }
            Req::Table1 => {
                let cfg = SuiteConfig::quick(TASK_DEFAULT_SEED, 1);
                run_filtered(&cfg, "table1").pretty().into_bytes()
            }
        })
    }
}

/// The fixed catalogue the mix draws from.
#[derive(Debug, Clone)]
pub struct Catalogue {
    /// 8 victims × `opt`/`noopt` × {base, stealth wd 1000, stealth wd
    /// 2000}, over the 16 sessions of [`Catalogue::sessions`].
    pub warm: Vec<ExperimentSpec>,
    /// Every workload × VPU policy.
    pub devec: Vec<(&'static str, &'static str)>,
    /// `(victim, pipeline)` pairs cold runs draw from.
    pub pairs: Vec<(String, &'static str)>,
    seed: u64,
}

impl Catalogue {
    /// The catalogue for workload seed `seed` (which picks the sessions'
    /// simulation seeds).
    pub fn new(seed: u64) -> Catalogue {
        let pairs: Vec<(String, &'static str)> = victim_names()
            .into_iter()
            .flat_map(|v| pipelines().map(|(p, _)| (v.clone(), p)))
            .collect();
        let modes = [
            LegMode::Base,
            LegMode::Stealth { watchdog: 1000 },
            LegMode::Stealth { watchdog: 2000 },
        ];
        let warm = pairs
            .iter()
            .flat_map(|(v, p)| {
                let s = derive_seed(seed, &format!("warm/{v}/{p}"));
                modes
                    .iter()
                    .map(move |m| ExperimentSpec::single(v, p, s, BLOCKS, m.clone()))
            })
            .collect();
        let devec = specs()
            .iter()
            .flat_map(|w| policies().map(|(p, _)| (w.name, p)))
            .collect();
        Catalogue {
            warm,
            devec,
            pairs,
            seed,
        }
    }

    /// One base-leg request per session; sending these to an empty
    /// daemon parks every session the warm requests fork from.
    pub fn sessions(&self) -> Vec<Req> {
        self.warm
            .iter()
            .filter(|s| s.legs[0].mode == LegMode::Base)
            .map(|s| Req::Experiment(Kind::Warm, s.clone()))
            .collect()
    }
}

/// A seeded permutation of `0..n`, reshuffled every time it runs out.
#[derive(Debug, Clone)]
struct Deck {
    order: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new(n: usize) -> Deck {
        Deck {
            order: (0..n).collect(),
            next: n,
        }
    }

    fn deal(&mut self, rng: &mut SplitMix64) -> usize {
        if self.next == self.order.len() {
            shuffle(&mut self.order, rng);
            self.next = 0;
        }
        self.next += 1;
        self.order[self.next - 1]
    }
}

/// Fisher–Yates over the half-open `range_u64`.
fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.range_u64(0, i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Deals the request stream of one run.
#[derive(Debug, Clone)]
pub struct MixGen {
    cat: Catalogue,
    rng: SplitMix64,
    warm: Deck,
    devec: Deck,
    pairs: Deck,
    colds: u64,
}

impl MixGen {
    /// The generator for workload seed `seed`.
    pub fn new(cat: Catalogue) -> MixGen {
        MixGen {
            rng: SplitMix64::new(derive_seed(cat.seed, "serve-mix/order")),
            warm: Deck::new(cat.warm.len()),
            devec: Deck::new(cat.devec.len()),
            pairs: Deck::new(cat.pairs.len()),
            colds: 0,
            cat,
        }
    }

    /// The next batch of [`BATCH`] requests.
    pub fn batch(&mut self) -> Vec<Req> {
        let mut out = Vec::with_capacity(BATCH);
        for (kind, n) in WEIGHTS {
            for _ in 0..n {
                out.push(self.draw(kind));
            }
        }
        shuffle(&mut out, &mut self.rng);
        out
    }

    fn draw(&mut self, kind: Kind) -> Req {
        match kind {
            Kind::Warm => {
                let i = self.warm.deal(&mut self.rng);
                Req::Experiment(Kind::Warm, self.cat.warm[i].clone())
            }
            Kind::Cold => {
                let (v, p) = &self.cat.pairs[self.pairs.deal(&mut self.rng)];
                self.colds += 1;
                let seed = derive_seed(self.cat.seed, &format!("cold/{}", self.colds));
                Req::Experiment(
                    Kind::Cold,
                    ExperimentSpec::single(v, p, seed, BLOCKS, LegMode::Base),
                )
            }
            Kind::Devec => {
                let (workload, policy) = self.cat.devec[self.devec.deal(&mut self.rng)];
                Req::Devec { workload, policy }
            }
            Kind::Table1 => Req::Table1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn weights_fill_a_batch() {
        assert_eq!(WEIGHTS.iter().map(|(_, n)| n).sum::<usize>(), BATCH);
    }

    #[test]
    fn catalogue_spans_sixteen_sessions() {
        let cat = Catalogue::new(1);
        assert_eq!(cat.warm.len(), 48);
        assert_eq!(cat.sessions().len(), 16);
        let keys: std::collections::HashSet<_> = cat.warm.iter().map(|s| s.key()).collect();
        assert_eq!(keys.len(), 16, "three legs fork each session");
        assert!(!cat.devec.is_empty());
    }

    #[test]
    fn every_batch_holds_each_kind_at_its_weight() {
        let mut g = MixGen::new(Catalogue::new(7));
        for _ in 0..50 {
            let b = g.batch();
            assert_eq!(b.len(), BATCH);
            for (kind, n) in WEIGHTS {
                assert_eq!(b.iter().filter(|r| r.kind() == kind).count(), n);
            }
        }
    }

    #[test]
    fn every_catalogue_entry_is_drawn_at_its_weight() {
        let cat = Catalogue::new(11);
        let (nw, nd) = (cat.warm.len(), cat.devec.len());
        let mut g = MixGen::new(cat.clone());
        // Whole decks of both: every warm entry exactly `rounds` times,
        // every devec entry exactly `rounds * 7` times.
        let rounds = 7 * nd;
        let batches = rounds * nw / 7;
        let mut warm: HashMap<String, usize> = HashMap::new();
        let mut devec: HashMap<String, usize> = HashMap::new();
        let mut cold_seeds = std::collections::HashSet::new();
        for _ in 0..batches {
            for r in g.batch() {
                match &r {
                    Req::Experiment(Kind::Warm, _) => *warm.entry(r.body()).or_default() += 1,
                    Req::Experiment(_, s) => assert!(cold_seeds.insert(s.seed)),
                    Req::Devec { .. } => *devec.entry(r.body()).or_default() += 1,
                    Req::Table1 => {}
                }
            }
        }
        assert_eq!(warm.len(), nw);
        assert!(warm.values().all(|&n| n == rounds), "{warm:?}");
        assert_eq!(devec.len(), nd);
        assert!(devec.values().all(|&n| n == batches / nd));
        assert_eq!(cold_seeds.len(), batches, "every cold run is a fresh seed");
        // The stealth legs, both watchdogs and every victim are reached.
        let bodies: String = warm.keys().cloned().collect();
        for needle in [
            "stealth",
            "1000",
            "2000",
            "rsa-enc",
            "rijndael-dec",
            "noopt",
        ] {
            assert!(bodies.contains(needle), "{needle} never drawn");
        }
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let take = |seed| {
            let mut g = MixGen::new(Catalogue::new(seed));
            (0..5)
                .flat_map(|_| g.batch())
                .map(|r| r.body())
                .collect::<Vec<_>>()
        };
        assert_eq!(take(3), take(3));
        assert_ne!(take(3), take(4));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut v, &mut rng);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
        assert_ne!(v, s);
        // One-element and empty slices are fine (no empty-range draw).
        shuffle(&mut [1], &mut rng);
        shuffle::<u8>(&mut [], &mut rng);
    }
}
