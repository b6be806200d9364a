//! The in-process workloads: `grid-cycle` and `attack-functional`.
//!
//! An untraced pass runs every task of the workload once through
//! `TaskDef::run`, on one thread, in a seeded order. A traced pass runs
//! the same tasks, but replays the experiment-layer and attack tasks
//! through the crates' public steps with a span around each, so the time
//! splits by layer; its outputs are verified exactly like an untraced
//! pass's. Every output is checked against the committed report of its
//! profile after the timed phase.

use crate::golden::Golden;
use crate::outcome::{run_passes, traced_pass, Outcome, SETUP_REPS};
use crate::procfs::{peak_rss_mib, reset_peak_rss, thread_cpu_seconds, Proc};
use crate::trace::{summarize, Tracer};
use csd_attack::{victim_core, AesAttackConfig, AesAttackOutcome, Defense, PrimeProbe, ProbeKind};
use csd_bench::security_row;
use csd_bench::tasks::{build_tasks, TaskDef};
use csd_crypto::{AesKeySize, AesVictim, CipherDir, Victim};
use csd_exp::{
    apply_leg_mode, measure_blocks, pipelines, security_core, security_victims, warm_up,
    ExperimentResult, ExperimentSpec, LegMode, LegResult, DEFAULT_WATCHDOG,
};
use csd_pipeline::{Core, SimMode};
use csd_telemetry::{derive_seed, Json, SplitMix64, ToJson};
use mx86_isa::Program;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// The full-profile `sec/`, `wd/` and `devec/` tasks: the cycle engine.
    GridCycle,
    /// The quick-profile `attack/` tasks: the functional engine.
    AttackFunctional,
}

impl Which {
    fn prefixes(self) -> &'static [&'static str] {
        match self {
            Which::GridCycle => &["sec/", "wd/", "devec/"],
            Which::AttackFunctional => &["attack/"],
        }
    }

    /// The committed report the workload's tasks come from and are checked
    /// against, and its profile. The attack tasks run at the quick profile:
    /// at the full one a pass is two multi-second AES attacks, too few
    /// samples per run to see past host interference, while an encryption
    /// does the same work at either profile.
    fn report(self) -> (&'static str, &'static str) {
        match self {
            Which::GridCycle => ("BENCH_suite.json", "full"),
            Which::AttackFunctional => ("crates/bench/tests/golden/quick_suite.json", "quick"),
        }
    }
}

/// The workload after set-up: expected bytes and the task list.
struct Setup {
    golden: Golden,
    tasks: Vec<TaskDef>,
}

impl Setup {
    fn new(which: Which, root: &Path) -> Result<Setup, String> {
        let (report, profile) = which.report();
        let golden = Golden::load(&root.join(report), profile)?;
        let tasks: Vec<TaskDef> = build_tasks(&golden.cfg)
            .into_iter()
            .filter(|t| which.prefixes().iter().any(|p| t.label().starts_with(p)))
            .collect();
        Ok(Setup { golden, tasks })
    }
}

/// Exact work counts and span-independent figures of the traced passes.
#[derive(Debug, Default)]
struct Counts {
    cycle_insts: u64,
    functional_insts: u64,
    uops: u64,
    uop_cache_hits: u64,
    uop_cache_lookups: u64,
    memo_hits: u64,
    memo_lookups: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    decoy_uops: u64,
    encryptions: u64,
    warms: u64,
    forks: u64,
}

impl Counts {
    /// Adds the work `core`, running in `mode`, did since `before`.
    fn add_core_delta(&mut self, mode: SimMode, core: &Core, before: &CoreCounters) {
        let now = CoreCounters::of(core);
        match mode {
            SimMode::Cycle => self.cycle_insts += now.insts - before.insts,
            SimMode::Functional => self.functional_insts += now.insts - before.insts,
        }
        self.uops += now.uops - before.uops;
        self.decoy_uops += now.decoy_uops - before.decoy_uops;
        self.uop_cache_hits += now.uc_hits - before.uc_hits;
        self.uop_cache_lookups += now.uc_lookups - before.uc_lookups;
        self.memo_hits += now.memo_hits - before.memo_hits;
        self.memo_lookups += now.memo_lookups - before.memo_lookups;
        self.l1d_accesses += now.l1d_accesses - before.l1d_accesses;
        self.l1d_misses += now.l1d_misses - before.l1d_misses;
    }
}

/// A copy of the counters [`Counts`] tracks, read off a core.
#[derive(Debug, Clone, Copy)]
struct CoreCounters {
    insts: u64,
    uops: u64,
    decoy_uops: u64,
    uc_hits: u64,
    uc_lookups: u64,
    memo_hits: u64,
    memo_lookups: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
}

impl CoreCounters {
    fn of(core: &Core) -> CoreCounters {
        let s = core.stats();
        let uc = core.uop_cache_stats();
        let m = core.memo_stats();
        let l1d = core.hierarchy().stats().l1d;
        CoreCounters {
            insts: s.insts,
            uops: s.uops,
            decoy_uops: s.decoy_uops,
            uc_hits: uc.hits,
            uc_lookups: uc.lookups,
            memo_hits: m.hits,
            memo_lookups: m.hits + m.misses,
            l1d_accesses: l1d.accesses,
            l1d_misses: l1d.misses,
        }
    }
}

/// Runs one in-process workload.
///
/// # Errors
///
/// A set-up failure (a missing or inconsistent committed report).
pub fn run(
    which: Which,
    seed: u64,
    seconds: f64,
    trace: bool,
    root: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Setup::new(which, root)?;
        out.setup_reps.push(t0.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let Setup { golden, tasks } = setup.expect("at least one set-up");

    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut counts = Counts::default();
    // Outputs, serialized outside each task's timing and checked after the
    // timed phase.
    let mut results: Vec<(usize, String)> = Vec::new();
    let mut op = 0u64;
    // Per task, the fastest wall and CPU time over the untraced passes and
    // the fastest wall time over the traced ones.
    let mut best = vec![[f64::INFINITY; 3]; tasks.len()];
    reset_peak_rss(&[Proc::SelfProc])?;
    run_passes(seconds, if trace { 2 } else { 1 }, |k| {
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        let mut rng = SplitMix64::new(derive_seed(seed, &format!("pass/{k}")));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_u64(0, i as u64 + 1) as usize);
        }
        let traced = traced_pass(trace, k);
        let t0 = Instant::now();
        for &i in &order {
            let t = &tasks[i];
            let c0 = thread_cpu_seconds().map_err(|e| e.to_string())?;
            let s0 = Instant::now();
            let value = if traced {
                op += 1;
                tracer.begin_trace(op);
                tracer.span(
                    "bench.task",
                    |tr| traced_task(tr, t, &golden, &mut counts),
                    |_| 1,
                )
            } else {
                t.run(t.seed(golden.cfg.root_seed))
            };
            let wall = s0.elapsed().as_secs_f64();
            let cpu = thread_cpu_seconds().map_err(|e| e.to_string())? - c0;
            let b = &mut best[i];
            if traced {
                b[2] = b[2].min(wall);
            } else {
                out.lat_ms.push(wall * 1e3);
                b[0] = b[0].min(wall);
                b[1] = b[1].min(cpu);
            }
            results.push((i, value.dump()));
        }
        let wall = t0.elapsed().as_secs_f64();
        if traced {
            out.traced_pass_s.push(wall);
        } else {
            out.pass_s.push(wall);
        }
        // Set-up again after every pass, so its repetitions are spread over
        // the run like the passes are.
        let t0 = Instant::now();
        black_box(Setup::new(which, root)?);
        out.setup_reps.push(t0.elapsed().as_secs_f64());
        Ok(())
    })?;
    out.peak_rss_mb = peak_rss_mib(&[Proc::SelfProc])?;
    // A pass is the same work every time, so host interference only ever
    // adds to a task's time: build the pass from each task's fastest run,
    // and take the fastest set-up likewise.
    out.setup_s = out.setup_reps.iter().copied().fold(f64::INFINITY, f64::min);
    out.wall_s = best.iter().map(|b| b[0]).sum();
    out.cpu_s = best.iter().map(|b| b[1]).sum();
    out.traced_wall_s = if trace {
        best.iter().map(|b| b[2]).sum()
    } else {
        0.0
    };
    out.req_per_s = tasks.len() as f64 / out.wall_s;

    verify(&mut out, &results, &tasks, &golden);

    if trace {
        // Serialization and parsing of every output, outside the passes so
        // traced and untraced passes do the same work.
        for (_, text) in &results {
            op += 1;
            tracer.begin_trace(op);
            let doc = tracer
                .span(
                    "telemetry.parse",
                    |_| Json::parse(text),
                    |_| text.len() as u64,
                )
                .map_err(|e| e.to_string())?;
            tracer.span("telemetry.serialize", |_| doc.dump(), |s| s.len() as u64);
        }
        layer_metrics(which, &mut out, &tracer, &counts);
        out.spans = tracer.spans().to_vec();
    }
    Ok(out)
}

/// Counts every result as an attempted operation and each one whose
/// bytes differ from the committed report as a failed one.
fn verify(out: &mut Outcome, results: &[(usize, String)], tasks: &[TaskDef], golden: &Golden) {
    for (i, value) in results {
        out.attempted += 1;
        let label = tasks[*i].label();
        match golden.expected(label) {
            Some(want) if value == want => {}
            _ => out.fail(format!("{label}: output differs from the committed report")),
        }
    }
}

/// One task of a traced pass.
fn traced_task(tr: &mut Tracer, t: &TaskDef, golden: &Golden, counts: &mut Counts) -> Json {
    let cfg = &golden.cfg;
    let seed = t.seed(cfg.root_seed);
    let parts: Vec<&str> = t.label().split('/').collect();
    match parts.as_slice() {
        ["sec", pipeline, victim] => {
            let spec =
                ExperimentSpec::pair(victim, pipeline, seed, cfg.sec_blocks, DEFAULT_WATCHDOG);
            security_row(&replay_plan(tr, &spec, counts)).to_json()
        }
        ["wd", victim] => {
            let spec =
                ExperimentSpec::watchdog_sweep(victim, "opt", seed, cfg.wd_blocks, &cfg.wd_periods);
            watchdog_row(&replay_plan(tr, &spec, counts))
        }
        ["attack", "aes-pp", leg] => {
            let attack = AesAttackConfig {
                trials_per_candidate: cfg.aes_trials,
                seed: derive_seed(cfg.root_seed, "attack/aes-pp"),
                defense: if *leg == "stealth" {
                    Defense::stealth_default()
                } else {
                    Defense::None
                },
                ..AesAttackConfig::default()
            };
            replay_aes_attack(tr, &fig07a_victim(), &attack, counts)
        }
        _ => t.run(seed),
    }
}

/// `run_plan` for one spec, step by step through `csd-exp`'s public API,
/// with a span around warm-up, snapshot, each fork's restore, and each
/// leg's measurement. Like `run_plan`, it builds the victim set once to find
/// the victim, once for the warm phase and once per fork (victims are not
/// `Sync`); the warm and fork spans include those builds.
fn replay_plan(tr: &mut Tracer, spec: &ExperimentSpec, counts: &mut Counts) -> ExperimentResult {
    let (_, mk) = *pipelines()
        .iter()
        .find(|(n, _)| *n == spec.pipeline)
        .expect("grid pipelines exist");
    let index = security_victims()
        .iter()
        .position(|v| v.name() == spec.victim)
        .expect("grid victims exist");
    let mut rng = SplitMix64::new(spec.seed);
    let (mut core, before) = tr.span(
        "exp.warm",
        |_| {
            let victims = security_victims();
            let victim = victims[index].as_ref();
            let mut core = security_core(victim, mk());
            let before = CoreCounters::of(&core);
            let mut input = vec![0u8; victim.input_len()];
            warm_up(&mut core, victim, &mut rng, &mut input);
            (core, before)
        },
        |_| 1,
    );
    counts.add_core_delta(SimMode::Cycle, &core, &before);
    counts.warms += 1;
    let snapshot = tr.span("exp.snapshot", |_| core.snapshot(), |_| 1);
    let legs = spec
        .legs
        .iter()
        .map(|leg| {
            let (victims, mut fork) = tr.span(
                "exp.restore",
                |_| {
                    let victims = security_victims();
                    let mut c = security_core(victims[index].as_ref(), mk());
                    c.restore(&snapshot);
                    c.mark_plan_leg();
                    (victims, c)
                },
                |_| 1,
            );
            let victim = victims[index].as_ref();
            counts.forks += 1;
            let mut rng = rng;
            let mut input = vec![0u8; victim.input_len()];
            apply_leg_mode(&leg.mode, victim, &mut fork).expect("grid leg modes apply");
            let blocks = leg.blocks.unwrap_or(spec.blocks);
            let before = CoreCounters::of(&fork);
            let metrics = tr.span(
                "exp.measure",
                |_| measure_blocks(&mut fork, victim, &mut rng, &mut input, blocks),
                |m| m.insts,
            );
            counts.add_core_delta(SimMode::Cycle, &fork, &before);
            LegResult {
                mode: leg.mode.clone(),
                blocks,
                metrics,
            }
        })
        .collect();
    ExperimentResult {
        victim: spec.victim.clone(),
        pipeline: spec.pipeline.clone(),
        seed: spec.seed,
        warm: false,
        legs,
    }
}

/// The `wd/<victim>` task value, from its plan result (the shape
/// `csd_bench::tasks` builds).
fn watchdog_row(result: &ExperimentResult) -> Json {
    let base = result.legs[0].metrics;
    let rows = result.legs[1..]
        .iter()
        .map(|leg| {
            let LegMode::Stealth { watchdog } = leg.mode else {
                unreachable!("a watchdog sweep has only stealth legs after base");
            };
            Json::obj([
                ("period", Json::from(watchdog)),
                ("stealth", leg.metrics.to_json()),
                (
                    "slowdown",
                    Json::from(leg.metrics.cycles as f64 / base.cycles as f64),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("name", Json::from(result.victim.as_str())),
        ("base", base.to_json()),
        ("periods", Json::Arr(rows)),
    ])
}

/// The Figure 7a victim (AES-128, FIPS-197 key).
fn fig07a_victim() -> AesVictim {
    let key = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    AesVictim::new(AesKeySize::K128, CipherDir::Encrypt, &key)
}

/// `csd_attack::aes_attack` (PRIME+PROBE) step by step through
/// `csd-attack`'s public API, with a span around each encryption and,
/// inside it, around the prime, the victim's run on the functional engine
/// and the probe. Returns the `attack/aes-pp/<leg>` task value.
fn replay_aes_attack(
    tr: &mut Tracer,
    victim: &AesVictim,
    cfg: &AesAttackConfig,
    counts: &mut Counts,
) -> Json {
    let mut core = victim_core(victim, SimMode::Functional, cfg.defense);
    let mut rng = SplitMix64::new(cfg.seed);
    let line = cfg.monitored_line;
    let truth: Vec<u8> = victim.aes().enc_keys[..4]
        .iter()
        .flat_map(|w| w.to_be_bytes())
        .map(|b| b >> 4)
        .collect();
    let before = CoreCounters::of(&core);
    let mut touch_rates = Vec::with_capacity(16);
    let mut recovered = Vec::with_capacity(16);
    let mut encryptions = 0u64;
    for p in 0..16usize {
        let target = victim.table_line(p % 4, line);
        let mut rates = [0f64; 16];
        for g in 0..16u8 {
            let mut touched = 0usize;
            for _ in 0..cfg.trials_per_candidate {
                let mut pt = [0u8; 16];
                rng.fill_bytes(&mut pt[..]);
                pt[p] = ((g ^ line as u8) << 4) | (rng.next_u8() & 0x0f);
                let hit = tr.span(
                    "attack.encryption",
                    |tr| {
                        let pp = PrimeProbe::new(target, ProbeKind::Data, core.hierarchy());
                        let n = pp.lines().len() as u64;
                        tr.span("cache.prime", |_| pp.reset(core.hierarchy_mut()), |_| 2 * n);
                        tr.span(
                            "pipeline.run_once",
                            |_| {
                                let i0 = core.stats().insts;
                                black_box(victim.run_once(&mut core, &pt));
                                core.stats().insts - i0
                            },
                            |n| *n,
                        );
                        tr.span(
                            "cache.probe",
                            |_| pp.probe(core.hierarchy_mut()).victim_touched,
                            |_| n,
                        )
                    },
                    |_| 1,
                );
                touched += usize::from(hit);
                encryptions += 1;
            }
            rates[g as usize] = touched as f64 / cfg.trials_per_candidate as f64;
        }
        touch_rates.push(rates);
        let perfect: Vec<u8> = (0..16u8).filter(|&g| rates[g as usize] >= 1.0).collect();
        recovered.push((perfect.len() == 1).then(|| perfect[0]));
    }
    counts.add_core_delta(SimMode::Functional, &core, &before);
    counts.encryptions += encryptions;
    let out = AesAttackOutcome {
        touch_rates,
        recovered,
        truth,
        encryptions,
    };
    let pos0: Vec<Json> = out.touch_rates[0].iter().map(|r| Json::from(*r)).collect();
    Json::obj([
        ("encryptions", Json::from(out.encryptions)),
        (
            "correct_positions",
            Json::from(out.correct_positions() as u64),
        ),
        ("bits_recovered", Json::from(out.bits_recovered() as u64)),
        ("pos0_touch_rates", Json::Arr(pos0)),
    ])
}

/// Mean ns per call of `Program::fetch` and of `translate` over every
/// instruction address of `programs`.
fn frontend_probe(programs: &[&Program]) -> (f64, f64) {
    const REPS: usize = 200;
    let addrs: Vec<(&Program, u64)> = programs
        .iter()
        .flat_map(|p| p.iter().map(move |pl| (*p, pl.addr)))
        .collect();
    let calls = (addrs.len() * REPS) as f64;
    let t0 = Instant::now();
    for _ in 0..REPS {
        for (p, a) in &addrs {
            black_box(p.fetch(black_box(*a)));
        }
    }
    let fetch_ns = t0.elapsed().as_nanos() as f64 / calls;
    let placed: Vec<_> = addrs.iter().filter_map(|(p, a)| p.fetch(*a)).collect();
    let t0 = Instant::now();
    for _ in 0..REPS {
        for pl in &placed {
            black_box(csd_uops::translate(black_box(&pl.inst), pl.next_addr()));
        }
    }
    let translate_ns = t0.elapsed().as_nanos() as f64 / (placed.len() * REPS) as f64;
    (fetch_ns, translate_ns)
}

/// Mean ns per `Memory::read_le` over the four T-tables of an installed
/// AES victim.
fn table_read_probe(victim: &AesVictim) -> f64 {
    const REPS: usize = 100;
    let core = victim_core(victim, SimMode::Functional, Defense::None);
    let base = victim.layout().tables;
    let addrs: Vec<u64> = (0..4 * 256).map(|i| base + 4 * i).collect();
    let t0 = Instant::now();
    for _ in 0..REPS {
        for &a in &addrs {
            black_box(core.mem.read_le(black_box(a), 4));
        }
    }
    t0.elapsed().as_nanos() as f64 / (addrs.len() * REPS) as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fills the per-layer metrics of an in-process workload's traced run.
fn layer_metrics(which: Which, out: &mut Outcome, tracer: &Tracer, c: &Counts) {
    let sum = summarize(tracer.spans());
    let agg = |n: &str| sum.get(n).copied().unwrap_or_default();
    // Every pass does the same work, so counts per traced pass are exact.
    let passes = out.traced_pass_s.len().max(1) as u64;
    let per_pass = |n: u64| (n / passes) as f64;
    let l: &mut BTreeMap<&'static str, f64> = &mut out.layers;
    l.insert("bench.task_ms", agg("bench.task").mean_ms());
    l.insert(
        "telemetry.serialize_ms",
        agg("telemetry.serialize").mean_ms(),
    );
    l.insert("telemetry.parse_ms", agg("telemetry.parse").mean_ms());
    l.insert("exp.warm_ms", agg("exp.warm").mean_ms());
    l.insert("exp.snapshot_ms", agg("exp.snapshot").mean_ms());
    l.insert("exp.restore_ms", agg("exp.restore").mean_ms());
    l.insert("exp.measure_ms", agg("exp.measure").mean_ms());
    l.insert("exp.warms", per_pass(c.warms));
    l.insert("exp.forks", per_pass(c.forks));
    l.insert("pipeline.cycle_insts", per_pass(c.cycle_insts));
    l.insert("pipeline.functional_insts", per_pass(c.functional_insts));
    l.insert("pipeline.uops", per_pass(c.uops));
    let cycle_ns = agg("exp.warm").total_ns + agg("exp.measure").total_ns;
    l.insert("pipeline.cycle_ns_per_inst", ratio(cycle_ns, c.cycle_insts));
    l.insert(
        "pipeline.functional_ns_per_inst",
        agg("pipeline.run_once").ns_per_count(),
    );
    l.insert(
        "pipeline.uop_cache_hit_ratio",
        ratio(c.uop_cache_hits, c.uop_cache_lookups),
    );
    l.insert(
        "pipeline.memo_hit_ratio",
        ratio(c.memo_hits, c.memo_lookups),
    );
    l.insert("cache.accesses", per_pass(c.l1d_accesses));
    l.insert("cache.l1d_miss_ratio", ratio(c.l1d_misses, c.l1d_accesses));
    let (prime, probe) = (agg("cache.prime"), agg("cache.probe"));
    l.insert(
        "cache.access_ns",
        ratio(prime.total_ns + probe.total_ns, prime.count + probe.count),
    );
    l.insert("csd.decoy_uops", per_pass(c.decoy_uops));
    l.insert("attack.encryptions", per_pass(c.encryptions));
    l.insert(
        "attack.us_per_encryption",
        agg("attack.encryption").mean_ms() * 1e3,
    );

    let victims = security_victims();
    let fig07a = fig07a_victim();
    let programs: Vec<&Program> = match which {
        Which::GridCycle => victims.iter().map(|v| v.program()).collect(),
        Which::AttackFunctional => vec![fig07a.program()],
    };
    let (fetch_ns, translate_ns) = frontend_probe(&programs);
    l.insert("isa.fetch_ns", fetch_ns);
    l.insert("uops.translate_ns", translate_ns);
    if which == Which::AttackFunctional {
        l.insert("pipeline.mem_read_ns", table_read_probe(&fig07a));
    }
    out.notes.push((
        "span_self_ms".to_string(),
        Json::obj(
            sum.iter()
                .map(|(n, a)| (*n, Json::from(a.self_ns as f64 / 1e6)))
                .collect::<Vec<_>>(),
        ),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use csd_bench::suite::SuiteConfig;
    use csd_bench::tasks::find_task;

    fn quick() -> Golden {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../crates/bench/tests/golden/quick_suite.json");
        Golden::load(&path, "quick").expect("quick golden")
    }

    #[test]
    fn replays_equal_task_def_run_byte_for_byte() {
        let golden = quick();
        let cfg: &SuiteConfig = &golden.cfg;
        let mut tr = Tracer::new(Instant::now());
        let mut counts = Counts::default();
        for label in [
            "sec/opt/aes-enc",
            "sec/noopt/rsa-dec",
            "wd/blowfish-enc",
            "attack/aes-pp/stealth",
        ] {
            let t = find_task(cfg, label).unwrap();
            let replayed = traced_task(&mut tr, &t, &golden, &mut counts).dump();
            assert_eq!(replayed, t.run(t.seed(cfg.root_seed)).dump(), "{label}");
            assert_eq!(Some(replayed.as_str()), golden.expected(label), "{label}");
        }
        assert_eq!(counts.warms, 3);
        assert_eq!(counts.forks, 2 + 2 + 3);
        assert!(counts.cycle_insts > 0 && counts.functional_insts > 0);
        assert!(counts.decoy_uops > 0, "the stealth leg injects decoys");
        assert_eq!(counts.encryptions, 16 * 16 * cfg.aes_trials as u64);
        let sum = summarize(tr.spans());
        assert_eq!(sum["exp.restore"].n, 7);
        assert_eq!(sum["attack.encryption"].n, counts.encryptions);
        assert_eq!(sum["pipeline.run_once"].count, counts.functional_insts);
    }

    #[test]
    fn a_corrupted_expected_value_fails_verification() {
        let mut golden = quick();
        let t = find_task(&golden.cfg, "sec/opt/aes-enc").unwrap();
        let results = vec![(0, t.run(t.seed(golden.cfg.root_seed)).dump())];
        let tasks = vec![t];
        let mut out = Outcome::default();
        verify(&mut out, &results, &tasks, &golden);
        assert_eq!((out.attempted, out.failed), (1, 0));

        let i = golden
            .labels
            .iter()
            .position(|l| l == "sec/opt/aes-enc")
            .unwrap();
        golden.values[i] = golden.values[i].replacen("\"cycles\":", "\"cycles\":1", 1);
        let mut out = Outcome::default();
        verify(&mut out, &results, &tasks, &golden);
        assert_eq!((out.attempted, out.failed), (1, 1));
    }

    #[test]
    fn probes_measure_something() {
        let v = fig07a_victim();
        let (f, t) = frontend_probe(&[v.program()]);
        assert!(f > 0.0 && t > 0.0);
        assert!(table_read_probe(&v) > 0.0);
    }
}
