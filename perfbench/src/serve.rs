//! The `serve-mix` workload: a `csd-serve --workers 1` child process
//! driven by a closed loop over two keep-alive connections.
//!
//! Set-up spawns the daemon, waits for `GET /v1/health` to answer 200 and
//! parks the 16 warm sessions. Each pass is one batch of the seeded mix
//! (see [`crate::mix`]); both connections take the batch's requests in
//! turn and each sends its next request only when the previous one has
//! been answered. Every served body is compared with the same request
//! computed in-process after the timed phase, and the daemon is stopped
//! with `POST /v1/shutdown` and must exit 0.

use crate::mix::{Catalogue, MixGen, Req};
use crate::outcome::{run_passes, traced_pass, Outcome};
use crate::procfs::{cpu_seconds, peak_rss_mib, reset_peak_rss, Proc};
use crate::stats::{median, percentile};
use crate::trace::{summarize, Tracer};
use csd_serve::{Client, RetryClient};
use csd_telemetry::{derive_seed, Json};
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-up repetitions (each spawns, parks and stops a daemon; the last
/// daemon serves the timed phase).
const SETUP_REPS: usize = 3;
/// Keep-alive connections of the closed loop.
const CONNECTIONS: usize = 2;
/// Attempts per request (reconnects and `503` retries included).
const ATTEMPTS: u32 = 5;

/// A `csd-serve` child process.
pub struct Daemon {
    child: Child,
    /// `host:port` it listens on.
    pub addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `bin --addr 127.0.0.1:0 --workers N --cache-cap 16` and
    /// reads the bound address from its start-up line.
    pub fn spawn(bin: &Path, workers: usize) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &workers.to_string()])
            .args(["--cache-cap", "16"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut lines = BufReader::new(stderr).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        break rest.split_whitespace().next().unwrap_or("").to_string();
                    }
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("csd-serve exited before listening".to_string());
                }
            }
        };
        // Keep draining stderr so the daemon never blocks on a full pipe.
        let drain = std::thread::spawn(move || lines.for_each(drop));
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    /// The child's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Polls `GET /v1/health` until it answers 200 (10 s budget).
    pub fn wait_healthy(&self) -> Result<(), String> {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_secs(10) {
            if let Ok(mut c) = Client::connect_with(&self.addr, Duration::from_secs(2)) {
                if matches!(c.get("/v1/health"), Ok(r) if r.status == 200) {
                    return Ok(());
                }
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!("{} never became healthy", self.addr))
    }

    /// Stops the daemon with `POST /v1/shutdown` and checks that it exits
    /// 0 within 30 s (killing it otherwise).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect_with(&self.addr, Duration::from_secs(5))
            .and_then(|mut c| c.request("POST", "/v1/shutdown", b""));
        let t0 = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(s)) => break Some(s),
                Ok(None) if t0.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => break None,
            }
        };
        let result = match (asked, status) {
            (_, Some(s)) if s.success() => Ok(()),
            (_, Some(s)) => Err(format!("csd-serve exited with {s}")),
            (Err(e), None) => Err(format!("shutdown request failed: {e}")),
            (Ok(_), None) => Err("csd-serve did not exit within 30 s".to_string()),
        };
        self.reap();
        result
    }

    fn reap(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Counts and latency totals read from one `GET /metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricsSnap {
    /// Experiment jobs served from a warmed checkpoint.
    pub warm_hits: u64,
    /// Experiment jobs that warmed a fresh session.
    pub cold_runs: u64,
    /// Plan legs forked.
    pub plan_legs: u64,
    /// Jobs that waited in the queue, and their summed wait (µs).
    pub queue: (u64, u64),
    /// Jobs run, and their summed run time (µs).
    pub run: (u64, u64),
}

impl MetricsSnap {
    /// Reads the fields from a `/metrics` document.
    pub fn from_doc(doc: &Json) -> Result<MetricsSnap, String> {
        let n = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("/metrics: no {k}"))
        };
        let h = |k: &str| -> Result<(u64, u64), String> {
            let h = doc.get(k).ok_or(format!("/metrics: no {k}"))?;
            let f = |f: &str| {
                h.get(f)
                    .and_then(Json::as_u64)
                    .ok_or(format!("/metrics: no {k}.{f}"))
            };
            Ok((f("count")?, f("sum")?))
        };
        Ok(MetricsSnap {
            warm_hits: n("warm_hits")?,
            cold_runs: n("cold_runs")?,
            plan_legs: n("plan_legs")?,
            queue: h("queue_wait_us")?,
            run: h("run_us")?,
        })
    }

    /// `GET /metrics` on `addr`.
    pub fn fetch(addr: &str) -> Result<MetricsSnap, String> {
        let mut c =
            Client::connect_with(addr, Duration::from_secs(10)).map_err(|e| e.to_string())?;
        let r = c.get("/metrics").map_err(|e| e.to_string())?;
        if r.status != 200 {
            return Err(format!("/metrics answered {}", r.status));
        }
        MetricsSnap::from_doc(&Json::parse(&r.text()).map_err(|e| e.to_string())?)
    }

    /// What happened between `before` and `self`.
    pub fn since(&self, before: &MetricsSnap) -> MetricsSnap {
        MetricsSnap {
            warm_hits: self.warm_hits - before.warm_hits,
            cold_runs: self.cold_runs - before.cold_runs,
            plan_legs: self.plan_legs - before.plan_legs,
            queue: (self.queue.0 - before.queue.0, self.queue.1 - before.queue.1),
            run: (self.run.0 - before.run.0, self.run.1 - before.run.1),
        }
    }

    /// Adds another delta to this one.
    pub fn add(&mut self, d: &MetricsSnap) {
        self.warm_hits += d.warm_hits;
        self.cold_runs += d.cold_runs;
        self.plan_legs += d.plan_legs;
        self.queue = (self.queue.0 + d.queue.0, self.queue.1 + d.queue.1);
        self.run = (self.run.0 + d.run.0, self.run.1 + d.run.1);
    }

    /// Mean queue wait per job, ms.
    pub fn queue_ms(&self) -> f64 {
        mean_us_as_ms(self.queue)
    }

    /// Mean run time per job, ms.
    pub fn run_ms(&self) -> f64 {
        mean_us_as_ms(self.run)
    }
}

fn mean_us_as_ms((count, sum): (u64, u64)) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum as f64 / count as f64 / 1e3
    }
}

/// One answered (or failed) request.
struct Served {
    req: usize,
    result: Result<(u16, Vec<u8>), String>,
    lat_ms: f64,
}

/// Runs `serve-mix`.
///
/// # Errors
///
/// The daemon cannot be spawned, never becomes healthy, or refuses to
/// park a session.
pub fn run(seed: u64, seconds: f64, trace: bool, bin: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let cat = Catalogue::new(seed);
    let sessions = cat.sessions();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let d = Daemon::spawn(bin, 1)?;
        d.wait_healthy()?;
        let mut c = RetryClient::new(&d.addr, derive_seed(seed, "park"));
        for s in &sessions {
            let r = c
                .post_json("/v1/experiments", &s.body(), ATTEMPTS)
                .map_err(|e| format!("parking a session: {e}"))?;
            if r.status != 200 {
                return Err(format!("parking a session answered {}", r.status));
            }
        }
        drop(c);
        out.setup_reps.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    out.setup_s = median(&out.setup_reps);
    let procs = [Proc::SelfProc, Proc::Pid(daemon.pid())];

    let mut gen = MixGen::new(cat);
    let mut clients: Vec<RetryClient> = (0..CONNECTIONS)
        .map(|i| {
            RetryClient::new(&daemon.addr, derive_seed(seed, &format!("conn/{i}")))
                .with_read_timeout(Duration::from_secs(60))
        })
        .collect();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch);
    let mut reqs: Vec<Req> = Vec::new();
    let mut served: Vec<Served> = Vec::new();
    let mut traced_lat: Vec<f64> = Vec::new();
    let mut traced_daemon = MetricsSnap::default();
    let (mut cpu_total, mut ops) = (0.0, 0u64);
    reset_peak_rss(&procs)?;
    run_passes(seconds, if trace { 2 } else { 1 }, |k| {
        let traced = traced_pass(trace, k);
        let base = reqs.len();
        reqs.extend(gen.batch());
        let batch = &reqs[base..];
        let before = if traced {
            Some(MetricsSnap::fetch(&daemon.addr)?)
        } else {
            None
        };
        let cpu0 = cpu_seconds(&procs)?;
        let next = AtomicUsize::new(0);
        let done: Mutex<Vec<Served>> = Mutex::new(Vec::new());
        let t0 = Instant::now();
        let tracers: Vec<Tracer> = std::thread::scope(|s| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|c| {
                    let (next, done) = (&next, &done);
                    s.spawn(move || {
                        let mut tr = Tracer::new(epoch);
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(req) = batch.get(i) else { break };
                            let one = if traced {
                                tr.begin_trace((base + i) as u64);
                                tr.span(
                                    "serve.request",
                                    |tr| send_traced(tr, c, base + i, req),
                                    |_| 1,
                                )
                            } else {
                                send(c, base + i, req)
                            };
                            done.lock().expect("no panics while holding").push(one);
                        }
                        tr
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let wall = t0.elapsed().as_secs_f64();
        let mut done = done.into_inner().expect("no panics while holding");
        if traced {
            out.traced_pass_s.push(wall);
            tracers.into_iter().for_each(|t| tracer.absorb(t));
            traced_lat.extend(done.iter().map(|s| s.lat_ms));
            let after = MetricsSnap::fetch(&daemon.addr)?;
            traced_daemon.add(&after.since(&before.expect("fetched when traced")));
        } else {
            cpu_total += cpu_seconds(&procs)? - cpu0;
            out.pass_s.push(wall);
            ops += done
                .iter()
                .filter(|s| matches!(s.result, Ok((200, _))))
                .count() as u64;
            out.lat_ms.extend(done.iter().map(|s| s.lat_ms));
        }
        served.append(&mut done);
        Ok(())
    })?;
    out.peak_rss_mb = peak_rss_mib(&procs)?;
    // Batches differ in content, so a pass is the median batch, and CPU is
    // spread evenly over the batches.
    out.wall_s = median(&out.pass_s);
    out.traced_wall_s = if trace {
        median(&out.traced_pass_s)
    } else {
        0.0
    };
    out.cpu_s = cpu_total / out.pass_s.len() as f64;
    out.req_per_s = ops as f64 / out.pass_s.iter().sum::<f64>();
    let (mut retries_503, mut reconnects) = (0, 0);
    for c in &clients {
        retries_503 += c.stats().retries_503;
        reconnects += c.stats().reconnects;
    }
    drop(clients);
    if let Err(e) = daemon.shutdown() {
        out.fail(e);
    }

    verify(&mut out, &reqs, &served);

    if trace {
        let sum = summarize(tracer.spans());
        let agg = |n: &str| sum.get(n).copied().unwrap_or_default();
        let client = agg("serve.client").mean_ms();
        let d = traced_daemon;
        let mut lat = out.lat_ms.clone();
        lat.extend(&traced_lat);
        let l = &mut out.layers;
        l.insert("serve.requests", served.len() as f64);
        l.insert("serve.client_ms", client);
        l.insert("serve.queue_wait_ms", d.queue_ms());
        l.insert("serve.run_ms", d.run_ms());
        l.insert("serve.overhead_ms", client - d.queue_ms() - d.run_ms());
        l.insert(
            "serve.lat_p50_ms",
            percentile(&lat, 50.0).map_or(0.0, |p| p.value),
        );
        l.insert(
            "serve.lat_p95_ms",
            percentile(&lat, 95.0).map_or(0.0, |p| p.value),
        );
        l.insert(
            "serve.warm_hit_ratio",
            d.warm_hits as f64 / (d.warm_hits + d.cold_runs).max(1) as f64,
        );
        l.insert("serve.retries_503", retries_503 as f64);
        l.insert("serve.reconnects", reconnects as f64);
        l.insert("exp.warms", d.cold_runs as f64);
        l.insert("exp.forks", d.plan_legs as f64);
        l.insert(
            "telemetry.serialize_ms",
            agg("telemetry.serialize").mean_ms(),
        );
        l.insert("telemetry.parse_ms", agg("telemetry.parse").mean_ms());
        out.notes
            .push(("lat_samples".to_string(), Json::from(lat.len())));
        out.spans = tracer.spans().to_vec();
    }
    Ok(out)
}

/// Sends request `i` of the run.
fn send(c: &mut RetryClient, i: usize, req: &Req) -> Served {
    let body = req.body();
    let t0 = Instant::now();
    let result = c
        .post_json("/v1/experiments", &body, ATTEMPTS)
        .map(|r| (r.status, r.body))
        .map_err(|e| e.to_string());
    Served {
        req: i,
        result,
        lat_ms: t0.elapsed().as_secs_f64() * 1e3,
    }
}

/// [`send`], with spans around building the body, the round trip and
/// parsing the answer.
fn send_traced(tr: &mut Tracer, c: &mut RetryClient, i: usize, req: &Req) -> Served {
    let body = tr.span("telemetry.serialize", |_| req.body(), |b| b.len() as u64);
    let t0 = Instant::now();
    let result = tr.span(
        "serve.client",
        |_| {
            c.post_json("/v1/experiments", &body, ATTEMPTS)
                .map(|r| (r.status, r.body))
                .map_err(|e| e.to_string())
        },
        |_| 1,
    );
    let lat_ms = t0.elapsed().as_secs_f64() * 1e3;
    if let Ok((_, bytes)) = &result {
        tr.span(
            "telemetry.parse",
            |_| std::str::from_utf8(bytes).is_ok_and(|t| Json::parse(t).is_ok()),
            |_| bytes.len() as u64,
        );
    }
    Served {
        req: i,
        result,
        lat_ms,
    }
}

/// Compares every served body with the request computed in-process (each
/// distinct request once). Warm forks must equal the cold computation.
fn verify(out: &mut Outcome, reqs: &[Req], served: &[Served]) {
    let mut expected: HashMap<String, Result<Vec<u8>, String>> = HashMap::new();
    for s in served {
        out.attempted += 1;
        let req = &reqs[s.req];
        match &s.result {
            Err(e) => out.fail(format!("request {}: {e}", s.req)),
            Ok((status, _)) if *status != 200 => {
                out.fail(format!("request {} answered {status}", s.req));
            }
            Ok((_, body)) => {
                let want = expected.entry(req.body()).or_insert_with(|| req.expected());
                if want.as_deref() != Ok(body.as_slice()) {
                    out.fail(format!(
                        "request {}: body differs from the in-process run",
                        s.req
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(warm: u64, cold: u64, legs: u64, q: (u64, u64), r: (u64, u64)) -> Json {
        let h = |(count, sum): (u64, u64)| {
            Json::obj([("count", Json::from(count)), ("sum", Json::from(sum))])
        };
        Json::obj([
            ("requests", Json::from(99u64)),
            ("warm_hits", Json::from(warm)),
            ("cold_runs", Json::from(cold)),
            ("plan_legs", Json::from(legs)),
            ("queue_wait_us", h(q)),
            ("run_us", h(r)),
        ])
    }

    #[test]
    fn metrics_deltas_give_per_job_means() {
        let a = MetricsSnap::from_doc(&doc(16, 16, 16, (16, 1_600), (16, 160_000))).unwrap();
        let b = MetricsSnap::from_doc(&doc(23, 19, 26, (26, 31_600), (26, 210_000))).unwrap();
        let d = b.since(&a);
        assert_eq!((d.warm_hits, d.cold_runs, d.plan_legs), (7, 3, 10));
        // 10 jobs waited 30 ms in total and ran 50 ms in total.
        assert_eq!(d.queue_ms(), 3.0);
        assert_eq!(d.run_ms(), 5.0);
        let mut total = MetricsSnap::default();
        total.add(&d);
        total.add(&d);
        assert_eq!(total.run, (20, 100_000));
        assert_eq!(total.run_ms(), 5.0);
        assert_eq!(MetricsSnap::default().queue_ms(), 0.0, "no jobs, no mean");
    }

    #[test]
    fn metrics_docs_missing_fields_are_refused() {
        let e = MetricsSnap::from_doc(&Json::obj([("warm_hits", Json::from(1u64))])).unwrap_err();
        assert!(e.contains("cold_runs"), "{e}");
    }

    #[test]
    fn verification_counts_every_failure_kind() {
        let reqs = vec![Req::Table1];
        let good = Req::Table1.expected().unwrap();
        let served = vec![
            Served {
                req: 0,
                result: Ok((200, good.clone())),
                lat_ms: 1.0,
            },
            Served {
                req: 0,
                result: Ok((200, b"{}".to_vec())),
                lat_ms: 1.0,
            },
            Served {
                req: 0,
                result: Ok((503, good)),
                lat_ms: 1.0,
            },
            Served {
                req: 0,
                result: Err("reset".to_string()),
                lat_ms: 1.0,
            },
        ];
        let mut out = Outcome::default();
        verify(&mut out, &reqs, &served);
        assert_eq!((out.attempted, out.failed), (4, 3));
    }
}
