//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! crate's public API; nothing inside the program is instrumented. A span
//! has a name, a start and end (nanoseconds since the tracer's epoch), the
//! span that caused it, one trace id per operation, and a count taken at
//! the same boundary (instructions simulated, bytes serialized, ...).
//! Spans stay in memory and are written out once, when the run ends.

use csd_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `exp.warm`.
    pub name: &'static str,
    /// Operation this span belongs to.
    pub trace: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Work counted at this boundary (0 when nothing is counted).
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    trace: u64,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (share one epoch
    /// between the tracers of one run so their spans line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            trace: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: spans opened from here on carry its id.
    pub fn begin_trace(&mut self, id: u64) {
        self.trace = id;
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            trace: self.trace,
            parent: self.stack.last().copied(),
            start,
            end: start,
            count: 0,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open span) and
    /// attaches `count` to it.
    pub fn exit(&mut self, id: usize, count: u64) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end = self.now();
        self.spans[id].count = count;
    }

    /// Runs `f` inside a span and returns its result; `count` reads the
    /// work counted for the span from that result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
        count: impl FnOnce(&T) -> u64,
    ) -> T {
        let id = self.enter(name);
        let out = f(self);
        let n = count(&out);
        self.exit(id, n);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves every span of `other` into this tracer, re-basing parent
    /// indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                let (a, b) = (a.max(s.start), b.min(s.end));
                if a >= b {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur() - covered
        })
        .collect()
}

/// Totals over every span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans seen.
    pub n: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
    /// Summed counts.
    pub count: u64,
}

impl Agg {
    /// Mean span duration in milliseconds (0 when no span was seen).
    pub fn mean_ms(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.n as f64 / 1e6
        }
    }

    /// Total duration divided by the summed count, in nanoseconds (0 when
    /// nothing was counted).
    pub fn ns_per_count(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

/// Aggregates spans by name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.n += 1;
        a.total_ns += s.dur();
        a.self_ns += own;
        a.count += s.count;
    }
    out
}

/// The trace file: the per-name summary plus every span as
/// `[name, trace, parent, start_ns, end_ns, count]` (parent `-1` for a
/// root span).
pub fn to_json(spans: &[Span]) -> Json {
    let summary = summarize(spans)
        .into_iter()
        .map(|(name, a)| {
            (
                name,
                Json::obj([
                    ("spans", Json::from(a.n)),
                    ("total_ms", Json::from(a.total_ns as f64 / 1e6)),
                    ("self_ms", Json::from(a.self_ns as f64 / 1e6)),
                    ("count", Json::from(a.count)),
                ]),
            )
        })
        .collect::<Vec<_>>();
    let rows = spans
        .iter()
        .map(|s| {
            Json::Arr(vec![
                Json::from(s.name),
                Json::from(s.trace),
                Json::I64(s.parent.map_or(-1, |p| p as i64)),
                Json::from(s.start),
                Json::from(s.end),
                Json::from(s.count),
            ])
        })
        .collect();
    Json::obj([("summary", Json::obj(summary)), ("spans", Json::Arr(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            trace: 0,
            parent,
            start,
            end,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 25, 50), // overlaps a: 10..50 covered
            span("c", Some(0), 70, 80),
            span("leaf", Some(1), 12, 20), // grandchild: a's business only
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20 - 8, 25, 10, 8]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child on another thread may outlive its parent's interval.
        let spans = vec![span("op", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_times(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        t.begin_trace(7);
        let n = t.span("outer", |t| t.span("inner", |_| 3u64, |v| *v) + 1, |v| *v);
        assert_eq!(n, 4);
        let s = t.spans();
        assert_eq!((s[0].name, s[0].parent, s[0].count), ("outer", None, 4));
        assert_eq!((s[1].name, s[1].parent, s[1].count), ("inner", Some(0), 3));
        assert!(s.iter().all(|s| s.trace == 7 && s.end >= s.start));

        let mut other = Tracer::new(epoch);
        other.span("x", |t| t.span("y", |_| (), |_| 0), |_| 0);
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        let sum = summarize(t.spans());
        assert_eq!(sum["inner"].count, 3);
        assert_eq!(sum["outer"].n, 1);
        assert!(sum["outer"].self_ns <= sum["outer"].total_ns);
    }

    #[test]
    #[should_panic(expected = "innermost-first")]
    fn out_of_order_exit_is_a_bug() {
        let mut t = Tracer::new(Instant::now());
        let a = t.enter("a");
        let _b = t.enter("b");
        t.exit(a, 0);
    }
}
