//! Host-clock spans recorded by the benchmark around its calls into each
//! layer: kept in memory during a traced round, written out as a Chrome
//! trace when the benchmark ends.

use eirene_sim::telemetry::JsonValue;
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. `parent` is the span that caused it; `unit` is the
/// batch or window it belongs to, shared by every span of that unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// Thread lane: 0 is the driving thread, `1 + c` is client `c`.
    pub track: u32,
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder shared by the threads of one traced round.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id, to close it and to parent others.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, track: u32, unit: u64) -> usize {
        let now = self.now_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span {
            name,
            parent,
            track,
            unit,
            start_ns: now,
            end_ns: now,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: usize) {
        let now = self.now_ns();
        self.spans.lock().expect("no span holder panics")[id].end_ns = now;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("no span holder panics")
    }
}

/// Where a timed call sits in the span tree of a (possibly untraced) round.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub tracer: Option<&'a Tracer>,
    pub parent: Option<usize>,
    pub track: u32,
}

impl<'a> Scope<'a> {
    /// The root of a round that records nothing.
    pub fn untraced() -> Scope<'static> {
        Scope {
            tracer: None,
            parent: None,
            track: 0,
        }
    }

    /// The root of a round recorded by `tracer`.
    pub fn traced(tracer: &'a Tracer) -> Scope<'a> {
        Scope {
            tracer: Some(tracer),
            parent: None,
            track: 0,
        }
    }

    /// Runs `f`, returns its result and its duration in seconds, and records
    /// it as a span when the round is traced. Traced and untraced rounds
    /// share this one code path; the only difference is the recording.
    pub fn timed<T>(
        &self,
        name: &'static str,
        unit: u64,
        f: impl FnOnce(Scope<'a>) -> T,
    ) -> (T, f64) {
        let id = self
            .tracer
            .map(|t| t.begin(name, self.parent, self.track, unit));
        let start = Instant::now();
        let out = f(Scope {
            parent: id.or(self.parent),
            ..*self
        });
        let secs = start.elapsed().as_secs_f64();
        if let (Some(t), Some(id)) = (self.tracer, id) {
            t.end(id);
        }
        (out, secs)
    }

    pub fn on_track(self, track: u32) -> Scope<'a> {
        Scope { track, ..self }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children on parallel tracks may overlap each
/// other, so their union is subtracted, not their sum).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (
                s.start_ns.max(spans[p].start_ns),
                s.end_ns.min(spans[p].end_ns),
            );
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total self time in seconds of the spans called `name`.
pub fn self_secs(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t)
        .sum();
    ns as f64 / 1e9
}

/// Share of the root spans' time that some leaf span accounts for: one
/// minus the self time of every span that has children, over the roots'
/// duration. The acceptance floor for a traced round is 0.95.
pub fn coverage(spans: &[Span], selfs: &[u64]) -> f64 {
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let root: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum();
    let uncovered: u64 = (0..spans.len())
        .filter(|&i| has_child[i])
        .map(|i| selfs[i])
        .sum();
    if root == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / root as f64
    }
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one complete
/// (`"ph": "X"`) event per span, one process per workload, one thread per
/// track, timestamps in microseconds.
pub fn chrome_trace(workloads: &[(&str, Vec<Span>)]) -> JsonValue {
    let mut events = Vec::new();
    for (pid, (workload, spans)) in workloads.iter().enumerate() {
        events.push(JsonValue::obj(vec![
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("args", JsonValue::obj(vec![("name", (*workload).into())])),
        ]));
        for (id, s) in spans.iter().enumerate() {
            events.push(JsonValue::obj(vec![
                ("name", s.name.into()),
                ("cat", (*workload).into()),
                ("ph", "X".into()),
                ("pid", pid.into()),
                ("tid", s.track.into()),
                ("ts", (s.start_ns as f64 / 1e3).into()),
                ("dur", (s.dur_ns() as f64 / 1e3).into()),
                (
                    "args",
                    JsonValue::obj(vec![
                        ("id", id.into()),
                        ("parent", s.parent.map_or(JsonValue::Null, Into::into)),
                        ("unit", s.unit.into()),
                    ]),
                ),
            ]));
        }
    }
    JsonValue::obj(vec![
        ("traceEvents", JsonValue::Arr(events)),
        ("displayTimeUnit", "ms".into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        parent: Option<usize>,
        track: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            name,
            parent,
            track,
            unit: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("round", None, 0, 0, 100),
            span("plan", Some(0), 0, 10, 30),
            span("exec", Some(0), 0, 30, 90),
            span("kernel", Some(2), 0, 40, 50),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![20, 20, 50, 10]);
        assert_eq!(self_secs(&spans, &selfs, "exec"), 50e-9);
        // 20 of the root's 100 ns and 50 of exec's own time have no leaf.
        assert!((coverage(&spans, &selfs) - 0.30).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_on_parallel_tracks_are_not_subtracted_twice() {
        let spans = vec![
            span("round", None, 0, 0, 100),
            span("client", Some(0), 1, 10, 80),
            span("client", Some(0), 2, 20, 90),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 20);
        assert!((coverage(&spans, &selfs) - 0.80).abs() < 1e-12);
    }

    #[test]
    fn scope_records_nested_spans_only_when_traced() {
        let tracer = Tracer::new();
        let root = Scope::traced(&tracer);
        let (value, secs) = root.timed("round", 0, |inner| {
            inner.on_track(1).timed("plan", 7, |_| 41).0 + 1
        });
        assert_eq!(value, 42);
        assert!(secs >= 0.0);
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("round", None));
        assert_eq!(
            (
                spans[1].name,
                spans[1].parent,
                spans[1].track,
                spans[1].unit
            ),
            ("plan", Some(0), 1, 7)
        );
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        assert_eq!(Scope::untraced().timed("round", 0, |_| 5).0, 5);
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let doc = chrome_trace(&[("tree_read", vec![span("plan", None, 0, 1_000, 3_500)])]);
        let events = doc.get("traceEvents").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        let e = &events[1];
        assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(e.get("dur").and_then(JsonValue::as_f64), Some(2.5));
        // Round-trips through the parser, so chrome://tracing can load it.
        assert_eq!(JsonValue::parse(&doc.to_json()).unwrap(), doc);
    }
}
