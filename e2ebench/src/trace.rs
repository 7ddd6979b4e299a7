//! Spans recorded by the traced run, kept in memory and written to one
//! JSON Lines file (one span object per line) when the run ends; the attribution metrics are then computed
//! from that file alone.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the id of the span that caused it, the id shared by every
//! span of one inference or request (`trace`; for serving this is
//! `Ticket::trace_id`), and a `replayed` flag. Spans the benchmark times
//! around calls inside `Engine::try_run` are nested in time inside their
//! root; `replayed` spans time the same call made again, right after the
//! inference, on that call's real operands, because the engine calls it
//! directly and no wrapper can be placed around it.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ndirect_support::Json;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `conv`, `fc`, `infer`.
    pub name: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Shared by the spans of one inference or request.
    pub trace: u64,
    /// Timed on a replay of the call rather than inside the root.
    pub replayed: bool,
    /// Counts recorded at the same boundary (FLOPs, bytes, ...).
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// A recorded count, 0 when absent.
    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// The in-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch of `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        trace: u64,
        replayed: bool,
        attrs: Vec<(String, f64)>,
    ) -> usize {
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            trace,
            replayed,
            attrs,
        };
        let mut spans = self.spans.lock().expect("a span recorder panicked");
        spans.push(span);
        spans.len() - 1
    }

    /// Records a root whose end is set later by [`Tracer::close`].
    pub fn open(&self, name: &str, start: Instant, trace: u64) -> usize {
        self.record(name, (start, start), None, trace, false, Vec::new())
    }

    /// Sets the end of a span opened with [`Tracer::open`].
    pub fn close(&self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        let mut spans = self.spans.lock().expect("a span recorder panicked");
        spans[id].end_ns = end_ns;
    }

    /// Writes every span to `path`, one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let spans = self.spans.lock().expect("a span recorder panicked");
        let mut text = String::new();
        for (id, s) in spans.iter().enumerate() {
            let obj = Json::Obj(vec![
                ("id".into(), Json::usize(id)),
                ("name".into(), Json::str(s.name.clone())),
                ("start_ns".into(), Json::num(s.start_ns as f64)),
                ("end_ns".into(), Json::num(s.end_ns as f64)),
                ("parent".into(), s.parent.map_or(Json::Null, Json::usize)),
                ("trace".into(), Json::num(s.trace as f64)),
                ("replayed".into(), Json::Bool(s.replayed)),
                (
                    "attrs".into(),
                    Json::Obj(
                        s.attrs
                            .iter()
                            .map(|(k, v)| (k.clone(), Json::num(*v)))
                            .collect(),
                    ),
                ),
            ]);
            text.push_str(&obj.compact());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}

/// Reads a span file written by [`Tracer::write`]. A span's id is its
/// line number, counted from 0.
pub fn read(path: &std::path::Path) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .enumerate()
        .map(|(line, l)| {
            let bad = |what: &str| format!("{}:{}: span without {what}", path.display(), line + 1);
            let s = Json::parse(l).map_err(|e| format!("{}:{}: {e}", path.display(), line + 1))?;
            let num = |k: &str| s.get(k).and_then(Json::as_f64).ok_or_else(|| bad(k));
            if num("id")? as usize != line {
                return Err(bad("its line number as id"));
            }
            Ok(Span {
                name: s
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("name"))?
                    .to_string(),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: s.get("parent").and_then(Json::as_usize),
                trace: num("trace")? as u64,
                replayed: s
                    .get("replayed")
                    .and_then(Json::as_bool)
                    .ok_or_else(|| bad("replayed"))?,
                attrs: s
                    .get("attrs")
                    .and_then(Json::as_obj)
                    .ok_or_else(|| bad("attrs"))?
                    .iter()
                    .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or_else(|| bad(k))?)))
                    .collect::<Result<_, String>>()?,
            })
        })
        .collect()
}

/// One root span with the durations of its direct children, by name.
#[derive(Debug, Default, Clone)]
pub struct RootBreakdown {
    /// Root duration in seconds.
    pub root_s: f64,
    /// Summed child seconds per child name.
    pub child_s: BTreeMap<String, f64>,
}

impl RootBreakdown {
    /// The root's self time: its duration minus its children's.
    pub fn self_s(&self) -> f64 {
        self.root_s - self.child_s.values().sum::<f64>()
    }

    /// Summed seconds of children called `name`.
    pub fn child(&self, name: &str) -> f64 {
        self.child_s.get(name).copied().unwrap_or(0.0)
    }
}

/// Breaks every root span named `root` down into its direct children.
pub fn breakdown(spans: &[Span], root: &str) -> Vec<RootBreakdown> {
    let mut by_root: BTreeMap<usize, RootBreakdown> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == root && s.parent.is_none())
        .map(|(id, s)| {
            let b = RootBreakdown {
                root_s: s.secs(),
                child_s: BTreeMap::new(),
            };
            (id, b)
        })
        .collect();
    for s in spans {
        if let Some(b) = s.parent.and_then(|p| by_root.get_mut(&p)) {
            *b.child_s.entry(s.name.clone()).or_insert(0.0) += s.secs();
        }
    }
    by_root.into_values().collect()
}

/// The median over traces `0..traces` of `f` summed over each trace's
/// spans called `name` (a trace without such spans sums to 0).
pub fn per_trace_sum(spans: &[Span], name: &str, traces: usize, f: &dyn Fn(&Span) -> f64) -> f64 {
    let mut sums = vec![0.0; traces];
    for s in spans.iter().filter(|s| s.name == name) {
        if let Some(slot) = usize::try_from(s.trace).ok().and_then(|t| sums.get_mut(t)) {
            *slot += f(s);
        }
    }
    crate::measure::median(&sums)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn attribution_survives_the_file_round_trip() {
        let t = Tracer::new();
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        for trace in 0..3 {
            let base = 100 * trace;
            let root = t.open("infer", ms(base), trace);
            let flops = vec![("flops".into(), 5.0)];
            t.record(
                "conv",
                (ms(base + 1), ms(base + 4)),
                Some(root),
                trace,
                false,
                flops,
            );
            t.record(
                "fc",
                (ms(base + 20), ms(base + 22)),
                Some(root),
                trace,
                true,
                Vec::new(),
            );
            t.close(root, ms(base + 10));
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/span-test.jsonl");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        t.write(&path).unwrap();
        let spans = read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let roots = breakdown(&spans, "infer");
        assert_eq!(roots.len(), 3);
        for r in &roots {
            assert!(
                (r.self_s() - 0.005).abs() < 1e-9,
                "10 ms root − 3 ms conv − 2 ms fc"
            );
        }
        assert_eq!(per_trace_sum(&spans, "conv", 3, &|s| s.attr("flops")), 5.0);
        assert_eq!(per_trace_sum(&spans, "gemm_fc", 3, &Span::secs), 0.0);
    }
}
