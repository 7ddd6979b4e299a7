//! Serving workloads: one `ndirect-serve` server registering Table-4 rows
//! 21–23 at 1/8 channel width, driven open loop by seeded Poisson
//! arrivals spread uniformly over the three models.
//!
//! One thread makes the traffic: it submits each request when it is due
//! and, in between, waits on the oldest outstanding ticket. Every output
//! is checked, and each request is timed from when it was *due*, so a
//! stall in the generator or the server delays every request queued
//! behind it.

use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

use ndirect_probe::metrics::MetricsSnapshot;
use ndirect_serve::{ModelDef, ServeConfig, Server, Ticket};
use ndirect_support::{Json, Rng64};
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, FilterLayout, Tensor4};

use crate::measure::{
    dispatch_us, median, more_setups, peak_rss_mb, percentile, ratio, tail, Tail,
};
use crate::reference::conv_f64;
use crate::trace::{self, Tracer};
use crate::{Outcome, RunConfig};

/// Table-4 rows registered as models (the small-spatial ResNet-50 tail).
const ROWS: [usize; 3] = [21, 22, 23];
/// Channel scale-down, so that a request costs well under a millisecond.
const CHANNEL_SCALE: usize = 8;
/// Distinct inputs per model; each has its reference computed at set-up.
const INPUTS_PER_MODEL: usize = 8;
/// The tail limit a ladder rate must meet for `max_rps`.
const TAIL_LIMIT_MS: f64 = 25.0;
/// Offered rates tried for `max_rps`, ascending (requests per second).
const LADDER: [f64; 10] = [
    500.0, 1000.0, 2000.0, 3000.0, 4000.0, 5000.0, 5500.0, 6000.0, 7000.0, 8000.0,
];
/// Slice length for the windowed tail.
const WINDOW_S: f64 = 0.5;
/// Seconds spent at each ladder rate.
const RUNG_S: f64 = 1.5;

/// A fixed-rate phase of the serving workload.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Light load: the batcher is idle, a request's latency is its
    /// service time plus the batch linger.
    Low,
    /// Heavier load, a third to a half of one shard's capacity on a
    /// two-vCPU host: batching engages (mean batch 1.2–2) and host stalls
    /// turn into queueing, so its latency moves with the host's load and
    /// is reported per layer only.
    High,
}

impl Phase {
    fn rate(self) -> f64 {
        match self {
            Phase::Low => 500.0,
            Phase::High => 2000.0,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            Phase::Low => "low",
            Phase::High => "high",
        }
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        threads_per_shard: 1,
        max_batch: 8,
        batch_linger: Duration::from_micros(200),
        ..ServeConfig::default()
    }
}

fn shape(row: usize) -> Result<ConvShape, String> {
    let cfg = ndirect_workloads::table4::layer_by_id(row).ok_or(format!("no Table-4 row {row}"))?;
    Ok(ConvShape::square(
        1,
        (cfg.c / CHANNEL_SCALE).max(1),
        (cfg.k / CHANNEL_SCALE).max(1),
        cfg.hw,
        cfg.rs,
        cfg.stride,
    ))
}

fn name(row: usize) -> String {
    format!("t4-{row}")
}

/// One request input with its reference output and per-output bound.
struct Case {
    model: usize,
    input: Tensor4,
    exact: Vec<f64>,
    bound: Vec<f64>,
}

fn cases(seed: u64) -> Result<Vec<Case>, String> {
    let mut out = Vec::new();
    for (m, &row) in ROWS.iter().enumerate() {
        let s = shape(row)?;
        let filter = filter(row, seed)?;
        for i in 0..INPUTS_PER_MODEL {
            let input_seed = seed ^ ((row * 1000 + i) as u64).wrapping_mul(0x9e37_79b9);
            let input = fill::random_tensor(Tensor4::input_for(&s, ActLayout::Nchw), input_seed);
            let (exact, bound) = conv_f64(&input, &filter, &s);
            out.push(Case {
                model: m,
                input,
                exact,
                bound,
            });
        }
    }
    Ok(out)
}

fn filter(row: usize, seed: u64) -> Result<Filter, String> {
    let s = shape(row)?;
    Ok(fill::random_filter(
        Filter::for_shape(&s, FilterLayout::Kcrs),
        seed.wrapping_add(row as u64),
    ))
}

fn output_ok(out: &Tensor4, case: &Case) -> bool {
    out.len() == case.exact.len()
        && out
            .as_slice()
            .iter()
            .zip(case.exact.iter().zip(&case.bound))
            .all(|(&y, (&e, &b))| (f64::from(y) - e).abs() <= b)
}

/// Builds the server and waits for one response per model; returns the
/// server, the seconds that took, and how many of those responses were
/// wrong.
fn set_up(seed: u64, cases: &[Case]) -> Result<(Server, f64, u64), String> {
    let t0 = Instant::now();
    let models = ROWS
        .iter()
        .map(|&row| {
            Ok(ModelDef {
                name: name(row),
                shape: shape(row)?,
                filter: filter(row, seed)?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let server = Server::try_new(config(), models).map_err(|e| e.to_string())?;
    let mut wrong = 0;
    for (m, &row) in ROWS.iter().enumerate() {
        let case = cases
            .iter()
            .find(|c| c.model == m)
            .ok_or("a model without inputs")?;
        let response = server
            .submit(&name(row), case.input.clone(), None)
            .and_then(Ticket::wait);
        wrong += u64::from(!response.is_ok_and(|r| output_ok(&r.output, case)));
    }
    Ok((server, t0.elapsed().as_secs_f64(), wrong))
}

/// What one fixed-rate phase measured.
#[derive(Default)]
struct PhaseStats {
    /// Requests due.
    sent: u64,
    /// Requests refused, failed, or answered wrongly.
    failed: u64,
    /// Due-to-response latency of each request, ms; infinite for a
    /// failed one.
    lat_ms: Vec<f64>,
    /// When each request was due, s from the phase start.
    due_s: Vec<f64>,
    /// How late the generator submitted each request, ms.
    lag_ms: Vec<f64>,
    /// Wall time from the first due time to the last response, s.
    span_s: f64,
    /// Median latency of the last quarter of the requests, ms.
    last_quarter_p50_ms: f64,
    /// Responses received, each one root span when traced.
    responses: usize,
}

impl PhaseStats {
    /// Requests answered correctly per second of the phase.
    fn completed_per_s(&self) -> f64 {
        self.lat_ms.iter().filter(|l| l.is_finite()).count() as f64 / self.span_s
    }
}

/// A submitted request awaiting its response.
struct InFlight {
    ticket: Ticket,
    case: usize,
    due: Instant,
    submit: (Instant, Instant),
}

/// Offers `rate` requests per second for `secs` seconds.
fn drive(
    server: &Server,
    cases: &[Case],
    rate: f64,
    secs: f64,
    seed: u64,
    tracer: Option<&Tracer>,
) -> PhaseStats {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut schedule = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= secs {
            break;
        }
        schedule.push((t, rng.gen_range_usize(0, cases.len())));
    }
    let mut stats = PhaseStats {
        sent: schedule.len() as u64,
        ..PhaseStats::default()
    };
    let start = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i].0);
    let mut waiting: VecDeque<InFlight> = VecDeque::new();
    let (mut next, mut last) = (0, start);
    loop {
        let now = Instant::now();
        if next < schedule.len() && due(next) <= now {
            let case = schedule[next].1;
            let input = cases[case].input.clone();
            let s0 = Instant::now();
            stats.lag_ms.push((s0 - due(next)).as_secs_f64() * 1e3);
            let submitted = server.submit(&name(ROWS[cases[case].model]), black_box(input), None);
            let s1 = Instant::now();
            match submitted {
                Ok(ticket) => waiting.push_back(InFlight {
                    ticket,
                    case,
                    due: due(next),
                    submit: (s0, s1),
                }),
                Err(_) => {
                    stats.failed += 1;
                    stats.lat_ms.push(f64::INFINITY);
                    stats.due_s.push((due(next) - start).as_secs_f64());
                }
            }
            next += 1;
            continue;
        }
        // Until the next request is due, wait for the oldest response.
        let until_due = (next < schedule.len()).then(|| due(next) - now);
        let Some(f) = waiting.pop_front() else {
            match until_due {
                Some(d) => std::thread::sleep(d),
                None => break,
            }
            continue;
        };
        let trace_id = u64::from(f.ticket.trace_id());
        let result = match until_due {
            None => f.ticket.wait(),
            Some(d) => match f.ticket.wait_timeout(d) {
                Ok(result) => result,
                Err(ticket) => {
                    waiting.push_front(InFlight { ticket, ..f });
                    continue;
                }
            },
        };
        let done = Instant::now();
        last = done;
        stats.responses += 1;
        let ok = matches!(&result, Ok(r) if output_ok(&r.output, &cases[f.case]));
        stats.failed += u64::from(!ok);
        stats.lat_ms.push(if ok {
            (done - f.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        });
        stats.due_s.push((f.due - start).as_secs_f64());
        if let Some(tr) = tracer {
            let root = tr.record("request", (f.due, done), None, trace_id, false, Vec::new());
            tr.record("submit", f.submit, Some(root), trace_id, false, Vec::new());
        }
    }
    stats.span_s = (last - start).as_secs_f64();
    let lat = &stats.lat_ms;
    stats.last_quarter_p50_ms = median(&lat[lat.len() - lat.len() / 4..]);
    stats
}

/// The highest ladder rate that meets the tail limit — the windowed p99
/// with a failed request counting as a miss — with no backlog growing at
/// the end of the rung, as the completed requests per second achieved at
/// it, or 0 if no rate passes. Climbing stops after two failed rungs in a
/// row.
fn max_rps(server: &Server, cases: &[Case], seed: u64, details: &mut Vec<(String, Json)>) -> f64 {
    let mut best = None;
    let mut rungs = Vec::new();
    let mut misses = 0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let st = drive(server, cases, rate, RUNG_S, seed ^ (i as u64 + 1), None);
        let tail = windowed_p99(&st);
        let ok = tail <= TAIL_LIMIT_MS && st.last_quarter_p50_ms <= TAIL_LIMIT_MS;
        rungs.push(Json::Obj(vec![
            ("rate".into(), Json::num(rate)),
            ("completed_per_s".into(), Json::num(st.completed_per_s())),
            (
                "p50_ms".into(),
                Json::num(finite_or(median(&st.lat_ms), -1.0)),
            ),
            ("windowed_p99_ms".into(), Json::num(finite_or(tail, -1.0))),
            (
                "last_quarter_p50_ms".into(),
                Json::num(finite_or(st.last_quarter_p50_ms, -1.0)),
            ),
            ("pass".into(), Json::Bool(ok)),
        ]));
        if ok {
            best = Some(st.completed_per_s());
            misses = 0;
        } else {
            misses += 1;
            if misses == 2 {
                break;
            }
        }
    }
    details.push(("ladder".into(), Json::Arr(rungs)));
    // A host too loaded for even the lowest rate is not a wrong output:
    // the run reports 0 and its record shows every rung's figures.
    best.unwrap_or(0.0)
}

fn finite_or(v: f64, fallback: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        fallback
    }
}

/// Runs the serving workload. Untraced, it offers the low rate for the
/// whole run: that phase's latency is the gated one. Traced, it offers
/// the low rate for the first half of the run and the high rate for the
/// second, reports each phase's serve stages under its prefix, and then
/// climbs the rate ladder for `serve.max_rps`.
pub fn run(cfg: &RunConfig, traced: bool) -> Result<Outcome, String> {
    let cases = cases(cfg.seed)?;
    let mut setups = Vec::new();
    let mut server = None;
    let mut setup_wrong = 0;
    while more_setups(&setups) {
        if let Some(s) = server.take() {
            Server::shutdown(s);
        }
        let (s, secs, wrong) = set_up(cfg.seed, &cases)?;
        setups.push(secs);
        setup_wrong += wrong;
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    let setup_rss_mb = peak_rss_mb()?;
    let secs = cfg.seconds.as_secs_f64();
    let c = config();
    let mut details = vec![
        (
            "rates".into(),
            Json::Obj(vec![
                ("low".into(), Json::num(Phase::Low.rate())),
                ("high".into(), Json::num(Phase::High.rate())),
            ]),
        ),
        (
            "table4_rows".into(),
            Json::Arr(ROWS.iter().map(|&r| Json::usize(r)).collect()),
        ),
        ("channel_scale".into(), Json::usize(CHANNEL_SCALE)),
        ("inputs_per_model".into(), Json::usize(INPUTS_PER_MODEL)),
        ("shards".into(), Json::usize(c.shards)),
        ("threads_per_shard".into(), Json::usize(c.threads_per_shard)),
        ("max_batch".into(), Json::usize(c.max_batch)),
        (
            "batch_linger_us".into(),
            Json::num(c.batch_linger.as_secs_f64() * 1e6),
        ),
        ("setups".into(), Json::usize(setups.len())),
        ("setup_peak_rss_mb".into(), Json::num(setup_rss_mb)),
    ];
    let tracer = traced.then(Tracer::new);
    let phases: &[(Phase, f64)] = if traced {
        &[(Phase::Low, 0.5), (Phase::High, 0.5)]
    } else {
        &[(Phase::Low, 1.0)]
    };
    let mut measured = Vec::new();
    let (mut sent, mut failed) = (0, 0);
    for (i, &(phase, share)) in phases.iter().enumerate() {
        let baseline = server.metrics_snapshot();
        let seed = cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let st = drive(
            &server,
            &cases,
            phase.rate(),
            secs * share,
            seed,
            tracer.as_ref(),
        );
        let snapshot = server.metrics_snapshot().since(&baseline);
        details.push((phase.prefix().into(), phase_details(&st)));
        sent += st.sent;
        failed += st.failed;
        measured.push((phase, st, snapshot));
    }
    let low = &measured[0].1;
    let metrics = if let Some(tracer) = tracer {
        let mut m = per_layer(&measured, &tracer, cfg, &mut details)?;
        m.insert(
            "serve.max_rps",
            max_rps(&server, &cases, cfg.seed, &mut details),
        );
        m
    } else {
        BTreeMap::from([
            ("lat_p50_ms", median(&low.lat_ms)),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss_mb()?),
        ])
    };
    server.shutdown();
    Ok(Outcome {
        attempted: sent + (setups.len() * ROWS.len()) as u64,
        failed: failed + setup_wrong,
        metrics,
        details,
    })
}

/// A phase's latency summary for the run record.
fn phase_details(st: &PhaseStats) -> Json {
    let t = completed_tail(st);
    Json::Obj(vec![
        ("sent".into(), Json::num(st.sent as f64)),
        (
            "p50_ms".into(),
            Json::num(finite_or(median(&st.lat_ms), -1.0)),
        ),
        ("samples".into(), Json::usize(t.n)),
        ("tail_ms".into(), Json::num(finite_or(t.value, -1.0))),
        ("tail_pct".into(), Json::num(t.pct)),
        ("gen_lag_p99_ms".into(), Json::num(lag_p99(st))),
    ])
}

fn completed_tail(st: &PhaseStats) -> Tail {
    let completed: Vec<f64> = st
        .lat_ms
        .iter()
        .copied()
        .filter(|l| l.is_finite())
        .collect();
    tail(&completed)
}

/// The median over the phase's `WINDOW_S` slices of each slice's p99
/// latency: a tail that one host stall cannot move on its own.
fn windowed_p99(st: &PhaseStats) -> f64 {
    let mut slices: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&d, &l) in st.due_s.iter().zip(&st.lat_ms) {
        slices.entry((d / WINDOW_S) as u64).or_default().push(l);
    }
    let p99s: Vec<f64> = slices
        .into_values()
        .map(|mut v| {
            v.sort_by(f64::total_cmp);
            percentile(&v, 99.0)
        })
        .collect();
    median(&p99s)
}

/// The declared per-layer name `prefix.name`.
fn phased(prefix: &str, name: &str) -> Result<&'static str, String> {
    let full = format!("{prefix}.{name}");
    crate::PER_LAYER
        .iter()
        .map(|&(n, _)| n)
        .find(|&n| n == full)
        .ok_or(format!("{full} is not a declared per-layer metric"))
}

fn lag_p99(st: &PhaseStats) -> f64 {
    let mut lag = st.lag_ms.clone();
    lag.sort_by(f64::total_cmp);
    percentile(&lag, 99.0)
}

/// Per-layer metrics of the traced run: each phase's serve stages from the
/// server's own metrics snapshot under the phase's prefix, and
/// `Server::submit` and the request spans from the span file.
fn per_layer(
    measured: &[(Phase, PhaseStats, MetricsSnapshot)],
    tracer: &Tracer,
    cfg: &RunConfig,
    details: &mut Vec<(String, Json)>,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let path = cfg
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    tracer.write(&path)?;
    let spans = trace::read(&path)?;
    details.push(("spans_file".into(), Json::str(path.display().to_string())));
    let roots = trace::breakdown(&spans, "request");
    let root_total: f64 = roots.iter().map(|r| r.root_s).sum();
    let self_total: f64 = roots.iter().map(|r| r.self_s()).sum();

    let mut m = BTreeMap::from([
        ("threads.dispatch_us", dispatch_us(cfg.nproc)?),
        ("bench.unattributed_frac", ratio(self_total, root_total)),
    ]);
    let mut phase_roots = roots.as_slice();
    for (phase, st, snap) in measured {
        // Phases run one after another, so their root spans do too.
        let (these, rest) = phase_roots.split_at(st.responses.min(phase_roots.len()));
        phase_roots = rest;
        let submit_us: Vec<f64> = these.iter().map(|r| r.child("submit") * 1e6).collect();
        let p50_ms = |h: &str| {
            snap.histogram(h, &[])
                .map_or(0.0, |h| h.quantile(50.0) as f64 / 1e6)
        };
        let count = |c: &str| snap.counter(c, &[]).unwrap_or(0) as f64;
        let batches = count("serve_batches_total");
        let attempts = count("serve_enqueued_total") + count("serve_shed_total");
        let stages = [
            ("serve.submit_us", median(&submit_us)),
            ("serve.queue_p50_ms", p50_ms("serve_stage_admission_ns")),
            ("serve.linger_p50_ms", p50_ms("serve_stage_linger_ns")),
            ("serve.execute_p50_ms", p50_ms("serve_stage_execute_ns")),
            (
                "serve.mean_batch",
                ratio(count("serve_batched_requests_total"), batches),
            ),
            (
                "serve.shed_frac",
                ratio(count("serve_shed_total"), attempts),
            ),
            ("serve.retries", count("serve_retries_total")),
        ];
        for (name, value) in stages {
            m.insert(phased(phase.prefix(), name)?, value);
        }
        match phase {
            Phase::Low => {
                m.insert(
                    "bench.lat_tail_ms",
                    finite_or(completed_tail(st).value, -1.0),
                );
            }
            Phase::High => {
                m.insert("high.lat_p50_ms", finite_or(median(&st.lat_ms), -1.0));
                m.insert("bench.gen_lag_p99_ms", lag_p99(st));
            }
        }
    }
    Ok(m)
}
