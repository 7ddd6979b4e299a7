//! Whole-model workloads: one closed-loop caller runs `Engine::try_run` at
//! batch 1 on an `NDirectBackend`, with residual and dw+pw fusion on (each
//! applies only where its pattern occurs), on a pool of `threads` threads
//! (the caller is thread 0; see `MODEL_THREADS`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use ndirect_baselines::Convolution;
use ndirect_core::FusedDwPwPlan;
use ndirect_models::{
    ops, ConvLayer, Engine, FcLayer, InferenceStats, Model, ModelError, NDirectBackend, Node,
};
use ndirect_support::Json;
use ndirect_tensor::{fill, ActLayout, ConvShape, Filter, Tensor4};
use ndirect_threads::StaticPool;

use crate::measure::{alloc_counts, dispatch_us, median, more_setups, peak_rss_mb, ratio, tail};
use crate::reference::{self, fuses_dwpw};
use crate::trace::{self, Span, Tracer};
use crate::{Outcome, RunConfig};

/// Fewest timed inferences per run, even past `--seconds`.
const MIN_SAMPLES: usize = 3;
/// Largest accepted `max|l − l_ref| / max|l_ref|` over the logits. The
/// reference differs from the engine in every conv's summation order and
/// computes FC in `f64`; on the three models the observed error stays
/// below 1e-5, and a wrong layer shows orders of magnitude above this.
const LOGIT_TOL: f64 = 1e-3;
/// Largest accepted `|p − p_ref|` over the class probabilities.
const PROB_TOL: f64 = 1e-4;

/// The zoo models the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub enum Zoo {
    /// `zoo::vgg16`.
    Vgg16,
    /// `zoo::mobilenet_lite`.
    MobileNetLite,
}

impl Zoo {
    fn build(self, seed: u64) -> Model {
        match self {
            Zoo::Vgg16 => ndirect_models::vgg16(seed),
            Zoo::MobileNetLite => ndirect_models::mobilenet_lite(seed),
        }
    }
}

fn engine<'a>(conv: &'a dyn Convolution, pool: &'a StaticPool) -> Engine<'a> {
    Engine::new(conv, pool)
        .with_residual_fusion(true)
        .with_dwpw_fusion(true)
}

/// The calls one inference makes into the layers the benchmark times.
struct Layers<'m> {
    /// Convolutions that go through the backend (fused pointwise convs
    /// excluded), with their filters.
    convs: Vec<(ConvShape, &'m Filter)>,
    /// Fused dw+pw pairs: depthwise shape, depthwise and pointwise layer.
    dwpw: Vec<(ConvShape, &'m ConvLayer, &'m ConvLayer)>,
    /// Fully-connected layers.
    fcs: Vec<&'m FcLayer>,
}

fn layers(model: &Model) -> Result<Layers<'_>, String> {
    let (mut c, mut h, mut w) = model.input;
    let mut saved = None;
    let mut out = Layers {
        convs: Vec::new(),
        dwpw: Vec::new(),
        fcs: Vec::new(),
    };
    let mut skip_pw = false;
    for (i, node) in model.nodes.iter().enumerate() {
        match node {
            Node::Conv(l) => {
                let s = l.try_shape_for(1, c, h, w).map_err(|e| e.to_string())?;
                if !std::mem::take(&mut skip_pw) {
                    out.convs.push((s, &l.filter));
                }
                (c, h, w) = (l.k, s.p(), s.q());
            }
            Node::DepthwiseConv(l) => {
                let s = l
                    .try_depthwise_shape_for(1, c, h, w)
                    .map_err(|e| e.to_string())?;
                if fuses_dwpw(model, i) {
                    let Some(Node::Conv(pw)) = model.nodes.get(i + 1) else {
                        unreachable!("fuses_dwpw checked the next node");
                    };
                    out.dwpw.push((s, l, pw));
                    skip_pw = true;
                }
                (h, w) = (s.p(), s.q());
            }
            Node::MaxPool(k, st, p) => {
                (h, w) = ((h + 2 * p - k) / st + 1, (w + 2 * p - k) / st + 1)
            }
            Node::GlobalAvgPool => (h, w) = (1, 1),
            Node::Fc(f) => {
                out.fcs.push(f);
                (c, h, w) = (f.out, 1, 1);
            }
            Node::Softmax => {}
            Node::Save => saved = Some((c, h, w)),
            Node::ResidualJoin(proj) => {
                if let (Some(l), Some((sc, sh, sw))) = (proj, saved.take()) {
                    let s = l.try_shape_for(1, sc, sh, sw).map_err(|e| e.to_string())?;
                    out.convs.push((s, &l.filter));
                }
            }
        }
    }
    Ok(out)
}

/// A built model ready to serve inferences.
struct Instance {
    model: Model,
    input: Tensor4,
    pool: StaticPool,
    backend: NDirectBackend,
    first: Tensor4,
    setup_s: f64,
    plan_build_s: f64,
}

/// Model build, pool, backend and every plan build, then the first
/// inference: what a user waits for before the first result. Making the
/// input is not timed.
fn set_up(zoo: Zoo, cfg: &RunConfig) -> Result<Instance, String> {
    let t0 = Instant::now();
    let model = zoo.build(cfg.seed);
    let model_s = t0.elapsed().as_secs_f64();
    let (c, h, w) = model.input;
    let input = fill::random_tensor(
        Tensor4::zeros(1, c, h, w, ActLayout::Nchw),
        cfg.seed ^ 0x5eed,
    );
    let t1 = Instant::now();
    let pool = StaticPool::try_new(cfg.threads).map_err(|e| e.to_string())?;
    let backend = NDirectBackend::host();
    let tp = Instant::now();
    for (shape, filter) in layers(&model)?.convs {
        backend.prepare(&shape, filter, pool.size());
    }
    let plan_build_s = tp.elapsed().as_secs_f64();
    let (first, _) = engine(&backend, &pool)
        .try_run(&model, &input)
        .map_err(|e| e.to_string())?;
    Ok(Instance {
        setup_s: model_s + t1.elapsed().as_secs_f64(),
        model,
        input,
        pool,
        backend,
        first,
        plan_build_s,
    })
}

fn bitwise_eq(a: &Tensor4, b: &Tensor4) -> bool {
    a.dims() == b.dims()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Counts of work attempted and failed.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records one `Engine::try_run`: it must succeed and equal `first`.
    fn inference(&mut self, got: Result<(Tensor4, InferenceStats), ModelError>, first: &Tensor4) {
        self.record(got.is_ok_and(|(t, _)| bitwise_eq(&t, first)));
    }
}

/// Builds instances one after another, as many as `more_setups` asks
/// for, dropping each before the next; keeps the last, and returns every
/// set-up's time and plan-build time. Every first inference must equal the
/// first one bitwise.
fn set_up_repeatedly(
    zoo: Zoo,
    cfg: &RunConfig,
    checks: &mut Checks,
) -> Result<(Instance, Vec<f64>, Vec<f64>), String> {
    let (mut setups, mut builds) = (Vec::new(), Vec::new());
    let mut kept: Option<Instance> = None;
    while more_setups(&setups) {
        let earlier = kept.take().map(|i| i.first);
        let inst = set_up(zoo, cfg)?;
        checks.record(earlier.is_none_or(|e| bitwise_eq(&e, &inst.first)));
        setups.push(inst.setup_s);
        builds.push(inst.plan_build_s);
        kept = Some(inst);
    }
    Ok((kept.expect("at least one set-up"), setups, builds))
}

/// The workload's parameters, for the run record.
fn params(zoo: Zoo, inst: &Instance) -> Vec<(String, Json)> {
    vec![
        (
            "model".into(),
            Json::str(format!("{zoo:?} ({})", inst.model.name)),
        ),
        ("batch".into(), Json::usize(inst.input.n())),
        ("backend".into(), Json::str("NDirectBackend::host()")),
        ("residual_fusion".into(), Json::Bool(true)),
        ("dwpw_fusion".into(), Json::Bool(true)),
        ("pool_threads".into(), Json::usize(inst.pool.size())),
    ]
}

/// Checks the engine against the reference pass: its logits (the model
/// run once more without the final softmax node) and its first output's
/// probabilities. A mismatch fails every inference, since all of them
/// equal the first bitwise.
fn check_reference(
    inst: &mut Instance,
    checks: &mut Checks,
    details: &mut Vec<(String, Json)>,
) -> Result<reference::Forward, String> {
    let fwd = reference::forward(&inst.pool, &inst.model, &inst.input)?;
    // Popping and re-pushing the last node moves no other node, so every
    // cached plan stays keyed on the same filter buffers.
    let softmax = inst.model.nodes.pop();
    let logits = engine(&inst.backend, &inst.pool).try_run(&inst.model, &inst.input);
    inst.model.nodes.extend(softmax);
    let logits = logits.map_err(|e| e.to_string())?.0;
    let max_diff = |got: &[f32], want: &[f64]| {
        got.iter()
            .zip(want)
            .map(|(&g, &w)| (f64::from(g) - w).abs())
            .fold(0.0, f64::max)
    };
    let scale = fwd.logits.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let logit_err = max_diff(logits.as_slice(), &fwd.logits) / scale;
    let prob_err = max_diff(inst.first.as_slice(), &fwd.probs);
    let ok = logits.len() == fwd.logits.len()
        && inst.first.len() == fwd.probs.len()
        && logit_err <= LOGIT_TOL
        && prob_err <= PROB_TOL;
    details.push((
        "logit_rel_err".into(),
        Json::str(format!("{logit_err:.3e} (tolerance {LOGIT_TOL:e})")),
    ));
    details.push((
        "prob_abs_err".into(),
        Json::str(format!("{prob_err:.3e} (tolerance {PROB_TOL:e})")),
    ));
    if !ok {
        checks.failed = checks.attempted;
    }
    Ok(fwd)
}

/// The untraced run: every end-to-end metric.
pub fn run(zoo: Zoo, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let (mut inst, setups, _) = set_up_repeatedly(zoo, cfg, &mut checks)?;
    let eng = engine(&inst.backend, &inst.pool);

    let mut lat = Vec::new();
    let start = Instant::now();
    while start.elapsed() < cfg.seconds || lat.len() < MIN_SAMPLES {
        let t0 = Instant::now();
        let out = eng.try_run(&inst.model, black_box(&inst.input));
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        checks.inference(out, &inst.first);
    }
    let peak = peak_rss_mb()?;

    let mut details = params(zoo, &inst);
    check_reference(&mut inst, &mut checks, &mut details)?;
    let t = tail(&lat);
    details.push(("samples".into(), Json::usize(t.n)));
    details.push(("tail_ms".into(), Json::num(t.value)));
    details.push(("tail_pct".into(), Json::num(t.pct)));
    details.push(("setups".into(), Json::usize(setups.len())));
    let all = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::num(x)).collect());
    details.push(("setup_s".into(), all(&setups)));
    details.push(("lat_ms".into(), all(&lat)));
    Ok(Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: BTreeMap::from([
            ("lat_p50_ms", median(&lat)),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak),
        ]),
        details,
    })
}

/// A `Convolution` that times every call into the wrapped backend as a
/// `conv` span under the current root.
struct TimedConv<'a> {
    inner: &'a NDirectBackend,
    tracer: &'a Tracer,
    root: AtomicUsize,
    trace: AtomicU64,
}

impl Convolution for TimedConv<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn accumulates(&self) -> bool {
        self.inner.accumulates()
    }

    fn conv(
        &self,
        pool: &StaticPool,
        input: &Tensor4,
        filter: &Filter,
        shape: &ConvShape,
        output: &mut Tensor4,
    ) {
        let t0 = Instant::now();
        self.inner.conv(pool, input, filter, shape, output);
        let t1 = Instant::now();
        // A cache hit: the call above built or found the same plan.
        let plan = self.inner.prepare(shape, filter, pool.size());
        let attrs = vec![
            ("flops".into(), shape.flops() as f64),
            ("rs".into(), shape.r as f64),
            (
                "min_bytes".into(),
                ndirect_platform::roofline::conv_min_traffic_bytes(shape) as f64,
            ),
            (
                "pack_bytes_pred".into(),
                plan.schedule().predicted_pack_bytes_u64(shape) as f64,
            ),
        ];
        // ORDERING: Relaxed — set by the same thread before `try_run`.
        let (root, trace) = (
            self.root.load(Ordering::Relaxed),
            self.trace.load(Ordering::Relaxed),
        );
        self.tracer
            .record("conv", (t0, t1), Some(root), trace, false, attrs);
    }
}

/// The traced run: every per-layer metric.
pub fn run_traced(zoo: Zoo, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut checks = Checks::default();
    let (mut inst, _, builds) = set_up_repeatedly(zoo, cfg, &mut checks)?;
    let mut details = params(zoo, &inst);
    let fwd = check_reference(&mut inst, &mut checks, &mut details)?;
    let input = &inst.input;
    let layers = layers(&inst.model)?;
    let pool = &inst.pool;
    let threads = pool.size();

    // Replay operands prepared once: FC weights laid out `in × out` for
    // the GEMM floor, fused dw+pw plans and their outputs.
    let fc_wt: Vec<Vec<f32>> = layers
        .fcs
        .iter()
        .map(|fc| {
            let in_dim = fc.weight.len() / fc.out;
            let mut wt = vec![0.0f32; fc.weight.len()];
            for (o, row) in fc.weight.chunks(in_dim).enumerate() {
                for (i, &v) in row.iter().enumerate() {
                    wt[i * fc.out + o] = v;
                }
            }
            wt
        })
        .collect();
    let host = ndirect_platform::host();
    let fused: Vec<(FusedDwPwPlan<'static>, Tensor4)> = layers
        .dwpw
        .iter()
        .map(|(s, dw, pw)| {
            let plan = FusedDwPwPlan::try_new(&host, s, &dw.filter, &pw.filter, threads)
                .map_err(|e| e.to_string())?
                .with_mid_relu(dw.relu);
            Ok((plan, Tensor4::zeros(1, pw.k, s.p(), s.q(), ActLayout::Nchw)))
        })
        .collect::<Result<_, String>>()?;

    let tracer = Tracer::new();
    let timed = TimedConv {
        inner: &inst.backend,
        tracer: &tracer,
        root: AtomicUsize::new(0),
        trace: AtomicU64::new(0),
    };
    let plain = engine(&inst.backend, pool);
    let traced = engine(&timed, pool);
    let (mut untraced_ms, mut traced_ms, mut allocs, mut alloc_bytes) =
        (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    let mut id = 0u64;
    while start.elapsed() < cfg.seconds || (id as usize) < MIN_SAMPLES {
        let (a0, b0) = alloc_counts();
        let t0 = Instant::now();
        let out = plain.try_run(&inst.model, black_box(input));
        untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let (a1, b1) = alloc_counts();
        allocs.push((a1 - a0) as f64);
        alloc_bytes.push((b1 - b0) as f64);
        checks.inference(out, &inst.first);

        let t0 = Instant::now();
        let root = tracer.open("infer", t0, id);
        timed.root.store(root, Ordering::Relaxed);
        timed.trace.store(id, Ordering::Relaxed);
        let out = traced.try_run(&inst.model, black_box(input));
        let t1 = Instant::now();
        tracer.close(root, t1);
        traced_ms.push((t1 - t0).as_secs_f64() * 1e3);
        checks.inference(out, &inst.first);

        for ((fc, x), wt) in layers.fcs.iter().zip(&fwd.fc_inputs).zip(&fc_wt) {
            let t0 = Instant::now();
            black_box(ops::fully_connected(
                pool,
                black_box(x),
                &fc.weight,
                &fc.bias,
            ));
            tracer.record("fc", (t0, Instant::now()), Some(root), id, true, Vec::new());
            let mut y = vec![0.0f32; fc.out];
            let t0 = Instant::now();
            ndirect_gemm::gemm(1, fc.out, x.len(), black_box(x.as_slice()), wt, &mut y);
            tracer.record("gemm_fc", (t0, Instant::now()), None, id, true, Vec::new());
            black_box(y);
        }
        for (((s, dw, pw), x), (plan, out)) in layers.dwpw.iter().zip(&fwd.dwpw_inputs).zip(&fused)
        {
            let flops = vec![(
                "flops".to_string(),
                ndirect_core::fused_pair_flops(s, pw.k) as f64,
            )];
            let t0 = Instant::now();
            let r = ndirect_core::try_conv_dwpw_fused_with(
                pool,
                black_box(x),
                &dw.filter,
                &pw.filter,
                s,
                dw.relu,
            );
            tracer.record(
                "dwpw_call",
                (t0, Instant::now()),
                Some(root),
                id,
                true,
                flops.clone(),
            );
            black_box(r.map_err(|e| e.to_string())?);
            let mut out = out.clone();
            let t0 = Instant::now();
            plan.execute(pool, black_box(x), &mut out)
                .map_err(|e| e.to_string())?;
            tracer.record("dwpw_exec", (t0, Instant::now()), None, id, true, flops);
            black_box(out);
        }
        id += 1;
    }

    let path = cfg
        .out_dir
        .join(format!("spans-{}-seed{}.jsonl", cfg.workload, cfg.seed));
    tracer.write(&path)?;
    let spans = trace::read(&path)?;
    let roots = trace::breakdown(&spans, "infer");
    let n = roots.len();
    let sum = |name: &str, f: &dyn Fn(&Span) -> f64| trace::per_trace_sum(&spans, name, n, f);
    let of_size =
        |rs: f64, f: fn(&Span) -> f64| move |s: &Span| if s.attr("rs") == rs { f(s) } else { 0.0 };
    let flops = |s: &Span| s.attr("flops");
    let gflops = |secs: f64, flops: f64| ratio(flops, secs) / 1e9;
    let conv_s = sum("conv", &Span::secs);
    let dwpw_exec_s = sum("dwpw_exec", &Span::secs);
    let root_total: f64 = roots.iter().map(|r| r.root_s).sum();
    let self_total: f64 = roots.iter().map(|r| r.self_s()).sum();
    let t = tail(&untraced_ms);
    details.push(("traced_inferences".into(), Json::usize(n)));
    details.push(("tail_pct".into(), Json::num(t.pct)));
    details.push(("tail_samples".into(), Json::usize(t.n)));
    details.push(("spans_file".into(), Json::str(path.display().to_string())));
    Ok(Outcome {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics: BTreeMap::from([
            ("core.conv_s", conv_s),
            ("core.conv_calls", sum("conv", &|_| 1.0)),
            ("core.conv_gflops", gflops(conv_s, sum("conv", &flops))),
            (
                "core.conv3x3_gflops",
                gflops(
                    sum("conv", &of_size(3.0, Span::secs)),
                    sum("conv", &of_size(3.0, flops)),
                ),
            ),
            ("core.conv_flops", sum("conv", &flops)),
            ("core.conv_min_bytes", sum("conv", &|s| s.attr("min_bytes"))),
            (
                "core.pack_bytes_pred",
                sum("conv", &|s| s.attr("pack_bytes_pred")),
            ),
            ("core.plan_build_s", median(&builds)),
            ("core.dwpw_call_s", sum("dwpw_call", &Span::secs)),
            ("core.dwpw_exec_s", dwpw_exec_s),
            (
                "core.dwpw_gflops",
                gflops(dwpw_exec_s, sum("dwpw_exec", &flops)),
            ),
            ("models.fc_s", sum("fc", &Span::secs)),
            ("models.allocs_per_infer", median(&allocs)),
            ("models.alloc_bytes_per_infer", median(&alloc_bytes)),
            (
                "models.self_s",
                median(&roots.iter().map(|r| r.self_s()).collect::<Vec<_>>()),
            ),
            ("gemm.fc_s", sum("gemm_fc", &Span::secs)),
            ("threads.dispatch_us", dispatch_us(cfg.nproc)?),
            ("bench.lat_tail_ms", t.value),
            ("bench.unattributed_frac", self_total / root_total),
            (
                "bench.trace_overhead_frac",
                median(&traced_ms) / median(&untraced_ms) - 1.0,
            ),
        ]),
        details,
    })
}
