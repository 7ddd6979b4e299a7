//! `e2ebench` — whole-model inference and open-loop serving benchmark.
//!
//! ```text
//! e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! ```
//!
//! Runs one workload (see `METRICS.md` beside this package), checks every
//! output against a reference, and prints as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones from a separate
//! traced run. The line before it carries the run's provenance; the same
//! record, and the traced run's spans, are written under `--out`.

mod measure;
mod models;
mod reference;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use ndirect_support::Json;

#[global_allocator]
static ALLOC: measure::CountingAlloc = measure::CountingAlloc;

/// End-to-end metrics: every workload reports each of them, untraced.
const END_TO_END: &[(&str, &str)] = &[
    ("lat_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer that a workload does not
/// exercise reads 0 on that workload.
const PER_LAYER: &[(&str, &str)] = &[
    ("core.conv_s", "s"),
    ("core.conv_calls", "count"),
    ("core.conv_gflops", "GF/s"),
    ("core.conv3x3_gflops", "GF/s"),
    ("core.conv_flops", "flop"),
    ("core.conv_min_bytes", "B"),
    ("core.pack_bytes_pred", "B"),
    ("core.plan_build_s", "s"),
    ("core.dwpw_call_s", "s"),
    ("core.dwpw_exec_s", "s"),
    ("core.dwpw_gflops", "GF/s"),
    ("models.fc_s", "s"),
    ("models.allocs_per_infer", "count"),
    ("models.alloc_bytes_per_infer", "B"),
    ("models.self_s", "s"),
    ("gemm.fc_s", "s"),
    ("threads.dispatch_us", "us"),
    ("serve.max_rps", "1/s"),
    ("low.serve.submit_us", "us"),
    ("low.serve.queue_p50_ms", "ms"),
    ("low.serve.linger_p50_ms", "ms"),
    ("low.serve.execute_p50_ms", "ms"),
    ("low.serve.mean_batch", "count"),
    ("low.serve.shed_frac", "frac"),
    ("low.serve.retries", "count"),
    ("high.serve.submit_us", "us"),
    ("high.serve.queue_p50_ms", "ms"),
    ("high.serve.linger_p50_ms", "ms"),
    ("high.serve.execute_p50_ms", "ms"),
    ("high.serve.mean_batch", "count"),
    ("high.serve.shed_frac", "frac"),
    ("high.serve.retries", "count"),
    ("high.lat_p50_ms", "ms"),
    ("bench.lat_tail_ms", "ms"),
    ("bench.unattributed_frac", "frac"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.gen_lag_p99_ms", "ms"),
];

/// The workloads, by name.
const WORKLOADS: &[&str] = &["vgg16_b1", "mobilenet_lite_b1", "serve_open_mix"];

/// Threads of the model workloads' pool, the caller included. One: on a
/// shared two-vCPU host a pool of two runs every parallel region at the
/// pace of the more-stolen vCPU, and ResNet-50's median moved by a quarter
/// from run to run (0.23–0.27 of the median over ten seeds), against 0.04
/// with one thread, which was at most 1.35× slower.
const MODEL_THREADS: usize = 1;

/// Everything a workload needs from the command line.
pub struct RunConfig {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input and weight.
    pub seed: u64,
    /// Measured duration.
    pub seconds: Duration,
    /// Threads of the model workloads' pool (the caller included).
    pub threads: usize,
    /// Processors available, the size of the pool `threads.dispatch_us`
    /// is measured on.
    pub nproc: usize,
    /// Where the run record and span files go.
    pub out_dir: PathBuf,
}

/// What a workload reports.
pub struct Outcome {
    /// Units of work attempted (inferences or requests).
    pub attempted: u64,
    /// Attempts that erred, were shed, or produced a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run details for the record (sample counts, tail percentiles, ...).
    pub details: Vec<(String, Json)>,
}

fn parse_args() -> Result<(RunConfig, bool), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out_dir = PathBuf::from("e2ebench/out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&format!("one of {WORKLOADS:?}"))),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                seconds =
                    Some(Duration::try_from_secs_f64(s).map_err(|_| bad("a positive duration"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--out" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Ok((
        RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            threads: MODEL_THREADS.min(nproc),
            nproc,
            out_dir,
        },
        trace.ok_or("--trace is required")?,
    ))
}

/// How the measured binary was built and where it ran.
fn provenance(cfg: &RunConfig, traced: bool) -> Json {
    let features: Vec<Json> = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ]
    .iter()
    .filter(|(_, on)| *on)
    .map(|(f, _)| Json::str(*f))
    .collect();
    let env = |k: &str| Json::str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    Json::Obj(vec![
        ("workload".into(), Json::str(cfg.workload.clone())),
        ("seed".into(), Json::num(cfg.seed as f64)),
        ("seconds".into(), Json::num(cfg.seconds.as_secs_f64())),
        ("traced".into(), Json::Bool(traced)),
        ("threads".into(), Json::usize(cfg.threads)),
        ("nproc".into(), Json::usize(cfg.nproc)),
        ("rustc".into(), Json::str(env!("E2EBENCH_RUSTC"))),
        ("profile".into(), Json::str(env!("E2EBENCH_PROFILE"))),
        ("rustflags".into(), Json::str(env!("E2EBENCH_RUSTFLAGS"))),
        ("target_features".into(), Json::Arr(features)),
        (
            "detected_isa".into(),
            Json::str(ndirect_simd::detected_isa().name()),
        ),
        ("host".into(), Json::str(ndirect_platform::host().name)),
        ("git_rev".into(), env("E2EBENCH_GIT_REV")),
    ])
}

fn run(cfg: &RunConfig, traced: bool) -> Result<Outcome, String> {
    use models::Zoo;
    match (cfg.workload.as_str(), traced) {
        ("vgg16_b1", false) => models::run(Zoo::Vgg16, cfg),
        ("vgg16_b1", true) => models::run_traced(Zoo::Vgg16, cfg),
        ("mobilenet_lite_b1", false) => models::run(Zoo::MobileNetLite, cfg),
        ("mobilenet_lite_b1", true) => models::run_traced(Zoo::MobileNetLite, cfg),
        ("serve_open_mix", t) => serve::run(cfg, t),
        (other, _) => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let (cfg, traced) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))
        .and_then(|()| run(&cfg, traced))
        .and_then(|outcome| report(&cfg, traced, outcome));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {}: {e}", cfg.workload);
            ExitCode::FAILURE
        }
    }
}

/// Prints the provenance line and the result line, and writes both to the
/// run record.
fn report(cfg: &RunConfig, traced: bool, outcome: Outcome) -> Result<(), String> {
    let names = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        let entry = Json::Obj(vec![
            ("value".into(), Json::num(value)),
            ("unit".into(), Json::str(unit)),
        ]);
        metrics.push((name.to_string(), entry));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::num(outcome.attempted as f64)),
        ("failed".into(), Json::num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    let record = Json::Obj(vec![
        ("provenance".into(), provenance(cfg, traced)),
        ("details".into(), Json::Obj(outcome.details)),
        ("result".into(), result.clone()),
    ]);
    let path = cfg.out_dir.join(format!(
        "run-{}-seed{}-trace{}.json",
        cfg.workload,
        cfg.seed,
        u8::from(traced)
    ));
    std::fs::write(&path, record.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if let Json::Obj(fields) = &record {
        println!("{}", Json::Obj(fields[..2].to_vec()).compact());
    }
    println!("{}", result.compact());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed are the ones `BENCHMARK.json`
    /// declares, in the same order.
    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.str_field("name").unwrap().into(),
                        m.str_field("unit").unwrap().into(),
                    )
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), ours(END_TO_END));
        assert_eq!(declared("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workload list")
            .iter()
            .map(|w| w.str_field("name").unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
