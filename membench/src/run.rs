//! The closed-loop runner: set-up, the measured request loop, the
//! correctness gate, the end-to-end metrics and the default-seed
//! expected values.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use memsci_telemetry::json::{parse, Json};
use memsci_telemetry::HwCounters;

use crate::trace;
use crate::workloads::{Inputs, Kind, Probes, Size, Workload};

/// The seed whose outputs and counters are stored in `expected.json`.
pub const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` reports their median.
pub const SETUP_REPEATS: usize = 5;

const EXPECTED_JSON: &str = include_str!("../expected.json");

/// Where the benchmark writes its traces and expected values.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One solved right-hand side, without its solution vector.
#[derive(Debug, Clone, Copy)]
pub struct SolveStat {
    /// Solver iterations.
    pub iterations: usize,
    /// Converged verdict.
    pub converged: bool,
    /// Simulated seconds.
    pub model_s: f64,
    /// Simulated joules.
    pub model_j: f64,
    /// True relative residual on the reference platform.
    pub csr_residual: f64,
}

/// One served request.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request index.
    pub index: u64,
    /// Right-hand sides the request carried.
    pub rhs: usize,
    /// Host seconds the request took.
    pub seconds: f64,
    /// Per right-hand side results (empty if the request failed).
    pub solves: Vec<SolveStat>,
    /// Simulated SpMVs issued.
    pub sim_spmvs: u64,
    /// Ran on the GPU model.
    pub gpu: bool,
    /// Bitwise output digest.
    pub digest: u64,
    /// Why the request failed; empty when it passed the gate.
    pub failures: Vec<String>,
    /// Telemetry counter delta of the request (traced runs only).
    pub counters: Option<HwCounters>,
}

/// The requests of one measured phase.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Served requests in order.
    pub records: Vec<Record>,
    /// Service probes (traced `service_mix` only).
    pub probes: Probes,
    /// Counter delta of the phase's set-up (traced runs only).
    pub setup_counters: Option<HwCounters>,
    /// The program's own span statistics accumulated inside requests
    /// (traced runs only): path → (calls, seconds).
    pub internal_spans: BTreeMap<String, (u64, f64)>,
}

/// When the request loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At the first cycle boundary after this many seconds.
    Seconds(f64),
    /// After exactly this many requests.
    Requests(usize),
}

fn counters() -> HwCounters {
    memsci_telemetry::snapshot().counters
}

fn panic_message(p: Box<dyn std::any::Any + Send>) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// Runs the set-up once, catching panics.
pub fn setup(inputs: &Inputs) -> Result<Box<dyn Workload>, String> {
    catch_unwind(AssertUnwindSafe(|| inputs.setup())).unwrap_or_else(|p| Err(panic_message(p)))
}

/// Serves requests until `stop`, gating each. With `traced`, records
/// the telemetry counter delta of every request and takes the
/// workload's probes after it.
pub fn measure(
    kind: Kind,
    inputs: &Inputs,
    w: &mut dyn Workload,
    stop: Stop,
    traced: bool,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    for index in 0u64.. {
        let done = match stop {
            Stop::Requests(n) => index as usize >= n,
            Stop::Seconds(s) => {
                index as usize >= kind.fixed_requests()
                    && (index as usize).is_multiple_of(kind.cycle())
                    && start.elapsed().as_secs_f64() >= s
            }
        };
        if done {
            break;
        }
        let req = inputs.request(index);
        let before = traced.then(memsci_telemetry::snapshot);
        trace::set_request(Some(index as u32));
        let t0 = Instant::now();
        let served = catch_unwind(AssertUnwindSafe(|| {
            let _g = trace::span("request");
            w.run(&req)
        }));
        let seconds = t0.elapsed().as_secs_f64();
        trace::set_request(None);
        let delta = before.map(|b| {
            let now = memsci_telemetry::snapshot();
            for s in &now.spans {
                let (calls, secs) = b
                    .spans
                    .iter()
                    .find(|o| o.name == s.name)
                    .map_or((0, 0.0), |o| (o.calls, o.seconds));
                if s.calls > calls {
                    let e = phase.internal_spans.entry(s.name.clone()).or_default();
                    e.0 += s.calls - calls;
                    e.1 += s.seconds - secs;
                }
            }
            now.counters.delta_since(&b.counters)
        });
        let mut record = Record {
            index,
            rhs: 0,
            seconds,
            solves: Vec::new(),
            sim_spmvs: 0,
            gpu: false,
            digest: 0,
            failures: Vec::new(),
            counters: delta,
        };
        match served {
            Ok(Ok(mut out)) => {
                if traced {
                    w.probe(&req, &mut phase.probes);
                }
                record.failures = catch_unwind(AssertUnwindSafe(|| w.check(index, &req, &mut out)))
                    .unwrap_or_else(|p| vec![format!("gate panicked: {}", panic_message(p))]);
                record.rhs = out.solves.len();
                record.sim_spmvs = out.sim_spmvs;
                record.gpu = out.gpu;
                record.digest = out.digest();
                record.solves = out
                    .solves
                    .iter()
                    .map(|s| SolveStat {
                        iterations: s.iterations,
                        converged: s.converged,
                        model_s: s.model_s,
                        model_j: s.model_j,
                        csr_residual: s.csr_residual,
                    })
                    .collect();
            }
            Ok(Err(e)) => record.failures.push(e),
            Err(p) => record
                .failures
                .push(format!("panicked: {}", panic_message(p))),
        }
        phase.records.push(record);
    }
    phase
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// The highest percentile of `ladder` (descending) that leaves at least
/// ten of `n` samples beyond it, preferring `want`.
pub fn tail_percentile(want: f64, n: usize) -> f64 {
    let beyond = |p: f64| n - ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
    [want, 0.95, 0.9, 0.8, 0.75, 0.7, 0.5]
        .into_iter()
        .filter(|&p| p <= want)
        .find(|&p| n > 0 && beyond(p) >= 10)
        .unwrap_or(0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One end-to-end metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Totals over a phase's passing requests.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed the gate, errored or panicked.
    pub failed: usize,
    /// Right-hand sides solved.
    pub rhs: usize,
    /// Simulated SpMVs issued.
    pub sim_spmvs: u64,
    /// Host seconds inside requests.
    pub seconds: f64,
    /// Per right-hand side host seconds (a batch of k counts k times),
    /// sorted.
    pub per_rhs_s: Vec<f64>,
    /// Solve statistics of the workload's fixed requests.
    pub solves: Vec<SolveStat>,
}

impl Totals {
    /// Folds a phase of workload `kind`.
    pub fn of(kind: Kind, phase: &Phase) -> Totals {
        let mut t = Totals {
            attempted: phase.records.len(),
            ..Default::default()
        };
        for r in &phase.records {
            if !r.failures.is_empty() {
                t.failed += 1;
                continue;
            }
            t.rhs += r.rhs;
            t.sim_spmvs += r.sim_spmvs;
            t.seconds += r.seconds;
            t.per_rhs_s
                .extend(std::iter::repeat_n(r.seconds / r.rhs as f64, r.rhs));
            if (r.index as usize) < kind.fixed_requests() {
                t.solves.extend(r.solves.iter().copied());
            }
        }
        t.per_rhs_s.sort_by(f64::total_cmp);
        t
    }

    /// Right-hand sides per host second.
    pub fn solves_per_s(&self) -> f64 {
        self.rhs as f64 / self.seconds
    }
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json`
/// order, plus the tail percentile used.
pub fn end_to_end(kind: Kind, t: &Totals, setup_s: f64, rss_mb: f64) -> (Vec<Metric>, f64) {
    let n = t.per_rhs_s.len();
    let tail_p = tail_percentile(kind.tail_percentile(), n);
    let solves = t.solves.len().max(1) as f64;
    let mean = |f: fn(&SolveStat) -> f64| t.solves.iter().map(f).sum::<f64>() / solves;
    let pct = |p| {
        if n == 0 {
            f64::NAN
        } else {
            percentile(&t.per_rhs_s, p)
        }
    };
    let metrics = vec![
        Metric {
            name: "solve_s_p50",
            value: pct(0.5),
            unit: "s",
        },
        Metric {
            name: "solve_s_tail",
            value: pct(tail_p),
            unit: "s",
        },
        Metric {
            name: "solves_per_s",
            value: t.solves_per_s(),
            unit: "1/s",
        },
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
        },
        Metric {
            name: "peak_rss_mb",
            value: rss_mb,
            unit: "MiB",
        },
        Metric {
            name: "sim_spmv_per_s",
            value: t.sim_spmvs as f64 / t.seconds,
            unit: "1/s",
        },
        Metric {
            name: "iters_mean",
            value: mean(|s| s.iterations as f64),
            unit: "iterations",
        },
        Metric {
            name: "model_s_per_solve",
            value: mean(|s| s.model_s),
            unit: "sim_s",
        },
        Metric {
            name: "model_j_per_solve",
            value: mean(|s| s.model_j),
            unit: "sim_J",
        },
        Metric {
            name: "residual_err",
            value: t
                .solves
                .iter()
                .filter(|s| s.converged)
                .map(|s| s.csr_residual)
                .fold(f64::NAN, f64::max),
            unit: "ratio",
        },
    ];
    (metrics, tail_p)
}

/// Sets up `SETUP_REPEATS` times from scratch and keeps the last,
/// returning it with the median set-up seconds.
pub fn timed_setup(inputs: &Inputs) -> Result<(Box<dyn Workload>, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        let w = setup(inputs)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(w);
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// A traced phase: telemetry on from a reset sink, one spanned set-up,
/// then exactly `requests` requests. Returns the phase, the spans and
/// the modelled ledger.
pub fn traced_phase(
    kind: Kind,
    inputs: &Inputs,
    requests: usize,
) -> Result<(Phase, Vec<trace::SpanRec>, trace::ModelLedger), String> {
    memsci_telemetry::reset();
    memsci_telemetry::enable();
    trace::start();
    let before = counters();
    let setup_result = setup(inputs);
    let setup_counters = counters().delta_since(&before);
    let mut w = match setup_result {
        Ok(w) => w,
        Err(e) => {
            trace::stop();
            memsci_telemetry::disable();
            return Err(e);
        }
    };
    let mut phase = measure(kind, inputs, w.as_mut(), Stop::Requests(requests), true);
    phase.setup_counters = Some(setup_counters);
    let (spans, model) = trace::stop();
    memsci_telemetry::disable();
    Ok((phase, spans, model))
}

fn hex(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn counters_json(c: &HwCounters) -> Json {
    Json::Obj(
        c.iter()
            .map(|(name, v)| (name.to_string(), Json::UInt(v)))
            .collect(),
    )
}

/// The stored form of one request at the default seed.
fn request_json(r: &Record) -> Json {
    let arr = |f: &dyn Fn(&SolveStat) -> Json| Json::Arr(r.solves.iter().map(f).collect());
    let mut fields = vec![
        ("digest".to_string(), hex(r.digest)),
        (
            "iterations".to_string(),
            arr(&|s| Json::UInt(s.iterations as u64)),
        ),
        (
            "model_s_bits".to_string(),
            arr(&|s| hex(s.model_s.to_bits())),
        ),
        (
            "model_j_bits".to_string(),
            arr(&|s| hex(s.model_j.to_bits())),
        ),
    ];
    if let Some(c) = &r.counters {
        fields.push(("counters".to_string(), counters_json(c)));
    }
    Json::Obj(fields)
}

/// Records the first cycle of every workload at the default seed, traced,
/// as the expected values later runs at that seed must reproduce.
pub fn write_expected() -> Result<std::path::PathBuf, String> {
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let inputs = Inputs::new(kind, Size::Full, DEFAULT_SEED);
        let (phase, _, _) = traced_phase(kind, &inputs, kind.cycle())?;
        if let Some(r) = phase.records.iter().find(|r| !r.failures.is_empty()) {
            return Err(format!(
                "{}: request {} failed: {:?}",
                kind.name(),
                r.index,
                r.failures
            ));
        }
        workloads.push((
            kind.name().to_string(),
            Json::Obj(vec![
                (
                    "setup_counters".to_string(),
                    counters_json(phase.setup_counters.as_ref().expect("traced")),
                ),
                (
                    "requests".to_string(),
                    Json::Arr(phase.records.iter().map(request_json).collect()),
                ),
            ]),
        ));
    }
    let doc = Json::Obj(vec![
        ("seed".to_string(), Json::UInt(DEFAULT_SEED)),
        ("workloads".to_string(), Json::Obj(workloads)),
    ]);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    std::fs::write(&path, doc.to_string_pretty() + "\n").map_err(|e| e.to_string())?;
    Ok(path)
}

fn differences(want: &Json, got: &Json, path: &str, out: &mut Vec<String>) {
    match (want.as_obj(), got.as_obj()) {
        (Some(w), Some(g)) => {
            for (k, wv) in w {
                match g.iter().find(|(gk, _)| gk == k) {
                    Some((_, gv)) => differences(wv, gv, &format!("{path}.{k}"), out),
                    None => out.push(format!("{path}.{k} missing")),
                }
            }
        }
        _ if want != got => out.push(format!(
            "{path}: expected {}, got {}",
            want.to_string_compact(),
            got.to_string_compact()
        )),
        _ => {}
    }
}

/// At the default seed, marks every request of the first cycle whose
/// outputs, simulated statistics or (traced) counters differ from the
/// stored expected values as failed. Other seeds are not checked.
pub fn check_expected(kind: Kind, seed: u64, phase: &mut Phase) {
    if seed != DEFAULT_SEED {
        return;
    }
    let stored = parse(EXPECTED_JSON)
        .ok()
        .and_then(|doc| doc.get("workloads")?.get(kind.name()).cloned());
    let Some(stored) = stored else {
        if let Some(r) = phase.records.first_mut() {
            r.failures
                .push("no expected values stored for this workload".into());
        }
        return;
    };
    let requests = stored.get("requests").and_then(Json::as_arr).unwrap_or(&[]);
    let setup_want = stored.get("setup_counters");
    let setup_got = phase.setup_counters.as_ref().map(counters_json);
    for (i, record) in phase.records.iter_mut().enumerate().take(kind.cycle()) {
        let mut diffs = Vec::new();
        match requests.get(i) {
            None => diffs.push("no stored request".to_string()),
            Some(want) => {
                let got = request_json(record);
                if record.counters.is_none() {
                    // Untraced runs hold no counters: compare outputs only.
                    let mut w = want.clone();
                    if let Json::Obj(fields) = &mut w {
                        fields.retain(|(k, _)| k != "counters");
                    }
                    differences(&w, &got, "request", &mut diffs);
                } else {
                    differences(want, &got, "request", &mut diffs);
                }
            }
        }
        if i == 0 {
            if let (Some(want), Some(got)) = (setup_want, &setup_got) {
                differences(want, got, "setup", &mut diffs);
            }
        }
        if !diffs.is_empty() {
            record.failures.push(format!(
                "differs from the stored default-seed values: {}",
                diffs.join("; ")
            ));
        }
    }
}
