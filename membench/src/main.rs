//! Command line of the repository benchmark.
//!
//! ```text
//! membench --workload <exact_solve|analog_mc|service_mix> --seed <n>
//!          --seconds <s> --trace <0|1>
//! membench --write-expected
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Human-readable detail goes to standard error; a traced run also
//! writes its spans and layer table under `membench/out/`.

use std::process::ExitCode;

use membench::layers::{self, Traced};
use membench::run::{self, Metric, Phase, Stop, Totals};
use membench::workloads::{Inputs, Kind, Size};

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-expected") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Kind::parse(name).ok_or(format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn report_failures(label: &str, phase: &Phase) {
    for r in phase
        .records
        .iter()
        .filter(|r| !r.failures.is_empty())
        .take(5)
    {
        eprintln!(
            "{label} request {} FAILED: {}",
            r.index,
            r.failures.join("; ")
        );
    }
}

fn untraced(args: &Args, inputs: &Inputs) -> Result<String, String> {
    let (mut w, setup_s) = run::timed_setup(inputs)?;
    let mut phase = run::measure(
        args.workload,
        inputs,
        w.as_mut(),
        Stop::Seconds(args.seconds),
        false,
    );
    run::check_expected(args.workload, args.seed, &mut phase);
    report_failures("untraced", &phase);
    let totals = Totals::of(args.workload, &phase);
    let (metrics, tail_p) = run::end_to_end(args.workload, &totals, setup_s, run::peak_rss_mb());
    eprintln!(
        "{} seed {}: {} requests, {} right-hand sides in {:.2} s of requests",
        args.workload.name(),
        args.seed,
        totals.attempted,
        totals.rhs,
        totals.seconds
    );
    for m in &metrics {
        eprintln!("  {:<20} {:>14.6e} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  failed_ratio         {} / {} = {}",
        totals.failed,
        totals.attempted,
        totals.failed as f64 / totals.attempted.max(1) as f64
    );
    println!(
        "solve_s_tail is p{} over {} per-rhs samples",
        tail_p * 100.0,
        totals.per_rhs_s.len()
    );
    let correct = totals.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok(json_line(
        correct,
        totals.attempted,
        totals.failed,
        &metrics,
    ))
}

fn traced(args: &Args, inputs: &Inputs) -> Result<String, String> {
    // Phase A: the untraced reference, half the run.
    let (mut w, _) = run::timed_setup(inputs)?;
    let mut a = run::measure(
        args.workload,
        inputs,
        w.as_mut(),
        Stop::Seconds(args.seconds / 2.0),
        false,
    );
    drop(w);
    // Phase B: the same requests again from a fresh set-up, traced.
    let (mut b, spans, model) = run::traced_phase(args.workload, inputs, a.records.len())?;
    run::check_expected(args.workload, args.seed, &mut a);
    run::check_expected(args.workload, args.seed, &mut b);
    for (ra, rb) in a.records.iter().zip(b.records.iter_mut()) {
        if ra.failures.is_empty() && ra.digest != rb.digest {
            rb.failures
                .push("traced output differs bitwise from the untraced output".into());
        }
    }
    report_failures("untraced", &a);
    report_failures("traced", &b);
    let (ta, tb) = (Totals::of(args.workload, &a), Totals::of(args.workload, &b));
    let t = Traced {
        kind: args.workload,
        phase: &b,
        spans: &spans,
        model,
        blocked_nnz_ratio: inputs.blocked_nnz_ratio(),
        trace_overhead: ta.solves_per_s() / tb.solves_per_s(),
    };
    let metrics = t.metrics();
    let table = t.render();
    eprintln!("{} seed {} (traced):", args.workload.name(), args.seed);
    eprint!("{table}");
    for m in &metrics {
        eprintln!("  {:<32} {:>14.6e} {}", m.name, m.value, m.unit);
    }
    let dir = run::out_dir();
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{stem}-trace.json")),
                layers::chrome_trace(&spans),
            )
        })
        .and_then(|()| std::fs::write(dir.join(format!("{stem}-layers.txt")), &table));
    if let Err(e) = written {
        eprintln!("warning: could not write the trace files: {e}");
    }
    let attempted = ta.attempted + tb.attempted;
    let failed = ta.failed + tb.failed;
    let correct = failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Ok(json_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    // Host knobs the program reads from the environment would change
    // thread counts or turn the sink on behind the benchmark's back.
    for var in ["MEMSCI_THREADS", "MEMSCI_OVERLAP", "MEMSCI_TELEMETRY"] {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match run::write_expected() {
                Ok(path) => {
                    eprintln!("wrote {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs::new(args.workload, Size::Full, args.seed);
    let result = if args.trace {
        traced(&args, &inputs)
    } else {
        untraced(&args, &inputs)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            ExitCode::FAILURE
        }
    }
}
