//! Traced runs: bitwise identical to untraced ones, and the counters the
//! per-layer metrics rest on agree with the benchmark's own counts.
//!
//! These tests enable the program's process-global telemetry sink, so
//! they live in their own test binary and run one after another.

use std::sync::Mutex;

use membench::run::{self, Stop};
use membench::workloads::{Inputs, Kind, Size};
use memsci_telemetry::Counter;

static SINK: Mutex<()> = Mutex::new(());

#[test]
fn traced_outputs_match_untraced_outputs_bitwise() {
    let _g = SINK.lock().unwrap_or_else(|e| e.into_inner());
    for kind in Kind::ALL {
        let inputs = Inputs::new(kind, Size::Reduced, 9);
        let mut w = run::setup(&inputs).expect("set-up");
        let plain = run::measure(
            kind,
            &inputs,
            w.as_mut(),
            Stop::Requests(kind.cycle()),
            false,
        );
        let (traced, spans, _) = run::traced_phase(kind, &inputs, kind.cycle()).expect("traced");
        assert!(!spans.is_empty());
        for (a, b) in plain.records.iter().zip(&traced.records) {
            assert!(
                a.failures.is_empty() && b.failures.is_empty(),
                "{}",
                kind.name()
            );
            assert_eq!(a.digest, b.digest, "{} request {}", kind.name(), a.index);
        }
    }
}

#[test]
fn service_spmv_count_matches_the_program_counter() {
    let _g = SINK.lock().unwrap_or_else(|e| e.into_inner());
    let kind = Kind::ServiceMix;
    let inputs = Inputs::new(kind, Size::Reduced, 4);
    let (phase, _, _) = run::traced_phase(kind, &inputs, 2 * kind.cycle()).expect("traced");
    for r in phase.records.iter().filter(|r| !r.gpu) {
        let counters = r.counters.as_ref().expect("traced");
        // `sim_spmvs` of a service call is the `cg_spmvs` count of its
        // solves; the program counts the same SpMVs itself.
        assert_eq!(
            counters.get(Counter::SpmvOps),
            r.sim_spmvs,
            "request {}",
            r.index
        );
    }
}

#[test]
fn the_default_seed_reproduces_the_stored_values() {
    let _g = SINK.lock().unwrap_or_else(|e| e.into_inner());
    for kind in Kind::ALL {
        let inputs = Inputs::new(kind, Size::Full, run::DEFAULT_SEED);
        let (mut phase, _, _) = run::traced_phase(kind, &inputs, kind.cycle()).expect("traced");
        run::check_expected(kind, run::DEFAULT_SEED, &mut phase);
        for r in &phase.records {
            assert!(
                r.failures.is_empty(),
                "{} request {}: {:?}",
                kind.name(),
                r.index,
                r.failures
            );
        }
    }
}
