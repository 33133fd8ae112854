//! The benchmark's own tests: seeded request generation and the
//! correctness gate on reduced sizes of every workload.
//!
//! Run with `cargo test --release --manifest-path membench/Cargo.toml`.

use membench::run::{self, Stop};
use membench::workloads::{Inputs, Kind, Request, Size};

fn requests(kind: Kind, seed: u64) -> Vec<Request> {
    let inputs = Inputs::new(kind, Size::Reduced, seed);
    (0..2 * kind.cycle() as u64)
        .map(|i| inputs.request(i))
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_request_list() {
    for kind in Kind::ALL {
        assert_eq!(requests(kind, 7), requests(kind, 7), "{}", kind.name());
        assert_ne!(requests(kind, 7), requests(kind, 8), "{}", kind.name());
    }
}

#[test]
fn requests_do_not_depend_on_the_order_they_are_drawn_in() {
    for kind in Kind::ALL {
        let inputs = Inputs::new(kind, Size::Reduced, 3);
        let forward: Vec<Request> = (0..6).map(|i| inputs.request(i)).collect();
        let backward: Vec<Request> = (0..6).rev().map(|i| inputs.request(i)).collect();
        assert!(forward.iter().eq(backward.iter().rev()), "{}", kind.name());
    }
}

#[test]
fn reduced_workloads_pass_the_correctness_gate() {
    for kind in Kind::ALL {
        let inputs = Inputs::new(kind, Size::Reduced, 5);
        let mut w = run::setup(&inputs).expect("set-up");
        let phase = run::measure(
            kind,
            &inputs,
            w.as_mut(),
            Stop::Requests(kind.cycle()),
            false,
        );
        assert_eq!(phase.records.len(), kind.cycle());
        for r in &phase.records {
            assert!(
                r.failures.is_empty(),
                "{} request {}: {:?}",
                kind.name(),
                r.index,
                r.failures
            );
            assert!(r.rhs > 0 && r.sim_spmvs > 0);
        }
    }
}

#[test]
fn percentiles_are_nearest_rank_and_tails_keep_ten_samples_beyond() {
    let s: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(run::percentile(&s, 0.5), 50.0);
    assert_eq!(run::percentile(&s, 0.99), 99.0);
    assert_eq!(run::tail_percentile(0.99, 100), 0.9);
    assert_eq!(run::tail_percentile(0.99, 1000), 0.99);
    assert_eq!(run::tail_percentile(0.8, 60), 0.8);
    assert_eq!(run::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}
