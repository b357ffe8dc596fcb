//! Integration tests for the simulator hot-path overhaul: event
//! accounting through `RunReport` and a reproducible canonical text,
//! seen through the umbrella crate.

use chameleon_repro::core::{preset, sim::Simulation, workloads};

/// Event accounting flows from the engine stepper into `RunReport` and its
/// canonical serialisation.
#[test]
fn run_reports_count_events() {
    let mut sim = Simulation::new(preset::chameleon(), 11);
    let trace = workloads::splitwise(8.0, 30.0, 11, sim.pool());
    let n = trace.len();
    let report = sim.run(&trace);
    // Every request contributes at least its arrival event, and batched
    // execution keeps the total within a small multiple of the trace.
    assert!(report.events_processed >= n as u64);
    assert!(report.events_processed < 64 * n as u64);
    // The canonical serialisation embeds the count (it participates in
    // the bit-identity checks).
    assert!(report
        .canonical_text()
        .contains(&format!("events={}", report.events_processed)));
}

/// Canonical texts are stable across repeated runs (the foundation the
/// parallel-determinism guarantee is asserted on).
#[test]
fn canonical_text_is_reproducible() {
    let run = || {
        let mut sim = Simulation::new(preset::chameleon(), 29);
        let trace = workloads::splitwise(9.0, 20.0, 29, sim.pool());
        sim.run(&trace).canonical_text()
    };
    assert_eq!(run(), run());
}
