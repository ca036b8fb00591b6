//! Data-based selection (§3.1.2): dynamic invariant inference over probe
//! points, learned from passing training runs and monitored in production.
//!
//! The hyperstore servers probe `hyperstore.commit_owned` — "the committed
//! row's range is owned" — at every commit. Training on passing runs learns
//! it; in the failing production run the issue-63 race violates it, which
//! is exactly the "execution is likely on an error path" signal the paper
//! proposes for dialing determinism up.
//!
//! Run with: `cargo run --release --example invariant_selection`

use debug_determinism::core::{RcseConfig, Session};
use debug_determinism::detect::InvariantMonitor;
use debug_determinism::hyperstore::{HyperConfig, HyperstoreWorkload};
use debug_determinism::sim::Observer;
use std::sync::Arc;

fn main() {
    let w =
        HyperstoreWorkload::discover(HyperConfig::default(), 200).expect("a racy schedule exists");

    // Train on passing runs (a pre-release test cluster).
    let session = Session::new(Arc::new(w))
        .with_training_runs(4)
        .with_recording(RcseConfig {
            train_invariants: true,
            ..RcseConfig::default()
        });
    let training = session.train();
    let invariants = training.invariants.expect("invariant inference enabled");
    println!(
        "learned {} invariants from {} passing runs:",
        invariants.len(),
        session.training_seeds().len()
    );
    for name in [
        "hyperstore.commit_owned",
        "hyperstore.dump_ignored",
        "hyperstore.migrate_issued",
    ] {
        println!("  {name:<28} {:?}", invariants.get(name));
    }

    // Monitor the production run, reading its event log in place.
    let mut monitor = InvariantMonitor::new(invariants);
    let scenario = session.scenario();
    let out = scenario.execute(&scenario.original_spec(), vec![]);
    for (meta, event) in &out.trace {
        monitor.on_event(meta, event);
    }
    println!(
        "\nproduction run: {} invariant violation(s)",
        monitor.violations().len()
    );
    for v in monitor.violations().iter().take(5) {
        println!(
            "  step {:>5}  probe {:<28} value {}",
            v.step, v.probe, v.value
        );
    }
    assert!(
        monitor.fired(),
        "the production run's race violates a learned invariant"
    );
    println!(
        "\n→ the violation is the §3.1.2 signal: from this point RCSE dials\n  recording fidelity up, capturing the root cause at high determinism"
    );
}
