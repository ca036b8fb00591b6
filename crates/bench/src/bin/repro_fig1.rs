//! Regenerates Fig. 1: the relaxation trend across the workload suite.
//!
//! Usage: `cargo run --release --bin repro-fig1 [-- --json]`. Any other
//! argument exits 3, `dd`'s usage status, without running anything.

use dd_bench::{emit_bench, fig1, render_fig1};
use dd_core::InferenceBudget;

fn main() {
    let json = match std::env::args().skip(1).collect::<Vec<_>>().as_slice() {
        [] => false,
        [flag] if flag == "--json" => true,
        _ => {
            eprintln!("usage: repro-fig1 [--json]");
            std::process::exit(3);
        }
    };
    let points = fig1(&InferenceBudget::executions(64));
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&points).expect("serialise fig1")
        );
    } else {
        print!("{}", render_fig1(&points));
        emit_bench("fig1", &points);
    }
}
