//! Regenerates Fig. 2: the Hypertable issue-63 case study.
//!
//! Usage: `cargo run --release --bin repro-fig2 [-- --json]`. Any other
//! argument exits 3, `dd`'s usage status, without running anything.

use dd_bench::{emit_bench, fig2, render_fig2};
use dd_core::InferenceBudget;

fn main() {
    let json = match std::env::args().skip(1).collect::<Vec<_>>().as_slice() {
        [] => false,
        [flag] if flag == "--json" => true,
        _ => {
            eprintln!("usage: repro-fig2 [--json]");
            std::process::exit(3);
        }
    };
    let result = fig2(&InferenceBudget::executions(96));
    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&result).expect("serialise fig2")
        );
    } else {
        print!("{}", render_fig2(&result));
        emit_bench("fig2", &result.rows);
    }
}
