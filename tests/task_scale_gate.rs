//! The ABL-11 wall-clock check: a 10^5-task spawn/exit storm completes
//! (tasks are heap state machines, not OS threads), and the storm curve
//! stays near-linear — the driver scans O(live) tasks per step, not
//! O(ever spawned).
//!
//! It gates in the regular `test` job, debug build included. The check is
//! a per-task ratio between two storm sizes timed back to back, so the
//! build's constant factor cancels out; measured ratios sit at 0.9–1.5×
//! in both debug and release, against a 10× bound that an O(ever
//! spawned) scan (~100×) would blow through. The deterministic half of
//! the scale claim (storm completion, typed `TaskLimit`) also gates in
//! `crates/sim/tests/task_scale.rs`.

use dd_bench::task_scale_sweep;
use std::time::Instant;

#[test]
fn abl11_task_scale_meets_the_wall_clock_gate() {
    let time = |n: u32| {
        let t0 = Instant::now();
        let points = task_scale_sweep(&[n]);
        let wall = t0.elapsed();
        assert!(
            points.iter().all(|p| p.completed),
            "spawn-storm at {n} tasks did not complete cleanly"
        );
        wall.as_secs_f64() / f64::from(n)
    };
    // 100× the tasks must not cost more than ~quadratic-detecting slack
    // over 100× the time: a O(ever-spawned) scan would be ~100× worse.
    let [per_task_small, _, per_task_big] = [1_000, 10_000, 100_000].map(time);
    assert!(
        per_task_big <= per_task_small * 10.0,
        "storm curve bent: {:.1} µs/task at 100000 vs {:.1} µs/task at 1000 — \
         the scheduling scan is no longer O(live)",
        per_task_big * 1e6,
        per_task_small * 1e6,
    );
}
