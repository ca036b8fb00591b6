//! The snapshot-cost acceptance gate: on the deep-horizon msgserver row
//! (the ABL-7 deep regime — snapshot every decision inside a
//! 256-deep horizon), a [`dd_sim::WorldSnapshot`] clone must copy at least
//! 2× fewer bytes than the pre-chunking deep-clone representation.
//!
//! Byte accounting is deterministic (no wall-clock), so this gates in the
//! regular `test` job, as every deterministic claim does; wall-clock
//! checks are `#[ignore]`d there and run by the advisory `perf-smoke` job.

use dd_bench::deep_msgserver_point;

#[test]
fn deep_msgserver_snapshot_clone_copies_2x_fewer_bytes() {
    let p = deep_msgserver_point();
    assert!(
        p.snapshots > 100,
        "the deep row must build a dense snapshot pool, got {}",
        p.snapshots
    );
    assert!(
        p.reduction >= 2.0,
        "deep-msgserver bytes-cloned-per-snapshot regressed: {} cloned vs \
         {} deep is only {:.2}x (gate: >= 2x). Either history leaked back \
         into the eager clone or new O(run-length) state was added to \
         WorldState outside a ChunkedLog.",
        p.bytes_cloned,
        p.bytes_deep,
        p.reduction
    );
    // The curve the BENCH_snapshot_cost.json artifact tracks: cloned bytes
    // must stay an order of magnitude below the history it shares.
    assert!(p.bytes_cloned < p.bytes_deep);
}
