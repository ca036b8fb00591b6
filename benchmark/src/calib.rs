//! Calibration against host contention.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent for seconds at a time as other tenants load the shared cores and
//! caches. The slowdown hits all CPU work of the process alike: on a 2-vCPU
//! Xeon VM, the median cycle time of one workload varied by 12–24% (IQR over
//! median) between runs, the time of the fixed kernel below, taken before
//! every cycle, varied as much, and their ratio by 5%. So every set-up and
//! every cycle is preceded by this kernel (long cycles also run it between
//! operations, see `Meter`), and times are reported scaled to the speed at
//! which the kernel takes [`REFERENCE_NS`]: milliseconds on the reference
//! machine. The kernel uses no code of this repository, so a change to the
//! library moves the scaled times exactly as it moves the raw ones. Each run
//! also reports the kernel's raw time, so wall-clock values can be recovered
//! (`wall = scaled × calibration / REFERENCE_NS`).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time on the reference machine (the 2-vCPU 2.1 GHz Xeon VM
/// the bounds were set on, uncontended), in nanoseconds.
pub const REFERENCE_NS: f64 = 1.5e6;

/// Times the kernel once and returns the factor that turns a time measured
/// now into reference time: `REFERENCE_NS ÷ kernel time`.
pub fn scale() -> f64 {
    REFERENCE_NS / kernel_ns() as f64
}

/// Runs the kernel once and returns its wall time in nanoseconds: allocation,
/// ordered-map and hashing work of the kind the simulator does, 4000
/// formatted values into a `BTreeMap`, then four FNV-1a passes over it.
pub fn kernel_ns() -> u64 {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x1234;
    for i in 0..4000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x % 100_000, format!("v{i}-{x:x}").into_bytes());
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..4 {
        for (k, v) in black_box(&map) {
            h = (h ^ k).wrapping_mul(0x100_0000_01b3);
            for &b in v {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
        }
    }
    black_box(h);
    (start.elapsed().as_nanos() as u64).max(1)
}
