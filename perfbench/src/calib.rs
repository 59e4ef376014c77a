//! Machine-speed calibration.
//!
//! The shared machines this benchmark runs on change speed by up to 40%
//! within seconds as neighbours come and go, which moves every absolute
//! timing by as much. So the end-to-end timings are also reported
//! *normalized*: around each unit of measured work the benchmark times a
//! fixed calibration job of its own (std-only code that no change to the
//! repository can speed up), and divides the work's time by the job's
//! slowness against a 1 ms reference. A change to the program moves the
//! normalized figure; a slower neighbour moves both and cancels out.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What one calibration round takes on the reference machine.
const REFERENCE_NS: f64 = 1.0e6;

/// One calibration round: hash-map updates over a pseudo-random key
/// stream, then a sort — the estimator's mix of hashing, pointer chasing
/// and allocation, in about a millisecond. Returns its wall time in ns.
fn round_ns() -> f64 {
    let t = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..20_000u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let z = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        *map.entry((z ^ (z >> 31)) % 8192).or_insert(0) += i;
    }
    let mut values: Vec<u64> = map.into_values().collect();
    values.sort_unstable();
    black_box(values);
    t.elapsed().as_nanos() as f64
}

/// How much slower than the reference the machine runs right now: the
/// median of three calibration rounds over the reference time (2.0 =
/// twice as slow). Divide a time by it, or multiply a rate by it, to
/// normalize.
pub fn slowness() -> f64 {
    let mut r = [round_ns(), round_ns(), round_ns()];
    r.sort_by(f64::total_cmp);
    r[1] / REFERENCE_NS
}
