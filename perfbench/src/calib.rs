//! Machine-speed calibration of wall-clock times.
//!
//! The 2-vCPU virtual machine the benchmark was sized on runs the same
//! code up to twice as slow for seconds to minutes at a time, and a
//! thread's CPU time slows exactly as much as its wall time, so no choice
//! of clock removes the swing. The benchmark therefore runs a fixed unit
//! of work of its own, the *kernel*, every few hundred ms between ops and
//! scales the ops' times by how fast the kernel ran around them. The
//! kernel uses only the standard library: no change to the program under
//! test changes it, so a slower program still reads slower while a slower
//! machine reads the same.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's time at the reference speed, in ms. A scaled time is
/// what the work would take on a machine where the kernel takes this
/// long; the machine the benchmark was sized on runs the kernel in
/// 5 to 15 ms.
pub const REF_MS: f64 = 6.0;

/// Keys the kernel inserts. With 1,500 keys the kernel fits in a core's
/// own cache and tracked the engine's speed half as well: scaled by it,
/// window medians of `lazy-hotels` still varied by 5 to 6% (coefficient
/// of variation), against 2.8% with 20,000 keys and 13% unscaled.
const KERNEL_KEYS: u64 = 20_000;

/// The kernel: a seeded B-tree of formatted strings, sorted and hashed.
/// Like the engine, it allocates, chases pointers and compares strings.
fn kernel(seed: u64) -> u64 {
    let mut map = std::collections::BTreeMap::new();
    let mut x = seed | 1;
    for _ in 0..KERNEL_KEYS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert((x >> 33) % (2 * KERNEL_KEYS), format!("k{:x}", x >> 20));
    }
    let mut values: Vec<&String> = map.values().collect();
    values.sort();
    values.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        s.bytes()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Times one run of the kernel on this thread, in ms.
pub fn sample_ms() -> f64 {
    let seed = black_box(Instant::now().elapsed().subsec_nanos() as u64);
    let t = Instant::now();
    black_box(kernel(seed));
    t.elapsed().as_secs_f64() * 1e3
}

/// The median of `n` kernel times on this thread, in ms.
pub fn median_sample_ms(n: usize) -> f64 {
    crate::stats::median(&(0..n).map(|_| sample_ms()).collect::<Vec<_>>())
}

/// `raw_ms`, measured while the kernel took `cal_ms`, at the reference
/// speed.
pub fn scale(raw_ms: f64, cal_ms: f64) -> f64 {
    raw_ms * REF_MS / cal_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_seeded() {
        assert_eq!(kernel(7), kernel(7));
        assert_ne!(kernel(7), kernel(8));
    }

    #[test]
    fn scaling_undoes_a_uniform_slowdown() {
        // a machine twice as slow doubles both times
        assert_eq!(scale(20.0, 2.0 * REF_MS), scale(10.0, REF_MS));
        assert_eq!(scale(10.0, REF_MS), 10.0);
        assert!(sample_ms() > 0.0);
    }
}
