//! Host-speed reference for the in-process timings.
//!
//! The benchmark runs on shared hosts whose speed for throughput-bound
//! code swings by up to 2x over seconds to minutes (a busy neighbour on
//! the same physical core), and the program's timings move with it. A
//! fixed kernel of the benchmark's own code — independent integer work
//! and hash-map probes, the two kinds of work whose slowdown tracked the
//! library's most closely on that host — runs before and after every
//! timed call, and the call's time is divided by the host's slowdown
//! estimated from it (see [`HostClock::slowdown`] and the exponents
//! below). The result is the
//! call's time at the reference host speed: a slower program raises it,
//! a slower host does not. The kernel never calls the program, so a
//! change to the program cannot move the reference.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::Instant;

use crate::util::median;

/// Time of [`reference_ms`]'s kernel on a quiet host (about its fastest
/// on the 2.0 GHz Xeon, two-vCPU host the benchmark was written on,
/// where its median ran 11–16 ms), ms. A constant scale: it sets the
/// unit of the normalized times, not their ratios.
pub const REFERENCE_MS: f64 = 10.0;

/// How the library's time per call grows with the kernel's slowdown `k`:
/// a call slows by `k` raised to the workload's exponent. Measured on the
/// development host by regressing each workload's normalized times on
/// the kernel's time, within a 240 s run (per call and per 40 s window)
/// and across ten-seed sets of runs, and keeping the value that left the
/// normalized times uncorrelated with the kernel. The cold constructions
/// of construct_scale (N = 128–256), its remaps and circuits slow about
/// as `k²`; the compile catalog (N ≤ 30, most of its time in circuit
/// passes), the serving workloads' in-process reference families
/// (N ≤ 22), the remap probes on them and input generation about as `k`:
/// with `k²` their normalized times fell as the host slowed (log–log
/// slopes −0.4 to −1.2 across runs).
pub const SMALL_CALLS_EXPONENT: f64 = 1.0;
pub const LARGE_CONSTRUCTIONS_EXPONENT: f64 = 2.0;

/// FNV-style hasher, so the kernel's hash-map work is identical on
/// every call (the std hasher is randomly seeded per map).
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x100_0000_01B3).rotate_left(29);
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn kernel() -> u64 {
    // Independent integer streams over an L1-resident buffer: the work
    // a busy neighbour on the same core slows the most.
    let buf: Vec<u64> = (0..2048).map(mix).collect();
    let mut acc = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for _ in 0..6000 {
        for chunk in black_box(&buf).chunks_exact(8) {
            for k in 0..8 {
                acc[k] = acc[k].wrapping_add(chunk[k] ^ (acc[k] >> 3));
            }
        }
    }
    // Hash-map inserts and probes over a ~1 MB table, the library's
    // memoization pattern.
    let mut map: HashMap<u64, u64, BuildHasherDefault<Fnv>> = HashMap::default();
    for i in 0..60_000u64 {
        *map.entry(mix(i) % 60_000).or_default() += i;
    }
    let probed: u64 = (0..60_000u64)
        .filter_map(|i| map.get(&(mix(i ^ 5) % 60_000)))
        .sum();
    acc.iter().fold(probed, |x, y| x ^ y)
}

/// Runs the reference kernel once; its wall time, ms.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64() * 1e3
}

/// Tracks the host's speed across a sequence of timed calls: the
/// reference kernel runs once before the first call and once after
/// each, so every call sits between two reference samples.
pub struct HostClock {
    exponent: f64,
    last_ms: f64,
    /// Every reference sample of the run, ms.
    pub samples: Vec<f64>,
}

impl HostClock {
    /// A clock for calls that slow by the kernel's slowdown raised to
    /// `exponent` (one of the constants above).
    pub fn new(exponent: f64) -> HostClock {
        let last_ms = reference_ms();
        HostClock {
            exponent,
            last_ms,
            samples: vec![last_ms],
        }
    }

    /// Takes a fresh sample before a timed call that does not directly
    /// follow the previous one.
    pub fn mark(&mut self) {
        self.last_ms = reference_ms();
        self.samples.push(self.last_ms);
    }

    /// Call this right after a timed call: the host's slowdown during
    /// it, to divide the call's raw time by. The kernel's own slowdown
    /// is the mean of the samples before and after the call over
    /// [`REFERENCE_MS`]; the library's is that raised to the clock's
    /// exponent.
    pub fn slowdown(&mut self) -> f64 {
        let now = reference_ms();
        self.samples.push(now);
        let kernel = (self.last_ms + now) / 2.0 / REFERENCE_MS;
        self.last_ms = now;
        kernel.powf(self.exponent)
    }

    /// Runs `setup` nine times, each between two reference samples,
    /// and keeps the last result with the median normalized time, s.
    pub fn timed_setup<T>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let mut times = Vec::new();
        let mut last = None;
        self.mark();
        for _ in 0..9 {
            drop(last.take());
            let t = Instant::now();
            last = Some(setup()?);
            let raw_s = t.elapsed().as_secs_f64();
            times.push(raw_s / self.slowdown());
        }
        Ok((last.expect("nine setups ran"), median(&times)))
    }
}
