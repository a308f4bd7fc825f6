//! Host-side measurement helpers: process CPU time and peak resident memory
//! from `getrusage(2)`, and the order statistics the report is built from.

use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads getrusage(2) through the 64-bit Linux struct layout");

/// `struct rusage` as laid out by Linux on 64-bit targets: two `timeval`s
/// followed by fourteen `long` counters, the first of which is `ru_maxrss`.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `u` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(who, &mut u) };
    assert_eq!(rc, 0, "getrusage failed");
    u
}

fn cpu_secs(u: &RUsage) -> f64 {
    let tv = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    tv(u.utime) + tv(u.stime)
}

/// User+system CPU seconds of this process (all threads, live or exited)
/// plus every child it has reaped.
pub fn cpu_seconds() -> f64 {
    cpu_secs(&rusage(RUSAGE_SELF)) + cpu_secs(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of this process, or of its largest reaped child if
/// that was bigger, in MiB. Linux folds the spawning process's resident
/// high-water mark into a child's at `exec`, so this is the run's own peak
/// only while the process that spawned it stays small — the benchmark never
/// simulates in a process that spawns timed runs.
pub fn peak_rss_mb() -> f64 {
    let kib = rusage(RUSAGE_SELF).counters[0].max(rusage(RUSAGE_CHILDREN).counters[0]);
    kib as f64 / 1024.0
}

/// Wall seconds since `t`.
pub fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Linear-interpolated quantile `q` in `0..=1` of `v` (Python's
/// `statistics.quantiles(method="inclusive")` convention).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The highest whole percentile with at least ten samples above it, or
/// `None` when the sample is too small to support any tail percentile.
pub fn supported_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    Some(((n - 10) * 100 / n) as u32)
}

/// FNV-1a over a stream of `u64` words.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
