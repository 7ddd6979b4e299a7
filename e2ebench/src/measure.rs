//! Measurement primitives owned by the benchmark binary: a counting global
//! allocator, the process's peak resident set, pool dispatch time, and
//! order statistics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ndirect_threads::StaticPool;

/// The system allocator with two statistics counters in front of it.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    // ORDERING: Relaxed — statistics only; they publish no other data.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; counting touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's guarantees for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's guarantees for `realloc` are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's guarantees for `dealloc` are passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested so far, across all threads
/// (a `realloc` counts as one allocation of its new size).
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in the process status")?;
    Ok(kb / 1024.0)
}

/// Whether a run should set up once more: every run sets up at least 3
/// times and keeps going, up to 200 times, until 4 s have gone to
/// set-ups, so that a set-up of milliseconds is timed often enough, and
/// over long enough, for a median that one host stall cannot move, and
/// one of seconds is not repeated past the run's budget.
pub fn more_setups(setups_s: &[f64]) -> bool {
    let spent: f64 = setups_s.iter().sum();
    setups_s.len() < 3 || (setups_s.len() < 200 && spent < 4.0)
}

/// Median wall time, in µs, of 2000 empty `StaticPool::run` regions on a
/// pool of `threads` threads.
pub fn dispatch_us(threads: usize) -> Result<f64, String> {
    let pool = StaticPool::try_new(threads).map_err(|e| e.to_string())?;
    let us: Vec<f64> = (0..2000)
        .map(|_| {
            let t0 = Instant::now();
            pool.run(|tid| {
                std::hint::black_box(tid);
            });
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Ok(median(&us))
}

/// `n / d`, or 0 when `d` is 0 (a layer the workload does not run).
pub fn ratio(n: f64, d: f64) -> f64 {
    if d == 0.0 {
        0.0
    } else {
        n / d
    }
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice (`pct` in 0..=100).
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail latency together with how it was read.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The latency at `pct`.
    pub value: f64,
    /// The percentile reported.
    pub pct: f64,
    /// Samples it was read from.
    pub n: usize,
}

/// The highest percentile that still has at least ten samples beyond it,
/// capped at p99 and floored at the median (fewer than 20 samples have no
/// such tail above the median).
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let pct = if n >= 20 {
        (100.0 * (n - 10) as f64 / n as f64).min(99.0)
    } else {
        50.0
    };
    Tail {
        value: if pct == 50.0 {
            median(&v)
        } else {
            percentile(&v, pct)
        },
        pct,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.pct, t.value), (75.0, 30.0));
        let big: Vec<f64> = (1..=5000).map(f64::from).collect();
        assert_eq!(tail(&big).pct, 99.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 2.0);
    }

    #[test]
    fn median_of_even_count_is_the_midpoint() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
