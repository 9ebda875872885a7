//! Host-speed calibration.
//!
//! On a shared host the speed of one thread can change by up to 2×
//! within seconds when other tenants contend for its core and caches
//! (measured on a 2-vCPU AVX-512 cloud VM with about 1 % steal). There,
//! raw wall times of identical runs spread by up to 27 % of their
//! median over ten runs, more than any usable bound. So the benchmark
//! times a fixed, bench-owned burst of work next to every measured span
//! and reports each span scaled by `REFERENCE_MS / burst`: the time the
//! span would take on a host where the burst takes `REFERENCE_MS`. The
//! burst is a small dense matmul that stays in L1, so it slows down
//! with the program when a neighbour contends for the core. On six
//! `widar_mobilenet` runs, scaling cut the spread of run medians from
//! 0.23 to 0.05. The burst shares no code with the program, so a faster
//! program reads faster and a slower one slower.

use std::time::Instant;

/// The nominal burst time in ms that fixes the unit of scaled times
/// (about the burst's median on the reference host).
pub const REFERENCE_MS: f64 = 3.0;

const N: usize = 48;
const REPS: usize = 30;

/// Runs the calibration burst and returns its wall time in ms.
pub fn burst_ms() -> f64 {
    let a: Vec<f32> = (0..N * N).map(|i| (i % 7) as f32 * 0.1).collect();
    let mut c = vec![0f32; N * N];
    let t0 = Instant::now();
    for _ in 0..std::hint::black_box(REPS) {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * a[k * N + j];
                }
            }
        }
        std::hint::black_box(&mut c);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a span bracketed by bursts of `before` and
/// `after` ms to the reference host.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * REFERENCE_MS / (before + after)
}
