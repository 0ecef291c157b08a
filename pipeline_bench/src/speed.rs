//! Host-speed calibration of the timed figures.
//!
//! On a shared virtual machine the same code runs up to twice as fast or as
//! slow from one second to the next, as the physical core is shared with
//! other guests (see `NOTES.md`). The run measures the machine's speed with
//! a fixed probe kernel right before and right after every timed interval
//! and scales the interval's wall time to the reference speed: the speed at
//! which the probe takes [`PROBE_REFERENCE_MS`]. The probe is the
//! benchmark's own code and never changes with the program, so a change of
//! the program's speed moves the calibrated figures as much as the raw ones,
//! while a change of the machine's speed cancels out.
//!
//! The probe mixes the two access patterns of the pipeline's solver: a dense
//! LU elimination (the unit-stride, floating-point-bound inner loops of a
//! factorization) and an indexed complex gather/scatter over a table larger
//! than the L1 cache (the indirect loads of sparse refactorization and
//! triangular solves).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The probe's wall time at the reference speed, ms: its time between ops
/// on a 2-vCPU Intel Xeon KVM guest (AVX2) while the host core ran in its
/// fast state. It only sets the scale of the calibrated figures.
pub const PROBE_REFERENCE_MS: f64 = 0.8;

/// Order of the dense matrix the probe eliminates.
const LU_N: usize = 48;
/// Eliminations per probe.
const LU_REPS: usize = 20;
/// Entries of the complex table the probe gathers from and scatters to.
const TABLE: usize = 4096;
/// Passes over the index list per probe.
const GATHER_REPS: usize = 30;

/// The probe kernel with its inputs, made once so a probe allocates nothing.
pub struct Probe {
    base: Vec<f64>,
    work: Vec<f64>,
    index: Vec<u32>,
    /// Unit-modulus table entries (real, imaginary) the probe starts from;
    /// products of them stay on the unit circle, clear of overflow and
    /// subnormals.
    table: Vec<(f64, f64)>,
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Probe {
    pub fn new() -> Self {
        // xorshift64: fixed inputs, identical on every run and commit.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut base: Vec<f64> = (0..LU_N * LU_N)
            .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
            .collect();
        // Diagonally dominant, so elimination needs no pivoting.
        for i in 0..LU_N {
            base[i * LU_N + i] += LU_N as f64;
        }
        let index = (0..4 * TABLE)
            .map(|_| (next() % TABLE as u64) as u32)
            .collect();
        let table = (0..TABLE)
            .map(|k| (k as f64).sin_cos())
            .map(|(s, c)| (c, s))
            .collect();
        let mut probe = Self {
            work: base.clone(),
            base,
            index,
            table,
            re: vec![0.0; TABLE],
            im: vec![0.0; TABLE],
        };
        // The first pass pays for page faults and cold caches.
        probe.time();
        probe
    }

    /// Runs the kernel once and returns its wall time.
    pub fn time(&mut self) -> Duration {
        let start = Instant::now();
        black_box(self.kernel());
        start.elapsed()
    }

    /// Wall time `wall` of an interval scaled to the reference speed, with
    /// the machine's speed taken as the geometric mean of the probes timed
    /// right before (`before`) and right after (`after`) it.
    pub fn calibrate(wall: Duration, before: Duration, after: Duration) -> Duration {
        let probe_ms = (before.as_secs_f64() * after.as_secs_f64()).sqrt() * 1.0e3;
        wall.mul_f64(PROBE_REFERENCE_MS / probe_ms)
    }

    fn kernel(&mut self) -> f64 {
        let n = LU_N;
        let mut acc = 0.0;
        for _ in 0..LU_REPS {
            self.work.copy_from_slice(black_box(&self.base));
            let a = &mut self.work;
            for k in 0..n {
                let pivot = a[k * n + k];
                for i in k + 1..n {
                    let f = a[i * n + k] / pivot;
                    for j in k..n {
                        a[i * n + j] -= f * a[k * n + j];
                    }
                }
            }
            acc += a[n * n - 1];
        }
        let (re, im) = (&mut self.re, &mut self.im);
        for (k, &(r, i)) in self.table.iter().enumerate() {
            re[k] = r;
            im[k] = i;
        }
        for _ in 0..GATHER_REPS {
            for w in black_box(&self.index).chunks_exact(4) {
                let (a, b, c, d) = (w[0] as usize, w[1] as usize, w[2] as usize, w[3] as usize);
                // z[c] = z[a] · z[b] · z[d]
                let (pr, pi) = (re[a] * re[b] - im[a] * im[b], re[a] * im[b] + im[a] * re[b]);
                let (dr, di) = (re[d], im[d]);
                re[c] = pr * dr - pi * di;
                im[c] = pr * di + pi * dr;
            }
        }
        acc + re[0] + im[0]
    }
}
