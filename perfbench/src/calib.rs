//! Host-speed calibration of the end-to-end times.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by a
//! fifth and more over minutes, as other tenants load the same cores,
//! caches and memory. Host time alone then spreads more between runs of
//! the same code than any regression bound the benchmark may set. So
//! every end-to-end time is reported as *calibrated* time:
//!
//! ```text
//! calibrated = host time × kernel's reference ms / kernel ms measured around it
//! ```
//!
//! The kernel is fixed code of this file. It calls nothing in the
//! repository (not even `par`), so a change to the program moves
//! calibrated time exactly as it moves host time, while a host that runs
//! everything slower moves the kernel too and cancels out. The kernel
//! runs on every benchmark thread at once, before each timed batch and
//! once after the last, and a batch is scaled by the mean of the two
//! samples around it.
//!
//! Two kernels match the two kinds of workload: [`Kernel::Memory`]
//! walks a working set larger than a small VM's cache share, for the
//! memory-bound `pim-hier-groups`; [`Kernel::Compute`] stays within the
//! core's own caches, for `fig2b-montecarlo` and `fault-campaign`. Each
//! kernel's reference time is a fixed constant of the order of its host
//! time on a 2-vCPU Intel Xeon virtual machine; it sets only the scale
//! of the calibrated figures.

use std::collections::HashMap;
use std::time::Instant;

/// A reference kernel.
#[derive(Clone, Copy)]
pub enum Kernel {
    /// Hash map, a pointer chase over 16 MiB and a sort of 1.6 MB, per
    /// thread.
    Memory,
    /// Hash map, a pointer chase over 256 KiB and a sort of 800 KB, per
    /// thread.
    Compute,
}

impl Kernel {
    /// Host milliseconds one run of the kernel is scaled to.
    pub fn reference_ms(self) -> f64 {
        match self {
            Kernel::Memory => 60.0,
            Kernel::Compute => 12.0,
        }
    }

    /// (map entries, key range, lookups, pointer-chase length as a power
    /// of two, chase steps, sorted values)
    fn size(self) -> (usize, u64, usize, u32, usize, usize) {
        match self {
            Kernel::Memory => (100_000, 200_000, 200_000, 22, 300_000, 200_000),
            Kernel::Compute => (20_000, 40_000, 100_000, 16, 1_000_000, 100_000),
        }
    }

    /// One run of the kernel on this thread, in host milliseconds. The
    /// buffers are allocated and first touched before the clock starts,
    /// so the host's page-fault cost, which is noisy on a virtual
    /// machine, stays out of the sample.
    fn run(self) -> f64 {
        let (entries, keys, lookups, chase_log2, steps, sorted) = self.size();
        let n = 1usize << chase_log2;
        let mut ring: Vec<u32> = (0..n as u32).collect();
        let mut values = vec![0u64; sorted];
        let mut map = HashMap::with_capacity(entries);
        for k in 0..entries as u64 {
            map.insert(k, k);
        }
        map.clear();
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..entries {
            map.insert(next() % keys, next());
        }
        let mut acc = 0u64;
        for _ in 0..lookups {
            if let Some(v) = map.get(&(next() % keys)) {
                acc = acc.wrapping_add(*v);
            }
        }
        // Sattolo's shuffle: one cycle through every slot, so the chase
        // never settles into a short, cached loop.
        for i in (1..n).rev() {
            let j = (next() % i as u64) as usize;
            ring.swap(i, j);
        }
        let mut p = 0u32;
        for _ in 0..steps {
            p = ring[p as usize];
        }
        for v in values.iter_mut() {
            *v = next();
        }
        values.sort_unstable();
        std::hint::black_box((acc, p, values[sorted / 2]));
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Kernel samples taken between the timed batches of one run: batch `i`
/// lies between sample `i` and sample `i + 1`.
pub struct Calibration {
    kernel: Kernel,
    threads: usize,
    samples: Vec<f64>,
}

impl Calibration {
    /// No samples yet; the kernel will run on `threads` threads at once.
    pub fn new(kernel: Kernel, threads: usize) -> Calibration {
        Calibration {
            kernel,
            threads,
            samples: Vec::new(),
        }
    }

    /// Run the kernel once on every thread at once and record the mean
    /// host time.
    pub fn sample(&mut self) {
        let kernel = self.kernel;
        let ms: Vec<f64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..self.threads)
                .map(|_| s.spawn(move || kernel.run()))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("calibration kernel panicked"))
                .collect()
        });
        self.samples.push(ms.iter().sum::<f64>() / ms.len() as f64);
    }

    /// Calibrated time per host time for batch `i`: the kernel's
    /// reference time over the mean of the samples on either side.
    pub fn factor(&self, i: usize) -> f64 {
        let around = (self.samples[i] + self.samples[i + 1]) / 2.0;
        self.kernel.reference_ms() / around
    }

    /// The median kernel sample, in host milliseconds.
    pub fn median_ms(&self) -> f64 {
        crate::median(&self.samples)
    }

    /// A printed line describing the calibration.
    pub fn describe(&self, what: &str) -> String {
        format!(
            "calibration {what}: {} kernel samples, median {} ms against reference {} ms \
             (factor at the median {})",
            self.samples.len(),
            self.median_ms(),
            self.kernel.reference_ms(),
            self.kernel.reference_ms() / self.median_ms()
        )
    }
}
