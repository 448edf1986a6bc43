//! What every workload shares: names, run parameters, the timed-window
//! rule, process memory, and the fan-out probe.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rayon::prelude::*;
use tsg_matrix::Csr;
use tsg_runtime::{pool_for, Device};

use crate::report::Metric;
use crate::stats::{p50, MIN_P90_SAMPLES};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// CSR→CSR `A·A` of a skewed R-MAT graph through an `SpGemm` context.
    PowerlawA2,
    /// The same loop on a FEM-class block matrix.
    FemA2,
    /// Two clients with their own `ServeSession`s against a 2-worker engine.
    ServeMixed,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [Workload::PowerlawA2, Workload::FemA2, Workload::ServeMixed];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PowerlawA2 => "powerlaw-a2",
            Workload::FemA2 => "fem-a2",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parameters of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the result file, the trace and scratch inputs.
    pub out: PathBuf,
}

/// The end-to-end metrics of an untraced run, in `BENCHMARK.json` order:
/// name and unit.
pub const END_TO_END: [(&str, &str); 7] = [
    ("gflops", "GFLOP/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("peak_mb", "MiB"),
    ("op_rss_mb", "MiB"),
    ("success_rate", "ratio"),
    ("setup_s", "s"),
];

/// The end-to-end metrics from their values, in [`END_TO_END`] order.
pub fn end_to_end(values: [f64; 7]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, unit, value))
        .collect()
}

/// Ops of each kind an untraced run measures resident memory on, after
/// its timed window.
pub const RSS_OPS: usize = 5;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Ops an untraced window completes at least, so p90 is defined.
pub const MIN_OPS: usize = MIN_P90_SAMPLES;

/// Ops each window of a traced run completes at least.
pub const MIN_TRACED_OPS: usize = 20;

/// A window stops here whatever its op count, so a run ends in time on a
/// slow host.
pub const WINDOW_CAP: Duration = Duration::from_secs(100);

/// Whether a timed window that started at `start` and has completed `ops`
/// ops is over: it lasts `seconds` and at least `min_ops` ops, and never
/// past [`WINDOW_CAP`].
pub fn window_over(start: Instant, seconds: f64, ops: usize, min_ops: usize) -> bool {
    let elapsed = start.elapsed();
    (elapsed.as_secs_f64() >= seconds && ops >= min_ops) || elapsed >= WINDOW_CAP
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The device every product runs on: `threads` workers, no budget.
pub fn device(threads: usize) -> Device {
    Device::new(format!("perfbench-{threads}"), threads, usize::MAX)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    extern "C" {
        pub fn mallopt(param: i32, value: i32) -> i32;
        pub fn malloc_trim(pad: usize) -> i32;
    }
    pub const M_TRIM_THRESHOLD: i32 = -1;
    pub const M_MMAP_THRESHOLD: i32 = -3;
}

/// Pins glibc's malloc thresholds at the values its dynamic policy
/// converges to in a long-running process: the mmap threshold at its
/// 32 MiB ceiling and the trim threshold at twice that. Left dynamic, both
/// follow the run's allocation history, and per-op time and RSS move with
/// it from run to run. Call before any other thread starts.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: mallopt only sets allocator parameters.
    unsafe {
        glibc::mallopt(glibc::M_MMAP_THRESHOLD, 32 << 20);
        glibc::mallopt(glibc::M_TRIM_THRESHOLD, 64 << 20);
    }
}

/// Returns the heap's free pages to the system, so a following RSS
/// sample counts live memory rather than what earlier work left behind.
fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory.
    unsafe {
        glibc::malloc_trim(0);
    }
}

/// How far, in MiB, the resident set rises above its trimmed starting
/// level while `f` runs, sampled every millisecond on a second thread.
pub fn rss_rise_of(f: impl FnOnce()) -> Result<f64, String> {
    trim_heap();
    let base = rss_mib()?;
    let done = AtomicBool::new(false);
    let peak = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peak = base;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(rss_mib().unwrap_or(0.0));
                std::thread::sleep(Duration::from_millis(1));
            }
            peak
        });
        f();
        done.store(true, Ordering::Relaxed);
        sampler.join()
    })
    .map_err(|_| "the RSS sampler panicked".to_string())?;
    Ok(peak - base)
}

/// The process's resident set (`VmRSS`), in MiB.
fn rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmRSS line in /proc/self/status".to_string())
}

/// Median cost, in microseconds, of one empty parallel for-each on the
/// device pool: the fixed fan-out cost every pipeline phase pays.
pub fn fanout_us(device: &Device, reps: usize) -> f64 {
    let pool = pool_for(device);
    let items = device.threads * 4;
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            pool.install(|| (0..items).into_par_iter().for_each(|_| {}));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    p50(&samples).unwrap_or(0.0)
}

/// Median of `reps` timings of `f`, in milliseconds, plus its last result.
pub fn median_ms<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut samples = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f());
        samples.push(ms_since(t));
    }
    (
        p50(&samples).unwrap_or(0.0),
        last.expect("at least one rep"),
    )
}

/// `m` with its values redrawn from `seed`, uniform in `[0.5, 1.5)`: the
/// structure is the dataset, the seed picks the numbers. Positive values
/// keep every structural product entry nonzero.
pub fn with_seeded_values(mut m: Csr<f64>, seed: u64) -> Csr<f64> {
    let mut state = seed;
    for v in &mut m.vals {
        // splitmix64
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        *v = 0.5 + (z >> 11) as f64 / (1u64 << 53) as f64;
    }
    m
}

/// Entries of `product` whose coordinate is stored in `mask`: the gold
/// form of a masked product `(A·B)⟨M⟩`.
pub fn masked(product: &Csr<f64>, mask: &Csr<f64>) -> Csr<f64> {
    let mut rowptr = vec![0usize; product.nrows + 1];
    let mut colidx = Vec::new();
    let mut vals = Vec::new();
    for r in 0..product.nrows {
        let (pc, pv) = product.row(r);
        let (mc, _) = mask.row(r);
        for (&c, &v) in pc.iter().zip(pv) {
            if mc.binary_search(&c).is_ok() {
                colidx.push(c);
                vals.push(v);
            }
        }
        rowptr[r + 1] = colidx.len();
    }
    Csr::from_parts(product.nrows, product.ncols, rowptr, colidx, vals)
        .expect("a row-wise filter of a valid CSR is valid")
}

/// Intermediate products of `A·B` that land inside `mask`: the products a
/// masked multiply must form.
pub fn masked_products(a: &Csr<f64>, b: &Csr<f64>, mask: &Csr<f64>) -> u64 {
    let mut n = 0u64;
    for r in 0..a.nrows {
        let (mc, _) = mask.row(r);
        for &k in a.row(r).0 {
            n += b
                .row(k as usize)
                .0
                .iter()
                .filter(|c| mc.binary_search(c).is_ok())
                .count() as u64;
        }
    }
    n
}
