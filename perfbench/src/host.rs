//! Host and provenance block recorded with every result.

use std::process::Command;

use tsg_engine::json::{obj, Value};

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// Logical cores the process may use.
    pub nproc: usize,
    /// SIMD level the step-3 kernels dispatch to.
    pub simd: String,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown` (an
    /// exported source tree has no history).
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
    /// Engine workers (serve) or 0 (library workloads run no engine in
    /// their timed window).
    pub workers: usize,
    /// Client threads sending ops.
    pub clients: usize,
    /// Threads in the device pool each product runs on.
    pub pool_threads: usize,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Host {
    /// Probes the host; the counts describe the run.
    pub fn detect(seed: u64, workers: usize, clients: usize, pool_threads: usize) -> Self {
        Host {
            nproc: nproc(),
            simd: format!("{:?}", tilespgemm_core::simd::detected_level()),
            rustc: first_line_of("rustc", &["--version"]),
            commit: first_line_of("git", &["rev-parse", "HEAD"]),
            seed,
            workers,
            clients,
            pool_threads,
        }
    }

    /// The block as JSON.
    pub fn to_json(&self) -> Value {
        obj([
            ("nproc", self.nproc.into()),
            ("simd", self.simd.as_str().into()),
            ("rustc", self.rustc.as_str().into()),
            ("commit", self.commit.as_str().into()),
            ("seed", self.seed.into()),
            ("workers", self.workers.into()),
            ("clients", self.clients.into()),
            ("pool_threads", self.pool_threads.into()),
        ])
    }

    /// Reads a block written by [`Host::to_json`].
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("host.{k}: missing or not a count"))
        };
        let text = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("host.{k}: missing or not a string"))
        };
        Ok(Host {
            nproc: num("nproc")? as usize,
            simd: text("simd")?,
            rustc: text("rustc")?,
            commit: text("commit")?,
            seed: num("seed")?,
            workers: num("workers")? as usize,
            clients: num("clients")? as usize,
            pool_threads: num("pool_threads")? as usize,
        })
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "host: nproc={} simd={} rustc=\"{}\" commit={} seed={} workers={} clients={} pool_threads={}",
            self.nproc,
            self.simd,
            self.rustc,
            self.commit,
            self.seed,
            self.workers,
            self.clients,
            self.pool_threads
        )
    }
}
