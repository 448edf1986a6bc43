//! The serving path: `serve-mixed` (two clients, each with its own
//! `ServeSession`, over the in-process wire against a 2-worker engine) and
//! the served row a traced library run adds for its own product.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tsg_check::{compare_csr, ValuePolicy};
use tsg_engine::json::{obj, parse, Value};
use tsg_engine::{Engine, EngineConfig, MatrixId};
use tsg_gen::stencil::grid_2d_5pt;
use tsg_gen::suite::GenSpec;
use tsg_matrix::io::write_matrix_market;
use tsg_matrix::Csr;
use tsg_runtime::Device;
use tsg_serve::{SchedConfig, Scheduler, ServeSession};

use crate::host::nproc;
use crate::layers::{LayerTable, PerLayer};
use crate::library::{self, LibOp, Outcome};
use crate::stats::{mean, p50, p90, p90_or_max, ratio};
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    device, end_to_end, fanout_us, median_ms, ms_since, rss_rise_of, window_over,
    with_seeded_values, RunConfig, MIN_OPS, MIN_TRACED_OPS, RSS_OPS, SETUP_REPS,
};

const MIB: f64 = (1u64 << 20) as f64;

/// Engine workers and client threads of the serving workload.
pub const WORKERS: usize = 2;
/// See [`WORKERS`].
pub const CLIENTS: usize = 2;
/// Fresh matrices each client cycles through on its write path.
const FRESH_PER_CLIENT: usize = 4;
/// A backpressure reply is retried at most this many times.
const MAX_RETRIES: u32 = 10_000;
/// Device-memory budget of the engine.
const ENGINE_BUDGET: usize = 1 << 30;

/// One request's reply as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The parsed reply (`Null` if it did not parse).
    pub v: Value,
    /// From the first send to the final reply, retries included.
    pub latency_ms: f64,
    /// Backpressure replies retried on the way.
    pub backpressure: u32,
}

impl Reply {
    /// Whether the request succeeded.
    pub fn ok(&self) -> bool {
        self.v.get("ok").and_then(Value::as_bool) == Some(true)
    }

    fn num(&self, key: &str) -> f64 {
        self.v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
    }

    fn id(&self, key: &str) -> Option<MatrixId> {
        self.v.get(key)?.as_str()?.parse().ok()
    }
}

fn error_code(v: &Value) -> Option<&str> {
    v.get("error")?.get("code")?.as_str()
}

/// Sends `line`, riding backpressure: a `backpressure` reply is held for
/// its `retry_after_ms` and resent, and latency counts from the first send.
pub fn send(session: &ServeSession, line: &str, tracer: &Tracer, op: u64, parent: SpanId) -> Reply {
    let t0 = Instant::now();
    let mut backpressure = 0;
    loop {
        let ((text, _), _) = tracer.span(op, parent, "ServeSession::handle_line", || {
            session.handle_line(line)
        });
        let v = parse(&text).unwrap_or(Value::Null);
        if error_code(&v) == Some("backpressure") && backpressure < MAX_RETRIES {
            backpressure += 1;
            let wait = v
                .get("retry_after_ms")
                .and_then(Value::as_f64)
                .unwrap_or(1.0);
            std::thread::sleep(Duration::from_secs_f64(wait.clamp(0.1, 50.0) / 1e3));
            continue;
        }
        return Reply {
            v,
            latency_ms: ms_since(t0),
            backpressure,
        };
    }
}

/// The fields a multiply-shaped reply carries.
#[derive(Debug, Clone, Default)]
pub struct Job {
    /// Client latency.
    pub latency_ms: f64,
    /// `queue_wait_ms`.
    pub queue_wait_ms: f64,
    /// `exec_ms`.
    pub exec_ms: f64,
    /// `step1_ms`, `step2_ms`, `alloc_ms`, `step3_ms`.
    pub steps_ms: [f64; 4],
    /// `cache_hits`.
    pub cache_hits: f64,
    /// `conversions`.
    pub conversions: f64,
}

impl Job {
    fn of(r: &Reply) -> Job {
        Job {
            latency_ms: r.latency_ms,
            queue_wait_ms: r.num("queue_wait_ms"),
            exec_ms: r.num("exec_ms"),
            steps_ms: [
                r.num("step1_ms"),
                r.num("step2_ms"),
                r.num("alloc_ms"),
                r.num("step3_ms"),
            ],
            cache_hits: r.num("cache_hits"),
            conversions: r.num("conversions"),
        }
    }

    /// Engine time outside the pipeline steps: resolve, conversion,
    /// register.
    pub fn overhead_ms(&self) -> f64 {
        self.exec_ms - self.steps_ms.iter().sum::<f64>()
    }

    /// Client time outside the engine's queue and execution: wire parse and
    /// serialize, the scheduler's session queue, the hand-offs.
    pub fn wire_ms(&self) -> f64 {
        self.latency_ms - self.queue_wait_ms - self.exec_ms
    }
}

/// What a client saw over a window.
#[derive(Debug, Clone, Default)]
pub struct ClientLog {
    /// Latency of every request.
    pub latency_ms: Vec<f64>,
    /// Completed single-link multiply replies. A chain's reply reports
    /// only its final link while its latency covers every link, so chains
    /// are checked and counted but not decomposed.
    pub jobs: Vec<Job>,
    /// Latency of the `load` requests.
    pub loads_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed or returned a wrong `nnz_c`.
    pub failed: u64,
    /// Requests whose `nnz_c` differed from the verified warm-up's.
    pub mismatched: u64,
    /// Backpressure replies retried.
    pub backpressure: u64,
    /// `2 ×` intermediate products of the completed multiplies.
    pub flops: f64,
}

impl ClientLog {
    fn merge(&mut self, o: ClientLog) {
        self.latency_ms.extend(o.latency_ms);
        self.jobs.extend(o.jobs);
        self.loads_ms.extend(o.loads_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.mismatched += o.mismatched;
        self.backpressure += o.backpressure;
        self.flops += o.flops;
    }

    /// Records a request's reply; returns it when it succeeded.
    fn request(&mut self, r: Reply) -> Option<Reply> {
        self.attempted += 1;
        self.backpressure += u64::from(r.backpressure);
        self.latency_ms.push(r.latency_ms);
        if r.ok() {
            Some(r)
        } else {
            self.failed += 1;
            eprintln!("perfbench: request failed: {}", r.v);
            None
        }
    }

    /// Records a multiply-shaped reply, checking its `nnz_c`.
    fn job(&mut self, r: Reply, nnz_c: u64, flops: u64) {
        let Some(r) = self.request(r) else { return };
        if r.v.get("nnz_c").and_then(Value::as_u64) == Some(nnz_c) {
            if r.v.get("links").is_none() {
                self.jobs.push(Job::of(&r));
            }
            self.flops += flops as f64;
        } else {
            self.failed += 1;
            self.mismatched += 1;
            eprintln!("perfbench: nnz_c mismatch, want {nnz_c}: {}", r.v);
        }
    }
}

/// The engine and serve layers as a window's replies report them.
#[derive(Debug, Clone, Default)]
pub struct ServedLayers {
    /// p50 of `exec_ms`.
    pub exec_ms_p50: f64,
    /// p50 of `exec_ms` minus the step slices.
    pub overhead_ms_p50: f64,
    /// Median `Engine::estimate` call.
    pub estimate_ms: f64,
    /// Estimated over actual `nnz_c`.
    pub est_ratio: f64,
    /// Operand resolutions served from the registry cache.
    pub cache_hit_rate: f64,
    /// CSR→tiled conversions per multiply.
    pub conversions_per_op: f64,
    /// p50 of the engine queue wait.
    pub queue_wait_ms_p50: f64,
    /// p90 of the engine queue wait (the max below 100 replies).
    pub queue_wait_ms_p90: f64,
    /// p50 of latency minus queue wait minus exec.
    pub wire_ms_p50: f64,
    /// p50 of `load` latency.
    pub load_ms_p50: f64,
    /// Backpressure replies per request.
    pub backpressure_per_op: f64,
    /// Requests sent and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// Multiply-shaped replies the figures come from.
    pub jobs: usize,
}

impl ServedLayers {
    /// Summarizes a window's log.
    pub fn of(log: &ClientLog, estimate_ms: f64, est_ratio: f64) -> Self {
        let pick = |f: fn(&Job) -> f64| log.jobs.iter().map(f).collect::<Vec<f64>>();
        let hits: f64 = log.jobs.iter().map(|j| j.cache_hits).sum();
        let conversions: f64 = log.jobs.iter().map(|j| j.conversions).sum();
        ServedLayers {
            exec_ms_p50: p50(&pick(|j| j.exec_ms)).unwrap_or(0.0),
            overhead_ms_p50: p50(&pick(Job::overhead_ms)).unwrap_or(0.0),
            estimate_ms,
            est_ratio,
            cache_hit_rate: ratio(hits, hits + conversions),
            conversions_per_op: ratio(conversions, log.jobs.len() as f64),
            queue_wait_ms_p50: p50(&pick(|j| j.queue_wait_ms)).unwrap_or(0.0),
            queue_wait_ms_p90: p90_or_max(&pick(|j| j.queue_wait_ms)).unwrap_or(0.0),
            wire_ms_p50: p50(&pick(Job::wire_ms)).unwrap_or(0.0),
            load_ms_p50: p50(&log.loads_ms).unwrap_or(0.0),
            backpressure_per_op: ratio(log.backpressure as f64, log.attempted as f64),
            attempted: log.attempted,
            failed: log.failed,
            jobs: log.jobs.len(),
        }
    }

    /// One-line summary for a layer table.
    pub fn note(&self) -> String {
        format!(
            "served ({} replies): exec p50 {:.3} ms, engine overhead p50 {:.3} ms, queue p50 {:.3} ms, wire p50 {:.3} ms, load p50 {:.3} ms, estimate {:.3} ms (est/actual nnz {:.3})",
            self.jobs,
            self.exec_ms_p50,
            self.overhead_ms_p50,
            self.queue_wait_ms_p50,
            self.wire_ms_p50,
            self.load_ms_p50,
            self.estimate_ms,
            self.est_ratio
        )
    }
}

/// A started engine with its scheduler.
struct Server {
    engine: Arc<Engine>,
    scheduler: Arc<Scheduler>,
}

impl Server {
    fn start(threads: usize) -> Self {
        let dev = Device::new("perfbench-engine", threads, ENGINE_BUDGET);
        let engine = Arc::new(Engine::new(EngineConfig {
            cache_bytes: ENGINE_BUDGET / 2,
            device: dev,
            workers: WORKERS,
            ..EngineConfig::default()
        }));
        let scheduler = Arc::new(Scheduler::new(Arc::clone(&engine), SchedConfig::default()));
        Server { engine, scheduler }
    }

    /// A client session, greeted and opened.
    fn session(&self, name: &str) -> Result<ServeSession, String> {
        let s = ServeSession::new(Arc::clone(&self.scheduler));
        for line in [
            r#"{"op":"hello","v":3}"#.to_string(),
            format!(r#"{{"op":"open_session","name":"{name}"}}"#),
        ] {
            let r = send(&s, &line, &Tracer::disabled(), 0, None);
            if !r.ok() {
                return Err(format!("{line} failed: {}", r.v));
            }
        }
        Ok(s)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Drains, joins the scheduler's threads and the engine's workers.
        self.scheduler.shutdown(Duration::from_secs(60));
    }
}

/// The `load` request carrying `m` as triplets.
pub fn load_line(m: &Csr<f64>) -> String {
    let mut s = format!(
        r#"{{"op":"load","rows":{},"cols":{},"triplets":["#,
        m.nrows, m.ncols
    );
    let mut first = true;
    for r in 0..m.nrows {
        let (cols, vals) = m.row(r);
        for (c, v) in cols.iter().zip(vals) {
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(s, "[{r},{c},{v:?}]");
        }
    }
    s.push_str("]}");
    s
}

fn loaded(s: &ServeSession, line: &str) -> Result<MatrixId, String> {
    let r = send(s, line, &Tracer::disabled(), 0, None);
    r.id("id")
        .filter(|_| r.ok())
        .ok_or_else(|| format!("load failed: {}", r.v))
}

fn unload_line(id: MatrixId) -> String {
    format!(r#"{{"op":"unload","id":"{id}"}}"#)
}

/// Sends a multiply-shaped `line` with `"keep":true` added, checks the kept
/// product against serial Gustavson, unloads it, and returns the reply's
/// `nnz_c` — what every timed reply of the same request must carry.
fn verified_nnz(
    srv: &Server,
    s: &ServeSession,
    line: &str,
    serial: &Csr<f64>,
) -> Result<u64, String> {
    let kept = format!("{},\"keep\":true}}", line.trim_end_matches('}'));
    let r = send(s, &kept, &Tracer::disabled(), 0, None);
    let (Some(c), Some(nnz_c)) = (r.id("c"), r.v.get("nnz_c").and_then(Value::as_u64)) else {
        return Err(format!("warm-up {line} failed: {}", r.v));
    };
    let csr = srv
        .engine
        .csr(c)
        .map_err(|e| format!("reading the warm-up product of {line}: {e}"))?;
    compare_csr(&csr, serial, &ValuePolicy::default())
        .map_err(|m| format!("warm-up {line} differs from serial Gustavson: {m}"))?;
    send(s, &unload_line(c), &Tracer::disabled(), 0, None);
    Ok(nnz_c)
}

fn multiply_line(a: MatrixId, mask: Option<MatrixId>) -> String {
    match mask {
        Some(m) => format!(r#"{{"op":"multiply","a":"{a}","b":"{a}","mask":"{m}"}}"#),
        None => format!(r#"{{"op":"multiply","a":"{a}","b":"{a}"}}"#),
    }
}

/// The served row of a traced library run: `A·A` of the library workload's
/// own input through one `ServeSession` for a quarter of the run's
/// seconds, with its write path (`load` of a Matrix Market file, as the
/// input is too large for one triplet frame) and `Engine::estimate` timed
/// beside it.
pub fn served_square(
    a: &Csr<f64>,
    dev: &Device,
    cfg: &RunConfig,
    tracer: &Tracer,
) -> Result<ServedLayers, String> {
    let path = cfg.out.join(format!("served-input-s{}.mtx", cfg.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    write_matrix_market(a, &mut out)
        .map_err(|e| e.to_string())
        .and_then(|()| out.flush().map_err(|e| e.to_string()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let load = obj([
        ("op", "load".into()),
        ("path", path.to_string_lossy().as_ref().into()),
    ])
    .to_string();
    let served = served_rows(a, dev, cfg.seconds / 4.0, &load, tracer);
    let _ = std::fs::remove_file(&path);
    served
}

fn served_rows(
    a: &Csr<f64>,
    dev: &Device,
    seconds: f64,
    load: &str,
    tracer: &Tracer,
) -> Result<ServedLayers, String> {
    let srv = Server::start(dev.threads);
    let s = srv.session("served-row")?;
    let mut log = ClientLog::default();
    let op = AtomicU64::new(1 << 40);
    let next = || op.fetch_add(1, Ordering::Relaxed);
    for _ in 0..3 {
        let r = send(&s, load, tracer, next(), None);
        log.loads_ms.push(r.latency_ms);
        let id = log.request(r.clone()).and_then(|r| r.id("id"));
        if let Some(id) = id {
            log.request(send(&s, &unload_line(id), tracer, next(), None));
        }
    }
    let id = loaded(&s, load)?;
    let line = multiply_line(id, None);
    let serial = LibOp::Square(a).serial();
    let nnz_c = verified_nnz(&srv, &s, &line, &serial)?;
    let start = Instant::now();
    while !window_over(start, seconds, log.jobs.len(), 5) {
        log.job(send(&s, &line, tracer, next(), None), nnz_c, 0);
    }
    let id_op = next();
    let (estimate_ms, est) = median_ms(5, || {
        tracer
            .span(id_op, None, "Engine::estimate", || {
                srv.engine.estimate(id, id)
            })
            .0
    });
    let est = est.map_err(|e| format!("estimate failed: {e}"))?;
    Ok(ServedLayers::of(
        &log,
        estimate_ms,
        ratio(est.est_nnz_c as f64, nnz_c as f64),
    ))
}

/// One kind of request in the mix.
struct Kind {
    line: String,
    chain: bool,
    nnz_c: u64,
    flops: u64,
}

/// A fresh matrix for the write path.
struct Fresh {
    load: String,
    nnz_c: u64,
    flops: u64,
}

/// A set-up serve-mixed server: resident operands, verified request kinds,
/// and each client's fresh matrices.
struct Mixed {
    srv: Server,
    clients: Vec<ServeSession>,
    kinds: Vec<Kind>,
    fresh: Vec<Vec<Fresh>>,
    grid: Csr<f64>,
    fem: Csr<f64>,
    rmat: Csr<f64>,
    ids: [MatrixId; 3],
}

fn fresh_seed(seed: u64, client: usize, k: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((client as u64) << 32 | k as u64)
}

fn set_up(seed: u64, threads: usize) -> Result<Mixed, String> {
    let srv = Server::start(threads);
    let clients = (0..CLIENTS)
        .map(|c| srv.session(&format!("client-{c}")))
        .collect::<Result<Vec<_>, _>>()?;
    let grid = grid_2d_5pt(100, 100);
    // The resident operands: fixed structures (the bench suite's fem-500
    // and rmat-skewed) with values drawn from the seed.
    let grid = with_seeded_values(grid, seed);
    let fem = GenSpec::Fem {
        nodes: 500,
        block: 6,
        couplings: 4,
        spread: 20,
        seed: 1,
    }
    .build();
    let fem = with_seeded_values(fem, seed ^ 1);
    let rmat = GenSpec::Rmat {
        scale: 12,
        edges: 25_000,
        mild: false,
        seed: 1,
    }
    .build();
    let rmat = with_seeded_values(rmat, seed ^ 2);
    let s = &clients[0];
    let ids = [
        loaded(s, &load_line(&grid))?,
        loaded(s, &load_line(&fem))?,
        loaded(s, &load_line(&rmat))?,
    ];
    let [g, f, r] = ids;
    let chain = format!(r#"{{"op":"chain","ids":["{g}","{g}","{g}","{g}"]}}"#);
    let mut kinds = Vec::new();
    for (line, op) in [
        (multiply_line(g, None), LibOp::Square(&grid)),
        (multiply_line(f, None), LibOp::Square(&fem)),
        (multiply_line(r, Some(r)), LibOp::MaskedSquare(&rmat)),
        (chain, LibOp::Power(&grid, 3)),
    ] {
        let nnz_c = verified_nnz(&srv, s, &line, &op.serial())?;
        kinds.push(Kind {
            chain: matches!(op, LibOp::Power(..)),
            line,
            nnz_c,
            flops: op.flops(),
        });
    }
    let mut fresh = Vec::new();
    for (c, session) in clients.iter().enumerate() {
        let mut mine = Vec::new();
        for k in 0..FRESH_PER_CLIENT {
            let m = GenSpec::Scatter {
                n: 2048,
                per_row: 8,
                seed: fresh_seed(seed, c, k),
            }
            .build();
            let load = load_line(&m);
            let id = loaded(session, &load)?;
            let op = LibOp::Square(&m);
            let nnz_c = verified_nnz(&srv, session, &multiply_line(id, None), &op.serial())?;
            send(session, &unload_line(id), &Tracer::disabled(), 0, None);
            mine.push(Fresh {
                load,
                nnz_c,
                flops: op.flops(),
            });
        }
        fresh.push(mine);
    }
    Ok(Mixed {
        srv,
        clients,
        kinds,
        fresh,
        grid,
        fem,
        rmat,
        ids,
    })
}

/// What the clients of one window share: when it started, how long it
/// lasts, and the request counter.
struct Pace {
    start: Instant,
    seconds: f64,
    min_ops: usize,
    /// Requests sent so far; also the next request's op id.
    ops: AtomicU64,
}

/// Client `c`'s closed loop: the four request kinds in turn, and every
/// fifth iteration a fresh matrix loaded, squared and unloaded.
fn client_loop(m: &Mixed, c: usize, tracer: &Tracer, pace: &Pace) -> ClientLog {
    let s = &m.clients[c];
    let mut log = ClientLog::default();
    let mut i = c;
    let send_op = |line: &str| {
        let op = pace.ops.fetch_add(1, Ordering::Relaxed);
        let root = tracer.enter(op, None, "request");
        let r = send(s, line, tracer, op, root);
        tracer.exit(root);
        r
    };
    let over = || {
        let sent = pace.ops.load(Ordering::Relaxed) as usize;
        window_over(pace.start, pace.seconds, sent, pace.min_ops)
    };
    while !over() {
        let k = &m.kinds[i % m.kinds.len()];
        log.job(send_op(&k.line), k.nnz_c, k.flops);
        if i % 5 == 4 {
            let f = &m.fresh[c][(i / 5) % m.fresh[c].len()];
            let r = send_op(&f.load);
            log.loads_ms.push(r.latency_ms);
            if let Some(id) = log.request(r).and_then(|r| r.id("id")) {
                log.job(send_op(&multiply_line(id, None)), f.nnz_c, f.flops);
                log.request(send_op(&unload_line(id)));
            }
        }
        i += 1;
    }
    log
}

/// Both clients for one window; returns the merged log and the window's
/// wall time in seconds.
fn window(m: &Mixed, tracer: &Tracer, seconds: f64, min_ops: usize) -> (ClientLog, f64) {
    let pace = Pace {
        start: Instant::now(),
        seconds,
        min_ops,
        ops: AtomicU64::new(0),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..m.clients.len())
            .map(|c| {
                let pace = &pace;
                scope.spawn(move || client_loop(m, c, tracer, pace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = pace.start.elapsed().as_secs_f64();
    let mut log = ClientLog::default();
    for l in logs {
        log.merge(l);
    }
    (log, wall_s)
}

/// Runs `serve-mixed`.
pub fn run(cfg: &RunConfig, tracer: &Tracer) -> Result<Outcome, String> {
    let threads = nproc();
    if cfg.trace {
        return traced(cfg, tracer, threads);
    }
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut mixed = None;
    for _ in 0..SETUP_REPS {
        // Stop the previous server before starting the next.
        drop(mixed.take());
        let t = Instant::now();
        mixed = Some(set_up(cfg.seed, threads)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let m = mixed.expect("at least one set-up");
    let (log, wall_s) = window(&m, &Tracer::disabled(), cfg.seconds, MIN_OPS);
    // Resident memory one request adds, from a trimmed heap: the most over
    // a few sequential requests of each single-link kind and of a fresh
    // load. The chain is left out: which worker runs which of its links
    // moves its footprint by a third from run to run.
    let s = &m.clients[0];
    let mut rss_mib = 0.0f64;
    for _ in 0..RSS_OPS {
        for k in m.kinds.iter().filter(|k| !k.chain) {
            let rise = rss_rise_of(|| {
                send(s, &k.line, &Tracer::disabled(), 0, None);
            })?;
            rss_mib = rss_mib.max(rise);
        }
        let mut loaded = None;
        let rise = rss_rise_of(|| {
            loaded = send(s, &m.fresh[0][0].load, &Tracer::disabled(), 0, None).id("id");
        })?;
        rss_mib = rss_mib.max(rise);
        if let Some(id) = loaded {
            send(s, &unload_line(id), &Tracer::disabled(), 0, None);
        }
    }
    let lat_p90 = p90(&log.latency_ms)
        .ok_or_else(|| format!("only {} requests; p90 needs {MIN_OPS}", log.attempted))?;
    let metrics = end_to_end([
        log.flops / wall_s / 1e9,
        p50(&log.latency_ms).unwrap_or(0.0),
        lat_p90,
        m.srv.engine.device_tracker().peak_bytes() as f64 / MIB,
        rss_mib,
        ratio((log.attempted - log.failed) as f64, log.attempted as f64),
        p50(&setup_s).unwrap_or(0.0),
    ]);
    Ok(Outcome {
        correct: log.mismatched == 0,
        attempted: log.attempted,
        failed: log.failed,
        metrics,
        table: None,
    })
}

fn traced(cfg: &RunConfig, tracer: &Tracer, threads: usize) -> Result<Outcome, String> {
    let m = set_up(cfg.seed, threads)?;
    let half = cfg.seconds / 2.0;
    let (plain, _) = window(&m, &Tracer::disabled(), half, MIN_TRACED_OPS);
    let (log, _) = window(&m, tracer, half, MIN_TRACED_OPS);

    let [g, f, _] = m.ids;
    let est_op = 1 << 40;
    let mut estimate_ms = Vec::new();
    let mut est_ratio = Vec::new();
    for (id, kind) in [(g, &m.kinds[0]), (f, &m.kinds[1])] {
        let (ms, est) = median_ms(5, || {
            tracer
                .span(est_op, None, "Engine::estimate", || {
                    m.srv.engine.estimate(id, id)
                })
                .0
        });
        let est = est.map_err(|e| format!("estimate failed: {e}"))?;
        estimate_ms.push(ms);
        est_ratio.push(ratio(est.est_nnz_c as f64, kind.nnz_c as f64));
    }
    let served = ServedLayers::of(
        &log,
        mean(&estimate_ms).unwrap_or(0.0),
        mean(&est_ratio).unwrap_or(0.0),
    );

    // The same products through the library, for the layers the replies do
    // not split out: conversion, materialization, pipeline counters,
    // scaling and the serial baseline.
    let dev = device(threads);
    let ctx = tilespgemm_core::SpGemm::new();
    let mut next_id = 1u64 << 41;
    let ops = [
        LibOp::Square(&m.grid),
        LibOp::Square(&m.fem),
        LibOp::MaskedSquare(&m.rmat),
        LibOp::Power(&m.grid, 3),
    ];
    let mut profiles = Vec::new();
    for op in ops {
        let gold = library::verified_gold(&ctx, &dev, op)?;
        profiles.push(library::profile(
            op,
            &gold,
            &dev,
            &ctx,
            tracer,
            0.4,
            &mut next_id,
        )?);
    }
    let avg = |f: fn(&library::LibProfile) -> f64| {
        mean(&profiles.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let lib_per_op = |layer: &'static str| {
        mean(
            &profiles
                .iter()
                .map(|p| p.table.per_op(p.table.layer_ms(layer)))
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };

    let n = log.jobs.len();
    let mut table = LayerTable::new(
        "serve-mixed traced layers (single-link multiply replies)",
        n,
    );
    let mut overhead = 0.0;
    let mut wire = 0.0;
    for j in &log.jobs {
        table.wall_ms += j.latency_ms;
        table.add("serve.queue_wait", j.queue_wait_ms);
        for (name, ms) in ["core.step1", "core.step2", "core.alloc", "core.step3"]
            .iter()
            .zip(j.steps_ms)
        {
            table.add(name, ms);
        }
        overhead += j.overhead_ms();
        wire += j.wire_ms();
    }
    table.notes.push(format!(
        "of which engine exec outside the steps (resolve, convert, register): {:.3} ms/op",
        table.per_op(overhead)
    ));
    table.notes.push(format!(
        "of which wire, session queue and hand-offs (latency - queue - exec): {:.3} ms/op",
        table.per_op(wire)
    ));
    table.notes.push(served.note());
    let one: f64 = profiles.iter().map(|p| p.one_worker_p50_ms).sum();
    let many: f64 = profiles.iter().map(|p| p.plain_p50_ms).sum();
    let serial = avg(|p| p.serial_ms);
    table.notes.push(format!(
        "library rows of the mix: serial Gustavson {serial:.3} ms/op; tiled 1 worker {:.3}, {threads} workers {:.3} ms/op",
        one / profiles.len() as f64,
        many / profiles.len() as f64
    ));

    let plain_p50 = p50(&plain.latency_ms).unwrap_or(0.0);
    let traced_p50 = p50(&log.latency_ms).unwrap_or(0.0);
    let per_op = |name: &str| table.per_op(table.layer_ms(name));
    let per_layer = PerLayer {
        convert_ms: lib_per_op("matrix.convert"),
        materialize_ms: lib_per_op("matrix.materialize"),
        step1_ms: per_op("core.step1"),
        step2_ms: per_op("core.step2"),
        step3_ms: per_op("core.step3"),
        alloc_ms: per_op("core.alloc"),
        pairs_per_probe: avg(|p| p.pairs_per_probe),
        phantom_tile_share: avg(|p| p.phantom_tile_share),
        dense_acc_share: avg(|p| p.dense_acc_share),
        matched_pairs: avg(|p| p.matched_pairs),
        tiles_c: avg(|p| p.tiles_c),
        fanout_us: fanout_us(&dev, 200),
        parallel_eff: ratio(one, threads as f64 * many),
        arena_high_water_mb: m.srv.engine.stats().arena_high_water as f64 / MIB,
        served: served.clone(),
        serial_gustavson_ms: serial,
        residual_ms: table.per_op(table.residual_ms()),
        residual_pct: table.residual_pct(),
        trace_overhead_pct: ratio(100.0 * (traced_p50 - plain_p50), plain_p50),
    };
    let lib_attempted: u64 = profiles.iter().map(|p| p.attempted).sum();
    let lib_failed: u64 = profiles.iter().map(|p| p.failed).sum();
    Ok(Outcome {
        correct: plain.mismatched == 0 && log.mismatched == 0 && lib_failed == 0,
        attempted: plain.attempted + log.attempted + lib_attempted,
        failed: plain.failed + log.failed + lib_failed,
        metrics: per_layer.metrics(),
        table: Some(table),
    })
}
