//! The serve workload, `serve_hot`: a closed loop against one `serve
//! --quick` daemon. Its traced run also drives the same traffic against
//! `serve --quick --shards 2`, for the router's per-layer metrics: a
//! two-shard tree runs four processes on a 2-CPU host, so its end-to-end
//! figures measure the scheduler more than the router, and it is not a
//! workload of its own.
//!
//! Set-up draws a pool of [`POOL`] distinct single-core points from the
//! seed and has the daemon simulate all of them, so every measured `sim`
//! request is a memo hit. The load is a closed loop: one client process
//! opens [`CONNS`] connections and keeps [`WINDOW`] pipelined requests in
//! flight on each, sending the next request only when a response lands.
//! Requests hold 1, 4 or 16 pool points, drawn by seed; every
//! [`STATS_EVERY`]th request is a `stats`.
//!
//! Every `sim` response must be byte-identical to what the in-process
//! [`Engine::answer_line`] gives for the same line. The id is the first
//! field of both the request and the response, so the expected line is
//! computed once per request variant with id 0 and the id spliced in;
//! set-up checks that splice against a fresh `answer_line` call.

use crate::metrics::Metrics;
use crate::procs::{
    cpu_seconds, cpu_ticks, group_peak_rss_mb, kill_group, ticks_per_s, DaemonTree,
};
use crate::stats::{
    frac, median, quiet_windows, samples_beyond, windowed_percentile, windowed_rate, Sample,
    QUIET_STEAL,
};
use m3d_core::report::Json;
use m3d_serve::client::Client;
use m3d_serve::protocol::{parse_request, request_line, Method, Response};
use m3d_serve::Engine;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Client connections.
pub const CONNS: usize = 2;
/// Pipelined requests in flight per connection.
pub const WINDOW: usize = 8;
/// Distinct single-core points the traffic draws from.
pub const POOL: usize = 256;
/// One request in this many is a `stats`.
pub const STATS_EVERY: i64 = 64;
/// Points per `sim` request, in equal shares of the variants.
const SIZES: [usize; 3] = [1, 4, 16];
/// Distinct `sim` request variants drawn from the pool.
const VARIANTS: usize = 1024;
/// Points per set-up (pre-warm) request.
const PREWARM_CHUNK: usize = 16;
/// Interval of every pool point, µops.
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 2_000;
/// Answers per unit of work: `wall_s` is the seconds per this many.
const BLOCK: f64 = 1_000.0;
/// A connection that sees no response for this long fails the run.
pub const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Cold set-ups (fresh daemon trees) in an untraced run; `setup_s` is
/// their median.
const SETUP_REPS: usize = 7;
/// `peak_rss_mb` is read once this many answers have arrived, not at the
/// end of the window: the daemon keeps every request's trace events, so
/// its resident memory grows with the answers it has given, and a reading
/// at a fixed time would track throughput.
const RSS_AFTER_ANSWERS: u64 = 15_000;
/// In-process calls timed for `serve.engine_answer_us` / `serve.parse_us`.
const ENGINE_CALLS: usize = 2_000;

const APPS: [&str; 8] = [
    "Gcc", "Mcf", "Bzip2", "Hmmer", "Sjeng", "Lbm", "Namd", "Omnetpp",
];
const DESIGNS: [&str; 6] = [
    "Base",
    "TSV3D",
    "M3D-Iso",
    "M3D-HetNaive",
    "M3D-Het",
    "M3D-HetAgg",
];

/// One `sim` request variant: the request line after its id, and the
/// expected response line after its id.
struct Variant {
    line_tail: String,
    want_tail: String,
}

/// The generated traffic and its expected answers.
struct Traffic {
    prewarm: Vec<Variant>,
    variants: Vec<Variant>,
}

fn id_prefix(id: i64) -> String {
    format!("{{\"id\":{id}")
}

/// The id a response line starts with. A daemon answers pipelined
/// requests as they complete, not in request order.
fn response_id(line: &str) -> Option<i64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !(c.is_ascii_digit() || c == '-'))?;
    rest[..end].parse().ok()
}

fn point_json(rng: &mut StdRng) -> (String, String, u64) {
    let app = APPS[rng.gen_range(0..APPS.len())];
    let design = DESIGNS[rng.gen_range(0..DESIGNS.len())];
    (
        app.to_owned(),
        design.to_owned(),
        rng.gen_range(0..1_000_000u64),
    )
}

fn params(points: &[&(String, String, u64)]) -> Json {
    Json::obj([(
        "points",
        Json::arr(points.iter().map(|(app, design, seed)| {
            Json::obj([
                ("app", Json::from(app.as_str())),
                ("design", Json::from(design.as_str())),
                ("seed", Json::from(*seed)),
                ("warmup", Json::from(WARMUP)),
                ("measure", Json::from(MEASURE)),
            ])
        })),
    )])
}

impl Traffic {
    /// Draw the pool and the request variants from `seed`, and compute
    /// every expected answer on `engine` (which simulates the pool).
    fn generate(seed: u64, engine: &Engine) -> Result<Traffic, String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E_57E5);
        let mut seen = HashSet::new();
        let mut pool = Vec::with_capacity(POOL);
        while pool.len() < POOL {
            let p = point_json(&mut rng);
            if seen.insert(p.clone()) {
                pool.push(p);
            }
        }
        let variant = |pts: Vec<&(String, String, u64)>| -> Result<Variant, String> {
            let line = request_line(0, Method::Sim, params(&pts), None);
            let want = engine.answer_line(&line);
            let (Some(line_tail), Some(want_tail)) = (
                line.strip_prefix(&id_prefix(0)),
                want.strip_prefix(&id_prefix(0)),
            ) else {
                return Err(format!(
                    "request or answer does not start with its id: {want}"
                ));
            };
            if !want_tail.starts_with(",\"ok\":true") {
                return Err(format!("in-process engine refused a pool request: {want}"));
            }
            Ok(Variant {
                line_tail: line_tail.to_owned(),
                want_tail: want_tail.to_owned(),
            })
        };
        let prewarm = pool
            .chunks(PREWARM_CHUNK)
            .map(|c| variant(c.iter().collect()))
            .collect::<Result<Vec<_>, _>>()?;
        // Equal shares of each size, so the mean request size (and with
        // it the work per answer) is the same for every seed.
        let mut variants = Vec::with_capacity(VARIANTS);
        for i in 0..VARIANTS {
            let n = SIZES[i % SIZES.len()];
            let pts = (0..n).map(|_| &pool[rng.gen_range(0..POOL)]).collect();
            variants.push(variant(pts)?);
        }
        // The id splice must give exactly what the engine answers.
        let v = &variants[0];
        let line = format!("{}{}", id_prefix(987_654), v.line_tail);
        if engine.answer_line(&line) != format!("{}{}", id_prefix(987_654), v.want_tail) {
            return Err("the expected answer does not depend on the id alone".to_owned());
        }
        Ok(Traffic { prewarm, variants })
    }
}

/// A parsed `result` number (integers and floats alike).
fn num(j: Option<&Json>) -> f64 {
    match j {
        Some(Json::Int(i)) => *i as f64,
        Some(Json::Num(x)) => *x,
        _ => 0.0,
    }
}

/// One call on a fresh connection, returning the parsed `result`.
fn call(addr: &str, method: Method) -> Result<Json, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let params = Json::Obj(Vec::new());
    let r = c
        .call(1, method, params, None)
        .map_err(|e| format!("{method:?} on {addr}: {e}"))?;
    r.result()
        .cloned()
        .ok_or_else(|| format!("{method:?} on {addr} failed: {}", r.raw))
}

/// Send `reqs` one at a time on one connection and check every answer
/// (a router fans each point out to a shard, so a pipelined burst of
/// 16-point requests would overrun the shards' admission queues).
fn prewarm(addr: &str, reqs: &[Variant]) -> Result<(), String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    for (i, v) in reqs.iter().enumerate() {
        let id = id_prefix(i as i64);
        let got = c
            .call_raw(&format!("{id}{}", v.line_tail))
            .map_err(|e| format!("pre-warm request: {e}"))?;
        if got != format!("{id}{}", v.want_tail) {
            return Err(format!(
                "a pre-warm answer differs from the engine's: {got:.300}"
            ));
        }
    }
    Ok(())
}

/// Start a daemon tree, wait for its first `stats` answer, and pre-warm
/// the pool. Returns the tree, its address and the seconds it took.
fn bring_up(
    serve_bin: &Path,
    args: &[&str],
    tmp: &Path,
    tag: &str,
    traffic: &Traffic,
) -> Result<(DaemonTree, String, f64), String> {
    let t0 = Instant::now();
    let mut tree = DaemonTree::spawn(serve_bin, args, tmp, tag)
        .map_err(|e| format!("spawning {}: {e}", serve_bin.display()))?;
    let addr = tree
        .wait_addr(Duration::from_secs(60))
        .map_err(|e| format!("daemon start-up: {e}"))?;
    call(&addr, Method::Stats)?;
    prewarm(&addr, &traffic.prewarm)?;
    Ok((tree, addr, t0.elapsed().as_secs_f64()))
}

/// What one connection saw.
#[derive(Default)]
struct ConnLog {
    /// Latency per request, failures included, with the second of the
    /// window in which it was sent.
    samples: Vec<(u64, Sample)>,
    /// Completion times of the correct answers, seconds since the window
    /// opened.
    done_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// What the connections report to the watchdog.
#[derive(Default)]
struct Progress {
    /// Microseconds since the window opened at the latest answer.
    last_us: AtomicU64,
    /// Correct answers so far.
    answered: AtomicU64,
}

/// One connection's closed loop until `end_us` (microseconds after
/// `start`, which the watchdog may push back), then a drain of what is in
/// flight.
fn drive(
    addr: &str,
    conn: usize,
    seed: u64,
    traffic: &Traffic,
    start: Instant,
    end_us: &AtomicU64,
    progress: &Progress,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[perfbench] connection {conn} refused: {e}");
            log.attempted = 1;
            log.failed = 1;
            log.samples.push((0, Sample::Failed));
            return log;
        }
    };
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(conn as u64));
    let mut inflight: HashMap<i64, (Option<usize>, Instant)> = HashMap::new();
    let second = |t: Instant| (t - start).as_secs();
    let mut next_id = 1i64;
    let mut reported = 0;
    loop {
        while inflight.len() < WINDOW
            && (start.elapsed().as_micros() as u64) < end_us.load(Ordering::Relaxed)
        {
            let id = next_id;
            next_id += 1;
            let variant = (id % STATS_EVERY != 0).then(|| rng.gen_range(0..traffic.variants.len()));
            let line = match variant {
                Some(v) => format!("{}{}", id_prefix(id), traffic.variants[v].line_tail),
                None => request_line(id, Method::Stats, Json::Obj(Vec::new()), None),
            };
            log.attempted += 1;
            let sent = Instant::now();
            let _s = m3d_obs::span("serve", "Client::send_raw");
            if client.send_raw(&line).is_err() {
                log.failed += 1;
                log.samples.push((second(sent), Sample::Failed));
                continue;
            }
            inflight.insert(id, (variant, sent));
        }
        if inflight.is_empty() {
            break;
        }
        let got = {
            let _s = m3d_obs::span("serve", "Client::recv_raw");
            client.recv_raw()
        };
        let now = Instant::now();
        let Ok(line) = got else {
            // The connection is gone: everything in flight failed.
            log.failed += inflight.len() as u64;
            log.samples
                .extend(inflight.values().map(|(_, t)| (second(*t), Sample::Failed)));
            break;
        };
        progress
            .last_us
            .store(start.elapsed().as_micros() as u64, Ordering::Relaxed);
        let Some((id, (variant, sent))) =
            response_id(&line).and_then(|id| inflight.remove_entry(&id))
        else {
            // An answer to nothing in flight: the connection is out of step.
            eprintln!("[perfbench] connection {conn}: unexpected answer {line:.200}");
            log.failed += inflight.len() as u64;
            log.samples
                .extend(inflight.values().map(|(_, t)| (second(*t), Sample::Failed)));
            break;
        };
        let prefix = id_prefix(id);
        let ok = match variant {
            Some(v) => line[prefix.len()..] == traffic.variants[v].want_tail,
            None => line[prefix.len()..].starts_with(",\"ok\":true"),
        };
        if ok {
            progress.answered.fetch_add(1, Ordering::Relaxed);
            let latency_us = (now - sent).as_secs_f64() * 1e6;
            log.samples.push((second(sent), Sample::Ok(latency_us)));
            log.done_s.push((now - start).as_secs_f64());
        } else {
            log.failed += 1;
            log.samples.push((second(sent), Sample::Failed));
            if reported < 3 {
                reported += 1;
                let kind = Response::parse(&line)
                    .ok()
                    .and_then(|r| r.error().map(|e| e.kind.wire_name()))
                    .unwrap_or("mismatch");
                eprintln!(
                    "[perfbench] request {id} on connection {conn} failed ({kind}): {line:.200}"
                );
            }
        }
    }
    log
}

/// The merged result of one measured window. Rates and percentiles are
/// medians over its quiet seconds (see [`quiet_windows`]), so a burst of
/// stalls moves one second's figure rather than the run's.
struct Window {
    /// Latency samples in the quiet seconds (one per request, failures
    /// included).
    samples: usize,
    attempted: u64,
    failed: u64,
    /// Requests answered per second.
    rps: f64,
    /// Latency percentiles, µs; a failed request counts as the client
    /// timeout, the latency its caller saw.
    p50_us: f64,
    p99_us: f64,
    /// Seconds per [`BLOCK`] answers.
    unit_s: f64,
    /// Client CPU seconds over the window.
    cpu_s: f64,
    /// Peak resident memory of the daemon tree after
    /// [`RSS_AFTER_ANSWERS`] answers, MiB; `None` if fewer arrived.
    rss_mb: Option<f64>,
    /// Whole seconds measured, and those the figures are taken over.
    seconds: usize,
    quiet_seconds: usize,
    /// CPU seconds the hypervisor stole over the window, all CPUs.
    steal_s: f64,
    /// Whether the watchdog had to kill the daemon.
    hung: bool,
}

/// Figures rest on at least this many seconds: the least-stolen ones when
/// fewer are quiet.
const MIN_QUIET_SECONDS: usize = 4;

/// A window that would close with fewer quiet seconds than this grows a
/// second at a time, up to [`MAX_STRETCH`] times its length. The host's
/// steal comes in bursts of a few seconds, and a stolen second's p99
/// reads two to three times a quiet one's, so a window caught in a burst
/// waits for quiet seconds rather than taking its figures from stolen
/// ones.
const WANT_QUIET_SECONDS: usize = 10;
const MAX_STRETCH: f64 = 2.5;
/// The watchdog decides on growing this long before the window closes.
const STRETCH_LEAD_US: u64 = 500_000;

/// The share of CPU time stolen in second `w`, from the ticks sampled at
/// the start of each second.
fn second_steal(ticks: &[Option<(u64, u64)>], w: usize) -> Option<f64> {
    match (ticks.get(w).copied()?, ticks.get(w + 1).copied()?) {
        (Some((s0, a0)), Some((s1, a1))) => Some(frac((s1 - s0) as f64, (a1 - a0) as f64)),
        _ => None,
    }
}

/// Run [`CONNS`] closed-loop connections for `seconds`, or longer while
/// fewer than `want_quiet` seconds were quiet (see
/// [`WANT_QUIET_SECONDS`]), with a watchdog that kills the daemon tree
/// (failing every request in flight) when no response arrives for
/// [`CLIENT_TIMEOUT`], reads the tree's peak resident memory after
/// [`RSS_AFTER_ANSWERS`] answers, and samples the CPU time stolen in each
/// second.
fn measure(
    addr: &str,
    pgid: u32,
    seed: u64,
    traffic: &Traffic,
    seconds: f64,
    want_quiet: usize,
) -> Window {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let end_us = AtomicU64::new((seconds * 1e6) as u64);
    let cap_us = (seconds * MAX_STRETCH * 1e6) as u64;
    let progress = Progress::default();
    let finished = AtomicBool::new(false);
    let hung = AtomicBool::new(false);
    let mut rss_mb = None;
    // CPU ticks at the start of each second.
    let mut ticks = vec![cpu_ticks()];
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let watchdog = s.spawn(|| {
            while !finished.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(20));
                while ticks.len() as u64 <= start.elapsed().as_secs() {
                    ticks.push(cpu_ticks());
                }
                let end = end_us.load(Ordering::Relaxed);
                if start.elapsed().as_micros() as u64 + STRETCH_LEAD_US >= end && end < cap_us {
                    let quiet = (0..ticks.len() - 1)
                        .filter(|&w| second_steal(&ticks, w).is_none_or(|s| s <= QUIET_STEAL))
                        .count();
                    if quiet < want_quiet {
                        end_us.store((end + 1_000_000).min(cap_us), Ordering::Relaxed);
                    }
                }
                let answered = progress.answered.load(Ordering::Relaxed);
                if rss_mb.is_none() && answered >= RSS_AFTER_ANSWERS {
                    rss_mb = Some(group_peak_rss_mb(pgid));
                }
                let idle_us = (start.elapsed().as_micros() as u64)
                    .saturating_sub(progress.last_us.load(Ordering::Relaxed));
                if idle_us > CLIENT_TIMEOUT.as_micros() as u64 {
                    eprintln!("[perfbench] no response for {CLIENT_TIMEOUT:?}: killing the daemon");
                    hung.store(true, Ordering::Relaxed);
                    kill_group(pgid);
                    return;
                }
            }
        });
        let conns: Vec<_> = (0..CONNS)
            .map(|c| {
                let (progress, end_us) = (&progress, &end_us);
                s.spawn(move || drive(addr, c, seed, traffic, start, end_us, progress))
            })
            .collect();
        let logs = conns
            .into_iter()
            .map(|h| h.join().expect("client connection thread panicked"))
            .collect();
        finished.store(true, Ordering::Relaxed);
        watchdog.join().expect("watchdog thread panicked");
        logs
    });
    let cpu_s = cpu_seconds() - cpu0;
    let whole = (end_us.into_inner() / 1_000_000) as usize;
    let steal: Vec<Option<f64>> = (0..whole).map(|w| second_steal(&ticks, w)).collect();
    let steal_s = match (ticks.first(), ticks.get(whole)) {
        (Some(Some((s0, _))), Some(Some((s1, _)))) => (s1 - s0) as f64 / ticks_per_s(),
        _ => 0.0,
    };
    let quiet = quiet_windows(&steal, QUIET_STEAL, MIN_QUIET_SECONDS);
    let done: Vec<f64> = logs.iter().flat_map(|l| l.done_s.iter().copied()).collect();
    let rps = windowed_rate(&done, &quiet).unwrap_or(0.0);
    let samples: Vec<(u64, Sample)> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .filter(|(w, _)| quiet.contains(w))
        .collect();
    let timeout_us = CLIENT_TIMEOUT.as_secs_f64() * 1e6;
    let latency = |q| windowed_percentile(&samples, q, &quiet).map_or(0.0, |v| v.min(timeout_us));
    Window {
        samples: samples.len(),
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        rps,
        p50_us: latency(0.5),
        p99_us: latency(0.99),
        unit_s: frac(BLOCK, rps),
        cpu_s,
        rss_mb,
        seconds: whole,
        quiet_seconds: quiet.len(),
        steal_s,
        hung: hung.load(Ordering::Relaxed),
    }
}

/// Counters and latency windows read back from the daemon tree.
#[derive(Debug, Default, Clone)]
struct ServerView {
    /// Counters of the front process (daemon or router).
    front: Vec<(String, f64)>,
    /// Counters summed over the processes that simulate (the daemon, or
    /// every shard).
    sim: Vec<(String, f64)>,
    memo_cache_len: f64,
    /// `sim` latency p50 and p99 (60 s window) of the front, µs.
    front_latency: (f64, f64),
    /// `sim` latency p50, and queue p50 and p99, of the simulating
    /// processes (means weighted by request count), µs.
    sim_latency_p50: f64,
    sim_queue: (f64, f64),
}

impl ServerView {
    fn front(&self, name: &str) -> f64 {
        self.front
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |c| c.1)
    }
    fn sim(&self, name: &str) -> f64 {
        self.sim
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |c| c.1)
    }
}

fn counters(stats: &Json) -> Vec<(String, f64)> {
    match stats.get("metrics").and_then(|m| m.get("counters")) {
        Some(Json::Obj(fields)) => fields
            .iter()
            .map(|(k, v)| (k.clone(), num(Some(v))))
            .collect(),
        _ => Vec::new(),
    }
}

/// `(count, p50, p99)` of one method's window in a `telemetry` result.
fn window(tel: &Json, method: &str, what: &str) -> (f64, f64, f64) {
    let w = tel
        .get("methods")
        .and_then(|m| m.get(method))
        .and_then(|m| m.get(what))
        .and_then(|w| w.get("60s"));
    let f = |k| num(w.and_then(|w| w.get(k)));
    (f("count"), f("p50"), f("p99"))
}

fn read_view(addr: &str) -> Result<ServerView, String> {
    let stats = call(addr, Method::Stats)?;
    let tel = call(addr, Method::Telemetry)?;
    let mut v = ServerView {
        front: counters(&stats),
        front_latency: {
            let (_, p50, p99) = window(&tel, "sim", "latency_us");
            (p50, p99)
        },
        ..ServerView::default()
    };
    let shards: Vec<String> = match stats.get("topology").and_then(|t| t.get("slices")) {
        Some(Json::Arr(slices)) => slices
            .iter()
            .filter_map(|s| match s.get("addr") {
                Some(Json::Str(a)) => Some(a.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    let mut views = Vec::new();
    if shards.is_empty() {
        views.push((stats, tel));
    } else {
        for a in &shards {
            views.push((call(a, Method::Stats)?, call(a, Method::Telemetry)?));
        }
    }
    let mut weight = 0.0;
    for (stats, tel) in &views {
        for (name, value) in counters(stats) {
            match v.sim.iter_mut().find(|(n, _)| *n == name) {
                Some(c) => c.1 += value,
                None => v.sim.push((name, value)),
            }
        }
        v.memo_cache_len += num(stats.get("memo_cache_len"));
        let (n, l50, _) = window(tel, "sim", "latency_us");
        let (_, q50, q99) = window(tel, "sim", "queue_us");
        weight += n;
        v.sim_latency_p50 += n * l50;
        v.sim_queue = (v.sim_queue.0 + n * q50, v.sim_queue.1 + n * q99);
    }
    v.sim_latency_p50 = frac(v.sim_latency_p50, weight);
    v.sim_queue = (frac(v.sim_queue.0, weight), frac(v.sim_queue.1, weight));
    Ok(v)
}

/// Which daemon tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    /// One daemon.
    Hot,
    /// A router in front of two shards.
    Routed,
}

impl Tree {
    /// Daemon flags. The admission queue holds every point a full window
    /// can fan out to one shard ([`CONNS`] x [`WINDOW`] x 16): at the
    /// default 64, a router's per-point fan-out of this load overruns the
    /// shards' queues and some requests are refused as `overloaded`.
    fn args(self) -> &'static [&'static str] {
        match self {
            Tree::Hot => &["--quick", "--queue-cap", "256"],
            Tree::Routed => &["--quick", "--queue-cap", "256", "--shards", "2"],
        }
    }
}

/// Run `serve_hot` against `serve_bin`, with its port files and trace
/// under `tmp`. Untraced, one window of `seconds` gives the end-to-end
/// metrics. Traced, the window is split in thirds: an untraced and a
/// traced third on one daemon, and a third on a two-shard router; they
/// give the per-layer metrics. Returns `(attempted, failed)`.
pub fn run(
    serve_bin: &Path,
    tmp: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let engine = Engine::new(true, crate::sim::LANES).map_err(|e| format!("engine: {e}"))?;
    // The engine turns collection on for its own counters; the client
    // measures with it off.
    m3d_obs::disable();
    let traffic = Traffic::generate(seed, &engine)?;
    if trace {
        return run_traced(&engine, serve_bin, tmp, seed, seconds, &traffic, m);
    }

    // `setup_s` is the median of SETUP_REPS cold set-ups: about half
    // before the measured window (the last of them brings up the tree
    // measured) and the rest after it, so that a few seconds of a faster
    // or slower host do not decide it.
    let cold_setups = |n: usize, tag: &str| -> Result<Vec<f64>, String> {
        (0..n)
            .map(|i| {
                let (mut tree, _, took) = bring_up(
                    serve_bin,
                    Tree::Hot.args(),
                    tmp,
                    &format!("{tag}{i}"),
                    &traffic,
                )?;
                if tree.stop() {
                    Ok(took)
                } else {
                    Err("a daemon tree outlived its stop".to_owned())
                }
            })
            .collect()
    };
    let mut setups = cold_setups(SETUP_REPS / 2, "pre")?;
    let (mut tree, addr, took) = bring_up(serve_bin, Tree::Hot.args(), tmp, "live", &traffic)?;
    setups.push(took);
    let w = measure(
        &addr,
        tree.pgid(),
        seed,
        &traffic,
        seconds,
        WANT_QUIET_SECONDS,
    );
    let rss = w.rss_mb.unwrap_or_else(|| {
        eprintln!(
            "[perfbench] fewer than {RSS_AFTER_ANSWERS} answers: peak_rss_mb read at the end"
        );
        group_peak_rss_mb(tree.pgid())
    });
    if !tree.stop() {
        return Err("the daemon tree outlived its stop".to_owned());
    }
    if w.hung {
        return Err("the daemon stopped answering; the run failed".to_owned());
    }
    setups.extend(cold_setups(SETUP_REPS - setups.len(), "post")?);
    m.set("setup_s", median(&setups).unwrap_or(0.0));
    report(Tree::Hot, &w);
    m.set("wall_s", w.unit_s);
    m.set("rps", w.rps);
    m.set("latency_p50_us", w.p50_us);
    m.set("latency_p99_us", w.p99_us);
    m.set("peak_rss_mb", rss);
    Ok((w.attempted, w.failed))
}

fn report(tree: Tree, w: &Window) {
    eprintln!(
        "[perfbench] {tree:?}: {} requests in {} of {} s quiet ({} beyond p99, per second {:.0}), \
         {:.2} s stolen, client CPU {:.2} s",
        w.samples,
        w.quiet_seconds,
        w.seconds,
        samples_beyond(w.samples, 0.99),
        frac(
            samples_beyond(w.samples, 0.99) as f64,
            w.quiet_seconds as f64
        ),
        w.steal_s,
        w.cpu_s,
    );
}

/// One tree brought up and measured for `seconds` (traced when
/// `traced`), with the tree's view before and after the window.
fn measured_tree(
    tree_kind: Tree,
    serve_bin: &Path,
    tmp: &Path,
    seed: u64,
    seconds: f64,
    traffic: &Traffic,
    traced: bool,
) -> Result<(Window, ServerView, ServerView), String> {
    let tag = format!("{tree_kind:?}").to_lowercase();
    let (mut tree, addr, _) = bring_up(serve_bin, tree_kind.args(), tmp, &tag, traffic)?;
    let before = read_view(&addr)?;
    if traced {
        m3d_obs::enable();
    }
    let w = measure(&addr, tree.pgid(), seed, traffic, seconds, 0);
    m3d_obs::disable();
    let after = if w.hung { None } else { read_view(&addr).ok() };
    if !tree.stop() {
        return Err("the daemon tree outlived its stop".to_owned());
    }
    let after = after.ok_or("the daemon stopped answering; the run failed")?;
    report(tree_kind, &w);
    Ok((w, before, after))
}

/// The traced run of `serve_hot`: the per-layer metrics.
fn run_traced(
    engine: &Engine,
    serve_bin: &Path,
    tmp: &Path,
    seed: u64,
    seconds: f64,
    traffic: &Traffic,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let third = seconds / 3.0;
    let (untraced, _, _) = measured_tree(Tree::Hot, serve_bin, tmp, seed, third, traffic, false)?;
    m3d_obs::reset();
    let (traced, before, after) = measured_tree(
        Tree::Hot,
        serve_bin,
        tmp,
        seed.wrapping_add(1),
        third,
        traffic,
        true,
    )?;
    let (routed, r_before, r_after) = measured_tree(
        Tree::Routed,
        serve_bin,
        tmp,
        seed.wrapping_add(2),
        third,
        traffic,
        false,
    )?;
    let attempted = untraced.attempted + traced.attempted + routed.attempted;
    let failed = untraced.failed + traced.failed + routed.failed;

    // Server side, from the daemon's own counters and windows over the
    // traced third.
    let d = |name: &str| after.sim(name) - before.sim(name);
    m.set("uarch.batch.points", d("uarch.batch.points"));
    m.set("uarch.batch.cycles", d("uarch.batch.cycles"));
    m.set(
        "uarch.batch.cache_hit_frac",
        frac(d("uarch.batch.cache_hits"), d("uarch.batch.points")),
    );
    m.set("uarch.cap_exhausted", d("uarch.batch.cap_exhausted"));
    m.set("serve.server_p50_us", after.front_latency.0);
    m.set("serve.server_p99_us", after.front_latency.1);
    m.set("serve.queue_p50_us", after.sim_queue.0);
    m.set("serve.queue_p99_us", after.sim_queue.1);
    m.set(
        "serve.wire_gap_p50_us",
        traced.p50_us - after.front_latency.0,
    );
    m.set("serve.requests.sim", d("serve.requests.sim"));
    m.set(
        "serve.coalesced_frac",
        frac(d("serve.coalesced"), d("serve.requests.sim")),
    );
    m.set("serve.rejected", d("serve.rejected"));
    m.set("serve.write_errors", d("serve.write_errors"));
    m.set("serve.memo_cache_len", after.memo_cache_len);

    // Router, from the router's counters and the shards' windows.
    let df = |name: &str| r_after.front(name) - r_before.front(name);
    m.set("serve.routed_sim_requests", df("serve.requests.sim"));
    m.set(
        "serve.shard_subrequests_per_request",
        frac(df("serve.shard_subrequests"), df("serve.requests.sim")),
    );
    m.set(
        "serve.router_gap_p50_us",
        routed.p50_us - r_after.sim_latency_p50,
    );
    m.set("serve.shard_deaths", df("serve.shard_deaths"));
    m.set("serve.shard_rerouted", df("serve.shard_rerouted"));
    m.set("serve.shard_failed", df("serve.shard_failed"));

    // In-process engine and protocol on the workload's own lines.
    m3d_obs::enable();
    let lines: Vec<String> = (0..ENGINE_CALLS)
        .map(|i| {
            let v = &traffic.variants[i % traffic.variants.len()];
            format!("{}{}", id_prefix(i as i64), v.line_tail)
        })
        .collect();
    let mut answer = Vec::with_capacity(lines.len());
    let mut parse = Vec::with_capacity(lines.len());
    for l in &lines {
        let t0 = Instant::now();
        {
            let _s = m3d_obs::span("serve", "Engine::answer_line");
            std::hint::black_box(engine.answer_line(l));
        }
        let t1 = Instant::now();
        {
            let _s = m3d_obs::span("serve", "parse_request");
            let _ = std::hint::black_box(parse_request(l));
        }
        let t2 = Instant::now();
        answer.push((t1 - t0).as_secs_f64() * 1e6);
        parse.push((t2 - t1).as_secs_f64() * 1e6);
    }
    m3d_obs::disable();
    m.set("serve.engine_answer_us", median(&answer).unwrap_or(0.0));
    m.set("serve.parse_us", median(&parse).unwrap_or(0.0));

    let events = m3d_obs::take_trace();
    let trace_path = tmp.join("trace-serve_hot.json");
    std::fs::write(&trace_path, m3d_obs::chrome_trace_json(&events))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    m.set("bench.untraced_unit_s", untraced.unit_s);
    m.set("bench.traced_unit_s", traced.unit_s);
    m.set(
        "bench.trace_overhead_frac",
        frac(traced.unit_s, untraced.unit_s) - 1.0,
    );
    m.set("bench.client_cpu_s", untraced.cpu_s);
    m.set("bench.latency_samples", untraced.samples as f64);
    m.set("bench.measured_s", untraced.seconds as f64);
    m.set("bench.quiet_s", untraced.quiet_seconds as f64);
    m.set("bench.host_steal_s", untraced.steal_s);
    m.set("bench.attempted", attempted as f64);
    m.set("error_frac", frac(failed as f64, attempted as f64));
    Ok((attempted, failed))
}
