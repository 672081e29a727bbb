//! The in-process studies.
//!
//! * `explore` — the workload: [`run_search`] over the `frontier`
//!   experiment's quick space (6 designs x 10 supply points x
//!   Gcc/Mcf/Namd).
//! * `multicore` — the fig9/fig10 flow on Ocean, Lu, Canneal and Barnes
//!   across the five multicore designs at quick scale: the 20 points go
//!   through one [`SimBatch`] call, then each result gets a power
//!   accounting and a thermal solve warm-started from the same design's
//!   previous application, as the experiment does. It runs in the traced
//!   run of `explore` only (see [`run_traced`]).
//!
//! One operation is one round: a whole search or a whole study. A run
//! makes as many `explore` rounds as fill `--seconds` at the nominal
//! round time, and its timings are taken over all of them (`wall_s` is
//! the mean round, `latency_p50_us` the median one), so one round slowed
//! by the host moves a run's figures less. Round `r` of a run with seed
//! `s` uses trace-seed slot `s + r`, so no round is answered from the
//! batch engine's process-wide memo cache. Every round is checked against
//! the digests in `golden.txt`, recorded for each trace seed.

use crate::metrics::Metrics;
use crate::stats::{covered, frac, layer_self_times, median, percentile_sorted, Interval, Span};
use m3d_core::configs::MulticoreDesign;
use m3d_core::experiments::fig8_thermal::CORE_AREA_M2;
use m3d_core::experiments::RunScale;
use m3d_core::planner::{stack_thermal, DesignSpace};
use m3d_core::search::{frontier_json, run_search, SearchOptions, SearchSpace, SearchSpaceBuilder};
use m3d_power::model::CorePowerModel;
use m3d_tech::layers::LayerStack;
use m3d_thermal::floorplan::Floorplan;
use m3d_thermal::model::ThermalModel;
use m3d_thermal::solver::{Solution, ThermalConfig};
use m3d_uarch::{Multicore, PerfResult, SimBatch, SimInterval, SimPoint};
use m3d_workloads::parallel::parallel_by_name;
use m3d_workloads::spec::spec_by_name;
use m3d_workloads::{TraceGenerator, WorkloadProfile};
use std::collections::HashMap;
use std::time::Instant;

/// Batch-engine lanes, fixed (the benchmark machine has 2 CPUs) rather
/// than taken from the host.
pub const LANES: usize = 2;

/// Cold set-ups in an untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Trace seeds with recorded digests; the run seed picks among them.
pub const SEED_TABLE: u64 = 16;

/// The `multicore` applications.
pub const APPS: [&str; 4] = ["Ocean", "Lu", "Canneal", "Barnes"];

/// The trace seed behind table slot `k` (taken modulo [`SEED_TABLE`]).
pub fn trace_seed(k: u64) -> u64 {
    0xB3E_0000 + k % SEED_TABLE
}

/// The trace seed of the `i`th `multicore` point of slot `k`. Each point
/// gets its own seed, so a round's cost is an average over independent
/// traces rather than one trace's luck shared by all twenty points.
fn point_seed(k: u64, i: usize) -> u64 {
    trace_seed(k) + SEED_TABLE * i as u64
}

/// Share of each core's power in the bottom layer of a folded design
/// (the fig8/fig9 split).
const BOTTOM_SHARE: f64 = 0.55;

/// The three per-stack thermal models of the fig9 flow, built directly.
pub struct ThermalModels {
    fp_2d: Floorplan,
    fp_3d: Floorplan,
    base: ThermalModel,
    tsv: ThermalModel,
    het: ThermalModel,
}

impl ThermalModels {
    fn build() -> Result<Self, String> {
        let cfg = ThermalConfig::default();
        let fp_2d = Floorplan::ryzen_like(CORE_AREA_M2);
        let fp_3d = fp_2d.scaled(0.5);
        let folded = [fp_3d.clone(), fp_3d.clone()];
        let model = |stack: &LayerStack, fps: &[Floorplan]| {
            ThermalModel::new(stack, fps, &cfg).map_err(|e| format!("thermal model: {e}"))
        };
        Ok(Self {
            base: model(&LayerStack::planar_2d(), std::slice::from_ref(&fp_2d))?,
            tsv: model(&LayerStack::tsv3d(), &folded)?,
            het: model(&LayerStack::m3d(), &folded)?,
            fp_2d,
            fp_3d,
        })
    }

    /// The model and per-layer block powers for one core of `d` drawing
    /// `core_w` watts.
    fn for_design(&self, d: MulticoreDesign, core_w: f64) -> (&ThermalModel, Vec<Vec<f64>>) {
        let folded = || {
            vec![
                self.fp_3d.uniform_power(core_w * BOTTOM_SHARE),
                self.fp_3d.uniform_power(core_w * (1.0 - BOTTOM_SHARE)),
            ]
        };
        match d {
            MulticoreDesign::Base4 => (&self.base, vec![self.fp_2d.uniform_power(core_w)]),
            MulticoreDesign::Tsv3d4 => (&self.tsv, folded()),
            _ => (&self.het, folded()),
        }
    }
}

/// What set-up leaves for the rounds.
pub struct Setup {
    space: DesignSpace,
    models: ThermalModels,
}

/// One cold set-up: the design space, the thermal models, and the
/// per-stack thermal coefficients the search uses. The coefficients are
/// cached per process, so a cold set-up needs a fresh process. Returns
/// the set-up and the seconds of each of the three steps.
pub fn setup_once() -> Result<(Setup, [f64; 3]), String> {
    let t0 = Instant::now();
    let space = {
        let _s = m3d_obs::span("planner", "DesignSpace::compute");
        DesignSpace::compute()
    };
    let t1 = Instant::now();
    let models = {
        let _s = m3d_obs::span("thermal", "ThermalModel::new");
        ThermalModels::build()?
    };
    let t2 = Instant::now();
    {
        let _s = m3d_obs::span("planner", "stack_thermal");
        std::hint::black_box(stack_thermal());
    }
    let t3 = Instant::now();
    let secs = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_secs_f64());
    Ok((Setup { space, models }, secs))
}

/// Run this benchmark binary with `args` in a fresh process and return
/// the whitespace-separated numbers of its last output line.
fn probe(args: &[&str]) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(args)
        .stdin(std::process::Stdio::null())
        .stderr(std::process::Stdio::inherit());
    crate::procs::die_with_parent(&mut cmd, crate::procs::SIGKILL);
    let out = cmd.output().map_err(|e| format!("probe {args:?}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().unwrap_or("");
    let nums: Result<Vec<f64>, _> = line.split_whitespace().map(str::parse).collect();
    match nums {
        Ok(n) if out.status.success() && !n.is_empty() => Ok(n),
        _ => Err(format!("probe {args:?} failed ({}): `{line}`", out.status)),
    }
}

/// Set up in this process, recording each step's seconds as a per-layer
/// metric. Returns the set-up and its total seconds.
pub fn setup(m: &mut Metrics) -> Result<(Setup, f64), String> {
    let (setup, secs) = setup_once()?;
    m.set("planner.design_space_s", secs[0]);
    m.set("thermal.model_build_s", secs[1]);
    m.set("planner.stack_thermal_s", secs[2]);
    Ok((setup, secs.iter().sum()))
}

/// The seconds of `n` cold set-ups, each in a fresh process.
fn cold_setups(n: usize) -> Result<Vec<f64>, String> {
    (0..n)
        .map(|_| probe(&["--probe-setup"]).map(|s| s.iter().sum()))
        .collect()
}

/// The recorded digests, per trace-seed slot.
#[derive(Debug, Default)]
pub struct Golden {
    /// `(slot, app, design)` → `(cycles, instructions, cap_exhausted)`.
    multicore: HashMap<(u64, String, String), (u64, u64, bool)>,
    /// slot → `(frontier digest, candidates, pruned, simulated, frontier)`.
    explore: HashMap<u64, (String, [u64; 4])>,
}

impl Golden {
    /// Parse `golden.txt`: `mc <slot> <app> <design> <cycles>
    /// <instructions> <cap 0|1>` and `ex <slot> <fnv64 hex> <candidates>
    /// <pruned> <simulated> <frontier>` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut g = Golden::default();
        for (n, line) in text.lines().enumerate() {
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("golden.txt line {}: `{line}`", n + 1);
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match f.as_slice() {
                [] => {}
                [c, ..] if c.starts_with('#') => {}
                ["mc", slot, app, design, cyc, ins, cap] => {
                    g.multicore.insert(
                        (num(slot)?, (*app).to_owned(), (*design).to_owned()),
                        (num(cyc)?, num(ins)?, num(cap)? == 1),
                    );
                }
                ["ex", slot, digest, a, b, c, d] => {
                    g.explore.insert(
                        num(slot)?,
                        ((*digest).to_owned(), [num(a)?, num(b)?, num(c)?, num(d)?]),
                    );
                }
                _ => return Err(bad()),
            }
        }
        Ok(g)
    }
}

/// FNV-1a, 64-bit, as 16 hex digits.
pub fn fnv64(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn quick_interval() -> SimInterval {
    let s = RunScale::quick();
    SimInterval {
        warmup: s.warmup,
        measure: s.measure,
    }
}

fn profile(app: &str) -> WorkloadProfile {
    parallel_by_name(app).expect("the multicore apps are in the parallel suite")
}

/// The 20 `multicore` points of trace-seed slot `slot`, app-major.
fn multicore_points(slot: u64) -> Vec<SimPoint> {
    APPS.iter()
        .flat_map(|app| MulticoreDesign::ALL.iter().map(move |d| (app, d)))
        .enumerate()
        .map(|(i, (app, d))| {
            let seed = point_seed(slot, i);
            SimPoint::multi(
                d.core_config(),
                profile(app),
                seed,
                d.n_cores(),
                quick_interval(),
            )
        })
        .collect()
}

/// The `frontier` experiment's quick space with its trace seed replaced.
pub fn explore_space(seed: u64) -> SearchSpace {
    let s = RunScale::quick();
    SearchSpaceBuilder {
        designs: Vec::new(),
        apps: vec!["Gcc".to_owned(), "Mcf".to_owned(), "Namd".to_owned()],
        vdds: (0..10).map(|i| 0.55 + 0.05 * i as f64).collect(),
        seed,
        warmup: Some(s.warmup),
        measure: Some(s.measure),
        chunk: Some(64),
        ..SearchSpaceBuilder::default()
    }
    .build()
    .expect("the frontier space is valid")
}

/// One round's outcome.
#[derive(Debug, Default)]
pub struct Round {
    /// Trace-seed slot.
    pub slot: u64,
    /// Host seconds for the round.
    pub wall_s: f64,
    /// Checked operations (points on `multicore`, searches on `explore`).
    pub attempted: u64,
    /// Operations that failed or did not match the recorded digest.
    pub failed: u64,
    /// Lines for `golden.txt` describing what this round computed.
    pub golden: Vec<String>,
    /// Thermal solves, warm-started solves and their sweeps.
    pub thermal: (u64, u64, u64),
    /// Search statistics `[candidates, pruned, simulated, frontier]`.
    pub search: [u64; 4],
    /// Seconds from the search call to its first chunk.
    pub first_chunk_s: f64,
    /// Points simulated in the round, with their results.
    pub points: Vec<(SimPoint, Option<PerfResult>)>,
}

/// One `multicore` round on trace-seed slot `slot`.
pub fn multicore_round(setup: &Setup, slot: u64, golden: &Golden) -> Round {
    let slot = slot % SEED_TABLE;
    let points = multicore_points(slot);
    let model = CorePowerModel::new_22nm();
    let mut round = Round {
        slot,
        ..Round::default()
    };
    let t0 = Instant::now();
    let span = m3d_obs::span("bench", "round");
    let results = {
        let _s = m3d_obs::span("uarch", "SimBatch::run");
        SimBatch::new(LANES).run(&points)
    };
    let mut warm: Vec<Option<Solution>> = vec![None; MulticoreDesign::ALL.len()];
    for (i, (p, r)) in points.iter().zip(&results).enumerate() {
        let (app, di) = (APPS[i / warm.len()], i % warm.len());
        let d = MulticoreDesign::ALL[di];
        round.attempted += 1;
        let r = match r {
            Ok(r) => r,
            Err(_) => {
                round.failed += 1;
                round.points.push((p.clone(), None));
                continue;
            }
        };
        round.points.push((p.clone(), Some(*r)));
        let got = (r.cycles, r.instructions, r.cap_exhausted);
        round.golden.push(format!(
            "mc {slot} {app} {} {} {} {}",
            d.label(),
            got.0,
            got.1,
            u8::from(got.2)
        ));
        let want = golden
            .multicore
            .get(&(slot, app.to_owned(), d.label().to_owned()));
        let mut ok = !r.cap_exhausted && want == Some(&got);
        let breakdown = {
            let _s = m3d_obs::span("power", "CorePowerModel::energy");
            model.energy(r, &d.power_config(&setup.space))
        };
        let core_w = breakdown.average_power_w() / d.n_cores() as f64;
        let (tm, powers) = setup.models.for_design(d, core_w);
        let solved = {
            let _s = m3d_obs::span("thermal", "ThermalModel::solve_from");
            tm.solve_from(&powers, warm[di].as_ref())
        };
        match solved {
            Ok((sol, st)) => {
                round.thermal.0 += 1;
                round.thermal.1 += u64::from(st.warm_start);
                round.thermal.2 += st.iterations as u64;
                ok &= st.converged && sol.peak_c.is_finite();
                warm[di] = Some(sol);
            }
            Err(_) => ok = false,
        }
        round.failed += u64::from(!ok);
    }
    drop(span);
    round.wall_s = t0.elapsed().as_secs_f64();
    round
}

/// One `explore` round on trace-seed slot `slot`.
pub fn explore_round(setup: &Setup, slot: u64, golden: &Golden) -> Round {
    let slot = slot % SEED_TABLE;
    let spec = explore_space(trace_seed(slot));
    let opts = SearchOptions {
        jobs: LANES,
        prune: true,
        deadline: None,
    };
    let mut round = Round {
        slot,
        attempted: 1,
        ..Round::default()
    };
    let mut first_chunk = None;
    let t0 = Instant::now();
    let span = m3d_obs::span("bench", "round");
    let out = {
        let _s = m3d_obs::span("search", "run_search");
        run_search(&setup.space, &spec, &opts, |_| {
            first_chunk.get_or_insert_with(|| t0.elapsed().as_secs_f64());
            true
        })
    };
    drop(span);
    round.wall_s = t0.elapsed().as_secs_f64();
    round.first_chunk_s = first_chunk.unwrap_or(0.0);
    match out {
        Ok(o) => {
            let s = o.stats;
            round.search = [s.candidates, s.pruned(), s.simulated, s.frontier];
            let digest = fnv64(frontier_json(&o.frontier).render_compact().as_bytes());
            let [a, b, c, d] = round.search;
            round
                .golden
                .push(format!("ex {slot} {digest} {a} {b} {c} {d}"));
            let ok = s.capped == 0 && golden.explore.get(&slot) == Some(&(digest, round.search));
            round.failed = u64::from(!ok);
        }
        Err(_) => round.failed = 1,
    }
    round
}

/// Which study a round runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The fig9/fig10 flow.
    Multicore,
    /// The frontier search.
    Explore,
}

impl Kind {
    /// The study's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Multicore => "multicore",
            Kind::Explore => "explore",
        }
    }

    /// The study called `name`.
    pub fn from_name(name: &str) -> Option<Self> {
        [Kind::Multicore, Kind::Explore]
            .into_iter()
            .find(|k| k.name() == name)
    }
}

/// One round, measured alone in this process: the `--probe-round` child
/// of a traced run. Returns `(wall_s, attempted, failed)`.
pub fn probe_round(kind: Kind, slot: u64, golden: &Golden) -> Result<(f64, u64, u64), String> {
    let (setup, _) = setup_once()?;
    let r = round(kind, &setup, slot, golden);
    Ok((r.wall_s, r.attempted, r.failed))
}

fn round(kind: Kind, setup: &Setup, slot: u64, golden: &Golden) -> Round {
    match kind {
        Kind::Multicore => multicore_round(setup, slot, golden),
        Kind::Explore => explore_round(setup, slot, golden),
    }
}

/// Nominal seconds of one `explore` round on a 2-CPU host.
const EXPLORE_ROUND_S: f64 = 6.0;

/// `explore` rounds that fill `seconds` at the nominal round time (at
/// least one). A fixed count, not a deadline, so every run of the same
/// `--seconds` does the same amount of work. A run has only
/// [`SEED_TABLE`] slots: one more round would repeat a slot and be
/// answered from the memo cache, so such a `seconds` is refused.
fn round_count(seconds: f64) -> Result<u64, String> {
    let n = (seconds / EXPLORE_ROUND_S).round().max(1.0) as u64;
    if n > SEED_TABLE {
        return Err(format!(
            "--seconds {seconds} needs {n} explore rounds, but there are only {SEED_TABLE} trace-seed slots"
        ));
    }
    Ok(n)
}

/// One `explore` round, with the share of the machine's CPU time the
/// hypervisor stole while it ran (`None` where unknown).
fn timed_round(setup: &Setup, slot: u64, golden: &Golden) -> (Round, Option<f64>) {
    let t0 = crate::procs::cpu_ticks();
    let r = explore_round(setup, slot, golden);
    let steal = match (t0, crate::procs::cpu_ticks()) {
        (Some((s0, a0)), Some((s1, a1))) => Some(frac((s1 - s0) as f64, (a1 - a0) as f64)),
        _ => None,
    };
    (r, steal)
}

/// The untraced `explore` run: the end-to-end metrics. Returns
/// `(attempted, failed)`.
pub fn run(
    seed: u64,
    seconds: f64,
    golden: &Golden,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let count = round_count(seconds)?;
    // `setup_s` is the median of SETUP_REPS cold set-ups: this process's
    // own, and fresh processes before and after the rounds, so that a few
    // seconds of a faster or slower host do not decide it.
    let (setup, first) = setup(m)?;
    let mut setups = vec![first];
    setups.extend(cold_setups(SETUP_REPS / 2)?);
    let (rounds, steal): (Vec<Round>, Vec<Option<f64>>) = (0..count)
        .map(|r| timed_round(&setup, seed + r, golden))
        .unzip();
    setups.extend(cold_setups(SETUP_REPS - setups.len())?);
    m.set("setup_s", median(&setups).unwrap_or(0.0));
    let mut walls: Vec<f64> = rounds.iter().map(|r| r.wall_s).collect();
    walls.sort_by(f64::total_cmp);
    let total: f64 = walls.iter().sum();
    m.set("wall_s", frac(total, walls.len() as f64));
    m.set("rps", frac(walls.len() as f64, total));
    m.set("latency_p50_us", median(&walls).unwrap_or(0.0) * 1e6);
    m.set(
        "latency_p99_us",
        percentile_sorted(&walls, 0.99).unwrap_or(0.0) * 1e6,
    );
    m.set(
        "peak_rss_mb",
        crate::procs::peak_rss_mb("self").unwrap_or(0.0),
    );
    let all: Vec<(f64, f64)> = rounds
        .iter()
        .zip(&steal)
        .map(|(r, s)| (r.wall_s, s.unwrap_or(f64::NAN)))
        .collect();
    eprintln!(
        "[perfbench] explore: {} rounds (wall s, stolen share) {all:.3?}",
        rounds.len()
    );
    Ok(rounds
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed)))
}

/// The traced run of `explore`: an `explore` round and then a `multicore`
/// round with `m3d-obs` on, whose spans and counters give the per-layer
/// metrics, and their untraced twins in fresh processes for the tracing
/// overhead. The `multicore` round measures the multicore cycle loop and
/// the thermal solver, which `explore` does not run: `multicore` is no
/// workload of its own, because its wall time follows the host's speed,
/// which drifts by a third over minutes. The Chrome trace goes to
/// `trace_path`. Returns `(attempted, failed)`.
pub fn run_traced(
    seed: u64,
    golden: &Golden,
    trace_path: &std::path::Path,
    m: &mut Metrics,
) -> Result<(u64, u64), String> {
    let (setup, _) = setup(m)?;
    // The untraced twins of the traced rounds: same slot, in fresh
    // processes, so none answers from another's memo cache.
    let (mut twin_wall, mut attempted, mut failed) = (0.0, 0, 0);
    for kind in [Kind::Explore, Kind::Multicore] {
        let twin = probe(&[
            "--probe-round",
            kind.name(),
            &(seed % SEED_TABLE).to_string(),
        ])?;
        twin_wall += twin[0];
        attempted += twin[1] as u64;
        failed += twin[2] as u64;
    }
    m3d_obs::reset();
    m3d_obs::enable();
    let cpu0 = crate::procs::cpu_seconds();
    let explore = round(Kind::Explore, &setup, seed, golden);
    let explore_counters = m3d_obs::snapshot();
    let multicore = round(Kind::Multicore, &setup, seed, golden);
    let cpu = crate::procs::cpu_seconds() - cpu0;
    m3d_obs::disable();
    let counters = m3d_obs::snapshot();
    let events = m3d_obs::take_trace();
    std::fs::write(trace_path, m3d_obs::chrome_trace_json(&events))
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;

    let c = |name: &str| counters.counter(name).unwrap_or(0) as f64;
    let spans: Vec<(String, String, Interval)> = events
        .iter()
        .filter(|e| e.ph == m3d_obs::TracePhase::Complete)
        .map(|e| {
            (
                e.cat.to_owned(),
                e.name.to_string(),
                Interval::at(e.ts_us, e.dur_us),
            )
        })
        .collect();
    let busy = |cat: &str, pick: &dyn Fn(&str) -> bool| -> f64 {
        spans
            .iter()
            .filter(|(c, n, _)| c == cat && pick(n))
            .map(|(_, _, at)| at.len())
            .sum::<f64>()
            * 1e-6
    };
    let any = |_: &str| true;

    // Wall-time accounting of the traced rounds: each instant goes to the
    // innermost layer running (batch lanes first), the rest is stated.
    let layered: Vec<Span> = spans
        .iter()
        .map(|(c, _, at)| Span {
            layer: c.clone(),
            at: *at,
        })
        .collect();
    let order = ["batch", "power", "thermal", "uarch", "search"];
    let (mut unit_us, mut selfs, mut rest) = (0.0, vec![0.0; order.len()], 0.0);
    for (_, _, window) in spans
        .iter()
        .filter(|(c, n, _)| c == "bench" && n == "round")
    {
        let (s, r) = layer_self_times(*window, &layered, &order);
        unit_us += window.len();
        selfs.iter_mut().zip(s).for_each(|(a, b)| *a += b);
        rest += r;
    }
    if unit_us == 0.0 {
        return Err("the traced rounds left no span".to_owned());
    }
    m.set("bench.traced_unit_s", unit_us * 1e-6);
    m.set("layer.uarch.self_s", (selfs[0] + selfs[3]) * 1e-6);
    m.set("layer.power.self_s", selfs[1] * 1e-6);
    m.set("layer.thermal.self_s", selfs[2] * 1e-6);
    m.set("layer.search.self_s", selfs[4] * 1e-6);
    m.set("bench.unattributed_s", rest * 1e-6);

    // uarch: the batch engine over both rounds; single-core lanes are the
    // `explore` round's.
    let batch_busy = busy("batch", &any);
    let single_busy = busy("batch", &|n| n.ends_with("x1"));
    m.set("uarch.batch.busy_s", batch_busy);
    m.set("uarch.batch.points", c("uarch.batch.points"));
    m.set("uarch.batch.cycles", c("uarch.batch.cycles"));
    m.set(
        "uarch.batch.cache_hit_frac",
        frac(c("uarch.batch.cache_hits"), c("uarch.batch.points")),
    );
    m.set("uarch.cap_exhausted", c("uarch.batch.cap_exhausted"));
    m.set("uarch.core.busy_s", single_busy);
    m.set(
        "uarch.core.cycles_per_s",
        frac(
            explore_counters.counter("uarch.batch.cycles").unwrap_or(0) as f64,
            single_busy,
        ),
    );

    // power and thermal (the solves are the `multicore` round's)
    m.set("power.busy_s", busy("power", &|n| n == "energy_accounting"));
    m.set("power.accountings", c("power.accountings"));
    let thermal_busy = busy("thermal", &|n| n == "solve");
    let (solves, warm, iters) = multicore.thermal;
    m.set("thermal.busy_s", thermal_busy);
    m.set("thermal.solves", solves as f64);
    m.set("thermal.iterations", iters as f64);
    m.set("thermal.iterations_per_s", frac(iters as f64, thermal_busy));
    m.set(
        "thermal.warm_start_hit_frac",
        frac(warm as f64, solves as f64),
    );

    // search
    let search: Vec<Interval> = spans
        .iter()
        .filter(|(c, n, _)| c == "search" && n == "run")
        .map(|s| s.2)
        .collect();
    let callees: Vec<Interval> = spans
        .iter()
        .filter(|(c, _, _)| c == "batch" || c == "power" || c == "thermal")
        .map(|s| s.2)
        .collect();
    let busy_us: f64 = search.iter().map(Interval::len).sum();
    let callee_us: f64 = search.iter().map(|s| covered(*s, &callees)).sum();
    let [cand, pruned, simulated, frontier] = explore.search;
    m.set("search.busy_s", busy_us * 1e-6);
    m.set("search.self_s", (busy_us - callee_us) * 1e-6);
    m.set("search.candidates", cand as f64);
    m.set("search.pruned", pruned as f64);
    m.set("search.simulated", simulated as f64);
    m.set("search.frontier", frontier as f64);
    m.set("search.prune_frac", frac(pruned as f64, cand as f64));
    m.set("search.first_chunk_s", explore.first_chunk_s);

    // Replays outside the traced rounds: multicore skip-ahead counters, and
    // the trace generators alone.
    let (chip, skipped, core_cycles, uops, mismatched) = replay_multicore(&multicore);
    let mc_busy = batch_busy - single_busy;
    m.set("uarch.multicore.chip_cycles", chip as f64);
    m.set(
        "uarch.multicore.skipped_cycle_frac",
        frac(skipped as f64, chip as f64),
    );
    m.set(
        "uarch.multicore.core_cycles_per_s",
        frac(core_cycles as f64, mc_busy),
    );
    m.set("uarch.multicore.uops_per_s", frac(uops as f64, mc_busy));
    m.set(
        "workloads.gen_uops_per_s",
        generator_rate(&[(Kind::Explore, &explore), (Kind::Multicore, &multicore)]),
    );

    // The benchmark itself.
    m.set("bench.untraced_unit_s", twin_wall);
    m.set(
        "bench.trace_overhead_frac",
        frac(explore.wall_s + multicore.wall_s, twin_wall) - 1.0,
    );
    m.set("bench.client_cpu_s", cpu);
    m.set("bench.latency_samples", 2.0);
    attempted += explore.attempted + multicore.attempted;
    failed += explore.failed + multicore.failed + mismatched;
    m.set("bench.attempted", attempted as f64);
    m.set("error_frac", frac(failed as f64, attempted as f64));
    Ok((attempted, failed))
}

/// Re-run every point of a `multicore` round on a bare [`Multicore`] to
/// read its skip-ahead counters, on [`LANES`] threads. Returns chip
/// cycles, chip cycles skipped, core cycles, committed µops, and how many
/// replays disagreed with the batch result.
fn replay_multicore(round: &Round) -> (u64, u64, u64, u64, u64) {
    let next = std::sync::atomic::AtomicUsize::new(0);
    let parts: Vec<(u64, u64, u64, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..LANES)
            .map(|_| {
                s.spawn(|| {
                    let mut acc = (0, 0, 0, 0, 0);
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some((p, want)) = round.points.get(i) else {
                            return acc;
                        };
                        let Ok(mut mc) =
                            Multicore::try_new(p.config.clone(), &p.profile, p.seed, p.n_cores)
                        else {
                            acc.4 += 1;
                            continue;
                        };
                        let w = mc.run(p.interval.warmup);
                        let r = mc.run(p.interval.measure);
                        let n = p.n_cores as u64;
                        let chip = w.cycles + r.cycles;
                        acc.0 += chip;
                        acc.1 += mc.skip_counters().1 / n;
                        acc.2 += chip * n;
                        acc.3 += w.instructions + r.instructions;
                        if want.map(|x| (x.cycles, x.instructions))
                            != Some((r.cycles, r.instructions))
                        {
                            acc.4 += 1;
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay lane panicked"))
            .collect()
    });
    parts.iter().fold((0, 0, 0, 0, 0), |a, p| {
        (a.0 + p.0, a.1 + p.1, a.2 + p.2, a.3 + p.3, a.4 + p.4)
    })
}

/// The trace streams a round's simulations consume: `(profile, seed,
/// cores, µops per core)`. On `explore` every candidate of an application
/// replays the same single-core stream, so each is listed once.
fn streams(kind: Kind, round: &Round) -> Vec<(WorkloadProfile, u64, usize, u64)> {
    let i = quick_interval();
    match kind {
        Kind::Multicore => round
            .points
            .iter()
            .map(|(p, _)| (p.profile.clone(), p.seed, p.n_cores, i.warmup + i.measure))
            .collect(),
        Kind::Explore => ["Gcc", "Mcf", "Namd"]
            .iter()
            .map(|app| {
                let p = spec_by_name(app).expect("the explore apps are SPEC profiles");
                (p, trace_seed(round.slot), 1, i.warmup + i.measure)
            })
            .collect(),
    }
}

/// µops per second of the rounds' trace generators run alone: every
/// core's stream, for the warm-up and measured window.
fn generator_rate(rounds: &[(Kind, &Round)]) -> f64 {
    let t0 = Instant::now();
    let mut n = 0u64;
    let all = rounds
        .iter()
        .flat_map(|(kind, round)| streams(*kind, round));
    for (profile, seed, cores, uops) in all {
        for core in 0..cores {
            let mut g = TraceGenerator::new(&profile, seed, core, cores);
            for _ in 0..uops {
                std::hint::black_box(g.next_op());
            }
            n += uops;
        }
    }
    frac(n as f64, t0.elapsed().as_secs_f64())
}

/// `golden.txt` for every trace-seed slot.
pub fn record_golden() -> Result<String, String> {
    let (setup, _) = setup_once()?;
    let none = Golden::default();
    let mut out = String::from(
        "# Digests of the in-process workloads per trace-seed slot, written by\n\
         # `m3d-perfbench --record-golden`.\n\
         # mc <slot> <app> <design> <cycles> <instructions> <cap_exhausted>\n\
         # ex <slot> <frontier fnv64> <candidates> <pruned> <simulated> <frontier>\n",
    );
    for kind in [Kind::Multicore, Kind::Explore] {
        for slot in 0..SEED_TABLE {
            let r = round(kind, &setup, slot, &none);
            if r.golden.len() as u64 != r.attempted {
                return Err(format!("{kind:?} slot {slot}: an operation failed"));
            }
            for l in r.golden {
                out.push_str(&l);
                out.push('\n');
            }
            eprintln!(
                "[perfbench] recorded {kind:?} slot {slot} ({:.2} s)",
                r.wall_s
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_never_repeats_a_trace_seed_slot() {
        assert_eq!(round_count(30.0), Ok(5));
        assert_eq!(round_count(1.0), Ok(1));
        assert_eq!(round_count(96.0), Ok(SEED_TABLE));
        assert!(round_count(102.0).is_err());
    }
}
