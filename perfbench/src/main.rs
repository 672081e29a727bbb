//! `m3d-perfbench` — the repository's benchmark: two workloads that drive
//! the simulator, the design-space search and the `serve` daemon from
//! outside, through their public API, and print every metric by name with
//! its unit.
//!
//! # Usage
//!
//! ```text
//! bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
//! m3d-perfbench --serve-bin PATH --tmp-dir DIR --workload NAME --seed N
//!               --seconds S --trace 0|1
//! m3d-perfbench --record-golden > perfbench/golden.txt
//! ```
//!
//! (`--probe-setup` and `--probe-round` are the fresh-process helpers a
//! run starts itself; see [`sim`].)
//!
//! Workloads: `explore` (the frontier search, see [`sim`]; its traced run
//! also runs the fig9/fig10 `multicore` study) and `serve_hot` (a closed
//! loop of memo-hit `sim` requests against one daemon; its traced run also
//! measures a two-shard router, see [`serve`]).
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs with
//! `m3d-obs` collection on, writes a Chrome trace under `--tmp-dir`, and
//! prints the per-layer metrics (see [`metrics`]). The last line of
//! standard output is the result:
//!
//! ```text
//! {"correct":true,"attempted":40,"failed":0,"metrics":{"setup_s":{"value":0.81,"unit":"s"},...}}
//! ```
//!
//! The run exits 0 when every operation passed its output check, 1 when
//! some failed (the result line still prints), and 2 when it could not
//! run at all.

mod metrics;
mod procs;
mod serve;
mod sim;
mod stats;

use metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// The two workloads: one runs the library in this process, one drives a
/// daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Explore,
    ServeHot,
}

impl Workload {
    fn from_name(name: &str) -> Option<Self> {
        match name {
            "explore" => Some(Workload::Explore),
            "serve_hot" => Some(Workload::ServeHot),
            _ => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    tmp_dir: PathBuf,
}

const USAGE: &str = "usage: m3d-perfbench --workload explore|serve_hot \
                     --seed N --seconds S --trace 0|1 [--serve-bin PATH] [--tmp-dir DIR]\n       \
                     m3d-perfbench --record-golden";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = PathBuf::from("serve");
    let mut tmp_dir = PathBuf::from("perfbench-tmp");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("bad --seed `{value}`"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--serve-bin" => serve_bin = PathBuf::from(value),
            "--tmp-dir" => tmp_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin,
        tmp_dir,
    })
}

fn golden() -> Result<sim::Golden, String> {
    sim::Golden::parse(include_str!("../golden.txt"))
}

/// The helper modes: recording `golden.txt`, and the fresh-process
/// probes a run starts (one cold set-up; one untraced round).
fn probe(argv: &[String]) -> Option<Result<String, String>> {
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    Some(match argv.as_slice() {
        ["--record-golden"] => sim::record_golden(),
        ["--probe-setup"] => sim::setup_once().map(|(_, s)| format!("{} {} {}", s[0], s[1], s[2])),
        ["--probe-round", name, slot] => {
            let Some(kind) = sim::Kind::from_name(name) else {
                return Some(Err(format!("no in-process study `{name}`")));
            };
            let Ok(slot) = slot.parse::<u64>() else {
                return Some(Err(format!("bad slot `{slot}`")));
            };
            golden()
                .and_then(|g| sim::probe_round(kind, slot, &g))
                .map(|(wall, attempted, failed)| format!("{wall} {attempted} {failed}"))
        }
        _ => return None,
    })
}

fn run(args: &Args, m: &mut Metrics) -> Result<(u64, u64), String> {
    std::fs::create_dir_all(&args.tmp_dir)
        .map_err(|e| format!("creating {}: {e}", args.tmp_dir.display()))?;
    match args.workload {
        Workload::Explore if args.trace => {
            let path = args.tmp_dir.join("trace-explore.json");
            sim::run_traced(args.seed, &golden()?, &path, m)
        }
        Workload::Explore => sim::run(args.seed, args.seconds, &golden()?, m),
        Workload::ServeHot => serve::run(
            &args.serve_bin,
            &args.tmp_dir,
            args.seed,
            args.seconds,
            args.trace,
            m,
        ),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(out) = probe(&argv) {
        match out {
            Ok(text) => println!("{}", text.trim_end()),
            Err(e) => {
                eprintln!("[perfbench] {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("[perfbench] {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    procs::stop_trees_on_signal();
    let mut m = Metrics::default();
    let (attempted, failed) = match run(&args, &mut m) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("[perfbench] {:?} failed: {e}", args.workload);
            std::process::exit(2);
        }
    };
    let json = if args.trace {
        m.to_json(PER_LAYER, true)
    } else {
        m.to_json(END_TO_END, false)
    };
    let json = match json {
        Ok(j) => j,
        Err(e) => {
            eprintln!("[perfbench] {e}");
            std::process::exit(2);
        }
    };
    if attempted == 0 {
        eprintln!("[perfbench] no operation ran");
        std::process::exit(2);
    }
    let correct = failed == 0;
    println!("{}", result_line(correct, attempted, failed, json));
    if !correct {
        std::process::exit(1);
    }
}
