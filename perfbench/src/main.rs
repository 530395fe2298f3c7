//! End-to-end and per-layer benchmark of the served DWT path.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `serve_tiny_tiles`, `serve_chaos`, `partition_shards`.
//! With `--trace 0` the run measures the end-to-end metrics with no
//! spans recorded; with `--trace 1` it records spans around every call
//! into a layer, writes them to `.perfbench/trace-<workload>-<seed>.jsonl`
//! and reports the per-layer ledger. Every output is checked bit-exactly;
//! the last line of standard output is the JSON result, and the exit
//! code is 1 when any output was wrong or missing.
//!
//! Scratch files (private jit caches, temporary files, traces) live in
//! `.perfbench/` under the working directory.

mod gen;
mod host;
mod layers;
mod metrics;
mod partition_wl;
mod serve_wl;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use dwt_rtl::compile::CompiledEngine;
use dwt_rtl::jit::JitEngine;

use metrics::Values;
use serve_wl::ServeSpec;
use trace::Tracer;

/// Errors carry their message to `main`.
pub type Res<T> = Result<T, String>;

/// The audited outcome of every operation a run made.
#[derive(Debug, Default)]
pub struct Audit {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations not served by hardware, not bit-exact, or missing.
    pub failed: u64,
    /// Operations whose outputs were not bit-exact.
    pub mismatched: u64,
    /// Requests with no response, or responses with no request.
    pub missing: u64,
}

impl Audit {
    /// Counts one operation.
    pub fn record(&mut self, exact: bool, hardware: bool) {
        self.attempted += 1;
        self.mismatched += u64::from(!exact);
        self.failed += u64::from(!(exact && hardware));
    }

    /// Folds in another audit.
    pub fn add(&mut self, other: &Audit) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.missing += other.missing;
    }

    /// Operations served correctly by hardware over those attempted.
    pub fn served_share(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Whether every output was correct and accounted for.
    pub fn correct(&self) -> bool {
        self.mismatched == 0 && self.missing == 0
    }
}

/// Set-ups per run: the run's own and the rest in fresh child
/// processes. The jit workload makes only its own, as each pays a cold
/// `rustc` build of about 20–35 s; the others take milliseconds, so
/// seven give a steadier median.
fn setup_count(workload: &str) -> usize {
    if workload == serve_wl::TINY.name {
        1
    } else {
        7
    }
}

/// A child probe that takes longer than this is killed.
const PROBE_TIMEOUT: Duration = Duration::from_secs(150);

/// The parsed command line.
#[derive(Debug)]
pub struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    probe: Option<String>,
    start: Instant,
}

fn usage(msg: &str) -> ! {
    eprintln!("usage error: {msg}");
    eprintln!("usage: perfbench --workload <serve_tiny_tiles|serve_chaos|partition_shards> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn parse_args(start: Instant) -> RunArgs {
    let mut out =
        RunArgs { workload: String::new(), seed: 0, seconds: 0, trace: false, probe: None, start };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage(&format!("{flag}: missing value")));
        match flag.as_str() {
            "--workload" => out.workload = value(),
            "--seed" => {
                out.seed = value().parse().unwrap_or_else(|e| usage(&format!("--seed: {e}")))
            }
            "--seconds" => {
                out.seconds = value().parse().unwrap_or_else(|e| usage(&format!("--seconds: {e}")))
            }
            "--trace" => {
                out.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace: {other} is not 0 or 1")),
                }
            }
            "--probe" => out.probe = Some(value()),
            other => usage(&format!("{other}: unknown flag")),
        }
    }
    if spec(&out.workload).is_none() && out.workload != partition_wl::NAME {
        usage(&format!("--workload: unknown workload '{}'", out.workload));
    }
    if out.seconds == 0 && out.probe.is_none() {
        usage("--seconds must be at least 1");
    }
    out
}

fn spec(workload: &str) -> Option<&'static ServeSpec> {
    [&serve_wl::TINY, &serve_wl::CHAOS].into_iter().find(|s| s.name == workload)
}

/// Where this process keeps its private jit cache and temporary files.
fn scratch_dir() -> Res<PathBuf> {
    let dir = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("jit")).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::create_dir_all(dir.join("tmp")).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::canonicalize(&dir).map_err(|e| e.to_string())
}

/// Runs `perfbench --probe <kind>` in a fresh process, with an empty
/// jit cache, and returns the number it prints.
fn probe(kind: &str, args: &RunArgs) -> Res<f64> {
    let mut child = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args(["--probe", kind, "--workload", &args.workload, "--seed", &args.seed.to_string()])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("probe {kind}: {e}"))?;
    let deadline = Instant::now() + PROBE_TIMEOUT;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("probe {kind} timed out"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut out = String::new();
    std::io::Read::read_to_string(&mut child.stdout.take().expect("piped"), &mut out)
        .map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!("probe {kind} failed: {status}"));
    }
    out.lines()
        .last()
        .and_then(|l| l.strip_prefix("probe "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("probe {kind} printed no result: {out:?}"))
}

/// The body of a child probe process. Prints `probe <value>`.
fn run_probe(kind: &str, args: &RunArgs) -> Res<()> {
    let value = match kind {
        "setup" => {
            let (setup_s, correct) = match spec(&args.workload) {
                Some(s) if s.name == serve_wl::TINY.name => {
                    serve_wl::probe_setup::<JitEngine>(s, args.seed, args.start)?
                }
                Some(s) => serve_wl::probe_setup::<CompiledEngine>(s, args.seed, args.start)?,
                None => partition_wl::probe_setup(args.seed, args.start)?,
            };
            if !correct {
                return Err("set-up probe output was not bit-exact".into());
            }
            setup_s
        }
        "jit-cold" => {
            let design = spec(&args.workload).ok_or("jit-cold needs a serve workload")?.design;
            let netlist = design.build().map_err(|e| e.to_string())?.netlist;
            let t = Instant::now();
            JitEngine::new(netlist).map_err(|e| e.to_string())?;
            t.elapsed().as_secs_f64()
        }
        other => return Err(format!("unknown probe '{other}'")),
    };
    println!("probe {value:?}");
    Ok(())
}

fn run_workload(args: &RunArgs, tr: &mut Tracer, values: &mut Values) -> Res<Audit> {
    match spec(&args.workload) {
        Some(s) if s.name == serve_wl::TINY.name => serve_wl::run::<JitEngine>(s, args, tr, values),
        Some(s) => serve_wl::run::<CompiledEngine>(s, args, tr, values),
        None => partition_wl::run(args, tr, values),
    }
}

fn run(args: &RunArgs) -> Res<(Values, Audit)> {
    let mut values = Values::default();
    let mut tr = Tracer::new(args.trace, args.start);
    let audit = run_workload(args, &mut tr, &mut values)?;
    if args.trace {
        let jit = args.workload == serve_wl::TINY.name;
        values.set("rtl.jit_cold_build_s", if jit { probe("jit-cold", args)? } else { 0.0 });
        let path =
            Path::new(".perfbench").join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tr.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# {} spans written to {}", tr.len(), path.display());
    } else {
        let mut setups = vec![values.get("setup_s").expect("measured")];
        for _ in 1..setup_count(&args.workload) {
            setups.push(probe("setup", args)?);
        }
        println!("# set-up times (s): {setups:?}");
        values.set("setup_s", stats::median(&setups).expect("set-ups"));
        values.set("served_share", audit.served_share());
        values.set("peak_rss_mb", host::peak_rss_mb()?);
    }
    Ok((values, audit))
}

/// Runs the workload and prints its metrics; the exit code is 1 when
/// any output was wrong or missing.
fn report(args: &RunArgs) -> Res<i32> {
    let (values, audit) = run(args)?;
    let mode = if args.trace { "per-layer ledger" } else { "end to end" };
    println!("# {} ({mode})", args.workload);
    print!("{}", values.report(args.trace));
    if !audit.correct() {
        eprintln!("error: {} outputs not bit-exact, {} missing", audit.mismatched, audit.missing);
    }
    println!("{}", values.result_line(args.trace, audit.correct(), audit.attempted, audit.failed)?);
    Ok(i32::from(!audit.correct()))
}

fn main() {
    let start = Instant::now();
    let args = parse_args(start);
    let dir = scratch_dir().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // Set before any thread starts: a private, initially empty kernel
    // cache, so every set-up pays the cold build a fresh deploy pays.
    std::env::set_var("DWT_JIT_CACHE", dir.join("jit"));
    std::env::set_var("TMPDIR", dir.join("tmp"));

    let outcome = match &args.probe {
        Some(kind) => run_probe(kind, &args).map(|()| 0),
        None => report(&args),
    };
    let code = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        1
    });
    let _ = std::fs::remove_dir_all(&dir);
    std::process::exit(code);
}
