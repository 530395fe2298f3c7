//! The partition workload: Design 5 cut into two shards on the compiled
//! backend, one thread per shard, frames back to back with barrier
//! snapshots, every frame audited against a single-engine run.
//!
//! The workload pins the process, and with it every shard thread, to
//! one CPU. The shards run in lockstep and hand boundary values to each
//! other every cycle, so a second CPU buys them little, while on a
//! shared virtual machine each hand-off across CPUs waits for the
//! hypervisor to wake the other one, a wait that swings from
//! microseconds to milliseconds with the neighbours' load. Unpinned,
//! ten runs of the same code on two virtual CPUs ranged from 13k to
//! 41k cycles/s, with an interquartile range of 71% of the median.

use std::time::Instant;

use dwt_arch::designs::Design;
use dwt_partition::{
    partition, run_single, ChaosPlan, CutOptions, FrameOutputs, PartitionRunner,
    PartitionedNetlist, Rung, RunnerConfig, Stimulus,
};
use dwt_rtl::compile::CompiledEngine;

use crate::gen::{derive, stimulus, tile_pool};
use crate::host::{pin_to_current_cpu, SLICE};
use crate::layers;
use crate::metrics::Values;
use crate::stats::{better_quartile, beyond, chunk_percentiles, median, rate};
use crate::trace::Tracer;
use crate::{Audit, Res, RunArgs};

/// Workload name.
pub const NAME: &str = "partition_shards";
const DESIGN: Design = Design::D5;
const SHARDS: usize = 2;
/// Virtual cycles (sample pairs) per frame.
const FRAME_CYCLES: u64 = 128;
/// Distinct frames generated from the seed; the run cycles through them.
const FRAME_POOL: usize = 8;
/// Warm-up frames before the timed phases, seconds.
const WARMUP_S: f64 = 0.5;
/// Frames per latency chunk: ten beyond the p99 in each.
const PER_CHUNK: usize = 1000;

type Engine = CompiledEngine;

fn runner_config() -> RunnerConfig {
    RunnerConfig { snapshot_interval: 32, ..RunnerConfig::default() }
}

fn cut(netlist: &dwt_rtl::netlist::Netlist, tr: &mut Tracer) -> Res<PartitionedNetlist> {
    let span = tr.begin("partition.cut", None, None);
    let parts = partition(netlist, SHARDS, &CutOptions::default()).map_err(|e| e.to_string())?;
    tr.end(span);
    Ok(parts)
}

/// The frames of one slice: wall time (ms) and `(end_ns, cycles
/// committed)` per frame.
struct FrameRun {
    wall_ms: Vec<f64>,
    committed: Vec<(u64, f64)>,
}

/// Throughput of `runs`: cycles committed per second, the better
/// quartile over the slices.
fn throughput(runs: &[FrameRun]) -> Res<f64> {
    let rates: Vec<f64> = runs.iter().filter_map(|r| rate(&r.committed)).collect();
    better_quartile(&rates, true).ok_or_else(|| "too few frames".into())
}

/// Percentile `q` of the frames' wall times (ms): the better quartile
/// over chunks of consecutive frames.
fn frame_latency_ms(runs: &[FrameRun], q: f64) -> Res<f64> {
    let wall_ms: Vec<f64> = runs.iter().flat_map(|r| r.wall_ms.iter().copied()).collect();
    let chunks = chunk_percentiles(&wall_ms, q, PER_CHUNK);
    let per = wall_ms.len() / chunks.len().max(1);
    println!(
        "# {NAME}: p{q} over {} chunks of {per} frames, {} beyond it in each",
        chunks.len(),
        beyond(per, q)
    );
    better_quartile(&chunks, false).ok_or_else(|| "no frames".into())
}

/// Runs frames on the partitioned runner and audits each against its
/// single-engine reference.
struct Frames<'r, 'p> {
    runner: &'r PartitionRunner<'p, Engine>,
    stims: &'r [Stimulus],
    refs: &'r [FrameOutputs],
    audit: Audit,
    /// Barriers of the last frame.
    barriers: u64,
}

impl Frames<'_, '_> {
    /// Runs frames back to back for `secs`.
    fn run_for(&mut self, secs: f64, tr: &mut Tracer) -> Res<FrameRun> {
        let t1 = tr.now_ns() + (secs * 1e9) as u64;
        let mut run = FrameRun { wall_ms: Vec::new(), committed: Vec::new() };
        for i in 0.. {
            let start = tr.now_ns();
            if start >= t1 {
                break;
            }
            let k = i % self.stims.len();
            let span = tr.begin("partition.run_frame", None, Some(i as u64));
            let report = self
                .runner
                .run_frame(&self.stims[k], None, &ChaosPlan::default(), None)
                .map_err(|e| e.to_string())?;
            tr.end(span);
            let end = tr.now_ns();
            run.wall_ms.push((end - start) as f64 / 1e6);
            let exact = report.outputs == self.refs[k];
            let partitioned = report.rung == Rung::Partitioned;
            self.audit.record(exact, partitioned);
            if exact && partitioned {
                run.committed.push((end, self.stims[k].cycles as f64));
            }
            self.barriers = report.barriers;
        }
        Ok(run)
    }

    /// One-second slices, `rounds` rounds of one slice per entry of
    /// `traced` (whether that slice records spans). Returns each
    /// entry's slices.
    fn slices(
        &mut self,
        rounds: usize,
        traced: &[bool],
        tr: &mut Tracer,
    ) -> Res<Vec<Vec<FrameRun>>> {
        let mut runs: Vec<Vec<FrameRun>> = traced.iter().map(|_| Vec::new()).collect();
        for _ in 0..rounds {
            for (kind, &on) in traced.iter().enumerate() {
                tr.set_on(on);
                runs[kind].push(self.run_for(SLICE.as_secs_f64(), tr)?);
            }
        }
        Ok(runs)
    }
}

/// A set-up probe: build, cut, first partitioned frame. Returns the
/// set-up time and whether that frame matched the single-engine run.
pub fn probe_setup(seed: u64, start: Instant) -> Res<(f64, bool)> {
    pin_to_current_cpu()?;
    let stim = stimulus(&frame_tiles(seed)[0]);
    let mut tr = Tracer::new(false, start);
    let (parts, report, setup_s) = setup(&stim, &mut tr, start)?;
    let reference =
        run_single::<Engine>(&parts.original, &stim, None).map_err(|e| e.to_string())?;
    Ok((setup_s, report.outputs == reference && report.rung == Rung::Partitioned))
}

fn setup(
    stim: &Stimulus,
    tr: &mut Tracer,
    start: Instant,
) -> Res<(PartitionedNetlist, dwt_partition::FrameReport, f64)> {
    let netlist = DESIGN.build().map_err(|e| e.to_string())?.netlist;
    let parts = cut(&netlist, tr)?;
    let report = {
        let runner = PartitionRunner::<Engine>::new(&parts, runner_config());
        runner.run_frame(stim, None, &ChaosPlan::default(), None).map_err(|e| e.to_string())?
    };
    if report.rung != Rung::Partitioned {
        return Err(format!("first frame left the partitioned rung: {:?}", report.rung));
    }
    Ok((parts, report, start.elapsed().as_secs_f64()))
}

/// Runs the partition workload.
pub fn run(args: &RunArgs, tr: &mut Tracer, values: &mut Values) -> Res<Audit> {
    let cpu = pin_to_current_cpu()?;
    println!("# {NAME}: pinned to CPU {cpu}");
    let tiles = frame_tiles(args.seed);
    let stims: Vec<Stimulus> = tiles.iter().map(|t| stimulus(t)).collect();
    let (parts, first, setup_s) = setup(&stims[0], tr, args.start)?;
    println!("# {NAME}: first partitioned frame after {setup_s:.3} s");
    let refs: Vec<FrameOutputs> = stims
        .iter()
        .map(|s| run_single::<Engine>(&parts.original, s, None).map_err(|e| e.to_string()))
        .collect::<Res<_>>()?;
    let runner = PartitionRunner::<Engine>::new(&parts, runner_config());
    let mut frames = Frames {
        runner: &runner,
        stims: &stims,
        refs: &refs,
        audit: Audit::default(),
        barriers: 0,
    };
    frames.audit.record(first.outputs == refs[0], true);

    tr.set_on(false);
    frames.run_for(WARMUP_S, tr)?;
    if !args.trace {
        let runs = frames.slices(args.seconds as usize, &[false], tr)?.remove(0);
        values.set("throughput_pairs_per_s", throughput(&runs)?);
        let (p50, p99) = (frame_latency_ms(&runs, 50.0)?, frame_latency_ms(&runs, 99.0)?);
        println!(
            "# {NAME}: frame time p50 {p50:.6} ms, p99 {p99:.6} ms (no bound; see \
             bench.latency_p50_ms and bench.latency_p99_ms)"
        );
        values.set("setup_s", setup_s);
        return Ok(frames.audit);
    }

    // Untraced and traced slices alternate: the untraced ones are the
    // base for the tracing overhead.
    let rounds = (args.seconds as usize).div_ceil(2);
    let mut runs = frames.slices(rounds, &[false, true], tr)?;
    let (traced, base) = (runs.pop().expect("traced"), runs.pop().expect("base"));
    tr.set_on(true);
    let (mut audit, barriers) = (frames.audit, frames.barriers);
    let frame_ms: Vec<f64> =
        tr.durations_ns("partition.run_frame").iter().map(|ns| ns / 1e6).collect();
    for (i, stim) in stims.iter().cycle().take(4 * FRAME_POOL).enumerate() {
        let span = tr.begin("partition.run_single", None, Some(i as u64));
        let out = run_single::<Engine>(&parts.original, stim, None).map_err(|e| e.to_string())?;
        tr.end(span);
        audit.record(out == refs[i % FRAME_POOL], true);
    }
    let single_ms: Vec<f64> =
        tr.durations_ns("partition.run_single").iter().map(|ns| ns / 1e6).collect();
    for _ in 0..4 {
        cut(&parts.original, tr)?;
    }
    let cut_ms: Vec<f64> = tr.durations_ns("partition.cut").iter().map(|ns| ns / 1e6).collect();
    let (frame_p50, single_p50) =
        (median(&frame_ms).ok_or("no frames")?, median(&single_ms).expect("runs"));
    values.set("partition.cut_ms", median(&cut_ms).expect("cuts"));
    values.set("partition.frame_ms_p50", frame_p50);
    values.set("partition.single_frame_ms_p50", single_p50);
    values.set("partition.shard_efficiency", single_p50 / frame_p50);
    values.set("partition.cut_bits", parts.cut_bits() as f64);
    values.set("partition.barriers", barriers as f64);
    values.set("bench.trace_overhead_share", 1.0 - throughput(&traced)? / throughput(&base)?);
    values.set("bench.generator_lag_ms_p99", 0.0);
    values.set("bench.latency_p50_ms", frame_latency_ms(&traced, 50.0)?);
    values.set("bench.latency_p99_ms", frame_latency_ms(&traced, 99.0)?);

    // arch and rtl on the frames' own stimulus length.
    layers::golden_layer(&tiles, tr, values);
    let flush = DESIGN.build().map_err(|e| e.to_string())?.latency + 2;
    audit.add(&layers::rtl_layer::<Engine>(DESIGN, &tiles, flush, tr, values)?);
    for name in layers::SERVE_METRICS {
        values.set(name, 0.0);
    }
    Ok(audit)
}

/// The seeded frame stimulus, as sample-pair tiles.
fn frame_tiles(seed: u64) -> Vec<Vec<(i64, i64)>> {
    tile_pool(derive(seed, 3), FRAME_POOL, FRAME_CYCLES as usize)
}
