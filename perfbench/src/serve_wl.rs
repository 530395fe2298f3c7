//! The served-path workloads: `serve::Server` driven from one generator
//! thread, in an open-loop Poisson phase and a closed-loop phase, with
//! every response audited against the golden model as it arrives.

use std::collections::HashMap;
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

use dwt_arch::designs::Design;
use dwt_pool::chaos::ChaosConfig;
use dwt_recover::executor::{Rung, TileExecutor};
use dwt_recover::injector::{FaultInjector, NoFaults};
use dwt_rtl::engine::Engine;
use dwt_serve::{
    golden_tile, OverloadPolicy, ServeConfig, ServedBy, Server, TileRequest, TileResponse,
};

use crate::gen::{derive, poisson_due_ns, tile_pool};
use crate::host::SLICE;
use crate::layers;
use crate::metrics::Values;
use crate::stats::{better_quartile, beyond, chunk_percentiles, percentile, rate};
use crate::trace::{SpanId, Tracer};
use crate::{Audit, Res, RunArgs};

/// One serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Paper design every worker runs.
    pub design: Design,
    /// Sample pairs per request.
    pub tile_pairs: usize,
    /// Distinct tiles generated from the seed; requests cycle through them.
    pub pool: usize,
    /// Offered rate of the open-loop phase, tiles per second.
    pub open_rate: f64,
    /// Requests kept in flight by the closed-loop phase.
    pub in_flight: usize,
    /// Per-cycle, per-worker SEU rate; `None` runs fault-free.
    pub seu_rate: Option<f64>,
    /// Tiles the standalone executor runs in the traced run.
    pub recover_tiles: usize,
}

/// Design 3 on the jit backend, 8-pair tiles, fault-free.
pub const TINY: ServeSpec = ServeSpec {
    name: "serve_tiny_tiles",
    design: Design::D3,
    tile_pairs: 8,
    pool: 4096,
    open_rate: 2_000.0,
    in_flight: 64,
    seu_rate: None,
    recover_tiles: 2048,
};

/// Design 5 on the compiled backend, 64-pair tiles, SEU drizzle.
pub const CHAOS: ServeSpec = ServeSpec {
    name: "serve_chaos",
    design: Design::D5,
    tile_pairs: 64,
    pool: 1024,
    open_rate: 1_000.0,
    in_flight: 2,
    seu_rate: Some(0.01),
    recover_tiles: 512,
};

const WORKERS: usize = 2;
/// Closed-loop warm-up before the timed phases.
const WARMUP_NS: u64 = 500_000_000;
/// One measured slice, ns.
const SLICE_NS: u64 = SLICE.as_nanos() as u64;
/// Ingress queue depth: deep enough that a quarter-second host stall
/// at 4,000 tiles/s would queue instead of shedding.
const QUEUE: usize = 1024;
/// Open-loop samples per latency chunk: ten beyond the p99 in each.
const PER_CHUNK: usize = 1000;
/// How long outstanding responses may take once sending stops.
const DRAIN: Duration = Duration::from_secs(60);

/// One measured slice: the loop it runs, the phase its requests count
/// towards, and whether spans are recorded.
#[derive(Debug, Clone, Copy)]
struct Slice {
    phase: &'static str,
    open: bool,
    traced: bool,
}

/// The untraced run: open- and closed-loop slices alternate.
const PLAIN: &[Slice] = &[
    Slice { phase: "open", open: true, traced: false },
    Slice { phase: "closed", open: false, traced: false },
];

/// The traced run: each round adds an untraced closed-loop slice, the
/// base for the tracing overhead and the numerator of the kernel
/// fraction.
const TRACED: &[Slice] = &[
    Slice { phase: "closed_base", open: false, traced: false },
    Slice { phase: "open_traced", open: true, traced: true },
    Slice { phase: "closed_traced", open: false, traced: true },
];

impl ServeSpec {
    fn chaos(&self, seed: u64) -> Option<ChaosConfig> {
        self.seu_rate.map(|rate| ChaosConfig {
            seu_rate: rate,
            stuck_fraction: 0.0,
            common_mode: 0.0,
            burst: None,
            stuck_lanes: Vec::new(),
            slow_lanes: Vec::new(),
            seed: derive(seed, 5),
        })
    }

    fn config(&self, seed: u64) -> ServeConfig {
        let mut cfg = ServeConfig::new(self.design);
        cfg.workers = WORKERS;
        cfg.queue_capacity = QUEUE;
        cfg.executor.tile_pairs = self.tile_pairs;
        // A full queue sheds instead of blocking the generator, which
        // would turn the open loop into a closed one.
        cfg.overload = OverloadPolicy::Shed;
        cfg.seed = derive(seed, 4);
        cfg.chaos = self.chaos(seed);
        cfg
    }
}

/// One audited response; its coefficients are checked on arrival and
/// dropped.
struct Record {
    phase: &'static str,
    /// Due time (open loop) or send time (closed loop), ns.
    start_ns: u64,
    recv_ns: u64,
    pairs: usize,
    served_by: ServedBy,
    server_latency_ns: u64,
    /// Bit-exact and hardware-served.
    good: bool,
}

struct Pending {
    phase: &'static str,
    start_ns: u64,
    span: SpanId,
}

/// The generator: sends and receives on the calling thread.
struct Client<'p, E: Engine> {
    server: Server<E>,
    rx: Receiver<TileResponse>,
    pool: &'p [Vec<(i64, i64)>],
    /// The golden model's answer per pool tile, computed on first use.
    golden: Vec<Option<(Vec<i64>, Vec<i64>)>>,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    records: Vec<Record>,
    audit: Audit,
    lags_ns: Vec<f64>,
}

impl<E> Client<'_, E>
where
    E: Engine + Send + 'static,
    E::Snapshot: Send,
{
    fn send(&mut self, tr: &mut Tracer, phase: &'static str, start_ns: u64) -> Res<()> {
        let id = self.next_id;
        self.next_id += 1;
        let span = tr.begin_at("bench.request", start_ns, None, Some(id));
        let pairs = self.pool[id as usize % self.pool.len()].clone();
        let submit = tr.begin("serve.submit", Some(span), Some(id));
        self.server.submit(TileRequest { id, pairs }).map_err(|e| format!("submit: {e}"))?;
        tr.end(submit);
        self.pending.insert(id, Pending { phase, start_ns, span });
        self.audit.attempted += 1;
        Ok(())
    }

    /// Waits up to `timeout` for one response and audits it; `false` on
    /// timeout.
    fn recv(&mut self, tr: &mut Tracer, timeout: Duration) -> Res<bool> {
        let resp = match self.rx.recv_timeout(timeout) {
            Ok(resp) => resp,
            Err(RecvTimeoutError::Timeout) => return Ok(false),
            Err(RecvTimeoutError::Disconnected) => return Err("response channel closed".into()),
        };
        let recv_ns = tr.now_ns();
        let Some(p) = self.pending.remove(&resp.id) else {
            self.audit.missing += 1;
            return Ok(true);
        };
        tr.end(p.span);
        let slot = resp.id as usize % self.pool.len();
        let (low, high) = self.golden[slot].get_or_insert_with(|| golden_tile(&self.pool[slot]));
        let exact = resp.low == *low && resp.high == *high;
        let good = exact && resp.hardware_served();
        self.audit.mismatched += u64::from(!exact);
        self.audit.failed += u64::from(!good);
        self.records.push(Record {
            phase: p.phase,
            start_ns: p.start_ns,
            recv_ns,
            pairs: resp.pairs,
            served_by: resp.served_by,
            server_latency_ns: resp.latency_ns,
            good,
        });
        Ok(true)
    }

    /// Receives every outstanding response; what does not arrive in
    /// time is missing.
    fn drain(&mut self, tr: &mut Tracer) -> Res<()> {
        let deadline = Instant::now() + DRAIN;
        while !self.pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let lost = self.pending.len() as u64;
                self.audit.missing += lost;
                self.audit.failed += lost;
                self.pending.clear();
                break;
            }
            self.recv(tr, left)?;
        }
        Ok(())
    }

    /// Open loop: sends at absolute Poisson due times over `span_ns`,
    /// timing each response from its due time. Returns the window.
    fn open_loop(
        &mut self,
        tr: &mut Tracer,
        phase: &'static str,
        rate: f64,
        span_ns: u64,
        seed: u64,
    ) -> Res<(u64, u64)> {
        let due = poisson_due_ns(seed, rate, span_ns);
        let t0 = tr.now_ns();
        let mut next = 0;
        while next < due.len() {
            let now = tr.now_ns();
            let at = t0 + due[next];
            if at <= now {
                self.lags_ns.push((now - at) as f64);
                self.send(tr, phase, at)?;
                next += 1;
            } else {
                self.recv(tr, Duration::from_nanos(at - now))?;
            }
        }
        self.drain(tr)?;
        Ok((t0, t0 + span_ns))
    }

    /// Closed loop: keeps `in_flight` requests outstanding for
    /// `span_ns`. Returns the window.
    fn closed_loop(
        &mut self,
        tr: &mut Tracer,
        phase: &'static str,
        in_flight: usize,
        span_ns: u64,
    ) -> Res<(u64, u64)> {
        let t0 = tr.now_ns();
        let end = t0 + span_ns;
        for _ in 0..in_flight {
            self.send(tr, phase, t0)?;
        }
        loop {
            let now = tr.now_ns();
            if now >= end {
                break;
            }
            if self.recv(tr, Duration::from_nanos(end - now))? {
                let now = tr.now_ns();
                if now < end {
                    self.send(tr, phase, now)?;
                }
            }
        }
        self.drain(tr)?;
        Ok((t0, end))
    }

    /// Runs `rounds` rounds of `plan`, one slice per entry, so that
    /// each phase's slices spread over the whole run. Returns each
    /// phase's windows.
    fn measure(
        &mut self,
        tr: &mut Tracer,
        spec: &ServeSpec,
        plan: &[Slice],
        rounds: usize,
        seed: u64,
    ) -> Res<HashMap<&'static str, Vec<(u64, u64)>>> {
        let mut windows: HashMap<&'static str, Vec<(u64, u64)>> = HashMap::new();
        for round in 0..rounds as u64 {
            for slice in plan {
                tr.set_on(slice.traced);
                let window = if slice.open {
                    self.open_loop(tr, slice.phase, spec.open_rate, SLICE_NS, derive(seed, round))?
                } else {
                    self.closed_loop(tr, slice.phase, spec.in_flight, SLICE_NS)?
                };
                windows.entry(slice.phase).or_default().push(window);
            }
        }
        Ok(windows)
    }

    /// Closed-loop throughput: pairs of good responses per second, the
    /// better quartile over the windows.
    fn throughput(&self, phase: &str, windows: &[(u64, u64)]) -> Res<f64> {
        let rates: Vec<f64> = windows
            .iter()
            .filter_map(|&(t0, end)| {
                let events: Vec<(u64, f64)> = self
                    .records
                    .iter()
                    .filter(|r| r.good && r.phase == phase && (t0..end).contains(&r.recv_ns))
                    .map(|r| (r.recv_ns, r.pairs as f64))
                    .collect();
                rate(&events)
            })
            .collect();
        better_quartile(&rates, true).ok_or_else(|| format!("{phase}: too few responses"))
    }

    /// Percentile `q` of an open-loop phase's latencies (ms), timed from
    /// each request's due time, or as the server saw it: the better
    /// quartile over chunks of consecutive requests.
    fn latency_ms(&self, phase: &str, q: f64, server: bool) -> Res<f64> {
        let mut timed: Vec<(u64, f64)> = self
            .records
            .iter()
            .filter(|r| r.phase == phase)
            .map(|r| {
                let ns = if server { r.server_latency_ns } else { r.recv_ns - r.start_ns };
                (r.start_ns, ns as f64 / 1e6)
            })
            .collect();
        timed.sort_by_key(|t| t.0);
        let samples: Vec<f64> = timed.iter().map(|t| t.1).collect();
        let chunks = chunk_percentiles(&samples, q, PER_CHUNK);
        let per = samples.len() / chunks.len().max(1);
        println!(
            "# {phase}: p{q} over {} chunks of {per} samples, {} beyond it in each",
            chunks.len(),
            beyond(per, q)
        );
        better_quartile(&chunks, false).ok_or_else(|| "no open-loop samples".into())
    }
}

/// Starts the server and serves requests until one is hardware-served.
/// Returns the client and the set-up time measured from `start`.
fn start_and_first<'p, E>(
    spec: &ServeSpec,
    seed: u64,
    pool: &'p [Vec<(i64, i64)>],
    tr: &mut Tracer,
    start: Instant,
) -> Res<(Client<'p, E>, f64)>
where
    E: Engine + Send + 'static,
    E::Snapshot: Send,
{
    let span = tr.begin("serve.start", None, None);
    let (server, rx) =
        Server::<E>::start(spec.config(seed)).map_err(|e| format!("Server::start: {e}"))?;
    tr.end(span);
    let mut client = Client {
        server,
        rx,
        pool,
        golden: vec![None; pool.len()],
        next_id: 0,
        pending: HashMap::new(),
        records: Vec::new(),
        audit: Audit::default(),
        lags_ns: Vec::new(),
    };
    for _ in 0..64 {
        let now = tr.now_ns();
        client.send(tr, "setup", now)?;
        client.drain(tr)?;
        if client.records.last().is_some_and(|r| r.served_by.hardware_served()) {
            return Ok((client, start.elapsed().as_secs_f64()));
        }
    }
    Err("no hardware-served response in 64 set-up requests".into())
}

/// A set-up probe: start, first hardware-served response, shutdown.
/// Returns the set-up time and whether the responses were bit-exact.
pub fn probe_setup<E>(spec: &ServeSpec, seed: u64, start: Instant) -> Res<(f64, bool)>
where
    E: Engine + Send + 'static,
    E::Snapshot: Send,
{
    let pool = tile_pool(seed, spec.pool, spec.tile_pairs);
    let mut tr = Tracer::new(false, start);
    let (client, setup_s) = start_and_first::<E>(spec, seed, &pool, &mut tr, start)?;
    let correct = client.audit.correct();
    let _ = client.server.shutdown();
    Ok((setup_s, correct))
}

/// Runs one serve workload. With tracing off it measures the end-to-end
/// metrics; with tracing on, the per-layer ledger.
pub fn run<E>(spec: &ServeSpec, args: &RunArgs, tr: &mut Tracer, values: &mut Values) -> Res<Audit>
where
    E: Engine + Send + 'static,
    E::Snapshot: Send,
{
    let pool = tile_pool(args.seed, spec.pool, spec.tile_pairs);
    let (mut client, setup_s) = start_and_first::<E>(spec, args.seed, &pool, tr, args.start)?;
    println!("# {}: first hardware-served response after {setup_s:.3} s", spec.name);

    tr.set_on(false);
    client.closed_loop(tr, "warmup", spec.in_flight, WARMUP_NS)?;
    let plan = if args.trace { TRACED } else { PLAIN };
    let rounds = (args.seconds as usize).div_ceil(2);
    let windows = client.measure(tr, spec, plan, rounds, derive(args.seed, 6))?;
    tr.set_on(args.trace);
    println!("# {}: {} requests in all", spec.name, client.records.len());
    let closed_phase = if args.trace { "closed_traced" } else { "closed" };
    let open_phase = if args.trace { "open_traced" } else { "open" };
    let throughput = client.throughput(closed_phase, &windows[closed_phase])?;

    if !args.trace {
        values.set("throughput_pairs_per_s", throughput);
        let p50 = client.latency_ms(open_phase, 50.0, false)?;
        let p99 = client.latency_ms(open_phase, 99.0, false)?;
        println!(
            "# {}: open-loop latency p50 {p50:.6} ms, p99 {p99:.6} ms (no bound; see \
             bench.latency_p50_ms and bench.latency_p99_ms)",
            spec.name
        );
        values.set("setup_s", setup_s);
        let stats = client.server.shutdown();
        println!("# {}: server counters {:?}", spec.name, stats.counters);
        return Ok(client.audit);
    }

    // serve, from the calls into it and its own counters.
    let base = client.throughput("closed_base", &windows["closed_base"])?;
    let submit_us: Vec<f64> = tr.durations_ns("serve.submit").iter().map(|ns| ns / 1e3).collect();
    let n = client.records.len() as f64;
    let share = |f: &dyn Fn(&ServedBy) -> bool| {
        client.records.iter().filter(|r| f(&r.served_by)).count() as f64 / n
    };
    let rung_is = |want: Rung| move |s: &ServedBy| matches!(s, ServedBy::Worker { rung, .. } if *rung == want);
    values.set("serve.start_s", tr.durations_ns("serve.start")[0] / 1e9);
    values.set("serve.submit_us_p50", percentile(&submit_us, 50.0).ok_or("no submits")?);
    values.set("serve.submit_us_p99", percentile(&submit_us, 99.0).ok_or("no submits")?);
    values.set("serve.server_latency_ms_p99", client.latency_ms(open_phase, 99.0, true)?);
    values.set("bench.latency_p50_ms", client.latency_ms(open_phase, 50.0, false)?);
    values.set("bench.latency_p99_ms", client.latency_ms(open_phase, 99.0, false)?);
    values.set("serve.rung_replay_share", share(&rung_is(Rung::Replay)));
    values.set("serve.rung_tmr_share", share(&rung_is(Rung::Tmr)));
    values.set("serve.golden_share", share(&|s| !s.hardware_served()));
    values.set(
        "bench.generator_lag_ms_p99",
        percentile(&client.lags_ns, 99.0).ok_or("no sends")? / 1e6,
    );
    values.set("bench.trace_overhead_share", 1.0 - throughput / base);
    let stats = client.server.shutdown();
    values.set("serve.retries", stats.counters.retries as f64);
    values.set("serve.redispatches", stats.counters.redispatches as f64);
    values.set(
        "serve.breaker_transitions",
        stats.workers.iter().map(|w| w.breaker_transitions).sum::<usize>() as f64,
    );
    let mut audit = client.audit;

    // recover, arch and rtl, each driven directly.
    audit.add(&recover_layer::<E>(spec, args.seed, &pool, tr, values)?);
    layers::golden_layer(&pool, tr, values);
    let flush = spec.design.build().map_err(|e| e.to_string())?.latency + 2;
    audit.add(&layers::rtl_layer::<E>(spec.design, &pool, flush, tr, values)?);
    if spec.seu_rate.is_some() {
        layers::spare_build::<E>(spec.design, tr, values)?;
    } else {
        // A fault-free workload never escalates to the TMR spare.
        values.set("rtl.spare_build_ms", 0.0);
    }
    values.set(
        "serve.kernel_fraction",
        base / values.get("rtl.kernel_pairs_per_s").expect("measured"),
    );
    for name in layers::PARTITION_METRICS {
        values.set(name, 0.0);
    }
    Ok(audit)
}

/// One `TileExecutor` with the workload's design, configuration,
/// backend, tile sequence and injector seed; times every `run_tile`.
fn recover_layer<E: Engine>(
    spec: &ServeSpec,
    seed: u64,
    pool: &[Vec<(i64, i64)>],
    tr: &mut Tracer,
    values: &mut Values,
) -> Res<Audit> {
    let cfg = spec.config(seed);
    let mut exec = TileExecutor::<E>::new(spec.design, cfg.executor).map_err(|e| e.to_string())?;
    let mut injector: Box<dyn FaultInjector> = match spec.chaos(seed) {
        Some(chaos) => Box::new(
            chaos
                .injector_for(0, exec.primary_netlist(), exec.spare_netlist())
                .map_err(|e| e.to_string())?,
        ),
        None => Box::new(NoFaults),
    };
    let mut audit = Audit::default();
    let (mut pairs, mut cycles, mut recovery, mut replays) = (0u64, 0u64, 0u64, 0u64);
    for i in 0..spec.recover_tiles {
        if i > 0 && cfg.reset_every > 0 && i % cfg.reset_every == 0 {
            exec.reset().map_err(|e| e.to_string())?;
        }
        let tile = &pool[i % pool.len()];
        let span = tr.begin("recover.run_tile", None, Some(i as u64));
        let (outcome, low, high) =
            exec.run_tile(tile, injector.as_mut()).map_err(|e| e.to_string())?;
        tr.end(span);
        audit.record((low, high) == golden_tile(tile), outcome.rung != Rung::GoldenFallback);
        pairs += outcome.pairs as u64;
        cycles += outcome.nominal_cycles + outcome.recovery_cycles;
        recovery += outcome.recovery_cycles;
        replays += u64::from(outcome.replays);
    }
    let us: Vec<f64> = tr.durations_ns("recover.run_tile").iter().map(|ns| ns / 1e3).collect();
    values.set("recover.run_tile_us_p50", percentile(&us, 50.0).ok_or("no tiles")?);
    values.set("recover.run_tile_us_p99", percentile(&us, 99.0).ok_or("no tiles")?);
    values.set("recover.useful_cycle_share", pairs as f64 / cycles as f64);
    values.set("recover.recovery_cycle_share", recovery as f64 / cycles as f64);
    values.set("recover.replays_per_tile", replays as f64 / spec.recover_tiles as f64);
    Ok(audit)
}
