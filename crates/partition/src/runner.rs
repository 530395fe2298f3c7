//! Thread-isolated partitioned emulation: [`PartitionRunner`] runs one
//! [`run_worker`] thread per shard under the same supervisor as the
//! process mode ([`proc`](crate::proc)), with the frame types both
//! share.
//!
//! Each worker owns an [`Engine`] (any backend — the runner is
//! generic, like `recover`/`pool`/`serve`) and steps virtual cycles in
//! lockstep with its peers, handing boundary values over in-process
//! links. Every `snapshot_interval` cycles the supervisor checks the
//! barrier and commits it, or rolls every worker back to the last
//! consistent one and replays. Chaos directives fire once and SEU
//! arrivals are keyed by a monotone attempt clock, so replays run
//! clean. When the recovery budget is exhausted the runner degrades to
//! a single full-netlist engine, and finally to a caller-supplied
//! software-golden fallback — availability failures never become
//! correctness failures.
//!
//! The shard threads live as long as the runner, as a pipeline keeps
//! its hardware between images and only takes a reset. The first frame
//! spawns them and builds their engines; every later frame starts with
//! a power-on rollback, which each worker serves by restoring the
//! snapshot it took of its engine as built. The rollback generation
//! keeps rising from frame to frame, so a value left in flight by an
//! earlier frame is dropped by its tag. A frame that leaves the
//! partitioned rung tears its fleet down, and the next one spawns a
//! fresh fleet. Concurrent frames on one runner take turns.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use dwt_pool::clock::{Clock, MonotonicClock};
use dwt_rtl::engine::Engine;
use dwt_rtl::netlist::{Netlist, PortDirection};

use crate::cut::PartitionedNetlist;
use crate::error::PartitionError;
use crate::proc::{
    out_routes, run_worker, Fleet, LiveFleet, ProcConfig, Supervisor, WorkerConfig, WorkerSpec,
};
use crate::transport::{Event, LinkChaos, ThreadLink};
use crate::wire::Frame;

/// Per-cycle input vectors for one frame.
#[derive(Debug, Clone, Default)]
pub struct Stimulus {
    /// Frame length in virtual cycles.
    pub cycles: u64,
    /// One value per cycle for every primary input port.
    pub inputs: BTreeMap<String, Vec<i64>>,
}

/// Per-cycle output samples for one frame (settled, post-edge).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameOutputs {
    /// One value per cycle for every primary output port.
    pub ports: BTreeMap<String, Vec<i64>>,
}

/// The rung a frame finally completed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Partitioned execution (recoveries allowed).
    Partitioned,
    /// Single-engine re-execution of the whole frame.
    SingleEngine,
    /// The caller-supplied software-golden fallback.
    Golden,
}

/// What the robustness layer noticed, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectionKind {
    /// A message failed its checksum (payload corruption).
    Checksum,
    /// A message arrived out of sequence (loss or duplication).
    Sequence,
    /// Producer and consumer link hashes disagree at a barrier
    /// (stealth corruption or silent state divergence).
    LinkHashMismatch,
    /// Outputs disagree with the supplied oracle (an SEU slipped
    /// through to architectural state).
    OracleMismatch,
    /// A worker went silent past its deadline, or waited past the
    /// watchdog for a boundary value.
    Stall,
    /// A worker's connection closed (its process or thread died).
    Crash,
    /// An engine error inside a worker.
    Engine(String),
}

/// One detection event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Worker that reported (or failed to report); `None` for
    /// barrier-level checks.
    pub worker: Option<usize>,
    /// Virtual cycle the batch started at.
    pub batch_start: u64,
    /// What was detected.
    pub kind: DetectionKind,
}

/// Outcome of one frame.
#[derive(Debug, Clone)]
pub struct FrameReport {
    /// The per-cycle outputs (authoritative, whatever the rung).
    pub outputs: FrameOutputs,
    /// The rung that produced [`FrameReport::outputs`].
    pub rung: Rung,
    /// Rollback-and-replay recoveries performed.
    pub recoveries: u32,
    /// Everything the detectors fired on.
    pub detections: Vec<Detection>,
    /// Barriers committed (consistent global snapshots taken).
    pub barriers: u64,
    /// Cycles re-executed during replays.
    pub replayed_cycles: u64,
}

/// Chaos directives for fault-tolerance tests and campaigns. Kills,
/// stalls and corruptions fire **once** each — armed in the batch
/// whose window holds their cycle; after the recovery they provoke,
/// the replay runs clean. The supervisor carries them out under either
/// isolation; process mode takes its kills and stalls from
/// [`ProcChaos`](crate::proc::ProcChaos).
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// `(worker, cycle)`: the worker thread dies just before ticking
    /// that virtual cycle.
    pub kills: Vec<(usize, u64)>,
    /// `(worker, cycle, pause)`: the worker sleeps that long before
    /// ticking — longer than the watchdog means a waiting peer or the
    /// supervisor declares it a straggler.
    pub stalls: Vec<(usize, u64, Duration)>,
    /// In-flight message corruptions.
    pub corruptions: Vec<Corruption>,
    /// Poisson-distributed transient register upsets inside every
    /// worker's shard (rate per cycle per worker).
    pub seu: Option<SeuChaos>,
}

/// One in-flight message corruption. A static link (see
/// [`LinkSchedule`](crate::proc::LinkSchedule)) carries no message
/// after the prologue, so a corruption aimed at one mid-frame never
/// fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// Producer shard.
    pub from: usize,
    /// Consumer shard.
    pub to: usize,
    /// Virtual cycle whose message is corrupted.
    pub cycle: u64,
    /// `false`: flip a payload bit, leaving the checksum stale (caught
    /// immediately by the consumer). `true`: flip the bit *and*
    /// rewrite the checksum — only the barrier hash crosscheck can
    /// catch it.
    pub stealth: bool,
}

/// Poisson SEU chaos parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeuChaos {
    /// Expected upsets per cycle per worker.
    pub rate: f64,
    /// Base seed (worker index is mixed in).
    pub seed: u64,
}

/// Runner tuning.
#[derive(Clone)]
pub struct RunnerConfig {
    /// Cycles per barrier (snapshot cadence). Shorter means cheaper
    /// replays and more snapshot overhead.
    pub snapshot_interval: u64,
    /// How long a worker waits on a boundary receive before declaring
    /// the producer a straggler, and how long the supervisor lets a
    /// worker go without progress before doing the same.
    pub watchdog: Duration,
    /// Rollback-and-replay budget per frame before degrading to the
    /// single-engine rung.
    pub max_recoveries: u32,
    /// Optional per-cycle event cap forwarded to every engine.
    pub event_cap: Option<u64>,
    /// Clock the supervisor's batch-collection deadline reads.
    /// [`MonotonicClock`] (ticks are nanoseconds) in production; a
    /// `VirtualClock` makes stall detection deterministic in tests.
    pub clock: Arc<dyn Clock>,
    /// Batch-collection budget in clock ticks. `None` derives a
    /// wall-clock budget from the watchdog (`watchdog × 4 + 500 ms`,
    /// in nanoseconds — the [`MonotonicClock`] tick unit).
    pub batch_budget: Option<u64>,
}

impl std::fmt::Debug for RunnerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunnerConfig")
            .field("snapshot_interval", &self.snapshot_interval)
            .field("watchdog", &self.watchdog)
            .field("max_recoveries", &self.max_recoveries)
            .field("event_cap", &self.event_cap)
            .field("batch_budget", &self.batch_budget)
            .finish_non_exhaustive()
    }
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            snapshot_interval: 32,
            watchdog: Duration::from_millis(250),
            max_recoveries: 8,
            event_cap: None,
            clock: Arc::new(MonotonicClock::new()),
            batch_budget: None,
        }
    }
}

/// The caller-supplied terminal fallback.
pub type GoldenFallback<'a> = &'a (dyn Fn(&Stimulus) -> Option<FrameOutputs> + Sync);

/// Thread isolation: one [`run_worker`] thread per shard, each on a
/// [`ThreadLink`] that carries its boundary values straight to the
/// consumer's inbox.
struct Threads<E> {
    specs: Vec<Arc<WorkerSpec>>,
    config: WorkerConfig,
    routes: Vec<Vec<(usize, u32)>>,
    /// The way into each worker's inbox, for the supervisor and for
    /// the worker's producers.
    inboxes: Vec<Sender<Vec<u8>>>,
    /// Inboxes no running thread holds. A respawned worker takes its
    /// predecessor's, so its producers need no rewiring.
    idle: Vec<Option<Receiver<Vec<u8>>>>,
    arming: Vec<Arc<Mutex<LinkChaos>>>,
    /// Each worker's heartbeat count, from its current link.
    progress: Vec<Arc<AtomicU64>>,
    threads: Vec<Option<JoinHandle<Receiver<Vec<u8>>>>>,
    _engine: PhantomData<fn() -> E>,
}

impl<E> Threads<E> {
    /// A thread cannot be killed from outside: it is told to shut down,
    /// which an idle or waiting worker does at once and a stalled one
    /// as soon as it next receives.
    fn stop(&mut self, w: usize) {
        if let Some(handle) = self.threads[w].take() {
            let _ = self.inboxes[w].send(Frame::Shutdown.encode());
            if let Ok(inbox) = handle.join() {
                while inbox.try_recv().is_ok() {}
                self.idle[w] = Some(inbox);
            }
        }
    }

    fn new(parts: &PartitionedNetlist, specs: &[Arc<WorkerSpec>], config: WorkerConfig) -> Self {
        let n = parts.parts();
        let (inboxes, idle) =
            (0..n).map(|_| mpsc::channel()).map(|(tx, rx)| (tx, Some(rx))).unzip();
        Threads {
            specs: specs.to_vec(),
            config,
            routes: out_routes(parts),
            inboxes,
            idle,
            arming: (0..n).map(|_| Arc::default()).collect(),
            progress: (0..n).map(|_| Arc::default()).collect(),
            threads: (0..n).map(|_| None).collect(),
            _engine: PhantomData,
        }
    }
}

impl<E: Engine + 'static> Fleet for Threads<E> {
    fn spawn(&mut self, w: usize, conn: u64, events: &Sender<Event>) -> Result<(), PartitionError> {
        let spawn_err = |detail: String| PartitionError::Spawn { detail };
        let inbox =
            self.idle[w].take().ok_or_else(|| spawn_err(format!("worker {w} is running")))?;
        let routes = self.routes[w].iter().map(|&(to, link)| (self.inboxes[to].clone(), link));
        let mut link = ThreadLink::new(
            w,
            conn,
            inbox,
            events.clone(),
            routes.collect(),
            Arc::clone(&self.arming[w]),
        );
        self.progress[w] = link.progress();
        let (spec, config) = (Arc::clone(&self.specs[w]), self.config.clone());
        let handle = thread::Builder::new()
            .name(format!("dwt-partition-{w}"))
            .spawn(move || {
                // A worker that fails or panics has crashed: the
                // supervisor hears it as a closed connection.
                let _ = panic::catch_unwind(AssertUnwindSafe(|| {
                    run_worker::<E, _>(&spec, &mut link, &config)
                }));
                link.close()
            })
            .map_err(|e| spawn_err(e.to_string()))?;
        self.threads[w] = Some(handle);
        Ok(())
    }

    fn send(&mut self, w: usize, frame: &Frame) -> Result<(), PartitionError> {
        self.inboxes[w]
            .send(frame.encode())
            .map_err(|_| PartitionError::Transport { detail: "inbox closed".into() })
    }

    /// Nobody waits on a sink shard, so a stalled one would otherwise
    /// hold the batch until its deadline.
    fn straggler_timeout(&self) -> Option<Duration> {
        Some(self.config.exchange_timeout)
    }

    fn progress(&self, w: usize) -> u64 {
        self.progress[w].load(Ordering::Relaxed)
    }

    fn arm(&mut self, w: usize, chaos: LinkChaos) {
        *self.arming[w].lock().unwrap_or_else(PoisonError::into_inner) = chaos;
    }

    fn kill(&mut self, w: usize) {
        self.stop(w);
    }
}

impl<E> Drop for Threads<E> {
    /// Shuts every shard thread down and joins it.
    fn drop(&mut self) {
        for w in 0..self.threads.len() {
            self.stop(w);
        }
    }
}

/// Runs a partitioned netlist across one OS thread per shard, with
/// barrier snapshots, divergence detection and rollback-replay
/// recovery, under the same supervisor as process isolation.
///
/// The shard threads live as long as the runner: its first frame
/// spawns them and builds their engines, and every later frame resets
/// them to power-on. Concurrent [`run_frame`](Self::run_frame) calls
/// take turns on the one fleet. Dropping the runner shuts every shard
/// thread down and joins it.
pub struct PartitionRunner<'a, E: Engine> {
    parts: &'a PartitionedNetlist,
    /// Each shard's worker view, built once for every frame.
    specs: Vec<Arc<WorkerSpec>>,
    settings: ProcConfig,
    worker: WorkerConfig,
    /// The shard threads, once the first frame has spawned them.
    live: Mutex<Option<LiveFleet<Threads<E>>>>,
}

impl<'a, E> PartitionRunner<'a, E>
where
    E: Engine + Send + 'static,
    E::Snapshot: Clone + Send + 'static,
{
    /// Creates a runner over an existing partition. No thread starts
    /// before the first frame.
    #[must_use]
    pub fn new(parts: &'a PartitionedNetlist, config: RunnerConfig) -> Self {
        let specs = (0..parts.parts())
            .filter_map(|w| WorkerSpec::from_cut(parts, w).ok().map(Arc::new))
            .collect();
        let budget = config.batch_budget.unwrap_or_else(|| {
            let wall = config.watchdog * 4 + Duration::from_millis(500);
            u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX)
        });
        let workers = u32::try_from(parts.parts()).unwrap_or(u32::MAX);
        let settings = ProcConfig {
            snapshot_interval: config.snapshot_interval,
            // No heartbeat reaches the supervisor from a thread, so a
            // worker's silence window is the batch-collection budget.
            liveness: Duration::from_nanos(budget),
            // Every recovery may respawn every worker.
            max_respawns: workers.saturating_mul(config.max_recoveries.saturating_add(1)),
            max_recoveries: config.max_recoveries,
            clock: config.clock,
            ..ProcConfig::default()
        };
        let worker = WorkerConfig {
            // An idle shard thread waits for the next frame however
            // long it takes; shutdown ends it.
            idle_timeout: None,
            exchange_timeout: config.watchdog,
            event_cap: config.event_cap,
            ..WorkerConfig::default()
        };
        PartitionRunner { parts, specs, settings, worker, live: Mutex::new(None) }
    }

    /// Runs one frame to completion.
    ///
    /// `oracle`, when supplied, is checked at every barrier (the
    /// duplicate-with-compare detector for SEU chaos): a mismatch
    /// rolls the frame back like any other detection. `golden` is the
    /// terminal degradation rung.
    ///
    /// # Errors
    ///
    /// * [`PartitionError::Stimulus`] if the stimulus does not cover
    ///   every shard input for every cycle.
    /// * [`PartitionError::Exhausted`] if every rung fails.
    pub fn run_frame(
        &self,
        stim: &Stimulus,
        oracle: Option<&FrameOutputs>,
        chaos: &ChaosPlan,
        golden: Option<GoldenFallback<'_>>,
    ) -> Result<FrameReport, PartitionError> {
        check_stimulus(self.parts, stim)?;
        // A frame that panicked may have left the fleet mid-batch. The
        // next frame's power-on rollback, under a new generation, makes
        // any such state valid again, so the guard is safe to reuse.
        let mut live = self.live.lock().unwrap_or_else(PoisonError::into_inner);
        let fleet = live.get_or_insert_with(|| {
            let threads = Threads::new(self.parts, &self.specs, self.worker.clone());
            LiveFleet::new(threads, self.parts.parts())
        });
        let mut supervisor = Supervisor::new(self.parts, fleet, &self.settings, chaos, oracle);
        if let Ok(report) = supervisor.run(stim) {
            return Ok(FrameReport {
                outputs: report.outputs,
                rung: Rung::Partitioned,
                recoveries: report.recoveries,
                detections: report.detections,
                barriers: report.barriers,
                replayed_cycles: report.replayed_cycles,
            });
        }
        // Rung 2: one engine over the unsplit netlist, no faults.
        // Rung 3: the caller's golden model.
        let mut report = FrameReport {
            outputs: FrameOutputs::default(),
            rung: Rung::SingleEngine,
            recoveries: supervisor.recoveries,
            detections: mem::take(&mut supervisor.detections),
            barriers: 0,
            replayed_cycles: supervisor.replayed,
        };
        // The fleet that failed goes, joining its threads, so the next
        // frame starts on a fresh one.
        *live = None;
        drop(live);
        match run_single::<E>(&self.parts.original, stim, self.worker.event_cap) {
            Ok(outputs) => report.outputs = outputs,
            Err(e) => {
                report.detections.push(Detection {
                    worker: None,
                    batch_start: 0,
                    kind: DetectionKind::Engine(e.to_string()),
                });
                let Some(outputs) = golden.and_then(|g| g(stim)) else {
                    return Err(PartitionError::Exhausted {
                        detail: format!(
                            "{} detections, single-engine rung failed: {e}",
                            report.detections.len()
                        ),
                    });
                };
                report.outputs = outputs;
                report.rung = Rung::Golden;
            }
        }
        Ok(report)
    }
}

/// Every shard input must have a value for every cycle; shared by the
/// thread-mode runner and the process supervisor.
pub(crate) fn check_stimulus(
    parts: &PartitionedNetlist,
    stim: &Stimulus,
) -> Result<(), PartitionError> {
    for shard in &parts.shards {
        for input in &shard.inputs {
            let Some(values) = stim.inputs.get(input) else {
                return Err(PartitionError::Stimulus {
                    detail: format!("no values for input port '{input}'"),
                });
            };
            if (values.len() as u64) < stim.cycles {
                return Err(PartitionError::Stimulus {
                    detail: format!(
                        "input '{input}' has {} values for {} cycles",
                        values.len(),
                        stim.cycles
                    ),
                });
            }
        }
    }
    Ok(())
}

/// Runs one frame on a single engine over an unsplit netlist — the
/// reference the differential suite compares against, and the
/// runner's second degradation rung.
///
/// # Errors
///
/// Propagates engine construction/simulation errors.
pub fn run_single<E: Engine>(
    netlist: &Netlist,
    stim: &Stimulus,
    event_cap: Option<u64>,
) -> Result<FrameOutputs, PartitionError> {
    let output_ports: Vec<String> = netlist
        .ports()
        .values()
        .filter(|p| p.direction == PortDirection::Output)
        .map(|p| p.name.clone())
        .collect();
    let mut engine = E::from_netlist(netlist.clone())?;
    if let Some(cap) = event_cap {
        engine.set_event_cap(cap);
    }
    let mut outputs = FrameOutputs::default();
    for port in &output_ports {
        outputs.ports.insert(port.clone(), Vec::with_capacity(stim.cycles as usize));
    }
    for t in 0..stim.cycles {
        for (port, values) in &stim.inputs {
            if netlist.ports().contains_key(port) {
                engine.set_input(port, values[t as usize])?;
            }
        }
        engine.try_tick()?;
        for port in &output_ports {
            let v = engine.peek(port)?;
            outputs.ports.get_mut(port).expect("registered").push(v);
        }
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{partition, CutOptions};
    use dwt_arch::designs::Design;
    use dwt_rtl::sim::Simulator;

    /// Two recoveries in one frame: the first rolls both workers back,
    /// the second respawns a killed worker while its peer survives.
    /// Values sent before either rollback can reach an inbox after it;
    /// only the generation tags keep them out of the replay. Whether
    /// one does is a race, so the frame runs a few times.
    #[test]
    fn one_frame_survives_two_rollbacks_bit_exact() {
        let built = Design::D2.build().expect("design builds");
        let cycles = 96;
        let stream = |k: i64| (0..cycles as i64).map(|c| (c * k + 11) % 256 - 128).collect();
        let inputs =
            BTreeMap::from([("in_even".into(), stream(37)), ("in_odd".into(), stream(91))]);
        let stim = Stimulus { cycles, inputs };
        let reference = run_single::<Simulator>(&built.netlist, &stim, None).expect("reference");
        let cut = partition(&built.netlist, 2, &CutOptions::default()).expect("cut");
        let (from, to) = (cut.links[0].from, cut.links[0].to);
        let chaos = ChaosPlan {
            corruptions: vec![Corruption { from, to, cycle: 10, stealth: false }],
            kills: vec![(1, 40)],
            ..ChaosPlan::default()
        };
        let config = RunnerConfig { snapshot_interval: 32, ..RunnerConfig::default() };
        let runner = PartitionRunner::<Simulator>::new(&cut, config);
        for _ in 0..4 {
            let report = runner.run_frame(&stim, None, &chaos, None).expect("frame completes");
            let kinds: Vec<&DetectionKind> = report.detections.iter().map(|d| &d.kind).collect();
            assert_eq!(report.rung, Rung::Partitioned, "{kinds:?}");
            assert!(report.recoveries >= 2, "{} recoveries: {kinds:?}", report.recoveries);
            assert!(kinds.contains(&&DetectionKind::Checksum), "{kinds:?}");
            assert!(kinds.iter().any(|k| matches!(k, DetectionKind::Crash | DetectionKind::Stall)));
            assert_eq!(report.outputs, reference, "post-recovery outputs diverged");
        }
    }
}
