//! The partition supervisor and its workers: one protocol, two
//! isolations.
//!
//! * **Workers** ([`run_worker`]) rebuild their shard, snapshot its
//!   engine as built, announce themselves with a [`Frame::Hello`]
//!   carrying the cut
//!   [`fingerprint`](PartitionedNetlist::fingerprint), and then speak
//!   the framed wire protocol: batches in, boundary values and barrier
//!   reports out, heartbeats while executing. Each link has a
//!   [`LinkSchedule`]. Virtual cycle `k` stages the primary inputs,
//!   receives every downstream link (from a lower-numbered shard), ticks,
//!   sends every dynamic out-link, then receives every upstream link
//!   (from a higher-numbered shard) and settles only if it had one;
//!   every receive is verified (sequence and checksum). A shard waits
//!   before its tick only on shards below it, so no link graph can
//!   deadlock. A prologue exchange on every link before the first tick
//!   hands out the power-on boundary values, and is the only exchange
//!   a static (constant-driven) link ever makes.
//! * **The supervisor** hands out batches of `snapshot_interval`
//!   cycles and commits a barrier only when every report arrived, both
//!   ends of every link hash identically, and — when an oracle is
//!   supplied — the outputs match it. It polices per-worker liveness
//!   on a [`Clock`]-driven deadline and, for fleets whose workers send
//!   no heartbeat, reads each worker's progress count instead and flags
//!   a worker that shows no progress for the exchange timeout as a
//!   straggler.
//! * **Recovery** is generation-tagged rollback. Any crash, stall,
//!   protocol violation, checksum or sequence fault, hash or oracle
//!   mismatch aborts the batch: the supervisor bumps the generation,
//!   respawns dead workers, restores everyone from the last
//!   consistent barrier — the durable [`RunStore`] when configured,
//!   the in-memory barrier otherwise, and the worker's power-on
//!   snapshot before the first — and replays. Both ends drop frames
//!   tagged with older generations, so a stale in-flight boundary
//!   value can never alias its replayed successor. A worker whose
//!   connection closes mid-rollback is respawned at once.
//! * **Fleet lifetime**: the fleet, its event channel, connection ids
//!   and generation live in a `LiveFleet`, which may outlive the
//!   per-frame `Supervisor` on top. A fleet's first frame spawns it;
//!   a later one starts with a power-on rollback, so a
//!   [`PartitionRunner`](crate::runner::PartitionRunner) keeps its
//!   shard threads from frame to frame. A [`ProcSupervisor`] run
//!   launches and reaps its own processes.
//! * **Isolation** is a `Fleet`. [`ProcSupervisor`] forks one
//!   `dwt_partition_worker` OS process per shard and is a hub: boundary
//!   frames come to it over Unix-domain sockets and it forwards them,
//!   rewriting the link index from the producer's numbering to the
//!   consumer's. [`PartitionRunner`](crate::runner::PartitionRunner)
//!   runs the same [`run_worker`] loop on one thread per shard, whose
//!   links carry boundary values straight to the consumer (see
//!   [`transport`](crate::transport) for why).
//! * **Durability**: with a store configured, every committed barrier
//!   is written via tmp-file + fsync + atomic rename. A supervisor that
//!   is itself killed can be restarted with [`ProcConfig::resume`] and
//!   continues from the newest consistent barrier instead of cycle 0; a
//!   torn record (crash mid-write) costs exactly one barrier of replay.
//!
//! Engine snapshots cross to the supervisor as
//! [`PortableSnapshot`] bytes — backend-tagged and versioned, so a
//! worker restoring on the wrong backend fails loudly, not silently.

use std::collections::VecDeque;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dwt_pool::clock::{Clock, Deadline, MonotonicClock};
use dwt_recover::injector::{FaultInjector, Lane};
use dwt_recover::seu::PoissonSeuBuilder;
use dwt_rtl::cell::CellKind;
use dwt_rtl::engine::{Engine, PortableSnapshot};
use dwt_rtl::fault::FaultSpec;
use dwt_rtl::netlist::Netlist;

use crate::channel::{hash_seed, BoundaryMsg, LinkFault};
use crate::cut::{BoundaryLink, PartitionedNetlist};
use crate::error::PartitionError;
use crate::runner::{check_stimulus, ChaosPlan, Detection, DetectionKind, FrameOutputs, Stimulus};
use crate::store::{BarrierRecord, RunStore, WorkerBlob};
use crate::transport::{Event, LinkChaos, RecvError, SocketTransport, Transport};
use crate::wire::Frame;

fn transport_err(detail: impl Into<String>) -> PartitionError {
    PartitionError::Transport { detail: detail.into() }
}

fn spawn_err(detail: impl Into<String>) -> PartitionError {
    PartitionError::Spawn { detail: detail.into() }
}

// ------------------------------------------------------------- worker

/// When a link's values must reach the consumer, derived from the cut.
/// The cutter splits between pipeline stages, so most links only ever
/// run from a lower-numbered shard to a higher one; only those that
/// run back need the consumer to wait and settle after its own tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkSchedule {
    /// Every port is driven by a constant cell: the value is exchanged
    /// once, in the batch prologue, and never changes after.
    Static,
    /// From a lower-numbered shard: received and staged before the
    /// consumer ticks, so the tick applies it.
    Downstream,
    /// From a higher-numbered shard: received after the consumer's
    /// tick and applied by a settle.
    Upstream,
}

impl LinkSchedule {
    fn of(parts: &PartitionedNetlist, link: &BoundaryLink) -> LinkSchedule {
        let original = &parts.original;
        let constant = |port: &String| {
            let cut = parts.cut_ports.get(port);
            let source = cut.and_then(|c| c.bus.bits().first()).and_then(|&n| original.driver(n));
            source.is_some_and(|d| matches!(original.cell(d).kind, CellKind::Constant { .. }))
        };
        if link.ports.iter().all(constant) {
            LinkSchedule::Static
        } else if link.from < link.to {
            LinkSchedule::Downstream
        } else {
            LinkSchedule::Upstream
        }
    }
}

/// Everything a worker process needs to rebuild its shard.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Shard index.
    pub worker: usize,
    /// The shard netlist.
    pub netlist: Netlist,
    /// Primary input ports this shard needs fed every cycle.
    pub inputs: Vec<String>,
    /// Primary output ports this shard owns.
    pub outputs: Vec<String>,
    /// Ports per outgoing link, in the supervisor's link order.
    pub out_ports: Vec<Vec<String>>,
    /// Schedule per outgoing link, parallel to `out_ports`.
    pub out_schedule: Vec<LinkSchedule>,
    /// Ports per incoming link, in the supervisor's link order.
    pub in_ports: Vec<Vec<String>>,
    /// Schedule per incoming link, parallel to `in_ports`.
    pub in_schedule: Vec<LinkSchedule>,
    /// Cut fingerprint, announced at admission.
    pub fingerprint: u64,
}

impl WorkerSpec {
    /// Extracts worker `worker`'s view of a partition. Both sides
    /// derive link order from the same iteration over
    /// [`PartitionedNetlist::links`], so the out/in indices agree
    /// without negotiation.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Spawn`] if the shard index is out of range.
    pub fn from_cut(
        parts: &PartitionedNetlist,
        worker: usize,
    ) -> Result<WorkerSpec, PartitionError> {
        if worker >= parts.parts() {
            return Err(spawn_err(format!("shard {worker} of a {}-way cut", parts.parts())));
        }
        let shard = &parts.shards[worker];
        let outs = parts.links.iter().filter(|l| l.from == worker);
        let ins = parts.links.iter().filter(|l| l.to == worker);
        Ok(WorkerSpec {
            worker,
            netlist: shard.netlist.clone(),
            inputs: shard.inputs.clone(),
            outputs: shard.outputs.clone(),
            out_ports: outs.clone().map(|l| l.ports.clone()).collect(),
            out_schedule: outs.map(|l| LinkSchedule::of(parts, l)).collect(),
            in_ports: ins.clone().map(|l| l.ports.clone()).collect(),
            in_schedule: ins.map(|l| LinkSchedule::of(parts, l)).collect(),
            fingerprint: parts.fingerprint(),
        })
    }
}

/// Worker-side tuning.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Send a heartbeat every this many cycles while executing.
    pub heartbeat_every: u64,
    /// How long to wait for the next control frame before concluding
    /// the supervisor is gone. `None` waits with no deadline: a thread
    /// worker idles between frames until it is told to shut down or its
    /// inbox closes, while a worker process keeps a deadline so a dead
    /// supervisor leaves no orphan behind.
    pub idle_timeout: Option<Duration>,
    /// How long to wait for one boundary value mid-exchange before
    /// reporting a stall.
    pub exchange_timeout: Duration,
    /// Optional per-cycle event cap forwarded to the engine.
    pub event_cap: Option<u64>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            heartbeat_every: 1,
            idle_timeout: Some(Duration::from_secs(30)),
            exchange_timeout: Duration::from_secs(5),
            event_cap: None,
        }
    }
}

/// Per-link state on the worker side.
struct OutSide {
    seq: u64,
    hash: u64,
}

struct InSide {
    seq: u64,
    hash: u64,
    /// Values routed to us that we have not consumed yet (a fast
    /// producer may run ahead; per-link FIFO order is preserved).
    queue: VecDeque<BoundaryMsg>,
}

/// Why a batch stopped short of its barrier report.
enum Stop {
    /// Detected here: send a fault frame, then idle until rollback.
    Fault(DetectionKind),
    /// A rollback or shutdown preempted the batch.
    Control(Box<Frame>),
    /// The transport failed: the worker exits.
    Fatal(PartitionError),
}

impl From<PartitionError> for Stop {
    fn from(e: PartitionError) -> Stop {
        Stop::Fatal(e)
    }
}

impl From<dwt_rtl::Error> for Stop {
    fn from(e: dwt_rtl::Error) -> Stop {
        Stop::Fault(DetectionKind::Engine(e.to_string()))
    }
}

struct ProcWorker<'a, E: Engine> {
    spec: &'a WorkerSpec,
    config: &'a WorkerConfig,
    engine: E,
    /// The engine as built. A snapshot holds registers, RAM, staged
    /// inputs and armed faults, so restoring this one is a full
    /// power-on reset, without building the engine again.
    power_on: E::Snapshot,
    out: Vec<OutSide>,
    inn: Vec<InSide>,
    generation: u64,
}

impl<'a, E: Engine> ProcWorker<'a, E> {
    fn new(spec: &'a WorkerSpec, config: &'a WorkerConfig) -> Result<Self, PartitionError> {
        let mut engine = E::from_netlist(spec.netlist.clone())?;
        if let Some(cap) = config.event_cap {
            engine.set_event_cap(cap);
        }
        let power_on = engine.snapshot();
        let (out, inn) = (Vec::new(), Vec::new());
        let mut worker = ProcWorker { spec, config, engine, power_on, out, inn, generation: 0 };
        worker.reset_links();
        Ok(worker)
    }

    /// Both ends reset link state together (power-on, rollback,
    /// resume), so running hashes always accumulate from a shared
    /// origin and barrier crosschecks stay meaningful.
    fn reset_links(&mut self) {
        self.out =
            self.spec.out_ports.iter().map(|_| OutSide { seq: 0, hash: hash_seed() }).collect();
        self.inn = self
            .spec
            .in_ports
            .iter()
            .map(|_| InSide { seq: 0, hash: hash_seed(), queue: VecDeque::new() })
            .collect();
    }

    /// Settled values of `ports`. A port the engine does not know is an
    /// engine fault, never a silent zero.
    fn peek_all(&self, ports: &[String]) -> Result<Vec<i64>, Stop> {
        Ok(ports.iter().map(|p| self.engine.peek(p)).collect::<Result<_, _>>()?)
    }

    /// Sends the `__cut` outputs on every out-link whose schedule
    /// `due` selects.
    fn send_links<T: Transport>(
        &mut self,
        transport: &mut T,
        cycle: u64,
        due: impl Fn(LinkSchedule) -> bool,
    ) -> Result<(), Stop> {
        for li in 0..self.out.len() {
            if !due(self.spec.out_schedule[li]) {
                continue;
            }
            let values = self.peek_all(&self.spec.out_ports[li])?;
            let link = &mut self.out[li];
            let msg = BoundaryMsg::new(link.seq, cycle, values);
            link.hash = msg.fold_into(link.hash);
            link.seq += 1;
            transport.send(&Frame::Boundary {
                generation: self.generation,
                link: u32::try_from(li).unwrap_or(u32::MAX),
                msg,
            })?;
        }
        Ok(())
    }

    /// Receives, verifies and stages one value on every in-link whose
    /// schedule `due` selects.
    fn recv_links<T: Transport>(
        &mut self,
        transport: &mut T,
        due: impl Fn(LinkSchedule) -> bool,
    ) -> Result<(), Stop> {
        for li in 0..self.inn.len() {
            if due(self.spec.in_schedule[li]) {
                let msg = self.recv_boundary(transport, li)?;
                self.stage_one(li, &msg)?;
            }
        }
        Ok(())
    }

    /// The next routed boundary value for in-link `li`.
    fn recv_boundary<T: Transport>(
        &mut self,
        transport: &mut T,
        li: usize,
    ) -> Result<BoundaryMsg, Stop> {
        loop {
            if let Some(msg) = self.inn[li].queue.pop_front() {
                return Ok(msg);
            }
            match transport.recv_timeout(self.config.exchange_timeout) {
                Ok(Frame::Boundary { generation, link, msg }) => {
                    if generation != self.generation {
                        continue; // stale, pre-rollback
                    }
                    match self.inn.get_mut(link as usize) {
                        Some(side) => side.queue.push_back(msg),
                        None => return Err(Stop::Fault(DetectionKind::Sequence)),
                    }
                }
                Ok(frame @ (Frame::Rollback { .. } | Frame::Shutdown)) => {
                    return Err(Stop::Control(Box::new(frame)))
                }
                Ok(_) => continue, // unexpected control frame: drop
                Err(RecvError::Timeout) => return Err(Stop::Fault(DetectionKind::Stall)),
                Err(RecvError::Disconnected) => {
                    return Err(Stop::Fatal(transport_err("supervisor disconnected mid-exchange")))
                }
                Err(RecvError::Protocol(e)) => return Err(Stop::Fatal(e)),
            }
        }
    }

    /// Verifies one boundary message and stages its values.
    fn stage_one(&mut self, li: usize, msg: &BoundaryMsg) -> Result<(), Stop> {
        if let Err(fault) = msg.verify(self.inn[li].seq) {
            return Err(Stop::Fault(match fault {
                LinkFault::Sequence { .. } => DetectionKind::Sequence,
                LinkFault::Checksum { .. } => DetectionKind::Checksum,
            }));
        }
        let side = &mut self.inn[li];
        side.hash = msg.fold_into(side.hash);
        side.seq += 1;
        for (port, &value) in self.spec.in_ports[li].iter().zip(&msg.values) {
            if self.engine.set_input(port, value).is_err() {
                return Err(Stop::Fault(DetectionKind::Checksum));
            }
        }
        Ok(())
    }

    /// Runs one batch and sends its barrier report, or a fault frame.
    /// Returns the control frame that preempted it, if one did.
    #[allow(clippy::too_many_arguments)]
    fn run_batch<T: Transport>(
        &mut self,
        transport: &mut T,
        start: u64,
        cycles: u64,
        prologue: bool,
        inputs: &[Vec<i64>],
        faults: &[(u64, FaultSpec)],
        stall: Option<(u64, u64)>,
    ) -> Result<Option<Frame>, PartitionError> {
        let (worker, generation) = (self.spec.worker as u32, self.generation);
        let report =
            match self.run_cycles(transport, start, cycles, prologue, inputs, faults, stall) {
                Ok(outputs) => Frame::BarrierReport {
                    worker,
                    generation,
                    start,
                    cycles,
                    outputs,
                    out_hashes: self.out.iter().map(|l| l.hash).collect(),
                    in_hashes: self.inn.iter().map(|l| l.hash).collect(),
                    snapshot: self.engine.snapshot().to_bytes(),
                },
                Err(Stop::Fault(kind)) => Frame::Fault { worker, generation, kind },
                Err(Stop::Control(frame)) => return Ok(Some(*frame)),
                Err(Stop::Fatal(e)) => return Err(e),
            };
        transport.send(&report)?;
        Ok(None)
    }

    /// Virtual cycles `start..start + cycles`; returns one output row
    /// per cycle.
    #[allow(clippy::too_many_arguments)]
    fn run_cycles<T: Transport>(
        &mut self,
        transport: &mut T,
        start: u64,
        cycles: u64,
        prologue: bool,
        inputs: &[Vec<i64>],
        faults: &[(u64, FaultSpec)],
        stall: Option<(u64, u64)>,
    ) -> Result<Vec<Vec<i64>>, Stop> {
        use LinkSchedule::{Downstream, Static, Upstream};
        if prologue {
            // The power-on boundary values on every link, and the only
            // exchange a static link ever makes. All sends precede all
            // receives, so no link graph can deadlock here.
            self.send_links(transport, start, |_| true)?;
            self.recv_links(transport, |_| true)?;
            self.engine.try_settle()?;
        }
        let settle = self.spec.in_schedule.contains(&Upstream);
        let mut outputs = Vec::with_capacity(cycles as usize);
        for offset in 0..cycles {
            let cycle = start + offset;
            if let Some((at, millis)) = stall {
                if at == offset {
                    thread::sleep(Duration::from_millis(millis));
                }
            }
            if offset % self.config.heartbeat_every.max(1) == 0 {
                transport.send(&Frame::Heartbeat {
                    worker: self.spec.worker as u32,
                    generation: self.generation,
                    cycle,
                })?;
            }
            for (port, &value) in self.spec.inputs.iter().zip(&inputs[offset as usize]) {
                self.engine.set_input(port, value)?;
            }
            for (due, spec) in faults {
                if *due == offset {
                    self.engine.inject(&spec.clone().rebase(self.engine.cycle()))?;
                }
            }
            // Shard w waits before its tick only on shards below it,
            // and shard 0 never does, so the lockstep cannot deadlock.
            self.recv_links(transport, |s| s == Downstream)?;
            self.engine.try_tick()?;
            self.send_links(transport, cycle, |s| s != Static)?;
            self.recv_links(transport, |s| s == Upstream)?;
            if settle {
                self.engine.try_settle()?;
            }
            outputs.push(self.peek_all(&self.spec.outputs)?);
        }
        Ok(outputs)
    }

    /// Applies a rollback frame: power-on reset (empty snapshot) or
    /// restore-from-bytes, link state re-seeded either way.
    fn apply_rollback(&mut self, generation: u64, snapshot: &[u8]) -> Result<(), PartitionError> {
        self.generation = generation;
        if snapshot.is_empty() {
            self.engine.restore(&self.power_on)?;
        } else {
            let decoded = <E::Snapshot as PortableSnapshot>::from_bytes(snapshot)?;
            self.engine.restore(&decoded)?;
        }
        self.reset_links();
        Ok(())
    }
}

/// The worker's protocol loop: announce, then serve batches and
/// rollbacks until shutdown. Generic over the engine backend and the
/// transport: the `dwt_partition_worker` binary runs it over a socket,
/// thread isolation over an in-process link.
///
/// Returns `Ok(())` on a clean shutdown **or** when the supervisor
/// disappears while the worker is idle — a dead supervisor is not a
/// worker error.
///
/// # Errors
///
/// [`PartitionError::Transport`] if the supervisor goes quiet or
/// unreachable mid-protocol; engine construction/restore errors; a
/// protocol violation on the control stream.
pub fn run_worker<E, T>(
    spec: &WorkerSpec,
    transport: &mut T,
    config: &WorkerConfig,
) -> Result<(), PartitionError>
where
    E: Engine,
    T: Transport,
{
    let mut worker = ProcWorker::<E>::new(spec, config)?;
    transport.send(&Frame::Hello { worker: spec.worker as u32, fingerprint: spec.fingerprint })?;
    // A control frame that preempted a batch is handled here too.
    let mut pending: Option<Frame> = None;
    loop {
        let frame = match pending.take() {
            Some(frame) => frame,
            None => match transport.recv_timeout(config.idle_timeout.unwrap_or(Duration::MAX)) {
                Ok(frame) => frame,
                Err(RecvError::Timeout) => return Err(transport_err("supervisor went quiet")),
                Err(RecvError::Disconnected) => return Ok(()),
                Err(RecvError::Protocol(e)) => return Err(e),
            },
        };
        match frame {
            Frame::Shutdown => return Ok(()),
            Frame::Rollback { generation, cycle, snapshot } => {
                worker.apply_rollback(generation, &snapshot)?;
                transport.send(&Frame::RollbackAck {
                    worker: spec.worker as u32,
                    generation,
                    cycle,
                })?;
            }
            Frame::Batch { generation, start, cycles, prologue, inputs, faults, stall } => {
                worker.generation = generation;
                pending = worker
                    .run_batch(transport, start, cycles, prologue, &inputs, &faults, stall)?;
            }
            // Under thread isolation a producer can hand a value over
            // before this worker reads its own batch frame: keep it.
            Frame::Boundary { generation, link, msg } if generation == worker.generation => {
                if let Some(side) = worker.inn.get_mut(link as usize) {
                    side.queue.push_back(msg);
                }
            }
            // Stale boundary values (pre-rollback) or frames outside
            // their window: drop.
            _ => {}
        }
    }
}

// --------------------------------------------------------- supervisor

/// How to launch one worker process. The supervisor appends
/// `--shard <index> --socket <path>` to [`WorkerLauncher::args`].
#[derive(Debug, Clone)]
pub struct WorkerLauncher {
    /// Worker executable (e.g. the `dwt_partition_worker` bench
    /// binary).
    pub program: PathBuf,
    /// Base arguments identifying the design, part count and backend.
    pub args: Vec<String>,
}

/// Chaos directives for the process campaign. Each directive fires
/// once; after the recovery it provokes, the replay runs clean.
#[derive(Debug, Clone, Default)]
pub struct ProcChaos {
    /// `(worker, cycle)`: SIGKILL the worker's process when its
    /// heartbeat reaches that virtual cycle.
    pub kill9: Vec<(usize, u64)>,
    /// `(worker, cycle, millis)`: the worker sleeps that long before
    /// ticking — longer than the liveness window means the supervisor
    /// declares it wedged and respawns it.
    pub stalls: Vec<(usize, u64, u64)>,
    /// After committing this many barriers, truncate the newest
    /// durable record — a simulated torn write. The next rollback or
    /// resume must fall back one barrier, never fail.
    pub torn_after: Option<u64>,
}

/// Supervisor tuning.
#[derive(Clone)]
pub struct ProcConfig {
    /// Cycles per barrier.
    pub snapshot_interval: u64,
    /// A worker silent for longer than this (no frame of any kind,
    /// while its report is outstanding) is declared dead.
    pub liveness: Duration,
    /// Budget for process spawn + engine build + Hello.
    pub hello_timeout: Duration,
    /// Total worker-process respawns allowed per run.
    pub max_respawns: u32,
    /// Rollback-and-replay budget per run.
    pub max_recoveries: u32,
    /// Clock behind the liveness deadlines (ticks are nanoseconds on
    /// the production [`MonotonicClock`]).
    pub clock: Arc<dyn Clock>,
    /// Directory for the per-worker listening sockets. `None`: a fresh
    /// directory under the system temp dir — socket paths must stay
    /// short (`sun_path` is ~100 bytes), so the store dir is
    /// configured separately.
    pub sock_dir: Option<PathBuf>,
    /// Durable barrier store directory. `None`: in-memory barriers
    /// only (a supervisor crash then loses the run).
    pub store_dir: Option<PathBuf>,
    /// Resume from the newest consistent barrier in
    /// [`ProcConfig::store_dir`] instead of starting at cycle 0.
    pub resume: bool,
    /// Durable records kept per run (older ones are pruned).
    pub keep_barriers: usize,
    /// Stop cleanly (`completed: false`) after this many barrier
    /// commits — supervisor-restart tests use this to simulate a
    /// supervisor crash with a consistent store behind it.
    pub stop_after_barriers: Option<u64>,
    /// Fault-injection campaign.
    pub chaos: ProcChaos,
}

impl std::fmt::Debug for ProcConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcConfig")
            .field("snapshot_interval", &self.snapshot_interval)
            .field("liveness", &self.liveness)
            .field("hello_timeout", &self.hello_timeout)
            .field("max_respawns", &self.max_respawns)
            .field("max_recoveries", &self.max_recoveries)
            .field("sock_dir", &self.sock_dir)
            .field("store_dir", &self.store_dir)
            .field("resume", &self.resume)
            .field("keep_barriers", &self.keep_barriers)
            .field("stop_after_barriers", &self.stop_after_barriers)
            .field("chaos", &self.chaos)
            .finish_non_exhaustive()
    }
}

impl Default for ProcConfig {
    fn default() -> Self {
        ProcConfig {
            snapshot_interval: 32,
            liveness: Duration::from_secs(2),
            hello_timeout: Duration::from_secs(20),
            max_respawns: 8,
            max_recoveries: 8,
            clock: Arc::new(MonotonicClock::new()),
            sock_dir: None,
            store_dir: None,
            resume: false,
            keep_barriers: 4,
            stop_after_barriers: None,
            chaos: ProcChaos::default(),
        }
    }
}

/// Outcome of one process-mode run.
#[derive(Debug, Clone)]
pub struct ProcReport {
    /// The committed per-cycle outputs.
    pub outputs: FrameOutputs,
    /// Everything the detectors fired on.
    pub detections: Vec<Detection>,
    /// Rollback-and-replay recoveries performed.
    pub recoveries: u32,
    /// Worker processes respawned.
    pub respawns: u32,
    /// Barriers committed.
    pub barriers: u64,
    /// Cycles re-executed during replays.
    pub replayed_cycles: u64,
    /// `Some(cycle)` if the run resumed from a durable barrier.
    pub resumed_from: Option<u64>,
    /// `false` when [`ProcConfig::stop_after_barriers`] stopped the
    /// run early (outputs then cover only the committed prefix).
    pub completed: bool,
}

/// How the supervisor's workers are isolated: OS processes behind
/// sockets ([`Processes`]) or threads behind in-process links (the
/// thread fleet in [`runner`](crate::runner)). The [`Supervisor`] loop
/// on top is the same for both. Dropping a fleet stops and reaps every
/// worker it still runs.
pub(crate) trait Fleet {
    /// Starts worker `w`. Its frames reach the supervisor on `events`,
    /// tagged with `conn`.
    fn spawn(&mut self, w: usize, conn: u64, events: &Sender<Event>) -> Result<(), PartitionError>;
    /// Sends worker `w` one frame.
    fn send(&mut self, w: usize, frame: &Frame) -> Result<(), PartitionError>;
    /// Arms worker `w`'s chaos for the batch about to be handed out.
    fn arm(&mut self, w: usize, chaos: LinkChaos);
    /// How long a worker that has not reported may show no sign of life
    /// before it counts as a straggler. `None`: heartbeats police
    /// liveness instead.
    fn straggler_timeout(&self) -> Option<Duration> {
        None
    }
    /// Cycles worker `w` has started, for a fleet that keeps its
    /// workers' heartbeats to itself. A count that moves is a sign of
    /// life, as a heartbeat frame is.
    fn progress(&self, _w: usize) -> u64 {
        0
    }
    /// Worker `w`'s heartbeat reached the supervisor. Returns whether
    /// an armed kill struck it there.
    fn heartbeat(&mut self, _w: usize, _cycle: u64) -> bool {
        false
    }
    /// Stops and reaps worker `w` (idempotent).
    fn kill(&mut self, w: usize);
}

struct WorkerProc {
    child: Child,
    writer: SocketTransport,
    reader: Option<JoinHandle<()>>,
}

/// Distinguishes successive supervisor runs in one process when the
/// caller does not pin [`ProcConfig::sock_dir`].
static SOCK_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Process isolation: one `dwt_partition_worker`-style OS process per
/// shard, admitted by its Hello, read by a reader thread per socket.
struct Processes<'a> {
    launcher: &'a WorkerLauncher,
    config: &'a ProcConfig,
    fingerprint: u64,
    sock_dir: PathBuf,
    listeners: Vec<UnixListener>,
    procs: Vec<Option<WorkerProc>>,
    /// Armed kill cycle per worker: SIGKILL when its heartbeat gets
    /// there.
    kill_at: Vec<Option<u64>>,
}

impl<'a> Processes<'a> {
    fn new(
        parts: &PartitionedNetlist,
        launcher: &'a WorkerLauncher,
        config: &'a ProcConfig,
    ) -> Result<Self, PartitionError> {
        let sock_dir = config.sock_dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "dwt-proc-{}-{}",
                std::process::id(),
                SOCK_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ))
        });
        std::fs::create_dir_all(&sock_dir).map_err(|e| spawn_err(format!("socket dir: {e}")))?;
        let n = parts.parts();
        let mut listeners = Vec::with_capacity(n);
        for w in 0..n {
            let path = sock_dir.join(format!("worker-{w}.sock"));
            let _ = std::fs::remove_file(&path);
            let listener = UnixListener::bind(&path)
                .map_err(|e| spawn_err(format!("bind {}: {e}", path.display())))?;
            listener
                .set_nonblocking(true)
                .map_err(|e| spawn_err(format!("nonblocking listener: {e}")))?;
            listeners.push(listener);
        }
        Ok(Processes {
            launcher,
            config,
            fingerprint: parts.fingerprint(),
            sock_dir,
            listeners,
            procs: (0..n).map(|_| None).collect(),
            kill_at: vec![None; n],
        })
    }
}

impl Fleet for Processes<'_> {
    /// Spawns worker `w`'s process, accepts its connection, verifies
    /// its Hello, and starts its reader thread.
    fn spawn(&mut self, w: usize, conn: u64, events: &Sender<Event>) -> Result<(), PartitionError> {
        let path = self.sock_dir.join(format!("worker-{w}.sock"));
        let mut child = Command::new(&self.launcher.program)
            .args(&self.launcher.args)
            .arg("--shard")
            .arg(w.to_string())
            .arg("--socket")
            .arg(&path)
            .spawn()
            .map_err(|e| spawn_err(format!("worker {w}: {e}")))?;
        let refuse = |child: &mut Child, detail: String| {
            let _ = child.kill();
            let _ = child.wait();
            Err(spawn_err(detail))
        };
        // Non-blocking accept under a wall-clock budget: process
        // startup plus engine build can be slow in debug builds.
        let deadline = Instant::now() + self.config.hello_timeout;
        let stream = loop {
            match self.listeners[w].accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return refuse(&mut child, format!("worker {w}: no connection in time"));
                    }
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(spawn_err(format!("worker {w} exited at launch: {status}")));
                    }
                    thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return refuse(&mut child, format!("worker {w} accept: {e}")),
            }
        };
        let _ = stream.set_nonblocking(false);
        // A wedged worker must not block the hub's writes forever.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let writer_stream =
            stream.try_clone().map_err(|e| spawn_err(format!("worker {w} clone: {e}")))?;
        let mut reader = SocketTransport::new(stream);
        // Admission: the worker proves it rebuilt the same cut. Read
        // the Hello synchronously so the reader thread starts with a
        // clean stream position.
        match reader.recv_timeout(self.config.hello_timeout) {
            Ok(Frame::Hello { worker, fingerprint })
                if worker as usize == w && fingerprint == self.fingerprint => {}
            Ok(Frame::Hello { fingerprint, .. }) => {
                return refuse(
                    &mut child,
                    format!(
                        "worker {w} admission refused: fingerprint {fingerprint:#x} != {:#x}",
                        self.fingerprint
                    ),
                );
            }
            Ok(other) => {
                return refuse(&mut child, format!("worker {w} sent {other:?} instead of Hello"))
            }
            Err(e) => return refuse(&mut child, format!("worker {w} hello: {e}")),
        }
        let tx = events.clone();
        let handle = thread::Builder::new()
            .name(format!("dwt-proc-reader-{w}"))
            .spawn(move || reader_main(w, conn, reader, &tx))
            .map_err(|e| spawn_err(format!("reader thread: {e}")))?;
        self.procs[w] = Some(WorkerProc {
            child,
            writer: SocketTransport::new(writer_stream),
            reader: Some(handle),
        });
        Ok(())
    }

    fn send(&mut self, w: usize, frame: &Frame) -> Result<(), PartitionError> {
        match &mut self.procs[w] {
            Some(proc) => proc.writer.send(frame),
            None => Err(transport_err(format!("worker {w} is not running"))),
        }
    }

    fn arm(&mut self, w: usize, chaos: LinkChaos) {
        self.kill_at[w] = chaos.kill_at;
    }

    fn heartbeat(&mut self, w: usize, cycle: u64) -> bool {
        if self.kill_at[w].is_none_or(|kill| cycle < kill) {
            return false;
        }
        self.kill_at[w] = None;
        // SIGKILL mid-window; the reader thread reports the close.
        if let Some(proc) = &mut self.procs[w] {
            let _ = proc.child.kill();
        }
        true
    }

    /// SIGKILLs and reaps worker `w`.
    fn kill(&mut self, w: usize) {
        if let Some(mut proc) = self.procs[w].take() {
            let _ = proc.child.kill();
            let _ = proc.child.wait();
            if let Some(handle) = proc.reader.take() {
                let _ = handle.join();
            }
        }
    }
}

impl Drop for Processes<'_> {
    /// Clean teardown: shutdown frames, a short grace period, SIGKILL
    /// stragglers, reap everything, remove the socket dir if we own
    /// it.
    fn drop(&mut self) {
        for proc in self.procs.iter_mut().flatten() {
            let _ = proc.writer.send(&Frame::Shutdown);
        }
        let grace = Instant::now() + Duration::from_millis(500);
        for proc in self.procs.iter_mut().flatten() {
            while Instant::now() < grace && matches!(proc.child.try_wait(), Ok(None)) {
                thread::sleep(Duration::from_millis(10));
            }
        }
        for w in 0..self.procs.len() {
            self.kill(w);
        }
        self.listeners.clear();
        if self.config.sock_dir.is_none() {
            let _ = std::fs::remove_dir_all(&self.sock_dir);
        }
    }
}

/// Supervises one OS process per shard. See the module docs for the
/// protocol and recovery model.
pub struct ProcSupervisor<'a> {
    parts: &'a PartitionedNetlist,
    launcher: WorkerLauncher,
    config: ProcConfig,
}

impl<'a> ProcSupervisor<'a> {
    /// Creates a supervisor over an existing partition.
    #[must_use]
    pub fn new(
        parts: &'a PartitionedNetlist,
        launcher: WorkerLauncher,
        config: ProcConfig,
    ) -> Self {
        ProcSupervisor { parts, launcher, config }
    }

    /// Runs one frame across the worker processes.
    ///
    /// # Errors
    ///
    /// * [`PartitionError::Stimulus`] for incomplete stimulus.
    /// * [`PartitionError::Spawn`] if a worker cannot be launched or
    ///   fails admission.
    /// * [`PartitionError::Exhausted`] when the recovery or respawn
    ///   budget runs out (the caller decides how to degrade).
    /// * [`PartitionError::Store`] on durable-store failures.
    pub fn run(&self, stim: &Stimulus) -> Result<ProcReport, PartitionError> {
        check_stimulus(self.parts, stim)?;
        let chaos = ChaosPlan {
            kills: self.config.chaos.kill9.clone(),
            stalls: (self.config.chaos.stalls.iter())
                .map(|&(w, cycle, millis)| (w, cycle, Duration::from_millis(millis)))
                .collect(),
            ..ChaosPlan::default()
        };
        // The processes live for this one run: dropping the fleet at
        // its end shuts them down.
        let fleet = Processes::new(self.parts, &self.launcher, &self.config)?;
        let mut live = LiveFleet::new(fleet, self.parts.parts());
        let mut supervisor = Supervisor::new(self.parts, &mut live, &self.config, &chaos, None);
        supervisor.run(stim)
    }
}

struct Report {
    outputs: Vec<Vec<i64>>,
    out_hashes: Vec<u64>,
    in_hashes: Vec<u64>,
    snapshot: Vec<u8>,
}

/// Where a rollback restores from.
enum Target {
    Durable(BarrierRecord),
    Memory(Vec<Vec<u8>>),
    PowerOn,
}

/// `routes[w][out_idx]` is `(consumer, consumer's in_idx)`: both ends
/// number their links in [`PartitionedNetlist::links`] order.
pub(crate) fn out_routes(parts: &PartitionedNetlist) -> Vec<Vec<(usize, u32)>> {
    let mut routes = vec![Vec::new(); parts.parts()];
    let mut in_counts = vec![0u32; parts.parts()];
    for link in &parts.links {
        routes[link.from].push((link.to, in_counts[link.to]));
        in_counts[link.to] += 1;
    }
    routes
}

/// The part of a supervisor that outlives a frame: the fleet and what
/// tells its workers' traffic apart. A
/// [`PartitionRunner`](crate::runner::PartitionRunner) keeps one for
/// its whole life, so only its first frame spawns workers and every
/// later one starts with a power-on rollback; a [`ProcSupervisor`] run
/// builds its own.
pub(crate) struct LiveFleet<F> {
    fleet: F,
    event_tx: Sender<Event>,
    events: Receiver<Event>,
    /// Connection id per worker; events from an older connection of a
    /// respawned worker are dropped by tag.
    conns: Vec<u64>,
    alive: Vec<bool>,
    /// Zero until the fleet is first launched.
    next_conn: u64,
    /// Rollback generation. It keeps rising from frame to frame, so a
    /// value left in flight by an earlier frame's aborted batch is
    /// dropped by its tag.
    generation: u64,
}

impl<F> LiveFleet<F> {
    pub(crate) fn new(fleet: F, workers: usize) -> Self {
        let (event_tx, events) = mpsc::channel();
        LiveFleet {
            fleet,
            event_tx,
            events,
            conns: vec![0; workers],
            alive: vec![false; workers],
            next_conn: 0,
            generation: 0,
        }
    }
}

/// The one partition supervisor: batch hand-out, barrier check,
/// generation-tagged rollback and respawn, over a [`Fleet`] of either
/// isolation. It lives for one frame, on a [`LiveFleet`] that may
/// outlive it.
pub(crate) struct Supervisor<'a, F: Fleet> {
    parts: &'a PartitionedNetlist,
    live: &'a mut LiveFleet<F>,
    config: &'a ProcConfig,
    chaos: &'a ChaosPlan,
    /// Checked at every barrier when supplied.
    oracle: Option<&'a FrameOutputs>,
    fingerprint: u64,
    store: Option<RunStore>,
    /// Clock tick of the last frame seen from each worker.
    last_seen: Vec<u64>,
    out_route: Vec<Vec<(usize, u32)>>,
    liveness_ticks: u64,
    fired_kills: Vec<bool>,
    fired_stalls: Vec<bool>,
    fired_corruptions: Vec<bool>,
    /// Per-worker SEU arrivals, keyed by a monotone attempt clock so a
    /// strike never recurs on replay.
    seu: Vec<Option<Box<dyn FaultInjector>>>,
    attempt_clock: u64,
    torn_fired: bool,
    respawns: u32,
    pub(crate) detections: Vec<Detection>,
    pub(crate) recoveries: u32,
    pub(crate) replayed: u64,
}

impl<'a, F: Fleet> Supervisor<'a, F> {
    pub(crate) fn new(
        parts: &'a PartitionedNetlist,
        live: &'a mut LiveFleet<F>,
        config: &'a ProcConfig,
        chaos: &'a ChaosPlan,
        oracle: Option<&'a FrameOutputs>,
    ) -> Self {
        let n = parts.parts();
        let seu = (0..n)
            .map(|w| {
                let plan = chaos.seu.as_ref()?;
                let netlist = &parts.shards[w].netlist;
                PoissonSeuBuilder::new()
                    .rate(plan.rate)
                    .stuck_fraction(0.0)
                    .common_mode(0.0)
                    .seed(plan.seed.wrapping_add(w as u64).wrapping_mul(0x9e37_79b9))
                    .build(netlist, netlist)
                    .ok()
                    .map(|inj| Box::new(inj) as Box<dyn FaultInjector>)
            })
            .collect();
        Supervisor {
            parts,
            live,
            config,
            chaos,
            oracle,
            fingerprint: parts.fingerprint(),
            store: None,
            last_seen: vec![0; n],
            out_route: out_routes(parts),
            liveness_ticks: u64::try_from(config.liveness.as_nanos()).unwrap_or(u64::MAX),
            fired_kills: vec![false; chaos.kills.len()],
            fired_stalls: vec![false; chaos.stalls.len()],
            fired_corruptions: vec![false; chaos.corruptions.len()],
            seu,
            attempt_clock: 0,
            torn_fired: false,
            respawns: 0,
            detections: Vec::new(),
            recoveries: 0,
            replayed: 0,
        }
    }

    fn now(&self) -> u64 {
        self.config.clock.now()
    }

    fn detect(&mut self, worker: Option<usize>, batch_start: u64, kind: DetectionKind) {
        self.detections.push(Detection { worker, batch_start, kind });
    }

    fn spawn(&mut self, w: usize) -> Result<(), PartitionError> {
        let live = &mut *self.live;
        let conn = live.next_conn;
        live.next_conn += 1;
        live.fleet.spawn(w, conn, &live.event_tx)?;
        live.conns[w] = conn;
        live.alive[w] = true;
        self.last_seen[w] = self.now();
        Ok(())
    }

    fn kill(&mut self, w: usize) {
        self.live.alive[w] = false;
        self.live.fleet.kill(w);
    }

    /// Respawns worker `w` against the bounded budget.
    fn respawn(&mut self, w: usize) -> Result<(), PartitionError> {
        self.kill(w);
        self.respawns += 1;
        if self.respawns > self.config.max_respawns {
            return Err(PartitionError::Exhausted {
                detail: format!("respawn budget ({}) exhausted", self.config.max_respawns),
            });
        }
        self.spawn(w)
    }

    #[allow(clippy::too_many_lines)]
    pub(crate) fn run(&mut self, stim: &Stimulus) -> Result<ProcReport, PartitionError> {
        let n = self.parts.parts();
        let mut committed = FrameOutputs::default();
        for shard in &self.parts.shards {
            for out in &shard.outputs {
                committed.ports.insert(out.clone(), Vec::new());
            }
        }
        let mut cursor: u64 = 0;
        let mut snapshots: Option<Vec<Vec<u8>>> = None;
        let mut resumed_from = None;
        if let Some(dir) = &self.config.store_dir {
            self.store = Some(RunStore::open(dir.clone())?);
        }
        if self.config.resume {
            let store = self.store.as_ref().ok_or_else(|| PartitionError::Store {
                detail: "resume requested without a store directory".into(),
            })?;
            if let Some(record) = store.latest_consistent()? {
                if record.fingerprint != self.fingerprint {
                    return Err(PartitionError::Store {
                        detail: format!(
                            "store fingerprint {:#x} does not match this cut ({:#x})",
                            record.fingerprint, self.fingerprint
                        ),
                    });
                }
                cursor = record.cycle;
                committed.ports = record.outputs.clone();
                snapshots = Some(record.workers.iter().map(|b| b.snapshot.clone()).collect());
                resumed_from = Some(record.cycle);
            }
        }

        // A fleet's first frame launches it; a later frame resets the
        // fleet to power-on, respawning any worker that died since. A
        // resumed run seeds every worker from the durable barrier
        // instead.
        let launched = self.live.next_conn > 0;
        if !launched {
            for w in 0..n {
                self.spawn(w)?;
            }
        }
        if let Some(blobs) = snapshots.clone() {
            let blobs: Vec<Option<Vec<u8>>> = blobs.into_iter().map(Some).collect();
            self.rollback_to(cursor, &blobs)?;
        } else if launched {
            self.rollback_to(0, &vec![None; n])?;
        }

        let mut barriers: u64 = 0;
        while cursor < stim.cycles {
            let batch_len = self.config.snapshot_interval.min(stim.cycles - cursor);
            let prologue = cursor == 0 && snapshots.is_none();
            self.send_batches(stim, cursor, batch_len, prologue);
            let reports = self.collect_batch(cursor).filter(|r| self.barrier_holds(cursor, r));

            if let Some(reports) = reports {
                let mut blobs = Vec::with_capacity(n);
                for (w, report) in reports.into_iter().enumerate() {
                    for (i, port) in self.parts.shards[w].outputs.iter().enumerate() {
                        let sink = committed.ports.get_mut(port).expect("port registered");
                        sink.extend(report.outputs.iter().map(|row| row[i]));
                    }
                    blobs.push(WorkerBlob {
                        snapshot: report.snapshot,
                        out_links: report.out_hashes.iter().map(|&h| (0, h)).collect(),
                        in_links: report.in_hashes.iter().map(|&h| (0, h)).collect(),
                    });
                }
                cursor += batch_len;
                barriers += 1;
                if let Some(store) = &self.store {
                    let record = BarrierRecord {
                        cycle: cursor,
                        fingerprint: self.fingerprint,
                        workers: blobs.clone(),
                        outputs: committed.ports.clone(),
                    };
                    let path = store.save(&record)?;
                    let _ = store.prune(self.config.keep_barriers.max(1));
                    if self.config.chaos.torn_after == Some(barriers) && !self.torn_fired {
                        self.torn_fired = true;
                        tear_record(&path)?;
                    }
                }
                snapshots = Some(blobs.into_iter().map(|b| b.snapshot).collect());
                if self.config.stop_after_barriers == Some(barriers) && cursor < stim.cycles {
                    return Ok(self.report(committed, barriers, resumed_from, false));
                }
            } else {
                self.recoveries += 1;
                self.replayed += batch_len;
                if self.recoveries > self.config.max_recoveries {
                    return Err(PartitionError::Exhausted {
                        detail: format!(
                            "recovery budget ({}) exhausted at cycle {cursor}",
                            self.config.max_recoveries
                        ),
                    });
                }
                // Restore target: the durable store is authoritative
                // when configured (a torn newest record falls back one
                // barrier); the in-memory barrier otherwise.
                let target = if let Some(store) = &self.store {
                    match store.latest_consistent()? {
                        Some(record) if record.fingerprint == self.fingerprint => {
                            Target::Durable(record)
                        }
                        _ => Target::PowerOn,
                    }
                } else {
                    match snapshots.clone() {
                        Some(blobs) => Target::Memory(blobs),
                        None => Target::PowerOn,
                    }
                };
                match target {
                    Target::Durable(record) => {
                        if record.cycle < cursor {
                            // Fell back behind the in-memory commit
                            // point: rewind the committed prefix too.
                            self.replayed += cursor - record.cycle;
                            committed.ports = record.outputs.clone();
                            cursor = record.cycle;
                        }
                        let blobs: Vec<Option<Vec<u8>>> =
                            record.workers.iter().map(|b| Some(b.snapshot.clone())).collect();
                        snapshots = Some(record.workers.into_iter().map(|b| b.snapshot).collect());
                        self.rollback_to(cursor, &blobs)?;
                    }
                    Target::Memory(blobs) => {
                        let blobs: Vec<Option<Vec<u8>>> = blobs.into_iter().map(Some).collect();
                        self.rollback_to(cursor, &blobs)?;
                    }
                    Target::PowerOn => {
                        self.replayed += cursor;
                        cursor = 0;
                        for values in committed.ports.values_mut() {
                            values.clear();
                        }
                        snapshots = None;
                        self.rollback_to(0, &vec![None; n])?;
                    }
                }
            }
        }
        Ok(self.report(committed, barriers, resumed_from, true))
    }

    fn report(
        &mut self,
        outputs: FrameOutputs,
        barriers: u64,
        resumed_from: Option<u64>,
        completed: bool,
    ) -> ProcReport {
        ProcReport {
            outputs,
            detections: std::mem::take(&mut self.detections),
            recoveries: self.recoveries,
            respawns: self.respawns,
            barriers,
            replayed_cycles: self.replayed,
            resumed_from,
            completed,
        }
    }

    /// Hands one batch to every worker, with the chaos that falls in
    /// its window armed. Each directive fires once.
    fn send_batches(&mut self, stim: &Stimulus, cursor: u64, batch_len: u64, prologue: bool) {
        let window = cursor..cursor + batch_len;
        let parts = self.parts;
        let chaos = self.chaos;
        for w in 0..parts.parts() {
            let shard = &parts.shards[w];
            let inputs: Vec<Vec<i64>> = (0..batch_len)
                .map(|o| {
                    shard.inputs.iter().map(|p| stim.inputs[p][(cursor + o) as usize]).collect()
                })
                .collect();
            let mut faults = Vec::new();
            if let Some(inj) = self.seu[w].as_mut() {
                for o in 0..batch_len {
                    for spec in inj.arrivals(self.attempt_clock + o, Lane::Primary) {
                        faults.push((o, spec));
                    }
                }
            }
            let mut armed = LinkChaos::default();
            for (i, &(kw, kc)) in chaos.kills.iter().enumerate() {
                if kw == w && window.contains(&kc) && !self.fired_kills[i] {
                    self.fired_kills[i] = true;
                    armed.kill_at = Some(kc);
                }
            }
            let mut stall = None;
            for (i, &(sw, sc, pause)) in chaos.stalls.iter().enumerate() {
                if sw == w && window.contains(&sc) && !self.fired_stalls[i] {
                    self.fired_stalls[i] = true;
                    let millis = u64::try_from(pause.as_millis()).unwrap_or(u64::MAX);
                    stall = Some((sc - cursor, millis));
                }
            }
            for (i, c) in chaos.corruptions.iter().enumerate() {
                if c.from == w && window.contains(&c.cycle) && !self.fired_corruptions[i] {
                    let link = self.out_route[w].iter().position(|&(to, _)| to == c.to);
                    if let Some(link) = link.and_then(|l| u32::try_from(l).ok()) {
                        self.fired_corruptions[i] = true;
                        armed.corrupt.push((c.cycle, link, c.stealth));
                    }
                }
            }
            self.live.fleet.arm(w, armed);
            let frame = Frame::Batch {
                generation: self.live.generation,
                start: cursor,
                cycles: batch_len,
                prologue,
                inputs,
                faults,
                stall,
            };
            self.last_seen[w] = self.now();
            // A send failure means the worker died; the collect loop
            // will see the close or the silence.
            let _ = self.live.fleet.send(w, &frame);
        }
        self.attempt_clock += batch_len;
    }

    /// Collects one barrier report per worker, routing any boundary
    /// traffic that comes through the supervisor and policing
    /// liveness meanwhile. `None` means the batch failed and a
    /// rollback is due.
    #[allow(clippy::too_many_lines)]
    fn collect_batch(&mut self, cursor: u64) -> Option<Vec<Report>> {
        let n = self.parts.parts();
        let mut reports: Vec<Option<Report>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        let straggler = self
            .live
            .fleet
            .straggler_timeout()
            .map(|t| u64::try_from(t.as_nanos()).unwrap_or(u64::MAX));
        let mut progress: Vec<u64> = (0..n).map(|w| self.live.fleet.progress(w)).collect();
        loop {
            // Liveness first, so a deadline born expired fails the
            // batch before any report can land: a worker silent for
            // the whole window is dead. A worker that shows no sign of
            // life for the straggler timeout is late too, even when no
            // peer waits on it; one that is merely slower than a shard
            // running ahead of it is not.
            let now = self.now();
            for (w, seen) in progress.iter_mut().enumerate() {
                let count = self.live.fleet.progress(w);
                if count != *seen {
                    *seen = count;
                    self.last_seen[w] = now;
                }
            }
            let silent: Vec<usize> = (0..n)
                .filter(|&w| reports[w].is_none())
                .filter(|&w| {
                    let quiet = now.saturating_sub(self.last_seen[w]);
                    straggler.is_some_and(|limit| quiet >= limit) || quiet >= self.liveness_ticks
                })
                .collect();
            for &w in &silent {
                self.detect(Some(w), cursor, DetectionKind::Stall);
                self.kill(w);
            }
            if !silent.is_empty() {
                return None;
            }
            if received == n {
                return reports.into_iter().collect();
            }
            let (worker, conn, frame) =
                match self.live.events.recv_timeout(Duration::from_millis(10)) {
                    Ok(Event::Frame { worker, conn, frame }) => (worker, conn, frame),
                    Ok(Event::Closed { worker, conn }) => {
                        if self.live.conns[worker] == conn {
                            self.live.alive[worker] = false;
                            self.detect(Some(worker), cursor, DetectionKind::Crash);
                            return None;
                        }
                        continue;
                    }
                    Ok(Event::Malformed { worker, conn }) => {
                        if self.live.conns[worker] == conn {
                            // Garbage on the control stream: framing is
                            // lost, the worker cannot be trusted.
                            self.detect(Some(worker), cursor, DetectionKind::Checksum);
                            self.kill(worker);
                            return None;
                        }
                        continue;
                    }
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return None,
                };
            if self.live.conns[worker] != conn {
                continue; // stale connection
            }
            self.last_seen[worker] = self.now();
            match frame {
                Frame::Boundary { generation, link, msg } if generation == self.live.generation => {
                    let Some(&(consumer, in_idx)) = self.out_route[worker].get(link as usize)
                    else {
                        self.detect(Some(worker), cursor, DetectionKind::Sequence);
                        return None;
                    };
                    // A failed forward surfaces as the consumer's own
                    // silence or close.
                    let routed = Frame::Boundary { generation, link: in_idx, msg };
                    let _ = self.live.fleet.send(consumer, &routed);
                }
                // A worker killed mid-window may already have sent its
                // report; a fast producer can finish the batch before the
                // kill lands. Fail the batch here.
                Frame::Heartbeat { generation, cycle, .. }
                    if generation == self.live.generation
                        && self.live.fleet.heartbeat(worker, cycle) =>
                {
                    self.live.alive[worker] = false;
                    self.detect(Some(worker), cursor, DetectionKind::Crash);
                    return None;
                }
                Frame::BarrierReport {
                    generation,
                    start,
                    outputs,
                    out_hashes,
                    in_hashes,
                    snapshot,
                    ..
                } if generation == self.live.generation && start == cursor => {
                    if reports[worker].is_none() {
                        received += 1;
                    }
                    reports[worker] = Some(Report { outputs, out_hashes, in_hashes, snapshot });
                }
                Frame::Fault { generation, kind, .. } if generation == self.live.generation => {
                    self.detect(Some(worker), cursor, kind);
                    return None;
                }
                // Stale generations, Hellos and acks outside their
                // windows: ignore.
                _ => {}
            }
        }
    }

    /// The barrier check: both ends of every link hashed the same value
    /// stream, and — when an oracle is supplied — every output matches
    /// it.
    fn barrier_holds(&mut self, cursor: u64, reports: &[Report]) -> bool {
        let mut ok = true;
        for producer in 0..self.out_route.len() {
            for (out_idx, &(consumer, in_idx)) in self.out_route[producer].iter().enumerate() {
                let produced = reports[producer].out_hashes.get(out_idx);
                let consumed = reports[consumer].in_hashes.get(in_idx as usize);
                if produced.is_none() || produced != consumed {
                    self.detections.push(Detection {
                        worker: Some(consumer),
                        batch_start: cursor,
                        kind: DetectionKind::LinkHashMismatch,
                    });
                    ok = false;
                }
            }
        }
        let Some(expected) = self.oracle.filter(|_| ok) else { return ok };
        for (w, report) in reports.iter().enumerate() {
            for (i, port) in self.parts.shards[w].outputs.iter().enumerate() {
                let Some(want) = expected.ports.get(port) else { continue };
                let got = report.outputs.iter().map(|row| row[i]);
                if want.iter().skip(cursor as usize).zip(got).any(|(&want, got)| want != got) {
                    self.detect(Some(w), cursor, DetectionKind::OracleMismatch);
                    ok = false;
                }
            }
        }
        ok
    }

    /// Generation-bump rollback: restore everyone to `cycle` (power-on
    /// where a blob is `None`) and await every ack. A worker that is
    /// dead, or whose connection closes before it acks, is respawned
    /// and sent its rollback at once rather than at the deadline.
    fn rollback_to(&mut self, cycle: u64, blobs: &[Option<Vec<u8>>]) -> Result<(), PartitionError> {
        let n = self.parts.parts();
        self.live.generation += 1;
        let generation = self.live.generation;
        let frames: Vec<Frame> = (blobs.iter())
            .map(|blob| Frame::Rollback {
                generation,
                cycle,
                snapshot: blob.clone().unwrap_or_default(),
            })
            .collect();
        // Await one ack per worker under a liveness-scaled deadline,
        // restarted by every respawn.
        let ack_window = self.liveness_ticks.saturating_mul(4);
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            if attempts > self.config.max_respawns.max(1) {
                return Err(PartitionError::Exhausted {
                    detail: "rollback could not assemble a live fleet".into(),
                });
            }
            for (w, frame) in frames.iter().enumerate() {
                self.send_rollback(w, frame)?;
            }
            let mut deadline = Deadline::after(Arc::clone(&self.config.clock), ack_window);
            let mut acked = vec![false; n];
            while acked.contains(&false) && !deadline.expired() {
                match self.live.events.recv_timeout(Duration::from_millis(10)) {
                    Ok(Event::Frame { worker, conn, frame }) => {
                        if self.live.conns[worker] != conn {
                            continue;
                        }
                        self.last_seen[worker] = self.now();
                        // Everything but this generation's ack is stale.
                        if let Frame::RollbackAck { generation: g, .. } = frame {
                            acked[worker] |= g == generation;
                        }
                    }
                    Ok(Event::Closed { worker, conn } | Event::Malformed { worker, conn }) => {
                        if self.live.conns[worker] == conn {
                            self.live.alive[worker] = false;
                            acked[worker] = false;
                            self.send_rollback(worker, &frames[worker])?;
                            deadline = Deadline::after(Arc::clone(&self.config.clock), ack_window);
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            if !acked.contains(&false) {
                return Ok(());
            }
            // Kill the silent ones and go around (bounded by the
            // attempt counter and the respawn budget).
            for (w, ok) in acked.iter().enumerate() {
                if !ok {
                    self.kill(w);
                }
            }
        }
    }

    /// Sends worker `w` its rollback frame, respawning it first (and
    /// again, within the respawn budget) while it is dead or
    /// unreachable.
    fn send_rollback(&mut self, w: usize, frame: &Frame) -> Result<(), PartitionError> {
        while !self.live.alive[w] || self.live.fleet.send(w, frame).is_err() {
            self.respawn(w)?;
        }
        Ok(())
    }
}

/// Reader-thread body: pump frames into the shared event queue until
/// the socket closes or the supervisor goes away.
fn reader_main(worker: usize, conn: u64, mut transport: SocketTransport, tx: &Sender<Event>) {
    loop {
        match transport.recv_timeout(Duration::from_millis(200)) {
            Ok(frame) => {
                if tx.send(Event::Frame { worker, conn, frame }).is_err() {
                    return;
                }
            }
            Err(RecvError::Timeout) => {}
            Err(RecvError::Disconnected) => {
                let _ = tx.send(Event::Closed { worker, conn });
                return;
            }
            Err(RecvError::Protocol(_)) => {
                let _ = tx.send(Event::Malformed { worker, conn });
                return;
            }
        }
    }
}

/// Simulated torn write: truncate a durable record mid-body.
fn tear_record(path: &std::path::Path) -> Result<(), PartitionError> {
    let tear = |e: std::io::Error| PartitionError::Store { detail: format!("tear: {e}") };
    let len = std::fs::metadata(path).map_err(tear)?.len();
    let file = std::fs::OpenOptions::new().write(true).open(path).map_err(tear)?;
    file.set_len(len / 2).map_err(tear)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cut::{partition, CutOptions};
    use crate::runner::run_single;
    use crate::transport::ChannelTransport;
    use dwt_rtl::builder::NetlistBuilder;
    use dwt_rtl::sim::Simulator;
    use std::collections::BTreeMap;

    /// The same feed-forward pipeline the cut tests use: `stages`
    /// add-one registers in a row.
    fn pipeline(stages: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let one = b.constant(1, 8).unwrap();
        let mut bus = b.input("x", 8).unwrap();
        for s in 0..stages {
            let sum = b.carry_add(&format!("add{s}"), &bus, &one, 8).unwrap();
            bus = b.register(&format!("r{s}"), &sum).unwrap();
        }
        b.output("y", &bus).unwrap();
        b.finish().unwrap()
    }

    fn stimulus(cycles: u64) -> Stimulus {
        let mut inputs = BTreeMap::new();
        inputs.insert("x".to_string(), (0..cycles as i64).map(|c| (c % 17) - 8).collect());
        Stimulus { cycles, inputs }
    }

    #[test]
    fn worker_spec_mirrors_the_cut() {
        let netlist = pipeline(4);
        let parts = partition(&netlist, 2, &CutOptions::default()).unwrap();
        let spec0 = WorkerSpec::from_cut(&parts, 0).unwrap();
        let spec1 = WorkerSpec::from_cut(&parts, 1).unwrap();
        assert_eq!(spec0.fingerprint, parts.fingerprint());
        assert_eq!(spec1.fingerprint, parts.fingerprint());
        let outs = spec0.out_ports.len() + spec1.out_ports.len();
        let ins = spec0.in_ports.len() + spec1.in_ports.len();
        assert_eq!(outs, parts.links.len());
        assert_eq!(ins, parts.links.len());
        assert!(matches!(WorkerSpec::from_cut(&parts, 2), Err(PartitionError::Spawn { .. })));
    }

    #[test]
    fn link_schedules_follow_the_cut() {
        use dwt_arch::designs::Design;
        use LinkSchedule::{Downstream, Static, Upstream};
        // (from, to) -> schedule, as the consumer and the producer see it.
        let schedules = |design: Design, parts: usize| {
            let netlist = design.build().unwrap().netlist;
            let cut = partition(&netlist, parts, &CutOptions::default()).unwrap();
            let (mut consumed, mut produced) = (BTreeMap::new(), BTreeMap::new());
            for w in 0..parts {
                let spec = WorkerSpec::from_cut(&cut, w).unwrap();
                let ins = cut.links.iter().filter(|l| l.to == w);
                consumed.extend(ins.zip(spec.in_schedule).map(|(l, s)| ((l.from, l.to), s)));
                let outs = cut.links.iter().filter(|l| l.from == w);
                produced.extend(outs.zip(spec.out_schedule).map(|(l, s)| ((l.from, l.to), s)));
            }
            assert_eq!(consumed, produced);
            assert_eq!(consumed.len(), cut.links.len());
            consumed
        };
        let d5 = schedules(Design::D5, 2);
        assert_eq!(d5, BTreeMap::from([((0, 1), Downstream), ((1, 0), Static)]));
        let d1 = schedules(Design::D1, 4);
        assert_eq!(d1.get(&(2, 1)), Some(&Upstream));
        assert_eq!(d1.get(&(0, 1)), Some(&Downstream));
    }

    /// A port the engine cannot read is an engine fault on the wire,
    /// never a silent zero in a boundary value or a barrier report.
    #[test]
    fn unreadable_out_port_is_a_fault_frame() {
        let netlist = pipeline(4);
        let parts = partition(&netlist, 2, &CutOptions::default()).unwrap();
        let producer = parts.links[0].from;
        let mut spec = WorkerSpec::from_cut(&parts, producer).unwrap();
        spec.out_ports[0][0] = "no_such_port".into();
        let (mut worker_end, mut hub) = ChannelTransport::pair();
        let handle = std::thread::spawn(move || {
            run_worker::<Simulator, _>(&spec, &mut worker_end, &WorkerConfig::default())
        });
        assert!(matches!(hub.recv_timeout(Duration::from_secs(5)), Ok(Frame::Hello { .. })));
        let stim = stimulus(4);
        let shard = &parts.shards[producer];
        hub.send(&Frame::Batch {
            generation: 0,
            start: 0,
            cycles: 4,
            prologue: true,
            inputs: (0..4)
                .map(|c| shard.inputs.iter().map(|p| stim.inputs[p][c]).collect())
                .collect(),
            faults: Vec::new(),
            stall: None,
        })
        .unwrap();
        let fault = loop {
            match hub.recv_timeout(Duration::from_secs(5)).unwrap() {
                Frame::Boundary { .. } | Frame::Heartbeat { .. } => {}
                other => break other,
            }
        };
        match fault {
            Frame::Fault { kind: DetectionKind::Engine(detail), .. } => {
                assert!(detail.contains("no_such_port"), "{detail}");
            }
            other => panic!("expected an engine fault, got {other:?}"),
        }
        hub.send(&Frame::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }

    /// Drives two real `run_worker` loops over channel transports with
    /// a hand-written hub: batches out, boundaries routed, reports
    /// crosschecked, then a power-on rollback and a full bit-exact
    /// replay against the single-engine oracle.
    #[test]
    fn run_worker_speaks_the_protocol_end_to_end() {
        let netlist = pipeline(4);
        let parts = partition(&netlist, 2, &CutOptions::default()).unwrap();
        let stim = stimulus(24);
        let specs: Vec<WorkerSpec> =
            (0..2).map(|w| WorkerSpec::from_cut(&parts, w).unwrap()).collect();

        // out_route[w][out_idx] = (consumer, consumer_in_idx)
        let mut out_route: Vec<Vec<(usize, u32)>> = vec![Vec::new(); 2];
        let mut in_counts = [0u32; 2];
        for link in &parts.links {
            out_route[link.from].push((link.to, in_counts[link.to]));
            in_counts[link.to] += 1;
        }

        let mut hubs = Vec::new();
        let mut handles = Vec::new();
        for spec in specs {
            let (mut worker_end, hub_end) = ChannelTransport::pair();
            hubs.push(hub_end);
            handles.push(std::thread::spawn(move || {
                run_worker::<Simulator, _>(&spec, &mut worker_end, &WorkerConfig::default())
            }));
        }
        for hub in &mut hubs {
            match hub.recv_timeout(Duration::from_secs(5)).unwrap() {
                Frame::Hello { fingerprint, .. } => {
                    assert_eq!(fingerprint, parts.fingerprint());
                }
                other => panic!("expected Hello, got {other:?}"),
            }
        }

        /// One batch across both workers: send, route, collect.
        /// Returns per-worker (outputs, out_hashes, in_hashes).
        #[allow(clippy::type_complexity, clippy::too_many_arguments)]
        fn drive_batch(
            hubs: &mut [ChannelTransport],
            out_route: &[Vec<(usize, u32)>],
            parts: &PartitionedNetlist,
            stim: &Stimulus,
            generation: u64,
            start: u64,
            cycles: u64,
            prologue: bool,
        ) -> Vec<(Vec<Vec<i64>>, Vec<u64>, Vec<u64>)> {
            for (w, hub) in hubs.iter_mut().enumerate() {
                let shard = &parts.shards[w];
                let inputs: Vec<Vec<i64>> = (0..cycles)
                    .map(|o| {
                        shard.inputs.iter().map(|p| stim.inputs[p][(start + o) as usize]).collect()
                    })
                    .collect();
                hub.send(&Frame::Batch {
                    generation,
                    start,
                    cycles,
                    prologue,
                    inputs,
                    faults: Vec::new(),
                    stall: None,
                })
                .unwrap();
            }
            // Route until both reports arrive. Per-channel FIFO order
            // means a report is always the last frame of its batch, so
            // once both reports are in, every boundary was routed.
            let mut reports: Vec<Option<(Vec<Vec<i64>>, Vec<u64>, Vec<u64>)>> = vec![None, None];
            let mut received = 0;
            while received < 2 {
                for w in 0..2 {
                    if reports[w].is_some() {
                        continue;
                    }
                    match hubs[w].recv_timeout(Duration::from_millis(50)) {
                        Ok(Frame::Boundary { generation, link, msg }) => {
                            let (consumer, in_idx) = out_route[w][link as usize];
                            hubs[consumer]
                                .send(&Frame::Boundary { generation, link: in_idx, msg })
                                .unwrap();
                        }
                        Ok(Frame::Heartbeat { .. }) => {}
                        Ok(Frame::BarrierReport {
                            start: s,
                            outputs,
                            out_hashes,
                            in_hashes,
                            ..
                        }) => {
                            assert_eq!(s, start);
                            reports[w] = Some((outputs, out_hashes, in_hashes));
                            received += 1;
                        }
                        Ok(other) => panic!("unexpected frame {other:?}"),
                        Err(RecvError::Timeout) => {}
                        Err(e) => panic!("hub recv: {e}"),
                    }
                }
            }
            reports.into_iter().map(Option::unwrap).collect()
        }

        #[allow(clippy::type_complexity)]
        fn commit(
            parts: &PartitionedNetlist,
            committed: &mut BTreeMap<String, Vec<i64>>,
            reports: &[(Vec<Vec<i64>>, Vec<u64>, Vec<u64>)],
        ) {
            for (w, (outputs, _, _)) in reports.iter().enumerate() {
                for (i, port) in parts.shards[w].outputs.iter().enumerate() {
                    committed
                        .entry(port.clone())
                        .or_default()
                        .extend(outputs.iter().map(|row| row[i]));
                }
            }
        }

        let mut first = BTreeMap::new();
        let r1 = drive_batch(&mut hubs, &out_route, &parts, &stim, 0, 0, 12, true);
        commit(&parts, &mut first, &r1);
        let r2 = drive_batch(&mut hubs, &out_route, &parts, &stim, 0, 12, 12, false);
        commit(&parts, &mut first, &r2);

        // Link hashes crosscheck after each barrier.
        let mut out_counts = [0usize; 2];
        let mut in_idx_counts = [0usize; 2];
        for link in &parts.links {
            let produced = r2[link.from].1[out_counts[link.from]];
            let consumed = r2[link.to].2[in_idx_counts[link.to]];
            assert_eq!(produced, consumed, "link hash mismatch on {:?}", link.ports);
            out_counts[link.from] += 1;
            in_idx_counts[link.to] += 1;
        }

        // Power-on rollback (generation 1), then replay everything:
        // same committed outputs, bit for bit.
        for hub in &mut hubs {
            hub.send(&Frame::Rollback { generation: 1, cycle: 0, snapshot: Vec::new() }).unwrap();
        }
        let mut acks = 0;
        while acks < 2 {
            for hub in &mut hubs {
                match hub.recv_timeout(Duration::from_millis(50)) {
                    Ok(Frame::RollbackAck { generation: 1, .. }) => acks += 1,
                    Ok(_) | Err(RecvError::Timeout) => {}
                    Err(e) => panic!("awaiting ack: {e}"),
                }
            }
        }
        let mut replay = BTreeMap::new();
        let r3 = drive_batch(&mut hubs, &out_route, &parts, &stim, 1, 0, 12, true);
        commit(&parts, &mut replay, &r3);
        let r4 = drive_batch(&mut hubs, &out_route, &parts, &stim, 1, 12, 12, false);
        commit(&parts, &mut replay, &r4);
        assert_eq!(first, replay, "replay diverged from the first pass");

        let oracle = run_single::<Simulator>(&netlist, &stim, None).unwrap();
        assert_eq!(first, oracle.ports, "partitioned run diverged from the oracle");

        for hub in &mut hubs {
            hub.send(&Frame::Shutdown).unwrap();
        }
        for handle in handles {
            handle.join().unwrap().unwrap();
        }
    }

    /// A fleet whose workers answer a rollback at once, except that
    /// worker `doomed`'s connection closes instead, once.
    struct Scripted {
        events: Option<Sender<Event>>,
        conns: Vec<u64>,
        spawns: Vec<u32>,
        doomed: Option<usize>,
    }

    impl Fleet for Scripted {
        fn spawn(
            &mut self,
            w: usize,
            conn: u64,
            events: &Sender<Event>,
        ) -> Result<(), PartitionError> {
            self.events = Some(events.clone());
            self.conns[w] = conn;
            self.spawns[w] += 1;
            Ok(())
        }

        fn send(&mut self, w: usize, frame: &Frame) -> Result<(), PartitionError> {
            let (Some(events), Frame::Rollback { generation, cycle, .. }) = (&self.events, frame)
            else {
                return Ok(());
            };
            let conn = self.conns[w];
            let event = if self.doomed == Some(w) {
                self.doomed = None;
                Event::Closed { worker: w, conn }
            } else {
                let ack =
                    Frame::RollbackAck { worker: w as u32, generation: *generation, cycle: *cycle };
                Event::Frame { worker: w, conn, frame: ack }
            };
            events.send(event).map_err(|_| transport_err("supervisor gone"))
        }

        fn arm(&mut self, _w: usize, _chaos: LinkChaos) {}

        fn kill(&mut self, _w: usize) {}
    }

    /// A worker whose connection closes before it acks a rollback is
    /// respawned at once, not when the ack deadline (6 s here, as in
    /// the thread runner's defaults) runs out. The rollback runs on its
    /// own thread under a wall-clock bound, so a regression fails the
    /// test instead of hanging it.
    #[test]
    fn rollback_respawns_a_worker_that_closes_before_acking() {
        let (done_tx, done) = mpsc::channel();
        let rollback = thread::spawn(move || {
            let parts = partition(&pipeline(4), 2, &CutOptions::default()).unwrap();
            let config =
                ProcConfig { liveness: Duration::from_millis(1500), ..ProcConfig::default() };
            let fleet =
                Scripted { events: None, conns: vec![0; 2], spawns: vec![0; 2], doomed: Some(1) };
            let mut live = LiveFleet::new(fleet, 2);
            let chaos = ChaosPlan::default();
            let mut supervisor = Supervisor::new(&parts, &mut live, &config, &chaos, None);
            for w in 0..2 {
                supervisor.spawn(w).unwrap();
            }
            let started = Instant::now();
            let result = supervisor.rollback_to(0, &[None, None]).map_err(|e| e.to_string());
            let (elapsed, respawns) = (started.elapsed(), supervisor.respawns);
            let _ = done_tx.send((result, elapsed, respawns, live.fleet.spawns));
        });
        let (result, elapsed, respawns, spawns) =
            done.recv_timeout(Duration::from_secs(3)).expect("the rollback outlasted its bound");
        rollback.join().unwrap();
        result.unwrap();
        assert_eq!((spawns, respawns), (vec![1, 2], 1), "only the closed worker is respawned");
        assert!(elapsed < Duration::from_secs(1), "rollback took {elapsed:?}");
    }

    /// Restoring the power-on snapshot undoes the cycles run and the
    /// faults armed since: the worker then steps exactly like a freshly
    /// built one.
    fn power_on_restore_steps_like_a_fresh_engine<E: Engine>() {
        use dwt_arch::designs::Design;
        let netlist = Design::D3.build().unwrap().netlist;
        let parts = partition(&netlist, 1, &CutOptions::default()).unwrap();
        let spec = WorkerSpec::from_cut(&parts, 0).unwrap();
        let config = WorkerConfig::default();
        let registers: Vec<String> =
            spec.netlist.registers().iter().map(|&r| spec.netlist.cell(r).name.clone()).collect();
        let step = |worker: &mut ProcWorker<E>, cycle: i64| -> Vec<i64> {
            for (k, port) in spec.inputs.iter().enumerate() {
                let value = (cycle * (37 + 54 * k as i64) + 11) % 256 - 128;
                worker.engine.set_input(port, value).unwrap();
            }
            worker.engine.try_tick().unwrap();
            spec.outputs.iter().map(|p| worker.engine.peek(p).unwrap()).collect()
        };
        let mut worker = ProcWorker::<E>::new(&spec, &config).unwrap();
        let stuck = FaultSpec::StuckAt { net: registers[0].clone(), bit: 0, value: true };
        let pending = FaultSpec::BitFlip { register: registers[1].clone(), bit: 0, cycle: 100 };
        worker.engine.inject(&stuck).unwrap();
        worker.engine.inject(&pending).unwrap();
        for cycle in 0..40 {
            step(&mut worker, cycle);
        }
        worker.apply_rollback(1, &[]).unwrap();
        let mut fresh = ProcWorker::<E>::new(&spec, &config).unwrap();
        let state = |w: &ProcWorker<E>| w.engine.snapshot().to_bytes();
        assert_eq!(state(&worker), state(&fresh), "restored state differs from power-on");
        for cycle in 0..160 {
            assert_eq!(step(&mut worker, cycle), step(&mut fresh, cycle), "cycle {cycle}");
        }
    }

    #[test]
    fn power_on_restore_steps_like_a_fresh_engine_event() {
        power_on_restore_steps_like_a_fresh_engine::<Simulator>();
    }

    #[test]
    fn power_on_restore_steps_like_a_fresh_engine_compiled() {
        power_on_restore_steps_like_a_fresh_engine::<dwt_rtl::compile::CompiledEngine>();
    }

    #[test]
    fn tear_record_truncates_in_place() {
        let dir = std::env::temp_dir().join(format!("dwt-tear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("victim.bin");
        std::fs::write(&path, vec![0xabu8; 64]).unwrap();
        tear_record(&path).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 32);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
