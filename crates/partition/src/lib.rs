//! Fault-tolerant partitioned emulation of DWT netlists.
//!
//! Large-design emulators (BEE2-style FPGA farms, Palladium-class
//! boxes) never fit a design in one device: the netlist is *sharded*
//! across workers that exchange boundary values every virtual cycle,
//! and the whole ensemble must tolerate a worker crashing mid-frame
//! without corrupting the computation. This crate reproduces that
//! architecture in software on top of the workspace's [`Engine`]
//! backends:
//!
//! 1. [`cut`] — a min-cut partitioning pass over the validated
//!    netlist IR. Cuts are only legal on register/constant boundaries
//!    (dwt-lint's pipeline-balance solver pins the legal cut points),
//!    so cross-shard values are stable for a full cycle: a link needs
//!    at most one exchange per cycle, and a constant-driven one a
//!    single exchange at power-on. [`stitch`] is the exact
//!    inverse, reassembling the original netlist — dwt-equiv proves
//!    `stitch(partition(n)) ≡ n` as a standing obligation.
//! 2. [`channel`] and [`wire`] — the sequence-numbered, checksummed
//!    boundary messages with per-link hashes for barrier crosschecks,
//!    and the framed byte protocol every worker speaks.
//! 3. [`proc`] — the one supervisor and its workers: each worker runs
//!    [`run_worker`], one [`Engine`] stepping virtual cycles in
//!    lockstep with its peers; the supervisor hands out batches,
//!    checks every barrier (link hashes, plus an oracle when given),
//!    and recovers by generation-tagged rollback, respawn and replay.
//!    [`ProcSupervisor`] runs the workers as OS processes behind Unix
//!    sockets, with a durable barrier [`store`].
//! 4. [`runner`] — [`PartitionRunner`] runs the same workers on one
//!    thread per shard, their boundary values going straight from
//!    producer to consumer over the in-process links of [`transport`].
//!    The threads outlive the frame: each later frame resets them to
//!    power-on instead of spawning and rebuilding them.
//!    When the recovery budget is exhausted the runner degrades to a
//!    single-engine run, then to a caller-supplied software-golden
//!    fallback, before giving up with a typed error.
//!
//! [`Engine`]: dwt_rtl::engine::Engine

pub mod channel;
pub mod cut;
pub mod error;
pub mod proc;
pub mod runner;
pub mod store;
pub mod transport;
pub mod wire;

pub use channel::{fnv1a, hash_seed, BoundaryMsg, LinkFault};
pub use cut::{partition, stitch, BoundaryLink, CutOptions, CutPort, PartitionedNetlist, Shard};
pub use error::PartitionError;
pub use proc::{
    run_worker, LinkSchedule, ProcChaos, ProcConfig, ProcReport, ProcSupervisor, WorkerConfig,
    WorkerLauncher, WorkerSpec,
};
pub use runner::{
    run_single, ChaosPlan, Corruption, Detection, DetectionKind, FrameOutputs, FrameReport,
    GoldenFallback, PartitionRunner, Rung, RunnerConfig, SeuChaos, Stimulus,
};
pub use store::{crc32, BarrierRecord, FsckReport, RunStore, WorkerBlob};
pub use transport::{RecvError, SocketTransport, Transport};
pub use wire::Frame;
