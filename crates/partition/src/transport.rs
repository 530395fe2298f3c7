//! Frame transports: how [`Frame`]s move between the supervisor and
//! its workers.
//!
//! The protocol layer ([`wire`](crate::wire)) defines *what* travels;
//! this module defines *how*. Two implementations share the
//! [`Transport`] trait:
//!
//! * [`SocketTransport`] — a Unix-domain stream socket to a worker
//!   process. Reads are deadline-bounded and reassemble frames from
//!   the byte stream (partial reads are normal under timeouts); a
//!   closed peer surfaces as [`RecvError::Disconnected`], exactly
//!   like a dropped channel. The supervisor is a hub here: boundary
//!   values reach the consumer through it.
//! * `ThreadLink` — a worker thread's link under thread isolation.
//!   Boundary frames go straight from producer to consumer over
//!   in-process channels, with the link index rewritten to the
//!   consumer's numbering; every other frame goes to the supervisor.
//!   Heartbeats stay in the link, which only counts them, so nothing
//!   reaches the supervisor between a batch and its barrier report.
//!   Measured on one pinned CPU, a bare `mpsc` hand-off costs 4.5 µs
//!   per cycle worker to worker, 10.8 µs through a relay thread and
//!   12.5 µs through a relay with a heartbeat per cycle, against about
//!   19.5 µs for a whole two-shard Design 5 cycle: routing through a
//!   hub would cost about a quarter of the throughput. Boundary values
//!   still travel as encoded bytes, so every thread-mode run exercises
//!   the codec.
//!
//! Unit tests drive [`run_worker`](crate::proc::run_worker) by hand
//! over a third, test-only transport: a plain pair of in-process
//! channels.
//!
//! Both ends treat malformed bytes as a protocol fault, not a crash:
//! [`RecvError::Protocol`] carries the typed decode error upward where
//! the supervisor converts it into a detection and a rollback.

use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
#[cfg(test)]
use std::sync::mpsc;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::channel::BoundaryMsg;
use crate::error::PartitionError;
use crate::wire::{header_payload_len, Frame, CHECKSUM_LEN, HEADER_LEN};

/// Why a receive produced no frame.
#[derive(Debug)]
pub enum RecvError {
    /// No complete frame arrived within the deadline.
    Timeout,
    /// The peer is gone (channel dropped, socket closed or reset).
    Disconnected,
    /// Bytes arrived but failed to decode as a frame.
    Protocol(PartitionError),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "receive timed out"),
            RecvError::Disconnected => write!(f, "peer disconnected"),
            RecvError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

/// A bidirectional, ordered, frame-at-a-time pipe to a peer.
pub trait Transport: Send {
    /// Encodes and sends one frame.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Transport`] when the peer is unreachable.
    fn send(&mut self, frame: &Frame) -> Result<(), PartitionError>;

    /// Receives the next frame, waiting at most `timeout`. A timeout
    /// too long to form a deadline, such as `Duration::MAX`, waits
    /// without one.
    ///
    /// # Errors
    ///
    /// [`RecvError::Timeout`] if nothing complete arrived in time,
    /// [`RecvError::Disconnected`] if the peer is gone,
    /// [`RecvError::Protocol`] if the peer sent malformed bytes.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, RecvError>;
}

// ------------------------------------------------------------ channels

/// In-process transport for tests: encoded frame bytes over `mpsc`
/// channels.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct ChannelTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

#[cfg(test)]
impl ChannelTransport {
    /// A connected pair of endpoints (full duplex: two crossed
    /// channels).
    pub(crate) fn pair() -> (ChannelTransport, ChannelTransport) {
        let (a_tx, b_rx) = mpsc::channel();
        let (b_tx, a_rx) = mpsc::channel();
        (ChannelTransport { tx: a_tx, rx: a_rx }, ChannelTransport { tx: b_tx, rx: b_rx })
    }
}

#[cfg(test)]
impl Transport for ChannelTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), PartitionError> {
        self.tx
            .send(frame.encode())
            .map_err(|_| PartitionError::Transport { detail: "channel closed".into() })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, RecvError> {
        recv_encoded(&self.rx, timeout)
    }
}

/// Receives and decodes one encoded frame from a channel.
fn recv_encoded(rx: &Receiver<Vec<u8>>, timeout: Duration) -> Result<Frame, RecvError> {
    let bytes = match rx.recv_timeout(timeout) {
        Ok(bytes) => bytes,
        Err(RecvTimeoutError::Timeout) => return Err(RecvError::Timeout),
        Err(RecvTimeoutError::Disconnected) => return Err(RecvError::Disconnected),
    };
    Frame::decode(&bytes).map_err(RecvError::Protocol)
}

// -------------------------------------------------------- thread links

/// What reaches the supervisor from a worker, under either isolation.
#[derive(Debug)]
pub(crate) enum Event {
    /// A frame from worker `worker`'s connection `conn`.
    Frame { worker: usize, conn: u64, frame: Frame },
    /// The connection closed: the worker exited or was killed.
    Closed { worker: usize, conn: u64 },
    /// The connection carried bytes that do not decode.
    Malformed { worker: usize, conn: u64 },
}

/// Chaos a thread worker's link carries out in its next batch. The
/// supervisor arms it before handing the batch out; the link takes it
/// up when the batch frame arrives.
#[derive(Debug, Default)]
pub(crate) struct LinkChaos {
    /// Die at the heartbeat of this virtual cycle, before ticking it.
    pub(crate) kill_at: Option<u64>,
    /// `(cycle, out-link, stealth)`: flip a bit of that boundary value
    /// after the producer hashed it. `stealth` also rewrites the
    /// checksum, so only the barrier hash check can catch it.
    pub(crate) corrupt: Vec<(u64, u32, bool)>,
}

/// A worker thread's transport under thread isolation. See the module
/// docs for where each frame goes.
#[derive(Debug)]
pub(crate) struct ThreadLink {
    worker: usize,
    conn: u64,
    /// Control frames from the supervisor and boundary values from
    /// producers, in one queue.
    inbox: Receiver<Vec<u8>>,
    supervisor: Sender<Event>,
    /// Per out-link: the consumer's inbox and its in-link index.
    routes: Vec<(Sender<Vec<u8>>, u32)>,
    /// Where the supervisor arms chaos for the next batch.
    arming: Arc<Mutex<LinkChaos>>,
    armed: LinkChaos,
    /// Heartbeats sent: the worker's sign of life to the supervisor.
    progress: Arc<AtomicU64>,
}

impl ThreadLink {
    pub(crate) fn new(
        worker: usize,
        conn: u64,
        inbox: Receiver<Vec<u8>>,
        supervisor: Sender<Event>,
        routes: Vec<(Sender<Vec<u8>>, u32)>,
        arming: Arc<Mutex<LinkChaos>>,
    ) -> ThreadLink {
        ThreadLink {
            worker,
            conn,
            inbox,
            supervisor,
            routes,
            arming,
            armed: LinkChaos::default(),
            progress: Arc::default(),
        }
    }

    /// The count of heartbeats this link has sent, shared.
    pub(crate) fn progress(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.progress)
    }

    /// Tells the supervisor the worker is gone and hands back the
    /// inbox, so a respawned worker keeps the address its producers
    /// send to.
    pub(crate) fn close(self) -> Receiver<Vec<u8>> {
        let _ = self.supervisor.send(Event::Closed { worker: self.worker, conn: self.conn });
        self.inbox
    }
}

impl Transport for ThreadLink {
    fn send(&mut self, frame: &Frame) -> Result<(), PartitionError> {
        let gone = || PartitionError::Transport { detail: "channel closed".into() };
        match frame {
            Frame::Boundary { generation, link, msg } => {
                let (inbox, in_link) = self.routes.get(*link as usize).ok_or_else(|| {
                    PartitionError::Protocol { detail: format!("no out-link {link}") }
                })?;
                let mut msg = msg.clone();
                let hit =
                    self.armed.corrupt.iter().position(|&(c, l, _)| (c, l) == (msg.cycle, *link));
                if let Some(i) = hit {
                    let (_, _, stealth) = self.armed.corrupt.swap_remove(i);
                    if let Some(v) = msg.values.first_mut() {
                        *v ^= 1;
                    }
                    if stealth {
                        msg = BoundaryMsg::new(msg.seq, msg.cycle, msg.values);
                    }
                }
                let routed = Frame::Boundary { generation: *generation, link: *in_link, msg };
                inbox.send(routed.encode()).map_err(|_| gone())
            }
            // A heartbeat only counts progress, and is where an armed
            // kill strikes.
            Frame::Heartbeat { cycle, .. } => match self.armed.kill_at {
                Some(kill) if *cycle >= kill => {
                    Err(PartitionError::Transport { detail: format!("killed at cycle {kill}") })
                }
                _ => {
                    self.progress.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
            },
            other => self
                .supervisor
                .send(Event::Frame { worker: self.worker, conn: self.conn, frame: other.clone() })
                .map_err(|_| gone()),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, RecvError> {
        let frame = recv_encoded(&self.inbox, timeout)?;
        if let Frame::Batch { .. } = frame {
            let mut arming = self.arming.lock().unwrap_or_else(PoisonError::into_inner);
            self.armed = std::mem::take(&mut *arming);
        }
        Ok(frame)
    }
}

// ------------------------------------------------------------- sockets

/// Cross-process transport: frames over a Unix-domain stream socket.
///
/// The receive side buffers partial frames across calls, so a slow
/// writer (or a deadline that expires mid-frame) never corrupts frame
/// boundaries: the next call resumes where the stream left off.
#[derive(Debug)]
pub struct SocketTransport {
    stream: UnixStream,
    /// Bytes received but not yet consumed as a complete frame.
    pending: Vec<u8>,
}

impl SocketTransport {
    /// Wraps a connected stream.
    #[must_use]
    pub fn new(stream: UnixStream) -> Self {
        SocketTransport { stream, pending: Vec::new() }
    }

    /// A connected in-process pair, for tests.
    ///
    /// # Errors
    ///
    /// [`PartitionError::Transport`] if the socketpair syscall fails.
    pub fn pair() -> Result<(SocketTransport, SocketTransport), PartitionError> {
        let (a, b) =
            UnixStream::pair().map_err(|e| PartitionError::Transport { detail: e.to_string() })?;
        Ok((SocketTransport::new(a), SocketTransport::new(b)))
    }

    /// Whether `pending` holds at least one complete frame, and its
    /// total length if so.
    fn complete_frame_len(&self) -> Result<Option<usize>, PartitionError> {
        if self.pending.len() < HEADER_LEN {
            return Ok(None);
        }
        let payload_len = header_payload_len(&self.pending)?;
        let total = HEADER_LEN + payload_len + CHECKSUM_LEN;
        Ok(if self.pending.len() >= total { Some(total) } else { None })
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, frame: &Frame) -> Result<(), PartitionError> {
        self.stream
            .write_all(&frame.encode())
            .and_then(|()| self.stream.flush())
            .map_err(|e| PartitionError::Transport { detail: e.to_string() })
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Frame, RecvError> {
        let deadline = Instant::now().checked_add(timeout);
        loop {
            // Header validation errors (bad magic, absurd length) are
            // unrecoverable for a byte stream — framing is lost.
            match self.complete_frame_len().map_err(RecvError::Protocol)? {
                Some(total) => {
                    let frame_bytes: Vec<u8> = self.pending.drain(..total).collect();
                    return Frame::decode(&frame_bytes).map_err(RecvError::Protocol);
                }
                None => {
                    let now = Instant::now();
                    if deadline.is_some_and(|d| now >= d) {
                        return Err(RecvError::Timeout);
                    }
                    // Never Some(0): that disables the timeout.
                    let _ = self.stream.set_read_timeout(deadline.map(|d| d - now));
                    let mut chunk = [0u8; 4096];
                    match self.stream.read(&mut chunk) {
                        Ok(0) => return Err(RecvError::Disconnected),
                        Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                        Err(e)
                            if e.kind() == ErrorKind::WouldBlock
                                || e.kind() == ErrorKind::TimedOut =>
                        {
                            return Err(RecvError::Timeout)
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => return Err(RecvError::Disconnected),
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::BoundaryMsg;

    fn boundary(seq: u64) -> Frame {
        Frame::Boundary { generation: 1, link: 0, msg: BoundaryMsg::new(seq, seq, vec![-7, 9]) }
    }

    #[test]
    fn channel_transport_round_trips_frames() {
        let (mut a, mut b) = ChannelTransport::pair();
        a.send(&boundary(0)).unwrap();
        a.send(&Frame::Shutdown).unwrap();
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), boundary(0));
        assert_eq!(b.recv_timeout(Duration::from_secs(1)).unwrap(), Frame::Shutdown);
        b.send(&boundary(5)).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_secs(1)).unwrap(), boundary(5));
        assert!(matches!(a.recv_timeout(Duration::from_millis(10)), Err(RecvError::Timeout)));
        drop(b);
        assert!(matches!(a.recv_timeout(Duration::from_millis(10)), Err(RecvError::Disconnected)));
    }

    #[test]
    fn thread_link_sends_boundaries_to_the_consumer_and_the_rest_to_the_supervisor() {
        let (to_worker, inbox) = mpsc::channel();
        let (events_tx, events) = mpsc::channel();
        let (a_tx, a_rx) = mpsc::channel();
        let (b_tx, b_rx) = mpsc::channel();
        // Out-link 0 feeds consumer A's in-link 2; out-link 1 feeds
        // consumer B's in-link 0.
        let arming = Arc::new(Mutex::new(LinkChaos::default()));
        let routes = vec![(a_tx, 2), (b_tx, 0)];
        let mut link = ThreadLink::new(3, 7, inbox, events_tx, routes, Arc::clone(&arming));

        let msg = BoundaryMsg::new(0, 5, vec![1, -2]);
        link.send(&Frame::Boundary { generation: 4, link: 1, msg: msg.clone() }).unwrap();
        let routed = Frame::decode(&b_rx.try_recv().unwrap()).unwrap();
        assert_eq!(routed, Frame::Boundary { generation: 4, link: 0, msg });
        assert!(a_rx.try_recv().is_err());
        assert!(events.try_recv().is_err(), "a boundary value reached the supervisor");
        assert!(link.send(&boundary(0)).is_ok() && a_rx.try_recv().is_ok());
        assert!(
            link.send(&Frame::Boundary {
                generation: 4,
                link: 2,
                msg: BoundaryMsg::new(0, 5, vec![1])
            })
            .is_err(),
            "no out-link 2"
        );

        let control = [
            Frame::Hello { worker: 3, fingerprint: 9 },
            Frame::RollbackAck { worker: 3, generation: 4, cycle: 32 },
            Frame::Fault { worker: 3, generation: 4, kind: crate::runner::DetectionKind::Stall },
        ];
        for frame in control {
            link.send(&frame).unwrap();
            match events.try_recv() {
                Ok(Event::Frame { worker: 3, conn: 7, frame: got }) => assert_eq!(got, frame),
                other => panic!("expected {frame:?} at the supervisor, got {other:?}"),
            }
        }
        link.send(&Frame::Heartbeat { worker: 3, generation: 4, cycle: 40 }).unwrap();
        assert!(events.try_recv().is_err(), "a heartbeat reached the supervisor");
        assert!(a_rx.try_recv().is_err() && b_rx.try_recv().is_err());

        // Chaos armed for the next batch takes effect when the batch
        // frame arrives: a plain corruption, then the kill.
        *arming.lock().unwrap() = LinkChaos { kill_at: Some(41), corrupt: vec![(6, 1, false)] };
        let batch = Frame::Batch {
            generation: 4,
            start: 0,
            cycles: 1,
            prologue: false,
            inputs: vec![vec![]],
            faults: Vec::new(),
            stall: None,
        };
        to_worker.send(batch.encode()).unwrap();
        assert_eq!(link.recv_timeout(Duration::from_secs(1)).unwrap(), batch);
        link.send(&Frame::Boundary {
            generation: 4,
            link: 1,
            msg: BoundaryMsg::new(1, 6, vec![8]),
        })
        .unwrap();
        let Frame::Boundary { msg, .. } = Frame::decode(&b_rx.try_recv().unwrap()).unwrap() else {
            panic!("expected a boundary frame");
        };
        assert_eq!((msg.values[0], msg.verify(1).is_err()), (9, true), "flipped, stale checksum");
        assert!(link.send(&Frame::Heartbeat { worker: 3, generation: 4, cycle: 40 }).is_ok());
        assert!(link.send(&Frame::Heartbeat { worker: 3, generation: 4, cycle: 41 }).is_err());

        drop(link.close());
        assert!(matches!(events.try_recv(), Ok(Event::Closed { worker: 3, conn: 7 })));
    }

    #[test]
    fn socket_transport_round_trips_and_reassembles_split_frames() {
        let (mut a, mut b) = SocketTransport::pair().unwrap();
        for seq in 0..5 {
            a.send(&boundary(seq)).unwrap();
        }
        for seq in 0..5 {
            assert_eq!(b.recv_timeout(Duration::from_secs(2)).unwrap(), boundary(seq));
        }

        // Split one frame across two raw writes with a pause; the
        // reader must reassemble it, not tear it.
        let bytes = boundary(99).encode();
        let (head, tail) = bytes.split_at(7);
        let tail = tail.to_vec();
        let mut raw = a.stream.try_clone().unwrap();
        raw.write_all(head).unwrap();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            raw.write_all(&tail).unwrap();
        });
        assert_eq!(b.recv_timeout(Duration::from_secs(2)).unwrap(), boundary(99));
        writer.join().unwrap();
    }

    #[test]
    fn socket_transport_times_out_and_detects_disconnect() {
        let (mut a, b) = SocketTransport::pair().unwrap();
        assert!(matches!(a.recv_timeout(Duration::from_millis(20)), Err(RecvError::Timeout)));
        drop(b);
        assert!(matches!(a.recv_timeout(Duration::from_millis(20)), Err(RecvError::Disconnected)));
        assert!(matches!(a.send(&Frame::Shutdown), Err(PartitionError::Transport { .. })));
    }

    #[test]
    fn socket_transport_reports_garbage_as_protocol_error() {
        let (a, mut b) = SocketTransport::pair().unwrap();
        let mut raw = a.stream.try_clone().unwrap();
        raw.write_all(b"NOTAFRAMEATALL").unwrap();
        assert!(matches!(
            b.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Protocol(PartitionError::Protocol { .. }))
        ));

        // A checksum-corrupted but well-framed message is also typed.
        let (c, mut d) = SocketTransport::pair().unwrap();
        let mut bytes = boundary(3).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let mut raw = c.stream.try_clone().unwrap();
        raw.write_all(&bytes).unwrap();
        assert!(matches!(
            d.recv_timeout(Duration::from_millis(200)),
            Err(RecvError::Protocol(PartitionError::Protocol { .. }))
        ));
    }
}
