//! The socket mesh: a [`WirePort`] is one node's endpoint in a fully
//! connected network of framed TCP or Unix-domain connections, and
//! implements the same [`FifoPort`] contract as the in-process
//! [`caex_net::NodePort`] — so [`caex::drive::drive_node`] runs the
//! §4.2 resolution algorithm over it unchanged, from separate OS
//! processes.
//!
//! Topology: every ordered pair of nodes gets one simplex connection.
//! Node `i` dials each peer's listener for its *outbound* link
//! (announcing itself with [`Frame::Hello`]) and accepts `n − 1`
//! *inbound* links on an acceptor thread that blocks in `accept`.
//!
//! Sending: each outbound link is one `Link`, a lock over the stream
//! and a queue of encoded frames not yet on the wire. While the queue
//! is empty the stream is *parked* in the link in non-blocking mode,
//! and the sending thread writes its frame straight into the socket. A
//! write that would block, or ends short, queues the rest of the frame
//! with its written-byte count and wakes the link's writer thread,
//! which *checks the stream out*, finishes the queue with blocking
//! writes off the lock and parks the stream again. A sender that finds
//! the queue non-empty, or the stream checked out, appends to the
//! queue. Per-sender FIFO holds because the queue only ever drains
//! from its head, and a send never blocks on a slow peer.
//!
//! Failure detection: an idle outbound link carries a
//! [`Frame::Heartbeat`] every [`WireConfig::heartbeat_interval`]. The
//! receiving side timestamps every frame and feeds the gaps to a
//! per-peer phi-accrual estimator; the current silence is scored as a
//! continuous suspicion level φ with **two** thresholds. The verdicts
//! travel in the port's one inbox, in FIFO order with the messages:
//! [`FifoPort::recv_timeout`] returns a report as a local
//! [`caex::Event`] (paired with the peer it is about), and the drive
//! loop applies it like any other event.
//!
//! - φ ≥ [`WireConfig::phi_suspect`] — the peer is *Suspected*:
//!   reported (re-reportably) as [`caex::Event::PeerSuspected`] —
//!   purely informational, nothing is excluded. The first frame of any
//!   kind from a suspected peer ends the suspicion: its reader counts
//!   the flap and queues [`caex::Event::PeerRejoined`] *before* the
//!   frame's own message, so a commit that ends the silence is handled
//!   after the rejoin, and the participant re-forwards only a commit
//!   the peer really missed.
//! - φ ≥ [`WireConfig::phi_confirm`] **on two successive detector
//!   polls at least one heartbeat apart** — the peer is *Confirmed*
//!   dead: reported once as [`caex::Event::DeserterSuspected`], so a
//!   crashed participant surfaces as a §4.2 *deserter* instead of
//!   hanging resolution. The
//!   second poll protects a process resuming from `SIGSTOP`: its
//!   `last_seen` clocks are uniformly stale until its reader threads
//!   drain the buffered heartbeats, and one heartbeat of grace is
//!   exactly the time that takes.
//!
//! `recv_timeout` polls the detector before it waits and at least once
//! per heartbeat interval while it waits, so detection latency does not
//! depend on the caller's timeout; one poll's reports go in peer-id
//! order. Once every peer has left the mesh with its Bye and the inbox
//! is empty, nothing more can arrive: `recv_timeout` reports
//! [`RecvTimeoutError::Disconnected`], which ends a drive loop whose
//! peers all departed (a resumed zombie's, whose peers will never
//! announce their exit to it).
//!
//! Hard evidence skips the accrual: a connection that ends without a
//! [`Frame::Bye`] (and without a newer-incarnation replacement link),
//! or a writer whose redial rounds are exhausted, confirms
//! immediately.
//!
//! Reconnect-and-resume: a write that fails leaves its frame at the
//! head of the queue; the writer re-dials with
//! [`WireConfig::reconnect_backoff`] (doubling per round),
//! re-handshakes with an incarnation-bumped [`Frame::Hello`], replays
//! that frame whole, and carries on with the queue — the outbound
//! backlog survives the outage. The accepting side sees the
//! higher incarnation, stands its suspicion down, and reports the
//! rejoin. Recovery traffic is accounted in [`NetStats`] under the
//! `reconnect` / `suspicion_flap` / `replayed_frame` recovery kinds.

use crate::detector::PhiEstimator;
use crate::frame::{encode_frame, read_frame, write_frame, Frame};
use caex::Event;
use caex_net::{FifoPort, Kinded, NetStats, NodeId, RecvTimeoutError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// A mesh endpoint address: TCP socket or Unix-domain socket path.
///
/// Rendered/parsed as `tcp://127.0.0.1:4000` or `unix:/tmp/n0.sock`,
/// so address maps travel through CLI arguments and rendezvous lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireAddr {
    /// A TCP endpoint.
    Tcp(SocketAddr),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl fmt::Display for WireAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireAddr::Tcp(a) => write!(f, "tcp://{a}"),
            WireAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

impl FromStr for WireAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(rest) = s.strip_prefix("tcp://") {
            rest.parse()
                .map(WireAddr::Tcp)
                .map_err(|e| format!("bad tcp address `{rest}`: {e}"))
        } else if let Some(rest) = s.strip_prefix("unix:") {
            Ok(WireAddr::Unix(PathBuf::from(rest)))
        } else {
            Err(format!("address `{s}` has neither a tcp:// nor a unix: scheme"))
        }
    }
}

/// Transport tuning: timeouts, heartbeat cadence, reconnect policy.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// Dial attempts (initial connect and mid-run reconnect alike).
    pub dial_retries: u32,
    /// Backoff before the first retry; doubles per attempt.
    pub dial_backoff: Duration,
    /// An idle outbound link sends a heartbeat this often.
    pub heartbeat_interval: Duration,
    /// Suspicion threshold: φ at which a silent peer becomes
    /// *Suspected* (informational, reversible).
    pub phi_suspect: f64,
    /// Confirmation threshold: φ at which a silent peer becomes
    /// *Confirmed* dead (after holding for two polls one heartbeat
    /// apart) and is reported as a §4.2 deserter.
    pub phi_confirm: f64,
    /// Inter-arrival samples kept per peer by the phi estimator.
    pub phi_window: usize,
    /// Backoff before a writer's first mid-run redial round; doubles
    /// per round, [`WireConfig::dial_retries`] rounds total.
    pub reconnect_backoff: Duration,
    /// Hard cap on any single blocking read (self-cleaning readers).
    pub read_timeout: Duration,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig {
            connect_timeout: Duration::from_secs(2),
            dial_retries: 6,
            dial_backoff: Duration::from_millis(25),
            heartbeat_interval: Duration::from_millis(50),
            phi_suspect: 1.0,
            phi_confirm: 8.0,
            phi_window: 64,
            reconnect_backoff: Duration::from_millis(25),
            read_timeout: Duration::from_secs(10),
        }
    }
}

impl WireConfig {
    /// Maps a legacy fixed crash timeout onto the accrual detector:
    /// sets [`WireConfig::phi_confirm`] so that, at nominal heartbeat
    /// cadence, confirmation latency matches `timeout`. Call *after*
    /// setting [`WireConfig::heartbeat_interval`].
    #[must_use]
    pub fn with_crash_timeout(mut self, timeout: Duration) -> Self {
        self.phi_confirm = crate::detector::phi_for_timeout(
            timeout.as_secs_f64(),
            self.heartbeat_interval.as_secs_f64(),
        );
        self
    }
}

enum WireListener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl WireListener {
    fn accept(&self) -> io::Result<WireStream> {
        match self {
            WireListener::Tcp(l) => l.accept().map(|(s, _)| WireStream::Tcp(s)),
            WireListener::Unix(l) => l.accept().map(|(s, _)| WireStream::Unix(s)),
        }
    }
}

enum WireStream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl WireStream {
    fn tune(&self, read_timeout: Duration) {
        self.set_nonblocking(false);
        match self {
            WireStream::Tcp(s) => {
                let _ = s.set_nodelay(true);
                let _ = s.set_read_timeout(Some(read_timeout));
            }
            WireStream::Unix(s) => {
                let _ = s.set_read_timeout(Some(read_timeout));
            }
        }
    }

    /// Parked streams are non-blocking; a checked-out one blocks.
    fn set_nonblocking(&self, v: bool) {
        let _ = match self {
            WireStream::Tcp(s) => s.set_nonblocking(v),
            WireStream::Unix(s) => s.set_nonblocking(v),
        };
    }
}

impl Read for WireStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.read(buf),
            WireStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for WireStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            WireStream::Tcp(s) => s.write(buf),
            WireStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            WireStream::Tcp(s) => s.flush(),
            WireStream::Unix(s) => s.flush(),
        }
    }
}

/// Shared liveness bookkeeping, updated by reader/writer threads and
/// read by the detector poll and the barrier.
#[derive(Default)]
struct MeshState {
    last_seen: HashMap<NodeId, Instant>,
    ready: HashSet<NodeId>,
    departed: HashSet<NodeId>,
    dead: HashSet<NodeId>,
    reported: HashSet<NodeId>,
    /// Per-peer phi-accrual estimators, fed by reader threads.
    estimators: HashMap<NodeId, PhiEstimator>,
    /// Peers currently past the suspicion threshold.
    suspected: HashSet<NodeId>,
    /// First poll instant at which φ crossed the confirmation
    /// threshold; confirmation needs a second crossing one heartbeat
    /// later (see the module docs on `SIGSTOP` resume).
    confirm_at: HashMap<NodeId, Instant>,
    /// Highest Hello incarnation seen per peer. A higher re-handshake
    /// marks a reconnect; a reader whose link breaks only marks the
    /// peer dead if no newer link has handshaked since.
    incarnations: HashMap<NodeId, u32>,
    /// Per-peer minimum observed `recv_local_us − sent_us` over all
    /// protocol frames: one-way delay plus clock offset. The minimum
    /// is the tightest upper bound on the peer's clock being *behind*
    /// ours, and the standard NTP-style skew estimator under the
    /// assumption that at least one frame crossed near the floor
    /// latency.
    skew_min: HashMap<NodeId, i64>,
}

/// A bound-but-unconnected endpoint: the listener exists (so peers can
/// already dial it) but the mesh is not formed. Splitting bind from
/// connect lets a harness bind every listener *before* distributing
/// the address map, which removes every port race from mesh formation.
pub struct WireBound {
    id: NodeId,
    listener: WireListener,
    addr: WireAddr,
    config: WireConfig,
}

impl fmt::Debug for WireBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireBound")
            .field("id", &self.id)
            .field("addr", &self.addr)
            .finish()
    }
}

impl WireBound {
    /// Binds `id`'s listener. For TCP use port `0` to let the OS pick;
    /// for Unix sockets a stale path is removed first.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(id: NodeId, addr: &WireAddr, config: WireConfig) -> io::Result<WireBound> {
        let (listener, addr) = match addr {
            WireAddr::Tcp(sa) => {
                let l = TcpListener::bind(sa)?;
                let actual = l.local_addr()?;
                (WireListener::Tcp(l), WireAddr::Tcp(actual))
            }
            WireAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (WireListener::Unix(l), WireAddr::Unix(path.clone()))
            }
        };
        Ok(WireBound { id, listener, addr, config })
    }

    /// The bound address (with the OS-assigned port resolved) — hand
    /// it to the peers.
    #[must_use]
    pub fn local_addr(&self) -> &WireAddr {
        &self.addr
    }

    /// Forms the mesh: dials every peer in `addrs` (indexed by node
    /// id; the own entry is ignored) and starts accepting the `n − 1`
    /// inbound links.
    ///
    /// # Errors
    ///
    /// Fails if any initial dial exhausts its retries — mesh formation
    /// must be complete before the protocol starts.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` has no entry for this node's id.
    pub fn connect(self, addrs: &[WireAddr]) -> io::Result<WirePort> {
        let WireBound { id, listener, addr, config } = self;
        assert!(
            (id.index() as usize) < addrs.len(),
            "address map of {} entries lacks node {id}",
            addrs.len()
        );
        let num_nodes = addrs.len() as u32;
        let state = Arc::new(Mutex::new(MeshState::default()));
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let shutdown = Arc::new(AtomicBool::new(false));
        let epoch = Arc::new(Mutex::new(Instant::now()));
        // Dial generation, shared by every writer: 0 at mesh
        // formation, bumped per mid-run redial so acceptors can tell a
        // reconnect from a stale or duplicate link.
        let incarnation = Arc::new(AtomicU32::new(0));
        let (inbox_tx, inbox_rx) = mpsc::channel();

        let acceptor = {
            let state = Arc::clone(&state);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let inbox_tx = inbox_tx.clone();
            let epoch = Arc::clone(&epoch);
            let config = config.clone();
            thread::spawn(move || {
                accept_loop(&listener, &state, &stats, &shutdown, &inbox_tx, &epoch, &config);
            })
        };
        // The port exists before the dials, so a failed dial drops it:
        // the links formed so far say Bye and the acceptor stops.
        let mut port = WirePort {
            id,
            num_nodes,
            addr,
            config,
            links: BTreeMap::new(),
            writers: Vec::new(),
            acceptor: Some(acceptor),
            inbox_rx,
            inbox_tx,
            state,
            stats,
            shutdown,
            epoch,
        };

        // Outbound half: dial each peer, one writer thread per link.
        for (peer_idx, peer_addr) in addrs.iter().enumerate() {
            let peer = NodeId::new(peer_idx as u32);
            if peer == id {
                continue;
            }
            let stream = dial(peer_addr, &port.config, id, 0)?;
            stream.set_nonblocking(true);
            let link = Arc::new(Link::new(stream));
            let redial = Redial {
                own_id: id,
                peer,
                addr: peer_addr.clone(),
                config: port.config.clone(),
                state: Arc::clone(&port.state),
                stats: Arc::clone(&port.stats),
                incarnation: Arc::clone(&incarnation),
            };
            let writer_link = Arc::clone(&link);
            port.writers.push(thread::spawn(move || writer_loop(&writer_link, &redial)));
            port.links.insert(peer, link);
        }

        // Liveness clocks start at mesh formation, so a peer that never
        // sends anything still times out.
        {
            let mut st = port.state.lock();
            let now = Instant::now();
            for peer in port.links.keys() {
                st.last_seen.insert(*peer, now);
            }
        }
        Ok(port)
    }
}

/// Inbound half: blocks in `accept` and starts one reader thread per
/// link, until `shutdown` — which [`WirePort`]'s drop sets before it
/// dials the listener once to wake this loop.
fn accept_loop(
    listener: &WireListener,
    state: &Arc<Mutex<MeshState>>,
    stats: &Arc<Mutex<NetStats>>,
    shutdown: &AtomicBool,
    inbox: &Sender<(NodeId, Event)>,
    epoch: &Arc<Mutex<Instant>>,
    config: &WireConfig,
) {
    loop {
        let accepted = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match accepted {
            Ok(stream) => {
                stream.tune(config.read_timeout);
                let state = Arc::clone(state);
                let stats = Arc::clone(stats);
                let inbox = inbox.clone();
                let epoch = Arc::clone(epoch);
                let config = config.clone();
                thread::spawn(move || {
                    reader_loop(stream, &state, &stats, &inbox, &epoch, &config);
                });
            }
            // A dialer that gave up before its link was accepted, or a
            // signal: the listener itself is fine.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) => {}
            // Anything else (out of descriptors, say) may last a while:
            // back off, and keep listening for the redials.
            Err(_) => thread::sleep(config.dial_backoff),
        }
    }
}

/// Dials the port's own listener and hangs up, so a blocked
/// [`accept_loop`] returns and sees the shutdown. True if it connected.
fn wake_acceptor(addr: &WireAddr, timeout: Duration) -> bool {
    match addr {
        // Linux routes a dial to an unspecified address (a listener
        // bound on 0.0.0.0) to this host.
        WireAddr::Tcp(sa) => TcpStream::connect_timeout(sa, timeout).is_ok(),
        WireAddr::Unix(path) => UnixStream::connect(path).is_ok(),
    }
}

/// Dials `addr` with bounded exponential backoff, sending the
/// identifying [`Frame::Hello`] (tagged with the link's dial
/// generation) on success.
fn dial(
    addr: &WireAddr,
    config: &WireConfig,
    hello_as: NodeId,
    incarnation: u32,
) -> io::Result<WireStream> {
    let mut last_err = io::Error::other("no dial attempt made");
    for attempt in 0..=config.dial_retries {
        if attempt > 0 {
            thread::sleep(config.dial_backoff * 2u32.saturating_pow(attempt - 1));
        }
        let connected = match addr {
            WireAddr::Tcp(sa) => {
                TcpStream::connect_timeout(sa, config.connect_timeout).map(WireStream::Tcp)
            }
            WireAddr::Unix(path) => UnixStream::connect(path).map(WireStream::Unix),
        };
        match connected {
            Ok(mut stream) => {
                stream.tune(config.read_timeout);
                match write_frame(&mut stream, &Frame::Hello { id: hello_as, incarnation }) {
                    Ok(()) => return Ok(stream),
                    Err(e) => last_err = e,
                }
            }
            Err(e) => last_err = e,
        }
    }
    Err(last_err)
}

/// Registers a Hello on the accepting side. A strictly higher
/// incarnation than the recorded one is a mid-run reconnect: the peer
/// survived its outage and is resuming, so any death evidence the
/// silence accrued is withdrawn, and a peer that was suspected or
/// reported dead rejoins (the drive loop turns the rejoin into a
/// commit-forwarding round). Any other Hello is life like any frame.
fn register_hello(
    state: &Mutex<MeshState>,
    stats: &Mutex<NetStats>,
    inbox: &Sender<(NodeId, Event)>,
    peer: NodeId,
    incarnation: u32,
) {
    let mut st = state.lock();
    st.last_seen.insert(peer, Instant::now());
    let prev = st.incarnations.get(&peer).copied();
    if prev.is_none_or(|p| incarnation > p) {
        st.incarnations.insert(peer, incarnation);
    }
    if prev.is_some_and(|p| incarnation > p) {
        stats.lock().record_recovery("reconnect");
        st.dead.remove(&peer);
        st.confirm_at.remove(&peer);
        if st.suspected.remove(&peer) | st.reported.remove(&peer) {
            let _ = inbox.send((peer, Event::PeerRejoined { peer }));
        }
    } else {
        heard_from(&mut st, stats, inbox, peer);
    }
}

/// Life from `peer`: a suspected peer rejoins. The flap is counted and
/// the rejoin queued under the state lock, so it enters the inbox after
/// every report the detector queued before it and before the message of
/// the frame that ended the silence.
fn heard_from(
    st: &mut MeshState,
    stats: &Mutex<NetStats>,
    inbox: &Sender<(NodeId, Event)>,
    peer: NodeId,
) {
    if st.suspected.remove(&peer) {
        stats.lock().record_recovery("suspicion_flap");
        let _ = inbox.send((peer, Event::PeerRejoined { peer }));
    }
}

/// Inbound link: identify the peer from its Hello, then timestamp and
/// dispatch every frame, feeding inter-arrival gaps to the peer's phi
/// estimator. A link ending without a Bye marks the peer dead — unless
/// a newer-incarnation link has handshaked since, in which case this
/// is just the old link of a completed reconnect being torn down. Bye
/// marks the peer departed.
fn reader_loop(
    stream: WireStream,
    state: &Mutex<MeshState>,
    stats: &Mutex<NetStats>,
    inbox: &Sender<(NodeId, Event)>,
    epoch: &Mutex<Instant>,
    config: &WireConfig,
) {
    let mut stream = io::BufReader::new(stream);
    let (peer, link_incarnation) = match read_frame(&mut stream) {
        Ok(Frame::Hello { id, incarnation }) => {
            register_hello(state, stats, inbox, id, incarnation);
            (id, incarnation)
        }
        _ => return, // not a mesh peer; drop the connection
    };
    let window = config.phi_window;
    let floor = config.heartbeat_interval.as_secs_f64();
    loop {
        match read_frame(&mut stream) {
            // A repeated Hello on an open link: keep the bookkeeping
            // current but nothing else changes.
            Ok(Frame::Hello { id, incarnation }) => {
                register_hello(state, stats, inbox, id, incarnation);
            }
            Ok(frame) => {
                let recv_us = i64::try_from(epoch.lock().elapsed().as_micros())
                    .unwrap_or(i64::MAX);
                let now = Instant::now();
                let mut st = state.lock();
                if let Some(prev) = st.last_seen.insert(peer, now) {
                    let gap = now.saturating_duration_since(prev).as_secs_f64();
                    st.estimators
                        .entry(peer)
                        .or_insert_with(|| PhiEstimator::new(window, floor))
                        .observe(gap);
                }
                heard_from(&mut st, stats, inbox, peer);
                match frame {
                    Frame::Msg { from, sent_us, msg } => {
                        // One skew sample per protocol frame: one-way
                        // delay plus the sender's clock offset. Keep
                        // the minimum; the floor-latency crossing is
                        // the best offset bound available without
                        // round-trip probing.
                        let sample =
                            recv_us.saturating_sub(i64::try_from(sent_us).unwrap_or(i64::MAX));
                        st.skew_min
                            .entry(from)
                            .and_modify(|m| *m = (*m).min(sample))
                            .or_insert(sample);
                        let _ = inbox.send((from, Event::Msg(msg)));
                    }
                    Frame::Ready => {
                        st.ready.insert(peer);
                    }
                    Frame::Bye => {
                        st.departed.insert(peer);
                        return;
                    }
                    Frame::Heartbeat | Frame::Hello { .. } => {}
                }
            }
            Err(_) => {
                let mut st = state.lock();
                let superseded = st
                    .incarnations
                    .get(&peer)
                    .is_some_and(|cur| *cur > link_incarnation);
                if !st.departed.contains(&peer) && !superseded {
                    st.dead.insert(peer);
                }
                return;
            }
        }
    }
}

/// One outbound link: the stream and the frames not yet written to
/// it (see the module docs for parking and checking out).
struct Link {
    queue: std::sync::Mutex<Outbound>,
    /// Wakes the writer: a frame was queued, or the port is closing.
    wake: Condvar,
}

struct Outbound {
    /// The stream while parked, in non-blocking mode; `None` while the
    /// writer has it checked out, and after the writer gave up.
    stream: Option<WireStream>,
    /// Encoded frames not yet wholly written, oldest first.
    pending: VecDeque<Queued>,
    /// Bytes of `pending`'s head already written.
    written: usize,
    /// The last write: a heartbeat is due one interval after it.
    last_write: Instant,
    /// The port is dropping: the writer finishes `pending` (the Bye
    /// last, unless it went out directly) and exits.
    closing: bool,
    /// The writer gave the peer up; sends are refused.
    closed: bool,
}

struct Queued {
    bytes: Vec<u8>,
    heartbeat: bool,
}

impl Link {
    fn new(stream: WireStream) -> Link {
        Link {
            queue: std::sync::Mutex::new(Outbound {
                stream: Some(stream),
                pending: VecDeque::new(),
                written: 0,
                last_write: Instant::now(),
                closing: false,
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Outbound> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Writes `frame` into the parked stream if nothing is queued ahead
    /// of it, and queues whatever did not go out for the writer. False
    /// once the writer has given the peer up.
    fn send(&self, frame: &Frame) -> bool {
        let bytes = encode_frame(frame);
        let mut q = self.lock();
        if q.closed {
            return false;
        }
        if q.pending.is_empty() {
            let mut written = 0;
            if let Some(stream) = q.stream.as_mut() {
                written = write_nonblocking(stream, &bytes);
                if written == bytes.len() {
                    q.last_write = Instant::now();
                    return true;
                }
            }
            q.written = written;
            self.wake.notify_one();
        }
        q.pending.push_back(Queued { heartbeat: matches!(frame, Frame::Heartbeat), bytes });
        true
    }

    /// Sends the Bye, directly or behind the queue, and lets the writer
    /// finish the link.
    fn close(&self) {
        self.send(&Frame::Bye);
        self.lock().closing = true;
        self.wake.notify_one();
    }

    /// Waits up to `timeout` for the port to start closing; `true` once
    /// it has.
    fn closing_within(&self, timeout: Duration) -> bool {
        let q = self.lock();
        let (q, _) = self
            .wake
            .wait_timeout_while(q, timeout, |q| !q.closing)
            .unwrap_or_else(PoisonError::into_inner);
        q.closing
    }
}

/// Writes as much of `bytes` as the socket takes without blocking. A
/// failed write stops short too: the writer's blocking retry of the
/// rest meets the error again and reconnects.
fn write_nonblocking(stream: &mut WireStream, bytes: &[u8]) -> usize {
    let mut written = 0;
    while written < bytes.len() {
        match stream.write(&bytes[written..]) {
            Ok(0) => break,
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
    written
}

/// What a writer needs to put its link back on a fresh connection.
struct Redial {
    own_id: NodeId,
    peer: NodeId,
    addr: WireAddr,
    config: WireConfig,
    state: Arc<Mutex<MeshState>>,
    stats: Arc<Mutex<NetStats>>,
    incarnation: Arc<AtomicU32>,
}

impl Redial {
    /// Replaces `link`'s broken connection and replays `frame` whole on
    /// it.
    ///
    /// The rounds back off from [`WireConfig::reconnect_backoff`]
    /// (doubling, [`WireConfig::dial_retries`] rounds); each redial
    /// re-handshakes with a bumped-incarnation Hello. `None` if the
    /// peer is already known gone, or every round failed — hard
    /// evidence, so the peer is marked dead for immediate confirmation
    /// (unless the port is closing anyway) — or at once when the port
    /// starts closing during a backoff.
    fn resume(&self, link: &Link, frame: &Queued) -> Option<WireStream> {
        // No point resuming a link whose peer is already known gone
        // (reader EOF, departure, or a confirmed report) — reconnect
        // rounds are for peers that might come back.
        let gone = {
            let st = self.state.lock();
            st.departed.contains(&self.peer)
                || st.dead.contains(&self.peer)
                || st.reported.contains(&self.peer)
        };
        if gone {
            if !link.lock().closing {
                self.state.lock().dead.insert(self.peer);
            }
            return None;
        }
        // Single-attempt redial per round; the round loop owns the
        // backoff schedule.
        let single = WireConfig { dial_retries: 0, ..self.config.clone() };
        for round in 0..=self.config.dial_retries {
            if link.closing_within(self.config.reconnect_backoff * 2u32.saturating_pow(round)) {
                return None; // the port is dropping: its peer gets no more
            }
            let generation = self.incarnation.fetch_add(1, Ordering::Relaxed) + 1;
            let Ok(mut s) = dial(&self.addr, &single, self.own_id, generation) else {
                continue;
            };
            if s.write_all(&frame.bytes).is_ok() {
                let mut stats = self.stats.lock();
                stats.record_recovery("reconnect");
                if !frame.heartbeat {
                    stats.record_recovery("replayed_frame");
                }
                return Some(s);
            }
        }
        // Every reconnect round exhausted: hard evidence the peer is
        // gone for good.
        self.state.lock().dead.insert(self.peer);
        None
    }
}

/// Outbound link's writer thread: heartbeats after
/// [`WireConfig::heartbeat_interval`] with no write; checks the stream
/// out to finish queued frames with blocking writes off the lock, and
/// parks it again once the queue is empty; on a failed write resumes
/// the link through [`Redial::resume`], and gives the peer up (every
/// later send refused) if that fails; exits once the dropping port's
/// Bye is out.
fn writer_loop(link: &Link, redial: &Redial) {
    let interval = redial.config.heartbeat_interval;
    let mut q = link.lock();
    loop {
        if !q.pending.is_empty() {
            let mut stream = q.stream.take().expect("only the writer checks the stream out");
            stream.set_nonblocking(false);
            while let Some(frame) = q.pending.pop_front() {
                let from = std::mem::take(&mut q.written);
                drop(q);
                if stream.write_all(&frame.bytes[from..]).is_err() {
                    let Some(fresh) = redial.resume(link, &frame) else {
                        let mut q = link.lock();
                        q.closed = true;
                        q.pending.clear();
                        return;
                    };
                    stream = fresh;
                }
                q = link.lock();
            }
            stream.set_nonblocking(true);
            q.stream = Some(stream);
            q.last_write = Instant::now();
        } else if q.closing {
            return;
        } else {
            let idle = q.last_write.elapsed();
            if idle >= interval {
                drop(q);
                link.send(&Frame::Heartbeat);
                q = link.lock();
            } else {
                q = link
                    .wake
                    .wait_timeout(q, interval - idle)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        }
    }
}

/// One node's endpoint in the socket mesh. Implements [`FifoPort`], so
/// [`caex::drive::drive_node`] treats it exactly like the in-process
/// transport — plus [`WirePort::barrier`] for cross-process start
/// alignment.
pub struct WirePort {
    id: NodeId,
    num_nodes: u32,
    /// The listener's address, dialled once on drop to wake the acceptor.
    addr: WireAddr,
    config: WireConfig,
    /// Outbound links by peer; the detector polls them in id order.
    links: BTreeMap<NodeId, Arc<Link>>,
    /// Writer threads, joined on drop so every queued frame — above
    /// all the closing [`Frame::Bye`] — reaches the socket before the
    /// process may exit. Without the join, a fast exit races the Byes
    /// and peers misread the close as a crash.
    writers: Vec<thread::JoinHandle<()>>,
    /// The acceptor thread, joined on drop: the listener closes with it.
    acceptor: Option<thread::JoinHandle<()>>,
    /// The one inbox: protocol messages and detector reports, in the
    /// order they happened.
    inbox_rx: Receiver<(NodeId, Event)>,
    /// Keeps the inbox open even when every reader has exited: the
    /// port reports a disconnect from its own view of the mesh, not the
    /// channel's. Also the self-delivery path and the detector's.
    inbox_tx: Sender<(NodeId, Event)>,
    state: Arc<Mutex<MeshState>>,
    stats: Arc<Mutex<NetStats>>,
    shutdown: Arc<AtomicBool>,
    /// The clock zero that `sent_us` stamps and skew samples are
    /// measured against. Set at mesh formation; re-anchored by
    /// [`WirePort::rebase_epoch`] after the start barrier so every
    /// process measures from (approximately) the same instant.
    epoch: Arc<Mutex<Instant>>,
}

impl fmt::Debug for WirePort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WirePort")
            .field("id", &self.id)
            .field("num_nodes", &self.num_nodes)
            .finish()
    }
}

impl WirePort {
    /// This port's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the mesh.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Shared statistics handle (protocol messages only — heartbeats
    /// and other control frames are not counted).
    #[must_use]
    pub fn stats(&self) -> Arc<Mutex<NetStats>> {
        Arc::clone(&self.stats)
    }

    /// Start barrier: broadcasts [`Frame::Ready`] and blocks until
    /// every peer's Ready has arrived. Scenario step offsets measured
    /// from the instant this returns are aligned across processes to
    /// within one message propagation.
    ///
    /// # Errors
    ///
    /// Reports the peers still missing at `timeout` (including peers
    /// that died while the barrier waited).
    pub fn barrier(&self, timeout: Duration) -> Result<(), String> {
        for link in self.links.values() {
            link.send(&Frame::Ready);
        }
        let deadline = Instant::now() + timeout;
        loop {
            {
                let st = self.state.lock();
                if self.links.keys().all(|p| st.ready.contains(p)) {
                    return Ok(());
                }
                if Instant::now() > deadline {
                    let missing: Vec<String> = self
                        .links
                        .keys()
                        .filter(|p| !st.ready.contains(p))
                        .map(ToString::to_string)
                        .collect();
                    return Err(format!("barrier timed out waiting for {}", missing.join(", ")));
                }
            }
            thread::sleep(Duration::from_millis(2));
        }
    }

    fn send_event(&self, to: NodeId, event: Event) -> bool {
        let kind = event.kind();
        let Event::Msg(msg) = event else {
            // Local events are no messages and never cross the wire; a
            // caller handing one over is accounted as a drop, not a
            // panic.
            self.stats.lock().record_drop(kind);
            return false;
        };
        let ok = if to == self.id {
            // Self-delivery short-circuits the sockets.
            self.inbox_tx.send((self.id, Event::Msg(msg))).is_ok()
        } else if let Some(link) = self.links.get(&to) {
            let sent_us =
                u64::try_from(self.epoch.lock().elapsed().as_micros()).unwrap_or(u64::MAX);
            link.send(&Frame::Msg { from: self.id, sent_us, msg })
        } else {
            false
        };
        let mut stats = self.stats.lock();
        if ok {
            stats.record_send(kind);
            stats.record_channel(to);
        } else {
            stats.record_drop(kind);
        }
        ok
    }

    /// Re-anchors the `sent_us` clock zero to `at` and discards the
    /// skew samples collected so far. Call it right after
    /// [`WirePort::barrier`] returns, with the same `Instant` the
    /// harness uses as its observation epoch — then skew estimates
    /// are directly the per-peer offset between observation clocks.
    pub(crate) fn rebase_epoch(&self, at: Instant) {
        *self.epoch.lock() = at;
        self.state.lock().skew_min.clear();
    }

    /// Per-peer skew estimates: the minimum observed
    /// `recv_local_us − sent_us` over every protocol frame received
    /// from that peer since the last [`WirePort::rebase_epoch`].
    /// The value is one-way floor delay plus the peer's clock offset
    /// relative to this process; subtracting the symmetric estimate
    /// (or assuming symmetric floor delay) isolates the offset.
    /// Sorted by peer id; peers that never sent are absent.
    #[must_use]
    pub(crate) fn skew_estimates(&self) -> Vec<(NodeId, i64)> {
        let st = self.state.lock();
        let mut v: Vec<(NodeId, i64)> = st.skew_min.iter().map(|(p, s)| (*p, *s)).collect();
        v.sort_unstable();
        v
    }

    /// One failure-detector poll: scores every monitored peer's
    /// current silence as φ and walks the `Alive → Suspected →
    /// Confirmed` ladder, queueing each transition in the inbox as its
    /// local event, in peer-id order. (The way back to `Alive` is a
    /// frame from the peer; its reader queues the rejoin.)
    ///
    /// Confirmation requires hard death evidence (reader EOF without a
    /// Bye, or a writer's reconnect rounds exhausted) *or* φ ≥
    /// [`WireConfig::phi_confirm`] held across two polls at least one
    /// heartbeat apart — a freshly `SIGCONT`ed process polls with
    /// uniformly stale `last_seen` clocks, and the grace poll gives
    /// its readers one heartbeat to drain the buffered evidence that
    /// everyone is actually fine.
    ///
    /// Returns whether every peer has left the mesh with its Bye.
    fn poll_detector(&self) -> bool {
        let now = Instant::now();
        let hb = self.config.heartbeat_interval;
        let floor = hb.as_secs_f64();
        let mut st = self.state.lock();
        let mut departed = 0;
        for &peer in self.links.keys() {
            if st.departed.contains(&peer) {
                departed += 1;
                continue;
            }
            if st.reported.contains(&peer) {
                continue;
            }
            let hard_dead = st.dead.contains(&peer);
            let silence = st
                .last_seen
                .get(&peer)
                .map(|seen| now.duration_since(*seen).as_secs_f64())
                .unwrap_or(0.0);
            let phi = st
                .estimators
                .get(&peer)
                .map_or(silence / (floor * std::f64::consts::LN_10), |e| e.phi(silence));
            // Suspicion level: informational, fully reversible.
            if (hard_dead || phi >= self.config.phi_suspect) && st.suspected.insert(peer) {
                let _ = self.inbox_tx.send((peer, Event::PeerSuspected { peer }));
            }
            // Confirmation: hard evidence now, accrual on the
            // second poll.
            let confirmed = if hard_dead {
                true
            } else if phi >= self.config.phi_confirm {
                match st.confirm_at.get(&peer) {
                    Some(first) => now.duration_since(*first) >= hb,
                    None => {
                        st.confirm_at.insert(peer, now);
                        false
                    }
                }
            } else {
                st.confirm_at.remove(&peer);
                false
            };
            if confirmed {
                st.reported.insert(peer);
                st.suspected.remove(&peer);
                st.confirm_at.remove(&peer);
                let _ = self.inbox_tx.send((peer, Event::DeserterSuspected { peer }));
            }
        }
        departed > 0 && departed == self.links.len()
    }

    /// Polls the detector, then waits for the inbox's next entry, polling
    /// again at least once per heartbeat interval until `timeout`. Only
    /// a protocol message counts as a delivery. Once every peer has
    /// departed, an empty inbox is a disconnect.
    fn recv_event(&self, timeout: Duration) -> Result<(NodeId, Event), RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        loop {
            let alone = self.poll_detector();
            let wait = deadline.saturating_duration_since(Instant::now());
            let wait = if alone {
                Duration::ZERO
            } else {
                wait.min(self.config.heartbeat_interval)
            };
            match self.inbox_rx.recv_timeout(wait) {
                Ok((from, event)) => {
                    if let Event::Msg(_) = &event {
                        self.stats.lock().record_delivery(event.kind());
                    }
                    return Ok((from, event));
                }
                Err(mpsc::RecvTimeoutError::Timeout) if alone => {
                    return Err(RecvTimeoutError::Disconnected)
                }
                Err(mpsc::RecvTimeoutError::Timeout) if Instant::now() < deadline => {}
                Err(mpsc::RecvTimeoutError::Timeout) => return Err(RecvTimeoutError::Timeout),
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(RecvTimeoutError::Disconnected)
                }
            }
        }
    }
}

impl FifoPort<Event> for WirePort {
    fn id(&self) -> NodeId {
        self.id
    }

    fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    fn send(&self, to: NodeId, payload: Event) -> bool {
        self.send_event(to, payload)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, Event), RecvTimeoutError> {
        self.recv_event(timeout)
    }

    /// Drains the inbox: each protocol message is recorded as a drop;
    /// queued detector reports are dropped uncounted.
    fn drain_undelivered(&self) -> usize {
        let mut drained = 0;
        while let Ok((_, event)) = self.inbox_rx.try_recv() {
            if let Event::Msg(_) = &event {
                self.stats.lock().record_drop(event.kind());
                drained += 1;
            }
        }
        drained
    }
}

impl Drop for WirePort {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for link in self.links.values() {
            link.close();
        }
        // Block until every writer has flushed its Bye — the graceful
        // departure must hit the wire before this process can exit.
        // Readers need no join: they exit with the peer's close.
        for writer in self.writers.drain(..) {
            let _ = writer.join();
        }
        // Joining the woken acceptor closes the listener, so a redial
        // after the drop is refused rather than left unanswered.
        if let Some(acceptor) = self.acceptor.take() {
            if wake_acceptor(&self.addr, self.config.connect_timeout) || acceptor.is_finished() {
                let _ = acceptor.join();
            }
        }
    }
}
