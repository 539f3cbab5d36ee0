//! In-process tests for the socket transport: FIFO delivery across a
//! real TCP link, sends that never wait on a stalled peer, a link reset
//! under backlog, the listener's shutdown, whole-scenario runs over
//! loopback TCP and Unix sockets, and the heartbeat failure detector
//! distinguishing a silent crash from a graceful goodbye, its reports
//! read off the port's one inbox in order with the messages.

use caex::drive::drive_node;
use caex::{Event, Msg, NestedStrategy, Participant};
use caex_action::{ActionId, ActionRegistry, ActionScope};
use caex_net::{FifoPort, NodeId, RecvTimeoutError};
use caex_tree::{chain_tree, Exception, ExceptionId};
use caex_wire::frame::{read_frame, write_frame, Frame};
use caex_wire::harness::{run_local, Transport};
use caex_wire::scenario::WireScenario;
use caex_wire::{WireAddr, WireBound, WireConfig, WirePort};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// A unique scratch directory per test, for Unix-domain socket files.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caex-wire-test-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tcp_any() -> WireAddr {
    "tcp://127.0.0.1:0".parse().expect("loopback wildcard")
}

/// Forms a full n-node TCP mesh in-process and returns the ports.
fn tcp_mesh(n: u32, config: &WireConfig) -> Vec<WirePort> {
    let bounds: Vec<WireBound> = (0..n)
        .map(|i| {
            WireBound::bind(NodeId::new(i), &tcp_any(), config.clone()).expect("bind loopback")
        })
        .collect();
    let addrs: Vec<WireAddr> = bounds.iter().map(|b| b.local_addr().clone()).collect();
    bounds
        .into_iter()
        .map(|b| b.connect(&addrs).expect("form mesh"))
        .collect()
}

#[test]
fn two_node_tcp_link_preserves_fifo_order() {
    let ports = tcp_mesh(2, &WireConfig::default());
    // No barrier: it synchronizes *threads*, one per node, and this
    // test drives both ports from one thread. Sends buffer regardless.
    let (sender, receiver) = (&ports[0], &ports[1]);

    // A burst of protocol messages tagged by action id; FIFO order
    // means they must arrive exactly in send order.
    for i in 0..50u32 {
        let msg = Msg::Ack { from: sender.id(), action: ActionId::new(i) };
        assert!(sender.send(receiver.id(), Event::Msg(msg)), "send {i} accepted");
    }
    for i in 0..50u32 {
        let (from, event) = receiver
            .recv_timeout(Duration::from_secs(5))
            .expect("burst message arrives");
        assert_eq!(from, sender.id());
        match event {
            Event::Msg(Msg::Ack { action, .. }) => assert_eq!(action, ActionId::new(i)),
            other => panic!("expected Ack #{i}, got {other:?}"),
        }
    }
}

#[test]
fn local_events_never_cross_the_wire() {
    let ports = tcp_mesh(2, &WireConfig::default());
    // A non-Msg event addressed to a peer is refused and accounted as
    // a drop, not silently serialized.
    let exc = Exception::new(ExceptionId::new(1));
    let refused = ports[0].send(NodeId::new(1), Event::Raise(exc));
    assert!(!refused);
    assert_eq!(ports[0].stats().lock().dropped_total(), 1);
}

#[test]
fn example1_over_loopback_tcp_matches_the_simulator() {
    let outcome = run_local(
        "example1",
        Transport::Tcp,
        &scratch("tcp-ex1"),
        &WireConfig::default(),
    )
    .expect("example1 runs over TCP");
    let baseline = WireScenario::sim_baseline("example1").expect("sim oracle");
    assert_eq!(outcome.total_sent, baseline.total_messages, "§4.4: (N−1)(2P+3Q+1) = 10");
    assert_eq!(outcome.resolved, baseline.agreed);
    assert!(outcome.resolved.is_some(), "resolution must have committed");
}

#[test]
fn example1_over_unix_sockets_matches_the_simulator() {
    let outcome = run_local(
        "example1",
        Transport::Unix,
        &scratch("uds-ex1"),
        &WireConfig::default(),
    )
    .expect("example1 runs over Unix sockets");
    let baseline = WireScenario::sim_baseline("example1").expect("sim oracle");
    assert_eq!(outcome.total_sent, baseline.total_messages);
    assert_eq!(outcome.resolved, baseline.agreed);
}

/// The `i`-th message of a bulk run: a Commit of action `i` whose
/// 16 KiB detail spells `i` out, so a torn or misplaced frame shows.
fn bulky(i: u32) -> Msg {
    Msg::Commit {
        action: ActionId::new(i),
        from: NodeId::new(0),
        exc: Exception::new(ExceptionId::new(1)).with_detail(format!("{i:08}").repeat(2048)),
    }
}

/// Bulk messages that overflow what the kernel buffers for a link
/// nobody reads (10 MiB).
const BULK: u32 = 640;

/// Reads frames up to the next protocol message, skipping heartbeats,
/// and returns the message's index in the bulk run.
fn next_bulky(link: &mut TcpStream) -> u32 {
    loop {
        match read_frame(link).expect("an intact frame") {
            Frame::Msg { msg, .. } => {
                let Msg::Commit { action, .. } = &msg else { panic!("not a bulk message") };
                let i = action.index();
                assert!(msg == bulky(i), "message {i} arrives intact");
                return i;
            }
            Frame::Heartbeat => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// Reads past heartbeats to the port's closing Bye.
fn expect_bye(link: &mut TcpStream) {
    loop {
        match read_frame(link).expect("an intact frame") {
            Frame::Heartbeat => {}
            other => return assert_eq!(other, Frame::Bye),
        }
    }
}

/// Accepts the port's next link on the fake's listener and checks its
/// Hello.
fn accept_link(listener: &TcpListener, incarnation: u32) -> TcpStream {
    let (mut link, _) = listener.accept().expect("the port's link");
    link.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let hello = read_frame(&mut link).expect("a Hello");
    assert_eq!(hello, Frame::Hello { id: NodeId::new(0), incarnation });
    link
}

#[test]
fn a_stalled_peer_never_blocks_a_sender() {
    let (port, _, listener) = port_with_stalled_peer(&WireConfig::default());
    // The sends run on their own thread, so a send that blocks fails
    // the test instead of hanging it.
    let (done_tx, done_rx) = mpsc::channel();
    let sender = thread::spawn(move || {
        for i in 0..BULK {
            let start = Instant::now();
            assert!(port.send(NodeId::new(1), Event::Msg(bulky(i))), "send {i} accepted");
            let took = start.elapsed();
            assert!(took < Duration::from_millis(50), "send {i} waited {took:?} on the peer");
        }
        let _ = done_tx.send(port);
    });
    let port = done_rx.recv_timeout(Duration::from_secs(30)).expect("every send returns");
    sender.join().expect("the sending thread ends");
    // The peer wakes up: everything arrives, whole and in send order,
    // across the sends' partial writes and the writer's blocking ones.
    let mut link = accept_link(&listener, 0);
    for i in 0..BULK {
        assert_eq!(next_bulky(&mut link), i, "FIFO order");
    }
    // Goodbye while the link is open: a write into a closed one would
    // send the writer through its redial rounds.
    drop(port);
    expect_bye(&mut link);
}

#[test]
fn a_link_reset_under_backlog_redials_and_replays_whole_frames_in_order() {
    let (port, _, listener) = port_with_stalled_peer(&WireConfig::default());
    for i in 0..BULK {
        assert!(port.send(NodeId::new(1), Event::Msg(bulky(i))), "send {i} accepted");
    }
    // The peer reads a few frames, then resets the link with the rest
    // of the backlog still queued behind it.
    let mut first = accept_link(&listener, 0);
    let mut last_read = 0;
    for i in 0..4 {
        last_read = next_bulky(&mut first);
        assert_eq!(last_read, i);
    }
    drop(first);
    // The redial: a bumped incarnation, then the frame that was on the
    // wire when the link broke, whole, and everything after it in
    // order. What the dead link's kernel buffers held is lost with it.
    let mut second = accept_link(&listener, 1);
    let replayed = next_bulky(&mut second);
    assert!(replayed > last_read, "replay {replayed} comes after what was read");
    for i in replayed + 1..BULK {
        assert_eq!(next_bulky(&mut second), i, "FIFO order after the replay");
    }
    let stats = port.stats();
    assert_eq!(stats.lock().recovery_of_kind("reconnect"), 1);
    assert_eq!(stats.lock().recovery_of_kind("replayed_frame"), 1);
    drop(port);
    expect_bye(&mut second);
}

/// A port dropped while its writer redials a peer whose listener is
/// gone stops redialling at once: the drop returns long before the
/// writer's backoff schedule (25 ms doubling over seven rounds, 3.2 s)
/// would have run out.
#[test]
fn a_port_dropped_while_redialling_returns_at_once() {
    let (port, _, listener) = port_with_stalled_peer(&WireConfig::default());
    let link = accept_link(&listener, 0);
    drop(listener);
    drop(link);
    // Writes into the reset link fail, and the writer redials a
    // listener that no longer exists.
    for i in 0..3 {
        let ack = Msg::Ack { from: NodeId::new(0), action: ActionId::new(i) };
        assert!(port.send(fake(), Event::Msg(ack)), "send {i} accepted");
        thread::sleep(Duration::from_millis(50));
    }
    let start = Instant::now();
    drop(port);
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "drop took {took:?}");
}

#[test]
fn dropping_a_port_closes_its_listener_promptly() {
    let (port, real_sock, _listener) = port_with_stalled_peer(&WireConfig::default());
    let start = Instant::now();
    drop(port);
    assert!(start.elapsed() < Duration::from_secs(1), "drop took {:?}", start.elapsed());
    let err = TcpStream::connect(real_sock).expect_err("nobody listens after the drop");
    assert_eq!(err.kind(), ErrorKind::ConnectionRefused);
}

/// Short liveness clocks so the silence tests finish fast: 30ms
/// heartbeats with the legacy alias mapping 150ms of silence to the
/// confirm threshold (φ ≈ 2.17 at the empty-history floor).
fn twitchy_config() -> WireConfig {
    WireConfig { heartbeat_interval: Duration::from_millis(30), ..WireConfig::default() }
        .with_crash_timeout(Duration::from_millis(150))
}

/// A fake peer occupying node id 1 by its raw listener alone: node 0's
/// port has dialled it, but nothing has accepted that link yet, so
/// what the port sends waits in the kernel. Returns the port, the
/// address it listens on and the fake's listener.
fn port_with_stalled_peer(config: &WireConfig) -> (WirePort, SocketAddr, TcpListener) {
    let fake_listener = TcpListener::bind("127.0.0.1:0").expect("fake listener");
    let fake_addr = WireAddr::Tcp(fake_listener.local_addr().expect("fake addr"));
    let bound = WireBound::bind(NodeId::new(0), &tcp_any(), config.clone()).expect("bind");
    let real_addr = bound.local_addr().clone();
    let WireAddr::Tcp(real_sock) = real_addr else { unreachable!("bound tcp") };
    let port = bound.connect(&[real_addr, fake_addr]).expect("mesh");
    (port, real_sock, fake_listener)
}

/// A fake peer occupying node id 1: a raw listener (so the port under
/// test can dial out) plus a raw inbound stream that has said Hello.
/// Returns the port and the fake's inbound stream.
fn port_with_fake_peer(config: &WireConfig) -> (WirePort, TcpStream) {
    let (port, real_sock, _listener) = port_with_stalled_peer(config);
    let mut inbound = TcpStream::connect(real_sock).expect("fake dials in");
    write_frame(&mut inbound, &Frame::Hello { id: NodeId::new(1), incarnation: 0 })
        .expect("fake hello");
    (port, inbound)
}

/// What `port`'s inbox yields within `window`, detector reports and
/// messages in the order received; stops early after an event `last`
/// accepts.
fn receive_for(port: &WirePort, window: Duration, last: impl Fn(&Event) -> bool) -> Vec<Event> {
    let deadline = Instant::now() + window;
    let mut got = Vec::new();
    loop {
        match port.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok((_, event)) => {
                let done = last(&event);
                got.push(event);
                if done {
                    return got;
                }
            }
            // Every peer departed: nothing more can arrive.
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return got,
        }
    }
}

fn is_crash(event: &Event) -> bool {
    matches!(event, Event::DeserterSuspected { .. })
}

/// The peers `events` report as crashed, in order.
fn crashes(events: &[Event]) -> Vec<NodeId> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::DeserterSuspected { peer } => Some(*peer),
            _ => None,
        })
        .collect()
}

/// The fake peer's node id.
fn fake() -> NodeId {
    NodeId::new(1)
}

/// The fake peer's `i`-th protocol message.
fn fake_ack(i: u32) -> Frame {
    let msg = Msg::Ack { from: fake(), action: ActionId::new(i) };
    Frame::Msg { from: fake(), sent_us: 0, msg }
}

#[test]
fn silent_peer_is_detected_by_heartbeat_timeout() {
    let config = twitchy_config();
    let (port, _inbound) = port_with_fake_peer(&config);
    // The fake said Hello and then went silent: no heartbeats, no Bye.
    let got = receive_for(&port, Duration::from_secs(5), is_crash);
    assert_eq!(crashes(&got), [fake()], "silence past the confirm threshold is a crash");
    // Exactly-once reporting: the same peer never surfaces again.
    let later = receive_for(&port, Duration::from_millis(200), is_crash);
    assert!(crashes(&later).is_empty(), "{later:?}");
}

#[test]
fn goodbye_is_a_departure_not_a_crash() {
    let config = twitchy_config();
    let (port, mut inbound) = port_with_fake_peer(&config);
    write_frame(&mut inbound, &Frame::Bye).expect("fake bye");
    drop(inbound); // close the socket — with a Bye first, this is graceful
    let got = receive_for(&port, Duration::from_millis(450), is_crash);
    assert!(crashes(&got).is_empty(), "a peer that says Bye must never be reported crashed");
    // Its only peer left the mesh: the port has nothing more to deliver.
    let start = Instant::now();
    assert_eq!(
        port.recv_timeout(Duration::from_secs(5)).map(|(from, _)| from),
        Err(RecvTimeoutError::Disconnected)
    );
    assert!(start.elapsed() < Duration::from_millis(500), "{:?}", start.elapsed());
}

#[test]
fn abrupt_disconnect_without_bye_is_a_crash() {
    let config = twitchy_config();
    let (port, inbound) = port_with_fake_peer(&config);
    drop(inbound); // EOF with no Bye: the link died
    let got = receive_for(&port, Duration::from_secs(5), is_crash);
    assert_eq!(crashes(&got), [fake()]);
}

/// The two-stage detector: a latency spike long enough to cross the
/// *suspect* threshold but healed before the *confirm* threshold
/// surfaces as `PeerSuspected` then `PeerRejoined`, never as
/// `DeserterSuspected`.
#[test]
fn latency_spike_is_suspected_then_rejoined_not_crashed() {
    let config = twitchy_config();
    let (port, mut inbound) = port_with_fake_peer(&config);
    // φ crosses the suspect threshold (1.0) at ~69ms of silence at the
    // empty-history floor; the confirm threshold needs ~150ms.
    let suspected = receive_for(&port, Duration::from_millis(100), is_crash);
    assert_eq!(
        suspected,
        [Event::PeerSuspected { peer: fake() }],
        "a 100ms spike must raise suspicion, and suspicion alone must never confirm"
    );

    // The spike heals: one heartbeat clears φ back below the bar.
    write_frame(&mut inbound, &Frame::Heartbeat).expect("fake heartbeat");
    let rejoined = receive_for(&port, Duration::from_secs(5), |e| !is_crash(e));
    assert_eq!(
        rejoined,
        [Event::PeerRejoined { peer: fake() }],
        "a healed spike must surface as a rejoin, never as a crash"
    );
    assert!(
        port.stats().lock().recovery_of_kind("suspicion_flap") >= 1,
        "the flap must be accounted in NetStats"
    );
}

/// A suspected peer's heartbeat ends a receive at once with its rejoin.
#[test]
fn a_suspected_peer_heard_from_again_cuts_a_receive_short() {
    let config = twitchy_config();
    let (port, mut inbound) = port_with_fake_peer(&config);
    let suspected = receive_for(&port, Duration::from_millis(100), is_crash);
    assert_eq!(suspected, [Event::PeerSuspected { peer: fake() }], "a 100ms spike");

    write_frame(&mut inbound, &Frame::Heartbeat).expect("fake heartbeat");
    let start = Instant::now();
    let woken = port.recv_timeout(Duration::from_secs(5));
    let waited = start.elapsed();
    assert_eq!(woken, Ok((fake(), Event::PeerRejoined { peer: fake() })));
    assert!(waited < Duration::from_secs(1), "the receive waited {waited:?}");
}

/// A suspected peer whose first frame after its silence is a protocol
/// message, with no heartbeat before it: the drive loop hands its hook
/// the rejoin before that message, so the participant clears the
/// suspicion before it handles anything the peer sent.
#[test]
fn a_message_that_ends_a_suspicion_is_handled_after_the_rejoin() {
    let config = twitchy_config();
    let (port, mut inbound) = port_with_fake_peer(&config);
    let mut registry = ActionRegistry::new();
    let scope = ActionScope::top_level("A", (0..2).map(NodeId::new), Arc::new(chain_tree(2)));
    registry.declare(scope).expect("valid scope");
    let registry = Arc::new(registry);
    let (seen_tx, seen) = mpsc::channel();
    let node = thread::spawn(move || {
        let mut p = Participant::new(NodeId::new(0), registry, NestedStrategy::Abort);
        drive_node(
            &port,
            &mut p,
            Vec::new(),
            Instant::now(),
            Duration::from_millis(300),
            |p, ev, _| {
                let _ = seen_tx.send(ev.clone());
                p.handle(ev)
            },
            |_| {},
        );
    });
    let first = seen.recv_timeout(Duration::from_secs(5)).expect("a report");
    assert_eq!(first, Event::PeerSuspected { peer: fake() });
    write_frame(&mut inbound, &fake_ack(0)).expect("fake message");
    write_frame(&mut inbound, &Frame::Bye).expect("fake bye");
    node.join().expect("the drive loop ends once its only peer departed");
    let rest: Vec<Event> = seen.try_iter().collect();
    let Frame::Msg { msg, .. } = fake_ack(0) else { unreachable!("a message frame") };
    assert_eq!(rest, [Event::PeerRejoined { peer: fake() }, Event::Msg(msg)]);
}

/// Detector reports travel in the inbox but are no deliveries: a port
/// that reports a suspicion and a rejoin and receives k messages counts
/// k delivered, and a report still queued at exit is drained uncounted.
#[test]
fn detector_reports_are_not_deliveries() {
    const K: u32 = 3;
    let config = twitchy_config();
    let (port, mut inbound) = port_with_fake_peer(&config);
    let suspected = receive_for(&port, Duration::from_millis(100), is_crash);
    assert_eq!(suspected, [Event::PeerSuspected { peer: fake() }]);
    for i in 0..K {
        write_frame(&mut inbound, &fake_ack(i)).expect("fake message");
    }
    let got = receive_for(&port, Duration::from_secs(5), |e| {
        matches!(e, Event::Msg(Msg::Ack { action, .. }) if action.index() == K - 1)
    });
    assert_eq!(got.len(), K as usize + 1, "{got:?}");
    assert_eq!(got[0], Event::PeerRejoined { peer: fake() });
    assert_eq!(port.stats().lock().delivered_total(), u64::from(K));

    // Two more messages, then a silence past the suspect threshold: the
    // next receive queues the suspicion behind them and takes the first.
    write_frame(&mut inbound, &fake_ack(K)).expect("fake message");
    write_frame(&mut inbound, &fake_ack(K + 1)).expect("fake message");
    thread::sleep(Duration::from_millis(300));
    let (from, event) = port.recv_timeout(Duration::ZERO).expect("a queued message");
    assert_eq!(from, fake());
    assert!(matches!(event, Event::Msg(_)), "{event:?}");
    assert_eq!(port.drain_undelivered(), 1, "the message, not the report");
    let stats = port.stats();
    let stats = stats.lock();
    assert_eq!((stats.delivered_total(), stats.dropped_total()), (u64::from(K) + 1, 1));
}
