//! Streaming the event stream over a real socket: [`TcpExporter`]
//! (the emitting side, an [`Observer`]) and [`EventCollector`] (the
//! receiving side), closing the ROADMAP item "stream exporters over a
//! real socket".
//!
//! The wire format is the stable JSONL of [`event_to_json`]: one flat
//! JSON object per line, newline-terminated, UTF-8. A collector
//! rebuilds typed [`ObsEvent`]s with [`event_from_json`] and can
//! replay them into any local observer stack (metrics registry,
//! watchdog, trace exporter) — which is how `caex-wire`'s coordinator
//! watches a multi-process run: each participant process streams its
//! events to the coordinator's collector, and invariant checking runs
//! on the merged stream.
//!
//! Blocking I/O only (the workspace has no async runtime): the
//! exporter writes through a [`BufWriter`] and flushes on
//! [`Observer::on_run_end`]; the collector spawns one thread per
//! accepted connection.

use crate::event::{ObsEvent, Observer};
use crate::exporters::{event_from_json, event_to_json};
use crate::json;
use caex_net::SimTime;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// An [`Observer`] that streams every event as one JSONL line over a
/// TCP connection.
///
/// Export errors (collector gone, connection reset) are absorbed and
/// remembered rather than panicking the instrumented run — losing
/// telemetry must not fail the protocol. After the first failed write
/// the exporter drops every later event.
#[derive(Debug)]
pub struct TcpExporter {
    writer: BufWriter<TcpStream>,
    failed: bool,
}

impl TcpExporter {
    /// Connects to a collector at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the connection error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self::over(stream))
    }

    /// Connects with a bounded connect timeout.
    ///
    /// # Errors
    ///
    /// Propagates the connection error (including the timeout).
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Ok(Self::over(stream))
    }

    /// Wraps an already-connected stream.
    #[must_use]
    pub fn over(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        TcpExporter {
            writer: BufWriter::new(stream),
            failed: false,
        }
    }

    /// Flushes buffered lines to the socket.
    ///
    /// # Errors
    ///
    /// Propagates the flush error (and drops every later event).
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush().inspect_err(|_| self.failed = true)
    }
}

impl Observer for TcpExporter {
    fn on_event(&mut self, event: &ObsEvent) {
        if self.failed {
            return;
        }
        let mut line = event_to_json(event).to_string();
        line.push('\n');
        if self.writer.write_all(line.as_bytes()).is_err() {
            self.failed = true;
        }
    }

    fn on_run_end(&mut self, _at: SimTime) {
        let _ = self.flush();
    }
}

/// The receiving end: accepts exporter connections and rebuilds typed
/// event streams.
///
/// # Examples
///
/// ```
/// use caex_obs::stream::{EventCollector, TcpExporter};
/// use caex_obs::{ObsEvent, ObsKind, CorrelationId, Observer};
/// use caex_action::ActionId;
/// use caex_net::{NodeId, SimTime};
///
/// let collector = EventCollector::bind("127.0.0.1:0").unwrap();
/// let addr = collector.local_addr().unwrap();
/// let handle = std::thread::spawn(move || collector.collect(1).unwrap());
///
/// let mut exporter = TcpExporter::connect(addr).unwrap();
/// exporter.on_event(&ObsEvent {
///     at: SimTime::from_micros(1),
///     wall_micros: None,
///     object: NodeId::new(0),
///     span: CorrelationId { action: ActionId::new(0), round: 0 },
///     kind: ObsKind::ActionEnter,
/// });
/// exporter.on_run_end(SimTime::from_micros(2));
/// drop(exporter); // closes the connection; collect() returns
///
/// let streams = handle.join().unwrap();
/// assert_eq!(streams.len(), 1);
/// assert_eq!(streams[0].len(), 1);
/// ```
#[derive(Debug)]
pub struct EventCollector {
    listener: TcpListener,
}

impl EventCollector {
    /// Binds a listener (use port `0` to let the OS pick).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Ok(EventCollector {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The bound address (hand it to exporters).
    ///
    /// # Errors
    ///
    /// Propagates the lookup error.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts exactly `connections` exporters and reads each to EOF
    /// on its own thread. Returns one event `Vec` per connection, in
    /// accept order; within a `Vec`, events keep the exporter's
    /// emission order (the per-object order invariant survives the
    /// socket). Lines that fail to parse are skipped — a collector
    /// must tolerate a crashing exporter's torn final line.
    ///
    /// # Errors
    ///
    /// Propagates accept errors.
    ///
    /// # Panics
    ///
    /// Panics if a reader thread panicked.
    pub fn collect(self, connections: usize) -> io::Result<Vec<Vec<ObsEvent>>> {
        let mut joins = Vec::with_capacity(connections);
        for _ in 0..connections {
            let (stream, _) = self.listener.accept()?;
            joins.push(thread::spawn(move || read_stream(stream)));
        }
        Ok(joins
            .into_iter()
            .map(|j| j.join().expect("collector reader thread"))
            .collect())
    }
}

fn read_stream(stream: TcpStream) -> Vec<ObsEvent> {
    let reader = BufReader::new(stream);
    let mut events = Vec::new();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        if let Ok(doc) = json::parse(&line) {
            if let Ok(event) = event_from_json(&doc) {
                events.push(event);
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CorrelationId, ObsKind, Recorder};
    use caex_action::ActionId;
    use caex_net::NodeId;
    use caex_tree::ExceptionId;

    fn ev(at: u64, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(at),
            wall_micros: Some(at),
            object: NodeId::new(1),
            span: CorrelationId { action: ActionId::new(0), round: 1 },
            kind,
        }
    }

    #[test]
    fn events_survive_the_socket_round_trip() {
        let collector = EventCollector::bind("127.0.0.1:0").unwrap();
        let addr = collector.local_addr().unwrap();
        let handle = thread::spawn(move || collector.collect(2).unwrap());

        let sent: Vec<ObsEvent> = vec![
            ev(1, ObsKind::ActionEnter),
            ev(5, ObsKind::Raise { exception: ExceptionId::new(2) }),
            ev(9, ObsKind::ResolutionCommit { resolved: ExceptionId::new(1), raised: 1 }),
        ];
        for _ in 0..2 {
            let sent = sent.clone();
            let mut exporter = TcpExporter::connect(addr).unwrap();
            for e in &sent {
                exporter.on_event(e);
            }
            exporter.on_run_end(SimTime::from_micros(10));
            assert!(!exporter.failed);
        }

        let streams = handle.join().unwrap();
        assert_eq!(streams.len(), 2);
        for stream in &streams {
            assert_eq!(*stream, sent, "emission order must survive the socket");
        }
    }

    #[test]
    fn collected_stream_replays_into_local_observers() {
        let collector = EventCollector::bind("127.0.0.1:0").unwrap();
        let addr = collector.local_addr().unwrap();
        let handle = thread::spawn(move || collector.collect(1).unwrap());
        {
            let mut exporter = TcpExporter::connect(addr).unwrap();
            exporter.on_event(&ev(1, ObsKind::ActionEnter));
            exporter.on_event(&ev(2, ObsKind::ActionLeave));
            exporter.on_run_end(SimTime::from_micros(3));
        }
        let streams = handle.join().unwrap();
        let mut recorder = Recorder::new();
        for event in streams.into_iter().flatten() {
            recorder.on_event(&event);
        }
        assert_eq!(recorder.events.len(), 2);
    }

    #[test]
    fn exporter_to_dead_collector_degrades_gracefully() {
        // Bind then drop: the port is closed by the time we connect.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        match TcpExporter::connect(addr) {
            Err(_) => {} // refused outright: fine
            Ok(mut exporter) => {
                // Accepted by a TIME_WAIT ghost; writes must not panic.
                for i in 0..100 {
                    exporter.on_event(&ev(i, ObsKind::ActionEnter));
                }
                exporter.on_run_end(SimTime::from_micros(1));
            }
        }
    }

    #[test]
    fn torn_lines_are_skipped() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let good = event_to_json(&ev(1, ObsKind::ActionEnter)).to_string();
            s.write_all(good.as_bytes()).unwrap();
            s.write_all(b"\n{\"at_us\":2,\"object\":\"O1\",\"tr").unwrap(); // torn
        });
        let (stream, _) = listener.accept().unwrap();
        writer.join().unwrap();
        let events = read_stream(stream);
        assert_eq!(events.len(), 1);
    }
}
