//! `caex-obs`: the observability layer for the caex workspace.
//!
//! The protocol crates emit a typed stream of [`ObsEvent`]s — action
//! enter/leave, raises, §4.2 `N`/`X`/`S`/`R` state transitions,
//! resolver election, resolution round start/commit, abortion and
//! handler spans — through the [`Observer`] trait. Every event carries
//! a [`CorrelationId`] tying it to its `(ActionId, resolution round)`
//! so one resolution can be followed end-to-end across participants.
//!
//! On top of the raw stream this crate ships:
//!
//! - [`MetricsRegistry`] — counters and fixed-bucket histograms for
//!   resolution latency (sim and wall time), per-round message counts
//!   checked against an injected §4.4 predictor, per-state dwell times
//!   and handler durations, with Prometheus-style text exposition and
//!   a JSON-round-trippable snapshot;
//! - [`JsonlExporter`] and [`ChromeTraceExporter`] — structured-log and
//!   Chrome trace-event output (`B`/`E` span pairs, one track per
//!   participant) loadable in Perfetto;
//! - [`TcpExporter`] / [`EventCollector`] — the same JSONL streamed
//!   over a real TCP socket to a collector, which rebuilds typed
//!   events and replays them into a local observer stack (how
//!   `caex-wire`'s coordinator watches a multi-process run);
//! - [`Watchdog`] — an invariant observer that flags state-machine
//!   violations (illegal `N`/`X`/`S`/`R` edges, commits landing during
//!   an abortion, ACK overflow beyond `N−1` per broadcast, unbalanced
//!   spans, duplicate commits) as the events stream past;
//! - [`causal`] — happens-before DAG construction over any recorded
//!   stream (program order + FIFO-matched send→receive edges),
//!   critical-path extraction with per-phase latency attribution that
//!   sums exactly to end-to-end latency, percentile summaries, and
//!   clock-skew stitching of multi-process streams;
//! - [`FlameBuilder`] — folded-stack flame graphs (`O1;A1;handle e2
//!   42`) of per-object dwell, keyed by resolution round, consumable
//!   by `flamegraph.pl`/speedscope unchanged;
//! - [`text`] — the line-per-event rendering and the ASCII
//!   message-sequence chart of any recorded stream.
//!
//! The stream is the one record of a run: engines keep their report
//! structs and have `run_observed` variants that thread an
//! `&mut dyn Observer` through the same code path.

pub mod causal;
pub mod event;
pub mod exporters;
pub mod flame;
pub mod json;
pub mod metrics;
pub mod stream;
pub mod text;
pub mod watchdog;

pub use causal::{CausalGraph, CriticalPath, LatencySummary, PathSegment, Phase};
pub use event::{CorrelationId, ObsEvent, ObsKind, ObsState, Observer, Recorder, Tee};
pub use exporters::{ChromeTraceExporter, JsonlExporter};
pub use flame::FlameBuilder;
pub use stream::{EventCollector, TcpExporter};
pub use json::JsonValue;
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot, ResolutionMetrics};
pub use watchdog::{Violation, Watchdog};
