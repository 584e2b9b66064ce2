//! Structured tracing: typed events emitted by queues, launches, copies,
//! faults and the resilience layer, recorded into the sink of the emitting
//! object's [`Recorder`].
//!
//! Recording is **off by default** and the fast path is allocation-free:
//! every emission site checks its bound recorder ([`Recorder::active`], one
//! relaxed atomic load) before building an event. Tracing turns on for the
//! process default explicitly ([`set_enabled`] / `alpaka_trace::Tracer`) or
//! via the `ALPAKA_SIM_TRACE=<path>` environment variable, read once on
//! first use; [`capture`] records one closure into a recorder of its own.
//!
//! Determinism: everything except the `wall_ns` field is derived from the
//! simulated clock and deterministic counters, so two runs of the same
//! program produce identical event streams (modulo wall time) regardless of
//! `ALPAKA_SIM_THREADS` or the interpreter engine. Exporters can mask
//! `wall_ns` to get byte-identical output.

use std::sync::OnceLock;
use std::time::Instant;

use crate::recorder::{lock, Recorder};

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A queue operation (enqueue_kernel bookkeeping, event record, wait).
    QueueOp,
    /// One kernel launch (span over the simulated execution).
    Launch,
    /// One block's execution on one SM inside a launch.
    BlockExec,
    /// A host<->device or device<->device copy.
    Copy,
    /// A host event recorded on a queue.
    EventRecord,
    /// A blocking wait on a queue or event.
    Wait,
    /// An injected or surfaced fault.
    Fault,
    /// One attempt inside `launch_resilient` (includes retries).
    RetryAttempt,
    /// A fallback hop to the next device in a `FallbackChain`.
    FailOver,
    /// One sub-grid shard of a pooled launch (span over its execution).
    Shard,
    /// A shard migrating off a quarantined device onto a survivor.
    Migrate,
}

impl TraceKind {
    /// Stable lowercase name used by exporters.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::QueueOp => "queue_op",
            TraceKind::Launch => "launch",
            TraceKind::BlockExec => "block",
            TraceKind::Copy => "copy",
            TraceKind::EventRecord => "event",
            TraceKind::Wait => "wait",
            TraceKind::Fault => "fault",
            TraceKind::RetryAttempt => "retry_attempt",
            TraceKind::FailOver => "fail_over",
            TraceKind::Shard => "shard",
            TraceKind::Migrate => "migrate",
        }
    }
}

/// One structured trace record. Spans carry `sim_t0_s < sim_t1_s`; instant
/// events have `sim_t0_s == sim_t1_s`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub kind: TraceKind,
    /// Human label (kernel name, copy direction, fault kind, ...).
    pub label: String,
    /// Device ordinal within the emitting recorder
    /// ([`Recorder::next_device_id`]).
    pub device: u64,
    /// Queue ordinal within the emitting recorder, for queue events.
    pub queue: Option<u64>,
    /// Launch ordinal on the owning device.
    pub launch: Option<u64>,
    /// Linear block index, for [`TraceKind::BlockExec`].
    pub block: Option<u64>,
    /// SM the block ran on, for [`TraceKind::BlockExec`].
    pub sm: Option<u64>,
    /// Span start on the simulated clock (seconds).
    pub sim_t0_s: f64,
    /// Span end on the simulated clock (seconds).
    pub sim_t1_s: f64,
    /// Wall-clock nanoseconds since the process trace epoch. The only
    /// nondeterministic field; exporters mask it for reproducible output.
    pub wall_ns: u64,
    /// Numeric attachments (flops, bytes, attempt number, ...).
    pub meta: Vec<(&'static str, f64)>,
}

impl TraceEvent {
    /// New instant event at `sim_t_s` on `device`.
    pub fn new(kind: TraceKind, label: impl Into<String>, device: u64, sim_t_s: f64) -> Self {
        TraceEvent {
            kind,
            label: label.into(),
            device,
            queue: None,
            launch: None,
            block: None,
            sm: None,
            sim_t0_s: sim_t_s,
            sim_t1_s: sim_t_s,
            wall_ns: wall_ns(),
            meta: Vec::new(),
        }
    }

    /// Turn the event into a span ending at `sim_t1_s`.
    pub fn span_until(mut self, sim_t1_s: f64) -> Self {
        self.sim_t1_s = sim_t1_s;
        self
    }

    pub fn on_queue(mut self, queue: u64) -> Self {
        self.queue = Some(queue);
        self
    }

    pub fn on_launch(mut self, launch: u64) -> Self {
        self.launch = Some(launch);
        self
    }

    pub fn on_block(mut self, block: u64, sm: u64) -> Self {
        self.block = Some(block);
        self.sm = Some(sm);
        self
    }

    pub fn with(mut self, key: &'static str, value: f64) -> Self {
        self.meta.push((key, value));
        self
    }

    /// Span duration on the simulated clock.
    pub fn sim_dur_s(&self) -> f64 {
        self.sim_t1_s - self.sim_t0_s
    }

    /// Look up a meta value by key.
    pub fn meta_get(&self, key: &str) -> Option<f64> {
        self.meta.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

/// One block's execution record produced inside the simulator workers and
/// merged deterministically (sorted by linear block index) into `SimReport`.
/// `cycles` is the block's contribution to issue cycles, which the facade
/// turns into per-SM timeline spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSpan {
    /// Linear block index within the grid.
    pub block: u64,
    /// SM the block was scheduled on.
    pub sm: u64,
    /// Issue cycles charged to this block (scalar + vectorized).
    pub cycles: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The `ALPAKA_SIM_TRACE` output path, if set (empty value counts as unset).
pub fn env_trace_path() -> Option<String> {
    std::env::var("ALPAKA_SIM_TRACE")
        .ok()
        .filter(|s| !s.is_empty())
}

/// Nanoseconds since the process trace epoch (first trace-time query).
pub fn wall_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

impl Recorder {
    /// Record one event: into the sink when tracing is on, into the
    /// metrics flight recorder when metrics are on (either, both, or —
    /// the fast path — neither).
    pub fn emit(&self, ev: TraceEvent) {
        if self.metering() {
            self.flight_record(&ev);
        }
        if self.tracing() {
            lock(&self.0.sink).push(ev);
        }
    }

    /// Record a batch of events in order (same routing as [`Recorder::emit`]).
    pub fn emit_all(&self, evs: impl IntoIterator<Item = TraceEvent>) {
        if self.active() {
            evs.into_iter().for_each(|ev| self.emit(ev));
        }
    }

    /// Take every recorded event out of the sink.
    pub fn drain(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *lock(&self.0.sink))
    }

    /// Number of events currently buffered.
    pub fn pending(&self) -> usize {
        lock(&self.0.sink).len()
    }
}

/// Is tracing on for the current recorder ([`Recorder::current`])?
pub fn enabled() -> bool {
    Recorder::current().tracing()
}

/// Turn tracing on or off for the current recorder (the process default
/// outside any capture; overrides the env default).
pub fn set_enabled(on: bool) {
    Recorder::current().set_tracing(on);
}

/// [`Recorder::drain`] on the current recorder.
pub fn drain() -> Vec<TraceEvent> {
    Recorder::current().drain()
}

/// [`Recorder::pending`] on the current recorder.
pub fn pending() -> usize {
    Recorder::current().pending()
}

/// Run `f` against a fresh recorder with tracing on, and return its result
/// plus every event emitted by the devices, queues and pools it built.
/// Ids start at zero, so two captures of the same program compare
/// byte-equal; objects built elsewhere, on this thread or any other, record
/// into their own recorders and never show up here. Captures nest and run
/// concurrently, and a panic in `f` leaves no state behind.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<TraceEvent>) {
    let rec = Recorder::new();
    rec.set_tracing(true);
    let out = rec.scope(f);
    (out, rec.drain())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let (_, events) = capture(|| ());
        assert!(events.is_empty());
        // Outside capture with tracing off, emit is a no-op.
        let before = pending();
        if !enabled() {
            Recorder::current().emit(TraceEvent::new(TraceKind::Wait, "w", 0, 0.0));
            assert_eq!(pending(), before);
        }
    }

    #[test]
    fn capture_collects_events_in_order() {
        let ((), events) = capture(|| {
            let rec = Recorder::current();
            rec.emit(TraceEvent::new(TraceKind::Launch, "k1", 0, 0.0).span_until(1.0));
            rec.emit(
                TraceEvent::new(TraceKind::Copy, "h2d", 0, 1.0)
                    .on_queue(3)
                    .with("bytes", 64.0),
            );
        });
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, TraceKind::Launch);
        assert_eq!(events[0].sim_dur_s(), 1.0);
        assert_eq!(events[1].queue, Some(3));
        assert_eq!(events[1].meta_get("bytes"), Some(64.0));
    }

    #[test]
    fn ids_are_unique() {
        let rec = Recorder::new();
        let a = rec.next_device_id();
        let b = rec.next_device_id();
        assert_ne!(a, b);
        let q1 = rec.next_queue_id();
        let q2 = rec.next_queue_id();
        assert_ne!(q1, q2);
    }
}
