//! The recorder: the one owner of everything tracing and metrics record.
//!
//! A [`Recorder`] holds the trace and metrics switches, the trace event
//! sink, the metrics registry, the per-device flight rings, the failure
//! notes and the device/queue id allocator. Devices, queues and pools bind
//! one when they are constructed, via [`Recorder::current`]: the recorder
//! of the enclosing [`Recorder::scope`] on this thread (what
//! `trace::capture` and `metrics::capture` open) if there is one, else the
//! process default, which `ALPAKA_SIM_TRACE` / `ALPAKA_SIM_METRICS` switch
//! on. Everything a bound object emits lands in its own recorder, so a
//! capture never sees a launch from another thread, and ids inside a fresh
//! recorder start at zero.
//!
//! Launch paths test the switches on their bound recorder ([`active`],
//! [`tracing`], [`metering`]): one relaxed load and one branch, with no
//! thread-local lookup.
//!
//! The trace-facing methods live in `trace.rs`, the metrics-facing ones in
//! `metrics.rs`.
//!
//! [`active`]: Recorder::active
//! [`tracing`]: Recorder::tracing
//! [`metering`]: Recorder::metering

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::metrics::Registry;
use crate::trace::TraceEvent;

const TRACE: u8 = 1;
const METRICS: u8 = 2;

/// Default per-device flight-ring length ([`Recorder::flight_capacity`]).
const FLIGHT_CAP: usize = 64;

/// A shared handle to one recording scope; clones share everything.
#[derive(Clone)]
pub struct Recorder(pub(crate) Arc<Inner>);

pub(crate) struct Inner {
    flags: AtomicU8,
    pub(crate) sink: Mutex<Vec<TraceEvent>>,
    pub(crate) registry: Mutex<Registry>,
    pub(crate) flight: Mutex<BTreeMap<u64, VecDeque<TraceEvent>>>,
    pub(crate) flight_cap: AtomicUsize,
    pub(crate) failures: Mutex<Vec<String>>,
    device_ids: AtomicU64,
    queue_ids: AtomicU64,
}

thread_local! {
    static SCOPE: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Lock a recorder store, ignoring poison: every critical section is a
/// single push/insert, so a panic elsewhere cannot leave it half-written.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A fresh recorder with tracing and metrics off and ids at zero.
    pub fn new() -> Recorder {
        Recorder(Arc::new(Inner {
            flags: AtomicU8::new(0),
            sink: Mutex::new(Vec::new()),
            registry: Mutex::new(Registry::default()),
            flight: Mutex::new(BTreeMap::new()),
            flight_cap: AtomicUsize::new(FLIGHT_CAP),
            failures: Mutex::new(Vec::new()),
            device_ids: AtomicU64::new(0),
            queue_ids: AtomicU64::new(0),
        }))
    }

    /// The process default: what objects built outside any scope bind.
    /// Tracing starts on when `ALPAKA_SIM_TRACE` is set, metrics when
    /// `ALPAKA_SIM_METRICS` is (both read once, on first use).
    pub fn process_default() -> &'static Recorder {
        static DEFAULT: OnceLock<Recorder> = OnceLock::new();
        DEFAULT.get_or_init(|| {
            let r = Recorder::new();
            r.set_tracing(crate::trace::env_trace_path().is_some());
            r.set_metering(crate::metrics::env_metrics_path().is_some());
            r
        })
    }

    /// The recorder a new device, queue or pool binds: the innermost
    /// [`Recorder::scope`] on this thread, else the process default.
    pub fn current() -> Recorder {
        SCOPE
            .with(|s| s.borrow().clone())
            .unwrap_or_else(|| Recorder::process_default().clone())
    }

    /// Run `f` with `self` as this thread's current recorder. Scopes nest;
    /// the previous one is restored when `f` returns or unwinds.
    pub fn scope<T>(&self, f: impl FnOnce() -> T) -> T {
        struct Restore(Option<Recorder>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0.take();
                SCOPE.with(|s| *s.borrow_mut() = prev);
            }
        }
        let _restore = Restore(SCOPE.with(|s| s.borrow_mut().replace(self.clone())));
        f()
    }

    #[inline]
    fn flags(&self) -> u8 {
        self.0.flags.load(Ordering::Relaxed)
    }

    fn set_flag(&self, flag: u8, on: bool) {
        if on {
            self.0.flags.fetch_or(flag, Ordering::Relaxed);
        } else {
            self.0.flags.fetch_and(!flag, Ordering::Relaxed);
        }
    }

    /// Should emission sites build events at all? True when the trace sink
    /// or the metrics flight recorder wants them.
    #[inline]
    pub fn active(&self) -> bool {
        self.flags() != 0
    }

    /// Is the trace sink on? Also the simulator's profiling switch.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.flags() & TRACE != 0
    }

    /// Is the metrics registry on?
    #[inline]
    pub fn metering(&self) -> bool {
        self.flags() & METRICS != 0
    }

    pub fn set_tracing(&self, on: bool) {
        self.set_flag(TRACE, on);
    }

    pub fn set_metering(&self, on: bool) {
        self.set_flag(METRICS, on);
    }

    /// Allocate the next device id of this recorder.
    pub fn next_device_id(&self) -> u64 {
        self.0.device_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Allocate the next queue id of this recorder.
    pub fn next_queue_id(&self) -> u64 {
        self.0.queue_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Do both handles share one recorder?
    pub fn same(&self, other: &Recorder) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use crate::{metrics, trace};

    /// A deterministic rendering of a stream (no wall clock).
    fn sig(events: &[TraceEvent]) -> Vec<String> {
        events
            .iter()
            .map(|e| format!("{:?}|{}|{}|{}", e.kind, e.label, e.device, e.sim_t0_s))
            .collect()
    }

    fn workload() -> u64 {
        let rec = Recorder::current();
        let dev = rec.next_device_id();
        rec.emit(TraceEvent::new(TraceKind::Launch, "k", dev, 1.0));
        rec.counter_add("launches_total", &[], 1);
        dev
    }

    #[test]
    fn scopes_nest_and_allocate_ids_from_zero() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        outer.scope(|| {
            assert!(Recorder::current().same(&outer));
            assert_eq!(Recorder::current().next_device_id(), 0);
            inner.scope(|| assert_eq!(Recorder::current().next_device_id(), 0));
            assert_eq!(Recorder::current().next_device_id(), 1);
        });
        assert!(!Recorder::current().same(&outer));
    }

    #[test]
    fn panicking_capture_restores_state() {
        let (_, clean) = trace::capture(workload);
        let flags = (trace::enabled(), metrics::enabled());
        let default_snapshot = metrics::snapshot();
        let default_pending = trace::pending();
        fn trace_panic() {
            trace::capture(|| {
                metrics::set_enabled(true);
                workload();
                panic!("boom in trace capture");
            });
        }
        fn metrics_panic() {
            metrics::capture(|| {
                trace::set_enabled(true);
                workload();
                panic!("boom in metrics capture");
            });
        }
        for panicking in [trace_panic as fn(), metrics_panic] {
            assert!(std::panic::catch_unwind(panicking).is_err());
            assert!(Recorder::current().same(Recorder::process_default()));
            assert_eq!((trace::enabled(), metrics::enabled()), flags);
            assert_eq!(metrics::snapshot(), default_snapshot);
            assert_eq!(trace::pending(), default_pending);
            let (dev, after) = trace::capture(workload);
            assert_eq!(dev, 0, "ids of a later capture start at zero");
            assert_eq!(sig(&after), sig(&clean));
            let (_, cap) = metrics::capture(workload);
            assert_eq!(cap.snapshot.counter_total("launches_total"), 1);
        }
    }
}
