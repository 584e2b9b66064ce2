//! Recorder isolation: captures that run at the same time on different
//! threads each record exactly the devices, queues and pools built inside
//! them.
//!
//! Eight threads capture the same traced and metered pool launch at once,
//! while a ninth keeps launching on a device it built outside any capture.
//! Every capture must render the same Chrome trace and metrics snapshot,
//! byte for byte, as a capture taken while nothing else ran, and none may
//! contain an event of the outside device.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use alpaka::{
    chrome_trace, metrics, trace, AccKind, Args, BufLayout, ChromeOpts, Device, DevicePool,
    LaunchSpec, Queue, QueueBehavior, Recorder, TraceKind, WorkDiv, WorkDivSpec,
};
use alpaka_kernels::DaxpyKernel;
use alpaka_metrics::prometheus_text;

const CAPTURES: usize = 8;

fn daxpy_spec() -> LaunchSpec<DaxpyKernel> {
    let n = 4096usize;
    let x: Vec<f64> = (0..n)
        .map(|i| ((i * 11 + 2) % 23) as f64 * 0.5 - 5.0)
        .collect();
    let y: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 0.25).collect();
    LaunchSpec::new(DaxpyKernel, WorkDivSpec::Fixed(WorkDiv::d1(n / 64, 1, 64)))
        .arg_f(BufLayout::d1(n), x)
        .arg_f(BufLayout::d1(n), y)
        .scalar_f(2.5)
        .scalar_i(n as i64)
}

/// One 7-shard daxpy pool launch on two simulated E5 members, traced and
/// metered in one capture: (Chrome trace, Prometheus snapshot).
fn captured_pool_run() -> (String, String) {
    let (snapshot, events) = trace::capture(|| {
        metrics::set_enabled(true);
        let mut pool = DevicePool::new_sim_with_workers(AccKind::sim_e5_2630v3(), 2, 1).unwrap();
        pool.clear_faults();
        pool.launch(&daxpy_spec(), 7).unwrap();
        metrics::snapshot()
    });
    assert!(!events.is_empty(), "the capture recorded nothing");
    // Only the pool lane (id 0) records here: no queue, and no block spans,
    // which the pool never emits but a queued launch would.
    for e in &events {
        assert_eq!(e.device, 0, "foreign device in capture: {e:?}");
        assert_eq!(e.queue, None, "foreign queue in capture: {e:?}");
        assert_ne!(
            e.kind,
            TraceKind::BlockExec,
            "foreign launch in capture: {e:?}"
        );
    }
    (
        chrome_trace(&events, &ChromeOpts { mask_wall: true }),
        prometheus_text(&snapshot),
    )
}

/// Queued daxpy launches on a device built outside any capture, until
/// `done` is set. Returns the number of launches.
fn launch_outside(done: &AtomicBool, start: &Barrier) -> usize {
    let n = 1024usize;
    let dev = Device::with_workers(AccKind::sim_e5_2630v3(), 1);
    dev.clear_faults();
    let q = Queue::new(dev.clone(), QueueBehavior::Blocking);
    let x = dev.alloc_f64(BufLayout::d1(n));
    let y = dev.alloc_f64(BufLayout::d1(n));
    x.upload(&vec![1.0; n]).unwrap();
    y.upload(&vec![2.0; n]).unwrap();
    let args = Args::new()
        .buf_f(&x)
        .buf_f(&y)
        .scalar_f(0.5)
        .scalar_i(n as i64);
    let wd = dev.suggest_workdiv_1d(n);
    start.wait();
    assert!(dev.recorder().same(Recorder::process_default()));
    let mut launches = 0;
    loop {
        q.enqueue_kernel(&DaxpyKernel, &wd, &args).unwrap();
        q.wait().unwrap();
        launches += 1;
        if done.load(Ordering::Relaxed) {
            return launches;
        }
    }
}

#[test]
fn concurrent_captures_are_isolated_and_identical() {
    let reference = captured_pool_run();
    let done = AtomicBool::new(false);
    let start = Barrier::new(CAPTURES + 1);
    let (runs, outside) = thread::scope(|s| {
        let outside = s.spawn(|| launch_outside(&done, &start));
        let captures: Vec<_> = (0..CAPTURES)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    captured_pool_run()
                })
            })
            .collect();
        let runs: Vec<_> = captures.into_iter().map(|h| h.join()).collect();
        done.store(true, Ordering::Relaxed);
        (runs, outside.join())
    });
    assert!(outside.unwrap() >= 1);
    for (i, run) in runs.into_iter().enumerate() {
        let (chrome, prom) = run.unwrap_or_else(|_| panic!("capture {i} panicked"));
        assert_eq!(chrome, reference.0, "capture {i}: trace diverged");
        assert_eq!(prom, reference.1, "capture {i}: metrics diverged");
    }
}
