//! The closed loop shared by every workload: one client thread issues the
//! next op only after the previous one returned, walking a seeded
//! permutation of the workload's op shapes per cycle.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use alpaka::{Args, BufferF, BufferI, Device, Kernel, WorkDiv};
use alpaka_kir::{optimize, trace_kernel_spec, SpecConsts};
use alpaka_sim::{lower, CacheCounters, FallbackReason, LaunchStats, SimReport};

use crate::cpus::Rotation;
use crate::rng::Rng;
use crate::spans::Spans;

/// Exact counts gathered from the reports the program returns.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Σ `LaunchStats.scalar_issue + vec_issue`.
    pub warp_instrs: u64,
    /// Floating-point operations: exact `LaunchStats` flops on simulated
    /// devices, the kernel's nominal count on native ones.
    pub flops: f64,
    pub blocks: u64,
    /// Σ `SimReport.host.wall_s`.
    pub interp_s: f64,
    /// Launches on a device configured for more than one worker, and how
    /// many of those fell back (`fallback != None`).
    pub asked_parallel: u64,
    pub fell_back: u64,
    pub copy_bytes: u64,
    pub pool_shards: u64,
    pub pool_attempts: u64,
    pub pool_migrations: u64,
    pub pool_makespan_s: f64,
    pub pool_serial_s: f64,
    pub lower: CacheCounters,
    pub compile: CacheCounters,
}

impl Tally {
    /// Count one simulated launch from its report.
    pub fn sim(&mut self, r: &SimReport, workers: usize) {
        self.sim_stats(&r.stats);
        self.interp_s += r.host.wall_s;
        if workers > 1 {
            self.asked_parallel += 1;
            if r.fallback != FallbackReason::None {
                self.fell_back += 1;
            }
        }
    }

    /// Count launches known only by their statistics (a queue launch, or
    /// the merged shards of a pool launch).
    pub fn sim_stats(&mut self, s: &LaunchStats) {
        self.warp_instrs += s.scalar_issue + s.vec_issue;
        self.flops += s.total_flops() as f64;
        self.blocks += s.blocks;
    }

    fn add(&mut self, o: &Tally) {
        self.warp_instrs += o.warp_instrs;
        self.flops += o.flops;
        self.blocks += o.blocks;
        self.interp_s += o.interp_s;
        self.asked_parallel += o.asked_parallel;
        self.fell_back += o.fell_back;
        self.copy_bytes += o.copy_bytes;
        self.pool_shards += o.pool_shards;
        self.pool_attempts += o.pool_attempts;
        self.pool_migrations += o.pool_migrations;
        self.pool_makespan_s += o.pool_makespan_s;
        self.pool_serial_s += o.pool_serial_s;
        self.lower.hits += o.lower.hits;
        self.lower.misses += o.lower.misses;
        self.compile.hits += o.compile.hits;
        self.compile.misses += o.compile.misses;
    }
}

/// What an op can see of the benchmark: the span recorder, explicit
/// per-layer samples (traced cycles only) and the exact tallies.
pub struct Probe {
    pub spans: Spans,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub tally: Tally,
}

impl Probe {
    pub fn new(traced: bool) -> Probe {
        Probe {
            spans: Spans::new(traced),
            samples: BTreeMap::new(),
            tally: Tally::default(),
        }
    }

    pub fn traced(&self) -> bool {
        self.spans.enabled()
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Probe) -> T) -> T {
        let token = self.spans.open(name);
        let out = f(self);
        self.spans.close(token);
        out
    }

    /// Record one per-layer sample (dropped outside traced cycles).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.traced() {
            self.samples.entry(name).or_default().push(value);
        }
    }
}

/// One benchmark workload: a fixed list of op shapes, each with a few
/// seeded input sets, over state built by its set-up.
pub trait Workload {
    fn shapes(&self) -> &'static [&'static str];
    /// Input sets per shape; the loop picks one per op from the seed.
    fn inputs(&self) -> usize {
        1
    }
    /// Run one op of `shape` on input set `input` and check its output.
    /// `Err` is a failed op.
    fn run_op(&mut self, shape: usize, input: usize, p: &mut Probe) -> Result<(), String>;
    /// The last step of set-up: fill the program's caches and fix each
    /// op's expected simulated values. By default every (shape, input) op
    /// runs once.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut p = Probe::new(false);
        for s in 0..self.shapes().len() {
            for i in 0..self.inputs() {
                self.run_op(s, i, &mut p)
                    .map_err(|e| format!("warm-up of {} input {i}: {e}", self.shapes()[s]))?;
            }
        }
        Ok(())
    }
    /// Traced cycles only, outside the op's timing: replay front-end calls
    /// or reference launches that the per-layer metrics need.
    fn replay(&mut self, _shape: usize, _input: usize, _p: &mut Probe) {}
    /// Engine and worker counts, for the run header.
    fn config(&self) -> String;
    /// Anything worth a line after the run.
    fn summary(&self) -> String {
        String::new()
    }
    /// Whether the loop may move its thread across CPUs (see `cpus`):
    /// only for workloads whose ops run on the calling thread alone, since
    /// threads spawned while it is pinned would inherit the one CPU.
    fn single_threaded(&self) -> bool {
        true
    }
}

/// `Device::launch_report` on a simulated device, counted and timed: the
/// launch wall minus the interpreter's own wall is the front-end cost.
pub fn sim_launch<K: Kernel + Clone + Send + 'static>(
    p: &mut Probe,
    dev: &Device,
    workers: usize,
    kernel: &K,
    wd: &WorkDiv,
    args: &Args,
) -> Result<SimReport, String> {
    let t0 = Instant::now();
    let r = p.span("alpaka.launch_report", |_| {
        dev.launch_report(kernel, wd, args)
    });
    let wall = t0.elapsed().as_secs_f64();
    let r = r
        .map_err(|e| format!("{} on {}: {e}", kernel.name(), dev.name()))?
        .ok_or_else(|| format!("{}: no simulator report", dev.name()))?;
    p.sample("alpaka.frontend_us", (wall - r.host.wall_s) * 1e6);
    p.tally.sim(&r, workers);
    Ok(r)
}

pub fn upload(p: &mut Probe, buf: &BufferF, data: &[f64]) -> Result<(), String> {
    p.tally.copy_bytes += 8 * data.len() as u64;
    p.span("alpaka.upload", |_| buf.upload(data))
        .map_err(|e| format!("upload: {e}"))
}

pub fn upload_i(p: &mut Probe, buf: &BufferI, data: &[i64]) -> Result<(), String> {
    p.tally.copy_bytes += 8 * data.len() as u64;
    p.span("alpaka.upload", |_| buf.upload(data))
        .map_err(|e| format!("upload: {e}"))
}

pub fn download(p: &mut Probe, buf: &BufferF) -> Vec<f64> {
    let v = p.span("alpaka.download", |_| buf.download());
    p.tally.copy_bytes += 8 * v.len() as u64;
    v
}

pub fn download_i(p: &mut Probe, buf: &BufferI) -> Vec<i64> {
    let v = p.span("alpaka.download", |_| buf.download());
    p.tally.copy_bytes += 8 * v.len() as u64;
    v
}

/// Replay the simulated launch path's front end for one (kernel value,
/// work division): trace with the launch's specialisation constants,
/// optimise, lower. Only the spans are kept.
pub fn replay_front_end<K: Kernel>(p: &mut Probe, kernel: &K, wd: &WorkDiv) {
    let spec = SpecConsts {
        block_thread_extent: Some(wd.threads),
        thread_elem_extent: Some(wd.elems),
    };
    let mut prog = p.span("kir.trace_kernel_spec", |_| {
        trace_kernel_spec(kernel, wd.dim, spec)
    });
    p.span("kir.optimize", |_| black_box(optimize(&mut prog)));
    p.span("sim.lower", |_| black_box(lower(&prog)));
}

/// Simulated-clock seconds and statistics of one op shape: the first op
/// of a shape (its warm-up) fixes them, and every later op must match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSig {
    pub stats: LaunchStats,
    pub time_s: f64,
}

impl SimSig {
    pub fn of(r: &SimReport) -> SimSig {
        SimSig {
            stats: r.stats,
            time_s: r.time.total_s,
        }
    }

    /// FNV-1a over every statistic and the bits of the simulated time.
    pub fn digest(&self) -> u64 {
        let s = &self.stats;
        let words = [
            s.blocks,
            s.warps,
            s.threads,
            s.scalar_issue,
            s.vec_issue,
            s.scalar_flops,
            s.vec_flops,
            s.special_ops,
            s.global_loads,
            s.global_stores,
            s.mem_transactions,
            s.cache_hits,
            s.cache_misses,
            s.dram_bytes,
            s.shared_accesses,
            s.bank_conflict_cycles,
            s.syncs,
            s.atomics,
            s.divergent_branches,
            self.time_s.to_bits(),
        ];
        fnv(words)
    }

    /// Store `got` as the expected signature on first use, else compare.
    pub fn check(slot: &mut Option<SimSig>, got: SimSig, what: &str) -> Result<(), String> {
        match slot {
            None => {
                *slot = Some(got);
                Ok(())
            }
            Some(want) if *want == got => Ok(()),
            Some(want) => Err(format!(
                "{what}: simulated model changed between ops: {want:?} vs {got:?}"
            )),
        }
    }
}

/// FNV-1a over the bytes of `words`.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One digest over the expected simulated values of a workload, printed
/// after every run so that the traced and untraced runs of a seed can be
/// seen to agree.
pub fn sim_digest(sigs: &[Option<SimSig>]) -> String {
    format!(
        "sim_digest={:#018x}",
        fnv(sigs.iter().flatten().map(SimSig::digest))
    )
}

/// Compare a device result with its reference bit for bit.
pub fn check_eq<T: PartialEq + std::fmt::Debug>(
    got: &[T],
    want: &[T],
    what: &str,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} values, want {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g != w) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: value {i} is {:?}, want {:?}",
            got[i], want[i]
        )),
    }
}

/// Everything one measured window produced.
pub struct Window {
    /// Op wall times in seconds, per shape (completed ops only).
    pub walls: Vec<Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub window_s: f64,
    pub all: Tally,
    /// Traced runs: the tallies and op-wall sums of the traced cycles, and
    /// the op-wall sums of the untraced ones.
    pub traced: Tally,
    pub traced_cycles: Vec<f64>,
    pub untraced_cycles: Vec<f64>,
    /// Whether the loop's thread moved across CPUs (see `cpus`).
    pub rotated: bool,
    /// Warp-instructions of the first traced cycle: one op of every shape,
    /// with the inputs the seed picks. Exact, and independent of speed.
    pub first_traced_instrs: u64,
}

/// The closed loop. Each cycle runs every shape once in a seeded order;
/// cycles repeat until `seconds` have passed (always at least one cycle,
/// and at least two in a traced run). A traced run alternates untraced and
/// traced cycles so that the tracing overhead is measured in-process.
pub fn measure<W: Workload + ?Sized>(
    w: &mut W,
    seed: u64,
    seconds: f64,
    traced: bool,
    p: &mut Probe,
) -> Window {
    let n = w.shapes().len();
    let mut order = Rng::new(seed, "rotation");
    let mut pick = Rng::new(seed, "input-choice");
    let mut win = Window {
        walls: vec![Vec::new(); n],
        attempted: 0,
        failed: 0,
        window_s: 0.0,
        all: Tally::default(),
        traced: Tally::default(),
        traced_cycles: Vec::new(),
        untraced_cycles: Vec::new(),
        first_traced_instrs: 0,
        rotated: false,
    };
    let mut rotation = Rotation::new(w.single_threaded());
    win.rotated = rotation.active();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut cycle = 0u64;
    while cycle == 0 || start.elapsed() < budget || (traced && cycle < 2) {
        let tracing = traced && cycle % 2 == 1;
        p.spans.set_enabled(tracing);
        p.tally = Tally::default();
        let mut cycle_s = 0.0;
        for s in order.permutation(n) {
            rotation.tick();
            let input = pick.below(w.inputs());
            p.spans.set_op(win.attempted);
            win.attempted += 1;
            let (l0, c0) = if tracing {
                (
                    alpaka_sim::lowering_cache_counters(),
                    alpaka_sim::compile_cache_counters(),
                )
            } else {
                Default::default()
            };
            let t0 = Instant::now();
            let r = p.span(w.shapes()[s], |p| w.run_op(s, input, p));
            let wall = t0.elapsed().as_secs_f64();
            cycle_s += wall;
            if tracing {
                let (l1, c1) = (
                    alpaka_sim::lowering_cache_counters(),
                    alpaka_sim::compile_cache_counters(),
                );
                p.tally.lower.hits += l1.hits - l0.hits;
                p.tally.lower.misses += l1.misses - l0.misses;
                p.tally.compile.hits += c1.hits - c0.hits;
                p.tally.compile.misses += c1.misses - c0.misses;
                p.span("replay", |p| w.replay(s, input, p));
            }
            match r {
                Ok(()) => win.walls[s].push(wall),
                Err(e) => {
                    win.failed += 1;
                    if win.failed <= 5 {
                        eprintln!("op {} ({}) failed: {e}", win.attempted - 1, w.shapes()[s]);
                    }
                }
            }
        }
        win.all.add(&p.tally);
        if tracing {
            if win.traced_cycles.is_empty() {
                win.first_traced_instrs = p.tally.warp_instrs;
            }
            win.traced.add(&p.tally);
            win.traced_cycles.push(cycle_s);
        } else {
            win.untraced_cycles.push(cycle_s);
        }
        cycle += 1;
    }
    win.window_s = start.elapsed().as_secs_f64();
    p.spans.set_enabled(false);
    win
}
