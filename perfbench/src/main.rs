//! The alpaka launch-path benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload launch_small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Runs one seeded workload as a single-client closed loop for the given
//! number of seconds, checks every op's output, and prints as its last
//! line one JSON object: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. `perfbench/METRICS.md` describes
//! every metric and workload.

mod cpus;
mod harness;
mod launch_small;
mod metrics;
mod native_cpu;
mod paper_sim;
mod pool_shards;
mod rng;
mod spans;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use cpus::Rotation;
use harness::{measure, Probe, Workload};

/// Environment variables that silently change what the program does (the
/// interpreter's worker count and engine, tracing, metrics, injected
/// faults). The benchmark refuses to run under any of them.
const GUARDED_ENV: &[&str] = &[
    "ALPAKA_SIM_THREADS",
    "ALPAKA_SIM_ENGINE",
    "ALPAKA_SIM_TRACE",
    "ALPAKA_SIM_METRICS",
    "ALPAKA_SIM_FAULTS",
];

/// Set-ups per run: at least `SETUP_MIN`, and more until they add up to
/// `SETUP_SECONDS`, at most `SETUP_MAX`. All but the first run in fresh
/// child processes, so each pays the cold caches a user pays. A set-up of
/// tens of milliseconds varies by a third from one process to the next on
/// a shared host, hence the many repetitions.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_SECONDS: f64 = 1.0;

const WORKLOADS: &[&str] = &["launch_small", "paper_sim", "pool_shards", "native_cpu"];

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up once, print the set-up time, exit.
    setup_only: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--setup-only" {
            cli.setup_only = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cli.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got {:?}",
            cli.workload
        ));
    }
    Ok(cli)
}

/// Build a workload: device construction, seeded inputs and their
/// uploads, host references, and the warm-up of every op shape.
fn setup(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "launch_small" => Box::new(launch_small::LaunchSmall::setup(seed)?),
        "paper_sim" => Box::new(paper_sim::PaperSim::setup(seed)?),
        "pool_shards" => Box::new(pool_shards::PoolShards::setup(seed)?),
        _ => Box::new(native_cpu::NativeCpu::setup(seed)?),
    })
}

/// Set-up time of one fresh child process.
fn child_setup_time(exe: &std::path::Path, cli: &Cli) -> Result<f64, String> {
    let out = std::process::Command::new(exe)
        .args(["--workload", &cli.workload, "--seed", &cli.seed.to_string()])
        .arg("--setup-only")
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}{}",
            text,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    text.trim()
        .strip_prefix("setup_s=")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("set-up child printed {text:?}"))
}

/// Set-up samples of one run. Half are taken before the timed window and
/// half after it, so that a run's `setup_s` does not hang on the host's
/// load during one short stretch. For a single-threaded workload the
/// children are pinned to each allowed CPU in turn (see `cpus`) and
/// `setup_s` is the lowest per-CPU median: like the gated op metrics, the
/// set-up time on the faster CPU, since the two CPUs of a shared host can
/// differ by 1.7x for minutes. The parent's own set-up, on no chosen CPU,
/// then only counts towards the number of set-ups.
struct Setups {
    pinned: bool,
    /// (CPU the set-up was pinned to, seconds).
    samples: Vec<(Option<usize>, f64)>,
    count: usize,
    total: f64,
}

impl Setups {
    fn new(own: f64, pinned: bool) -> Setups {
        Setups {
            pinned,
            samples: if pinned {
                Vec::new()
            } else {
                vec![(None, own)]
            },
            count: 1,
            total: own,
        }
    }

    /// Run child set-ups until `share` of the targets are met.
    fn collect(&mut self, cli: &Cli, share: f64) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut rotation = Rotation::new(self.pinned);
        let goal = |n: usize| (n as f64 * share).ceil() as usize;
        while self.count < goal(SETUP_MAX)
            && (self.count < goal(SETUP_MIN) || self.total < SETUP_SECONDS * share)
        {
            rotation.advance();
            let t = child_setup_time(&exe, cli)?;
            self.samples.push((rotation.current(), t));
            self.count += 1;
            self.total += t;
        }
        Ok(())
    }

    fn setup_s(&self) -> f64 {
        let mut by_cpu: std::collections::BTreeMap<Option<usize>, Vec<f64>> = Default::default();
        for &(cpu, t) in &self.samples {
            by_cpu.entry(cpu).or_default().push(t);
        }
        by_cpu
            .values()
            .filter_map(|v| stats::median(v))
            .fold(f64::INFINITY, f64::min)
    }
}

/// Commit of the checkout, read from `.git` when there is one.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().chars().take(12).collect())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None => head.chars().take(12).collect(),
    }
}

/// The engine simulated devices launch with when none is chosen: every
/// workload uses it, and the environment guard rules out an override.
fn default_engine() -> alpaka_sim::Engine {
    alpaka_accsim::SimDevice::new(alpaka_sim::DeviceSpec::k20()).engine()
}

fn run(cli: &Cli) -> Result<(), String> {
    if cli.setup_only {
        let t0 = Instant::now();
        setup(&cli.workload, cli.seed)?;
        println!("setup_s={}", t0.elapsed().as_secs_f64());
        return Ok(());
    }
    let t0 = Instant::now();
    let mut w = setup(&cli.workload, cli.seed)?;
    let own = t0.elapsed().as_secs_f64();
    let mut setups = Setups::new(own, w.single_threaded());
    if !cli.trace {
        setups.collect(cli, 0.5)?;
    }

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} commit={} engine={:?} {}",
        cli.workload,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        commit(),
        default_engine(),
        w.config(),
    );
    let mut probe = Probe::new(cli.trace);
    let win = measure(w.as_mut(), cli.seed, cli.seconds, cli.trace, &mut probe);
    if !cli.trace {
        setups.collect(cli, 1.0)?;
    }
    let shapes = w.shapes();
    let result = if cli.trace {
        metrics::per_layer(&win, &probe)
    } else {
        metrics::end_to_end(&win, setups.setup_s())
    };
    metrics::print_info(&win, shapes, cli.trace, &setups.samples);
    let summary = w.summary();
    if !summary.is_empty() {
        println!("# {summary}");
    }
    if cli.trace {
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("spans-{}-seed{}.tsv", cli.workload, cli.seed));
        match std::fs::create_dir_all(dir).and_then(|()| probe.spans.write_tsv(&path, 200_000)) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written: {e}"),
        }
        metrics::print_self_times(&probe);
    }
    println!(
        "{}",
        metrics::result_json(win.failed == 0, win.attempted, win.failed, &result)
    );
    Ok(())
}

fn main() -> ExitCode {
    let set: Vec<&str> = GUARDED_ENV
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {set:?} set: each changes what is measured");
        return ExitCode::from(2);
    }
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cli) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
