//! Turning a measured window into the named metrics the benchmark prints.
//! `perfbench/METRICS.md` is the catalogue of every name used here.

use crate::harness::{Probe, Window};
use crate::spans::self_times_ns;
use crate::stats::{median, percentile};

/// (name, unit, value) in print order.
pub type Metrics = Vec<(&'static str, &'static str, f64)>;

/// Below this many ops in a run, no p99 is printed: fewer than ten
/// samples would lie beyond it.
const P99_MIN_OPS: usize = 1000;

fn all_walls(win: &Window) -> Vec<f64> {
    win.walls.iter().flatten().copied().collect()
}

fn completed(win: &Window) -> f64 {
    (win.attempted - win.failed) as f64
}

/// VmHWM of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The percentile of every shape's op walls that the gated metrics use.
/// The host is shared: other tenants' load only ever adds time, and it
/// comes and goes, moving a shape's median op wall by 20-40% between runs
/// while its 10th percentile moves by a few percent. A low percentile
/// estimates what the program itself costs; the median and the p99 are
/// printed beside it.
const GATED_PCT: f64 = 10.0;

/// Each shape's `pct` percentile op wall, in seconds.
fn per_shape(win: &Window, pct: f64) -> Option<Vec<f64>> {
    win.walls.iter().map(|w| percentile(w, pct)).collect()
}

/// A typical op's wall at percentile `pct`: the geometric mean over shapes,
/// so that every shape weighs once and the value does not jump between
/// shapes whose costs differ a hundredfold, as a percentile of all ops
/// pooled would.
fn typical_op_s(win: &Window, pct: f64) -> f64 {
    per_shape(win, pct).map_or(0.0, |v| {
        (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
    })
}

/// Ops per second of a cycle (every shape once) in which each op takes its
/// shape's `pct` percentile wall.
fn cycle_ops_per_s(win: &Window, pct: f64) -> f64 {
    per_shape(win, pct).map_or(0.0, |v| v.len() as f64 / v.iter().sum::<f64>())
}

/// The untraced run's metrics, in the order `BENCHMARK.json` lists them.
pub fn end_to_end(win: &Window, setup_s: f64) -> Metrics {
    let ops_per_s = cycle_ops_per_s(win, GATED_PCT);
    let flops_per_op = win.all.flops / completed(win);
    vec![
        ("setup_s", "s", setup_s),
        ("op_p10_ms", "ms", typical_op_s(win, GATED_PCT) * 1e3),
        ("ops_per_s", "1/s", ops_per_s),
        ("host_gflops", "GFLOP/s", flops_per_op * ops_per_s * 1e-9),
        ("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

fn p50_span(p: &Probe, name: &str, scale: f64) -> f64 {
    median(&p.spans.durations_s(name)).map_or(0.0, |v| v * scale)
}

fn p50_sample(p: &Probe, name: &str) -> f64 {
    p.samples.get(name).and_then(|v| median(v)).unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run's metrics. A metric whose layer the workload does not
/// exercise reads 0.
pub fn per_layer(win: &Window, p: &Probe) -> Metrics {
    let t = &win.traced;
    let traced_ops = p
        .spans
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name != "replay")
        .count();
    vec![
        (
            "alpaka.frontend_us",
            "us",
            p50_sample(p, "alpaka.frontend_us"),
        ),
        (
            "alpaka.queue_enqueue_us",
            "us",
            p50_span(p, "alpaka.enqueue_kernel", 1e6),
        ),
        (
            "alpaka.copy_h2d_us",
            "us",
            p50_span(p, "alpaka.upload", 1e6),
        ),
        (
            "alpaka.copy_d2h_us",
            "us",
            p50_span(p, "alpaka.download", 1e6),
        ),
        (
            "alpaka.copy_bytes",
            "B",
            ratio(t.copy_bytes as f64, traced_ops as f64),
        ),
        (
            "kir.trace_us",
            "us",
            p50_span(p, "kir.trace_kernel_spec", 1e6),
        ),
        ("kir.optimize_us", "us", p50_span(p, "kir.optimize", 1e6)),
        ("sim.lower_us", "us", p50_span(p, "sim.lower", 1e6)),
        ("sim.interp_s", "s", t.interp_s),
        (
            "sim.interp_share",
            "ratio",
            ratio(t.interp_s, win.traced_cycles.iter().sum()),
        ),
        (
            "sim.blocks_per_s",
            "1/s",
            ratio(t.blocks as f64, t.interp_s),
        ),
        ("sim.warp_instrs", "count", win.first_traced_instrs as f64),
        (
            "sim.lowering_cache_hit_ratio",
            "ratio",
            ratio(t.lower.hits as f64, (t.lower.hits + t.lower.misses) as f64),
        ),
        (
            "sim.compile_cache_hit_ratio",
            "ratio",
            ratio(
                t.compile.hits as f64,
                (t.compile.hits + t.compile.misses) as f64,
            ),
        ),
        (
            "sim.parallel_fallback_ratio",
            "ratio",
            ratio(t.fell_back as f64, t.asked_parallel as f64),
        ),
        ("hase.run_s", "s", p50_span(p, "hase.run_on", 1.0)),
        (
            "pool.overhead_ratio",
            "ratio",
            p50_sample(p, "pool.overhead_ratio"),
        ),
        (
            "pool.attempts_per_shard",
            "ratio",
            ratio(t.pool_attempts as f64, t.pool_shards as f64),
        ),
        ("pool.migrations", "count", t.pool_migrations as f64),
        (
            "pool.makespan_ratio",
            "ratio",
            ratio(t.pool_makespan_s, t.pool_serial_s),
        ),
        (
            "cpu.launch_ms.serial",
            "ms",
            p50_span(p, "cpu.launch.serial", 1e3),
        ),
        (
            "cpu.launch_ms.blocks",
            "ms",
            p50_span(p, "cpu.launch.blocks", 1e3),
        ),
        (
            "cpu.launch_ms.block_threads",
            "ms",
            p50_span(p, "cpu.launch.block_threads", 1e3),
        ),
        (
            "cpu.queue_wait_ms",
            "ms",
            p50_span(p, "cpu.queue_wait", 1e3),
        ),
        (
            "bench.trace_overhead",
            "ratio",
            match (median(&win.traced_cycles), median(&win.untraced_cycles)) {
                (Some(a), Some(b)) if b > 0.0 => a / b - 1.0,
                _ => 0.0,
            },
        ),
    ]
}

/// Human-readable lines before the result: per-shape sample counts and
/// percentiles, and the end-to-end figures that only some workloads have.
pub fn print_info(win: &Window, shapes: &[&str], traced: bool, setups: &[(Option<usize>, f64)]) {
    println!(
        "# attempted={} failed={} window_s={:.3} cpu_rotation={}",
        win.attempted, win.failed, win.window_s, win.rotated
    );
    let setups: Vec<String> = setups
        .iter()
        .map(|(cpu, t)| match cpu {
            Some(c) => format!("cpu{c}:{t:.4}"),
            None => format!("{t:.4}"),
        })
        .collect();
    println!("# setups_s=[{}]", setups.join(" "));
    for (name, w) in shapes.iter().zip(&win.walls) {
        let ms = |p: f64| percentile(w, p).unwrap_or(0.0) * 1e3;
        println!(
            "# shape {name}: ops={} p5_ms={:.4} p10_ms={:.4} p25_ms={:.4} p50_ms={:.4} p99_ms={:.4}",
            w.len(),
            ms(5.0),
            ms(10.0),
            ms(25.0),
            ms(50.0),
            ms(99.0)
        );
    }
    if traced {
        return;
    }
    println!(
        "# op_p50_ms={} ops_per_s_at_p50={}",
        typical_op_s(win, 50.0) * 1e3,
        cycle_ops_per_s(win, 50.0)
    );
    println!(
        "# window mean: ops_per_s={} host_gflops={}",
        completed(win) / win.window_s,
        win.all.flops / win.window_s * 1e-9
    );
    let walls = all_walls(win);
    if walls.len() >= P99_MIN_OPS {
        println!(
            "# op_p99_ms={} (n={})",
            percentile(&walls, 99.0).unwrap_or(0.0) * 1e3,
            walls.len()
        );
    } else {
        println!(
            "# op_p99_ms not reported: {} ops < {P99_MIN_OPS}",
            walls.len()
        );
    }
    if win.all.warp_instrs > 0 {
        println!(
            "# sim_minstr_per_s={} (warp-instructions {})",
            win.all.warp_instrs as f64 / win.window_s * 1e-6,
            win.all.warp_instrs
        );
    }
}

/// Self time per span name, summed over the traced cycles.
pub fn print_self_times(p: &Probe) {
    let spans = p.spans.spans();
    let own = self_times_ns(spans);
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for (s, t) in spans.iter().zip(own) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    println!("# self time by span (count, total ms):");
    for (name, (n, t)) in by_name {
        println!("#   {name:<28} {n:>8} {:>12.3}", t as f64 * 1e-6);
    }
}

/// The last line of the output.
pub fn result_json(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(name, unit, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
