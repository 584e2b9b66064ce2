//! `launch_small`: six small op shapes on a simulated K20 at one
//! interpreter worker. Each op uploads its inputs, launches, and downloads
//! its result, so the front end (facade, kernel trace, KIR optimise) is a
//! large share of every op.

use alpaka::{AccKind, Args, BufLayout, BufferF, BufferI, Device, Queue, QueueBehavior, WorkDiv};
use alpaka_kernels::histogram::histogram_ref;
use alpaka_kernels::host::{dgemm_ref, jacobi_ref};
use alpaka_kernels::{
    DaxpyKernel, DgemmTiled, DotKernel, HistogramGlobalExact, JacobiStep, ScanBlocks,
};

use crate::harness::{
    check_eq, download, download_i, fnv, replay_front_end, sim_digest, sim_launch, upload,
    upload_i, Probe, SimSig, Workload,
};
use crate::rng::Rng;

const SHAPES: &[&str] = &[
    "jacobi64_queue",
    "daxpy256",
    "dot2048_b64",
    "scan1024_b128",
    "dgemm32_t4e2",
    "histogram4096",
];
const INPUTS: usize = 4;
const WORKERS: usize = 1;

const GRID: usize = 64;
const DAXPY_N: usize = 256;
const DOT_N: usize = 2048;
const DOT: DotKernel = DotKernel { block: 64 };
const SCAN_N: usize = 1024;
const SCAN: ScanBlocks = ScanBlocks { block: 128 };
const GEMM_N: usize = 32;
const GEMM: DgemmTiled = DgemmTiled { t: 4, e: 2 };
const HIST_BINS: usize = 16;

pub struct LaunchSmall {
    dev: Device,
    queue: Queue,
    // Jacobi ping-pong pair: `flip` says which one is the source.
    grid: [BufferF; 2],
    flip: bool,
    grid_wd: WorkDiv,
    grid_in: Vec<Vec<f64>>,
    grid_out: Vec<Vec<f64>>,
    /// Statistics of one Jacobi step, from a direct launch at set-up: the
    /// queue path returns no report, so its ops are counted with these.
    jacobi_stats: alpaka_sim::LaunchStats,
    /// Simulated seconds per (input, ping-pong direction).
    jacobi_clock: Vec<Option<f64>>,
    daxpy: [BufferF; 2],
    daxpy_wd: WorkDiv,
    daxpy_in: Vec<(f64, Vec<f64>, Vec<f64>)>,
    daxpy_out: Vec<Vec<f64>>,
    dot: [BufferF; 3],
    dot_wd: WorkDiv,
    dot_in: Vec<(Vec<f64>, Vec<f64>)>,
    dot_out: Vec<f64>,
    scan: [BufferF; 3],
    scan_wd: WorkDiv,
    scan_in: Vec<Vec<f64>>,
    scan_out: Vec<(Vec<f64>, Vec<f64>)>,
    gemm: [BufferF; 3],
    gemm_wd: WorkDiv,
    gemm_in: Vec<(Vec<f64>, Vec<f64>)>,
    gemm_out: Vec<Vec<f64>>,
    hist_samples: BufferF,
    hist_bins: BufferI,
    hist_wd: WorkDiv,
    hist_in: Vec<Vec<f64>>,
    hist_out: Vec<Vec<i64>>,
    /// Expected simulated values per (shape, input), fixed by the warm-up.
    sigs: Vec<Option<SimSig>>,
}

impl LaunchSmall {
    pub fn setup(seed: u64) -> Result<LaunchSmall, String> {
        let dev = Device::with_workers(AccKind::sim_k20(), WORKERS);
        let queue = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let f = |n: usize| dev.alloc_f64(BufLayout::d1(n));
        let grid_layout = BufLayout::d2(GRID, GRID, 8);

        let mut r = Rng::new(seed, "launch_small/jacobi");
        let grid_in: Vec<Vec<f64>> = (0..INPUTS).map(|_| r.ints_f64(GRID * GRID, 100)).collect();
        let grid_out = grid_in
            .iter()
            .map(|g| {
                let mut out = vec![0.0; g.len()];
                jacobi_ref(GRID, GRID, g, &mut out);
                out
            })
            .collect();

        let mut r = Rng::new(seed, "launch_small/daxpy");
        let daxpy_in: Vec<(f64, Vec<f64>, Vec<f64>)> = (0..INPUTS)
            .map(|_| {
                let alpha = (1 + r.below(8)) as f64;
                (alpha, r.ints_f64(DAXPY_N, 100), r.ints_f64(DAXPY_N, 100))
            })
            .collect();
        let daxpy_out = daxpy_in
            .iter()
            .map(|(a, x, y)| x.iter().zip(y).map(|(x, y)| x.mul_add(*a, *y)).collect())
            .collect();

        let mut r = Rng::new(seed, "launch_small/dot");
        let dot_in: Vec<(Vec<f64>, Vec<f64>)> = (0..INPUTS)
            .map(|_| (r.ints_f64(DOT_N, 100), r.ints_f64(DOT_N, 100)))
            .collect();
        let dot_out = dot_in
            .iter()
            .map(|(x, y)| x.iter().zip(y).map(|(a, b)| a * b).sum())
            .collect();

        let mut r = Rng::new(seed, "launch_small/scan");
        let scan_in: Vec<Vec<f64>> = (0..INPUTS).map(|_| r.ints_f64(SCAN_N, 100)).collect();
        let scan_out = scan_in
            .iter()
            .map(|x| block_scan_ref(x, 2 * SCAN.block))
            .collect();

        let mut r = Rng::new(seed, "launch_small/dgemm");
        let gemm_in: Vec<(Vec<f64>, Vec<f64>)> = (0..INPUTS)
            .map(|_| {
                (
                    r.ints_f64(GEMM_N * GEMM_N, 10),
                    r.ints_f64(GEMM_N * GEMM_N, 10),
                )
            })
            .collect();
        let gemm_out = gemm_in
            .iter()
            .map(|(a, b)| {
                let n = GEMM_N;
                let mut c = vec![0.0; n * n];
                dgemm_ref(n, n, n, 1.0, a, b, 0.0, &mut c);
                c
            })
            .collect();

        let hist_wd = WorkDiv::d1(8, 128, 4);
        let hist_n = hist_wd.global_elem_count();
        let mut r = Rng::new(seed, "launch_small/histogram");
        // Bin centres of a 160-bin grid over [0, 10): no sample sits on a
        // bin edge, so host and device agree on every bin.
        let hist_in: Vec<Vec<f64>> = (0..INPUTS)
            .map(|_| {
                (0..hist_n)
                    .map(|_| (r.below(160) as f64 + 0.5) / 16.0)
                    .collect()
            })
            .collect();
        let hist_out = hist_in
            .iter()
            .map(|s| histogram_ref(s, 0.0, 10.0, HIST_BINS))
            .collect();

        let grid = [dev.alloc_f64(grid_layout), dev.alloc_f64(grid_layout)];
        let grid_wd = JacobiStep::workdiv(GRID, GRID, 4, 4);
        let jacobi_stats = {
            let args = jacobi_args(&grid[0], &grid[1]);
            dev.launch_report(&JacobiStep, &grid_wd, &args)
                .map_err(|e| format!("jacobi probe: {e}"))?
                .ok_or("jacobi probe: no report")?
                .stats
        };
        let mut w = LaunchSmall {
            grid,
            flip: false,
            grid_wd,
            grid_in,
            grid_out,
            jacobi_stats,
            jacobi_clock: vec![None; 2 * INPUTS],
            daxpy: [f(DAXPY_N), f(DAXPY_N)],
            daxpy_wd: dev.suggest_workdiv_1d(DAXPY_N),
            daxpy_in,
            daxpy_out,
            dot: [f(DOT_N), f(DOT_N), f(1)],
            dot_wd: WorkDiv::d1(DOT_N / (DOT.block * 4), DOT.block, 4),
            dot_in,
            dot_out,
            scan: [f(SCAN_N), f(SCAN_N), f(SCAN_N / (2 * SCAN.block))],
            scan_wd: WorkDiv::d1(SCAN_N / (2 * SCAN.block), SCAN.block, 1),
            scan_in,
            scan_out,
            gemm: {
                let l = BufLayout::d2(GEMM_N, GEMM_N, 8);
                [dev.alloc_f64(l), dev.alloc_f64(l), dev.alloc_f64(l)]
            },
            gemm_wd: GEMM.workdiv(GEMM_N, GEMM_N),
            gemm_in,
            gemm_out,
            hist_samples: f(hist_n),
            hist_bins: dev.alloc_i64(BufLayout::d1(HIST_BINS)),
            hist_wd,
            hist_in,
            hist_out,
            sigs: vec![None; SHAPES.len() * INPUTS],
            dev,
            queue,
        };
        w.warm_up()?;
        Ok(w)
    }

    fn check_sig(
        &mut self,
        shape: usize,
        input: usize,
        r: &alpaka_sim::SimReport,
    ) -> Result<(), String> {
        SimSig::check(
            &mut self.sigs[shape * INPUTS + input],
            SimSig::of(r),
            SHAPES[shape],
        )
    }

    fn jacobi(&mut self, input: usize, p: &mut Probe) -> Result<(), String> {
        let (src, dst) = if self.flip {
            (&self.grid[1], &self.grid[0])
        } else {
            (&self.grid[0], &self.grid[1])
        };
        let clock0 = self.dev.sim_clock_s();
        upload(p, src, &self.grid_in[input])?;
        let args = jacobi_args(src, dst);
        p.span("alpaka.enqueue_kernel", |_| {
            self.queue.enqueue_kernel(&JacobiStep, &self.grid_wd, &args)
        })
        .map_err(|e| format!("enqueue: {e}"))?;
        p.span("alpaka.queue_wait", |_| self.queue.wait())
            .map_err(|e| format!("queue wait: {e}"))?;
        let got = download(p, dst);
        let spent = self.dev.sim_clock_s() - clock0;
        let slot = 2 * input + usize::from(self.flip);
        self.flip = !self.flip;
        p.tally.sim_stats(&self.jacobi_stats);
        check_eq(&got, &self.grid_out[input], "jacobi")?;
        // The queue returns no report: compare the op's simulated seconds,
        // read off the device clock (exact up to the clock's own rounding).
        match self.jacobi_clock[slot] {
            None => self.jacobi_clock[slot] = Some(spent),
            Some(want) if ((spent - want) / want).abs() <= 1e-9 => {}
            Some(want) => {
                return Err(format!(
                    "jacobi: simulated op time {spent} s, want {want} s"
                ))
            }
        }
        Ok(())
    }
}

fn jacobi_args(src: &BufferF, dst: &BufferF) -> Args {
    Args::new()
        .buf_f(src)
        .buf_f(dst)
        .scalar_i(GRID as i64)
        .scalar_i(GRID as i64)
        .scalar_i(src.layout().pitch as i64)
}

/// Exclusive scan of every `chunk`-element block, plus each block's total.
fn block_scan_ref(x: &[f64], chunk: usize) -> (Vec<f64>, Vec<f64>) {
    let mut out = Vec::with_capacity(x.len());
    let mut sums = Vec::new();
    for c in x.chunks(chunk) {
        let mut acc = 0.0;
        for &v in c {
            out.push(acc);
            acc += v;
        }
        sums.push(acc);
    }
    (out, sums)
}

impl Workload for LaunchSmall {
    fn shapes(&self) -> &'static [&'static str] {
        SHAPES
    }

    fn inputs(&self) -> usize {
        INPUTS
    }

    fn config(&self) -> String {
        format!("device={} sim_workers={WORKERS}", self.dev.name())
    }

    fn summary(&self) -> String {
        let clocks = fnv(self.jacobi_clock.iter().flatten().map(|c| c.to_bits()));
        format!(
            "{} jacobi_clock_digest={clocks:#018x}",
            sim_digest(&self.sigs)
        )
    }

    fn run_op(&mut self, shape: usize, input: usize, p: &mut Probe) -> Result<(), String> {
        let dev = self.dev.clone();
        match shape {
            0 => self.jacobi(input, p),
            1 => {
                let [x, y] = &self.daxpy;
                let (alpha, xs, ys) = &self.daxpy_in[input];
                upload(p, x, xs)?;
                upload(p, y, ys)?;
                let args = Args::new()
                    .buf_f(x)
                    .buf_f(y)
                    .scalar_f(*alpha)
                    .scalar_i(DAXPY_N as i64);
                let r = sim_launch(p, &dev, WORKERS, &DaxpyKernel, &self.daxpy_wd, &args)?;
                let got = download(p, y);
                check_eq(&got, &self.daxpy_out[input], "daxpy")?;
                self.check_sig(shape, input, &r)
            }
            2 => {
                let [x, y, res] = &self.dot;
                let (xs, ys) = &self.dot_in[input];
                upload(p, x, xs)?;
                upload(p, y, ys)?;
                upload(p, res, &[0.0])?;
                let args = Args::new()
                    .buf_f(x)
                    .buf_f(y)
                    .buf_f(res)
                    .scalar_i(DOT_N as i64);
                let r = sim_launch(p, &dev, WORKERS, &DOT, &self.dot_wd, &args)?;
                let got = download(p, res);
                check_eq(&got, &[self.dot_out[input]], "dot")?;
                self.check_sig(shape, input, &r)
            }
            3 => {
                let [inp, out, sums] = &self.scan;
                upload(p, inp, &self.scan_in[input])?;
                let args = Args::new()
                    .buf_f(inp)
                    .buf_f(out)
                    .buf_f(sums)
                    .scalar_i(SCAN_N as i64);
                let r = sim_launch(p, &dev, WORKERS, &SCAN, &self.scan_wd, &args)?;
                let got = download(p, out);
                let got_sums = download(p, sums);
                let (want, want_sums) = &self.scan_out[input];
                check_eq(&got, want, "scan")?;
                check_eq(&got_sums, want_sums, "scan block sums")?;
                self.check_sig(shape, input, &r)
            }
            4 => {
                let [a, b, c] = &self.gemm;
                let (av, bv) = &self.gemm_in[input];
                upload(p, a, av)?;
                upload(p, b, bv)?;
                let n = GEMM_N as i64;
                let pitch = a.layout().pitch as i64;
                let args = Args::new()
                    .buf_f(a)
                    .buf_f(b)
                    .buf_f(c)
                    .scalar_f(1.0)
                    .scalar_f(0.0)
                    .scalar_i(n)
                    .scalar_i(n)
                    .scalar_i(n)
                    .scalar_i(pitch)
                    .scalar_i(pitch)
                    .scalar_i(pitch);
                let r = sim_launch(p, &dev, WORKERS, &GEMM, &self.gemm_wd, &args)?;
                let got = download(p, c);
                check_eq(&got, &self.gemm_out[input], "dgemm")?;
                self.check_sig(shape, input, &r)
            }
            _ => {
                let n = self.hist_wd.global_elem_count();
                upload(p, &self.hist_samples, &self.hist_in[input])?;
                upload_i(p, &self.hist_bins, &[0; HIST_BINS])?;
                let args = Args::new()
                    .buf_f(&self.hist_samples)
                    .buf_i(&self.hist_bins)
                    .scalar_f(0.0)
                    .scalar_f(10.0)
                    .scalar_i(n as i64)
                    .scalar_i(HIST_BINS as i64);
                let r = sim_launch(
                    p,
                    &dev,
                    WORKERS,
                    &HistogramGlobalExact,
                    &self.hist_wd,
                    &args,
                )?;
                let got = download_i(p, &self.hist_bins);
                check_eq(&got, &self.hist_out[input], "histogram")?;
                self.check_sig(shape, input, &r)
            }
        }
    }

    fn replay(&mut self, shape: usize, _input: usize, p: &mut Probe) {
        match shape {
            0 => replay_front_end(p, &JacobiStep, &self.grid_wd),
            1 => replay_front_end(p, &DaxpyKernel, &self.daxpy_wd),
            2 => replay_front_end(p, &DOT, &self.dot_wd),
            3 => replay_front_end(p, &SCAN, &self.scan_wd),
            4 => replay_front_end(p, &GEMM, &self.gemm_wd),
            _ => replay_front_end(p, &HistogramGlobalExact, &self.hist_wd),
        }
    }

    /// Every (shape, input) op once; Jacobi twice per input, so that both
    /// ping-pong directions have a reference time.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut p = Probe::new(false);
        for (shape, name) in SHAPES.iter().enumerate() {
            for input in 0..INPUTS {
                let reps = if shape == 0 { 2 } else { 1 };
                for _ in 0..reps {
                    self.run_op(shape, input, &mut p)
                        .map_err(|e| format!("warm-up of {name} input {input}: {e}"))?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        let a = LaunchSmall::setup(1).expect("set-up");
        let b = LaunchSmall::setup(1).expect("set-up");
        let c = LaunchSmall::setup(2).expect("set-up");
        assert_eq!(a.daxpy_in, b.daxpy_in);
        assert_eq!(a.hist_in, b.hist_in);
        assert_ne!(a.daxpy_in, c.daxpy_in);
        assert_ne!(a.grid_in, c.grid_in);
    }

    #[test]
    fn block_scan_reference_restarts_every_chunk() {
        let (out, sums) = block_scan_ref(&[1.0, 2.0, 3.0, 4.0, 5.0], 2);
        assert_eq!(out, vec![0.0, 1.0, 0.0, 3.0, 0.0]);
        assert_eq!(sums, vec![3.0, 7.0, 5.0]);
    }
}
