//! `native_cpu`: the native CPU accelerators with two workers each. The
//! tiled DGEMM runs on CpuBlocks and CpuSerial (n = 256) and on
//! CpuBlockThreads (n = 64); batches of heat2d Jacobi steps go through a
//! non-blocking CpuBlocks queue. The only workload through `alpaka-cpu`,
//! and it never touches the simulator.

use alpaka::{AccKind, Args, BufLayout, BufferF, Device, Queue, QueueBehavior, WorkDiv};
use alpaka_kernels::host::{dgemm_ref, jacobi_ref};
use alpaka_kernels::{DgemmTiled, JacobiStep};

use crate::harness::{check_eq, download, upload, Probe, Workload};
use crate::rng::Rng;

const SHAPES: &[&str] = &[
    "dgemm256_blocks",
    "dgemm256_serial",
    "dgemm64_block_threads",
    "jacobi128_x8_blocks_queue",
];
const INPUTS: usize = 2;
const WORKERS: usize = 2;
const GRID: usize = 128;
const STEPS: usize = 8;

struct Gemm {
    dev: Device,
    span: &'static str,
    n: usize,
    kernel: DgemmTiled,
    bufs: [BufferF; 3],
    inputs: Vec<(Vec<f64>, Vec<f64>)>,
    want: Vec<Vec<f64>>,
}

impl Gemm {
    fn new(kind: AccKind, span: &'static str, n: usize, kernel: DgemmTiled, r: &mut Rng) -> Gemm {
        let dev = Device::with_workers(kind, WORKERS);
        let l = BufLayout::d2(n, n, 8);
        let bufs = [dev.alloc_f64(l), dev.alloc_f64(l), dev.alloc_f64(l)];
        let inputs: Vec<(Vec<f64>, Vec<f64>)> = (0..INPUTS)
            .map(|_| (r.ints_f64(n * n, 10), r.ints_f64(n * n, 10)))
            .collect();
        let want = inputs
            .iter()
            .map(|(a, b)| {
                let mut c = vec![0.0; n * n];
                dgemm_ref(n, n, n, 1.0, a, b, 0.0, &mut c);
                c
            })
            .collect();
        Gemm {
            dev,
            span,
            n,
            kernel,
            bufs,
            inputs,
            want,
        }
    }

    fn run(&self, input: usize, p: &mut Probe) -> Result<(), String> {
        let (a, b) = &self.inputs[input];
        upload(p, &self.bufs[0], a)?;
        upload(p, &self.bufs[1], b)?;
        let pitch = self.bufs[0].layout().pitch as i64;
        let n = self.n as i64;
        let args = Args::new()
            .buf_f(&self.bufs[0])
            .buf_f(&self.bufs[1])
            .buf_f(&self.bufs[2])
            .scalar_f(1.0)
            .scalar_f(0.0)
            .scalar_i(n)
            .scalar_i(n)
            .scalar_i(n)
            .scalar_i(pitch)
            .scalar_i(pitch)
            .scalar_i(pitch);
        let wd = self.kernel.workdiv(self.n, self.n);
        p.span(self.span, |_| self.dev.launch(&self.kernel, &wd, &args))
            .map_err(|e| format!("dgemm on {}: {e}", self.dev.name()))?;
        let c = download(p, &self.bufs[2]);
        p.tally.flops += 2.0 * (self.n as f64).powi(3);
        check_eq(&c, &self.want[input], self.span)
    }
}

pub struct NativeCpu {
    gemms: [Gemm; 3],
    queue: Queue,
    grid: [BufferF; 2],
    grid_wd: WorkDiv,
    grid_in: Vec<Vec<f64>>,
    grid_out: Vec<Vec<f64>>,
}

impl NativeCpu {
    pub fn setup(seed: u64) -> Result<NativeCpu, String> {
        let mut r = Rng::new(seed, "native_cpu/dgemm");
        let gemms = [
            Gemm::new(
                AccKind::CpuBlocks,
                "cpu.launch.blocks",
                256,
                DgemmTiled { t: 1, e: 16 },
                &mut r,
            ),
            Gemm::new(
                AccKind::CpuSerial,
                "cpu.launch.serial",
                256,
                DgemmTiled { t: 1, e: 16 },
                &mut r,
            ),
            Gemm::new(
                AccKind::CpuBlockThreads,
                "cpu.launch.block_threads",
                64,
                DgemmTiled { t: 4, e: 4 },
                &mut r,
            ),
        ];
        let dev = Device::with_workers(AccKind::CpuBlocks, WORKERS);
        let queue = Queue::new(dev.clone(), QueueBehavior::NonBlocking);
        let l = BufLayout::d2(GRID, GRID, 8);
        let bt = if dev.caps().requires_single_thread_blocks {
            1
        } else {
            4
        };
        let mut r = Rng::new(seed, "native_cpu/jacobi");
        let grid_in: Vec<Vec<f64>> = (0..INPUTS).map(|_| r.ints_f64(GRID * GRID, 100)).collect();
        let grid_out = grid_in
            .iter()
            .map(|g| {
                let mut cur = g.clone();
                let mut next = vec![0.0; g.len()];
                for _ in 0..STEPS {
                    jacobi_ref(GRID, GRID, &cur, &mut next);
                    std::mem::swap(&mut cur, &mut next);
                }
                cur
            })
            .collect();
        let mut w = NativeCpu {
            gemms,
            queue,
            grid: [dev.alloc_f64(l), dev.alloc_f64(l)],
            grid_wd: JacobiStep::workdiv(GRID, GRID, bt, 4),
            grid_in,
            grid_out,
        };
        w.warm_up()?;
        Ok(w)
    }

    fn jacobi_batch(&self, input: usize, p: &mut Probe) -> Result<(), String> {
        upload(p, &self.grid[0], &self.grid_in[input])?;
        let pitch = self.grid[0].layout().pitch as i64;
        for step in 0..STEPS {
            let (src, dst) = (&self.grid[step % 2], &self.grid[1 - step % 2]);
            let args = Args::new()
                .buf_f(src)
                .buf_f(dst)
                .scalar_i(GRID as i64)
                .scalar_i(GRID as i64)
                .scalar_i(pitch);
            p.span("alpaka.enqueue_kernel", |_| {
                self.queue.enqueue_kernel(&JacobiStep, &self.grid_wd, &args)
            })
            .map_err(|e| format!("enqueue: {e}"))?;
        }
        p.span("cpu.queue_wait", |_| self.queue.wait())
            .map_err(|e| format!("queue wait: {e}"))?;
        let got = download(p, &self.grid[STEPS % 2]);
        p.tally.flops += (4 * (GRID - 2) * (GRID - 2) * STEPS) as f64;
        check_eq(&got, &self.grid_out[input], "jacobi batch")
    }
}

impl Workload for NativeCpu {
    fn shapes(&self) -> &'static [&'static str] {
        SHAPES
    }

    fn inputs(&self) -> usize {
        INPUTS
    }

    fn config(&self) -> String {
        format!("cpu_workers={WORKERS} accelerators=CpuBlocks,CpuSerial,CpuBlockThreads")
    }

    fn single_threaded(&self) -> bool {
        false
    }

    fn run_op(&mut self, shape: usize, input: usize, p: &mut Probe) -> Result<(), String> {
        match shape {
            0..=2 => self.gemms[shape].run(input, p),
            _ => self.jacobi_batch(input, p),
        }
    }
}
