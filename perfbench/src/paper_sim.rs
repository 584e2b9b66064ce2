//! `paper_sim`: the simulated-device rows of the paper reproduction, at a
//! reduced size. One op is one figure row; the interpreter is almost all of
//! every op. Fig. 9 is the tiled DGEMM with the paper's mappings on each
//! Table 3 device plus the Xeon Phi; Fig. 10 is HASE on the K20 and on the
//! 2x E5-2630v3 and 4x Opteron 6276 nodes. The DGEMM is n = 128 instead of
//! 256 and HASE traces 4 rays per point instead of 48, so that an op takes
//! 0.05-0.35 s instead of 0.6-3.4 s and a run holds a dozen samples per
//! row or more: with two to four samples of the full-size rows, the host's
//! varying load moved even the low percentile by 20-25% between runs.

use alpaka::{AccKind, Args, BufLayout, BufferF, Device, LaunchMode, WorkDiv};
use alpaka_core::acc::DeviceKind;
use alpaka_kernels::host::dgemm_ref;
use alpaka_kernels::DgemmTiled;
use alpaka_sim::DeviceSpec;
use hase::AseProblem;

use crate::harness::{
    check_eq, download, replay_front_end, sim_digest, sim_launch, upload, Probe, SimSig, Workload,
};
use crate::rng::Rng;

const SHAPES: &[&str] = &[
    "fig9_opteron6276",
    "fig9_e5_2609",
    "fig9_e5_2630v3",
    "fig9_k20",
    "fig9_k80",
    "fig9_xeon_phi",
    "fig10_k20",
    "fig10_2x_e5_2630v3",
    "fig10_4x_opteron6276",
];

/// `SimSig::digest` of every row: simulated seconds and all launch
/// statistics. A change to the simulator's speed must leave these alone;
/// a change to its model shows here first.
const DIGESTS: &[u64] = &[
    0xc295_f738_96f7_15be,
    0xec29_c3b1_b3c3_d39e,
    0x92cc_673f_c360_896a,
    0x3536_d825_e1db_01ee,
    0xc14a_8365_d70a_c495,
    0xb913_887a_ee10_a71b,
    0x35d6_fd5b_8dd7_a3f6,
    0xcf88_ad8f_7a7b_2490,
    0x50a7_31bf_b1c4_7819,
];

const N: usize = 128;

/// Interpreter workers a row's device is built with. GPU rows ask for two:
/// their shared-cache model forces the serial fallback, which
/// `sim.parallel_fallback_ratio` shows. CPU-model rows run on one: a
/// two-worker launch spans both CPUs of a 2-CPU host, so every op waits
/// for whichever CPU the host's other tenants slow down, and moving the
/// loop's thread across CPUs (`crate::cpus`) cannot steer it off that one.
fn workers(kind: DeviceKind) -> usize {
    match kind {
        DeviceKind::Gpu => 2,
        DeviceKind::Cpu => 1,
    }
}

enum Job {
    Gemm {
        kernel: DgemmTiled,
        wd: WorkDiv,
        bufs: Box<[BufferF; 3]>,
    },
    Hase,
}

struct Row {
    dev: Device,
    workers: usize,
    job: Job,
}

pub struct PaperSim {
    rows: Vec<Row>,
    a: Vec<f64>,
    b: Vec<f64>,
    c_want: Vec<f64>,
    problem: AseProblem,
    flux_want: Vec<f64>,
    sigs: Vec<Option<SimSig>>,
}

/// The Fig. 10 problem with 4 rays per point instead of 48.
fn fig10_problem() -> AseProblem {
    AseProblem {
        grid: 64,
        points: 64,
        rays: 4,
        step: 0.01,
        ..Default::default()
    }
}

/// A multi-socket node modelled as one device with more cores.
fn node(mut spec: DeviceSpec, sockets: usize, label: &str) -> DeviceSpec {
    spec.sms *= sockets;
    spec.name = label.to_string();
    spec
}

fn gemm_args(bufs: &[BufferF; 3], n: usize) -> Args {
    let pitch = bufs[0].layout().pitch as i64;
    let n = n as i64;
    Args::new()
        .buf_f(&bufs[0])
        .buf_f(&bufs[1])
        .buf_f(&bufs[2])
        .scalar_f(1.0)
        .scalar_f(0.0)
        .scalar_i(n)
        .scalar_i(n)
        .scalar_i(n)
        .scalar_i(pitch)
        .scalar_i(pitch)
        .scalar_i(pitch)
}

impl PaperSim {
    pub fn setup(seed: u64) -> Result<PaperSim, String> {
        let mut r = Rng::new(seed, "paper_sim/dgemm");
        let a = r.ints_f64(N * N, 10);
        let b = r.ints_f64(N * N, 10);
        let mut c_want = vec![0.0; N * N];
        dgemm_ref(N, N, N, 1.0, &a, &b, 0.0, &mut c_want);
        let problem = fig10_problem();
        let flux_want = problem.reference();

        let mut specs = DeviceSpec::table3();
        specs.push(DeviceSpec::xeon_phi_5110p());
        let mut rows: Vec<Row> = specs
            .into_iter()
            .map(|spec| {
                // The Fig. 9 mappings: GPU tiles of 16x16 threads with 2x2
                // elements; CPU blocks of one thread, smaller tiles for the
                // many-core part.
                let workers = workers(spec.kind);
                let (kernel, kind) = match spec.kind {
                    DeviceKind::Gpu => (DgemmTiled { t: 16, e: 2 }, AccKind::SimGpu(spec)),
                    DeviceKind::Cpu if spec.sms > 16 => {
                        (DgemmTiled { t: 1, e: 32 }, AccKind::SimCpu(spec))
                    }
                    DeviceKind::Cpu => (DgemmTiled { t: 1, e: 64 }, AccKind::SimCpu(spec)),
                };
                let dev = Device::with_workers(kind, workers);
                let l = BufLayout::d2(N, N, 8);
                let bufs = Box::new([dev.alloc_f64(l), dev.alloc_f64(l), dev.alloc_f64(l)]);
                Row {
                    dev,
                    workers,
                    job: Job::Gemm {
                        wd: kernel.workdiv(N, N),
                        kernel,
                        bufs,
                    },
                }
            })
            .collect();
        for spec in [
            DeviceSpec::k20(),
            node(DeviceSpec::e5_2630v3(), 2, "2x Intel Xeon E5-2630v3"),
            node(DeviceSpec::opteron_6276(), 4, "4x AMD Opteron 6276"),
        ] {
            let workers = workers(spec.kind);
            let kind = match spec.kind {
                DeviceKind::Gpu => AccKind::SimGpu(spec),
                DeviceKind::Cpu => AccKind::SimCpu(spec),
            };
            rows.push(Row {
                dev: Device::with_workers(kind, workers),
                workers,
                job: Job::Hase,
            });
        }
        let mut w = PaperSim {
            rows,
            a,
            b,
            c_want,
            problem,
            flux_want,
            sigs: vec![None; SHAPES.len()],
        };
        w.warm_up()?;
        Ok(w)
    }
}

impl Workload for PaperSim {
    fn shapes(&self) -> &'static [&'static str] {
        SHAPES
    }

    fn config(&self) -> String {
        "sim_workers=2 on GPU rows, 1 on CPU rows".into()
    }

    fn summary(&self) -> String {
        sim_digest(&self.sigs)
    }

    fn run_op(&mut self, shape: usize, _input: usize, p: &mut Probe) -> Result<(), String> {
        let row = &self.rows[shape];
        let report = match &row.job {
            Job::Gemm { kernel, wd, bufs } => {
                upload(p, &bufs[0], &self.a)?;
                upload(p, &bufs[1], &self.b)?;
                let r = sim_launch(p, &row.dev, row.workers, kernel, wd, &gemm_args(bufs, N))?;
                let c = download(p, &bufs[2]);
                check_eq(&c, &self.c_want, SHAPES[shape])?;
                r
            }
            Job::Hase => {
                let (flux, run) = p
                    .span("hase.run_on", |_| {
                        self.problem.run_on(&row.dev, LaunchMode::Exact)
                    })
                    .map_err(|e| format!("{}: {e}", SHAPES[shape]))?;
                check_eq(&flux, &self.flux_want, SHAPES[shape])?;
                let r = run.report.ok_or("HASE: no simulator report")?;
                p.tally.sim(&r, row.workers);
                r
            }
        };
        let sig = SimSig::of(&report);
        if sig.digest() != DIGESTS[shape] {
            return Err(format!(
                "{}: simulated digest {:#018x}, stored {:#018x}",
                SHAPES[shape],
                sig.digest(),
                DIGESTS[shape]
            ));
        }
        SimSig::check(&mut self.sigs[shape], sig, SHAPES[shape])
    }

    /// Fill the lowering and compile caches with the rows' exact programs
    /// at a fraction of their cost: a one-tile DGEMM keeps each row's
    /// block shape, and a one-ray HASE keeps its work division. The rows'
    /// full-size values are checked against `DIGESTS` instead.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut p = Probe::new(false);
        let small = AseProblem {
            rays: 1,
            ..self.problem.clone()
        };
        for (row, name) in self.rows.iter().zip(SHAPES) {
            match &row.job {
                Job::Gemm { kernel, bufs, .. } => {
                    let t = kernel.tile();
                    let (wd, args) = (kernel.workdiv(t, t), gemm_args(bufs, t));
                    sim_launch(&mut p, &row.dev, row.workers, kernel, &wd, &args)
                        .map_err(|e| format!("warm-up of {name}: {e}"))?;
                }
                Job::Hase => {
                    small
                        .run_on(&row.dev, LaunchMode::Exact)
                        .map_err(|e| format!("warm-up of {name}: {e}"))?;
                }
            }
        }
        Ok(())
    }

    fn replay(&mut self, shape: usize, _input: usize, p: &mut Probe) {
        let row = &self.rows[shape];
        match &row.job {
            Job::Gemm { kernel, wd, .. } => replay_front_end(p, kernel, wd),
            Job::Hase => {
                let wd = row.dev.suggest_workdiv_1d(self.problem.n_points());
                replay_front_end(p, &hase::AseKernel, &wd);
            }
        }
    }
}
