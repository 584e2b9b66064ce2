//! `pool_shards`: 4-shard launches through `DevicePool`s of 2 and 4
//! simulated K20s, alternating, with a seeded schedule of recoverable
//! faults. The only workload through `alpaka::pool` and `alpaka::resilient`.

use std::time::Instant;

use alpaka::{
    AccKind, Args, BufLayout, BufferF, BufferI, Device, DevicePool, FaultPlan, Health, Kernel,
    LaunchSpec, PoolOutcome, PoolPolicy, WorkDiv, WorkDivSpec,
};
use alpaka_kernels::histogram::histogram_ref;
use alpaka_kernels::{DaxpyKernel, HistogramGlobalExact};
use alpaka_sim::LaunchStats;

use crate::harness::{check_eq, replay_front_end, sim_digest, Probe, SimSig, Workload};
use crate::rng::Rng;

const SHAPES: &[&str] = &["daxpy16k_4shards", "histogram16k_4shards"];
const INPUTS: usize = 2;
const SHARDS: usize = 4;
const N: usize = 1 << 14;
const BINS: usize = 64;
/// About one launch in `FAULT_EVERY` gets an injected fault.
const FAULT_EVERY: usize = 16;
/// The injected fault kinds, as `AttemptRecord::fault` names them.
const FAULT_KINDS: [&str; 3] = ["oom", "ecc", "device_lost"];
/// Per-global-load probability of an ECC event on the faulted member.
const ECC_RATE: f64 = 1e-4;
/// Simulated device memory is only released with its device, and every
/// shard attempt allocates its buffers anew: a pool is replaced after this
/// many launches to bound the benchmark's memory.
const POOL_LAUNCHES: u64 = 32;

fn daxpy_wd() -> WorkDiv {
    WorkDiv::d1(N / 128, 128, 1)
}

fn hist_wd() -> WorkDiv {
    WorkDiv::d1(N / 512, 128, 4)
}

struct Pool {
    size: usize,
    pool: DevicePool,
    launches: u64,
    /// Allocation ordinal of each member's next allocation, kept from the
    /// attempt history so that an injected OOM hits the next one.
    allocs: Vec<u64>,
}

impl Pool {
    fn new(size: usize) -> Result<Pool, String> {
        let pool = DevicePool::new_sim_with_workers(AccKind::sim_k20(), size, 1)
            .map_err(|e| format!("pool of {size}: {e}"))?
            .with_policy(PoolPolicy {
                cooldown_shards: 2,
                ..PoolPolicy::default()
            });
        pool.clear_faults();
        Ok(Pool {
            size,
            pool,
            launches: 0,
            allocs: vec![0; size],
        })
    }
}

pub struct PoolShards {
    pools: [Pool; 2],
    next_pool: usize,
    daxpy: Vec<LaunchSpec<DaxpyKernel>>,
    hist: Vec<LaunchSpec<HistogramGlobalExact>>,
    /// Fault-free single-device results and statistics per (shape, input).
    want: Vec<Expected>,
    faults: Rng,
    fault_seed: u64,
    /// Launches armed with, and launches that hit, each fault kind.
    planned: [u64; 3],
    fired: [u64; 3],
    /// Traced cycles: the last pool launch's wall, and one reference
    /// device with buffers for the same grid as a single launch.
    last_wall: f64,
    single: Device,
    single_daxpy: [BufferF; 2],
    single_hist: (BufferF, BufferI),
}

fn bufs_of<K>(spec: &LaunchSpec<K>) -> usize {
    spec.bufs_f.len() + spec.bufs_i.len()
}

fn bytes_of<K>(spec: &LaunchSpec<K>) -> u64 {
    let f: usize = spec.bufs_f.iter().map(|(_, v)| v.len()).sum();
    let i: usize = spec.bufs_i.iter().map(|(_, v)| v.len()).sum();
    8 * (f + i) as u64
}

/// Σ shard times in execution order: the launch's simulated seconds
/// without retry backoff, equal to the fault-free run's.
fn shard_seconds(out: &PoolOutcome) -> f64 {
    out.shards.iter().map(|s| s.time_s).sum()
}

/// Expected outcome of `spec` on any pool: buffers from one fault-free
/// device running the whole grid as one launch, and the statistics and
/// shard seconds of that device running the same shards.
fn reference<K: Kernel + Clone + Send + 'static>(
    serial: &mut Pool,
    spec: &LaunchSpec<K>,
) -> Result<Expected, String> {
    let whole = serial
        .pool
        .launch(spec, 1)
        .map_err(|e| format!("reference: {e}"))?;
    let sharded = serial
        .pool
        .launch(spec, SHARDS)
        .map_err(|e| format!("reference: {e}"))?;
    check_eq(
        &sharded.bufs_f.concat(),
        &whole.bufs_f.concat(),
        "sharded reference",
    )?;
    check_eq(
        &sharded.bufs_i.concat(),
        &whole.bufs_i.concat(),
        "sharded reference",
    )?;
    Ok((
        whole.bufs_f,
        whole.bufs_i,
        sharded.stats,
        shard_seconds(&sharded),
    ))
}

type Expected = (Vec<Vec<f64>>, Vec<Vec<i64>>, LaunchStats, f64);

impl PoolShards {
    pub fn setup(seed: u64) -> Result<PoolShards, String> {
        let mut r = Rng::new(seed, "pool_shards/daxpy");
        let daxpy: Vec<LaunchSpec<DaxpyKernel>> = (0..INPUTS)
            .map(|_| {
                let alpha = (1 + r.below(8)) as f64;
                LaunchSpec::new(DaxpyKernel, WorkDivSpec::Fixed(daxpy_wd()))
                    .arg_f(BufLayout::d1(N), r.ints_f64(N, 100))
                    .arg_f(BufLayout::d1(N), r.ints_f64(N, 100))
                    .scalar_f(alpha)
                    .scalar_i(N as i64)
            })
            .collect();
        let mut r = Rng::new(seed, "pool_shards/histogram");
        let hist: Vec<LaunchSpec<HistogramGlobalExact>> = (0..INPUTS)
            .map(|_| {
                let samples: Vec<f64> = (0..N)
                    .map(|_| (r.below(4 * BINS) as f64 + 0.5) / (4 * BINS) as f64 * 10.0)
                    .collect();
                LaunchSpec::new(HistogramGlobalExact, WorkDivSpec::Fixed(hist_wd()))
                    .arg_f(BufLayout::d1(N), samples)
                    .arg_i(BufLayout::d1(BINS), vec![0; BINS])
                    .scalar_f(0.0)
                    .scalar_f(10.0)
                    .scalar_i(N as i64)
                    .scalar_i(BINS as i64)
            })
            .collect();

        // References from one fault-free device, checked against the host
        // references.
        let mut want = Vec::new();
        let mut serial = Pool::new(1)?;
        for spec in &daxpy {
            let (x, y) = (&spec.bufs_f[0].1, &spec.bufs_f[1].1);
            let alpha = spec.scalars.f[0];
            let host: Vec<f64> = x.iter().zip(y).map(|(x, y)| x.mul_add(alpha, *y)).collect();
            want.push(reference(&mut serial, spec)?);
            check_eq(&want.last().expect("pushed").0[1], &host, "reference daxpy")?;
        }
        for spec in &hist {
            let host = histogram_ref(&spec.bufs_f[0].1, 0.0, 10.0, BINS);
            want.push(reference(&mut serial, spec)?);
            check_eq(
                &want.last().expect("pushed").1[0],
                &host,
                "reference histogram",
            )?;
        }

        let single = Device::with_workers(AccKind::sim_k20(), 1);
        let single_daxpy = [
            single.alloc_f64(BufLayout::d1(N)),
            single.alloc_f64(BufLayout::d1(N)),
        ];
        let single_hist = (
            single.alloc_f64(BufLayout::d1(N)),
            single.alloc_i64(BufLayout::d1(BINS)),
        );
        let mut w = PoolShards {
            pools: [Pool::new(2)?, Pool::new(4)?],
            next_pool: 0,
            daxpy,
            hist,
            want,
            faults: Rng::new(seed, "pool_shards/faults"),
            fault_seed: seed,
            planned: [0; 3],
            fired: [0; 3],
            last_wall: 0.0,
            single,
            single_daxpy,
            single_hist,
        };
        w.warm_up()?;
        Ok(w)
    }

    /// Maybe arm a one-launch fault on one member of `pool`. Returns the
    /// member to clear afterwards.
    /// Only a pool with no quarantined member is faulted: a fault on the
    /// last healthy member while another cools down would strand the
    /// launch, and every later one, since cooldown counts completed shards.
    fn arm_fault(&mut self, pool: usize) -> Option<(usize, usize)> {
        let p = &self.pools[pool];
        let (roll, member, kind) = (
            self.faults.below(FAULT_EVERY),
            self.faults.below(p.size),
            self.faults.below(3),
        );
        if roll != 0 || p.pool.health().contains(&Health::Quarantined) {
            return None;
        }
        let plan = FaultPlan::quiet(self.fault_seed ^ self.planned.iter().sum::<u64>());
        let plan = match kind {
            0 => plan.with_oom_at(p.allocs[member]),
            1 => plan.with_ecc_rate(ECC_RATE),
            _ => plan.with_lost_at_launch(p.pool.devices()[member].sim_launch_count()),
        };
        p.pool.set_member_faults(member, Some(plan));
        self.planned[kind] += 1;
        Some((member, kind))
    }

    fn launch<K: Kernel + Clone + Send + 'static>(
        pools: &mut [Pool; 2],
        which: usize,
        spec: &LaunchSpec<K>,
        p: &mut Probe,
    ) -> Result<PoolOutcome, String> {
        let pool = &mut pools[which];
        let out = p
            .span("pool.launch", |_| pool.pool.launch(spec, SHARDS))
            .map_err(|e| format!("pool of {}: {e}", pool.size))?;
        let nbufs = bufs_of(spec) as u64;
        for a in &out.resilience.history {
            pool.allocs[a.device_index] += if a.fault.as_deref() == Some("oom") {
                1
            } else {
                nbufs
            };
        }
        pool.launches += 1;
        let t = &mut p.tally;
        t.sim_stats(&out.stats);
        t.copy_bytes += 2 * bytes_of(spec) * out.shards.len() as u64;
        t.pool_shards += out.shards.len() as u64;
        t.pool_attempts += u64::from(out.resilience.attempts);
        t.pool_migrations += out.migrations.len() as u64;
        t.pool_makespan_s += out.makespan_s;
        t.pool_serial_s += out.serial_s;
        Ok(out)
    }
}

impl Workload for PoolShards {
    fn shapes(&self) -> &'static [&'static str] {
        SHAPES
    }

    fn inputs(&self) -> usize {
        INPUTS
    }

    fn config(&self) -> String {
        format!("device=K20 pool_sizes=2,4 shards={SHARDS} sim_workers=1 fault_every={FAULT_EVERY}")
    }

    fn summary(&self) -> String {
        let sigs: Vec<Option<SimSig>> = self
            .want
            .iter()
            .map(|(_, _, stats, time_s)| {
                Some(SimSig {
                    stats: *stats,
                    time_s: *time_s,
                })
            })
            .collect();
        format!(
            "faults {FAULT_KINDS:?} planned={:?} fired={:?} {}",
            self.planned,
            self.fired,
            sim_digest(&sigs)
        )
    }

    fn run_op(&mut self, shape: usize, input: usize, p: &mut Probe) -> Result<(), String> {
        let which = self.next_pool;
        self.next_pool = 1 - self.next_pool;
        if self.pools[which].launches >= POOL_LAUNCHES {
            self.pools[which] = Pool::new(self.pools[which].size)?;
        }
        let armed = self.arm_fault(which);
        let t0 = Instant::now();
        let out = if shape == 0 {
            Self::launch(&mut self.pools, which, &self.daxpy[input], p)
        } else {
            Self::launch(&mut self.pools, which, &self.hist[input], p)
        };
        self.last_wall = t0.elapsed().as_secs_f64();
        if let Some((member, _)) = armed {
            self.pools[which].pool.set_member_faults(member, None);
        }
        let out = out?;
        if let Some((_, kind)) = armed {
            let hit = |a: &alpaka_sim::AttemptRecord| a.fault.as_deref() == Some(FAULT_KINDS[kind]);
            if out.resilience.history.iter().any(hit) {
                self.fired[kind] += 1;
            }
        }
        let (want_f, want_i, stats, secs) = &self.want[shape * INPUTS + input];
        for (got, want) in out.bufs_f.iter().zip(want_f) {
            check_eq(got, want, SHAPES[shape])?;
        }
        for (got, want) in out.bufs_i.iter().zip(want_i) {
            check_eq(got, want, SHAPES[shape])?;
        }
        if out.stats != *stats || shard_seconds(&out) != *secs {
            return Err(format!(
                "{}: pool statistics or simulated seconds differ from the single-device run",
                SHAPES[shape]
            ));
        }
        Ok(())
    }

    /// The same grid as one `Device::launch` with its uploads and
    /// downloads on a single device, for `pool.overhead_ratio`.
    fn replay(&mut self, shape: usize, input: usize, p: &mut Probe) {
        let t0 = Instant::now();
        let ok = if shape == 0 {
            let spec = &self.daxpy[input];
            let [x, y] = &self.single_daxpy;
            let args = Args::new()
                .buf_f(x)
                .buf_f(y)
                .scalar_f(spec.scalars.f[0])
                .scalar_i(N as i64);
            x.upload(&spec.bufs_f[0].1).is_ok()
                && y.upload(&spec.bufs_f[1].1).is_ok()
                && self.single.launch(&DaxpyKernel, &daxpy_wd(), &args).is_ok()
                && !y.download().is_empty()
        } else {
            let spec = &self.hist[input];
            let (s, b) = &self.single_hist;
            let args = Args::new()
                .buf_f(s)
                .buf_i(b)
                .scalar_f(0.0)
                .scalar_f(10.0)
                .scalar_i(N as i64)
                .scalar_i(BINS as i64);
            s.upload(&spec.bufs_f[0].1).is_ok()
                && b.upload(&spec.bufs_i[0].1).is_ok()
                && self
                    .single
                    .launch(&HistogramGlobalExact, &hist_wd(), &args)
                    .is_ok()
                && !b.download().is_empty()
        };
        let single = t0.elapsed().as_secs_f64();
        if ok {
            p.sample("pool.overhead_ratio", self.last_wall / single);
        }
        if shape == 0 {
            replay_front_end(p, &DaxpyKernel, &daxpy_wd());
        } else {
            replay_front_end(p, &HistogramGlobalExact, &hist_wd());
        }
    }
}
