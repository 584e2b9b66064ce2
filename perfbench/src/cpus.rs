//! Moving the closed loop's thread across the host's CPUs.
//!
//! On a shared host one CPU can run much slower than the other for minutes
//! (another tenant busy on the same core), and a single-threaded run stays
//! on whichever CPU the scheduler picked first: back-to-back runs of
//! `launch_small` then read 0.39 or 0.67 ms, nothing in between. Moving the
//! thread to the next allowed CPU every quarter second lets every run see
//! every CPU, and the low percentile the gated metrics use then comes from
//! the fastest one, whichever it is.

use std::time::{Duration, Instant};

const PERIOD: Duration = Duration::from_millis(250);

/// A CPU mask as `sched_getaffinity` and `sched_setaffinity` take it
/// (1024 CPUs, like glibc's `cpu_set_t`).
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get_mask() -> Option<Mask> {
    let mut mask: Mask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set_mask(mask: &Mask) -> bool {
    // SAFETY: `mask` is a live buffer of exactly the size passed and is
    // only read; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get_mask() -> Option<Mask> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set_mask(_: &Mask) -> bool {
    false
}

/// The CPUs set in `mask`, in ascending order.
fn cpus_of(mask: &Mask) -> Vec<usize> {
    (0..mask.len() * 64)
        .filter(|c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins the calling thread to one allowed CPU after another; dropping it
/// restores the thread's original mask.
pub struct Rotation {
    original: Option<Mask>,
    cpus: Vec<usize>,
    next: usize,
    since: Instant,
    current: Option<usize>,
}

impl Rotation {
    /// A rotation over the calling thread's allowed CPUs, or an inert one
    /// when `enabled` is false, the mask cannot be read, or only one CPU
    /// is allowed.
    pub fn new(enabled: bool) -> Rotation {
        let original = if enabled { get_mask() } else { None };
        let cpus = original.as_ref().map(cpus_of).unwrap_or_default();
        let mut r = Rotation {
            original: original.filter(|_| cpus.len() > 1),
            cpus,
            next: 0,
            since: Instant::now(),
            current: None,
        };
        r.advance();
        r
    }

    pub fn active(&self) -> bool {
        self.original.is_some()
    }

    /// The CPU the thread is pinned to, if any.
    pub fn current(&self) -> Option<usize> {
        self.current.filter(|_| self.active())
    }

    /// Move to the next CPU if the current one has had its period.
    pub fn tick(&mut self) {
        if self.active() && self.since.elapsed() >= PERIOD {
            self.advance();
        }
    }

    /// Move to the next CPU now.
    pub fn advance(&mut self) {
        if !self.active() {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        if !set_mask(&mask) {
            // Not allowed to pin: fall back to the scheduler's placement.
            self.restore();
        }
        self.current = Some(cpu);
        self.next += 1;
        self.since = Instant::now();
    }

    fn restore(&mut self) {
        if let Some(m) = self.original.take() {
            set_mask(&m);
        }
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        self.restore();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_bits_map_to_cpu_numbers() {
        let mut m: Mask = [0; 16];
        m[0] = 0b101;
        m[1] = 1;
        assert_eq!(cpus_of(&m), vec![0, 2, 64]);
    }

    #[test]
    fn rotation_restores_the_original_mask() {
        let before = get_mask();
        {
            let mut r = Rotation::new(true);
            r.advance();
            r.advance();
        }
        assert_eq!(get_mask(), before);
    }
}
