//! The host-speed reference of the end-to-end metrics.
//!
//! The shared hosts this benchmark runs on change speed by 20% within
//! seconds and by up to 2× for minutes at a time when their neighbours are
//! busy; the process's CPU time slows with its wall time, so the lost
//! speed is not stolen time but slower instructions. Every wall-time figure
//! of a run moves with it. An untraced run therefore interleaves short
//! chunks of a fixed computation of the benchmark's own with its work: one
//! after every set-up and every closed-loop job, on the main thread, and in
//! the open loop whenever no job is out, on as many threads as there are
//! service workers, since its jobs run on either CPU. Each job's durations
//! are scaled by the speed of the chunks nearest to it, relative to the
//! reference host's. The computation, list scheduling of a seeded task
//! graph onto a few resources, uses no code of the repository, so a change
//! to the program does not move it; it does use the standard library's
//! collections and the global allocator. Bursts timed only between slices
//! tracked the host poorly, and chunks on two threads at once
//! over-corrected `scan`, whose batches keep the second thread busy only
//! part of the time.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::trace::{ms_since, now};

/// Wall time of one chunk on the reference host (2-vCPU Intel Xeon,
/// rustc 1.95.0, release build) when the constant was set, so that there
/// scaled figures read close to measured ones.
const REFERENCE_CHUNK_MS: f64 = 3.0;

/// Rounds of one chunk; each round schedules the graph once.
const ROUNDS: usize = 5;
const TASKS: usize = 2048;
const RESOURCES: u64 = 8;
const MAX_FANOUT: u64 = 4;

fn next(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// The task graph: successor lists, execution times, priorities and
/// resources, drawn once from a fixed seed.
#[derive(Debug)]
struct Kernel {
    /// Successors of task `i`: `succ[succ_start[i]..succ_start[i + 1]]`.
    succ_start: Vec<usize>,
    succ: Vec<u32>,
    in_degree: Vec<u32>,
    wcet: Vec<u64>,
    priority: Vec<u32>,
    resource: Vec<u8>,
}

impl Kernel {
    fn new(seed: u64) -> Self {
        let mut s = seed | 1;
        let mut succ_start = Vec::with_capacity(TASKS + 1);
        let mut succ = Vec::new();
        let mut in_degree = vec![0u32; TASKS];
        for i in 0..TASKS {
            succ_start.push(succ.len());
            for _ in 0..next(&mut s) % MAX_FANOUT {
                let j = i + 1 + (next(&mut s) % 64) as usize;
                if j < TASKS {
                    succ.push(j as u32);
                    in_degree[j] += 1;
                }
            }
        }
        succ_start.push(succ.len());
        Kernel {
            succ_start,
            succ,
            in_degree,
            wcet: (0..TASKS).map(|_| 1 + next(&mut s) % 100).collect(),
            priority: (0..TASKS).map(|_| (next(&mut s) % 1000) as u32).collect(),
            resource: (0..TASKS)
                .map(|_| (next(&mut s) % RESOURCES) as u8)
                .collect(),
        }
    }

    /// One round: a list schedule built with the standard ordered and
    /// hashed maps and fresh allocations, the mix of code the analysis
    /// engine runs. (A tight loop over preallocated arrays tracked the
    /// workloads' slowdowns poorly.) Returns a checksum that is the same
    /// for every round.
    fn round(&self) -> u64 {
        let mut pending = self.in_degree.clone();
        let mut ready_at: HashMap<u32, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut ready = BTreeMap::new();
        for (i, &d) in pending.iter().enumerate() {
            if d == 0 {
                ready.insert((u32::MAX - self.priority[i], i as u32), ());
            }
        }
        let mut free_at: BTreeMap<u8, u64> = BTreeMap::new();
        let mut finished: Vec<(u64, u32)> = Vec::new();
        while let Some(((_, i), ())) = ready.pop_first() {
            let t = i as usize;
            let r = self.resource[t];
            let start = free_at.get(&r).copied().unwrap_or(0);
            let finish = start.max(ready_at.get(&i).copied().unwrap_or(0)) + self.wcet[t];
            free_at.insert(r, finish);
            finished.push((finish, i));
            for &j in &self.succ[self.succ_start[t]..self.succ_start[t + 1]] {
                let at = ready_at.entry(j).or_insert(0);
                *at = (*at).max(finish);
                pending[j as usize] -= 1;
                if pending[j as usize] == 0 {
                    ready.insert((u32::MAX - self.priority[j as usize], j), ());
                }
            }
        }
        finished.sort_unstable();
        finished
            .iter()
            .fold(0u64, |h, &(f, i)| h.rotate_left(5) ^ f ^ u64::from(i))
    }

    /// A chunk: `ROUNDS` rounds; `false` if any round's checksum differs
    /// from the first.
    fn rounds(&self) -> bool {
        let first = self.round();
        (1..ROUNDS).all(|_| std::hint::black_box(self.round()) == first)
    }
}

/// One timed chunk: when it started and its wall time in milliseconds.
pub type Sample = (Instant, f64);

/// Times chunks of the reference computation.
#[derive(Debug)]
pub struct Calibrator {
    kernel: Kernel,
    threads: usize,
    /// Chunks since the last [`Calibrator::take_samples`], in time order.
    samples: Vec<Sample>,
    /// False once a round's checksum differed: the computation is broken.
    pub consistent: bool,
}

impl Calibrator {
    /// A calibrator that runs each chunk on `threads >= 1` threads at once.
    pub fn new(threads: usize) -> Self {
        Calibrator {
            kernel: Kernel::new(0x9e37_79b9_7f4a_7c15),
            threads: threads.max(1),
            samples: Vec::new(),
            consistent: true,
        }
    }

    /// Runs and records one chunk: the same rounds on every thread at
    /// once, each timed on its own thread. Returns the chunk's time, the
    /// mean of the threads' times, in milliseconds.
    pub fn chunk(&mut self) -> f64 {
        let start = now();
        let kernel = &self.kernel;
        let timed = || {
            let t = now();
            let ok = kernel.rounds();
            (ok, ms_since(t))
        };
        let runs: Vec<(bool, f64)> = std::thread::scope(|scope| {
            let others: Vec<_> = (1..self.threads).map(|_| scope.spawn(timed)).collect();
            let mut runs = vec![timed()];
            runs.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("a calibration thread panicked")),
            );
            runs
        });
        self.consistent &= runs.iter().all(|r| r.0);
        let ms = runs.iter().map(|r| r.1).sum::<f64>() / runs.len() as f64;
        self.samples.push((start, ms));
        ms
    }

    /// The last chunk's wall time in milliseconds (the reference host's
    /// before the first).
    pub fn last_ms(&self) -> f64 {
        self.samples.last().map_or(REFERENCE_CHUNK_MS, |s| s.1)
    }

    /// The chunks since the last call, in time order, and a fresh start.
    pub fn take_samples(&mut self) -> Vec<Sample> {
        std::mem::take(&mut self.samples)
    }
}

/// The host's speed relative to the reference host over `samples` (`1`
/// if there are none): the reference chunk time over their mean.
pub fn speed(samples: &[Sample]) -> f64 {
    let total: f64 = samples.iter().map(|s| s.1).sum();
    if total > 0.0 {
        REFERENCE_CHUNK_MS * samples.len() as f64 / total
    } else {
        1.0
    }
}

/// Chunks around an instant that give its local speed.
const LOCAL_CHUNKS: usize = 8;

/// The host's speed around `at`, over the `LOCAL_CHUNKS` chunks of
/// `samples` (in time order) nearest to it by position.
pub fn local_speed(samples: &[Sample], at: Instant) -> f64 {
    let pos = samples.partition_point(|s| s.0 < at);
    let from = pos
        .saturating_sub(LOCAL_CHUNKS / 2)
        .min(samples.len().saturating_sub(LOCAL_CHUNKS));
    speed(&samples[from..(from + LOCAL_CHUNKS).min(samples.len())])
}
