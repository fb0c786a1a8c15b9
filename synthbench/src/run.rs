//! The timed phases: the closed loops of `anneal` and `scan`, and the
//! open loop of `serve`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcs_core::AnalysisParams;
use mcs_model::SystemConfig;
use mcs_opt::{
    JobOutcome, JobRecord, JobSpec, Observer, SearchEvent, Synthesis, SynthesisReport,
    SynthesisService,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calib::Calibrator;
use crate::pool::{job_at, Job, Pool, Workload};
use crate::trace::{mean, ms_between, ms_since, now, quantile, Tracer};

/// What the correctness gate compares: (schedulable, `schedule_cost`,
/// `total_buffers`, evaluations).
pub type Outcome = (bool, i128, u64, u64);

/// One finished (or failed) job.
#[derive(Debug)]
pub struct Done {
    pub job: Job,
    /// When the job started (closed loop) or was due (open loop).
    pub at: Instant,
    /// `None` when the job did not complete.
    pub outcome: Option<Outcome>,
    pub config: Option<SystemConfig>,
    /// The user-visible latency: run wall time (closed loop) or due time
    /// to record arrival (open loop).
    pub latency_ms: f64,
    /// Time to the first schedulable incumbent; `None` if none was found.
    pub first_sched_ms: Option<f64>,
    /// Evaluations at the first schedulable incumbent.
    pub evals_to_sched: Option<u64>,
    /// Wall time of the synthesis run itself.
    pub exec_ms: f64,
    pub events: EventTally,
}

/// Deterministic per-job event counts.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventTally {
    pub evaluated: u64,
    pub accepted: u64,
    pub infeasible: u64,
}

fn outcome_of(report: &SynthesisReport) -> Outcome {
    (
        report.best.is_schedulable(),
        report.best.schedule_cost(),
        report.best.total_buffers,
        report.evaluations,
    )
}

fn evals_to_sched(report: &SynthesisReport) -> Option<u64> {
    report
        .trajectory
        .iter()
        .find(|p| p.summary.is_schedulable())
        .map(|p| p.evaluations)
}

/// The benchmark's observer: the first schedulable incumbent's time, the
/// event tally and, when traced, the gaps between analysis steps.
struct JobObserver<'t> {
    first_sched: Option<Instant>,
    tally: EventTally,
    steps_us: Option<&'t mut Vec<f64>>,
    last_step: Option<Instant>,
}

impl JobObserver<'_> {
    fn step(&mut self) {
        if let Some(steps) = self.steps_us.as_deref_mut() {
            let t = now();
            if let Some(last) = self.last_step {
                steps.push(ms_between(last, t) * 1e3);
            }
            self.last_step = Some(t);
        }
    }
}

impl Observer for JobObserver<'_> {
    fn on_event(&mut self, event: &SearchEvent) {
        match event {
            SearchEvent::Evaluated { accepted, .. } => {
                self.tally.evaluated += 1;
                self.tally.accepted += u64::from(*accepted);
                self.step();
            }
            SearchEvent::Infeasible { .. } => {
                self.tally.infeasible += 1;
                self.step();
            }
            SearchEvent::NewIncumbent { summary, .. }
                if self.first_sched.is_none() && summary.is_schedulable() =>
            {
                self.first_sched = Some(now());
            }
            _ => {}
        }
    }
}

/// The result of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub done: Vec<Done>,
    pub wall_s: f64,
    /// Gaps between consecutive analysis steps (traced closed loops).
    pub steps_us: Vec<f64>,
    pub serve: Option<ServeStats>,
}

impl Phase {
    /// Appends `other`, a later phase of the same kind: jobs and samples
    /// are pooled, wall times add up.
    pub fn absorb(&mut self, other: Phase) {
        self.done.extend(other.done);
        self.wall_s += other.wall_s;
        self.steps_us.extend(other.steps_us);
        self.serve = match (self.serve.take(), other.serve) {
            (Some(mut a), Some(b)) => {
                a.absorb(b);
                Some(a)
            }
            (a, b) => a.or(b),
        };
    }
}

/// Runs one closed-loop job: a `Synthesis::run` on the calling thread.
pub fn run_closed_job(
    job: Job,
    pool: &Pool,
    params: AnalysisParams,
    steps_us: Option<&mut Vec<f64>>,
) -> Done {
    let system = &pool.systems[job.instance];
    let strategy = job.kind.strategy(job.instance);
    let mut observer = JobObserver {
        first_sched: None,
        tally: EventTally::default(),
        steps_us,
        last_step: None,
    };
    let start = now();
    let report = Synthesis::builder(system)
        .analysis(params)
        .strategy(strategy)
        .budget(job.kind.budget())
        .observer(&mut observer)
        .run();
    let end = now();
    Done {
        job,
        at: start,
        outcome: report.as_ref().ok().map(outcome_of),
        config: report.as_ref().ok().map(|r| r.best.config.clone()),
        latency_ms: ms_between(start, end),
        first_sched_ms: observer.first_sched.map(|t| ms_between(start, t)),
        evals_to_sched: report.as_ref().ok().and_then(evals_to_sched),
        exec_ms: ms_between(start, end),
        events: observer.tally,
    }
}

/// Runs closed-loop jobs back to back for `seconds`, starting at job
/// `first`; `traced` adds the observer's step timing. With a calibrator, a
/// calibration chunk follows each job, and the phase's wall time leaves
/// the chunks out.
pub fn closed_loop(
    workload: Workload,
    pool: &Pool,
    params: AnalysisParams,
    seconds: f64,
    first: usize,
    traced: bool,
    mut calibrator: Option<&mut Calibrator>,
) -> Phase {
    let mut phase = Phase::default();
    let mut steps = Vec::new();
    let mut calibration_ms = 0.0;
    let t0 = now();
    let mut k = first;
    while ms_since(t0) - calibration_ms < seconds * 1e3 {
        let job = job_at(workload, pool, k);
        let steps_us = traced.then_some(&mut steps);
        phase.done.push(run_closed_job(job, pool, params, steps_us));
        if let Some(c) = calibrator.as_deref_mut() {
            calibration_ms += c.chunk();
        }
        k += 1;
    }
    phase.wall_s = (ms_since(t0) - calibration_ms) / 1e3;
    phase.steps_us = steps;
    phase
}

/// Open-loop settings.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoop {
    /// Arrivals per second.
    pub rate: f64,
    pub workers: usize,
    pub seed: u64,
    /// Index of the first job submitted.
    pub first: usize,
}

/// Service-side observations of the open loop; the time `submit` blocks
/// is a span (`serve.submit`).
#[derive(Debug, Default)]
pub struct ServeStats {
    pub gen_lag_ms: Vec<f64>,
    pub wait_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub pending: Vec<f64>,
    pub running: Vec<f64>,
    pub attempts: Vec<f64>,
    /// Jobs submitted but not yet returned when the last job was submitted.
    pub backlog_final: usize,
    /// False when the backlog grew: the rate exceeded capacity.
    pub valid: bool,
}

impl ServeStats {
    fn absorb(&mut self, other: ServeStats) {
        self.gen_lag_ms.extend(other.gen_lag_ms);
        self.wait_ms.extend(other.wait_ms);
        self.exec_ms.extend(other.exec_ms);
        self.pending.extend(other.pending);
        self.running.extend(other.running);
        self.attempts.extend(other.attempts);
        self.backlog_final = self.backlog_final.max(other.backlog_final);
        self.valid &= other.valid;
    }
}

/// Per-attempt deadline and submit timeout: generous, so that no job of a
/// run under capacity times out.
const SERVE_DEADLINE: Duration = Duration::from_secs(60);

/// A submitted job awaiting its record: the job, its due time and the
/// time its submission started.
type Sent = (Job, Instant, Instant);

/// Turns the record of a submitted job into a `Done` as soon as it
/// arrives, so that no report outlives its record.
fn receive(
    record: JobRecord,
    at: Instant,
    sent: &mut BTreeMap<u64, Sent>,
    stats: &mut ServeStats,
    done: &mut Vec<Done>,
) {
    let Some((job, due, submitted)) = sent.remove(&record.tag) else {
        return;
    };
    let exec_ms = record.elapsed_micros as f64 / 1e3;
    let latency_ms = ms_between(due, at);
    stats.exec_ms.push(exec_ms);
    stats
        .wait_ms
        .push((ms_between(submitted, at) - exec_ms).max(0.0));
    stats.attempts.push(f64::from(record.attempts));
    let (outcome, config, evals_to_sched) = match &record.outcome {
        JobOutcome::Completed(report) => (
            Some(outcome_of(report)),
            Some(report.best.config.clone()),
            evals_to_sched(report),
        ),
        _ => (None, None, None),
    };
    done.push(Done {
        job,
        at: due,
        first_sched_ms: outcome.filter(|o| o.0).map(|_| latency_ms),
        outcome,
        config,
        latency_ms,
        evals_to_sched,
        exec_ms,
        events: EventTally::default(),
    });
}

/// Submits jobs on a fixed-rate schedule for `seconds`, starting at job
/// `settings.first`, collecting records while waiting for each due time,
/// then drains the rest. With a calibrator, a calibration chunk runs
/// whenever no job is out and the next is due later than twice the last
/// chunk's time, so that no chunk overlaps a job or delays a submission.
pub fn open_loop(
    pool: &Pool,
    service: &SynthesisService,
    params: AnalysisParams,
    seconds: f64,
    settings: OpenLoop,
    tracer: &mut Tracer,
    mut calibrator: Option<&mut Calibrator>,
) -> Phase {
    let mut rng =
        StdRng::seed_from_u64(settings.seed ^ 0x5eed_0003 ^ ((settings.first as u64) << 32));
    let jobs = (seconds * settings.rate).floor().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / settings.rate);
    let mut stats = ServeStats {
        valid: true,
        ..ServeStats::default()
    };
    // Jobs submitted whose records have not arrived, by tag.
    let mut sent: BTreeMap<u64, Sent> = BTreeMap::new();
    let mut done: Vec<Done> = Vec::with_capacity(jobs);
    let mut backlog = Vec::with_capacity(jobs);

    let t0 = now();
    let mut last = t0;
    for i in 0..jobs {
        let due = t0 + interval * i as u32;
        loop {
            let t = now();
            if t >= due {
                break;
            }
            if let Some(c) = calibrator.as_deref_mut() {
                if sent.is_empty() && ms_between(t, due) > 2.0 * c.last_ms() {
                    c.chunk();
                    continue;
                }
            }
            if let Some(record) = service.next_record(due - t) {
                last = now();
                receive(record, last, &mut sent, &mut stats, &mut done);
            }
        }
        let submit_start = now();
        stats.gen_lag_ms.push(ms_between(due, submit_start));
        let index = settings.first + i;
        let job = job_at(Workload::Serve, pool, index);
        let priority = rng.gen_range(0..4u8);
        let spec = JobSpec::new(
            job.key(),
            Arc::clone(&pool.systems[job.instance]),
            params,
            job.kind.strategy(job.instance),
        )
        .labelled(job.kind.label())
        .budget(job.kind.budget())
        .deadline(SERVE_DEADLINE)
        .priority(priority)
        .tag(index as u64);
        let submitted = service.submit(spec, SERVE_DEADLINE);
        tracer.record("serve.submit", index as u64, submit_start, now());
        match submitted {
            Ok(_) => {
                sent.insert(index as u64, (job, due, submit_start));
            }
            Err(_) => done.push(failed_job(job, due)),
        }
        stats.pending.push(service.pending() as f64);
        stats.running.push(service.running() as f64);
        backlog.push(sent.len() as f64);
    }
    // The backlog grew when its mean over the last tenth of the run exceeds
    // the first half's peak by more than one job per worker.
    let first_half_peak = quantile(&backlog[..jobs / 2], 1.0);
    let last_tenth = mean(&backlog[jobs - jobs.div_ceil(10)..]);
    stats.valid = last_tenth <= first_half_peak + settings.workers as f64;
    stats.backlog_final = sent.len();

    let drain_deadline = now() + SERVE_DEADLINE;
    while !sent.is_empty() {
        let t = now();
        if t >= drain_deadline {
            break;
        }
        match service.next_record(drain_deadline - t) {
            Some(record) => {
                last = now();
                receive(record, last, &mut sent, &mut stats, &mut done);
            }
            None => break,
        }
    }
    // Jobs that never came back count as failed.
    done.extend(sent.into_values().map(|(job, due, _)| failed_job(job, due)));
    Phase {
        done,
        // The timed phase ends when the last record arrives.
        wall_s: ms_between(t0, last) / 1e3,
        steps_us: Vec::new(),
        serve: Some(stats),
    }
}

fn failed_job(job: Job, due: Instant) -> Done {
    Done {
        job,
        at: due,
        outcome: None,
        config: None,
        latency_ms: f64::INFINITY,
        first_sched_ms: None,
        evals_to_sched: None,
        exec_ms: 0.0,
        events: EventTally::default(),
    }
}
