//! End-to-end synthesis benchmark.
//!
//! ```text
//! synthbench --workload anneal|scan|serve --seed N --seconds S --trace 0|1
//! synthbench --workload W --seed N --write-expected
//! ```
//!
//! Untraced runs print the end-to-end metrics, traced runs the per-layer
//! ones; the last line of standard output is the JSON result. The exit
//! code is nonzero when the correctness gate fails. See `README.md` for
//! the workloads, the metric map and the layer-separation check.

mod calib;
mod gate;
mod pool;
mod probe;
mod run;
mod trace;

use std::process::ExitCode;

use mcs_bench::seed_baseline::seed_evaluate;
use mcs_core::{AnalysisParams, Evaluator};
use mcs_gen::{generate, GeneratorParams};
use mcs_opt::{ServiceConfig, Sf, Synthesis, SynthesisService};

use calib::{local_speed, speed, Calibrator, Sample};
use pool::{all_jobs, build_pool, plain_pool, Pool, Workload};
use run::{closed_loop, open_loop, run_closed_job, Done, OpenLoop, Phase};
use trace::{mean, median, ms_since, now, quantile, Tracer};

/// An untraced run measures in `SLICES` slices and reports the median
/// slice, so that a few seconds of host interference move no figure.
const SLICES: usize = 5;
/// Set-ups timed before each slice, which runs on the last of them;
/// `setup_s` is the median of all, so they sample the whole run as the
/// slices do. A set-up is scaled by the host speed of its slice.
const SETUP_REPS_PER_SLICE: usize = 4;
/// Arrivals per second of the `serve` open loop.
const SERVE_RATE: f64 = 50.0;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut write_expected = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-expected" => write_expected = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = match (seconds, write_expected) {
        (Some(s), _) if s > 0.0 => s,
        (None, true) => 0.0,
        _ => return Err("--seconds must be positive".to_string()),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        write_expected,
    })
}

/// Thread counts of a run.
#[derive(Clone, Copy, Debug)]
struct Threads {
    nproc: usize,
    rayon: usize,
    workers: usize,
}

/// Sets the rayon thread count (unless the caller's `RAYON_NUM_THREADS`
/// overrides it) before any thread exists: 2 for the `scan` batches, 1
/// elsewhere (`anneal` never batches; `serve` parallelises across jobs).
fn threads(workload: Workload) -> Threads {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let external = std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0);
    let rayon = external.unwrap_or(match workload {
        Workload::Scan => 2,
        _ => 1,
    });
    std::env::set_var("RAYON_NUM_THREADS", rayon.to_string());
    let workers = if workload == Workload::Serve {
        nproc
    } else {
        0
    };
    Threads {
        nproc,
        rayon,
        workers,
    }
}

/// The workload's state after set-up.
struct Setup {
    pool: Pool,
    service: Option<SynthesisService>,
}

impl Setup {
    fn shut_down(self) {
        if let Some(service) = self.service {
            service.shutdown();
        }
    }
}

/// What every set-up and phase of a run shares.
#[derive(Clone, Copy, Debug)]
struct Bench {
    workload: Workload,
    seed: u64,
    params: AnalysisParams,
    threads: Threads,
}

impl Bench {
    /// One set-up: instance generation, warm-up (a context build and the
    /// SF analysis of every instance) and service start. Returns it with
    /// its duration in seconds; `rep` numbers its spans.
    fn set_up(&self, tracer: &mut Tracer, rep: u64) -> (Setup, f64) {
        let start = now();
        let pool = build_pool(self.workload, self.seed, |p| {
            tracer.time("gen.generate", rep, || generate(p))
        });
        for system in &pool.systems {
            tracer.time("core.context", rep, || {
                std::hint::black_box(Evaluator::new(system, self.params));
            });
            Synthesis::builder(system)
                .analysis(self.params)
                .strategy(Sf)
                .run()
                .expect("pool instances analyze under SF");
        }
        let service = (self.workload == Workload::Serve).then(|| {
            SynthesisService::start(ServiceConfig {
                workers: self.threads.workers,
                queue_capacity: 64,
                preemption: false,
                ..ServiceConfig::default()
            })
        });
        let seconds = ms_since(start) / 1e3;
        (Setup { pool, service }, seconds)
    }

    /// `n >= 1` set-ups in a row, each timed into `times` and each
    /// replacing the one before (starting with `previous`), with a
    /// calibration chunk after each; returns the last. Only one set-up is
    /// alive at a time.
    fn set_ups(
        &self,
        n: usize,
        previous: Option<Setup>,
        tracer: &mut Tracer,
        times: &mut Vec<f64>,
        mut calibrator: Option<&mut Calibrator>,
    ) -> Setup {
        let mut current = previous;
        for _ in 0..n {
            if let Some(old) = current.take() {
                old.shut_down();
            }
            let (setup, seconds) = self.set_up(tracer, times.len() as u64);
            times.push(seconds);
            if let Some(c) = calibrator.as_deref_mut() {
                c.chunk();
            }
            current = Some(setup);
        }
        current.expect("at least one set-up")
    }

    /// One timed phase from job `first` on; only a traced phase records
    /// into `tracer`, and only an untraced one interleaves calibration
    /// chunks.
    fn phase(
        &self,
        setup: &Setup,
        seconds: f64,
        first: usize,
        traced: bool,
        tracer: &mut Tracer,
        calibrator: Option<&mut Calibrator>,
    ) -> Phase {
        let mut quiet = Tracer::new(false);
        match &setup.service {
            Some(service) => open_loop(
                &setup.pool,
                service,
                self.params,
                seconds,
                OpenLoop {
                    rate: SERVE_RATE,
                    workers: self.threads.workers,
                    seed: self.seed,
                    first,
                },
                if traced { tracer } else { &mut quiet },
                calibrator,
            ),
            None => closed_loop(
                self.workload,
                &setup.pool,
                self.params,
                seconds,
                first,
                traced,
                calibrator,
            ),
        }
    }
}

/// The frozen seed oracle's analyses per second on one fixed 160-process
/// instance: the in-run baseline that lets ratios carry across hosts.
fn seed_oracle_rate(params: AnalysisParams) -> f64 {
    let system = generate(&GeneratorParams::paper_sized(4, 7));
    let config = probe::sf_evaluation(&system, params).config;
    let start = now();
    let mut n = 0u32;
    while n < 5 || ms_since(start) < 500.0 {
        seed_evaluate(&system, config.clone(), &params).expect("the SF configuration analyzes");
        n += 1;
    }
    f64::from(n) / (ms_since(start) / 1e3)
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A number as JSON; `null` when not finite.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// A metric: name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

/// Completed jobs' evaluations.
fn evaluations(done: &[&Done]) -> u64 {
    done.iter().filter_map(|d| d.outcome).map(|o| o.3).sum()
}

/// Completed jobs' evaluations over the phase's wall time.
fn evals_per_s(phase: &Phase) -> f64 {
    let done: Vec<&Done> = phase.done.iter().collect();
    evaluations(&done) as f64 / phase.wall_s.max(f64::MIN_POSITIVE)
}

/// The end-to-end figures measured per slice.
const SLICE_METRICS: [(&str, &str); 6] = [
    ("jobs_per_s", "1/s"),
    ("evals_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("first_sched_p50_ms", "ms"),
];

/// The figures of `done`, jobs run in `wall_s` seconds, in
/// `SLICE_METRICS` order. Each job comes with the factor its durations are
/// scaled by; `wall_s` is scaled already.
fn figures(done: &[(&Done, f64)], wall_s: f64) -> [f64; 6] {
    let wall_s = wall_s.max(f64::MIN_POSITIVE);
    let latency: Vec<f64> = done
        .iter()
        .map(|(d, scale)| {
            if d.outcome.is_some() {
                d.latency_ms * scale
            } else {
                f64::INFINITY
            }
        })
        .collect();
    let first_sched: Vec<f64> = done
        .iter()
        .map(|(d, scale)| d.first_sched_ms.map_or(f64::INFINITY, |ms| ms * scale))
        .collect();
    let completed = done.iter().filter(|(d, _)| d.outcome.is_some()).count();
    let jobs: Vec<&Done> = done.iter().map(|(d, _)| *d).collect();
    [
        completed as f64 / wall_s,
        evaluations(&jobs) as f64 / wall_s,
        quantile(&latency, 0.5),
        quantile(&latency, 0.9),
        quantile(&latency, 0.99),
        quantile(&first_sched, 0.5),
    ]
}

/// A phase's wall time scaled by `scale`; an open loop's is not, since its
/// arrival rate, not the host, fixes its throughput.
fn scaled_wall_s(phase: &Phase, scale: f64) -> f64 {
    if phase.serve.is_some() {
        phase.wall_s
    } else {
        phase.wall_s * scale
    }
}

fn json_figures(figures: &[f64; 6]) -> String {
    let listed: Vec<String> = SLICE_METRICS
        .iter()
        .zip(figures)
        .map(|((name, _), v)| format!("{}: {}", json_str(name), json_num(*v)))
        .collect();
    format!("{{{}}}", listed.join(", "))
}

/// The end-to-end metrics, scaled to the reference host's speed: each
/// job's durations by the speed of the calibration chunks nearest to it,
/// and each slice's wall time and set-ups by the speed of all its chunks
/// (`chunks`, one list per slice). Reports the median slice's figures (but
/// `job_p99_ms` of the whole run, as a slice holds too few jobs for it),
/// the median set-up, the fail ratio and the peak memory. Prints every
/// slice's figures, and the whole run's scaled and unscaled, first.
fn end_to_end(
    setup_s: &[f64],
    slices: &[Phase],
    chunks: &[Vec<Sample>],
    failed: usize,
) -> Vec<Metric> {
    let speeds: Vec<f64> = chunks.iter().map(|c| speed(c)).collect();
    let scaled: Vec<Vec<(&Done, f64)>> = slices
        .iter()
        .zip(chunks)
        .map(|(p, c)| p.done.iter().map(|d| (d, local_speed(c, d.at))).collect())
        .collect();
    let per_slice: Vec<[f64; 6]> = slices
        .iter()
        .zip(&scaled)
        .zip(&speeds)
        .map(|((p, done), &speed)| figures(done, scaled_wall_s(p, speed)))
        .collect();
    let whole = figures(
        &scaled.concat(),
        slices
            .iter()
            .zip(&speeds)
            .map(|(p, &s)| scaled_wall_s(p, s))
            .sum(),
    );
    let unscaled = figures(
        &slices
            .iter()
            .flat_map(|p| p.done.iter().map(|d| (d, 1.0)))
            .collect::<Vec<_>>(),
        slices.iter().map(|p| p.wall_s).sum(),
    );
    let column = |i: usize| -> Vec<f64> { per_slice.iter().map(|f| f[i]).collect() };
    let listed: Vec<String> = SLICE_METRICS
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<String> = column(i).into_iter().map(json_num).collect();
            format!("{}: [{}]", json_str(name), values.join(", "))
        })
        .collect();
    let speeds_listed: Vec<String> = speeds.iter().map(|&v| json_num(v)).collect();
    println!(
        "{{\"slices\": {{{}}}, \"speed\": [{}], \"whole_run\": {}, \"whole_run_unscaled\": {}}}",
        listed.join(", "),
        speeds_listed.join(", "),
        json_figures(&whole),
        json_figures(&unscaled)
    );
    let setups: Vec<f64> = setup_s
        .iter()
        .enumerate()
        .map(|(k, s)| s * speeds[k / SETUP_REPS_PER_SLICE])
        .collect();
    let attempted: usize = slices.iter().map(|p| p.done.len()).sum();
    let mut out = vec![metric("setup_s", median(&setups), "s")];
    for (i, (name, unit)) in SLICE_METRICS.iter().enumerate() {
        let value = if *name == "job_p99_ms" {
            whole[i]
        } else {
            median(&column(i))
        };
        out.push(metric(*name, value, unit));
    }
    out.extend([
        metric(
            "ok_ratio",
            1.0 - failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]);
    out
}

/// Which end-to-end metric (on which workload) each per-layer metric
/// should move.
const LAYER_MAP: &[(&str, &str)] = &[
    ("gen.", "setup_s on anneal, scan, serve"),
    (
        "core.context",
        "setup_s on anneal, scan, serve; job_p50_ms on serve",
    ),
    ("core.evaluate", "job_p50_ms on serve; evals_per_s on scan"),
    (
        "core.delta",
        "evals_per_s and job_p50_ms on anneal; no change on serve",
    ),
    (
        "core.batch",
        "evals_per_s and job_p90_ms on scan; no change on anneal",
    ),
    ("opt.evals_to_sched", "first_sched_p50_ms on scan"),
    ("opt.", "job_p50_ms on anneal, scan, serve"),
    ("serve.", "job_p99_ms on serve; no change on anneal, scan"),
    ("trace.", "none: tracing cost, traced over untraced"),
    ("baseline.", "none: host speed reference"),
];

fn moves(name: &str) -> &'static str {
    LAYER_MAP
        .iter()
        .find(|(prefix, _)| name.starts_with(prefix))
        .map_or("none", |(_, m)| m)
}

fn per_layer(
    tracer: &Tracer,
    probes: &probe::Probes,
    untraced: &Phase,
    traced: &Phase,
    baseline: f64,
) -> Vec<Metric> {
    // Generation time of a whole set-up; the span's request is the set-up.
    let generate_ms = {
        let mut totals = Vec::new();
        for span in tracer.spans().iter().filter(|s| s.name == "gen.generate") {
            let rep = span.request as usize;
            if totals.len() <= rep {
                totals.resize(rep + 1, 0.0);
            }
            totals[rep] += span.ms;
        }
        median(&totals)
    };
    let context_us: Vec<f64> = tracer
        .durations_ms("core.context")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let completed: Vec<&Done> = traced.done.iter().filter(|d| d.outcome.is_some()).collect();
    let exec_of = |label: &str| {
        let v: Vec<f64> = completed
            .iter()
            .filter(|d| d.job.kind.label() == label)
            .map(|d| d.exec_ms)
            .collect();
        median(&v)
    };
    let (evaluated, accepted, infeasible) = completed.iter().fold((0, 0, 0), |acc, d| {
        (
            acc.0 + d.events.evaluated,
            acc.1 + d.events.accepted,
            acc.2 + d.events.infeasible,
        )
    });
    let evals: Vec<f64> = completed
        .iter()
        .map(|d| d.outcome.map_or(0.0, |o| o.3 as f64))
        .collect();
    let to_sched: Vec<f64> = completed
        .iter()
        .filter_map(|d| d.evals_to_sched)
        .map(|e| e as f64)
        .collect();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let us = |name: &str| -> Vec<f64> {
        tracer
            .durations_ms(name)
            .iter()
            .map(|ms| ms * 1e3)
            .collect()
    };
    let (evaluate_us, delta_us, batch_us) =
        (us("core.evaluate"), us("core.delta"), us("core.batch"));
    let batch_us_p50 = median(&batch_us);
    let lanes = mean(&probes.batch_lanes);
    let mut out = vec![
        metric("gen.generate_ms", generate_ms, "ms"),
        metric("core.context_build_us", median(&context_us), "us"),
        metric("core.evaluate_us_p50", quantile(&evaluate_us, 0.5), "us"),
        metric("core.evaluate_us_p99", quantile(&evaluate_us, 0.99), "us"),
        metric(
            "core.evaluate_err_ratio",
            ratio(probes.evaluate_errors as f64, evaluate_us.len() as f64),
            "ratio",
        ),
        metric("core.delta_us_p50", quantile(&delta_us, 0.5), "us"),
        metric("core.delta_us_p99", quantile(&delta_us, 0.99), "us"),
        metric(
            "core.delta_err_ratio",
            ratio(probes.delta_errors as f64, delta_us.len() as f64),
            "ratio",
        ),
        metric("core.delta_passes", probes.delta_passes as f64, "count"),
        metric("core.full_passes", probes.full_passes as f64, "count"),
        metric("core.batch_us_p50", batch_us_p50, "us"),
        metric("core.batch_lanes_mean", lanes, "count"),
        metric("core.batch_us_per_lane", ratio(batch_us_p50, lanes), "us"),
        metric(
            "core.batch_seq_ratio",
            ratio(batch_us.iter().sum(), us("core.batch_seq").iter().sum()),
            "ratio",
        ),
    ];
    for label in ["SF", "OS", "OR", "SAS", "SAR"] {
        out.push(metric(
            format!("opt.run_ms_p50.{label}"),
            exec_of(label),
            "ms",
        ));
    }
    out.extend([
        metric("opt.step_us_p50", quantile(&traced.steps_us, 0.5), "us"),
        metric("opt.step_us_p99", quantile(&traced.steps_us, 0.99), "us"),
        metric(
            "opt.accept_ratio",
            ratio(accepted as f64, evaluated as f64),
            "ratio",
        ),
        metric(
            "opt.infeasible_ratio",
            ratio(infeasible as f64, (evaluated + infeasible) as f64),
            "ratio",
        ),
        metric("opt.evals_per_job", mean(&evals), "count"),
        metric("opt.evals_to_sched", median(&to_sched), "count"),
        metric("opt.jobs", completed.len() as f64, "count"),
    ]);
    let s = traced.serve.as_ref();
    let pick = |f: &dyn Fn(&run::ServeStats) -> f64| s.map_or(0.0, f);
    out.extend([
        metric("serve.jobs", pick(&|s| s.exec_ms.len() as f64), "count"),
        metric(
            "serve.submit_block_ms_p99",
            quantile(&tracer.durations_ms("serve.submit"), 0.99),
            "ms",
        ),
        metric(
            "serve.wait_ms_p50",
            pick(&|s| quantile(&s.wait_ms, 0.5)),
            "ms",
        ),
        metric(
            "serve.wait_ms_p99",
            pick(&|s| quantile(&s.wait_ms, 0.99)),
            "ms",
        ),
        metric(
            "serve.exec_ms_p50",
            pick(&|s| quantile(&s.exec_ms, 0.5)),
            "ms",
        ),
        metric(
            "serve.pending_max",
            pick(&|s| quantile(&s.pending, 1.0)),
            "count",
        ),
        metric("serve.running_mean", pick(&|s| mean(&s.running)), "count"),
        metric(
            "serve.attempts_per_job",
            pick(&|s| mean(&s.attempts)),
            "count",
        ),
        metric(
            "serve.gen_lag_ms_p99",
            pick(&|s| quantile(&s.gen_lag_ms, 0.99)),
            "ms",
        ),
        metric(
            "serve.backlog_final",
            pick(&|s| s.backlog_final as f64),
            "count",
        ),
    ]);
    // On `serve` the arrival rate fixes evals_per_s, so the tracing cost
    // shows in the median execution time instead.
    let overhead = match (&untraced.serve, s) {
        (Some(u), Some(t)) => ratio(median(&u.exec_ms), median(&t.exec_ms)),
        _ => ratio(evals_per_s(traced), evals_per_s(untraced)),
    };
    out.extend([
        metric("trace.overhead_ratio", overhead, "ratio"),
        metric("baseline.seed_oracle_evals_per_s", baseline, "1/s"),
    ]);
    out
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { -1.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

/// Runs every distinct job of the pool once and prints its expected-table
/// line.
fn write_expected(workload: Workload, seed: u64, params: AnalysisParams) -> ExitCode {
    let pool = plain_pool(workload, seed);
    for job in all_jobs(workload, &pool) {
        let done = run_closed_job(job, &pool, params, None);
        match done.outcome {
            Some(outcome) => println!("{}", gate::format_line(seed, &job.key(), &outcome)),
            None => {
                eprintln!("{}: job failed", job.key());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("synthbench: {e}");
            eprintln!(
                "usage: synthbench --workload anneal|scan|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let threads = threads(args.workload);
    let params = AnalysisParams::default();
    if args.write_expected {
        return write_expected(args.workload, args.seed, params);
    }

    let bench = Bench {
        workload: args.workload,
        seed: args.seed,
        params,
        threads,
    };
    let mut tracer = Tracer::new(args.trace);
    let baseline = seed_oracle_rate(params);
    println!(
        "{{\"host\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rayon_threads\": {}, \"service_workers\": {}, \"rustc\": {}, \"cpu_model\": {}, \"baseline.seed_oracle_evals_per_s\": {baseline}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        threads.nproc,
        threads.rayon,
        threads.workers,
        json_str(env!("SYNTHBENCH_RUSTC")),
        json_str(&cpu_model()),
    );

    let mut setup_times = Vec::new();
    let mut next = 0;
    let mut phase = |setup: &Setup,
                     seconds: f64,
                     traced: bool,
                     tracer: &mut Tracer,
                     calibrator: Option<&mut Calibrator>| {
        let phase = bench.phase(setup, seconds, next, traced, tracer, calibrator);
        next += phase.done.len();
        phase
    };
    let mut calibrator = Calibrator::new(threads.workers);
    let (setup, phases, probes, chunks) = if args.trace {
        let setup = bench.set_ups(
            SLICES * SETUP_REPS_PER_SLICE,
            None,
            &mut tracer,
            &mut setup_times,
            None,
        );
        // Quarters in the order untraced, traced, traced, untraced, so that
        // warm-up and drift fall on both sides of the overhead ratio.
        let quarter = args.seconds / 4.0;
        let mut untraced = phase(&setup, quarter, false, &mut tracer, None);
        let mut traced = phase(&setup, quarter, true, &mut tracer, None);
        traced.absorb(phase(&setup, quarter, true, &mut tracer, None));
        untraced.absorb(phase(&setup, quarter, false, &mut tracer, None));
        let probes = probe::run(args.seed, params, &mut tracer);
        (setup, vec![untraced, traced], Some(probes), Vec::new())
    } else {
        // Each slice runs on the last of the set-ups timed before it; the
        // calibration chunks interleaved with both give their host speeds.
        let mut setup = None;
        let mut slices = Vec::with_capacity(SLICES);
        let mut chunks = Vec::with_capacity(SLICES);
        for _ in 0..SLICES {
            let fresh = bench.set_ups(
                SETUP_REPS_PER_SLICE,
                setup.take(),
                &mut tracer,
                &mut setup_times,
                Some(&mut calibrator),
            );
            slices.push(phase(
                &fresh,
                args.seconds / SLICES as f64,
                false,
                &mut tracer,
                Some(&mut calibrator),
            ));
            chunks.push(calibrator.take_samples());
            setup = Some(fresh);
        }
        let setup = setup.expect("at least one slice");
        (setup, slices, None, chunks)
    };
    let all: Vec<&Done> = phases.iter().flat_map(|p| &p.done).collect();
    let verdict = gate::check(args.workload, args.seed, &setup.pool, &params, &all);
    let serve_valid = phases
        .iter()
        .all(|p| p.serve.as_ref().is_none_or(|s| s.valid));
    let mut problems = verdict.problems.clone();
    if let Some(p) = &probes {
        problems.extend(p.problems.iter().cloned());
    }
    if !calibrator.consistent {
        problems.push("the calibration computation gave different checksums".to_string());
    }
    if !serve_valid {
        problems.push("serve backlog grew: the arrival rate exceeds capacity".to_string());
    }
    println!(
        "{{\"gate\": {{\"keys\": {}, \"expected_checked\": {}, \"failed\": {}, \"serve_valid\": {serve_valid}, \"problems\": [{}]}}}}",
        verdict.keys,
        verdict.expected_checked,
        verdict.failed,
        problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", ")
    );

    let metrics = match (&probes, phases.as_slice()) {
        (Some(probes), [untraced, traced]) => {
            let m = per_layer(&tracer, probes, untraced, traced, baseline);
            let map: Vec<String> = m
                .iter()
                .map(|(name, _, _)| format!("{}: {}", json_str(name), json_str(moves(name))))
                .collect();
            println!("{{\"layer_map\": {{{}}}}}", map.join(", "));
            m
        }
        (Some(_), _) => unreachable!("a traced run has two phases"),
        (None, slices) => end_to_end(&setup_times, slices, &chunks, verdict.failed),
    };
    setup.shut_down();

    let attempted = all.len();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = problems.is_empty() && verdict.failed == 0 && finite;
    print_result(correct, attempted, verdict.failed, &metrics);
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
