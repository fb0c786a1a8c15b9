//! Layer probes of the traced run: timed calls into the evaluator on
//! inputs recorded from the workload instances.
//!
//! * `core.evaluate` / `core.delta` replay SA move traces, recorded on
//!   anneal-shape instances with the public `MoveSampler`, through full
//!   `evaluate` and through `evaluate_delta` (as `benches/analysis.rs`
//!   does). Both replays must end on the same summary.
//! * `core.batch` evaluates OS-style neighbourhoods (`neighborhood_into`
//!   around the SF incumbent) of scan-shape instances with
//!   `evaluate_batch`, and the same candidates one by one through
//!   `evaluate_delta`. Both must return the same results.

use mcs_core::{AnalysisParams, BatchRequest, BatchScratch, DeltaSeeds, EvalSummary, Evaluator};
use mcs_model::{System, SystemConfig};
use mcs_opt::{neighborhood_into, Evaluation, Move, MoveSampler, SaParams, Sf, Synthesis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pool::{plain_pool, Workload};
use crate::trace::Tracer;

/// Moves per recorded SA trace.
const TRACE_MOVES: usize = 300;
/// Anneal-shape instances replayed.
const TRACE_INSTANCES: usize = 4;
/// Scan-shape instances whose neighbourhoods are batched.
const BATCH_INSTANCES: usize = 3;
/// Candidates per batch (OR samples up to 64 neighbours per step).
const BATCH_WIDTH: usize = 32;
/// Timed repetitions of each batch.
const BATCH_REPEATS: usize = 3;

/// Probe counts and self-check failures; the timings are spans
/// (`core.evaluate`, `core.delta`, `core.batch`, `core.batch_seq`).
#[derive(Debug, Default)]
pub struct Probes {
    pub evaluate_errors: usize,
    pub delta_errors: usize,
    pub delta_passes: u64,
    pub full_passes: u64,
    /// Candidates per timed batch.
    pub batch_lanes: Vec<f64>,
    pub problems: Vec<String>,
}

/// The SF incumbent of `system`: the start of every trace and the centre
/// of every batched neighbourhood.
pub fn sf_evaluation(system: &System, params: AnalysisParams) -> Evaluation {
    Synthesis::builder(system)
        .analysis(params)
        .strategy(Sf)
        .run()
        .expect("generated systems are analyzable under SF")
        .best
}

type Trace = Vec<(Move, bool)>;

/// Samples `TRACE_MOVES` SA moves from `start`, recording each move and
/// whether the SAS Metropolis rule accepts it.
fn record_trace(system: &System, start: &SystemConfig, params: AnalysisParams, seed: u64) -> Trace {
    let sa = SaParams::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut evaluator = Evaluator::new(system, params);
    let mut sampler = MoveSampler::new(system);
    let mut config = start.clone();
    let mut current = evaluator.evaluate(&config).expect("SF start analyzes");
    let mut temperature = sa.initial_temperature;
    let mut trace = Vec::new();
    while trace.len() < TRACE_MOVES {
        let Some(mv) = sampler.sample(system, &config, &evaluator, &current, &mut rng) else {
            break;
        };
        let undo = mv.apply_undoable(&mut config);
        temperature *= sa.cooling;
        let accepted = match evaluator.evaluate(&config) {
            Ok(candidate) => {
                let delta = (candidate.schedule_cost() - current.schedule_cost()) as f64;
                let accept = delta <= 0.0
                    || rng.gen::<f64>() < (-delta / temperature.max(f64::MIN_POSITIVE)).exp();
                if accept {
                    current = candidate;
                }
                accept
            }
            Err(_) => false,
        };
        if !accepted {
            undo.revert(&mut config);
        }
        trace.push((mv, accepted));
    }
    trace
}

/// Replays `trace` through full `evaluate` (`delta == false`) or
/// `evaluate_delta`, one span per call.
#[allow(clippy::too_many_arguments)]
fn replay(
    system: &System,
    start: &SystemConfig,
    params: AnalysisParams,
    trace: &Trace,
    delta: bool,
    tracer: &mut Tracer,
    request: u64,
    errors: &mut usize,
) -> (EvalSummary, (u64, u64)) {
    let mut evaluator = Evaluator::new(system, params);
    let mut config = start.clone();
    let mut seeds = DeltaSeeds::new();
    let mut last = evaluator.evaluate(&config).expect("SF start analyzes");
    let name = if delta { "core.delta" } else { "core.evaluate" };
    for &(mv, accepted) in trace {
        let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
        let result = tracer.time(name, request, || {
            if delta {
                evaluator.evaluate_delta(&config, &seeds)
            } else {
                evaluator.evaluate(&config)
            }
        });
        seeds.clear();
        match result {
            Ok(summary) => {
                last = summary;
                if !accepted {
                    undo.record_seeds(&mut seeds);
                    undo.revert(&mut config);
                }
            }
            Err(_) => {
                *errors += 1;
                undo.record_seeds(&mut seeds);
                undo.revert(&mut config);
            }
        }
    }
    (last, evaluator.delta_stats())
}

/// `BATCH_WIDTH` evenly spaced neighbours of `centre` as batch requests,
/// each with the seeds its move touches relative to `centre`.
fn neighbourhood_requests(system: &System, centre: &Evaluation) -> Vec<(Move, BatchRequest)> {
    let mut moves = Vec::new();
    neighborhood_into(system, centre, &mut moves);
    let step = (moves.len() / BATCH_WIDTH).max(1);
    moves
        .iter()
        .step_by(step)
        .take(BATCH_WIDTH)
        .map(|&mv| {
            let mut config = centre.config.clone();
            let mut seeds = DeltaSeeds::new();
            mv.apply_undoable_seeded(&mut config, &mut seeds);
            (mv, BatchRequest { config, seeds })
        })
        .collect()
}

/// Runs every core probe for `seed`, recording its timings in `tracer`.
pub fn run(seed: u64, params: AnalysisParams, tracer: &mut Tracer) -> Probes {
    let mut probes = Probes::default();

    let anneal = plain_pool(Workload::Anneal, seed);
    for (n, &i) in anneal.order.iter().take(TRACE_INSTANCES).enumerate() {
        let system = &anneal.systems[i];
        let start = sf_evaluation(system, params).config;
        let trace = record_trace(system, &start, params, seed ^ n as u64);
        let request = i as u64;
        let (full, _) = replay(
            system,
            &start,
            params,
            &trace,
            false,
            tracer,
            request,
            &mut probes.evaluate_errors,
        );
        let (delta, (delta_passes, full_passes)) = replay(
            system,
            &start,
            params,
            &trace,
            true,
            tracer,
            request,
            &mut probes.delta_errors,
        );
        probes.delta_passes += delta_passes;
        probes.full_passes += full_passes;
        if full != delta {
            probes.problems.push(format!(
                "anneal instance {i}: delta replay drifted from full"
            ));
        }
    }

    let scan = plain_pool(Workload::Scan, seed);
    for &i in scan.order.iter().take(BATCH_INSTANCES) {
        let system = &scan.systems[i];
        let request = i as u64;
        let centre = sf_evaluation(system, params);
        let candidates = neighbourhood_requests(system, &centre);
        let requests: Vec<BatchRequest> = candidates.iter().map(|(_, r)| r.clone()).collect();

        let mut base = Evaluator::new(system, params);
        base.evaluate(&centre.config)
            .expect("SF incumbent analyzes");
        let mut scratch = BatchScratch::new();
        let mut batched = Vec::new();
        for _ in 0..BATCH_REPEATS {
            batched = tracer.time("core.batch", request, || {
                base.evaluate_batch(&mut scratch, &requests)
            });
            probes.batch_lanes.push(requests.len() as f64);
        }

        // The same candidates one at a time: apply, evaluate_delta, undo,
        // with seeds accumulated as a non-batched scan carries them.
        let mut sequential = Evaluator::new(system, params);
        sequential
            .evaluate(&centre.config)
            .expect("SF incumbent analyzes");
        let mut config = centre.config.clone();
        let mut seeds = DeltaSeeds::new();
        let mut results = Vec::with_capacity(candidates.len());
        for _ in 0..BATCH_REPEATS {
            results.clear();
            tracer.time("core.batch_seq", request, || {
                for (mv, _) in &candidates {
                    let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
                    results.push(sequential.evaluate_delta(&config, &seeds));
                    seeds.clear();
                    undo.record_seeds(&mut seeds);
                    undo.revert(&mut config);
                }
            });
        }
        if results != batched {
            probes.problems.push(format!(
                "scan instance {i}: evaluate_batch differs from sequential evaluate_delta"
            ));
        }
    }
    probes
}
