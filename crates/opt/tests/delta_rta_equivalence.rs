//! The delta-RTA contract: interleaved [`Evaluator::evaluate_delta`] calls
//! must produce **bit-identical** results to a fresh full evaluation after
//! every move — δΓ, `s_total`, every per-entity timing, every queue bound,
//! the schedule tables and the convergence metadata — across generated
//! systems, random move sequences and random accept/reject decisions
//! (rejections exercise the seed accumulation across reverted moves).
//!
//! This is what licenses the dependency closure of `mcs_core::delta`: a
//! clean entity it fails to mark would silently drift the delta path away
//! from the full fixed point, and this suite would catch it.

use proptest::prelude::*;

use mcs_core::{AnalysisParams, DeltaSeeds, Evaluator};
use mcs_gen::{generate, GeneratorParams};
use mcs_opt::{evaluate, hopa_priorities, neighborhood, straightforward_config};

fn small_system(seed: u64) -> mcs_model::System {
    let mut p = GeneratorParams::paper_sized(2, seed);
    p.processes_per_node = 8;
    p.graphs = 4;
    p.inter_cluster_messages = Some(3);
    generate(&p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Walk a random move sequence with random accept/reject decisions.
    /// The delta evaluator accumulates seeds exactly like the search loops
    /// do: record the move's seeds on apply, clear them after a successful
    /// evaluation, record the undo's seeds when reverting a rejected or
    /// infeasible candidate. After every evaluation, the delta evaluator
    /// must agree with a fresh full evaluation down to the last bit.
    #[test]
    fn delta_evaluation_matches_fresh_evaluation(
        seed in 0u64..500,
        picks in proptest::collection::vec((0usize..1_000, any::<bool>()), 1..8),
    ) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let mut config = straightforward_config(&system);
        config.priorities = hopa_priorities(&system, &config.tdma);

        let mut delta = Evaluator::new(&system, analysis);
        let mut seeds = DeltaSeeds::new();
        let mut current = evaluate(&system, config.clone(), &analysis).expect("analyzable");
        delta.evaluate(&config).expect("analyzable");
        for &(pick, accept) in &picks {
            let moves = neighborhood(&system, &current);
            prop_assume!(!moves.is_empty());
            let mv = moves[pick % moves.len()];
            let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);

            let fresh = evaluate(&system, config.clone(), &analysis);
            let warm = delta.evaluate_delta(&config, &seeds);
            match (fresh, warm) {
                (Ok(fresh), Ok(summary)) => {
                    seeds.clear();
                    prop_assert_eq!(summary.degree, fresh.degree);
                    prop_assert_eq!(summary.total_buffers, fresh.total_buffers);
                    prop_assert_eq!(summary.converged, fresh.outcome.converged);
                    prop_assert_eq!(summary.iterations, fresh.outcome.iterations);
                    let outcome = delta.outcome();
                    prop_assert_eq!(&outcome.schedule, &fresh.outcome.schedule);
                    prop_assert_eq!(&outcome.process_timing, &fresh.outcome.process_timing);
                    prop_assert_eq!(&outcome.message_timing, &fresh.outcome.message_timing);
                    prop_assert_eq!(&outcome.queues, &fresh.outcome.queues);
                    prop_assert_eq!(&outcome.graph_response, &fresh.outcome.graph_response);
                    if accept {
                        current = fresh;
                        continue;
                    }
                }
                (Err(fresh), Err(warm)) => prop_assert_eq!(fresh, warm),
                (fresh, warm) => prop_assert!(
                    false,
                    "feasibility disagreement on {:?}: fresh {:?} vs delta {:?}", mv, fresh, warm
                ),
            }
            // Rejected or infeasible: revert in place, keeping the seeds
            // covering the distance to the evaluator's last analysis.
            undo.record_seeds(&mut seeds);
            undo.revert(&mut config);
        }
    }

    /// Re-evaluating the same configuration through the delta path (empty
    /// seed set) is a fixed point: summaries are identical call to call.
    #[test]
    fn repeated_delta_evaluation_is_stable(seed in 0u64..200) {
        let system = small_system(seed);
        let analysis = AnalysisParams::default();
        let mut config = straightforward_config(&system);
        config.priorities = hopa_priorities(&system, &config.tdma);
        let mut evaluator = Evaluator::new(&system, analysis);
        let first = evaluator.evaluate(&config).expect("analyzable");
        let seeds = DeltaSeeds::new();
        for _ in 0..3 {
            prop_assert_eq!(evaluator.evaluate_delta(&config, &seeds).expect("analyzable"), first);
        }
    }
}

/// Non-permutation priority changes (a process demoted to a *fresh* level
/// rather than swapped) perturb hp sets above the entity's new position —
/// outside the closure's priority bands — so `evaluate_delta` must detect
/// them and take the full path. Regression test for exactly that fallback.
#[test]
fn non_permutation_priority_change_falls_back_to_full() {
    let system = small_system(7);
    let analysis = AnalysisParams::default();
    let mut config = straightforward_config(&system);
    config.priorities = hopa_priorities(&system, &config.tdma);

    let mut delta = Evaluator::new(&system, analysis);
    delta.evaluate(&config).expect("analyzable");

    // Demote every prioritized ET process in turn to a fresh (unused)
    // priority level, seeding only that process — a legal use of the API
    // that is *not* a permutation of the base assignment.
    let app = &system.application;
    let mut fresh_level = 1_000_000u32;
    for p in app.processes() {
        let Some(old) = config.priorities.process(p.id()) else {
            continue;
        };
        fresh_level += 1;
        config
            .priorities
            .set_process(p.id(), mcs_model::Priority::new(fresh_level));
        let mut seeds = DeltaSeeds::new();
        seeds.push_process(p.id());

        let fresh = evaluate(&system, config.clone(), &analysis).expect("analyzable");
        let warm = delta.evaluate_delta(&config, &seeds).expect("analyzable");
        assert_eq!(
            warm.degree,
            fresh.degree,
            "δΓ drifted demoting {:?}",
            p.id()
        );
        assert_eq!(warm.total_buffers, fresh.total_buffers);
        assert_eq!(delta.outcome().process_timing, fresh.outcome.process_timing);
        assert_eq!(delta.outcome().message_timing, fresh.outcome.message_timing);
        let _ = old;
    }
}

/// Long deterministic walks over pure priority-swap sequences — the move
/// family the delta path accelerates — asserting both bit-identity and that
/// the delta fast path is actually taken (not just falling back), for small
/// cones and for one cone over most of the system.
#[test]
fn priority_swap_walk_stays_identical_and_hits_the_delta_path() {
    let system = small_system(42);
    let analysis = AnalysisParams::default();
    let mut config = straightforward_config(&system);
    config.priorities = hopa_priorities(&system, &config.tdma);

    let mut delta = Evaluator::new(&system, analysis);
    let mut seeds = DeltaSeeds::new();
    delta.evaluate(&config).expect("analyzable");
    let mut current = evaluate(&system, config.clone(), &analysis).expect("analyzable");

    for round in 0..40 {
        let moves: Vec<_> = neighborhood(&system, &current)
            .into_iter()
            .filter(|m| {
                matches!(
                    m,
                    mcs_opt::Move::SwapProcessPriorities(_, _)
                        | mcs_opt::Move::SwapMessagePriorities(_, _)
                )
            })
            .collect();
        assert!(!moves.is_empty(), "priority neighborhood must be nonempty");
        let mv = moves[(round * 7 + 3) % moves.len()];
        let undo = mv.apply_undoable_seeded(&mut config, &mut seeds);
        let fresh = evaluate(&system, config.clone(), &analysis).expect("analyzable");
        let warm = delta.evaluate_delta(&config, &seeds).expect("analyzable");
        seeds.clear();
        assert_eq!(warm.degree, fresh.degree, "δΓ drifted at round {round}");
        assert_eq!(warm.total_buffers, fresh.total_buffers);
        assert_eq!(warm.iterations, fresh.outcome.iterations);
        assert_eq!(delta.outcome().process_timing, fresh.outcome.process_timing);
        assert_eq!(delta.outcome().message_timing, fresh.outcome.message_timing);
        if round % 3 == 0 {
            current = fresh; // accept every third move
        } else {
            undo.record_seeds(&mut seeds);
            undo.revert(&mut config);
        }
    }
    let (delta_hits, full) = delta.delta_stats();
    assert!(
        delta_hits > 0,
        "the delta fast path was never taken ({delta_hits} delta vs {full} full)"
    );

    // A cone over most of the system: on a system with many inter-cluster
    // messages, swapping the two highest priorities on every ET CPU and on
    // the CAN bus seeds the top of every priority band. The closure then
    // dirties every ET process, CAN leg and FIFO leg, and the schedule
    // rebuild of the second outer iteration adds the moved placements —
    // over 75% of all entities. Such a cone still runs the restricted
    // engine, and must still agree with a fresh evaluation.
    let mut params = GeneratorParams::paper_sized(2, 7);
    params.processes_per_node = 8;
    params.graphs = 2;
    params.inter_cluster_messages = Some(14);
    let system = generate(&params);
    let mut config = straightforward_config(&system);
    config.priorities = hopa_priorities(&system, &config.tdma);
    let mut delta = Evaluator::new(&system, analysis);
    delta.evaluate(&config).expect("analyzable");
    // A first delta call stamps the snapshots the large cone extends.
    delta
        .evaluate_delta(&config, &DeltaSeeds::new())
        .expect("analyzable");
    let (delta_before, full_before) = delta.delta_stats();
    let mut seeds = DeltaSeeds::new();
    let app = &system.application;
    let mut by_cpu: std::collections::BTreeMap<_, Vec<_>> = Default::default();
    for p in app.processes() {
        if let Some(prio) = config.priorities.process(p.id()) {
            if system.architecture.is_et_cpu(p.node()) {
                by_cpu.entry(p.node()).or_default().push((prio, p.id()));
            }
        }
    }
    for procs in by_cpu.values_mut() {
        procs.sort();
        if let [(_, a), (_, b), ..] = procs[..] {
            config.priorities.swap_processes(a, b);
            seeds.push_process(a);
            seeds.push_process(b);
        }
    }
    let mut can: Vec<_> = app
        .messages()
        .iter()
        .filter(|m| system.route(m.id()).uses_can())
        .filter_map(|m| Some((config.priorities.message(m.id())?, m.id())))
        .collect();
    can.sort();
    if let [(_, a), (_, b), ..] = can[..] {
        config.priorities.swap_messages(a, b);
        seeds.push_message(a);
        seeds.push_message(b);
    }
    let fresh = evaluate(&system, config.clone(), &analysis).expect("analyzable");
    let warm = delta.evaluate_delta(&config, &seeds).expect("analyzable");
    assert_eq!(warm.degree, fresh.degree, "δΓ drifted on the large cone");
    assert_eq!(warm.total_buffers, fresh.total_buffers);
    assert_eq!(warm.iterations, fresh.outcome.iterations);
    let outcome = delta.outcome();
    assert_eq!(outcome.schedule, fresh.outcome.schedule);
    assert_eq!(outcome.process_timing, fresh.outcome.process_timing);
    assert_eq!(outcome.message_timing, fresh.outcome.message_timing);
    assert_eq!(outcome.queues, fresh.outcome.queues);
    assert_eq!(outcome.graph_response, fresh.outcome.graph_response);
    let (delta_after, full_after) = delta.delta_stats();
    assert!(
        delta_after > delta_before && full_after == full_before,
        "the large cone took the full path ({delta_before} -> {delta_after} delta, \
         {full_before} -> {full_after} full passes)"
    );
}
