//! Property-based tests for the TDMA round timing and the list scheduler.

use proptest::prelude::*;

use mcs_model::{
    Application, Architecture, NodeId, NodeRole, SlotId, System, TdmaConfig, TdmaSlot, Time,
    TtpBusParams,
};
use mcs_ttp::{
    critical_path_priorities_into, list_schedule_dense_into, DenseSchedulerInput, RoundSchedule,
    TtcSchedule,
};

fn arb_config() -> impl Strategy<Value = (TdmaConfig, TtpBusParams)> {
    (
        proptest::collection::vec(1u32..64, 1..6),
        1u64..50,
        0u64..50,
    )
        .prop_map(|(caps, byte, overhead)| {
            let slots = caps
                .iter()
                .enumerate()
                .map(|(i, &c)| TdmaSlot {
                    node: NodeId::new(i as u32),
                    capacity_bytes: c,
                })
                .collect();
            (
                TdmaConfig::new(slots),
                TtpBusParams::new(Time::from_ticks(byte), Time::from_ticks(overhead)),
            )
        })
}

proptest! {
    /// `next_occurrence` returns the first occurrence at or after `t`, and
    /// occurrences tile the timeline with the round period.
    #[test]
    fn next_occurrence_is_first_at_or_after((config, params) in arb_config(), t in 0u64..100_000) {
        let rs = RoundSchedule::new(&config, params);
        let t = Time::from_ticks(t);
        for i in 0..config.slot_count() {
            let slot = SlotId::new(i as u32);
            let occ = rs.next_occurrence(slot, t);
            prop_assert!(occ.start >= t);
            // No earlier occurrence also at/after t.
            prop_assert!(occ.start.saturating_sub(rs.round_duration()) < t);
            prop_assert_eq!(occ.end - occ.start, rs.slot_duration(slot));
            let next = rs.advance(occ, 1);
            prop_assert_eq!(next.start - occ.start, rs.round_duration());
        }
    }

    /// Occurrences of different slots never overlap.
    #[test]
    fn distinct_slots_never_overlap((config, params) in arb_config(), t in 0u64..100_000) {
        let rs = RoundSchedule::new(&config, params);
        let t = Time::from_ticks(t);
        let occs: Vec<_> = (0..config.slot_count())
            .map(|i| rs.next_occurrence(SlotId::new(i as u32), t))
            .collect();
        for (i, a) in occs.iter().enumerate() {
            for b in &occs[i + 1..] {
                prop_assert!(a.end <= b.start || b.end <= a.start);
            }
        }
    }
}

/// Builds a random fork-join system on 2 TT nodes.
fn random_tt_system(wcets: &[u64], preds: &[usize]) -> System {
    let mut b = Architecture::builder();
    let n1 = b.add_node("N1", NodeRole::TimeTriggered);
    let n2 = b.add_node("N2", NodeRole::TimeTriggered);
    b.add_node("NG", NodeRole::Gateway);
    let arch = b.build().expect("valid");
    let mut ab = Application::builder();
    let g = ab.add_graph("G", Time::from_millis(10_000), Time::from_millis(10_000));
    let mut procs = Vec::new();
    for (i, &w) in wcets.iter().enumerate() {
        let node = if i % 2 == 0 { n1 } else { n2 };
        let p = ab.add_process(g, format!("p{i}"), node, Time::from_micros(w));
        if i > 0 {
            let pred = procs[preds.get(i - 1).copied().unwrap_or(0) % procs.len()];
            ab.link(pred, p, 8);
        }
        procs.push(p);
    }
    System::new(ab.build(&arch).expect("acyclic"), arch)
}

/// One list-scheduling pass with dense process releases and no message
/// releases.
fn schedule(system: &System, tdma: &TdmaConfig, process_releases: &[Option<Time>]) -> TtcSchedule {
    let mut priorities = Vec::new();
    critical_path_priorities_into(system, tdma, &mut priorities);
    let message_releases = vec![None; system.application.messages().len()];
    let input = DenseSchedulerInput {
        system,
        tdma,
        process_releases,
        message_releases: &message_releases,
    };
    let mut schedule = TtcSchedule::new();
    list_schedule_dense_into(&input, &priorities, &mut schedule).expect("schedulable");
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The list schedule respects precedence (successors start after their
    /// inputs arrive) and CPU exclusivity, for arbitrary chain shapes.
    #[test]
    fn list_schedule_respects_precedence_and_exclusivity(
        wcets in proptest::collection::vec(100u64..5_000, 2..14),
        preds in proptest::collection::vec(0usize..100, 0..12),
    ) {
        let system = random_tt_system(&wcets, &preds);
        let tdma = TdmaConfig::new(vec![
            TdmaSlot { node: NodeId::new(2), capacity_bytes: 8 },
            TdmaSlot { node: NodeId::new(0), capacity_bytes: 8 },
            TdmaSlot { node: NodeId::new(1), capacity_bytes: 8 },
        ]);
        let pr = vec![None; system.application.processes().len()];
        let schedule = schedule(&system, &tdma, &pr);
        let app = &system.application;

        // Precedence: start >= predecessor finish (local) or frame arrival.
        for e in app.edges() {
            let pred_finish = schedule.start(e.source).expect("scheduled")
                + app.process(e.source).wcet();
            let start = schedule.start(e.dest).expect("scheduled");
            match e.message {
                None => prop_assert!(start >= pred_finish),
                Some(m) => {
                    let frame = schedule.frame(m).expect("placed");
                    prop_assert!(frame.slot_start >= pred_finish);
                    prop_assert!(start >= frame.arrival);
                }
            }
        }
        // CPU exclusivity per node.
        for node in [NodeId::new(0), NodeId::new(1)] {
            let mut intervals: Vec<(Time, Time)> = app
                .processes_on(node)
                .map(|p| {
                    let s = schedule.start(p.id()).expect("scheduled");
                    (s, s + p.wcet())
                })
                .collect();
            intervals.sort();
            for pair in intervals.windows(2) {
                prop_assert!(pair[0].1 <= pair[1].0, "CPU overlap on {node}");
            }
        }
    }

    /// Release lower bounds are always honoured.
    #[test]
    fn releases_are_honoured(
        wcets in proptest::collection::vec(100u64..2_000, 2..8),
        release in 0u64..50_000,
    ) {
        let system = random_tt_system(&wcets, &[]);
        let tdma = TdmaConfig::new(vec![
            TdmaSlot { node: NodeId::new(2), capacity_bytes: 8 },
            TdmaSlot { node: NodeId::new(0), capacity_bytes: 8 },
            TdmaSlot { node: NodeId::new(1), capacity_bytes: 8 },
        ]);
        let mut pr = vec![None; system.application.processes().len()];
        let first = system.application.processes()[0].id();
        pr[first.index()] = Some(Time::from_ticks(release));
        let schedule = schedule(&system, &tdma, &pr);
        prop_assert!(schedule.start(first).expect("scheduled") >= Time::from_ticks(release));
    }
}
