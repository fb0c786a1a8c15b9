//! Human-readable rendering of synthesized TTC schedules: per-node schedule
//! tables and per-slot MEDLs, in the style of the paper's Figure 4 Gantt
//! annotations.

use std::fmt::Write as _;

use mcs_model::{System, TdmaConfig};

use crate::rounds::RoundSchedule;
use crate::schedule::TtcSchedule;

/// Renders the schedule tables of every statically scheduled node plus the
/// MEDL of every TDMA slot.
///
/// # Examples
///
/// The output looks like:
///
/// ```text
/// == schedule table: N1 ==
///   [     0ms ..    30ms]  P1
///   [   220ms ..   250ms]  P4
/// == MEDL: slot S1 (N1, 8 B) ==
///   round  1  [  60ms ..   80ms]  m0 m1
/// ```
pub fn render_schedule(system: &System, tdma: &TdmaConfig, schedule: &TtcSchedule) -> String {
    let mut out = String::new();
    let app = &system.application;
    let arch = &system.architecture;

    for node in arch.nodes() {
        if !arch.is_tt_cpu(node.id()) {
            continue;
        }
        let _ = writeln!(out, "== schedule table: {} ==", node.name());
        for (p, start) in schedule.table_of_node(node.id(), |p| app.process(p).node()) {
            let proc = app.process(p);
            let _ = writeln!(
                out,
                "  [{:>8} .. {:>8}]  {}",
                start.to_string(),
                (start + proc.wcet()).to_string(),
                proc.name()
            );
        }
    }

    let rounds = RoundSchedule::new(tdma, arch.ttp_params());
    for (i, slot) in tdma.slots().iter().enumerate() {
        let slot_id = mcs_model::SlotId::new(i as u32);
        let entries = schedule.medl_of_slot(slot_id);
        if entries.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "== MEDL: slot {} ({}, {} B) ==",
            slot_id,
            arch.node(slot.node).name(),
            slot.capacity_bytes
        );
        // Group messages sharing a slot occurrence (frame packing).
        let mut row: Option<(u64, Vec<String>)> = None;
        let mut rows = Vec::new();
        for (m, placement) in entries {
            match &mut row {
                Some((round, names)) if *round == placement.round => {
                    names.push(app.message(m).name().to_owned());
                }
                _ => {
                    if let Some(done) = row.take() {
                        rows.push(done);
                    }
                    row = Some((placement.round, vec![app.message(m).name().to_owned()]));
                }
            }
        }
        if let Some(done) = row.take() {
            rows.push(done);
        }
        for (round, names) in rows {
            let occ = rounds.advance(
                rounds.next_occurrence(slot_id, mcs_model::Time::ZERO),
                round,
            );
            let _ = writeln!(
                out,
                "  round {:>2}  [{:>8} .. {:>8}]  {}",
                round + 1,
                occ.start.to_string(),
                occ.end.to_string(),
                names.join(" ")
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list_scheduler::{
        critical_path_priorities_into, list_schedule_dense_into, DenseSchedulerInput,
    };
    use mcs_model::{Application, Architecture, NodeRole, TdmaSlot, Time, TtpBusParams};

    #[test]
    fn render_contains_tables_and_medl() {
        let mut b = Architecture::builder();
        let n1 = b.add_node("N1", NodeRole::TimeTriggered);
        let n2 = b.add_node("N2", NodeRole::TimeTriggered);
        let ng = b.add_node("NG", NodeRole::Gateway);
        b.ttp_params(TtpBusParams::new(Time::from_micros(2_500), Time::ZERO));
        let arch = b.build().expect("valid");
        let mut ab = Application::builder();
        let g = ab.add_graph("G", Time::from_millis(500), Time::from_millis(500));
        let a = ab.add_process(g, "sense", n1, Time::from_millis(10));
        let c = ab.add_process(g, "act", n2, Time::from_millis(10));
        ab.link(a, c, 8);
        let app = ab.build(&arch).expect("valid");
        let system = mcs_model::System::new(app, arch);
        let tdma = mcs_model::TdmaConfig::new(vec![
            TdmaSlot {
                node: ng,
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: n1,
                capacity_bytes: 8,
            },
            TdmaSlot {
                node: n2,
                capacity_bytes: 8,
            },
        ]);
        let mut priorities = Vec::new();
        critical_path_priorities_into(&system, &tdma, &mut priorities);
        let mut schedule = TtcSchedule::new();
        list_schedule_dense_into(
            &DenseSchedulerInput {
                system: &system,
                tdma: &tdma,
                process_releases: &vec![None; system.application.processes().len()],
                message_releases: &vec![None; system.application.messages().len()],
            },
            &priorities,
            &mut schedule,
        )
        .expect("schedulable");
        let text = render_schedule(&system, &tdma, &schedule);
        assert!(text.contains("schedule table: N1"));
        assert!(text.contains("sense"));
        assert!(text.contains("MEDL: slot S1"));
        assert!(text.contains("m0"));
        // The ET-free node list never mentions the gateway CPU table.
        assert!(!text.contains("schedule table: NG"));
    }

    #[test]
    fn empty_schedule_renders_tables_only() {
        let mut b = Architecture::builder();
        b.add_node("N1", NodeRole::TimeTriggered);
        let ng = b.add_node("NG", NodeRole::Gateway);
        let arch = b.build().expect("valid");
        let mut ab = Application::builder();
        let g = ab.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        ab.add_process(g, "p", mcs_model::NodeId::new(0), Time::from_millis(1));
        let app = ab.build(&arch).expect("valid");
        let system = mcs_model::System::new(app, arch);
        let tdma = mcs_model::TdmaConfig::new(vec![TdmaSlot {
            node: ng,
            capacity_bytes: 8,
        }]);
        let text = render_schedule(&system, &tdma, &TtcSchedule::new());
        assert!(text.contains("schedule table: N1"));
        assert!(!text.contains("MEDL"));
    }
}
