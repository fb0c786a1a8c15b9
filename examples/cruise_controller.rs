//! The paper's real-life example: synthesize the vehicle cruise controller
//! (40 processes, deadline 250 ms) with a batch of the straightforward
//! baseline and the OS heuristic, and compare.
//!
//! Run with `cargo run --release --example cruise_controller`.

use std::sync::Arc;

use mcs::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cc = cruise_controller();
    let graph = cc.system.application.graphs()[0].id();
    let deadline = cc.system.application.graphs()[0].deadline();

    println!(
        "cruise controller: {} processes, {} messages ({} crossing the gateway), deadline {}",
        cc.system.application.processes().len(),
        cc.system.application.messages().len(),
        cc.system.inter_cluster_message_count(),
        deadline
    );

    // Both strategies run in parallel; the winner is the best δΓ.
    let system = Arc::new(cc.system);
    let job = |strategy: Box<dyn Strategy>| {
        JobSpec::new(
            "cruise",
            Arc::clone(&system),
            AnalysisParams::default(),
            strategy,
        )
    };
    let records = SynthesisService::run_batch(vec![
        job(Box::new(Sf)),
        job(Box::new(Os::new(OsParams::default()))),
    ]);

    for record in &records {
        let report = record
            .outcome
            .report()
            .expect("cruise controller is analyzable");
        println!(
            "{}: response {:>8}  -> {}",
            record.strategy,
            report.best.outcome.graph_response(graph).to_string(),
            if report.best.is_schedulable() {
                "meets the deadline"
            } else {
                "MISSES the deadline"
            }
        );
    }

    let winner =
        &records[best_record(&records, Objective::Schedule).expect("both entries succeed")];
    let best = winner.outcome.report().expect("the winner has a report");
    let winner = &winner.strategy;
    println!();
    println!("synthesized TDMA round ({winner}):");
    for (i, slot) in best.best.config.tdma.slots().iter().enumerate() {
        println!(
            "  slot {} -> {} ({} bytes)",
            i,
            system.architecture.node(slot.node).name(),
            slot.capacity_bytes
        );
    }
    println!();
    println!(
        "buffer bounds ({winner}): Out_CAN {} B, Out_TTP {} B, total {} B",
        best.best.outcome.queues.out_can,
        best.best.outcome.queues.out_ttp,
        best.best.outcome.queues.total()
    );
    Ok(())
}
