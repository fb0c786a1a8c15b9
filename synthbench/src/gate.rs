//! The correctness gate.
//!
//! Every completed job is checked three ways, outside the timed region:
//!
//! 1. repeats of one (strategy, instance, budget) key must agree exactly
//!    (the searches are deterministic);
//! 2. for a seed listed in `expected/<workload>.tsv`, each key must equal
//!    its recorded (schedulable, `schedule_cost`, `total_buffers`,
//!    evaluations);
//! 3. for any seed, the incumbent re-evaluated by the frozen seed oracle
//!    (`mcs_bench::seed_baseline::seed_evaluate`) must reproduce its
//!    schedulability, cost and buffers.

use std::collections::{BTreeMap, BTreeSet};

use mcs_bench::seed_baseline::seed_evaluate;
use mcs_core::AnalysisParams;

use crate::pool::{Pool, Workload};
use crate::run::{Done, Outcome};

fn expected_table(workload: Workload) -> &'static str {
    match workload {
        Workload::Anneal => include_str!("../expected/anneal.tsv"),
        Workload::Scan => include_str!("../expected/scan.tsv"),
        Workload::Serve => include_str!("../expected/serve.tsv"),
    }
}

/// The expected outcomes of `seed`, keyed by job key; empty when the
/// seed has no record.
pub fn expected(workload: Workload, seed: u64) -> BTreeMap<String, Outcome> {
    let mut out = BTreeMap::new();
    for line in expected_table(workload).lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split('\t').collect();
        let parsed = (|| {
            Some((
                f.first()?.parse::<u64>().ok()?,
                f.get(1)?.to_string(),
                (
                    *f.get(2)? == "S",
                    f.get(3)?.parse().ok()?,
                    f.get(4)?.parse().ok()?,
                    f.get(5)?.parse().ok()?,
                ),
            ))
        })();
        match parsed {
            Some((s, key, outcome)) if s == seed => {
                out.insert(key, outcome);
            }
            Some(_) => {}
            None => panic!("malformed line in expected/{}.tsv: {line}", workload.name()),
        }
    }
    out
}

/// One expected-table line.
pub fn format_line(seed: u64, key: &str, o: &Outcome) -> String {
    format!(
        "{seed}\t{key}\t{}\t{}\t{}\t{}",
        if o.0 { "S" } else { "U" },
        o.1,
        o.2,
        o.3
    )
}

/// The gate's verdict.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Jobs that did not complete or whose key failed a check.
    pub failed: usize,
    /// Distinct keys checked against the oracle.
    pub keys: usize,
    /// Whether the seed had expected records.
    pub expected_checked: bool,
    pub problems: Vec<String>,
}

/// Checks every job of a run.
pub fn check(
    workload: Workload,
    seed: u64,
    pool: &Pool,
    params: &AnalysisParams,
    done: &[&Done],
) -> Verdict {
    let mut verdict = Verdict::default();
    let mut bad: BTreeSet<String> = BTreeSet::new();
    let mut first: BTreeMap<String, &Done> = BTreeMap::new();
    for &d in done {
        let Some(outcome) = d.outcome else { continue };
        let key = d.job.key();
        match first.get(&key) {
            None => {
                first.insert(key, d);
            }
            Some(f) if f.outcome != Some(outcome) => {
                verdict.problems.push(format!(
                    "{key}: repeat gave {outcome:?}, first {:?}",
                    f.outcome
                ));
                bad.insert(key);
            }
            Some(_) => {}
        }
    }
    let expected = expected(workload, seed);
    verdict.expected_checked = !expected.is_empty();
    for (key, d) in &first {
        let outcome = d.outcome.expect("only completed jobs are keyed");
        if verdict.expected_checked && expected.get(key) != Some(&outcome) {
            verdict.problems.push(format!(
                "{key}: got {outcome:?}, expected {:?}",
                expected.get(key)
            ));
            bad.insert(key.clone());
        }
        let config = d.config.clone().expect("completed jobs carry a config");
        match seed_evaluate(&pool.systems[d.job.instance], config, params) {
            Ok((degree, buffers, _)) => {
                let oracle = (degree.is_schedulable(), degree.cost(), buffers);
                if oracle != (outcome.0, outcome.1, outcome.2) {
                    verdict
                        .problems
                        .push(format!("{key}: oracle {oracle:?}, reported {outcome:?}"));
                    bad.insert(key.clone());
                }
            }
            Err(e) => {
                verdict
                    .problems
                    .push(format!("{key}: oracle rejected the incumbent: {e:?}"));
                bad.insert(key.clone());
            }
        }
    }
    verdict.keys = first.len();
    verdict.failed = done
        .iter()
        .filter(|d| d.outcome.is_none() || bad.contains(&d.job.key()))
        .count();
    let incomplete = done.iter().filter(|d| d.outcome.is_none()).count();
    if incomplete > 0 {
        verdict
            .problems
            .push(format!("{incomplete} job(s) did not complete"));
    }
    verdict
}
