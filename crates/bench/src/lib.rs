//! # mcs-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (§6). Each figure has a binary:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig4_example` | the Figure 4 worked example (three configurations ψ) |
//! | `fig9a` | Fig 9a — δΓ deviation of SF and OS from the SAS reference |
//! | `fig9b` | Fig 9b — average total buffer need of OS, OR, SAR |
//! | `fig9c` | Fig 9c — buffer deviation from SAR vs inter-cluster traffic |
//! | `fig9mp` | the Fig-9c sweep on multi-period (`{1, 2, 4}`) instances |
//! | `cruise` | the §6 cruise-controller table |
//!
//! Criterion benches (`cargo bench -p mcs-bench`) measure the §6 run-time
//! claims (heuristics vs simulated annealing), fresh-per-call vs
//! context-reuse evaluation (`evaluator_reuse`), and full vs delta
//! evaluation over an SA move trace, with the full path as the in-run
//! baseline and the final result checked against the frozen
//! [`seed_baseline`] oracle — on the single-period Fig-9c instance
//! (`delta_rta`) and on its multi-period `{1, 2, 4}` counterpart
//! (`delta_rta_multiperiod`); each emits its evaluations/second into
//! `BENCH_core.json` via [`record_bench_section`]. The ablations called
//! out in DESIGN.md live in the `optimization` bench.
//!
//! All binaries accept `--seeds N` (instances per point, default 5; the
//! paper used 30) and `--sa-iters N` (SA budget per instance, default 200;
//! the paper ran hours-long anneals). `--paper-scale` selects 30 seeds and
//! 2000 SA iterations. The `fig9*` sweeps additionally write one
//! machine-readable JSON line per (instance × strategy) run — to
//! `BENCH_<figure>.jsonl` in the repository root, or the `--jsonl PATH`
//! override — alongside their text tables.
//!
//! The sweeps are (instance × strategy) job batches run by
//! [`SynthesisService::run_batch`]: embarrassingly parallel, dynamically
//! load-balanced across cores (set `RAYON_NUM_THREADS` to cap the
//! workers), with records returned in submission order — so parallel
//! output is identical to a sequential run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod seed_baseline;

use std::sync::Arc;

use mcs_opt::{JobRecord, JobSpec, SynthesisReport, SynthesisService};

/// Command-line options shared by the experiment binaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExperimentOptions {
    /// Instances per data point.
    pub seeds: u64,
    /// Simulated-annealing iterations per instance.
    pub sa_iters: u32,
    /// Override for the JSON-lines record path (`--jsonl PATH`); `None`
    /// selects the default `BENCH_<figure>.jsonl` next to the text tables.
    pub jsonl: Option<String>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            seeds: 5,
            sa_iters: 200,
            jsonl: None,
        }
    }
}

impl ExperimentOptions {
    /// Parses the conventional flags from `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn from_args() -> Self {
        let mut options = ExperimentOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper-scale" => {
                    options.seeds = 30;
                    options.sa_iters = 2_000;
                }
                "--seeds" => {
                    options.seeds = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seeds takes a positive integer");
                }
                "--sa-iters" => {
                    options.sa_iters = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--sa-iters takes a positive integer");
                }
                "--jsonl" => {
                    options.jsonl = Some(args.next().expect("--jsonl takes a path"));
                }
                other => panic!(
                    "unknown flag {other}; supported: --seeds N, --sa-iters N, \
                     --paper-scale, --jsonl PATH"
                ),
            }
        }
        options
    }

    /// The JSON-lines record path for `figure`: the `--jsonl` override, or
    /// `BENCH_<figure>.jsonl` in the repository root (next to the text
    /// tables and `BENCH_core.json`).
    pub fn jsonl_path(&self, figure: &str) -> std::path::PathBuf {
        match &self.jsonl {
            Some(path) => path.into(),
            None => {
                let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
                std::path::Path::new(root).join(format!("BENCH_{figure}.jsonl"))
            }
        }
    }
}

/// Writes one [`JobRecord`] JSON line per record to `path` (overwriting)
/// and reports where they went. Errors are printed, not propagated —
/// machine-readable records must never fail a sweep.
pub fn write_jsonl(path: &std::path::Path, records: &[JobRecord]) {
    let file = match std::fs::File::create(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("could not create {}: {e}", path.display());
            return;
        }
    };
    let mut writer = mcs_core::JsonLinesWriter::new(std::io::BufWriter::new(file));
    for record in records {
        if let Err(e) = writer.write_line(&record.json_line()) {
            eprintln!("could not write {}: {e}", path.display());
            return;
        }
    }
    let n = writer.records();
    match writer.finish() {
        Ok(_) => println!("recorded {n} experiment records in {}", path.display()),
        Err(e) => eprintln!("could not flush {}: {e}", path.display()),
    }
}

/// The (full or partial) report of a sweep record. A record without one
/// is reported on stderr and yields `None`, so a failed run (unanalyzable
/// instance, panic) skips its instance in the aggregate instead of
/// aborting the sweep.
pub fn report_or_skip(record: &JobRecord) -> Option<&SynthesisReport> {
    let report = record.outcome.report();
    if report.is_none() {
        eprintln!(
            "skipping {} ({}): {}",
            record.name,
            record.strategy,
            record
                .outcome
                .error()
                .unwrap_or_else(|| record.outcome.kind().to_string())
        );
    }
    report
}

/// Records one bench section into `BENCH_core.json` (repo root, or the
/// `BENCH_CORE_JSON` path), merging with whatever other sections are
/// already there. The file is a flat object with one single-line JSON
/// object per section:
///
/// ```json
/// {
///   "evaluator_reuse": {...},
///   "delta_rta": {...}
/// }
/// ```
///
/// `body` must be the section's single-line `{...}` object. Unparseable
/// content (e.g. the pre-PR-2 single-object format) is discarded.
pub fn record_bench_section(name: &str, body: &str) {
    let path = std::env::var("BENCH_CORE_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json").to_string()
    });
    let mut sections: Vec<(String, String)> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(&path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if let Some((key, value)) = line.split_once(':') {
                let key = key.trim().trim_matches('"');
                let value = value.trim();
                if !key.is_empty() && value.starts_with('{') && value.ends_with('}') {
                    sections.push((key.to_string(), value.to_string()));
                }
            }
        }
    }
    match sections.iter_mut().find(|(k, _)| k == name) {
        Some((_, value)) => *value = body.to_string(),
        None => sections.push((name.to_string(), body.to_string())),
    }
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        out.push_str(&format!("  \"{key}\": {value}{comma}\n"));
    }
    out.push_str("}\n");
    if let Err(e) = std::fs::write(&path, out) {
        eprintln!("could not write {path}: {e}");
    } else {
        println!("recorded bench section {name:?} in {path}");
    }
}

/// One row of a Fig-9c-style buffer-deviation sweep: a display key (the
/// inter-cluster message count) and the per-seed generator parameters of
/// its instances.
#[derive(Debug)]
pub struct SweepRow {
    /// The row key printed in the first column.
    pub key: usize,
    /// `(instance label, generator parameters)` per seed.
    pub instances: Vec<(String, mcs_gen::GeneratorParams)>,
}

/// Runs OS, OR and SAR on every instance of every row as one
/// [`SynthesisService::run_batch`] and prints the average %-deviation
/// table of OS and OR from the SAR reference (the Fig-9c shape). Returns
/// every record, row-major with OS/OR/SAR per instance, for JSON-lines
/// emission.
///
/// A failed run does not abort the sweep: its instance is skipped in the
/// aggregate (and reported on stderr), the other instances still count —
/// the per-record outcome is the unit of failure, not the batch.
///
/// OS and OR are independent jobs — both are deterministic, so the OS
/// column equals the step-1 result inside OR. (The standalone OS pass is
/// re-run inside OR, but it is a few percent of an OR+SAR job; the
/// one-strategy-per-job model keeps records uniform.)
pub fn run_deviation_sweep(sa_iters: u32, rows: &[SweepRow]) -> Vec<JobRecord> {
    use mcs_opt::{Or, OrParams, Os, Sa, SaParams};

    let analysis = mcs_core::AnalysisParams::default();
    let mut jobs = Vec::new();
    for row in rows {
        for (seed_index, (instance, params)) in row.instances.iter().enumerate() {
            let system = Arc::new(mcs_gen::generate(params));
            jobs.push(JobSpec::new(
                instance.clone(),
                Arc::clone(&system),
                analysis,
                Os::new(OrParams::default().os),
            ));
            jobs.push(JobSpec::new(
                instance.clone(),
                Arc::clone(&system),
                analysis,
                Or::new(OrParams::default()),
            ));
            jobs.push(JobSpec::new(
                instance.clone(),
                system,
                analysis,
                Sa::resources(SaParams {
                    iterations: sa_iters,
                    seed: seed_index as u64,
                    ..SaParams::default()
                }),
            ));
        }
    }
    let records = SynthesisService::run_batch(jobs);

    println!("{:>9} {:>10} {:>10} {:>8}", "messages", "OS", "OR", "used");
    let mut per_point = records.chunks_exact(3);
    let mut failed = 0usize;
    for row in rows {
        let mut os_dev = Vec::new();
        let mut or_dev = Vec::new();
        for _ in 0..row.instances.len() {
            let point = per_point.next().expect("three records per instance");
            let reports: Vec<_> = point
                .iter()
                .filter_map(|record| report_or_skip(record).map(|report| &report.best))
                .collect();
            let [os, or, sar] = reports[..] else {
                failed += 1;
                continue;
            };
            if os.is_schedulable() && or.is_schedulable() && sar.is_schedulable() {
                let reference = sar.total_buffers as f64;
                os_dev.push(percent_deviation(os.total_buffers as f64, reference));
                or_dev.push(percent_deviation(or.total_buffers as f64, reference));
            }
        }
        println!(
            "{:>9} {} {} {:>8}",
            row.key,
            cell(mean(&os_dev)),
            cell(mean(&or_dev)),
            os_dev.len()
        );
    }
    if failed > 0 {
        eprintln!("{failed} instance(s) skipped because a run failed");
    }
    records
}

/// Mean of a sample, `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Percentage deviation of `value` from a (non-zero) `reference`:
/// `(value − reference) / |reference| × 100`.
pub fn percent_deviation(value: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (value - reference) / reference.abs() * 100.0
    }
}

/// Formats an optional mean for a table cell.
pub fn cell(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:>10.1}"),
        None => format!("{:>10}", "-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_handles_empty_and_nonempty() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn percent_deviation_is_signed_and_reference_relative() {
        assert_eq!(percent_deviation(150.0, 100.0), 50.0);
        assert_eq!(percent_deviation(50.0, 100.0), -50.0);
        // Negative references (δΓ slack values): less negative = worse = positive.
        assert_eq!(percent_deviation(-50.0, -100.0), 50.0);
        assert_eq!(percent_deviation(0.0, 0.0), 0.0);
    }

    #[test]
    fn cells_align() {
        assert_eq!(cell(Some(1.25)).len(), 10);
        assert_eq!(cell(None).trim(), "-");
    }
}
