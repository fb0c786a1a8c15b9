//! Seeded instance pools and the job definitions of each workload.
//!
//! Every input is a pure function of the workload seed: the pool's
//! generator seeds, the order jobs visit it and the serve mix.

use std::sync::Arc;

use mcs_gen::{generate, GeneratorParams};
use mcs_model::System;
use mcs_opt::{Budget, Or, OrParams, Os, OsParams, Sa, SaParams, Sf, Strategy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Anneal,
    Scan,
    Serve,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "anneal" => Some(Workload::Anneal),
            "scan" => Some(Workload::Scan),
            "serve" => Some(Workload::Serve),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Anneal => "anneal",
            Workload::Scan => "scan",
            Workload::Serve => "serve",
        }
    }
}

/// SA iterations of an `anneal` job.
pub const ANNEAL_ITERATIONS: u32 = 200;
/// Evaluation budget of a `scan` OR job (OS step plus part of the climb).
pub const SCAN_OR_BUDGET: u64 = 150;
/// SA iterations of a short `serve` SAS job.
pub const SERVE_SAS_ITERATIONS: u32 = 40;

/// One strategy invocation with its budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Sf,
    Os,
    Or { budget: u64 },
    Sas { iterations: u32 },
    Sar { iterations: u32 },
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::Sf => "SF",
            Kind::Os => "OS",
            Kind::Or { .. } => "OR",
            Kind::Sas { .. } => "SAS",
            Kind::Sar { .. } => "SAR",
        }
    }

    fn budget_label(self) -> String {
        match self {
            Kind::Sf | Kind::Os => "-".to_string(),
            Kind::Or { budget } => budget.to_string(),
            Kind::Sas { iterations } | Kind::Sar { iterations } => iterations.to_string(),
        }
    }

    /// The strategy object; SA runs are seeded by the instance index.
    pub fn strategy(self, instance: usize) -> Box<dyn Strategy> {
        let sa = |iterations| SaParams {
            iterations,
            seed: instance as u64,
            ..SaParams::default()
        };
        match self {
            Kind::Sf => Box::new(Sf),
            Kind::Os => Box::new(Os::new(OsParams::default())),
            Kind::Or { .. } => Box::new(Or::new(OrParams::default())),
            Kind::Sas { iterations } => Box::new(Sa::schedule(sa(iterations))),
            Kind::Sar { iterations } => Box::new(Sa::resources(sa(iterations))),
        }
    }

    pub fn budget(self) -> Budget {
        match self {
            Kind::Or { budget } => Budget::evals(budget),
            _ => Budget::UNLIMITED,
        }
    }
}

/// One job: a strategy on a pool instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    pub kind: Kind,
    pub instance: usize,
}

impl Job {
    /// The (strategy, instance, budget) key of the correctness gate.
    pub fn key(&self) -> String {
        format!(
            "{}:{}:{}",
            self.kind.label(),
            self.instance,
            self.kind.budget_label()
        )
    }
}

/// A generated instance pool.
#[derive(Debug)]
pub struct Pool {
    pub systems: Vec<Arc<System>>,
    /// The order the closed loops visit the pool: every run of `shapes`
    /// consecutive entries holds one instance of each shape, so any stretch
    /// of jobs sees the shapes in equal measure whatever the seed.
    pub order: Vec<usize>,
}

/// The instance shapes of a workload (generator seeds still unset) and the
/// number of instances of each.
fn shapes(workload: Workload) -> (Vec<GeneratorParams>, usize) {
    match workload {
        Workload::Anneal => {
            // Fig-9c systems: 160 processes, 10..50 inter-cluster messages,
            // half of them multi-rate {1, 2, 4}.
            let mut shapes = Vec::new();
            for multi in [false, true] {
                for messages in [10, 20, 30, 40, 50] {
                    let mut p = if multi {
                        GeneratorParams::multi_rate(4, 0)
                    } else {
                        GeneratorParams::paper_sized(4, 0)
                    };
                    p.inter_cluster_messages = Some(messages);
                    shapes.push(p);
                }
            }
            (shapes, 18)
        }
        Workload::Scan => {
            // Fig-9a-shape systems of 320 and 400 processes; the loaded
            // and multi-rate shapes start unschedulable under SF. Three of
            // the five shapes have 400 processes, so that the medians lie
            // inside the 400-process mode rather than between two modes.
            let mut loaded = GeneratorParams::paper_sized(8, 0);
            loaded.utilization_permille = 330;
            let mut loaded_large = GeneratorParams::paper_sized(10, 0);
            loaded_large.utilization_permille = 330;
            let mut multi = GeneratorParams::multi_rate(10, 0);
            multi.utilization_permille = 300;
            let shapes = vec![
                GeneratorParams::paper_sized(8, 0),
                loaded,
                GeneratorParams::paper_sized(10, 0),
                loaded_large,
                multi,
            ];
            (shapes, 8)
        }
        Workload::Serve => {
            // Short jobs on 80- and 160-process systems. SF's verdict is
            // fixed per shape (only the multi-rate one starts unschedulable),
            // so the share of jobs that never find a schedulable result, and
            // with it `first_sched_p50_ms`, does not depend on the seed.
            let mut small = GeneratorParams::paper_sized(2, 0);
            small.inter_cluster_messages = Some(10);
            let mut single = GeneratorParams::paper_sized(4, 0);
            single.inter_cluster_messages = Some(10);
            let mut multi = GeneratorParams::multi_rate(4, 0);
            multi.inter_cluster_messages = Some(30);
            let shapes = vec![GeneratorParams::paper_sized(2, 0), small, single, multi];
            (shapes, 24)
        }
    }
}

/// Generator parameters of every pool instance of `workload` for `seed`:
/// instance `r * shapes + s` is the `r`-th instance of shape `s`.
pub fn pool_params(workload: Workload, seed: u64) -> Vec<GeneratorParams> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0001);
    let (shapes, reps) = shapes(workload);
    let mut out = Vec::new();
    for _ in 0..reps {
        for shape in &shapes {
            out.push(GeneratorParams {
                seed: rng.gen_range(0..1_000_000_000u64),
                ..*shape
            });
        }
    }
    out
}

/// A seeded permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0002);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}

/// Generates the pool, timing each `generate` call through `timed`.
pub fn build_pool(
    workload: Workload,
    seed: u64,
    mut timed: impl FnMut(&GeneratorParams) -> System,
) -> Pool {
    let systems: Vec<Arc<System>> = pool_params(workload, seed)
        .iter()
        .map(|p| Arc::new(timed(p)))
        .collect();
    let (shapes, reps) = shapes(workload);
    let n = shapes.len();
    // Each shape visits its instances in its own seeded order.
    let per_shape: Vec<Vec<usize>> = (0..n)
        .map(|s| permutation(reps, seed.wrapping_add(s as u64)))
        .collect();
    let order = (0..reps)
        .flat_map(|r| per_shape.iter().enumerate().map(move |(s, p)| p[r] * n + s))
        .collect();
    Pool { systems, order }
}

/// Generates the pool without timing.
pub fn plain_pool(workload: Workload, seed: u64) -> Pool {
    build_pool(workload, seed, generate)
}

/// The `k`-th job of a workload. Each strategy walks the pool in the
/// seeded order with its own cursor, so every (strategy, instance) pair
/// recurs and every stretch of jobs sees the shapes in equal measure.
pub fn job_at(workload: Workload, pool: &Pool, k: usize) -> Job {
    let n = pool.order.len();
    match workload {
        // SAR and SAS alternate.
        Workload::Anneal => {
            let instance = pool.order[(k / 2) % n];
            let kind = if k.is_multiple_of(2) {
                Kind::Sar {
                    iterations: ANNEAL_ITERATIONS,
                }
            } else {
                Kind::Sas {
                    iterations: ANNEAL_ITERATIONS,
                }
            };
            Job { kind, instance }
        }
        // Three OS jobs, then one OR job.
        Workload::Scan => {
            if k % 4 == 3 {
                Job {
                    kind: Kind::Or {
                        budget: SCAN_OR_BUDGET,
                    },
                    instance: pool.order[(k / 4 + n / 2) % n],
                }
            } else {
                Job {
                    kind: Kind::Os,
                    instance: pool.order[(k - k / 4) % n],
                }
            }
        }
        // SF, SAS, OS, SAS in turn.
        Workload::Serve => {
            let (kind, cursor) = match k % 4 {
                0 => (Kind::Sf, k / 4),
                2 => (Kind::Os, k / 4 + n / 2),
                _ => (
                    Kind::Sas {
                        iterations: SERVE_SAS_ITERATIONS,
                    },
                    k / 2,
                ),
            };
            Job {
                kind,
                instance: pool.order[cursor % n],
            }
        }
    }
}

/// Every distinct job key a workload's pool can produce.
pub fn all_jobs(workload: Workload, pool: &Pool) -> Vec<Job> {
    let kinds: &[Kind] = match workload {
        Workload::Anneal => &[
            Kind::Sar {
                iterations: ANNEAL_ITERATIONS,
            },
            Kind::Sas {
                iterations: ANNEAL_ITERATIONS,
            },
        ],
        Workload::Scan => &[
            Kind::Os,
            Kind::Or {
                budget: SCAN_OR_BUDGET,
            },
        ],
        Workload::Serve => &[
            Kind::Sf,
            Kind::Os,
            Kind::Sas {
                iterations: SERVE_SAS_ITERATIONS,
            },
        ],
    };
    let mut jobs = Vec::new();
    for instance in 0..pool.systems.len() {
        for &kind in kinds {
            jobs.push(Job { kind, instance });
        }
    }
    jobs
}
