//! `mcs-lint` — the workspace's custom static-analysis pass.
//!
//! Every layer of this repository hangs off one contract: **seeded runs
//! are bit-identical and replayable**. The release-mode equivalence
//! suites enforce that *dynamically*, but a nondeterminism bug only
//! trips them when a seed happens to exercise it. This crate is the
//! *static* guard rail: a registry-free, token-level analyzer (no
//! `syn`, no rustc internals — the build environment has no registry
//! access, and token-level is all these rules need) that walks the
//! workspace and rejects determinism- and soundness-breaking constructs
//! at CI time, the same way `clippy -D warnings` already gates style.
//!
//! # The rules
//!
//! | rule | invariant |
//! |------|-----------|
//! | `wall-clock` | `Instant::now`/`SystemTime`/`.elapsed()` only in the serve/bench allowlist — analysis, simulation and search never read the host clock |
//! | `rng-discipline` | every RNG takes an explicit seed; no entropy constructors; no literal-only seeds inside rayon closures (each lane must derive its own) |
//! | `hash-order` | modules feeding reports/`json_line`/digests never iterate `HashMap`/`HashSet` unsorted |
//! | `panic-policy` | non-test library code in `crates/{model,ttp,can,core,sim}` returns structured errors instead of `unwrap`/`expect`/`panic!`/`unreachable!` |
//! | `float-reduction` | no `.sum()`/`.product()` inside parallel regions — reduction order breaks float bit-identity |
//!
//! # Suppression is explicit and auditable
//!
//! Two mechanisms, both reviewed in:
//!
//! * an inline marker on (or directly above) the offending line:
//!   `// mcs-lint: allow(<rule>) -- <reason>` — the reason is mandatory,
//!   a reasonless marker is itself a violation;
//! * a checked-in [`baseline`] (`lint.toml`) for bulk grandfathering,
//!   kept honest by `--stale-check` (an entry whose site no longer
//!   violates fails the build).
//!
//! # CI
//!
//! `cargo run -p mcs-lint -- --deny` gates every push ahead of the
//! equivalence suites; `--stale-check` keeps `lint.toml` shrinking. The
//! `selfcheck` integration test asserts the workspace is clean at
//! `--deny`, so plain `cargo test` catches violations before CI does.

pub mod baseline;
pub mod engine;
pub mod lexer;
pub mod rules;

pub use baseline::Baseline;
pub use engine::{check_file, check_workspace, Config, FileCtx, Violation, RULES};
