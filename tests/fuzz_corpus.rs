//! Replays the pinned differential-fuzz corpus on every test run.
//!
//! `tests/fuzz_regressions.txt` pins `(family, seed)` pairs — scenarios
//! that once diverged, or that cover regimes worth permanent watch. Each
//! is regenerated from its pair and judged by the full cross-engine
//! oracle (sequential emulator, parallel backend at 2/4/8 threads, timed
//! machine, optimizing compiler, reference answers), once with every
//! engine scheduling FIFO and once criticality-first. This is the
//! PR-time arm of the fuzzer; the open-ended hunt runs nightly via
//! `ttda-bench fuzz`.

use ttda::core::SchedPolicy;
use ttda::workloads::fuzz::{self, run_scenario, Family, Outcome, Scenario};

const CORPUS: &str = include_str!("fuzz_regressions.txt");

fn corpus() -> Vec<(Family, u64)> {
    fuzz::parse_corpus(CORPUS)
        .unwrap_or_else(|(line, msg)| panic!("fuzz_regressions.txt line {line}: {msg}"))
}

#[test]
fn corpus_is_large_and_diverse_enough() {
    let corpus = corpus();
    assert!(
        corpus.len() >= 20,
        "pinned corpus shrank below 20 scenarios ({})",
        corpus.len()
    );
    let families: std::collections::HashSet<_> = corpus.iter().map(|(f, _)| *f).collect();
    assert!(
        families.len() >= 4,
        "pinned corpus covers only {} generator families",
        families.len()
    );
}

#[test]
fn every_pinned_scenario_agrees_across_engines() {
    for sched in [SchedPolicy::Fifo, SchedPolicy::Crit] {
        for (family, seed) in corpus() {
            let sc = Scenario::generate(family, seed);
            let outcome = run_scenario(&sc, sched);
            assert!(
                !outcome.is_divergence(),
                "pinned scenario {family} seed {seed} ({sched}) diverged:\n{outcome}\nspec: {:#?}",
                sc.spec
            );
            // Pinned scenarios are also expected to run cleanly — an
            // agree-on-error or fuel exhaustion here means a generator
            // regression changed what the seed produces.
            assert!(
                matches!(outcome, Outcome::Agree),
                "pinned scenario {family} seed {seed} ({sched}) no longer runs clean: {outcome}"
            );
        }
    }
}

#[test]
fn replay_matches_generation_byte_for_byte() {
    // The corpus contract: a pinned pair regenerates the identical
    // scenario forever. Guard the generator against accidental drift —
    // any intentional change to generation must version the corpus.
    for (family, seed) in corpus() {
        let a = Scenario::generate(family, seed);
        let b = Scenario::generate(family, seed);
        assert_eq!(a, b, "{family} seed {seed} did not replay identically");
    }
}
