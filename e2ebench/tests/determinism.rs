//! Runs the benchmark binary at a reduced length and checks what must
//! repeat exactly: every deterministic per-layer count and `sim_cycles`,
//! across two runs with one seed and under the `TTDA_*` environment
//! variables the library reads. Quickest under `cargo test --release`.

use std::collections::BTreeMap;
use std::process::Command;

/// Per-layer counts that repeat exactly on the deterministic engines.
const DETERMINISTIC: &[&str] = &[
    "idc.instrs",
    "opt.instrs",
    "opt.rewrites",
    "opt.allocs",
    "machine.firings",
    "machine.allocs",
    "machine.contexts",
    "emu.waves",
    "matching.peak",
    "istore.reads_immediate",
    "istore.reads_deferred",
    "istore.writes",
    "istore.peak_deferred",
    "timed.alu_util",
    "timed.remote_ratio",
    "timed.peak_queue",
    "net.packets",
    "net.mean_hops",
];

/// Counts the relaxed engine must share with the sequential one on the
/// same programs (dataflow confluence); the rest depend on the schedule.
const CONFLUENT: &[&str] = &[
    "idc.instrs",
    "opt.instrs",
    "opt.rewrites",
    "opt.allocs",
    "machine.firings",
    "machine.contexts",
    "istore.writes",
];

type Metrics = BTreeMap<String, f64>;

/// Runs one workload and returns its result line's metrics, after
/// checking that every job was correct.
fn run(workload: &str, seed: u64, trace: bool, env: &[(&str, &str)]) -> Metrics {
    let out = Command::new(env!("CARGO_BIN_EXE_e2ebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.3", "--trace", if trace { "1" } else { "0" }])
        .env_remove("TTDA_THREADS")
        .env_remove("TTDA_RELAXED")
        .env_remove("TTDA_SCHED")
        .envs(env.iter().copied())
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
        "{workload} seed {seed}: {stdout}"
    );
    let body = &line[line.find("\"metrics\": {").expect("metrics") + 12..];
    body.split("}, ")
        .map(|entry| {
            let (name, rest) = entry
                .split_once("\": {\"value\": ")
                .expect("name and value");
            let value = rest.split(',').next().expect("value").parse();
            (
                name.trim_start_matches('"').to_string(),
                value.expect("a number"),
            )
        })
        .collect()
}

/// The deterministic counts of one workload plus its `sim_cycles`.
fn counts(workload: &str, seed: u64, env: &[(&str, &str)]) -> Metrics {
    let mut m = run(workload, seed, true, env);
    m.retain(|name, _| DETERMINISTIC.contains(&name.as_str()));
    assert_eq!(m.len(), DETERMINISTIC.len(), "{workload}: {m:?}");
    let sim_cycles = run(workload, seed, false, env)["sim_cycles"];
    assert!(sim_cycles > 0.0);
    m.insert("sim_cycles".into(), sim_cycles);
    m
}

fn confluent(m: &Metrics) -> Metrics {
    let mut m = m.clone();
    m.retain(|name, _| CONFLUENT.contains(&name.as_str()) || name == "sim_cycles");
    m
}

#[test]
fn the_same_seed_repeats_every_count() {
    for workload in ["emu-seq", "timed-cube", "compile-mix"] {
        assert_eq!(
            counts(workload, 3, &[]),
            counts(workload, 3, &[]),
            "{workload}"
        );
    }
    // The relaxed engine's outputs are checked against the same references
    // (a wrong one fails `run`); its confluent counts equal sequential's.
    let sequential = confluent(&counts("emu-seq", 3, &[]));
    for _ in 0..2 {
        assert_eq!(confluent(&counts("relaxed-2w", 3, &[])), sequential);
    }
}

const TTDA_ENV: [(&str, &str); 3] = [
    ("TTDA_THREADS", "4"),
    ("TTDA_RELAXED", "1"),
    ("TTDA_SCHED", "crit"),
];

fn split_allocs(m: Metrics) -> (Metrics, Metrics) {
    m.into_iter()
        .partition(|(name, _)| !name.ends_with(".allocs"))
}

#[test]
fn ttda_environment_variables_change_no_work_count() {
    for workload in ["emu-seq", "timed-cube", "compile-mix"] {
        assert_eq!(
            split_allocs(counts(workload, 4, &TTDA_ENV)).0,
            split_allocs(counts(workload, 4, &[])).0,
            "{workload}"
        );
    }
    assert_eq!(
        confluent(&counts("relaxed-2w", 4, &TTDA_ENV)),
        confluent(&counts("relaxed-2w", 4, &[])),
    );
}

/// Fails while `Emulator::new` reads `TTDA_*` itself: each variable that
/// is set costs the engine call an allocation for its value (five per
/// emulator job), although the pinned builder settings override them.
#[test]
fn ttda_environment_variables_change_no_allocation_count() {
    for workload in ["emu-seq", "timed-cube", "compile-mix"] {
        assert_eq!(
            split_allocs(counts(workload, 5, &TTDA_ENV)).1,
            split_allocs(counts(workload, 5, &[])).1,
            "{workload}"
        );
    }
}
