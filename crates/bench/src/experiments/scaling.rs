//! E16/E21: host-thread scaling and protocol overhead of the parallel
//! emulation backends.

use std::time::Instant;

use ttda_core::{EmuResult, Emulator, Program, RunMode, Value};
use ttda_sim::table::Table;
use ttda_workloads::{id, reference};

use super::section;

/// Runs `p` under `threads` workers `reps` times; returns the (identical)
/// result and the best wall-clock seconds observed.
fn best_of(p: &Program, threads: usize, inputs: &[Value], reps: u32) -> (EmuResult, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = Emulator::new(p)
            .with_threads(threads)
            .run(inputs)
            .expect("runs");
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    (result.expect("reps >= 1"), best)
}

/// Like [`best_of`] but with the run mode pinned explicitly, so the
/// measurement is immune to `TTDA_THREADS` / `TTDA_RELAXED` defaults.
fn best_of_mode(
    p: &Program,
    threads: usize,
    mode: RunMode,
    inputs: &[Value],
    reps: u32,
) -> (EmuResult, f64) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = Emulator::new(p)
            .with_threads(threads)
            .with_mode(mode)
            .run(inputs)
            .expect("runs");
        best = best.min(t0.elapsed().as_secs_f64());
        result = Some(r);
    }
    (result.expect("reps >= 1"), best)
}

/// E16: speedup vs worker count on the largest Id-compiled workloads.
///
/// The paper's Fig 3-1 development plan rests on an *emulation facility*
/// of "32 to 128 processors" precisely because a useful dataflow
/// emulator must itself run in parallel. This experiment drives the
/// emulator's sharded-wave backend (`Emulator::with_threads`) across
/// worker counts and checks the two properties that make such a facility
/// trustworthy: every run is **bit-identical** to the sequential
/// emulator (results, statistics, parallelism profile — asserted on the
/// full [`EmuResult`]), and wall-clock time falls as workers are added
/// *when the host has cores to give them*. On a single-core host the
/// table still regenerates, honestly showing overhead instead of
/// speedup; determinism is asserted regardless.
pub fn e16() -> String {
    let mut out = section(
        "e16",
        "Host-thread scaling of the parallel emulation backend",
        "\"The emulation facility consists of 32 to 128 processors\" (§3): parallel \
         emulation of the TTDA must preserve exact dataflow semantics while using \
         host processors to gain speed",
    );

    let norm = crate::normalized();
    if norm {
        out.push_str("host cores available: (normalized)\n\n");
    } else {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        out.push_str(&format!("host cores available: {host}\n\n"));
    }

    let cases: [(&str, &str, Vec<Value>, Value); 2] = [
        (
            "matmul",
            id::matmul(),
            vec![Value::Int(5)],
            Value::Int(reference::matmul_checksum(5)),
        ),
        (
            "wavefront",
            id::wavefront(),
            vec![Value::Int(12)],
            Value::Int(reference::wavefront_corner(12)),
        ),
    ];

    let mut t = Table::new(&[
        "workload",
        "threads",
        "best wall",
        "speedup vs 1",
        "identical to sequential",
    ]);
    for (name, src, inputs, expected) in cases {
        let p = ttda_idc::compile(src).expect("compiles");
        let (seq, base) = best_of(&p, 1, &inputs, 3);
        assert_eq!(seq.outputs[&0], expected, "{name} sequential answer");
        for threads in [1usize, 2, 4, 8] {
            let (r, secs) = best_of(&p, threads, &inputs, 3);
            // The whole result — outputs, instruction counts, peak
            // matching-store occupancy, wave-by-wave profile — must be
            // byte-identical to the sequential emulator's.
            assert_eq!(r, seq, "{name} at {threads} threads diverged");
            let (wall, speedup) = if norm {
                ("(normalized)".to_string(), "(normalized)".to_string())
            } else {
                (
                    format!("{:.1} ms", secs * 1e3),
                    format!("{:.2}x", base / secs),
                )
            };
            t.row_owned(vec![
                name.into(),
                threads.to_string(),
                wall,
                speedup,
                "true".into(),
            ]);
        }
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: every row's result is asserted bit-identical to the sequential\n\
         emulator — the parallel backend shards the waiting-matching store and\n\
         I-structure storage by activity-name hash but merges each wave in canonical\n\
         firing order, so host parallelism is invisible in everything except wall\n\
         time. Speedup columns are meaningful only when the host grants the worker\n\
         threads real cores; on a single-core host they honestly report the\n\
         sharding + merge overhead instead.\n",
    );
    out
}

/// The coordinator-overhead ratios the pre-decoordination protocol
/// (per-firing id round-trips to the coordinator, one cross-shard
/// message per structure op, idle shards waiting at the wave barrier)
/// measured on this repository's reference container, best-of-7,
/// immediately before the rewrite. Indexed by `[workload][threads ∈
/// {1, 2, 4}]`; the ratio is parallel-backend wall clock over the
/// sequential interpreter's on the same host, so it is comparable
/// across hosts in a way absolute times are not.
const LEGACY_OVERHEAD: [(&str, [f64; 3]); 2] = [
    ("matmul", [2.69, 3.22, 4.19]),
    ("wavefront", [3.12, 3.78, 4.87]),
];

/// E21: protocol overhead of the decoordinated backends, re-tabling
/// E16's workloads as honest overhead curves.
///
/// E16 reports speedup-vs-threads, which on a single-core host degrades
/// into noise around 1.0 with the overhead hidden in the baseline. This
/// experiment measures what the parallel protocols *cost*: wall clock
/// at each worker count over the same-run sequential interpreter
/// (lower is better; 1.0 means the backend is free). Three arms per
/// workload — the deterministic backend (leased id ranges, batched
/// shard traffic, work stealing, canonical-order merge), the relaxed
/// backend (no coordinator at all, outputs equal but merge order
/// unspecified), and the pre-decoordination protocol's ratios recorded
/// as constants before the rewrite. The claim under test: cutting the
/// coordinator out of the steady state is where the overhead goes —
/// the relaxed backend, which removes it entirely, must beat the old
/// protocol's 1-worker ratio by at least 15%, and on this container it
/// in fact sits near 1.0 (at times *below* — it also skips the wave
/// bookkeeping the sequential interpreter pays for).
pub fn e21() -> String {
    let mut out = section(
        "e21",
        "Coordinator overhead of the parallel backends",
        "\"the processors in the dataflow machine do not execute any synchronization \
         or scheduling code\" (§4): whatever coordination the *emulator* adds on top \
         of pure firing work is overhead the architecture exists to avoid, so the \
         backend must shed it",
    );
    let norm = crate::normalized();
    let cases: [(&str, &str, Vec<Value>, Value); 2] = [
        (
            "matmul",
            id::matmul(),
            vec![Value::Int(5)],
            Value::Int(reference::matmul_checksum(5)),
        ),
        (
            "wavefront",
            id::wavefront(),
            vec![Value::Int(12)],
            Value::Int(reference::wavefront_corner(12)),
        ),
    ];
    let mut t = Table::new(&["workload", "backend", "x1", "x2", "x4"]);
    let cell = |ratio: f64| {
        if norm {
            "(normalized)".to_string()
        } else {
            format!("{ratio:.2}x")
        }
    };
    for (name, src, inputs, expected) in cases {
        let p = ttda_idc::compile(src).expect("compiles");
        let (seq, base) = best_of_mode(&p, 1, RunMode::Sequential, &inputs, 5);
        assert_eq!(seq.outputs[&0], expected, "{name} sequential answer");
        let legacy = LEGACY_OVERHEAD
            .iter()
            .find(|(w, _)| *w == name)
            .map(|(_, r)| r)
            .expect("legacy constants cover every case");
        let mut det_row = vec![name.to_string(), "det".into()];
        let mut rel_row = vec![name.to_string(), "relaxed".into()];
        for threads in [1usize, 2, 4] {
            let (det, det_secs) = best_of_mode(&p, threads, RunMode::Deterministic, &inputs, 5);
            assert_eq!(det, seq, "{name} det at {threads} threads diverged");
            let (rel, rel_secs) = best_of_mode(&p, threads, RunMode::Relaxed, &inputs, 5);
            assert_eq!(rel.outputs, seq.outputs, "{name} relaxed outputs");
            assert_eq!(rel.instructions, seq.instructions, "{name} relaxed firings");
            let det_ratio = det_secs / base;
            let rel_ratio = rel_secs / base;
            if !norm && threads == 1 {
                // The decoordination claim, with margin for a noisy
                // shared host: removing the coordinator entirely
                // (relaxed) must beat the old protocol's 1-worker
                // overhead by >= 15%; the deterministic backend, which
                // keeps the canonical-order merge, must at least not
                // grossly regress the old ratio.
                assert!(
                    rel_ratio < 0.85 * legacy[0],
                    "{name}: relaxed 1-worker ratio {rel_ratio:.2} not below 0.85 x legacy {:.2}",
                    legacy[0]
                );
                assert!(
                    det_ratio < 1.75 * legacy[0],
                    "{name}: det 1-worker ratio {det_ratio:.2} above 1.75 x legacy {:.2}",
                    legacy[0]
                );
            }
            det_row.push(cell(det_ratio));
            rel_row.push(cell(rel_ratio));
        }
        t.row_owned(det_row);
        let mut legacy_row = vec![name.to_string(), "legacy".to_string()];
        legacy_row.extend(legacy.iter().map(|r| format!("{r:.2}x")));
        t.row_owned(legacy_row);
        t.row_owned(rel_row);
    }
    out.push_str(&t.to_string());
    out.push_str(
        "\nShape check: ratios are wall clock at 1, 2 and 4 workers over the same-run\n\
         sequential interpreter (lower is better; below 1.0x the backend beats it;\n\
         the legacy row is the pre-decoordination protocol measured on the reference\n\
         container before the rewrite). The deterministic rows show the price of the\n\
         bit-identical merge. The relaxed backend — no coordinator, no wave barrier,\n\
         no index-ordered merge, activities placed by context — needs no\n\
         synchronization per token, so given real cores its x2 column can drop below\n\
         the sequential interpreter. Outputs are asserted bit-identical (det) or\n\
         output-equal with confluent firing counts (relaxed) in every cell.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use ttda_core::{Emulator, Value};
    use ttda_workloads::{id, reference};

    #[test]
    fn parallel_backend_matches_sequential_on_every_workload() {
        let cases: Vec<(&str, Vec<Value>)> = vec![
            (id::fib(), vec![Value::Int(12)]),
            (id::producer_consumer(), vec![Value::Int(18)]),
            (id::relaxation(), vec![Value::Int(10)]),
            (id::matmul(), vec![Value::Int(4)]),
            (id::wavefront(), vec![Value::Int(8)]),
            (
                id::trapezoid(),
                vec![Value::Float(0.0), Value::Float(1.0), Value::Int(32)],
            ),
        ];
        for (src, inputs) in cases {
            let p = ttda_idc::compile(src).unwrap();
            let seq = Emulator::new(&p).run(&inputs).unwrap();
            for threads in [2usize, 4, 8] {
                let par = Emulator::new(&p)
                    .with_threads(threads)
                    .run(&inputs)
                    .unwrap();
                assert_eq!(par, seq, "threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_multiprogramming_matches_sequential() {
        let fib = ttda_idc::compile(id::fib()).unwrap();
        let pc = ttda_idc::compile(id::producer_consumer()).unwrap();
        let (merged, mains) = ttda_core::Program::merge(&[fib, pc], 8);
        let jobs = vec![
            ttda_core::Job::new(mains[0], vec![Value::Int(12)]),
            ttda_core::Job::new(mains[1], vec![Value::Int(20)]),
        ];
        let seq = Emulator::new(&merged).submit(&jobs).unwrap();
        assert_eq!(seq.outputs[&0], Value::Int(reference::fib(12)));
        assert_eq!(seq.outputs[&8], Value::Int(reference::square_sum(20)));
        for threads in [2usize, 4] {
            let par = Emulator::new(&merged)
                .with_threads(threads)
                .submit(&jobs)
                .unwrap();
            assert_eq!(par, seq, "threads={threads}");
        }
    }
}
