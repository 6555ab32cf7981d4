//! End-to-end tests for the decoordinated backends: work stealing on
//! the deterministic wave backend, and the relaxed backend's
//! output-equality contract on real workloads.

use ttda::core::{Emulator, ExecError, GraphBuilder, OpCode, Program, RunMode, Value};
use ttda::sim::{SimRng, Zipf};
use ttda::trace::{shared, CountingSink};

fn counting(sink: &ttda::trace::SharedSink) -> std::cell::Ref<'_, CountingSink> {
    std::cell::Ref::map(sink.borrow(), |s| {
        s.as_any()
            .downcast_ref::<CountingSink>()
            .expect("counting sink")
    })
}

/// A wide fan-out of independent `Identity` chains whose depths follow
/// a Zipf law: most chains run the full depth, a skewed tail quits
/// early. Every wave is hundreds of firings wide, so whichever worker
/// the scheduler favors drains its shard's queue and turns thief while
/// the others still hold work — the regime the steal path exists for.
fn skewed_chains(width: usize, max_depth: usize, seed: u64) -> Program {
    let mut g = GraphBuilder::new("chains");
    let x = g.param();
    let out = g.output(0);
    g.wire(x, out, 0);
    let mut rng = SimRng::seed(seed);
    let zipf = Zipf::new(max_depth, 1.2);
    for _ in 0..width {
        let depth = max_depth - zipf.sample(&mut rng);
        let mut prev = x;
        for _ in 0..depth {
            let n = g.instr(OpCode::Identity);
            g.wire(prev, n, 0);
            prev = n;
        }
        let sink = g.instr(OpCode::Sink);
        g.wire(prev, sink, 0);
    }
    g.finish_program().expect("chain program builds")
}

#[test]
fn work_stealing_fires_on_a_skewed_wide_program_and_preserves_results() {
    let p = skewed_chains(4096, 16, 0xC0FFEE);
    let seq = Emulator::new(&p)
        .with_mode(RunMode::Sequential)
        .run(&[Value::Int(7)])
        .expect("sequential run");
    // Whether a steal happens in a given run depends on host scheduling
    // (a worker must catch a peer mid-queue), so retry a few times; what
    // must hold on *every* run is bit-identity with the sequential
    // result, stolen firings included.
    let mut stole = 0;
    for _ in 0..20 {
        let sink = shared(CountingSink::new());
        let par = Emulator::new(&p)
            .with_threads(4)
            .with_mode(RunMode::Deterministic)
            .with_sink(sink.clone())
            .run(&[Value::Int(7)])
            .expect("parallel run");
        assert_eq!(par, seq, "a stolen firing changed the result");
        stole = counting(&sink).metrics().counter_value("work_steal");
        if stole > 0 {
            break;
        }
    }
    assert!(
        stole > 0,
        "no work-steal event in 20 runs of a 4096-wide skewed program"
    );
}

#[test]
fn relaxed_matches_sequential_outputs_on_workloads() {
    // Real workloads with loops, calls and I-structure traffic: the
    // relaxed backend must agree on outputs and the confluent counters
    // at every width, while waves/profile are legitimately absent.
    let cases: [(&str, String, Vec<Value>); 3] = [
        (
            "producer_consumer",
            ttda::workloads::id::producer_consumer().to_string(),
            vec![Value::Int(24)],
        ),
        (
            "trapezoid",
            ttda::workloads::id::trapezoid().to_string(),
            vec![Value::Int(1), Value::Int(9), Value::Int(64)],
        ),
        (
            "request_dag",
            ttda::workloads::id::request_dag(8, 4),
            vec![Value::Int(3)],
        ),
    ];
    for (name, src, inputs) in &cases {
        let p = ttda::idc::compile(src).expect("workload compiles");
        let seq = Emulator::new(&p)
            .with_mode(RunMode::Sequential)
            .run(inputs)
            .unwrap_or_else(|e| panic!("{name}: sequential run failed: {e}"));
        for threads in [1usize, 2, 4, 8] {
            let rel = Emulator::new(&p)
                .with_threads(threads)
                .relaxed()
                .run(inputs)
                .unwrap_or_else(|e| panic!("{name}: relaxed run failed: {e}"));
            assert_eq!(rel.outputs, seq.outputs, "{name} threads={threads}");
            assert_eq!(
                rel.instructions, seq.instructions,
                "{name} threads={threads}"
            );
            assert_eq!(rel.alu_ops, seq.alu_ops, "{name} threads={threads}");
            assert_eq!(rel.contexts, seq.contexts, "{name} threads={threads}");
            assert_eq!(
                rel.istore_writes, seq.istore_writes,
                "{name} threads={threads}"
            );
            assert_eq!(
                rel.istore_immediate + rel.istore_deferred,
                seq.istore_immediate + seq.istore_deferred,
                "{name} threads={threads}: total reads must be confluent"
            );
            assert_eq!(rel.waves, 0, "relaxed runs report no waves");
            assert!(rel.profile.is_empty(), "relaxed runs report no profile");
        }
    }
}

#[test]
fn relaxed_runs_out_of_fuel_like_sequential() {
    let p = ttda::idc::compile(ttda::workloads::id::producer_consumer()).unwrap();
    for threads in [1usize, 4] {
        let rel = Emulator::new(&p)
            .with_threads(threads)
            .relaxed()
            .with_fuel(10)
            .run(&[Value::Int(24)]);
        assert_eq!(rel, Err(ExecError::OutOfFuel), "threads={threads}");
    }
}

#[test]
fn relaxed_reports_deadlocks_with_the_exact_stranded_count() {
    // A two-input add whose second operand never arrives: the token
    // parks in the waiting–matching section forever. The stranded count
    // at quiescence is a property of the program, not the schedule, so
    // relaxed mode must report exactly the sequential number.
    let mut g = GraphBuilder::new("stuck");
    let a = g.param();
    let add = g.instr(OpCode::Alu(ttda::core::AluOp::Add));
    let out = g.output(0);
    g.wire(a, add, 0).wire(add, out, 0);
    let p = g.finish_program().expect("builds");
    let seq = Emulator::new(&p)
        .with_mode(RunMode::Sequential)
        .run(&[Value::Int(1)]);
    assert_eq!(seq, Err(ExecError::Deadlock { stranded: 1 }));
    for threads in [1usize, 4] {
        let rel = Emulator::new(&p)
            .with_threads(threads)
            .relaxed()
            .run(&[Value::Int(1)]);
        assert_eq!(rel, seq, "threads={threads}");
    }
}

#[test]
fn loop_bound_overrides_relaxed_mode() {
    // k-bounded loop scheduling is a global order-sensitive fixpoint;
    // it always runs on the sequential engine, even when the caller (or
    // the TTDA_RELAXED environment) asked for the relaxed backend. The
    // tell: a k-bounded run still reports its wave profile.
    let p = ttda::idc::compile(ttda::workloads::id::trapezoid()).unwrap();
    let inputs = [Value::Int(1), Value::Int(9), Value::Int(64)];
    let plain = Emulator::new(&p)
        .with_loop_bound(2)
        .run(&inputs)
        .expect("k-bounded run");
    let forced = Emulator::new(&p)
        .with_loop_bound(2)
        .with_threads(4)
        .relaxed()
        .run(&inputs)
        .expect("k-bounded run ignores relaxed");
    assert_eq!(forced, plain);
    assert!(forced.waves > 0, "k-bounded runs keep their wave profile");
}

#[test]
fn relaxed_traces_conserve_tokens() {
    // Relaxed traces carry no ordering promise, but the ledger must
    // still balance: every emitted token is consumed by quiescence and
    // deferred reads all drain.
    let p = ttda::idc::compile(ttda::workloads::id::producer_consumer()).unwrap();
    let sink = shared(CountingSink::new());
    let r = Emulator::new(&p)
        .with_threads(4)
        .relaxed()
        .with_sink(sink.clone())
        .run(&[Value::Int(24)])
        .expect("relaxed traced run");
    assert!(!r.outputs.is_empty());
    let c = counting(&sink);
    assert!(c.tokens_emitted() > 0);
    assert!(
        c.token_conservation_holds(),
        "tokens emitted ({}) != consumed ({}) + in flight ({:?})",
        c.tokens_emitted(),
        c.tokens_consumed(),
        c.in_flight_at_halt()
    );
    assert_eq!(c.deferred_outstanding(), 0);
    assert!(c.quiescent());
}

/// The fuel contract is exact at every width: a budget of exactly the
/// sequential firing count succeeds, one less runs out. Relaxed workers
/// publish their firings in batches, so this pins down that batching
/// never lets a run finish over budget nor fail within it.
#[test]
fn relaxed_fuel_boundary_is_exact() {
    let cases: [(&str, &str, Vec<Value>); 3] = [
        ("fib", ttda::workloads::id::fib(), vec![Value::Int(12)]),
        (
            "trapezoid",
            ttda::workloads::id::trapezoid(),
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(300)],
        ),
        ("matmul", ttda::workloads::id::matmul(), vec![Value::Int(5)]),
    ];
    for (name, src, inputs) in &cases {
        let p = ttda::idc::compile(src).expect("workload compiles");
        let seq = Emulator::new(&p)
            .with_mode(RunMode::Sequential)
            .run(inputs)
            .unwrap_or_else(|e| panic!("{name}: sequential run failed: {e}"));
        let need = seq.instructions;
        for threads in [1usize, 2, 4] {
            let relaxed = |fuel: u64| {
                Emulator::new(&p)
                    .with_threads(threads)
                    .relaxed()
                    .with_fuel(fuel)
                    .run(inputs)
            };
            let ok = relaxed(need)
                .unwrap_or_else(|e| panic!("{name} threads={threads}: fuel={need} failed: {e}"));
            assert_eq!(ok.outputs, seq.outputs, "{name} threads={threads}");
            assert_eq!(ok.instructions, need, "{name} threads={threads}");
            assert_eq!(
                relaxed(need - 1),
                Err(ExecError::OutOfFuel),
                "{name} threads={threads}: fuel={}",
                need - 1
            );
        }
    }
}

/// Placing by context puts the whole `trapezoid` loop on one worker,
/// while the `f(x)` calls it spawns land on both. Without the periodic
/// inbox drain that worker runs its `x` chain to the end before it reads
/// a single returned `f(x)`, parking about `2n` half-matched joins. The
/// drain bounds that backlog; scheduling noise can still inflate one
/// run, hence the best of five.
#[test]
fn relaxed_backlog_stays_bounded_on_a_long_loop() {
    let n = 2750i64;
    let p = ttda::idc::compile(ttda::workloads::id::trapezoid()).expect("trapezoid compiles");
    let inputs = [Value::Float(0.0), Value::Float(1.0), Value::Int(n)];
    let peak = (0..5)
        .map(|_| {
            Emulator::new(&p)
                .with_threads(2)
                .relaxed()
                .run(&inputs)
                .expect("relaxed trapezoid")
                .peak_matching
        })
        .min()
        .expect("five runs");
    assert!(
        (peak as i64) < n / 2,
        "best-of-5 peak_matching {peak} on trapezoid n={n}"
    );
}

/// A submission with no jobs has no seed tokens, so no worker ever sees
/// work or a hold to release: the run must still end, empty.
#[test]
fn relaxed_submit_with_no_jobs_ends_at_once() {
    use ttda::core::Machine;
    let p = ttda::idc::compile(ttda::workloads::id::fib()).unwrap();
    let seq = Machine::submit(&mut Emulator::new(&p).with_mode(RunMode::Sequential), &[]);
    for threads in [1usize, 2, 4] {
        let rel = Machine::submit(&mut Emulator::new(&p).with_threads(threads).relaxed(), &[])
            .expect("empty relaxed submission");
        assert!(rel.outputs.is_empty(), "threads={threads}");
        assert_eq!(rel.instructions, 0, "threads={threads}");
    }
    assert!(seq.expect("empty sequential submission").outputs.is_empty());
}
