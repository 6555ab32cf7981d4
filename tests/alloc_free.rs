//! The firing path allocates nothing in the steady state, and the
//! optimizer allocates little per instruction.
//!
//! A counting `#[global_allocator]` measures whole engine runs: building
//! the engine, every firing, and the result. Each program fires tens of
//! thousands of instructions, so an allocation per firing would exceed
//! its pinned ceiling many times over. What may still allocate — per run,
//! per structure, or as a table grows — is listed in DESIGN.md under
//! "Firing-path allocation contract". The same counter measures `O2` plus
//! criticality annotation over generated programs (DESIGN.md §14).
//!
//! This file holds a single `#[test]` on purpose: the counter is
//! process-wide, and a second test running on another thread would
//! pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use ttda::core::opt::{annotate_criticality, optimize_at, OptLevel};
use ttda::core::{
    Emulator, MappingPolicy, Program, RunMode, SchedPolicy, StructPlacement, TimedConfig,
    TimedMachine, Value,
};
use ttda::net::{FabricConfig, Hypercube};
use ttda::sim::Cycle;
use ttda::workloads::fuzz::{Family, Scenario};
use ttda::workloads::{id, reference};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to [`System`], counting `alloc`, `alloc_zeroed` and `realloc`.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Compiles `src` the way the end-to-end benchmark does: O2, then
/// criticality annotation.
fn compile(src: &str) -> Program {
    let p = ttda::idc::compile(src).expect("compiles");
    let (mut p, _) = optimize_at(&p, OptLevel::O2);
    annotate_criticality(&mut p);
    p
}

/// Runs `f`, returning its result and the heap allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let r = f();
    (r, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[test]
fn engines_allocate_per_run_not_per_firing() {
    // (name, source, inputs, expected output, firings floor, allocation
    // ceiling). Each ceiling is over twice the count measured when it was
    // pinned: 121 for fib, 52 for trapezoid and 145 for matmul, against
    // 54 347, 60 516 and 60 699 firings.
    let ints = |n: i64| vec![Value::Int(n)];
    let emu_cases = [
        (
            "fib k=18",
            id::fib(),
            ints(18),
            Value::Int(reference::fib(18)),
            50_000,
            300,
        ),
        (
            "trapezoid n=2750",
            id::trapezoid(),
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(2750)],
            Value::Float(reference::trapezoid(0.0, 1.0, 2750)),
            50_000,
            150,
        ),
        (
            "matmul n=12",
            id::matmul(),
            ints(12),
            Value::Int(reference::matmul_checksum(12)),
            50_000,
            400,
        ),
    ];
    for (name, src, inputs, want, min_firings, ceiling) in emu_cases {
        let p = compile(src);
        let (r, allocs) = counted(|| {
            Emulator::new(&p)
                .with_mode(RunMode::Sequential)
                .with_threads(1)
                .with_sched(SchedPolicy::Fifo)
                .run(&inputs)
                .expect("runs")
        });
        assert_eq!(r.outputs[&0], want, "{name}");
        assert!(r.instructions >= min_firings, "{name}: {}", r.instructions);
        assert!(
            allocs <= ceiling,
            "{name}: sequential emulator made {allocs} allocations for {} firings \
             (ceiling {ceiling})",
            r.instructions
        );
    }

    // The timed machine: a 16-PE hypercube, every setting pinned. The
    // ceiling is over twice the 306 allocations measured for 20 755
    // firings when it was pinned.
    let p = compile(id::fib());
    let config = TimedConfig {
        match_time: Cycle(1),
        alu_time: Cycle(1),
        output_time: Cycle(1),
        istore_access: Cycle(4),
        local_delay: Cycle(1),
        mapping: MappingPolicy::ByIteration,
        match_capacity: 0,
        match_overflow_penalty: Cycle(4),
        placement: StructPlacement::Interleaved,
        sched: SchedPolicy::Fifo,
        fabric: FabricConfig::bit_serial_4mbs(),
        max_cycles: Cycle(100_000_000),
        fuel: 50_000_000,
    };
    let (r, allocs) = counted(|| {
        let cube = Hypercube::new(4).expect("dimension 4 is valid");
        TimedMachine::new(p, cube, config)
            .run(&ints(16))
            .expect("runs")
    });
    assert_eq!(r.outputs[&0], Value::Int(reference::fib(16)));
    assert!(r.stats.instructions >= 20_000, "{}", r.stats.instructions);
    assert!(
        allocs <= 800,
        "fib k=16: timed machine made {allocs} allocations for {} firings (ceiling 800)",
        r.stats.instructions
    );

    // The optimizer: `O2` plus criticality annotation, the compile half of
    // an end-to-end job, over generated programs from the five
    // single-program fuzz families in equal numbers, as the `compile-mix`
    // benchmark draws them. A per-instruction `String`, `Vec` or map in
    // the passes or their analyses costs at least one allocation per
    // instruction per fixpoint round and breaks the ceiling of 2 per
    // compiled instruction. When it was pinned the set measured 1.3: each
    // block's `dests` lists are cloned once (about 0.9), and the rest is
    // per block and per run (scratch buffers, output vectors), so small
    // programs sit above the mean and large ones below it.
    let families = [
        Family::Expr,
        Family::HotSkew,
        Family::DeferChain,
        Family::TagRecursion,
        Family::FanoutJoin,
    ];
    let programs: Vec<Program> = families
        .iter()
        .flat_map(|&family| {
            (0..24).flat_map(move |seed| Scenario::generate(family, seed).sources())
        })
        .map(|src| ttda::idc::compile(&src).expect("generated programs compile"))
        .collect();
    let instrs: usize = programs.iter().map(Program::instr_count).sum();
    let ((), allocs) = counted(|| {
        for p in &programs {
            let (mut q, _) = optimize_at(p, OptLevel::O2);
            annotate_criticality(&mut q);
            std::hint::black_box(&q);
        }
    });
    assert!(
        allocs <= 2 * instrs as u64,
        "O2 + criticality made {allocs} allocations for {instrs} compiled instructions \
         in {} programs (ceiling 2 per instruction)",
        programs.len()
    );
}
