//! The four workloads: which programs a job list holds, which engine runs
//! them with every setting pinned, and the independent reference answer
//! each job is checked against.

use std::borrow::Cow;
use std::collections::HashMap;

use ttda_core::{
    Emulator, ExecError, MappingPolicy, Program, RunMode, SchedPolicy, StructPlacement,
    TimedConfig, TimedMachine, Value,
};
use ttda_net::{FabricConfig, Hypercube};
use ttda_sim::{Cycle, SimRng};
use ttda_workloads::fuzz::{Family, Scenario};
use ttda_workloads::{id, reference};

use crate::job::Counts;

/// Firing budget for the untimed engines (the emulator's own default,
/// pinned so it cannot drift with the library).
const EMU_FUEL: u64 = 100_000_000;

/// How many times each program type appears in an Id workload's job
/// list before it is shuffled; the timed loop cycles through the list.
const ROUNDS: usize = 64;

/// `compile-mix` jobs generated during set-up, with their reference
/// answers; later jobs are generated when they are due.
const PREPARED: u64 = 2000;

/// `compile-mix`'s program set for the deterministic counts: the first
/// `COUNT_SET` jobs of its sequence. Large enough that `sim_cycles`, a sum
/// over generated programs, moves little from one seed to the next.
const COUNT_SET: u64 = 8000;

/// The single-program fuzz families `compile-mix` draws from, in the
/// order the job list cycles through them.
const FAMILIES: [Family; 5] = [
    Family::Expr,
    Family::HotSkew,
    Family::DeferChain,
    Family::TagRecursion,
    Family::FanoutJoin,
];

/// One benchmark workload. See `e2ebench/README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Matmul, fib and trapezoid on the sequential emulator.
    EmuSeq,
    /// The identical job list on the relaxed engine with two workers.
    Relaxed2w,
    /// The Issue-2 programs on a 16-PE hypercube `TimedMachine`.
    TimedCube,
    /// Distinct generated programs; compile and optimize dominate.
    CompileMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::EmuSeq,
        Workload::Relaxed2w,
        Workload::TimedCube,
        Workload::CompileMix,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::EmuSeq => "emu-seq",
            Workload::Relaxed2w => "relaxed-2w",
            Workload::TimedCube => "timed-cube",
            Workload::CompileMix => "compile-mix",
        }
    }

    /// Parses [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The engine every job of this workload runs on.
    pub fn engine(self) -> Engine {
        match self {
            Workload::EmuSeq | Workload::CompileMix => Engine::Sequential,
            Workload::Relaxed2w => Engine::Relaxed { workers: 2 },
            Workload::TimedCube => Engine::Timed,
        }
    }

    /// The Id programs and sizes of an Id workload.
    fn id_programs(self) -> &'static [(&'static str, i64)] {
        match self {
            Workload::EmuSeq | Workload::Relaxed2w => {
                &[("matmul", 12), ("fib", 18), ("trapezoid", 2750)]
            }
            Workload::TimedCube => &[("wavefront", 24), ("fib", 16), ("matmul", 8)],
            Workload::CompileMix => &[],
        }
    }

    /// One pass over the workload's programs, in a fixed order: the
    /// deterministic counts and `sim_cycles` are summed over it. Jobs are
    /// made as the pass reaches them.
    pub fn program_set(self, seed: u64) -> impl Iterator<Item = Job> {
        let len = match self {
            Workload::CompileMix => COUNT_SET,
            _ => self.id_programs().len() as u64,
        };
        (0..len).map(move |i| match self {
            Workload::CompileMix => scenario_job(seed, i),
            _ => {
                let (program, n) = self.id_programs()[i as usize];
                id_job(program, n)
            }
        })
    }

    /// The jobs the timed loop runs. Id workloads cycle through a list
    /// holding each program type in equal shares, shuffled by `seed`.
    /// `compile-mix` job `i` comes from `(seed, i)`, so no two jobs share a
    /// generator seed: the first [`PREPARED`] are made here, the rest when
    /// they are due (its program set is jobs `0..COUNT_SET`).
    pub fn jobs(self, seed: u64) -> Jobs {
        match self {
            Workload::CompileMix => Jobs::Generated {
                seed,
                prepared: (0..PREPARED).map(|i| scenario_job(seed, i)).collect(),
            },
            _ => {
                let set: Vec<Job> = self.program_set(seed).collect();
                let mut jobs: Vec<Job> = (0..ROUNDS).flat_map(|_| set.iter().cloned()).collect();
                SimRng::seed(seed).shuffle(&mut jobs);
                Jobs::List(jobs)
            }
        }
    }

    /// One job per program type, run untimed before the first timed job.
    pub fn warmups(self, seed: u64) -> Vec<Job> {
        let types = match self {
            Workload::CompileMix => FAMILIES.len(),
            _ => self.id_programs().len(),
        };
        self.program_set(seed).take(types).collect()
    }
}

/// Where the timed loop takes its jobs from; see [`Workload::jobs`].
#[derive(Debug)]
pub enum Jobs {
    /// A fixed list, cycled.
    List(Vec<Job>),
    /// `compile-mix` scenarios: the first ones prepared, the rest
    /// generated on demand.
    Generated {
        /// The benchmark seed.
        seed: u64,
        /// Jobs `0..prepared.len()`.
        prepared: Vec<Job>,
    },
}

impl Jobs {
    /// Job number `i`.
    pub fn get(&self, i: u64) -> Cow<'_, Job> {
        match self {
            Jobs::List(list) => Cow::Borrowed(&list[(i % list.len() as u64) as usize]),
            Jobs::Generated { seed, prepared } => match prepared.get(i as usize) {
                Some(job) => Cow::Borrowed(job),
                None => Cow::Owned(scenario_job(*seed, i)),
            },
        }
    }
}

/// The independent answer a job's output slot 0 must hold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Expected {
    /// An exact integer.
    Int(i64),
    /// A float, equal up to a relative 1e-9.
    Float(f64),
}

impl Expected {
    /// `Ok` when `got` is the expected value.
    pub fn check(self, got: Option<&Value>) -> Result<(), String> {
        let ok = match (self, got) {
            (Expected::Int(want), Some(Value::Int(v))) => *v == want,
            (Expected::Float(want), Some(Value::Float(v))) => {
                (v - want).abs() <= 1e-9 * want.abs().max(1.0)
            }
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(format!("expected {self:?}, got {got:?}"))
        }
    }
}

/// One unit of work: a program, its inputs and its reference answer.
#[derive(Debug, Clone)]
pub struct Job {
    /// Program name (Id program or fuzz family).
    pub program: &'static str,
    /// The size argument (`n`, `k`), or for a generated program the
    /// scenario seed `Scenario::generate` takes.
    pub size: u64,
    /// Id source text.
    pub source: Cow<'static, str>,
    /// Inputs of `main`.
    pub inputs: Vec<Value>,
    /// Reference answer from `ttda_workloads::reference` or
    /// `Scenario::expected`, never from an engine.
    pub expected: Expected,
}

/// An Id program job with its closed-form reference.
fn id_job(program: &'static str, n: i64) -> Job {
    let (source, inputs, expected) = match program {
        "matmul" => (
            id::matmul(),
            vec![Value::Int(n)],
            Expected::Int(reference::matmul_checksum(n)),
        ),
        "fib" => (
            id::fib(),
            vec![Value::Int(n)],
            Expected::Int(reference::fib(n)),
        ),
        "trapezoid" => (
            id::trapezoid(),
            vec![Value::Float(0.0), Value::Float(1.0), Value::Int(n)],
            Expected::Float(reference::trapezoid(0.0, 1.0, n)),
        ),
        "wavefront" => {
            // The corner is C(2(n-1), n-1), which overflows i64 above 34.
            assert!(n <= 34, "wavefront n={n} overflows i64");
            (
                id::wavefront(),
                vec![Value::Int(n)],
                Expected::Int(reference::wavefront_corner(n)),
            )
        }
        other => unreachable!("no Id program {other}"),
    };
    Job {
        program,
        size: n as u64,
        source: Cow::Borrowed(source),
        inputs,
        expected,
    }
}

/// Job `i` of a `compile-mix` list: family `i mod 5`, scenario seed mixed
/// from the benchmark seed and `i`.
fn scenario_job(seed: u64, i: u64) -> Job {
    let family = FAMILIES[(i % FAMILIES.len() as u64) as usize];
    let scenario_seed = splitmix(seed ^ splitmix(i));
    let sc = Scenario::generate(family, scenario_seed);
    let source = sc.sources().swap_remove(0);
    let inputs = sc
        .inputs()
        .swap_remove(0)
        .into_iter()
        .map(Value::Int)
        .collect();
    Job {
        program: family.name(),
        size: scenario_seed,
        source: Cow::Owned(source),
        inputs,
        expected: Expected::Int(sc.expected()[0]),
    }
}

/// SplitMix64 finalizer: spreads consecutive integers over all 64 bits.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An engine with every setting pinned through the builder API, so the
/// `TTDA_THREADS`, `TTDA_RELAXED` and `TTDA_SCHED` defaults never apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Emulator`, `RunMode::Sequential`, one thread, FIFO.
    Sequential,
    /// `Emulator`, `RunMode::Relaxed`, `workers` threads, FIFO.
    Relaxed {
        /// Worker threads.
        workers: usize,
    },
    /// `TimedMachine` on `Hypercube::new(4)` with [`timed_config`].
    Timed,
}

/// The timed machine's configuration, every field spelled out.
pub fn timed_config() -> TimedConfig {
    TimedConfig {
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
    }
}

impl Engine {
    /// The span name of a run on this engine.
    pub fn span(self) -> &'static str {
        match self {
            Engine::Sequential => "emu.run",
            Engine::Relaxed { .. } => "relaxed.run",
            Engine::Timed => "timed.run",
        }
    }

    /// Every pinned setting, for the run's output.
    pub fn settings(self) -> String {
        match self {
            Engine::Sequential => format!(
                "Emulator mode=Sequential threads=1 sched=Fifo fuel={EMU_FUEL} loop_bound=none"
            ),
            Engine::Relaxed { workers } => format!(
                "Emulator mode=Relaxed threads={workers} sched=Fifo fuel={EMU_FUEL} loop_bound=none"
            ),
            Engine::Timed => format!("TimedMachine topology=Hypercube(4) {:?}", timed_config()),
        }
    }

    /// Runs `program` once; returns output slots and the engine's counts.
    pub fn run(
        self,
        program: Program,
        inputs: &[Value],
    ) -> Result<(HashMap<u32, Value>, Counts), ExecError> {
        let emulator = |mode, threads| {
            let r = Emulator::new(&program)
                .with_mode(mode)
                .with_threads(threads)
                .with_sched(SchedPolicy::Fifo)
                .with_fuel(EMU_FUEL)
                .run(inputs)?;
            let counts = Counts {
                firings: r.instructions,
                waves: r.waves,
                sim_cycles: r.waves,
                contexts: r.contexts as u64,
                matching_peak: r.peak_matching as u64,
                reads_immediate: r.istore_immediate,
                reads_deferred: r.istore_deferred,
                writes: r.istore_writes,
                peak_deferred: r.peak_deferred as u64,
                ..Counts::default()
            };
            Ok((r.outputs, counts))
        };
        match self {
            Engine::Sequential => emulator(RunMode::Sequential, 1),
            Engine::Relaxed { workers } => emulator(RunMode::Relaxed, workers),
            Engine::Timed => {
                let cube = Hypercube::new(4).expect("dimension 4 is valid");
                let r = TimedMachine::new(program, cube, timed_config()).run(inputs)?;
                let s = &r.stats;
                let counts = Counts {
                    firings: s.instructions,
                    sim_cycles: s.cycles.as_u64(),
                    contexts: s.contexts as u64,
                    matching_peak: s.peak_matching as u64,
                    reads_immediate: s.istore_immediate,
                    reads_deferred: s.istore_deferred,
                    writes: s.istore_writes,
                    alu_busy: s.alu_busy.as_u64(),
                    pe_cycles: s.cycles.as_u64() * s.pes as u64,
                    tokens_delivered: s.tokens_delivered,
                    tokens_remote: s.tokens_remote,
                    peak_queue: s.peak_queue as u64,
                    net_packets: s.net_packets,
                    net_hops: (s.net_mean_hops * s.net_packets as f64).round() as u64,
                    ..Counts::default()
                };
                Ok((r.outputs, counts))
            }
        }
    }
}
