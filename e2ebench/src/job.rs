//! One job through the whole pipeline — `ttda_idc::compile`,
//! `opt::optimize_at(.., O2)`, `opt::annotate_criticality`, one engine
//! run, the answer check — with each public call timed from outside as a
//! span when tracing is on, and the layers' counts collected.

use std::time::{Duration, Instant};

use ttda_core::opt::{annotate_criticality, optimize_at, OptLevel, OptStats};

use crate::alloc::allocations;
use crate::workload::{Engine, Job};

/// Per-layer work counts. For one job they come from that job's calls;
/// [`Counts::add`] folds jobs together (sums, and maxima for peaks).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Instructions `compile` emitted.
    pub idc_instrs: u64,
    /// Instructions left after O2.
    pub opt_instrs: u64,
    /// Rewrites O2 applied (every `OptStats` counter).
    pub opt_rewrites: u64,
    /// Allocations during `optimize_at` and `annotate_criticality`.
    pub opt_allocs: u64,
    /// Allocations during the engine run.
    pub machine_allocs: u64,
    /// Instruction firings.
    pub firings: u64,
    /// Emulator waves (0 on engines without a wave clock).
    pub waves: u64,
    /// Modelled makespan: timed cycles, or waves on the emulator.
    pub sim_cycles: u64,
    /// Contexts allocated.
    pub contexts: u64,
    /// Peak waiting–matching occupancy (max over jobs).
    pub matching_peak: u64,
    /// I-structure reads satisfied at once.
    pub reads_immediate: u64,
    /// I-structure reads deferred.
    pub reads_deferred: u64,
    /// I-structure writes.
    pub writes: u64,
    /// Peak outstanding deferred reads (max over jobs; emulator only).
    pub peak_deferred: u64,
    /// Timed: summed ALU-busy cycles.
    pub alu_busy: u64,
    /// Timed: cycles × PEs.
    pub pe_cycles: u64,
    /// Timed: tokens delivered to PE queues.
    pub tokens_delivered: u64,
    /// Timed: tokens that crossed the network.
    pub tokens_remote: u64,
    /// Timed: peak PE input-queue depth (max over jobs).
    pub peak_queue: u64,
    /// Timed: network packets.
    pub net_packets: u64,
    /// Timed: hops over all packets.
    pub net_hops: u64,
}

impl Counts {
    /// Folds `o` into `self`.
    pub fn add(&mut self, o: &Counts) {
        self.idc_instrs += o.idc_instrs;
        self.opt_instrs += o.opt_instrs;
        self.opt_rewrites += o.opt_rewrites;
        self.opt_allocs += o.opt_allocs;
        self.machine_allocs += o.machine_allocs;
        self.firings += o.firings;
        self.waves += o.waves;
        self.sim_cycles += o.sim_cycles;
        self.contexts += o.contexts;
        self.matching_peak = self.matching_peak.max(o.matching_peak);
        self.reads_immediate += o.reads_immediate;
        self.reads_deferred += o.reads_deferred;
        self.writes += o.writes;
        self.peak_deferred = self.peak_deferred.max(o.peak_deferred);
        self.alu_busy += o.alu_busy;
        self.pe_cycles += o.pe_cycles;
        self.tokens_delivered += o.tokens_delivered;
        self.tokens_remote += o.tokens_remote;
        self.peak_queue = self.peak_queue.max(o.peak_queue);
        self.net_packets += o.net_packets;
        self.net_hops += o.net_hops;
    }
}

fn rewrites(s: &OptStats) -> u64 {
    (s.identities_collapsed
        + s.dead_removed
        + s.consts_folded
        + s.switches_resolved
        + s.algebraic_applied
        + s.cse_merged
        + s.loops_unrolled
        + s.loops_peeled) as u64
}

/// One recorded call: which job, which layer, when (from the log's
/// epoch).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Job id; every span of a job shares it.
    pub job: u64,
    /// `job` for the root, else the layer call.
    pub name: &'static str,
    /// Start, from the log's epoch.
    pub start: Duration,
    /// End, from the log's epoch.
    pub end: Duration,
}

/// Spans kept in memory until the run ends. A job's children are pushed
/// before its root `job` span; children never overlap.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps start now.
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Each span's job, name and self time: its duration minus the part
    /// its children cover (only `job` has children).
    pub fn self_times(&self) -> Vec<(u64, &'static str, Duration)> {
        let mut out = Vec::with_capacity(self.spans.len());
        let mut children = Duration::ZERO;
        for s in &self.spans {
            let d = s.end - s.start;
            if s.name == "job" {
                out.push((s.job, "job", d.saturating_sub(children)));
                children = Duration::ZERO;
            } else {
                out.push((s.job, s.name, d));
                children += d;
            }
        }
        out
    }
}

/// Times a closure as a span of `job` when a log is attached.
struct Recorder<'a> {
    log: Option<&'a mut SpanLog>,
    job: u64,
}

impl Recorder<'_> {
    fn now(&self) -> Duration {
        self.log
            .as_ref()
            .map_or(Duration::ZERO, |l| l.epoch.elapsed())
    }

    fn push(&mut self, name: &'static str, start: Duration) {
        let end = self.now();
        if let Some(log) = self.log.as_deref_mut() {
            log.spans.push(Span {
                job: self.job,
                name,
                start,
                end,
            });
        }
    }

    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.log.is_none() {
            return f();
        }
        let start = self.now();
        let out = f();
        self.push(name, start);
        out
    }
}

/// What one job did.
#[derive(Debug)]
pub struct Outcome {
    /// `Err` says why the job failed: an error from a layer, or a wrong
    /// answer.
    pub verdict: Result<(), String>,
    /// The layers' counts for this job (partial when it failed early).
    pub counts: Counts,
    /// Host time of the engine call.
    pub run_time: Duration,
}

/// Runs `job` on `engine`, recording spans into `log` under id `id` when
/// given.
pub fn run_job(job: &Job, engine: Engine, log: Option<&mut SpanLog>, id: u64) -> Outcome {
    let mut rec = Recorder { log, job: id };
    let start = rec.now();
    let mut counts = Counts::default();
    let mut run_time = Duration::ZERO;
    let verdict = (|| {
        let program = rec
            .span("idc.compile", || ttda_idc::compile(&job.source))
            .map_err(|e| format!("compile: {e}"))?;
        counts.idc_instrs = program.instr_count() as u64;

        let allocs = allocations();
        let (mut program, stats) = rec.span("opt.optimize", || optimize_at(&program, OptLevel::O2));
        rec.span("opt.criticality", || annotate_criticality(&mut program));
        counts.opt_allocs = allocations() - allocs;
        counts.opt_instrs = program.instr_count() as u64;
        counts.opt_rewrites = rewrites(&stats);

        let allocs = allocations();
        let t = Instant::now();
        let result = rec.span(engine.span(), || engine.run(program, &job.inputs));
        run_time = t.elapsed();
        let machine_allocs = allocations() - allocs;
        let (outputs, engine_counts) = result.map_err(|e| format!("{}: {e}", engine.span()))?;
        counts.add(&engine_counts);
        counts.machine_allocs = machine_allocs;

        rec.span("check", || job.expected.check(outputs.get(&0)))
    })();
    rec.push("job", start);
    Outcome {
        verdict,
        counts,
        run_time,
    }
}

/// Jobs attempted and failed, with a reproduction line per failure.
#[derive(Debug)]
pub struct Tally {
    workload: &'static str,
    seed: u64,
    /// Jobs run and checked.
    pub attempted: u64,
    /// Jobs that errored or gave a wrong answer.
    pub failed: u64,
    /// One `FAIL workload=… program=… size=… seed=…` line per failure.
    pub failures: Vec<String>,
}

impl Tally {
    /// An empty tally for `workload` run with `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Tally {
            workload,
            seed,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Counts `outcome` of `job` (id `id`).
    pub fn record(&mut self, job: &Job, id: u64, outcome: &Outcome) {
        self.attempted += 1;
        if let Err(why) = &outcome.verdict {
            self.failed += 1;
            self.failures.push(format!(
                "FAIL workload={} program={} size={} seed={} job={id}: {why}",
                self.workload, job.program, job.size, self.seed
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Expected, Workload};

    #[test]
    fn a_planted_wrong_answer_is_counted_and_reproducible() {
        let mut job = Workload::EmuSeq.program_set(7).nth(1).unwrap();
        assert_eq!(job.program, "fib");
        let Expected::Int(right) = job.expected else {
            panic!("fib is an integer")
        };
        let mut tally = Tally::new("emu-seq", 7);
        let good = run_job(&job, Engine::Sequential, None, 0);
        tally.record(&job, 0, &good);
        job.expected = Expected::Int(right + 1);
        let bad = run_job(&job, Engine::Sequential, None, 1);
        tally.record(&job, 1, &bad);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(
            tally.failures[0].split(':').next().unwrap(),
            "FAIL workload=emu-seq program=fib size=18 seed=7 job=1"
        );
        // Allocation counts are process-wide and tests run in parallel.
        let work = |c: Counts| Counts {
            opt_allocs: 0,
            machine_allocs: 0,
            ..c
        };
        assert_eq!(work(good.counts), work(bad.counts));
    }

    #[test]
    fn a_traced_job_spans_every_layer_call_and_self_times_add_up() {
        let job = &Workload::TimedCube.program_set(1).nth(1).unwrap();
        let mut log = SpanLog::new();
        let out = run_job(job, Engine::Timed, Some(&mut log), 5);
        assert_eq!(out.verdict, Ok(()));
        let names: Vec<_> = log.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "idc.compile",
                "opt.optimize",
                "opt.criticality",
                "timed.run",
                "check",
                "job"
            ]
        );
        assert!(log.spans.iter().all(|s| s.job == 5));
        let root = log.spans.last().unwrap();
        let total: Duration = log.self_times().iter().map(|(_, _, d)| *d).sum();
        assert_eq!(total, root.end - root.start);
    }
}
