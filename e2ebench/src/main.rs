//! End-to-end benchmark of the TTDA reproduction.
//!
//! A job takes one Id program through its whole pipeline —
//! `ttda_idc::compile`, `ttda_core::opt::optimize_at(.., O2)`,
//! `annotate_criticality`, one engine run and a check against an
//! independent reference — and the load is a closed loop: one client,
//! one job in flight. See `README.md` in this directory for the
//! workloads, the metrics and how to read a traced run.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload emu-seq --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics. Host
//! times are reported at a reference CPU speed; see [`speed`].

mod alloc;
mod job;
mod speed;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use job::{run_job, Counts, SpanLog, Tally};
use speed::HostSpeed;
use workload::{Engine, Job, Jobs, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-up runs this many times per process; `setup_s` is the median.
const SETUPS: usize = 5;

const USAGE: &str = "usage: e2ebench --workload <emu-seq|relaxed-2w|timed-cube|compile-mix> \
                     --seed <u64> --seconds <s> --trace <0|1>";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The value at quantile `q` of `sorted` (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    quantile(&xs, 0.5)
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds (user + system, every thread) this process has used, from
/// `/proc/self/stat` (fields 14 and 15, in 1/100 s).
fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let field = |i: usize| -> f64 {
        rest.split_whitespace()
            .nth(i - 3)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    (field(14) + field(15)) / 100.0
}

/// How often the timed loop samples the host's speed.
const SPEED_EVERY: Duration = Duration::from_millis(100);

/// What a timed loop measured. Host times are raw; each job's scale to
/// the reference speed comes from the speed samples around it (see
/// [`speed`]).
struct LoopStats {
    /// Raw host time per job, ms, in run order.
    raw_ms: Vec<f64>,
    /// Each job's scale to the reference speed.
    scale: Vec<f64>,
    /// Each job's index into `programs`.
    program_of: Vec<u8>,
    /// Program names, in order of first appearance.
    programs: Vec<&'static str>,
    /// Id of the loop's first job.
    first: u64,
    /// Wall time of the whole loop.
    wall: Duration,
    /// Seconds the loop spent outside speed sampling, at the reference
    /// speed.
    busy_s: f64,
    /// CPU seconds the process used during the loop.
    cpu: f64,
    /// Firings over all jobs.
    firings: u64,
    /// Engine host time over all jobs, seconds at the reference speed.
    run_s: f64,
}

impl LoopStats {
    /// Job times at the reference speed, ms, sorted.
    fn job_ms(&self) -> Vec<f64> {
        let mut ms: Vec<f64> = self
            .raw_ms
            .iter()
            .zip(&self.scale)
            .map(|(t, s)| t * s)
            .collect();
        ms.sort_by(f64::total_cmp);
        ms
    }

    /// Median job time at the reference speed per program: name, jobs,
    /// ms.
    fn per_program(&self) -> Vec<(&'static str, usize, f64)> {
        (0..self.programs.len())
            .map(|p| {
                let ms: Vec<f64> = (0..self.raw_ms.len())
                    .filter(|&i| usize::from(self.program_of[i]) == p)
                    .map(|i| self.raw_ms[i] * self.scale[i])
                    .collect();
                (self.programs[p], ms.len(), median(ms))
            })
            .collect()
    }
}

/// Runs jobs `first, first + 1, …` of `jobs` back to back for `seconds`,
/// at least one, sampling the host's speed between jobs.
fn timed_loop(
    jobs: &Jobs,
    engine: Engine,
    seconds: f64,
    first: u64,
    speed: &mut HostSpeed,
    mut log: Option<&mut SpanLog>,
    tally: &mut Tally,
) -> LoopStats {
    let budget = Duration::from_secs_f64(seconds);
    let (cpu0, start) = (cpu_seconds(), Instant::now());
    let mut stats = LoopStats {
        raw_ms: Vec::new(),
        scale: Vec::new(),
        program_of: Vec::new(),
        programs: Vec::new(),
        first,
        wall: Duration::ZERO,
        busy_s: 0.0,
        cpu: 0.0,
        firings: 0,
        run_s: 0.0,
    };
    // Per job: when it ran (middle), its whole cycle and its engine time,
    // until the samples after it are in.
    let mut when: Vec<(f32, f32, f32)> = Vec::new();
    let mut sampled = start;
    speed.sample();
    let mut id = first;
    loop {
        if sampled.elapsed() >= SPEED_EVERY {
            speed.sample();
            sampled = Instant::now();
        }
        let cycle = Instant::now();
        let job = jobs.get(id);
        let t = Instant::now();
        let out = run_job(&job, engine, log.as_deref_mut(), id);
        let raw = t.elapsed();
        let mid = speed.now() - raw.as_secs_f64() / 2.0;
        stats.raw_ms.push(raw.as_secs_f64() * 1e3);
        when.push((
            mid as f32,
            cycle.elapsed().as_secs_f32(),
            out.run_time.as_secs_f32(),
        ));
        let p = match stats.programs.iter().position(|&p| p == job.program) {
            Some(p) => p,
            None => {
                stats.programs.push(job.program);
                stats.programs.len() - 1
            }
        };
        stats.program_of.push(p as u8);
        tally.record(&job, id, &out);
        stats.firings += out.counts.firings;
        id += 1;
        if start.elapsed() >= budget {
            break;
        }
    }
    stats.wall = start.elapsed();
    stats.cpu = cpu_seconds() - cpu0;
    speed.sample();
    for (mid, cycle_s, run_s) in when {
        let scale = speed.scale_at(f64::from(mid));
        stats.scale.push(scale);
        stats.busy_s += f64::from(cycle_s) * scale;
        stats.run_s += f64::from(run_s) * scale;
    }
    stats
}

/// One untimed pass over `set`, folding every job's counts.
fn count_pass(set: impl Iterator<Item = Job>, engine: Engine, tally: &mut Tally) -> Counts {
    let mut total = Counts::default();
    for (i, job) in set.enumerate() {
        let out = run_job(&job, engine, None, i as u64);
        tally.record(&job, i as u64, &out);
        total.add(&out.counts);
    }
    total
}

/// Writes `log` as a Chrome trace (`chrome://tracing`, Perfetto).
fn write_spans(path: &Path, log: &SpanLog) -> std::io::Result<()> {
    fs::create_dir_all(path.parent().expect("span file has a directory"))?;
    let mut w = BufWriter::new(fs::File::create(path)?);
    w.write_all(b"{\"traceEvents\":[\n")?;
    for (i, s) in log.spans.iter().enumerate() {
        let sep = if i + 1 < log.spans.len() { "," } else { "" };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"job\":{}}}}}{sep}",
            s.name,
            s.start.as_secs_f64() * 1e6,
            (s.end - s.start).as_secs_f64() * 1e6,
            s.job
        )?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

/// Metrics in output order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn per_layer(
    engine: Engine,
    log: &SpanLog,
    traced: &LoopStats,
    untraced: &LoopStats,
    c: &Counts,
    tally: &Tally,
) -> Metrics {
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (job, name, d) in log.self_times() {
        let scale = traced.scale[(job - traced.first) as usize];
        by_name
            .entry(name)
            .or_default()
            .push(d.as_secs_f64() * 1e3 * scale);
    }
    let mut self_ms = |name: &str| by_name.remove(name).map_or(0.0, median);
    vec![
        ("idc.compile_ms", self_ms("idc.compile"), "ms"),
        ("idc.instrs", c.idc_instrs as f64, "count"),
        ("opt.optimize_ms", self_ms("opt.optimize"), "ms"),
        ("opt.criticality_ms", self_ms("opt.criticality"), "ms"),
        ("opt.instrs", c.opt_instrs as f64, "count"),
        ("opt.rewrites", c.opt_rewrites as f64, "count"),
        ("opt.allocs", c.opt_allocs as f64, "count"),
        ("machine.run_ms", self_ms(engine.span()), "ms"),
        ("machine.firings", c.firings as f64, "count"),
        (
            "machine.firings_per_s",
            traced.firings as f64 / traced.run_s,
            "1/s",
        ),
        ("machine.allocs", c.machine_allocs as f64, "count"),
        ("machine.contexts", c.contexts as f64, "count"),
        (
            "machine.cpu_util",
            untraced.cpu / untraced.wall.as_secs_f64(),
            "ratio",
        ),
        ("emu.waves", c.waves as f64, "count"),
        ("matching.peak", c.matching_peak as f64, "count"),
        ("istore.reads_immediate", c.reads_immediate as f64, "count"),
        ("istore.reads_deferred", c.reads_deferred as f64, "count"),
        ("istore.writes", c.writes as f64, "count"),
        ("istore.peak_deferred", c.peak_deferred as f64, "count"),
        ("timed.alu_util", ratio(c.alu_busy, c.pe_cycles), "ratio"),
        (
            "timed.remote_ratio",
            ratio(c.tokens_remote, c.tokens_delivered),
            "ratio",
        ),
        ("timed.peak_queue", c.peak_queue as f64, "count"),
        ("net.packets", c.net_packets as f64, "count"),
        ("net.mean_hops", ratio(c.net_hops, c.net_packets), "hops"),
        ("check_ms", self_ms("check"), "ms"),
        ("job.self_ms", self_ms("job"), "ms"),
        (
            "trace.overhead_ratio",
            quantile(&traced.job_ms(), 0.5) / quantile(&untraced.job_ms(), 0.5),
            "ratio",
        ),
        ("fail_ratio", ratio(tally.failed, tally.attempted), "ratio"),
    ]
}

fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "{name} = {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let engine = w.engine();
    let mut tally = Tally::new(w.name(), args.seed);
    println!(
        "# e2ebench workload={} seed={} seconds={} trace={} opt=O2 cores={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!("# engine: {}", engine.settings());

    // Set-up: the job list with its reference answers, and one untimed
    // warm-up job per program type. The first set-up is timed from process
    // start; each is scaled to the reference speed measured right after it.
    let mut speed = HostSpeed::new();
    let (mut setup_s, mut raw_setup_s) = (Vec::new(), Vec::new());
    let mut begin = process_start;
    let mut jobs = Jobs::List(Vec::new());
    for _ in 0..SETUPS {
        jobs = w.jobs(args.seed);
        for (i, job) in w.warmups(args.seed).iter().enumerate() {
            let out = run_job(job, engine, None, i as u64);
            tally.record(job, i as u64, &out);
        }
        let raw = begin.elapsed().as_secs_f64();
        raw_setup_s.push(raw);
        setup_s.push(raw * speed.fresh_scale());
        begin = Instant::now();
    }

    let metrics = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = timed_loop(&jobs, engine, half, 0, &mut speed, None, &mut tally);
        let mut log = SpanLog::new();
        let first = untraced.raw_ms.len() as u64;
        let traced = timed_loop(
            &jobs,
            engine,
            half,
            first,
            &mut speed,
            Some(&mut log),
            &mut tally,
        );
        let counts = count_pass(w.program_set(args.seed), engine, &mut tally);
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("spans")
            .join(format!("{}-seed{}.json", w.name(), args.seed));
        if let Err(e) = write_spans(&path, &log) {
            eprintln!("e2ebench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# spans: {} ({} spans)", path.display(), log.spans.len());
        per_layer(engine, &log, &traced, &untraced, &counts, &tally)
    } else {
        let run = timed_loop(&jobs, engine, args.seconds, 0, &mut speed, None, &mut tally);
        // The relaxed engine keeps no wave clock; its programs' modelled
        // time comes from a sequential pass over the same set.
        let model = match engine {
            Engine::Relaxed { .. } => Engine::Sequential,
            e => e,
        };
        let counts = count_pass(w.program_set(args.seed), model, &mut tally);
        // Read before the report allocates copies of the samples.
        let rss = peak_rss_mb();
        let n = run.raw_ms.len();
        let job_ms = run.job_ms();
        let mut raw_ms = run.raw_ms.clone();
        raw_ms.sort_by(f64::total_cmp);
        println!("# samples={n} jobs in {:.3} s", run.wall.as_secs_f64());
        for (program, n, p50) in run.per_program() {
            println!("# {program}: {n} jobs, p50 {p50:.4} ms");
        }
        println!(
            "# raw host time: job_ms_p50={} job_ms_p90={} jobs_per_s={} setup_s={}",
            quantile(&raw_ms, 0.5),
            quantile(&raw_ms, 0.9),
            n as f64 / run.wall.as_secs_f64(),
            median(raw_setup_s)
        );
        let (kernel_ms, samples) = speed.summary();
        println!(
            "# host speed: kernel median {kernel_ms} ms over {samples} samples, reference {} ms",
            speed::REFERENCE_MS
        );
        vec![
            ("job_ms_p50", quantile(&job_ms, 0.5), "ms"),
            ("job_ms_p90", quantile(&job_ms, 0.9), "ms"),
            ("jobs_per_s", n as f64 / run.busy_s, "1/s"),
            ("setup_s", median(setup_s), "s"),
            ("peak_rss_mb", rss, "MB"),
            ("sim_cycles", counts.sim_cycles as f64, "cycles"),
        ]
    };
    for line in &tally.failures {
        println!("{line}");
    }
    println!(
        "# attempted={} failed={} fail_ratio={}",
        tally.attempted,
        tally.failed,
        ratio(tally.failed, tally.attempted)
    );
    println!("{}", result_line(&tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_command_line_is_checked_where_it_enters() {
        assert_eq!(
            args("--workload timed-cube --seed 3 --seconds 0.5 --trace 1"),
            Ok(Args {
                workload: Workload::TimedCube,
                seed: 3,
                seconds: 0.5,
                trace: true
            })
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload emu-seq --seed -1 --seconds 1 --trace 0",
            "--workload emu-seq --seed 1 --seconds 0 --trace 0",
            "--workload emu-seq --seed 1 --seconds 1 --trace 2",
            "--workload emu-seq --seed 1 --seconds 1",
            "--workload emu-seq --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&[4.0], 0.9), 4.0);
    }
}
