//! The `fuzz` subcommand: an open-ended differential-fuzzing loop over
//! the adversarial generator families, with budgets, minimization and
//! divergence artifacts.
//!
//! ```text
//! experiments fuzz --iters 500
//! experiments fuzz --seed 42 --iters 200 --families hot-skew,store-skew
//! experiments fuzz --budget-ms 60000 --out target/fuzz-divergence.txt
//! ```
//!
//! Scenarios are drawn deterministically: iteration `k` checks seed
//! `start_seed + k / |families|` in family `families[k % |families|]`,
//! so the same `--seed`/`--iters`/`--families` triple always replays the
//! same scenario sequence. `--budget-ms` is a wall-clock cap on top of
//! `--iters` (whichever ends first); a capped run is a *prefix* of the
//! uncapped one, never a different sequence.
//!
//! On divergence the input is delta-debugged to a local minimum
//! ([`ttda_workloads::fuzz::oracle::minimize_scenario`]) and reported —
//! and, with `--out FILE`, written as an artifact containing the pinned
//! corpus line (`family seed`) to append to `tests/fuzz_regressions.txt`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ttda_core::SchedPolicy;
use ttda_sim::check;
use ttda_workloads::fuzz::{oracle, Family, Scenario};

/// Parsed `fuzz` arguments.
struct FuzzArgs {
    seed: u64,
    iters: u64,
    budget_ms: Option<u64>,
    families: Vec<Family>,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<FuzzArgs, String> {
    let mut parsed = FuzzArgs {
        seed: 1,
        iters: 200,
        budget_ms: None,
        families: Family::ALL.to_vec(),
        out: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--iters" => {
                parsed.iters = value("--iters")?
                    .parse()
                    .map_err(|e| format!("--iters: {e}"))?;
            }
            "--budget-ms" => {
                parsed.budget_ms = Some(
                    value("--budget-ms")?
                        .parse()
                        .map_err(|e| format!("--budget-ms: {e}"))?,
                );
            }
            "--families" => {
                let list = value("--families")?;
                parsed.families = list
                    .split(',')
                    .map(|s| {
                        Family::parse(s.trim()).ok_or_else(|| {
                            format!("unknown family {s:?} (valid: {})", family_list())
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if parsed.families.is_empty() {
                    return Err("--families: empty list".into());
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value("--out")?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(parsed)
}

/// Comma-joined family names for help/error text.
fn family_list() -> String {
    Family::ALL
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders a divergence artifact: everything needed to reproduce, plus
/// the pinned corpus line for `tests/fuzz_regressions.txt`.
fn render_artifact(
    sc: &Scenario,
    outcome: &oracle::Outcome,
    min: &Scenario,
    steps: usize,
) -> String {
    let mut a = String::new();
    let _ = writeln!(a, "# ttda-fuzz divergence artifact");
    let _ = writeln!(a, "# pin this line in tests/fuzz_regressions.txt:");
    let _ = writeln!(a, "{} {}", sc.family.name(), sc.seed);
    let _ = writeln!(a);
    let _ = writeln!(a, "outcome: {outcome}");
    let _ = writeln!(a);
    let _ = writeln!(a, "original spec (seed {}):\n{:#?}", sc.seed, sc.spec);
    let _ = writeln!(a);
    let _ = writeln!(a, "minimized after {steps} shrink steps:\n{:#?}", min.spec);
    for (i, src) in min.sources().iter().enumerate() {
        let _ = writeln!(a, "\nminimized Id source (tenant {i}):\n{src}");
    }
    a
}

/// Runs the fuzz loop. Returns success only if no scenario diverged.
pub fn fuzz_main(args: &[String]) -> ExitCode {
    let parsed = match parse_args(args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: fuzz: {e}");
            eprintln!(
                "usage: experiments fuzz [--seed S] [--iters N] [--budget-ms MS] \
                 [--families {}] [--out FILE]",
                family_list()
            );
            return ExitCode::FAILURE;
        }
    };
    let t0 = Instant::now();
    let nfam = parsed.families.len() as u64;
    let mut checked = 0u64;
    let mut agreed = 0u64;
    let mut agreed_err = 0u64;
    let mut fuel = 0u64;
    let mut divergences = 0u64;
    println!(
        "fuzz: families [{}], start seed {}, {} iterations{}",
        parsed
            .families
            .iter()
            .map(|f| f.name())
            .collect::<Vec<_>>()
            .join(", "),
        parsed.seed,
        parsed.iters,
        parsed
            .budget_ms
            .map(|ms| format!(", {ms} ms budget"))
            .unwrap_or_default()
    );
    for k in 0..parsed.iters {
        if let Some(ms) = parsed.budget_ms {
            if t0.elapsed().as_millis() >= u128::from(ms) {
                println!("fuzz: wall-clock budget reached after {checked} scenarios");
                break;
            }
        }
        let family = parsed.families[(k % nfam) as usize];
        let seed = parsed.seed + k / nfam;
        let (sc, outcome) = oracle::check_seed(family, seed, SchedPolicy::Fifo);
        checked += 1;
        match &outcome {
            oracle::Outcome::Agree => agreed += 1,
            oracle::Outcome::AgreeError(_) => agreed_err += 1,
            oracle::Outcome::FuelExhausted => fuel += 1,
            oracle::Outcome::Divergence(_) => {
                divergences += 1;
                eprintln!("fuzz: DIVERGENCE at {family} seed {seed}; minimizing…");
                let (min, steps, min_outcome) =
                    oracle::minimize_scenario(&sc, SchedPolicy::Fifo, check::SHRINK_BUDGET);
                let artifact = render_artifact(&sc, &min_outcome, &min, steps);
                eprintln!("{artifact}");
                if let Some(path) = &parsed.out {
                    if let Err(e) = std::fs::write(path, &artifact) {
                        eprintln!("error: cannot write artifact {}: {e}", path.display());
                    } else {
                        eprintln!("fuzz: artifact written to {}", path.display());
                    }
                }
            }
        }
    }
    println!(
        "fuzz: {checked} scenarios in {:.1} s — {agreed} agree, {agreed_err} agree-error, \
         {fuel} fuel-exhausted, {divergences} DIVERGENT",
        t0.elapsed().as_secs_f64()
    );
    if divergences > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_with_defaults_and_overrides() {
        let d = parse_args(&[]).expect("defaults");
        assert_eq!((d.seed, d.iters), (1, 200));
        assert_eq!(d.families.len(), Family::ALL.len());

        let strs: Vec<String> = [
            "--seed",
            "9",
            "--iters",
            "3",
            "--budget-ms",
            "50",
            "--families",
            "expr,store-skew",
            "--out",
            "x.txt",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let p = parse_args(&strs).expect("parses");
        assert_eq!((p.seed, p.iters, p.budget_ms), (9, 3, Some(50)));
        assert_eq!(p.families, vec![Family::Expr, Family::StoreSkew]);
        assert_eq!(p.out.as_deref(), Some(std::path::Path::new("x.txt")));
    }

    #[test]
    fn args_reject_bad_input() {
        for bad in [
            vec!["--seed"],
            vec!["--seed", "ten"],
            vec!["--families", "expr,bogus"],
            vec!["--whatever"],
        ] {
            let strs: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            assert!(parse_args(&strs).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn artifact_carries_the_pinned_corpus_line() {
        let sc = Scenario::generate(Family::Expr, 77);
        let min = sc.clone();
        let a = render_artifact(
            &sc,
            &oracle::Outcome::Divergence("synthetic".into()),
            &min,
            0,
        );
        assert!(a.contains("expr 77"), "corpus line missing:\n{a}");
        assert!(a.contains("minimized Id source"));
    }
}
