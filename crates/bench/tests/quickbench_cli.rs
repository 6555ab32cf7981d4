//! The quickbench gate refuses to compare a report with itself.

use std::path::Path;
use std::process::Command;

/// Runs `experiments quickbench <args>` in `dir` on a tiny time budget
/// and returns its exit code.
fn quickbench(dir: &Path, args: &str) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(dir)
        .env("QUICKBENCH_MS", "10")
        .env("QUICKBENCH_MAX_ITERS", "2")
        .arg("quickbench")
        .args(args.split_whitespace())
        .output()
        .expect("experiments binary runs")
        .status
        .code()
}

#[test]
fn a_report_that_is_also_its_baseline_exits_2() {
    let dir = std::env::temp_dir().join(format!("ttda-quickbench-cli-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    std::fs::write(dir.join("BENCH_opt.json"), "{}").unwrap();
    for args in [
        // The default report path is the baseline path.
        "--suites opt --opt-check BENCH_opt.json",
        // Two spellings of one file, and a file that does not exist yet.
        "--suites opt --opt-out sub/../BENCH_opt.json --opt-check ./BENCH_opt.json",
        "--suites opt --opt-out sub/new.json --opt-check sub/./new.json",
        // One suite's report against another suite's baseline.
        "--suites opt,sched --opt-out t.json --sched-out s.json --sched-check t.json",
    ] {
        assert_eq!(quickbench(&dir, args), Some(2), "{args}");
    }
    // `--rebaseline` compares nothing, so the overlap is allowed; and a
    // report beside its baseline is gated as usual.
    let rebaseline = "--suites opt --opt-check BENCH_opt.json --rebaseline";
    assert_eq!(quickbench(&dir, rebaseline), Some(0));
    let gated = "--suites opt --opt-out sub/o.json --opt-check BENCH_opt.json";
    assert_ne!(quickbench(&dir, gated), Some(2));
    assert!(dir.join("sub/o.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
