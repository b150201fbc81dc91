//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints notes, then as the last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits 1 when
//! any operation failed or a result did not verify, 2 on bad arguments.

use perfbench::{run, RunConfig, Scale, Workload};
use std::process::ExitCode;

fn usage(why: &str) -> ExitCode {
    eprintln!("perfbench: {why}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// Pin glibc's mmap threshold at 32 MiB, the top of the range its
/// dynamic threshold moves in on 64-bit hosts. Left dynamic, the
/// threshold ratchets up as large blocks are freed, and whether a
/// matrix-sized block is mapped (and returned when freed) or carved
/// from the heap (and kept) then depends on the order of earlier frees:
/// dense-fw's peak RSS landed on one of three levels about one n x n
/// matrix apart from run to run. Pinned at the top, blocks below 32 MiB
/// come from the heap, as the dynamic threshold serves them once it has
/// risen past their size, and `peak_rss_mib` repeats within a few
/// percent.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only sets an allocator parameter, and it runs
    // before the process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (0.0..=600.0).contains(s))
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace need valid values");
    };
    // Spill files, checkpoints and snapshots stay inside the directory
    // the benchmark runs from.
    let work_root = std::path::PathBuf::from(".perfbench-work");
    let work_dir = work_root.join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(2);
    }
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
        work_dir: work_dir.clone(),
    };
    let outcome = run(&cfg);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(&work_root); // only if no other run uses it
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
