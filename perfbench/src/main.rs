//! The repository benchmark: eDKM fine-tune-and-compress plus closed-loop
//! palettized serving, with a traced per-layer run.
//!
//! ```text
//! perfbench --workload <train-edkm|serve-decode|serve-chat|all>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures every end-to-end metric with tracing off; `--trace
//! 1` replays the same inputs with spans around each layer's entry points
//! and reports the per-layer metrics. The last line of standard output is
//! the result as one JSON object. A failed correctness gate prints the
//! evidence on standard error and exits with code 1.
//!
//! The process confines itself to one CPU before it starts any thread (see
//! [`pin_to_one_cpu`]), so every workload measures single-core speed.

mod report;
mod serve;
mod stats;
mod trace;
mod train;

use report::Outcome;

const WORKLOADS: [&str; 3] = ["train-edkm", "serve-decode", "serve-chat"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run_one(workload: &str, args: &Args) -> Outcome {
    match (workload, args.trace) {
        ("train-edkm", false) => train::run(args.seed, args.seconds),
        ("train-edkm", true) => train::run_traced(args.seed, args.seconds),
        (w, traced) => serve::run(serve::Kind::from_name(w), args.seed, args.seconds, traced),
    }
}

fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Confine the calling thread, and every thread it starts later, to the
/// last CPU it may run on; returns that CPU's number.
///
/// On a shared host with few vCPUs, a process that keeps every vCPU busy
/// is descheduled by the hypervisor far more (steal time) than one that
/// keeps a single vCPU busy, and the parallel kernels spawn threads per
/// call that wait on the slowest vCPU. Both made timings swing by up to 2x
/// between runs of the same code. On one CPU the parallel kernels run
/// inline (`available_parallelism` reads the affinity mask).
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` bytes long; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is `size` bytes long.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Environment every result records: `nproc` is the CPU count before
/// pinning, `cpus_used` what the workloads ran on.
fn environment(seed: u64, nproc: usize, pinned: Option<usize>) -> Vec<(String, String)> {
    let (backend, lanes) = edkm_core::infer::launch::active();
    let used = match pinned {
        Some(cpu) => format!("1 (cpu {cpu})"),
        None => available_cpus().to_string(),
    };
    vec![
        ("nproc".into(), nproc.to_string()),
        ("cpus_used".into(), used),
        (
            "cpu_features".into(),
            edkm_core::infer::launch::cpu_features(),
        ),
        ("kernel_backend".into(), backend.to_string()),
        ("kernel_lanes".into(), lanes.to_string()),
        ("seed".into(), seed.to_string()),
    ]
}

fn print_outcome(
    workload: &str,
    traced: bool,
    out: &mut Outcome,
) -> Vec<(&'static str, f64, &'static str)> {
    let metrics = out.declared(traced);
    for (k, v) in &out.notes {
        println!("[{workload}] {k}: {v}");
    }
    for (name, value, unit) in &metrics {
        println!("[{workload}] {name} = {value} {unit}");
    }
    for e in &out.errors {
        eprintln!("[{workload}] GATE FAILED: {e}");
    }
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let nproc = available_cpus();
    let pinned = pin_to_one_cpu();
    let env = environment(args.seed, nproc, pinned);
    let env_json: Vec<String> = env
        .iter()
        .map(|(k, v)| format!("{}: {}", report::json_string(k), report::json_string(v)))
        .collect();
    println!("{{\"env\": {{{}}}}}", env_json.join(", "));

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut all_metrics = Vec::new();
    for w in &names {
        let mut out = run_one(w, &args);
        let metrics = print_outcome(w, args.trace, &mut out);
        correct &= out.errors.is_empty();
        attempted += out.attempted;
        failed += out.failed;
        if out.attempted == 0 {
            eprintln!("[{w}] GATE FAILED: no operation attempted");
            correct = false;
        }
        all_metrics.push((w.to_string(), metrics));
    }

    let line = if let [(_, metrics)] = all_metrics.as_slice() {
        report::result_line(correct, attempted, failed, metrics)
    } else {
        let prefixed: Vec<(String, f64, &str)> = all_metrics
            .iter()
            .flat_map(|(w, ms)| ms.iter().map(move |(n, v, u)| (format!("{w}/{n}"), *v, *u)))
            .collect();
        let borrowed: Vec<(&str, f64, &str)> = prefixed
            .iter()
            .map(|(n, v, u)| (n.as_str(), *v, *u))
            .collect();
        report::result_line(correct, attempted, failed, &borrowed)
    };
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
