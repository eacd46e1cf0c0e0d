//! Benchmark of the CND-IDS workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <protocol|serve|store|serve-continual> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run builds its inputs from the seed, sets the workload up
//! several times (reporting the median as `setup_s`), measures, checks
//! the program's outputs, and prints one JSON line: with `--trace 0`
//! the end-to-end metrics, with `--trace 1` the per-layer metrics of a
//! separate traced run. `serve` offers load for `--seconds`; the other
//! workloads measure a fixed number of passes or episodes (10–25 s),
//! so a slower program is timed on the same work. The line before the
//! result records the host and configuration it was measured on.

mod continual;
mod layers;
mod load;
mod protocol;
mod report;
mod schedule;
mod serve;
mod store;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["protocol", "serve", "store", "serve-continual"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub traced: bool,
    /// Scratch directory inside the checkout, removed after the run.
    pub work: PathBuf,
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or(format!("missing {name}"))?;
    args.get(i + 1)
        .map(String::as_str)
        .ok_or(format!("{name} needs a value"))
}

fn parse_args() -> Result<(String, Ctx), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = flag(&args, "--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; choose one of {WORKLOADS:?}"
        ));
    }
    let seed = flag(&args, "--seed")?
        .parse()
        .map_err(|_| "--seed takes a whole number")?;
    let seconds: u64 = flag(&args, "--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a whole number")?;
    let traced = match flag(&args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{workload}-{}", std::process::id()));
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        traced,
        work,
    };
    Ok((workload, ctx))
}

fn host_line(workload: &str, ctx: &Ctx, hwm_reset: bool, steal: f64) -> String {
    let git = sys::git_rev(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.git"));
    format!(
        "{{\"host\": {{\"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"pool_threads\": {}, \"gemm_kernel\": \"{:?}\", \"git_rev\": \"{git}\", \
         \"profile\": \"{}\", \"rss_hwm_reset\": {hwm_reset}, \"cpu_steal\": {steal:.4}}}}}",
        ctx.seed,
        ctx.seconds.as_secs(),
        u8::from(ctx.traced),
        sys::nproc(),
        cnd_parallel::global().threads(),
        cnd_linalg::gemm::active_kernel(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    )
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::FAILURE;
        }
    };
    // The pool is pinned to the host's cores and tracing stays off
    // unless this is the traced run, which turns it on around its calls.
    std::env::set_var("CND_THREADS", sys::nproc().to_string());
    std::env::remove_var("CND_OBS");
    cnd_obs::set_enabled(false);

    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("error: {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let cpu = sys::CpuTicks::now();
    let outcome = match workload.as_str() {
        "protocol" => protocol::run(&ctx, &mut report),
        "serve" => serve::run(&ctx, &mut report),
        "store" => store::run(&ctx, &mut report),
        _ => continual::run(&ctx, &mut report),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Some(parent) = ctx.work.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    let hwm_reset = match outcome {
        Ok(reset) => reset,
        Err(msg) => {
            eprintln!("error: {workload}: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if ctx.traced {
        report.set("parallel.threads", cnd_parallel::global().threads() as f64);
    }
    let steal = sys::CpuTicks::now().steal_since(&cpu);
    println!("{}", host_line(&workload, &ctx, hwm_reset, steal));
    println!("{}", report.render(ctx.traced));
    ExitCode::SUCCESS
}
