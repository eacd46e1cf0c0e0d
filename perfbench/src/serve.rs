//! `serve`: a frozen CICIDS2017 model served in-process through
//! `Server::start`, under open-loop Poisson load on one pipelined
//! connection, replaying held-out test rows. The request path and
//! small-batch scoring do the work; training runs only in set-up.
//!
//! Also the helpers `serve-continual` shares: the server settings, the
//! per-flow checks and the server-side layer readout.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cnd_core::deploy::DeployedScorer;
use cnd_core::{CndIds, CndIdsConfig};
use cnd_datasets::continual::{self, ContinualSplit};
use cnd_datasets::{DatasetProfile, GeneratorConfig};
use cnd_linalg::Matrix;
use cnd_serve::{ServeConfig, Server, TrafficMirror};

use crate::load::{self, LoadRun, Scored};
use crate::report::Report;
use crate::sys::{median, quantile, SplitMix};
use crate::{layers, schedule, Ctx, SETUPS};

/// Mean offered load, flows per second: about a third of the lowest
/// single-connection capacity measured on a 2-core host.
pub const RATE: f64 = 5000.0;
/// A flow answered later than this counts as failed. It sits well
/// above the 25–55 ms scheduler stalls a small shared host shows.
pub const LATENCY_LIMIT_US: f64 = 250_000.0;
/// The main thread's tick, as `serve --continual` steps its loop.
pub const TICK: Duration = Duration::from_millis(100);
/// Warm-up traffic before the timed phase; not measured.
pub const WARMUP: Duration = Duration::from_millis(500);
/// Experiences the frozen `serve` model is trained on in set-up.
const TRAIN_EXPERIENCES: usize = 2;
/// `adapt_s` on `serve`: after the timed phase, under the same load,
/// the same artifact is deployed again this many times, at most one
/// reload every `RELOAD_EVERY`. The timed phase itself serves a frozen
/// model. A reload takes a few milliseconds, so one preemption doubles
/// it; the median of many keeps that from deciding the figure.
const RELOADS: usize = 100;
const RELOAD_EVERY: Duration = Duration::from_millis(25);
/// Ticks of load in the redeploy phase: a tick the host delays past the
/// next one is skipped, and a reload waits until the version before it
/// has answered, so the phase leaves room beyond one tick per reload.
const RELOAD_TICKS: u32 = RELOADS as u32 + 60;
/// No reload starts in the phase's last ticks, so every version that is
/// swapped in still has traffic left to answer.
const RELOAD_TAIL: u32 = 10;
/// Latency is summarised per window of due times; the run reports the
/// median of the window medians, so a short stall of the shared host
/// moves a few windows rather than the whole figure.
const WINDOW: Duration = Duration::from_millis(500);

pub fn serve_config(mirror: Option<TrafficMirror>) -> ServeConfig {
    ServeConfig {
        max_batch: 64,
        max_delay: Duration::from_micros(100),
        mirror,
        ..ServeConfig::default()
    }
}

/// CICIDS2017 profile data, 12k rows split into 5 experiences.
pub fn cicids_split(seed: u64, drift_strength: f64) -> Result<ContinualSplit, String> {
    let cfg = GeneratorConfig {
        total_samples: 12_000,
        drift_strength,
        ..GeneratorConfig::standard(seed)
    };
    let data = DatasetProfile::Cicids2017
        .generate(&cfg)
        .map_err(|e| e.to_string())?;
    continual::prepare(&data, 5, 0.7, seed).map_err(|e| e.to_string())
}

/// Held-out test rows and labels of the given experiences.
pub fn test_rows(
    split: &ContinualSplit,
    range: std::ops::Range<usize>,
) -> (Vec<Vec<f64>>, Vec<u8>) {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for e in &split.experiences[range] {
        rows.extend(e.test_x.iter_rows().map(<[f64]>::to_vec));
        labels.extend_from_slice(&e.test_y);
    }
    (rows, labels)
}

/// Checks each flow of `range`: exactly one reply, a score, accepted by
/// `expected`, within the latency limit. Returns the flows' latencies.
pub fn check_flows(
    report: &mut Report,
    run: &LoadRun,
    due: &[Duration],
    range: std::ops::Range<usize>,
    expected: impl Fn(usize, &Scored) -> Result<(), String>,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(range.len());
    let mut failed = 0;
    let mut first = None;
    for i in range.clone() {
        let verdict = match &run.replies[i] {
            None => Err("no reply".to_string()),
            Some(Err(other)) => Err(format!("not scored: {other}")),
            Some(Ok(s)) => {
                let us = crate::sys::micros(s.at.saturating_sub(due[i]));
                latencies.push(us);
                if us > LATENCY_LIMIT_US {
                    Err(format!("answered after {us:.0} us"))
                } else {
                    expected(i, s)
                }
            }
        };
        if let Err(why) = verdict {
            failed += 1;
            first.get_or_insert(format!("flow {i}: {why}"));
        }
    }
    report.ops(range.len() as u64, failed, || first.unwrap_or_default());
    report.op(run.stray == 0, || {
        format!("{} replies to unknown or answered ids", run.stray)
    });
    if let Some(e) = &run.error {
        eprintln!("load: {e}");
    }
    latencies
}

/// Accepts a reply whose score is bit-equal to `want` from a model
/// version between 1 and `max_version`.
fn check_score(got: &Scored, want: f64, max_version: u32) -> Result<(), String> {
    if got.score.to_bits() != want.to_bits() {
        return Err(format!("served {} but the scorer gives {want}", got.score));
    }
    if got.version == 0 || got.version > max_version {
        return Err(format!("reply from unknown model version {}", got.version));
    }
    Ok(())
}

/// Median latency (timed from due time) of the scored flows in each
/// `WINDOW` of due times.
pub fn window_medians(run: &LoadRun, due: &[Duration]) -> Vec<f64> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    for (r, d) in run.replies.iter().zip(due) {
        if let Some(Ok(s)) = r {
            let w = (d.as_nanos() / WINDOW.as_nanos()) as usize;
            if windows.len() <= w {
                windows.resize(w + 1, Vec::new());
            }
            windows[w].push(crate::sys::micros(s.at.saturating_sub(*d)));
        }
    }
    windows
        .iter()
        .filter(|w| !w.is_empty())
        .map(|w| median(w))
        .collect()
}

/// Server-side layer numbers from the server's own counters and
/// lifecycle telemetry, plus the client-side tail.
pub fn server_layers(report: &mut Report, server: &Server, latencies: &[f64], run: &LoadRun) {
    // Let the telemetry harvester fold in the last records.
    std::thread::sleep(Duration::from_millis(30));
    let stats = server.stats();
    report.set(
        "serve.batch_mean",
        stats.scored as f64 / stats.batches.max(1) as f64,
    );
    report.set("serve.shed", stats.shed as f64);
    report.set("serve.reply_failures", stats.reply_failures as f64);
    let client_p50 = median(latencies);
    if let Some(t) = server.telemetry_snapshot() {
        let q = |h: &cnd_obs::HdrHistogram, q: f64| h.quantile(q).unwrap_or(0) as f64;
        report.set("serve.parse_p50_us", q(&t.parse, 0.5));
        report.set("serve.queue_wait_p50_us", q(&t.queue_wait, 0.5));
        report.set("serve.batch_form_p50_us", q(&t.batch_form, 0.5));
        report.set("serve.score_p50_us", q(&t.score, 0.5));
        report.set("serve.write_p50_us", q(&t.write, 0.5));
        report.set("serve.total_p50_us", q(&t.total, 0.5));
        report.set("serve.total_p99_us", q(&t.total, 0.99));
        report.set("serve.outside_p50_us", client_p50 - q(&t.total, 0.5));
        report.set("serve.queue_depth_p50", q(&t.queue_depth, 0.5));
        report.set("serve.records_dropped", t.records_dropped as f64);
    }
    report.set("serve.client_p99_us", quantile(latencies, 0.99));
    report.set("serve.client_p999_us", quantile(latencies, 0.999));
    report.set("serve.client_samples", latencies.len() as f64);
    report.set("gen.late_max_us", run.late_max_us);
}

/// Shed, bad frames and unwritten replies all fail the run.
pub fn check_server(report: &mut Report, server: &Server) {
    let s = server.stats();
    report.op(
        s.shed == 0 && s.bad_frames == 0 && s.reply_failures == 0,
        || {
            format!(
                "server shed {}, bad frames {}, reply failures {}",
                s.shed, s.bad_frames, s.reply_failures
            )
        },
    );
}

/// Median `anomaly_scores` time on 1- and 8-row matrices.
pub fn small_batches(
    report: &mut Report,
    scorer: &DeployedScorer,
    rows: &[Vec<f64>],
) -> Result<(), String> {
    for (name, batch) in [("deploy.score_b1_us", 1), ("deploy.score_b8_us", 8)] {
        let mut times = Vec::new();
        for k in 0..2000 {
            let pick: Vec<Vec<f64>> = (0..batch)
                .map(|j| rows[(k * 8 + j) % rows.len()].clone())
                .collect();
            let x = Matrix::from_rows(&pick).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let s = scorer
                .anomaly_scores(std::hint::black_box(&x))
                .map_err(|e| e.to_string())?;
            times.push(crate::sys::micros(t.elapsed()));
            std::hint::black_box(s);
        }
        report.set(name, median(&times));
    }
    Ok(())
}

struct Setup {
    server: Server,
    scorer: DeployedScorer,
    rows: Vec<Vec<f64>>,
    labels: Vec<u8>,
    reference: Vec<f64>,
}

fn setup(seed: u64, work: &Path) -> Result<Setup, String> {
    let split = cicids_split(seed, GeneratorConfig::standard(seed).drift_strength)?;
    let mut model =
        CndIds::new(CndIdsConfig::fast(seed), &split.clean_normal).map_err(|e| e.to_string())?;
    for e in &split.experiences[..TRAIN_EXPERIENCES] {
        model
            .train_experience(&e.train_x)
            .map_err(|e| e.to_string())?;
    }
    let scorer = model.freeze().map_err(|e| e.to_string())?;
    let artifact: PathBuf = work.join("serve-model.txt");
    scorer.save_to_path(&artifact).map_err(|e| e.to_string())?;
    let (rows, labels) = test_rows(&split, 0..split.len());
    let x = Matrix::from_rows(&rows).map_err(|e| e.to_string())?;
    let reference = scorer.anomaly_scores(&x).map_err(|e| e.to_string())?;
    let server =
        Server::start(&artifact, "127.0.0.1:0", serve_config(None)).map_err(|e| e.to_string())?;
    Ok(Setup {
        server,
        scorer,
        rows,
        labels,
        reference,
    })
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<bool, String> {
    let mut setup_s = Vec::new();
    let mut live: Option<Setup> = None;
    for _ in 0..if ctx.traced { 1 } else { SETUPS } {
        if let Some(old) = live.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        live = Some(setup(ctx.seed, &ctx.work)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = live.expect("at least one set-up");
    let addr = s.server.local_addr();
    let order = SplitMix::new(ctx.seed ^ 0x5e7e).permutation(s.rows.len());
    let features = |i: usize| s.rows[order[i % order.len()]].clone();

    let warm = schedule::poisson(ctx.seed ^ 0x3a7, RATE, WARMUP);
    load::open_loop(
        addr,
        &warm,
        &features,
        TICK,
        Duration::from_secs(1),
        |_, _| {},
    )
    .map_err(|e| e.to_string())?;

    let due = schedule::poisson(ctx.seed, RATE, ctx.seconds);
    let reset = crate::sys::reset_peak_rss();
    let cpu = crate::sys::process_cpu_s();
    let timed = || {
        load::open_loop(
            addr,
            &due,
            &features,
            TICK,
            Duration::from_secs(2),
            |_, _| {},
        )
    };
    let (run, trace) = if ctx.traced {
        let (run, t) = layers::traced(timed);
        (run, Some(t))
    } else {
        (timed(), None)
    };
    let run = run.map_err(|e| e.to_string())?;
    let server_cpu_s = crate::sys::process_cpu_s() - cpu - run.gen_cpu_s;
    report.set("peak_rss_mib", crate::sys::peak_rss_mib());
    let latencies = check_flows(report, &run, &due, 0..due.len(), |i, got| {
        check_score(got, s.reference[order[i % order.len()]], 1)
    });
    check_server(report, &s.server);

    // Redeploys, in a phase of their own under the same load: each
    // reload loads, validates and swaps the artifact in. The next one
    // waits until a reply shows the version before it serving traffic.
    let reload_due = schedule::poisson(ctx.seed ^ 0x7e10, RATE, RELOAD_EVERY * RELOAD_TICKS);
    let last_start = RELOAD_EVERY * (RELOAD_TICKS - RELOAD_TAIL);
    let mut reloads: Vec<(u32, f64)> = Vec::new();
    let mut reload_errors = Vec::new();
    let reload_run = load::open_loop(
        addr,
        &reload_due,
        &features,
        RELOAD_EVERY,
        Duration::from_secs(2),
        |elapsed, newest| {
            let serving = reloads.last().map_or(1, |r| r.0);
            if reloads.len() + reload_errors.len() < RELOADS
                && newest >= serving
                && elapsed < last_start
            {
                let t = Instant::now();
                match s.server.reload() {
                    Ok(v) => reloads.push((v, t.elapsed().as_secs_f64())),
                    Err(e) => reload_errors.push(e.to_string()),
                }
            }
        },
    )
    .map_err(|e| e.to_string())?;
    let max_version = reloads.last().map_or(1, |r| r.0);
    check_flows(
        report,
        &reload_run,
        &reload_due,
        0..reload_due.len(),
        |i, got| check_score(got, s.reference[order[i % order.len()]], max_version),
    );
    check_server(report, &s.server);
    report.ops(RELOADS as u64, (RELOADS - reloads.len()) as u64, || {
        format!("reloads failed: {reload_errors:?}")
    });
    let answered: std::collections::BTreeSet<u32> = reload_run
        .replies
        .iter()
        .filter_map(|r| r.as_ref().and_then(|r| r.as_ref().ok()).map(|r| r.version))
        .collect();
    report.op(reloads.iter().all(|r| answered.contains(&r.0)), || {
        "a reloaded version never answered traffic".into()
    });

    let first_pass: Vec<(f64, u8)> = (0..order.len().min(due.len()))
        .filter_map(|i| match &run.replies[i] {
            Some(Ok(r)) => Some((r.score, s.labels[order[i]])),
            _ => None,
        })
        .collect();
    let (scores, labels): (Vec<f64>, Vec<u8>) = first_pass.into_iter().unzip();
    let pr_auc = cnd_metrics::curve::pr_auc(&scores, &labels).unwrap_or(f64::NAN);
    report.set("setup_s", median(&setup_s));
    report.set("flow_p50_us", median(&window_medians(&run, &due)));
    let reload_s: Vec<f64> = reloads.iter().map(|r| r.1).collect();
    report.set("adapt_s", median(&reload_s));
    // Server CPU per replay of the held-out set.
    report.set(
        "job_s",
        server_cpu_s * order.len() as f64 / due.len() as f64,
    );
    eprintln!(
        "serve: {} flows, client p50 {:.0} us, late max {:.0} us, server CPU {server_cpu_s:.3} s, \
         {} reloads (quartiles {:.2?} ms), PR-AUC {pr_auc:.3}",
        due.len(),
        median(&latencies),
        run.late_max_us,
        reloads.len(),
        [0.25, 0.5, 0.75].map(|q| quantile(&reload_s, q) * 1e3),
    );

    if let Some(t) = trace {
        t.print("serve");
        report.set("quality.pr_auc", pr_auc);
        report.set("serve.unattributed_s", t.unattributed_s());
        server_layers(report, &s.server, &latencies, &run);
        small_batches(report, &s.scorer, &s.rows)?;
        let cap = load::capacity(addr, &features, 64, Duration::from_secs(1))
            .map_err(|e| e.to_string())?;
        report.set("serve.capacity_flows_per_s", cap);
    }
    s.server.shutdown();
    Ok(reset)
}
