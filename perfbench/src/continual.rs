//! `serve-continual`: the `serve` traffic with a `TrafficMirror` and a
//! `ContinualController` attached. The model is bootstrapped on the
//! first experience; traffic replays its held-out rows, then switches to
//! later experiences whose attack classes the model has not seen. The
//! main thread calls `step()` every 100 ms, as `serve --continual` does,
//! so retraining competes with serving for the cores. Episodes run the
//! loop as shipped or in a stress configuration that always adapts; see
//! `SHIPPED` and `STRESS`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cnd_core::deploy::DeployedScorer;
use cnd_core::{CndIds, CndIdsConfig};
use cnd_linalg::Matrix;
use cnd_serve::{
    ContinualConfig, ContinualController, ContinualEvent, Server, TrafficMirror, ValidationSet,
};

use crate::load::{self, LoadRun};
use crate::report::Report;
use crate::serve::{self, RATE, TICK, WARMUP};
use crate::sys::{median, micros, SplitMix};
use crate::{layers, schedule, Ctx};

/// In-distribution traffic before the switch.
const SWITCH: Duration = Duration::from_secs(1);
/// The drifted phase replays these experiences' held-out rows.
const DRIFTED: std::ops::Range<usize> = 3..5;

/// Drifted traffic after the switch; the model adapts within it. Stress
/// episodes adapt in 2–3 s on a 2-vCPU host whose hypervisor steals a
/// fifth of its time, so this leaves room for a slower host.
const DRIFT_PHASE: Duration = Duration::from_millis(4500);
/// After the load ends, how long to keep stepping so a running
/// retrain is joined before shutdown.
const SETTLE: Duration = Duration::from_secs(10);

/// How an episode's data are generated and its loop configured.
#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    drift_strength: f64,
    config: fn() -> ContinualConfig,
    /// Whether an episode without a swap counts as a failure.
    must_swap: bool,
}

/// The loop as `serve --continual` ships it: `ContinualConfig`
/// defaults on the generator's standard drift. Its drift monitor
/// buckets scores by powers of two and misses this drift on most seeds
/// (7 of 25 episodes swapped over seeds 1–5), so its episodes measure
/// serving beside the loop, and their swaps are reported, not checked.
const SHIPPED: Variant = Variant {
    name: "shipped",
    drift_strength: 3.0,
    config: ContinualConfig::default,
    must_swap: false,
};

/// A stress configuration that runs one full drift → retrain → swap →
/// probation cycle per episode, so the time to adapt can be measured:
/// twice the standard drift, which the drift monitor does catch, and a
/// shadow gate widened from 0.05 to 0.25. When drift arms a retrain the
/// replay reservoir still holds mostly pre-drift traffic, so under the
/// default gate the candidate passes or fails by chance and episodes
/// would take one retrain or two. The gate still runs.
const STRESS: Variant = Variant {
    name: "stress",
    drift_strength: 6.0,
    config: || ContinualConfig {
        f1_tolerance: 0.25,
        pr_auc_tolerance: 0.25,
        ..ContinualConfig::default()
    },
    must_swap: true,
};

/// Episodes of one untraced run, each on a fresh set-up. `adapt_s` and
/// `job_s` are medians over the stress episodes: retraining time varies
/// ±20% with the reservoir's contents, so one episode would not be
/// steady.
const EPISODES: [Variant; 5] = [STRESS, STRESS, SHIPPED, STRESS, STRESS];

struct Setup {
    server: Server,
    mirror: TrafficMirror,
    controller: ContinualController,
    scorer: DeployedScorer,
    /// Replay rows: first experience, then the later ones.
    rows: Vec<Vec<f64>>,
    labels: Vec<u8>,
    n_in: usize,
}

fn setup(seed: u64, work: &Path, variant: Variant) -> Result<Setup, String> {
    let split = serve::cicids_split(seed, variant.drift_strength)?;
    let mut model =
        CndIds::new(CndIdsConfig::fast(seed), &split.clean_normal).map_err(|e| e.to_string())?;
    model
        .train_experience(&split.experiences[0].train_x)
        .map_err(|e| e.to_string())?;
    let scorer = model.freeze().map_err(|e| e.to_string())?;
    let artifact = work.join("continual-model.txt");
    scorer.save_to_path(&artifact).map_err(|e| e.to_string())?;
    let (val_rows, val_y) = serve::test_rows(&split, 0..split.len());
    let val_x = Matrix::from_rows(&val_rows).map_err(|e| e.to_string())?;
    let val = ValidationSet::new(val_x, val_y).map_err(|e| e.to_string())?;
    let (mut rows, mut labels) = serve::test_rows(&split, 0..1);
    let n_in = rows.len();
    let (drift_rows, drift_labels) = serve::test_rows(&split, DRIFTED);
    rows.extend(drift_rows);
    labels.extend(drift_labels);
    let mirror = TrafficMirror::new(8192);
    let server = Server::start(
        &artifact,
        "127.0.0.1:0",
        serve::serve_config(Some(mirror.clone())),
    )
    .map_err(|e| e.to_string())?;
    let controller = ContinualController::new((variant.config)(), model, val, mirror.clone())
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        server,
        mirror,
        controller,
        scorer,
        rows,
        labels,
        n_in,
    })
}

/// What the control loop did during the timed phase.
#[derive(Default)]
struct Loop {
    step_us: Vec<f64>,
    /// Every version the server answered with, and its scorer.
    versions: BTreeMap<u32, DeployedScorer>,
}

impl Loop {
    fn step(&mut self, c: &mut ContinualController, server: &Server) {
        let t = Instant::now();
        let events = c.step(server);
        self.step_us.push(micros(t.elapsed()));
        for event in events {
            eprintln!("continual: {event}");
            if matches!(
                event,
                ContinualEvent::Swapped { .. } | ContinualEvent::RolledBack { .. }
            ) {
                let m = server.current_model();
                self.versions.insert(m.version, m.scorer.clone());
            }
        }
    }
}

/// One episode's measurements.
struct Episode {
    variant: Variant,
    peak_rss_mib: f64,
    window_p50_us: Vec<f64>,
    adapt_s: f64,
    /// CPU the program used from the start of the timed phase until the
    /// loop settled: serving, control loop and retraining.
    program_cpu_s: f64,
    swaps: u64,
    pr_auc: f64,
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<bool, String> {
    let mut setup_s = Vec::new();
    let mut episodes = Vec::new();
    let mut reset = true;
    let plan: &[Variant] = if ctx.traced {
        &[STRESS, SHIPPED]
    } else {
        &EPISODES
    };
    // Each episode runs on a fresh set-up: a drift episode changes the
    // model it serves.
    for (k, &variant) in plan.iter().enumerate() {
        let t = Instant::now();
        let s = setup(ctx.seed, &ctx.work, variant)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let (e, r) = episode(ctx, report, s, variant, ctx.seed.wrapping_add(k as u64))?;
        reset &= r;
        episodes.push(e);
    }
    let of = |variant: &str, f: fn(&Episode) -> f64| {
        episodes
            .iter()
            .filter(|e| e.variant.name == variant)
            .map(f)
            .collect::<Vec<_>>()
    };
    let windows: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.window_p50_us.iter().copied())
        .collect();
    report.set("setup_s", median(&setup_s));
    report.set(
        "peak_rss_mib",
        episodes.iter().map(|e| e.peak_rss_mib).fold(0.0, f64::max),
    );
    report.set("flow_p50_us", median(&windows));
    report.set("adapt_s", median(&of(STRESS.name, |e| e.adapt_s)));
    report.set("job_s", median(&of(STRESS.name, |e| e.program_cpu_s)));
    let shipped_swaps = of(SHIPPED.name, |e| e.swaps as f64);
    if ctx.traced {
        report.set("quality.pr_auc", median(&of(STRESS.name, |e| e.pr_auc)));
        report.set("continual.shipped_swaps", shipped_swaps.iter().sum());
    }
    eprintln!(
        "serve-continual: {} episodes; stress adapt {:?} s, CPU {:?} s; shipped swaps {:?}",
        episodes.len(),
        of(STRESS.name, |e| e.adapt_s),
        of(STRESS.name, |e| e.program_cpu_s),
        shipped_swaps,
    );
    Ok(reset)
}

fn episode(
    ctx: &Ctx,
    report: &mut Report,
    mut s: Setup,
    variant: Variant,
    seed: u64,
) -> Result<(Episode, bool), String> {
    let addr = s.server.local_addr();
    let mut lp = Loop::default();
    lp.versions
        .insert(s.server.model_version(), s.scorer.clone());
    let first_version = s.server.model_version();

    let mut rng = SplitMix::new(seed ^ 0xc0);
    let order_in = rng.permutation(s.n_in);
    let order_drift = rng.permutation(s.rows.len() - s.n_in);
    let warm = schedule::poisson(seed ^ 0x3a7, RATE, WARMUP);
    let warm_features = |i: usize| s.rows[order_in[i % s.n_in]].clone();
    {
        let (c, server) = (&mut s.controller, &s.server);
        load::open_loop(
            addr,
            &warm,
            &warm_features,
            TICK,
            Duration::from_secs(1),
            |_, _| lp.step(c, server),
        )
        .map_err(|e| e.to_string())?;
    }

    let due = schedule::poisson(seed, RATE, SWITCH + DRIFT_PHASE);
    let switch = due.partition_point(|d| *d < SWITCH);
    let row_of = |i: usize| {
        if i < switch {
            order_in[i % s.n_in]
        } else {
            s.n_in + order_drift[(i - switch) % order_drift.len()]
        }
    };
    let features = |i: usize| s.rows[row_of(i)].clone();
    let reset = crate::sys::reset_peak_rss();
    let cpu = crate::sys::process_cpu_s();
    let mut timed = || {
        let (c, server) = (&mut s.controller, &s.server);
        load::open_loop(
            addr,
            &due,
            &features,
            TICK,
            Duration::from_secs(2),
            |_, _| lp.step(c, server),
        )
    };
    let (run, trace) = if ctx.traced {
        let (run, t) = layers::traced(&mut timed);
        (run, Some(t))
    } else {
        (timed(), None)
    };
    let run: LoadRun = run.map_err(|e| e.to_string())?;
    let peak_rss_mib = crate::sys::peak_rss_mib();
    let settle = Instant::now();
    while s.controller.state_name() == "retraining" && settle.elapsed() < SETTLE {
        std::thread::sleep(TICK);
        lp.step(&mut s.controller, &s.server);
    }
    let program_cpu_s = crate::sys::process_cpu_s() - cpu - run.gen_cpu_s;
    report.op(s.controller.state_name() != "retraining", || {
        "a retrain was still running".into()
    });

    // Reference scores of every replay row under every served version.
    let x = Matrix::from_rows(&s.rows).map_err(|e| e.to_string())?;
    let mut reference = BTreeMap::new();
    for (v, scorer) in &lp.versions {
        reference.insert(*v, scorer.anomaly_scores(&x).map_err(|e| e.to_string())?);
    }
    let latencies = serve::check_flows(report, &run, &due, 0..due.len(), |i, got| {
        let Some(scores) = reference.get(&got.version) else {
            return Err(format!(
                "reply from version {} the controller never swapped in",
                got.version
            ));
        };
        let want = scores[row_of(i)];
        if got.score.to_bits() != want.to_bits() {
            return Err(format!(
                "v{} served {} but its scorer gives {want}",
                got.version, got.score
            ));
        }
        Ok(())
    });
    serve::check_server(report, &s.server);
    let ledger = s.controller.ledger().to_jsonl();
    let verified = cnd_obs::ledger::verify(&ledger);
    report.op(verified.is_ok(), || {
        format!("ledger does not verify: {:?}", verified.err())
    });
    let stats = s.controller.stats();
    if variant.must_swap {
        report.op(stats.swaps >= 1, || {
            "no model was swapped in for the drifted traffic".into()
        });
    }

    // Adaptation: from the due time of the first drifted flow to the
    // first reply a newer model version scored.
    let onset = due.get(switch).copied().unwrap_or_default();
    let adapted = run.replies[switch..]
        .iter()
        .filter_map(|r| r.as_ref().and_then(|r| r.as_ref().ok()))
        .filter(|r| r.version != first_version)
        .map(|r| r.at)
        .min();
    let adapt_s = adapted.map_or(f64::NAN, |at| at.saturating_sub(onset).as_secs_f64());
    if variant.must_swap {
        report.op(adapted.is_some(), || {
            "no drifted flow was scored by a newer model version".into()
        });
    }
    // Detection quality the adapted model delivers on drifted traffic.
    let newest = lp.versions.keys().max().copied().unwrap_or(first_version);
    let (scores, labels): (Vec<f64>, Vec<u8>) = (switch..due.len())
        .filter_map(|i| match &run.replies[i] {
            Some(Ok(r)) if r.version == newest && newest != first_version => {
                Some((r.score, s.labels[row_of(i)]))
            }
            _ => None,
        })
        .unzip();
    let pr_auc = cnd_metrics::curve::pr_auc(&scores, &labels).unwrap_or(f64::NAN);
    eprintln!(
        "serve-continual {} episode: {} flows, adapt {adapt_s:.3} s, versions {:?}, {} drift, {} retrains, {} swaps, {} shadow rejects, {} rollbacks",
        variant.name,
        due.len(),
        lp.versions.keys().collect::<Vec<_>>(),
        stats.drift_detections,
        stats.retrains_started,
        stats.swaps,
        stats.shadow_rejects,
        stats.rollbacks
    );

    // The stress episode gives the traced run's layer numbers.
    if let Some(t) = trace.filter(|_| variant.must_swap) {
        t.print("serve-continual");
        report.set("serve-continual.unattributed_s", t.unattributed_s());
        report.set("continual.retrain_s", t.total_s("continual.retrain"));
        report.set("continual.drift_detections", stats.drift_detections as f64);
        report.set("continual.retrains", stats.retrains_started as f64);
        report.set("continual.swaps", stats.swaps as f64);
        report.set("continual.shadow_rejects", stats.shadow_rejects as f64);
        report.set("continual.rollbacks", stats.rollbacks as f64);
        report.set("continual.step_p50_us", median(&lp.step_us));
        report.set(
            "continual.step_max_us",
            lp.step_us.iter().copied().fold(0.0, f64::max),
        );
        report.set("continual.mirror_dropped", s.mirror.dropped() as f64);
        serve::server_layers(report, &s.server, &latencies, &run);
        serve::small_batches(report, &s.scorer, &s.rows)?;
    }
    s.server.shutdown();
    Ok((
        Episode {
            variant,
            peak_rss_mib,
            window_p50_us: serve::window_medians(&run, &due),
            adapt_s,
            program_cpu_s,
            swaps: stats.swaps,
            pr_auc,
        },
        reset,
    ))
}
