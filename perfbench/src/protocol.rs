//! `protocol`: the paper's continual protocol with `CndIdsConfig::fast`
//! on the CICIDS2017 profile, for three seeds derived from the workload
//! seed. Training layers do nearly all the work; no serve or store code
//! runs.

use std::cell::RefCell;
use std::time::Instant;

use cnd_core::runner::{evaluate_continual, ContinualLearner, ContinualOutcome};
use cnd_core::{CndIds, CndIdsConfig, CoreError};
use cnd_datasets::continual::{self, ContinualSplit, Experience};
use cnd_datasets::{DatasetProfile, GeneratorConfig};
use cnd_linalg::Matrix;

use crate::report::Report;
use crate::sys::{derived_seeds, median};
use crate::{layers, Ctx, SETUPS};

const ROWS: usize = 12_000;
const EXPERIENCES: usize = 5;
const SEEDS: usize = 3;
/// Timed passes per run, each over its own three seeds: a fixed count,
/// so a slower program measures the same work. The work varies between
/// seeds, and the medians over more than three keep that variation out
/// of the comparison between runs.
const PASSES: usize = 2;

struct Input {
    seed: u64,
    split: ContinualSplit,
}

fn setup(seeds: &[u64]) -> Result<Vec<Input>, String> {
    seeds
        .iter()
        .map(|&seed| {
            let cfg = GeneratorConfig {
                total_samples: ROWS,
                ..GeneratorConfig::standard(seed)
            };
            let data = DatasetProfile::Cicids2017
                .generate(&cfg)
                .map_err(|e| e.to_string())?;
            let split =
                continual::prepare(&data, EXPERIENCES, 0.7, seed).map_err(|e| e.to_string())?;
            Ok(Input { seed, split })
        })
        .collect()
}

/// The model as `evaluate_continual` drives it, with the benchmark's
/// timers around each public call it makes.
struct Timed {
    model: CndIds,
    train_s: Vec<f64>,
    k_selected: Vec<usize>,
    /// (seconds, rows) per scoring call.
    score: RefCell<Vec<(f64, usize)>>,
}

impl ContinualLearner for Timed {
    fn train_experience(&mut self, exp: &Experience) -> Result<(), CoreError> {
        let t = Instant::now();
        let stats = self.model.train_experience(&exp.train_x)?;
        self.train_s.push(t.elapsed().as_secs_f64());
        self.k_selected.push(stats.k_selected);
        Ok(())
    }

    fn scores(&self, x: &Matrix) -> Result<Option<Vec<f64>>, CoreError> {
        let t = Instant::now();
        let scores = self.model.anomaly_scores(x)?;
        self.score
            .borrow_mut()
            .push((t.elapsed().as_secs_f64(), x.rows()));
        Ok(Some(scores))
    }

    fn predict(&self, _x: &Matrix) -> Result<Option<Vec<u8>>, CoreError> {
        Ok(None)
    }

    fn name(&self) -> &'static str {
        "CND-IDS"
    }
}

struct Pass {
    wall_s: f64,
    /// Per seed: protocol wall time per flow trained on or scored, µs.
    us_per_flow: Vec<f64>,
    outcomes: Vec<ContinualOutcome>,
    train_s: Vec<f64>,
    score: Vec<(f64, usize)>,
    k_selected: usize,
    components: usize,
}

fn pass(inputs: &[Input]) -> Result<Pass, String> {
    let t = Instant::now();
    let mut runs = Vec::with_capacity(inputs.len());
    let mut us_per_flow = Vec::with_capacity(inputs.len());
    for input in inputs {
        let ts = Instant::now();
        let model = CndIds::new(CndIdsConfig::fast(input.seed), &input.split.clean_normal)
            .map_err(|e| e.to_string())?;
        let mut timed = Timed {
            model,
            train_s: Vec::new(),
            k_selected: Vec::new(),
            score: RefCell::new(Vec::new()),
        };
        let outcome = evaluate_continual(&mut timed, &input.split).map_err(|e| e.to_string())?;
        let experiences = &input.split.experiences;
        let tested: usize = experiences.iter().map(|e| e.test_x.rows()).sum();
        let flows: usize = experiences.iter().map(|e| e.train_x.rows() + tested).sum();
        us_per_flow.push(ts.elapsed().as_secs_f64() * 1e6 / flows as f64);
        runs.push((timed, outcome));
    }
    let wall_s = t.elapsed().as_secs_f64();
    let mut p = Pass {
        wall_s,
        us_per_flow,
        outcomes: Vec::new(),
        train_s: Vec::new(),
        score: Vec::new(),
        k_selected: 0,
        components: 0,
    };
    for (timed, outcome) in runs {
        p.train_s.extend(&timed.train_s);
        p.score.extend(timed.score.into_inner());
        p.k_selected += timed.k_selected.iter().sum::<usize>();
        p.components += timed.model.pca_components().unwrap_or(0);
        p.outcomes.push(outcome);
    }
    Ok(p)
}

/// Checks a pass: each experience's row of the result matrix is
/// complete and finite, and a repeat reproduces `first` on the seeds it
/// covers.
fn check(report: &mut Report, p: &Pass, first: Option<&Pass>) {
    for (s, out) in p.outcomes.iter().enumerate() {
        for i in 0..EXPERIENCES {
            let row_ok = (0..EXPERIENCES).all(|j| {
                let v = out.f1_matrix.get(i, j);
                v.is_finite() && (0.0..=1.0).contains(&v)
            });
            let ap_ok = out
                .pr_auc_per_step
                .get(i)
                .copied()
                .flatten()
                .is_some_and(|a| a.is_finite() && a > 0.0);
            report.op(row_ok && ap_ok, || {
                format!("seed #{s} experience {i}: result row or PR-AUC incomplete or not finite")
            });
        }
        if let Some(first) = first {
            let same = first.outcomes[s].f1_matrix == out.f1_matrix
                && first.outcomes[s].pr_auc_per_step == out.pr_auc_per_step;
            report.op(same, || {
                format!("seed #{s}: a repeated protocol gave other results")
            });
        }
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Mean over seeds of the pooled PR-AUC after the last experience.
fn final_pr_auc(p: &Pass) -> f64 {
    mean(
        p.outcomes
            .iter()
            .map(|o| o.final_pr_auc().unwrap_or(f64::NAN)),
    )
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<bool, String> {
    let seeds = derived_seeds(ctx.seed, SEEDS * PASSES);
    if ctx.traced {
        return run_traced(report, &seeds[..SEEDS]);
    }
    let mut setup_s = Vec::new();
    let mut inputs = Vec::new();
    for _ in 0..SETUPS {
        let t = Instant::now();
        inputs = seeds
            .chunks(SEEDS)
            .map(setup)
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let reset = crate::sys::reset_peak_rss();
    let passes = inputs
        .iter()
        .map(|triple| pass(triple))
        .collect::<Result<Vec<_>, _>>()?;
    // The first seed once more, untimed: it must reproduce its results.
    let repeat = pass(&inputs[0][..1])?;
    report.set("peak_rss_mib", crate::sys::peak_rss_mib());
    for p in &passes {
        check(report, p, None);
    }
    check(report, &repeat, Some(&passes[0]));
    let all = |f: fn(&Pass) -> &[f64]| passes.iter().flat_map(f).copied().collect::<Vec<_>>();
    report.set("setup_s", median(&setup_s));
    report.set(
        "job_s",
        median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    );
    report.set("adapt_s", median(&all(|p| &p.train_s)));
    report.set("flow_p50_us", median(&all(|p| &p.us_per_flow)));
    eprintln!(
        "protocol: passes {:?} s of {SEEDS} seeds, AVG {:.3}, PR-AUC {:.3}",
        passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
        mean(
            passes
                .iter()
                .flat_map(|p| p.outcomes.iter().map(|o| o.f1_matrix.avg()))
        ),
        mean(passes.iter().map(final_pr_auc)),
    );
    Ok(reset)
}

fn run_traced(report: &mut Report, seeds: &[u64]) -> Result<bool, String> {
    let inputs = setup(seeds)?;
    let reset = crate::sys::reset_peak_rss();
    let base = pass(&inputs)?;
    check(report, &base, None);
    report.set("core.train_experience_s", base.train_s.iter().sum());
    report.set(
        "core.anomaly_scores_s",
        base.score.iter().map(|s| s.0).sum(),
    );
    report.set("core.k_selected", base.k_selected as f64);
    report.set("pca.components", base.components as f64);
    report.set("quality.pr_auc", final_pr_auc(&base));
    report.set(
        "protocol.avg_f1",
        mean(base.outcomes.iter().map(|o| o.f1_matrix.avg())),
    );
    report.set(
        "protocol.fwd_trans",
        mean(base.outcomes.iter().map(|o| o.f1_matrix.fwd_trans())),
    );

    let (traced_pass, t) = layers::traced(|| pass(&inputs));
    check(report, &traced_pass?, Some(&base));
    t.print("protocol");
    report.set("cfe.pseudo_labels_s", t.self_s("cfe.pseudo_labels"));
    report.set("cfe.epoch_s", t.self_s("cfe.epoch"));
    report.set("pipeline.encode_s", t.self_s("pipeline.encode"));
    report.set("pca.fit_s", t.self_s("pca.fit"));
    report.set("pca.score_s", t.self_s("pca.score"));
    // Thresholding, PR-AUC and the F1 result matrix run inside these
    // runner spans, outside their model-call children.
    report.set(
        "metrics.eval_s",
        t.self_s("runner.score") + t.self_s("runner.eval"),
    );
    report.set("obs.overhead_ratio", t.wall_s / base.wall_s);
    report.set("protocol.unattributed_s", t.unattributed_s());

    let serial = cnd_parallel::ThreadPool::new(1).install(|| pass(&inputs))?;
    check(report, &serial, Some(&base));
    report.set("parallel.protocol_speedup", serial.wall_s / base.wall_s);
    println!(
        "protocol: untraced {:.3} s, traced {:.3} s, pool of one {:.3} s",
        base.wall_s, t.wall_s, serial.wall_s
    );
    Ok(reset)
}
