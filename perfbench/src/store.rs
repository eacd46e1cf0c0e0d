//! `store`: a 300k-row WUSTL-IIoT CSV goes through
//! `ingest_csv_to_store`, then `train_from_store` with a 2000-row
//! training reservoir, then `DeployedScorer::score_chunks` over the
//! whole store. Data-plane layers do most of the work, and scoring runs
//! at large batches.

use std::io::{BufRead, BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use cnd_core::deploy::DeployedScorer;
use cnd_core::outofcore::{train_from_store, OutOfCoreTrainConfig};
use cnd_core::CndIdsConfig;
use cnd_datasets::{
    ingest_csv_from, ingest_csv_to_store, DatasetProfile, GeneratorConfig, IngestOptions,
};
use cnd_linalg::Matrix;
use cnd_store::{default_chunk_rows, DType, FlowStore};

use crate::report::Report;
use crate::sys::median;
use crate::{layers, Ctx, SETUPS};

const ROWS: usize = 300_000;
const TRAIN_CAPACITY: usize = 2_000;
/// Every this many rows, set-up keeps the row as parsed from the CSV to
/// check the chunked scores against in-memory scoring.
const SAMPLE_EVERY: usize = 37;
/// Rows of the CSV the in-memory ingest pass reads.
const MEM_INGEST_ROWS: usize = 50_000;
/// Timed passes per run, all with the workload seed: a fixed count, so
/// a slower program measures the same work, and every pass after the
/// first must reproduce its scores. The metrics are medians over them.
const PASSES: usize = 3;

const OPTIONS: IngestOptions = IngestOptions {
    has_header: false,
    dtype: DType::F64,
};

struct Setup {
    csv: PathBuf,
    sample_at: Vec<usize>,
    sample: Matrix,
}

fn setup(seed: u64, work: &Path) -> Result<Setup, String> {
    let cfg = GeneratorConfig {
        total_samples: ROWS,
        ..GeneratorConfig::standard(seed)
    };
    let data = DatasetProfile::WustlIiot
        .generate(&cfg)
        .map_err(|e| e.to_string())?;
    let csv = work.join("flows.csv");
    let file = std::fs::File::create(&csv).map_err(|e| e.to_string())?;
    let mut w = BufWriter::with_capacity(1 << 20, file);
    let mut sample_at = Vec::new();
    let mut sample = Vec::new();
    for (i, (row, &class)) in data.x.iter_rows().zip(&data.class).enumerate() {
        for v in row {
            write!(w, "{v:.6},").map_err(|e| e.to_string())?;
        }
        writeln!(w, "{}", data.class_names[class]).map_err(|e| e.to_string())?;
        if i % SAMPLE_EVERY == 0 {
            sample_at.push(i);
            // The value the CSV loader will read back.
            let parsed: Result<Vec<f64>, _> = row
                .iter()
                .map(|v| format!("{v:.6}").parse::<f64>())
                .collect();
            sample.push(parsed.map_err(|e| e.to_string())?);
        }
    }
    w.flush().map_err(|e| e.to_string())?;
    let sample = Matrix::from_rows(&sample).map_err(|e| e.to_string())?;
    Ok(Setup {
        csv,
        sample_at,
        sample,
    })
}

struct Pass {
    ingest_s: f64,
    train_s: f64,
    score_s: f64,
    wall_s: f64,
    quarantined: u64,
    rows_written: u64,
    scores: Vec<f64>,
    labels: Vec<u8>,
    scorer: DeployedScorer,
    k_selected: usize,
    components: usize,
}

fn pass(csv: &Path, store_path: &Path, seed: u64) -> Result<Pass, String> {
    let t = Instant::now();
    let ingest = ingest_csv_to_store(csv, store_path, &OPTIONS).map_err(|e| e.to_string())?;
    let ingest_s = t.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let store = FlowStore::open(store_path).map_err(|e| e.to_string())?;
    let mut cfg = OutOfCoreTrainConfig::new(CndIdsConfig::fast(seed));
    cfg.seed = seed;
    cfg.train_capacity = TRAIN_CAPACITY;
    let trained = train_from_store(&store, &cfg).map_err(|e| e.to_string())?;
    let scorer = trained.model.freeze().map_err(|e| e.to_string())?;
    let train_s = t1.elapsed().as_secs_f64();

    let t2 = Instant::now();
    let (scores, labels) = score_all(&scorer, &store)?;
    let score_s = t2.elapsed().as_secs_f64();
    Ok(Pass {
        ingest_s,
        train_s,
        score_s,
        wall_s: t.elapsed().as_secs_f64(),
        quarantined: ingest.rows_quarantined,
        rows_written: ingest.rows_written,
        scores,
        labels,
        scorer,
        k_selected: trained.stats.k_selected,
        components: trained.model.pca_components().unwrap_or(0),
    })
}

fn score_all(scorer: &DeployedScorer, store: &FlowStore) -> Result<(Vec<f64>, Vec<u8>), String> {
    let mut scores = Vec::with_capacity(store.len() as usize);
    let mut labels = Vec::with_capacity(store.len() as usize);
    let chunks = store
        .chunks(default_chunk_rows())
        .map_err(|e| e.to_string())?;
    for part in scorer.score_chunks(chunks) {
        let part = part.map_err(|e| e.to_string())?;
        scores.extend(part.scores);
        labels.extend(part.labels.iter().map(|&l| u8::from(l != 0)));
    }
    Ok((scores, labels))
}

fn pr_auc(p: &Pass) -> f64 {
    cnd_metrics::curve::pr_auc(&p.scores, &p.labels).unwrap_or(f64::NAN)
}

fn check(report: &mut Report, s: &Setup, p: &Pass, first: Option<&Pass>) -> Result<(), String> {
    report.op(p.quarantined == 0, || {
        format!("{} rows quarantined", p.quarantined)
    });
    report.op(
        p.rows_written == ROWS as u64 && p.scores.len() == ROWS,
        || {
            format!(
                "{} rows stored, {} scored, of {ROWS}",
                p.rows_written,
                p.scores.len()
            )
        },
    );
    report.op(p.scores.iter().all(|v| v.is_finite()), || {
        "non-finite chunked score".into()
    });
    let in_memory = p
        .scorer
        .anomaly_scores(&s.sample)
        .map_err(|e| e.to_string())?;
    let mismatched = s
        .sample_at
        .iter()
        .zip(&in_memory)
        .filter(|&(&i, want)| p.scores.get(i).map(|v| v.to_bits()) != Some(want.to_bits()))
        .count();
    report.ops(s.sample_at.len() as u64, mismatched as u64, || {
        "chunked store scores differ from in-memory scores".into()
    });
    if let Some(first) = first {
        let same = first
            .scores
            .iter()
            .map(|v| v.to_bits())
            .eq(p.scores.iter().map(|v| v.to_bits()));
        report.op(same, || "a repeated pass scored differently".into());
    }
    Ok(())
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Result<bool, String> {
    let mut setup_s = Vec::new();
    let mut input = None;
    for _ in 0..if ctx.traced { 1 } else { SETUPS } {
        let t = Instant::now();
        input = Some(setup(ctx.seed, &ctx.work)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = input.expect("at least one set-up");
    let store_path = ctx.work.join("flows.cnds");
    if ctx.traced {
        return run_traced(ctx, report, &s, &store_path);
    }

    let reset = crate::sys::reset_peak_rss();
    let passes = (0..PASSES)
        .map(|_| pass(&s.csv, &store_path, ctx.seed))
        .collect::<Result<Vec<_>, _>>()?;
    report.set("peak_rss_mib", crate::sys::peak_rss_mib());
    for (i, p) in passes.iter().enumerate() {
        check(report, &s, p, (i > 0).then(|| &passes[0]))?;
    }
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = &passes[0];
    report.set("setup_s", median(&setup_s));
    report.set("job_s", med(|p| p.wall_s));
    report.set("adapt_s", med(|p| p.train_s));
    report.set("flow_p50_us", med(|p| p.score_s * 1e6 / ROWS as f64));
    eprintln!(
        "store: {} passes; ingest {:.3} s, train {:.3} s, score {:.3} s, PR-AUC {:.3}",
        passes.len(),
        med(|p| p.ingest_s),
        med(|p| p.train_s),
        med(|p| p.score_s),
        pr_auc(first)
    );
    Ok(reset)
}

fn run_traced(
    ctx: &Ctx,
    report: &mut Report,
    s: &Setup,
    store_path: &Path,
) -> Result<bool, String> {
    let reset = crate::sys::reset_peak_rss();
    let base = pass(&s.csv, store_path, ctx.seed)?;
    check(report, s, &base, None)?;
    report.set("deploy.score_chunks_s", base.score_s);
    report.set("core.k_selected", base.k_selected as f64);
    report.set("pca.components", base.components as f64);
    report.set("ingest.quarantined", base.quarantined as f64);
    report.set("quality.pr_auc", pr_auc(&base));

    let (traced_pass, t) = layers::traced(|| pass(&s.csv, store_path, ctx.seed));
    check(report, s, &traced_pass?, Some(&base))?;
    t.print("store");
    // Span self-times: CSV parsing plus store writes, and the reservoir
    // pass over the store outside the model training it feeds.
    report.set("ingest.csv_s", t.self_s("ingest.csv"));
    report.set(
        "store.train_from_store_s",
        t.self_s("core.train_from_store"),
    );
    report.set("cfe.pseudo_labels_s", t.self_s("cfe.pseudo_labels"));
    report.set("cfe.epoch_s", t.self_s("cfe.epoch"));
    report.set("pipeline.encode_s", t.self_s("pipeline.encode"));
    report.set("pca.fit_s", t.self_s("pca.fit"));
    report.set("pca.score_s", t.self_s("pca.score"));
    report.set("obs.overhead_ratio", t.wall_s / base.wall_s);
    report.set("store.unattributed_s", t.unattributed_s());

    // A bare sequential pass over the store: the read side alone.
    let store = FlowStore::open(store_path).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let mut rows = 0usize;
    for chunk in store
        .chunks(default_chunk_rows())
        .map_err(|e| e.to_string())?
    {
        rows += std::hint::black_box(chunk.map_err(|e| e.to_string())?).len();
    }
    report.set(
        "store.read_rows_per_s",
        rows as f64 / t0.elapsed().as_secs_f64(),
    );
    let bytes = std::fs::metadata(store_path)
        .map_err(|e| e.to_string())?
        .len();
    report.set("store.bytes_read", bytes as f64);

    // The pool of one against the default pool, on chunked scoring.
    let t1 = Instant::now();
    let serial = cnd_parallel::ThreadPool::new(1).install(|| score_all(&base.scorer, &store))?;
    let serial_s = t1.elapsed().as_secs_f64();
    report.op(serial.0 == base.scores, || {
        "pool of one scored differently".into()
    });
    report.set("parallel.score_speedup", serial_s / base.score_s);

    // CSV parsing without the disk: the first rows, from memory.
    let file = std::fs::File::open(&s.csv).map_err(|e| e.to_string())?;
    let mut bytes = Vec::new();
    for line in std::io::BufReader::new(file).lines().take(MEM_INGEST_ROWS) {
        bytes.extend_from_slice(line.map_err(|e| e.to_string())?.as_bytes());
        bytes.push(b'\n');
    }
    let mem_store = ctx.work.join("mem.cnds");
    let t2 = Instant::now();
    let mem = ingest_csv_from(std::io::Cursor::new(&bytes), &mem_store, &OPTIONS)
        .map_err(|e| e.to_string())?;
    report.set(
        "ingest.mem_rows_per_s",
        mem.rows_written as f64 / t2.elapsed().as_secs_f64(),
    );
    println!(
        "store: untraced pass {:.3} s (ingest {:.3}, train {:.3}, score {:.3}); score on a pool of one {:.3} s",
        base.wall_s, base.ingest_s, base.train_s, base.score_s, serial_s
    );
    Ok(reset)
}
