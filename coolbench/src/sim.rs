//! `sim_deep`: the committed deep and adaptive reproduction matrices swept
//! through `bench::repro::run_sweep`, every record checked byte for byte
//! against the committed goldens.
//!
//! The seed deals the points to the pool in a different order; the records
//! must not change. One operation is one matrix point.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use apps::Version;
use bench::repro::{
    adaptive_matrix, deep_matrix, drift, full_matrix, parse_records_doc, records_doc, run_sweep,
    MatrixPoint, ReproRecord, SweepOptions,
};
use bench::Scale;
use cool_core::obs::ObsEvent;
use cool_core::SchedStats;

use crate::host::Rng;
use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{Ctx, Measured, SetupTimer};

/// The golden of the full-scale matrix. `sim_deep` does not sweep it; its
/// traced run runs and checks every point of it, which also times the three
/// apps the deep matrices leave out.
const FULL_GOLDEN: &str = "results/full/records.json";

/// A committed golden document and the matrix that regenerates it.
pub struct Golden {
    /// Path relative to the repository root.
    pub path: &'static str,
    /// Scale name the document header carries.
    pub scale: &'static str,
    /// The document's bytes.
    pub text: String,
    /// Its records, in matrix order.
    pub records: Vec<ReproRecord>,
    /// The matrix, in the same order.
    pub points: Vec<MatrixPoint>,
}

impl Golden {
    /// Read and parse the document at `path` under `repo`.
    pub fn load(repo: &Path, path: &'static str, points: Vec<MatrixPoint>) -> Result<Self, String> {
        let text = std::fs::read_to_string(repo.join(path)).map_err(|e| format!("{path}: {e}"))?;
        let records = parse_records_doc(&text).map_err(|e| format!("{path}: {e}"))?;
        if records.len() != points.len() {
            return Err(format!(
                "{path}: {} records for a {}-point matrix",
                records.len(),
                points.len()
            ));
        }
        let scale = points.first().map_or("full", |p| p.scale.name());
        Ok(Golden {
            path,
            scale,
            text,
            records,
            points,
        })
    }
}

/// Everything set-up produces: the goldens and the seeded deal order.
pub struct SimSetup {
    /// The goldens the sweep is checked against.
    pub goldens: Vec<Golden>,
    /// Every golden's points, concatenated and shuffled by the seed.
    pub points: Vec<MatrixPoint>,
    /// For each dealt point: (golden index, position in that golden).
    pub slots: Vec<(usize, usize)>,
}

/// Load the goldens of `results/deep` and `results/adaptive` (120 points on
/// the 64-processor 3-level machine) and deal their points in a seeded order.
pub fn setup(repo: &Path, seed: u64) -> Result<SimSetup, String> {
    let goldens = vec![
        Golden::load(repo, "results/deep/records.json", deep_matrix())?,
        Golden::load(repo, "results/adaptive/records.json", adaptive_matrix())?,
    ];
    let mut slots: Vec<(usize, usize)> = goldens
        .iter()
        .enumerate()
        .flat_map(|(g, golden)| (0..golden.points.len()).map(move |i| (g, i)))
        .collect();
    Rng::new(seed, 1).shuffle(&mut slots);
    let points = slots.iter().map(|&(g, i)| goldens[g].points[i]).collect();
    Ok(SimSetup {
        goldens,
        points,
        slots,
    })
}

fn point_id(r: &ReproRecord) -> String {
    format!("{}/{}@{}({})", r.app, r.series, r.nprocs, r.scale)
}

/// Check a golden's freshly swept records (in matrix order) against it.
/// Returns one verdict per point, then one for the whole document: a point
/// fails if its `ReproRecord` bytes differ or the zero-tolerance drift gate
/// names it; the document fails if its bytes differ or drift reports a
/// problem no point accounts for.
pub fn check_golden(fresh: &[ReproRecord], golden: &Golden) -> Vec<Option<String>> {
    let problems = drift(fresh, &golden.records, 0.0);
    let mut claimed = vec![false; problems.len()];
    let mut verdicts: Vec<Option<String>> = golden
        .records
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let id = point_id(g);
            let mut why = Vec::new();
            match fresh.get(i) {
                Some(f) if f.to_json(4) == g.to_json(4) => {}
                Some(_) => why.push("record bytes differ from the golden".to_string()),
                None => why.push("no fresh record".to_string()),
            }
            for (k, p) in problems.iter().enumerate() {
                if p.starts_with(&format!("{id}:")) || p.contains(&format!(" {id} ")) {
                    claimed[k] = true;
                    why.push(p.clone());
                }
            }
            (!why.is_empty()).then(|| format!("{} {id}: {}", golden.path, why.join("; ")))
        })
        .collect();
    let mut doc = Vec::new();
    if records_doc(golden.scale, fresh) != golden.text {
        doc.push("document bytes differ".to_string());
    }
    doc.extend(
        problems
            .iter()
            .zip(&claimed)
            .filter(|(_, c)| !**c)
            .map(|(p, _)| p.clone()),
    );
    verdicts.push((!doc.is_empty()).then(|| format!("{}: {}", golden.path, doc.join("; "))));
    verdicts
}

/// Put a sweep's records (in deal order) back into each golden's matrix
/// order, and check every golden.
fn check_sweep(s: &SimSetup, records: &[ReproRecord], run: &mut RunResult) {
    let mut per_golden: Vec<Vec<Option<ReproRecord>>> = s
        .goldens
        .iter()
        .map(|g| vec![None; g.points.len()])
        .collect();
    for (rec, &(g, i)) in records.iter().zip(&s.slots) {
        per_golden[g][i] = Some(rec.clone());
    }
    for (g, golden) in s.goldens.iter().enumerate() {
        let fresh: Vec<ReproRecord> = per_golden[g].iter().flatten().cloned().collect();
        for verdict in check_golden(&fresh, golden) {
            run.check(verdict);
        }
    }
}

/// Time the workload for about `budget`: one untimed warm-up sweep, then
/// whole sweeps until the next one would overrun the budget (at least one),
/// with the set-up batches of a [`SetupTimer`] between them.
pub fn measure(
    ctx: &Ctx,
    budget: Duration,
    tracer: Option<&Tracer>,
    run: &mut RunResult,
) -> Result<Measured, String> {
    let (mut setup_timer, s) = SetupTimer::start(|| setup(&ctx.repo, ctx.seed), budget)?;
    let n = s.points.len();
    let options = SweepOptions {
        jobs: ctx.nproc,
        cache: None,
        progress: false,
    };
    check_sweep(&s, &run_sweep(&s.points, &options).records, run);
    let mut point_ms: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut rates = Vec::new();
    let (mut busy_s, mut idle_s) = (0.0, 0.0);
    let t0 = Instant::now();
    loop {
        let sweep_span = tracer.map(Tracer::reserve);
        let start = Instant::now();
        let out = run_sweep(&s.points, &options);
        let end = Instant::now();
        let wall = end - start;
        if let (Some(t), Some(id)) = (tracer, sweep_span) {
            t.record(id, None, "bench.repro", "run_sweep", None, start, end);
        }
        check_sweep(&s, &out.records, run);
        let mut begin: BTreeMap<u64, u64> = BTreeMap::new();
        let mut busy_ms = 0u64;
        for e in &out.trace.events {
            match e {
                ObsEvent::TaskBegin { task, time, .. } => {
                    begin.insert(task.0, *time);
                }
                ObsEvent::TaskEnd { task, time, .. } => {
                    let b = begin[&task.0];
                    let idx = (task.0 - 1) as usize;
                    point_ms[idx].push((time - b) as f64);
                    busy_ms += time - b;
                    if let Some(t) = tracer {
                        // The pool's own per-point stamps (ms since the
                        // sweep began): its call into the app layer.
                        let at = |ms: u64| start + Duration::from_millis(ms);
                        let app = s.points[idx].app;
                        t.record(
                            t.reserve(),
                            sweep_span,
                            "apps",
                            app,
                            Some(idx as u64),
                            at(b),
                            at(*time),
                        );
                    }
                }
                _ => {}
            }
        }
        busy_s += busy_ms as f64 * 1e-3;
        idle_s += (out.workers as f64 * wall.as_secs_f64() - busy_ms as f64 * 1e-3).max(0.0);
        rates.push(n as f64 / wall.as_secs_f64());
        setup_timer.tick()?;
        if t0.elapsed() + wall > budget {
            break;
        }
    }
    let setup_s = setup_timer.finish()?;
    if let Some(t) = tracer {
        let passes = rates.len() as f64;
        run.values.insert("repro.pool.busy_s", busy_s / passes);
        run.values.insert("repro.pool.idle_s", idle_s / passes);
        attribute(ctx, &s, t, run)?;
    }
    // A point's host time is its mean over the passes (the pool stamps
    // milliseconds, so averaging also refines the resolution).
    let op_ms: Vec<f64> = point_ms
        .iter()
        .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64)
        .collect();
    Ok(Measured::from_ops(&setup_s, &op_ms, &rates))
}

/// One point's run in the attribution pass.
struct Attributed {
    app: &'static str,
    version: Version,
    /// Index of the golden the point belongs to.
    golden: usize,
    host_s: f64,
    refs: u64,
    stats: SchedStats,
}

/// The traced run's attribution pass, on `nproc` threads: every dealt point
/// once more, then every `results/full` point, each through
/// `apps::driver::run_app_scaled` inside a span, so that per-app host time
/// and the `RunReport` scheduler counters can be read per layer for all six
/// apps (barnes_hut, block_cholesky and locusroute appear only in the full
/// matrix). Each record is checked against its golden.
fn attribute(ctx: &Ctx, s: &SimSetup, tracer: &Tracer, run: &mut RunResult) -> Result<(), String> {
    let full = Golden::load(&ctx.repo, FULL_GOLDEN, full_matrix(Scale::Full))?;
    let goldens: Vec<&Golden> = s.goldens.iter().chain([&full]).collect();
    let jobs: Vec<(usize, usize)> = s
        .slots
        .iter()
        .copied()
        .chain((0..full.points.len()).map(|i| (s.goldens.len(), i)))
        .collect();
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(Attributed, Option<String>)>> = Mutex::new(Vec::new());
    let root = tracer.reserve();
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..ctx.nproc {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(g, i)) = jobs.get(k) else { break };
                let p = goldens[g].points[i];
                let id = tracer.reserve();
                let t = Instant::now();
                let report = apps::driver::run_app_scaled(
                    p.app,
                    p.scale.config(p.nprocs, p.version),
                    p.scale.app_scale(),
                    p.version,
                );
                let end = Instant::now();
                tracer.record(id, Some(root), "apps", p.app, Some(k as u64), t, end);
                let golden = &goldens[g].records[i];
                let mut rec = ReproRecord::from_report(
                    p.app,
                    p.version,
                    p.nprocs,
                    p.scale.name(),
                    p.config_string(),
                    &report,
                );
                rec.speedup = golden.speedup;
                let verdict = (rec.to_json(4) != golden.to_json(4)).then(|| {
                    format!(
                        "attribution run of {} differs from {}",
                        point_id(golden),
                        goldens[g].path
                    )
                });
                let a = Attributed {
                    app: p.app,
                    version: p.version,
                    golden: g,
                    host_s: (end - t).as_secs_f64(),
                    refs: report.run.mem.refs,
                    stats: report.run.stats,
                };
                done.lock()
                    .expect("attribution store poisoned")
                    .push((a, verdict));
            });
        }
    });
    tracer.record(
        root,
        None,
        "bench",
        "attribution_pass",
        None,
        start,
        Instant::now(),
    );
    let done = done.into_inner().expect("attribution store poisoned");
    let mut host: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let (mut tasks, mut stolen, mut failed, mut remote, mut widen, mut pages) = (0, 0, 0, 0, 0, 0);
    let (mut adaptive_s, mut static_s, mut refs) = (0.0, 0.0, 0u64);
    let adaptive_doc = goldens.iter().position(|g| g.path.contains("adaptive"));
    for (a, verdict) in done {
        run.check(verdict);
        let e = host.entry(a.app).or_default();
        e.0 += a.host_s;
        e.1 += a.refs;
        refs += a.refs;
        tasks += a.stats.executed;
        stolen += a.stats.steals_by_level.iter().sum::<u64>();
        failed += a.stats.failed_steals;
        remote += a.stats.remote_steals;
        widen += a.stats.adaptive_widenings;
        pages += a.stats.rebalanced_pages;
        if Some(a.golden) == adaptive_doc {
            match a.version {
                Version::AffinityDistrAdaptive | Version::AffinityDistrRebalance => {
                    adaptive_s += a.host_s
                }
                Version::AffinityDistrCluster | Version::AffinityDistr => static_s += a.host_s,
                _ => {}
            }
        }
    }
    for (app, (secs, r)) in host {
        let (h, m) = app_metric_names(app);
        run.values.insert(h, secs);
        run.values.insert(m, r as f64 / secs / 1e6);
    }
    run.values.insert("dash_sim.refs", refs as f64);
    run.values.insert("cool_sim.tasks", tasks as f64);
    run.values.insert(
        "cool_sim.steal_success_ratio",
        stolen as f64 / (stolen + failed).max(1) as f64,
    );
    run.values.insert("cool_sim.remote_steals", remote as f64);
    run.values
        .insert("feedback.adaptive_widenings", widen as f64);
    run.values.insert("feedback.rebalanced_pages", pages as f64);
    run.values.insert("feedback.adaptive_points_s", adaptive_s);
    run.values.insert("feedback.static_points_s", static_s);
    Ok(())
}

/// The `apps.<app>.host_s` / `apps.<app>.mrefs_per_s` metric names.
fn app_metric_names(app: &str) -> (&'static str, &'static str) {
    match app {
        "barnes_hut" => ("apps.barnes_hut.host_s", "apps.barnes_hut.mrefs_per_s"),
        "block_cholesky" => (
            "apps.block_cholesky.host_s",
            "apps.block_cholesky.mrefs_per_s",
        ),
        "gauss" => ("apps.gauss.host_s", "apps.gauss.mrefs_per_s"),
        "locusroute" => ("apps.locusroute.host_s", "apps.locusroute.mrefs_per_s"),
        "ocean" => ("apps.ocean.host_s", "apps.ocean.mrefs_per_s"),
        "panel_cholesky" => (
            "apps.panel_cholesky.host_s",
            "apps.panel_cholesky.mrefs_per_s",
        ),
        other => panic!("app {other} has no metric names"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::repro::smoke_matrix;

    fn repo() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    fn smoke() -> (Golden, Vec<ReproRecord>) {
        let golden = Golden::load(&repo(), "results/smoke/records.json", smoke_matrix()).unwrap();
        let out = run_sweep(
            &golden.points,
            &SweepOptions {
                jobs: 2,
                cache: None,
                progress: false,
            },
        );
        (golden, out.records)
    }

    fn failures(verdicts: &[Option<String>]) -> usize {
        verdicts.iter().flatten().count()
    }

    #[test]
    fn committed_smoke_golden_passes() {
        let (golden, fresh) = smoke();
        let v = check_golden(&fresh, &golden);
        assert_eq!(v.len(), golden.points.len() + 1);
        assert_eq!(failures(&v), 0, "{v:?}");
    }

    #[test]
    fn corrupted_golden_record_counts_as_a_failure() {
        let (mut golden, fresh) = smoke();
        let victim = golden.records[3].elapsed;
        golden.records[3].elapsed += 1;
        golden.text = golden.text.replacen(
            &format!("\"elapsed\": {victim},"),
            &format!("\"elapsed\": {},", victim + 1),
            1,
        );
        let v = check_golden(&fresh, &golden);
        assert!(v[3].is_some(), "{v:?}");
        assert!(v.last().unwrap().is_some(), "document bytes differ");
        assert_eq!(failures(&v), 2, "{v:?}");
        let mut run = RunResult::default();
        for verdict in v {
            run.check(verdict);
        }
        assert!(run.error_rate() > 0.0);
    }

    #[test]
    fn forced_numeric_error_counts_as_a_failure() {
        let (golden, mut fresh) = smoke();
        fresh[5].max_error = 1e-3;
        let v = check_golden(&fresh, &golden);
        let bad = v[5].as_deref().unwrap();
        assert!(bad.contains("numeric error"), "{bad}");
        assert_eq!(failures(&v[..golden.points.len()]), 1, "{v:?}");
    }

    #[test]
    fn seeds_deal_every_point_exactly_once() {
        let a = setup(&repo(), 1).unwrap();
        let b = setup(&repo(), 2).unwrap();
        assert_eq!(a.points.len(), 120);
        assert_ne!(a.slots, b.slots);
        let mut sorted = a.slots.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 120);
    }
}
