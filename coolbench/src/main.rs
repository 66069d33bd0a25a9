//! The repository's benchmark: two workloads, end-to-end metrics in the
//! timed run, per-layer metrics (and the serve probe) in a separate traced
//! run. See README.md.
//!
//! ```text
//! cargo run --release --offline --manifest-path coolbench/Cargo.toml -- \
//!     --workload sim_deep --seed 1 --seconds 50 --trace 0
//! ```
//!
//! The last line of standard output is the result: `correct`, `attempted`,
//! `failed` and the metrics, each with its unit.

mod host;
mod probes;
mod report;
mod rt;
mod serve;
mod sim;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use report::{result_line, RunResult, END_TO_END, PER_LAYER};
use stats::{median, tail};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["sim_deep", "rt_batch"];

/// Host time the traced run gives the serve probe.
const SERVE_PROBE: Duration = Duration::from_secs(6);

/// Batches of set-ups a run times; `setup_s` is the median of their mean
/// set-up times.
pub const SETUP_BATCHES: u32 = 10;
/// Host time one batch repeats the set-up for. A set-up takes milliseconds,
/// and on a shared host one repeat can fall wholly into a stretch where a
/// neighbour slows the processor; a batch spans several such stretches.
pub const SETUP_BATCH: Duration = Duration::from_millis(150);

/// What every workload needs to know.
pub struct Ctx {
    /// Repository root (inputs and goldens are read from it).
    pub repo: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Busy threads allowed.
    pub nproc: usize,
}

/// A workload's end-to-end figures from one measurement.
pub struct Measured {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Median operation time, ms.
    pub op_p50_ms: f64,
    /// Tail operation time, ms.
    pub op_tail_ms: f64,
    /// Median sustained operations per second.
    pub ops_per_s: f64,
}

impl Measured {
    /// Figures from raw samples.
    pub fn from_ops(setup_s: &[f64], op_ms: &[f64], ops_per_s: &[f64]) -> Self {
        Measured {
            setup_s: median(setup_s),
            op_p50_ms: median(op_ms),
            op_tail_ms: tail(op_ms).0,
            ops_per_s: median(ops_per_s),
        }
    }
}

/// Set-up timed in [`SETUP_BATCHES`] batches spread evenly over a run, so
/// that `setup_s` samples the host's speed across the whole run rather than
/// in its first second.
pub struct SetupTimer<F> {
    setup: F,
    budget: Duration,
    start: Instant,
    means: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> SetupTimer<F> {
    /// Time the first batch; its last result is the workload's input. The
    /// other batches fall due at equal shares of `budget`.
    pub fn start(setup: F, budget: Duration) -> Result<(Self, T), String> {
        let mut timer = SetupTimer {
            setup,
            budget,
            start: Instant::now(),
            means: Vec::new(),
        };
        let out = timer.batch()?;
        timer.start = Instant::now();
        Ok((timer, out))
    }

    /// Repeat the set-up for [`SETUP_BATCH`] (at least once); record the
    /// mean time of one set-up.
    fn batch(&mut self) -> Result<T, String> {
        let t0 = Instant::now();
        let mut n = 0u32;
        loop {
            let out = (self.setup)()?;
            n += 1;
            if t0.elapsed() >= SETUP_BATCH {
                self.means.push(t0.elapsed().as_secs_f64() / f64::from(n));
                return Ok(out);
            }
        }
    }

    /// Time the next batch if the run has reached its share of the budget;
    /// call between operations.
    pub fn tick(&mut self) -> Result<(), String> {
        let done = self.means.len() as u32;
        if done < SETUP_BATCHES && self.start.elapsed() >= self.budget * done / SETUP_BATCHES {
            self.batch()?;
        }
        Ok(())
    }

    /// Time the batches still owed; the mean set-up time of every batch, s.
    pub fn finish(mut self) -> Result<Vec<f64>, String> {
        while (self.means.len() as u32) < SETUP_BATCHES {
            self.batch()?;
        }
        Ok(self.means)
    }
}

/// Per-layer metrics a workload cannot produce, because it does not run
/// that layer; the traced run reports them as zero work. Every other
/// per-layer metric must be measured.
pub fn not_run(workload: &str) -> Vec<&'static str> {
    const COOL_RT: &[&str] = &[
        "cool_rt.tasks",
        "cool_rt.failed_steal_ratio",
        "cool_rt.affinity_hit_ratio",
        "cool_rt.mutex_parks",
        "trace.self_s.cool_rt",
    ];
    // Apps the deep matrices do not sweep; the traced `sim_deep` run
    // attributes their `results/full` points.
    const FULL_ONLY_APPS: &[&str] = &[
        "apps.barnes_hut.host_s",
        "apps.barnes_hut.mrefs_per_s",
        "apps.block_cholesky.host_s",
        "apps.block_cholesky.mrefs_per_s",
        "apps.locusroute.host_s",
        "apps.locusroute.mrefs_per_s",
    ];
    const SIM: &[&str] = &[
        "repro.pool.busy_s",
        "repro.pool.idle_s",
        "trace.self_s.bench.repro",
        "apps.gauss.host_s",
        "apps.gauss.mrefs_per_s",
        "apps.ocean.host_s",
        "apps.ocean.mrefs_per_s",
        "apps.panel_cholesky.host_s",
        "apps.panel_cholesky.mrefs_per_s",
        "dash_sim.refs",
        "cool_sim.tasks",
        "cool_sim.steal_success_ratio",
        "cool_sim.remote_steals",
        "feedback.adaptive_widenings",
        "feedback.rebalanced_pages",
        "feedback.adaptive_points_s",
        "feedback.static_points_s",
    ];
    match workload {
        "sim_deep" => COOL_RT.to_vec(),
        "rt_batch" => [SIM, FULL_ONLY_APPS].concat(),
        _ => Vec::new(),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("{flag} is required"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} takes a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let num = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace takes 0 or 1, got {t}")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn measure(
    workload: &str,
    ctx: &Ctx,
    budget: Duration,
    tracer: Option<&Tracer>,
    run: &mut RunResult,
) -> Result<Measured, String> {
    match workload {
        "sim_deep" => sim::measure(ctx, budget, tracer, run),
        "rt_batch" => rt::measure(ctx, budget, tracer, run),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The traced run: the workload once untraced and once traced (half the
/// budget each, the ratio of their median operation times is the tracing
/// overhead), then the layer probes and the serve probe. Spans go to `out/`
/// in the benchmark's directory.
fn traced(
    args: &Args,
    ctx: &Ctx,
    calib: f64,
    source: &str,
    run: &mut RunResult,
) -> Result<(), String> {
    let half = Duration::from_secs(args.seconds) / 2;
    let base = measure(&args.workload, ctx, half, None, run)?;
    let tracer = Tracer::default();
    let traced = measure(&args.workload, ctx, half, Some(&tracer), run)?;
    run.values
        .insert("trace.overhead_ratio", traced.op_p50_ms / base.op_p50_ms);
    probes::run(ctx.nproc, calib, run);
    serve::probe(ctx, SERVE_PROBE, &tracer, run);
    run.values.insert("host.calib_ops_per_s", calib);
    run.values.insert("host.nproc", ctx.nproc as f64);
    let spans = tracer.spans();
    let selfs = trace::layer_self_s(&spans);
    for (layer, metric) in [
        ("bench.repro", "trace.self_s.bench.repro"),
        ("apps", "trace.self_s.apps"),
        ("cool_rt", "trace.self_s.cool_rt"),
        ("serve", "trace.self_s.serve"),
        ("loadgen", "trace.self_s.loadgen"),
    ] {
        if let Some(&s) = selfs.get(layer) {
            run.values.insert(metric, s);
        }
    }
    // A layer this workload does not run did no work; a metric missing
    // from any other layer fails the result line.
    for name in not_run(&args.workload) {
        run.values.entry(name).or_insert(0.0);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let header = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"nproc\": {}, \"calib_ops_per_s\": {calib}, \"source\": \"{source}\"}}\n",
        args.workload, args.seed, ctx.nproc
    );
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, header + &trace::to_json_lines(&spans)))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!(
        "coolbench: wrote {} spans to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("coolbench: {e}");
            eprintln!("usage: coolbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let ctx = Ctx {
        repo: repo.clone(),
        seed: args.seed,
        nproc: host::nproc(),
    };
    let calib = host::calibrate(5);
    let source = host::source_id(&repo);
    println!(
        "# coolbench workload={} seed={} seconds={} trace={} nproc={} calib_ops_per_s={calib:.0} source={source}",
        args.workload, args.seed, args.seconds, u8::from(args.trace), ctx.nproc
    );
    let mut run = RunResult::default();
    let catalog = if args.trace {
        if let Err(e) = traced(&args, &ctx, calib, &source, &mut run) {
            eprintln!("coolbench: {e}");
            return ExitCode::FAILURE;
        }
        PER_LAYER
    } else {
        let m = match measure(
            &args.workload,
            &ctx,
            Duration::from_secs(args.seconds),
            None,
            &mut run,
        ) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("coolbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let Some(rss) = host::peak_rss_mb() else {
            eprintln!("coolbench: peak resident set unavailable (no /proc/self/status)");
            return ExitCode::FAILURE;
        };
        run.values.insert("setup_s", m.setup_s);
        run.values.insert("op_p50_ms", m.op_p50_ms);
        run.values.insert("op_tail_ms", m.op_tail_ms);
        run.values.insert("ops_per_s", m.ops_per_s);
        run.values.insert("peak_rss_mb", rss);
        END_TO_END
    };
    for p in run.problems.iter().take(20) {
        eprintln!("coolbench: FAILED {p}");
    }
    eprintln!(
        "coolbench: {} operations, {} failed (error rate {})",
        run.attempted,
        run.failed,
        run.error_rate()
    );
    match result_line(&run, catalog) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("coolbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_run_metrics_are_per_layer_and_leave_each_layer_measured_somewhere() {
        for w in WORKLOADS {
            for name in not_run(w) {
                assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{w}: {name}");
            }
        }
        for (name, _) in PER_LAYER {
            assert!(
                WORKLOADS.iter().any(|w| !not_run(w).contains(name)),
                "{name} is measured on no workload"
            );
        }
        assert!(not_run("sim_deep").contains(&"cool_rt.tasks"));
        assert!(!not_run("sim_deep").contains(&"apps.locusroute.host_s"));
        assert!(!not_run("rt_batch").contains(&"cool_rt.tasks"));
    }

    #[test]
    fn setup_batches_spread_over_the_budget() {
        let mut calls = 0;
        let budget = Duration::from_secs(2);
        let (mut timer, first) = SetupTimer::start(
            || {
                calls += 1;
                std::thread::sleep(Duration::from_millis(20));
                Ok(calls)
            },
            budget,
        )
        .unwrap();
        assert!(first >= 1);
        assert_eq!(timer.means.len(), 1);
        timer.tick().unwrap();
        assert_eq!(timer.means.len(), 1, "the second batch is due a tenth in");
        std::thread::sleep(budget / 5);
        timer.tick().unwrap();
        assert_eq!(timer.means.len(), 2);
        let means = timer.finish().unwrap();
        assert_eq!(means.len(), SETUP_BATCHES as usize);
        assert!(
            means.iter().all(|&m| (0.019..0.06).contains(&m)),
            "{means:?}"
        );
        assert!(SetupTimer::start(|| Err::<(), _>("bad input".to_string()), budget).is_err());
    }
}
