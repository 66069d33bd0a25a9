//! The serve probe of the traced run: the full-scale LocusRoute
//! route-request set replayed open-loop against a
//! `cool_rt::serve::WorkServer`, at one fixed offered rate and on a rate
//! ladder up to saturation.
//!
//! The generator is the benchmark's own. Arrivals follow a seeded due-time
//! schedule (Poisson gaps, seeded request order); the generator waits for
//! each absolute due time, so late sends do not push later ones back, and
//! every request is timed from its due time, so a stall is charged to every
//! request queued behind it. How late the generator itself ran is reported
//! as `loadgen.lag_tail_us`. One operation is one request at the fixed rate.
//!
//! This was meant as an end-to-end workload (`serve_open_loop`); its
//! microsecond latencies spread too far between runs on a shared 2-vCPU
//! host to hold a regression bound (see README.md), so it is measured as a
//! layer instead, in every traced run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use apps::driver::{locus_params, AppScale};
use apps::serve_adapter::RouteRequestSet;
use cool_rt::serve::{Outcome, Request, ServeConfig, SubmitError, WorkServer};
use workloads::Circuit;

use crate::host::Rng;
use crate::report::RunResult;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::Ctx;

/// The fixed offered rate, requests per second: about half the capacity
/// (`serve.max_rate_rps`, 170k–180k/s with one worker) measured on a
/// 2-vCPU host; see README.md.
pub const FIXED_RATE: f64 = 85_000.0;
/// Latency limit on the tail percentile, ms. A replay above capacity ends
/// with a backlog that passes this limit once the offered rate is about
/// 1.2× the capacity, and the limit stays above the generator's own lag
/// tail (1–3 ms on a shared host); see README.md.
pub const LATENCY_LIMIT_MS: f64 = 10.0;
/// Passes over the request set in one replay, so that a replay near
/// saturation lasts many times the latency limit and a growing backlog
/// shows.
pub const PASSES: usize = 8;
/// Ladder bounds: rungs stay within this factor of the first one, up and
/// down.
const MAX_RUNG: f64 = 64.0;
/// Waiting-queue capacity of the single domain pool: a whole replay fits,
/// so a stall of the host delays requests rather than shedding them, and
/// the ladder finds overload by latency.
pub const QUEUE_CAPACITY: usize = PASSES * 2048;
/// Factor between ladder rungs.
const LADDER_STEP: f64 = 1.5;
/// Geometric bisection steps between the last rung met and the first
/// missed.
const BISECT_STEPS: usize = 6;
/// Replays a ladder rung may take to meet the limit.
const RUNG_ATTEMPTS: usize = 2;
/// Fixed-rate replays always made, whatever the budget.
const MIN_REPLAYS: usize = 3;
/// Fixed-rate replays whose requests are recorded as spans.
const TRACED_REPLAYS: usize = 2;

/// A seeded open-loop schedule over [`PASSES`] passes of an `n`-request
/// set: which request goes `k`-th (`pass * n + request`), and its due time
/// at one request per second (scaled by the rate).
pub struct Schedule {
    n: usize,
    order: Vec<usize>,
    unit_due_s: Vec<f64>,
}

impl Schedule {
    /// Poisson arrivals; each pass sends the set in its own seeded order.
    pub fn new(n: usize, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut order = Vec::with_capacity(PASSES * n);
        for pass in 0..PASSES {
            let mut perm: Vec<usize> = (0..n).map(|i| pass * n + i).collect();
            rng.shuffle(&mut perm);
            order.extend(perm);
        }
        let mut t = 0.0;
        let unit_due_s = (0..order.len())
            .map(|_| {
                t += -(1.0 - rng.unit()).ln();
                t
            })
            .collect();
        Schedule {
            n,
            order,
            unit_due_s,
        }
    }

    /// Due time of the `k`-th send at `rate` requests per second.
    fn due(&self, k: usize, rate: f64) -> Duration {
        Duration::from_secs_f64(self.unit_due_s[k] / rate)
    }
}

/// What one replay of the request set measured and checked.
#[derive(Debug, Default)]
pub struct Replay {
    /// Due-time-to-completion latency per request, ms. A request that was
    /// shed, failed or timed out is charged the whole replay (due time to
    /// end of drain), so it misses any limit the replay can meet.
    pub lat_ms: Vec<f64>,
    /// Requests shed, failed or timed out.
    pub missing: usize,
    /// From the first due time to the end of the drain, s.
    pub wall_s: f64,
    /// `submit` call time per send, µs.
    pub submit_us: Vec<f64>,
    /// Body (`request_body`) time per completed request, µs.
    pub body_us: Vec<f64>,
    /// Latency minus body minus submit per completed request, µs.
    pub queue_us: Vec<f64>,
    /// How late the generator sent each request, µs.
    pub lag_us: Vec<f64>,
    /// Requests shed by admission.
    pub shed: u64,
    /// Retries the server scheduled.
    pub retries: u64,
    /// Broken invariants: lost or double-executed requests, conservation.
    pub problems: Vec<String>,
}

impl Replay {
    /// Met the latency limit with nothing shed, failed or timed out. The
    /// last request (and so the backlog) is inside the limit too, since
    /// every latency is.
    pub fn meets_limit(&self) -> bool {
        self.missing == 0 && self.problems.is_empty() && tail(&self.lat_ms).0 <= LATENCY_LIMIT_MS
    }
}

/// Sleep until shortly before `due`, then spin the last stretch: the
/// generator holds a processor only while a send is imminent.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(80);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Replay [`PASSES`] passes of the request set at `rate` against a fresh
/// server of `workers` workers (each pass routes into its own occupancy
/// array), and check the server's books against the application's.
pub fn replay(
    circuit: &Circuit,
    sched: &Schedule,
    rate: f64,
    workers: usize,
    tracer: Option<&Tracer>,
) -> Replay {
    let sets: Vec<RouteRequestSet> = (0..PASSES)
        .map(|_| RouteRequestSet::from_circuit(circuit.clone()))
        .collect();
    let n = sched.n;
    let total = sched.order.len();
    let server = WorkServer::new(ServeConfig::new(1, workers).with_capacity(QUEUE_CAPACITY));
    let body_at: Arc<Vec<(AtomicU64, AtomicU64)>> = Arc::new(
        (0..total)
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
            .collect(),
    );
    let epoch = Instant::now();
    let start = epoch + Duration::from_millis(1);
    // (request id, due, sent, submit start, submit end)
    let mut sent = Vec::with_capacity(total);
    let mut out = Replay::default();
    for k in 0..total {
        let id = sched.order[k];
        let (set, i) = (&sets[id / n], id % n);
        let due = start + sched.due(k, rate);
        wait_until(due);
        let sent_at = Instant::now();
        let body = set.request_body(i);
        let at = body_at.clone();
        let req = Request::new(
            id as u64,
            set.shard_of(i),
            set.cost_units(i),
            move |attempt| {
                at[id].0.store(ns_since(epoch), Ordering::Relaxed);
                let r = body(attempt);
                at[id].1.store(ns_since(epoch), Ordering::Relaxed);
                r
            },
        );
        let s0 = Instant::now();
        let admitted = server.submit(req);
        let s1 = Instant::now();
        match admitted {
            Ok(_) | Err(SubmitError::Shed(_)) => {}
            Err(e) => out.problems.push(format!("request {id} refused: {e}")),
        }
        sent.push((id, due, sent_at, s0, s1));
    }
    server.drain();
    let end = Instant::now();
    let stats = server.stats();
    let outcomes = server.outcomes();
    drop(server);
    out.shed = stats.shed;
    out.retries = stats.retries;
    out.wall_s = (end - start).as_secs_f64();

    let mut completed = vec![Vec::new(); PASSES];
    for (&id, rec) in &outcomes {
        match &rec.outcome {
            None => out.problems.push(format!("request {id} lost")),
            Some(Outcome::Completed { .. }) => completed[id as usize / n].push(id as usize % n),
            Some(_) => {}
        }
        if rec.body_successes > 1 {
            out.problems.push(format!(
                "request {id} executed {} times",
                rec.body_successes
            ));
        }
    }
    for (pass, (set, done)) in sets.iter().zip(&completed).enumerate() {
        if let Err(e) = set.verify_conservation(done) {
            out.problems
                .push(format!("conservation of pass {pass}: {e}"));
        }
    }
    let root = tracer.map(Tracer::reserve);
    for &(id, due, sent_at, s0, s1) in &sent {
        let ns = |x: u64| epoch + Duration::from_nanos(x);
        let (b0, b1) = (
            body_at[id].0.load(Ordering::Relaxed),
            body_at[id].1.load(Ordering::Relaxed),
        );
        let done = matches!(
            outcomes.get(&(id as u64)).and_then(|r| r.outcome.as_ref()),
            Some(Outcome::Completed { .. })
        );
        let submit_us = (s1 - s0).as_secs_f64() * 1e6;
        out.submit_us.push(submit_us);
        out.lag_us.push((sent_at - due).as_secs_f64() * 1e6);
        if done && b1 > 0 {
            let lat = ns(b1).saturating_duration_since(due).as_secs_f64();
            let body = (b1 - b0) as f64 * 1e-3;
            out.lat_ms.push(lat * 1e3);
            out.body_us.push(body);
            out.queue_us.push(lat * 1e6 - body - submit_us);
        } else {
            out.missing += 1;
            out.lat_ms
                .push(end.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        if let (Some(t), Some(root)) = (tracer, root) {
            t.record(
                t.reserve(),
                Some(root),
                "serve",
                "submit",
                Some(id as u64),
                s0,
                s1,
            );
            if b1 > 0 {
                t.record(
                    t.reserve(),
                    Some(root),
                    "apps",
                    "request_body",
                    Some(id as u64),
                    ns(b0),
                    ns(b1),
                );
            }
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.record(root, None, "loadgen", "replay", None, epoch, end);
    }
    out
}

/// The highest rate that meets the limit, searched from `first`: climb a
/// geometric ladder while rungs meet it, or walk down while they miss, then
/// bisect between the highest rung met and the lowest missed. `meets` says
/// whether a rate met the limit. The result is always a rate that met it;
/// `None` if no rung down to `first / MAX_RUNG` did.
pub fn ladder(first: f64, mut meets: impl FnMut(f64) -> bool) -> Option<f64> {
    let (mut lo, mut hi);
    if meets(first) {
        lo = first;
        hi = first * LADDER_STEP;
        while hi < MAX_RUNG * first && meets(hi) {
            lo = hi;
            hi *= LADDER_STEP;
        }
    } else {
        hi = first;
        lo = first / LADDER_STEP;
        while !meets(lo) {
            if lo <= first / MAX_RUNG {
                return None;
            }
            hi = lo;
            lo /= LADDER_STEP;
        }
    }
    for _ in 0..BISECT_STEPS {
        let mid = (lo * hi).sqrt();
        if meets(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// [`ladder`] over replays: `replay_at` replays the request set at a rate.
/// A rung is met when one of [`RUNG_ATTEMPTS`] replays at its rate meets the
/// limit, since overload misses every time while a stall of the host rarely
/// strikes twice. Every replay is checked, and a server that meets the
/// limit at no rung is a failed operation (the rate is then reported as 0).
pub fn max_rate(first: f64, run: &mut RunResult, mut replay_at: impl FnMut(f64) -> Replay) -> f64 {
    let found = ladder(first, |rate| {
        (0..RUNG_ATTEMPTS).any(|_| {
            let r = replay_at(rate);
            run.check(
                (!r.problems.is_empty())
                    .then(|| format!("ladder at {rate:.0}/s: {}", r.problems.join("; "))),
            );
            r.meets_limit()
        })
    });
    run.check(found.is_none().then(|| {
        format!(
            "no rate down to {:.0}/s met the {LATENCY_LIMIT_MS} ms limit",
            first / MAX_RUNG
        )
    }));
    found.unwrap_or(0.0)
}

/// Run the probe for about `budget`: one warm-up replay, fixed-rate
/// replays (traced) for half the budget, then saturation ladders for the
/// rest (at least one). Fills every `serve.*`, `loadgen.*` and
/// `apps.serve_adapter.*` metric.
pub fn probe(ctx: &Ctx, budget: Duration, tracer: &Tracer, run: &mut RunResult) {
    // Server workers plus the generator thread stay within nproc.
    let workers = ctx.nproc.saturating_sub(1).max(1);
    let circuit = locus_params(AppScale::Full).circuit;
    let sched = Schedule::new(circuit.nets.len(), ctx.seed);
    let warm = replay(&circuit, &sched, FIXED_RATE, workers, None);
    run.check((!warm.problems.is_empty()).then(|| warm.problems.join("; ")));

    let t0 = Instant::now();
    let mut fixed = Vec::new();
    while fixed.len() < MIN_REPLAYS || t0.elapsed() < budget / 2 {
        // Spans of the first replays suffice to attribute the time, and
        // keep the span file small.
        let traced = (fixed.len() < TRACED_REPLAYS).then_some(tracer);
        let r = replay(&circuit, &sched, FIXED_RATE, workers, traced);
        run.attempted += r.lat_ms.len() as u64 - r.missing as u64;
        for _ in 0..r.missing {
            run.check(Some(format!(
                "request at {FIXED_RATE}/s shed, failed or timed out"
            )));
        }
        run.check((!r.problems.is_empty()).then(|| r.problems.join("; ")));
        fixed.push(r);
    }
    // The seed places the ladder's rungs (between the fixed rate and one
    // step above it), so that runs under different seeds probe different
    // rates rather than one fixed grid.
    let first = FIXED_RATE * LADDER_STEP.powf(Rng::new(ctx.seed, 4).unit());
    let t1 = Instant::now();
    let mut rates = Vec::new();
    while rates.is_empty() || t1.elapsed() < budget / 2 {
        rates.push(max_rate(first, run, |rate| {
            replay(&circuit, &sched, rate, workers, None)
        }));
    }

    let pooled = |f: fn(&Replay) -> &Vec<f64>| -> Vec<f64> {
        fixed.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    // p50 and tail of each pass over the request set, then the median over
    // every pass of every replay.
    let passes: Vec<&[f64]> = fixed
        .iter()
        .flat_map(|r| r.lat_ms.chunks(sched.n))
        .collect();
    let p50: Vec<f64> = passes.iter().map(|p| median(p)).collect();
    let tails: Vec<f64> = passes.iter().map(|p| tail(p).0).collect();
    let goodput: Vec<f64> = fixed
        .iter()
        .map(|r| (r.lat_ms.len() - r.missing) as f64 / r.wall_s)
        .collect();
    let n = fixed.len() as f64;
    run.values.insert("serve.lat_p50_us", median(&p50) * 1e3);
    run.values.insert("serve.lat_tail_us", median(&tails) * 1e3);
    run.values.insert("serve.goodput_rps", median(&goodput));
    run.values.insert("serve.max_rate_rps", median(&rates));
    run.values.insert(
        "apps.serve_adapter.body_us",
        median(&pooled(|r| &r.body_us)),
    );
    run.values
        .insert("serve.submit_p50_us", median(&pooled(|r| &r.submit_us)));
    run.values
        .insert("serve.submit_tail_us", tail(&pooled(|r| &r.submit_us)).0);
    run.values
        .insert("serve.queue_us", median(&pooled(|r| &r.queue_us)));
    run.values.insert(
        "serve.shed",
        fixed.iter().map(|r| r.shed as f64).sum::<f64>() / n,
    );
    run.values.insert(
        "serve.retries",
        fixed.iter().map(|r| r.retries as f64).sum::<f64>() / n,
    );
    run.values
        .insert("loadgen.lag_tail_us", tail(&pooled(|r| &r.lag_us)).0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_scales_with_rate() {
        let a = Schedule::new(100, 5);
        let b = Schedule::new(100, 5);
        assert_eq!(a.order, b.order);
        assert_eq!(a.due(99, 10.0), b.due(99, 10.0));
        assert_ne!(a.order, Schedule::new(100, 6).order);
        assert!(a.due(99, 20.0) < a.due(99, 10.0));
        assert!(a.unit_due_s.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn ladder_never_reports_an_untested_rate() {
        for limit in [-1.0, 1_000.0, 20_000.0, 49_000.0, 50_000.0, 120_000.0, 1e9] {
            let mut asked = Vec::new();
            let found = ladder(50_000.0, |rate| {
                asked.push(rate);
                rate <= limit
            });
            match found {
                None => {
                    assert!(limit < 50_000.0 / MAX_RUNG, "limit {limit}");
                    assert!(asked.iter().all(|&r| r > limit));
                }
                Some(rate) => {
                    assert!(asked.contains(&rate), "limit {limit}: {rate} untested");
                    assert!(rate <= limit, "limit {limit}: {rate}");
                    let gap = LADDER_STEP.powf(0.5f64.powi(BISECT_STEPS as i32));
                    assert!(
                        rate * gap >= limit.min(50_000.0 * MAX_RUNG),
                        "limit {limit}: {rate} is not within one bisection step"
                    );
                }
            }
        }
    }

    #[test]
    fn a_server_that_always_misses_fails_the_run() {
        let mut run = RunResult::default();
        let mut replays = 0;
        let rate = max_rate(50_000.0, &mut run, |_| {
            replays += 1;
            Replay {
                lat_ms: vec![2.0 * LATENCY_LIMIT_MS; 20],
                ..Replay::default()
            }
        });
        assert_eq!(rate, 0.0);
        assert!(replays > 2 * RUNG_ATTEMPTS, "the ladder walked down");
        assert_eq!(run.failed, 1, "{:?}", run.problems);
        assert!(run.problems[0].contains("no rate"), "{:?}", run.problems);
    }

    #[test]
    fn small_replay_conserves_and_times_every_request() {
        let circuit = locus_params(AppScale::Small).circuit;
        let sched = Schedule::new(circuit.nets.len(), 1);
        let tracer = Tracer::default();
        let r = replay(&circuit, &sched, 2000.0, 1, Some(&tracer));
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        assert_eq!(r.lat_ms.len(), PASSES * circuit.nets.len());
        assert_eq!(r.missing, 0);
        assert!(r.lag_us.iter().all(|&l| l >= 0.0));
        let spans = tracer.spans();
        assert_eq!(
            spans.iter().filter(|s| s.name == "submit").count(),
            PASSES * circuit.nets.len()
        );
    }
}
