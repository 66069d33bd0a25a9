//! Layer probes: small fixed streams driven straight into one layer's
//! public functions, timed from outside. Each repeats its stream and
//! checks that the simulated references, cycles and task counts come out
//! the same every time; a mismatch is a failed operation.
//!
//! Every probe reports its raw cost and, beside it (`.cal`), the same cost
//! in calibration operations, so that hosts of different speed compare.

use std::time::Instant;

use cool_core::{AffinitySpec, ProcId};
use cool_rt::{RtConfig, RtTask, Runtime};
use cool_sim::{SimConfig, SimRuntime, Task};
use dash_sim::engine::{Hop, ResourceKind};
use dash_sim::{ContentionConfig, Engine, Machine, MachineConfig};

use crate::report::RunResult;
use crate::stats::median;

/// Repeats of every probe; the median is reported.
const REPEATS: usize = 9;
/// References in the `dash_sim` probe stream.
const STREAM_REFS: u64 = 400_000;
/// Transactions in the `Engine::transact` probe.
const TXNS: u64 = 200_000;
/// Empty tasks in the `cool_sim` probe.
const SIM_TASKS: usize = 20_000;
/// Empty tasks in each `cool_rt` probe.
const RT_TASKS: usize = 100_000;

/// One probe's result: elapsed ns, operations, and a fingerprint of the
/// simulated outcome that every repeat must reproduce.
type Sample = (f64, u64, (u64, u64));

/// The repeats of one probe.
#[derive(Default)]
struct Repeats {
    ns_per_op: Vec<f64>,
    ops: u64,
    first: Option<(u64, u64)>,
}

impl Repeats {
    /// Record one repeat; a fingerprint that differs from the first repeat's
    /// is a failed operation.
    fn take(&mut self, run: &mut RunResult, name: &str, (ns, n, fp): Sample) {
        self.ops = n;
        self.ns_per_op.push(ns / n.max(1) as f64);
        let f = *self.first.get_or_insert(fp);
        run.check((f != fp).then(|| format!("probe {name} not deterministic: {f:?} then {fp:?}")));
    }

    fn median(&self) -> f64 {
        median(&self.ns_per_op)
    }
}

/// Run `probe` [`REPEATS`] times.
fn repeat(run: &mut RunResult, name: &str, mut probe: impl FnMut() -> Sample) -> Repeats {
    let mut r = Repeats::default();
    for _ in 0..REPEATS {
        r.take(run, name, probe());
    }
    r
}

/// A deterministic mixed reference stream on a 32-processor DASH: hot
/// repeats in each processor's own region (hits), a strided scan
/// (capacity misses) and a shared line (coherence traffic), one write in
/// five. Returns (elapsed ns, refs, (refs, cycles)). On
/// `MachineConfig::dash_small(32)` this is the stream and machine of
/// `bench::perf::machine_micro`, so the calibrated cost compares with the
/// committed `BENCH_3.json` / `BENCH_8.json` points.
fn ref_stream(cfg: MachineConfig) -> (f64, u64, (u64, u64)) {
    let mut m = Machine::new(cfg);
    let obj = m.alloc_interleaved(1 << 20);
    let t0 = Instant::now();
    let mut cycles = 0u64;
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..STREAM_REFS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let p = ProcId((x % 32) as usize);
        let off = match i % 8 {
            0..=4 => (p.index() as u64) * 32 * 1024 + (x % 4) * 8,
            5 | 6 => (i * 272) % ((1 << 20) - 64),
            _ => 512 + (x % 2) * 8,
        };
        let at = obj.offset(off);
        cycles += if i % 5 == 4 {
            m.write_at(p, at, 8, cycles)
        } else {
            m.read_at(p, at, 8, cycles)
        };
    }
    m.flush_contention();
    let ns = t0.elapsed().as_nanos() as f64;
    let refs = m.monitor().breakdown().refs;
    (ns, refs, (refs, cycles))
}

/// 3-, 4- and 5-hop DASH transactions (local, dirty-remote, remote) across
/// 8 clusters through `Engine::transact`.
fn txn_chains() -> (f64, u64, (u64, u64)) {
    let mut e = Engine::new(ContentionConfig::dash(), 8);
    let hop = |kind, cluster| Hop { kind, cluster };
    let t0 = Instant::now();
    let mut now = 0u64;
    let mut charged = 0u64;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..TXNS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (c, h) = ((x % 8) as usize, ((x >> 8) % 8) as usize);
        let chain: &[Hop] = match x % 3 {
            0 => &[
                hop(ResourceKind::Bus, c),
                hop(ResourceKind::Dir, c),
                hop(ResourceKind::Mem, c),
            ],
            1 => &[
                hop(ResourceKind::Bus, c),
                hop(ResourceKind::Net, c),
                hop(ResourceKind::Dir, h),
                hop(ResourceKind::Net, h),
            ],
            _ => &[
                hop(ResourceKind::Bus, c),
                hop(ResourceKind::Net, c),
                hop(ResourceKind::Dir, h),
                hop(ResourceKind::Mem, h),
                hop(ResourceKind::Net, h),
            ],
        };
        charged += e.transact(now, chain);
        now += 4 + x % 24;
    }
    let ns = t0.elapsed().as_nanos() as f64;
    (ns, TXNS, (charged, e.stats().total_wait()))
}

/// One phase of empty unhinted tasks, spawned by the phase seed, through
/// `SimRuntime::run_phase`.
fn sim_tasks(machine: MachineConfig) -> (f64, u64, (u64, u64)) {
    let mut rt = SimRuntime::new(SimConfig::new(machine));
    let t0 = Instant::now();
    rt.run_phase(|ctx| {
        for _ in 0..SIM_TASKS {
            ctx.spawn(Task::new(|_| {}));
        }
    });
    let ns = t0.elapsed().as_nanos() as f64;
    let executed = rt.stats().executed;
    (ns, SIM_TASKS as u64, (executed, rt.elapsed()))
}

/// One `Runtime::scope` of empty tasks on `nproc` workers, unhinted or
/// with object affinity to objects placed round-robin.
fn rt_spawns(rt: &Runtime, hinted: bool) -> (f64, u64, (u64, u64)) {
    let n = rt.nservers();
    let objs: Vec<_> = (0..n).map(|p| rt.placement().alloc_on(ProcId(p))).collect();
    let before = rt.stats().executed;
    let t0 = Instant::now();
    let scope = rt.scope(|s| {
        for i in 0..RT_TASKS {
            let task = RtTask::new(|_| {});
            s.spawn(if hinted {
                task.with_affinity(AffinitySpec::simple(objs[i % n]))
            } else {
                task
            });
        }
    });
    let ns = t0.elapsed().as_nanos() as f64;
    let executed = rt.stats().executed - before;
    (ns, RT_TASKS as u64, (executed, u64::from(scope.is_ok())))
}

/// Run every probe and record its metrics (raw and calibrated).
pub fn run(nproc: usize, calib_ops_per_s: f64, run: &mut RunResult) {
    let cal = |ns: f64| ns * calib_ops_per_s * 1e-9;
    let put = |run: &mut RunResult, name: &'static str, cal_name: &'static str, ns: f64| {
        run.values.insert(name, ns);
        run.values.insert(cal_name, cal(ns));
    };
    // Machine and engine repeats alternate, and the ratio is the median of
    // paired ratios, so a change of host speed during the probe cancels.
    let (mut machine, mut engine) = (Repeats::default(), Repeats::default());
    let small = MachineConfig::dash_small(32);
    for _ in 0..REPEATS {
        machine.take(run, "dash_sim.machine", ref_stream(small));
        let contended = small.with_contention(ContentionConfig::dash());
        engine.take(run, "dash_sim.engine", ref_stream(contended));
    }
    let ratios: Vec<f64> = engine
        .ns_per_op
        .iter()
        .zip(&machine.ns_per_op)
        .map(|(e, m)| e / m)
        .collect();
    put(
        run,
        "dash_sim.machine.ns_per_ref",
        "dash_sim.machine.ns_per_ref.cal",
        machine.median(),
    );
    put(
        run,
        "dash_sim.engine.ns_per_ref",
        "dash_sim.engine.ns_per_ref.cal",
        engine.median(),
    );
    run.values.insert("dash_sim.probe_refs", machine.ops as f64);
    run.values.insert("dash_sim.engine.ratio", median(&ratios));
    let txn = repeat(run, "dash_sim.transact", txn_chains);
    put(
        run,
        "dash_sim.engine.ns_per_txn",
        "dash_sim.engine.ns_per_txn.cal",
        txn.median(),
    );

    let p32 = repeat(run, "cool_sim.p32", || sim_tasks(MachineConfig::dash(32)));
    let p64 = repeat(run, "cool_sim.p64", || {
        sim_tasks(MachineConfig::deep_small(64))
    });
    put(
        run,
        "cool_sim.ns_per_task.p32",
        "cool_sim.ns_per_task.p32.cal",
        p32.median(),
    );
    put(
        run,
        "cool_sim.ns_per_task.p64",
        "cool_sim.ns_per_task.p64.cal",
        p64.median(),
    );

    let rt = Runtime::new(RtConfig::new(nproc));
    let plain = repeat(run, "cool_rt.unhinted", || rt_spawns(&rt, false));
    let object = repeat(run, "cool_rt.object", || rt_spawns(&rt, true));
    put(
        run,
        "cool_rt.spawn_ns.unhinted",
        "cool_rt.spawn_ns.unhinted.cal",
        plain.median(),
    );
    put(
        run,
        "cool_rt.spawn_ns.object",
        "cool_rt.spawn_ns.object.cal",
        object.median(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_are_deterministic_and_fill_their_metrics() {
        let mut run = RunResult::default();
        super::run(2, 1e9, &mut run);
        assert_eq!(run.failed, 0, "{:?}", run.problems);
        assert_eq!(run.attempted, 7 * REPEATS as u64);
        for name in [
            "dash_sim.machine.ns_per_ref",
            "dash_sim.engine.ratio",
            "dash_sim.engine.ns_per_txn.cal",
            "cool_sim.ns_per_task.p64",
            "cool_rt.spawn_ns.object",
        ] {
            assert!(run.values[name] > 0.0, "{name}");
        }
        assert_eq!(run.values["dash_sim.probe_refs"], STREAM_REFS as f64);
    }

    #[test]
    fn a_changing_fingerprint_is_a_failure() {
        let mut run = RunResult::default();
        let mut k = 0;
        repeat(&mut run, "flaky", || {
            k += 1;
            (1.0, 1, (k, 0))
        });
        assert_eq!(run.failed, REPEATS as u64 - 1);
    }
}
