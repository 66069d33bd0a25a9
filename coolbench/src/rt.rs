//! `rt_batch`: panel Cholesky of a grid Laplacian on `nproc` real threads
//! through `apps::threaded::panel_cholesky_rt`. One operation is one
//! factorization; its time is the `cool_rt::Runtime::scope` span the
//! function reports.

use std::time::{Duration, Instant};

use apps::threaded::panel_cholesky_rt;
use cool_core::SchedStats;
use sparse::{CscMatrix, EliminationTree, PanelPartition, SymbolicFactor};

use crate::host::Rng;
use crate::report::RunResult;
use crate::trace::Tracer;
use crate::{Ctx, Measured, SetupTimer};

/// Grid side. In natural (banded) order with one column per panel, an
/// 80×80 Laplacian gives 512k tasks of about 1 µs each, so the
/// runtime's spawn, queue, steal and park path does almost all the work.
pub const GRID: usize = 80;
/// Widest panel the partition may form.
pub const PANEL_WIDTH: usize = 1;
/// Largest deviation from the sequential reference a factor may show.
pub const MAX_ERROR: f64 = 1e-10;
/// Factorizations always timed, whatever the budget, so the tail has ten
/// samples beyond it.
const MIN_FACTORS: usize = 12;

/// A `k`×`k` 5-point grid Laplacian whose edge weights are drawn from the
/// seed (the sparsity pattern, and so the task graph, is fixed).
/// Diagonally dominant, hence positive definite.
pub fn seeded_grid(k: usize, seed: u64) -> CscMatrix {
    let mut rng = Rng::new(seed, 2);
    let idx = |r: usize, c: usize| r * k + c;
    let mut off = Vec::with_capacity(2 * k * k);
    let mut degree = vec![0.0f64; k * k];
    for r in 0..k {
        for c in 0..k {
            for (rr, cc) in [(r + 1, c), (r, c + 1)] {
                if rr < k && cc < k {
                    let w = 0.5 + rng.unit();
                    off.push((idx(rr, cc), idx(r, c), -w));
                    degree[idx(r, c)] += w;
                    degree[idx(rr, cc)] += w;
                }
            }
        }
    }
    let mut t: Vec<(usize, usize, f64)> = degree
        .iter()
        .enumerate()
        .map(|(i, d)| (i, i, d + 0.5))
        .collect();
    t.extend(off);
    CscMatrix::from_triplets(k * k, &t)
}

/// The factorization input, in natural order, and the number of panels its
/// symbolic analysis forms.
pub fn setup(seed: u64) -> (CscMatrix, usize) {
    let a = seeded_grid(GRID, seed);
    let sym = SymbolicFactor::new(&a, &EliminationTree::new(&a));
    let panels = PanelPartition::fundamental(&sym, PANEL_WIDTH).len();
    (a, panels)
}

/// The verdict on one factor's deviation from the sequential reference.
pub fn check_factor(max_error: f64) -> Option<String> {
    (max_error.is_nan() || max_error > MAX_ERROR)
        .then(|| format!("factor deviates by {max_error:e} (limit {MAX_ERROR:e})"))
}

/// Time the workload for about `budget`: one warm-up factorization, then
/// factorizations until the budget is spent (at least [`MIN_FACTORS`]), with
/// the set-up batches of a [`SetupTimer`] between them.
pub fn measure(
    ctx: &Ctx,
    budget: Duration,
    tracer: Option<&Tracer>,
    run: &mut RunResult,
) -> Result<Measured, String> {
    let (mut setup_timer, (a, panels)) = SetupTimer::start(|| Ok(setup(ctx.seed)), budget)?;
    if panels == 0 {
        return Err("symbolic analysis formed no panels".into());
    }
    let warm = panel_cholesky_rt(&a, PANEL_WIDTH, ctx.nproc);
    run.check(check_factor(warm.max_error));

    let mut op_ms = Vec::new();
    let mut total = SchedStats::default();
    let t0 = Instant::now();
    while op_ms.len() < MIN_FACTORS || t0.elapsed() < budget {
        let k = op_ms.len() as u64;
        let id = tracer.map(Tracer::reserve);
        let start = Instant::now();
        let res = panel_cholesky_rt(&a, PANEL_WIDTH, ctx.nproc);
        let end = Instant::now();
        if let (Some(t), Some(id)) = (tracer, id) {
            t.record(id, None, "apps", "panel_cholesky_rt", Some(k), start, end);
            // The runtime reports the scope's length itself; its placement
            // inside the call is nominal (set-up precedes it, verification
            // follows it).
            t.record(
                t.reserve(),
                Some(id),
                "cool_rt",
                "scope",
                Some(k),
                start,
                start + res.wall,
            );
        }
        run.check(check_factor(res.max_error));
        op_ms.push(res.wall.as_secs_f64() * 1e3);
        accumulate(&mut total, &res.stats);
        setup_timer.tick()?;
    }
    let setup_s = setup_timer.finish()?;
    let n = op_ms.len() as f64;
    if tracer.is_some() {
        let steals: u64 = total.steals_by_level.iter().sum();
        run.values
            .insert("cool_rt.tasks", total.executed as f64 / n);
        run.values.insert(
            "cool_rt.failed_steal_ratio",
            total.failed_steals as f64 / (total.failed_steals + steals).max(1) as f64,
        );
        run.values.insert(
            "cool_rt.affinity_hit_ratio",
            total.affinity_hits as f64 / total.hinted.max(1) as f64,
        );
        run.values
            .insert("cool_rt.mutex_parks", total.mutex_parks as f64 / n);
    }
    let scope_s: f64 = op_ms.iter().sum::<f64>() * 1e-3;
    Ok(Measured::from_ops(&setup_s, &op_ms, &[n / scope_s]))
}

fn accumulate(total: &mut SchedStats, s: &SchedStats) {
    total.executed += s.executed;
    total.affinity_hits += s.affinity_hits;
    total.hinted += s.hinted;
    total.failed_steals += s.failed_steals;
    total.mutex_parks += s.mutex_parks;
    for (t, x) in total.steals_by_level.iter_mut().zip(&s.steals_by_level) {
        *t += x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_grid_keeps_the_pattern_and_changes_the_values() {
        let a = seeded_grid(6, 1);
        let b = seeded_grid(6, 2);
        assert_eq!(a.col_ptr(), b.col_ptr());
        assert_eq!(a.row_idx(), b.row_idx());
        assert_ne!(a.values(), b.values());
        assert_eq!(a.values(), seeded_grid(6, 1).values());
    }

    #[test]
    fn small_factorization_verifies() {
        let res = panel_cholesky_rt(&seeded_grid(8, 3), PANEL_WIDTH, 2);
        assert_eq!(check_factor(res.max_error), None);
    }

    #[test]
    fn forced_numeric_error_counts_as_a_failure() {
        let mut run = RunResult::default();
        run.check(check_factor(1e-12));
        run.check(check_factor(1e-9));
        run.check(check_factor(f64::NAN));
        assert_eq!((run.attempted, run.failed), (3, 2));
        assert!(run.error_rate() > 0.0);
    }
}
