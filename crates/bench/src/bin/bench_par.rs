//! Parallel-checker benchmark: `check_refinement` across the model zoo at
//! `jobs` ∈ {1, 2, 4, 8} with the cross-operator saturation cache on,
//! against one thread with the cache off (`jobs = 1`, `cache = off`) as
//! the baseline.
//!
//! Writes `results/BENCH_par.json` (shared [`BenchReport`] envelope, one
//! ledger record per case) and prints the comparison table. Expected shape: `jobs = 1` stays within a
//! few percent of the baseline (the scheduler adds no work, the cache only
//! removes it), and the deeper workloads — MoE above all, with its repeated
//! per-expert subgraphs — clear 2x at `jobs = 4`.

use std::time::{Duration, Instant};

use entangle::{check_refinement, CheckOptions, CheckOutcome};
use entangle_bench::{print_table, saturation_opts, secs, zoo, BenchReport};
use entangle_parallel::Distributed;

/// Best-of-N wall clock for one configuration, plus the last outcome.
fn time_check(
    gs: &entangle_ir::Graph,
    dist: &Distributed,
    opts: &CheckOptions,
    reps: usize,
) -> (Duration, CheckOutcome) {
    let ri = dist.relation(gs).expect("relation builds");
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let outcome = check_refinement(gs, &dist.graph, &ri, opts)
            .unwrap_or_else(|e| panic!("{} failed: {e}", dist.graph.name()));
        best = best.min(start.elapsed());
        last = Some(outcome);
    }
    (best, last.expect("reps >= 1"))
}

/// The scheduled configuration under measurement: saturation pipeline only
/// (no shard hints, no certification — those are other benchmarks' jobs),
/// cross-operator cache on, `jobs` worker threads.
fn par_opts(jobs: usize) -> CheckOptions {
    CheckOptions {
        jobs,
        cache: true,
        ..saturation_opts()
    }
}

/// The baseline: one thread, no cache — every operator solves its
/// canonical problem afresh.
fn baseline_opts() -> CheckOptions {
    CheckOptions {
        jobs: 1,
        cache: false,
        ..saturation_opts()
    }
}

fn main() {
    let reps = 3;
    let jobs_sweep = [1usize, 2, 4, 8];
    println!("Parallel-checker benchmark ({reps} reps, best-of):\n");

    let mut rows = Vec::new();
    let mut report = BenchReport::new("parallel_checker");
    report.header("reps", reps.to_string());
    report.header("cores", entangle_par::available_jobs().to_string());
    for case in zoo() {
        let ri = case.dist.relation(&case.gs).expect("relation builds");
        let fp = entangle::problem_fingerprint(&case.gs, &case.dist.graph, &ri, &par_opts(1));
        let (t_base, _) = time_check(&case.gs, &case.dist, &baseline_opts(), reps);

        let mut times = Vec::new();
        let mut last_outcome = None;
        for &jobs in &jobs_sweep {
            let (t, outcome) = time_check(&case.gs, &case.dist, &par_opts(jobs), reps);
            times.push((jobs, t));
            last_outcome = Some(outcome);
        }
        let outcome = last_outcome.expect("sweep is non-empty");

        let t_of = |jobs: usize| {
            times
                .iter()
                .find(|(j, _)| *j == jobs)
                .map(|(_, t)| *t)
                .expect("jobs value measured")
        };
        let speedup4 = t_of(1).as_secs_f64() / t_of(4).as_secs_f64().max(1e-9);
        let vs_base = t_of(1).as_secs_f64() / t_base.as_secs_f64().max(1e-9);

        let par = &outcome.par;
        let hit_rate = par.hit_rate();
        let tel = &outcome.saturation.telemetry;
        let searched = tel.searched_classes;
        let skipped = tel.skipped_classes;
        let skip_rate = skipped as f64 / ((searched + skipped) as f64).max(1.0);

        rows.push(vec![
            case.display.clone(),
            secs(t_base),
            secs(t_of(1)),
            secs(t_of(2)),
            secs(t_of(4)),
            secs(t_of(8)),
            format!("{speedup4:.2}x"),
            format!("{:.0}%", hit_rate * 100.0),
            format!("{:.0}%", skip_rate * 100.0),
        ]);
        let sweep: Vec<String> = times
            .iter()
            .map(|(j, t)| format!("j{j}:{:.3}", t.as_secs_f64() * 1e3))
            .collect();
        let mut rec = report.case(&case.display, &fp, "verified", t_of(4));
        rec.extra.insert(
            "baseline_ms".into(),
            format!("{:.3}", t_base.as_secs_f64() * 1e3),
        );
        rec.extra.insert("sweep_ms".into(), sweep.join(","));
        rec.extra
            .insert("speedup_at_4".into(), format!("{speedup4:.3}"));
        rec.extra
            .insert("jobs1_vs_baseline".into(), format!("{vs_base:.3}"));
        rec.extra
            .insert("cache_hits".into(), par.cache_hits.to_string());
        rec.extra
            .insert("cache_misses".into(), par.cache_misses.to_string());
        rec.extra
            .insert("cache_hit_rate".into(), format!("{hit_rate:.4}"));
        rec.extra
            .insert("ematch_searched".into(), searched.to_string());
        rec.extra
            .insert("ematch_skipped".into(), skipped.to_string());
        rec.extra
            .insert("ematch_skip_rate".into(), format!("{skip_rate:.4}"));
        report.cases.push(rec);
    }

    print_table(
        &[
            "workload", "baseline", "j=1", "j=2", "j=4", "j=8", "x @ j=4", "cache", "skip",
        ],
        &rows,
    );

    report.write("par");
}
