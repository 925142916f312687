//! The scheduler's determinism contract, checked end to end: for any
//! `jobs`, `check_refinement` produces the *same* `CheckOutcome` — reports,
//! relations, lemma totals, certificate bytes, trace structure — and the
//! same failure on the Table 3 bugs. Workers only race on wall-clock and on
//! which of them computes a memo entry first; everything observable is
//! merged in sequential operator order.
//!
//! What is excluded from the comparison, and why:
//!
//! - timing (`elapsed`, `dur_us`, `*_us` attributes/fields) — wall clock;
//! - the `worker` span attribute — records which thread ran the operator;
//! - [`entangle::ParStats`] — hit/miss counts depend on scheduling order
//!   by design (the one documented jobs-dependent field).
//!
//! The same contract covers the memo-off runs (`cache: false`), which
//! solve the same canonical problems through the same scheduler without
//! storing them. They must reproduce the default verdict, relations and
//! certificate exactly, and its telemetry too unless template members
//! replayed their representative's telemetry in the default run.

use entangle::{check_refinement, CheckOptions, CheckOutcome, RefinementError};
use entangle_bench::zoo;
use entangle_parallel::bugs::{all_bugs, BugVerdict};
use entangle_trace::{Record, Tracer};

/// Deterministic fingerprint of a trace: record order, kinds, names and
/// attributes, with wall-clock and thread-identity noise stripped.
fn trace_signature(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(r.kind.as_str());
        out.push(' ');
        out.push_str(&r.name);
        for (k, v) in &r.attrs {
            if k == "worker" || k == "elapsed" || k.ends_with("_us") {
                continue;
            }
            out.push_str(&format!(" {k}={v}"));
        }
        out.push('\n');
    }
    out
}

/// Deterministic fingerprint of a full check result (see module docs for
/// the exclusions), split into the verdict half (relations, per-operator
/// mapping counts, certificate) and the saturation-telemetry half.
fn outcome_signature(
    gs: &entangle_ir::Graph,
    result: &Result<CheckOutcome, RefinementError>,
) -> (String, String) {
    let mut out = String::new();
    let mut tel_out = String::new();
    match result {
        Err(e) => {
            out.push_str(&format!("FAILED\n{e:?}\n"));
        }
        Ok(o) => {
            out.push_str("VERIFIED\n");
            out.push_str("== output relation ==\n");
            out.push_str(&o.output_relation.display(gs).to_string());
            out.push_str("== full relation ==\n");
            out.push_str(&o.full_relation.display(gs).to_string());
            out.push_str("== op reports ==\n");
            for r in &o.op_reports {
                out.push_str(&format!(
                    "{} mappings={} rounds={} stop={:?}\n",
                    r.name, r.mappings, r.rounds, r.stop
                ));
                tel_out.push_str(&format!("{} nodes={}\n", r.name, r.egraph_nodes));
            }
            out.push_str("== certificate ==\n");
            match &o.certificate {
                None => out.push_str("none\n"),
                Some(cert) => {
                    out.push_str(&entangle_cert::to_json(cert).expect("certificate serializes"));
                }
            }
            tel_out.push_str("== lemma stats ==\n");
            let mut lemmas: Vec<(&str, u64)> = o.lemma_stats.iter().collect();
            lemmas.sort();
            for (name, count) in lemmas {
                tel_out.push_str(&format!("{name}={count}\n"));
            }
            tel_out.push_str("== saturation ==\n");
            tel_out.push_str(&format!("stops={:?}\n", o.saturation.stops));
            let tel = &o.saturation.telemetry;
            tel_out.push_str(&format!(
                "searched={} skipped={}\n",
                tel.searched_classes, tel.skipped_classes
            ));
            for it in &tel.iterations {
                tel_out.push_str(&format!(
                    "iter nodes={} classes={} memo={}\n",
                    it.nodes, it.classes, it.memo
                ));
            }
            let mut rules: Vec<(&str, u64, u64)> = tel
                .rules
                .iter()
                .map(|(k, v)| (k.as_str(), v.matches, v.applications))
                .collect();
            rules.sort();
            for (name, matches, applications) in rules {
                tel_out.push_str(&format!("rule {name} m={matches} a={applications}\n"));
            }
        }
    }
    (out, tel_out)
}

fn opts_with(jobs: usize, cache: bool, tracer: &Tracer) -> CheckOptions {
    CheckOptions {
        jobs,
        cache,
        trace: tracer.clone(),
        ..CheckOptions::default()
    }
}

/// `(jobs, cache)` configurations compared against the first one (the
/// default at jobs=1).
const CONFIGS: [(usize, bool); 5] = [(1, true), (2, true), (4, true), (1, false), (2, false)];

#[test]
fn zoo_outcomes_are_identical_across_jobs() {
    for case in zoo() {
        let ri = case.dist.relation(&case.gs).expect("relation builds");
        // The jobs=1 default run, and the memo-off telemetry reference.
        let mut baseline: Option<(String, String, String)> = None;
        let mut telemetry_ref: Option<(String, String)> = None;
        for (jobs, cache) in CONFIGS {
            let (tracer, sink) = Tracer::collect();
            let opts = opts_with(jobs, cache, &tracer);
            let result = check_refinement(&case.gs, &case.dist.graph, &ri, &opts);
            drop(tracer);
            let (sig, tel) = outcome_signature(&case.gs, &result);
            let trace_sig = trace_signature(&sink.records());
            let Some((s0, tel0, t0)) = &baseline else {
                let replayed = result.as_ref().is_ok_and(|o| o.par.template_hits > 0);
                if !replayed {
                    telemetry_ref = Some((tel.clone(), trace_sig.clone()));
                }
                baseline = Some((sig, tel, trace_sig));
                continue;
            };
            assert_eq!(
                s0, &sig,
                "{}: outcome differs between jobs=1 and jobs={jobs} cache={cache}",
                case.name
            );
            let (tel_ref, trace_ref) = if cache {
                (tel0, t0)
            } else {
                let r = telemetry_ref.get_or_insert_with(|| (tel.clone(), trace_sig.clone()));
                (&r.0, &r.1)
            };
            assert_eq!(
                tel_ref, &tel,
                "{}: saturation telemetry differs between jobs=1 and jobs={jobs} cache={cache}",
                case.name
            );
            assert_eq!(
                trace_ref, &trace_sig,
                "{}: trace structure differs between jobs=1 and jobs={jobs} cache={cache}",
                case.name
            );
        }
    }
}

#[test]
fn table3_bug_localization_is_identical_across_jobs() {
    // Both the buggy variants (same first-unmapped-operator report) and
    // their fixed twins (same clean verdict).
    for case in all_bugs(true).into_iter().chain(all_bugs(false)) {
        let mut baseline: Option<(String, String)> = None;
        for (jobs, cache) in CONFIGS {
            let (tracer, sink) = Tracer::collect();
            let verdict = case.run(&opts_with(jobs, cache, &tracer));
            drop(tracer);
            let sig = match verdict {
                BugVerdict::Clean => "clean".to_owned(),
                BugVerdict::RefinementBug(e) => format!("refinement: {e:?}"),
                BugVerdict::ExpectationBug(e) => format!("expectation: {e:?}"),
            };
            let trace_sig = trace_signature(&sink.records());
            match &baseline {
                None => baseline = Some((sig, trace_sig)),
                Some((s0, t0)) => {
                    assert_eq!(
                        s0, &sig,
                        "bug {} ({}, buggy={}): verdict differs between jobs=1 and jobs={jobs} cache={cache}",
                        case.id, case.name, case.buggy
                    );
                    assert_eq!(
                        t0, &trace_sig,
                        "bug {} ({}, buggy={}): trace differs between jobs=1 and jobs={jobs} cache={cache}",
                        case.id, case.name, case.buggy
                    );
                }
            }
        }
    }
}
