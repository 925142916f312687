//! The differential matcher oracle, at zoo scale: the compiled
//! discrimination-tree matcher and the legacy per-rule searcher are the
//! same search.
//!
//! Two layers:
//!
//! - **Match sets**: for every lemma in the registry, legacy and compiled
//!   search over e-graphs built (and saturated) from each zoo workload's
//!   graphs yield *identical* matches — same classes in the same order
//!   with equal substitutions, and the same visited/skipped accounting.
//!   This is stronger than the "modulo order" contract the ablation flag
//!   needs, and it is what makes the flag verdict-transparent by
//!   construction.
//! - **Verdicts**: a full `check_refinement` over every zoo case produces
//!   an identical outcome — verdict, relations, operator reports, lemma
//!   totals, saturation telemetry, certificate bytes — with the matcher
//!   on or off. (Per-rule search timing is excluded: under the shared
//!   traversal it is an even split of the phase, not a per-rule
//!   measurement.)

use entangle::{check_refinement, CheckOptions, CheckOutcome, RefinementError};
use entangle_bench::zoo;
use entangle_egraph::{CompiledMatcher, EGraph, Runner};
use entangle_ir::Graph;
use entangle_lemmas::{registry, rewrites_of, TensorAnalysis};

/// An e-graph loaded with every node of `g` and grown by a short
/// saturation run, giving the matchers a realistic mid-check graph:
/// merged classes, alias ids, rewrite-produced terms.
fn saturated_egraph(g: &Graph) -> EGraph<TensorAnalysis> {
    let mut analysis = TensorAnalysis::default();
    for t in g.tensors() {
        analysis.register_leaf(&t.name, t.shape.clone(), t.dtype);
    }
    let mut eg = EGraph::with_analysis(analysis);
    for n in g.nodes() {
        entangle::encode_node(&mut eg, g, n);
    }
    eg.rebuild();
    let mut runner = Runner::new(eg).with_iter_limit(3).with_node_limit(20_000);
    runner.run(&rewrites_of(&registry()));
    runner.egraph
}

#[test]
fn registry_match_sets_identical_on_zoo_egraphs() {
    let rewrites = rewrites_of(&registry());
    let matcher = CompiledMatcher::compile(&rewrites);
    let active = vec![true; rewrites.len()];
    for case in zoo() {
        for g in [&case.gs, &case.dist.graph] {
            let eg = saturated_egraph(g);
            let shared = matcher.search_all(&eg, &rewrites, &active);
            let mut visited = 0u64;
            let mut skipped = 0u64;
            for (i, rw) in rewrites.iter().enumerate() {
                let (legacy, v, s) = rw.search_with_stats(&eg);
                visited += v;
                skipped += s;
                assert_eq!(
                    legacy.len(),
                    shared.matches[i].len(),
                    "{} / {}: matched-class count differs for lemma {}",
                    case.name,
                    g.name(),
                    rw.name()
                );
                for (l, c) in legacy.iter().zip(&shared.matches[i]) {
                    assert_eq!(
                        l.eclass,
                        c.eclass,
                        "{} / {}: class order differs for lemma {}",
                        case.name,
                        g.name(),
                        rw.name()
                    );
                    assert_eq!(
                        l.substs,
                        c.substs,
                        "{} / {}: substitutions differ for lemma {} in class {}",
                        case.name,
                        g.name(),
                        rw.name(),
                        l.eclass
                    );
                }
            }
            assert_eq!(
                shared.visited,
                visited,
                "{} / {}: visited accounting differs",
                case.name,
                g.name()
            );
            assert_eq!(
                shared.skipped,
                skipped,
                "{} / {}: skipped accounting differs",
                case.name,
                g.name()
            );
        }
    }
}

/// Everything observable about a check outcome except wall-clock noise
/// (and per-rule `search_us`, which the shared traversal attributes as an
/// even split rather than a per-rule measurement).
fn outcome_signature(gs: &Graph, result: &Result<CheckOutcome, RefinementError>) -> String {
    let mut out = String::new();
    match result {
        Err(e) => out.push_str(&format!("FAILED\n{e:?}\n")),
        Ok(o) => {
            out.push_str("VERIFIED\n");
            out.push_str(&o.output_relation.display(gs).to_string());
            out.push_str(&o.full_relation.display(gs).to_string());
            for r in &o.op_reports {
                out.push_str(&format!(
                    "{} nodes={} mappings={} rounds={} stop={:?}\n",
                    r.name, r.egraph_nodes, r.mappings, r.rounds, r.stop
                ));
            }
            let mut lemmas: Vec<(&str, u64)> = o.lemma_stats.iter().collect();
            lemmas.sort();
            for (name, count) in lemmas {
                out.push_str(&format!("{name}={count}\n"));
            }
            out.push_str(&format!("stops={:?}\n", o.saturation.stops));
            let tel = &o.saturation.telemetry;
            out.push_str(&format!(
                "searched={} skipped={}\n",
                tel.searched_classes, tel.skipped_classes
            ));
            for it in &tel.iterations {
                out.push_str(&format!(
                    "iter nodes={} classes={} memo={} unions={}\n",
                    it.nodes, it.classes, it.memo, it.unions
                ));
            }
            let mut rules: Vec<(&str, u64, u64)> = tel
                .rules
                .iter()
                .map(|(k, v)| (k.as_str(), v.matches, v.applications))
                .collect();
            rules.sort();
            for (name, matches, applications) in rules {
                out.push_str(&format!("rule {name} m={matches} a={applications}\n"));
            }
            match &o.certificate {
                None => out.push_str("cert: none\n"),
                Some(cert) => {
                    out.push_str(&entangle_cert::to_json(cert).expect("certificate serializes"));
                }
            }
        }
    }
    out
}

#[test]
fn zoo_verdicts_identical_across_matcher_paths() {
    for case in zoo() {
        let ri = case.dist.relation(&case.gs).expect("relation builds");
        let run = |compiled: bool| {
            let opts = CheckOptions {
                compiled_matcher: compiled,
                jobs: 1,
                ..CheckOptions::default()
            };
            let result = check_refinement(&case.gs, &case.dist.graph, &ri, &opts);
            outcome_signature(&case.gs, &result)
        };
        assert_eq!(
            run(true),
            run(false),
            "{}: outcome differs between compiled and legacy matcher",
            case.name
        );
    }
}
