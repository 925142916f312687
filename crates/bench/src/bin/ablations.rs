//! Ablations of the DESIGN.md design decisions:
//!
//! 1. per-operator iterative checking (Listing 1) vs one monolithic e-graph;
//! 2. the Listing 3 frontier vs encoding all of `G_d` for every operator;
//! 3. §4.3.2 relation pruning (mappings kept per tensor);
//! 4. constrained vs free associativity at width 8.
//!
//! Expected shape: the iterative + frontier configuration is fastest and its
//! per-operator e-graphs stay small; the monolithic graph grows with every
//! processed operator. The bin checks that shape and exits with status 1
//! when it does not hold: mean e-nodes/op must order frontier <
//! no-frontier < monolithic, every configuration but free associativity
//! must verify, and free associativity must fail.

use std::time::{Duration, Instant};

use entangle::CheckOptions;
use entangle_bench::{gpt_workload, print_table, saturation_opts, secs, Workload};

const FRONTIER: &str = "iterative + frontier (paper)";
const NO_FRONTIER: &str = "iterative, no frontier";
const MONOLITHIC: &str = "monolithic e-graph";
const FREE_ASSOC: &str = "free assoc, par=8";

/// One configuration's outcome.
struct Row {
    name: &'static str,
    elapsed: Duration,
    /// Mean and max e-nodes per operator; `None` when the check failed.
    nodes: Option<(usize, usize)>,
    /// Whether the e-node columns are printed (the width-8 rows only
    /// report the verdict).
    show_mean: bool,
}

fn run(name: &'static str, w: &Workload, opts: &CheckOptions, show_mean: bool) -> Row {
    let ri = w.dist.relation(&w.gs).expect("relation builds");
    let start = Instant::now();
    let result = entangle::check_refinement(&w.gs, &w.dist.graph, &ri, opts);
    let elapsed = start.elapsed();
    let nodes = result.ok().map(|outcome| {
        let sizes: Vec<usize> = outcome.op_reports.iter().map(|r| r.egraph_nodes).collect();
        let mean = sizes.iter().sum::<usize>() / sizes.len().max(1);
        (mean, sizes.iter().copied().max().unwrap_or(0))
    });
    Row {
        name,
        elapsed,
        nodes,
        show_mean,
    }
}

/// Every way the rows miss the expected shape (empty when it holds).
fn shape_violations(rows: &[Row]) -> Vec<String> {
    let mean = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .and_then(|r| r.nodes)
            .map(|(mean, _)| mean)
    };
    let mut violations = Vec::new();
    match (mean(FRONTIER), mean(NO_FRONTIER), mean(MONOLITHIC)) {
        (Some(f), Some(n), Some(m)) if f < n && n < m => {}
        (f, n, m) => violations.push(format!(
            "mean e-nodes/op must order frontier < no-frontier < monolithic, got \
             {f:?} / {n:?} / {m:?}"
        )),
    }
    for r in rows {
        match (r.name == FREE_ASSOC, r.nodes.is_some()) {
            (false, false) => violations.push(format!("{:?} must verify but FAILS", r.name)),
            (true, true) => violations.push(format!("{:?} must FAIL but verified", r.name)),
            _ => {}
        }
    }
    violations
}

fn main() {
    println!("Ablations on GPT (TP+SP+VP, parallelism 2, 2 layers)\n");
    let w2 = gpt_workload(2, 2);
    let mut rows = vec![
        run(FRONTIER, &w2, &saturation_opts(), true),
        run(
            NO_FRONTIER,
            &w2,
            &CheckOptions {
                frontier: false,
                ..saturation_opts()
            },
            true,
        ),
        run(
            MONOLITHIC,
            &w2,
            &CheckOptions {
                frontier: false,
                fresh_egraph_per_op: false,
                ..saturation_opts()
            },
            true,
        ),
        run(
            "pruning off (keep 16 mappings)",
            &w2,
            &CheckOptions {
                max_mappings: 16,
                ..saturation_opts()
            },
            true,
        ),
        run(
            "aggressive pruning (keep 1)",
            &w2,
            &CheckOptions {
                max_mappings: 1,
                ..saturation_opts()
            },
            true,
        ),
    ];

    // Constrained vs. free associativity (§4.3.2 constrained lemmas): swap
    // the corpus's constrained add/concat association for unconstrained
    // universal rules and watch the e-graph blow up on an 8-way shard sum.
    // Free association saturates ~2^n subset classes on the 8-way shard
    // chains, exhausting the node budget before the needed derivation
    // appears: the check *fails* (a completeness loss), which is precisely
    // why the corpus constrains associativity.
    let mut free_assoc = entangle_lemmas::rewrites_of(&entangle_lemmas::registry());
    for rw in &mut free_assoc {
        if rw.name() == "add-assoc" {
            *rw = entangle::__bench_parse_rewrite(
                "add-assoc",
                "(add (add ?a ?b) ?c)",
                "(add ?a (add ?b ?c))",
            );
        }
    }
    let w8 = gpt_workload(8, 1);
    for (name, rewrites) in [
        ("constrained assoc (paper-style), par=8", None),
        (FREE_ASSOC, Some(free_assoc)),
    ] {
        let opts = CheckOptions {
            rewrites,
            ..saturation_opts()
        };
        rows.push(run(name, &w8, &opts, false));
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let (mean, last) = match (r.nodes, r.show_mean) {
                (Some((mean, max)), true) => (mean.to_string(), max.to_string()),
                (Some((_, max)), false) => ("-".into(), format!("verified (max {max} e-nodes/op)")),
                (None, _) => ("-".into(), "FAILS (saturation budget exhausted)".into()),
            };
            vec![r.name.to_owned(), secs(r.elapsed), mean, last]
        })
        .collect();
    print_table(
        &[
            "configuration",
            "time(s)",
            "mean e-nodes/op",
            "max e-nodes/op / verdict",
        ],
        &table,
    );
    println!("\nExpected shape: frontier < no-frontier < monolithic in e-graph size;");
    println!("keeping more mappings costs time without changing the verdict;");
    println!("free association is orders of magnitude more expensive at width 8.");

    let violations = shape_violations(&rows);
    if !violations.is_empty() {
        for v in &violations {
            eprintln!("ablations: expected shape violated: {v}");
        }
        std::process::exit(1);
    }
}
