//! `coldbench-probe`: the in-process half of the cold-process benchmark
//! (`coldbench/run.py`).
//!
//! ```text
//! coldbench-probe gen <bug-hunt|deep-certify> <dir>
//! coldbench-probe trace <dir> <case> <check|expect|emit|recheck> <jobs>
//! coldbench-probe diff <dir> <case> <seed> <stdout FILE|cert FILE|expect>
//! ```
//!
//! `gen` writes `<case>.gs.json`, `<case>.gd.json` and `<case>.maps` per
//! case, plus `<case>.expect` (f_s and f_d, one per line) for the Table-3
//! cases that are only visible through a user expectation.
//!
//! `trace` re-runs one request of the CLI in this fresh process: it calls
//! each layer's public function in the CLI's pipeline order and times every
//! call from outside, so the per-layer numbers need no instrumentation in
//! the program. It prints one JSON object: the exit code the CLI gives for
//! the same request, the spans in ms and the layer counts.
//!
//! `diff` is the differential check of a verified request's output
//! relation `R_o`: it replays every output mapping through
//! `entangle-runtime` on seeded inputs and compares it with `G_s` under the
//! tolerance the numeric analysis derived for that output. It reads `R_o`
//! and the verdicts from what the CLI printed (`stdout FILE`, a `check`
//! request) or wrote (`cert FILE`, a `certify --emit` request); `expect`
//! prints neither, so for it the check reruns in this process. It prints
//! `{"outputs": N, "misses": M, "unjudged": U}`, where an unjudged output
//! is one the analysis derived no tolerance for (class `unknown`): it is
//! evaluated, but only a non-finite value counts against it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::time::Instant;

use entangle::{
    append_expr, check_expectation, check_lint, check_refinement, CheckOptions, CheckOutcome,
    ExpectationError, NumClass, RefinementError, Relation, StopReason, Verdict,
};
use entangle_egraph::{ENode, Id, RecExpr};
use entangle_ir::{DType, Graph, Shape, TensorId};
use entangle_models::{gpt, llama3, moe, Arch, ModelConfig, MoeConfig};
use entangle_parallel::{bugs, parallelize, parallelize_moe, Distributed, Strategy};
use entangle_runtime::{eval_graph, eval_op, random_ids, random_value, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

const USAGE: &str = "usage: coldbench-probe gen <bug-hunt|deep-certify> <dir>\n       \
                     coldbench-probe trace <dir> <case> <check|expect|emit|recheck> <jobs>\n       \
                     coldbench-probe diff <dir> <case> <seed> <stdout FILE|cert FILE|expect>";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let code = match args.as_slice() {
        ["gen", workload, dir] => gen(workload, Path::new(dir)),
        ["trace", dir, case, mode, jobs] => match jobs.parse() {
            Ok(jobs) => trace(Path::new(dir), case, mode, jobs),
            _ => 2,
        },
        ["diff", dir, case, seed, source @ ..] => match seed.parse() {
            Ok(seed) => diff(Path::new(dir), case, seed, source),
            _ => 2,
        },
        _ => 2,
    };
    if code == 2 {
        eprintln!("{USAGE}");
    }
    std::process::exit(code);
}

// ----- input generation -----

fn write_case(dir: &Path, name: &str, gs: &Graph, dist: &Distributed) {
    let write = |ext: &str, text: String| {
        fs::write(dir.join(format!("{name}.{ext}")), text).expect("write case file");
    };
    write("gs.json", gs.to_json().expect("serialize G_s"));
    write("gd.json", dist.graph.to_json().expect("serialize G_d"));
    write(
        "maps",
        dist.input_maps
            .iter()
            .map(|(n, e)| format!("{n} = {e}\n"))
            .collect(),
    );
}

/// The model configuration of the deep cases: small tensors, and every
/// dimension divisible by a parallel degree of 8.
fn deep_config() -> ModelConfig {
    ModelConfig {
        batch: 2,
        seq: 16,
        hidden: 32,
        heads: 8,
        layers: 1,
        vocab: 32,
        ffn: 64,
        causal: true,
    }
}

fn gen(workload: &str, dir: &Path) -> i32 {
    fs::create_dir_all(dir).expect("create input dir");
    match workload {
        "bug-hunt" => {
            for buggy in [true, false] {
                for case in bugs::all_bugs(buggy) {
                    let name = format!("bug{}_{}", case.id, if buggy { "buggy" } else { "fixed" });
                    write_case(dir, &name, &case.gs, &case.dist);
                    if let Some((fs_expr, fd_expr)) = &case.expectation {
                        fs::write(
                            dir.join(format!("{name}.expect")),
                            format!("{fs_expr}\n{fd_expr}\n"),
                        )
                        .expect("write expectation");
                    }
                }
            }
        }
        "deep-certify" => {
            let cfg = deep_config().with_layers(32);
            let gs = llama3(&cfg);
            let dist = parallelize(&cfg, Arch::Llama, &Strategy::tp(8));
            write_case(dir, "llama3_tp8_l32", &gs, &dist);

            let cfg = deep_config().with_layers(1);
            let gs = gpt(&cfg);
            let dist = parallelize(&cfg, Arch::Gpt, &Strategy::tp_sp_vp(8));
            write_case(dir, "gpt_tpspvp8_l1", &gs, &dist);

            let cfg = MoeConfig {
                base: deep_config(),
                experts: 8,
            }
            .with_layers(4);
            let gs = moe(&cfg);
            let dist = parallelize_moe(&cfg, &Strategy::tp_sp(2));
            write_case(dir, "moe_tpsp2_l4", &gs, &dist);
        }
        _ => return 2,
    }
    0
}

// ----- traced request -----

/// Spans (name, ms) in call order, and layer counts.
#[derive(Default)]
struct Record {
    spans: Vec<(&'static str, f64)>,
    counts: Vec<(&'static str, f64)>,
}

impl Record {
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = f();
        self.spans.push((name, t.elapsed().as_secs_f64() * 1e3));
        v
    }

    fn count(&mut self, name: &'static str, v: f64) {
        self.counts.push((name, v));
    }
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn parse_maps(text: &str) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (n, e) = l.split_once('=').expect("map line is `name = expr`");
            (n.trim().to_owned(), e.trim().to_owned())
        })
        .collect()
}

fn trace(dir: &Path, case: &str, mode: &str, jobs: usize) -> i32 {
    if !matches!(mode, "check" | "expect" | "emit" | "recheck") {
        return 2;
    }
    let base = dir.join(case);
    let path = |ext: &str| base.with_extension(ext);
    let mut rec = Record::default();

    // What the CLI loads: both graphs, then (except for a re-check) the
    // input relation and the expectation expressions.
    let (gs, gd, ri, expect) = rec.span("ir.load_ms", || {
        let gs = Graph::from_json(&read(&path("gs.json"))).expect("G_s decodes");
        let gd = Graph::from_json(&read(&path("gd.json"))).expect("G_d decodes");
        if mode == "recheck" {
            return (gs, gd, None, None);
        }
        let ri = relation(&gs, &gd, &parse_maps(&read(&path("maps"))));
        let expect = (mode == "expect").then(|| read_expect(&path("expect")));
        (gs, gd, Some(ri), expect)
    });

    let exit = match ri {
        Some(ri) => traced_check(
            &mut rec,
            &gs,
            &gd,
            &ri,
            expect.as_ref(),
            mode,
            jobs,
            &path("cert.json"),
        ),
        None => traced_recheck(&mut rec, &gs, &gd, &path("cert.json")),
    };

    let mut out = format!("{{\"exit\":{exit},\"spans\":{{");
    for (i, (k, v)) in rec.spans.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    out.push_str("},\"counts\":{");
    for (i, (k, v)) in rec.counts.iter().enumerate() {
        let _ = write!(out, "{}\"{k}\":{v}", if i > 0 { "," } else { "" });
    }
    out.push_str("}}");
    println!("{out}");
    0
}

fn relation(gs: &Graph, gd: &Graph, maps: &[(String, String)]) -> Relation {
    let mut b = Relation::builder(gs, gd);
    for (n, e) in maps {
        b.map(n, e).expect("mapping is valid");
    }
    b.build()
}

fn read_expect(path: &Path) -> (RecExpr, RecExpr) {
    let text = read(path);
    let mut lines = text
        .lines()
        .map(|l| l.parse::<RecExpr>().expect("expectation parses"));
    (lines.next().expect("f_s"), lines.next().expect("f_d"))
}

/// A `certify --check` request: decode the certificate, re-validate it with
/// the trusted kernel.
fn traced_recheck(rec: &mut Record, gs: &Graph, gd: &Graph, cert_path: &Path) -> i32 {
    let cert = rec.span("cert.from_json_ms", || {
        entangle_cert::from_json(&read(cert_path))
    });
    let rewrites = rec.span("lemmas.corpus_ms", || {
        entangle_lemmas::rewrites_of(&entangle_lemmas::registry())
    });
    let Ok(cert) = cert else { return 4 };
    let accepted = rec.span("cert.verify_ms", || {
        entangle_cert::verify(&cert, gs, gd, &rewrites, &entangle_symbolic::SymCtx::new()).is_ok()
    });
    rec.count("cert.steps", cert.total_steps() as f64);
    let bytes = fs::metadata(cert_path).map(|m| m.len()).unwrap_or(0);
    rec.count("cert.mb", bytes as f64 / 1e6);
    if accepted {
        0
    } else {
        4
    }
}

/// A check, expect or emit request. Each standalone layer call runs only
/// where the checker's own pipeline reaches it, so that `core.check_ms`
/// minus those spans is the checker's own time.
#[allow(clippy::too_many_arguments)]
fn traced_check(
    rec: &mut Record,
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    expect: Option<&(RecExpr, RecExpr)>,
    mode: &str,
    jobs: usize,
    cert_path: &Path,
) -> i32 {
    // The graphs the checker sees: an expectation appends f_s / f_d.
    let appended = expect.map(|(fs_expr, fd_expr)| append_both(gs, gd, fs_expr, fd_expr));
    let (gsx, gdx) = appended.as_ref().map_or((gs, gd), |(a, b)| (a, b));

    let shard_maps: Vec<(String, RecExpr)> = ri
        .iter()
        .flat_map(|(t, exprs)| {
            let name = gsx.tensor(t).name.clone();
            exprs.iter().map(move |e| (name.clone(), e.clone()))
        })
        .collect();
    let lint_ok = rec.span("lint.ms", || check_lint(gsx, gdx).is_ok());
    let shard_ok = lint_ok
        && rec.span("shard.ms", || {
            entangle_shard::analyze_pair(gsx, gdx, &shard_maps, &[]).is_clean()
        });
    // Besides the checker's own build, a check or emit request builds the
    // corpus once more for its run-ledger fingerprint; an expect request
    // writes no ledger record, so its build here is not a span.
    let corpus = || entangle_lemmas::rewrites_of(&entangle_lemmas::registry());
    let rewrites = if mode == "expect" {
        corpus()
    } else {
        rec.span("lemmas.corpus_ms", corpus)
    };
    if shard_ok {
        // First call in the process: fills the backoff cache the check
        // reuses, as its own first call would.
        rec.span("rules.backoff_ms", || {
            entangle_rules::backoff_schedule(&rewrites)
        });
        rec.span("iso.ms", || entangle_iso::analyze(gsx));
    }

    let opts = CheckOptions {
        jobs,
        metrics: entangle_metrics::Registry::new(),
        numeric: false,
        ..CheckOptions::default()
    };
    let result = rec.span("core.check_ms", || run_check(gs, gd, ri, expect, &opts));
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(code) => return code,
    };

    let sat = &outcome.saturation;
    rec.count("egraph.iterations", sat.iterations() as f64);
    rec.count("egraph.peak_nodes", sat.peak_nodes() as f64);
    rec.count(
        "egraph.matches",
        sat.telemetry.rules.values().map(|r| r.matches).sum::<u64>() as f64,
    );
    rec.count(
        "egraph.applications",
        sat.telemetry
            .rules
            .values()
            .map(|r| r.applications)
            .sum::<u64>() as f64,
    );
    rec.count(
        "egraph.iter_limit_stops",
        sat.stops
            .iter()
            .filter(|&&s| s == StopReason::IterLimit)
            .count() as f64,
    );
    rec.count("core.cache_hits", outcome.par.cache_hits as f64);
    rec.count("core.cache_misses", outcome.par.cache_misses as f64);
    rec.count("iso.template_hits", outcome.par.template_hits as f64);

    let mut cert = outcome
        .certificate
        .take()
        .expect("the default pipeline certifies");
    let accepted = rec.span("cert.verify_ms", || {
        entangle_cert::verify(
            &cert,
            gsx,
            gdx,
            &rewrites,
            &entangle_symbolic::SymCtx::new(),
        )
        .is_ok()
    });
    if !accepted {
        return 4;
    }
    rec.count("cert.steps", cert.total_steps() as f64);
    // The uncached analysis: what a fresh process pays.
    let analysis = rec.span("num.analyze_ms", || {
        entangle::analyze_certificate(&cert, gsx, gdx)
    });
    rec.count("num.steps", analysis.steps_analyzed as f64);

    if mode == "emit" {
        cert.numeric = analysis
            .outputs
            .iter()
            .map(|o| entangle_cert::NumericVerdict {
                tensor: o.tensor.clone(),
                class: o.verdict.class.tag().to_owned(),
                k: o.verdict.k,
            })
            .collect();
        let bytes = rec.span("cert.to_json_ms", || {
            let text = entangle_cert::to_json(&cert).expect("certificate serializes");
            fs::write(cert_path, &text).expect("write certificate");
            text.len()
        });
        rec.count("cert.mb", bytes as f64 / 1e6);
    }
    0
}

fn append_both(gs: &Graph, gd: &Graph, fs_expr: &RecExpr, fd_expr: &RecExpr) -> (Graph, Graph) {
    (
        append_expr(gs, fs_expr, "expected_s")
            .expect("f_s appends")
            .0,
        append_expr(gd, fd_expr, "expected_d")
            .expect("f_d appends")
            .0,
    )
}

/// Runs the check the CLI runs for the request; `Err` holds its exit code.
fn run_check(
    gs: &Graph,
    gd: &Graph,
    ri: &Relation,
    expect: Option<&(RecExpr, RecExpr)>,
    opts: &CheckOptions,
) -> Result<CheckOutcome, i32> {
    match expect {
        None => check_refinement(gs, gd, ri, opts).map_err(|e| match e {
            RefinementError::Lint { .. } => 3,
            RefinementError::CertRejected { .. } => 4,
            _ => 1,
        }),
        Some((fs_expr, fd_expr)) => {
            check_expectation(gs, gd, ri, fs_expr, fd_expr, opts).map_err(|e| match e {
                ExpectationError::Invalid(_) => 2,
                _ => 1,
            })
        }
    }
}

// ----- differential check of R_o -----

/// Output mappings `(G_s output, expression over G_d)` and per-output
/// numeric verdicts.
type Replay = (Vec<(String, RecExpr)>, Vec<(String, Verdict)>);

fn diff(dir: &Path, case: &str, seed: u64, source: &[&str]) -> i32 {
    let base = dir.join(case);
    let path = |ext: &str| base.with_extension(ext);
    let mut gs = Graph::from_json(&read(&path("gs.json"))).expect("G_s decodes");
    let mut gd = Graph::from_json(&read(&path("gd.json"))).expect("G_d decodes");
    let maps = parse_maps(&read(&path("maps")));
    let (outputs, verdicts): Replay = match source {
        ["stdout", file] => parse_stdout(&read(Path::new(file))),
        ["cert", file] => {
            let cert =
                entangle_cert::from_json(&read(Path::new(file))).expect("certificate decodes");
            let verdicts = cert
                .numeric
                .iter()
                .map(|n| {
                    (
                        n.tensor.clone(),
                        Verdict {
                            class: class_of(&n.class),
                            k: n.k,
                        },
                    )
                })
                .collect();
            (cert.outputs, verdicts)
        }
        ["expect"] => {
            let (fs_expr, fd_expr) = read_expect(&path("expect"));
            let ri = relation(&gs, &gd, &maps);
            let opts = CheckOptions {
                jobs: 1,
                ..CheckOptions::default()
            };
            let outcome = check_expectation(&gs, &gd, &ri, &fs_expr, &fd_expr, &opts)
                .unwrap_or_else(|e| panic!("expectation holds: {e}"));
            (gs, gd) = append_both(&gs, &gd, &fs_expr, &fd_expr);
            let cert = outcome.certificate.expect("the default pipeline certifies");
            let analysis = outcome.numeric.expect("numeric analysis runs by default");
            let verdicts = analysis
                .outputs
                .into_iter()
                .map(|o| (o.tensor, o.verdict))
                .collect();
            (cert.outputs, verdicts)
        }
        _ => return 2,
    };
    let verdicts: HashMap<String, Verdict> = verdicts.into_iter().collect();
    match diff_check(&gs, &gd, &maps, &outputs, &verdicts, seed) {
        Ok((misses, unjudged)) => println!(
            "{{\"outputs\":{},\"misses\":{misses},\"unjudged\":{unjudged}}}",
            outputs.len()
        ),
        Err(e) => println!(
            "{{\"outputs\":{},\"misses\":1,\"unjudged\":0,\"error\":\"{}\"}}",
            outputs.len(),
            e.replace(['"', '\\', '\n'], " ")
        ),
    }
    0
}

fn class_of(tag: &str) -> NumClass {
    [
        NumClass::BitExact,
        NumClass::Reassoc,
        NumClass::ValueChanging,
    ]
    .into_iter()
    .find(|c| c.tag() == tag)
    .unwrap_or(NumClass::Unknown)
}

/// Reads `R_o` and the numeric verdicts from a successful `check`'s stdout:
/// `  name -> expr` lines under "Output relation:" and `  name : verdict`
/// lines under "Numeric verdicts:".
fn parse_stdout(text: &str) -> Replay {
    let (mut outputs, mut verdicts) = (Vec::new(), Vec::new());
    let mut block = "";
    for line in text.lines() {
        if !line.starts_with("  ") {
            block = line.trim_end_matches(':');
            continue;
        }
        let line = line.trim();
        match block {
            "Output relation" => {
                let (name, expr) = line.split_once(" -> ").expect("`name -> expr`");
                outputs.push((name.to_owned(), expr.parse().expect("mapping parses")));
            }
            "Numeric verdicts" => {
                let (name, desc) = line.split_once(" : ").expect("`name : verdict`");
                let verdict = if let Some(rest) = desc.strip_prefix("reassoc (k=") {
                    let k = rest
                        .split(',')
                        .next()
                        .and_then(|k| k.parse().ok())
                        .expect("k");
                    Verdict {
                        class: NumClass::Reassoc,
                        k,
                    }
                } else {
                    Verdict {
                        class: class_of(desc),
                        k: 0,
                    }
                };
                verdicts.push((name.to_owned(), verdict));
            }
            _ => {}
        }
    }
    (outputs, verdicts)
}

/// Evaluates `G_s` and `G_d` on seeded inputs (each `G_d` input cut from
/// the `G_s` input it maps to) and replays every output mapping over
/// `G_d`'s values, holding it to its output's derived tolerance. Returns
/// (misses, unjudged).
fn diff_check(
    gs: &Graph,
    gd: &Graph,
    maps: &[(String, String)],
    outputs: &[(String, RecExpr)],
    verdicts: &HashMap<String, Verdict>,
    seed: u64,
) -> Result<(usize, usize), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gs_in = HashMap::new();
    for &i in gs.inputs() {
        let t = gs.tensor(i);
        let dims: Vec<usize> = t
            .shape
            .as_concrete()
            .ok_or("symbolic input shape")?
            .iter()
            .map(|&d| d as usize)
            .collect();
        let v = match t.dtype {
            DType::I64 => random_ids(&mut rng, &dims, 8),
            _ => random_value(&mut rng, &dims),
        };
        gs_in.insert(i, v);
    }
    let mut gd_in = HashMap::new();
    for (name, expr) in maps {
        let t = gs
            .tensor_by_name(name)
            .ok_or(format!("no G_s input {name}"))?;
        let parsed: RecExpr = expr.parse().map_err(|e| format!("{expr}: {e:?}"))?;
        split_by_map(gd, &parsed, parsed.root_id(), &gs_in[&t.id], &mut gd_in)?;
    }
    let gs_env = eval_graph(gs, &gs_in).map_err(|e| format!("G_s: {e}"))?;
    let gd_env = eval_graph(gd, &gd_in).map_err(|e| format!("G_d: {e}"))?;
    let (mut misses, mut unjudged) = (0, 0);
    for (name, expr) in outputs {
        let t = gs
            .tensor_by_name(name)
            .ok_or(format!("no G_s output {name}"))?;
        let expected = &gs_env[&t.id];
        let got = eval_expr(expr, gd, &gd_env)?;
        let ok = match verdicts.get(name) {
            None => false,
            Some(v) if v.class == NumClass::Unknown => {
                unjudged += 1;
                got.shape() == expected.shape() && got.data().iter().all(|x| x.is_finite())
            }
            Some(v) => v.tolerance().is_some_and(|tol| got.within(expected, &tol)),
        };
        if !ok {
            misses += 1;
        }
    }
    Ok((misses, unjudged))
}

/// Cuts a `G_s` input value into the `G_d` leaves of its input mapping
/// (a leaf, or nested `concat`s of leaves).
fn split_by_map(
    gd: &Graph,
    expr: &RecExpr,
    id: Id,
    val: &Value,
    out: &mut HashMap<TensorId, Value>,
) -> Result<(), String> {
    match expr.node(id) {
        ENode::Op(sym, ch) if ch.is_empty() => {
            let t = gd
                .tensor_by_name(sym.as_str())
                .ok_or(format!("no G_d tensor {sym}"))?;
            out.insert(t.id, val.clone());
            Ok(())
        }
        ENode::Op(sym, ch) if sym.as_str() == "concat" && ch.len() == 3 => {
            let dim = expr.node(ch[2]).as_int().ok_or("symbolic concat dim")? as usize;
            let left = dim_size(gd, expr, ch[0], dim)?;
            let n = val.shape()[dim];
            let slice = |lo: usize, hi: usize| {
                eval_op(
                    &entangle_ir::Op::Slice {
                        dim,
                        start: (lo as i64).into(),
                        end: (hi as i64).into(),
                    },
                    &[val],
                )
                .map_err(|e| e.to_string())
            };
            split_by_map(gd, expr, ch[0], &slice(0, left)?, out)?;
            split_by_map(gd, expr, ch[1], &slice(left, n)?, out)
        }
        other => Err(format!("unsupported input-map node {other:?}")),
    }
}

fn dim_size(gd: &Graph, expr: &RecExpr, id: Id, dim: usize) -> Result<usize, String> {
    match expr.node(id) {
        ENode::Op(sym, ch) if ch.is_empty() => gd
            .tensor_by_name(sym.as_str())
            .and_then(|t| t.shape.dim(dim).as_const())
            .map(|d| d as usize)
            .ok_or(format!("no concrete size for {sym}")),
        ENode::Op(_, ch) if ch.len() == 3 => {
            Ok(dim_size(gd, expr, ch[0], dim)? + dim_size(gd, expr, ch[1], dim)?)
        }
        other => Err(format!("unsupported input-map node {other:?}")),
    }
}

/// Evaluates a clean expression over `G_d` tensor names given `G_d`'s values.
fn eval_expr(expr: &RecExpr, gd: &Graph, env: &HashMap<TensorId, Value>) -> Result<Value, String> {
    let mut vals: Vec<Value> = Vec::with_capacity(expr.len());
    for node in expr.nodes() {
        let v = match node {
            ENode::Int(i) => Value::scalar(*i as f64),
            ENode::Sym(s) => return Err(format!("symbolic scalar {s:?}")),
            ENode::Op(sym, ch) if ch.is_empty() => {
                let t = gd
                    .tensor_by_name(sym.as_str())
                    .ok_or(format!("no G_d tensor {sym}"))?;
                env[&t.id].clone()
            }
            ENode::Op(sym, ch) => {
                let metas: Vec<entangle_lemmas::Meta> = ch
                    .iter()
                    .map(|&c| match expr.node(c) {
                        ENode::Int(i) => {
                            entangle_lemmas::Meta::scalar(entangle_symbolic::SymExpr::constant(*i))
                        }
                        _ => {
                            let dims: Vec<i64> =
                                vals[c.index()].shape().iter().map(|&d| d as i64).collect();
                            entangle_lemmas::Meta::tensor(Shape::of(&dims), DType::F32)
                        }
                    })
                    .collect();
                let (op, tensors) = entangle_lemmas::decode_op(sym.as_str(), &metas)
                    .ok_or(format!("unknown op {sym}"))?;
                let inputs: Vec<&Value> = ch[..tensors].iter().map(|c| &vals[c.index()]).collect();
                eval_op(&op, &inputs).map_err(|e| format!("{sym}: {e}"))?
            }
        };
        vals.push(v);
    }
    vals.pop().ok_or_else(|| "empty expression".to_owned())
}
