#!/usr/bin/env python3
"""Cold-process, layer-attributed benchmark of the `entangle` CLI.

    python3 coldbench/run.py --workload zoo-check --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. It builds `entangle` and the helper
`coldbench-probe` (coldbench/probe) from source into $CARGO_TARGET_DIR
(default `.bench_build`), generates the workload's inputs from the seed,
and times fresh `entangle` processes, one request at a time from one client
(a closed loop), each with `--jobs 2`, its own `--ledger` file and a private
working directory. Every verdict is checked against a known answer pinned
below, and once per case a differential check replays the verified output
relation R_o through `entangle-runtime` (see coldbench/probe/src/main.rs).

Workloads:
  zoo-check     the 7 shipped pairs in examples/graphs, `entangle check`
  bug-hunt      the 18 Table-3 cases (9 buggy, 9 fixed twins)
  deep-certify  Llama-3 tp8 L32, GPT TP+SP+VP par 8 L1, MoE TP+SP+EP tp2 L4,
                each a `certify --emit` then a `certify --check`

`--trace 0` measures the end-to-end metrics; `--trace 1` also re-runs every
request in a fresh `coldbench-probe trace` child that times each layer's
public function from outside, and reports the per-layer metrics. The last
line of stdout is one JSON object {correct, attempted, failed, metrics};
the lines before it are the human-readable report, stamped with the commit.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
JOBS = 2
LIMIT_S = 30.0  # per-request time limit; a killed request counts as failed
SETUP_REPEATS = 3  # input generation is timed this many times, median taken
SPAWN_REPEATS = 5  # fresh `entangle help` processes timed for cli.spawn_ms
# Whole passes a run makes at least: >= 11 requests, so the tail has 10
# samples beyond it. A deep-certify pass is only 6 requests, two of them
# ~0.1 s re-checks; with 2 passes its tail would be the second fastest of
# 12 requests, which moved ~20% between runs on a 2-vCPU VM.
MIN_PASSES = {"zoo-check": 2, "bug-hunt": 2, "deep-certify": 3}

ZOO = ["gpt_tp2", "gpt_tpsp2", "llama3_tp2", "llama3_tpsp2", "moe_tpsp2", "qwen2_tp2", "qwen2_tpsp2"]
DEEP = ["llama3_tp8_l32", "gpt_tpspvp8_l1", "moe_tpsp2_l4"]
EXPECT_BUGS = {5, 8, 9}  # Table-3 bugs visible only through a user expectation

# What a correct verified request prints first.
VERIFIED_LINE = {
    "check": "Refinement verification succeeded for",
    "expect": "User expectation holds.",
    "emit": "Refinement certified for",
    "recheck": "Certificate verified:",
}


def cases_of(workload):
    """The workload's cases with their known answers: (name, request kinds,
    expected exit code, differential-check source or None)."""
    if workload == "zoo-check":
        return [(c, ["check"], 0, "stdout") for c in ZOO]
    if workload == "bug-hunt":
        out = []
        for buggy in (True, False):
            for i in range(1, 10):
                kind = "expect" if i in EXPECT_BUGS else "check"
                diff = None if buggy else ("expect" if kind == "expect" else "stdout")
                out.append((f"bug{i}_{'buggy' if buggy else 'fixed'}", [kind], 1 if buggy else 0, diff))
        return out
    if workload == "deep-certify":
        return [(c, ["emit", "recheck"], 0, "cert") for c in DEEP]
    raise ValueError(workload)


def die(msg):
    print(f"coldbench: {msg}", file=sys.stderr)
    sys.exit(2)


# ----- processes -----


class Result:
    def __init__(self, wall_s, rss_mb, code, killed):
        self.wall_ms = wall_s * 1e3
        self.rss_mb = rss_mb
        self.code = code
        self.killed = killed


def spawn(argv, out_path, cwd, limit=LIMIT_S):
    """Runs one fresh process, stdout to `out_path`, and times it from spawn
    to reaped exit. Peak RSS comes from the kernel's rusage (wait4). The
    process is killed at `limit` seconds."""
    with open(out_path, "wb") as out, open(str(out_path) + ".err", "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=cwd)
        pidfd = os.pidfd_open(p.pid)
        killed = threading.Event()

        def kill():
            killed.set()
            try:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(limit, kill)
        timer.start()
        _, status, ru = os.wait4(p.pid, 0)
        t1 = time.perf_counter()
        timer.cancel()
        os.close(pidfd)
    code = os.waitstatus_to_exitcode(status)
    p.returncode = code  # reaped here, not by Popen
    return Result(t1 - t0, ru.ru_maxrss / 1024.0, code, killed.is_set())


def first_line(path):
    with open(path, "r", errors="replace") as f:
        return f.readline().rstrip("\n")


def request_argv(entangle, ledger, inp, case, kind):
    b = str(inp / case)
    graphs = [b + ".gs.json", b + ".gd.json"]
    if kind == "check":
        sub = ["check", *graphs, "--maps", b + ".maps"]
    elif kind == "expect":
        fs, fd = Path(b + ".expect").read_text().splitlines()[:2]
        sub = ["expect", *graphs, "--maps", b + ".maps", "--fs", fs, "--fd", fd]
    elif kind == "emit":
        sub = ["certify", *graphs, "--maps", b + ".maps", "--emit", b + ".cert.json"]
    else:
        sub = ["certify", *graphs, "--check", b + ".cert.json"]
    return [str(entangle), "--jobs", str(JOBS), "--ledger", str(ledger), *sub]


def verdict_ok(res, kind, answer, out_path):
    """The pinned known answer: exit code, and the verdict line it implies."""
    if res.killed or res.code != answer:
        return False
    line = first_line(out_path)
    if answer == 0:
        return line.startswith(VERIFIED_LINE[kind])
    if kind == "check":
        return line.startswith("Refinement FAILED")
    return not line.startswith(VERIFIED_LINE[kind])


# ----- build and stamp -----


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "entangle-cli"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "coldbench/probe/Cargo.toml"],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    return target / "release" / "entangle", target / "release" / "coldbench-probe"


def stamp():
    """Commit id and dirty flag when the checkout is a git repository, plus a
    hash of the sources the benchmark builds, which identifies any checkout."""
    def git(*args):
        r = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return r.stdout.strip() if r.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    commit = git("rev-parse", "HEAD") if top and Path(top).resolve() == ROOT.resolve() else None
    dirty = None if commit is None else bool(git("status", "--porcelain", "--untracked-files=no"))
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for sub in ("crates", "vendor", "examples", "coldbench"):
        for d, dirs, names in os.walk(ROOT / sub):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [Path(d) / n for n in sorted(names)]
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return {"commit": commit or "unknown (not a git checkout)", "dirty": dirty, "source_sha256": h.hexdigest()[:16]}


# ----- statistics -----


def quartiles(xs):
    q = statistics.quantiles(xs, n=4)
    return q[0], statistics.median(xs), q[2]


def tail(xs):
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, samples)."""
    s = sorted(xs)
    k = len(s) - 11
    return s[k], 100.0 * (k + 1) / len(s), len(s)


def gmean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


# ----- the run -----


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["zoo-check", "bug-hunt", "deep-certify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--wrong-answer", metavar="CASE", help="self-test: pin a wrong known answer for CASE")
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        die("run from the root of an entangle checkout (Cargo.toml and crates/cli not found)")
    entangle, probe = build()
    info = stamp()
    cases = cases_of(args.workload)
    if args.wrong_answer:
        if args.wrong_answer not in [c[0] for c in cases]:
            die(f"--wrong-answer: no case {args.wrong_answer}")
        cases = [(n, k, 1 - a if n == args.wrong_answer else a, d) for n, k, a, d in cases]

    work = ROOT / ".coldbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inp, out = work / "in", work / "out"
    for d in (inp, out):
        d.mkdir(parents=True)
    ledger = work / "ledger.jsonl"
    try:
        result = run(args, info, cases, entangle, probe, work, inp, out, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".coldbench_work").rmdir()
        except OSError:
            pass
    print(json.dumps(result))


def run(args, info, cases, entangle, probe, work, inp, out, ledger):
    rng = random.Random(args.seed)
    attempted = failed = 0
    failures = []

    def record(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(what)

    def req(case, kind, answer, tag):
        path = out / f"{case}.{kind}.{tag}"
        res = spawn(request_argv(entangle, ledger, inp, case, kind), path, work)
        ok = verdict_ok(res, kind, answer, path)
        record(ok, f"{tag} {case} {kind}: exit {res.code}{' (killed)' if res.killed else ''}")
        return res

    # Set-up: generate the inputs (timed several times, median), then one
    # untimed warm-up request per case.
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        if args.workload == "zoo-check":
            for c in ZOO:
                for ext in ("gs.json", "gd.json", "maps"):
                    shutil.copyfile(ROOT / "examples" / "graphs" / f"{c}.{ext}", inp / f"{c}.{ext}")
        else:
            r = subprocess.run([str(probe), "gen", args.workload, str(inp)], cwd=work)
            if r.returncode != 0:
                die("input generation failed")
        gen_s.append(time.perf_counter() - t)
    warm_s = 0.0
    for case, kinds, answer, _ in cases:
        for kind in kinds:
            warm_s += req(case, kind, answer, "warm").wall_ms / 1e3
    setup_s = statistics.median(gen_s) + warm_s

    # Differential check of R_o, once per verified case, on what the
    # warm-up request printed or wrote, with inputs seeded from --seed.
    unjudged = 0
    diffs = {}
    for i, (case, kinds, answer, source) in enumerate(cases):
        if source is None or answer != 0:
            continue
        src = {"stdout": ["stdout", str(out / f"{case}.check.warm")],
               "cert": ["cert", str(inp / f"{case}.cert.json")],
               "expect": ["expect"]}[source]
        seed = (args.seed * 1_000_003 + i) % 2**63
        try:
            r = subprocess.run([str(probe), "diff", str(inp), case, str(seed), *src],
                               cwd=work, capture_output=True, text=True, timeout=LIMIT_S)
            d = json.loads(r.stdout.strip().splitlines()[-1]) if r.returncode == 0 else None
        except (subprocess.TimeoutExpired, ValueError, IndexError):
            d = None
        d = d or {"outputs": 0, "misses": 1, "unjudged": 0}
        diffs[case] = d
        unjudged += d["unjudged"]
        record(d["misses"] == 0 and d["outputs"] > 0, f"diff {case}: {d}")

    # The timed closed loop: whole passes in a seeded order, until the run
    # length is reached and the workload's MIN_PASSES are done.
    samples = {(c, k): [] for c, kinds, _, _ in cases for k in kinds}
    rss = []
    case_ms = {c: [] for c, _, _, _ in cases}
    passes = 0
    ledger0 = ledger.stat().st_size if ledger.exists() else 0
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds or passes < MIN_PASSES[args.workload]:
        order = list(cases)
        rng.shuffle(order)
        for case, kinds, answer, _ in order:
            total = 0.0
            for kind in kinds:
                res = req(case, kind, answer, "timed")
                samples[(case, kind)].append(res.wall_ms)
                rss.append(res.rss_mb)
                total += res.wall_ms
            case_ms[case].append(total)
        passes += 1
    loop_s = time.perf_counter() - t0
    ledger_mb = ((ledger.stat().st_size if ledger.exists() else 0) - ledger0) / 1e6 / passes
    cert_mb = sum((inp / f"{c}.cert.json").stat().st_size for c, kinds, _, _ in cases
                  if "emit" in kinds and (inp / f"{c}.cert.json").exists()) / 1e6

    walls = [w for ws in samples.values() for w in ws]
    tail_ms, tail_pct, tail_n = tail(walls)
    e2e = {
        "case_p50_ms_gmean": (gmean([statistics.median(v) for v in case_ms.values()]), "ms"),
        "wall_ms_tail": (tail_ms, "ms"),
        "requests_per_s": (len(walls) / loop_s, "1/s"),
        "peak_rss_mb": (max(rss), "MB"),
        "written_mb": (cert_mb + ledger_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }

    rows = []
    for (case, kind), ws in samples.items():
        q1, q2, q3 = quartiles(ws)
        rows.append({"case": case, "request": kind, "n": len(ws), "p25_ms": q1, "p50_ms": q2, "p75_ms": q3})

    layers, layer_rows = {}, []
    if args.trace:
        layers, layer_rows = traced(cases, entangle, probe, work, inp, out, samples, record)

    err_rate = failed / attempted if attempted else 0.0
    print(f"coldbench  workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"commit={info['commit']} dirty={info['dirty']} source={info['source_sha256']} "
        f"nproc={os.cpu_count()} jobs={JOBS}")
    print(f"setup      inputs {statistics.median(gen_s):.4f} s (median of {SETUP_REPEATS}) "
        f"+ warm-up {warm_s:.3f} s ({sum(len(c[1]) for c in cases)} requests)")
    print(f"timed      {len(walls)} requests in {passes} passes, {loop_s:.2f} s, closed loop, 1 client")
    print("")
    print(f"{'case':<18} {'request':<8} {'n':>3} {'p25_ms':>10} {'p50_ms':>10} {'p75_ms':>10}  diff")
    for r in rows:
        d = diffs.get(r["case"]) if r["request"] in ("check", "expect", "emit") else None
        dtxt = "" if d is None else f"{d['outputs'] - d['misses']}/{d['outputs']} within tol" + (
            f", {d['unjudged']} unjudged" if d["unjudged"] else "")
        print(f"{r['case']:<18} {r['request']:<8} {r['n']:>3} {r['p25_ms']:>10.2f} {r['p50_ms']:>10.2f} "
            f"{r['p75_ms']:>10.2f}  {dtxt}")
    print("")
    print("end-to-end")
    for name, (v, unit) in e2e.items():
        extra = f"  (p{tail_pct:.1f} of {tail_n} requests, {tail_n - round(tail_pct * tail_n / 100)} beyond)" \
            if name == "wall_ms_tail" else ""
        print(f"  {name:<20} {v:>14.4f} {unit}{extra}")
    print(f"  {'cert_mb':<20} {cert_mb:>14.4f} MB  (certificates written per pass)")
    print(f"  {'error_rate':<20} {err_rate:>14.4f}     ({failed}/{attempted} failed; "
        f"{unjudged} outputs without a derived tolerance)")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    if layer_rows:
        print_layers(layers, layer_rows)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# ----- the traced run -----

SPANS = ["ir.load_ms", "lemmas.corpus_ms", "rules.backoff_ms", "lint.ms", "shard.ms", "iso.ms",
         "core.self_ms", "cert.verify_ms", "num.analyze_ms", "cert.to_json_ms", "cert.from_json_ms"]
COUNTS = ["num.steps", "egraph.iterations", "egraph.peak_nodes", "egraph.matches", "egraph.applications",
          "egraph.iter_limit_stops", "core.cache_hits", "core.cache_misses", "iso.template_hits",
          "cert.steps", "cert.mb"]


def traced(cases, entangle, probe, work, inp, out, samples, record):
    """Re-runs every request in a fresh `coldbench-probe trace` child (so the
    process-global caches start cold) and attributes its untraced median:
    spawn + layer spans + unattributed = median."""
    spawn_ms = statistics.median(
        spawn([str(entangle), "help"], out / "help", work).wall_ms for _ in range(SPAWN_REPEATS))
    rows = []
    for case, kinds, answer, _ in cases:
        for kind in kinds:
            path = out / f"{case}.{kind}.trace"
            res = spawn([str(probe), "trace", str(inp), case, kind, str(JOBS)], path, work)
            try:
                child = json.loads(first_line(path))
            except ValueError:
                child = {"exit": None, "spans": {}, "counts": {}}
            record(res.code == 0 and child["exit"] == answer,
                   f"trace {case} {kind}: child exit {res.code}, verdict {child['exit']}")
            spans = dict(child["spans"])
            check = spans.pop("core.check_ms", 0.0)
            if check:
                # The checker runs lint, shard, iso and the kernel itself.
                spans["core.self_ms"] = check - sum(spans.get(k, 0.0) for k in
                                                     ("lint.ms", "shard.ms", "iso.ms", "cert.verify_ms"))
            untraced = statistics.median(samples[(case, kind)])
            attributed = spawn_ms + sum(spans.values())
            rows.append({"case": case, "request": kind, "untraced_ms": untraced, "cli.spawn_ms": spawn_ms,
                         **{k: spans.get(k, 0.0) for k in SPANS}, "core.check_ms": check,
                         "cli.unattributed_ms": untraced - attributed,
                         "trace.overhead_ms": res.wall_ms - untraced,
                         **{k: float(child["counts"].get(k, 0)) for k in COUNTS}})

    def total(k):
        return sum(r[k] for r in rows)

    layers = {k: (total(k), "ms") for k in ["cli.spawn_ms", *SPANS, "core.check_ms", "cli.unattributed_ms",
                                            "trace.overhead_ms"]}
    layers.update({k: (total(k), "count") for k in COUNTS if k != "cert.mb"})
    layers["cert.mb"] = (total("cert.mb"), "MB")
    steps, matches = total("num.steps"), total("egraph.matches")
    lookups = total("core.cache_hits") + total("core.cache_misses")
    layers["num.us_per_step"] = (1e3 * total("num.analyze_ms") / steps if steps else 0.0, "us/step")
    layers["egraph.apply_ratio"] = (total("egraph.applications") / matches if matches else 0.0, "ratio")
    layers["core.cache_hit_rate"] = (total("core.cache_hits") / lookups if lookups else 0.0, "ratio")
    layers["untraced_ms"] = (total("untraced_ms"), "ms")
    return layers, rows


def print_layers(layers, rows):
    cols = ["untraced_ms", "cli.spawn_ms", *SPANS, "cli.unattributed_ms", "trace.overhead_ms"]
    print("")
    print("per-layer (traced run; each row: untraced median = sum of the span columns + unattributed)")
    print(f"{'case':<18} {'request':<8} " + " ".join(f"{c.replace('_ms', ''):>11}" for c in cols))
    for r in rows + [dict({"case": "sum", "request": ""}, **{c: layers[c][0] for c in cols})]:
        print(f"{r['case']:<18} {r['request']:<8} " + " ".join(f"{r[c]:>11.2f}" for c in cols))
    print("")
    for name, (v, unit) in sorted(layers.items()):
        print(f"  {name:<24} {v:>16.4f} {unit}")


if __name__ == "__main__":
    main()
