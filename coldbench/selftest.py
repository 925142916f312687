#!/usr/bin/env python3
"""Self-test of the cold-process benchmark.

    python3 coldbench/selftest.py          # bug-hunt only (seconds)
    python3 coldbench/selftest.py --all    # every workload in BENCHMARK.json (minutes)

Run from the root of a checkout. It checks that:

1. with `--trace 0` the result line carries exactly the `end_to_end` metrics
   of BENCHMARK.json, and with `--trace 1` exactly the `per_layer` ones, each
   a finite number with the declared unit, and the run is correct;
2. pinning one wrong known answer (`--wrong-answer`) makes the run report
   `correct: false` with a failed request, so `error_rate` fires.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import math
import subprocess
import sys
from pathlib import Path


def run(workload, trace, *extra):
    cmd = [sys.executable, "coldbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if p.returncode != 0:
        return None, f"exit {p.returncode}: {p.stderr.strip()[-500:]}"
    return json.loads(p.stdout.strip().splitlines()[-1]), None


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]] if "--all" in sys.argv[1:] else ["bug-hunt"]
    problems = []
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, err = run(workload, trace)
            where = f"{workload} --trace {trace}"
            if err:
                problems.append(f"{where}: {err}")
                continue
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{where}: missing {sorted(set(want) - set(got))}, "
                                f"undeclared {sorted(set(got) - set(want))}")
            for name, m in got.items():
                if name in want and (m["unit"] != want[name] or not math.isfinite(m["value"])):
                    problems.append(f"{where}: {name} = {m}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: not correct: {result['failed']}/{result['attempted']} failed")
            print(f"ok   {where}: {len(got)} metrics, {result['attempted']} checks")

    result, err = run("bug-hunt", 0, "--wrong-answer", "bug1_buggy")
    if err:
        problems.append(f"wrong answer: {err}")
    elif result["correct"] or result["failed"] < 1:
        problems.append(f"wrong answer not caught: {result}")
    else:
        print(f"ok   a wrong known answer fails the run ({result['failed']}/{result['attempted']} failed)")

    for p in problems:
        print(f"FAIL {p}")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
