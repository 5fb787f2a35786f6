#!/usr/bin/env python3
"""Self-tests of the benchmark; about a minute on two cores.

    python3 bench/selftest.py

Run from the repository root.  It checks that
  * every workload completes a smoke-sized run (`run.py --smoke`) with and
    without tracing, with every output check passing and exactly the
    metrics BENCHMARK.json declares, each a finite number;
  * the span-tree check accepts a well-formed tree and rejects broken ones
    (the traced smoke runs apply it to every real tree), and a counting
    hook that fails is noted without failing the traced call;
  * a copy holding only BENCHMARK.json and bench/ exits nonzero without a
    result, as it must when the program is missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_smoke(workload, trace, declared):
    done = run_bench("--workload", workload, "--seed", "0", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        done.stdout
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names, sorted(set(names) ^ set(result["metrics"]))
    for name, entry in result["metrics"].items():
        assert math.isfinite(entry["value"]), (name, entry)


def check_span_tree_checker():
    good = [["root", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1],
            ["c", 5.0, 9.0, 0]]
    assert spans.check_span_tree(good) == [], spans.check_span_tree(good)
    _, selfs = spans.self_times(good)
    assert selfs == [3.0, 2.0, 1.0, 4.0] and sum(selfs) == 10.0, selfs
    outlasts = [["root", 0.0, 10.0, -1], ["a", 1.0, 11.0, 0]]
    assert spans.check_span_tree(outlasts), "a child outlasting its parent passed"
    unclosed = [["root", 0.0, None, -1]]
    assert spans.check_span_tree(unclosed), "an unclosed span passed"
    overlapping = [["root", 0.0, 10.0, -1], ["a", 1.0, 8.0, 0], ["b", 2.0, 9.0, 0]]
    assert spans.check_span_tree(overlapping), "overlapping children passed"


def check_hook_failure_is_noted():
    tracer = spans.Tracer()
    evaluate = tracer._wrap("solver.evaluate", lambda u, points: "result")
    assert evaluate(None, None) == "result"  # its counting hook cannot read these
    assert len(tracer.hook_errors) == 1, tracer.hook_errors
    assert tracer.close_tree() == [] and tracer.calls["solver.evaluate"] == 1


def check_fails_without_program():
    copy = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(BENCH, copy / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", copy)
    try:
        done = run_bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=copy)
    finally:
        shutil.rmtree(copy, ignore_errors=True)
    assert done.returncode != 0, done.stdout
    assert '"correct"' not in done.stdout, done.stdout


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)
    checks = [("span-tree checker", check_span_tree_checker),
              ("failing trace hook is noted", check_hook_failure_is_noted),
              ("bare copy fails", check_fails_without_program)]
    checks += [(f"smoke {w} trace={t}", lambda w=w, t=t: check_smoke(w, t, declared))
               for w in workloads.NAMES for t in (0, 1)]
    failed = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
