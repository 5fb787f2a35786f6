#!/usr/bin/env python3
"""helmstab benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload sweep --seed 1 --seconds 60 --trace 0

Run it from the repository root; it imports helmstab from ./src.  A single
client drives the CLI in a closed loop, one operation at a time.  With
`--trace 0` each round takes one set-up sample (a fresh interpreter running
`import helmstab`), one cold pass (every operation of the workload as its own
`python -m helmstab` child) and one warm pass (the same argv through
`helmstab.cli.run` in this process), until `--seconds` have passed.  With
`--trace 1` each round runs an untraced and a traced warm pass and one
`python -X importtime` sample, and the per-layer metrics come from the
spans.  Every operation's outputs are checked.  The last line of standard
output is the JSON result; a fuller record, with the environment stamp and
the result digest, goes to .bench_out/.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150.0
MIN_ROUNDS = 3
IMPORT = ("-c", "import helmstab")


def blas_threads() -> int:
    """The caller's BLAS thread setting, capped at the usable CPU count.

    Without a setting it is 1: idle OpenBLAS threads spin, and on a few
    shared cores that spinning makes wall and CPU time wander from run to run.
    """
    nproc = len(os.sched_getaffinity(0))
    for name in BLAS_ENV:
        value = os.environ.get(name, "")
        if value.isdigit() and int(value) > 0:
            return min(int(value), nproc)
    return 1


class Outcomes:
    """Operations attempted and failed, and the first outputs of each.

    An operation fails when it exits nonzero, when its output check fails,
    or when its output files differ from those of the first pass.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, dict] = {}
        self.digest: dict[str, dict] = {}

    def record(self, op, returncode, problems=()):
        self.attempted += 1
        problems = list(problems)
        if returncode != 0:
            problems.append(f"{op.name}: exit code {returncode}")
        else:
            try:
                found, digest = op.check()
                outputs = op.output_bytes()
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{op.name}: unreadable output ({exc!r})")
            else:
                problems += found
                if op.name not in self.reference:
                    self.reference[op.name] = outputs
                    self.digest[op.name] = digest
                elif outputs != self.reference[op.name]:
                    problems.append(f"{op.name}: outputs differ from the first pass")
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def record_import(self, returncode):
        self.attempted += 1
        if returncode != 0:
            self.failed += 1
            self.problems.append(f"import helmstab: exit code {returncode}")


def run_child(args, env, log_path):
    """Run `python <args>`; return (exit code, wall s, CPU s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], env=env, cwd=ROOT,
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def run_in_process(cli, op):
    """Run one operation through `cli.run`; return (exit code, wall s, warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = cli.run(list(op.argv))
        except Exception:  # a crash is a failed operation, not a failed benchmark
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    truncations = sum(w.category.__name__ == "ProjectionTruncationWarning" for w in caught)
    return code, wall, truncations


def clear_outputs(op):
    for path in op.outputs:
        path.unlink(missing_ok=True)


def cold_pass(ops, env, workdir, outcomes, samples):
    """Each operation as its own child; per-operation samples go to `samples`."""
    rss = 0.0
    for op in ops:
        clear_outputs(op)
        code, wall, cpu, r = run_child(("-m", "helmstab", *op.argv), env,
                                       workdir / f"{op.name}.log")
        outcomes.record(op, code)
        samples[f"wall_s/{op.name}"].append(wall)
        samples[f"cpu_s/{op.name}"].append(cpu)
        rss = max(rss, r)
    samples["peak_rss_mb"].append(rss)


def warm_pass(cli, ops, outcomes, check_spans=None, samples=None):
    wall, truncations = 0.0, 0
    for op in ops:
        clear_outputs(op)
        gc.collect()  # each operation starts from the same collector state
        code, w, n = run_in_process(cli, op)
        outcomes.record(op, code, check_spans() if check_spans else ())
        if samples is not None:
            samples[f"warm_s/{op.name}"].append(w)
        wall, truncations = wall + w, truncations + n
    return wall, truncations


def import_times(env, workdir):
    """(scipy, helmstab) cumulative import times in s, from -X importtime.

    The scipy time sums the cumulative times of the outermost scipy imports,
    which include whatever those imports pull in.  Importtime prints each
    module after its children, indented by depth, so walking the lines
    backwards visits every parent before its children.
    """
    log = workdir / "importtime.log"
    code, _, _, _ = run_child(("-X", "importtime", *IMPORT), env, log)
    scipy_us = helmstab_us = 0
    enclosing = []  # (depth, inside a scipy import) of the open parents
    lines = log.read_text(encoding="utf-8", errors="replace").splitlines()
    for line in reversed(lines):
        m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)", line)
        if not m:
            continue
        cumulative, depth, name = int(m[1]), len(m[2]), m[3]
        while enclosing and enclosing[-1][0] >= depth:
            enclosing.pop()
        inside = bool(enclosing) and enclosing[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            scipy_us += cumulative
        if name == "helmstab":
            helmstab_us = cumulative
        enclosing.append((depth, inside or is_scipy))
    return code, scipy_us / 1e6, helmstab_us / 1e6


def rounds(seconds, min_rounds):
    """Count rounds until `seconds` are used.  A round starts only when an
    average round still fits, so a run ends within `seconds` once it has
    its `min_rounds`."""
    start = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - start
        if done >= min_rounds and elapsed + elapsed / done > seconds:
            return
        yield done
        done += 1


def timed_run(cli, ops, env, workdir, seconds, min_rounds, outcomes):
    """End-to-end samples, tracing off.

    Times are sampled per operation, and a pass's time is the sum over its
    operations of their median samples.
    """
    outcomes.record_import(run_child(IMPORT, env, workdir / "import.log")[0])
    warm_pass(cli, ops, outcomes)  # warm-up; also fixes the reference outputs
    samples = defaultdict(list)
    for _ in rounds(seconds, min_rounds):
        code, wall, _, _ = run_child(IMPORT, env, workdir / "import.log")
        outcomes.record_import(code)
        samples["setup_s"].append(wall)
        cold_pass(ops, env, workdir, outcomes, samples)
        warm_pass(cli, ops, outcomes, samples=samples)
    metrics = {name: statistics.median(samples[name]) for name in ("setup_s", "peak_rss_mb")}
    for name in ("wall_s", "cpu_s", "warm_s"):
        metrics[name] = sum(statistics.median(samples[f"{name}/{op.name}"]) for op in ops)
    return metrics, samples


def traced_run(cli, ops, env, workdir, seconds, min_rounds, outcomes):
    """Per-layer metrics from traced warm passes, alternating with untraced ones."""
    import spans

    warm_pass(cli, ops, outcomes)
    samples = defaultdict(list)
    summaries = []
    for _ in rounds(seconds, min_rounds):
        code, scipy_s, helmstab_s = import_times(env, workdir)
        outcomes.record_import(code)
        samples["setup.import.scipy_s"].append(scipy_s)
        samples["setup.import.helmstab_s"].append(helmstab_s)
        samples["untraced_s"].append(warm_pass(cli, ops, outcomes)[0])
        tracer = spans.Tracer()
        with tracer.patched():
            wall, truncations = warm_pass(cli, ops, outcomes, tracer.close_tree)
        samples["traced_s"].append(wall)
        tracer.counters["solver.residual_traces.warnings"] = truncations
        summaries.append(tracer.summary())
    metrics = spans.layer_metrics(summaries)
    # Hooks that no longer fit a traced function: those counts read low.
    samples["hook_errors"] = sorted({e for summary in summaries for e in summary["hook_errors"]})
    for error in samples["hook_errors"]:
        print(f"note: trace hook failed, {error}")
    for name in ("setup.import.scipy_s", "setup.import.helmstab_s"):
        metrics[name] = statistics.median(samples[name])
    metrics["trace.overhead"] = (statistics.median(samples["traced_s"])
                                 / statistics.median(samples["untraced_s"]) - 1.0)
    return metrics, samples


def environment(seed, threads):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() if done.returncode == 0 else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": sha,
        "seed": seed,
    }


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a seconds-long self-test")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "helmstab" / "__init__.py").is_file():
        print(f"bench: helmstab sources not found under {SRC}; "
              "run from the repository root", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # Set before numpy is first imported, here and in every child.
    threads = blas_threads()
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    # A fixed hash seed gives every child the same set and dict layouts.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    sys.path.insert(0, str(SRC))
    from helmstab import cli

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    outcomes = Outcomes()
    try:
        ops = workloads.build(args.workload, args.seed, workdir, smoke=args.smoke)
        run = traced_run if args.trace else timed_run
        metrics, samples = run(cli, ops, env, workdir, args.seconds,
                               1 if args.smoke else MIN_ROUNDS, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": environment(args.seed, threads),
        "operations": [list(op.argv) for op in ops], "digest": outcomes.digest,
        "problems": outcomes.problems, "samples": samples, **result,
    }
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    for problem in outcomes.problems[:20]:
        print(f"FAILED {problem}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"{outcomes.attempted} operations, {outcomes.failed} failed")
    for name, entry in result["metrics"].items():
        count = (len(samples.get(name, ())) or len(samples.get(f"{name}/{ops[0].name}", ()))
                 or len(samples.get("traced_s", ())))
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']:<6} (n={count})")
    if not args.trace:
        rate = outcomes.failed / outcomes.attempted
        print(f"  {'error_rate':<40} {rate:>14.6g} {'ratio':<6} (n={outcomes.attempted})")
        for op in ops:  # each operation's share of the pass times
            times = "  ".join(f"{name} {statistics.median(samples[f'{name}/{op.name}']):.4g} s"
                              for name in ("wall_s", "warm_s"))
            print(f"    {op.name:<38} {times}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
