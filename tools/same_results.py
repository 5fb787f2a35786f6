#!/usr/bin/env python3
"""Check that this tree gives the same results as another checkout.

    python3 tools/same_results.py BASE_DIR

BASE_DIR is a checkout of the commit to compare with (a `git worktree` or a
`git archive` export).  Every command below runs once with BASE_DIR's
package and once with this tree's, each tree in its own scratch directory,
so relative output paths echo the same in both reports:

- sweep reports of all seven theorems, and of T1, T3_DIR and T2_DIR on
  the grid GROUPED_K, whose one table per operator pair and lattice crosses
  the lifting-lattice switch and two cutoffs; at 100 modes and 50 trials a
  k draws 5,000 coefficients, so the 7 k certify in two chunks (6 and 1)
- the default-size sweep reports (64 k by 50 trials of 64 modes) of T1 and
  T3_DIR at seed 3, which send the most rows through the row sums
- certify reports of all seven theorems, on three fixed configs
- lift reports and CSVs of the four (bottom, top) pairs at k = 3.2 and 3.5,
  which cover the four lifting cases, and of the seven pipeline configs;
  the two with no bottom or top datum exit 1, lift's refusal
- solve reports and CSVs and oracle reports of the seven pipeline configs,
  among them a solve with no lift and a source-only solve
- sharpness reports of all nine cases at n = 1 and 7, and at n = 10000,
  where five of them fail and exit 2
- selftest, the one command that reaches solver.evaluate, and the config
  that `selftest --dump-config` writes
- REFUSALS: one run of oracle, sharpness, sweep, certify and solve that
  must exit 1 and write no report; with lift's two, every subcommand but
  selftest has a compared refusal

Each output file is compared byte for byte and each exit code exactly,
and so are the `helmstab: ...` lines of each run's stderr, its warnings
(`helmstab: warning: <text>`) and errors, as printed, and any Python
warning (category and text, without the file and line it names).  Then the
benchmark smoke of both workloads runs in each tree, and
bench/compare.py checks the two records.  Prints every output that differs
and exits 1 if any does, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HEAD = Path(__file__).resolve().parents[1]
THEOREMS = ("T1", "T2_IMP", "T2_NEU", "T2_DIR", "TF", "T3_NEU", "T3_DIR")
CASES = ("ex2.3-1", "ex2.3-2", "ex2.3-3", "ex2.5-neumann", "ex2.5-dirichlet",
         "lift-nn", "lift-nd", "lift-dn", "lift-dd")

_DATA = {"left": "constant:1,0.5", "right": [[1, 1.0, 0.0], [3, 0.2, -0.4]],
         "bottom": [[0, 0.7, 0.0], [2, 0.3, -0.1], [5, 0.0, 0.2]], "top": "constant:0.4"}


def _boundary(bottom: str, right: str, top: str) -> dict:
    return {"bottom": bottom, "right": right, "top": top}


#: The pipeline configs: data on every side, the third also a source, the
#: first's data without the top datum (one lifted datum), its left and right
#: data alone (nothing lifted), a source alone, and a k = 60 field on a 129
#: grid.
PIPELINE = {
    "a": {"k": 7.3, "boundary": _boundary("neumann", "impedance", "dirichlet"), "data": _DATA},
    "b": {"k": 7.3, "boundary": _boundary("dirichlet", "neumann", "neumann"), "data": _DATA},
    "c": {"k": 7.3, "boundary": _boundary("dirichlet", "dirichlet", "neumann"),
          "data": _DATA, "source": "mode:3"},
    "a-bottom": {"k": 7.3, "boundary": _boundary("neumann", "impedance", "dirichlet"),
                 "data": {side: _DATA[side] for side in ("left", "right", "bottom")}},
    "left-right": {"k": 7.3, "boundary": _boundary("neumann", "impedance", "dirichlet"),
                   "data": {side: _DATA[side] for side in ("left", "right")}},
    "source": {"k": 7.3, "boundary": _boundary("neumann", "dirichlet", "dirichlet"),
               "source": "mode:2"},
    "field": {"k": 60.0, "boundary": _boundary("dirichlet", "dirichlet", "neumann"),
              "data": {"left": [[1, 0.3, -0.2], [4, 1.0, 0.5]],
                       "bottom": [[2, 0.5, -1.0], [3, 0.1, 0.2]],
                       "top": [[1, 1.0, 1.0], [5, -0.3, 0.7]]},
              "grid": 129},
}
#: The lifting configs: each (bottom, top) pair at two k.
LIFTING = {
    f"{k}-{bottom}-{top}": {
        "k": k, "boundary": _boundary(bottom, "impedance", top),
        "data": {"bottom": [[0, 0.7, 0.0], [2, 0.3, -0.1]], "top": "constant:0.4",
                 "left": "constant:1,0.5"}}
    for k in (3.2, 3.5)
    for bottom, top in (("dirichlet", "dirichlet"), ("neumann", "neumann"),
                        ("dirichlet", "neumann"), ("neumann", "dirichlet"))
}
#: A k on each side of T3's lifting-lattice switch at k^2 = 2.125 pi^2, the
#: half-integer cutoff of mode 2 at 2.5 pi and a k within 1e-10 of integer
#: mode 3, as 17 significant digits, which give each float back exactly.
_SWITCH_K = math.pi * math.sqrt(2.125)
GROUPED_K = ",".join(f"{k:.17g}" for k in (
    0.05, 0.9, _SWITCH_K * (1 - 1e-9), _SWITCH_K * (1 + 1e-9), 2.5 * math.pi,
    3 * math.pi * (1 + 1e-10), 40.0))
#: The pipeline config each theorem is certified on.
CERTIFY_CONFIG = {"T1": "a", "T2_IMP": "a", "T3_NEU": "a", "T2_NEU": "b", "T2_DIR": "c",
                  "TF": "c", "T3_DIR": "c"}
#: Runs that must exit 1, as (arguments, the name of the config they read or
#: None): an oracle grid below 17 on a valid config, sharpness mode 0, a
#: sweep of no trials, a TF certificate of a config without a source, and
#: a solve of a config file that does not exist.
REFUSALS = (
    (["oracle", "--n", "5"], "a"),
    (["sharpness", "--case", "ex2.3-2", "--n", "0"], None),
    (["sweep", "--theorem", "T1", "--trials", "0"], None),
    (["certify", "--theorem", "TF"], "a"),
    (["solve"], "missing"),
)


def runs(configs: Path) -> list[tuple[list[str], list[str]]]:
    """Every command as (helmstab arguments, the files it writes)."""
    out = []
    for t in THEOREMS:
        out.append((["sweep", "--theorem", t, "--k-count", "8", "--trials", "24", "--seed", "0",
                     "--report", f"sweep-{t}.json"], [f"sweep-{t}.json"]))
    for t in ("T1", "T3_DIR", "T2_DIR"):
        report = f"sweep-grouped-{t}.json"
        out.append((["sweep", "--theorem", t, "--k-list", GROUPED_K, "--modes", "100",
                     "--seed", "0", "--report", report], [report]))
    for t in ("T1", "T3_DIR"):
        report = f"sweep-default-{t}.json"
        out.append((["sweep", "--theorem", t, "--seed", "3", "--report", report], [report]))
    for t, name in CERTIFY_CONFIG.items():
        out.append((["certify", "--theorem", t, "--config", str(configs / f"{name}.json"),
                     "--report", f"certify-{t}.json"], [f"certify-{t}.json"]))
    for name in (*LIFTING, *PIPELINE):
        files = [f"lift-{name}.json", f"lift-{name}.csv"]
        out.append((["lift", "--config", str(configs / f"{name}.json"), "--report", files[0],
                     "--csv", files[1]], files))
    for name in PIPELINE:
        files = [f"solve-{name}.json", f"solve-{name}.csv"]
        out.append((["solve", "--config", str(configs / f"{name}.json"), "--report", files[0],
                     "--csv", files[1]], files))
        out.append((["oracle", "--config", str(configs / f"{name}.json"),
                     "--report", f"oracle-{name}.json"], [f"oracle-{name}.json"]))
    for case in CASES:
        for n in ("1", "7", "10000"):
            report = f"sharpness-{case}-{n}.json"
            out.append((["sharpness", "--case", case, "--n", n, "--report", report], [report]))
    for args, name in REFUSALS:
        report = f"refusal-{args[0]}.json"
        config = [] if name is None else ["--config", str(configs / f"{name}.json")]
        out.append(([*args, *config, "--report", report], [report]))
    out.append((["selftest"], []))
    out.append((["selftest", "--dump-config", "selftest.json"], ["selftest.json"]))
    return out


#: The first line of a warning as Python prints it: "file:line: Category: text".
_WARNING = re.compile(r"^\S.*?:\d+: (\w+Warning): (.*)$")


def messages(stderr: str) -> list[str]:
    """The `helmstab: ...` warning and error lines and the Python warnings
    (category and text) of a run's stderr, in order; a Python warning's
    file, line and source are left out, as they name where it was
    attributed."""
    out = []
    for line in stderr.splitlines():
        warning = _WARNING.match(line)
        if warning:
            out.append(f"{warning[1]}: {warning[2]}")
        elif line.startswith("helmstab: "):
            out.append(line)
    return out


def _run(tree: Path, argv: list[str], cwd: Path, quiet: bool = True) -> tuple[int, list[str]]:
    """The exit code of python argv in cwd, with the package of `tree`, and
    the messages of its stderr; not quiet, its output is passed through and
    there are none."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out, err = (subprocess.DEVNULL, subprocess.PIPE) if quiet else (None, None)
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, stdout=out, stderr=err,
                          text=True)
    return proc.returncode, messages(proc.stderr or "")


def _read(path: Path):
    return path.read_bytes() if path.exists() else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_dir", type=Path)
    base = parser.parse_args(argv).base_dir.resolve()
    if not (base / "src" / "helmstab").is_dir():
        parser.error(f"{base} holds no src/helmstab")
    trees = (base, HEAD)
    differ: list[str] = []
    compared = 0
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        work = Path(tmp)
        for name, doc in {**PIPELINE, **LIFTING}.items():
            (work / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        dirs = [work / "base", work / "head"]
        for d in dirs:
            d.mkdir()
        for args, files in runs(work):
            (code, said), (code_head, said_head) = pool.map(
                lambda td: _run(td[0], ["-m", "helmstab", *args], td[1]), zip(trees, dirs))
            compared += 2 + len(files)
            label = " ".join(args[:1] + files[:1])
            if code != code_head:
                differ.append(f"{label}: exit code {code} vs {code_head}")
            if said != said_head:
                differ.append(f"{label}: stderr {said} vs {said_head}")
            differ += [f for f in files if _read(dirs[0] / f) != _read(dirs[1] / f)]
        for workload in ("sweep", "field"):
            smoke = ["bench/run.py", "--workload", workload, "--seed", "0", "--seconds", "1",
                     "--smoke"]
            codes = [_run(tree, smoke, tree)[0] for tree in trees]
            record = f".bench_out/{workload}-seed0-trace0.json"
            compared += 3
            if codes != [0, 0]:
                differ.append(f"bench smoke {workload}: exit codes {codes[0]} and {codes[1]}")
            elif _run(HEAD, ["bench/compare.py", str(base / record), str(HEAD / record)], HEAD,
                      quiet=False)[0]:
                differ.append(f"bench/compare.py {workload}: results differ")
    for line in differ:
        print(f"DIFFERS: {line}")
    print(f"{compared} outputs compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
