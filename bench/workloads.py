"""The benchmark's workloads: inputs drawn from the seed, the helmstab argv of
each operation, and the checks and digest of each operation's outputs.

Each workload is a fixed list of CLI operations (one pass): `sweep` runs
the certificate sweeps, `field` the pointwise solves and the
finite-difference oracle.  Every operation writes its report (and CSV) to
a file; `Op.check` validates those files and returns a digest of the
results that later commits must reproduce.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

NAMES = ("sweep", "field")

# Second-order agreement accepted by acceptance criterion 8: rel_l2 <= 1e-3
# on the 257-node grid, scaled by h^2 for other grids.
ORACLE_REL_L2_AT_257 = 1e-3


@dataclass(frozen=True)
class Op:
    """One CLI operation: `helmstab <argv>`, plus the files it writes."""

    name: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...]
    check: Callable[[], tuple[list[str], dict]]

    def output_bytes(self) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in self.outputs}


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x)


def _sweep_op(name, theorem, extra, expected_certs, seed, workdir, modes=64) -> Op:
    report = workdir / f"{name}.json"
    argv = ("sweep", "--theorem", theorem, *extra, "--modes", str(modes),
            "--seed", str(seed), "--report", str(report))

    def check():
        doc = _load(report)
        problems = []
        if doc["all_pass"] is not True or doc["failures"]:
            problems.append(f"{name}: not every certificate passed")
        if doc["certificates"] != expected_certs:
            problems.append(f"{name}: {doc['certificates']} certificates, "
                            f"expected {expected_certs}")
        if not (_finite(doc["max_ratio"]) and doc["max_ratio"] < 1.0):
            problems.append(f"{name}: max ratio {doc['max_ratio']!r} is not finite and < 1")
        digest = {key: doc[key] for key in
                  ("theorem", "certificates", "all_pass", "max_ratio",
                   "argmax_k", "argmax_trial")}
        digest["failures"] = len(doc["failures"])
        return problems, digest

    return Op(name, argv, (report,), check)


def _field_op(command, config, grid, workdir) -> Op:
    report = workdir / f"{command}.json"
    csv_path = workdir / f"{command}.csv"
    argv = (command, "--config", str(config), "--csv", str(csv_path),
            "--report", str(report))

    def check():
        problems = []
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["x", "y", "re", "im"]]:
            problems.append(f"{command}: CSV header is {rows[:1]!r}")
        body = rows[1:]
        if len(body) != grid * grid:
            problems.append(f"{command}: CSV has {len(body)} rows, expected {grid * grid}")
        if not all(len(r) == 4 and all(math.isfinite(float(v)) for v in r) for r in body):
            problems.append(f"{command}: CSV holds a short or non-finite row")
        energy = _load(report)["energy"]
        energies = {method: energy[method]["energy"]
                    for method in ("quadrature", "parseval") if method in energy}
        if not all(_finite(e) for e in energies.values()):
            problems.append(f"{command}: non-finite report energy {energies!r}")
        digest = {
            "energy": energies,
            "csv_rows": len(body),
            "csv_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        }
        return problems, digest

    return Op(command, argv, (report, csv_path), check)


def _oracle_op(config, n, workdir) -> Op:
    report = workdir / "oracle.json"
    argv = ("oracle", "--config", str(config), "--n", str(n), "--report", str(report))
    tolerance = ORACLE_REL_L2_AT_257 * (256.0 / (n - 1)) ** 2

    def check():
        doc = _load(report)
        problems = []
        if not (_finite(doc["rel_l2"]) and doc["rel_l2"] <= tolerance):
            problems.append(f"oracle: rel_l2 {doc['rel_l2']!r} above {tolerance:.2e}")
        digest = {key: doc[key] for key in ("rel_l2", "max_abs", "fdm_energy", "grid_n")}
        return problems, digest

    return Op("oracle", argv, (report,), check)


def _triples(rng: random.Random, count: int, top: int) -> list:
    """`count` distinct modes in 1..top with N(0,1) complex coefficients."""
    modes = sorted(rng.sample(range(1, top + 1), count))
    return [[m, round(rng.gauss(0.0, 1.0), 6), round(rng.gauss(0.0, 1.0), 6)] for m in modes]


# The seed draws datum modes and coefficients only.  The wavenumber, the
# operators and the mode counts stay fixed, so every seed asks for the same
# amount of work and the run-to-run spread is the machine's, not the input's.

def field_config(seed: int, grid: int) -> dict:
    """k = 60 problem with left, bottom and top data; the lifting path."""
    rng = random.Random(seed)
    return {
        "k": 60.0,
        "boundary": {"bottom": "dirichlet", "right": "dirichlet", "top": "neumann",
                     "left": "impedance"},
        "data": {"left": _triples(rng, 3, 8), "bottom": _triples(rng, 3, 8),
                 "top": _triples(rng, 3, 8)},
        "grid": grid,
        "seed": seed,
    }


def oracle_config(seed: int) -> dict:
    """k = 6.5 problem with left (vertical) and bottom (horizontal) data.

    Neumann bottom and top keep the corners compatible with low-mode data,
    so the finite-difference oracle converges at second order; impedance on
    both vertical sides keeps the response away from near-resonances.
    """
    rng = random.Random(seed)
    return {
        "k": 6.5,
        "boundary": {"bottom": "neumann", "right": "impedance",
                     "top": "neumann", "left": "impedance"},
        "data": {"left": _triples(rng, 2, 3), "bottom": _triples(rng, 2, 3)},
        "grid": 33,
        "seed": seed,
    }


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """The operations of one pass of `workload`, with inputs written to workdir.

    `smoke` shrinks every size so a pass takes about a second.
    """
    if workload == "sweep":
        k_count, trials = (4, 4) if smoke else (8, 20)
        extra = ("--k-min", "0.05", "--k-max", "200", "--k-count", str(k_count),
                 "--trials", str(trials))
        ops = [_sweep_op(f"sweep-{t}", t, extra, k_count * trials, seed, workdir)
               for t in ("T1", "T3_DIR")]
        # The TF sweep draws between 1 and min(6, modes) source modes per
        # trial; one mode per source keeps the work independent of the seed.
        k_list, trials = ("5", 2) if smoke else ("5,60", 16)
        extra = ("--k-list", k_list, "--trials", str(trials))
        ops.append(_sweep_op("sweep-TF", "TF", extra, len(k_list.split(",")) * trials,
                             seed, workdir, modes=1))
        return ops
    if workload == "field":
        grid = 17 if smoke else 129
        config = workdir / "field-config.json"
        config.write_text(json.dumps(field_config(seed, grid)), encoding="utf-8")
        ops = [_field_op(command, config, grid, workdir) for command in ("solve", "lift")]
        config = workdir / "oracle-config.json"
        config.write_text(json.dumps(oracle_config(seed)), encoding="utf-8")
        ops.append(_oracle_op(config, 65 if smoke else 129, workdir))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")
