"""Config-driven command line: solve, certify, sharpness, sweep, lift, oracle.

Problems are described by a single JSON document; solution samples go to CSV
(columns x,y,re,im) and certificate/sharpness/sweep results to JSON reports
with sorted keys.  Exit codes: 0 success, 2 failing certificate or sharpness
mismatch, 1 usage/config errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import eigenbasis
from .bounds import (
    SHARPNESS_IDS,
    THEOREMS,
    TheoremId,
    certify,
    sharpness_case,
    sweep,
    _check_case_family,
    _check_case_mode,
    _check_data,
    _check_operators,
    _check_sweep,
)
from .eigenbasis import BasisFamily, BoundaryOperator, Spectrum, project, _zero_member
from .modal1d import Side, choose_lifting_family, _check_wavenumber
from .oracle import MAX_GRID, compare, fdm_energy, fdm_solve
from .solver import (
    BoundaryConfig,
    SeriesSolution,
    _datum_family,
    _grid_values,
    default_projection_depth,
    energy_parseval,
    energy_quadrature,
    evaluate,
    lift,
    solve_datum,
    solve_problem,
)


class ConfigError(ValueError):
    """Malformed run configuration; message carries the field path."""


@contextlib.contextmanager
def _field(path: str):
    """Name `path`, a config field or a `--` flag, in a ValueError its body
    raises: as a ConfigError for a field, a ValueError for a flag."""
    try:
        yield
    except ValueError as exc:
        raise (ValueError if path.startswith("--") else ConfigError)(f"{path}: {exc}") from None


@dataclass(frozen=True)
class RunConfig:
    """One solvable problem: operators, data, source, discretization knobs."""

    k: float
    config: BoundaryConfig
    data: dict[Side, Spectrum]
    source: Optional[list]
    truncation: Optional[int]
    grid: int
    seed: int
    outputs: dict


def parse_run_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: expected a JSON object")
    _known_keys("config", doc, ("k", "boundary", "data", "source", "truncation", "grid",
                                "seed", "outputs"))
    if "k" not in doc:
        raise ConfigError("config.k: missing")
    raw_k = doc["k"]
    not_a_number = ConfigError(f"config.k: not a number ({raw_k!r})")
    if isinstance(raw_k, bool):
        raise not_a_number
    try:
        k = float(raw_k)
    except (TypeError, ValueError):
        raise not_a_number from None
    with _field("config.k"):
        _check_wavenumber(k)

    bdoc = doc.get("boundary")
    if not isinstance(bdoc, dict):
        raise ConfigError("config.boundary: expected an object with the four sides")
    sides = ("bottom", "right", "top", "left")
    _known_keys("config.boundary", bdoc, sides)
    ops = {}
    for name in sides:
        raw = bdoc.get(name, "impedance" if name == "left" else None)
        if raw is None:
            raise ConfigError(f"config.boundary.{name}: missing")
        try:
            ops[name] = BoundaryOperator(str(raw).lower())
        except ValueError:
            raise ConfigError(
                f"config.boundary.{name}: unknown operator {raw!r} "
                f"(expected one of {sorted(op.value for op in BoundaryOperator)})"
            ) from None
    with _field("config.boundary"):
        config = BoundaryConfig(ops["bottom"], ops["right"], ops["top"], ops["left"])

    cap = eigenbasis.MAX_MODE
    truncation = doc.get("truncation")
    if truncation is not None:
        truncation = _integer("config.truncation", truncation)
        if truncation < 0 or truncation > cap:
            raise ConfigError(f"config.truncation: must lie in [0, {cap}]")
    depth = default_projection_depth(k) if truncation is None else truncation
    if depth > cap:  # the default truncation lies below the default depth
        raise ConfigError(f"config.k: {k:g} needs {depth} modes by default, above the cap "
                          f"{cap}; give a config.truncation <= {cap}")
    data_doc = doc.get("data")
    if data_doc is None:
        data_doc = {}
    if not isinstance(data_doc, dict):
        raise ConfigError("config.data: expected an object mapping sides to data")
    data = {}
    for name, raw in data_doc.items():
        try:
            side = Side(name)
        except ValueError:
            raise ConfigError(f"config.data.{name}: unknown side") from None
        data[side] = _parse_datum(f"config.data.{name}", raw, cap,
                                  _datum_family(config, side, k), depth)

    source = None
    if doc.get("source") is not None:
        source = _parse_source("config.source", doc["source"], cap, config.vertical_family())

    if truncation is not None:  # a solve would drop a nonzero mode above it
        modes = {f"config.data.{side.value}": g.n[g.c != 0] for side, g in data.items()}
        modes["config.source"] = [n for n, _ in source or ()]
        for path, ns in modes.items():
            if max(ns, default=0) > truncation:
                raise ConfigError(f"{path}: mode {max(ns)} lies above truncation {truncation}")
    grid = _integer("config.grid", doc.get("grid", 33))
    if not 2 <= grid <= MAX_GRID:
        raise ConfigError(f"config.grid: must lie in [2, {MAX_GRID}]")
    seed = _integer("config.seed", doc.get("seed", 0))
    outputs = {} if doc.get("outputs") is None else doc["outputs"]
    if not isinstance(outputs, dict):
        raise ConfigError("config.outputs: expected an object")
    paths = ("csv", "report")
    _known_keys("config.outputs", outputs, paths)
    for name in paths:
        path = outputs.get(name)
        if path is not None and not isinstance(path, str):
            raise ConfigError(f"config.outputs.{name}: expected a path string, got {path!r}")
    return RunConfig(k=k, config=config, data=data, source=source,
                     truncation=truncation, grid=grid, seed=seed, outputs=outputs)


def _known_keys(path: str, doc: dict, known: tuple) -> None:
    """Reject a misspelt or unsupported key rather than ignore it."""
    for key in doc:
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown key (expected one of {sorted(known)})")


def _integer(path: str, raw) -> int:
    """An integer field: an int, an integral float or a decimal string."""
    if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
        raise ConfigError(f"{path}: not an integer ({raw!r})")
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{path}: not an integer ({raw!r})") from None


def _mode_index(path: str, raw, cap: int) -> int:
    """A mode index in [0, cap]: a triple's first entry or the N of "mode:N"."""
    n = _integer(path, raw)
    if n < 0 or n > cap:
        raise ConfigError(f"{path}: mode {n} outside [0, {cap}]")
    return n


def _check_member(path: str, family: BasisFamily, n: int) -> None:
    """Reject data on a member below the family's first_nonzero, the zero
    function: a solve would drop them."""
    if n < family.first_nonzero:
        raise ConfigError(f"{path}: {_zero_member(family, n)}")


def _parse_datum(path: str, raw, cap: int, family: BasisFamily, depth: int) -> Spectrum:
    """A [n, re, im] triple list or a named form, as a spectrum in `family`;
    a constant datum is projected at `depth`."""
    if isinstance(raw, str):
        if raw.startswith("mode:"):
            n = _mode_index(path, raw[len("mode:"):], cap)
            with _field(path):  # a zero member
                return Spectrum.from_pairs(family, [(n, 1.0)])
        if raw.startswith("constant:"):
            try:
                values = [float(v) for v in raw[len("constant:"):].split(",")]
            except ValueError:
                values = []
            if not (1 <= len(values) <= 2 and all(map(math.isfinite, values))):
                raise ConfigError(f"{path}: a constant datum is one or two finite "
                                  f"numbers (re[,im]), got {raw!r}")
            return project(lambda t: np.full(np.shape(t), complex(*values)), family, depth)
        raise ConfigError(f"{path}: unknown named datum {raw!r}")
    if isinstance(raw, list):
        coefficients = {}  # by mode
        for i, item in enumerate(raw):
            if not (isinstance(item, list) and len(item) == 3):
                raise ConfigError(f"{path}[{i}]: expected an [index, re, im] triple")
            n = _mode_index(f"{path}[{i}]", item[0], cap)
            if n in coefficients:
                raise ConfigError(f"{path}[{i}]: duplicate mode {n}")
            try:
                if any(isinstance(x, bool) for x in item[1:]):  # float(True) is 1
                    raise TypeError
                coefficients[n] = complex(float(item[1]), float(item[2]))
            except (TypeError, ValueError):
                raise ConfigError(f"{path}[{i}]: coefficient is not a number") from None
            if coefficients[n] != 0:
                _check_member(f"{path}[{i}]", family, n)
        with _field(path):  # a non-finite coefficient
            return Spectrum.from_pairs(family, coefficients.items())
    raise ConfigError(f"{path}: expected a triple list or a named datum string")


def _parse_source(path: str, raw, cap: int, family: BasisFamily):
    if isinstance(raw, str):
        if raw.startswith("mode:"):
            n = _mode_index(path, raw[len("mode:"):], cap)
            _check_member(path, family, n)
            return [(n, lambda x: np.ones_like(np.asarray(x, dtype=float)))]
        raise ConfigError(f"{path}: unknown named source {raw!r}")
    raise ConfigError(f"{path}: expected a named source string")


# --------------------------------------------------------------------------
# output helpers
# --------------------------------------------------------------------------


def _write_csv(path: str, t: np.ndarray, values: np.ndarray) -> None:
    """x,y,re,im rows of values[i, j] at (t[i], t[j]), i-major: each number
    as %.17g, with csv.writer's \\r\\n line ends.  Each grid row i is one
    % format of a template that holds the y coordinates."""
    coords = [f"{c:.17g}" for c in t.tolist()]
    template = "".join(f"%s,{y},%.17g,%.17g\r\n" for y in coords)
    fields = [None] * (3 * len(coords))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("x,y,re,im\r\n")
        for x, row in zip(coords, values):
            fields[0::3] = [x] * len(coords)
            fields[1::3] = row.real.tolist()
            fields[2::3] = row.imag.tolist()
            fh.write(template % tuple(fields))


def _write_report(path: Optional[str], payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path:
        Path(path).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _energy_payload(u: SeriesSolution, grid: int) -> dict:
    qr = energy_quadrature(u, max(17, grid))
    payload = {
        "quadrature": {"grad": qr.grad_norm, "l2": qr.l2_norm, "energy": qr.energy},
        "grid": max(17, grid),
    }
    if len(u.blocks) <= 1:
        pr = energy_parseval(u)
        payload["parseval"] = {"grad": pr.grad_norm, "l2": pr.l2_norm, "energy": pr.energy}
    return payload


def _certificate_payload(cert) -> dict:
    norms = vars(cert.datum_norms)
    return {
        "theorem": cert.theorem.value,
        "k": cert.k,
        "lhs": cert.lhs,
        "rhs": cert.rhs,
        "ratio": cert.ratio,
        "pass": cert.passed,
        # a norm the theorem does not use (NaN) is null
        "norms": {name: None if math.isnan(v) else v for name, v in norms.items()},
    }


def _theorem(tag: str) -> TheoremId:
    norm = tag.strip().upper()
    for theorem, row in THEOREMS.items():
        if norm in (theorem.value, row.alias):
            return theorem
    raise ConfigError(
        f"unknown theorem {tag!r}; expected one of {sorted(t.value for t in TheoremId)} "
        f"or aliases {sorted(row.alias for row in THEOREMS.values())}"
    )


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd(args) -> int:
    """Run solve, certify, sharpness, sweep, lift or oracle.  A command with
    a --config loads and parses it for its body; other bodies get None.  A
    body that solves returns its solution, whose projection tails and
    warnings the report carries as diagnostics (the warnings on stderr too);
    a command with a CSV samples it on the grid x, y = linspace(0, 1, grid).
    A config's report gets its seed.  Exits 2 if pass (all_pass) is false."""
    run = None
    if "config" in args:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        run = parse_run_config(doc)
    payload, u = args.body(run, args)
    if u is not None:
        payload["diagnostics"] = {"warnings": u.warnings, "projection_tail": [
            {"side": t.side.value, "depth": t.depth, "tail": t.fraction} for t in u.tails]}
        for text in u.warnings:
            print(f"helmstab: warning: {text}", file=sys.stderr)
    if "csv" in args:
        payload["csv"] = args.csv or run.outputs.get("csv")
        if payload["csv"]:
            t = np.linspace(0.0, 1.0, run.grid)
            _write_csv(payload["csv"], t, _grid_values(u, t, t))
    if run is not None:
        payload["seed"] = run.seed
    _write_report(args.report or (run and run.outputs.get("report")), payload)
    return 0 if payload.get("pass", payload.get("all_pass", True)) else 2


def _solve(run: RunConfig, args) -> tuple[dict, SeriesSolution]:
    u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
    return {
        "command": "solve",
        "k": run.k,
        "truncation": u.truncation,
        "terms": len(u.modes),
        "grid": run.grid,
        "energy": _energy_payload(u, run.grid),
    }, u


def _certify(run: RunConfig, args) -> tuple[dict, None]:
    theorem = _theorem(args.theorem)
    side = THEOREMS[theorem].side
    data = run.source if side is None else run.data.get(side)
    with _field("config.source" if side is None else f"config.data.{side.value}"):
        _check_data(theorem, data)
    with _field("config.boundary"):
        _check_operators(theorem, run.config)
    return _certificate_payload(certify(theorem, run.config, data, run.k, run.truncation)), None


def _sharpness(run: None, args) -> tuple[dict, None]:
    family = BasisFamily(args.family)
    with _field("--n"):
        _check_case_mode(args.n)
    with _field("--family"):
        _check_case_family(args.case, family)
    case = sharpness_case(args.case, args.n, family)
    rep = energy_parseval(solve_datum(case.config, case.data_side, case.datum, case.k))
    computed, rel, passed = case.verdict(rep)
    payload = {
        "command": "sharpness",
        "case": case.case_id,
        "n": case.n,
        "family": family.value,
        "k": case.k,
        "theorem": case.theorem.value,
        "expected": case.expected,
        "computed": computed,
        "relative_difference": rel,
        "pass": passed,
    }
    if case.lower_bound is not None:
        payload.update(lower_bound=case.lower_bound, energy=rep.energy)
    return payload, None


def _sweep(run: None, args) -> tuple[dict, None]:
    theorem = _theorem(args.theorem)
    grid_flags = {"--k-min": args.k_min, "--k-max": args.k_max, "--k-count": args.k_count}
    given = [flag for flag, value in grid_flags.items() if value is not None]
    if args.k_list is not None and given:
        raise ValueError(f"--k-list and {', '.join(given)} both set the k grid; give one")
    k_list = args.k_list
    if k_list is None and not given and theorem is TheoremId.TF_SOURCE:
        k_list = "0.5,1,5,20"
    if k_list is not None:
        try:
            k_grid = [float(v) for v in k_list.split(",")]
        except ValueError:
            raise ValueError(f"--k-list must be comma-separated numbers, got {k_list!r}") from None
        with _field("--k-list"):
            _check_wavenumber(k_grid)
    else:
        k_min = 0.05 if args.k_min is None else args.k_min
        k_max = 200.0 if args.k_max is None else args.k_max
        k_count = 64 if args.k_count is None else args.k_count
        # A sweep of no wavenumbers would pass vacuously; the report lists every k.
        if not 1 <= k_count <= 100_000:
            raise ValueError(f"--k-count: must lie in [1, 100000], got {k_count}")
        for flag, k in (("--k-min", k_min), ("--k-max", k_max)):
            with _field(flag):
                _check_wavenumber(k)
        k_grid = list(np.geomspace(k_min, k_max, k_count))
    _check_sweep(theorem, k_grid, args.modes, args.trials, args.seed, prefix="--")
    report = sweep(theorem, k_grid, modes=args.modes, trials=args.trials, seed=args.seed)
    return {
        "command": "sweep",
        "theorem": theorem.value,
        "k_grid": list(report.k_grid),
        "modes": report.modes,
        "trials": report.trials,
        "seed": report.seed,
        "certificates": report.certificates,
        "all_pass": report.all_passed,
        "max_ratio": report.max_ratio,
        "argmax_k": report.argmax_k,
        "argmax_trial": report.argmax_trial,
        "failures": [_certificate_payload(c) for c in report.failures],
    }, None


def _lift(run: RunConfig, args) -> tuple[dict, SeriesSolution]:
    if Side.BOTTOM not in run.data and Side.TOP not in run.data:
        raise ConfigError("config.data: lift needs a bottom or top datum")
    u, residual_right, residual_left = lift(run.config, run.data, run.k, run.truncation)
    choice = choose_lifting_family(run.k, run.config.bottom, run.config.top)
    return {
        "command": "lift",
        "k": run.k,
        "eigenvalue_family": "half-integer" if choice.basis.half_integer else "integer",
        "case_index": choice.case_index,
        "d0": choice.d0,
        "d1": choice.d1,
        "residual_right": [[n, c.real, c.imag] for n, c in residual_right],
        "residual_left": [[n, c.real, c.imag] for n, c in residual_left],
        "energy": _energy_payload(u, run.grid),
    }, u


def _oracle(run: RunConfig, args) -> tuple[dict, SeriesSolution]:
    n = max(run.grid, 65) if args.n is None else args.n  # the default lies in range
    if not 17 <= n <= MAX_GRID:  # before the series solve
        raise ValueError(f"--n: oracle grids run from 17 to {MAX_GRID} nodes a side, got {n}")
    u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
    gs = fdm_solve(run.config, run.data, run.source, run.k, n)
    comparison = compare(u, gs)
    return {
        "command": "oracle",
        "k": run.k,
        "grid_n": n,
        "h": gs.h,
        "max_abs": comparison.max_abs,
        "rel_l2": comparison.rel_l2,
        "fdm_energy": fdm_energy(gs).energy,
    }, u


_SELFTEST_CONFIG = {
    "k": 5.0,
    "boundary": {"bottom": "neumann", "right": "impedance",
                 "top": "neumann", "left": "impedance"},
    "data": {"left": [[0, 0.0, -10.0]]},
    "truncation": 24,
    "grid": 33,
    "seed": 0,
    "outputs": {},
}


def _cmd_selftest(args) -> int:
    if args.dump_config:
        _write_report(args.dump_config, _SELFTEST_CONFIG)
        print(f"wrote {args.dump_config}")
        return 0
    checks: list[tuple[str, bool]] = []
    # basis orthonormality spot check
    t, w = eigenbasis.quadrature_rule(16)
    z3 = eigenbasis.basis_value(BasisFamily.SIN_INT, 3, t)
    z5 = eigenbasis.basis_value(BasisFamily.SIN_INT, 5, t)
    checks.append(("orthonormality", abs(np.sum(w * z3 * z3) - 1) < 1e-12
                   and abs(np.sum(w * z3 * z5)) < 1e-12))
    # plane wave
    run = parse_run_config(_SELFTEST_CONFIG)
    u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
    out = evaluate(u, [(0.5, 0.25)])[0][0]
    checks.append(("plane-wave value", abs(out - np.exp(1j * 5.0 * 0.5)) < 1e-10))
    rep = energy_parseval(u)
    checks.append(("plane-wave energy", abs(rep.energy - 10.0) < 1e-9))
    # one certificate and one sharpness case
    cert = certify(TheoremId.T1_G4, run.config, run.data[Side.LEFT], run.k)
    checks.append(("certificate", cert.passed))
    case = sharpness_case("ex2.3-2", 2)
    sol = solve_datum(case.config, case.data_side, case.datum, case.k)
    checks.append(("sharpness", case.verdict(energy_parseval(sol))[2]))
    for name, ok in checks:
        print(f"{name}: {'ok' if ok else 'FAIL'}")
    return 0 if all(ok for _, ok in checks) else 2


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, after the usage and
    the reason; 2 means a failed check."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"helmstab: error: {message}", file=sys.stderr)
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves it
    as it was, so every run shares it."""
    parser = _Parser(prog="helmstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the configured problem")
    p.add_argument("--config", required=True)
    p.add_argument("--csv")
    p.add_argument("--report")
    p.set_defaults(func=_cmd, body=_solve)

    p = sub.add_parser("certify", help="check one stability bound")
    p.add_argument("--theorem", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd, body=_certify)

    p = sub.add_parser("sharpness", help="reproduce one sharpness example")
    p.add_argument("--case", required=True, choices=SHARPNESS_IDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", default="sin-int",
                   choices=[f.value for f in BasisFamily])
    p.add_argument("--report")
    p.set_defaults(func=_cmd, body=_sharpness)

    p = sub.add_parser("sweep", help="randomized certification sweep")
    p.add_argument("--theorem", required=True)
    p.add_argument("--k-min", type=float)
    p.add_argument("--k-max", type=float)
    p.add_argument("--k-count", type=int)
    p.add_argument("--k-list", help="comma-separated explicit k grid, instead of the "
                   "geometric grid of --k-min, --k-max and --k-count")
    p.add_argument("--modes", type=int, default=64)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report")
    p.set_defaults(func=_cmd, body=_sweep)

    p = sub.add_parser("lift", help="lift horizontal data, report residual traces")
    p.add_argument("--config", required=True)
    p.add_argument("--csv")
    p.add_argument("--report")
    p.set_defaults(func=_cmd, body=_lift)

    p = sub.add_parser("oracle", help="finite-difference cross-validation")
    p.add_argument("--config", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--report")
    p.set_defaults(func=_cmd, body=_oracle)

    p = sub.add_parser("selftest", help="quick internal consistency battery")
    p.add_argument("--dump-config", help="write a canonical example config")
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv) -> int:
    """Parse argv (without the program name) and execute one subcommand."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"helmstab: config error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"helmstab: error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    raise SystemExit(main())
