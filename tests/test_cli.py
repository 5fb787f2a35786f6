"""Command-line interface: exit codes, formats, determinism, config errors."""

import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import helmstab
from helmstab.bounds import THEOREMS, TheoremId
from helmstab.cli import (
    ConfigError,
    _theorem,
    _write_csv,
    main,
    parse_run_config,
)
from helmstab.eigenbasis import MAX_MODE
from helmstab.oracle import MAX_GRID
from helmstab.modal1d import ModeTable, Side
from helmstab.solver import evaluate_grid, lift, solve_problem


def run_cli(args):
    return main(list(args))


def plane_wave_doc(tmp_path, **overrides):
    doc = {
        "k": 5.0,
        "boundary": {"bottom": "neumann", "right": "impedance",
                     "top": "neumann", "left": "impedance"},
        "data": {"left": [[0, 0.0, -10.0]]},
        "truncation": 24,
        "grid": 21,
        "seed": 0,
        "outputs": {},
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_solve_writes_csv_and_report(tmp_path):
    cfg = plane_wave_doc(tmp_path)
    csv_path = tmp_path / "out.csv"
    report_path = tmp_path / "report.json"
    rc = run_cli(["solve", "--config", str(cfg), "--csv", str(csv_path),
                  "--report", str(report_path)])
    assert rc == 0
    with open(csv_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "y", "re", "im"]
    assert len(rows) == 1 + 21 * 21
    # u = e^{ikx}: the first sample is u(0,0) = 1
    assert float(rows[1][2]) == pytest.approx(1.0, abs=1e-9)
    assert float(rows[1][3]) == pytest.approx(0.0, abs=1e-9)
    report = json.loads(report_path.read_text())
    assert report["energy"]["parseval"]["energy"] == pytest.approx(10.0, rel=1e-9)


def test_csv_bytes_equal_csv_writer(tmp_path):
    """The CSV writer's bytes are csv.writer's on %.17g rows, i-major."""
    rng = np.random.default_rng(7)
    t = np.linspace(0.0, 1.0, 6)
    values = (rng.standard_normal((6, 6)) * 10.0 ** rng.integers(-300, 300, (6, 6))
              + 1j * rng.standard_normal((6, 6)))
    values[0, 0] = 0.0
    values[1, 2] = complex(-0.0, 5e-324)
    values[5, 4] = complex(1.0, -1e300)
    got = tmp_path / "new.csv"
    _write_csv(str(got), t, values)
    want = tmp_path / "reference.csv"
    with open(want, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "re", "im"])
        writer.writerows([f"{t[i]:.17g}", f"{t[j]:.17g}", f"{values[i, j].real:.17g}",
                          f"{values[i, j].imag:.17g}"] for i in range(6) for j in range(6))
    assert got.read_bytes() == want.read_bytes()


def test_reports_are_deterministic(tmp_path):
    cfg = plane_wave_doc(tmp_path)
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run_cli(["solve", "--config", str(cfg), "--report", str(r1)]) == 0
    assert run_cli(["solve", "--config", str(cfg), "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_certify_exit_codes(tmp_path):
    cfg = plane_wave_doc(tmp_path)
    report = tmp_path / "cert.json"
    rc = run_cli(["certify", "--theorem", "T1", "--config", str(cfg),
                  "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert set(doc) >= {"theorem", "k", "lhs", "rhs", "ratio", "pass", "norms"}
    assert doc["pass"] is True
    assert doc["theorem"] == "T1_G4"


def test_every_theorem_id_and_alias_resolves():
    aliases = [row.alias for row in THEOREMS.values()]
    assert len(set(aliases)) == len(THEOREMS) == len(TheoremId)
    for theorem, row in THEOREMS.items():
        assert _theorem(theorem.value) is theorem
        assert _theorem(row.alias) is theorem
        assert _theorem(f" {row.alias.lower()} ") is theorem
    with pytest.raises(ConfigError, match="T3_DIR"):
        _theorem("T4")


@pytest.mark.parametrize("theorem,data,field", [
    ("T1", {}, "config.data.left"),
    ("T2_DIR", {}, "config.data.right"),
    ("T3_NEU", {}, "config.data.bottom"),
    ("TF", {}, "config.source"),
    ("T1", {"left": [[1, 0, 0]]}, "config.data.left"),
    ("T1", {"left": "constant:0", "right": [[1, 1, 0]]}, "config.data.left"),
    ("T3_NEU", {"bottom": [[0, 0, 0], [2, 0, 0]], "left": [[1, 1, 0]]}, "config.data.bottom"),
])
def test_certify_zero_data(tmp_path, capsys, theorem, data, field):
    """A certificate of no datum, only zero coefficients or no source would
    pass with lhs = rhs = 0: certify exits 1 naming the field and writes no
    report.  Data on the other sides do not count."""
    doc = {"k": 5, "boundary": {"bottom": "neumann", "right": "dirichlet", "top": "neumann"},
           "data": data}
    report = tmp_path / "report.json"
    assert run_cli(["certify", "--theorem", theorem, "--config", str(write_doc(tmp_path, doc)),
                    "--report", str(report)]) == 1
    assert f"helmstab: config error: {field}: " in capsys.readouterr().err
    assert not report.exists()


def test_sharpness_exit_and_report(tmp_path):
    report = tmp_path / "sharp.json"
    rc = run_cli(["sharpness", "--case", "ex2.3-2", "--n", "3",
                  "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["relative_difference"] <= 1e-8
    assert doc["pass"] is True


@pytest.mark.parametrize("case,n", [("lift-dn", 5000), ("lift-dn", 10000),
                                    ("lift-dn", 16384), ("lift-dd", 5000)])
def test_detuned_sharpness_passes_at_high_modes(tmp_path, case, n):
    """A detuned example's closed form is taken at the rounded k the solver
    solves at, so it matches the solve to roundoff at any mode."""
    report = tmp_path / "sharp.json"
    assert run_cli(["sharpness", "--case", case, "--n", str(n), "--report", str(report)]) == 0
    assert json.loads(report.read_text())["relative_difference"] <= 1e-14


def test_sweep_report(tmp_path):
    report = tmp_path / "sweep.json"
    rc = run_cli(["sweep", "--theorem", "T1", "--k-list", "0.5,5.0",
                  "--modes", "8", "--trials", "3", "--seed", "4",
                  "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["all_pass"] is True
    assert doc["seed"] == 4
    assert doc["certificates"] == 6


@pytest.mark.parametrize("flags,named", [
    (["--theorem", "T1", "--k-count", "0"], "--k-count"),
    (["--theorem", "T1", "--k-list", "5", "--trials", "0"], "--trials"),
    (["--theorem", "T1", "--k-list", "5", "--modes", "0"], "--modes"),
    (["--theorem", "T1", "--k-list", "5", "--modes", "-1"], "--modes"),
    (["--theorem", "TF", "--k-list", "5", "--modes", "0"], "--modes"),
    (["--theorem", "T1", "--k-list", "0.5,five"], "--k-list"),
    (["--theorem", "T1", "--k-min", "0"], "--k-min"),
    (["--theorem", "T1", "--k-min", "-1"], "--k-min"),
    (["--theorem", "T1", "--k-max", "inf"], "--k-max"),
    (["--theorem", "T1", "--k-list", "5,nan"], "--k-list"),
    (["--theorem", "T1", "--k-list", ""], "--k-list"),
    (["--theorem", "TF", "--k-list", ""], "--k-list"),
    (["--theorem", "T1", "--k-count", "1", "--trials", "1", "--modes", "16386"], "--modes"),
    (["--theorem", "T1", "--k-list", "5", "--seed", "-1"], "--seed"),
    (["--theorem", "T1", "--k-count", "1", "--trials", str(10**12)], "--trials: "),
    (["--theorem", "T3_DIR", "--k-list", "5", "--modes", "16384", "--trials", str(10**9)],
     "--trials: "),
    (["--theorem", "T1", "--k-count", str(10**15)], "--k-count: "),
])
def test_sweep_rejects_flags_that_leave_nothing_to_check(flags, named, tmp_path, capsys):
    """A sweep flag that would certify nothing, nothing of its data or data
    certify refuses, a negative seed, and trials or a k count past their
    caps, exit 1 naming the flag, and write no report."""
    report = tmp_path / "sweep.json"
    assert run_cli(["sweep", *flags, "--report", str(report)]) == 1
    assert named in capsys.readouterr().err
    assert not report.exists()


def sweep_grid(tmp_path, *flags):
    """The k grid of a small TF sweep run with the given flags."""
    report = tmp_path / "sweep.json"
    assert run_cli(["sweep", "--theorem", "TF", *flags, "--modes", "2", "--trials", "2",
                    "--report", str(report)]) == 0
    return json.loads(report.read_text())["k_grid"]


def test_tf_sweep_honours_explicit_grid_flags(tmp_path):
    """The TF sweep's own list 0.5, 1, 5, 20 applies only without grid
    flags; any of --k-min, --k-max and --k-count asks for the geometric
    grid, with the other two at their defaults."""
    assert sweep_grid(tmp_path) == [0.5, 1.0, 5.0, 20.0]
    assert sweep_grid(tmp_path, "--k-min", "1", "--k-max", "100", "--k-count", "5") == \
        list(np.geomspace(1.0, 100.0, 5))
    assert sweep_grid(tmp_path, "--k-count", "3") == list(np.geomspace(0.05, 200.0, 3))
    assert sweep_grid(tmp_path, "--k-list", "2,3") == [2.0, 3.0]


@pytest.mark.parametrize("theorem", ["T1", "TF"])
@pytest.mark.parametrize("flags", [["--k-min", "1"], ["--k-max", "9", "--k-count", "3"]])
def test_sweep_k_list_excludes_the_grid_flags(theorem, flags, tmp_path, capsys):
    """--k-list with any of --k-min, --k-max and --k-count exits 1 naming
    the flags, instead of silently dropping one grid."""
    report = tmp_path / "sweep.json"
    assert run_cli(["sweep", "--theorem", theorem, "--k-list", "5", *flags,
                    "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert all(flag in err for flag in ["--k-list", *flags[::2]])
    assert not report.exists()


@pytest.mark.parametrize("k,bottom,right,top,family,case", [
    (7.3, "neumann", "dirichlet", "dirichlet", "integer", 3),
    (3.2, "dirichlet", "impedance", "dirichlet", "half-integer", 1),
    (3.5, "dirichlet", "impedance", "dirichlet", "integer", 2),
    (3.2, "dirichlet", "impedance", "neumann", "integer", 3),
    (3.5, "dirichlet", "impedance", "neumann", "half-integer", 4),
])
def test_lift_command(tmp_path, k, bottom, right, top, family, case):
    """The report names the lifting lattice and the case that chose it:
    the rows at k = 3.2 and 3.5 cover the four cases."""
    doc = {
        "k": k,
        "boundary": {"bottom": bottom, "right": right, "top": top, "left": "impedance"},
        "data": {"bottom": "mode:2"},
        "grid": 17,
        "outputs": {},
    }
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    report = tmp_path / "lift_report.json"
    rc = run_cli(["lift", "--config", str(path), "--report", str(report)])
    assert rc == 0
    out = json.loads(report.read_text())
    assert (out["eigenvalue_family"], out["case_index"]) == (family, case)
    assert out["residual_right"] and out["residual_left"]


def test_oracle_command(tmp_path):
    cfg = plane_wave_doc(tmp_path)
    report = tmp_path / "oracle.json"
    rc = run_cli(["oracle", "--config", str(cfg), "--n", "129",
                  "--report", str(report)])
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["rel_l2"] <= 1e-3


@pytest.mark.parametrize("n", [0, 5, -3, 10**6])
def test_oracle_refuses_grids_below_17_by_flag(tmp_path, capsys, n):
    """--n below 17 or above MAX_GRID exits 1 naming the flag."""
    report = tmp_path / "oracle.json"
    rc = run_cli(["oracle", "--config", str(plane_wave_doc(tmp_path)), "--n", str(n),
                  "--report", str(report)])
    assert rc == 1
    assert capsys.readouterr().err == (f"helmstab: error: --n: oracle grids run from 17 to "
                                       f"{MAX_GRID} nodes a side, got {n}\n")
    assert not report.exists()
    # The config is read first: a config error wins over the flag's.
    assert run_cli(["oracle", "--config", str(tmp_path / "missing.json"), "--n", str(n)]) == 1
    assert capsys.readouterr().err.startswith("helmstab: config error: config file not found")


@pytest.mark.parametrize("command", ["solve", "lift", "oracle"])
def test_config_grid_above_the_cap_exits_1(tmp_path, capsys, command):
    """A config.grid past MAX_GRID (10^12 CSV rows, or oracle nodes) exits
    1 with one line naming the field, and writes no report or CSV."""
    doc = json.loads(plane_wave_doc(tmp_path).read_text())
    doc["data"]["bottom"] = [[1, 1.0, 0.0]]  # so that lift runs
    report, csv_path = tmp_path / "report.json", tmp_path / "u.csv"
    flags = [] if command == "oracle" else ["--csv", str(csv_path)]
    assert run_cli([command, "--config", str(write_doc(tmp_path, {**doc, "grid": 10**6})),
                    "--report", str(report), *flags]) == 1
    assert capsys.readouterr().err == (f"helmstab: config error: config.grid: must lie in "
                                       f"[2, {MAX_GRID}]\n")
    assert not report.exists() and not csv_path.exists()


def test_selftest_and_dump_roundtrip(tmp_path):
    dumped = tmp_path / "canon.json"
    assert run_cli(["selftest", "--dump-config", str(dumped)]) == 0
    parsed = parse_run_config(json.loads(dumped.read_text()))
    assert parsed.k == 5.0
    r1 = tmp_path / "a.json"
    r2 = tmp_path / "b.json"
    assert run_cli(["solve", "--config", str(dumped), "--report", str(r1)]) == 0
    assert run_cli(["solve", "--config", str(dumped), "--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert run_cli(["selftest"]) == 0


def test_config_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run_cli(["solve", "--config", str(bad)]) == 1

    missing_k = tmp_path / "mk.json"
    missing_k.write_text(json.dumps({"boundary": {}}), encoding="utf-8")
    assert run_cli(["solve", "--config", str(missing_k)]) == 1

    assert run_cli(["solve", "--config", str(plane_wave_doc(tmp_path, data=[1]))]) == 1

    bad_op = plane_wave_doc(
        tmp_path, boundary={"bottom": "magnetic", "right": "impedance",
                            "top": "neumann", "left": "impedance"}
    )
    assert run_cli(["solve", "--config", str(bad_op)]) == 1

    assert run_cli(["certify", "--theorem", "T99", "--config",
                    str(plane_wave_doc(tmp_path))]) == 1

    # A file that holds no JSON object, or none at all, is named.
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[1]", encoding="utf-8")
    capsys.readouterr()
    for path, said in ((not_an_object, "config: expected a JSON object"),
                       (tmp_path / "missing.json", "config file not found: ")):
        assert run_cli(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"helmstab: config error: {said}")


def test_usage_errors_exit_1(capsys):
    """A usage error exits 1 and prints the usage, then its reason."""
    for argv, reason in [
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
        (["sweep", "--theorem", "T1", "--trials", "x"],
         "argument --trials: invalid int value: 'x'"),
        (["solve"], "the following arguments are required: --config"),
        (["sharpness", "--case", "nope", "--n", "3"], "argument --case: invalid choice: 'nope'"),
    ]:
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: helmstab")
        assert f"\nhelmstab: error: {reason}" in err
    # A flag value the parser takes but the command refuses: the reason
    # names the flag, without the usage.
    for argv, reason in [
        (["sharpness", "--case", "ex2.3-2", "--n", "20000"],
         "--n: sharpness cases are stated for mode index n in [1, 16384], got 20000"),
        (["sharpness", "--case", "ex2.3-2", "--n", "0"],
         "--n: sharpness cases are stated for mode index n in [1, 16384], got 0"),
        (["sharpness", "--case", "lift-nn", "--n", "3", "--family", "sin-half"],
         "--family: the lifting examples use the integer-eigenvalue basis"),
    ]:
        assert run_cli(argv) == 1
        assert capsys.readouterr().err == f"helmstab: error: {reason}\n"


def test_shared_parser_runs_as_a_fresh_one(tmp_path, capsys):
    """The parser is built once per process: a usage error, a sweep and the
    same usage error again give the exit codes, stderr and report bytes of
    runs that each build their own parser."""
    from helmstab import cli

    bad = ["sweep", "--theorem", "T1", "--trials", "x"]
    good = ["sweep", "--theorem", "T3_DIR", "--k-count", "3", "--trials", "4", "--modes", "6"]

    def outcomes(tag, fresh):
        said = []
        for i, argv in enumerate((bad, good, bad)):
            if fresh:
                cli._build_parser.cache_clear()
            report = tmp_path / f"{tag}-{i}.json"
            code = run_cli([*argv, "--report", str(report)])
            said.append((code, capsys.readouterr().err,
                         report.read_bytes() if report.exists() else None))
        return said

    shared, fresh = outcomes("shared", False), outcomes("fresh", True)
    assert [code for code, _, _ in shared] == [1, 0, 1]
    assert shared[0][1].startswith("usage: helmstab") and shared[1][2] is not None
    assert shared == fresh


def test_config_error_messages_carry_field_path(tmp_path):
    doc = {"k": 5.0, "boundary": {"bottom": "neumann", "right": "impedance",
                                  "top": "neumann", "left": "impedance"},
           "data": {"left": [[0, 0.0]]}}
    with pytest.raises(ConfigError, match=r"config\.data\.left\[0\]"):
        parse_run_config(doc)
    with pytest.raises(ConfigError, match=r"config\.boundary\.top"):
        parse_run_config({"k": 1.0, "boundary": {"bottom": "neumann",
                                                 "right": "impedance",
                                                 "left": "impedance"}})
    for field, value, path in [
        ("truncation", "abc", r"config\.truncation: not an integer"),
        ("truncation", 3.7, r"config\.truncation: not an integer"),
        ("grid", "x", r"config\.grid: not an integer"),
        ("grid", 1, r"config\.grid: must lie in \[2, 2049\]$"),
        ("grid", MAX_GRID + 1, r"config\.grid: must lie in \[2, 2049\]$"),
        ("grid", 10**6, r"config\.grid: must lie in \[2, 2049\]$"),
        ("grid", 1e308, r"config\.grid: must lie in \[2, 2049\]$"),
        ("seed", "s", r"config\.seed: not an integer"),
        ("data", {"left": [["a", 1, 0]]}, r"config\.data\.left\[0\]: not an integer"),
        ("data", {"left": [[1, "b", 0]]}, r"config\.data\.left\[0\]: coefficient"),
        ("data", {"bottom": "mode:x"}, r"config\.data\.bottom: not an integer"),
        ("source", "mode:-1", r"config\.source: mode -1 outside"),
        ("data", {"left": [[MAX_MODE + 1, 1, 0]]},
         rf"config\.data\.left\[0\]: mode {MAX_MODE + 1} outside"),
        ("data", [1], r"config\.data: expected an object"),
        ("data", "x", r"config\.data: expected an object"),
        ("data", {"left": [[1, 1, 0], [1, 2, 0]]}, r"config\.data\.left\[1\]: duplicate mode 1"),
        ("k", True, r"config\.k: not a number"),
        ("outputs", {"csv": 1}, r"config\.outputs\.csv: expected a path string"),
        ("outputs", {"report": 7}, r"config\.outputs\.report: expected a path string"),
        ("data", {"right": "constant:1,2,3"}, r"config\.data\.right: a constant datum"),
        ("data", {"top": "constant:nan"}, r"config\.data\.top: a constant datum"),
        ("data", {"left": [[1, float("nan"), 0]]},
         r"config\.data\.left: coefficient of mode 1 is not finite"),
        ("truncaton", 3, r"config\.truncaton: unknown key"),
        ("grdi", 5, r"config\.grdi: unknown key"),
        ("boundary", {**doc["boundary"], "lfet": "impedance"},
         r"config\.boundary\.lfet: unknown key"),
        ("outputs", {"csvv": "u.csv"}, r"config\.outputs\.csvv: unknown key"),
        ("k", [1], r"config\.k: not a number \(\[1\]\)"),
        ("boundary", "neumann", r"config\.boundary: expected an object"),
        ("truncation", -1, rf"config\.truncation: must lie in \[0, {MAX_MODE}\]"),
        ("truncation", MAX_MODE + 1, rf"config\.truncation: must lie in \[0, {MAX_MODE}\]"),
        ("data", {"middle": [[1, 1, 0]]}, r"config\.data\.middle: unknown side"),
        ("outputs", ["u.csv"], r"config\.outputs: expected an object"),
        ("data", {"left": "constant:abc"}, r"config\.data\.left: a constant datum"),
        ("data", {"left": 5}, r"config\.data\.left: expected a triple list or a named datum"),
        ("data", {"left": [[1, 1, 0], [2, 1, 0], [1, 1, 0], [2, 1, 0]]},
         r"config\.data\.left\[2\]: duplicate mode 1$"),
        ("source", "wave:2", r"config\.source: unknown named source 'wave:2'"),
        ("source", 3, r"config\.source: expected a named source string"),
    ]:
        with pytest.raises(ConfigError, match=path):
            parse_run_config({**doc, "data": {}, field: value})
    assert parse_run_config({**doc, "data": {}, "truncation": 24.0}).truncation == 24


def test_a_datum_of_every_mode_parses_in_linear_time():
    """A triple list of every mode 0..MAX_MODE parses in well under a
    second: the duplicate check looks each mode up once."""
    doc = {"k": 5.0, "boundary": {"bottom": "neumann", "right": "impedance", "top": "neumann"},
           "data": {"left": [[n, 1.0, 0.0] for n in range(MAX_MODE + 1)]}}
    start = time.perf_counter()
    run = parse_run_config(doc)
    assert time.perf_counter() - start < 1.0
    assert run.data[Side.LEFT].n.tolist() == list(range(MAX_MODE + 1))


@pytest.mark.parametrize("entry", ["solve", "lift"])
def test_deep_projections_build_the_basis_in_blocks(entry):
    """At truncation 2048 the projection basis of every mode on 16,384 nodes
    is 256 MiB, and its temporary as much again.  Built in blocks of modes,
    a solve of a constant datum and a lift of a bottom datum, each projected
    at that depth, stay below 128 MiB of traced memory."""
    data = {"left": "constant:1"} if entry == "solve" else {"bottom": [[1, 1.0, 0.0]]}
    doc = {"k": 5.0, "boundary": {"bottom": "neumann", "right": "impedance", "top": "neumann"},
           "data": data, "truncation": 2048}
    tracemalloc.start()
    try:
        run = parse_run_config(doc)
        if entry == "solve":
            u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
            assert len(u.modes) > 1000  # the projected constant
        else:
            assert lift(run.config, run.data, run.k, run.truncation)[0].tails
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


def test_named_data_forms(tmp_path):
    cfg = plane_wave_doc(tmp_path, data={"left": "constant:0,-10"})
    report = tmp_path / "c.json"
    assert run_cli(["solve", "--config", str(cfg), "--report", str(report)]) == 0
    doc = json.loads(report.read_text())
    # constant datum -2ik on the left reproduces the plane wave energy
    assert doc["energy"]["parseval"]["energy"] == pytest.approx(10.0, rel=1e-9)

    cfg2 = plane_wave_doc(tmp_path, data={"left": "mode:1"})
    assert run_cli(["solve", "--config", str(cfg2)]) == 0
    cfg3 = plane_wave_doc(tmp_path, data={"left": "wavelet:3"})
    assert run_cli(["solve", "--config", str(cfg3)]) == 1


def field_doc(tmp_path, data):
    doc = {
        "k": 60.0,
        "boundary": {"bottom": "dirichlet", "right": "dirichlet", "top": "neumann",
                     "left": "impedance"},
        "data": data,
        "grid": 9,
        "outputs": {},
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_one_factor_table_build_per_block(tmp_path, monkeypatch):
    """On the field problem (k = 60, data on the left, bottom and top)
    residual_traces tabulates each lifted block's profiles in one build, and
    evaluate_grid each block's profiles in one build, however many terms a
    block holds.  The right trace is 0, so the blocks are the two lifted
    data and the left residual solve."""
    cfg = field_doc(tmp_path, {"left": [[1, 0.3, -0.2], [4, 1.0, 0.5], [7, -0.4, 0.1]],
                               "bottom": [[2, 0.5, -1.0], [3, 0.1, 0.2], [8, 1.0, 0.0]],
                               "top": [[1, 1.0, 1.0], [5, -0.3, 0.7], [6, 0.2, 0.2]]})
    run = parse_run_config(json.loads(cfg.read_text()))
    builds = []
    build = ModeTable.value_and_derivative

    def counted(table, t):
        builds.append(len(table))
        return build(table, t)

    monkeypatch.setattr(ModeTable, "value_and_derivative", counted)
    lifted, _, _ = lift(run.config, run.data, run.k)
    assert builds == [len(block.n) for block in lifted.blocks] == [3, 3]
    u = solve_problem(run.config, run.data, run.k)
    assert u.warnings == lifted.warnings and len(u.warnings) == 1
    builds.clear()
    t = np.linspace(0.0, 1.0, 129)
    evaluate_grid(u, t, t)
    assert len(u.blocks) == 3 and len(u.modes) == 79
    assert builds == [len(block.n) for block in u.blocks]


@pytest.mark.parametrize("command", ["solve", "lift", "oracle"])
def test_reports_carry_projection_tails(tmp_path, capsys, command):
    """At k = 60 the lifted field's left trace leaves energy beyond the
    default depth; the report says how much, once per vertical side, and
    its one warning, which stderr prints and no Python warning repeats.
    The right trace is 0 in closed form (COS_HALF x factors on a Dirichlet
    side): tail 0 and no warning."""
    cfg = field_doc(tmp_path, {"left": [[1, 1.0, 0.0]], "bottom": [[2, 0.5, -1.0]],
                               "top": [[3, 1.0, 1.0]]})
    report = tmp_path / "report.json"
    args = [command, "--config", str(cfg), "--report", str(report)]
    if command == "oracle":
        args += ["--n", "33"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(args) == 0
    assert caught == []
    diagnostics = json.loads(report.read_text())["diagnostics"]
    tails = diagnostics["projection_tail"]
    assert [t["side"] for t in tails] == ["right", "left"]
    assert all(t["depth"] == 72 for t in tails)
    assert tails[0]["tail"] == 0.0 and tails[1]["tail"] > 1e-8
    assert diagnostics["warnings"] == [
        f"trace projection on the left side left {tails[1]['tail']:.2e} of its energy "
        "beyond mode 72"]
    assert capsys.readouterr().err == f"helmstab: warning: {diagnostics['warnings'][0]}\n"


@pytest.mark.parametrize("entry", ["lift", "solve_problem", "cli.run"])
def test_projection_warning_is_data_at_every_entry(tmp_path, capsys, entry):
    """Whichever entry the caller used, the projection tail above the limit
    comes back as the same one text, on the solution or in the report, and
    no Python warning is raised."""
    cfg = field_doc(tmp_path, {"left": [[1, 1.0, 0.0]], "bottom": [[2, 0.5, -1.0]],
                               "top": [[3, 1.0, 1.0]]})
    run = parse_run_config(json.loads(cfg.read_text()))
    report = tmp_path / "report.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if entry == "lift":
            said = lift(run.config, run.data, run.k)[0].warnings
        elif entry == "solve_problem":
            said = solve_problem(run.config, run.data, run.k).warnings
        else:
            assert run_cli(["solve", "--config", str(cfg), "--report", str(report)]) == 0
            said = json.loads(report.read_text())["diagnostics"]["warnings"]
    assert caught == []
    assert len(said) == 1
    assert said[0].startswith("trace projection on the left side left ")
    assert said[0].endswith(" of its energy beyond mode 72")
    printed = [f"helmstab: warning: {said[0]}\n"] if entry == "cli.run" else []
    assert capsys.readouterr().err == "".join(printed)


def test_reports_without_lifting_have_no_tails(tmp_path):
    """No horizontal datum, no projected trace; with no data and no source
    at all, solve reports the zero solution."""
    cfg = plane_wave_doc(tmp_path)
    for command in ("solve", "oracle"):
        report = tmp_path / f"{command}.json"
        assert run_cli([command, "--config", str(cfg), "--report", str(report)]) == 0
        diagnostics = json.loads(report.read_text())["diagnostics"]
        assert diagnostics == {"projection_tail": [], "warnings": []}
    report = tmp_path / "zero.json"
    assert run_cli(["solve", "--config", str(plane_wave_doc(tmp_path, data={})),
                    "--report", str(report)]) == 0
    out = json.loads(report.read_text())
    assert out["diagnostics"] == {"projection_tail": [], "warnings": []}
    assert out["terms"] == 0 and out["truncation"] == 24
    assert out["energy"]["quadrature"]["energy"] == out["energy"]["parseval"]["energy"] == 0.0


@pytest.mark.parametrize("args,named", [
    (["certify", "--theorem", "T1"], "config.k"),
    (["solve"], "config.k"),
    (["sweep", "--theorem", "T1", "--k-list", "1e155"], "--k-list"),
    (["sweep", "--theorem", "T1", "--k-max", "1e155", "--k-count", "2"], "--k-max"),
])
def test_wavenumber_with_an_overflowing_square_exits_1(tmp_path, capsys, args, named):
    """From k = 1e155 on, k^2 overflows and the solve turns NaN: certify
    used to report lhs NaN as a violation (exit 2), the sweep a max ratio of
    -1 and solve NaN energies (exit 0).  Each now exits 1 naming the field
    or flag, and writes no report."""
    report = tmp_path / "report.json"
    doc = json.loads(plane_wave_doc(tmp_path).read_text())
    flags = [] if args[0] == "sweep" else [
        "--config", str(write_doc(tmp_path, {**doc, "k": 1e155}))]
    assert run_cli([*args, *flags, "--report", str(report)]) == 1
    assert f"{named}: " in capsys.readouterr().err
    assert not report.exists()


def test_nonfinite_datum_is_an_input_error(tmp_path):
    """A NaN coefficient exits 1 with the mode named, not 2 (bound violated)."""
    path = tmp_path / "nan.json"
    path.write_text(plane_wave_doc(tmp_path).read_text().replace("-10.0", "NaN"),
                    encoding="utf-8")
    assert run_cli(["certify", "--theorem", "T1", "--config", str(path)]) == 1


@pytest.mark.parametrize("command", ["solve", "lift", "certify", "oracle"])
@pytest.mark.parametrize("field,mode,overrides", [
    ("config.data.left", 40, {"data": {"bottom": [[2, 1.0, 0.0]], "left": [[40, 1.0, 0.0]]}}),
    ("config.data.bottom", 40, {"data": {"bottom": [[40, 1.0, 0.0]]}}),
    ("config.source", 30, {"data": {"bottom": [[2, 1.0, 0.0]]}, "source": "mode:30"}),
])
def test_datum_mode_above_truncation_exits_1(tmp_path, capsys, command, field, mode, overrides):
    """A nonzero datum or source mode above truncation exits 1 naming the
    field in every subcommand, also in those that never solve that datum;
    a zero coefficient there is no mode to drop."""
    doc = {"k": 5.0, "boundary": {"bottom": "neumann", "right": "dirichlet", "top": "neumann"},
           "truncation": 10, **overrides}
    flags = ["--theorem", "T1"] if command == "certify" else []
    assert run_cli([command, *flags, "--config", str(write_doc(tmp_path, doc))]) == 1
    assert f"{field}: mode {mode} lies above truncation 10" in capsys.readouterr().err
    zero = {"bottom": [[2, 1.0, 0.0], [40, 0.0, 0.0]], "left": [[40, 0.0, 0.0]]}
    assert parse_run_config({**doc, "data": zero, "source": None}).truncation == 10


@pytest.mark.parametrize("command", ["solve", "lift", "certify", "oracle"])
@pytest.mark.parametrize("left", ["constant:1", [[1, 1.0, 0.0]]])
def test_default_depths_above_the_mode_cap_exit_1(tmp_path, capsys, command, left):
    """Above k ~ 25,700 the default projection depth 2 ceil(k/pi) + 32 (and
    above k ~ 51,400 the default truncation) passes MAX_MODE.  Without a
    config.truncation every subcommand exits 1 naming config.k, where a
    named datum failed naming no field and a listed one solved past the
    cap; with one the config parses."""
    doc = {"k": 1e5, "boundary": {"bottom": "neumann", "right": "dirichlet", "top": "neumann"},
           "data": {"left": left}}
    flags = ["--theorem", "T1"] if command == "certify" else []
    report = tmp_path / "report.json"
    assert run_cli([command, *flags, "--config", str(write_doc(tmp_path, doc)),
                    "--report", str(report)]) == 1
    assert (f"config.k: 100000 needs 63694 modes by default, above the cap {MAX_MODE}; "
            f"give a config.truncation <= {MAX_MODE}") in capsys.readouterr().err
    assert not report.exists()
    assert parse_run_config({**doc, "truncation": 64}).truncation == 64


@pytest.mark.parametrize("command", ["solve", "lift", "certify", "oracle"])
@pytest.mark.parametrize("field,overrides", [
    ("config.data.left[1]", {"data": {"left": [[1, 1.0, 0.0], [0, 0.5, 0.0]]}}),
    ("config.data.right", {"data": {"right": "mode:0"}}),
    ("config.source", {"source": "mode:0"}),
])
def test_datum_on_the_zero_member_exits_1(tmp_path, capsys, command, field, overrides):
    """With Dirichlet bottom and top the vertical family is sin-int, whose
    member 0 is the zero function: a datum or source there exits 1 naming
    the field in every subcommand, instead of solving nothing.  A zero
    coefficient there and a constant datum (whose projection on it is 0)
    still parse."""
    doc = {"k": 5.0, "boundary": {"bottom": "dirichlet", "right": "dirichlet",
                                  "top": "dirichlet"}, **overrides}
    doc["data"] = {"bottom": [[2, 1.0, 0.0]], **doc.get("data", {})}
    flags = ["--theorem", "T1"] if command == "certify" else []
    assert run_cli([command, *flags, "--config", str(write_doc(tmp_path, doc))]) == 1
    assert f"{field}: mode 0 of sin-int is the zero function" in capsys.readouterr().err
    run = parse_run_config({**doc, "data": {"left": [[0, 0.0, 0.0], [1, 1.0, 0.0]],
                                            "right": "constant:1"}, "source": "mode:1"})
    assert all(0 not in g.n[g.c != 0] for g in run.data.values())


def write_doc(tmp_path, doc):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_oracle_constant_datum_converges_at_second_order(tmp_path):
    """Both solvers get one projected datum, so halving h quarters the error."""
    cfg = write_doc(tmp_path, {
        "k": 6.5,
        "boundary": {"bottom": "dirichlet", "right": "impedance", "top": "dirichlet",
                     "left": "impedance"},
        "data": {"left": "constant:1,0"},
    })
    errors = []
    for n in (65, 129):
        report = tmp_path / f"oracle{n}.json"
        assert run_cli(["oracle", "--config", str(cfg), "--n", str(n),
                        "--report", str(report)]) == 0
        errors.append(json.loads(report.read_text())["rel_l2"])
    assert errors[0] / errors[1] >= 3.5


@pytest.mark.parametrize("command", ["solve", "lift"])
def test_truncation_bounds_every_mode(tmp_path, command):
    """An explicit truncation also caps the residual traces' projection, so
    no term and no residual mode lies beyond it."""
    doc = {
        "k": 20.0,
        "boundary": {"bottom": "dirichlet", "right": "dirichlet", "top": "neumann",
                     "left": "impedance"},
        "data": {"bottom": [[2, 1.0, 0.0], [5, 0.5, -0.5]], "left": [[1, 1.0, 0.0], [7, 0.0, 1.0]]},
        "truncation": 10,
        "grid": 9,
    }
    cfg = write_doc(tmp_path, doc)
    report = tmp_path / "report.json"
    assert run_cli([command, "--config", str(cfg), "--report", str(report)]) == 0
    run = parse_run_config(doc)
    _, residual_right, residual_left = lift(run.config, run.data, run.k, run.truncation)
    u = solve_problem(run.config, run.data, run.k, run.source, run.truncation)
    out = json.loads(report.read_text())
    assert [t["depth"] for t in out["diagnostics"]["projection_tail"]] == [10, 10]
    assert out["diagnostics"]["warnings"] == u.warnings
    assert u.warnings and all(text.endswith("beyond mode 10") for text in u.warnings)
    assert np.all(u.modes <= 10)
    assert all(n <= 10 for n, _ in residual_right)
    assert all(n <= 10 for n, _ in residual_left)
    if command == "lift":
        assert out["residual_left"] == [[n, c.real, c.imag] for n, c in residual_left]
    else:
        assert out["truncation"] == 10
        assert out["terms"] == len(u.modes)


def test_certify_uses_the_datum_spectrum_of_solve(tmp_path):
    """A projected datum is the same spectrum for certify as for solve, so the
    certified energy is the solve's Parseval energy."""
    doc = {
        "k": 6.5,
        "boundary": {"bottom": "dirichlet", "right": "impedance", "top": "dirichlet",
                     "left": "impedance"},
        "data": {"left": "constant:1,0"},
    }
    cfg = write_doc(tmp_path, doc)
    solved, certified = tmp_path / "solve.json", tmp_path / "cert.json"
    assert run_cli(["solve", "--config", str(cfg), "--report", str(solved)]) == 0
    assert run_cli(["certify", "--theorem", "T1", "--config", str(cfg),
                    "--report", str(certified)]) == 0
    cert = json.loads(certified.read_text())
    datum = parse_run_config(doc).data[Side.LEFT]
    assert len(datum) > 30  # the sine series of a constant: the depth matters
    assert cert["norms"]["l2"] == math.sqrt(math.fsum((np.abs(datum.c) ** 2).tolist()))
    assert cert["lhs"] == json.loads(solved.read_text())["energy"]["parseval"]["energy"]


def test_field_solve_keeps_every_residual_mode(tmp_path):
    """k = 60 with left, bottom and top data: 2 lifts plus the left
    residual solve of 73 modes; no projected mode is dropped.  The lifts'
    COS_HALF x factors vanish on the Dirichlet right side, so it has no
    residual solve."""
    cfg = field_doc(tmp_path, {"left": [[1, 1.0, 0.0]], "bottom": [[2, 0.5, -1.0]],
                               "top": [[3, 1.0, 1.0]]})
    report = tmp_path / "report.json"
    assert run_cli(["solve", "--config", str(cfg), "--report", str(report)]) == 0
    out = json.loads(report.read_text())
    assert out["terms"] == 75
    assert len(out["diagnostics"]["warnings"]) == 1


def _with_blas_threads(threads: int, args: list) -> subprocess.CompletedProcess:
    """Run `python <args>` with helmstab importable and BLAS given `threads`."""
    src = str(Path(helmstab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=True)


_CONTRACT_DIGEST = """
import hashlib
import numpy as np
from helmstab.eigenbasis import _contract
rng = np.random.default_rng(5)
a = rng.standard_normal((300, 257)) + 1j * rng.standard_normal((300, 257))
b = rng.standard_normal((300, 257))
print(hashlib.sha256(_contract(a, b).tobytes()).hexdigest())
"""


def test_outputs_identical_across_blas_thread_counts(tmp_path):
    """A k = 60 solve on a 257 grid writes the same CSV and report bytes with
    one BLAS thread as with two, and so does the contraction behind it on a
    random complex 300 x 257 operand and a real one, and so does an oracle
    report on a 129 grid."""
    doc = json.loads(field_doc(tmp_path, {"left": [[1, 1.0, 0.0]], "bottom": [[2, 0.5, -1.0]],
                                          "top": [[3, 1.0, 1.0]]}).read_text())
    cfg = tmp_path / "field257.json"
    cfg.write_text(json.dumps({**doc, "grid": 257}), encoding="utf-8")
    csv_path, report = tmp_path / "u.csv", tmp_path / "report.json"
    oracle_cfg = tmp_path / "oracle-config.json"
    oracle_cfg.write_text(json.dumps({
        "k": 6.5,
        "boundary": {"bottom": "neumann", "right": "impedance", "top": "neumann",
                     "left": "impedance"},
        "data": {"left": [[1, 0.5, -1.0], [3, 1.0, 0.2]], "bottom": [[2, -0.7, 0.4]]},
    }), encoding="utf-8")
    oracle_report = tmp_path / "oracle.json"
    outputs, digests, oracles = [], [], []
    for threads in (1, 2):
        _with_blas_threads(threads, ["-m", "helmstab", "solve", "--config", str(cfg),
                                     "--csv", str(csv_path), "--report", str(report)])
        outputs.append((csv_path.read_bytes(), report.read_bytes()))
        digests.append(_with_blas_threads(threads, ["-c", _CONTRACT_DIGEST]).stdout)
        _with_blas_threads(threads, ["-m", "helmstab", "oracle", "--config", str(oracle_cfg),
                                     "--n", "129", "--report", str(oracle_report)])
        oracles.append(oracle_report.read_bytes())
    assert oracles[0] == oracles[1]
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\r\n") == 1 + 257 * 257
    assert digests[0] == digests[1]


def test_oracle_runs_without_scipy(tmp_path):
    """The oracle needs numpy alone: it runs with scipy made unimportable."""
    cfg = write_doc(tmp_path, {
        "k": 6.5,
        "boundary": {"bottom": "dirichlet", "right": "dirichlet", "top": "neumann",
                     "left": "impedance"},
        "data": {"left": [[1, 1.0, 0.0]], "top": [[2, 0.5, -1.0]]},
        "source": "mode:1",
    })
    report = tmp_path / "oracle.json"
    script = ("import sys; sys.modules['scipy'] = None; from helmstab.cli import main; "
              f"raise SystemExit(main(['oracle', '--config', {str(cfg)!r}, '--n', '33', "
              f"'--report', {str(report)!r}]))")
    _with_blas_threads(1, ["-c", script])
    assert json.loads(report.read_text())["grid_n"] == 33
