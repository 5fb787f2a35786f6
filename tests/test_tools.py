"""tools/same_results.py: its commands cover every theorem, sharpness case
and lifting case of the package."""

import argparse
import importlib.util
import json
from pathlib import Path

from helmstab.bounds import SHARPNESS_IDS, THEOREMS
from helmstab.cli import _build_parser, _cmd, main, parse_run_config
from helmstab.modal1d import choose_lifting_family

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_results.py"
_SPEC = importlib.util.spec_from_file_location("same_results", _PATH)
same_results = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_results)


def test_same_results_covers_every_theorem_and_case():
    aliases = {row.alias for row in THEOREMS.values()}
    assert set(same_results.THEOREMS) == set(same_results.CERTIFY_CONFIG) == aliases
    assert same_results.CASES == SHARPNESS_IDS


def test_same_results_lifts_cover_the_four_lifting_cases():
    cases = set()
    for doc in same_results.LIFTING.values():
        run = parse_run_config(doc)
        cases.add(choose_lifting_family(run.k, run.config.bottom, run.config.top).case_index)
    assert cases == {1, 2, 3, 4}


def test_same_results_output_names_are_unique(tmp_path):
    files = [f for _, outputs in same_results.runs(tmp_path) for f in outputs]
    assert len(files) == len(set(files)) == 105
    for doc in {**same_results.PIPELINE, **same_results.LIFTING}.values():
        parse_run_config(doc)  # every config parses


def test_same_results_runs_the_oracle_on_a_source(tmp_path):
    """Some oracle run reads a config with a source, so the oracle's listed
    source is compared between the trees."""
    configs = [Path(args[args.index("--config") + 1]).stem
               for args, _ in same_results.runs(tmp_path) if args[0] == "oracle"]
    assert any(same_results.PIPELINE[name].get("source") for name in configs)


def test_same_results_solves_without_a_lift_and_a_source_alone(tmp_path):
    """Some compared solve and oracle runs lift nothing, so they take lift's
    return without a lift, and some solve a source alone (refusals aside)."""
    for command in ("solve", "oracle"):
        docs = [same_results.PIPELINE[Path(args[args.index("--config") + 1]).stem]
                for args, files in same_results.runs(tmp_path)
                if args[0] == command and not files[0].startswith("refusal-")]
        assert any(set(doc.get("data", {})) == {"left", "right"} for doc in docs)
        assert any(doc.get("source") and not doc.get("data") for doc in docs)


def test_same_results_grouped_grid_is_the_grouped_sweep_grid():
    """The grouped sweeps run on the grid of the grouped sweep test, and at
    100 modes and 50 trials they certify it in more than one chunk."""
    from helmstab.bounds import _SWEEP_CHUNK
    from test_bounds import _GROUPED_GRID

    assert [float(k) for k in same_results.GROUPED_K.split(",")] == _GROUPED_GRID
    assert 1 <= _SWEEP_CHUNK // (50 * 100) < len(_GROUPED_GRID)


def test_same_results_sliced_sweeps_split_a_k():
    """Each k of a SLICED sweep draws more than _SWEEP_CHUNK coefficients,
    so it certifies in more than one slice of trials."""
    from helmstab.bounds import _SWEEP_CHUNK

    for _, flags in same_results.SLICED:
        modes, trials = (int(flags[flags.index(flag) + 1]) for flag in ("--modes", "--trials"))
        assert 1 <= _SWEEP_CHUNK // modes < trials


def test_same_results_runs_default_size_sweeps(tmp_path):
    """T1 and T3_DIR are also swept at the CLI's default size, 64 k by 50
    trials of 64 modes: no grid, trials or modes flag, at seed 3."""
    sweeps = [args for args, _ in same_results.runs(tmp_path)
              if args[0] == "sweep" and args[3:5] == ["--seed", "3"]]
    assert [args[2] for args in sweeps] == ["T1", "T3_DIR"]
    assert all(len(args) == 7 for args in sweeps)


def test_same_results_compares_warnings_and_errors_without_their_location():
    stderr = (
        "/a/src/helmstab/solver.py:745: ProjectionTruncationWarning: trace projection on "
        "the left side left 5.63e-03 of its energy beyond mode 72\n"
        "  right, left = residual_traces(lifted, right, left, depth=truncation, tails=tails)\n"
        "helmstab: warning: trace projection on the left side left 5.63e-03 of its energy "
        "beyond mode 72\n"
        "helmstab: config error: config.data.left: mode 40 lies above truncation 10\n"
        "Traceback (most recent call last):\n"
        "usage: helmstab [-h]\n"
    )
    moved = (
        "/b/src/helmstab/__main__.py:4: ProjectionTruncationWarning: trace projection on "
        "the left side left 5.63e-03 of its energy beyond mode 72\n"
        "  raise SystemExit(main())\n"
        "helmstab: warning: trace projection on the left side left 5.63e-03 of its energy "
        "beyond mode 72\n"
        "helmstab: config error: config.data.left: mode 40 lies above truncation 10\n"
    )
    said = same_results.messages(stderr)
    assert said == [
        "ProjectionTruncationWarning: trace projection on the left side left 5.63e-03 of "
        "its energy beyond mode 72",
        "helmstab: warning: trace projection on the left side left 5.63e-03 of its energy "
        "beyond mode 72",
        "helmstab: config error: config.data.left: mode 40 lies above truncation 10",
    ]
    assert same_results.messages(moved) == said
    assert same_results.messages(moved.replace("5.63e-03", "5.64e-03")) != said
    assert same_results.messages("") == []


def test_same_results_compares_a_refusal_of_every_subcommand(tmp_path, monkeypatch, capsys):
    """Every subcommand but selftest runs through cli._cmd, and each has a
    compared run that exits 1 with one `helmstab: ...error:` line and writes
    no report: lift's on the configs without a bottom or top datum, the
    others' in REFUSALS."""
    for name, doc in {**same_results.PIPELINE, **same_results.LIFTING}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    refused = set()
    for args, files in same_results.runs(tmp_path):
        if args[0] == "lift":
            data = json.loads(Path(args[args.index("--config") + 1]).read_text()).get("data", {})
            if {"bottom", "top"} & set(data):
                continue
        elif not files or not files[0].startswith("refusal-"):
            continue
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("helmstab: ") and " error: " in err[0]
        assert not Path(files[0]).exists()
        refused.add(args[0])
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    runner = {name for name, parser in sub.choices.items() if parser.get_default("func") is _cmd}
    assert refused == runner == set(sub.choices) - {"selftest"}
