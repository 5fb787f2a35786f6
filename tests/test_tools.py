"""tools/same_results.py: its commands cover every theorem, sharpness case
and lifting case of the package."""

import importlib.util
from pathlib import Path

from helmstab.bounds import SHARPNESS_IDS, THEOREMS
from helmstab.cli import parse_run_config
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
    assert len(files) == len(set(files)) == 86
    for doc in {**same_results.PIPELINE, **same_results.LIFTING}.values():
        parse_run_config(doc)  # every config parses


def test_same_results_runs_the_oracle_on_a_source(tmp_path):
    """Some oracle run reads a config with a source, so the oracle's listed
    source is compared between the trees."""
    configs = [Path(args[args.index("--config") + 1]).stem
               for args, _ in same_results.runs(tmp_path) if args[0] == "oracle"]
    assert any(same_results.PIPELINE[name].get("source") for name in configs)


def test_same_results_grouped_grid_is_the_grouped_sweep_grid():
    """The grouped sweeps run on the grid of the grouped sweep test, and at
    100 modes and 50 trials they certify it in more than one chunk."""
    from helmstab.bounds import _SWEEP_CHUNK
    from test_bounds import _GROUPED_GRID

    assert [float(k) for k in same_results.GROUPED_K.split(",")] == _GROUPED_GRID
    assert 1 <= _SWEEP_CHUNK // (50 * 100) < len(_GROUPED_GRID)


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
