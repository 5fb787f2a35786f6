"""The README's Python quickstart runs against the current API and prints
what its comments say."""

import cmath
import re
from pathlib import Path

import pytest

from helmstab import THEOREMS, energy_parseval, evaluate
from helmstab.solver import ProjectionTruncationWarning

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "the README has no python block"
    namespace = {}
    with pytest.warns(ProjectionTruncationWarning):
        exec(compile(blocks[0], "README quickstart", "exec"), namespace)
    k, u = namespace["k"], namespace["u"]
    assert abs(namespace["values"][0] - cmath.exp(0.5j * k)) < 1e-10
    assert abs(energy_parseval(u).energy - 2 * k) < 1e-9 * k
    assert namespace["cert"].passed
    w = namespace["w"]
    assert abs(-evaluate(w, [(0.5, 0.0)])[2][0] - 1.0) < 1e-10
    assert [t.side.value for t in w.tails] == ["right", "left"]


def test_readme_lists_every_theorem_alias():
    text = README.read_text(encoding="utf-8")
    listing = re.search(r"The theorem tags accept short aliases: ((?:`[^`]+`,?\s*)+)", text)
    assert listing, "the README does not list the theorem aliases"
    listed = re.findall(r"`([^`]+)`", listing.group(1))
    assert listed == [row.alias for row in THEOREMS.values()]
