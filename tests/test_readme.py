"""The README's Python quickstart runs against the current API and prints
what its comments say."""

import cmath
import re
import shlex
import subprocess
from pathlib import Path

from helmstab import THEOREMS, cli, energy_parseval, evaluate

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "the README has no python block"
    namespace = {}
    exec(compile(blocks[0], "README quickstart", "exec"), namespace)
    k, u = namespace["k"], namespace["u"]
    assert abs(namespace["values"][0] - cmath.exp(0.5j * k)) < 1e-10
    assert abs(energy_parseval(u).energy - 2 * k) < 1e-9 * k
    assert namespace["cert"].passed
    w = namespace["w"]
    assert abs(-evaluate(w, [(0.5, 0.0)])[2][0] - 1.0) < 1e-10
    assert [t.side.value for t in w.tails] == ["right", "left"]
    assert [text.split(" side left ")[0] for text in w.warnings] == [
        "trace projection on the right", "trace projection on the left"]


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    """Every line of the README's command-line block exits 0, in order, in
    one directory: `helmstab` lines through cli.run, the others in sh."""
    blocks = [block for block in re.findall(r"```sh\n(.*?)```",
                                            README.read_text(encoding="utf-8"), re.S)
              if block.startswith("helmstab ")]
    assert len(blocks) == 1, "the README has no one command-line block"
    monkeypatch.chdir(tmp_path)
    lines = [line for line in blocks[0].splitlines() if line.strip()]
    assert sum(line.startswith("helmstab ") for line in lines) == 8
    for line in lines:
        if line.startswith("helmstab "):
            assert cli.run(shlex.split(line, comments=True)[1:]) == 0, line
        else:
            subprocess.run(line, shell=True, cwd=tmp_path, check=True)


def test_readme_lists_every_theorem_alias():
    text = README.read_text(encoding="utf-8")
    listing = re.search(r"The theorem tags accept short aliases: ((?:`[^`]+`,?\s*)+)", text)
    assert listing, "the README does not list the theorem aliases"
    listed = re.findall(r"`([^`]+)`", listing.group(1))
    assert listed == [row.alias for row in THEOREMS.values()]
