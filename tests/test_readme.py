"""Every ```python block of README.md runs as written, so the library
examples stay in step with the API, and the solver defaults that README
states are the CLI's."""

import pathlib
import re

import pytest

from chatterctl.cli import SolveConfig

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.S | re.M)


def test_readme_has_the_library_examples():
    # the LQR solve and the custom problem
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})
    # each example prints whether its solve converged first
    assert capsys.readouterr().out.startswith("True")


def test_solver_defaults_are_the_cli_defaults():
    # the sentence names each setting by its flag: `gamma 0.5`, `level-cap 4096`
    sentence = re.search(r"^Solver defaults: (.*?)\.\s", TEXT, re.S | re.M).group(1)
    stated = {name: float(value) for name, value in re.findall(r"`([a-z-]+) ([0-9.e-]+)`", sentence)}
    assert set(stated) == {"gamma", "eps", "max-iters", "levels", "level-cap"}
    defaults = SolveConfig()
    assert stated == {name: getattr(defaults, name.replace("-", "_")) for name in stated}
