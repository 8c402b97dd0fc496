"""Every ```python block of README.md runs as written, so the library
examples stay in step with the API."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_the_library_examples():
    # the LQR solve and the custom problem
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_python_block_runs(index, capsys):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {"__name__": "readme"})
    # each example prints whether its solve converged first
    assert capsys.readouterr().out.startswith("True")
