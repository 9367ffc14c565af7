"""Every ```python block of README.md runs as written.

Each block runs on its own, in a fresh namespace, so each one carries its
own imports; a signature change that leaves a block stale fails here."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    code = compile(BLOCKS[index], f"README.md python block {index}", "exec")
    exec(code, {"__name__": "readme"})
