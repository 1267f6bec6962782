"""Every fenced ``python`` block of README.md runs as documented."""

import re
from pathlib import Path

import pytest

from conftest import run_python

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(
    encoding="utf-8"), re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_python_block_runs(block):
    proc = run_python("-c", block)
    assert proc.returncode == 0, proc.stderr
