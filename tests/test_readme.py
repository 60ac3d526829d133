"""The README's Python blocks run as written against the package under test."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, gch_subprocess_env):
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=gch_subprocess_env)
    assert r.returncode == 0, r.stderr
