"""The README's Python blocks run as written against the package under
test, and each ``gch`` command of its shell blocks exits as its comment says."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
# each gch line of the sh blocks, continuation lines joined: (command, comment)
COMMANDS = [line.partition("#")[::2]
            for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.replace("\\\n", " ").splitlines() if line.startswith("gch ")]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, gch_subprocess_env):
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=gch_subprocess_env)
    assert r.returncode == 0, r.stderr


def test_readme_has_gch_commands():
    assert COMMANDS


@pytest.mark.parametrize("command,comment", COMMANDS,
                         ids=[f"command{i}-{c.split()[1]}" for i, (c, _) in enumerate(COMMANDS)])
def test_readme_command_exits_as_stated(command, comment, gch_subprocess_env, tmp_path):
    # "exit N" in the comment states the exit code; a command without one exits 0
    stated = re.search(r"\bexit (\d)", comment)
    argv = [sys.executable, "-m", "gch.cli", *shlex.split(command)[1:]]
    r = subprocess.run(argv, capture_output=True, text=True, env=gch_subprocess_env, cwd=tmp_path)
    assert r.returncode == (int(stated.group(1)) if stated else 0), (command, r.stderr)
