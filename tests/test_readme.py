"""Every ```python block and every CLI example of README.md runs against
the sources in src/."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
# each `zforce ...` line of the CLI block, without its trailing comment
CLI_ARGV = [shlex.split(line, comments=True)
            for line in re.findall(r"^zforce .*$", README, re.MULTILINE)]


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_has_cli_examples():
    assert CLI_ARGV


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(code):
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=ENV,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", CLI_ARGV, ids=[" ".join(a[1:]) for a in CLI_ARGV])
def test_readme_cli_example_runs(argv, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "zforce.cli", *argv[1:]], cwd=tmp_path, env=ENV,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
