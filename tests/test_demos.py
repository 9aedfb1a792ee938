"""Every demo script, and the README's library quick start, runs to completion (exit 0)
from a scratch directory, and every CLI command the README shows parses."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hmmar.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MPLBACKEND="Agg")
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1, "README should hold one python quick-start block"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", blocks[0]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # both filters' last decisions and the true last state, each one of the example's 3 states
    words = proc.stdout.split()
    assert len(words) == 3 and set(words) <= {"1", "2", "3"}, proc.stdout


def test_readme_cli_commands_parse():
    # every `hmmar ...` command of the README's sh blocks, continuations joined, is one the
    # parser takes: a flag the CLI dropped would leave a command that exits 2
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("hmmar ")]
    assert commands, "README should show the CLI in an sh block"
    parser = _build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
