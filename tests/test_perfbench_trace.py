"""
The benchmark's traced run wraps functions of c4free by name
(`perfbench/layers.py`) and fails when one of them is gone. Run it on short
commands so that a rename shows up here, not as a failed benchmark, and
check that its counts agree with what the command prints.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _traced(command, tmp_path):
    """Run one CLI command under the tracer; its stdout and stats payload."""
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), str(stats), "--trace", "--", *command],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(stats.read_text())
    assert payload["rc"] == 0, proc.stderr
    return proc.stdout, payload


@pytest.mark.parametrize(
    "command",
    [
        ["verify-in3", "--n", "5"],
        ["verify-small-m", "--m", "5"],
        ["search", "--m", "6", "--restarts", "1", "--seed", "1"],
    ],
)
def test_traced_command(command, tmp_path):
    _, payload = _traced(command, tmp_path)
    assert payload["layers"]


def test_traced_enumerate_counts(tmp_path):
    # each child is canonized once, plus the start graph: a child counted
    # twice by the tracer breaks the equality
    stdout, payload = _traced(["enumerate", "--m", "5"], tmp_path)
    layers = payload["layers"]
    assert layers["enumeration.classes"] == len(stdout.splitlines()) == 23
    assert layers["canon.calls"] == layers["enumeration.children"] + 1


def test_traced_k2k1_counts(tmp_path):
    stdout, payload = _traced(["verify-k2k1", "--n", "5", "--k", "2"], tmp_path)
    layers = payload["layers"]
    assert layers["enumeration.classes"] == json.loads(stdout)["count"] == layers["verify.records"]
