"""
The benchmark's traced run wraps functions of c4free by name
(`perfbench/layers.py`) and fails when one of them is gone. Run it on three
short commands so that a rename shows up here, not as a failed benchmark.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "command",
    [
        ["verify-in3", "--n", "5"],
        ["verify-small-m", "--m", "5"],
        ["search", "--m", "6", "--restarts", "1", "--seed", "1"],
    ],
)
def test_traced_command(command, tmp_path):
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
    assert payload["layers"]
