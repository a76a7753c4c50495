"""
tools/digests.py prints one sha256 line per output of each command it
runs; comparing its output on two checkouts is how a change shows that it
writes the same bytes.
"""

from __future__ import annotations

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

from c4free.cli import main

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "digests.py"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_digests_of_two_commands(tmp_path, capsys):
    commands = ["enumerate --m 5", "verify-in3 --n 5 --format csv"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(TOOL), *commands], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the same commands run here, their files written by hand
    expected = []
    for command, files in zip(commands, [["output"], ["output", "certificate"]]):
        paths = {key: tmp_path / f"{len(expected)}.{key}" for key in files}
        code = main(command.split() + [arg for key, path in paths.items() for arg in (f"--{key}", str(path))])
        expected.append(f"{_sha(capsys.readouterr().out.encode())}  {command}  stdout exit={code}")
        expected += [f"{_sha(path.read_bytes())}  {command}  --{key}" for key, path in paths.items()]
    assert done.stdout.splitlines() == expected


def test_digests_imports_only_the_standard_library_and_c4free():
    tree = ast.parse(TOOL.read_text())
    tops = {alias.name.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    tops |= {node.module.split(".")[0] for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}
    assert "c4free" in tops
    assert tops - {"c4free"} <= set(sys.stdlib_module_names)
