#!/usr/bin/env python3
"""
Digests of what c4free commands write, for comparing two checkouts byte for
byte. Run from the root of a checkout:

    PYTHONPATH=src python3 tools/digests.py > digests.txt
    PYTHONPATH=src python3 tools/digests.py "enumerate --m 5" "snk --n 9 --k 1"

Each command runs in this process through `c4free.cli.main`, with its
`--output` (and `--certificate`, where the command has one) in a temporary
directory. One line is printed per output: its sha256, the command, and
which output it is; the stdout line also carries the exit code. With no
arguments the fixed list COMMANDS runs (about 20 s).
Running the tool on two checkouts and diffing its output shows whether
they write the same bytes.

It imports nothing but the standard library and c4free.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path
from typing import List

from c4free.cli import COMMANDS as CLI_COMMANDS
from c4free.cli import main as cli_main

_ENUMERATED = (
    [f"enumerate --m {m}" for m in range(1, 12)]
    + [f"enumerate --n {n}" for n in range(1, 10)]
    + [f"verify-th1 --m {m} --format csv" for m in range(9, 13)]
    + ["verify-th2 --m 9 --format csv"]
    + [f"verify-small-m --m {m} --format csv" for m in range(4, 10)]
    + [f"verify-in3 --n {n} --format csv" for n in range(7, 10)]
    + [f"verify-conjecture --n {n} --format csv" for n in (8, 10)]
    + [f"verify-k2k1 --n {n} --k 2 --format csv" for n in (7, 8)]
)

# the enumeration-backed commands at one worker and at two, then search
COMMANDS: List[str] = (
    [f"{c} --workers {w}" for c in _ENUMERATED for w in (1, 2)]
    + ["search --m 14 --restarts 2 --seed 1", "snk --n 9 --k 1", "srg-table"]
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest(command: str) -> List[str]:
    """The digest lines of one command; a file the command did not write
    digests as empty."""
    argv = shlex.split(command)
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: Path(tmp, key) for key in ("output", "certificate") if key in CLI_COMMANDS[argv[0]].shared}
        for key, path in paths.items():
            argv += [f"--{key}", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(argv)
        lines = [f"{_sha(out.getvalue().encode())}  {command}  stdout exit={code}"]
        for key, path in paths.items():
            lines.append(f"{_sha(path.read_bytes() if path.exists() else b'')}  {command}  --{key}")
    return lines


def main(commands: List[str]) -> int:
    for command in commands or COMMANDS:
        for line in digest(command):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
