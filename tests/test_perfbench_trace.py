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

from c4free import search
from c4free.search import hill_climb

ROOT = Path(__file__).resolve().parent.parent


def _traced(command, tmp_path, rc=0):
    """Run one CLI command under the tracer; its stdout and stats payload.
    The command must exit with rc."""
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
    assert payload["rc"] == rc, proc.stderr
    return proc.stdout, payload


@pytest.mark.parametrize(
    "command",
    [
        ["verify-in3", "--n", "5"],
        ["verify-small-m", "--m", "5"],
        ["search", "--m", "6", "--restarts", "2", "--seed", "1"],
    ],
)
def test_traced_command(command, tmp_path, monkeypatch):
    _, payload = _traced(command, tmp_path)
    layers = payload["layers"]
    assert layers
    if command[0] == "search":
        # one canonization per proposal, for the automorphisms that label the
        # orbits of the candidates; it only skips solves, and the climb
        # still decides by mu alone
        assert layers["canon.calls"] == layers["search.propose_calls"]
        # one proposal per accepted move and one per restart, at a local
        # optimum; the candidates counted are those the same climb proposes
        assert layers["search.propose_calls"] == layers["search.accepted"] + 2
        propose, proposed = search.propose_moves, []

        def counting(g, x):
            cands = propose(g, x)
            proposed.append(len(cands))
            return cands

        monkeypatch.setattr(search, "propose_moves", counting)
        hill_climb(6, restarts=2, seed=1)
        assert layers["search.candidates"] == sum(proposed) > 0


def test_perfbench_selftest():
    # the benchmark's output checks pass real output and fail corrupted output
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_traced_enumerate_counts(tmp_path):
    # the parent-side prefilter leaves 23 of the 31 children; the
    # canonical-parent test canonizes 19 of them, and never a child minus
    # its canonical edge at this size; one more call for K_1. A child
    # counted twice by the tracer moves the children count
    stdout, payload = _traced(["enumerate", "--m", "5"], tmp_path)
    layers = payload["layers"]
    assert layers["enumeration.classes"] == len(stdout.splitlines()) == 23
    assert layers["enumeration.children"] == 23
    assert layers["canon.calls"] == 20


def test_traced_enumerate_prunes_by_orbit(tmp_path):
    # one child per orbit of the parent's automorphisms: without the
    # pruning, enumerate --m 9 makes 3,766 children; with it, 2,271, and
    # 1,090 once the parent-side prefilter drops the children that a
    # disjoint deletable edge beats. The canonical-parent test canonizes
    # 568 of them, about one per connected class (562 with 1 to 9 edges),
    # and 6 children minus their canonical edge; one more call for K_1
    stdout, payload = _traced(["enumerate", "--m", "9"], tmp_path)
    layers = payload["layers"]
    assert layers["enumeration.classes"] == len(stdout.splitlines()) == 863
    assert layers["enumeration.children"] == 1090
    assert layers["canon.calls"] == 575 <= 700


def test_traced_enumerate_by_order_counts(tmp_path):
    # by order, most classes are unions with K_1 components; they are
    # composed, so no union is canonized. The prefilter leaves 165 of the
    # 295 children
    stdout, payload = _traced(["enumerate", "--n", "7"], tmp_path)
    layers = payload["layers"]
    assert layers["enumeration.classes"] == len(stdout.splitlines()) == 117
    assert layers["enumeration.children"] == 165
    assert layers["canon.calls"] == 91


@pytest.mark.parametrize(
    "command",
    [["verify-k2k1", "--n", "5", "--k", "2"], ["verify-th1", "--m", "9"], ["verify-in3", "--n", "7"]],
    ids=" ".join,
)
def test_traced_fold_counts(command, tmp_path):
    # the fold reads its stream a block of graphs ahead; the tracer still
    # counts each class once, as a record of the fold
    stdout, payload = _traced(command, tmp_path)
    layers = payload["layers"]
    assert layers["enumeration.classes"] == json.loads(stdout)["count"] == layers["verify.records"]


def test_traced_th2_counts(tmp_path):
    # verify-th2 runs the Theorem 1 fold with the stated classes, so the
    # tracer counts its records; it exits 2 on the two extra classes at m = 9
    stdout, payload = _traced(["verify-th2", "--m", "9"], tmp_path, rc=2)
    assert payload["layers"]["verify.records"] == json.loads(stdout)["count"] == 863
