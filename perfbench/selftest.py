#!/usr/bin/env python3
"""
Self-tests of the benchmark's output checks, run from the root of a checkout:

    python3 perfbench/selftest.py

Runs the command of each workload of run.py once (about 20 s), feeds
every check the unaltered outputs, which must pass, and then corrupted
copies, each of which must fail:

- a dropped record;
- a duplicated isomorphism class (a relabelled copy in place of another row);
- a mu off by 1e-6;
- a missing member of the m = 9 equality family;
- a move list whose mu falls.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from pathlib import Path

import networkx as nx

import checks
from run import OUT, REFERENCE, ROOT, WORKLOADS, program_env


def _cli(out: Path, name: str, argv: list) -> tuple:
    records = out / f"{name}.records"
    proc = subprocess.run(
        [sys.executable, "-m", "c4free.cli", *argv, "--output", str(records)],
        cwd=ROOT, env=program_env(), capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout), records


def _relabelled_graph6(s: str, rng: random.Random) -> str:
    """graph6 of the same graph under a random relabelling, a different
    string unless the graph has no other labelling."""
    g = checks.from_graph6(s)
    for _ in range(100):
        perm = list(g)
        rng.shuffle(perm)
        h = nx.Graph()
        h.add_nodes_from(range(len(perm)))  # graph6 follows insertion order
        h.add_edges_from((perm[u], perm[v]) for u, v in g.edges())
        out = nx.to_graph6_bytes(h, header=False).decode().strip()
        if out != s:
            break
    return out


def main() -> int:
    out = OUT / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    ref = json.loads(REFERENCE.read_text())
    n_th1 = ref["c4free_by_edges"]["9"]
    rng = random.Random(0)

    th1, th1_path = _cli(out, "th1", WORKLOADS["th1-m9"].argv)
    th1_rows = checks.read_rows(th1_path)
    search, moves_path = _cli(out, "search", WORKLOADS["search-m14"].argv)
    moves = json.loads(moves_path.read_text())

    below = [i for i, r in enumerate(th1_rows) if float(r["mu"]) < 2.9]  # not an equality row
    i, j = below[10], below[20]
    duplicated = list(th1_rows)
    duplicated[i] = dict(th1_rows[j], graph6=_relabelled_graph6(th1_rows[j]["graph6"], rng))
    mu_off = list(th1_rows)
    mu_off[i] = dict(th1_rows[i], mu=repr(float(th1_rows[i]["mu"]) + 1e-6))
    th1_short = copy.deepcopy(th1)
    th1_short["equalities"].pop()
    falling = [dict(mv, mu_before=mv["mu_after"], mu_after=mv["mu_before"]) for mv in reversed(moves)]

    cases = [
        # (name, errors, None if the output must pass, else a text one error must contain)
        ("th1-m9 unaltered", checks.check_theorem1_m9(th1, th1_rows, n_th1), None),
        ("search-m14 unaltered", checks.check_search(search, moves, 14), None),
        ("th1-m9 dropped record", checks.check_theorem1_m9(th1, th1_rows[1:], n_th1), "records, reference"),
        ("th1-m9 duplicated class", checks.check_theorem1_m9(th1, duplicated, n_th1), "are isomorphic"),
        ("th1-m9 mu off by 1e-6", checks.check_theorem1_m9(th1, mu_off, n_th1), "eigvalsh gives"),
        ("th1-m9 missing equality member", checks.check_theorem1_m9(th1_short, th1_rows, n_th1), "are not S_(10-k,k)"),
        ("search-m14 falling moves", checks.check_search(dict(search, moves=falling), falling, 14), "does not rise"),
    ]
    bad = 0
    for name, errs, expect in cases:
        ok = not errs if expect is None else any(expect in e for e in errs)
        bad += not ok
        first = f": {errs[0]}" if errs else ""
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {len(errs)} error(s){first}")
    if not moves:
        print("FAIL the search seed made no move, so the falling case tests nothing")
        bad += 1
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
