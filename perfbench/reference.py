#!/usr/bin/env python3
"""
Recompute the benchmark's reference class counts without c4free.

    python3 perfbench/reference.py            # print the counts
    python3 perfbench/reference.py --write    # also rewrite reference.json

The enumeration is written afresh on networkx graphs: grow every class one
edge at a time, keep a child only if it is C4-free by the common-neighbour
test in checks.py, and keep one graph per isomorphism class by VF2 inside
Weisfeiler-Lehman hash buckets. It counts

- the C4-free graphs with 9 edges and no isolated vertices (the classes
  `verify-th1 --m 9` must verify), growing from a single edge by a new edge
  between present vertices, a pendant edge, or a disjoint edge;
- the C4-free graphs on 9 vertices, isolated vertices allowed (the rows
  `verify-in3 --n 9` must write), growing from the empty graph on 9
  vertices by one non-edge at a time and counting every edge count.

Each count takes about 13 s on one core.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

import networkx as nx

from checks import wl_hash, is_c4_free

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


class _Classes:
    """One graph per isomorphism class, in insertion order."""

    def __init__(self) -> None:
        self.buckets: Dict[str, List[nx.Graph]] = {}
        self.graphs: List[nx.Graph] = []

    def add(self, g: nx.Graph) -> None:
        bucket = self.buckets.setdefault(wl_hash(g), [])
        if not any(nx.is_isomorphic(g, h) for h in bucket):
            bucket.append(g)
            self.graphs.append(g)


def _with_edge(g: nx.Graph, u: int, v: int) -> nx.Graph:
    h = g.copy()
    h.add_edge(u, v)
    return h


def _inner_children(g: nx.Graph):
    n = g.number_of_nodes()
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v):
                h = _with_edge(g, u, v)
                if is_c4_free(h):
                    yield h


def count_by_edges(m: int) -> int:
    level = [nx.Graph([(0, 1)])]
    for _ in range(m - 1):
        nxt = _Classes()
        for g in level:
            n = g.number_of_nodes()
            for h in _inner_children(g):
                nxt.add(h)
            for u in range(n):
                nxt.add(_with_edge(g, u, n))
            nxt.add(_with_edge(g, n, n + 1))
        level = nxt.graphs
    return len(level)


def count_by_order(n: int) -> int:
    empty = nx.Graph()
    empty.add_nodes_from(range(n))
    level = [empty]
    total = 0
    while level:
        total += len(level)
        nxt = _Classes()
        for g in level:
            for h in _inner_children(g):
                nxt.add(h)
        level = nxt.graphs
    return total


def compute() -> dict:
    return {
        "c4free_by_edges": {"9": count_by_edges(9)},
        "c4free_by_order": {"9": count_by_order(9)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {REFERENCE.name}")
    args = ap.parse_args(argv)
    counts = compute()
    print(json.dumps(counts, indent=2))
    if args.write:
        REFERENCE.write_text(json.dumps(counts, indent=2) + "\n")
        return 0
    stored = json.loads(REFERENCE.read_text())
    if stored != counts:
        print(f"differs from {REFERENCE.name}: {stored}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
