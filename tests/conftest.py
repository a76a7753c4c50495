from __future__ import annotations

import random

import pytest

from c4free import enumeration
from c4free.canon import canonical_form
from c4free.graph import Graph


def random_graph(rng: random.Random, n: int, p: float = 0.3) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, extra: int = 3) -> Graph:
    """Random spanning tree plus a few extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = [(order[i], order[rng.randrange(i)]) for i in range(1, n)]
    g = Graph.from_edges(n, edges)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not g.has_edge(u, v):
            g = g.add_edge(u, v)
    return g


def walk_from_k1(k: int, max_n: int, max_m: int):
    """Every node (canonical form, class, automorphisms proved on it) of the
    enumeration tree from K_1 within max_n vertices and max_m edges, depth
    first, as one worker walks it."""
    g0 = Graph.empty(1)
    return enumeration._walk([(canonical_form(g0), g0, ())], k, max_n, max_m)


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(20240824)


# one line per acceptance criterion, echoed after the run so the verdicts
# survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
