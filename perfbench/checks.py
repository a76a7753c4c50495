"""
Output checks for the benchmark workloads, made apart from c4free.

Nothing here imports the package. Graphs are decoded with networkx's graph6
codec, C4-freeness is tested by counting common neighbours, spectral radii
come from numpy's eigvalsh, isomorphism from networkx's VF2 (bucketed by a
Weisfeiler-Lehman hash, which isomorphic graphs always share), and the exact
claim mu = 3 from the integer characteristic polynomial.

Every check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import math
import warnings
from typing import Dict, Iterable, List, Sequence

import networkx as nx
import numpy as np

EPS = 1e-9

# networkx 3.5+ warns on every hash of an unlabelled graph that the hash
# values changed from older releases; only equality of hashes is used here.
warnings.filterwarnings("ignore", message="The hashes produced", category=UserWarning)


# --- graphs ---------------------------------------------------------------


def from_graph6(s: str) -> nx.Graph:
    return nx.from_graph6_bytes(s.strip().encode())


def snk(n: int, k: int) -> nx.Graph:
    """Star on vertices 0..n-1 centred at 0, plus the leaf edges
    {1,2}, ..., {2k-1,2k}."""
    g = nx.star_graph(n - 1)
    g.add_edges_from((2 * i + 1, 2 * i + 2) for i in range(k))
    return g


def is_c4_free(g: nx.Graph) -> bool:
    """No two vertices have two common neighbours: every vertex pair is
    joined through at most one middle vertex."""
    seen = set()
    for w in g:
        nbrs = sorted(g[w])
        for i, u in enumerate(nbrs):
            for v in nbrs[i + 1 :]:
                if (u, v) in seen:
                    return False
                seen.add((u, v))
    return True


def top_eigenvalue(g: nx.Graph) -> float:
    if g.number_of_nodes() == 0:
        return 0.0
    a = nx.to_numpy_array(g, nodelist=sorted(g))
    return float(np.linalg.eigvalsh(a)[-1])


def wl_hash(g: nx.Graph) -> str:
    """Weisfeiler-Lehman hash: equal for isomorphic graphs."""
    return nx.weisfeiler_lehman_graph_hash(g, iterations=3)


def isomorphic_pairs(graphs: Sequence[nx.Graph]) -> List[tuple]:
    """Index pairs (i, j), i < j, of isomorphic graphs in the list."""
    buckets: Dict[str, List[int]] = {}
    for i, g in enumerate(graphs):
        buckets.setdefault(wl_hash(g), []).append(i)
    pairs = []
    for idx in buckets.values():
        for a, i in enumerate(idx):
            for j in idx[a + 1 :]:
                if nx.is_isomorphic(graphs[i], graphs[j]):
                    pairs.append((i, j))
    return pairs


def unmatched_by_isomorphism(
    left: Sequence[nx.Graph], right: Sequence[nx.Graph]
) -> List[int]:
    """Indices of `left` that find no unused isomorphic partner in `right`.
    Empty, together with equal lengths, means the two lists hold the same
    classes."""
    pool: Dict[str, List[int]] = {}
    for j, g in enumerate(right):
        pool.setdefault(wl_hash(g), []).append(j)
    missing = []
    for i, g in enumerate(left):
        cands = pool.get(wl_hash(g), [])
        hit = next((j for j in cands if nx.is_isomorphic(g, right[j])), None)
        if hit is None:
            missing.append(i)
        else:
            cands.remove(hit)
    return missing


# --- exact arithmetic -----------------------------------------------------


def charpoly(g: nx.Graph) -> List[int]:
    """Integer coefficients of det(xI - A), highest degree first, by
    Faddeev-LeVerrier in Python ints (every division is exact)."""
    nodes = sorted(g)
    n = len(nodes)
    pos = {v: i for i, v in enumerate(nodes)}
    a = [[0] * n for _ in range(n)]
    for u, v in g.edges():
        a[pos[u]][pos[v]] = a[pos[v]][pos[u]] = 1
    coeffs = [1]
    m = [[0] * n for _ in range(n)]  # M_0 = 0
    c = 1
    for k in range(1, n + 1):
        # M_k = A M_{k-1} + c_{k-1} I ; c_k = -tr(A M_k) / k
        m = [
            [sum(a[i][t] * m[t][j] for t in range(n)) + (c if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        tr = sum(a[i][t] * m[t][i] for i in range(n) for t in range(n))
        if tr % k:
            raise ArithmeticError("Faddeev-LeVerrier division not exact")
        c = -tr // k
        coeffs.append(c)
    return coeffs


def taylor_shift(coeffs: Sequence[int], r: int) -> List[int]:
    """Coefficients of p(x + r), highest degree first."""
    out = list(coeffs)
    n = len(out) - 1
    for i in range(n):
        for j in range(1, n - i + 1):
            out[j] += r * out[j - 1]
    return out


def spectral_radius_is_exactly(g: nx.Graph, r: int) -> bool:
    """True iff the largest adjacency eigenvalue is the integer r, decided
    in integers: r is a root of chi_A, and chi_A(x + r) has only
    nonnegative coefficients. The second condition rules out any root
    above r, because chi_A is real-rooted and monic."""
    shifted = taylor_shift(charpoly(g), r)
    return shifted[-1] == 0 and all(c >= 0 for c in shifted)


# --- command outputs ------------------------------------------------------


def read_rows(path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _summary_errors(summary: dict) -> List[str]:
    errs = []
    if summary.get("violations"):
        errs.append(f"{len(summary['violations'])} violation(s) reported")
    if summary.get("findings"):
        errs.append(f"findings reported: {summary['findings']}")
    if summary.get("ok") is not True:
        errs.append("summary is not ok")
    return errs


def _graphs(rows: Iterable[dict]) -> List[nx.Graph]:
    return [from_graph6(r["graph6"]) for r in rows]


def _row_errors(rows: List[dict], graphs: List[nx.Graph], m: int):
    """Per-row facts: the graph is C4-free with the stated order and m edges,
    the stated mu is the top eigenvalue to within EPS, and no two rows are
    isomorphic. Returns the errors and the recomputed top eigenvalues."""
    errs = []
    lams = []
    for r, g in zip(rows, graphs):
        gid = r["graph6"]
        if int(r["n"]) != g.number_of_nodes() or int(r["m"]) != g.number_of_edges():
            errs.append(f"{gid}: n/m columns do not match the graph")
        if g.number_of_edges() != m:
            errs.append(f"{gid}: {g.number_of_edges()} edges, expected {m}")
        if not is_c4_free(g):
            errs.append(f"{gid}: contains a 4-cycle")
        lam = top_eigenvalue(g)
        if abs(float(r["mu"]) - lam) > EPS:
            errs.append(f"{gid}: mu {r['mu']} but eigvalsh gives {lam!r}")
        lams.append(lam)
    for i, j in isomorphic_pairs(graphs):
        errs.append(f"rows {i} and {j} ({rows[i]['graph6']}, {rows[j]['graph6']}) are isomorphic")
    return errs, lams


def check_theorem1_m9(summary: dict, rows: List[dict], classes: int) -> List[str]:
    """verify-th1 --m 9: every class is there once, max mu is 3, and the
    equality classes are exactly S_{10-k,k} for k = 0..3, each with mu = 3
    in integers."""
    errs = _summary_errors(summary)
    if summary.get("count") != classes:
        errs.append(f"summary count {summary.get('count')}, reference {classes}")
    if len(rows) != classes:
        errs.append(f"{len(rows)} records, reference {classes}")
    graphs = _graphs(rows)
    row_errs, lams = _row_errors(rows, graphs, m=9)
    errs += row_errs
    for r, g, lam in zip(rows, graphs, lams):
        if any(d == 0 for _, d in g.degree()):
            errs.append(f"{r['graph6']}: isolated vertex")
        if lam > 3.0 + EPS:
            errs.append(f"{r['graph6']}: mu {lam!r} exceeds sqrt(9)")
    if not isinstance(summary.get("max_mu"), float) or abs(summary["max_mu"] - 3.0) > EPS:
        errs.append(f"max_mu {summary.get('max_mu')!r} is not 3")

    eq_ids = [e["graph_id"] for e in summary.get("equalities", [])]
    eq = [from_graph6(s) for s in eq_ids]
    for g in eq:
        g.remove_nodes_from([v for v, d in list(g.degree()) if d == 0])
    family = [snk(10 - k, k) for k in range(4)]
    if len(eq) != len(family) or unmatched_by_isomorphism(family, eq):
        errs.append(f"equality classes {eq_ids} are not S_(10-k,k) for k = 0..3")
    for s, g in zip(eq_ids, eq):
        if not spectral_radius_is_exactly(g, 3):
            errs.append(f"equality {s}: mu = 3 fails in integers")
    near = {r["graph6"] for r, lam in zip(rows, lams) if abs(lam - 3.0) <= EPS}
    if near != set(eq_ids):
        errs.append(f"rows at mu = 3 {sorted(near)} differ from the equalities {sorted(eq_ids)}")
    return errs


def check_search(result: dict, moves: List[dict], m: int) -> List[str]:
    """search --m m: the result is a C4-free graph with m edges whose mu
    (recomputed) is the reported mu, at most sqrt(m); the moves raise mu
    strictly and end at the reported mu."""
    errs = []
    g = from_graph6(result["graph6"])
    if g.number_of_edges() != m:
        errs.append(f"result has {g.number_of_edges()} edges, expected {m}")
    if not is_c4_free(g):
        errs.append("result contains a 4-cycle")
    mu = result["mu"]
    lam = top_eigenvalue(g)
    if abs(mu - lam) > EPS:
        errs.append(f"reported mu {mu!r}, eigvalsh gives {lam!r}")
    if mu > math.sqrt(m) + EPS:
        errs.append(f"mu {mu!r} exceeds sqrt({m})")
    if moves != result["moves"]:
        errs.append("--output moves differ from the printed moves")
    prev = None
    for i, mv in enumerate(moves):
        if not mv["mu_after"] > mv["mu_before"]:
            errs.append(f"move {i}: mu does not rise ({mv['mu_before']!r} -> {mv['mu_after']!r})")
        if prev is not None and mv["mu_before"] != prev:
            errs.append(f"move {i}: starts at {mv['mu_before']!r}, previous move ended at {prev!r}")
        prev = mv["mu_after"]
    if prev is not None and prev != mu:
        errs.append(f"moves end at {prev!r}, reported mu is {mu!r}")
    return errs
