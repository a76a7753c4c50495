"""
Fold bound checks over enumeration streams and classify equality cases.

Every check is a spec (`_Check`: the stream, the quantity of mu that is
checked, its bound, the equality classifier and the expected equality
classes) run by one fold, `_fold`. Each graph in a stream yields a
VerificationRecord; a violation is only reported after the same eigensolve
runs again with its residual held to a 10x tighter tolerance (a recheck of
the residual, not a second method), and equality is only claimed when one
isomorphism test against S_{n,k} confirms the float coincidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, FrozenSet, Iterable, List, Optional

from . import graph6
from .canon import canonical_form
from .enumeration import (
    enumerate_c4free_by_edges,
    enumerate_c4free_by_order,
    enumerate_kfree_by_order,
)
from .graph import Graph, SnkParams, make_snk
from .spectral import DEFAULT_TOL, spectral_radius

EQ_TOL = 1e-9

STRICT = "strict"
EQ_STAR = "equality-star"
EQ_S91 = "equality-S91"
EQ_FRIENDSHIP = "equality-friendship"
EQ_SNK = "equality-snk"
VIOLATION = "VIOLATION"
WITNESS = "witness"
EQ_UNEXPLAINED = "equality-unexplained"


@dataclass(frozen=True)
class VerificationRecord:
    graph_id: str  # graph6
    n: int
    m: int
    mu: float
    bound: float
    slack: float  # bound minus checked quantity; negative means violation
    classification: str


@dataclass(frozen=True)
class ViolationCertificate:
    record: VerificationRecord
    eigenvector: List[float]
    recheck: bool  # confirmed at 10x tighter tolerance


@dataclass
class VerifySummary:
    check: str
    param: dict
    count: int = 0
    max_mu: float = float("-inf")
    max_mu_graph: Optional[str] = None
    min_slack: float = float("inf")
    equalities: List[VerificationRecord] = field(default_factory=list)
    violations: List[ViolationCertificate] = field(default_factory=list)
    findings: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.findings


RecordSink = Optional[Callable[[VerificationRecord], None]]


def snk_params(g: Graph) -> Optional[SnkParams]:
    """(n, k) if g without its isolated vertices is isomorphic to S_{n,k},
    else None. S_{n,k} has m = n - 1 + k edges, so k = m - n + 1 is the
    only candidate."""
    h = g.strip_isolated()
    k = h.m - h.n + 1
    if not 0 <= k <= (h.n - 1) // 2:
        return None
    if canonical_form(h) != canonical_form(make_snk(h.n, k)):
        return None
    return SnkParams(h.n, k)


def classify_equality(g: Graph) -> str:
    """Structural class of an equality candidate: the star S_{n,0}, the
    friendship graph S_{2k+1,k}, or another S_{n,k}. S_{9,1}, the graph the
    paper names at m = 9, keeps its own label among the S_{n,k}."""
    p = snk_params(g)
    if p is None:
        return EQ_UNEXPLAINED
    if p.k == 0:
        return EQ_STAR
    if p.n == 2 * p.k + 1:
        return EQ_FRIENDSHIP
    return EQ_S91 if (p.n, p.k) == (9, 1) else EQ_SNK


@dataclass(frozen=True)
class _Check:
    """One bound check: quantity(mu) <= bound over every graph of a stream."""

    check: str
    param: dict
    graphs: Iterable[Graph]
    quantity: Callable[[float], float]
    bound: float
    # structural class of a record at the bound, None for no class; without
    # a classifier a record at the bound is strict like any other
    classify: Optional[Callable[[Graph], Optional[str]]]
    # equality classes the statement names; any other becomes a finding
    expected: Optional[FrozenSet[str]] = None
    # label of a record above the bound: a violation is rechecked and fails
    # the check, a witness is what the check looks for
    above: str = VIOLATION


def _fold(spec: _Check, tol: float, sink: RecordSink) -> VerifySummary:
    """Compare spec.quantity(mu) <= spec.bound for every graph, classify,
    aggregate into one summary."""
    summary = VerifySummary(spec.check, spec.param)
    for g in spec.graphs:
        r = spectral_radius(g, tol)
        slack = spec.bound - spec.quantity(r.mu)
        if slack < -EQ_TOL and spec.above == VIOLATION:
            # never report a violation off a single float pass
            r = spectral_radius(g, tol / 10)
            slack = spec.bound - spec.quantity(r.mu)
        if slack < -EQ_TOL:
            cls = spec.above
        elif abs(slack) <= EQ_TOL and spec.classify is not None:
            cls = spec.classify(g) or EQ_UNEXPLAINED
        else:
            cls = STRICT
        rec = VerificationRecord(graph6.encode(g), g.n, g.m, r.mu, spec.bound, slack, cls)
        if cls == VIOLATION:
            summary.violations.append(ViolationCertificate(rec, [float(x) for x in r.vec], True))
        elif cls != STRICT:
            summary.equalities.append(rec)
            if cls == EQ_UNEXPLAINED:
                summary.findings.append(f"equality at {rec.graph_id} matches no expected structure")
        summary.count += 1
        if r.mu > summary.max_mu:
            summary.max_mu = r.mu
            summary.max_mu_graph = rec.graph_id
        summary.min_slack = min(summary.min_slack, slack)
        if sink:
            sink(rec)
    if spec.expected is not None:
        for rec in summary.equalities:
            if rec.classification not in spec.expected:
                summary.findings.append(f"unexpected equality class {rec.classification} at {rec.graph_id}")
    return summary


def _by_edges(check: str, m: int, workers: int, cap_override: bool = False, **spec) -> _Check:
    """mu <= sqrt(m) over the C4-free graphs with m edges."""
    graphs = enumerate_c4free_by_edges(m, workers, cap_override)
    return _Check(check, {"m": m}, graphs, lambda mu: mu, math.sqrt(m), **spec)


def verify_theorem1(
    m: int,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
    sink: RecordSink = None,
    cap_override: bool = False,
) -> VerifySummary:
    """C4-free with m >= 9 edges and no isolated vertices implies
    mu <= sqrt(m); reports the maximum and all equality classes."""
    if m < 9:
        raise ValueError("theorem applies for m >= 9; use verify_small_m below")
    return _fold(_by_edges("theorem1", m, workers, cap_override, classify=classify_equality), tol, sink)


def verify_theorem2(
    m: int,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
    sink: RecordSink = None,
    cap_override: bool = False,
) -> VerifySummary:
    """Theorem 1's check, with every equality class besides the ones the
    paper states (stars, and S_{9,1} at m = 9) reported as a finding."""
    if m < 9:
        raise ValueError("theorem applies for m >= 9; use verify_small_m below")
    expected = frozenset({EQ_STAR, EQ_S91} if m == 9 else {EQ_STAR})
    spec = _by_edges("theorem1", m, workers, cap_override, classify=classify_equality, expected=expected)
    return _fold(spec, tol, sink)


def verify_small_m(
    m: int, tol: float = DEFAULT_TOL, workers: int = 1, sink: RecordSink = None
) -> VerifySummary:
    """For 4 <= m <= 9: find every C4-free graph with m edges whose spectral
    radius strictly exceeds sqrt(m). Nonempty (contains S_{m,1}) for
    m <= 8, empty for m = 9. The witnesses are the summary's equalities;
    every other record is strict."""
    if not 4 <= m <= 9:
        raise ValueError("small-m check covers 4 <= m <= 9")
    return _fold(_by_edges("small-m", m, workers, classify=None, above=WITNESS), tol, sink)


def verify_in3(
    n: int,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
    sink: RecordSink = None,
    cap_override: bool = False,
) -> VerifySummary:
    """mu^2 - mu <= n-1 over all C4-free graphs of order n; equality only at
    the friendship graph (odd n)."""

    def friendship(g: Graph) -> Optional[str]:
        p = snk_params(g)
        return EQ_FRIENDSHIP if p is not None and p.n == n == 2 * p.k + 1 else None

    graphs = enumerate_c4free_by_order(n, workers, cap_override)
    return _fold(_Check("in3", {"n": n}, graphs, lambda mu: mu * mu - mu, float(n - 1), friendship), tol, sink)


def verify_conjecture(
    n: int,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
    sink: RecordSink = None,
    cap_override: bool = False,
) -> VerifySummary:
    """Even-order conjecture: mu^3 - mu^2 - (n-1)mu + 1 <= 0 over all
    C4-free graphs of order n, equality only at S_{n, n/2-1}. A violation is
    evidence against an open conjecture and comes back as a certificate, not
    an exception.

    Edgeless graphs are excluded: at mu = 0 the cubic is +1 regardless of
    the graph, so the statement is read as concerning graphs with at least
    one edge (where mu >= 1 and the cubic is negative up to its largest
    root)."""
    if n % 2:
        raise ValueError("the conjecture is about even order")

    def snk(g: Graph) -> Optional[str]:
        return EQ_SNK if snk_params(g) == SnkParams(n, n // 2 - 1) else None

    graphs = (g for g in enumerate_c4free_by_order(n, workers, cap_override) if g.m)
    spec = _Check("conjecture", {"n": n}, graphs, lambda mu: mu**3 - mu**2 - (n - 1) * mu + 1.0, 0.0, snk)
    return _fold(spec, tol, sink)


def verify_k2k1(
    n: int,
    k: int,
    tol: float = DEFAULT_TOL,
    workers: int = 1,
    sink: RecordSink = None,
    cap_override: bool = False,
) -> VerifySummary:
    """mu^2 - mu <= k(n-1) over all K_{2,k+1}-free graphs of order n.

    The coefficient is read as k, which is what the paper's strongly
    regular table satisfies; equality requires every vertex pair to have
    exactly k common neighbors.
    """

    def k_common(g: Graph) -> Optional[str]:
        h = g.strip_isolated()
        if h.n != n or h.n < 2:
            return None
        if all(
            h.common_neighbors(u, v) == k for u in range(h.n) for v in range(u + 1, h.n)
        ):
            return "equality-k-common"
        return None

    graphs = enumerate_kfree_by_order(n, k, workers, cap_override)
    spec = _Check("k2k1", {"n": n, "k": k}, graphs, lambda mu: mu * mu - mu, float(k) * (n - 1), k_common)
    return _fold(spec, tol, sink)


SRG_TABLE = [
    (2, 16, 6),
    (3, 45, 12),
    (4, 96, 20),
    (5, 175, 30),
    (6, 36, 15),
]


def srg_table_check() -> List[dict]:
    """Exact integer identity mu^2 - mu = k(n-1) for each tabulated strongly
    regular graph."""
    out = []
    for k, n, mu in SRG_TABLE:
        out.append(
            {
                "k": k,
                "n": n,
                "mu": mu,
                "lhs": mu * mu - mu,
                "rhs": k * (n - 1),
                "ok": mu * mu - mu == k * (n - 1),
            }
        )
    return out
