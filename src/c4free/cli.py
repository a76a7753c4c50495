"""
Command-line front end.

Exit codes: 0 = all checks consistent, 2 = a violation or unexplained
equality certificate was produced, 1 = operational error (bad flags, cap
exceeded, I/O failure).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path
from typing import IO, Callable, Optional, Tuple

from . import graph6
from .enumeration import enumerate_c4free_by_edges, enumerate_c4free_by_order
from .search import hill_climb
from .spectral import snk_cubic, snk_mu, spectral_radius
from .verify import (
    VerificationRecord,
    VerifySummary,
    srg_table_check,
    verify_conjecture,
    verify_in3,
    verify_k2k1,
    verify_small_m,
    verify_theorem1,
    verify_theorem2,
)

CSV_COLUMNS = ["graph6", "n", "m", "mu", "bound", "slack", "classification"]


class _RecordWriter:
    def __init__(self, path: Optional[str], fmt: str) -> None:
        self.fmt = fmt
        self.fh: Optional[IO[str]] = None
        self.csv = None
        if path:
            self.fh = open(path, "w", newline="")
            if fmt == "csv":
                self.csv = csv.writer(self.fh)
                self.csv.writerow(CSV_COLUMNS)

    def __call__(self, rec: VerificationRecord) -> None:
        if self.fh is None:
            return
        if self.csv is not None:
            self.csv.writerow(
                [rec.graph_id, rec.n, rec.m, repr(rec.mu), repr(rec.bound), repr(rec.slack), rec.classification]
            )
        elif self.fmt == "graph6-lines":
            self.fh.write(rec.graph_id + "\n")
        else:
            self.fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")

    def close(self) -> None:
        if self.fh:
            self.fh.close()


def emit_certificate(path: str, payload: dict) -> None:
    """Self-contained JSON certificate for a violation or equality case."""
    try:
        Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    except OSError as exc:
        raise SystemExit(f"error: cannot write certificate to {path}: {exc}")


def _summary_json(summary: VerifySummary) -> dict:
    return {
        "check": summary.check,
        "param": summary.param,
        "count": summary.count,
        "max_mu": summary.max_mu,
        "max_mu_graph": summary.max_mu_graph,
        "min_slack": summary.min_slack if summary.count else None,
        "equalities": [dataclasses.asdict(r) for r in summary.equalities],
        "violations": [dataclasses.asdict(c) for c in summary.violations],
        "findings": summary.findings,
        "ok": summary.ok,
    }


def _equality_witness(rec: VerificationRecord) -> dict:
    g = graph6.decode(rec.graph_id).strip_isolated()
    wit: dict = {"classification": rec.classification}
    hubs = [u for u in range(g.n) if g.degree(u) == g.n - 1]
    if hubs:
        wit["hub"] = hubs[0]
        wit["matched_pairs"] = [
            [u, v] for u, v in g.edges() if hubs[0] not in (u, v)
        ]
    return wit


def _finish(args, summary: VerifySummary) -> int:
    recomputed = []
    for rec in summary.equalities:
        g = graph6.decode(rec.graph_id)
        mu2 = spectral_radius(g, args.tol / 10).mu
        recomputed.append(
            {
                "record": dataclasses.asdict(rec),
                "mu_tight": mu2,
                "witness": _equality_witness(rec),
            }
        )
    out = _summary_json(summary)
    out["equality_certificates"] = recomputed
    print(json.dumps(out, indent=2))
    if args.certificate:
        emit_certificate(
            args.certificate,
            {"summary": out},
        )
    return 0 if summary.ok else 2


def _verify(
    fold: Callable[[argparse.Namespace, _RecordWriter], VerifySummary]
) -> Callable[[argparse.Namespace], int]:
    """Runner of a verify command: the fold streams its records to the
    --output file; the summary is printed and certified by _finish."""

    def run(args) -> int:
        sink = _RecordWriter(args.output, args.format)
        try:
            summary = fold(args, sink)
        finally:
            sink.close()
        return _finish(args, summary)

    return run


def _srg_table(args) -> int:
    rows = srg_table_check()
    print(json.dumps(rows, indent=2))
    return 0 if all(r["ok"] for r in rows) else 2


def _snk(args) -> int:
    mu = snk_mu(args.n, args.k)
    coeffs, _ = snk_cubic(args.n, args.k)
    print(json.dumps({"n": args.n, "k": args.k, "mu": mu, "cubic": list(coeffs)}, indent=2))
    return 0


def _enumerate(args) -> int:
    if args.m is not None:
        stream = enumerate_c4free_by_edges(args.m, args.workers, args.force)
    else:
        stream = enumerate_c4free_by_order(args.n, args.workers, args.force)
    fh = open(args.output, "w") if args.output else sys.stdout
    try:
        for g in stream:
            fh.write(graph6.encode(g) + "\n")
    finally:
        if args.output:
            fh.close()
    return 0


def _search(args) -> int:
    state = hill_climb(args.m, args.restarts, args.seed, args.tol, args.workers)
    out = {
        "m": args.m,
        "mu": state.mu,
        "graph6": graph6.encode(state.current.strip_isolated()),
        "seed": state.seed,
        "moves": state.moves,
    }
    print(json.dumps(out, indent=2))
    if args.output:
        Path(args.output).write_text(json.dumps(state.moves, indent=2) + "\n")
    return 0


# flags shared by several commands; each command names the ones it reads
_SHARED = {
    "tol": dict(type=float, default=1e-12, help="eigensolver residual tolerance"),
    "workers": dict(type=int, default=1),
    "output": dict(help="per-graph record file"),
    "format": dict(choices=["json", "csv", "graph6-lines"], default="json"),
    "certificate": dict(help="write the summary certificate JSON here"),
    "force": dict(action="store_true", help="override desk-scale caps"),
}
_VERIFY = ("tol", "workers", "output", "format", "certificate", "force")

_M = ("--m", dict(type=int, required=True))
_N = ("--n", dict(type=int, required=True))
_K = ("--k", dict(type=int, required=True))


@dataclasses.dataclass(frozen=True)
class Command:
    help: str
    run: Callable[[argparse.Namespace], int]
    flags: Tuple[Tuple[str, dict], ...]  # the command's own flags
    shared: Tuple[str, ...]  # keys of _SHARED that the command reads
    one_of: bool = False  # exactly one of the own flags is given


# One entry per command: its help, its own flags, the shared flags it reads
# and the function that runs it. The runners call the verify functions by
# their module-level names, so a wrapper installed on those names later is
# the one that runs.
COMMANDS = {
    "verify-th1": Command(
        "max mu over C4-free graphs with m edges vs sqrt(m)",
        _verify(lambda a, sink: verify_theorem1(a.m, a.tol, a.workers, sink, a.force)),
        (_M,),
        _VERIFY,
    ),
    "verify-th2": Command(
        "equality classification at m edges (expect stars, plus S_{9,1} at m=9)",
        _verify(lambda a, sink: verify_theorem2(a.m, a.tol, a.workers, sink, a.force)),
        (_M,),
        _VERIFY,
    ),
    "verify-small-m": Command(
        "witnesses of mu > sqrt(m) for 4 <= m <= 8",
        _verify(lambda a, sink: verify_small_m(a.m, a.tol, a.workers, sink)),
        (_M,),
        ("tol", "workers", "output", "format", "certificate"),
    ),
    "verify-in3": Command(
        "mu^2 - mu <= n-1 over C4-free graphs of order n",
        _verify(lambda a, sink: verify_in3(a.n, a.tol, a.workers, sink, a.force)),
        (_N,),
        _VERIFY,
    ),
    "verify-conjecture": Command(
        "even-order cubic inequality over C4-free graphs",
        _verify(lambda a, sink: verify_conjecture(a.n, a.tol, a.workers, sink, a.force)),
        (_N,),
        _VERIFY,
    ),
    "verify-k2k1": Command(
        "mu^2 - mu <= k(n-1) over K_{2,k+1}-free graphs",
        _verify(lambda a, sink: verify_k2k1(a.n, a.k, a.tol, a.workers, sink, a.force)),
        (_N, _K),
        _VERIFY,
    ),
    "srg-table": Command("exact identity check for the strongly regular table", _srg_table, (), ()),
    "enumerate": Command(
        "stream C4-free graphs as graph6 lines",
        _enumerate,
        (
            ("--m", dict(type=int, help="by edge count, no isolated vertices")),
            ("--n", dict(type=int, help="by order, isolated vertices allowed")),
        ),
        ("workers", "output", "force"),
        one_of=True,
    ),
    "search": Command(
        "hill-climb mu over C4-free graphs with m edges",
        _search,
        (_M, ("--restarts", dict(type=int, default=5)), ("--seed", dict(type=int, default=0))),
        ("tol", "workers", "output"),
    ),
    "snk": Command("closed-form spectral radius of S_{n,k}", _snk, (_N, _K), ()),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="c4free", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        own = p.add_mutually_exclusive_group(required=True) if cmd.one_of else p
        for flag, kwargs in cmd.flags:
            own.add_argument(flag, **kwargs)
        for key in cmd.shared:
            p.add_argument(f"--{key}", **_SHARED[key])
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command].run(args)
    except (ValueError, OSError) as exc:  # CapExceeded is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
