"""
Command-line front end.

Exit codes: 0 = all checks consistent, 2 = a violation or unexplained
equality certificate was produced, 1 = operational error (bad flags, cap
exceeded, I/O failure, an eigensolve above its residual tolerance).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from typing import IO, Callable, Optional, Tuple

from . import graph6
from .enumeration import enumerate_c4free_by_edges, enumerate_c4free_by_order
from .search import hill_climb
from .spectral import ConvergenceError, snk_cubic, snk_mu
from .verify import (
    EQ_S91,
    EQ_STAR,
    VerificationRecord,
    VerifySummary,
    srg_table_check,
    verify_conjecture,
    verify_in3,
    verify_k2k1,
    verify_small_m,
    verify_theorem1,
)

CSV_COLUMNS = ["graph6", "n", "m", "mu", "bound", "slack", "classification"]


class _RecordWriter:
    """Writes each record to the open file fh, if any."""

    def __init__(self, fh: Optional[IO[str]], fmt: str) -> None:
        self.fh = fh
        self.fmt = fmt
        self.csv = csv.writer(fh) if fh and fmt == "csv" else None
        if self.csv is not None:
            self.csv.writerow(CSV_COLUMNS)

    def __call__(self, rec: VerificationRecord) -> None:
        if self.csv is not None:
            self.csv.writerow(
                [rec.graph_id, rec.n, rec.m, repr(rec.mu), repr(rec.bound), repr(rec.slack), rec.classification]
            )
        elif not self.fh:
            return
        elif self.fmt == "graph6-lines":
            self.fh.write(rec.graph_id + "\n")
        else:
            self.fh.write(json.dumps(dataclasses.asdict(rec)) + "\n")


def _summary_json(summary: VerifySummary) -> dict:
    out = dataclasses.asdict(summary)
    if not summary.count:
        out["min_slack"] = None
    out["ok"] = summary.ok
    return out


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
    out = _summary_json(summary)
    out["equality_certificates"] = [
        {"record": dataclasses.asdict(rec), "witness": _equality_witness(rec)} for rec in summary.equalities
    ]
    print(json.dumps(out, indent=2))
    if args.certificate:
        args.certificate.write(json.dumps({"summary": out}, indent=2) + "\n")
    return 0 if summary.ok else 2


def _verify(fold: Callable[[argparse.Namespace, _RecordWriter], VerifySummary]) -> Callable[[argparse.Namespace], int]:
    """Runner of a verify command: the fold streams its records to the
    --output file; the summary is printed and certified by _finish."""

    def run(args) -> int:
        return _finish(args, fold(args, _RecordWriter(args.output, args.format)))

    return run


def _srg_table(args) -> int:
    rows = srg_table_check()
    print(json.dumps(rows, indent=2))
    return 0 if all(r["ok"] for r in rows) else 2


def _snk(args) -> int:
    mu = snk_mu(args.n, args.k)
    coeffs, _ = snk_cubic(args.n, args.k)
    cubic = list(coeffs) if args.n > 1 else None  # K_1 has no cubic factor (see snk_mu)
    print(json.dumps({"n": args.n, "k": args.k, "mu": mu, "cubic": cubic}, indent=2))
    return 0


def _enumerate(args) -> int:
    if args.m is not None:
        stream = enumerate_c4free_by_edges(args.m, args.workers, args.force)
    else:
        stream = enumerate_c4free_by_order(args.n, args.workers, args.force)
    fh = args.output or sys.stdout
    for g in stream:
        fh.write(graph6.encode(g) + "\n")
    return 0


def _search(args) -> int:
    state = hill_climb(args.m, args.restarts, args.seed, args.workers)
    out = {
        "m": args.m,
        "mu": state.mu,
        "graph6": graph6.encode(state.current.strip_isolated()),
        "seed": state.seed,
        "moves": state.moves,
    }
    print(json.dumps(out, indent=2))
    if args.output:
        args.output.write(json.dumps(state.moves, indent=2) + "\n")
    return 0


# flags shared by several commands; each command names the ones it reads
_SHARED = {
    "workers": dict(
        type=int,
        default=1,
        help="worker processes for the subtrees of an enumeration walk, one pool per stream, or for the restarts of search (default 1)",
    ),
    "output": dict(help="write one record per graph here, in --format"),
    "format": dict(
        choices=["json", "csv", "graph6-lines"],
        default="json",
        help="format of the --output records: JSON objects, CSV rows or graph6 lines (default json)",
    ),
    "certificate": dict(help="write the summary certificate JSON here"),
    "force": dict(action="store_true", help="override desk-scale caps"),
}
_VERIFY = ("workers", "output", "format", "certificate", "force")

_M = ("--m", dict(type=int, required=True, help="number of edges"))
_N = ("--n", dict(type=int, required=True, help="number of vertices"))


@dataclasses.dataclass(frozen=True)
class Command:
    help: str
    run: Callable[[argparse.Namespace], int]
    flags: Tuple[Tuple[str, dict], ...]  # the command's own flags
    shared: Tuple[str, ...]  # keys of _SHARED that the command reads
    one_of: bool = False  # exactly one of the own flags is given
    output_help: Optional[str] = None  # what --output holds, when not the shared records


# One entry per command: its help, its own flags, the shared flags it reads
# and the function that runs it. The runners call the verify functions by
# their module-level names, so a wrapper installed on those names later is
# the one that runs.
COMMANDS = {
    "verify-th1": Command(
        "max mu over C4-free graphs with m edges vs sqrt(m)",
        _verify(lambda a, sink: verify_theorem1(a.m, a.workers, sink, a.force)),
        (_M,),
        _VERIFY,
    ),
    "verify-th2": Command(
        "equality classification at m edges (expect stars, plus S_{9,1} at m=9)",
        _verify(
            lambda a, sink: verify_theorem1(
                a.m, a.workers, sink, a.force, frozenset({EQ_STAR, EQ_S91} if a.m == 9 else {EQ_STAR})
            )
        ),
        (_M,),
        _VERIFY,
    ),
    "verify-small-m": Command(
        "witnesses of mu > sqrt(m) for 4 <= m <= 9 (none at m = 9)",
        _verify(lambda a, sink: verify_small_m(a.m, a.workers, sink)),
        (_M,),
        ("workers", "output", "format", "certificate"),
    ),
    "verify-in3": Command(
        "mu^2 - mu <= n-1 over C4-free graphs of order n",
        _verify(lambda a, sink: verify_in3(a.n, a.workers, sink, a.force)),
        (_N,),
        _VERIFY,
    ),
    "verify-conjecture": Command(
        "even-order cubic inequality over C4-free graphs",
        _verify(lambda a, sink: verify_conjecture(a.n, a.workers, sink, a.force)),
        (_N,),
        _VERIFY,
    ),
    "verify-k2k1": Command(
        "mu^2 - mu <= k(n-1) over K_{2,k+1}-free graphs",
        _verify(lambda a, sink: verify_k2k1(a.n, a.k, a.workers, sink, a.force)),
        (_N, ("--k", dict(type=int, required=True, help="forbid K_{2,k+1}"))),
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
        output_help="write the graph6 lines here instead of stdout",
    ),
    "search": Command(
        "hill-climb mu over C4-free graphs with m edges",
        _search,
        (
            _M,
            (
                "--restarts",
                dict(
                    type=int,
                    default=5,
                    help="independent climbs, each from a random start graph; the best is reported (default %(default)s)",
                ),
            ),
            (
                "--seed",
                dict(type=int, default=0, help="master seed: restart i draws from seed * 1000003 + i (default %(default)s)"),
            ),
        ),
        ("workers", "output"),
        output_help="write the accepted moves of the reported climb here, as a JSON list",
    ),
    "snk": Command(
        "closed-form spectral radius of S_{n,k}",
        _snk,
        (_N, ("--k", dict(type=int, required=True, help="disjoint edges among the leaves of the star"))),
        (),
    ),
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
            kwargs = _SHARED[key]
            if key == "output" and cmd.output_help:
                kwargs = dict(kwargs, help=cmd.output_help)
            p.add_argument(f"--{key}", **kwargs)
    return ap


def _open_outputs(args, parts: list) -> None:
    """Replaces each --output and --certificate path of args by an open file
    `<target>.<pid>.part` and appends (file, target) to parts. Refuses, before
    any work, two flags naming one target, what open(path, "w") refuses and
    an existing target that is not a regular file (a device, a pipe), naming
    the path as given. Writes through a symlink."""
    flags = {}  # target -> flag
    for key in ("output", "certificate"):
        path = getattr(args, key, None)
        if path:
            real = os.path.realpath(path)
            if real in flags:
                raise ValueError(f"--{flags[real]} and --{key} name the same file: {path}")
            flags[real] = key
    for real, key in flags.items():
        path = getattr(args, key)
        if os.path.exists(real) and not os.path.isfile(real):
            raise OSError(f"not a regular file: {path}")
        try:
            if os.path.isfile(real):
                open(real, "a").close()  # the write access open(path, "w") needs
            fh = open(f"{real}.{os.getpid()}.part", "x", newline="")
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
        parts.append((fh, real))
        if os.path.isfile(real):  # keep its mode, as open(path, "w") does
            os.chmod(fh.fileno(), os.stat(real).st_mode & 0o7777)
        setattr(args, key, fh)


def main(argv: Optional[list[str]] = None) -> int:
    """Runs one command. Each output file (_open_outputs) replaces its target
    when the command returns, and is deleted when it raises."""
    args = build_parser().parse_args(argv)
    parts: list = []  # (open .part file, target)
    try:
        _open_outputs(args, parts)
        code = COMMANDS[args.command].run(args)
        for fh, real in parts:
            fh.close()
            os.replace(fh.name, real)
        return code
    except (ValueError, OSError, ConvergenceError) as exc:  # CapExceeded is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for fh, _ in parts:  # what is left of a command that raised
            fh.close()
            if os.path.exists(fh.name):
                os.unlink(fh.name)


if __name__ == "__main__":
    raise SystemExit(main())
