#!/usr/bin/env python3
"""
Benchmark of the c4free command line, run from the root of a checkout:

    python3 perfbench/run.py --workload th1-m9 --seed 1 --seconds 55 --trace 0

Each command runs in a fresh interpreter (perfbench/child.py), one at a
time from this one process: a closed loop with one client. A run

1. starts SETUP_PROBES interpreters that only import c4free.cli, to time
   set-up;
2. with --trace 0, runs the workload's command again and again until
   another command would overrun --seconds, but at least once, then checks
   every output apart from the program (perfbench/checks.py) and prints the
   end-to-end metrics, medians over the commands;
3. with --trace 1, runs the command once untraced and once with the layer
   wrappers of perfbench/layers.py, checks both outputs, and prints the
   per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted (commands
timed or traced), failed (commands that exited non-zero) and metrics. The run exits 1
without that line if the program cannot be started at all, for instance
when `src/c4free` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 5
COMMAND_TIMEOUT_S = 100  # keeps a run under 3 minutes even if a command hangs late in it


@dataclass(frozen=True)
class Workload:
    argv: List[str]  # the CLI command, without --workers and --output
    kind: str  # "th1" or "search": which check and which work unit


# Every command of a run is the same command, so a run's medians do not
# depend on how many commands fitted. search-m14 climbs from one fixed
# seed: a climb's time depends on its random start by about 20% per
# command, which seeds drawn anew for every run would add to the spread
# between runs (README, "Workloads").
RESTARTS = 2  # per search command: the work unit of search-m14
SEARCH_SEED = 1

WORKLOADS: Dict[str, Workload] = {
    "th1-m9": Workload(["verify-th1", "--m", "9", "--format", "csv"], "th1"),
    "search-m14": Workload(["search", "--m", "14", "--restarts", str(RESTARTS), "--seed", str(SEARCH_SEED)], "search"),
}


class Fatal(RuntimeError):
    """The program could not be started or left no statistics."""


@dataclass
class Command:
    argv: List[str]
    stdout: Path
    output: Path
    setup_s: float
    stats: dict

    @property
    def rc(self) -> int:
        return self.stats["rc"]

    @property
    def wall_s(self) -> float:
        return self.stats["end"] - self.stats["start"]


def program_env() -> Dict[str, str]:
    """The environment with the checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def _spawn(stats: Path, child_args: List[str], stdout: Path) -> tuple:
    """Start child.py in its own session and wait for it. Returns the
    set-up seconds (spawn to c4free.cli ready) and the child's statistics."""
    stats.unlink(missing_ok=True)
    with open(stdout, "w") as out:
        t0 = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(stats), *child_args],
            stdout=out,
            cwd=ROOT,
            env=program_env(),
            start_new_session=True,
        )
        try:
            rc = proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise Fatal(f"{child_args} ran over {COMMAND_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if rc != 0 or not stats.exists():
        raise Fatal(f"child.py {child_args} exited {rc}; see stderr")
    data = json.loads(stats.read_text())
    return data["ready"] - t0, data


class Runner:
    def __init__(self, name: str, out: Path) -> None:
        self.wl = WORKLOADS[name]
        self.out = out
        self.count = 0

    def probe_setup(self) -> float:
        setup_s, _ = _spawn(self.out / "probe.json", ["--setup-only"], self.out / "probe.out")
        return setup_s

    def command(self, trace: bool = False) -> Command:
        """Run the workload's command once in a fresh interpreter."""
        self.count += 1
        tag = f"{self.count:03d}"
        output = self.out / f"{tag}.records"
        argv = self.wl.argv + ["--workers", "1", "--output", str(output)]
        stdout = self.out / f"{tag}.stdout"
        flags = ["--trace"] if trace else []
        setup_s, stats = _spawn(self.out / f"{tag}.json", flags + ["--", *argv], stdout)
        return Command(argv, stdout, output, setup_s, stats)


# --- checks ---------------------------------------------------------------


class Checker:
    """Checks command outputs with perfbench/checks.py. Outputs that are
    byte-identical to one already checked are not checked again."""

    def __init__(self) -> None:
        ref = json.loads(REFERENCE.read_text())
        self.th1_classes = ref["c4free_by_edges"]["9"]
        self.seen: Dict[bytes, List[str]] = {}
        self.errors: List[str] = []

    def __call__(self, kind: str, cmd: Command) -> None:
        if cmd.rc != 0:
            self.errors.append(f"{cmd.argv}: exit code {cmd.rc}")
            return
        try:
            key = cmd.stdout.read_bytes() + b"\0" + cmd.output.read_bytes()
            if key not in self.seen:
                self.seen[key] = self._check(kind, cmd)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.errors.append(f"{cmd.argv}: unreadable output ({exc!r})")
            return
        self.errors += [f"{cmd.argv}: {e}" for e in self.seen[key]]

    def _check(self, kind: str, cmd: Command) -> List[str]:
        result = json.loads(cmd.stdout.read_text())
        if kind == "search":
            return checks.check_search(result, json.loads(cmd.output.read_text()), 14)
        return checks.check_theorem1_m9(result, checks.read_rows(cmd.output), self.th1_classes)


def _throughput(kind: str, cmd: Command) -> float:
    """Work done per second by one command: graphs verified, or restarts
    completed; 0 if the command failed."""
    if cmd.rc != 0:
        return 0.0
    if kind == "search":
        return RESTARTS / cmd.wall_s
    try:
        return json.loads(cmd.stdout.read_text())["count"] / cmd.wall_s
    except (ValueError, KeyError, TypeError):  # reported by the checks
        return 0.0


# --- the two kinds of run -------------------------------------------------


def timed_run(runner: Runner, seconds: float, check: Checker) -> tuple:
    setups = [runner.probe_setup() for _ in range(SETUP_PROBES)]
    cmds: List[Command] = []
    t_begin = perf_counter()
    while True:
        cmds.append(runner.command())
        if (perf_counter() - t_begin) * (len(cmds) + 1) / len(cmds) > seconds:
            break
    kind = runner.wl.kind
    for cmd in cmds:
        check(kind, cmd)
    metrics = {
        "wall_s": (statistics.median(cmd.wall_s for cmd in cmds), "s"),
        "setup_s": (statistics.median(setups + [cmd.setup_s for cmd in cmds]), "s"),
        "cpu_s": (statistics.median(cmd.stats["cpu_s"] for cmd in cmds), "s"),
        "throughput": (statistics.median(_throughput(kind, cmd) for cmd in cmds), "1/s"),
        "peak_rss_mb": (max(cmd.stats["peak_rss_kb"] for cmd in cmds) / 1024.0, "MB"),
    }
    return cmds, metrics


def traced_run(runner: Runner, check: Checker) -> tuple:
    plain = runner.command()
    traced = runner.command(trace=True)
    for cmd in (plain, traced):
        check(runner.wl.kind, cmd)
    units = {"_s": "s", "_ratio": "ratio", "_per_class": "calls/class"}
    metrics = {}
    for name, value in traced.stats["layers"].items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (traced.wall_s - plain.wall_s, "s")
    return [plain, traced], metrics


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument(
        "--seed", type=int, required=True,
        help="accepted for the common interface; no workload draws input from it (README)",
    )
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "c4free" / "cli.py").is_file():
        print(f"error: no c4free sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    runner = Runner(args.workload, out)
    try:
        check = Checker()
        if args.trace:
            cmds, metrics = traced_run(runner, check)
        else:
            cmds, metrics = timed_run(runner, args.seconds, check)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for err in check.errors[:20]:
        print(f"check failed: {err}", file=sys.stderr)
    result = {
        "correct": not check.errors,
        "attempted": len(cmds),
        "failed": sum(cmd.rc != 0 for cmd in cmds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
